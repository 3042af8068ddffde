"""Archive format: manifests, payload layout, vocabulary embedding."""

import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from patkg.archive import load_archive, save_archive
from patkg.errors import ArchiveError, ParseError
from patkg.graph import EntityKind, RelationKind, Vocabulary, generate_synthetic
from patkg.ingestion import load_store
from patkg.models import ModelKind, init_params


@pytest.fixture(scope="module")
def store():
    return generate_synthetic(2, 6, 3, 2, 0.3, 0.05, seed=13)


def params_for(store, kind, dim=4):
    return init_params(kind, len(store.vocab), dim, 7, store.vocab.fingerprint())


@pytest.mark.parametrize("kind", list(ModelKind))
def test_float64_round_trip_bit_exact(store, kind, tmp_path):
    params = params_for(store, kind)
    path = tmp_path / "a.kge"
    save_archive(path, params, vocab=store.vocab, encoding="float64")
    loaded, vocab = load_archive(path)
    assert loaded.kind is kind and loaded.dim == params.dim
    assert np.array_equal(loaded.entities, params.entities)
    for rel in RelationKind:
        for name in params.relations[rel]:
            assert np.array_equal(loaded.relations[rel][name], params.relations[rel][name])
    assert vocab.export_text() == store.vocab.export_text()


def test_float32_round_trip_within_precision(store, tmp_path):
    params = params_for(store, ModelKind.TRANSE_L2)
    path = tmp_path / "a.kge"
    save_archive(path, params, vocab=store.vocab, encoding="float32")
    loaded, vocab = load_archive(path)
    assert vocab.export_text() == store.vocab.export_text()
    np.testing.assert_allclose(loaded.entities, params.entities, rtol=1e-6, atol=1e-7)


def test_manifest_first_two_lines(store, tmp_path):
    params = params_for(store, ModelKind.DISTMULT, dim=4)
    path = tmp_path / "a.kge"
    save_archive(path, params, vocab=store.vocab)
    lines = path.read_bytes().split(b"\n", 2)
    assert lines[0] == b"patkg-archive 1"
    manifest = json.loads(lines[1])
    assert manifest["dim"] == 4
    assert manifest["entities"] == len(store.vocab)
    assert manifest["kind"] == "distmult"
    assert manifest["vocab_sha256"] == store.vocab.fingerprint()


def test_payload_length_checked(store, tmp_path):
    params = params_for(store, ModelKind.TRANSE_L2)
    path = tmp_path / "a.kge"
    save_archive(path, params, vocab=store.vocab)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ArchiveError) as err:
        load_archive(path)
    assert "byte" in str(err.value)


def test_bad_magic(tmp_path):
    path = tmp_path / "a.kge"
    path.write_bytes(b"not an archive\n{}\n")
    with pytest.raises(ArchiveError):
        load_archive(path)


def test_byte_identical_without_source_date_epoch(store, tmp_path, monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    params = params_for(store, ModelKind.ROTATE)
    a, b = tmp_path / "a.kge", tmp_path / "b.kge"
    save_archive(a, params, vocab=store.vocab)
    save_archive(b, params, vocab=store.vocab)
    assert a.read_bytes() == b.read_bytes()


def test_save_rejects_a_vocabulary_of_another_fingerprint(store, tmp_path):
    params = params_for(store, ModelKind.TRANSE_L2)
    # one label renamed: same size, other fingerprint
    other = Vocabulary.from_lines((store.vocab.export_text()[:-1] + "x").split("\n"))
    assert len(other) == len(store.vocab)
    with pytest.raises(ArchiveError):
        save_archive(tmp_path / "a.kge", params, vocab=other)
    assert not (tmp_path / "a.kge").exists()


def test_vocab_entities_must_equal_entities(store, tmp_path):
    path = tmp_path / "a.kge"
    save_archive(path, params_for(store, ModelKind.TRANSE_L2), vocab=store.vocab)
    magic, manifest_line, rest = path.read_bytes().split(b"\n", 2)
    manifest = json.loads(manifest_line)
    for n_vocab in (0, manifest["entities"] - 1, manifest["entities"] + 1):
        manifest["vocab_entities"] = n_vocab
        path.write_bytes(b"\n".join([magic, json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode(), rest]))
        with pytest.raises(ArchiveError, match="byte 16: not the manifest save_archive writes"):
            load_archive(path)


def test_complex_interleaving_on_disk(store, tmp_path):
    # the complex row (1+3j, 2+4j) appears as (re0, im0, re1, im1) in the payload
    params = params_for(store, ModelKind.COMPLEX, dim=2)
    params.entities.view(np.complex128)[0] = [1 + 3j, 2 + 4j]
    path = tmp_path / "a.kge"
    save_archive(path, params, vocab=store.vocab, encoding="float64")
    raw = path.read_bytes()
    vocab_lines = store.vocab.export_text().encode()
    payload_start = raw.index(vocab_lines) + len(vocab_lines)
    row0 = np.frombuffer(raw, dtype="<f8", count=4, offset=payload_start)
    np.testing.assert_array_equal(row0, [1.0, 3.0, 2.0, 4.0])


def test_hand_built_complex_archive_loads_and_saves_back_unchanged(store, tmp_path, monkeypatch):
    # Built byte by byte in the format archives have always had: each
    # complex value's (re, im) pair adjacent in a float64 payload.
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    dim, n = 3, len(store.vocab)
    rng = np.random.default_rng(3)
    values = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    vecs = {rel: rng.normal(size=dim) + 1j * rng.normal(size=dim) for rel in RelationKind}
    manifest = {"kind": "complex", "dim": dim, "entities": n,
                "relations": {rel.value: {"vec": [2 * dim]} for rel in RelationKind},
                "encoding": "float64", "vocab_sha256": store.vocab.fingerprint(), "vocab_entities": n}

    def pairs(z):
        return np.stack([z.real, z.imag], axis=-1).astype("<f8").tobytes()

    raw = b"".join([
        b"patkg-archive 1\n",
        json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode() + b"\n",
        store.vocab.export_text().encode(),
        pairs(values),
        *(pairs(vecs[rel]) for rel in RelationKind),
    ])
    path = tmp_path / "hand.kge"
    path.write_bytes(raw)
    params, vocab = load_archive(path)
    np.testing.assert_array_equal(params.entities.view(np.complex128), values)
    for rel in RelationKind:
        np.testing.assert_array_equal(params.relations[rel]["vec"].view(np.complex128), vecs[rel])
    again = tmp_path / "again.kge"
    save_archive(again, params, vocab=vocab, encoding="float64")
    assert again.read_bytes() == raw


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12)
    | st.sampled_from([k.value for k in ModelKind] + ["float32", "float64", "vec", "mat"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
MANIFEST_KEYS = ["kind", "dim", "entities", "relations", "encoding", "vocab_sha256",
                 "vocab_entities"]
MANIFEST_EDITS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(MANIFEST_KEYS), JSON_VALUES),
    st.tuples(st.just("drop"), st.sampled_from(MANIFEST_KEYS), st.none()),
    st.tuples(st.just("relation"), st.sampled_from([r.value for r in RelationKind]), JSON_VALUES),
    st.tuples(st.just("replace"), st.none(), JSON_VALUES),
    st.tuples(st.just("text"), st.none(), st.text(max_size=40).filter(lambda t: "\n" not in t)),
)


@pytest.fixture(scope="module")
def archive_bytes(store, tmp_path_factory):
    out = {}
    for kind in ModelKind:
        path = tmp_path_factory.mktemp("valid") / f"{kind.value}.kge"
        save_archive(path, params_for(store, kind, dim=2), vocab=store.vocab)
        out[kind] = path.read_bytes()
    return out


@given(kind=st.sampled_from(list(ModelKind)), edit=MANIFEST_EDITS)
@example(kind=ModelKind.TRANSE_L2, edit=("set", "kind", "transe_l2"))  # the writer's own manifest: it loads
def test_manifest_edits_load_or_raise_archive_error(archive_bytes, tmp_path_factory, kind, edit):
    magic, manifest_line, rest = archive_bytes[kind].split(b"\n", 2)
    manifest = json.loads(manifest_line)
    action, key, value = edit
    if action == "set":
        manifest[key] = value
    elif action == "drop":
        manifest.pop(key)
    elif action == "relation":
        manifest["relations"][key] = value
    elif action == "replace":
        manifest = value
    # serialized as the writer serializes it, so an edit that changes nothing still loads
    text = value if action == "text" else json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    path = tmp_path_factory.getbasetemp() / "edited.kge"
    path.write_bytes(b"\n".join([magic, text.encode("utf-8"), rest]))
    try:
        params, vocab = load_archive(path)
    except ArchiveError as exc:
        assert "byte" in str(exc)
    else:
        assert text.encode("utf-8") == manifest_line  # only the written manifest loads
        assert params.entities.shape[0] == len(vocab)


@pytest.mark.parametrize("kind", [ModelKind.TRANSE_L2, ModelKind.COMPLEX])
def test_every_truncation_raises_archive_error(archive_bytes, tmp_path, kind):
    raw = archive_bytes[kind]
    vocab_start = raw.index(b"\n", raw.index(b"\n") + 1) + 1
    vocab_end = vocab_start
    for _ in range(json.loads(raw.split(b"\n", 2)[1])["vocab_entities"]):
        vocab_end = raw.index(b"\n", vocab_end) + 1
    assert vocab_start < vocab_end < len(raw)
    path = tmp_path / "cut.kge"
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(ArchiveError) as err:
            load_archive(path)
        if vocab_start <= cut < vocab_end:
            # the offset where the first incomplete vocabulary line starts
            line_start = raw.rfind(b"\n", 0, cut) + 1
            assert str(err.value) == f"truncated vocabulary at byte {line_start}"


@pytest.mark.parametrize("value", [3.5e38, -3.5e38, 1e308])
def test_values_outside_float32_are_refused(store, tmp_path, value):
    # a cast would write them as inf, with a RuntimeWarning on stderr
    params = params_for(store, ModelKind.TRANSR)
    params.relations[RelationKind.OWN]["mat"][1, 2] = value
    with pytest.raises(ArchiveError, match="outside the float32 range"):
        save_archive(tmp_path / "a.kge", params, vocab=store.vocab)
    assert not (tmp_path / "a.kge").exists()
    save_archive(tmp_path / "b.kge", params, vocab=store.vocab, encoding="float64")
    assert load_archive(tmp_path / "b.kge")[0].relations[RelationKind.OWN]["mat"][1, 2] == value
    params.relations[RelationKind.OWN]["mat"][1, 2] = np.finfo(np.float32).max
    save_archive(tmp_path / "c.kge", params, vocab=store.vocab)


VOCABULARY_REWRITES = {
    "crlf endings": lambda lines: [line + b"\r" for line in lines],
    "ordinal 01": lambda lines: lines[:1] + [b"0" + lines[1]] + lines[2:],
    "ordinal +2": lambda lines: lines[:2] + [b"+" + lines[2]] + lines[3:],
}
BROKEN_LINE = {"crlf endings": None, "ordinal 01": 2, "ordinal +2": 3}  # 1-based, None: the block loads


@pytest.mark.parametrize("name", list(VOCABULARY_REWRITES))
def test_vocabulary_block_is_checked_by_what_it_reads_as(store, tmp_path, name):
    # CRLF endings read as the export text, which the manifest's vocab_sha256 hashes; an ordinal
    # `export_text` does not write is refused at its line's first byte
    path = tmp_path / "a.kge"
    params = params_for(store, ModelKind.TRANSE_L2)
    save_archive(path, params, vocab=store.vocab, encoding="float64")
    magic, manifest, rest = path.read_bytes().split(b"\n", 2)
    lines = rest.split(b"\n", len(store.vocab))  # the vocabulary lines, then the payload
    block = b"".join(line + b"\n" for line in VOCABULARY_REWRITES[name](lines[:-1]))
    path.write_bytes(b"\n".join([magic, manifest, block + lines[-1]]))
    if (number := BROKEN_LINE[name]) is not None:
        at = len(magic) + len(manifest) + 2 + sum(len(line) + 1 for line in lines[:number - 1])
        with pytest.raises(ArchiveError, match=f"^bad vocabulary at byte {at}: vocabulary line {number}: "):
            load_archive(path)
        return
    loaded, vocab = load_archive(path)
    assert vocab.export_text() == store.vocab.export_text()
    assert loaded.entities.tobytes() == params.entities.tobytes()


# labels `parse_label` accepts, so any list of distinct ones is a vocabulary
LABELS = st.tuples(st.sampled_from([k.value for k in EntityKind]),
                   st.sampled_from(["", "1", "x", "a:b", " 7", "\u00e9", "\u2028", "\x0c"])
                   | st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\r\n"), max_size=3)).map(":".join)
VOCABULARIES = st.lists(LABELS, min_size=2, max_size=8, unique=True)
BLOCK_EDITS = ["ordinal 01", "ordinal +1", "ordinal space", "swap", "repeat", "unknown kind", "missing tab"]


def vocabulary_of(labels):
    vocab = Vocabulary()
    assert vocab.add_labels(labels)
    return vocab


def edited(labels, edit, i):
    """The export lines of `labels` (no newlines) with one edit at about line `i`, and the
    1-based number of the first line the edit breaks."""
    lines = [f"{n}\t{label}" for n, label in enumerate(labels)]
    i = {"swap": min(i, len(labels) - 2), "repeat": max(i, 1)}.get(edit, i)
    if edit.startswith("ordinal"):
        lines[i] = {"ordinal 01": "0", "ordinal +1": "+", "ordinal space": " "}[edit] + lines[i]
    elif edit == "swap":
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif edit == "repeat":
        lines[i] = f"{i}\t{labels[i - 1]}"
    elif edit == "unknown kind":
        lines[i] = f"{i}\tbogus:{labels[i].partition(':')[2]}"
    else:  # the tab goes
        lines[i] = f"{i}{labels[i]}"
    return lines, i + 1


def sidecar_store(tmp_path, text, newline=None):
    """`load_store` of an empty triple file with `text` as its `.vocab` sidecar."""
    path = tmp_path / "store.tsv"
    path.write_text("", encoding="utf-8")
    with open(f"{path}.vocab", "w", encoding="utf-8", newline=newline) as fh:
        fh.write(text)
    return load_store(path)


@given(labels=VOCABULARIES)
def test_any_vocabulary_round_trips_through_its_sidecar_and_an_archive(tmp_path_factory, labels):
    vocab, tmp_path = vocabulary_of(labels), tmp_path_factory.mktemp("round")
    save_archive(tmp_path / "a.kge", init_params(ModelKind.TRANSE_L2, len(vocab), 2, 1, vocab.fingerprint()), vocab)
    for newline in ("\n", "\r\n"):  # as written, and CRLF-rewritten
        read = [sidecar_store(tmp_path, vocab.export_text(), newline).vocab, load_archive(tmp_path / "a.kge")[1]]
        for back in read:
            assert (back.labels, back.kinds, back.fingerprint()) == (labels, vocab.kinds, vocab.fingerprint())


@given(labels=VOCABULARIES, edit=st.sampled_from(BLOCK_EDITS), i=st.integers(0, 7))
def test_every_single_line_edit_is_refused_at_its_line(tmp_path_factory, labels, edit, i):
    vocab, tmp_path = vocabulary_of(labels), tmp_path_factory.mktemp("edit")
    lines, number = edited(labels, edit, i % len(labels))
    text = "".join(line + "\n" for line in lines)
    with pytest.raises(ParseError, match=f"^vocabulary line {number}: "):
        sidecar_store(tmp_path, text)
    path = tmp_path / "a.kge"
    save_archive(path, init_params(ModelKind.TRANSE_L2, len(vocab), 2, 1, vocab.fingerprint()), vocab)
    magic, manifest, rest = path.read_bytes().split(b"\n", 2)
    payload = rest[len(vocab.export_text().encode()):]
    path.write_bytes(b"%s\n%s\n%s%s" % (magic, manifest, text.encode(), payload))
    at = len(magic) + len(manifest) + 2 + len("".join(line + "\n" for line in lines[:number - 1]).encode())
    with pytest.raises(ArchiveError, match=f"^bad vocabulary at byte {at}: vocabulary line {number}: "):
        load_archive(path)
