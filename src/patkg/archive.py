"""Embedding archive: a text manifest followed by a raw binary payload.

Layout of the single file:

    line 1   magic `patkg-archive 1`
    line 2   manifest, one compact JSON object with sorted keys
    then     `vocab_entities` vocabulary lines, one per entity
    then     the parameter payload, little-endian floats

The payload holds the entity table first, then each relation's blocks in
relation order (block names sorted within a relation), every matrix
row-major. Complex-valued rows are interleaved (real, imaginary) on disk,
the layout they have in memory, so nothing is converted on save or load.
A load accepts only the manifest line `save_archive` writes for the kind,
dim, entity count, encoding and `vocab_sha256` it names, so it pins every
shape: the payload is the file's last bytes and its length is checked
exactly. The vocabulary lines are read as a `.vocab` sidecar is, with
universal newlines; they must be export text, and hash to `vocab_sha256`.
So a load reads every embedding row under the label it was trained with,
or raises.

Encoding is float32 by default to halve archive size; float64 is the
bit-exact mode. The manifest holds no timestamp, so equal inputs always
produce byte-identical archives.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ArchiveError, FingerprintMismatch, ParseError
from .graph import RelationKind, Vocabulary
from .models import SPECS, ModelKind, ModelParams

MAGIC = "patkg-archive 1"
_ENCODINGS = {"float32": np.float32, "float64": np.float64}


def _payload_layout(kind: ModelKind, n_entities: int, dim: int):
    """Payload blocks in disk order: (relation or None, name, shape)."""
    spec = SPECS[kind]
    shapes = spec.relation_blocks(dim)
    return [(None, "entities", (n_entities, spec.row_dim(dim)))] + [
        (rel, name, shapes[name]) for rel in RelationKind for name in sorted(shapes)
    ]


def _header(kind: ModelKind, dim: int, n_entities: int, encoding: str, fingerprint: str) -> bytes:
    """The magic line and the manifest line, one compact JSON object with sorted keys."""
    shapes = SPECS[kind].relation_blocks(dim)
    relations = {rel.value: {name: list(shapes[name]) for name in sorted(shapes)} for rel in RelationKind}
    manifest = {"kind": kind.value, "dim": dim, "entities": n_entities, "relations": relations, "encoding": encoding,
                "vocab_sha256": fingerprint, "vocab_entities": n_entities}
    return f"{MAGIC}\n{json.dumps(manifest, sort_keys=True, separators=(',', ':'))}\n".encode()


def save_archive(path, params: ModelParams, vocab: Vocabulary, encoding: str = "float32") -> None:
    """Write `params` with the vocabulary it was trained against, which must match its fingerprint,
    in an encoding whose range (float32: about +-3.4e38) holds every value."""
    if encoding not in _ENCODINGS:
        raise ArchiveError(f"unknown encoding {encoding!r}")
    dtype = np.dtype(_ENCODINGS[encoding]).newbyteorder("<")
    if len(vocab) != params.n_entities or vocab.fingerprint() != params.vocab_fingerprint:
        raise ArchiveError("vocabulary does not match the entity table and vocab_sha256")

    blocks = [params.entities if rel is None else params.relations[rel][name]
              for rel, name, _ in _payload_layout(params.kind, params.n_entities, params.dim)]
    if any(max(block.max(), -block.min()) > np.finfo(dtype).max for block in blocks):
        raise ArchiveError(f"a parameter value is outside the {encoding} range")

    with open(path, "wb") as fh:
        fh.write(_header(params.kind, params.dim, params.n_entities, encoding, params.vocab_fingerprint))
        fh.write(vocab.export_text().encode("utf-8"))
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype=dtype).tobytes())


def _parse_manifest(text: bytes, offset: int):
    """(kind, dim, n_entities, dtype, fingerprint) from the manifest line, which must be the one `_header` builds
    from them."""
    def bad(reason: str) -> ArchiveError:
        return ArchiveError(f"bad manifest at byte {offset}: {reason}")

    try:
        manifest = json.loads(text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArchiveError(f"unreadable manifest at byte {offset}: {exc}") from None
    if not isinstance(manifest, dict):
        raise bad("not a JSON object")
    try:
        kind = ModelKind(manifest.get("kind"))
    except ValueError:
        raise bad(f"unknown model kind {manifest.get('kind')!r}") from None
    dim, n_entities = manifest.get("dim"), manifest.get("entities")
    if not all(type(value) is int and value >= 1 for value in (dim, n_entities)):
        raise bad("dim and entities must be integers >= 1")
    encoding = manifest.get("encoding")
    if not isinstance(encoding, str) or encoding not in _ENCODINGS:
        raise bad(f"unknown encoding {encoding!r}")
    fingerprint = manifest.get("vocab_sha256")
    if not isinstance(fingerprint, str):
        raise bad("vocab_sha256 must be a string")
    if _header(kind, dim, n_entities, encoding, fingerprint).split(b"\n")[1] != text:
        raise bad("not the manifest save_archive writes for its kind, dim, entities, encoding and vocab_sha256")
    dtype = np.dtype(_ENCODINGS[encoding]).newbyteorder("<")
    return kind, dim, n_entities, dtype, fingerprint


def load_archive(path) -> tuple[ModelParams, Vocabulary]:
    """Read an archive back into (params, vocab).

    Raises ArchiveError with the offending byte offset when the manifest
    is not as `save_archive` writes it, a vocabulary line is not export
    text, the lines do not hash to its `vocab_sha256`, or the payload does
    not match it exactly or holds a NaN or infinity.
    """
    raw = Path(path).read_bytes()
    nl1 = raw.find(b"\n")
    if nl1 < 0 or raw[:nl1].decode("utf-8", "replace") != MAGIC:
        raise ArchiveError(f"bad magic at byte 0 in {path}")
    nl2 = raw.find(b"\n", nl1 + 1)
    if nl2 < 0:
        raise ArchiveError(f"truncated manifest at byte {len(raw)}")
    kind, dim, n_entities, dtype, fingerprint = _parse_manifest(raw[nl1 + 1 : nl2], nl1 + 1)

    pos = nl2 + 1
    layout = _payload_layout(kind, n_entities, dim)
    need = sum(math.prod(shape) for _, _, shape in layout) * dtype.itemsize
    end = len(raw) - need  # the payload is the file's last `need` bytes
    if raw.count(b"\n", pos, max(pos, end)) != n_entities or raw[end - 1 : end] != b"\n":
        if raw.count(b"\n", pos) < n_entities:
            incomplete = raw.rfind(b"\n", nl2) + 1  # where the first incomplete line starts
            raise ArchiveError(f"truncated vocabulary at byte {incomplete}")
        raise ArchiveError(f"{n_entities} vocabulary lines from byte {pos} do not end where "
                           f"the {need}-byte payload starts, at byte {end}")
    try:
        text = raw[pos:end].decode("utf-8")
        # lines as the `.vocab` sidecar's are read, with universal newlines
        vocab = Vocabulary.from_lines(text.replace("\r\n", "\n").replace("\r", "\n").split("\n")[:-1])
    except UnicodeDecodeError as exc:
        raise ArchiveError(f"bad vocabulary at byte {pos + exc.start}: {exc}") from None
    except ParseError as exc:  # at the line's first byte; `bytes.splitlines` breaks where the lines above do
        at = pos + sum(map(len, raw[pos:end].splitlines(keepends=True)[:exc.line - 1]))
        raise ArchiveError(f"bad vocabulary at byte {at}: {exc}") from None
    if len(vocab) != n_entities or vocab.fingerprint() != fingerprint:
        raise ArchiveError(f"vocabulary before byte {end} does not match vocab_sha256")

    pos, entities = end, None
    relations: dict[RelationKind, dict[str, np.ndarray]] = {rel: {} for rel in RelationKind}
    for rel, name, shape in layout:
        count = math.prod(shape)
        arr = np.frombuffer(raw, dtype=dtype, count=count, offset=pos).reshape(shape).astype(np.float64)
        if not (finite := np.isfinite(arr)).all():
            block, at = name if rel is None else f"{rel.value}/{name}", pos + int(finite.argmin()) * dtype.itemsize
            raise ArchiveError(f"non-finite value in block {block} at byte {at}")
        pos += count * dtype.itemsize
        if rel is None:
            entities = arr
        else:
            relations[rel][name] = arr

    return ModelParams(kind, dim, entities, relations, fingerprint), vocab


def check_fingerprint(params: ModelParams, vocab: Vocabulary) -> None:
    if params.vocab_fingerprint != vocab.fingerprint():
        raise FingerprintMismatch(
            "model parameters were trained against a different vocabulary"
        )
