"""Command-line surface: exit codes, outputs, end-to-end determinism."""

import hashlib
import io
import json
import logging
import re
import subprocess
import sys
import tempfile
import types
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from patkg import cli
from patkg.archive import load_archive, save_archive
from patkg.cli import main
from patkg.errors import ArchiveError
from patkg.graph import RelationKind, generate_synthetic
from patkg.ingestion import load_store, parse_triples_file, write_triples_file
from patkg.models import SPECS, ModelKind, init_params
from patkg.reports import fnum
from patkg.trainer import default_config

MINIMAL_GRAPH = """\
inventor:4074775\twrite\tpatent:5252504
assignee:336083\town\tpatent:5252504
group:H01L\tcontain\tpatent:5252504
subsection:H01\tcomprise\tgroup:H01L
"""


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "graph.tsv"
    store = generate_synthetic(3, 10, 4, 2, 0.3, 0.05, seed=19)
    write_triples_file(store, path)
    return path


def run_cli(*args):
    return main([str(a) for a in args])


class TestIngest:
    def test_round_trip(self, tmp_path):
        src = tmp_path / "in.tsv"
        src.write_text(MINIMAL_GRAPH)
        out = tmp_path / "store.tsv"
        assert run_cli("ingest", src, out) == 0
        assert out.exists() and (tmp_path / "store.tsv.vocab").exists()

    def test_data_error_exit_1(self, tmp_path, capsys):
        src = tmp_path / "in.tsv"
        out = tmp_path / "store.tsv"
        for data, kind in ((b"patent:1\twrite\tinventor:2\n", "SchemaViolation"),
                           (b"patent:1\tcite\tpatent:\xff2\n", "UnicodeDecodeError")):
            src.write_bytes(data)
            assert run_cli("ingest", src, out) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {kind}:") and err.count("\n") == 1, err

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert run_cli("ingest", tmp_path / "nope.tsv", tmp_path / "out.tsv") == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["ingest"])  # missing positionals
        assert exc.value.code == 2

    @pytest.mark.parametrize("mark", ["\u2028", "\x0c", "\x0b", "\x1c", "\x85"],
                             ids=["u2028", "x0c", "x0b", "x1c", "x85"])
    def test_ids_holding_other_line_breaks(self, mark, tmp_path):
        # str.splitlines() also breaks at these; sidecar and entity-list lines end at "\n" only
        label = f"inventor:a{mark}b"
        src, store_path, arc = tmp_path / "in.tsv", tmp_path / "store.tsv", tmp_path / "m.kge"
        src.write_text(f"{label}\twrite\tpatent:5252504\n{MINIMAL_GRAPH}", encoding="utf-8")
        assert run_cli("ingest", src, store_path) == 0
        assert run_cli("train", store_path, "transe_l2", arc, "--dim", "4", "--epochs", "1",
                       "--train-on-all") == 0
        listing, out = tmp_path / "entities.txt", tmp_path / "matrix.tsv"
        listing.write_text(f"{label}\n  # c\npatent:5252504\n", encoding="utf-8")
        assert run_cli("proximity", arc, listing, "inventor", out) == 0
        assert out.read_text(encoding="utf-8").split("\n")[0] == f"entity\t{label}\tpatent:5252504"

    def test_proximity_lists_ids_ending_in_whitespace(self, tmp_path):
        # an entity-list line loses only its newline; blank and comment lines are skipped
        label = "inventor:a\x0c"
        src, store_path, arc = tmp_path / "in.tsv", tmp_path / "store.tsv", tmp_path / "m.kge"
        src.write_text(f"{label}\twrite\tpatent:5252504\n{MINIMAL_GRAPH}", encoding="utf-8")
        assert run_cli("ingest", src, store_path) == 0
        assert run_cli("train", store_path, "transe_l2", arc, "--dim", "4", "--epochs", "1",
                       "--train-on-all") == 0
        listing, out = tmp_path / "entities.txt", tmp_path / "matrix.tsv"
        listing.write_text(f"{label}\n \t\n  # c\npatent:5252504\n", encoding="utf-8")
        assert run_cli("proximity", arc, listing, "inventor", out) == 0
        assert out.read_text(encoding="utf-8").split("\n")[0] == f"entity\t{label}\tpatent:5252504"


class TestTrainEval:
    def test_minimal_manifest(self, tmp_path):
        src = tmp_path / "in.tsv"
        src.write_text(MINIMAL_GRAPH)
        store_path = tmp_path / "store.tsv"
        run_cli("ingest", src, store_path)
        arc = tmp_path / "m.kge"
        assert run_cli("train", store_path, "transe_l2", arc, "--dim", "4",
                       "--epochs", "1", "--train-on-all") == 0
        manifest = json.loads(arc.read_bytes().split(b"\n", 2)[1])
        assert manifest["dim"] == 4
        assert manifest["entities"] == 5

    def test_empty_pools_are_one_stderr_line(self, tmp_path):
        # pytest captures log records in process, so only a child process shows a
        # warning that is logged before the error line
        src, store_path, arc = tmp_path / "in.tsv", tmp_path / "s.tsv", tmp_path / "m.kge"
        src.write_text(MINIMAL_GRAPH)  # one entity of each kind: every corruption pool is empty
        assert run_cli("ingest", src, store_path) == 0
        assert run_cli("train", store_path, "transe_l2", arc, "--train-on-all", "--epochs", "1",
                       "--dim", "4") == 0
        out = subprocess.run([sys.executable, "-m", "patkg.cli", "eval", arc, store_path,
                              tmp_path / "r.txt", "--test-fraction", "0.5"], capture_output=True, text=True)
        assert out.returncode == 1
        assert re.fullmatch(r"error: PoolTooSmall: [^\n]*\n", out.stderr), out.stderr

    def test_train_then_eval(self, graph_file, tmp_path):
        arc = tmp_path / "m.kge"
        assert run_cli("train", graph_file, "distmult", arc, "--dim", "8",
                       "--epochs", "3", "--seed", "7") == 0
        report = tmp_path / "report.txt"
        assert run_cli("eval", arc, graph_file, report, "-K", "10", "--seed", "3") == 0
        text = report.read_text()
        assert text.startswith("patkg eval-report")
        assert "mrr:" in text and "per-relation:" in text

    def test_train_flags_reach_report(self, graph_file, tmp_path):
        defaults = default_config(ModelKind.TRANSE_L2)
        flags = {"--lr": "0.125", "--margin": "2.5", "--loss": "logistic", "--l2": "0.001"}
        runs = {
            "set": ([a for pair in flags.items() for a in pair] + ["--no-normalize"],
                    ["learning_rate: 0.125", "margin: 2.5", "loss: logistic",
                     "l2_coefficient: 0.001", "normalize_entities: false"]),
            "default": ([], [f"learning_rate: {fnum(defaults.learning_rate)}",
                             f"margin: {fnum(defaults.margin)}", f"loss: {defaults.loss.value}",
                             f"l2_coefficient: {fnum(defaults.l2_coefficient)}",
                             f"normalize_entities: {str(defaults.normalize_entities).lower()}"]),
        }
        for name, (extra, want) in runs.items():
            report = tmp_path / f"{name}.txt"
            assert run_cli("train", graph_file, "transe_l2", tmp_path / f"{name}.kge", "--dim", "4",
                           "--epochs", "1", "--seed", "5", "--report", report, *extra) == 0
            lines = report.read_text().splitlines()
            assert [line for line in want if line not in lines] == []
            assert "epochs: 1" in lines and "dim: 4" in lines and "seed: 5" in lines

    def test_eval_clamps_large_K(self, graph_file, tmp_path):
        arc = tmp_path / "m.kge"
        run_cli("train", graph_file, "transe_l2", arc, "--dim", "4", "--epochs", "1")
        report = tmp_path / "report.txt"
        assert run_cli("eval", arc, graph_file, report, "-K", "10000", "--seed", "3") == 0

    def test_fingerprint_mismatch_exit_1(self, graph_file, tmp_path, capsys):
        other_store = tmp_path / "other_store.tsv"
        write_triples_file(generate_synthetic(2, 8, 3, 2, 0.3, 0.05, seed=99), other_store)
        arc = tmp_path / "m.kge"
        run_cli("train", graph_file, "transe_l2", arc, "--dim", "4", "--epochs", "1")
        assert run_cli("eval", arc, other_store, tmp_path / "r.txt", "--seed", "1") == 1
        assert "FingerprintMismatch" in capsys.readouterr().err
        assert run_cli("eval", arc, graph_file, tmp_path / "r.txt", "-K", "0") == 1
        assert capsys.readouterr().err.startswith("error: InvalidConfig:")
        # a damaged .vocab sidecar: non-integer ordinal, unknown kind, no tab, no colon
        vocab = graph_file.with_name(graph_file.name + ".vocab").read_text()
        for i, bad_line in enumerate(("x\tpatent:1", "1\tbogus:2", "no-tab-here", "0\tpatent")):
            damaged = tmp_path / f"damaged{i}.tsv"
            damaged.write_text(graph_file.read_text())
            damaged.with_name(damaged.name + ".vocab").write_text(f"{bad_line}\n{vocab}")
            for argv in (["train", damaged, "transe_l2", tmp_path / "d.kge", "--dim", "4"],
                         ["eval", arc, damaged, tmp_path / "r.txt"]):
                assert run_cli(*argv) == 1
                err = capsys.readouterr().err
                assert err.startswith("error: ParseError: vocabulary line 1:") and err.count("\n") == 1, err

    def test_split_flags_checked_with_train_on_all(self, graph_file, tmp_path, capsys):
        arc = tmp_path / "m.kge"
        for flags in (["--test-fraction", "5"], ["--test-fraction", "0"], ["--split-seed", "-1"]):
            assert run_cli("train", graph_file, "transe_l2", arc, "--train-on-all", "--epochs", "1", *flags) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: InvalidConfig:") and err.count("\n") == 1, err
        assert not arc.exists()

    def test_train_errors_are_one_line(self, tmp_path, capsys):
        src = tmp_path / "g.tsv"
        write_triples_file(generate_synthetic(2, 20, 5, 2, 0.2, 0.02, seed=3), src)
        cases = {
            # diverges: numpy's overflow warnings must not reach stderr
            ("--epochs", "3", "--lr", "50", "--batch-size", "32", "--no-normalize"):
                "NumericalDivergence: epoch 0: batch 3: non-finite loss or parameter",
            # overflows float32 without reaching inf in float64: refused, not saved as inf
            ("--epochs", "1", "--lr", "100", "--batch-size", "256", "--no-normalize"):
                "ArchiveError: a parameter value is outside the float32 range",
            # nan fails every hinge comparison: trains nothing unless rejected
            ("--margin", "nan"): "InvalidConfig: learning_rate, margin and l2_coefficient must be finite",
        }
        for flags, message in cases.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run_cli("train", src, "transr", tmp_path / "m.kge", "--dim", "8", *flags)
            assert code == 1
            assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / "m.kge").exists()

    def test_unallocatable_negatives_are_one_line(self, tmp_path, capsys):
        # 6 triples x 10**14 negatives asks numpy for 4.26 PiB, which it
        # refuses before allocating anything
        src, store_path = tmp_path / "in.tsv", tmp_path / "store.tsv"
        src.write_text(MINIMAL_GRAPH + "inventor:4074775\twrite\tpatent:5252505\n"
                       "patent:5252505\tcite\tpatent:5252504\n")
        assert run_cli("ingest", src, store_path) == 0
        capsys.readouterr()
        assert run_cli("train", store_path, "transe_l2", tmp_path / "m.kge", "--train-on-all",
                       "--negatives", "100000000000000") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MemoryError: ") and err.count("\n") == 1
        assert not (tmp_path / "m.kge").exists()

    def test_rejected_configs_are_one_line(self, graph_file, tmp_path, capsys):
        arc, report = tmp_path / "m.kge", tmp_path / "r.txt"
        assert run_cli("train", graph_file, "transe_l2", arc, "--dim", "4", "--epochs", "1") == 0
        cases = {
            ("train", graph_file, "transe_l2", tmp_path / "bad.kge", "--seed", "-1"):
                "seed must be >= 0, got -1",
            ("train", graph_file, "transe_l2", tmp_path / "bad.kge", "--split-seed", "-1"):
                "split seed must be >= 0, got -1",
            ("eval", arc, graph_file, report, "--split-seed", "-1"): "split seed must be >= 0, got -1",
            ("train", graph_file, "distmult", tmp_path / "bad.kge", "--normalize", "--report", report):
                "normalize_entities applies only to translational models, not distmult",
            ("eval", arc, graph_file, report, "--seed", str(2**63)):
                "seed 9223372036854775808 outside [-2**63, 2**63)",
            ("eval", arc, graph_file, report, "--seed", str(-2**63 - 1)):
                "seed -9223372036854775809 outside [-2**63, 2**63)",
        }
        for argv, message in cases.items():
            assert run_cli(*argv) == 1
            assert capsys.readouterr().err == f"error: InvalidConfig: {message}\n"
            assert not (tmp_path / "bad.kge").exists() and not report.exists()
        # eval's own --seed only keys the corruption draws: any signed 64-bit value is valid
        for seed in (-1, 2**63 - 1):
            assert run_cli("eval", arc, graph_file, report, "-K", "5", "--seed", seed) == 0


# Runs `patkg train` with glibc's default malloc thresholds: the oracle for
# the pinned ones, which change where memory comes from but no arithmetic.
UNPINNED_MAIN = ("import sys; from patkg import cli; "
                 "cli._pin_malloc_thresholds = lambda: None; sys.exit(cli.main(sys.argv[1:]))")


@pytest.mark.parametrize("model", ["complex", "rescal"])
def test_pinned_malloc_thresholds_keep_bytes(model, tmp_path):
    src = tmp_path / "g.tsv"
    # 2,636 triples: batches of 512 at dim 50 allocate temporaries above
    # glibc's default 128 KiB mmap threshold.
    write_triples_file(generate_synthetic(2, 120, 20, 4, 0.05, 0.005, seed=5), src)
    outputs = {}
    for tag, prefix in (("pinned", ["-m", "patkg.cli"]), ("default", ["-c", UNPINNED_MAIN])):
        arc, report = tmp_path / f"{tag}.kge", tmp_path / f"{tag}.txt"
        subprocess.run([sys.executable, *prefix, "train", str(src), model, str(arc),
                        "--dim", "50", "--epochs", "2", "--batch-size", "512",
                        "--encoding", "float64", "--report", str(report)], check=True)
        outputs[tag] = arc.read_bytes(), report.read_bytes()
    assert outputs["pinned"] == outputs["default"]


def _no_cdll(name):
    raise TypeError("no C library handle")  # ctypes.CDLL(None) on Windows


@pytest.mark.parametrize("cdll", [lambda name: types.SimpleNamespace(), _no_cdll],
                         ids=["no-mallopt", "no-libc-handle"])
def test_missing_mallopt_is_skipped(cdll, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "ctypes", types.SimpleNamespace(CDLL=cdll))
    src = tmp_path / "in.tsv"
    src.write_text(MINIMAL_GRAPH)
    assert main(["ingest", str(src), str(tmp_path / "store.tsv")]) == 0


@pytest.fixture(scope="module")
def archive(graph_file, tmp_path_factory):
    arc = tmp_path_factory.mktemp("arc") / "m.kge"
    run_cli("train", graph_file, "transe_l2", arc, "--dim", "8", "--epochs", "5",
            "--seed", "11", "--train-on-all")
    return arc


class TestProximityCommands:

    def test_neighbors(self, archive, tmp_path):
        out = tmp_path / "nn.tsv"
        assert run_cli("neighbors", archive, "patent:p000_00000", out, "-k", "5") == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank\tentity\tkind\tproximity"
        assert len(lines) == 6

    def test_neighbors_kind_filter(self, archive, tmp_path):
        out = tmp_path / "nn.tsv"
        run_cli("neighbors", archive, "inventor:i000_0000", out, "-k", "4",
                "--kind-filter", "patent")
        for line in out.read_text().splitlines()[1:]:
            assert line.split("\t")[2] == "patent"

    def test_proximity_matrix(self, archive, tmp_path):
        listing = tmp_path / "entities.txt"
        listing.write_text("patent:p000_00000\ninventor:i000_0000\ngroup:A00A\n")
        out = tmp_path / "matrix.tsv"
        assert run_cli("proximity", archive, listing, "patent", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        first = float(lines[1].split("\t")[1])
        assert first == 1.0

    def test_export_embeddings(self, archive, tmp_path):
        out = tmp_path / "emb.tsv"
        assert run_cli("export-embeddings", archive, out, "--kind-filter", "group") == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # three groups
        assert all(line.startswith("group:") for line in lines)

    def test_export_embeddings_of_an_absent_kind_is_an_empty_file(self, tmp_path):
        src, store_path, arc = tmp_path / "in.tsv", tmp_path / "s.tsv", tmp_path / "m.kge"
        src.write_text("inventor:i1\twrite\tpatent:p1\npatent:p2\tcite\tpatent:p1\n")  # no assignee
        assert run_cli("ingest", src, store_path) == 0
        assert run_cli("train", store_path, "transe_l2", arc, "--dim", "4", "--epochs", "1",
                       "--train-on-all") == 0
        out = tmp_path / "emb.tsv"
        assert run_cli("export-embeddings", arc, out, "--kind-filter", "assignee") == 0
        assert out.read_bytes() == b""

    def test_unknown_entity_exit_1(self, archive, tmp_path, capsys):
        no_labels = tmp_path / "none.txt"
        no_labels.write_text("# no entities\n")
        raw = archive.read_bytes()
        magic, manifest_line, rest = raw.split(b"\n", 2)
        bad_archives = {}
        for name, manifest in (("kind", '{"kind":"transx"}'), ("keys", '{"kind":"transe_l2"}'),
                               ("list", "[1, 2]")):
            bad_archives[name] = tmp_path / f"{name}.kge"
            bad_archives[name].write_bytes(b"\n".join([magic, manifest.encode(), rest]))
        # vocabulary lines that disagree with vocab_sha256: every row would be read under a wrong label
        first, second = b"\tpatent:p000_00000\n", b"\tpatent:p000_00001\n"
        i, j = raw.index(first), raw.index(second)
        sha = json.loads(manifest_line)["vocab_sha256"].encode()
        edited = {
            "swapped": raw[:i] + second + raw[i + len(first):j] + first + raw[j + len(second):],
            "renamed": raw.replace(first, b"\tpatent:p999_00000\n", 1),
            "sha": raw.replace(sha, sha[::-1], 1),
        }
        for name, data in edited.items():
            bad_archives[name] = tmp_path / f"{name}.kge"
            bad_archives[name].write_bytes(data)
        known = tmp_path / "known.txt"
        known.write_text("patent:p000_00000\ninventor:i000_0000\n")
        # a label the vocabulary lacks, malformed or not, is an unknown entity
        for label in ("patent:missing", "foo:bar", "patent", "patent:"):
            listing = tmp_path / "labels.txt"
            listing.write_text(f"patent:p000_00000\n{label}\n")
            for argv in (["neighbors", archive, label, tmp_path / "o.tsv"],
                         ["proximity", archive, listing, "patent", tmp_path / "m.tsv"]):
                assert run_cli(*argv) == 1
                assert capsys.readouterr().err == f"error: UnknownEntity: {label} not in vocabulary\n"
        cases = [
            (["neighbors", archive, "patent:p000_00000", tmp_path / "o.tsv", "-k", "0"],
             "InvalidConfig"),
            (["proximity", archive, no_labels, "patent", tmp_path / "m.tsv"], "InvalidConfig"),
        ] + [
            (["neighbors", path, "patent:p000_00000", tmp_path / "o.tsv"], "ArchiveError")
            for path in bad_archives.values()
        ] + [
            (argv, "ArchiveError") for name in ("swapped", "renamed", "sha") for argv in (
                ["proximity", bad_archives[name], known, "patent", tmp_path / "m.tsv"],
                ["export-embeddings", bad_archives[name], tmp_path / "e.tsv"])
        ]
        for argv, kind in cases:
            assert run_cli(*argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {kind}:") and err.count("\n") == 1, err
            if kind == "ArchiveError":
                assert re.search(r"\bbyte \d+\b", err), err


def edited_vocabulary(raw, edit):
    """`raw` with its vocabulary lines passed through `edit` and `vocab_sha256` recomputed
    over the edited block, so only the loader's reading of the lines can refuse it."""
    magic, manifest_line, rest = raw.split(b"\n", 2)
    manifest = json.loads(manifest_line)
    end = 0
    for _ in range(manifest["vocab_entities"]):
        end = rest.index(b"\n", end) + 1
    lines = rest[:end].split(b"\n")[:-1]
    block = b"".join(line + b"\n" for line in edit(lines))
    manifest["vocab_sha256"] = hashlib.sha256(block).hexdigest()
    return b"\n".join([magic, json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode(),
                       block + rest[end:]])


def _set(lines, i, line):
    return lines[:i] + [line] + lines[i + 1:]


VOCABULARY_EDITS = {
    "duplicated label": lambda ls: _set(ls, 5, b"5\t" + ls[4].split(b"\t", 1)[1]),
    "unknown kind": lambda ls: _set(ls, 5, b"5\tbogus:" + ls[5].split(b":", 1)[1]),
    "no tab": lambda ls: _set(ls, 5, ls[5].replace(b"\t", b" ", 1)),
    "01 ordinal": lambda ls: _set(ls, 5, b"0" + ls[5]),
    "blank line inserted": lambda ls: ls[:5] + [b""] + ls[5:],
    "blank line for a label": lambda ls: _set(ls, 5, b""),
    "crlf endings": lambda ls: [line + b"\r" for line in ls],
    "one crlf ending": lambda ls: _set(ls, 5, ls[5] + b"\r"),
    "non-utf-8 id": lambda ls: _set(ls, 5, ls[5] + b"\xff"),
}


@pytest.mark.parametrize("name", list(VOCABULARY_EDITS))
def test_edited_vocabulary_blocks_are_refused(archive, tmp_path, capsys, name):
    edited = tmp_path / "edited.kge"
    edited.write_bytes(edited_vocabulary(archive.read_bytes(), VOCABULARY_EDITS[name]))
    with pytest.raises(ArchiveError):
        load_archive(edited)
    assert run_cli("neighbors", edited, "patent:p000_00000", tmp_path / "o.tsv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ArchiveError: ") and err.count("\n") == 1, err
    assert not (tmp_path / "o.tsv").exists()


def test_recomputed_vocabulary_checksum_reads_the_edited_labels(archive, tmp_path):
    # the edits above are refused for what they do to the lines, not for the recomputed checksum
    params, vocab = load_archive(archive)
    same = tmp_path / "same.kge"
    same.write_bytes(edited_vocabulary(archive.read_bytes(), lambda ls: ls))
    assert same.read_bytes() == archive.read_bytes()
    renamed = tmp_path / "renamed.kge"
    renamed.write_bytes(edited_vocabulary(archive.read_bytes(), lambda ls: _set(ls, 5, ls[5] + b"x")))
    loaded, edited_vocab = load_archive(renamed)
    label = list(vocab.ordinals)[5]
    assert edited_vocab.ordinal_of_label(label + "x") == 5 and label not in edited_vocab.ordinals
    assert np.array_equal(loaded.entities, params.entities)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first entity row", "last relation block"])
@pytest.mark.parametrize("command", ["neighbors", "export-embeddings", "eval"])
def test_non_finite_payload_values_are_refused(archive, graph_file, tmp_path, capsys, value, where, command):
    params, _ = load_archive(archive)
    raw = bytearray(archive.read_bytes())  # a float32 payload: the entity table, then the relation blocks
    if where == "first entity row":
        at = len(raw) - 4 * sum(block.size for blocks in params.relations.values() for block in blocks.values())
        at -= 4 * params.entities.size
        block = "entities"
    else:
        at, block = len(raw) - 4, f"comprise/{sorted(params.relations[RelationKind.COMPRISE])[-1]}"
    raw[at:at + 4] = np.float32(value).tobytes()
    edited = tmp_path / "edited.kge"
    edited.write_bytes(bytes(raw))
    out = tmp_path / "out.tsv"
    argv = {"neighbors": ["neighbors", edited, "patent:p000_00000", out, "-k", "5"],
            "export-embeddings": ["export-embeddings", edited, out],
            "eval": ["eval", edited, graph_file, out]}[command]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: ArchiveError: non-finite value in block {block} at byte {at}\n"
    assert not out.exists()


# -- the CLI contract over drawn inputs -----------------------------------------------------

CONTRACT_GRAPH = MINIMAL_GRAPH + "inventor:a\x0c\twrite\tpatent:5252504\n"
# two inventors and one assignee entering the contract store's groups A00A, A00B and H01L
CONTRACT_PORTFOLIOS = "".join(
    f"{agent}p{i}\t199{i}-01-0{n}\t{group}\t{agent}\tasg\n"
    for n, agent in enumerate(("x", "y"), start=1) for i, group in enumerate(("A00A", "A00B", "H01L")))


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    """Valid bytes of each file a read command takes, by role."""
    d = tmp_path_factory.mktemp("contract")
    write_triples_file(generate_synthetic(2, 6, 3, 2, 0.3, 0.05, seed=4), d / "g.tsv")
    (d / "in.tsv").write_text((d / "g.tsv").read_text() + CONTRACT_GRAPH, encoding="utf-8")
    (d / "small.tsv").write_text(MINIMAL_GRAPH + "inventor:4074775\twrite\tpatent:5252505\n"
                                 "patent:5252505\tcite\tpatent:5252504\n")
    assert run_cli("ingest", d / "in.tsv", d / "store.tsv") == 0
    assert run_cli("ingest", d / "small.tsv", d / "small_store.tsv") == 0
    assert run_cli("train", d / "store.tsv", "transe_l2", d / "m.kge", "--dim", "4", "--epochs", "1",
                   "--train-on-all") == 0
    return {
        "triples": (d / "in.tsv").read_bytes(),
        "portfolios": CONTRACT_PORTFOLIOS.encode(),
        "universe": b"A00A\nA00B\nH01L\n",
        "archive": (d / "m.kge").read_bytes(),
        "store": (d / "store.tsv").read_bytes(),
        "sidecar": (d / "store.tsv.vocab").read_bytes(),
        "listing": "patent:5252504\ninventor:a\x0c\n# a comment\n\ngroup:H01L\n".encode(),
        "small_store": (d / "small_store.tsv").read_bytes(),
        "small_sidecar": (d / "small_store.tsv.vocab").read_bytes(),
        "columns": (d / "store.tsv.cols").read_bytes(),
    }


def materialize(dest, data, variant):
    """Write `data` to `dest` as the drawn variant: valid, cut, byte-edited, with an invalid
    UTF-8 byte, empty, missing, a directory, or (entity lists) naming an unknown label."""
    kind, at = variant
    if kind == "missing":
        return
    if kind == "directory":
        dest.mkdir()
        return
    at %= len(data) + 1
    data = {"valid": data, "empty": b"", "truncated": data[:at], "non-utf-8": data[:at] + b"\xff" + data[at:],
            "edited": data[:at] + bytes([data[at] ^ 0x2A]) + data[at + 1:] if at < len(data) else data,
            "unknown": data + b"patent:missing\n"}[kind]
    dest.write_bytes(data)


FILE_VARIANTS = st.sampled_from([("valid", 0)] * 3 + [("empty", 0), ("missing", 0), ("directory", 0)]) | st.tuples(
    st.sampled_from(["truncated", "edited", "non-utf-8"]), st.integers(0, 2**20))
GOOD, BAD = True, False


def _flag(name, good, bad=()):
    """Tokens of one optional flag, and whether its value is valid."""
    return st.sampled_from([((), GOOD)] + [((name, str(v)), GOOD) for v in good]
                           + [((name, str(v)), BAD) for v in bad])


def _given(name, good, bad):
    """As `_flag`, for a flag that is always given."""
    return st.sampled_from([((name, str(v)), GOOD) for v in good] + [((name, str(v)), BAD) for v in bad])


def _kind_filter():
    kinds = ["patent", "inventor", "assignee", "group", "subsection"]
    return st.lists(st.sampled_from(kinds), unique=True).map(
        lambda ks: (("--kind-filter", *ks), GOOD)) | st.just(((), GOOD))


def _mode():
    return st.sampled_from([((), GOOD), (("--mode", "guide_literal"), GOOD),
                            (("--mode", "translation_algebra"), GOOD), (("--mode", "bogus"), BAD)])


SEEDS = [-2**63 - 1, -2**63, -1, 0, 1, 2, 2**63 - 1, 2**63]
# nan fails every comparison, -0.0 passes `>= 0`, 1e308 overflows in use
EDGE_FLOATS = ["nan", "inf", "-inf", "-0.0", "1e308"]
FLOATS = EDGE_FLOATS + ["0", "1", "x"]


def _drawn_case(draw, argv, roles, flags):
    """(argv template with `{role}` file slots, variant per role, whether all of it is valid)."""
    # about half the cases keep every flag valid, and half every file, so valid runs are common
    clean_flags, clean_files = draw(st.booleans()), draw(st.booleans())
    good = True
    for flag in flags:
        tokens, ok = draw(flag.filter(lambda f: f[1]) if clean_flags else flag)
        argv += tokens
        good = good and ok
    broken = FILE_VARIANTS | st.just(("unknown", 0))
    # a column file is drawn beside clean files too, and left out of `valid`: any one must act as a missing one
    variants = {role: draw(FILE_VARIANTS) if role == "columns" else ("valid", 0) if clean_files
                else draw(broken if role == "listing" else FILE_VARIANTS) for role in roles}
    valid = good and all(v == ("valid", 0) for role, v in variants.items() if role != "columns")
    return tuple(argv), variants, valid


@st.composite
def read_commands(draw):
    """A drawn case of eval, neighbors, proximity or export-embeddings."""
    command = draw(st.sampled_from(["eval", "neighbors", "proximity", "export-embeddings"]))
    if command == "eval":
        roles = ("archive", "store", "sidecar", "columns")
        argv = ["eval", "{archive}", "{store}", "{out}"]
        flags = [_flag("-K", [1, 5, 1000], [0, -1, "x"]),
                 st.sampled_from([((), GOOD), (("--filtered",), GOOD)]),
                 _flag("--pool", ["same_kind", "all_entities"], ["bogus"]),
                 _flag("--sides", ["head", "tail", "both"]),
                 _flag("--tie-rule", ["midpoint", "optimistic", "pessimistic"]),
                 _flag("--seed", SEEDS[1:-1], [SEEDS[0], SEEDS[-1], "x"]),
                 _flag("--test-fraction", ["0.1", "0.5"], FLOATS),
                 _flag("--split-seed", [0, 1, 2**63], [-1, -2**63 - 1])]
    elif command == "neighbors":
        roles = ("archive",)
        focal, good = draw(st.sampled_from([("patent:5252504", GOOD), ("inventor:a\x0c", GOOD),
                                            ("patent:missing", BAD), ("foo:bar", BAD), ("patent", BAD), ("", BAD)]))
        argv = ["neighbors", "{archive}", focal, "{out}"]
        flags = [st.just(((), good)), _flag("-k", [1, 3, 10**6], [0, -1]), _kind_filter(), _mode()]
    elif command == "proximity":
        roles = ("archive", "listing")
        kind = draw(st.sampled_from(["patent", "inventor", "assignee", "group", "subsection", "bogus"]))
        argv = ["proximity", "{archive}", "{listing}", kind, "{out}"]
        flags = [st.just(((), kind != "bogus")), _mode()]
    else:
        roles = ("archive",)
        argv = ["export-embeddings", "{archive}", "{out}"]
        flags = [_kind_filter()]
    return _drawn_case(draw, argv, roles, flags)


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def run_case(contract_files, argv, variants):
    """Run one drawn command: its exit code (("usage", code) on a usage error), its stderr with
    its directory written `<dir>`, the bytes of its `out` file (None if there is none) and the
    warnings it logged."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": Path(tmp, "out"), "report": Path(tmp, "report")}
        for role, variant in variants.items():
            # a sidecar or a column file sits at its store's path plus ".vocab" or ".cols"
            suffix = ".vocab" if "sidecar" in role else ".cols" if "columns" in role else ""
            paths[role] = Path(tmp, role.replace("sidecar", "store").replace("columns", "store") + suffix)
            materialize(paths[role], contract_files[role], variant)
        argv = [token.format(**{k: str(v) for k, v in paths.items()}) if "{" in token else token
                for token in argv]
        err, logged = io.StringIO(), _Records()
        logging.getLogger("patkg").addHandler(logged)
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("usage", exc.code)
            finally:
                logging.getLogger("patkg").removeHandler(logged)
        out = paths["out"].read_bytes() if paths["out"].is_file() else None
    return code, err.getvalue().replace(tmp, "<dir>"), out, logged.records


def assert_cli_contract(contract_files, case):
    """Run one drawn command: it exits 2 on usage, returns 0, or returns 1 with one
    `error: <Kind>: ` line and no warning logged, which would reach stderr too. A command
    given a column file, valid or not, acts as it does without one."""
    argv, variants, valid = case
    code, err, out, logged = run_case(contract_files, argv, variants)
    assert code in (0, 1, ("usage", 2)), (code, err)
    if code == 1:  # one line, ended by the only newline: messages may hold other line breaks
        assert re.match(r"error: \w+: ", err) and err.count("\n") == 1 and err.endswith("\n"), err
        assert logged == [], [r.getMessage() for r in logged]
    if valid:
        assert code == 0, err
    if variants.get("columns", ("missing", 0)) != ("missing", 0):
        assert run_case(contract_files, argv, {**variants, "columns": ("missing", 0)})[:3] == (code, err, out)


@given(case=read_commands())
# 6 triples x 10**14 negatives: numpy refuses the 4.26 PiB before allocating anything
@example(case=(("train", "{small_store}", "transe_l2", "{out}", "--train-on-all", "--negatives",
                "100000000000000"), {"small_store": ("valid", 0), "small_sidecar": ("valid", 0)}, False))
# an id ending in a character str.strip() removes can be listed
@example(case=(("proximity", "{archive}", "{listing}", "inventor", "{out}"),
               {"archive": ("valid", 0), "listing": ("valid", 0)}, True))
@example(case=(("eval", "{archive}", "{store}", "{out}", "--filtered", "--pool", "all_entities"),
               {"archive": ("valid", 0), "store": ("valid", 0), "sidecar": ("valid", 0)}, True))
# a column file with one payload byte edited, and one cut inside its manifest, beside a valid store
@example(case=(("eval", "{archive}", "{store}", "{out}"), {"archive": ("valid", 0), "store": ("valid", 0),
                                                          "sidecar": ("valid", 0), "columns": ("edited", 400)}, False))
@example(case=(("eval", "{archive}", "{store}", "{out}"), {"archive": ("valid", 0), "store": ("valid", 0),
                                                          "sidecar": ("valid", 0), "columns": ("truncated", 200)}, False))
def test_read_commands_keep_the_cli_contract(contract_files, case):
    assert_cli_contract(contract_files, case)


@st.composite
def write_commands(draw):
    """A drawn case of ingest, train or expansion. Sizes are small or rejected before any
    work starts, so no draw allocates much."""
    command = draw(st.sampled_from(["ingest", "train", "expansion"]))
    if command == "ingest":
        roles = ("triples",)
        argv = ["ingest", "{triples}", "{out}"]
        flags = []
    elif command == "train":
        roles = ("store", "sidecar", "columns")
        kind = draw(st.sampled_from(list(ModelKind)))
        argv = ["train", "{store}", kind.value, "{out}"]
        # --dim, --epochs and --lr are always given: the defaults train 50 dimensions for 50
        # epochs, and a model's default step may diverge on so small a store. Every value but
        # one --loss parses, so a run with several bad flags usually reaches the data checks.
        flags = [_given("--dim", [1, 4], [0, -1]),
                 _given("--epochs", [1, 2], [0, -1]),
                 _given("--lr", [0.01], EDGE_FLOATS + ["50"]),
                 _flag("--negatives", [1, 3], [0, -1]),
                 _flag("--batch-size", [1, 7, 256], [0, -1]),
                 _flag("--margin", [1.0], EDGE_FLOATS),
                 _flag("--l2", [0.0], EDGE_FLOATS),
                 _flag("--loss", ["margin_rank", "logistic"], ["bogus"]),
                 st.sampled_from([((), GOOD), (("--no-normalize",), GOOD),
                                  (("--normalize",), SPECS[kind].translational)]),
                 _flag("--seed", [s for s in SEEDS if s >= 0], [s for s in SEEDS if s < 0]),
                 _flag("--split-seed", [s for s in SEEDS if s >= 0], [s for s in SEEDS if s < 0]),
                 _flag("--test-fraction", ["0.1"], EDGE_FLOATS),
                 st.sampled_from([((), GOOD), (("--train-on-all",), GOOD)]),
                 _flag("--encoding", ["float32", "float64"]),
                 st.sampled_from([((), GOOD), (("--report", "{report}"), GOOD)])]
    else:
        roles = ("archive", "portfolios", "universe")
        argv = ["expansion", "{archive}", *draw(st.sampled_from([(), ("{archive}",)])),
                "{portfolios}", "{universe}", "{out}"]
        flags = [_given("--agent-kind", ["inventor", "assignee"], ["bogus"]),
                 _flag("--min-patents", [s for s in SEEDS if s >= 0], [s for s in SEEDS if s < 0] + ["x"]),
                 st.sampled_from([((), GOOD), (("--raw-cosine",), GOOD)])]
    return _drawn_case(draw, argv, roles, flags)


@given(case=write_commands())
# the step overflows float32 without reaching inf in float64: refused, not saved as inf
@example(case=(("train", "{store}", "transr", "{out}", "--dim", "4", "--epochs", "2", "--lr", "50",
                "--train-on-all"), {"store": ("valid", 0), "sidecar": ("valid", 0)}, False))
# one positive per TransR step at a small rate: a random projection diverged here
@example(case=(("train", "{store}", "transr", "{out}", "--dim", "4", "--epochs", "1", "--lr", "0.01",
                "--batch-size", "1"), {"store": ("valid", 0), "sidecar": ("valid", 0)}, True))
# sizes whose bytes numpy cannot address are refused before numpy sees them: 2**62 negatives
# crashed the process inside np.repeat, the others printed tracebacks
@example(case=(("train", "{store}", "transe_l2", "{out}", "--dim", "4", "--epochs", "1", "--negatives",
                str(2**62)), {"store": ("valid", 0), "sidecar": ("valid", 0)}, False))
@example(case=(("train", "{store}", "transe_l2", "{out}", "--dim", "4", "--epochs", "1", "--negatives",
                str(2**63)), {"store": ("valid", 0), "sidecar": ("valid", 0)}, False))
@example(case=(("train", "{store}", "transe_l2", "{out}", "--dim", str(2**62), "--epochs", "1"),
               {"store": ("valid", 0), "sidecar": ("valid", 0)}, False))
@example(case=(("train", "{store}", "transe_l2", "{out}", "--dim", str(2**63), "--epochs", "1"),
               {"store": ("valid", 0), "sidecar": ("valid", 0)}, False))
def test_write_commands_keep_the_cli_contract(contract_files, case):
    assert_cli_contract(contract_files, case)


def test_negative_min_patents_is_one_error_line(contract_files):
    # it exited 0 and wrote `min_patents: -5` into the report
    argv = ("expansion", "{archive}", "{portfolios}", "{universe}", "{out}", "--agent-kind", "inventor",
            "--min-patents", "-5")
    variants = {role: ("valid", 0) for role in ("archive", "portfolios", "universe")}
    assert run_case(contract_files, argv, variants)[:3] == (
        1, "error: InvalidConfig: min_patents must be >= 0, got -5\n", None)


def portfolio_lines():
    rows = []
    groups = ["A01A", "B01B", "C01C", "D01D", "E01E"]
    for agent in ("inv1", "inv2"):
        for i, g in enumerate(groups):
            rows.append(f"{agent}p{i}\t19{80 + i}-03-01\t{g}\t{agent}\tasg1")
    return "\n".join(rows) + "\n"


class TestExpansionCommand:
    def test_study_outputs(self, graph_file, tmp_path):
        arc = tmp_path / "m.kge"
        run_cli("train", graph_file, "transe_l2", arc, "--dim", "8", "--epochs", "2",
                "--train-on-all")
        # portfolios over synthetic group codes present in the archive vocabulary
        portfolios = tmp_path / "p.tsv"
        rows = []
        for agent in ("x", "y"):
            for i, g in enumerate(["A00A", "A00B", "A00C"]):
                rows.append(f"{agent}p{i}\t19{80 + i}-01-01\t{g}\t{agent}\tasg")
        portfolios.write_text("\n".join(rows) + "\n")
        universe = tmp_path / "u.txt"
        universe.write_text("A00A\nA00B\nA00C\n")
        report = tmp_path / "exp.txt"
        code = run_cli("expansion", arc, portfolios, universe, report,
                       "--agent-kind", "inventor", "--min-patents", "2")
        assert code == 0
        text = report.read_text()
        assert "agent_class: inventor" in text
        assert (tmp_path / "exp_inventor_cdf.csv").exists()

    def test_empty_universe_exit_1(self, graph_file, tmp_path, capsys):
        arc, portfolios, universe = tmp_path / "m.kge", tmp_path / "p.tsv", tmp_path / "u.txt"
        assert run_cli("train", graph_file, "transe_l2", arc, "--dim", "4", "--epochs", "1", "--train-on-all") == 0
        portfolios.write_text("xp0\t1980-01-01\tA00A\tx\tasg\n")
        universe.write_text("# no codes\n\n")
        assert run_cli("expansion", arc, portfolios, universe, tmp_path / "exp.txt", "--agent-kind", "inventor") == 1
        err = capsys.readouterr().err
        assert err == "error: InvalidConfig: the group universe must hold at least one group code\n", err

    def test_group_codes_keep_their_bytes(self, graph_file, tmp_path):
        # a code ending in a form feed, which ingest and the records parser keep, is kept by the
        # universe reader too; stripped, it named a group missing from the vocabulary
        code = "Z99Z\x0c"
        triples = tmp_path / "g.tsv"
        triples.write_text(graph_file.read_text(encoding="utf-8") + f"group:{code}\tcontain\tpatent:z1\n",
                           encoding="utf-8")
        arc = tmp_path / "m.kge"
        assert run_cli("train", triples, "transe_l2", arc, "--dim", "8", "--epochs", "1", "--train-on-all") == 0
        portfolios = tmp_path / "p.tsv"
        portfolios.write_text("".join(f"{agent}p{i}\t19{80 + i}-01-01\t{g}\t{agent}\tasg\n"
                                      for agent in ("x", "y") for i, g in enumerate([code, "A00B", "A00C"])),
                              encoding="utf-8")
        universe = tmp_path / "u.txt"
        universe.write_text(f"{code}\n  # c\nA00B\nA00C\n", encoding="utf-8")
        assert run_cli("expansion", arc, portfolios, universe, tmp_path / "exp.txt",
                       "--agent-kind", "inventor", "--min-patents", "2") == 0


GOLDEN_GROUPS = ["A01A", "B01B", "C01C", "D01D", "E01E", "F01F"]

# inv3 and asg3 hold one patent each (below --min-patents 2); inv4 never leaves A01A
GOLDEN_RECORDS = """\
p0\t1980-01-01\tA01A\tinv1\tasg1
p1\t1981-01-01\tB01B\tinv1,inv3\tasg1
p2\t1982-01-01\tC01C,D01D\tinv1,inv2\tasg2
p3\t1983-01-01\tE01E\tinv2\tasg2
p4\t1984-01-01\tA01A\tinv2,inv4\tasg1
p5\t1985-01-01\tF01F\tinv1\tasg2
p6\t1986-01-01\tB01B\tinv2\tasg2
p7\t1987-01-01\tA01A\tinv4\tasg3
"""

GOLDEN_OUTPUTS = {
    "inventor": {
        "exp.txt": """\
patkg expansion-report
min_patents: 2
agent_class: inventor
agents: 2
model\tcombined_auc\texplainability\tprofile_entries
distmult\t0.5\t0.5\t7
transe_l2\t0.470238095238\t0.5\t7
""",
        "exp_inventor_cdf.csv": """\
model,x,proportion
distmult,0,1
distmult,0.166666666667,0.714285714286
distmult,0.5,0.571428571429
distmult,0.833333333333,0.428571428571
distmult,1,0.285714285714
transe_l2,0,1
transe_l2,0.166666666667,0.857142857143
transe_l2,0.25,0.714285714286
transe_l2,0.375,0.571428571429
transe_l2,0.666666666667,0.428571428571
transe_l2,0.833333333333,0.285714285714
transe_l2,1,0.142857142857
""",
        "exp_inventor_profiles.csv": """\
model,position,percentile
distmult,1,0.5
distmult,2,0.166666666667
distmult,3,1
distmult,4,1
distmult,5,0.833333333333
distmult,6,0
distmult,7,0
transe_l2,1,0.375
transe_l2,2,0.166666666667
transe_l2,3,0.666666666667
transe_l2,4,1
transe_l2,5,0.833333333333
transe_l2,6,0.25
transe_l2,7,0
""",
    },
    "assignee": {
        "exp.txt": """\
patkg expansion-report
min_patents: 2
agent_class: assignee
agents: 2
model\tcombined_auc\texplainability\tprofile_entries
distmult\t0.833333333333\t1\t4
transe_l2\t0.364583333333\t0\t4
""",
        "exp_assignee_cdf.csv": """\
model,x,proportion
distmult,0,1
distmult,0.5,1
distmult,0.833333333333,0.75
distmult,1,0.5
transe_l2,0,1
transe_l2,0.25,0.75
transe_l2,0.375,0.5
transe_l2,0.833333333333,0.25
transe_l2,1,0
""",
        "exp_assignee_profiles.csv": """\
model,position,percentile
distmult,1,0.5
distmult,2,0.833333333333
distmult,3,1
distmult,4,1
transe_l2,1,0.375
transe_l2,2,0.833333333333
transe_l2,3,0.25
transe_l2,4,0
""",
    },
    "nobody": {"exp.txt": "patkg expansion-report\nmin_patents: 100000\n"},
}


@pytest.fixture(scope="module")
def golden_study_inputs(tmp_path_factory):
    """Two archives whose group rows are small integers, so every proximity is exact up to
    one rounding, plus the records and universe of GOLDEN_RECORDS."""
    tmp = tmp_path_factory.mktemp("golden")
    (tmp / "g.tsv").write_text("".join(f"group:{g}\tcontain\tpatent:q{i}\n" for i, g in enumerate(GOLDEN_GROUPS)))
    vocab = parse_triples_file(tmp / "g.tsv").vocab
    archives = []
    for kind, step, mod in ((ModelKind.TRANSE_L2, 7, 5), (ModelKind.DISTMULT, 3, 7)):
        params = init_params(kind, len(vocab), 3, 0, vocab.fingerprint())
        params.entities[:] = np.arange(params.entities.size).reshape(params.entities.shape) * step % mod - mod // 2
        save_archive(tmp / f"{kind.value}.kge", params, vocab)
        archives.append(tmp / f"{kind.value}.kge")
    (tmp / "p.tsv").write_text(GOLDEN_RECORDS)
    (tmp / "u.txt").write_text("\n".join(GOLDEN_GROUPS) + "\n")
    return archives, tmp / "p.tsv", tmp / "u.txt"


@pytest.mark.parametrize("run, agent_kind, min_patents", [
    ("inventor", "inventor", 2), ("assignee", "assignee", 2), ("nobody", "inventor", 100000)])
def test_expansion_outputs_keep_their_bytes(golden_study_inputs, tmp_path, run, agent_kind, min_patents):
    # a run with no eligible agent writes the two-line report and no CSV
    archives, portfolios, universe = golden_study_inputs
    assert run_cli("expansion", *archives, portfolios, universe, tmp_path / "exp.txt",
                   "--agent-kind", agent_kind, "--min-patents", min_patents) == 0
    assert {f.name: f.read_text() for f in tmp_path.iterdir()} == GOLDEN_OUTPUTS[run]


READ_GRAPH = """\
inventor:i1\twrite\tpatent:p1
inventor:i1\twrite\tpatent:p2
inventor:i2\twrite\tpatent:p2
inventor:i2\twrite\tpatent:p3
inventor:i3\twrite\tpatent:p4
assignee:a1\town\tpatent:p1
assignee:a1\town\tpatent:p3
assignee:a2\town\tpatent:p2
assignee:a2\town\tpatent:p4
group:G1\tcontain\tpatent:p1
group:G2\tcontain\tpatent:p2
group:G2\tcontain\tpatent:p3
group:G3\tcontain\tpatent:p4
subsection:S1\tcomprise\tgroup:G1
subsection:S1\tcomprise\tgroup:G2
subsection:S2\tcomprise\tgroup:G3
patent:p2\tcite\tpatent:p1
patent:p3\tcite\tpatent:p1
patent:p4\tcite\tpatent:p3
"""

# -K 50 exceeds every candidate pool (at most 4 entities of a kind), so each query ranks its
# whole pool whatever order the draws come in
EVAL = ("eval", "ARC", "STORE", "OUT", "-K", "50", "--sides", "both", "--test-fraction", "0.3")
READ_RUNS = {
    "eval_raw.txt": EVAL,
    "eval_raw_opt.txt": (*EVAL, "--tie-rule", "optimistic"),
    "eval_filt.txt": (*EVAL, "--filtered"),
    "eval_filt_opt.txt": (*EVAL, "--filtered", "--tie-rule", "optimistic"),
    "nn.tsv": ("neighbors", "ARC", "inventor:i1", "OUT", "-k", "20"),
    "prox.tsv": ("proximity", "ARC", "ENTITIES", "patent", "OUT"),
    "emb.tsv": ("export-embeddings", "ARC", "OUT"),
}

GOLDEN_READ_OUTPUTS = {
    "eval_raw.txt": """\
patkg eval-report
model: transe_l2
queries: 12
mr: 2.45833333333
mrr: 0.487896825397
hits@1: 0.166666666667
hits@3: 0.75
hits@10: 1
config: K=50 sides=both pool=same_kind filtered=false seed=0 tie=midpoint
per-relation:
relation\tqueries\tmr\tmrr\thits@1\thits@3\thits@10
cite\t4\t3.25\t0.317261904762\t0\t0.5\t1
write\t2\t2.5\t0.4\t0\t1\t1
own\t2\t1.5\t0.75\t0.5\t1\t1
contain\t4\t2.125\t0.571428571429\t0.25\t0.75\t1
""",
    "eval_raw_opt.txt": """\
patkg eval-report
model: transe_l2
queries: 12
mr: 2.25
mrr: 0.520833333333
hits@1: 0.166666666667
hits@3: 0.916666666667
hits@10: 1
config: K=50 sides=both pool=same_kind filtered=false seed=0 tie=optimistic
per-relation:
relation\tqueries\tmr\tmrr\thits@1\thits@3\thits@10
cite\t4\t3\t0.354166666667\t0\t0.75\t1
write\t2\t2\t0.5\t0\t1\t1
own\t2\t1.5\t0.75\t0.5\t1\t1
contain\t4\t2\t0.583333333333\t0.25\t1\t1
""",
    "eval_filt.txt": """\
patkg eval-report
model: transe_l2
queries: 12
mr: 2.375
mrr: 0.494841269841
hits@1: 0.166666666667
hits@3: 0.833333333333
hits@10: 1
config: K=50 sides=both pool=same_kind filtered=true seed=0 tie=midpoint
per-relation:
relation\tqueries\tmr\tmrr\thits@1\thits@3\thits@10
cite\t4\t3\t0.338095238095\t0\t0.75\t1
write\t2\t2.5\t0.4\t0\t1\t1
own\t2\t1.5\t0.75\t0.5\t1\t1
contain\t4\t2.125\t0.571428571429\t0.25\t0.75\t1
""",
    "eval_filt_opt.txt": """\
patkg eval-report
model: transe_l2
queries: 12
mr: 2.16666666667
mrr: 0.527777777778
hits@1: 0.166666666667
hits@3: 1
hits@10: 1
config: K=50 sides=both pool=same_kind filtered=true seed=0 tie=optimistic
per-relation:
relation\tqueries\tmr\tmrr\thits@1\thits@3\thits@10
cite\t4\t2.75\t0.375\t0\t1\t1
write\t2\t2\t0.5\t0\t1\t1
own\t2\t1.5\t0.75\t0.5\t1\t1
contain\t4\t2\t0.583333333333\t0.25\t1\t1
""",
    "nn.tsv": """\
rank\tentity\tkind\tproximity
1\tinventor:i3\tinventor\t1
2\tgroup:G2\tgroup\t0.645497224368
3\tpatent:p3\tpatent\t0.471404520791
4\tgroup:G1\tgroup\t0.408248290464
5\tsubsection:S2\tsubsection\t-0.272165526976
6\tsubsection:S1\tsubsection\t-0.516397779494
7\tinventor:i2\tinventor\t-0.547722557505
8\tpatent:p1\tpatent\t-0.666666666667
9\tpatent:p4\tpatent\t-0.666666666667
10\tassignee:a2\tassignee\t-0.7126966451
11\tpatent:p2\tpatent\t-0.763762615826
12\tgroup:G3\tgroup\t-0.866025403784
13\tassignee:a1\tassignee\t-0.870388279778
""",
    "prox.tsv": """\
entity\tpatent:p1\tinventor:i2\tassignee:a1\tgroup:G2\tsubsection:S2
patent:p1\t1\t0\t0\t-0.67082039325\t-0.816496580928
inventor:i2\t0\t1\t0.57735026919\t-0.316227766017\t0.57735026919
assignee:a1\t0\t0.57735026919\t1\t-0.73029674334\t0.333333333333
group:G2\t-0.67082039325\t-0.316227766017\t-0.73029674334\t1\t0.36514837167
subsection:S2\t-0.816496580928\t0.57735026919\t0.333333333333\t0.36514837167\t1
""",
    "emb.tsv": """\
inventor:i1\t-2\t1\t-1
patent:p1\t2\t0\t-2
patent:p2\t1\t-1\t2
inventor:i2\t0\t-2\t1
patent:p3\t-1\t2\t0
inventor:i3\t-2\t1\t-1
patent:p4\t2\t0\t-2
assignee:a1\t1\t-1\t2
assignee:a2\t0\t-2\t1
group:G1\t-1\t2\t0
group:G2\t-2\t1\t-1
group:G3\t2\t0\t-2
subsection:S1\t1\t-1\t2
subsection:S2\t0\t-2\t1
""",
}


@pytest.fixture(scope="module")
def golden_read_inputs(tmp_path_factory):
    """An ingested store of READ_GRAPH and a float64 TransE_L2 archive whose entity rows and
    relation vectors are small integers, so every score and cosine is exact up to one rounding."""
    tmp = tmp_path_factory.mktemp("golden_read")
    (tmp / "g.tsv").write_text(READ_GRAPH)
    assert run_cli("ingest", tmp / "g.tsv", tmp / "s.tsv") == 0
    vocab = load_store(tmp / "s.tsv").vocab
    params = init_params(ModelKind.TRANSE_L2, len(vocab), 3, 0, vocab.fingerprint())
    params.entities[:] = np.arange(params.entities.size).reshape(params.entities.shape) * 3 % 5 - 2
    for i, rel in enumerate(RelationKind):
        params.relations[rel]["vec"][:] = (np.arange(3) + i) % 3 - 1
    save_archive(tmp / "m.kge", params, vocab, encoding="float64")
    (tmp / "ents.txt").write_text("patent:p1\ninventor:i2\nassignee:a1\ngroup:G2\nsubsection:S2\n")
    return {"ARC": tmp / "m.kge", "STORE": tmp / "s.tsv", "ENTITIES": tmp / "ents.txt"}


@pytest.mark.parametrize("name", READ_RUNS)
def test_read_outputs_keep_their_bytes(golden_read_inputs, tmp_path, name):
    paths = {**golden_read_inputs, "OUT": tmp_path / name}
    assert run_cli(*(paths.get(arg, arg) for arg in READ_RUNS[name])) == 0
    assert (tmp_path / name).read_text() == GOLDEN_READ_OUTPUTS[name]


GOLDEN_TRAIN_REPORT = """\
patkg train-report
model: transe_l2
epochs: 2
batch_size: 256
negatives_per_positive: 4
learning_rate: 2
margin: 1
loss: margin_rank
l2_coefficient: 0
normalize_entities: true
seed: 3
dim: 3
epoch_mean_loss:
1\t4.23805697441
2\t3.60183565665
"""


def test_train_report_keeps_its_bytes(golden_read_inputs, tmp_path):
    # TransE_L2's kernels call no BLAS, so its epoch losses are the same on every host
    report = tmp_path / "train.txt"
    assert run_cli("train", golden_read_inputs["STORE"], "transe_l2", tmp_path / "m.kge", "--dim", "3",
                   "--epochs", "2", "--seed", "3", "--report", report) == 0
    assert report.read_text() == GOLDEN_TRAIN_REPORT


class TestDeterminism:
    def test_pipeline_byte_identical(self, tmp_path):
        store = generate_synthetic(2, 8, 3, 2, 0.3, 0.05, seed=23)
        src = tmp_path / "graph.tsv"
        write_triples_file(store, src)

        def pipeline(tag):
            arc = tmp_path / f"m{tag}.kge"
            report = tmp_path / f"r{tag}.txt"
            assert run_cli("ingest", src, tmp_path / f"s{tag}.tsv") == 0
            assert run_cli("train", tmp_path / f"s{tag}.tsv", "transe_l2", arc,
                           "--dim", "6", "--epochs", "3", "--seed", "7") == 0
            assert run_cli("eval", arc, tmp_path / f"s{tag}.tsv", report,
                           "-K", "8", "--seed", "3") == 0
            return arc.read_bytes(), report.read_bytes()

        a_arc, a_rep = pipeline("a")
        b_arc, b_rep = pipeline("b")
        assert a_arc == b_arc
        assert a_rep == b_rep


def test_module_invocation():
    out = subprocess.run(
        [sys.executable, "-m", "patkg.cli", "--help"], capture_output=True, text=True
    )
    assert out.returncode == 0
    assert "ingest" in out.stdout
