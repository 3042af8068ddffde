"""Command-line surface: exit codes, outputs, end-to-end determinism."""

import json
import subprocess
import sys
import types
import warnings

import pytest

from patkg import cli
from patkg.cli import main
from patkg.graph import generate_synthetic
from patkg.ingestion import write_triples_file
from patkg.models import ModelKind
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
                assert err.startswith("error: ParseError: vocabulary line 0:") and err.count("\n") == 1, err

    def test_train_errors_are_one_line(self, tmp_path, capsys):
        src = tmp_path / "g.tsv"
        write_triples_file(generate_synthetic(2, 20, 5, 2, 0.2, 0.02, seed=3), src)
        cases = {
            # diverges: numpy's overflow warnings must not reach stderr
            ("--epochs", "3", "--lr", "50", "--batch-size", "32", "--no-normalize"):
                "NumericalDivergence: epoch 0: batch 3: non-finite loss or parameter",
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

    def test_unknown_entity_exit_1(self, archive, tmp_path, capsys):
        no_labels = tmp_path / "none.txt"
        no_labels.write_text("# no entities\n")
        magic, _, rest = archive.read_bytes().split(b"\n", 2)
        bad_archives = {}
        for name, manifest in (("kind", '{"kind":"transx"}'), ("keys", '{"kind":"transe_l2"}'),
                               ("list", "[1, 2]")):
            bad_archives[name] = tmp_path / f"{name}.kge"
            bad_archives[name].write_bytes(b"\n".join([magic, manifest.encode(), rest]))
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
        ]
        for argv, kind in cases:
            assert run_cli(*argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {kind}:") and err.count("\n") == 1, err


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
