"""The patkg names the benchmark's tracer, log counter, workloads and microbenchmarks use.

`perfbench/tracer.py` patches its `TARGETS` by name and counts ingest drops from their log line,
`perfbench/workloads.py` builds CLI argvs, and `perfbench/microbench.py` calls the store, model,
eval, archive, proximity and expansion functions in fixed shapes. The workloads are only parsed;
`microbench.run` itself runs on tiny inputs. A rename, a new signature or a reworded log line
fails here, not in a benchmark run.
"""

import importlib
import importlib.util
import json
import logging
import sys
from pathlib import Path

import numpy as np
import pytest

from patkg import archive, cli, ingestion
from patkg.graph import EntityKind, generate_synthetic
from patkg.models import ModelKind, init_params

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return perfbench_module("tracer")


@pytest.mark.parametrize("name", ["fit-1x", "rank-1x", "study-5x"])
def test_workload_argvs_parse(tmp_path, name):
    # every command a workload runs, built from stand-in inputs; argparse exits 2 on a renamed flag
    inputs = {"raw_triples": str(tmp_path / "raw.tsv"), "n_lines": 10, "n_noise": 2, "patents": ["p1", "p2"],
              "inventors": ["i1", "i2"], "records": str(tmp_path / "records.tsv"),
              "universe": str(tmp_path / "universe.txt"), "eligible_records": 1}
    workload = perfbench_module("workloads").build(name, inputs, tmp_path)
    parser = cli.build_parser()
    for cmd in [workload.ingest, *workload.commands]:
        args = parser.parse_args(cmd.argv)
        assert args.command in cli._COMMANDS, cmd.argv


def test_log_counter_counts_an_ingests_drops(tracer, tmp_path):
    # one duplicate, one self-citation and one empty-id line, as the workloads' raw files hold them
    src, out = tmp_path / "raw.tsv", tmp_path / "store.tsv"
    src.write_text("inventor:i1\twrite\tpatent:p1\npatent:p1\tcite\tpatent:p2\npatent:p1\tcite\tpatent:p2\n"
                   "patent:p2\tcite\tpatent:p2\ninventor:\twrite\tpatent:p2\n", encoding="utf-8")
    logger = logging.getLogger("patkg")
    level, propagate = logger.level, logger.propagate
    counter = tracer.LogCounter()
    counter.attach()
    try:
        assert cli.main(["ingest", str(src), str(out)]) == 0
    finally:
        logger.removeHandler(counter)
        logger.setLevel(level)
        logger.propagate = propagate
    assert dict(counter.counts) == {"ingestion.dropped": 3}
    assert counter not in logger.handlers


def test_tracer_targets_resolve(tracer):
    for owner, names in tracer.TARGETS.items():
        module = importlib.import_module(f"patkg.{owner}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert missing == [], f"patkg.{owner} lacks {missing}"


@pytest.fixture(scope="module")
def microbench_run(tracer, tmp_path_factory):
    # `microbench.run` on a tiny store, archive, records file and universe; microbench is imported
    # after the tracer is installed, as its `from patkg.x import f` names must be traced too
    tmp_path = tmp_path_factory.mktemp("microbench")
    store_path, archive_path = tmp_path / "store.tsv", tmp_path / "model.kge"
    records, universe = tmp_path / "records.tsv", tmp_path / "universe.txt"
    built = generate_synthetic(2, 8, 3, 2, 0.3, 0.05, seed=4)
    ingestion.write_triples_file(built, store_path)
    archive.save_archive(archive_path, init_params(ModelKind.TRANSE_L2, len(built.vocab), 8, 1,
                                                   built.vocab.fingerprint()), vocab=built.vocab)
    records.write_text("p1\t1999-01-01\tA01A\ti1,i2\ta1\np2\t1998-01-01\tA01A,B01B\ti1\t\n"
                       "p3\t2000-01-01\tC01C\ti1\ta1\np4\t2000-01-01\tD01D\ti2\ta1\n", encoding="utf-8")
    universe.write_text("A01A\nB01B\nC01C\nD01D\n", encoding="utf-8")
    ids = {kind: [ref.source_id for ref in built.vocab.refs if ref.kind is kind]
           for kind in (EntityKind.INVENTOR, EntityKind.PATENT)}
    spans = tracer.Tracer()
    spans.install()
    try:
        out = perfbench_module("microbench").run(store_path, archive_path, records, universe,
                                                 ids[EntityKind.INVENTOR], ids[EntityKind.PATENT], tmp_path, 1)
    finally:
        spans.uninstall()
    return out, {name: work for name, _, _, _, _, work in spans.spans}


def test_microbench_expansion_calls_run_traced(microbench_run):
    _, work = microbench_run
    assert work["expansion.profile_from_phi"] == 3  # the longest portfolio: i1's p2, p1 and p3
    assert {"ingestion.load_universe", "ingestion.load_portfolios", "ingestion.parse_patent_records",
            "expansion.group_proximity_matrix", "proximity.pairwise_matrix", "expansion.percentiles"} <= set(work)


def test_microbench_store_model_and_eval_calls_run_traced(microbench_run):
    out, work = microbench_run
    benchmark = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {metric["name"] for metric in benchmark["per_layer"]}
    assert set(out) <= per_layer and all(np.isfinite(v) and v > 0 for v in out.values()), out
    assert {"ingestion.load_store", "models.scores", "models.weighted_gradients", "graph.sample_corrupt",
            "evaluator.rank_target", "archive.save_archive", "archive.load_archive",
            "proximity.nearest_neighbors", "proximity.pairwise_matrix"} <= set(work)
