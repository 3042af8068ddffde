"""The patkg names the benchmark's tracer, log counter, workloads and microbenchmarks use, checked
without running any of them.

`perfbench/tracer.py` patches its `TARGETS` by name and counts ingest drops from their log line,
`perfbench/workloads.py` builds CLI argvs, and `perfbench/microbench.py` calls the store, model,
eval, archive, proximity and expansion functions in fixed shapes. A rename, a new signature or a
reworded log line fails here, not in a benchmark run.
"""

import importlib
import importlib.util
import logging
import sys
from pathlib import Path

import numpy as np
import pytest

from patkg import archive, cli, evaluator, expansion, graph, ingestion, models, proximity
from patkg.graph import EntityKind, RelationKind, Side, Vocabulary, generate_synthetic
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


def test_microbench_expansion_calls_run_traced(tracer, tmp_path):
    # the calls `microbench.run` makes on the study records, on a tiny input, with the tracer installed
    records, universe = tmp_path / "records.tsv", tmp_path / "universe.txt"
    records.write_text("p1\t1999-01-01\tA01A\ti1,i2\ta1\np2\t1998-01-01\tA01A,B01B\ti1\t\n"
                       "p3\t2000-01-01\tC01C\ti1\ta1\np4\t2000-01-01\tD01D\ti2\ta1\n", encoding="utf-8")
    universe.write_text("A01A\nB01B\nC01C\nD01D\n", encoding="utf-8")
    spans = tracer.Tracer()
    spans.install()
    try:
        codes = ingestion.load_universe(universe)
        portfolios = ingestion.load_portfolios(records, EntityKind.INVENTOR)
        longest = max(portfolios, key=lambda p: (len(p), p.agent_id))
        group_vocab = Vocabulary()
        for code in codes:
            group_vocab.add(EntityKind.GROUP, code)
        group_params = init_params(ModelKind.TRANSE_L2, len(group_vocab), 32, 1)
        phi = expansion.group_proximity_matrix(group_params, group_vocab, codes)
        profile = expansion.profile_from_phi(phi, longest, codes)
        values = [(code, float(p)) for code, p in zip(codes[1:], phi[0, 1:])]
        expansion.percentiles(values)
    finally:
        spans.uninstall()
    assert (longest.agent_id, longest.patent_ids, len(profile)) == ("i1", ["p2", "p1", "p3"], 1)
    work = {name: work for name, _, _, _, _, work in spans.spans}
    assert work["expansion.profile_from_phi"] == len(longest)
    assert {"ingestion.load_universe", "ingestion.load_portfolios", "ingestion.parse_patent_records",
            "expansion.group_proximity_matrix", "proximity.pairwise_matrix", "expansion.percentiles"} <= set(work)


def test_microbench_store_model_and_eval_calls_run_traced(tracer, tmp_path):
    # the calls `microbench.run` makes on a workload's store and archive, on a tiny store, with the tracer
    # installed; called through their modules, whose attributes the tracer patches
    store_path, archive_path, copy = tmp_path / "store.tsv", tmp_path / "model.kge", tmp_path / "micro.kge"
    built = generate_synthetic(2, 8, 3, 2, 0.3, 0.05, seed=4)
    ingestion.write_triples_file(built, store_path)
    archive.save_archive(archive_path, init_params(ModelKind.TRANSE_L2, len(built.vocab), 8, 1,
                                                   built.vocab.fingerprint()), vocab=built.vocab)
    spans = tracer.Tracer()
    spans.install()
    try:
        store = ingestion.load_store(store_path)
        cites = [t for t in store.triples if t.relation is RelationKind.CITE]
        heads = np.array([t.head for t in cites], dtype=np.int64)
        tails = np.array([t.tail for t in cites], dtype=np.int64)
        weights = np.linspace(-1.0, 1.0, len(cites))
        for kind in ModelKind:
            params = init_params(kind, len(store.vocab), 50, 1)
            assert models.scores(params, heads, RelationKind.CITE, tails).shape == (len(cites),)
            models.weighted_gradients(params, heads, RelationKind.CITE, tails, weights)
        queries = [(t, Side.HEAD if j % 2 else Side.TAIL) for j, t in enumerate(cites[:6])]
        for filtered in (False, True):
            for q in queries:
                graph.sample_corrupt(store, q[0], 100, q[1], filtered=filtered, rng_seed=1)
        params, vocab = archive.load_archive(archive_path)
        corrupts = [(q, graph.sample_corrupt(store, q[0], 100, q[1], rng_seed=1)) for q in queries]
        ranks = [evaluator.rank_target(params, qc[0][0], qc[0][1], qc[1]) for qc in corrupts]
        archive.save_archive(copy, params, vocab=vocab)
        archive.load_archive(copy)
        inventor = next(ref.source_id for ref in vocab.refs if ref.kind is EntityKind.INVENTOR)
        focal = vocab.refs[vocab.ordinal_of(EntityKind.INVENTOR, inventor)]
        neighbors = proximity.nearest_neighbors(params, vocab, focal, 10, {EntityKind.PATENT})
        refs = [ref for ref in vocab.refs if ref.kind is EntityKind.PATENT][:5]
        matrix = proximity.pairwise_matrix(params, vocab, refs, EntityKind.PATENT)
    finally:
        spans.uninstall()
    assert all(1.0 <= rank <= 101.0 for rank in ranks)
    assert len(neighbors) == 10 and matrix.shape == (5, 5)
    work = {name: work for name, _, _, _, _, work in spans.spans}
    assert {"ingestion.load_store", "models.scores", "models.weighted_gradients", "graph.sample_corrupt",
            "evaluator.rank_target", "archive.save_archive", "archive.load_archive",
            "proximity.nearest_neighbors", "proximity.pairwise_matrix"} <= set(work)
