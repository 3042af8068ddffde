"""Layer microbenchmarks: public patkg functions timed directly, apart from the CLI runs.

Each timing is the median over repeated calls on the workload's own
inputs (its store, its trained TransE_L2 archive), except the expansion
functions, which always run on the longest study-5x portfolio of the
seed's patent records.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from patkg import archive, expansion, ingestion, proximity
from patkg.graph import EntityKind, RelationKind, Side, Vocabulary, sample_corrupt
from patkg.models import ModelKind, init_params, scores, weighted_gradients

BATCH_ROWS = 512 * 5  # training batch shape: 512 positives x (1 + 4 negatives)
QUERIES = 50


def _median_time(fn, min_reps: int = 5, min_seconds: float = 0.05) -> float:
    samples = []
    start = time.perf_counter()
    while len(samples) < min_reps or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _per_call(fn, items) -> float:
    """Median over `items` of the time of fn(item)."""
    samples = []
    for item in items:
        t0 = time.perf_counter()
        fn(item)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run(store_path: Path, archive_path: Path, records: Path, universe: Path,
        inventors: list[str], patents: list[str], work: Path, seed: int) -> dict:
    out: dict[str, float] = {}
    rng = np.random.default_rng(seed)

    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    store = ingestion.load_store(store_path)
    after = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    out["graph.store_bytes_per_triple"] = (after - before) / len(store)

    cites = [t for t in store.triples if t.relation is RelationKind.CITE]
    pick = rng.integers(0, len(cites), size=BATCH_ROWS)
    heads = np.array([cites[i].head for i in pick], dtype=np.int64)
    tails = np.array([cites[i].tail for i in pick], dtype=np.int64)
    weights = rng.uniform(-1.0, 1.0, size=BATCH_ROWS) / 512
    for kind in ModelKind:
        params = init_params(kind, len(store.vocab), 50, seed)
        t = _median_time(lambda: scores(params, heads, RelationKind.CITE, tails))
        out[f"models.scores.ns_per_row.{kind.value}"] = t / BATCH_ROWS * 1e9
        t = _median_time(lambda: weighted_gradients(params, heads, RelationKind.CITE, tails, weights))
        out[f"models.weighted_gradients.ns_per_row.{kind.value}"] = t / BATCH_ROWS * 1e9

    queries = [(cites[int(i)], Side.HEAD if j % 2 else Side.TAIL)
               for j, i in enumerate(rng.integers(0, len(cites), size=QUERIES))]
    for label, filtered in (("raw", False), ("filtered", True)):
        t = _per_call(lambda q: sample_corrupt(store, q[0], 100, q[1], filtered=filtered,
                                               rng_seed=seed), queries)
        out[f"graph.sample_corrupt.us_per_call.{label}"] = t * 1e6

    from patkg.evaluator import rank_target

    params, vocab = archive.load_archive(archive_path)
    corrupts = [(q, sample_corrupt(store, q[0], 100, q[1], rng_seed=seed)) for q in queries]
    t = _per_call(lambda qc: rank_target(params, qc[0][0], qc[0][1], qc[1]), corrupts)
    out["evaluator.rank_target.us_per_call"] = t * 1e6

    copy = work / "micro.kge"
    out["archive.save_archive.ms"] = _median_time(
        lambda: archive.save_archive(copy, params, vocab=vocab)) * 1e3
    out["archive.load_archive.ms"] = _median_time(lambda: archive.load_archive(copy)) * 1e3

    focals = [vocab.refs[vocab.ordinal_of(EntityKind.INVENTOR, i)] for i in inventors[:QUERIES]]
    t = _per_call(lambda f: proximity.nearest_neighbors(params, vocab, f, 10, {EntityKind.PATENT}),
                  focals)
    out["proximity.nearest_neighbors.us_per_call"] = t * 1e6
    refs = [vocab.refs[vocab.ordinal_of(EntityKind.PATENT, p)] for p in patents[:330]]
    out["proximity.pairwise_matrix.s"] = _median_time(
        lambda: proximity.pairwise_matrix(params, vocab, refs, EntityKind.PATENT))
    del store, params, vocab, corrupts

    codes = ingestion.load_universe(universe)
    portfolios = ingestion.load_portfolios(records, EntityKind.INVENTOR)
    longest = max(portfolios, key=lambda p: (len(p), p.agent_id))
    group_vocab = Vocabulary()
    for code in codes:
        group_vocab.add(EntityKind.GROUP, code)
    group_params = init_params(ModelKind.TRANSE_L2, len(group_vocab), 32, seed)
    out["expansion.group_proximity_matrix.ms"] = _median_time(
        lambda: expansion.group_proximity_matrix(group_params, group_vocab, codes)) * 1e3
    phi = expansion.group_proximity_matrix(group_params, group_vocab, codes)
    t = _median_time(lambda: expansion.profile_from_phi(phi, longest, codes), min_reps=3)
    out["expansion.profile_from_phi.us_per_record"] = t / len(longest) * 1e6
    values = [(code, float(p)) for code, p in zip(codes[1:], phi[0, 1:])]
    out["expansion.percentiles.us_per_call"] = _median_time(
        lambda: expansion.percentiles(values)) * 1e6
    return out
