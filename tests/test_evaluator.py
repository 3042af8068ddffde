"""Ranking metrics against a brute-force exhaustive-scoring oracle."""

import hashlib
import logging
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from test_graph import micro_store, reference_candidates, triples_of

from patkg.errors import (
    EmptyTestSet,
    FingerprintMismatch,
    InvalidConfig,
    PoolTooSmall,
    UnknownEntity,
    UnknownOrdinal,
)
from patkg.evaluator import (
    EvalConfig,
    Sides,
    TieRule,
    _metrics,
    _record_state,
    evaluate,
    rank_target,
)
from patkg.graph import (
    RELATIONS,
    CandidatePool,
    EntityKind,
    RelationKind,
    Side,
    SplitSpec,
    Triple,
    TripleStore,
    generate_synthetic,
    sample_corrupt,
    split,
)
from patkg.models import ModelKind, _rows, init_params, score, scores


def fixed_params(store, kind=ModelKind.TRANSE_L2, dim=8, seed=21):
    return init_params(kind, len(store.vocab), dim, seed, store.vocab.fingerprint())


def rows_of(store, rows=slice(None)):
    """The store's (heads, relation codes, tails) columns at `rows`, as `evaluate` takes them."""
    return tuple(column[rows] for column in store.triple_arrays())


@pytest.fixture(scope="module")
def toy():
    # 5 communities so every corruption pool has at least one candidate
    store = generate_synthetic(5, 6, 3, 2, 0.3, 0.05, seed=21)
    return store, fixed_params(store)


class TestRankTarget:
    def setup_method(self):
        self.store = TripleStore()
        for i in range(6):
            self.store.add_entity(EntityKind.PATENT, f"p{i}")
        self.params = init_params(ModelKind.DISTMULT, 6, 2, 0, self.store.vocab.fingerprint())
        self.rel = RelationKind.CITE

    def _set_scores(self, true_val, corrupt_vals):
        # diag(r) = (1, 0), head = (1, 0): score(h, r, t) = t[0]
        self.params.relations[self.rel]["vec"][:] = [1.0, 0.0]
        self.params.entities[0] = [1.0, 0.0]
        self.params.entities[1] = [true_val, 0.0]
        for i, v in enumerate(corrupt_vals):
            self.params.entities[2 + i] = [v, 0.0]
        triple = Triple(0, self.rel, 1)
        corrupts = np.arange(2, 2 + len(corrupt_vals), dtype=np.int64)  # replacement tails
        return triple, corrupts

    def test_rank_one_when_above_all(self):
        triple, corrupts = self._set_scores(5.0, [1.0, 2.0, 3.0, 4.0])
        assert rank_target(self.params, triple, Side.TAIL, corrupts) == 1.0

    def test_rank_k_plus_one_when_below_all(self):
        triple, corrupts = self._set_scores(0.0, [1.0, 2.0, 3.0, 4.0])
        assert rank_target(self.params, triple, Side.TAIL, corrupts) == 5.0

    def test_midpoint_tie_rule(self):
        # 4 corrupts: one strictly above, two tying exactly, one below
        triple, corrupts = self._set_scores(2.0, [3.0, 2.0, 2.0, 1.0])
        assert rank_target(self.params, triple, Side.TAIL, corrupts) == 3.0

    def test_optimistic_and_pessimistic(self):
        triple, corrupts = self._set_scores(2.0, [3.0, 2.0, 2.0, 1.0])
        assert rank_target(self.params, triple, Side.TAIL, corrupts, TieRule.OPTIMISTIC) == 2.0
        assert rank_target(self.params, triple, Side.TAIL, corrupts, TieRule.PESSIMISTIC) == 4.0

    def test_head_side_replaces_heads(self):
        # score(h, r, t) = h[0] * t[0]: with tail 1 at 1.0 each head scores its own first coordinate
        triple, _ = self._set_scores(1.0, [])
        self.params.entities[0] = [2.0, 0.0]
        for o, v in zip(range(2, 6), [3.0, 2.0, 2.0, 1.0]):
            self.params.entities[o] = [v, 0.0]
        corrupts = np.arange(2, 6, dtype=np.int64)  # replacement heads
        assert rank_target(self.params, triple, Side.HEAD, corrupts) == 3.0
        assert rank_target(self.params, triple, Side.HEAD, corrupts[[0, 3]]) == 2.0


def rank_through_scores(params, triple, side, corrupts, tie_rule):
    """`rank_target` as it scored before gathering its own rows: through the checked `scores`."""
    if side is Side.HEAD:
        heads = np.concatenate(([triple.head], corrupts))
        tails = np.full_like(heads, triple.tail)
    else:
        tails = np.concatenate(([triple.tail], corrupts))
        heads = np.full_like(tails, triple.head)
    s = scores(params, heads, triple.relation, tails)
    better, ties = int((s[1:] > s[0]).sum()), int((s[1:] == s[0]).sum())
    return {TieRule.OPTIMISTIC: 1.0 + better, TieRule.PESSIMISTIC: 1.0 + better + ties,
            TieRule.MIDPOINT: 1.0 + better + ties / 2.0}[tie_rule]


def rank_with_repeat(params, triple, side, corrupts, tie_rule):
    """`rank_target` as it gathered one fixed row and repeated it K times, counting with `sum`."""
    original, fixed = (triple.head, triple.tail) if side is Side.HEAD else (triple.tail, triple.head)
    rows = _rows(params, [fixed, original], corrupts)
    repeated = np.repeat(rows[:1], len(rows) - 1, axis=0)
    H, T = (rows[1:], repeated) if side is Side.HEAD else (repeated, rows[1:])
    s = params.spec.score(H, T, params.relations[triple.relation])
    better, ties = int((s[1:] > s[0]).sum()), int((s[1:] == s[0]).sum())
    return 1.0 + better + ties * {TieRule.OPTIMISTIC: 0.0, TieRule.MIDPOINT: 0.5, TieRule.PESSIMISTIC: 1.0}[tie_rule]


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_rank_target_equals_ranking_through_scores(kind):
    store = generate_synthetic(2, 10, 3, 2, 0.3, 0.05, seed=4)
    params = fixed_params(store, kind=kind, dim=6, seed=8)
    before = [params.entities.copy()] + [b.copy() for blocks in params.relations.values() for b in blocks.values()]
    rng = np.random.default_rng(1)
    n = len(store.vocab)
    for t in store.triples[::3]:
        for side in Side:
            corrupts = rng.integers(0, n, size=int(rng.integers(0, 12)))
            corrupts[: len(corrupts) // 3] = t.head if side is Side.HEAD else t.tail  # exact ties
            for tie in TieRule:
                rank = rank_target(params, t, side, corrupts, tie)
                assert type(rank) is float
                assert rank == rank_through_scores(params, t, side, corrupts, tie)
                assert rank == rank_with_repeat(params, t, side, corrupts, tie)
    after = [params.entities] + [b for blocks in params.relations.values() for b in blocks.values()]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))  # kernels ran on copies


def test_rank_target_rejects_ordinals_outside_the_table():
    store = micro_store()
    params = fixed_params(store)
    n = len(store.vocab)
    ok = np.array([1, 2], dtype=np.int64)
    bad = (-1, n, 2**63, -2**63 - 1)  # the last two do not fit int64
    cases = [(Triple(-1, RelationKind.CITE, 1), ok), (Triple(0, RelationKind.CITE, n), ok),
             (Triple(0, RelationKind.CITE, 1), np.array([1, -1])),
             (Triple(0, RelationKind.CITE, 1), np.array([n])),
             (Triple(0, RelationKind.CITE, 1), np.array([-2**63, 2]))]
    cases += [(Triple(o, RelationKind.CITE, 1), ok) for o in bad] + [(Triple(0, RelationKind.CITE, o), ok) for o in bad]
    cases += [(Triple(0, RelationKind.CITE, 1), corrupts) for o in bad for corrupts in ([2, o], np.array([2, o], dtype=object))]
    cases.append((Triple(0, RelationKind.CITE, 1), np.array([2**63], dtype=np.uint64)))
    for triple, corrupts in cases:
        for side in Side:
            with pytest.raises(UnknownOrdinal):
                rank_target(params, triple, side, corrupts)
    assert rank_target(params, Triple(0, RelationKind.CITE, 1), Side.TAIL, np.zeros(0, dtype=np.int64)) == 1.0
    assert rank_target(params, Triple(0, RelationKind.CITE, 1), Side.TAIL, [2, 1]) >= 1.0  # a list is taken too


class TestAggregates:
    def test_formulas_for_known_ranks(self):
        ranks = np.array([1.0, 2.0, 4.0])
        assert np.isclose(ranks.mean(), 7 / 3)
        assert np.isclose((1 / ranks).mean(), 7 / 12)

    def test_evaluate_report_fields(self, toy):
        store, params = toy
        report = evaluate(params, rows_of(store, slice(40)), store, EvalConfig(corruptions_per_side=5, seed=3))
        assert report.n_queries == 80
        assert 1.0 <= report.mr <= 6.0
        assert 0.0 < report.mrr <= 1.0
        assert report.hits[1] <= report.hits[3] <= report.hits[10] <= 1.0
        assert sum(m.queries for m in report.per_relation.values()) == 80

    def test_rank_bounds(self, toy):
        store, params = toy
        K = 7
        report = evaluate(params, rows_of(store, slice(60)), store,
                          EvalConfig(corruptions_per_side=K, seed=5))
        ranks = report.records[2]
        assert len(ranks) == report.n_queries and ((1.0 <= ranks) & (ranks <= K + 1)).all()

    def test_seed_determinism(self, toy):
        store, params = toy
        cfg = EvalConfig(corruptions_per_side=6, seed=11)
        a = evaluate(params, rows_of(store, slice(30)), store, cfg)
        b = evaluate(params, rows_of(store, slice(30)), store, cfg)
        assert a.mr == b.mr and a.mrr == b.mrr and a.hits == b.hits

    def test_order_independence(self, toy):
        store, params = toy
        cfg = EvalConfig(corruptions_per_side=6, seed=11)
        a = evaluate(params, rows_of(store, slice(30)), store, cfg)
        b = evaluate(params, rows_of(store, slice(29, None, -1)), store, cfg)
        assert a.mr == b.mr and a.mrr == b.mrr

    def test_sides_selection(self, toy):
        store, params = toy
        test = rows_of(store, slice(10))
        head = evaluate(params, test, store, EvalConfig(corruptions_per_side=5, sides=Sides.HEAD_ONLY, seed=2))
        both = evaluate(params, test, store, EvalConfig(corruptions_per_side=5, sides=Sides.BOTH, seed=2))
        assert head.n_queries == 10
        assert both.n_queries == 20

    def test_fingerprint_mismatch(self, toy):
        store, params = toy
        other = generate_synthetic(1, 4, 2, 1, 0.0, 0.0, seed=1)
        with pytest.raises(FingerprintMismatch):
            evaluate(params, rows_of(store, slice(5)), other, EvalConfig(seed=0))

    def test_empty_test_set(self, toy):
        store, params = toy
        with pytest.raises(EmptyTestSet):
            evaluate(params, ([], [], []), store, EvalConfig(seed=0))


def exhaustive_oracle(params, test, store, sides=(Side.HEAD, Side.TAIL), tie=TieRule.MIDPOINT):
    """Score every same-kind candidate with scalar calls; direct formulas."""
    ranks = []
    for triple in triples_of(test):
        for side in sides:
            original = triple.head if side is Side.HEAD else triple.tail
            kind = store.vocab.refs[original].kind
            candidates = [o for o in store.vocab.ordinals_of_kind(kind) if o != original]
            true_score = score(params, triple.head, triple.relation, triple.tail)
            corrupt_scores = []
            for c in candidates:
                if side is Side.HEAD:
                    corrupt_scores.append(score(params, c, triple.relation, triple.tail))
                else:
                    corrupt_scores.append(score(params, triple.head, triple.relation, c))
            better = sum(1 for s in corrupt_scores if s > true_score)
            ties = sum(1 for s in corrupt_scores if s == true_score)
            if tie is TieRule.MIDPOINT:
                ranks.append(1.0 + better + ties / 2.0)
            elif tie is TieRule.OPTIMISTIC:
                ranks.append(1.0 + better)
            else:
                ranks.append(1.0 + better + ties)
    ranks = np.array(ranks)
    return {
        "mr": ranks.mean(),
        "mrr": (1.0 / ranks).mean(),
        "hits": {k: float((ranks <= k).mean()) for k in (1, 3, 10)},
    }


def test_mr_and_mrr_order_dominating_models_consistently():
    # if model A beats model B rank-for-rank, A has lower MR and higher MRR
    rng = np.random.default_rng(61)
    for _ in range(100):
        ranks_b = rng.integers(2, 50, size=40).astype(float)
        ranks_a = ranks_b - 1.0
        assert ranks_a.mean() < ranks_b.mean()
        assert (1.0 / ranks_a).mean() > (1.0 / ranks_b).mean()


class TestFilteredMode:
    def test_filtered_never_ranks_worse_exhaustively(self):
        # with the full pool on both sides, removing true-triple competitors
        # can only improve (or keep) the true entity's rank
        store = generate_synthetic(5, 4, 3, 2, 0.4, 0.1, seed=44)
        params = fixed_params(store, kind=ModelKind.DISTMULT, dim=6, seed=44)
        test = rows_of(store, slice(None, 80, 4))
        raw = evaluate(params, test, store, EvalConfig(corruptions_per_side=10_000, seed=1))
        filt = evaluate(params, test, store,
                        EvalConfig(corruptions_per_side=10_000, filtered=True, seed=1))
        for a, b in zip(raw.records[:2], filt.records[:2]):
            np.testing.assert_array_equal(a, b)  # the same queries, in the same order
        assert (filt.records[2] <= raw.records[2]).all()
        assert (filt.records[3] <= raw.records[3]).all()
        assert filt.mr <= raw.mr


class TestOracleEquivalence:
    @pytest.mark.parametrize("kind", [ModelKind.TRANSE_L2, ModelKind.DISTMULT, ModelKind.ROTATE])
    def test_full_pool_equals_exhaustive(self, kind):
        store = generate_synthetic(5, 4, 3, 2, 0.4, 0.1, seed=33)
        params = fixed_params(store, kind=kind, dim=6, seed=33)
        test = rows_of(store, slice(None, 75, 3))
        # K far beyond every pool: clamped to the full pool per query
        report = evaluate(params, test, store, EvalConfig(corruptions_per_side=10_000, seed=1))
        want = exhaustive_oracle(params, test, store)
        assert abs(report.mr - want["mr"]) < 1e-12
        assert abs(report.mrr - want["mrr"]) < 1e-12
        for k in (1, 3, 10):
            assert abs(report.hits[k] - want["hits"][k]) < 1e-12


class TestClampedAndSkipped:
    def test_report_counts_and_log_lines(self, caplog):
        # micro store: one inventor, assignee, group and subsection, so every head
        # pool but cite's is empty; filtered cite tails p1->p2 and p1->p3 keep one patent
        store = micro_store()
        params = fixed_params(store)
        with caplog.at_level(logging.WARNING, logger="patkg.evaluator"):
            report = evaluate(params, store.triple_arrays(), store,
                              EvalConfig(corruptions_per_side=2, filtered=True, seed=1))
        assert (report.n_queries, report.clamped, report.skipped) == (9, 2, 5)
        assert [r.getMessage() for r in caplog.records] == [
            "skipped 5 queries with an empty corruption pool",
            "K=2 exceeded the candidate pool for 2 of 9 queries; clamped to exhaustive ranking",
        ]
        assert sorted(report.records[3].tolist()) == [1, 1] + [2] * 7
        raw = evaluate(params, store.triple_arrays(), store, EvalConfig(corruptions_per_side=2, seed=1))
        assert (raw.n_queries, raw.clamped, raw.skipped) == (9, 0, 5)


ORACLE_SIDES = {Sides.HEAD_ONLY: (Side.HEAD,), Sides.TAIL_ONLY: (Side.TAIL,), Sides.BOTH: (Side.HEAD, Side.TAIL)}


def query_generator(seed, triple, side):
    """A fresh generator in the state `evaluate` sets for the query."""
    state, inc = _record_state(seed, triple, side)
    bits = np.random.PCG64()
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bits)


def record_rows(records):
    """`EvalReport.records` as one (test row, side code, rank, corruption count) tuple per query."""
    return list(zip(*(column.tolist() for column in records)))


def side_code(side):
    return 0 if side is Side.HEAD else 1


def sampled_oracle(params, test, store, config):
    """Records as the per-triple evaluator built them, for every TieRule at once.

    Sizes each pool from the list-based reference candidates, draws min(K, pool)
    with the same seeded rng.choice, wraps the draws in Triples and scores each
    with the scalar `score`.
    """
    facts = {(t.head, t.relation, t.tail) for t in store.triples}
    records = {tie: [] for tie in TieRule}
    for row, triple in enumerate(triples_of(test)):
        for side in ORACLE_SIDES[config.sides]:
            candidates = reference_candidates(store, facts, triple, side, config.pool, config.filtered)
            if not candidates:
                continue
            k = min(config.corruptions_per_side, len(candidates))
            rng = query_generator(config.seed, triple, side)
            chosen = rng.choice(np.array(candidates, dtype=np.int64), size=k, replace=False)
            corrupts = [Triple(int(o), triple.relation, triple.tail) if side is Side.HEAD
                        else Triple(triple.head, triple.relation, int(o)) for o in chosen]
            true_score = score(params, triple.head, triple.relation, triple.tail)
            corrupt_scores = [score(params, c.head, c.relation, c.tail) for c in corrupts]
            better = sum(1 for s in corrupt_scores if s > true_score)
            ties = sum(1 for s in corrupt_scores if s == true_score)
            for tie, rank in ((TieRule.MIDPOINT, 1.0 + better + ties / 2.0),
                              (TieRule.OPTIMISTIC, 1.0 + better),
                              (TieRule.PESSIMISTIC, 1.0 + better + ties)):
                records[tie].append((row, side_code(side), rank, k))
    return records


def rescan_oracle(records, test, n_queries, k):
    """The report's aggregates as the evaluator once took them: one rescan of the
    records per relation, clamped counted per query, skipped as the queries left unranked."""
    triples = triples_of(test)
    per_relation = {}
    for rel in RelationKind:
        rel_ranks = np.sort([rank for row, _, rank, _ in records if triples[row].relation is rel])
        if rel_ranks.size:
            per_relation[rel] = _metrics(rel_ranks)
    overall = _metrics(np.sort([rank for _, _, rank, _ in records]))
    clamped = 0
    for _, _, _, n_corrupts in records:
        clamped += n_corrupts < k
    return (overall.mr, overall.mrr, overall.hits, per_relation, clamped, n_queries - len(records))


def loop_oracle(params, test, store, config):
    """Records built one query at a time: a fresh generator in each query's state, through
    `sample_corrupt(rng=...)`, ranked with the repeated fixed row."""
    records = []
    for row, triple in enumerate(triples_of(test)):
        for side in ORACLE_SIDES[config.sides]:
            try:
                corrupts = sample_corrupt(store, triple, config.corruptions_per_side, side, pool=config.pool,
                                          filtered=config.filtered, rng=query_generator(config.seed, triple, side))
            except PoolTooSmall:
                continue
            rank = rank_with_repeat(params, triple, side, corrupts, config.tie_rule)
            records.append((row, side_code(side), rank, len(corrupts)))
    return records


@pytest.mark.parametrize("pool", list(CandidatePool), ids=lambda p: p.value)
@pytest.mark.parametrize("filtered", [False, True], ids=["raw", "filtered"])
def test_records_equal_sampled_oracle(pool, filtered):
    store = generate_synthetic(3, 12, 4, 2, 0.3, 0.05, seed=5)
    train_store, held_out = split(store, SplitSpec(0.2, seed=1))
    test = tuple(np.concatenate((held, train[::4])) for held, train in zip(held_out, train_store.triple_arrays()))
    for kind in ModelKind:
        params = fixed_params(store, kind=kind, dim=4, seed=5)
        # entries in {-1, 0, 1}: many exact ties, and DistMult's scores are exact, so its scalar scores agree
        rng = np.random.default_rng(5)
        for table in [params.entities] + [b for blocks in params.relations.values() for b in blocks.values()]:
            table[:] = rng.integers(-1, 2, size=table.shape)
        for sides in Sides:
            for seed in (-2**63, 0, 2**63 - 1):
                config = EvalConfig(corruptions_per_side=20, sides=sides, pool=pool, filtered=filtered, seed=seed)
                want = sampled_oracle(params, test, store, config) if kind is ModelKind.DISTMULT else None
                for tie in TieRule:
                    report = evaluate(params, test, store, replace(config, tie_rule=tie))
                    records = loop_oracle(params, test, store, replace(config, tie_rule=tie))
                    assert [c.dtype for c in report.records] == [np.int64, np.int64, np.float64, np.int64]
                    assert record_rows(report.records) == records
                    if want is not None:
                        assert records == want[tie]
                    got = (report.mr, report.mrr, report.hits, report.per_relation, report.clamped, report.skipped)
                    assert got == rescan_oracle(records, test, len(test[0]) * len(ORACLE_SIDES[sides]), 20)
                if want is not None:
                    assert [r[2] for r in want[TieRule.OPTIMISTIC]] != [r[2] for r in want[TieRule.PESSIMISTIC]]
                if pool is CandidatePool.SAME_KIND and sides is Sides.BOTH:
                    assert report.clamped > 0 and report.skipped > 0  # the 57-entity pool never runs short of K=20


@pytest.mark.parametrize("seed, triple, side", [
    (0, Triple(0, RelationKind.CITE, 1), Side.HEAD),  # its last 16 bytes read as an even number
    (0, Triple(0, RelationKind.CITE, 1), Side.TAIL),
    (-2**63, Triple(2**63 - 1, RelationKind.COMPRISE, 0), Side.HEAD),
    (2**63 - 1, Triple(7, RelationKind.WRITE, 2**40), Side.TAIL),
])
def test_record_state_is_the_blake2b_digest_of_the_query(seed, triple, side):
    code = list(RelationKind).index(triple.relation)
    payload = b"".join(v.to_bytes(8, "little", signed=True)
                       for v in (seed, triple.head, code, triple.tail, 0 if side is Side.HEAD else 1))
    digest = hashlib.blake2b(payload, digest_size=32).digest()
    state, inc = _record_state(seed, triple, side)
    assert (state, inc) == (int.from_bytes(digest[:16], "little"), int.from_bytes(digest[16:], "little") | 1)
    assert inc % 2 == 1


@given(seed=st.integers(-2**63, 2**63 - 1), filtered=st.booleans(), data=st.data())
def test_a_querys_record_depends_only_on_the_query(toy, seed, filtered, data):
    store, params = toy
    test = rows_of(store, slice(16))
    triples = triples_of(test)
    config = EvalConfig(corruptions_per_side=4, filtered=filtered, seed=seed)
    full = {(triples[row], side): record
            for row, side, *record in record_rows(evaluate(params, test, store, config).records)}
    rows = list(range(16))
    shuffled = data.draw(st.permutations(rows))
    repeated = data.draw(st.permutations(rows + data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=8))))
    first, second = rows[:8], rows[8:]
    for variant in (shuffled, repeated, first, second):
        columns = tuple(column[variant] for column in test)
        if variant is second:
            columns = tuple(column.tolist() for column in columns)  # plain int lists are columns too
        records = record_rows(evaluate(params, columns, store, config).records)
        assert [(row, side) for row, side, _, _ in records] == [
            (row, side) for row, i in enumerate(variant) for side in (0, 1) if (triples[i], side) in full]
        assert all(full[(triples[variant[row]], side)] == record for row, side, *record in records)


def test_unknown_entity_names_the_first_bad_triple():
    # evaluate checks its rows with `TripleStore.add_triples`' rule, even ints beyond int64
    store = micro_store()
    params = fixed_params(store)
    n, cite = len(store.vocab), RELATIONS.index(RelationKind.CITE)
    good = [(1, cite, 0), (1, cite, 2)]  # rows the store lacks, so `add_triples` would take them
    ordinals = (-1, n, 2**63, -2**63 - 1, 2**64)
    bad = [(o, cite, 1) for o in ordinals] + [(1, cite, o) for o in ordinals] + [(0, -1, 1), (0, 5, 1)]
    before = [c.copy() for c in store.triple_arrays()]
    for first in bad:
        for later in bad:
            heads, rels, tails = (list(c) for c in zip(good[0], first, good[1], later))
            message = f"^row {re.escape(str(first))}: ordinal outside the vocabulary or unknown relation$"
            with pytest.raises(UnknownEntity, match=message) as caught:
                evaluate(params, (heads, rels, tails), store, EvalConfig(corruptions_per_side=2, seed=1))
            assert caught.value.row == 1
            with pytest.raises(UnknownEntity, match=message) as caught:
                store.add_triples(heads, rels, tails)
            assert caught.value.row == 1
    assert all(np.array_equal(a, b) for a, b in zip(store.triple_arrays(), before))


@pytest.mark.parametrize("shape", ["float", "bool", "short heads", "long tails", "scalar"])
def test_columns_must_be_integers_of_one_length(shape):
    # a float column was truncated (`add_triples([0.9], [0], [1.2])` stored (0, cite, 1)) and columns of
    # unequal length were broadcast (1-long heads and relations beside 4 tails ranked 8 queries)
    store = micro_store()
    params = fixed_params(store)
    heads, rels, tails = (c[:1] for c in store.triple_arrays())
    columns = {"float": ([0.9], [0], [1.2]), "bool": (heads, rels, tails == tails),
               "short heads": (heads[:0], rels, tails), "long tails": (heads, rels, tails.repeat(4)),
               "scalar": (int(heads[0]), int(rels[0]), int(tails[0]))}[shape]
    before = [c.copy() for c in store.triple_arrays()]
    with pytest.raises(InvalidConfig, match="^(a triple column must be|triple columns differ)"):
        evaluate(params, columns, store, EvalConfig(corruptions_per_side=2, seed=1))
    with pytest.raises(InvalidConfig, match="^(a triple column must be|triple columns differ)"):
        store.add_triples(*columns)
    assert all(np.array_equal(a, b) for a, b in zip(store.triple_arrays(), before))
