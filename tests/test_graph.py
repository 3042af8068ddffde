"""Triple store, splitting, corruption sampling and the synthetic generator."""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from patkg.errors import (
    DuplicateTriple,
    EmptyStore,
    InvalidConfig,
    ParseError,
    PoolTooSmall,
    SchemaViolation,
    UnknownEntity,
)
from patkg.graph import (
    RELATION_INDEX,
    RELATION_SCHEMA,
    RELATIONS,
    CandidatePool,
    EntityKind,
    RelationKind,
    Side,
    SplitSpec,
    Triple,
    TripleStore,
    Vocabulary,
    corruption_candidates,
    generate_synthetic,
    sample_corrupt,
    split,
    stats,
)


def micro_store():
    """1 inventor, 1 assignee, 1 group, 1 subsection, 3 patents."""
    store = TripleStore()
    p1 = store.add_entity(EntityKind.PATENT, "5252504")
    p2 = store.add_entity(EntityKind.PATENT, "4879255")
    p3 = store.add_entity(EntityKind.PATENT, "5654220")
    inv = store.add_entity(EntityKind.INVENTOR, "lowrey")
    asg = store.add_entity(EntityKind.ASSIGNEE, "micron")
    grp = store.add_entity(EntityKind.GROUP, "H01L")
    sub = store.add_entity(EntityKind.SUBSECTION, "H01")
    store.add_triple(Triple(inv.ordinal, RelationKind.WRITE, p1.ordinal))
    store.add_triple(Triple(asg.ordinal, RelationKind.OWN, p1.ordinal))
    store.add_triple(Triple(grp.ordinal, RelationKind.CONTAIN, p1.ordinal))
    store.add_triple(Triple(sub.ordinal, RelationKind.COMPRISE, grp.ordinal))
    store.add_triple(Triple(p1.ordinal, RelationKind.CITE, p2.ordinal))
    store.add_triple(Triple(p3.ordinal, RelationKind.CITE, p1.ordinal))
    store.add_triple(Triple(p1.ordinal, RelationKind.CITE, p3.ordinal))
    return store


class TestAddTriple:
    def test_add_updates_both_indexes(self):
        store = TripleStore()
        inv = store.add_entity(EntityKind.INVENTOR, "3")
        pat = store.add_entity(EntityKind.PATENT, "7")
        store.add_triple(Triple(inv.ordinal, RelationKind.WRITE, pat.ordinal))
        assert len(store) == 1
        write = RELATION_INDEX[RelationKind.WRITE]
        assert [c.tolist() for c in store.triple_arrays()] == [[inv.ordinal], [write], [pat.ordinal]]
        assert store.contains(inv.ordinal, write, pat.ordinal)
        assert not store.contains(pat.ordinal, write, inv.ordinal)

    def test_schema_violation_on_reversed_write(self):
        store = TripleStore()
        inv = store.add_entity(EntityKind.INVENTOR, "3")
        pat = store.add_entity(EntityKind.PATENT, "7")
        with pytest.raises(SchemaViolation):
            store.add_triple(Triple(pat.ordinal, RelationKind.WRITE, inv.ordinal))

    def test_duplicate_rejected(self):
        store = TripleStore()
        inv = store.add_entity(EntityKind.INVENTOR, "3")
        pat = store.add_entity(EntityKind.PATENT, "7")
        t = Triple(inv.ordinal, RelationKind.WRITE, pat.ordinal)
        store.add_triple(t)
        with pytest.raises(DuplicateTriple):
            store.add_triple(t)

    def test_self_citation_rejected(self):
        store = TripleStore()
        pat = store.add_entity(EntityKind.PATENT, "7")
        with pytest.raises(SchemaViolation):
            store.add_triple(Triple(pat.ordinal, RelationKind.CITE, pat.ordinal))

    def test_unknown_ordinal(self):
        store = TripleStore()
        store.add_entity(EntityKind.PATENT, "7")
        with pytest.raises(UnknownEntity):
            store.add_triple(Triple(0, RelationKind.CITE, 5))

    def test_schema_closure_full_scan(self):
        store = generate_synthetic(3, 20, 5, 2, 0.1, 0.01, seed=3)
        from patkg.graph import RELATION_SCHEMA

        for t in store.triples:
            hk = store.vocab.refs[t.head].kind
            tk = store.vocab.refs[t.tail].kind
            assert (hk, tk) == RELATION_SCHEMA[t.relation]

    def test_index_coherence_round_trip(self):
        store = generate_synthetic(3, 20, 5, 2, 0.1, 0.01, seed=3)
        heads, rels, tails = store.triple_arrays()
        triples = store.triples
        assert [(t.head, RELATION_INDEX[t.relation], t.tail) for t in triples] == list(
            zip(heads.tolist(), rels.tolist(), tails.tolist())
        )
        assert len(set(triples)) == len(store)
        assert store.contains(heads, rels, tails).all()
        assert all(t in store for t in triples)
        # reversed non-cite triples break the schema, so none is stored
        assert not store.contains(tails, rels, heads)[rels != RELATION_INDEX[RelationKind.CITE]].any()
        with pytest.raises(ValueError):
            heads[0] = 1  # the columns are read-only


# -- the per-triple structures the columnar store replaced, kept as oracles ----

def reference_candidates(store, facts, t, side, pool, filtered):
    """Candidate list as built from per-triple objects: `facts` is a set of (h, r, t) tuples."""
    original = t.head if side is Side.HEAD else t.tail
    kind = store.vocab.refs[original].kind
    candidates = [r.ordinal for r in store.vocab.refs
                  if r.ordinal != original and (pool is CandidatePool.ALL_ENTITIES or r.kind is kind)]
    if filtered:
        if side is Side.HEAD:
            candidates = [o for o in candidates if (o, t.relation, t.tail) not in facts]
        else:
            candidates = [o for o in candidates if (t.head, t.relation, o) not in facts]
    return candidates


def test_corruption_candidates_match_reference():
    full = generate_synthetic(3, 12, 4, 2, 0.3, 0.05, seed=5)
    store, held_out = split(full, SplitSpec(0.2, seed=1))
    triples = store.triples
    facts = {(t.head, t.relation, t.tail) for t in triples}
    checked = 0
    for t in triples + held_out:
        for side in Side:
            for pool in CandidatePool:
                for filtered in (False, True):
                    want = reference_candidates(store, facts, t, side, pool, filtered)
                    got = corruption_candidates(store, t, side, pool, filtered)
                    assert got.dtype == np.int64 and got.tolist() == want
                    if not want:
                        continue
                    n = (1, 3, len(want) + 2)[checked % 3]  # the last is above the pool: all of it
                    rng = np.random.default_rng(checked)
                    expect = rng.choice(np.array(want, dtype=np.int64), size=min(n, len(want)), replace=False)
                    drawn = sample_corrupt(store, t, n, side, pool, filtered, rng_seed=checked)
                    assert drawn.dtype == np.int64 and drawn.tolist() == expect.tolist()
                    checked += 1
    assert checked > 1000


# Ordinals 0-3 patents, then one inventor, assignee, group and subsection.
MODEL_KINDS = [EntityKind.PATENT] * 4 + [
    EntityKind.INVENTOR, EntityKind.ASSIGNEE, EntityKind.GROUP, EntityKind.SUBSECTION
]
VALID_ROWS = [
    (h, RELATION_INDEX[rel], t)
    for rel, (hk, tk) in RELATION_SCHEMA.items()
    for h in range(len(MODEL_KINDS)) for t in range(len(MODEL_KINDS))
    if (MODEL_KINDS[h], MODEL_KINDS[t]) == (hk, tk) and not (rel is RelationKind.CITE and h == t)
]
ANY_ROW = st.tuples(st.integers(-1, 9), st.integers(-1, 5), st.integers(-1, 9))
ROWS = st.sampled_from(VALID_ROWS) | ANY_ROW
OPS = st.lists(
    st.tuples(st.just("one"), st.tuples(st.integers(-1, 9), st.integers(0, 4), st.integers(-1, 9)))
    | st.tuples(st.just("one"), st.sampled_from(VALID_ROWS))
    | st.tuples(st.just("many"), st.lists(ROWS, max_size=6)),
    max_size=12,
)


def model_error(rows, facts):
    """(exception type, message) a list-plus-set store raises for `rows`, or None to accept them all."""
    seen = set(facts)
    for h, r, t in rows:
        if not (0 <= h < len(MODEL_KINDS) and 0 <= t < len(MODEL_KINDS) and 0 <= r < len(RELATIONS)):
            return UnknownEntity, f"row {(h, r, t)}: ordinal outside the vocabulary or unknown relation"
        rel = RELATIONS[r]
        want = RELATION_SCHEMA[rel]
        if (MODEL_KINDS[h], MODEL_KINDS[t]) != want:
            return SchemaViolation, (f"{rel.value} requires {want[0].value}->{want[1].value}, "
                                     f"got {MODEL_KINDS[h].value}->{MODEL_KINDS[t].value}")
        if rel is RelationKind.CITE and h == t:
            return SchemaViolation, f"self-citation: {Triple(h, rel, t)}"
        if (h, r, t) in seen:
            return DuplicateTriple, f"{Triple(h, rel, t)}"
        seen.add((h, r, t))
    return None


@given(ops=OPS)
def test_add_triples_match_list_and_set_model(ops):
    store = TripleStore()
    for i, kind in enumerate(MODEL_KINDS):
        store.add_entity(kind, str(i))
    rows_model: list[tuple[int, int, int]] = []
    facts: set[tuple[int, int, int]] = set()
    # every in-range row, plus one key below the smallest and one above the largest possible
    grid = np.array([(h, r, t) for h in range(8) for r in range(5) for t in range(8)]
                    + [(-1, 0, 0), (2**29 - 1, 7, 2**29 - 1)]).T
    assert store.contains(*grid).tolist() == [False] * grid.shape[1]  # empty store
    assert Triple(0, RelationKind.CITE, 1) not in store
    for op, arg in ops:
        rows = [arg] if op == "one" else arg
        error = model_error(rows, facts)
        before = [c.copy() for c in store.triple_arrays()]
        with pytest.raises(error[0]) if error else nullcontext() as exc:
            if op == "one":
                h, r, t = arg
                store.add_triple(Triple(h, RELATIONS[r], t))
            else:
                store.add_triples([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])
        if error is not None:
            assert str(exc.value) == error[1]
        if error is None:
            rows_model.extend(rows)
            facts.update(rows)
        else:
            assert all(np.array_equal(a, b) for a, b in zip(store.triple_arrays(), before))
        assert list(zip(*(c.tolist() for c in store.triple_arrays()))) == rows_model
        assert store.contains(*grid).tolist() == [row in facts for row in zip(*grid.tolist())]
        for h, r, t in rows:
            if 0 <= r < len(RELATIONS):
                assert (Triple(h, RELATIONS[r], t) in store) == ((h, r, t) in facts)


class TestVocabulary:
    def test_ordinals_contiguous_first_seen(self):
        vocab = Vocabulary()
        a = vocab.add(EntityKind.PATENT, "a")
        b = vocab.add(EntityKind.INVENTOR, "b")
        assert (a.ordinal, b.ordinal) == (0, 1)
        assert vocab.add(EntityKind.PATENT, "a").ordinal == 0

    def test_export_round_trip(self):
        store = micro_store()
        clone = Vocabulary.from_lines(store.vocab.export_lines())
        assert clone.export_lines() == store.vocab.export_lines()
        assert clone.fingerprint() == store.vocab.fingerprint()

    def test_from_lines_needs_a_colon(self):
        # `kind:` (empty id) is a label; a bare kind is not
        vocab = Vocabulary.from_lines(["0\tpatent:", "1\tinventor:x"])
        assert vocab.export_lines() == ["0\tpatent:", "1\tinventor:x"]
        with pytest.raises(ParseError, match=r"vocabulary line 0: '0\\tpatent' is not <ordinal>"):
            Vocabulary.from_lines(["0\tpatent", "1\tinventor:x"])

    def test_unknown_lookup(self):
        vocab = Vocabulary()
        with pytest.raises(UnknownEntity):
            vocab.ordinal_of(EntityKind.PATENT, "nope")

    def test_ordinals_of_kind_arrays(self):
        store = generate_synthetic(3, 8, 3, 2, 0.2, 0.01, seed=2)
        vocab = store.vocab
        for kind in EntityKind:
            ordinals = vocab.ordinals_of_kind(kind)
            assert ordinals.dtype == np.int64
            assert ordinals.tolist() == [r.ordinal for r in vocab.refs if r.kind is kind]
            assert (np.diff(ordinals) > 0).all()
            with pytest.raises(ValueError):
                ordinals[0] = 0
        before = vocab.ordinals_of_kind(EntityKind.INVENTOR).tolist()
        late = vocab.add(EntityKind.INVENTOR, "late")
        assert vocab.ordinals_of_kind(EntityKind.INVENTOR).tolist() == before + [late.ordinal]
        clone = Vocabulary.from_lines(vocab.export_lines())
        for kind in EntityKind:
            assert np.array_equal(clone.ordinals_of_kind(kind), vocab.ordinals_of_kind(kind))


class TestSplit:
    def test_sizes(self):
        store = generate_synthetic(2, 25, 5, 2, 0.1, 0.01, seed=1)
        n = len(store)
        train, test = split(store, SplitSpec(0.10, seed=4))
        assert len(test) == round(0.10 * n)
        assert len(train) + len(test) == n

    def test_partition(self):
        store = generate_synthetic(2, 25, 5, 2, 0.1, 0.01, seed=1)
        for seed in (0, 1, 2):
            train, test = split(store, SplitSpec(0.25, seed=seed))
            assert set(train.triples) | set(test) == set(store.triples)
            assert not set(train.triples) & set(test)

    def test_deterministic(self):
        store = generate_synthetic(2, 25, 5, 2, 0.1, 0.01, seed=1)
        _, test1 = split(store, SplitSpec(0.10, seed=9))
        _, test2 = split(store, SplitSpec(0.10, seed=9))
        assert test1 == test2

    def test_insertion_order_does_not_matter(self):
        store = micro_store()
        reordered = TripleStore(store.vocab)
        for t in reversed(store.triples):
            reordered.add_triple(t)
        _, test1 = split(store, SplitSpec(0.3, seed=5))
        _, test2 = split(reordered, SplitSpec(0.3, seed=5))
        assert test1 == test2

    def test_pinned_regression(self):
        # 20-triple store, fraction 0.10, seed 5: recorded once, pinned.
        store = generate_synthetic(1, 5, 2, 1, 1.0, 0.0, seed=2)
        assert len(store) == 41
        sub = TripleStore(store.vocab)
        for t in store.triples[:20]:
            sub.add_triple(t)
        _, test = split(sub, SplitSpec(0.10, seed=5))
        assert test == [Triple(8, RelationKind.WRITE, 6), Triple(1, RelationKind.CONTAIN, 6)]

    def test_empty_store(self):
        with pytest.raises(EmptyStore):
            split(TripleStore(), SplitSpec(0.10, seed=0))

    def test_bad_fraction(self):
        with pytest.raises(InvalidConfig):
            SplitSpec(1.5, seed=0)


class TestSampleCorrupt:
    def test_same_kind_pool(self):
        store = micro_store()
        t = store.triples[2]  # group contain patent
        corrupts = sample_corrupt(store, t, 2, Side.TAIL, rng_seed=0)
        assert len(corrupts) == 2
        for o in corrupts.tolist():
            assert store.vocab.refs[o].kind is EntityKind.PATENT
            assert o != t.tail

    def test_exhaustion_of_pool(self):
        store = micro_store()
        t = store.triples[2]
        corrupts = sample_corrupt(store, t, 2, Side.TAIL, rng_seed=1)
        assert {store.vocab.refs[o].source_id for o in corrupts.tolist()} == {"4879255", "5654220"}

    def test_n_above_pool_returns_whole_pool(self):
        store = micro_store()
        t = store.triples[2]
        pool = corruption_candidates(store, t, Side.TAIL, CandidatePool.SAME_KIND, False)
        expect = np.random.default_rng(4).choice(pool, size=len(pool), replace=False)
        corrupts = sample_corrupt(store, t, 50, Side.TAIL, rng_seed=4)
        assert corrupts.tolist() == expect.tolist()
        assert sorted(corrupts.tolist()) == pool.tolist()

    def test_returns_int64_ordinals(self):
        store = micro_store()
        for t in store.triples:
            for pool in CandidatePool:
                if corruption_candidates(store, t, Side.TAIL, pool, False).size:  # comprise: one group
                    assert sample_corrupt(store, t, 3, Side.TAIL, pool, rng_seed=0).dtype == np.int64

    def test_filtered_excludes_true_triples(self):
        store = TripleStore()
        g = store.add_entity(EntityKind.GROUP, "g1")
        p1 = store.add_entity(EntityKind.PATENT, "p1")
        p2 = store.add_entity(EntityKind.PATENT, "p2")
        store.add_entity(EntityKind.PATENT, "p3")
        store.add_triple(Triple(g.ordinal, RelationKind.CONTAIN, p1.ordinal))
        store.add_triple(Triple(g.ordinal, RelationKind.CONTAIN, p2.ordinal))
        t = store.triples[0]
        corrupts = sample_corrupt(store, t, 1, Side.TAIL, filtered=True, rng_seed=0)
        assert [store.vocab.refs[o].source_id for o in corrupts.tolist()] == ["p3"]

    def test_pool_too_small(self):
        store = micro_store()
        t = store.triples[0]  # write: only one inventor exists
        for n in (1, 5, 1000):  # an empty pool raises whatever n asks for
            with pytest.raises(PoolTooSmall):
                sample_corrupt(store, t, n, Side.HEAD, rng_seed=0)
        with pytest.raises(InvalidConfig):
            sample_corrupt(store, t, 0, Side.HEAD)

    def test_all_entities_pool(self):
        store = micro_store()
        t = store.triples[0]
        corrupts = sample_corrupt(
            store, t, 6, Side.HEAD, pool=CandidatePool.ALL_ENTITIES, rng_seed=3
        )
        assert len(set(corrupts.tolist())) == 6
        assert t.head not in corrupts.tolist()

    def test_differs_in_exactly_one_slot(self):
        # the drawn ordinals replace one side; the kept side and relation are the triple's own
        store = generate_synthetic(2, 10, 3, 2, 0.2, 0.01, seed=5)
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(80):
            t = store.triples[int(rng.integers(len(store)))]
            side = Side.HEAD if rng.random() < 0.5 else Side.TAIL
            try:
                corrupts = sample_corrupt(store, t, 2, side, rng_seed=int(rng.integers(2**32)))
            except PoolTooSmall:
                continue  # comprise triples: too few subsections/groups
            original = t.head if side is Side.HEAD else t.tail
            assert len(corrupts) >= 1 and original not in corrupts.tolist()
            checked += 1
        assert checked > 50

    def test_filtered_membership_false(self):
        store = generate_synthetic(2, 10, 3, 2, 0.5, 0.05, seed=6)
        t = store.triples[-1]
        corrupts = sample_corrupt(store, t, 5, Side.TAIL, filtered=True, rng_seed=2)
        assert len(corrupts) == 5
        assert not store.contains(t.head, RELATION_INDEX[t.relation], corrupts).any()

    def test_deterministic_per_seed(self):
        store = generate_synthetic(2, 10, 3, 2, 0.2, 0.01, seed=5)
        t = next(t for t in store.triples if t.relation is RelationKind.CITE)
        a = sample_corrupt(store, t, 4, Side.TAIL, rng_seed=11)
        b = sample_corrupt(store, t, 4, Side.TAIL, rng_seed=11)
        assert a.tolist() == b.tolist()


class TestStats:
    def test_empty(self):
        s = stats(TripleStore())
        assert all(v == 0 for v in s.entity_counts.values())
        assert all(v == 0 for v in s.relation_counts.values())

    def test_micro_graph_kind_counts(self):
        s = stats(micro_store())
        assert s.entity_counts[EntityKind.PATENT] == 3
        assert s.entity_counts[EntityKind.INVENTOR] == 1
        assert s.entity_counts[EntityKind.ASSIGNEE] == 1
        assert s.entity_counts[EntityKind.GROUP] == 1
        assert s.entity_counts[EntityKind.SUBSECTION] == 1

    def test_synthetic_pinned_counts(self):
        # Recorded once from the generator at this seed; regression oracle.
        s = stats(generate_synthetic(5, 200, 40, 10, 0.02, 0.001, seed=7))
        assert s.n_entities == 1257
        assert s.n_triples == 8705
        assert s.relation_counts[RelationKind.COMPRISE] == 5
        assert s.relation_counts[RelationKind.CONTAIN] == 1000
        assert s.relation_counts[RelationKind.WRITE] == 2000
        assert s.relation_counts[RelationKind.OWN] == 1000


class TestGenerateSynthetic:
    def test_minimal_construction(self):
        store = generate_synthetic(1, 1, 1, 1, 0.0, 0.0, seed=0)
        assert len(store) == 4
        assert {t.relation for t in store.triples} == set(RelationKind) - {RelationKind.CITE}

    def test_no_cross_community_cites_at_inter_zero(self):
        store = generate_synthetic(2, 8, 2, 1, 1.0, 0.0, seed=0)
        for t in store.triples:
            if t.relation is RelationKind.CITE:
                c_head = store.vocab.refs[t.head].source_id.split("_")[0]
                c_tail = store.vocab.refs[t.tail].source_id.split("_")[0]
                assert c_head == c_tail

    def test_every_patent_covered(self):
        store = generate_synthetic(3, 15, 4, 2, 0.1, 0.01, seed=9)
        patents = [r.ordinal for r in store.vocab.refs if r.kind is EntityKind.PATENT]
        for rel in (RelationKind.CONTAIN, RelationKind.WRITE, RelationKind.OWN):
            covered = {t.tail for t in store.triples if t.relation is rel}
            assert covered == set(patents)

    def test_subsection_sharing(self):
        store = generate_synthetic(5, 2, 1, 1, 0.1, 0.0, seed=0)
        s = stats(store)
        assert s.entity_counts[EntityKind.SUBSECTION] == 2  # ceil(5/4)
        assert s.entity_counts[EntityKind.GROUP] == 5

    def test_deterministic(self):
        a = generate_synthetic(2, 10, 3, 2, 0.3, 0.02, seed=12)
        b = generate_synthetic(2, 10, 3, 2, 0.3, 0.02, seed=12)
        assert a.triples == b.triples

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            generate_synthetic(0, 1, 1, 1, 0.1, 0.0, seed=0)
        with pytest.raises(InvalidConfig):
            generate_synthetic(1, 1, 1, 1, 0.1, 0.2, seed=0)
        with pytest.raises(InvalidConfig):
            generate_synthetic(1, 1, 1, 1, 1.5, 0.0, seed=0)
