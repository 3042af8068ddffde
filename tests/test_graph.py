"""Triple store, splitting, corruption sampling and the synthetic generator."""

import hashlib
import re
from array import array
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from patkg.errors import (
    DuplicateTriple,
    EmptyStore,
    InvalidConfig,
    ParseError,
    PatkgError,
    PoolTooSmall,
    SchemaViolation,
    UnknownEntity,
)
from patkg.graph import (
    KINDS,
    RELATION_INDEX,
    RELATION_SCHEMA,
    RELATIONS,
    CandidatePool,
    EntityKind,
    EntityRef,
    RelationKind,
    Side,
    SplitSpec,
    Triple,
    TripleStore,
    Vocabulary,
    corruption_candidates,
    generate_synthetic,
    label_kinds,
    pack_keys,
    parse_label,
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
        assert all(store.contains(t.head, RELATION_INDEX[t.relation], t.tail) for t in triples)
        # reversed non-cite triples break the schema, so none is stored
        assert not store.contains(tails, rels, heads)[rels != RELATION_INDEX[RelationKind.CITE]].any()
        with pytest.raises(ValueError):
            heads[0] = 1  # the columns are read-only


# -- the per-triple structures the columnar store replaced, kept as oracles ----

def triples_of(columns):
    """The `Triple` of each row of (heads, relation codes, tails) columns."""
    return [Triple(h, RELATIONS[r], t) for h, r, t in zip(*(c.tolist() for c in columns))]


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
    for t in triples + triples_of(held_out):
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


def contains_filter_candidates(store, t, side, pool, filtered):
    """`corruption_candidates` as it filtered before key slices: the key of every pool
    member tested with `store.contains`."""
    original = t.head if side is Side.HEAD else t.tail
    if pool is CandidatePool.SAME_KIND:
        candidates = store.vocab.ordinals_of_kind(KINDS[store.vocab.kinds[original]])
    else:
        candidates = np.arange(len(store.vocab), dtype=np.int64)
    candidates = candidates[candidates != original]
    if filtered:
        heads, tails = (candidates, t.tail) if side is Side.HEAD else (t.head, candidates)
        candidates = candidates[~store.contains(heads, RELATION_INDEX[t.relation], tails)]
    return candidates


@st.composite
def small_store_rows(draw):
    """Entity kinds by ordinal, then two batches of schema-valid rows, the second added
    after the first has been queried."""
    kinds = draw(st.lists(st.sampled_from(list(EntityKind)), min_size=1, max_size=9))
    valid = [(h, RELATION_INDEX[rel], t) for rel, (hk, tk) in RELATION_SCHEMA.items()
             for h in range(len(kinds)) for t in range(len(kinds))
             if (kinds[h], kinds[t]) == (hk, tk) and not (rel is RelationKind.CITE and h == t)]
    if not valid:
        return kinds, [], []
    rows = draw(st.lists(st.sampled_from(valid), unique=True, max_size=20))
    cut = draw(st.integers(0, len(rows)))
    return kinds, rows[:cut], rows[cut:]


def check_candidates_against_contains_filter(store, kinds):
    """Every query a schema-valid triple can make, stored or not, against the oracle;
    sampling follows the candidates and raises PoolTooSmall exactly when they are empty."""
    for rel, (hk, tk) in RELATION_SCHEMA.items():
        for h in (o for o, kind in enumerate(kinds) if kind is hk):
            for t in (o for o, kind in enumerate(kinds) if kind is tk):
                triple = Triple(h, rel, t)
                for side in Side:
                    for pool in CandidatePool:
                        for filtered in (False, True):
                            want = contains_filter_candidates(store, triple, side, pool, filtered)
                            got = corruption_candidates(store, triple, side, pool, filtered)
                            assert got.dtype == np.int64 and got.tolist() == want.tolist()
                            if len(want):
                                drawn = sample_corrupt(store, triple, 2, side, pool, filtered, rng_seed=h + t)
                                assert set(drawn.tolist()) <= set(want.tolist())
                            else:
                                with pytest.raises(PoolTooSmall):
                                    sample_corrupt(store, triple, 2, side, pool, filtered)


CITE, COMPRISE = RELATION_INDEX[RelationKind.CITE], RELATION_INDEX[RelationKind.COMPRISE]
P, G, S = EntityKind.PATENT, EntityKind.GROUP, EntityKind.SUBSECTION


@given(case=small_store_rows())
@example(case=([P, P], [(0, CITE, 1)], [(1, CITE, 0)]))  # each patent's only other patent is filtered away
@example(case=([S, G, G, P], [(0, COMPRISE, 1)], [(0, COMPRISE, 2)]))  # relation code 4, ordinal 0 fixed
@example(case=([P, G, S, G], [(2, COMPRISE, 3), (2, COMPRISE, 1)], []))  # largest ordinal in a slice
@example(case=([P, P, P], [], []))  # every slice empty
def test_slice_filtering_matches_contains_filter(case):
    kinds, first, second = case
    store = TripleStore()
    for i, kind in enumerate(kinds):
        store.add_entity(kind, str(i))
    for rows in (first, second):  # the (rel, tail, head) keys are rebuilt after each batch
        store.add_triples(*(np.array(rows, dtype=np.int64).reshape(-1, 3).T))
        check_candidates_against_contains_filter(store, kinds)


def test_known_ends_at_the_key_bit_edges():
    # ordinals 0 and 2**29 - 1 and relation code 4 fill the packed key's fields to their ends
    top = 2**29 - 1
    heads, rels, tails = (np.array(c, dtype=np.int64) for c in
                          ([top, 0, top, 0, 5], [3, 4, 4, 4, 4], [5, 0, top, top, 0]))
    store = TripleStore()
    store.heads, store.rels, store.tails = heads, rels, tails
    store._keys = np.sort(pack_keys(heads, rels, tails))
    assert store.known_ends(Side.TAIL, 3, top).tolist() == [5]
    assert store.known_ends(Side.TAIL, 4, 0).tolist() == [0, top]
    assert store.known_ends(Side.TAIL, 4, top).tolist() == [top]
    assert store.known_ends(Side.TAIL, 3, 0).tolist() == []
    assert store.known_ends(Side.HEAD, 4, top).tolist() == [0, top]
    assert store.known_ends(Side.HEAD, 4, 0).tolist() == [0, 5]
    assert store.known_ends(Side.HEAD, 3, 5).tolist() == [top]
    assert store.known_ends(Side.HEAD, 0, 5).tolist() == []


def test_head_side_keys_exist_only_while_needed():
    store = micro_store()
    t = store.triples[0]
    corruption_candidates(store, t, Side.TAIL, CandidatePool.SAME_KIND, True)
    corruption_candidates(store, t, Side.HEAD, CandidatePool.SAME_KIND, False)
    assert store._keys_by_tail is None  # ingest, train and raw evaluation never sort them
    corruption_candidates(store, t, Side.HEAD, CandidatePool.SAME_KIND, True)
    assert store._keys_by_tail is not None
    late = store.add_entity(EntityKind.INVENTOR, "late")
    store.add_triple(Triple(late.ordinal, RelationKind.WRITE, t.tail))
    assert store._keys_by_tail is None
    assert store.known_ends(Side.HEAD, RELATION_INDEX[t.relation], t.tail).tolist() == [t.head, late.ordinal]


@pytest.mark.parametrize("triple", [(-1, 3), (3, -1), (7, 0), (0, 10**6)], ids=str)
def test_out_of_vocabulary_ordinals_raise_unknown_entity(triple):
    store = micro_store()  # 7 entities; ordinals 0-2 are patents
    t = Triple(triple[0], RelationKind.CITE, triple[1])
    for side in Side:
        for pool in CandidatePool:
            for filtered in (False, True):
                with pytest.raises(UnknownEntity):
                    corruption_candidates(store, t, side, pool, filtered)
                with pytest.raises(UnknownEntity):
                    sample_corrupt(store, t, 3, side, pool, filtered)


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
# ints that are out of range and do not all fit int64, as ordinals or relation codes
BEYOND = st.sampled_from([-2**63 - 1, -2**63, 2**63 - 1, 2**63, 2**64])
ORDINALS = st.integers(-1, 9) | BEYOND
ANY_ROW = st.tuples(ORDINALS, st.integers(-1, 5) | BEYOND, ORDINALS)
ROWS = st.sampled_from(VALID_ROWS) | ANY_ROW
OPS = st.lists(
    st.tuples(st.just("one"), st.tuples(ORDINALS, st.integers(0, 4), ORDINALS))
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
    assert not store.contains(0, RELATION_INDEX[RelationKind.CITE], 1)
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
            if 0 <= r < len(RELATIONS) and -1 <= min(h, t) <= max(h, t) <= 9:  # keys pack ordinals below 2**29
                assert store.contains(h, r, t) == ((h, r, t) in facts)


class TestVocabulary:
    def test_ordinals_contiguous_first_seen(self):
        vocab = Vocabulary()
        a = vocab.add(EntityKind.PATENT, "a")
        b = vocab.add(EntityKind.INVENTOR, "b")
        assert (a.ordinal, b.ordinal) == (0, 1)
        assert vocab.add(EntityKind.PATENT, "a").ordinal == 0

    def test_export_round_trip(self):
        store = micro_store()
        clone = Vocabulary.from_lines(store.vocab.export_text().split("\n"))
        assert clone.export_text() == store.vocab.export_text()
        assert clone.fingerprint() == store.vocab.fingerprint()

    def test_from_lines_needs_a_colon(self):
        # `kind:` (empty id) is a label; a bare kind is not
        vocab = Vocabulary.from_lines(["0\tpatent:", "1\tinventor:x"])
        assert vocab.export_text() == "0\tpatent:\n1\tinventor:x\n"
        with pytest.raises(ParseError, match=r"vocabulary line 1: '0\\tpatent' is not <ordinal>"):
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
        clone = Vocabulary.from_lines(vocab.export_text().split("\n"))
        for kind in EntityKind:
            assert np.array_equal(clone.ordinals_of_kind(kind), vocab.ordinals_of_kind(kind))


class VocabularyOracle:
    """The vocabulary `Vocabulary` replaced: a stored EntityRef per entity, and sidecar
    labels split on ':' and rebuilt from an `EntityKind` lookup."""

    def __init__(self):
        self.refs = []
        self.ordinals = {}
        self.kinds = array("b")
        self._by_kind = {}

    def __len__(self):
        return len(self.refs)

    def add(self, kind, source_id):
        label = f"{kind.value}:{source_id}"
        ordinal = self.ordinals.get(label)
        if ordinal is None:
            if any(c in label for c in "\t\r\n"):
                raise ParseError(f"entity token {label!r} holds a tab or line break")
            ordinal = self.ordinals[label] = len(self.refs)
            self.refs.append(EntityRef(kind, source_id, ordinal))
            self.kinds.append(list(EntityKind).index(kind))
            self._by_kind.pop(kind, None)
        return self.refs[ordinal]

    def ordinals_of_kind(self, kind):
        ordinals = self._by_kind.get(kind)
        if ordinals is None:
            ordinals = np.flatnonzero(np.array(self.kinds, dtype=np.int8) == list(EntityKind).index(kind))
            ordinals.flags.writeable = False
            self._by_kind[kind] = ordinals
        return ordinals

    def export_text(self):
        return "".join(f"{ordinal}\t{label}\n" for label, ordinal in self.ordinals.items())

    @classmethod
    def from_lines(cls, lines):
        """Each non-blank line must be `export_text`'s line for the next ordinal and a new label."""
        vocab = cls()
        for number, line in enumerate(lines, 1):
            line = line.rstrip("\n")  # as an open file yields it; the message names the line without it
            if not line.strip():
                continue
            ordinal_text, _, label = line.partition("\t")
            try:
                if ordinal_text != str(len(vocab)) or label in vocab.ordinals:
                    raise ValueError(label)
                kind_text, source_id = label.split(":", 1)
                vocab.add(EntityKind(kind_text), source_id)
            except (ValueError, ParseError):
                raise ParseError(f"vocabulary line {number}: {line!r} is not <ordinal>\\t<kind>:<id> "
                                 f"with ordinal {len(vocab)} and a new label") from None
        return vocab

    def fingerprint(self):
        return hashlib.sha256(self.export_text().encode()).hexdigest()


# labels of every kind, with empty, colon-bearing and non-ASCII ids
VOCAB_IDS = st.sampled_from(["", "1", "2", "x", "a:b", " 7", "H01L", "\u00e9"]) | st.text(max_size=3)
VOCAB_LABELS = st.tuples(st.sampled_from([k.value for k in EntityKind]), VOCAB_IDS).map(":".join)
# blank, unnumbered, mis-numbered and malformed lines
ODD_LINES = st.one_of(
    st.sampled_from(["", "  ", "x\tpatent:1", "no-tab-here", "+0\tpatent:0", "9\tpatent:9", "0\tpatent",
                     "0\tbogus:1", "0\tPatent:1", "0\t:", "0\t", "0\tgroup\t:x"]),
    st.text(max_size=8),
)


@st.composite
def vocab_inputs(draw):
    """Sidecar lines (contiguous, plus up to two odd lines anywhere) or None for an empty
    vocabulary, then a sequence of adds and reads (None)."""
    lines = None
    if draw(st.booleans()):
        lines = [f"{i}\t{label}" for i, label in enumerate(draw(st.lists(VOCAB_LABELS, max_size=10)))]
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(ODD_LINES))
    ops = draw(st.lists(st.none() | st.tuples(st.sampled_from(list(EntityKind)), VOCAB_IDS), max_size=8))
    return lines, ops


def vocab_run(cls, lines, ops):
    """Everything a caller can read of the vocabulary after each add and each read, or the
    error's type and message."""
    try:
        vocab = cls() if lines is None else cls.from_lines(lines)
    except PatkgError as exc:
        return type(exc), str(exc)
    seen = []
    for op in ops + [None]:
        if op is not None:
            try:
                seen.append(vocab.add(*op))
            except PatkgError as exc:
                seen.append((type(exc), str(exc)))
            continue
        by_kind = {kind: vocab.ordinals_of_kind(kind) for kind in EntityKind}
        assert all(o.dtype == np.int64 and not o.flags.writeable for o in by_kind.values())
        seen.append((vocab.export_text(), vocab.fingerprint(), vocab.kinds.tolist(), list(vocab.refs),
                     len(vocab), {kind: o.tolist() for kind, o in by_kind.items()}))
    return seen


@given(case=vocab_inputs())
@example(case=(["0\tpatent:", "1\tinventor:x"], [(EntityKind.PATENT, ""), None, (EntityKind.GROUP, "g")]))
@example(case=(["0\tpatent:1", "1\tpatent:1"], []))
@example(case=(["0\tgroup:a:b", "1\tbogus:2"], []))
@example(case=(["0\tpatent:\r"], []))
@example(case=(None, [(EntityKind.PATENT, "\t"), None]))
def test_vocabulary_matches_stored_refs_oracle(case):
    lines, ops = case
    assert vocab_run(Vocabulary, lines, ops) == vocab_run(VocabularyOracle, lines, ops)


def test_refs_are_rebuilt_after_add():
    vocab = Vocabulary.from_lines(["0\tpatent:1", "1\tinventor:x"])
    first = [EntityRef(EntityKind.PATENT, "1", 0), EntityRef(EntityKind.INVENTOR, "x", 1)]
    assert vocab.refs == first
    late = vocab.add(EntityKind.GROUP, "H01L")
    assert late == EntityRef(EntityKind.GROUP, "H01L", 2)
    assert vocab.refs == first + [late]


def from_lines_loop(lines):
    """`Vocabulary.from_lines` as one `add_label` per line: each non-blank line must be the
    export line of the next ordinal and a new label."""
    vocab = Vocabulary()
    for number, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        ordinal_text, _, label = line.partition("\t")
        ordinal = len(vocab)
        try:
            exported = ordinal_text == str(ordinal) and label not in vocab.ordinals and vocab.add_label(label) == ordinal
        except ParseError:
            exported = False
        if not exported:
            raise ParseError(f"vocabulary line {number}: {line!r} is not <ordinal>\\t<kind>:<id> "
                             f"with ordinal {ordinal} and a new label")
    return vocab


def vocab_state(build, lines):
    """What a caller can read of a built vocabulary, or the error's type and message."""
    try:
        vocab = build(lines)
    except PatkgError as exc:
        return type(exc), str(exc)
    return (list(vocab.ordinals.items()), vocab.kinds.tolist(), vocab.export_text(), vocab.fingerprint(),
            list(vocab.refs))


# ordinals written as `int` reads them but `export_text` does not, and broken lines
ORDINAL_TEXTS = st.sampled_from(["01", " 1", "1 ", "+1", "1_0", "\u0661", "-0", "", "x", "1.0", "0x1"])
SIDECAR_LINES = st.one_of(
    ODD_LINES,
    st.tuples(ORDINAL_TEXTS | st.integers(0, 6).map(str), VOCAB_LABELS).map("\t".join),
    st.sampled_from(["\n", "\r", "0\tpatent:a\r", "0\tpatent:a\n\n", "\t", "\x0c", "\u2028"]),
)


@st.composite
def sidecar_inputs(draw):
    """Contiguous sidecar lines with up to three lines repeated, edited or inserted anywhere."""
    lines = [f"{i}\t{label}" for i, label in enumerate(draw(st.lists(VOCAB_LABELS, max_size=8)))]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        if lines and draw(st.booleans()):
            lines.insert(at, lines[draw(st.integers(0, len(lines) - 1))])  # a repeat, same or later ordinal
        else:
            lines.insert(at, draw(SIDECAR_LINES))
    if draw(st.booleans()):
        lines = [line + "\n" for line in lines]  # as an open file yields them
    return lines


@given(lines=sidecar_inputs())
@example(lines=["0\tpatent:a", "0\tpatent:a"])  # a repeat is refused, even under its first ordinal
@example(lines=["0\tpatent:a", "1\tpatent:b", "1\tpatent:b", "02\tpatent:c"])
@example(lines=["0\tpatent:a", "2\tpatent:a"])
@example(lines=["0\tpatent:a", "01\tbogus:b"])
@example(lines=["0\tpatent:a", "  ", "1\tpatent:b", "1"])
@example(lines=["\u0660\tpatent:a", "\t"])
@example(lines=[])
def test_from_lines_matches_per_line_loop(lines):
    assert vocab_state(Vocabulary.from_lines, lines) == vocab_state(from_lines_loop, lines)


LABEL_TOKENS = st.text(max_size=12) | VOCAB_LABELS | st.sampled_from(
    ["patent", "patent:", ":x", "Patent:x", "patent:a\tb", "group:\r", "patent:a\n", "x\tpatent:a"])


def parse_label_code(label):
    try:
        return parse_label(label)[0]
    except ParseError:
        return None


@given(labels=st.lists(LABEL_TOKENS, max_size=6))
@example(labels=["patent:a", "patent:b\r", "inventor:c"])  # one label breaks the rule; the join holds its `\r`
@example(labels=["patent:a\t", "inventor:"])
@example(labels=["patent:\ud83d", "patent:\ude00", "group:x"])  # lone surrogates; the join pairs none of them
def test_label_kinds_follow_parse_label(labels):
    assert label_kinds(labels) == [parse_label_code(label) for label in labels]
    assert label_kinds(iter(labels)) == label_kinds(labels)


@pytest.mark.parametrize("label", ["patent:a\tb", "patent:\r", "patent:a\nb", "inventor:\r\n"])
def test_parse_label_refuses_tabs_and_line_breaks(label):
    with pytest.raises(ParseError, match=f"^line 3: entity token {re.escape(repr(label))} holds a tab or line break$"):
        parse_label(label, "line 3: ")
    assert label_kinds(["patent:a", label, "patent:b"]) == [0, None, 0]


@pytest.mark.parametrize("label", ["patent:\ud800", "inventor:a\udfffb", "group:\udc80"])
def test_labels_no_utf8_file_can_hold_are_refused(label):
    # a lone surrogate would make `write_triples_file` and `save_archive` raise UnicodeEncodeError
    vocab = Vocabulary()
    assert vocab.add_labels(["patent:a", label]) is False
    assert len(vocab) == 0
    with pytest.raises(ParseError, match=f"^entity token {re.escape(repr(label))} holds a lone surrogate$"):
        vocab.add_label(label)
    assert label_kinds(["patent:a", label]) == [0, None]


def test_ref_builds_one_entity_ref():
    store = generate_synthetic(2, 4, 2, 2, 0.2, 0.01, seed=2)
    vocab = store.vocab
    refs = [vocab.ref(o) for o in range(len(vocab))]
    assert "refs" not in vocab._derived  # no snapshot of every entity behind a lookup
    assert refs == vocab.refs
    ref = vocab.ref(np.int64(3))
    assert type(ref.ordinal) is int and ref == vocab.refs[3]
    for ordinal in (-1, len(vocab), 10**9):
        with pytest.raises(UnknownEntity):
            vocab.ref(ordinal)
    late = vocab.add(EntityKind.PATENT, "late")
    assert vocab.ref(late.ordinal) == late


class TestSplit:
    def test_sizes(self):
        store = generate_synthetic(2, 25, 5, 2, 0.1, 0.01, seed=1)
        n = len(store)
        train, test = split(store, SplitSpec(0.10, seed=4))
        assert [c.dtype for c in test] == [np.int64] * 3
        assert [len(c) for c in test] == [round(0.10 * n)] * 3
        assert len(train) + len(test[0]) == n

    def test_partition(self):
        store = generate_synthetic(2, 25, 5, 2, 0.1, 0.01, seed=1)
        for seed in (0, 1, 2):
            train, test = split(store, SplitSpec(0.25, seed=seed))
            assert set(train.triples) | set(triples_of(test)) == set(store.triples)
            assert not set(train.triples) & set(triples_of(test))

    def test_deterministic(self):
        store = generate_synthetic(2, 25, 5, 2, 0.1, 0.01, seed=1)
        _, test1 = split(store, SplitSpec(0.10, seed=9))
        _, test2 = split(store, SplitSpec(0.10, seed=9))
        assert [c.tolist() for c in test1] == [c.tolist() for c in test2]

    def test_insertion_order_does_not_matter(self):
        store = micro_store()
        reordered = TripleStore(store.vocab)
        for t in reversed(store.triples):
            reordered.add_triple(t)
        _, test1 = split(store, SplitSpec(0.3, seed=5))
        _, test2 = split(reordered, SplitSpec(0.3, seed=5))
        assert [c.tolist() for c in test1] == [c.tolist() for c in test2]

    def test_pinned_regression(self):
        # 20-triple store, fraction 0.10, seed 5: recorded once, pinned.
        store = generate_synthetic(1, 5, 2, 1, 1.0, 0.0, seed=2)
        assert len(store) == 41
        sub = TripleStore(store.vocab)
        for t in store.triples[:20]:
            sub.add_triple(t)
        _, test = split(sub, SplitSpec(0.10, seed=5))
        assert triples_of(test) == [Triple(8, RelationKind.WRITE, 6), Triple(1, RelationKind.CONTAIN, 6)]

    def test_empty_store(self):
        with pytest.raises(EmptyStore):
            split(TripleStore(), SplitSpec(0.10, seed=0))

    def test_bad_fraction(self):
        with pytest.raises(InvalidConfig):
            SplitSpec(1.5, seed=0)

    def test_negative_seed(self):
        # np.random.default_rng rejects it with a ValueError at split time
        with pytest.raises(InvalidConfig, match="split seed must be >= 0, got -1"):
            SplitSpec(0.10, seed=-1)


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

    def test_seed_domain_is_that_of_default_rng(self):
        store = generate_synthetic(2, 10, 3, 2, 0.2, 0.01, seed=5)
        t = next(t for t in store.triples if t.relation is RelationKind.CITE)
        pool = corruption_candidates(store, t, Side.TAIL, CandidatePool.SAME_KIND, False)
        for seed in (-1, -2**63, 2**64, 2**70):
            with pytest.raises(InvalidConfig, match=r"outside \[0, 2\*\*64\)"):
                sample_corrupt(store, t, 4, Side.TAIL, rng_seed=seed)
        for seed in (0, 2**63, 2**64 - 1):
            want = np.random.default_rng(seed).choice(pool, size=4, replace=False)
            assert sample_corrupt(store, t, 4, Side.TAIL, rng_seed=seed).tolist() == want.tolist()
            given = np.random.default_rng(seed)
            assert sample_corrupt(store, t, 4, Side.TAIL, rng_seed=-1, rng=given).tolist() == want.tolist()


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


def synthetic_full_matrix_oracle(communities, patents_per_community, inventors_per_community,
                                 assignees_per_community, intra_cite_prob, inter_cite_prob, seed=0):
    """`generate_synthetic` as it drew citations before row blocks: one n_pat x n_pat draw."""
    rng = np.random.default_rng(seed)
    store = TripleStore()
    add = store.vocab.add_label
    n_sub = -(-communities // 4)
    sub_codes = [f"{chr(65 + j % 26)}{j // 26:02d}" for j in range(n_sub)]
    subsections = [add(f"subsection:{code}") for code in sub_codes]
    groups = [add(f"group:{sub_codes[c % n_sub]}{chr(65 + c // n_sub)}") for c in range(communities)]
    patents, inventors, assignees = [], [], []
    for c in range(communities):
        patents.append([add(f"patent:p{c:03d}_{i:05d}") for i in range(patents_per_community)])
        inventors.append([add(f"inventor:i{c:03d}_{i:04d}") for i in range(inventors_per_community)])
        assignees.append([add(f"assignee:a{c:03d}_{i:03d}") for i in range(assignees_per_community)])
    code = RELATION_INDEX
    rows = [(subsections[c % n_sub], code[RelationKind.COMPRISE], g) for c, g in enumerate(groups)]
    for c in range(communities):
        n_inv = inventors_per_community
        inv_pick = rng.integers(0, n_inv, size=patents_per_community)
        inv_pick2 = (inv_pick + rng.integers(1, n_inv, size=patents_per_community)) % n_inv if n_inv > 1 else None
        own_pick = rng.integers(0, assignees_per_community, size=patents_per_community)
        for i, patent in enumerate(patents[c]):
            rows.append((groups[c], code[RelationKind.CONTAIN], patent))
            rows.append((inventors[c][int(inv_pick[i])], code[RelationKind.WRITE], patent))
            if inv_pick2 is not None:
                rows.append((inventors[c][int(inv_pick2[i])], code[RelationKind.WRITE], patent))
            rows.append((assignees[c][int(own_pick[i])], code[RelationKind.OWN], patent))
    ordinals = np.array(patents, dtype=np.int64).ravel()
    community_of = np.repeat(np.arange(communities), patents_per_community)
    n_pat = len(ordinals)
    draws = rng.random((n_pat, n_pat))
    prob = np.where(community_of[:, None] == community_of[None, :], intra_cite_prob, inter_cite_prob)
    np.fill_diagonal(prob, 0.0)
    i, j = np.nonzero(draws < prob)
    cites = np.stack([ordinals[i], np.full(len(i), code[RelationKind.CITE]), ordinals[j]], axis=1)
    store.add_triples(*np.concatenate([np.array(rows, dtype=np.int64), cites]).T)
    return store


ACCEPT_ARGS = (5, 330, 60, 12, 0.023, 0.0004)  # 1,650 patents: the last 256-row block is partial


@given(counts=st.tuples(st.integers(1, 4), st.integers(1, 90), st.integers(1, 4), st.integers(1, 3)),
       probs=st.sampled_from([(0.0, 0.0), (0.1, 0.0), (0.3, 0.05), (1.0, 0.001), (0.05, 0.01)]),
       seed=st.integers(0, 2**32))
@example(counts=ACCEPT_ARGS[:4], probs=ACCEPT_ARGS[4:], seed=7)
@example(counts=(1, 1, 1, 1), probs=(0.0, 0.0), seed=0)
def test_synthetic_row_blocks_match_full_matrix_oracle(counts, probs, seed):
    store = generate_synthetic(*counts, *probs, seed=seed)
    oracle = synthetic_full_matrix_oracle(*counts, *probs, seed=seed)
    assert store.vocab.export_text() == oracle.vocab.export_text()
    for column, want in zip(store.triple_arrays(), oracle.triple_arrays()):
        assert np.array_equal(column, want)
