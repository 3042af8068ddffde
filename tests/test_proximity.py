"""Cosine proximity, kind transformations, neighbors and pairwise matrices."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from patkg.errors import InvalidConfig, PatkgError, UnknownOrdinal, UnsupportedModel, ZeroVector
from patkg.expansion import group_proximity_matrix
from patkg.graph import EntityKind, EntityRef, RelationKind, TripleStore
from patkg.models import ModelKind, _rows, init_params
from patkg.proximity import (
    _TO_PATENT,
    TransformMode,
    _unit_rows,
    knowledge_proximity,
    nearest_neighbors,
    pairwise_matrix,
    transform_rule,
)

E = EntityKind
R = RelationKind


def build_vocab():
    store = TripleStore()
    refs = {
        "pat": store.add_entity(E.PATENT, "p1"),
        "pat2": store.add_entity(E.PATENT, "p2"),
        "inv": store.add_entity(E.INVENTOR, "i1"),
        "asg": store.add_entity(E.ASSIGNEE, "a1"),
        "grp": store.add_entity(E.GROUP, "H04L"),
        "sub": store.add_entity(E.SUBSECTION, "H04"),
    }
    return store.vocab, refs


def vec_params(dim=2):
    vocab, refs = build_vocab()
    params = init_params(ModelKind.TRANSE_L2, len(vocab), dim, 0, vocab.fingerprint())
    return params, vocab, refs


def oracle_cosine(u, v):
    """The `dot / (|u| |v|)` cosine the proximity routes computed before they shared one product."""
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine undefined for zero-norm vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def planted(u, v):
    """A model of two patents whose rows are `u` and `v`, and their refs."""
    store = TripleStore()
    refs = [store.add_entity(E.PATENT, "p1"), store.add_entity(E.PATENT, "p2")]
    params = init_params(ModelKind.TRANSE_L2, 2, len(u), 0, store.vocab.fingerprint())
    params.entities[:] = [u, v]
    return params, store.vocab, refs


def planted_proximity(u, v):
    params, _, (a, b) = planted(u, v)
    return knowledge_proximity(params, a, b)


class TestCosine:
    def test_identical(self):
        params, vocab, (a, _) = planted([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert knowledge_proximity(params, a, a) == 1.0
        assert pairwise_matrix(params, vocab, [a, a], E.PATENT).tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_orthogonal(self):
        assert planted_proximity([1.0, 0.0], [0.0, 2.0]) == 0.0

    def test_opposite(self):
        assert planted_proximity([1.0, 0.0], [-1.0, 0.0]) == -1.0

    def test_zero_vector(self):
        params, vocab, (a, b) = planted(np.zeros(3), np.ones(3))
        for call in (lambda: knowledge_proximity(params, a, b), lambda: knowledge_proximity(params, b, a),
                     lambda: knowledge_proximity(params, a, a), lambda: nearest_neighbors(params, vocab, b, 1),
                     lambda: pairwise_matrix(params, vocab, [b, a], E.PATENT)):
            with pytest.raises(ZeroVector):
                call()

    @pytest.mark.parametrize("scale", [1e-170, 1e200], ids=["tiny", "huge"])
    def test_rows_whose_plain_sum_of_squares_under_or_overflows(self, scale):
        # the squares of these rows sum to 0 or to inf in float64; every route still reads 1/sqrt(2)
        store = TripleStore()
        a, b = store.add_entity(E.GROUP, "A01A"), store.add_entity(E.GROUP, "B01B")
        params = init_params(ModelKind.TRANSE_L2, 2, 2, 0, store.vocab.fingerprint())
        params.entities[:] = [[scale, 0.0], [scale, scale]]
        values = [knowledge_proximity(params, a, b), knowledge_proximity(params, b, a),
                  nearest_neighbors(params, store.vocab, a, 1)[0].proximity,
                  nearest_neighbors(params, store.vocab, b, 1)[0].proximity,
                  *pairwise_matrix(params, store.vocab, [a, b], E.GROUP)[[0, 1], [1, 0]],
                  *group_proximity_matrix(params, store.vocab, ["A01A", "B01B"])[[0, 1], [1, 0]]]
        assert values == [0.7071067811865475] * 8

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            u, v = rng.normal(size=(2, 5))
            a, b = rng.uniform(0.01, 100.0, size=2)
            assert abs(planted_proximity(a * u, b * v) - planted_proximity(u, v)) < 1e-12
            assert abs(planted_proximity(u, v) - oracle_cosine(u, v)) < 1e-12

    def test_clamped_range(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            u, v = rng.normal(size=(2, 4))
            assert -1.0 <= planted_proximity(u, v) <= 1.0


class TestTransformRules:
    def test_same_kind_empty(self):
        for mode in TransformMode:
            for kind in E:
                assert transform_rule(kind, kind, mode) == ()

    def test_table_total_over_25_pairs(self):
        for mode in TransformMode:
            pairs = {(f, t) for f in E for t in E}
            assert all(transform_rule(f, t, mode) is not None for f, t in pairs)

    def test_algebra_single_hop(self):
        rule = transform_rule(E.PATENT, E.INVENTOR, TransformMode.TRANSLATION_ALGEBRA)
        assert rule == ((R.WRITE, +1),)
        rule = transform_rule(E.INVENTOR, E.PATENT, TransformMode.TRANSLATION_ALGEBRA)
        assert rule == ((R.WRITE, -1),)

    def test_algebra_multi_hop(self):
        rule = transform_rule(E.INVENTOR, E.ASSIGNEE, TransformMode.TRANSLATION_ALGEBRA)
        assert rule == ((R.OWN, +1), (R.WRITE, -1))
        rule = transform_rule(E.PATENT, E.SUBSECTION, TransformMode.TRANSLATION_ALGEBRA)
        assert rule == ((R.COMPRISE, +1), (R.CONTAIN, +1))

    def test_literal_is_sign_flipped(self):
        for f in E:
            for t in E:
                algebra = transform_rule(f, t, TransformMode.TRANSLATION_ALGEBRA)
                lit = transform_rule(f, t, TransformMode.GUIDE_LITERAL)
                assert lit == tuple((rel, -s) for rel, s in algebra)

    def test_literal_published_guide_rows(self):
        # focal patent <- inventor: emb(target) - emb(write)
        assert transform_rule(E.PATENT, E.INVENTOR, TransformMode.GUIDE_LITERAL) == (
            (R.WRITE, -1),
        )
        # focal subsection <- patent: emb(target) + emb(comprise) + emb(contain)
        steps = transform_rule(E.SUBSECTION, E.PATENT, TransformMode.GUIDE_LITERAL)
        assert set(steps) == {(R.CONTAIN, +1), (R.COMPRISE, +1)}

    def test_algebra_composition(self):
        # subsection <- patent equals (group <- patent) then (subsection <- group)
        direct = transform_rule(E.SUBSECTION, E.PATENT, TransformMode.TRANSLATION_ALGEBRA)
        hop1 = transform_rule(E.GROUP, E.PATENT, TransformMode.TRANSLATION_ALGEBRA)
        hop2 = transform_rule(E.SUBSECTION, E.GROUP, TransformMode.TRANSLATION_ALGEBRA)

        def net(steps):
            out = {}
            for rel, s in steps:
                out[rel] = out.get(rel, 0) + s
            return {k: v for k, v in out.items() if v}

        assert net(direct) == net(hop1 + hop2)


def unit_of(row):
    row = np.asarray(row, dtype=np.float64)
    return row / np.sqrt(np.multiply(row, row).sum())


class TestTransform:
    def test_same_kind_unchanged(self):
        params, vocab, refs = vec_params()
        for mode in TransformMode:
            out = _unit_rows(params, [(E.PATENT, [refs["pat"].ordinal])], E.PATENT, mode)
            np.testing.assert_array_equal(out, [unit_of(params.entities[refs["pat"].ordinal])])

    def test_algebra_worked_example(self):
        params, vocab, refs = vec_params()
        params.entities[refs["inv"].ordinal] = [1.0, 0.0]
        params.relations[R.WRITE]["vec"][:] = [0.0, 1.0]
        out = _unit_rows(params, [(E.INVENTOR, [refs["inv"].ordinal])], E.PATENT, TransformMode.TRANSLATION_ALGEBRA)
        np.testing.assert_array_equal(out, [unit_of([1.0, 1.0])])
        params.entities[refs["pat"].ordinal] = [0.0, 3.0]
        assert knowledge_proximity(params, refs["pat"], refs["inv"], TransformMode.TRANSLATION_ALGEBRA) == 1.0 / np.sqrt(2.0)

    def test_guide_literal_worked_example(self):
        params, vocab, refs = vec_params()
        params.entities[refs["inv"].ordinal] = [1.0, 0.0]
        params.relations[R.WRITE]["vec"][:] = [0.0, 1.0]
        out = _unit_rows(params, [(E.INVENTOR, [refs["inv"].ordinal])], E.PATENT, TransformMode.GUIDE_LITERAL)
        np.testing.assert_array_equal(out, [unit_of([1.0, -1.0])])
        params.entities[refs["pat"].ordinal] = [0.0, 3.0]
        assert knowledge_proximity(params, refs["pat"], refs["inv"], TransformMode.GUIDE_LITERAL) == -1.0 / np.sqrt(2.0)

    @pytest.mark.parametrize("kind", [ModelKind.TRANSR, ModelKind.RESCAL,
                                      ModelKind.COMPLEX, ModelKind.ROTATE])
    def test_cross_kind_rejected_for_matrix_and_complex_models(self, kind):
        vocab, refs = build_vocab()
        params = init_params(kind, len(vocab), 4, 0, vocab.fingerprint())
        for focal, target in ((refs["pat"], refs["inv"]), (refs["inv"], refs["pat"])):
            with pytest.raises(UnsupportedModel):
                knowledge_proximity(params, focal, target)

    @pytest.mark.parametrize("kind", [ModelKind.TRANSR, ModelKind.RESCAL,
                                      ModelKind.COMPLEX, ModelKind.ROTATE])
    def test_same_kind_proximity_still_allowed(self, kind):
        vocab, refs = build_vocab()
        params = init_params(kind, len(vocab), 4, 0, vocab.fingerprint())
        value = knowledge_proximity(params, refs["pat"], refs["pat2"])
        assert -1.0 <= value <= 1.0


class TestKnowledgeProximity:
    def test_self_proximity_one(self):
        params, vocab, refs = vec_params()
        assert knowledge_proximity(params, refs["pat"], refs["pat"]) == 1.0

    def test_same_kind_is_plain_cosine_and_symmetric(self):
        params, vocab, refs = vec_params()
        a, b = refs["pat"], refs["pat2"]
        ab = knowledge_proximity(params, a, b)
        ba = knowledge_proximity(params, b, a)
        assert ab == ba
        assert abs(ab - oracle_cosine(params.entities[a.ordinal], params.entities[b.ordinal])) < 1e-12

    def test_cross_kind_asymmetry_witness(self):
        params, vocab, refs = vec_params(dim=4)
        ab = knowledge_proximity(params, refs["inv"], refs["pat"])
        ba = knowledge_proximity(params, refs["pat"], refs["inv"])
        assert abs(ab - ba) > 1e-6


class TestNearestNeighbors:
    def test_k_larger_than_population(self):
        params, vocab, refs = vec_params()
        hits = nearest_neighbors(params, vocab, refs["pat"], k=100)
        assert len(hits) == len(vocab) - 1

    def test_kind_filter(self):
        params, vocab, refs = vec_params()
        hits = nearest_neighbors(params, vocab, refs["inv"], k=3, kind_filter={E.PATENT})
        assert all(h.entity.kind is E.PATENT for h in hits)

    def test_sorted_descending_focal_excluded(self):
        params, vocab, refs = vec_params(dim=6)
        hits = nearest_neighbors(params, vocab, refs["pat"], k=5)
        values = [h.proximity for h in hits]
        assert values == sorted(values, reverse=True)
        assert all(h.entity.ordinal != refs["pat"].ordinal for h in hits)

    def test_tie_broken_by_ordinal(self):
        vocab, refs = build_vocab()
        params = init_params(ModelKind.TRANSE_L2, len(vocab), 2, 0, vocab.fingerprint())
        params.entities[:] = np.array([[1.0, 0.0]] * len(vocab))
        hits = nearest_neighbors(params, vocab, refs["pat"], k=3, kind_filter={E.PATENT, E.INVENTOR})
        assert [h.entity.ordinal for h in hits[:2]] == [1, 2]

    def test_matches_scalar_proximity(self):
        params, vocab, refs = vec_params(dim=5)
        hits = nearest_neighbors(params, vocab, refs["inv"], k=4)
        for h in hits:
            assert h.proximity == knowledge_proximity(params, refs["inv"], h.entity)

    def test_hits_carry_their_own_refs(self):
        params, vocab, refs = vec_params(dim=5)
        hits = nearest_neighbors(params, vocab, refs["inv"], k=3)
        assert "refs" not in vocab._derived  # only the hits' EntityRefs are built
        assert [h.entity for h in hits] == [vocab.refs[h.entity.ordinal] for h in hits]
        assert all(type(h.entity.ordinal) is int for h in hits)


class TestPairwiseMatrix:
    def test_single_entity(self):
        params, vocab, refs = vec_params()
        m = pairwise_matrix(params, vocab, [refs["pat"]], E.PATENT)
        assert m.shape == (1, 1) and m[0, 0] == 1.0

    def test_identical_entities_all_ones(self):
        params, vocab, refs = vec_params()
        m = pairwise_matrix(params, vocab, [refs["pat"], refs["pat"]], E.PATENT)
        np.testing.assert_array_equal(m, 1.0)

    def test_mixed_kinds_symmetric_unit_diagonal(self):
        params, vocab, refs = vec_params(dim=6)
        entities = [refs["pat"], refs["inv"], refs["asg"], refs["grp"], refs["sub"]]
        m = pairwise_matrix(params, vocab, entities, E.PATENT)
        assert np.isfinite(m).all()
        np.testing.assert_array_equal(m, m.T)
        np.testing.assert_array_equal(np.diag(m), 1.0)
        assert np.all(m >= -1.0) and np.all(m <= 1.0)


# The precomputed rule table and the two-copy transform that `_moved` replaced, kept as the oracle.
def oracle_rule_table(mode):
    table = {}
    for focal in E:
        from_patent = tuple((rel, -sign) for rel, sign in reversed(_TO_PATENT[focal]))
        for target in E:
            if focal is target:
                steps = ()
            else:
                steps = _TO_PATENT[target] + from_patent
            if mode is TransformMode.GUIDE_LITERAL:
                steps = tuple((rel, -sign) for rel, sign in steps)
            table[(focal, target)] = steps
    return table


ORACLE_RULES = {mode: oracle_rule_table(mode) for mode in TransformMode}


def oracle_relation_offset(params, steps):
    if steps and not params.spec.vector_relations:
        raise UnsupportedModel(
            f"{params.kind.value} relations cannot be added as vectors; "
            "cross-kind transformation is undefined"
        )
    offset = np.zeros(params.row_dim)
    for rel, sign in steps:
        offset += sign * params.relations[rel]["vec"]
    return offset


def oracle_row(params, ordinal):
    return _rows(params, [ordinal])[0]


def oracle_transform(params, vocab, target, focal_kind, mode):
    rule = ORACLE_RULES[mode][(focal_kind, target.kind)]
    row = oracle_row(params, target.ordinal)
    if not rule:
        return row.copy()
    return row + oracle_relation_offset(params, rule)


def oracle_knowledge_proximity(params, vocab, focal, target, mode):
    return oracle_cosine(oracle_row(params, focal.ordinal), oracle_transform(params, vocab, target, focal.kind, mode))


def oracle_nearest_neighbors(params, vocab, focal, k, kind_filter, mode):
    """(ordinals, proximities) of the top k, from one GEMV per kind."""
    if k < 1:
        raise InvalidConfig("k must be >= 1")
    focal_row = oracle_row(params, focal.ordinal)
    focal_norm = np.linalg.norm(focal_row)
    if focal_norm == 0.0:
        raise ZeroVector("focal embedding has zero norm")
    ordinals, proximities = [], []
    for kind in sorted(kind_filter or set(E), key=lambda e: e.value):
        members = vocab.ordinals_of_kind(kind)
        members = members[members != focal.ordinal]
        if members.size == 0:
            continue
        rows = params.entities[members]
        rule = ORACLE_RULES[mode][(focal.kind, kind)]
        if rule:
            rows = rows + oracle_relation_offset(params, rule)
        norms = np.linalg.norm(rows, axis=1)
        if np.any(norms == 0.0):
            raise ZeroVector("transformed embedding has zero norm")
        proximities.append(np.clip(rows @ focal_row / (norms * focal_norm), -1.0, 1.0))
        ordinals.append(members)
    if not ordinals:
        return np.array([], dtype=np.int64), np.array([])
    all_ordinals = np.concatenate(ordinals)
    all_prox = np.concatenate(proximities)
    order = np.lexsort((all_ordinals, -all_prox))[:k]
    return all_ordinals[order], all_prox[order]


def oracle_pairwise_matrix(params, vocab, entities, common_kind, mode):
    """A GEMM of unit rows, symmetrized, with a unit diagonal."""
    rows = np.stack([oracle_transform(params, vocab, e, common_kind, mode) for e in entities])
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ZeroVector("transformed embedding has zero norm")
    unit = rows / norms
    matrix = np.clip(unit @ unit.T, -1.0, 1.0)
    matrix = (matrix + matrix.T) / 2.0
    np.fill_diagonal(matrix, 1.0)
    return matrix


def outcome(call, *args):
    """`call(*args)`, or the type of the PatkgError it raised."""
    try:
        return call(*args)
    except PatkgError as exc:
        return type(exc)


def test_rules_match_table_oracle():
    keys = [(mode, f, t) for mode in TransformMode for f in E for t in E]
    assert len(keys) == 50
    for mode, f, t in keys:
        assert transform_rule(f, t, mode) == ORACLE_RULES[mode][(f, t)]


@st.composite
def moved_cases(draw):
    """A model of any kind over a vocabulary holding 0-3 entities of each kind (at least one
    of the focal kind), a focal entity, a common kind, a mode and a kind filter."""
    focal_kind = draw(st.sampled_from(list(E)))
    store = TripleStore()
    for kind in E:
        for i in range(draw(st.integers(int(kind is focal_kind), 3))):
            store.add_entity(kind, f"{kind.value[0]}{i}")
    vocab = store.vocab
    params = init_params(draw(st.sampled_from(list(ModelKind))), len(vocab), draw(st.integers(1, 6)),
                         draw(st.integers(0, 2**16)), vocab.fingerprint())
    focal = draw(st.sampled_from([r for r in vocab.refs if r.kind is focal_kind]))
    kind_filter = draw(st.none() | st.sets(st.sampled_from(list(E))))
    # any order, with repeats, and maybe an ordinal outside the table
    entities = draw(st.lists(st.sampled_from(list(vocab.refs) + [ghost(vocab)]), min_size=1, max_size=12))
    return (params, vocab, focal, draw(st.sampled_from(list(E))), draw(st.sampled_from(list(TransformMode))),
            kind_filter, draw(st.integers(1, 16)), entities)


def ghost(vocab):
    return EntityRef(E.INVENTOR, "ghost", len(vocab))


@given(case=moved_cases())
def test_moved_rows_match_oracle(case):
    """Every route raises what the old routes raised and agrees with them within 1e-12; the
    neighbors are the top k of the new values, whose order may differ from the old one only
    among values within 1e-12 of each other."""
    params, vocab, focal, common_kind, mode, kind_filter, k, entities = case
    # an ordinal outside the table fails on the row read before any model check
    for target in list(vocab.refs) + [ghost(vocab)]:
        got = outcome(knowledge_proximity, params, focal, target, mode)
        want = outcome(oracle_knowledge_proximity, params, vocab, focal, target, mode)
        assert got == want if isinstance(want, type) else abs(got - want) < 1e-12
    hits = outcome(nearest_neighbors, params, vocab, focal, k, kind_filter, mode)
    ranked = outcome(oracle_nearest_neighbors, params, vocab, focal, len(vocab), kind_filter, mode)
    if isinstance(ranked, type):
        assert hits == ranked
    else:
        old = dict(zip(ranked[0].tolist(), ranked[1].tolist()))
        assert len(hits) == min(k, len(old))
        assert all(abs(h.proximity - old[h.entity.ordinal]) < 1e-12 for h in hits)
        rest = [value for ordinal, value in old.items() if ordinal not in {h.entity.ordinal for h in hits}]
        assert all(value <= hits[-1].proximity + 2e-12 for value in rest)
    expected = outcome(oracle_pairwise_matrix, params, vocab, entities, common_kind, mode)
    if ghost(vocab) in entities:  # every row is read before any is moved, so the ghost wins wherever it is
        expected = UnknownOrdinal
    got = outcome(pairwise_matrix, params, vocab, entities, common_kind, mode)
    if isinstance(expected, type):
        assert got == expected
    else:
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


def test_pairwise_matrix_reads_every_row_before_moving_any():
    # a cross-kind entity on a matrix-relation model, then an ordinal outside the table: one
    # transform per entity refused the model first; one row read refuses the ordinal
    vocab, refs = build_vocab()
    params = init_params(ModelKind.RESCAL, len(vocab), 2, 0, vocab.fingerprint())
    entities = [refs["inv"], ghost(vocab)]
    mode = TransformMode.TRANSLATION_ALGEBRA
    assert outcome(oracle_pairwise_matrix, params, vocab, entities, E.PATENT, mode) is UnsupportedModel
    assert outcome(pairwise_matrix, params, vocab, entities, E.PATENT, mode) is UnknownOrdinal


@st.composite
def routed_pairs(draw):
    """A model with normal-drawn rows over 1-3 entities of each kind (at least two groups), a
    focal entity, a mode, and the targets every route can reach from it: every entity on a
    model whose relations are vectors, the focal's own kind on any other."""
    kind = draw(st.sampled_from(list(ModelKind)))
    store = TripleStore()
    for entity_kind in E:
        for i in range(draw(st.integers(2 if entity_kind is E.GROUP else 1, 3))):
            store.add_entity(entity_kind, f"{entity_kind.value[0]}{i}")
    vocab = store.vocab
    params = init_params(kind, len(vocab), draw(st.integers(1, 40)), 0, vocab.fingerprint())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params.entities[:] = rng.normal(size=params.entities.shape) * rng.uniform(0.1, 10.0, size=(len(vocab), 1))
    for blocks in params.relations.values():
        for block in blocks.values():
            block[...] = rng.normal(size=block.shape)
    focal = draw(st.sampled_from(vocab.refs))
    targets = [t for t in vocab.refs if params.spec.vector_relations or t.kind is focal.kind]
    return params, vocab, focal, draw(st.sampled_from(list(TransformMode))), targets


def odd_dim_case():
    """Cross-kind pairs on a dim-7 TransE_L2 model, every kind present."""
    vocab, _ = build_vocab()
    params = init_params(ModelKind.TRANSE_L2, len(vocab), 7, 3, vocab.fingerprint())
    return params, vocab, vocab.refs[0], TransformMode.TRANSLATION_ALGEBRA, vocab.refs


@given(case=routed_pairs())
@example(case=odd_dim_case())
def test_every_route_gives_one_value_per_pair(case):
    params, vocab, focal, mode, targets = case
    kinds = {t.kind for t in targets}
    hits = {h.entity.ordinal: h.proximity for h in nearest_neighbors(params, vocab, focal, len(vocab), kinds, mode)}
    matrix = pairwise_matrix(params, vocab, [focal] + targets, focal.kind, mode)
    codes = [r.source_id for r in vocab.refs if r.kind is E.GROUP]
    raw = group_proximity_matrix(params, vocab, codes, floor_negative=False)
    floored = group_proximity_matrix(params, vocab, codes)
    for m in (matrix, raw, floored):
        np.testing.assert_array_equal(m, m.T)
        np.testing.assert_array_equal(np.diag(m), 1.0)
    assert set(hits) == {t.ordinal for t in targets} - {focal.ordinal}
    for j, target in enumerate(targets, start=1):
        value = knowledge_proximity(params, focal, target, mode)
        bits = np.float64(value).tobytes()
        assert matrix[0, j].tobytes() == bits
        if target.ordinal == focal.ordinal:
            assert value == 1.0
        else:
            assert np.float64(hits[target.ordinal]).tobytes() == bits
            assert abs(value - oracle_knowledge_proximity(params, vocab, focal, target, mode)) < 1e-12
    groups = [vocab.refs[vocab.ordinal_of(E.GROUP, code)] for code in codes]
    for i, a in enumerate(groups):
        for j, b in enumerate(groups):
            value = knowledge_proximity(params, a, b, mode)
            assert raw[i, j].tobytes() == np.float64(value).tobytes()
            assert floored[i, j] == max(value, 0.0)
