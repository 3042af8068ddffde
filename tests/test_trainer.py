"""Training loop contracts: losses, determinism, normalization, checkpoints."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from patkg.errors import EmptyStore, FingerprintMismatch, InvalidConfig, ArchiveError, NumericalDivergence
from patkg.graph import RELATIONS, TripleStore, generate_synthetic
from patkg.models import ModelKind, init_params, scores, weighted_gradients
from patkg.trainer import (
    LossKind,
    TrainConfig,
    _draw_replacements,
    _kind_pools,
    _log_sigmoid,
    _scatter_rows,
    _sgd_batch,
    _sigmoid,
    checkpoint,
    default_config,
    restore,
    train,
)


@pytest.fixture(scope="module")
def small_store():
    return generate_synthetic(2, 20, 5, 2, 0.2, 0.02, seed=3)


def small_config(**kw):
    base = dict(epochs=3, batch_size=64, negatives_per_positive=2,
                learning_rate=0.5, margin=1.0, loss=LossKind.MARGIN_RANK,
                normalize_entities=True, seed=5, dim=8)
    base.update(kw)
    return TrainConfig(**base)


# (learning_rate, loss, margin, l2_coefficient, normalize_entities) per model
DEFAULTS = {
    ModelKind.TRANSE_L1: (0.5, LossKind.MARGIN_RANK, 1.0, 0.0, True),
    ModelKind.TRANSE_L2: (2.0, LossKind.MARGIN_RANK, 1.0, 0.0, True),
    ModelKind.TRANSR: (0.5, LossKind.MARGIN_RANK, 1.0, 0.0, False),
    ModelKind.ROTATE: (1.0, LossKind.MARGIN_RANK, 1.0, 0.0, False),
    ModelKind.RESCAL: (2.0, LossKind.LOGISTIC, 1.0, 1e-5, False),
    ModelKind.DISTMULT: (8.0, LossKind.LOGISTIC, 1.0, 1e-5, False),
    ModelKind.COMPLEX: (8.0, LossKind.LOGISTIC, 1.0, 1e-5, False),
}


class TestDefaultConfig:
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_full_defaults(self, kind):
        lr, loss, margin, l2, normalize = DEFAULTS[kind]
        assert default_config(kind) == TrainConfig(
            learning_rate=lr, loss=loss, margin=margin, l2_coefficient=l2,
            normalize_entities=normalize,
        )

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_dim_default_500(self, kind):
        assert default_config(kind).dim == 500


class TestTrain:
    def test_zero_learning_rate_is_fixpoint(self, small_store):
        cfg = small_config(learning_rate=0.0, epochs=2)
        params, _ = train(small_store, ModelKind.TRANSE_L2, cfg)
        fresh = init_params(
            ModelKind.TRANSE_L2, len(small_store.vocab), cfg.dim, cfg.seed,
            small_store.vocab.fingerprint(),
        )
        assert np.array_equal(params.entities, fresh.entities)

    def test_deterministic_per_seed(self, small_store):
        a, _ = train(small_store, ModelKind.DISTMULT, small_config(loss=LossKind.LOGISTIC,
                                                                   normalize_entities=False))
        b, _ = train(small_store, ModelKind.DISTMULT, small_config(loss=LossKind.LOGISTIC,
                                                                   normalize_entities=False))
        assert np.array_equal(a.entities, b.entities)
        for rel in a.relations:
            for name in a.relations[rel]:
                assert np.array_equal(a.relations[rel][name], b.relations[rel][name])

    def test_margin_loss_nonnegative(self, small_store):
        _, report = train(small_store, ModelKind.TRANSE_L2, small_config())
        assert all(loss >= 0.0 for loss in report.epoch_losses)

    def test_logistic_loss_positive(self, small_store):
        _, report = train(
            small_store, ModelKind.RESCAL,
            small_config(loss=LossKind.LOGISTIC, normalize_entities=False, l2_coefficient=1e-5),
        )
        assert all(loss > 0.0 for loss in report.epoch_losses)

    def test_one_loss_entry_per_epoch(self, small_store):
        _, report = train(small_store, ModelKind.TRANSE_L2, small_config(epochs=4))
        assert len(report.epoch_losses) == 4

    def test_normalized_rows_unit(self, small_store):
        params, _ = train(small_store, ModelKind.TRANSE_L2, small_config(epochs=1))
        norms = np.linalg.norm(params.entities, axis=1)
        # every entity is touched at least once in an epoch of this store
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_loss_decreases_on_planted_graph(self, small_store):
        cfg = small_config(epochs=30, learning_rate=2.0, dim=16, seed=7)
        _, report = train(small_store, ModelKind.TRANSE_L2, cfg)
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_learning_signal_on_held_out(self, small_store):
        # held-out positives end up scoring above random same-kind corruptions
        from patkg.graph import SplitSpec, split
        from patkg.graph import RelationKind

        train_store, test = split(small_store, SplitSpec(0.2, seed=1))
        cfg = small_config(epochs=40, learning_rate=2.0, dim=16)
        params, _ = train(train_store, ModelKind.TRANSE_L2, cfg)
        rng = np.random.default_rng(0)
        pools = _kind_pools(small_store)
        pos, neg = [], []
        for t in test:
            pos.append(scores(params, np.array([t.head]), t.relation, np.array([t.tail]))[0])
            corrupt = _draw_replacements(rng, pools[t.relation][1], np.array([t.tail]))
            neg.append(scores(params, np.array([t.head]), t.relation, corrupt)[0])
        assert np.mean(pos) > np.mean(neg)

    def test_empty_store(self):
        with pytest.raises(EmptyStore):
            train(TripleStore(), ModelKind.TRANSE_L2, small_config())

    def test_invalid_config(self, small_store):
        with pytest.raises(InvalidConfig):
            train(small_store, ModelKind.TRANSE_L2, small_config(epochs=0))
        with pytest.raises(InvalidConfig):
            TrainConfig(learning_rate=-1.0).validate()
        # nan compares False against every bound, so each field is checked for finiteness
        for name in ("learning_rate", "margin", "l2_coefficient"):
            for bad in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(InvalidConfig, match="finite"):
                    TrainConfig(**{name: bad}).validate()
        with pytest.raises(InvalidConfig):
            init_params(ModelKind.TRANSE_L2, 0, 4)

    def test_hinge_inactive_no_update(self):
        # a pair already separated by the margin contributes zero loss and
        # leaves every parameter untouched
        from patkg.graph import EntityKind, RelationKind, Triple, TripleStore

        store = TripleStore()
        g = store.add_entity(EntityKind.GROUP, "G00A")
        p1 = store.add_entity(EntityKind.PATENT, "p1")
        store.add_entity(EntityKind.PATENT, "p2")
        store.add_entity(EntityKind.PATENT, "p3")
        store.add_triple(Triple(g.ordinal, RelationKind.CONTAIN, p1.ordinal))

        params = init_params(ModelKind.DISTMULT, 4, 2, 0, store.vocab.fingerprint())
        params.entities[:] = [[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]
        params.relations[RelationKind.CONTAIN]["vec"][:] = [1.0, 1.0]
        # s_pos = 1, any corrupt tail scores -1: hinge 1 - 1 + (-1) < 0
        cfg = small_config(epochs=1, margin=1.0, learning_rate=0.5,
                           negatives_per_positive=2, normalize_entities=False)
        before = params.copy()
        heads, rels, tails = store.triple_arrays()
        loss = _sgd_batch(params, cfg, _kind_pools(store), heads, rels, tails, 0,
                          np.random.default_rng(0))
        assert loss == 0.0
        assert np.array_equal(params.entities, before.entities)
        for rel in params.relations:
            for name in params.relations[rel]:
                assert np.array_equal(params.relations[rel][name],
                                      before.relations[rel][name])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, small_store, tmp_path):
        params, _ = train(small_store, ModelKind.COMPLEX,
                          small_config(loss=LossKind.LOGISTIC, normalize_entities=False))
        path = tmp_path / "model.ckpt"
        checkpoint(params, path)
        loaded = restore(path)
        assert np.array_equal(loaded.entities, params.entities)
        for rel in params.relations:
            for name in params.relations[rel]:
                assert np.array_equal(loaded.relations[rel][name], params.relations[rel][name])
        assert loaded.vocab_fingerprint == params.vocab_fingerprint

    def test_restore_against_wrong_vocabulary(self, small_store, tmp_path):
        params, _ = train(small_store, ModelKind.TRANSE_L2, small_config(epochs=1))
        path = tmp_path / "model.ckpt"
        checkpoint(params, path)
        other = generate_synthetic(1, 4, 2, 1, 0.0, 0.0, seed=9)
        with pytest.raises(FingerprintMismatch):
            restore(path, store=other)

    def test_truncated_file(self, small_store, tmp_path):
        params, _ = train(small_store, ModelKind.TRANSE_L2, small_config(epochs=1))
        path = tmp_path / "model.ckpt"
        checkpoint(params, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(ArchiveError) as err:
            restore(path)
        assert "byte" in str(err.value)


# -- the two-call 2-D np.add.at update as the oracle for _sgd_batch ---------

def _sgd_batch_oracle(params, cfg, pools, heads, rels, tails, offset, rng):
    """The training step with one 2-D `np.add.at` over heads and one over
    tails per relation, `np.unique` for the touched rows and a fresh gather
    for decay, normalization and the finiteness check."""
    m = len(heads)
    npp = cfg.negatives_per_positive

    neg_heads = np.repeat(heads, npp)
    neg_tails = np.repeat(tails, npp)
    neg_rels = np.repeat(rels, npp)
    sample_index = (offset + np.arange(m)).repeat(npp) * npp + np.tile(np.arange(npp), m)
    corrupt_head = sample_index % 2 == 0
    neg_valid = np.ones(m * npp, dtype=bool)

    present = []
    for r_i, rel in enumerate(RELATIONS):
        pos = np.flatnonzero(rels == r_i)
        if pos.size:
            present.append((rel, pos, np.flatnonzero(neg_rels == r_i)))

    for rel, _, neg in present:
        at_head = corrupt_head[neg]
        for pool, ends, sel in zip(pools[rel], (neg_heads, neg_tails), (neg[at_head], neg[~at_head])):
            if sel.size == 0:
                continue
            if len(pool) < 2:
                neg_valid[sel] = False
            else:
                ends[sel] = _draw_replacements(rng, pool, ends[sel])

    pos_scores = np.empty(m)
    neg_scores = np.empty(m * npp)
    for rel, pos, neg in present:
        pos_scores[pos] = scores(params, heads[pos], rel, tails[pos])
        neg_scores[neg] = scores(params, neg_heads[neg], rel, neg_tails[neg])

    if cfg.loss is LossKind.MARGIN_RANK:
        hinge = cfg.margin - np.repeat(pos_scores, npp) + neg_scores
        active = (hinge > 0.0) & neg_valid
        data_loss = float(hinge[active].sum())
        w_neg = active.astype(np.float64) / m
        w_pos = -active.reshape(m, npp).sum(axis=1).astype(np.float64) / m
    else:
        neg_ll = np.where(neg_valid, _log_sigmoid(-neg_scores), 0.0)
        data_loss = float(-_log_sigmoid(pos_scores).sum() - neg_ll.sum())
        w_pos = -_sigmoid(-pos_scores) / m
        w_neg = np.where(neg_valid, _sigmoid(neg_scores), 0.0) / m

    all_heads = np.concatenate([heads, neg_heads])
    all_tails = np.concatenate([tails, neg_tails])
    all_w = np.concatenate([w_pos, w_neg])
    nonzero = all_w != 0.0

    touched = np.unique(np.concatenate([all_heads, all_tails]))
    touched_rels = [rel for rel, _, _ in present]
    loss = data_loss
    if cfg.l2_coefficient > 0.0:
        sq = float((params.entities[touched] ** 2).sum())
        for rel in touched_rels:
            for block in params.relations[rel].values():
                sq += float((block**2).sum())
        loss += cfg.l2_coefficient * sq
        decay = cfg.learning_rate * 2.0 * cfg.l2_coefficient
        params.entities[touched] -= decay * params.entities[touched]
        for rel in touched_rels:
            for block in params.relations[rel].values():
                block -= decay * block

    lr = cfg.learning_rate
    for rel, pos, neg in present:
        sel = np.concatenate([pos, m + neg])
        sel = sel[nonzero[sel]]
        if sel.size == 0:
            continue
        dH, dT, dRel = weighted_gradients(
            params, all_heads[sel], rel, all_tails[sel], all_w[sel]
        )
        np.add.at(params.entities, all_heads[sel], -lr * dH)
        np.add.at(params.entities, all_tails[sel], -lr * dT)
        for name, g in dRel.items():
            params.relations[rel][name] -= lr * g

    if cfg.normalize_entities and params.spec.translational and lr > 0.0:
        rows = params.entities[touched]
        params.entities[touched] = rows / np.linalg.norm(rows, axis=1, keepdims=True)

    finite = np.isfinite(loss) and np.isfinite(params.entities[touched]).all()
    finite = finite and all(
        np.isfinite(block).all()
        for rel in touched_rels
        for block in params.relations[rel].values()
    )
    if not finite:
        raise NumericalDivergence("non-finite loss or parameter")
    return loss


# -0.0, subnormal, tiny, huge and ordinary magnitudes of either sign
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@st.composite
def scatter_cases(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 8))
    # a few rows drawn for both ends, so rows repeat and are heads and tails
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    heads = np.array(draw(st.lists(st.sampled_from(rows), max_size=30)), dtype=np.int64)
    tails = np.array(draw(st.lists(st.sampled_from(rows), max_size=30)), dtype=np.int64)
    table = draw(arrays(np.float64, (n, d), elements=EDGE_FLOATS))
    dH = draw(arrays(np.float64, (len(heads), d), elements=EDGE_FLOATS))
    dT = draw(arrays(np.float64, (len(tails), d), elements=EDGE_FLOATS))
    return table, heads, tails, dH, dT


@given(scatter_cases())
def test_scatter_rows_matches_heads_then_tails_add_at(case):
    table, heads, tails, dH, dT = case
    expected = table.copy()
    np.add.at(expected, heads, dH)
    np.add.at(expected, tails, dT)
    _scatter_rows(table, np.concatenate([heads, tails]), np.concatenate([dH, dT]))
    assert table.tobytes() == expected.tobytes()


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("l2", [0.0, 1e-5])
@pytest.mark.parametrize("kind", list(ModelKind))
def test_sgd_batch_matches_oracle_bitwise(small_store, kind, l2, normalize):
    # a tenth of the default step: the defaults diverge on this 8-dim store
    lr, loss_kind, margin, _, _ = DEFAULTS[kind]
    cfg = small_config(learning_rate=lr / 10, loss=loss_kind, margin=margin, l2_coefficient=l2,
                       normalize_entities=normalize, batch_size=32, negatives_per_positive=3)
    params = init_params(kind, len(small_store.vocab), cfg.dim, cfg.seed)
    expected = params.copy()
    pools = _kind_pools(small_store)
    heads, rels, tails = small_store.triple_arrays()
    order = np.random.default_rng(0).permutation(len(heads))
    rng, oracle_rng = np.random.default_rng(1), np.random.default_rng(1)
    assert len(order) > 3 * cfg.batch_size
    for start in range(0, len(order), cfg.batch_size):
        sel = order[start : start + cfg.batch_size]
        got = _sgd_batch(params, cfg, pools, heads[sel], rels[sel], tails[sel], start, rng)
        want = _sgd_batch_oracle(expected, cfg, pools, heads[sel], rels[sel], tails[sel],
                                 start, oracle_rng)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert params.entities.tobytes() == expected.entities.tobytes()
        for rel in params.relations:
            for name, block in params.relations[rel].items():
                assert block.tobytes() == expected.relations[rel][name].tobytes()
