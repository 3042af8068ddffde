"""Training loop contracts: losses, determinism, normalization, checkpoints."""

import copy
import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from patkg.archive import check_fingerprint, load_archive, save_archive
from patkg.errors import EmptyStore, FingerprintMismatch, InvalidConfig, ArchiveError, NumericalDivergence
from patkg.graph import RELATIONS, EntityKind, RelationKind, Triple, TripleStore, generate_synthetic
from patkg.models import SPECS, ModelKind, init_params, scores, weighted_gradients
from patkg.trainer import (
    LossKind,
    TrainConfig,
    _draw_replacements,
    _kind_pools,
    _logistic,
    _scatter_rows,
    _sgd_batch,
    default_config,
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

        train_store, test = split(small_store, SplitSpec(0.2, seed=1))
        cfg = small_config(epochs=40, learning_rate=2.0, dim=16)
        params, _ = train(train_store, ModelKind.TRANSE_L2, cfg)
        rng = np.random.default_rng(0)
        pools = _kind_pools(small_store)
        pos, neg = [], []
        for head, code, tail in zip(*(column.tolist() for column in test)):
            rel = RELATIONS[code]
            pos.append(scores(params, np.array([head]), rel, np.array([tail]))[0])
            corrupt = _draw_replacements(rng, pools[rel][1], np.array([tail]))
            neg.append(scores(params, np.array([head]), rel, corrupt)[0])
        assert np.mean(pos) > np.mean(neg)

    def test_empty_store(self):
        with pytest.raises(EmptyStore):
            train(TripleStore(), ModelKind.TRANSE_L2, small_config())

    def test_invalid_config(self, small_store):
        with pytest.raises(InvalidConfig):
            train(small_store, ModelKind.TRANSE_L2, small_config(epochs=0))
        with pytest.raises(InvalidConfig):
            TrainConfig(epochs=0)
        with pytest.raises(InvalidConfig):
            TrainConfig(learning_rate=-1.0)
        # nan compares False against every bound, so each field is checked for finiteness
        for name in ("learning_rate", "margin", "l2_coefficient"):
            for bad in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(InvalidConfig, match="finite"):
                    TrainConfig(**{name: bad})
        with pytest.raises(InvalidConfig):
            init_params(ModelKind.TRANSE_L2, 0, 4)
        # sizes numpy cannot address are refused before it overflows or crashes on them
        for dim in (2**62, 2**63):
            with pytest.raises(InvalidConfig, match="larger than numpy can address"):
                init_params(ModelKind.TRANSR, 3, dim)
        with pytest.raises(InvalidConfig, match="larger than numpy can address"):
            train(small_store, ModelKind.TRANSE_L2, small_config(negatives_per_positive=2**63))
        # np.random.default_rng rejects a negative seed with a ValueError
        with pytest.raises(InvalidConfig, match="seed must be >= 0, got -1"):
            train(small_store, ModelKind.TRANSE_L2, small_config(seed=-1))
        # _sgd_batch normalizes translational models only
        for kind in (ModelKind.RESCAL, ModelKind.DISTMULT, ModelKind.COMPLEX):
            with pytest.raises(InvalidConfig, match=f"translational models, not {kind.value}"):
                train(small_store, kind, small_config(loss=LossKind.LOGISTIC, normalize_entities=True))

    def test_kernels_are_reached_only_through_models(self, small_store, monkeypatch):
        # The benchmark's tracer times the step's kernels as the `scores` and
        # `weighted_gradients` the trainer names, reading each call's positional rows.
        import patkg.trainer

        kind, inside, calls = ModelKind.TRANSR, [False], Counter()

        def route(name, fn):
            def wrapper(*args, **kwargs):
                assert not kwargs, f"{name} called with keywords"
                calls[name] += 1
                inside[0] = True
                try:
                    return fn(*args)
                finally:
                    inside[0] = False
            return wrapper

        def kernel(name, fn):
            def wrapper(*args):
                assert inside[0], f"the {name} kernel was called outside models"
                calls[name] += 1
                return fn(*args)
            return wrapper

        spec = SPECS[kind]
        monkeypatch.setitem(SPECS, kind, dataclasses.replace(
            spec, score=kernel("score", spec.score), gradients=kernel("gradients", spec.gradients)))
        for name in ("scores", "weighted_gradients"):
            monkeypatch.setattr(patkg.trainer, name, route(name, getattr(patkg.trainer, name)))
        train(small_store, kind, small_config(epochs=1, normalize_entities=False))
        assert calls["score"] == calls["scores"] > 0
        assert calls["gradients"] == calls["weighted_gradients"] > 0

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
        before = copy.deepcopy(params)
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
        save_archive(path, params, vocab=small_store.vocab, encoding="float64")
        loaded, vocab = load_archive(path)
        assert vocab.export_text() == small_store.vocab.export_text()
        assert np.array_equal(loaded.entities, params.entities)
        for rel in params.relations:
            for name in params.relations[rel]:
                assert np.array_equal(loaded.relations[rel][name], params.relations[rel][name])
        assert loaded.vocab_fingerprint == params.vocab_fingerprint

    def test_restore_against_wrong_vocabulary(self, small_store, tmp_path):
        params, _ = train(small_store, ModelKind.TRANSE_L2, small_config(epochs=1))
        path = tmp_path / "model.ckpt"
        save_archive(path, params, vocab=small_store.vocab, encoding="float64")
        loaded, _ = load_archive(path)
        check_fingerprint(loaded, small_store.vocab)
        other = generate_synthetic(1, 4, 2, 1, 0.0, 0.0, seed=9)
        with pytest.raises(FingerprintMismatch):
            check_fingerprint(loaded, other.vocab)

    def test_truncated_file(self, small_store, tmp_path):
        params, _ = train(small_store, ModelKind.TRANSE_L2, small_config(epochs=1))
        path = tmp_path / "model.ckpt"
        save_archive(path, params, vocab=small_store.vocab, encoding="float64")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(ArchiveError) as err:
            load_archive(path)
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
        neg_ll = np.where(neg_valid, _log_sigmoid_oracle(-neg_scores), 0.0)
        data_loss = float(-_log_sigmoid_oracle(pos_scores).sum() - neg_ll.sum())
        w_pos = -_sigmoid_oracle(-pos_scores) / m
        w_neg = np.where(neg_valid, _sigmoid_oracle(neg_scores), 0.0) / m

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
        dE, dRel = weighted_gradients(
            params, all_heads[sel], rel, all_tails[sel], all_w[sel]
        )
        np.add.at(params.entities, all_heads[sel], -lr * dE[: sel.size])
        np.add.at(params.entities, all_tails[sel], -lr * dE[sel.size :])
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


# -0.0, subnormal, tiny, huge, infinite and ordinary magnitudes of either sign
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0,
                     np.inf, -np.inf]),
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


# An odd width scatters float64 elements, an even width complex128 pairs;
# inf + -inf turns an element into NaN on both.
@example((np.zeros((2, 1)), np.array([0, 1, 0]), np.array([0]),
          np.array([[np.inf], [1.0], [-np.inf]]), np.array([[2.0]])))
@example((np.zeros((2, 2)), np.array([0, 1, 0]), np.array([0]),
          np.array([[np.inf, -0.0], [1.0, 1e300], [-np.inf, 1e300]]), np.array([[2.0, -np.inf]])))
@given(scatter_cases())
def test_scatter_rows_matches_heads_then_tails_add_at(case):
    table, heads, tails, dH, dT = case
    expected = table.copy()
    with np.errstate(invalid="ignore"):  # as in train: inf + -inf is for the finiteness check
        np.add.at(expected, heads, dH)
        np.add.at(expected, tails, dT)
        _scatter_rows(table, np.concatenate([heads, tails]), np.concatenate([dH, dT]))
    assert table.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", [ModelKind.COMPLEX, ModelKind.ROTATE])
def test_scatter_rows_updates_interleaved_tables_in_place(kind):
    params = init_params(kind, 6, 3)  # rows of 3 (re, im) pairs, scattered as complex128
    table = params.entities
    rows = np.array([4, 1, 4, 0])
    values = np.random.default_rng(0).normal(size=(len(rows), table.shape[1]))
    expected = table.copy()
    np.add.at(expected, rows, values)
    _scatter_rows(params.entities, rows, values)
    assert params.entities is table
    assert table.tobytes() == expected.tobytes()


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("l2", [0.0, 1e-5])
@pytest.mark.parametrize("kind", list(ModelKind))
def test_sgd_batch_matches_oracle_bitwise(small_store, kind, l2, normalize):
    # a tenth of the default step: the defaults diverge on this 8-dim store
    lr, loss_kind, margin, _, _ = DEFAULTS[kind]
    pools = _kind_pools(small_store)
    heads, rels, tails = small_store.triple_arrays()
    order = np.random.default_rng(0).permutation(len(heads))
    # with one negative per positive, some relation passes draw no negative on one side
    for npp in (3, 1):
        cfg = small_config(learning_rate=lr / 10, loss=loss_kind, margin=margin, l2_coefficient=l2,
                           normalize_entities=normalize, batch_size=32, negatives_per_positive=npp)
        params = init_params(kind, len(small_store.vocab), cfg.dim, cfg.seed)
        expected = copy.deepcopy(params)
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


def _one_assignee_store():
    """Five patents, three inventors, two groups, one assignee and one subsection:
    the own and comprise head pools hold a single entity, so no head negative of
    theirs can be drawn."""
    store = TripleStore()
    p = [store.add_entity(EntityKind.PATENT, f"p{i}").ordinal for i in range(5)]
    inv = [store.add_entity(EntityKind.INVENTOR, f"i{i}").ordinal for i in range(3)]
    a = store.add_entity(EntityKind.ASSIGNEE, "a0").ordinal
    g = [store.add_entity(EntityKind.GROUP, code).ordinal for code in ("H01L", "H01M")]
    s = store.add_entity(EntityKind.SUBSECTION, "H01").ordinal
    facts = ([(p[i], RelationKind.CITE, p[j]) for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2))]
             + [(inv[i], RelationKind.WRITE, p[j]) for i, j in ((0, 0), (1, 1), (2, 2), (0, 3))]
             + [(a, RelationKind.OWN, p[j]) for j in (0, 4)]
             + [(g[i], RelationKind.CONTAIN, p[j]) for i, j in ((0, 0), (1, 1), (0, 2))]
             + [(s, RelationKind.COMPRISE, g[i]) for i in (0, 1)])
    for h, rel, t in facts:
        store.add_triple(Triple(h, rel, t))
    return store


ONE_ASSIGNEE_STORE = _one_assignee_store()


@st.composite
def sgd_steps(draw):
    """(kind, config, batch of triple indices, offset, seed) for one training step."""
    kind = draw(st.sampled_from(list(ModelKind)))
    lr, _, margin, _, _ = DEFAULTS[kind]
    cfg = small_config(learning_rate=lr / 10, margin=margin, dim=4,
                       loss=draw(st.sampled_from(list(LossKind))),
                       l2_coefficient=draw(st.sampled_from([0.0, 1e-3])),
                       normalize_entities=draw(st.booleans()),
                       batch_size=draw(st.integers(1, 40)),
                       negatives_per_positive=draw(st.integers(1, 5)))
    # drawn with repeats, so a batch may miss relations or hold one triple twice
    batch = draw(st.lists(st.integers(0, len(ONE_ASSIGNEE_STORE) - 1),
                          min_size=cfg.batch_size, max_size=cfg.batch_size))
    return kind, cfg, np.array(batch), draw(st.integers(0, 999)), draw(st.integers(0, 2**32))


@given(case=sgd_steps())
def test_sgd_batch_matches_oracle_on_drawn_batches(case):
    kind, cfg, batch, offset, seed = case
    params = init_params(kind, len(ONE_ASSIGNEE_STORE.vocab), cfg.dim, seed)
    expected = copy.deepcopy(params)
    pools = _kind_pools(ONE_ASSIGNEE_STORE)
    heads, rels, tails = (column[batch] for column in ONE_ASSIGNEE_STORE.triple_arrays())
    results = []
    for step, p in ((_sgd_batch, params), (_sgd_batch_oracle, expected)):
        try:
            loss = step(p, cfg, pools, heads, rels, tails, offset, np.random.default_rng(seed))
        except NumericalDivergence as exc:
            loss = str(exc)
        results.append(np.float64(loss).tobytes() if isinstance(loss, float) else loss)
    assert results[0] == results[1]
    assert params.entities.tobytes() == expected.entities.tobytes()
    for rel in params.relations:
        for name, block in params.relations[rel].items():
            assert block.tobytes() == expected.relations[rel][name].tobytes()


# -- the masked sigmoids and the whole-array redraw loop as the oracles of their trims --------

def _sigmoid_oracle(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _log_sigmoid_oracle(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = -np.log1p(np.exp(-x[pos]))
    out[~pos] = x[~pos] - np.log1p(np.exp(x[~pos]))
    return out


def _draw_replacements_oracle(rng, pool, originals):
    out = pool[rng.integers(0, len(pool), size=len(originals))]
    bad = out == originals
    while np.any(bad):
        out[bad] = pool[rng.integers(0, len(pool), size=int(bad.sum()))]
        bad = out == originals
    return out


SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300,
                 1e300, -1e300, 1.0, -1.0, 36.7, -36.7, 709.8, -745.2]


def assert_same_bytes_nan_for_nan(got, want, x):
    nan = np.isnan(x)
    assert np.isnan(got[nan]).all()  # NaN in gives NaN out, of either sign
    assert got[~nan].tobytes() == want[~nan].tobytes()


# (half of `_logistic(x)`, its masked oracle): x is a positive's score or a negated negative's
LOGISTIC_HALVES = [(1, lambda x: _sigmoid_oracle(-x)), (0, _log_sigmoid_oracle)]


@pytest.mark.parametrize("half, oracle", LOGISTIC_HALVES, ids=["sigmoid", "log_sigmoid"])
@pytest.mark.parametrize("size", [1, 2, 19, 256, 2560, 10240])
def test_sigmoids_match_masked_oracles_bytewise(half, oracle, size):
    rng = np.random.default_rng(size)
    # every edge at the front, then normals at magnitudes 1e-300 to 1e300
    x = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 301, size=size)
    x[:len(SIGMOID_EDGES)] = SIGMOID_EDGES[:size]
    assert_same_bytes_nan_for_nan(_logistic(x)[half], oracle(x), x)


@given(arrays(np.float64, st.integers(1, 64), elements=st.floats(allow_subnormal=True)))
def test_sigmoids_match_masked_oracles_on_drawn_arrays(x):
    for half, oracle in LOGISTIC_HALVES:
        assert_same_bytes_nan_for_nan(_logistic(x)[half], oracle(x), x)


@given(pool_size=st.integers(2, 5), n=st.integers(0, 300), seed=st.integers(0, 2**32))
def test_draw_replacements_draws_what_the_oracle_draws(pool_size, n, seed):
    # small pools collide often, so most draws redraw some positions several times
    pool = np.arange(pool_size, dtype=np.int64) * 3
    originals = pool[np.random.default_rng(seed + 1).integers(0, pool_size, size=n)]
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _draw_replacements(rng, pool, originals)
    assert got.tobytes() == _draw_replacements_oracle(oracle_rng, pool, originals).tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert not (got == originals).any()
