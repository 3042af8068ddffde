"""Training loop contracts: losses, determinism, normalization, checkpoints."""

import numpy as np
import pytest

from patkg.errors import EmptyStore, FingerprintMismatch, InvalidConfig, ArchiveError
from patkg.graph import TripleStore, generate_synthetic
from patkg.models import ModelKind, init_params, scores
from patkg.trainer import (
    LossKind,
    TrainConfig,
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
        from patkg.trainer import _kind_pools, _draw_replacements
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
        with pytest.raises(InvalidConfig):
            init_params(ModelKind.TRANSE_L2, 0, 4)

    def test_hinge_inactive_no_update(self):
        # a pair already separated by the margin contributes zero loss and
        # leaves every parameter untouched
        from patkg.graph import EntityKind, RelationKind, Triple, TripleStore
        from patkg.trainer import _kind_pools, _sgd_batch

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
