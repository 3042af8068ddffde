"""Score functions, their identities, and the finite-difference gradient oracle."""

import numpy as np
import pytest

from patkg.errors import UnknownOrdinal
from patkg.graph import RelationKind
from patkg.models import (
    SPECS,
    ModelKind,
    grad,
    init_params,
    score,
    scores,
)

REL = RelationKind.CITE


def make_params(kind, n=12, dim=8, seed=0):
    return init_params(kind, n, dim, seed=seed)


class TestInit:
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_entries_within_bound(self, kind):
        p = init_params(kind, 10, 4, seed=1)
        # pre-normalization bound is 6/sqrt(4) = 3; normalization only shrinks
        assert np.all(np.abs(p.entities) <= 3.0)
        for blocks in p.relations.values():
            for name, block in blocks.items():
                if name != "phase":
                    assert np.all(np.abs(block) <= 3.0)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_deterministic(self, kind):
        a = init_params(kind, 10, 6, seed=42)
        b = init_params(kind, 10, 6, seed=42)
        assert np.array_equal(a.entities, b.entities)
        for rel in RelationKind:
            for name in a.relations[rel]:
                assert np.array_equal(a.relations[rel][name], b.relations[rel][name])

    def test_translational_rows_unit_norm(self):
        for kind in ModelKind:
            p = init_params(kind, 10, 6, seed=3)
            norms = np.linalg.norm(p.entities, axis=1)
            if SPECS[kind].translational:
                np.testing.assert_allclose(norms, 1.0, atol=1e-12)
            else:
                assert not np.allclose(norms, 1.0)

    def test_rotate_unit_modulus(self):
        p = init_params(ModelKind.ROTATE, 5, 16, seed=9)
        for rel in RelationKind:
            theta = p.relations[rel]["phase"]
            modulus = np.cos(theta) ** 2 + np.sin(theta) ** 2
            np.testing.assert_allclose(modulus, 1.0, atol=1e-15)
            assert np.all(theta >= -np.pi) and np.all(theta < np.pi)


class TestScoreExamples:
    def test_transe_l2_zero_at_translation(self):
        p = make_params(ModelKind.TRANSE_L2, dim=4)
        r = p.relations[REL]["vec"]
        p.entities[1] = p.entities[0] + r
        assert score(p, 0, REL, 1) == 0.0

    def test_transe_l1_zero_at_translation(self):
        p = make_params(ModelKind.TRANSE_L1, dim=4)
        p.entities[1] = p.entities[0] + p.relations[REL]["vec"]
        assert score(p, 0, REL, 1) == 0.0

    def test_distmult_worked_example(self):
        p = make_params(ModelKind.DISTMULT, dim=2)
        p.entities[0] = [1.0, 2.0]
        p.entities[1] = [2.0, 1.0]
        p.relations[REL]["vec"][:] = [1.0, 1.0]
        assert score(p, 0, REL, 1) == 4.0

    def test_rescal_bilinear_form(self):
        p = make_params(ModelKind.RESCAL, dim=2)
        p.entities[0] = [1.0, 0.0]
        p.entities[1] = [0.0, 1.0]
        p.relations[REL]["mat"][:] = [[0.0, 1.0], [0.0, 0.0]]
        assert score(p, 0, REL, 1) == 1.0

    def test_complex_conjugation_witness(self):
        p = make_params(ModelKind.COMPLEX, dim=1)
        p.entities[0] = [1.0, 0.0]  # 1 + 0i
        p.entities[1] = [0.0, 1.0]  # 0 + 1i
        p.relations[REL]["vec"][:] = [0.0, 1.0]  # 0 + 1i
        assert score(p, 0, REL, 1) == 1.0
        assert score(p, 1, REL, 0) == -1.0

    def test_rotate_quarter_rotation(self):
        p = make_params(ModelKind.ROTATE, dim=1)
        p.entities[0] = [1.0, 0.0]
        p.entities[1] = [0.0, 1.0]
        p.relations[REL]["phase"][:] = [np.pi / 2]
        assert abs(score(p, 0, REL, 1)) < 1e-15

    def test_unknown_ordinal(self):
        p = make_params(ModelKind.TRANSE_L2)
        with pytest.raises(UnknownOrdinal):
            score(p, 0, REL, 99)


class TestScoreProperties:
    def test_distmult_symmetry_exact(self):
        rng = np.random.default_rng(5)
        p = make_params(ModelKind.DISTMULT, n=40, dim=16, seed=5)
        p.entities[:] = rng.normal(size=p.entities.shape)
        for _ in range(1000):
            h, t = rng.integers(0, 40, size=2)
            assert score(p, int(h), REL, int(t)) == score(p, int(t), REL, int(h))

    def test_complex_asymmetry_capacity(self):
        p = make_params(ModelKind.COMPLEX, n=6, dim=4, seed=8)
        diffs = [abs(score(p, 0, REL, i) - score(p, i, REL, 0)) for i in range(1, 6)]
        assert max(diffs) > 1e-6

    def test_rotate_norm_preservation(self):
        rng = np.random.default_rng(11)
        for trial in range(1000):
            d = int(rng.integers(1, 12))
            h = rng.normal(size=2 * d)
            theta = rng.uniform(-np.pi, np.pi, size=d)
            c, s = np.cos(theta), np.sin(theta)
            hr = np.concatenate([h[:d] * c - h[d:] * s, h[:d] * s + h[d:] * c])
            assert abs(np.linalg.norm(hr) - np.linalg.norm(h)) < 1e-9

    def test_transe_translation_invariance(self):
        rng = np.random.default_rng(13)
        for kind in (ModelKind.TRANSE_L1, ModelKind.TRANSE_L2):
            p = make_params(kind, dim=6, seed=13)
            base = score(p, 0, REL, 1)
            c = rng.normal(size=6)
            p.entities[0] += c
            p.entities[1] += c
            assert abs(score(p, 0, REL, 1) - base) < 1e-12

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_score_finite(self, kind):
        p = make_params(kind, n=20, dim=8, seed=17)
        rng = np.random.default_rng(17)
        h = rng.integers(0, 20, size=200)
        t = rng.integers(0, 20, size=200)
        for rel in RelationKind:
            assert np.all(np.isfinite(scores(p, h, rel, t)))

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_batch_matches_scalar(self, kind):
        p = make_params(kind, n=15, dim=5, seed=19)
        rng = np.random.default_rng(19)
        h = rng.integers(0, 15, size=30)
        t = rng.integers(0, 15, size=30)
        batch = scores(p, h, REL, t)
        singles = [score(p, int(a), REL, int(b)) for a, b in zip(h, t)]
        if kind in (ModelKind.TRANSR, ModelKind.RESCAL):
            # BLAS matmul may reassociate differently per batch shape
            np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-12)
        else:
            np.testing.assert_array_equal(batch, singles)


def finite_difference(p, h, rel, t, arr, step=1e-5):
    """Central-difference gradient of score w.r.t. every entry of `arr`."""
    out = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        sp = score(p, h, rel, t)
        arr[idx] = orig - step
        sm = score(p, h, rel, t)
        arr[idx] = orig
        out[idx] = (sp - sm) / (2.0 * step)
    return out


def max_relative_error(analytic, numeric):
    return float(
        (np.abs(analytic - numeric) / np.maximum(1e-6, np.abs(analytic) + np.abs(numeric))).max()
    )


class TestGradients:
    def test_distmult_product_rule(self):
        p = make_params(ModelKind.DISTMULT, dim=2)
        p.entities[0] = [1.0, 2.0]
        p.entities[1] = [2.0, 1.0]
        p.relations[REL]["vec"][:] = [1.0, 1.0]
        g = grad(p, 0, REL, 1)
        np.testing.assert_array_equal(g.head, [2.0, 1.0])
        assert not g.nondifferentiable

    def test_transe_l2_flags_zero_distance(self):
        p = make_params(ModelKind.TRANSE_L2, dim=4)
        p.entities[1] = p.entities[0] + p.relations[REL]["vec"]
        g = grad(p, 0, REL, 1)
        assert g.nondifferentiable
        np.testing.assert_array_equal(g.head, np.zeros(4))
        np.testing.assert_array_equal(g.relation["vec"], np.zeros(4))

    def test_transe_l1_flags_zero_coordinate(self):
        p = make_params(ModelKind.TRANSE_L1, dim=3)
        p.entities[1] = p.entities[0].copy()
        p.entities[1][0] += p.relations[REL]["vec"][0]  # one exact-zero coordinate
        g = grad(p, 0, REL, 1)
        assert g.nondifferentiable
        assert g.head[0] == 0.0

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(101)
        p = init_params(kind, 12, 8, seed=101)
        p.entities += rng.normal(0, 0.3, p.entities.shape)  # off the unit shell
        worst = 0.0
        for _ in range(100):
            h, t = (int(x) for x in rng.choice(12, size=2, replace=False))
            rel = list(RelationKind)[int(rng.integers(5))]
            g = grad(p, h, rel, t)
            assert not g.nondifferentiable
            worst = max(worst, max_relative_error(g.head, finite_difference(p, h, rel, t, p.entities[h])))
            worst = max(worst, max_relative_error(g.tail, finite_difference(p, h, rel, t, p.entities[t])))
            for name, analytic in g.relation.items():
                numeric = finite_difference(p, h, rel, t, p.relations[rel][name])
                worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-4
