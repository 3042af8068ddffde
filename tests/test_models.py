"""Score functions, their identities, and the finite-difference gradient oracle."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from patkg.errors import UnknownOrdinal
from patkg.graph import EntityKind, EntityRef, RelationKind
from patkg.models import (
    SPECS,
    ModelKind,
    grad,
    init_params,
    score,
    scores,
    weighted_gradients,
)
from patkg.proximity import knowledge_proximity, pairwise_matrix

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

    def test_transr_projections_start_as_identity(self):
        p = init_params(ModelKind.TRANSR, 10, 6, seed=3)
        for rel in RelationKind:
            assert np.array_equal(p.relations[rel]["mat"], np.eye(6))
        assert not np.array_equal(init_params(ModelKind.RESCAL, 10, 6, seed=3).relations[REL]["mat"], np.eye(6))

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

    @pytest.mark.parametrize("ordinal", [-1, 12, 2**63, -2**63 - 1], ids=["-1", "n", "2**63", "-2**63-1"])
    def test_every_reader_of_rows_applies_one_ordinal_rule(self, ordinal):
        p = make_params(ModelKind.TRANSE_L2)  # 12 entities
        bad, ok = EntityRef(EntityKind.PATENT, "x", ordinal), EntityRef(EntityKind.PATENT, "y", 0)
        w = np.ones(1)
        calls = [lambda: scores(p, [ordinal], REL, [0]), lambda: scores(p, [0], REL, [ordinal]),
                 lambda: score(p, ordinal, REL, 0), lambda: score(p, 0, REL, ordinal),
                 lambda: grad(p, ordinal, REL, 0), lambda: grad(p, 0, REL, ordinal),
                 lambda: weighted_gradients(p, [ordinal], REL, [0], w),
                 lambda: weighted_gradients(p, [0], REL, [ordinal], w),
                 lambda: pairwise_matrix(p, None, [bad], EntityKind.PATENT),
                 lambda: pairwise_matrix(p, None, [ok, bad], EntityKind.INVENTOR),
                 lambda: knowledge_proximity(p, bad, ok), lambda: knowledge_proximity(p, ok, bad)]
        for call in calls:
            with pytest.raises(UnknownOrdinal):
                call()


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
        # With an all-zero tail row the score is -|h o r|, which must be -|h|.
        rng = np.random.default_rng(11)
        for trial in range(1000):
            d = int(rng.integers(1, 12))
            p = make_params(ModelKind.ROTATE, n=2, dim=d, seed=trial)
            p.entities[0] = rng.normal(size=2 * d)
            p.entities[1] = 0.0
            p.relations[REL]["phase"][:] = rng.uniform(-np.pi, np.pi, size=d)
            assert abs(-score(p, 0, REL, 1) - np.linalg.norm(p.entities[0])) < 1e-9

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
        # 400 rows at dim 50 put a complex batch's temporaries over numpy's
        # 256 KiB threshold for reusing a temporary as the output.
        for rows, dim in [(30, 5), (400, 50)]:
            p = make_params(kind, n=15, dim=dim, seed=19)
            rng = np.random.default_rng(19)
            h = rng.integers(0, 15, size=rows)
            t = rng.integers(0, 15, size=rows)
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


# -- the halves-layout kernels as a tolerance oracle -------------------------
# Complex rows used to be held as [re | im] halves, with the complex
# arithmetic written out in real pairs. Those kernels stay here, fed the
# same numbers in that layout, as the oracle for the complex128 kernels.

def _halves(rows):
    """(re0, im0, re1, im1, ...) -> [re | im] halves along the last axis."""
    return np.concatenate([rows[..., 0::2], rows[..., 1::2]], axis=-1)


def _re_im(rows, dim):
    return rows[..., :dim], rows[..., dim:]


def _complex_score(H, T, b, d):
    h_re, h_im = _re_im(H, d)
    t_re, t_im = _re_im(T, d)
    r_re, r_im = _re_im(b["vec"], d)
    return (
        r_re * (h_re * t_re + h_im * t_im) + r_im * (h_re * t_im - h_im * t_re)
    ).sum(axis=1)


def _complex_gradients(H, T, b, d, w):
    h_re, h_im = _re_im(H, d)
    t_re, t_im = _re_im(T, d)
    r_re, r_im = _re_im(b["vec"], d)
    dH = w * np.concatenate([r_re * t_re + r_im * t_im, r_re * t_im - r_im * t_re], axis=1)
    dT = w * np.concatenate([r_re * h_re - r_im * h_im, r_re * h_im + r_im * h_re], axis=1)
    d_vec = (
        w * np.concatenate([h_re * t_re + h_im * t_im, h_re * t_im - h_im * t_re], axis=1)
    ).sum(axis=0)
    return dH, dT, {"vec": d_vec}


def _rotate_parts(H, T, b, d):
    h_re, h_im = _re_im(H, d)
    t_re, t_im = _re_im(T, d)
    c, s = np.cos(b["phase"]), np.sin(b["phase"])
    hr_re = h_re * c - h_im * s
    hr_im = h_re * s + h_im * c
    return hr_re, hr_im, hr_re - t_re, hr_im - t_im, c, s


def _rotate_score(H, T, b, d):
    _, _, u_re, u_im, _, _ = _rotate_parts(H, T, b, d)
    return -np.sqrt((u_re * u_re + u_im * u_im).sum(axis=1))


def _rotate_gradients(H, T, b, d, w):
    hr_re, hr_im, u_re, u_im, c, s = _rotate_parts(H, T, b, d)
    n = np.sqrt((u_re * u_re + u_im * u_im).sum(axis=1, keepdims=True))
    inv = np.divide(1.0, n, out=np.zeros_like(n), where=n > 0)
    g_re, g_im = u_re * inv, u_im * inv
    dH = -w * np.concatenate([g_re * c + g_im * s, -g_re * s + g_im * c], axis=1)
    dT = w * np.concatenate([g_re, g_im], axis=1)
    d_phase = (w * (g_re * hr_im - g_im * hr_re)).sum(axis=0)
    return dH, dT, {"phase": d_phase}


def _rotate_at_kink(H, T, b, d):
    _, _, u_re, u_im, _, _ = _rotate_parts(H, T, b, d)
    return bool(np.all(u_re == 0.0) and np.all(u_im == 0.0))


HALVES_ORACLE = {
    ModelKind.COMPLEX: (_complex_score, _complex_gradients, lambda H, T, b, d: False),
    ModelKind.ROTATE: (_rotate_score, _rotate_gradients, _rotate_at_kink),
}

# Zero or far from underflow, so no squared residual loses precision.
ORACLE_FLOATS = st.floats(-1.0, 1.0, allow_subnormal=False).filter(lambda x: x == 0.0 or abs(x) > 1e-60)


@st.composite
def complex_kernel_cases(draw):
    """Hypothesis draws a few values and the layout; a seeded generator
    spreads them over the arrays, which keeps each example cheap."""
    kind = draw(st.sampled_from(list(HALVES_ORACLE)))
    d, m = draw(st.integers(1, 8)), draw(st.integers(1, 64))
    values = draw(st.lists(ORACLE_FLOATS, min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H, T = rng.choice(values, size=(m, 2 * d)), rng.choice(values, size=(m, 2 * d))
    w = rng.choice(values + [0.0], size=(m, 1))
    if kind is ModelKind.COMPLEX:
        return kind, d, H, T, {"vec": rng.choice(values, size=2 * d)}, w
    # Rows at the kink have a residual of exactly zero under both kernels:
    # t = h under the identity rotation, else h = t = 0.
    identity = draw(st.booleans())
    phases = [0.0] if identity else draw(st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=4))
    phase = rng.choice(phases, size=d)
    kink = rng.random(m) < draw(st.sampled_from([0.0, 0.25, 1.0]))
    if identity:
        T[kink] = H[kink]
    else:
        H[kink] = T[kink] = 0.0
    return kind, d, H, T, {"phase": phase}, w


@given(complex_kernel_cases())
def test_complex_kernels_match_halves_oracle(case):
    kind, d, H, T, b, w = case
    spec = SPECS[kind]
    old_score, old_gradients, old_at_kink = HALVES_ORACLE[kind]
    Hh, Th = _halves(H), _halves(T)
    bh = {name: _halves(block) if name == "vec" else block for name, block in b.items()}

    def close(new, old):
        np.testing.assert_allclose(new, old, rtol=1e-12, atol=1e-12)

    close(spec.score(H.copy(), T.copy(), b), old_score(Hh, Th, bh, d))
    dH, dT = H.copy(), T.copy()
    dRel = spec.gradients(dH, dT, b, w)
    oH, oT, oRel = old_gradients(Hh, Th, bh, d, w)
    close(_halves(dH), oH)
    close(_halves(dT), oT)
    assert dRel.keys() == oRel.keys()
    for name, g in dRel.items():
        close(_halves(g) if name == "vec" else g, oRel[name])
    for i in range(len(H)):
        assert spec.at_kink(H[i : i + 1].copy(), T[i : i + 1].copy(), b) == old_at_kink(
            Hh[i : i + 1], Th[i : i + 1], bh, d
        )
    assert spec.at_kink(H.copy(), T.copy(), b) == old_at_kink(Hh, Th, bh, d)


# -- the allocating kernels as the byte-for-byte oracle ----------------------
# The kernels used to form every step in a fresh array. Those forms stay
# here as the oracle for the in-place kernels, which must give the same
# bytes. ComplEx's conjugate is named so numpy cannot reuse a large one as
# the output of h * conj(t) with the operands swapped.

def _alloc_transe_l1_score(H, T, b):
    return -np.abs(H + b["vec"] - T).sum(axis=1)


def _alloc_transe_l1_gradients(H, T, b, w):
    dH = -w * np.sign(H + b["vec"] - T)
    return dH, -dH, {"vec": dH.sum(axis=0)}


def _alloc_transe_l2_score(H, T, b):
    return -np.linalg.norm(H + b["vec"] - T, axis=1)


def _alloc_transe_l2_gradients(H, T, b, w):
    D = H + b["vec"] - T
    n = np.linalg.norm(D, axis=1, keepdims=True)
    dH = -w * np.divide(D, n, out=np.zeros_like(D), where=n > 0)
    return dH, -dH, {"vec": dH.sum(axis=0)}


def _alloc_transr_score(H, T, b):
    U = (H - T) @ b["mat"].T + b["vec"]
    return -(U * U).sum(axis=1)


def _alloc_transr_gradients(H, T, b, w):
    M = b["mat"]
    diff = H - T
    WU = w * (diff @ M.T + b["vec"])
    dH = -2.0 * (WU @ M)
    return dH, -dH, {"mat": -2.0 * WU.T @ diff, "vec": -2.0 * WU.sum(axis=0)}


def _alloc_rescal_score(H, T, b):
    return ((H @ b["mat"]) * T).sum(axis=1)


def _alloc_rescal_gradients(H, T, b, w):
    M = b["mat"]
    return w * (T @ M.T), w * (H @ M), {"mat": (w * H).T @ T}


def _alloc_distmult_score(H, T, b):
    return ((H * T) * b["vec"]).sum(axis=1)


def _alloc_distmult_gradients(H, T, b, w):
    r = b["vec"]
    return w * (T * r), w * (H * r), {"vec": (w * (H * T)).sum(axis=0)}


def _alloc_complex_score(H, T, b):
    t_conj = T.view(np.complex128).conj()
    hct = H.view(np.complex128) * t_conj
    return (hct.view(np.float64) * b["vec"].view(np.complex128).conj().view(np.float64)).sum(axis=1)


def _alloc_complex_gradients(H, T, b, w):
    h, t, r = H.view(np.complex128), T.view(np.complex128), b["vec"].view(np.complex128)
    dH = w * (t * r.conj()).view(np.float64)
    dT = w * (h * r).view(np.float64)
    return dH, dT, {"vec": (w * (h.conj() * t).view(np.float64)).sum(axis=0)}


def _alloc_rotate_parts(H, T, b):
    r = np.exp(1j * b["phase"])
    h = H.view(np.complex128)
    hr = h * (r.real + 0j)
    hr += h * (1j * r.imag)
    return r, hr, hr - T.view(np.complex128)


def _alloc_rotate_score(H, T, b):
    u = _alloc_rotate_parts(H, T, b)[2].view(np.float64)
    return -np.sqrt((u * u).sum(axis=1))


def _alloc_rotate_gradients(H, T, b, w):
    r, hr, u = _alloc_rotate_parts(H, T, b)
    u = u.view(np.float64)
    n = np.sqrt((u * u).sum(axis=1, keepdims=True))
    dT = u * np.divide(w, n, out=np.zeros_like(n), where=n > 0)
    wg = dT.view(np.complex128)
    dH = -(wg * r.conj()).view(np.float64)
    return dH, dT, {"phase": (wg.conj() * hr).imag.sum(axis=0)}


ALLOCATING_ORACLE = {
    ModelKind.TRANSE_L1: (_alloc_transe_l1_score, _alloc_transe_l1_gradients),
    ModelKind.TRANSE_L2: (_alloc_transe_l2_score, _alloc_transe_l2_gradients),
    ModelKind.TRANSR: (_alloc_transr_score, _alloc_transr_gradients),
    ModelKind.RESCAL: (_alloc_rescal_score, _alloc_rescal_gradients),
    ModelKind.DISTMULT: (_alloc_distmult_score, _alloc_distmult_gradients),
    ModelKind.COMPLEX: (_alloc_complex_score, _alloc_complex_gradients),
    ModelKind.ROTATE: (_alloc_rotate_score, _alloc_rotate_gradients),
}

ELISION_BYTES = 256 * 1024  # numpy reuses temporaries at least this large as outputs

# -0.0, values whose squares underflow, and ordinary magnitudes of either sign
KERNEL_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-170, -1e-170, 5e-324]),
    st.floats(-2.0, 2.0),
)


@st.composite
def kernel_cases(draw):
    """Hypothesis draws a few values and the shape; a seeded generator
    spreads them over the arrays, which keeps the large examples cheap."""
    kind = draw(st.sampled_from(list(ModelKind)))
    spec = SPECS[kind]
    d = draw(st.integers(1, 8))
    width = spec.row_dim(d)
    threshold_rows = ELISION_BYTES // (8 * width)
    m = draw(st.one_of(st.integers(1, 64), st.integers(threshold_rows - 2, threshold_rows + 40)))
    values = draw(st.lists(KERNEL_FLOATS, min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H, T = rng.choice(values, size=(m, width)), rng.choice(values, size=(m, width))
    w = rng.choice(values + [0.0], size=(m, 1))
    b = {name: rng.choice(values, size=shape) for name, shape in spec.relation_blocks(d).items()}
    if "phase" in b:
        b["phase"] = rng.uniform(-np.pi, np.pi, size=d) * draw(st.sampled_from([0.0, 1.0]))
    # Rows whose residual is exactly zero: t = h + r, or t = h under the
    # identity rotation, else h = t = 0.
    kink = rng.random(m) < draw(st.sampled_from([0.0, 0.25, 1.0]))
    if kind is ModelKind.TRANSE_L2:
        T[kink] = H[kink] + b["vec"]
    elif kind is ModelKind.ROTATE:
        if b["phase"].any():
            H[kink] = T[kink] = 0.0
        else:
            T[kink] = H[kink]
    return kind, H, T, b, w


# One-element complex products: numpy rounds one written over its operand without FMA
@example((ModelKind.COMPLEX, np.array([[1.90575051, 1.90575051]]), np.array([[1.90575051, 1.90575051]]),
          {"vec": np.array([1.90575051, 1.90575051])}, np.array([[1.90575051]])))
@example((ModelKind.ROTATE, np.array([[0.5, 0.5]]), np.array([[0.75, 1.1]]), {"phase": np.array([-2.1])},
          np.array([[0.3]])))
@given(kernel_cases())
def test_kernels_match_allocating_oracle_bytewise(case):
    kind, H, T, b, w = case
    spec = SPECS[kind]
    old_score, old_gradients = ALLOCATING_ORACLE[kind]
    blocks = {name: block.copy() for name, block in b.items()}

    def same(new, old):
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()

    same(spec.score(H.copy(), T.copy(), b), old_score(H, T, b))
    # the kernel leaves dH in H and dT in T and returns dRel
    dH, dT = H.copy(), T.copy()
    dRel = spec.gradients(dH, dT, b, w)
    oH, oT, oRel = old_gradients(H, T, b, w)
    same(dH, oH)
    same(dT, oT)
    assert dRel.keys() == oRel.keys()
    for name in dRel:
        same(dRel[name], oRel[name])
    for name, block in b.items():
        same(block, blocks[name])
    # weighted_gradients gathers H and T into one (2m, width) buffer and returns it as dE
    m, d = len(H), H.shape[1] // (2 if spec.complex_rows else 1)
    p = init_params(kind, 2 * m, d)
    p.entities[:] = np.concatenate([H, T])
    p.relations[REL] = b
    dE, dRel = weighted_gradients(p, np.arange(m), REL, np.arange(m, 2 * m), w[:, 0])
    same(dE, np.concatenate([oH, oT]))
    for name in dRel:
        same(dRel[name], oRel[name])
