"""Parameter tables and score functions for the seven embedding models.

Every model is oriented so that a higher score means a more plausible
fact:

    TransE_L1   -|h + r - t|_1
    TransE_L2   -|h + r - t|_2
    TransR      -|M h + r - M t|_2^2
    RESCAL      h' M t
    DistMult    h' diag(r) t
    ComplEx     Re(sum_i r_i h_i conj(t_i))
    RotatE      -|h o r - t|_2     (o = complex Hadamard, |r_i| = 1)

Each model is one `ModelSpec` row in `SPECS`: its parameter layout,
training defaults and kernels. Complex-valued tables (ComplEx, RotatE)
are stored as 2d-real rows interleaved (re0, im0, re1, im1, ...), the
archive's disk layout, so `rows.view(np.complex128)` is the (n, d)
complex table without a copy. All score/gradient kernels accept
index arrays so callers can batch; the scalar `score` and `grad` entry
points are the single-triple contract on top of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import InvalidConfig, UnknownOrdinal
from .graph import RelationKind

WEIGHT_BOUND_NUMERATOR = 6.0  # init entries are uniform in +-6/sqrt(dim)


class ModelKind(Enum):
    TRANSE_L1 = "transe_l1"
    TRANSE_L2 = "transe_l2"
    TRANSR = "transr"
    RESCAL = "rescal"
    DISTMULT = "distmult"
    COMPLEX = "complex"
    ROTATE = "rotate"


@dataclass(frozen=True, slots=True)
class ModelSpec:
    """Every per-model fact: parameter layout, training defaults, kernels.

    Kernels take the gathered head rows H, tail rows T and one relation's
    blocks; they own H and T and may overwrite them, never the blocks.
    `score` returns one score per row; `gradients` also takes column weights
    w, leaves dH in H and dT in T and returns dRel, as `weighted_gradients`
    documents; `at_kink` tells whether a single triple sits where its score
    is not differentiable.
    """

    relation_blocks: Callable[[int], dict[str, tuple[int, ...]]]  # dim -> {name: shape}
    translational: bool  # unit-norm init, margin-loss default, normalization applies
    learning_rate: float  # default SGD step
    score: Callable[..., np.ndarray]
    gradients: Callable[..., dict[str, np.ndarray]]
    at_kink: Callable[..., bool] = lambda H, T, blocks: False
    normalize_entities: bool = False  # default for TrainConfig.normalize_entities
    complex_rows: bool = False  # entity rows hold d complex values, (re, im) interleaved

    def row_dim(self, dim: int) -> int:
        return 2 * dim if self.complex_rows else dim

    @property
    def vector_relations(self) -> bool:
        """Every parameter is a real vector, so h + r is defined across kinds."""
        return not self.complex_rows and all(
            len(shape) == 1 for shape in self.relation_blocks(1).values()
        )


@dataclass
class ModelParams:
    """Entity table plus per-relation parameter blocks for one model."""

    kind: ModelKind
    dim: int
    entities: np.ndarray  # (n, dim) real models, (n, 2*dim) interleaved complex models
    relations: dict[RelationKind, dict[str, np.ndarray]]
    vocab_fingerprint: str

    @property
    def spec(self) -> ModelSpec:
        return SPECS[self.kind]

    @property
    def n_entities(self) -> int:
        return self.entities.shape[0]

    @property
    def row_dim(self) -> int:
        return self.entities.shape[1]


def init_params(
    kind: ModelKind, n_entities: int, dim: int, seed: int = 0, vocab_fingerprint: str = ""
) -> ModelParams:
    """Seeded uniform init in [-6/sqrt(dim), +6/sqrt(dim)].

    Entity rows of translational models are then L2-normalized; RotatE
    relation phases are uniform in [-pi, pi) so every implied rotation
    component has unit modulus by construction. TransR projections start as
    the identity, as in the TransR paper: a uniform draw at this bound can
    diverge under steps of 0.01. Complex rows and the ComplEx `vec` are
    drawn as [re | im] halves, then interleaved.
    """
    if n_entities < 1 or dim < 1:
        raise InvalidConfig("n_entities and dim must be >= 1")
    spec = SPECS[kind]
    shapes = [(n_entities, spec.row_dim(dim)), *spec.relation_blocks(dim).values()]
    if max(map(math.prod, shapes)) * 8 > np.iinfo(np.intp).max:  # the largest block's float64 bytes
        raise InvalidConfig(f"dim {dim} makes a parameter table larger than numpy can address")
    rng = np.random.default_rng(seed)
    bound = WEIGHT_BOUND_NUMERATOR / np.sqrt(dim)
    entities = rng.uniform(-bound, bound, size=(n_entities, spec.row_dim(dim)))
    if spec.translational:
        entities /= np.linalg.norm(entities, axis=1, keepdims=True)
    if spec.complex_rows:
        entities = _interleaved(entities, dim)
    relations: dict[RelationKind, dict[str, np.ndarray]] = {}
    for rel in RelationKind:
        blocks: dict[str, np.ndarray] = {}
        for name, shape in sorted(spec.relation_blocks(dim).items()):
            if name == "phase":
                blocks[name] = rng.uniform(-np.pi, np.pi, size=shape)
            elif name == "mat" and spec.translational:
                blocks[name] = np.eye(dim)
            else:
                blocks[name] = rng.uniform(-bound, bound, size=shape)
                if spec.complex_rows:
                    blocks[name] = _interleaved(blocks[name], dim)
        relations[rel] = blocks
    return ModelParams(kind, dim, entities, relations, vocab_fingerprint)


def _interleaved(halves: np.ndarray, dim: int) -> np.ndarray:
    """[re | im] halves of `dim` complex values -> (re0, im0, re1, im1, ...), C-contiguous."""
    return halves.reshape(*halves.shape[:-1], 2, dim).swapaxes(-1, -2).reshape(halves.shape)


def _rows(params: ModelParams, *ordinals: np.ndarray) -> np.ndarray:
    """One fresh buffer of each ordinal array's entity rows in turn, for callers to split into views,
    after the package's one ordinal check: viewed as unsigned, a negative ordinal exceeds any row
    count, and one beyond int64 fails too."""
    try:
        idx = np.concatenate([np.asarray(o, dtype=np.int64) for o in ordinals])
    except OverflowError:
        raise UnknownOrdinal("ordinal outside entity table") from None
    if idx.size and idx.view(np.uint64).max() >= params.n_entities:
        raise UnknownOrdinal("ordinal outside entity table")
    return np.take(params.entities, idx, axis=0)


def scores(params: ModelParams, heads: np.ndarray, relation: RelationKind, tails: np.ndarray) -> np.ndarray:
    """Vectorized scores for triples sharing one relation."""
    rows = _rows(params, heads, tails)
    return params.spec.score(rows[: len(heads)], rows[len(heads) :], params.relations[relation])


def score(params: ModelParams, h: int, r: RelationKind, t: int) -> float:
    """Plausibility of one triple; higher is more plausible."""
    return float(scores(params, [h], r, [t])[0])


@dataclass(slots=True)
class ScoreGradient:
    """Gradients of one triple's score w.r.t. every touched block.

    `head`/`tail` match the entity-row layout; `relation` maps block
    name to an array shaped like the block. `nondifferentiable` flags
    kink points (L1 coordinate at zero, norms at zero), where the zero
    subgradient component is returned.
    """

    head: np.ndarray
    tail: np.ndarray
    relation: dict[str, np.ndarray]
    nondifferentiable: bool = False


def weighted_gradients(
    params: ModelParams,
    heads: np.ndarray,
    relation: RelationKind,
    tails: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Per-sample entity gradients and weight-summed relation gradients.

    Returns (dE, dRel): the k heads' dH[i] = weights[i] * d score_i / d head_i
    in dE[:k], then the tails' dT in dE[k:], and dRel[name] =
    sum_i weights[i] * d score_i / d block. Kink points contribute zero subgradients.
    """
    w = np.asarray(weights, dtype=np.float64)[:, None]
    rows = _rows(params, heads, tails)
    return rows, params.spec.gradients(rows[: len(heads)], rows[len(heads) :], params.relations[relation], w)


def grad(params: ModelParams, h: int, r: RelationKind, t: int) -> ScoreGradient:
    """Analytic gradient of `score` for a single triple.

    Matches central finite differences to relative error < 1e-4 away
    from kink points; at kinks the zero subgradient is returned and
    `nondifferentiable` is set.
    """
    dE, dRel = weighted_gradients(params, [h], r, [t], np.ones(1))
    rows = _rows(params, [h], [t])
    flag = params.spec.at_kink(rows[:1], rows[1:], params.relations[r])
    return ScoreGradient(head=dE[0], tail=dE[1], relation=dRel, nondifferentiable=flag)


# -- kernels, one group per model ------------------------------------------
# Kernels compute in the H and T they are handed, with the IEEE operations and
# operand order of the allocating forms the tests keep as their oracle; they
# allocate only for BLAS products and for a third result H and T cannot hold.

def _residual(H, T, b):
    """h + r - t, formed in H."""
    return np.subtract(np.add(H, b["vec"], out=H), T, out=H)


def _transe_l1_score(H, T, b):
    return -np.abs(_residual(H, T, b), out=H).sum(axis=1)


def _transe_l1_gradients(H, T, b, w):
    dT = np.sign(_residual(H, T, b), out=T)  # np.sign into its own input runs ~8x slower
    dT *= w  # -(w s) is (-w) s bit for bit
    return {"vec": np.negative(dT, out=H).sum(axis=0)}


def _transe_l1_at_kink(H, T, b):
    return bool(np.any(_residual(H, T, b) == 0.0))


def _transe_l2_score(H, T, b):
    return -np.sqrt(np.square(_residual(H, T, b), out=H).sum(axis=1))


def _transe_l2_gradients(H, T, b, w):
    D = _residual(H, T, b)
    n = np.sqrt(np.square(D, out=T).sum(axis=1, keepdims=True))
    unit = n > 0
    np.divide(D, np.where(unit, n, 1.0), out=D)
    D[~unit[:, 0]] = 0.0  # the zero subgradient, also where |D| underflowed
    D *= -w
    np.negative(D, out=T)
    return {"vec": D.sum(axis=0)}


def _transe_l2_at_kink(H, T, b):
    return bool(np.all(_residual(H, T, b) == 0.0))


def _transr_score(H, T, b):
    U = np.subtract(H, T, out=H) @ b["mat"].T
    U += b["vec"]
    return -np.square(U, out=U).sum(axis=1)


def _transr_gradients(H, T, b, w):
    M, diff = b["mat"], np.subtract(H, T, out=H)
    WU = diff @ M.T
    WU += b["vec"]
    WU *= w
    np.multiply(WU @ M, 2.0, out=T)  # dT; dH = -dT is -2 (WU M) bit for bit
    d_vec = -2.0 * WU.sum(axis=0)
    d_mat = np.multiply(WU, -2.0, out=WU).T @ diff
    np.negative(T, out=H)
    return {"mat": d_mat, "vec": d_vec}


def _rescal_score(H, T, b):
    return np.multiply(H @ b["mat"], T, out=T).sum(axis=1)


def _rescal_gradients(H, T, b, w):
    dH, dT = T @ b["mat"].T, H @ b["mat"]
    d_mat = np.multiply(H, w, out=H).T @ T
    np.multiply(dH, w, out=H)
    np.multiply(dT, w, out=T)
    return {"mat": d_mat}


def _distmult_score(H, T, b):
    # (H*T)*r keeps score(h,r,t) == score(t,r,h) bit-exact.
    return np.multiply(np.multiply(H, T, out=H), b["vec"], out=H).sum(axis=1)


def _distmult_gradients(H, T, b, w):
    r, P = b["vec"], H * T
    P *= w
    d_vec = P.sum(axis=0)
    np.multiply(T, r, out=P)  # P is free again: it holds T r while T takes H r
    np.multiply(H, r, out=T)
    T *= w
    np.multiply(P, w, out=H)
    return {"vec": d_vec}


# numpy's complex multiply may fuse a real product into an FMA, so a*b and b*a
# can round apart: each product here keeps one operand order. a * b.conj() would
# reuse a b.conj() over 256 KiB as its output, operands swapped, so none is written.
# A one-element product written over an operand rounds without that FMA, so each
# product whose terms are both nonzero gets an output of its own.

def _complex_score(H, T, b):
    # Re(r h conj(t)) = Re(h conj(t)) Re(r) + Im(h conj(t)) Im(conj(r)), summed
    # elementwise per row so a batch scores exactly as its single triples.
    h, t = H.view(np.complex128), T.view(np.complex128)
    hct = (h * np.conjugate(t, out=t)).view(np.float64)
    return np.multiply(hct, b["vec"].view(np.complex128).conj().view(np.float64), out=hct).sum(axis=1)


def _complex_gradients(H, T, b, w):
    h, t, r = H.view(np.complex128), T.view(np.complex128), b["vec"].view(np.complex128)
    hc = np.conjugate(h)
    d_vec = (hc * t).view(np.float64)
    d_vec *= w
    dT = np.multiply(h, r, out=hc).view(np.float64)
    np.multiply(t, r.conj(), out=h)
    H *= w
    np.multiply(dT, w, out=T)
    return {"vec": d_vec.sum(axis=0)}


def _rotate_parts(H, T, b):
    """(r, h o r, u): the unit rotation, the rotated head and u = h o r - t, formed in T."""
    r = np.exp(1j * b["phase"])
    h = H.view(np.complex128)
    # h o r as h Re(r) + h i Im(r): each product has one exactly zero term, so
    # h o r rounds as h.re*cos - h.im*sin, h.re*sin + h.im*cos on any CPU. One
    # complex multiply may fuse a term into an FMA instead, and u cancels near
    # the kink, where g = u/|u| magnifies that last bit by |h|/|u|.
    hr = h * (r.real + 0j)
    hr += np.multiply(h, 1j * r.imag, out=h)
    return r, hr, np.subtract(hr, T.view(np.complex128), out=T.view(np.complex128))


def _rotate_score(H, T, b):
    return -np.sqrt(np.square(_rotate_parts(H, T, b)[2].view(np.float64), out=T).sum(axis=1))


def _rotate_gradients(H, T, b, w):
    r, hr, wg = _rotate_parts(H, T, b)  # u, a complex view of T, becomes w g below
    n = np.sqrt(np.square(T, out=H).sum(axis=1, keepdims=True))
    T *= np.divide(w, n, out=np.zeros_like(n), where=n > 0)  # w g, g = d(-score)/d u
    h = H.view(np.complex128)
    d_phase = (np.conjugate(wg, out=h) * hr).imag.sum(axis=0)
    np.multiply(wg, r.conj(), out=h)
    np.negative(H, out=H)
    return {"phase": d_phase}


def _rotate_at_kink(H, T, b):
    return bool(np.all(_rotate_parts(H, T, b)[2] == 0.0))


SPECS: dict[ModelKind, ModelSpec] = {
    ModelKind.TRANSE_L1: ModelSpec(
        lambda d: {"vec": (d,)}, translational=True, learning_rate=0.5, normalize_entities=True,
        score=_transe_l1_score, gradients=_transe_l1_gradients, at_kink=_transe_l1_at_kink,
    ),
    ModelKind.TRANSE_L2: ModelSpec(
        lambda d: {"vec": (d,)}, translational=True, learning_rate=2.0, normalize_entities=True,
        score=_transe_l2_score, gradients=_transe_l2_gradients, at_kink=_transe_l2_at_kink,
    ),
    ModelKind.TRANSR: ModelSpec(
        lambda d: {"vec": (d,), "mat": (d, d)}, translational=True, learning_rate=0.5,
        score=_transr_score, gradients=_transr_gradients,
    ),
    ModelKind.RESCAL: ModelSpec(
        lambda d: {"mat": (d, d)}, translational=False, learning_rate=2.0,
        score=_rescal_score, gradients=_rescal_gradients,
    ),
    ModelKind.DISTMULT: ModelSpec(
        lambda d: {"vec": (d,)}, translational=False, learning_rate=8.0,
        score=_distmult_score, gradients=_distmult_gradients,
    ),
    ModelKind.COMPLEX: ModelSpec(
        lambda d: {"vec": (2 * d,)}, translational=False, learning_rate=8.0,
        complex_rows=True,
        score=_complex_score, gradients=_complex_gradients,
    ),
    ModelKind.ROTATE: ModelSpec(
        lambda d: {"phase": (d,)}, translational=True, learning_rate=1.0, complex_rows=True,
        score=_rotate_score, gradients=_rotate_gradients, at_kink=_rotate_at_kink,
    ),
}
