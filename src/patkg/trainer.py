"""Mini-batch SGD with negative sampling over a training triple store.

Training is single-threaded and bit-deterministic per seed on one machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import EmptyStore, InvalidConfig, NumericalDivergence
from .graph import RELATION_SCHEMA, RELATIONS, RelationKind, TripleStore
from .models import SPECS, ModelKind, ModelParams, init_params, scores, weighted_gradients

SCATTER_ROWS = 1024  # rows per `_scatter_rows` index block: bounds the index at no measured cost


class LossKind(Enum):
    MARGIN_RANK = "margin_rank"
    LOGISTIC = "logistic"


@dataclass(frozen=True, slots=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 256
    negatives_per_positive: int = 4
    learning_rate: float = 0.05
    margin: float = 1.0
    loss: LossKind = LossKind.MARGIN_RANK
    l2_coefficient: float = 0.0
    normalize_entities: bool = False
    seed: int = 0
    dim: int = 500

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1 or self.negatives_per_positive < 1:
            raise InvalidConfig("epochs, batch_size and negatives_per_positive must be >= 1")
        if not np.isfinite([self.learning_rate, self.margin, self.l2_coefficient]).all():
            raise InvalidConfig("learning_rate, margin and l2_coefficient must be finite")
        if self.learning_rate < 0.0:
            raise InvalidConfig("learning_rate must be >= 0")
        if self.margin < 0.0 or self.l2_coefficient < 0.0 or self.dim < 1:
            raise InvalidConfig("margin/l2_coefficient must be >= 0 and dim >= 1")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")


@dataclass(slots=True)
class TrainReport:
    kind: ModelKind
    config: TrainConfig
    epoch_losses: list[float] = field(default_factory=list)
    wall_time_s: float = 0.0


def default_config(kind: ModelKind) -> TrainConfig:
    """Per-model defaults from the model's spec: margin loss for
    translational models, logistic loss with a small L2 penalty for the
    semantic-matching ones. Either loss stays selectable."""
    spec = SPECS[kind]
    return TrainConfig(
        loss=LossKind.MARGIN_RANK if spec.translational else LossKind.LOGISTIC,
        l2_coefficient=0.0 if spec.translational else 1e-5,
        learning_rate=spec.learning_rate,
        normalize_entities=spec.normalize_entities,
    )


def _logistic(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log sigmoid(x), sigmoid(-x)) from one exp(-|x|), which never overflows."""
    e = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) elsewhere
    l = np.log1p(e)  # x - l below 0, not np.minimum(x, 0.0) - l, which turns -0.0 into +0.0
    return np.where(x >= 0, -l, x - l), np.where(x <= 0, 1.0, e) / (1.0 + e)


def _kind_pools(store: TripleStore) -> dict[RelationKind, tuple[np.ndarray, np.ndarray]]:
    """Per relation: (head-kind pool, tail-kind pool) as ordinal arrays."""
    return {rel: (store.vocab.ordinals_of_kind(hk), store.vocab.ordinals_of_kind(tk))
            for rel, (hk, tk) in RELATION_SCHEMA.items()}


def _draw_replacements(rng: np.random.Generator, pool: np.ndarray, originals: np.ndarray) -> np.ndarray:
    """Uniform draws from pool, rejecting collisions with the original entity."""
    out = pool[rng.integers(0, len(pool), size=len(originals))]
    bad = np.flatnonzero(out == originals)
    while bad.size:  # only the positions just redrawn can still collide
        out[bad] = pool[rng.integers(0, len(pool), size=bad.size)]
        bad = bad[out[bad] == originals[bad]]
    return out


def _scatter_rows(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """`np.add.at(table, rows, values)` for a C-contiguous 2-D table, done on
    its flat view: numpy's 1-D `add.at` fast path gives every element the
    same addends in the same order, so the result is bit-identical. An even
    row width is viewed as complex128, whose add is two float64 adds in the
    same operand order: half the index and half the elements. The element
    index is built SCATTER_ROWS rows at a time, in order, so it never grows
    to the size of `values` and the add order stays the same."""
    dtype = np.complex128 if table.shape[1] % 2 == 0 else np.float64
    table, values = table.view(dtype), values.view(dtype)
    flat, d = table.reshape(-1), table.shape[1]
    columns = np.arange(d)
    for lo in range(0, len(rows), SCATTER_ROWS):
        hi = lo + SCATTER_ROWS
        np.add.at(flat, (rows[lo:hi, None] * d + columns).ravel(), values[lo:hi].ravel())


def _sgd_batch(params: ModelParams, cfg: TrainConfig,
               pools: dict[RelationKind, tuple[np.ndarray, np.ndarray]],
               heads: np.ndarray, rels: np.ndarray, tails: np.ndarray,
               offset: int, rng: np.random.Generator) -> float:
    """One gradient step over a batch of positives; returns summed loss.

    The samples are the m positives, then negatives_per_positive (npp)
    negatives per positive: negative j of positive i sits at m + i*npp + j.
    Its global index (offset + i) * npp + j, where `offset` is the epoch
    position of the first positive, picks the side the alternating
    corruption rule replaces: the head when even, the tail when odd.
    Each relation in turn draws its negatives and scores its samples;
    every score is taken before any parameter is updated.
    """
    m = len(heads)
    npp = cfg.negatives_per_positive

    sample_heads = np.concatenate([heads, np.repeat(heads, npp)])
    sample_tails = np.concatenate([tails, np.repeat(tails, npp)])
    valid = np.ones(len(sample_heads), dtype=bool)
    sample_scores = np.empty(len(sample_heads))
    slots = m + np.arange(npp)

    # Per relation, the ascending sample positions of its positives and
    # then of their negatives, so every pass visits samples in batch order.
    present = []
    for r_i, rel in enumerate(RELATIONS):
        pos = np.flatnonzero(rels == r_i)
        if pos.size == 0:
            continue
        neg = (pos[:, None] * npp + slots).ravel()
        at_head = (neg + (offset * npp - m)) % 2 == 0
        for pool, ends, sel in zip(pools[rel], (sample_heads, sample_tails), (neg[at_head], neg[~at_head])):
            if len(pool) < 2:
                valid[sel] = False  # no alternative entity to swap in
            else:
                ends[sel] = _draw_replacements(rng, pool, ends[sel])
        sample_scores[pos] = scores(params, heads[pos], rel, tails[pos])
        sample_scores[neg] = scores(params, sample_heads[neg], rel, sample_tails[neg])
        present.append((rel, np.concatenate([pos, neg])))

    # Batch gradient is the mean over the batch's positives, so step
    # sizes do not scale with batch_size.
    pos_scores, neg_scores, neg_valid = sample_scores[:m], sample_scores[m:], valid[m:]
    weights = np.empty(len(sample_heads))
    if cfg.loss is LossKind.MARGIN_RANK:
        hinge = cfg.margin - np.repeat(pos_scores, npp) + neg_scores
        active = (hinge > 0.0) & neg_valid
        loss = float(hinge[active].sum())
        weights[m:] = active.astype(np.float64) / m
        weights[:m] = -active.reshape(m, npp).sum(axis=1).astype(np.float64) / m
    else:
        (pos_ll, pos_w), (neg_ll, neg_w) = _logistic(pos_scores), _logistic(-neg_scores)
        loss = float(-pos_ll.sum() - np.where(neg_valid, neg_ll, 0.0).sum())
        weights[:m] = -pos_w / m
        weights[m:] = np.where(neg_valid, neg_w, 0.0) / m

    mask = np.zeros(params.n_entities, dtype=bool)
    mask[sample_heads] = True
    mask[sample_tails] = True
    touched = np.flatnonzero(mask)
    touched_blocks = [block for rel, _ in present for block in params.relations[rel].values()]
    if cfg.l2_coefficient > 0.0:
        rows = params.entities[touched]
        blocks = [rows, *touched_blocks]
        loss += cfg.l2_coefficient * sum(float((block**2).sum()) for block in blocks)
        decay = cfg.learning_rate * 2.0 * cfg.l2_coefficient
        for block in blocks:
            block -= decay * block
        params.entities[touched] = rows

    lr = cfg.learning_rate
    for rel, sel in present:
        sel = sel[weights[sel] != 0.0]
        if sel.size == 0:
            continue
        hs, ts = sample_heads[sel], sample_tails[sel]
        steps, dRel = weighted_gradients(params, hs, rel, ts, weights[sel])
        # Heads before tails, each in batch order: the add order of np.add.at
        # over heads and then over tails.
        steps *= -lr
        _scatter_rows(params.entities, np.concatenate([hs, ts]), steps)
        for name, g in dRel.items():
            params.relations[rel][name] -= lr * g

    rows = params.entities[touched]
    if cfg.normalize_entities and params.spec.translational and lr > 0.0:
        rows /= np.sqrt(np.square(rows).sum(axis=1, keepdims=True))
        params.entities[touched] = rows

    if not (np.isfinite(loss) and np.isfinite(rows).all()
            and all(np.isfinite(block).all() for block in touched_blocks)):
        raise NumericalDivergence("non-finite loss or parameter")
    return loss


def train(
    train_store: TripleStore,
    kind: ModelKind,
    config: TrainConfig,
) -> tuple[ModelParams, TrainReport]:
    """Train `kind` on the store's triples and return (params, report).

    Negatives are drawn per positive from the same-kind pool, unfiltered,
    alternating head/tail corruption by global sample index. With
    learning_rate 0 the parameters come back bit-identical to the init.
    """
    if config.normalize_entities and not SPECS[kind].translational:
        raise InvalidConfig(f"normalize_entities applies only to translational models, not {kind.value}")
    if len(train_store) == 0:
        raise EmptyStore("training store has no triples")
    samples = min(config.batch_size, len(train_store)) * (config.negatives_per_positive + 1)
    if samples * 8 > np.iinfo(np.intp).max:  # int64 and float64 bytes of a step's sample arrays
        raise InvalidConfig(f"{samples} samples per batch make arrays larger than numpy can address")
    t0 = time.perf_counter()
    params = init_params(
        kind, len(train_store.vocab), config.dim, config.seed, train_store.vocab.fingerprint()
    )
    heads, rels, tails = train_store.triple_arrays()
    pools = _kind_pools(train_store)
    report = TrainReport(kind=kind, config=config)
    shuffle_rng = np.random.default_rng(config.seed + 1)
    batch = config.batch_size

    # A diverging step overflows before the finiteness check in _sgd_batch
    # turns it into NumericalDivergence; numpy's warnings would add nothing.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(config.epochs):
            order = shuffle_rng.permutation(len(heads))
            rng = np.random.default_rng(config.seed + 10_000 + epoch)
            total = 0.0
            for start in range(0, len(order), batch):
                sel = order[start : start + batch]
                try:
                    total += _sgd_batch(params, config, pools, heads[sel], rels[sel], tails[sel],
                                        start, rng)
                except NumericalDivergence as exc:
                    raise NumericalDivergence(
                        f"epoch {epoch}: batch {start // batch}: {exc}"
                    ) from None
            report.epoch_losses.append(total / len(heads))

    report.wall_time_s = time.perf_counter() - t0
    return params, report
