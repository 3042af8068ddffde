"""Mini-batch SGD with negative sampling over a training triple store.

Training is single-threaded and bit-deterministic per seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import archive as _archive
from .errors import EmptyStore, InvalidConfig, NumericalDivergence
from .graph import RELATION_SCHEMA, RELATIONS, RelationKind, TripleStore
from .models import SPECS, ModelKind, ModelParams, init_params, scores, weighted_gradients


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

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1 or self.negatives_per_positive < 1:
            raise InvalidConfig("epochs, batch_size and negatives_per_positive must be >= 1")
        if not np.isfinite([self.learning_rate, self.margin, self.l2_coefficient]).all():
            raise InvalidConfig("learning_rate, margin and l2_coefficient must be finite")
        if self.learning_rate < 0.0:
            raise InvalidConfig("learning_rate must be >= 0")
        if self.margin < 0.0 or self.l2_coefficient < 0.0 or self.dim < 1:
            raise InvalidConfig("margin/l2_coefficient must be >= 0 and dim >= 1")


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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = -np.log1p(np.exp(-x[pos]))
    out[~pos] = x[~pos] - np.log1p(np.exp(x[~pos]))
    return out


def _kind_pools(store: TripleStore) -> dict[RelationKind, tuple[np.ndarray, np.ndarray]]:
    """Per relation: (head-kind pool, tail-kind pool) as ordinal arrays."""
    return {rel: (store.vocab.ordinals_of_kind(hk), store.vocab.ordinals_of_kind(tk))
            for rel, (hk, tk) in RELATION_SCHEMA.items()}


def _draw_replacements(rng: np.random.Generator, pool: np.ndarray, originals: np.ndarray) -> np.ndarray:
    """Uniform draws from pool, rejecting collisions with the original entity."""
    out = pool[rng.integers(0, len(pool), size=len(originals))]
    bad = out == originals
    while np.any(bad):
        out[bad] = pool[rng.integers(0, len(pool), size=int(bad.sum()))]
        bad = out == originals
    return out


def _scatter_rows(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """`np.add.at(table, rows, values)` for a C-contiguous 2-D table, done on
    its flat view: numpy's 1-D `add.at` fast path gives every element the
    same addends in the same order, so the result is bit-identical."""
    d = table.shape[1]
    np.add.at(table.reshape(-1), (rows[:, None] * d + np.arange(d)).ravel(), values.ravel())


def _sgd_batch(params: ModelParams, cfg: TrainConfig,
               pools: dict[RelationKind, tuple[np.ndarray, np.ndarray]],
               heads: np.ndarray, rels: np.ndarray, tails: np.ndarray,
               offset: int, rng: np.random.Generator) -> float:
    """One gradient step over a batch of positives; returns summed loss.

    `offset` is the epoch position of the first positive, used by the
    alternating corruption rule: the global negative-sample index
    (position * negatives_per_positive + slot) corrupts the head when
    even and the tail when odd.
    """
    m = len(heads)
    npp = cfg.negatives_per_positive

    neg_heads = np.repeat(heads, npp)
    neg_tails = np.repeat(tails, npp)
    neg_rels = np.repeat(rels, npp)
    sample_index = (offset + np.arange(m)).repeat(npp) * npp + np.tile(np.arange(npp), m)
    corrupt_head = sample_index % 2 == 0
    neg_valid = np.ones(m * npp, dtype=bool)

    # Ascending batch positions of each present relation's positives and
    # negatives, so every loop below visits samples in batch order.
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
                neg_valid[sel] = False  # no alternative entity to swap in
            else:
                ends[sel] = _draw_replacements(rng, pool, ends[sel])

    pos_scores = np.empty(m)
    neg_scores = np.empty(m * npp)
    for rel, pos, neg in present:
        pos_scores[pos] = scores(params, heads[pos], rel, tails[pos])
        neg_scores[neg] = scores(params, neg_heads[neg], rel, neg_tails[neg])

    # Batch gradient is the mean over the batch's positives, so step
    # sizes do not scale with batch_size.
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

    mask = np.zeros(params.n_entities, dtype=bool)
    mask[all_heads] = True
    mask[all_tails] = True
    touched = np.flatnonzero(mask)
    touched_rels = [rel for rel, _, _ in present]
    loss = data_loss
    if cfg.l2_coefficient > 0.0:
        rows = params.entities[touched]
        sq = float((rows**2).sum())
        for rel in touched_rels:
            for block in params.relations[rel].values():
                sq += float((block**2).sum())
        loss += cfg.l2_coefficient * sq
        decay = cfg.learning_rate * 2.0 * cfg.l2_coefficient
        params.entities[touched] = rows - decay * rows
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
        # Heads before tails, each in batch order: the add order of np.add.at
        # over heads and then over tails.
        _scatter_rows(params.entities, np.concatenate([all_heads[sel], all_tails[sel]]),
                      -lr * np.concatenate([dH, dT]))
        for name, g in dRel.items():
            params.relations[rel][name] -= lr * g

    rows = params.entities[touched]
    if cfg.normalize_entities and params.spec.translational and lr > 0.0:
        rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        params.entities[touched] = rows

    finite = np.isfinite(loss) and np.isfinite(rows).all()
    finite = finite and all(
        np.isfinite(block).all()
        for rel in touched_rels
        for block in params.relations[rel].values()
    )
    if not finite:
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
    config.validate()
    if len(train_store) == 0:
        raise EmptyStore("training store has no triples")
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


def checkpoint(params: ModelParams, path) -> None:
    """Write params so that `restore` reproduces them bit-exactly."""
    _archive.save_archive(path, params, vocab=None, encoding="float64")


def restore(path, store: TripleStore | None = None) -> ModelParams:
    """Load checkpointed params; verify against `store`'s vocabulary if given."""
    params, _ = _archive.load_archive(path)
    if store is not None:
        _archive.check_fingerprint(params, store.vocab)
    return params
