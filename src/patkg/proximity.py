"""Knowledge proximity between arbitrary entity pairs.

Proximity is the cosine similarity between the focal entity's embedding
and the target entity's embedding after transforming the target into
the focal entity's kind by adding/subtracting relation vectors.

Two transformation conventions are shipped. ``TRANSLATION_ALGEBRA`` (default)
derives each signed step from the translation principle h + r = t over
the graph schema: the patent-equivalent of an inventor is
emb(inventor) + emb(write), the inventor-equivalent of a patent is
emb(patent) - emb(write), and multi-hop pairs compose through the
patent hub (subsection steps go through its group). ``GUIDE_LITERAL``
applies the same step sequences with every sign flipped, reproducing
the published transformation guide verbatim.

Cross-kind transformation adds relation parameters to entity rows, so
it needs a model whose parameters are real vectors only (its spec's
`vector_relations`): TransE_L1, TransE_L2 and DistMult. TransR and
RESCAL (matrix relations) and the complex-valued models (ComplEx,
RotatE) reject it; same-kind proximity works for all seven models,
complex rows being compared as 2d-real vectors.

`knowledge_proximity`, `nearest_neighbors` and `pairwise_matrix` read every
value from one row-wise product of moved unit rows, so a pair gets the same
bits from each, and an entity's proximity to itself is exactly 1.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from operator import attrgetter

import numpy as np

from .errors import InvalidConfig, UnsupportedModel, ZeroVector
from .graph import EntityKind, EntityRef, RelationKind, Vocabulary
from .models import ModelParams, _rows


# products held at once by one `pairwise_matrix` row block: 512 KB of float64
_BLOCK_ELEMENTS = 1 << 16


class TransformMode(Enum):
    GUIDE_LITERAL = "guide_literal"
    TRANSLATION_ALGEBRA = "translation_algebra"


Steps = tuple[tuple[RelationKind, int], ...]  # signed relation steps: a row moves by sum(sign * relation vector)

# Signed steps taking each kind to its patent-equivalent under h + r = t.
_TO_PATENT: dict[EntityKind, Steps] = {
    EntityKind.PATENT: (),
    EntityKind.INVENTOR: ((RelationKind.WRITE, +1),),
    EntityKind.ASSIGNEE: ((RelationKind.OWN, +1),),
    EntityKind.GROUP: ((RelationKind.CONTAIN, +1),),
    EntityKind.SUBSECTION: ((RelationKind.COMPRISE, +1), (RelationKind.CONTAIN, +1)),
}


def transform_rule(focal_kind: EntityKind, target_kind: EntityKind,
                   mode: TransformMode = TransformMode.TRANSLATION_ALGEBRA) -> Steps:
    """Signed steps taking a `target_kind` row to its patent-equivalent, then on to `focal_kind`."""
    steps: Steps = ()
    if focal_kind is not target_kind:
        from_patent = tuple((rel, -sign) for rel, sign in reversed(_TO_PATENT[focal_kind]))
        steps = _TO_PATENT[target_kind] + from_patent
    if mode is TransformMode.GUIDE_LITERAL:
        steps = tuple((rel, -sign) for rel, sign in steps)
    return steps


def _unit_rows(params: ModelParams, groups: list[tuple[EntityKind, Sequence[int]]], into: EntityKind,
               mode: TransformMode) -> np.ndarray:
    """Unit rows of each (kind, ordinals) group in turn, every row moved into `into`'s kind.

    Every row is read before any is moved, so an ordinal outside the table raises before a model
    that cannot move rows does; one zero-norm check then covers every moved row. Norms are
    row-wise sums, as in `_cosines`, so a row's unit bits do not depend on the rows beside it.
    A row whose plain sum of squares is subnormal, zero or infinite is first divided by its largest magnitude.
    """
    rows = _rows(params, *(ordinals for _, ordinals in groups))
    start = 0
    for kind, ordinals in groups:
        stop = start + len(ordinals)
        steps = transform_rule(into, kind, mode)
        if steps:
            if not params.spec.vector_relations:
                raise UnsupportedModel(
                    f"{params.kind.value} relations cannot be added as vectors; "
                    "cross-kind transformation is undefined"
                )
            offset = np.zeros(params.row_dim)
            for rel, sign in steps:
                offset += sign * params.relations[rel]["vec"]
            rows[start:stop] += offset
        start = stop
    with np.errstate(over="ignore"):  # an infinite sum is rescaled below
        squares = np.multiply(rows, rows).sum(axis=-1)
    far = (squares < np.finfo(np.float64).tiny) | np.isinf(squares)
    scales = np.abs(rows[far]).max(axis=-1, keepdims=True)
    if not scales.all():
        raise ZeroVector("embedding has zero norm after transformation")
    rows[far] /= scales
    squares[far] = np.multiply(rows[far], rows[far]).sum(axis=-1)
    return rows / np.sqrt(squares)[:, None]


def _cosines(unit: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Products of unit rows summed over the last axis, broadcast, clipped to [-1, 1] against rounding.

    numpy sums each row's products in one order whatever the row count, so a pair gets the same
    bits from every caller. A BLAS product would not: GEMM and GEMV round by shape.
    """
    return np.clip(np.multiply(unit, other).sum(axis=-1), -1.0, 1.0)


def knowledge_proximity(
    params: ModelParams,
    focal: EntityRef,
    target: EntityRef,
    mode: TransformMode = TransformMode.TRANSLATION_ALGEBRA,
) -> float:
    """Cosine between the focal row and the target row moved into the focal's kind; exactly 1
    between an entity and itself."""
    unit = _unit_rows(params, [(focal.kind, [focal.ordinal]), (target.kind, [target.ordinal])], focal.kind, mode)
    return 1.0 if focal.ordinal == target.ordinal else float(_cosines(unit[1], unit[0]))


@dataclass(frozen=True, slots=True)
class NeighborHit:
    entity: EntityRef
    proximity: float


def nearest_neighbors(
    params: ModelParams,
    vocab: Vocabulary,
    focal: EntityRef,
    k: int,
    kind_filter: set[EntityKind] | None = None,
    mode: TransformMode = TransformMode.TRANSLATION_ALGEBRA,
) -> list[NeighborHit]:
    """Top-k entities by descending proximity to `focal`.

    The focal entity itself is excluded; exact ties are broken by
    ordinal ascending. `k` larger than the population returns the full
    ranked list.
    """
    if k < 1:
        raise InvalidConfig("k must be >= 1")
    groups: list[tuple[EntityKind, Sequence[int]]] = [(focal.kind, [focal.ordinal])]
    for kind in sorted(kind_filter or set(EntityKind), key=lambda e: e.value):
        members = vocab.ordinals_of_kind(kind)
        members = members[members != focal.ordinal]
        if members.size:
            groups.append((kind, members))
    unit = _unit_rows(params, groups, focal.kind, mode)
    ordinals = np.concatenate([np.empty(0, np.int64)] + [members for _, members in groups[1:]])
    proximities = _cosines(unit[1:], unit[0])
    order = np.lexsort((ordinals, -proximities))[:k]
    refs = [vocab.ref(ordinals[i]) for i in order]
    return [NeighborHit(ref, float(proximities[i])) for ref, i in zip(refs, order)]


def pairwise_matrix(
    params: ModelParams,
    vocab: Vocabulary,
    entities: list[EntityRef],
    common_kind: EntityKind,
    mode: TransformMode = TransformMode.TRANSLATION_ALGEBRA,
) -> np.ndarray:
    """Proximity matrix after moving every entity into `common_kind`'s kind.

    Entry (i, j) has the bits `knowledge_proximity` gives the two moved rows. The matrix is built
    from upper-triangle row blocks and mirrored, so it is exactly symmetric, and it is 1 wherever
    an entity meets itself. `vocab` is unused; callers pass it positionally.
    """
    if not entities:
        raise InvalidConfig("entities must be non-empty")
    runs = groupby(entities, attrgetter("kind"))
    unit = _unit_rows(params, [(kind, [e.ordinal for e in run]) for kind, run in runs], common_kind, mode)
    n, d = unit.shape
    matrix = np.empty((n, n))
    start = 0
    while start < n:
        stop = min(n, start + max(1, _BLOCK_ELEMENTS // ((n - start) * d)))
        block = _cosines(unit[None, start:], unit[start:stop, None])
        matrix[start:stop, start:] = block
        matrix[start:, start:stop] = block.T
        start = stop
    ordinals = np.array([e.ordinal for e in entities])
    matrix[ordinals[:, None] == ordinals] = 1.0
    return matrix
