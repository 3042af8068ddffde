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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidConfig, UnsupportedModel, ZeroVector
from .graph import EntityKind, EntityRef, RelationKind, Vocabulary
from .models import ModelParams, _rows


class TransformMode(Enum):
    GUIDE_LITERAL = "guide_literal"
    TRANSLATION_ALGEBRA = "translation_algebra"


@dataclass(frozen=True, slots=True)
class TransformRule:
    focal_kind: EntityKind
    target_kind: EntityKind
    steps: tuple[tuple[RelationKind, int], ...]


# Signed steps taking each kind to its patent-equivalent under h + r = t.
_TO_PATENT: dict[EntityKind, tuple[tuple[RelationKind, int], ...]] = {
    EntityKind.PATENT: (),
    EntityKind.INVENTOR: ((RelationKind.WRITE, +1),),
    EntityKind.ASSIGNEE: ((RelationKind.OWN, +1),),
    EntityKind.GROUP: ((RelationKind.CONTAIN, +1),),
    EntityKind.SUBSECTION: ((RelationKind.COMPRISE, +1), (RelationKind.CONTAIN, +1)),
}


def transform_rule(focal_kind: EntityKind, target_kind: EntityKind,
                   mode: TransformMode = TransformMode.TRANSLATION_ALGEBRA) -> TransformRule:
    """Signed steps taking a `target_kind` row to its patent-equivalent, then on to `focal_kind`."""
    steps: tuple[tuple[RelationKind, int], ...] = ()
    if focal_kind is not target_kind:
        from_patent = tuple((rel, -sign) for rel, sign in reversed(_TO_PATENT[focal_kind]))
        steps = _TO_PATENT[target_kind] + from_patent
    if mode is TransformMode.GUIDE_LITERAL:
        steps = tuple((rel, -sign) for rel, sign in steps)
    return TransformRule(focal_kind, target_kind, steps)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, clamped to [-1, 1] against rounding."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine undefined for zero-norm vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def _moved(params: ModelParams, rows: np.ndarray, kind: EntityKind, focal_kind: EntityKind,
           mode: TransformMode) -> np.ndarray:
    """`rows` of `kind` entities moved into `focal_kind`'s kind by their rule's relation vectors."""
    steps = transform_rule(focal_kind, kind, mode).steps
    if not steps:
        return rows
    if not params.spec.vector_relations:
        raise UnsupportedModel(
            f"{params.kind.value} relations cannot be added as vectors; "
            "cross-kind transformation is undefined"
        )
    offset = np.zeros(params.row_dim)
    for rel, sign in steps:
        offset += sign * params.relations[rel]["vec"]
    return rows + offset


def transform(
    params: ModelParams,
    target: EntityRef,
    focal_kind: EntityKind,
    mode: TransformMode = TransformMode.TRANSLATION_ALGEBRA,
) -> np.ndarray:
    """Target embedding converted into `focal_kind`'s kind."""
    return _moved(params, params.entity_row(target.ordinal), target.kind, focal_kind, mode)


def knowledge_proximity(
    params: ModelParams,
    focal: EntityRef,
    target: EntityRef,
    mode: TransformMode = TransformMode.TRANSLATION_ALGEBRA,
) -> float:
    """Cosine between the focal row and the kind-transformed target row."""
    return cosine(
        params.entity_row(focal.ordinal), transform(params, target, focal_kind=focal.kind, mode=mode)
    )


@dataclass(frozen=True, slots=True)
class NeighborHit:
    entity: EntityRef
    kind: EntityKind
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
    focal_row = params.entity_row(focal.ordinal)
    focal_norm = np.linalg.norm(focal_row)
    if focal_norm == 0.0:
        raise ZeroVector("focal embedding has zero norm")
    kinds = sorted(kind_filter or set(EntityKind), key=lambda e: e.value)

    ordinals: list[np.ndarray] = []
    proximities: list[np.ndarray] = []
    for kind in kinds:
        members = vocab.ordinals_of_kind(kind)
        members = members[members != focal.ordinal]
        if members.size == 0:
            continue
        rows = _moved(params, _rows(params, members), kind, focal.kind, mode)
        norms = np.linalg.norm(rows, axis=1)
        if np.any(norms == 0.0):
            raise ZeroVector("transformed embedding has zero norm")
        proximities.append(np.clip(rows @ focal_row / (norms * focal_norm), -1.0, 1.0))
        ordinals.append(members)
    if not ordinals:
        return []
    all_ordinals = np.concatenate(ordinals)
    all_prox = np.concatenate(proximities)
    order = np.lexsort((all_ordinals, -all_prox))[:k]
    refs = [vocab.ref(all_ordinals[i]) for i in order]
    return [NeighborHit(ref, ref.kind, float(all_prox[i])) for ref, i in zip(refs, order)]


def pairwise_matrix(
    params: ModelParams,
    vocab: Vocabulary,
    entities: list[EntityRef],
    common_kind: EntityKind,
    mode: TransformMode = TransformMode.TRANSLATION_ALGEBRA,
) -> np.ndarray:
    """Cosine matrix after transforming every entity to `common_kind`.

    Exactly symmetric with a unit diagonal. Every row is read before any is moved, so an
    ordinal outside the table raises before a model that cannot move rows does. `vocab` is
    unused; callers pass it positionally.
    """
    if not entities:
        raise InvalidConfig("entities must be non-empty")
    rows = _rows(params, [e.ordinal for e in entities])
    for kind in dict.fromkeys(e.kind for e in entities):
        at = [i for i, e in enumerate(entities) if e.kind is kind]
        rows[at] = _moved(params, rows[at], kind, common_kind, mode)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ZeroVector("transformed embedding has zero norm")
    unit = rows / norms
    matrix = np.clip(unit @ unit.T, -1.0, 1.0)
    matrix = (matrix + matrix.T) / 2.0
    np.fill_diagonal(matrix, 1.0)
    return matrix
