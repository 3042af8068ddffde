"""Typed triple store for the five-relation patent metadata graph.

Entities come in five kinds and facts in five relation kinds, each with a
fixed (head kind, tail kind) schema. The store keeps forward and backward
adjacency indexes, supports deterministic train/test splitting and corrupt
triple sampling, and ships a planted-community synthetic generator for
desk-scale experiments.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DuplicateTriple,
    EmptyStore,
    InvalidConfig,
    PoolTooSmall,
    SchemaViolation,
    UnknownEntity,
)

log = logging.getLogger(__name__)


class EntityKind(Enum):
    PATENT = "patent"
    INVENTOR = "inventor"
    ASSIGNEE = "assignee"
    GROUP = "group"
    SUBSECTION = "subsection"


class RelationKind(Enum):
    CITE = "cite"
    WRITE = "write"
    OWN = "own"
    CONTAIN = "contain"
    COMPRISE = "comprise"


# (head kind, tail kind) required by each relation.
RELATION_SCHEMA: dict[RelationKind, tuple[EntityKind, EntityKind]] = {
    RelationKind.CITE: (EntityKind.PATENT, EntityKind.PATENT),
    RelationKind.WRITE: (EntityKind.INVENTOR, EntityKind.PATENT),
    RelationKind.OWN: (EntityKind.ASSIGNEE, EntityKind.PATENT),
    RelationKind.CONTAIN: (EntityKind.GROUP, EntityKind.PATENT),
    RelationKind.COMPRISE: (EntityKind.SUBSECTION, EntityKind.GROUP),
}

RELATION_INDEX = {r: i for i, r in enumerate(RelationKind)}


class Side(Enum):
    HEAD = "head"
    TAIL = "tail"


class CandidatePool(Enum):
    SAME_KIND = "same_kind"
    ALL_ENTITIES = "all_entities"


@dataclass(frozen=True, slots=True)
class EntityRef:
    kind: EntityKind
    source_id: str
    ordinal: int


@dataclass(frozen=True, slots=True)
class Triple:
    head: int
    relation: RelationKind
    tail: int


@dataclass(frozen=True, slots=True)
class SplitSpec:
    test_fraction: float = 0.10
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.test_fraction < 1.0:
            raise InvalidConfig(f"test_fraction must be in (0,1), got {self.test_fraction}")


class Vocabulary:
    """Dense ordinal-indexed registry of (kind, source_id) entities.

    Ordinals are assigned in first-seen order, which the export format
    preserves so a vocabulary round-trips exactly.
    """

    def __init__(self) -> None:
        self.refs: list[EntityRef] = []
        self._lookup: dict[tuple[EntityKind, str], int] = {}
        self._by_kind: dict[EntityKind, list[int]] = {k: [] for k in EntityKind}

    def __len__(self) -> int:
        return len(self.refs)

    def __contains__(self, key: tuple[EntityKind, str]) -> bool:
        return key in self._lookup

    def add(self, kind: EntityKind, source_id: str) -> EntityRef:
        """Register (kind, source_id) if new; return its EntityRef either way."""
        key = (kind, source_id)
        ordinal = self._lookup.get(key)
        if ordinal is not None:
            return self.refs[ordinal]
        ref = EntityRef(kind, source_id, len(self.refs))
        self.refs.append(ref)
        self._lookup[key] = ref.ordinal
        self._by_kind[kind].append(ref.ordinal)
        return ref

    def ordinal_of(self, kind: EntityKind, source_id: str) -> int:
        try:
            return self._lookup[(kind, source_id)]
        except KeyError:
            raise UnknownEntity(f"{kind.value}:{source_id} not in vocabulary") from None

    def ref(self, ordinal: int) -> EntityRef:
        if not 0 <= ordinal < len(self.refs):
            raise UnknownEntity(f"ordinal {ordinal} out of range")
        return self.refs[ordinal]

    def ordinals_of_kind(self, kind: EntityKind) -> list[int]:
        return self._by_kind[kind]

    def export_lines(self) -> list[str]:
        """One `<ordinal>\\t<kind>:<source_id>` line per entity, ordinal order."""
        return [f"{r.ordinal}\t{r.kind.value}:{r.source_id}" for r in self.refs]

    @classmethod
    def from_lines(cls, lines: list[str]) -> Vocabulary:
        vocab = cls()
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            ordinal_text, _, label = line.rstrip("\n").partition("\t")
            kind_text, _, source_id = label.partition(":")
            ref = vocab.add(EntityKind(kind_text), source_id)
            if ref.ordinal != int(ordinal_text):
                raise UnknownEntity(f"vocabulary line {i}: non-contiguous ordinal {ordinal_text}")
        return vocab

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for line in self.export_lines():
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()


class TripleStore:
    """Set of schema-valid triples plus both adjacency indexes.

    Construction is single-writer; afterwards the store is treated as
    immutable and is safe for parallel readers. Sampling takes explicit
    seeds and is pure.
    """

    def __init__(self, vocab: Vocabulary | None = None) -> None:
        self.vocab = vocab if vocab is not None else Vocabulary()
        self.triples: list[Triple] = []
        self._triple_set: set[Triple] = set()
        self.index_hr: dict[tuple[int, RelationKind], list[int]] = {}
        self.index_tr: dict[tuple[int, RelationKind], list[int]] = {}

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triple_set

    def add_entity(self, kind: EntityKind, source_id: str) -> EntityRef:
        return self.vocab.add(kind, source_id)

    def add_triple(self, t: Triple) -> None:
        """Add one triple, enforcing schema and set semantics."""
        n = len(self.vocab)
        if not (0 <= t.head < n and 0 <= t.tail < n):
            raise UnknownEntity(f"triple references ordinal outside vocabulary: {t}")
        head_kind = self.vocab.refs[t.head].kind
        tail_kind = self.vocab.refs[t.tail].kind
        want = RELATION_SCHEMA[t.relation]
        if (head_kind, tail_kind) != want:
            raise SchemaViolation(
                f"{t.relation.value} requires {want[0].value}->{want[1].value}, "
                f"got {head_kind.value}->{tail_kind.value}"
            )
        if t.relation is RelationKind.CITE and t.head == t.tail:
            raise SchemaViolation(f"self-citation: {t}")
        if t in self._triple_set:
            raise DuplicateTriple(f"{t}")
        self.triples.append(t)
        self._triple_set.add(t)
        self.index_hr.setdefault((t.head, t.relation), []).append(t.tail)
        self.index_tr.setdefault((t.tail, t.relation), []).append(t.head)

    def triple_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(heads, relation indexes, tails) as parallel int64 arrays."""
        if not self.triples:
            z = np.zeros(0, dtype=np.int64)
            return z, z.copy(), z.copy()
        heads = np.fromiter((t.head for t in self.triples), dtype=np.int64, count=len(self.triples))
        rels = np.fromiter(
            (RELATION_INDEX[t.relation] for t in self.triples), dtype=np.int64, count=len(self.triples)
        )
        tails = np.fromiter((t.tail for t in self.triples), dtype=np.int64, count=len(self.triples))
        return heads, rels, tails


@dataclass(slots=True)
class StoreStats:
    entity_counts: dict[EntityKind, int]
    relation_counts: dict[RelationKind, int]
    n_entities: int = 0
    n_triples: int = 0


def stats(store: TripleStore) -> StoreStats:
    """Count entities per kind and triples per relation kind."""
    entity_counts = {k: 0 for k in EntityKind}
    for ref in store.vocab.refs:
        entity_counts[ref.kind] += 1
    relation_counts = {r: 0 for r in RelationKind}
    for t in store.triples:
        relation_counts[t.relation] += 1
    return StoreStats(entity_counts, relation_counts, len(store.vocab), len(store))


def _canonical_order(triples: list[Triple]) -> list[Triple]:
    return sorted(triples, key=lambda t: (RELATION_INDEX[t.relation], t.head, t.tail))


def split(store: TripleStore, spec: SplitSpec) -> tuple[TripleStore, list[Triple]]:
    """Partition the store into a train store and a held-out test list.

    |test| = round(test_fraction * |triples|). The split is a pure function
    of the triple set and the seed: triples are put in canonical order
    before the seeded shuffle, so insertion order does not matter. The
    train store shares the vocabulary object (and hence the fingerprint).
    """
    if len(store) == 0:
        raise EmptyStore("cannot split an empty store")
    canonical = _canonical_order(store.triples)
    n_test = round(spec.test_fraction * len(canonical))
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(len(canonical))
    test_ids = set(perm[:n_test].tolist())
    train = TripleStore(store.vocab)
    test: list[Triple] = []
    for i, t in enumerate(canonical):
        if i in test_ids:
            test.append(t)
        else:
            train.add_triple(t)
    return train, test


def sample_corrupt(
    store: TripleStore,
    t: Triple,
    n: int,
    side: Side,
    pool: CandidatePool = CandidatePool.SAME_KIND,
    filtered: bool = False,
    rng_seed: int = 0,
) -> list[Triple]:
    """Draw n corrupt versions of `t`, replacing one side.

    Candidates are drawn uniformly without replacement from the pool, never
    equal to the original entity. With `filtered`, candidates that would
    reconstruct a true triple of the store are excluded first.
    """
    if n < 1:
        raise InvalidConfig("n must be >= 1")
    original = t.head if side is Side.HEAD else t.tail
    if pool is CandidatePool.SAME_KIND:
        kind = store.vocab.refs[original].kind
        candidates = [o for o in store.vocab.ordinals_of_kind(kind) if o != original]
    else:
        candidates = [o for o in range(len(store.vocab)) if o != original]
    if filtered:
        if side is Side.HEAD:
            candidates = [o for o in candidates if Triple(o, t.relation, t.tail) not in store]
        else:
            candidates = [o for o in candidates if Triple(t.head, t.relation, o) not in store]
    if len(candidates) < n:
        raise PoolTooSmall(
            f"need {n} candidates for {side.value} of {t.relation.value}, have {len(candidates)}"
        )
    rng = np.random.default_rng(rng_seed)
    chosen = rng.choice(np.asarray(candidates, dtype=np.int64), size=n, replace=False)
    if side is Side.HEAD:
        return [Triple(int(o), t.relation, t.tail) for o in chosen]
    return [Triple(t.head, t.relation, int(o)) for o in chosen]


def generate_synthetic(
    communities: int,
    patents_per_community: int,
    inventors_per_community: int,
    assignees_per_community: int,
    intra_cite_prob: float,
    inter_cite_prob: float,
    seed: int = 0,
) -> TripleStore:
    """Build a planted-community stand-in for the full patent graph.

    Each community owns one classification group; communities share
    ceil(communities/4) subsections. Every patent gets exactly one
    contain, write and own triple, drawn from its own community, and
    citations appear with probability `intra_cite_prob` inside a
    community and `inter_cite_prob` across communities (no self-cites).
    Deterministic per seed.
    """
    if min(communities, patents_per_community, inventors_per_community, assignees_per_community) < 1:
        raise InvalidConfig("all counts must be >= 1")
    for p in (intra_cite_prob, inter_cite_prob):
        if not 0.0 <= p <= 1.0:
            raise InvalidConfig(f"probability {p} outside [0,1]")
    if (intra_cite_prob, inter_cite_prob) != (0.0, 0.0) and intra_cite_prob <= inter_cite_prob:
        raise InvalidConfig("intra_cite_prob must exceed inter_cite_prob for planted structure")

    rng = np.random.default_rng(seed)
    store = TripleStore()
    n_sub = math.ceil(communities / 4)
    # classification-style codes: subsection = 3-char prefix of its groups
    sub_codes = [f"{chr(65 + j % 26)}{j // 26:02d}" for j in range(n_sub)]
    subsections = [store.add_entity(EntityKind.SUBSECTION, code) for code in sub_codes]
    group_codes = [f"{sub_codes[c % n_sub]}{chr(65 + c // n_sub)}" for c in range(communities)]
    groups = [store.add_entity(EntityKind.GROUP, code) for code in group_codes]

    patents: list[list[EntityRef]] = []
    inventors: list[list[EntityRef]] = []
    assignees: list[list[EntityRef]] = []
    for c in range(communities):
        patents.append(
            [store.add_entity(EntityKind.PATENT, f"p{c:03d}_{i:05d}") for i in range(patents_per_community)]
        )
        inventors.append(
            [store.add_entity(EntityKind.INVENTOR, f"i{c:03d}_{i:04d}") for i in range(inventors_per_community)]
        )
        assignees.append(
            [store.add_entity(EntityKind.ASSIGNEE, f"a{c:03d}_{i:03d}") for i in range(assignees_per_community)]
        )

    for c, group in enumerate(groups):
        store.add_triple(Triple(subsections[c % n_sub].ordinal, RelationKind.COMPRISE, group.ordinal))
    for c in range(communities):
        n_inv = inventors_per_community
        inv_pick = rng.integers(0, n_inv, size=patents_per_community)
        # second, distinct co-inventor when the community has one to give
        inv_pick2 = (inv_pick + rng.integers(1, n_inv, size=patents_per_community)) % n_inv if n_inv > 1 else None
        own_pick = rng.integers(0, assignees_per_community, size=patents_per_community)
        for i, patent in enumerate(patents[c]):
            store.add_triple(Triple(groups[c].ordinal, RelationKind.CONTAIN, patent.ordinal))
            store.add_triple(Triple(inventors[c][int(inv_pick[i])].ordinal, RelationKind.WRITE, patent.ordinal))
            if inv_pick2 is not None:
                store.add_triple(Triple(inventors[c][int(inv_pick2[i])].ordinal, RelationKind.WRITE, patent.ordinal))
            store.add_triple(Triple(assignees[c][int(own_pick[i])].ordinal, RelationKind.OWN, patent.ordinal))

    all_patents = [p.ordinal for comm in patents for p in comm]
    community_of = np.repeat(np.arange(communities), patents_per_community)
    n_pat = len(all_patents)
    draws = rng.random((n_pat, n_pat))
    prob = np.where(
        community_of[:, None] == community_of[None, :], intra_cite_prob, inter_cite_prob
    )
    np.fill_diagonal(prob, 0.0)
    ordinals = np.asarray(all_patents, dtype=np.int64)
    for i, j in zip(*np.nonzero(draws < prob)):
        store.add_triple(Triple(int(ordinals[i]), RelationKind.CITE, int(ordinals[j])))
    return store
