"""Typed triple store for the five-relation patent metadata graph.

Entities come in five kinds and facts in five relation kinds, each with a
fixed (head kind, tail kind) schema. The store keeps its triples as int
columns plus sorted packed keys, supports deterministic train/test
splitting and corrupt triple sampling, and ships a planted-community
synthetic generator for desk-scale experiments.
"""

from __future__ import annotations

import hashlib
import logging
import math
from array import array
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DuplicateTriple,
    EmptyStore,
    InvalidConfig,
    ParseError,
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

RELATIONS = list(RelationKind)
RELATION_INDEX = {r: i for i, r in enumerate(RelationKind)}
KIND_INDEX = {k: i for i, k in enumerate(EntityKind)}
# (head, tail) KIND_INDEX codes required by each relation code
_SCHEMA_CODES = np.array([[KIND_INDEX[kind] for kind in RELATION_SCHEMA[r]] for r in RELATIONS])


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
    """Dense ordinal-indexed registry of entities, keyed by their `kind:source_id` label.

    Ordinals are assigned in first-seen order, which the export format
    preserves so a vocabulary round-trips exactly.
    """

    def __init__(self) -> None:
        self.refs: list[EntityRef] = []
        self.ordinals: dict[str, int] = {}  # label -> ordinal, in ordinal order; read-only to callers
        self.kinds = array("b")  # KIND_INDEX code per ordinal; read-only to callers
        self._by_kind: dict[EntityKind, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.refs)

    def __contains__(self, key: tuple[EntityKind, str]) -> bool:
        return f"{key[0].value}:{key[1]}" in self.ordinals

    def add(self, kind: EntityKind, source_id: str) -> EntityRef:
        """Register (kind, source_id) if new; return its EntityRef either way."""
        label = f"{kind.value}:{source_id}"
        ordinal = self.ordinals.get(label)
        if ordinal is None:
            ordinal = self.ordinals[label] = len(self.refs)
            self.refs.append(EntityRef(kind, source_id, ordinal))
            self.kinds.append(KIND_INDEX[kind])
            self._by_kind.pop(kind, None)
        return self.refs[ordinal]

    def ordinal_of(self, kind: EntityKind, source_id: str) -> int:
        return self.ordinal_of_label(f"{kind.value}:{source_id}")

    def ordinal_of_label(self, label: str) -> int:
        """Ordinal of the entity labelled `kind:source_id`; UnknownEntity if absent."""
        try:
            return self.ordinals[label]
        except KeyError:
            raise UnknownEntity(f"{label} not in vocabulary") from None

    def ordinals_of_kind(self, kind: EntityKind) -> np.ndarray:
        """Ascending ordinals of every `kind` entity, as a read-only int64 array."""
        ordinals = self._by_kind.get(kind)
        if ordinals is None:
            ordinals = np.flatnonzero(np.array(self.kinds, dtype=np.int8) == KIND_INDEX[kind])
            ordinals.flags.writeable = False
            self._by_kind[kind] = ordinals
        return ordinals

    def export_lines(self) -> list[str]:
        """One `<ordinal>\\t<kind>:<source_id>` line per entity, ordinal order."""
        return [f"{ordinal}\t{label}" for label, ordinal in self.ordinals.items()]

    @classmethod
    def from_lines(cls, lines: list[str]) -> Vocabulary:
        vocab = cls()
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            ordinal_text, _, label = line.rstrip("\n").partition("\t")
            try:
                ordinal = int(ordinal_text)
                kind_text, source_id = label.split(":", 1)
                ref = vocab.add(EntityKind(kind_text), source_id)
            except ValueError:
                raise ParseError(f"vocabulary line {i}: {line!r} is not <ordinal>\\t<kind>:<id>") from None
            if ref.ordinal != ordinal:
                raise UnknownEntity(f"vocabulary line {i}: non-contiguous ordinal {ordinal_text}")
        return vocab

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for line in self.export_lines():
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()


def pack_keys(heads, rels, tails) -> np.ndarray:
    """One int64 key per triple, ordered as (relation, head, tail): rel << 58 | head << 29 | tail."""
    return (rels << 58) | (heads << 29) | tails


def _as_triples(heads: np.ndarray, rels: np.ndarray, tails: np.ndarray) -> list[Triple]:
    """`Triple` values of int64 (head, relation code, tail) columns, row by row."""
    return [Triple(h, RELATIONS[r], t) for h, r, t in zip(heads.tolist(), rels.tolist(), tails.tolist())]


class TripleStore:
    """Set of schema-valid triples: read-only int64 columns `heads`, `rels`
    (`RELATION_INDEX` codes) and `tails` in insertion order, plus the sorted
    `pack_keys` of every triple for membership by binary search. Entity
    ordinals must stay below 2**29 (about 537M entities) for keys to be unique.

    Construction is single-writer; afterwards the store is treated as
    immutable and is safe for parallel readers. Sampling takes explicit
    seeds and is pure.
    """

    def __init__(self, vocab: Vocabulary | None = None) -> None:
        self.vocab = vocab if vocab is not None else Vocabulary()
        self.heads = self.rels = self.tails = self._keys = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.heads)

    def __contains__(self, t: Triple) -> bool:
        return bool(self.contains(t.head, RELATION_INDEX[t.relation], t.tail))

    @property
    def triples(self) -> list[Triple]:
        """Every triple in insertion order, built anew on each read."""
        return _as_triples(self.heads, self.rels, self.tails)

    def contains(self, heads, rels, tails) -> np.ndarray:
        """Membership of each (head, relation code, tail) row, as bools."""
        keys = pack_keys(heads, rels, tails)
        if len(self._keys) == 0:
            return np.zeros(np.shape(keys), dtype=bool)
        at = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return self._keys[at] == keys

    def add_entity(self, kind: EntityKind, source_id: str) -> EntityRef:
        return self.vocab.add(kind, source_id)

    def add_triple(self, t: Triple) -> None:
        """Add one triple, enforcing schema and set semantics."""
        self.add_triples([t.head], [RELATION_INDEX[t.relation]], [t.tail])

    def add_triples(self, heads, rels, tails) -> None:
        """Append (head, relation code, tail) rows, all or none; a scalar column is broadcast.

        The row rules, in check order: name vocabulary ordinals and a relation code
        (UnknownEntity), fit the relation's schema, do not cite yourself (SchemaViolation),
        repeat neither a stored triple nor an earlier row (DuplicateTriple). The first
        failing row raises for the first rule it breaks; the exception's `row` is its index.
        """
        heads, rels, tails = np.broadcast_arrays(*(np.asarray(c, dtype=np.int64) for c in (heads, rels, tails)))
        keys = pack_keys(heads, rels, tails)
        n = len(self.vocab)
        in_range = (heads >= 0) & (heads < n) & (tails >= 0) & (tails < n) & (rels >= 0) & (rels < len(RELATIONS))
        # (head, tail) kinds against the relation's; rows out of range read the appended -1
        kinds = np.append(np.array(self.vocab.kinds, dtype=np.int8), -1)[np.where(in_range, [heads, tails], -1)]
        off_schema = (kinds != _SCHEMA_CODES[np.where(in_range, rels, 0)].T).any(axis=0)
        self_cite = (rels == RELATION_INDEX[RelationKind.CITE]) & (heads == tails)
        duplicate = np.ones(len(keys), dtype=bool)  # repeats an earlier row or a stored triple
        duplicate[np.unique(keys, return_index=True)[1]] = False
        duplicate |= self.contains(heads, rels, tails)
        rule = np.select([~in_range, off_schema, self_cite, duplicate], [1, 2, 3, 4])
        if rule.any():
            i = int(np.argmax(rule > 0))
            h, r, t = int(heads[i]), int(rels[i]), int(tails[i])
            if rule[i] == 1:
                error = UnknownEntity(f"row {(h, r, t)}: ordinal outside the vocabulary or unknown relation")
            elif rule[i] == 2:
                (want_head, want_tail), refs = RELATION_SCHEMA[RELATIONS[r]], self.vocab.refs
                error = SchemaViolation(f"{RELATIONS[r].value} requires {want_head.value}->{want_tail.value}, "
                                        f"got {refs[h].kind.value}->{refs[t].kind.value}")
            elif rule[i] == 3:
                error = SchemaViolation(f"self-citation: {Triple(h, RELATIONS[r], t)}")
            else:
                error = DuplicateTriple(f"{Triple(h, RELATIONS[r], t)}")
            error.row = i
            raise error
        self.heads = np.concatenate([self.heads, heads])
        self.rels = np.concatenate([self.rels, rels])
        self.tails = np.concatenate([self.tails, tails])
        self._keys = np.sort(np.concatenate([self._keys, keys]))
        for column in (self.heads, self.rels, self.tails, self._keys):
            column.flags.writeable = False

    def triple_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(heads, relation indexes, tails): the store's read-only columns."""
        return self.heads, self.rels, self.tails


@dataclass(slots=True)
class StoreStats:
    entity_counts: dict[EntityKind, int]
    relation_counts: dict[RelationKind, int]
    n_entities: int = 0
    n_triples: int = 0


def stats(store: TripleStore) -> StoreStats:
    """Count entities per kind and triples per relation kind."""
    entity_counts = {k: len(store.vocab.ordinals_of_kind(k)) for k in EntityKind}
    relation_counts = dict(zip(RELATIONS, np.bincount(store.rels, minlength=len(RELATIONS)).tolist()))
    return StoreStats(entity_counts, relation_counts, len(store.vocab), len(store))


def split(store: TripleStore, spec: SplitSpec) -> tuple[TripleStore, list[Triple]]:
    """Partition the store into a train store and a held-out test list.

    |test| = round(test_fraction * |triples|). The split is a pure function
    of the triple set and the seed: triples are put in canonical order
    before the seeded shuffle, so insertion order does not matter. The
    train store shares the vocabulary object (and hence the fingerprint).
    """
    if len(store) == 0:
        raise EmptyStore("cannot split an empty store")
    canonical = np.argsort(pack_keys(store.heads, store.rels, store.tails))
    n_test = round(spec.test_fraction * len(canonical))
    rng = np.random.default_rng(spec.seed)
    is_test = np.zeros(len(canonical), dtype=bool)
    is_test[rng.permutation(len(canonical))[:n_test]] = True
    rows = canonical[~is_test]
    train = TripleStore(store.vocab)
    train.add_triples(store.heads[rows], store.rels[rows], store.tails[rows])
    held = canonical[is_test]
    return train, _as_triples(store.heads[held], store.rels[held], store.tails[held])


def corruption_candidates(
    store: TripleStore, t: Triple, side: Side, pool: CandidatePool, filtered: bool
) -> np.ndarray:
    """Ascending ordinals that may replace `side` of `t`: the pool minus the original
    entity and, if `filtered`, minus every entity that would rebuild a stored triple."""
    original = t.head if side is Side.HEAD else t.tail
    if pool is CandidatePool.SAME_KIND:
        candidates = store.vocab.ordinals_of_kind(store.vocab.refs[original].kind)
    else:
        candidates = np.arange(len(store.vocab), dtype=np.int64)
    candidates = candidates[candidates != original]
    if filtered:
        heads, tails = (candidates, t.tail) if side is Side.HEAD else (t.head, candidates)
        candidates = candidates[~store.contains(heads, RELATION_INDEX[t.relation], tails)]
    return candidates


def sample_corrupt(
    store: TripleStore,
    t: Triple,
    n: int,
    side: Side,
    pool: CandidatePool = CandidatePool.SAME_KIND,
    filtered: bool = False,
    rng_seed: int = 0,
) -> np.ndarray:
    """Draw up to n replacement ordinals for `side` of `t`, as int64 in draw order.

    Candidates are drawn uniformly without replacement from
    `corruption_candidates(store, t, side, pool, filtered)`. When the pool
    holds fewer than n candidates, all of them are returned (in seeded
    order); an empty pool raises PoolTooSmall.
    """
    if n < 1:
        raise InvalidConfig("n must be >= 1")
    candidates = corruption_candidates(store, t, side, pool, filtered)
    if len(candidates) == 0:
        raise PoolTooSmall(f"no candidates for {side.value} of {t.relation.value}")
    rng = np.random.default_rng(rng_seed)
    return rng.choice(candidates, size=min(n, len(candidates)), replace=False)


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

    code = RELATION_INDEX
    rows = [(subsections[c % n_sub].ordinal, code[RelationKind.COMPRISE], g.ordinal) for c, g in enumerate(groups)]
    for c in range(communities):
        n_inv = inventors_per_community
        inv_pick = rng.integers(0, n_inv, size=patents_per_community)
        # second, distinct co-inventor when the community has one to give
        inv_pick2 = (inv_pick + rng.integers(1, n_inv, size=patents_per_community)) % n_inv if n_inv > 1 else None
        own_pick = rng.integers(0, assignees_per_community, size=patents_per_community)
        for i, patent in enumerate(patents[c]):
            rows.append((groups[c].ordinal, code[RelationKind.CONTAIN], patent.ordinal))
            rows.append((inventors[c][int(inv_pick[i])].ordinal, code[RelationKind.WRITE], patent.ordinal))
            if inv_pick2 is not None:
                rows.append((inventors[c][int(inv_pick2[i])].ordinal, code[RelationKind.WRITE], patent.ordinal))
            rows.append((assignees[c][int(own_pick[i])].ordinal, code[RelationKind.OWN], patent.ordinal))

    ordinals = np.array([p.ordinal for comm in patents for p in comm], dtype=np.int64)
    community_of = np.repeat(np.arange(communities), patents_per_community)
    n_pat = len(ordinals)
    draws = rng.random((n_pat, n_pat))
    prob = np.where(
        community_of[:, None] == community_of[None, :], intra_cite_prob, inter_cite_prob
    )
    np.fill_diagonal(prob, 0.0)
    i, j = np.nonzero(draws < prob)
    cites = np.stack([ordinals[i], np.full(len(i), code[RelationKind.CITE]), ordinals[j]], axis=1)
    store.add_triples(*np.concatenate([np.array(rows, dtype=np.int64), cites]).T)
    return store
