"""Typed triple store for the five-relation patent metadata graph.

Entities come in five kinds and facts in five relation kinds, each with a
fixed (head kind, tail kind) schema. The store keeps its triples as int
columns plus sorted packed keys, supports deterministic train/test
splitting and corrupt triple sampling, and ships a planted-community
synthetic generator for desk-scale experiments.
"""

from __future__ import annotations

import hashlib
import math
import operator
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from itertools import count, filterfalse, repeat

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
KINDS = list(EntityKind)
KIND_INDEX = {k: i for i, k in enumerate(EntityKind)}
_KIND_CODES = {k.value: i for i, k in enumerate(EntityKind)}
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
        if self.seed < 0:
            raise InvalidConfig(f"split seed must be >= 0, got {self.seed}")


def _breaks(text: str) -> bool:
    """Whether `text` holds a tab, `\\n` or `\\r`, which no label may: it would not read back from a file."""
    return "\t" in text or "\n" in text or "\r" in text


def _unencodable(text: str) -> bool:
    """Whether `text` holds a lone surrogate, which no label may: no UTF-8 file can hold it."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def parse_label(label: str, where: str = "") -> tuple[int, str]:
    """(KIND_INDEX code, source id) of a `kind:source_id` label; `where` prefixes the ParseError."""
    kind_text, sep, source_id = label.partition(":")
    if not sep:
        raise ParseError(f"{where}entity token {label!r} lacks ':'")
    code = _KIND_CODES.get(kind_text)
    if code is None:
        raise ParseError(f"{where}unknown entity kind {kind_text!r}")
    if _breaks(label):
        raise ParseError(f"{where}entity token {label!r} holds a tab or line break")
    if _unencodable(label):
        raise ParseError(f"{where}entity token {label!r} holds a lone surrogate")
    return code, source_id


def label_kinds(labels: Iterable[str]) -> list[int | None]:
    """`parse_label`'s KIND_INDEX code of each label, None for a label it rejects. Tabs, line breaks
    and lone surrogates are looked for in all the labels joined (one strict UTF-8 encode finds a
    surrogate), and label by label only if the join holds one."""
    labels = list(labels)
    codes = [_KIND_CODES.get(kind) if sep else None for kind, sep, _ in map(str.partition, labels, repeat(":"))]
    joined = "".join(labels)
    if _breaks(joined) or _unencodable(joined):
        codes = [None if _breaks(label) or _unencodable(label) else code for label, code in zip(labels, codes)]
    return codes


class Vocabulary:
    """Dense ordinal-indexed registry of entities, keyed by their `kind:source_id` label.

    Ordinals are assigned in first-seen order, which the export format
    preserves so a vocabulary round-trips exactly. Each entity is stored
    once, as its label and its kind code.
    """

    def __init__(self) -> None:
        self.ordinals: dict[str, int] = {}  # label -> ordinal, in ordinal order; read-only to callers
        self.kinds = array("b")  # KIND_INDEX code per ordinal; read-only to callers
        self._derived: dict = {}  # "labels", "refs", "fingerprint", per-EntityKind ordinals; dropped by every new entity

    def __len__(self) -> int:
        return len(self.kinds)

    def add_label(self, label: str) -> int:
        """Register the `kind:source_id` label if new; return its ordinal either way."""
        if label not in self.ordinals:
            parse_label(label)  # raises ParseError for a label `add_labels` would refuse
            self.add_labels([label])
        return self.ordinals[label]

    def add_labels(self, labels: Iterable[str]) -> bool:
        """Register unknown labels in first-seen order, all or none: False if `parse_label` rejects one."""
        new = [*filterfalse(self.ordinals.__contains__, dict.fromkeys(labels))]
        codes = label_kinds(new)
        if None in codes:
            return False
        self.ordinals.update(zip(new, range(len(self.kinds), len(self.kinds) + len(new))))
        self.kinds.extend(codes)
        self._derived.clear()
        return True

    def add(self, kind: EntityKind, source_id: str) -> EntityRef:
        """Register (kind, source_id) if new; return its EntityRef either way."""
        return EntityRef(kind, source_id, self.add_label(f"{kind.value}:{source_id}"))

    def ref(self, ordinal: int) -> EntityRef:
        """The EntityRef of one ordinal, built on each call; UnknownEntity outside the vocabulary."""
        ordinal = operator.index(ordinal)
        if not 0 <= ordinal < len(self.kinds):
            raise UnknownEntity(f"ordinal {ordinal} not in vocabulary")
        return EntityRef(KINDS[self.kinds[ordinal]], self.labels[ordinal].partition(":")[2], ordinal)

    @property
    def labels(self) -> list[str]:
        """Every label in ordinal order, derived on read: a snapshot, so re-read it after `add`."""
        if "labels" not in self._derived:
            self._derived["labels"] = list(self.ordinals)
        return self._derived["labels"]

    @property
    def refs(self) -> list[EntityRef]:
        """`ref` of every ordinal, derived on read: a snapshot, so re-read it after `add`."""
        if "refs" not in self._derived:
            self._derived["refs"] = [self.ref(ordinal) for ordinal in range(len(self))]
        return self._derived["refs"]

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
        ordinals = self._derived.get(kind)
        if ordinals is None:
            ordinals = self._derived[kind] = np.flatnonzero(np.array(self.kinds, dtype=np.int8) == KIND_INDEX[kind])
            ordinals.flags.writeable = False
        return ordinals

    def export_text(self) -> str:
        """`<ordinal>\\t<kind>:<source_id>\\n` per ordinal: a sidecar or an archive's vocabulary block."""
        return "".join([_export_line(i, label) + "\n" for i, label in enumerate(self.labels)])

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> Vocabulary:
        """Inverse of `export_text`; lines may keep their trailing newline, as an open file yields them.

        Blank lines are skipped. Every other line must be as `export_text` writes it: its ordinal
        among the kept lines, a tab and a new label `parse_label` accepts. The first line that is
        not raises ParseError with its 1-based number among `lines`, also as the error's `line`.
        """
        lines = [line.rstrip("\n") for line in lines]
        kept = [line for line in lines if line.strip()]
        labels = [line.partition("\t")[2] for line in kept]
        vocab = cls()
        vocab.ordinals.update(zip(labels, count()))
        codes, exported = label_kinds(vocab.ordinals), map(_export_line, count(), labels)
        if len(vocab.ordinals) < len(labels) or None in codes or not all(map(str.__eq__, kept, exported)):
            numbers, first = (number for number, line in enumerate(lines, 1) if line.strip()), {}
            for number, ordinal, line, label in zip(numbers, count(), kept, labels):
                if (line != _export_line(ordinal, label) or first.setdefault(label, ordinal) != ordinal
                        or label_kinds([label]) == [None]):
                    error = ParseError(f"vocabulary line {number}: {line!r} is not <ordinal>\\t<kind>:<id> "
                                       f"with ordinal {ordinal} and a new label")
                    error.line = number
                    raise error
        vocab.kinds.extend(codes)
        vocab._derived["fingerprint"] = _sha256("\n".join(kept + [""]))  # the lines are the export text it hashes
        return vocab

    def fingerprint(self) -> str:
        """SHA-256 of `export_text`."""
        if "fingerprint" not in self._derived:
            self._derived["fingerprint"] = _sha256(self.export_text())
        return self._derived["fingerprint"]


def _export_line(ordinal: int, label: str) -> str:
    """One vocabulary line as `export_text` writes it, less its newline."""
    return f"{ordinal}\t{label}"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pack_keys(heads, rels, tails) -> np.ndarray:
    """One int64 key per triple, ordered as (relation, head, tail): rel << 58 | head << 29 | tail."""
    return (rels << 58) | (heads << 29) | tails


def first_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mask of the first row holding each key, the keys sorted), from one stable argsort."""
    order = np.argsort(keys, kind="stable")  # a key's first row comes first among its equals
    ordered, first = keys[order], np.empty(len(keys), dtype=bool)
    first[order] = np.r_[True, ordered[1:] != ordered[:-1]][:len(keys)]
    return first, ordered


def _int_column(values) -> np.ndarray:
    """A triple column as int64, or as Python ints when one lies beyond int64. Anything but a
    one-dimensional column of integers (a float or bool column, say) raises InvalidConfig."""
    column = given = np.asarray(values)
    integral = given.dtype.kind == "i" or given.size == 0
    if not integral:  # numpy reads a list holding an int beyond int64 as uint64, float64 or object
        column = np.array(values, dtype=object)
        integral = all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in column.flat)
    if given.ndim != 1 or not integral:
        raise InvalidConfig(f"a triple column must be one-dimensional integers, got {given.dtype} {given.shape}")
    try:
        return column.astype(np.int64, copy=False)
    except OverflowError:
        return column


def _range_rule(heads, rels, tails, n: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The columns, and whether each row names ordinals in [0, n) and a relation code. Columns of unequal
    length raise InvalidConfig; if every row is in range, every column is int64."""
    h, r, t = columns = tuple(map(_int_column, (heads, rels, tails)))
    if not len(h) == len(r) == len(t):
        raise InvalidConfig(f"triple columns differ in length: {len(h)}, {len(r)}, {len(t)}")
    return columns, (h >= 0) & (h < n) & (t >= 0) & (t < n) & (r >= 0) & (r < len(RELATIONS))


def _unknown_row(columns: tuple[np.ndarray, ...], i: int) -> UnknownEntity:
    row = tuple(int(c[i]) for c in columns)
    error = UnknownEntity(f"row {row}: ordinal outside the vocabulary or unknown relation")
    error.row = i
    return error


class TripleStore:
    """Set of schema-valid triples: read-only int64 columns `heads`, `rels`
    (`RELATION_INDEX` codes) and `tails` in insertion order, plus the sorted
    `pack_keys` of every triple for membership by binary search. Entity
    ordinals must stay below 2**29 (about 537M entities) for keys to be unique.
    The keys in (relation, tail, head) order, which `known_ends` needs for
    heads, are sorted on its first call for them and dropped by `add_triples`.

    Construction is single-writer; afterwards the store is treated as
    immutable and is safe for parallel readers. Sampling takes explicit
    seeds and is pure.
    """

    def __init__(self, vocab: Vocabulary | None = None) -> None:
        self.vocab = vocab if vocab is not None else Vocabulary()
        self.heads = self.rels = self.tails = self._keys = np.zeros(0, dtype=np.int64)
        self._keys_by_tail: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.heads)

    @property
    def triples(self) -> list[Triple]:
        """Every triple in insertion order, built anew on each read."""
        columns = self.heads.tolist(), self.rels.tolist(), self.tails.tolist()
        return [Triple(h, RELATIONS[r], t) for h, r, t in zip(*columns)]

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
        """Append (head, relation code, tail) rows, all or none; non-integer or unequal columns raise InvalidConfig.

        The row rules, in check order: name vocabulary ordinals and a relation code
        (UnknownEntity), fit the relation's schema, do not cite yourself (SchemaViolation),
        repeat neither a stored triple nor an earlier row (DuplicateTriple). The first
        failing row raises for the first rule it breaks; the exception's `row` is its index.
        Ordinals are checked as given, so an int beyond int64 breaks the first rule too.
        """
        columns, in_range = _range_rule(heads, rels, tails, len(self.vocab))
        # a row out of range reads 0 in every int64 column: it breaks the first rule whatever it reads
        heads, rels, tails = columns if in_range.all() else [np.where(in_range, c, 0).astype(np.int64) for c in columns]
        keys = pack_keys(heads, rels, tails)
        # (head, tail) kinds against the relation's; the appended -1 is read as entity 0 of an empty vocabulary
        kinds = np.append(np.array(self.vocab.kinds, dtype=np.int8), -1)[np.stack([heads, tails])]
        off_schema = (kinds != _SCHEMA_CODES[rels].T).any(axis=0)
        self_cite = (rels == RELATION_INDEX[RelationKind.CITE]) & (heads == tails)
        first, ordered = first_rows(keys)
        duplicate = ~first | self.contains(heads, rels, tails)  # repeats an earlier row or a stored triple
        rule = np.select([~in_range, off_schema, self_cite, duplicate], [1, 2, 3, 4])
        if rule.any():
            i = int(np.argmax(rule > 0))
            h, r, t = int(heads[i]), int(rels[i]), int(tails[i])
            if rule[i] == 1:
                error = _unknown_row(columns, i)
            elif rule[i] == 2:
                (want_head, want_tail), kinds = RELATION_SCHEMA[RELATIONS[r]], self.vocab.kinds
                error = SchemaViolation(f"{RELATIONS[r].value} requires {want_head.value}->{want_tail.value}, "
                                        f"got {KINDS[kinds[h]].value}->{KINDS[kinds[t]].value}")
            elif rule[i] == 3:
                error = SchemaViolation(f"self-citation: {Triple(h, RELATIONS[r], t)}")
            else:
                error = DuplicateTriple(f"{Triple(h, RELATIONS[r], t)}")
            error.row = i
            raise error
        self.heads = np.concatenate([self.heads, heads])
        self.rels = np.concatenate([self.rels, rels])
        self.tails = np.concatenate([self.tails, tails])
        if len(self._keys):  # merge the new keys into the stored ones
            ordered = np.insert(self._keys, self._keys.searchsorted(ordered), ordered)
        self._keys = ordered
        self._keys_by_tail = None
        for column in (self.heads, self.rels, self.tails, self._keys):
            column.flags.writeable = False

    def known_ends(self, side: Side, rel: int, fixed: int) -> np.ndarray:
        """Ascending ordinals x such that (x, rel, fixed) is stored, for `side` HEAD, or
        (fixed, rel, x), for TAIL: the low bits of one slice of keys sorted with `fixed`
        in their middle field."""
        if side is Side.TAIL:
            keys = self._keys
        else:
            if self._keys_by_tail is None:
                self._keys_by_tail = np.sort(pack_keys(self.tails, self.rels, self.heads))
            keys = self._keys_by_tail
        start = (rel << 58) + (fixed << 29)
        return keys[keys.searchsorted(start):keys.searchsorted(start + (1 << 29))] & ((1 << 29) - 1)

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


def split(store: TripleStore, spec: SplitSpec) -> tuple[TripleStore, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Partition the store into a train store and the held-out (heads, relation codes, tails) int64 columns.

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
    return train, (store.heads[held], store.rels[held], store.tails[held])


def corruption_candidates(
    store: TripleStore, t: Triple, side: Side, pool: CandidatePool, filtered: bool
) -> np.ndarray:
    """Ascending ordinals that may replace `side` of `t`: the pool minus the original
    entity and, if `filtered`, minus every entity that would rebuild a stored triple.
    UnknownEntity if `t` names an ordinal outside the vocabulary."""
    vocab = store.vocab
    if not (0 <= t.head < len(vocab) and 0 <= t.tail < len(vocab)):
        raise UnknownEntity(f"{t}: ordinal outside the vocabulary")
    original, fixed = (t.head, t.tail) if side is Side.HEAD else (t.tail, t.head)
    if pool is CandidatePool.SAME_KIND:
        candidates = vocab.ordinals_of_kind(KINDS[vocab.kinds[original]])
    else:
        candidates = np.arange(len(vocab), dtype=np.int64)
    if not filtered:  # every pool holds the original once
        at = candidates.searchsorted(original)
        return np.concatenate((candidates[:at], candidates[at + 1 :]))
    keep = candidates != original
    known = store.known_ends(side, RELATION_INDEX[t.relation], fixed)
    at = np.minimum(candidates.searchsorted(known), len(candidates) - 1)
    keep[at[candidates[at] == known]] = False
    return candidates[keep]


def sample_corrupt(
    store: TripleStore,
    t: Triple,
    n: int,
    side: Side,
    pool: CandidatePool = CandidatePool.SAME_KIND,
    filtered: bool = False,
    rng_seed: int = 0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Draw up to n replacement ordinals for `side` of `t`, as int64 in draw order.

    Candidates are drawn uniformly without replacement from
    `corruption_candidates(store, t, side, pool, filtered)`, by `rng` when
    given and else by `np.random.default_rng(rng_seed)`, whose seeds are the
    integers in [0, 2**64). When the pool holds fewer than n candidates, all
    of them are returned (in seeded order); an empty pool raises PoolTooSmall.
    """
    if n < 1:
        raise InvalidConfig("n must be >= 1")
    if rng is None and not 0 <= rng_seed < 2**64:
        raise InvalidConfig(f"rng_seed {rng_seed} outside [0, 2**64)")
    candidates = corruption_candidates(store, t, side, pool, filtered)
    if len(candidates) == 0:
        raise PoolTooSmall(f"no candidates for {side.value} of {t.relation.value}")
    if rng is None:
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
    add = store.vocab.add_label
    n_sub = math.ceil(communities / 4)
    # classification-style codes: subsection = 3-char prefix of its groups
    sub_codes = [f"{chr(65 + j % 26)}{j // 26:02d}" for j in range(n_sub)]
    subsections = [add(f"subsection:{code}") for code in sub_codes]
    groups = [add(f"group:{sub_codes[c % n_sub]}{chr(65 + c // n_sub)}") for c in range(communities)]

    patents, inventors, assignees = [], [], []  # ordinals per community
    for c in range(communities):
        patents.append([add(f"patent:p{c:03d}_{i:05d}") for i in range(patents_per_community)])
        inventors.append([add(f"inventor:i{c:03d}_{i:04d}") for i in range(inventors_per_community)])
        assignees.append([add(f"assignee:a{c:03d}_{i:03d}") for i in range(assignees_per_community)])

    code = RELATION_INDEX
    rows = [(subsections[c % n_sub], code[RelationKind.COMPRISE], g) for c, g in enumerate(groups)]
    for c in range(communities):
        n_inv = inventors_per_community
        inv_pick = rng.integers(0, n_inv, size=patents_per_community)
        # second, distinct co-inventor when the community has one to give
        inv_pick2 = (inv_pick + rng.integers(1, n_inv, size=patents_per_community)) % n_inv if n_inv > 1 else None
        own_pick = rng.integers(0, assignees_per_community, size=patents_per_community)
        for i, patent in enumerate(patents[c]):
            rows.append((groups[c], code[RelationKind.CONTAIN], patent))
            rows.append((inventors[c][int(inv_pick[i])], code[RelationKind.WRITE], patent))
            if inv_pick2 is not None:
                rows.append((inventors[c][int(inv_pick2[i])], code[RelationKind.WRITE], patent))
            rows.append((assignees[c][int(own_pick[i])], code[RelationKind.OWN], patent))

    ordinals = np.array(patents, dtype=np.int64).ravel()
    community_of = np.repeat(np.arange(communities), patents_per_community)
    n_pat = len(ordinals)
    parts = [np.array(rows, dtype=np.int64)]
    # blocks of citing rows take the stream in the order one n_pat x n_pat draw would
    for start in range(0, n_pat, 256):
        block = np.arange(start, min(start + 256, n_pat))
        prob = np.where(community_of[block, None] == community_of, intra_cite_prob, inter_cite_prob)
        prob[block - start, block] = 0.0
        i, j = np.nonzero(rng.random(prob.shape) < prob)
        parts.append(np.stack([ordinals[i + start], np.full(len(i), code[RelationKind.CITE]), ordinals[j]], axis=1))
    store.add_triples(*np.concatenate(parts).T)
    return store
