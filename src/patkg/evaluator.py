"""Entity-prediction evaluation by corrupt-triple ranking.

For each test triple and requested side the true entity is ranked among
K sampled corruptions; MR, MRR and Hits@{1,3,10} aggregate the ranks.
Ties on the exact score get the midpoint rank by default. Corruptions
are seeded per (seed, triple, side), so processing order cannot change
the report: `_record_state` hashes the query with BLAKE2b into a PCG64
state and odd increment, and `evaluate` sets each on one generator it owns.
"""

from __future__ import annotations

import hashlib
import logging
import struct
from dataclasses import dataclass
from enum import Enum
from itertools import product

import numpy as np

from .archive import check_fingerprint
from .errors import EmptyTestSet, InvalidConfig, PoolTooSmall
from .graph import (
    CandidatePool,
    RELATION_INDEX,
    RELATIONS,
    RelationKind,
    Side,
    Triple,
    TripleStore,
    _range_rule,
    _unknown_row,
    sample_corrupt,
)
from .models import ModelParams, _rows

log = logging.getLogger(__name__)

HITS_CUTOFFS = (1, 3, 10)


class Sides(Enum):
    HEAD_ONLY = "head"
    TAIL_ONLY = "tail"
    BOTH = "both"


class TieRule(Enum):
    MIDPOINT = "midpoint"
    OPTIMISTIC = "optimistic"
    PESSIMISTIC = "pessimistic"


_SIDES = {Sides.HEAD_ONLY: (Side.HEAD,), Sides.TAIL_ONLY: (Side.TAIL,), Sides.BOTH: (Side.HEAD, Side.TAIL)}
_SIDE_CODES = {Side.HEAD: 0, Side.TAIL: 1}  # a query's side in its key and in `EvalReport.records`
_TIE_SHARE = {TieRule.MIDPOINT: 0.5, TieRule.OPTIMISTIC: 0.0, TieRule.PESSIMISTIC: 1.0}  # of ties ranked above


@dataclass(frozen=True, slots=True)
class EvalConfig:
    corruptions_per_side: int = 100
    sides: Sides = Sides.BOTH
    pool: CandidatePool = CandidatePool.SAME_KIND
    filtered: bool = False
    seed: int = 0
    tie_rule: TieRule = TieRule.MIDPOINT

    def __post_init__(self) -> None:
        if self.corruptions_per_side < 1:
            raise InvalidConfig("corruptions_per_side must be >= 1")
        if not -2**63 <= self.seed < 2**63:  # packed as a signed 64-bit key part
            raise InvalidConfig(f"seed {self.seed} outside [-2**63, 2**63)")


@dataclass(slots=True)
class RelationMetrics:
    queries: int
    mr: float
    mrr: float
    hits: dict[int, float]


@dataclass(slots=True)
class EvalReport:
    mr: float
    mrr: float
    hits: dict[int, float]
    n_queries: int
    per_relation: dict[RelationKind, RelationMetrics]
    config: EvalConfig
    # per ranked query, in query order: test row, side code (`_SIDE_CODES`), rank, corruption count
    records: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    clamped: int = 0  # queries whose pool held fewer than K candidates, ranked exhaustively
    skipped: int = 0  # queries with an empty pool, left unranked


def rank_target(
    params: ModelParams,
    triple: Triple,
    side: Side,
    corrupts: np.ndarray,
    tie_rule: TieRule = TieRule.MIDPOINT,
) -> float:
    """Rank of the true entity among the replacement ordinals `corrupts` for `side` (1 is best).

    Scores one `_rows` gather of the original and corrupt rows and as many copies of the fixed
    row with the model's kernel; UnknownOrdinal if `triple` or `corrupts` names a row outside
    the entity table.
    """
    original, fixed = (triple.head, triple.tail) if side is Side.HEAD else (triple.tail, triple.head)
    k = len(corrupts) + 1
    rows = _rows(params, [original], corrupts, np.full(k, fixed))
    H, T = (rows[:k], rows[k:]) if side is Side.HEAD else (rows[k:], rows[:k])
    s = params.spec.score(H, T, params.relations[triple.relation])
    better = int(np.count_nonzero(s[1:] > s[0]))  # a numpy int would make the rank a numpy float
    ties = int(np.count_nonzero(s[1:] == s[0]))
    return 1.0 + better + ties * _TIE_SHARE[tie_rule]


def _record_state(seed: int, triple: Triple, side: Side) -> tuple[int, int]:
    """PCG64 (state, inc) of one query: the first and last 16 bytes of the query's 32-byte BLAKE2b
    key, read little-endian, the increment made odd, which gives the stream its full period."""
    payload = struct.pack("<5q", seed, triple.head, RELATION_INDEX[triple.relation], triple.tail, _SIDE_CODES[side])
    digest = hashlib.blake2b(payload, digest_size=32).digest()
    return int.from_bytes(digest[:16], "little"), int.from_bytes(digest[16:], "little") | 1


def _metrics(sorted_ranks: np.ndarray) -> RelationMetrics:
    """MR, MRR and Hits@k of ranks sorted ascending, which makes the sums independent of processing order."""
    return RelationMetrics(
        queries=int(sorted_ranks.size),
        mr=float(sorted_ranks.mean()),
        mrr=float((1.0 / sorted_ranks).mean()),
        hits={k: float((sorted_ranks <= k).mean()) for k in HITS_CUTOFFS},
    )


def evaluate(params: ModelParams, test, store: TripleStore, config: EvalConfig = EvalConfig()) -> EvalReport:
    """Rank every row of `test`, equal-length (heads, relation codes, tails) int columns such as
    `split`'s, on the requested sides and aggregate.

    Each query draws its corruptions with `sample_corrupt` from a PCG64 generator set to
    `_record_state(config.seed, triple, side)`, so its draws depend on nothing else. When K exceeds
    a query's pool it is clamped to the pool (with a warning), ranking it exhaustively; a query with
    an empty pool is skipped. The report counts both. Before any query, the first row that
    `TripleStore.add_triples`' range rule refuses, even an int beyond int64, raises UnknownEntity.
    """
    columns, in_range = _range_rule(*test, len(store.vocab))
    if len(in_range) == 0:
        raise EmptyTestSet("no test triples")
    check_fingerprint(params, store.vocab)
    if not in_range.all():
        raise _unknown_row(columns, int(np.argmin(in_range)))
    heads, rels, tails = columns
    triples = [Triple(h, RELATIONS[r], t) for h, r, t in zip(heads.tolist(), rels.tolist(), tails.tolist())]

    bits = np.random.PCG64()
    rng = np.random.Generator(bits)
    skipped = 0
    ranked = []  # (test row, side code, rank, corruption count) per ranked query
    for (row, triple), side in product(enumerate(triples), _SIDES[config.sides]):
        state, inc = _record_state(config.seed, triple, side)
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        try:
            corrupts = sample_corrupt(store, triple, config.corruptions_per_side, side, pool=config.pool,
                                      filtered=config.filtered, rng=rng)
        except PoolTooSmall:
            skipped += 1  # nothing to corrupt with; query is unrankable
            continue
        rank = rank_target(params, triple, side, corrupts, config.tie_rule)
        ranked.append((row, _SIDE_CODES[side], rank, len(corrupts)))
    if not ranked:
        raise PoolTooSmall("every query had an empty corruption pool")
    records = rows, _, ranks, n_corrupts = tuple(np.array(column) for column in zip(*ranked))
    clamped = int(np.count_nonzero(n_corrupts < config.corruptions_per_side))
    if skipped:
        log.warning("skipped %d queries with an empty corruption pool", skipped)
    if clamped:
        log.warning(
            "K=%d exceeded the candidate pool for %d of %d queries; clamped to exhaustive ranking",
            config.corruptions_per_side, clamped, len(ranks),
        )

    codes = rels[rows]
    order = np.lexsort((ranks, codes))  # by relation, then rank: one ascending slice per relation
    ranks = ranks[order]
    bounds = np.searchsorted(codes[order], np.arange(len(RELATIONS) + 1))
    per_relation = {rel: _metrics(ranks[lo:hi]) for rel, lo, hi in zip(RELATIONS, bounds, bounds[1:]) if hi > lo}
    overall = _metrics(np.sort(ranks))
    return EvalReport(
        mr=overall.mr,
        mrr=overall.mrr,
        hits=overall.hits,
        n_queries=len(ranks),
        per_relation=per_relation,
        config=config,
        records=records,
        clamped=clamped,
        skipped=skipped,
    )
