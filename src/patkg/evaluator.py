"""Entity-prediction evaluation by corrupt-triple ranking.

For each test triple and requested side the true entity is ranked among
K sampled corruptions; MR, MRR and Hits@{1,3,10} aggregate the ranks.
Ties on the exact score get the midpoint rank by default. Corruptions
are seeded per (seed, triple, side), so processing order cannot change
the report. Each query draws as `np.random.default_rng` seeded with the
query's 64-bit BLAKE2b key would: `evaluate` derives all its queries'
PCG64 states in one vectorized pass (`_pcg64_states`) and sets each on
one generator it owns.
"""

from __future__ import annotations

import hashlib
import logging
import struct
from dataclasses import dataclass, field
from enum import Enum

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
    check_ends,
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


@dataclass(frozen=True, slots=True)
class RankRecord:
    triple: Triple
    side: Side
    rank: float
    n_corrupts: int


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
    records: list[RankRecord] = field(default_factory=list)
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


def _record_seed(seed: int, triple: Triple, side: Side) -> int:
    payload = struct.pack(
        "<qqqqq",
        seed,
        triple.head,
        RELATION_INDEX[triple.relation],
        triple.tail,
        0 if side is Side.HEAD else 1,
    )
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


# SeedSequence's and PCG64's seeding constants (numpy/random/bit_generator.pyx, pcg64.h).
_XSHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U128 = (1 << 128) - 1


def _hash_consts(init: int, mult: int, n: int) -> list[np.uint32]:
    """The n + 1 values a SeedSequence hash constant steps through: init times mult**i mod 2**32."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return [np.uint32(h) for h in out]


_POOL_HASH = _hash_consts(0x43B0D7E5, 0x931E8875, 16)  # 4 pool fills, then 12 cross mixes
_STATE_HASH = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)  # 8 output words


def _hashmix(words: np.ndarray, consts: list[np.uint32], i: int) -> np.ndarray:
    words = (words ^ consts[i]) * consts[i + 1]
    return words ^ (words >> _XSHIFT)


def _pcg64_states(seeds: list[int]) -> list[tuple[int, int]]:
    """(state, inc) of `np.random.default_rng(seed).bit_generator` for each seed in [0, 2**64).

    SeedSequence(seed) hashes the seed's two 32-bit words and two zero words into a four-word
    pool (one word or two give the same pool), mixes every pool word into every other, and hashes
    the pool into eight output words: PCG64's initial state and stream as two 128-bit ints. PCG64
    then takes two LCG steps. The 32-bit steps run on all seeds at once as uint32 arrays, whose
    products wrap as numpy's C code does; the two LCG steps run on Python ints.
    """
    s = np.array(seeds, dtype=np.uint64)
    zeros = np.zeros(len(s), dtype=np.uint32)
    words = (s.astype(np.uint32), (s >> np.uint64(32)).astype(np.uint32), zeros, zeros)
    pool = [_hashmix(w, _POOL_HASH, i) for i, w in enumerate(words)]
    i = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], _POOL_HASH, i)
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
                i += 1
    out = [_hashmix(pool[j % 4], _STATE_HASH, j).astype(np.uint64) for j in range(8)]
    hi_s, lo_s, hi_inc, lo_inc = ((out[2 * j] | out[2 * j + 1] << np.uint64(32)).tolist() for j in range(4))
    states = []
    for a, b, c, d in zip(hi_s, lo_s, hi_inc, lo_inc):
        inc = ((c << 64 | d) << 1 | 1) & _U128
        states.append((((inc + (a << 64 | b)) * _PCG_MULT + inc) & _U128, inc))
    return states


def _metrics(sorted_ranks: np.ndarray) -> RelationMetrics:
    """MR, MRR and Hits@k of ranks sorted ascending, which makes the sums independent of processing order."""
    return RelationMetrics(
        queries=int(sorted_ranks.size),
        mr=float(sorted_ranks.mean()),
        mrr=float((1.0 / sorted_ranks).mean()),
        hits={k: float((sorted_ranks <= k).mean()) for k in HITS_CUTOFFS},
    )


def evaluate(
    params: ModelParams,
    test: list[Triple],
    store: TripleStore,
    config: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Rank every test triple on the requested sides and aggregate.

    Each query draws its corruptions with `sample_corrupt`, in the state
    `np.random.default_rng(_record_seed(config.seed, triple, side))` would
    start from. When K exceeds a triple's candidate pool it is clamped to
    the pool (with a warning), which makes the ranking exhaustive for that
    query; a query with an empty pool is skipped. The report counts both.
    UnknownEntity names the first test triple, in test order, with an
    ordinal outside the vocabulary.
    """
    if not test:
        raise EmptyTestSet("no test triples")
    check_fingerprint(params, store.vocab)
    for triple in test:
        check_ends(store, triple)  # before any key is packed: every ordinal fits int64

    queries = [(triple, side) for triple in test for side in _SIDES[config.sides]]
    states = _pcg64_states([_record_seed(config.seed, triple, side) for triple, side in queries])
    bits = np.random.PCG64()
    rng = np.random.Generator(bits)
    skipped = 0
    records: list[RankRecord] = []
    for (triple, side), (state, inc) in zip(queries, states):
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        try:
            corrupts = sample_corrupt(store, triple, config.corruptions_per_side, side, pool=config.pool,
                                      filtered=config.filtered, rng=rng)
        except PoolTooSmall:
            skipped += 1  # nothing to corrupt with; query is unrankable
            continue
        rank = rank_target(params, triple, side, corrupts, config.tie_rule)
        records.append(RankRecord(triple, side, rank, len(corrupts)))
    if not records:
        raise PoolTooSmall("every query had an empty corruption pool")
    clamped = sum(r.n_corrupts < config.corruptions_per_side for r in records)
    if skipped:
        log.warning("skipped %d queries with an empty corruption pool", skipped)
    if clamped:
        log.warning(
            "K=%d exceeded the candidate pool for %d of %d queries; clamped to exhaustive ranking",
            config.corruptions_per_side, clamped, len(records),
        )

    ranks = np.array([r.rank for r in records])
    codes = np.array([RELATION_INDEX[r.triple.relation] for r in records])
    order = np.lexsort((ranks, codes))  # by relation, then rank: one ascending slice per relation
    ranks = ranks[order]
    bounds = np.searchsorted(codes[order], np.arange(len(RELATIONS) + 1))
    per_relation = {rel: _metrics(ranks[lo:hi]) for rel, lo, hi in zip(RELATIONS, bounds, bounds[1:]) if hi > lo}
    overall = _metrics(np.sort(ranks))
    return EvalReport(
        mr=overall.mr,
        mrr=overall.mrr,
        hits=overall.hits,
        n_queries=len(records),
        per_relation=per_relation,
        config=config,
        records=records,
        clamped=clamped,
        skipped=skipped,
    )
