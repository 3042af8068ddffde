"""Entity-prediction evaluation by corrupt-triple ranking.

For each test triple and requested side the true entity is ranked among
K sampled corruptions; MR, MRR and Hits@{1,3,10} aggregate the ranks.
Ties on the exact score get the midpoint rank by default. Corruptions
are seeded per (seed, triple, side), so processing order cannot change
the report: `_record_state` hashes the query with BLAKE2b into a PCG64
state and odd increment, and `evaluate` sets each on one generator it owns.
Queries are drawn one at a time and scored in blocks: `_rank_block` ranks
queries of one relation, side and corruption count with one gather and one
kernel call on (q, k, d) stacks, which give each query the bits of its own
call, so a rank does not depend on the block it was scored in.
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
from .models import ModelParams, _ordinals, _rows

log = logging.getLogger(__name__)

HITS_CUTOFFS = (1, 3, 10)
# Float64 entries of the candidate rows one scoring call takes (384 KiB): about 9 queries of K=100
# at dim 50, 4 for the complex models. Smaller and larger blocks both ranked slower on a 2-core host.
BLOCK_VALUES = 48 * 1024
HELD_DRAWS = 2**20  # drawn corruptions held unranked at most (8 MiB), whatever K and the pools are


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


def _rank_block(params: ModelParams, relation: RelationKind, side: Side, fixed: np.ndarray,
                candidates: np.ndarray, tie_share: float) -> np.ndarray:
    """Ranks of the first entity of each row of `candidates` among the row's others (1 is best):
    (q, k) ordinals for `side` of q queries on `relation`, whose other ends are the q `fixed`.

    One `_rows` gather of the candidates and k copies of each fixed end, scored as (q, k, d) stacks
    of H and T. The kernels reduce over the last axis and numpy's matmul runs one GEMM per (k, d)
    slice, so each query's scores have the bits of a call on its rows alone.
    """
    q, k = candidates.shape
    rows = _rows(params, candidates.reshape(-1), np.repeat(fixed, k))
    replaced, kept = rows.reshape(2, q, k, -1)
    H, T = (replaced, kept) if side is Side.HEAD else (kept, replaced)
    s = params.spec.score(H, T, params.relations[relation])
    better = (s[:, 1:] > s[:, :1]).sum(axis=1)
    ties = (s[:, 1:] == s[:, :1]).sum(axis=1)
    return 1.0 + better + ties * tie_share


def rank_target(
    params: ModelParams,
    triple: Triple,
    side: Side,
    corrupts: np.ndarray,
    tie_rule: TieRule = TieRule.MIDPOINT,
) -> float:
    """Rank of the true entity among the replacement ordinals `corrupts` for `side` (1 is best):
    `_rank_block` of one query. UnknownOrdinal if `triple` or `corrupts` names a row outside the
    entity table."""
    original, fixed = (triple.head, triple.tail) if side is Side.HEAD else (triple.tail, triple.head)
    ends = _ordinals(params, [fixed, original], corrupts)
    return float(_rank_block(params, triple.relation, side, ends[:1], ends[None, 1:], _TIE_SHARE[tie_rule])[0])


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
    an empty pool is skipped. The report counts both. Queries of one relation, side and corruption
    count are ranked together by `_rank_block`, about BLOCK_VALUES candidate entries at a time, once
    every query has drawn or HELD_DRAWS corruptions are pending; buffers are sized by the draws,
    never by K. Before any query, the first row that `TripleStore.add_triples`' range rule refuses,
    even an int beyond int64, raises UnknownEntity.
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
    skipped = held = 0
    queries = []  # (test row, side code, corruption count) per ranked query
    ranks = np.empty(len(triples) * len(_SIDES[config.sides]))  # its rank, in the first len(queries)
    pending = {}  # (relation, side, corruption count) -> unranked (query, fixed end, original end, corruptions)

    def rank_pending():
        for (relation, side, n), block in pending.items():
            step = max(1, BLOCK_VALUES // ((n + 1) * params.row_dim))
            for lo in range(0, len(block), step):
                at, fixed, originals, corrupts = zip(*block[lo : lo + step])
                candidates = np.empty((len(at), n + 1), dtype=np.int64)
                candidates[:, 0], candidates[:, 1:] = originals, corrupts
                ranks[list(at)] = _rank_block(params, relation, side, fixed, candidates, _TIE_SHARE[config.tie_rule])
        pending.clear()

    for (row, triple), side in product(enumerate(triples), _SIDES[config.sides]):
        state, inc = _record_state(config.seed, triple, side)
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        try:
            corrupts = sample_corrupt(store, triple, config.corruptions_per_side, side, pool=config.pool,
                                      filtered=config.filtered, rng=rng)
        except PoolTooSmall:
            skipped += 1  # nothing to corrupt with; query is unrankable
            continue
        original, fixed = (triple.head, triple.tail) if side is Side.HEAD else (triple.tail, triple.head)
        block = pending.setdefault((triple.relation, side, len(corrupts)), [])
        block.append((len(queries), fixed, original, corrupts))
        queries.append((row, _SIDE_CODES[side], len(corrupts)))
        held += len(corrupts)
        if held >= HELD_DRAWS:
            rank_pending()
            held = 0
    rank_pending()
    if not queries:
        raise PoolTooSmall("every query had an empty corruption pool")
    rows, side_codes, n_corrupts = (np.array(column) for column in zip(*queries))
    ranks = ranks[: len(queries)]
    records = rows, side_codes, ranks, n_corrupts
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
