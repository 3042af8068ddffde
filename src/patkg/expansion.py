"""Domain-expansion study: proximity percentiles, profiles, AUC, explainability.

An agent's home domains are the classification groups it already holds
patents in, weighted by patent counts. The proximity of the home domain
to a target group j is the patent-count-weighted mean of pairwise group
proximities, which `domain_agent_proximity` computes for every target at once:

    proximity(a, j) = sum_i phi(i, j) * a_i / sum_i a_i      over home i

Targets are ranked by this value, and the rank percentile
(N - r) / (N - 1) of each group the agent actually enters next is
appended to its expansion profile. The cumulative distribution
F(x) = |{pp >= x}| / n of a profile integrates to the profile mean up
to rounding: the AUC used to compare embedding models. Explainability
is the fraction of agents for which a model attains the highest AUC.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .archive import check_fingerprint
from .errors import (
    EmptyHome,
    EmptyPortfolio,
    EmptyProfile,
    InconsistentModelSets,
    InvalidConfig,
    TargetInHome,
    TooFewTargets,
    UnknownGroup,
)
from .graph import EntityKind, EntityRef, Vocabulary
from .ingestion import AgentPortfolio
from .models import ModelParams
from .proximity import pairwise_matrix

log = logging.getLogger(__name__)


@dataclass(slots=True)
class ExpansionProfile:
    entries: list[float] = field(default_factory=list)
    skipped: int = 0  # emissions skipped because fewer than two targets were left

    def __len__(self) -> int:
        return len(self.entries)


def group_proximity_matrix(
    params: ModelParams, vocab: Vocabulary, universe: list[str], floor_negative: bool = True
) -> np.ndarray:
    """Pairwise group cosines over the universe, unit diagonal.

    Negative cosines are floored at 0 by default so the weighted mean
    stays within the study's [0, 1] framing; pass floor_negative=False
    for raw cosines.
    """
    refs = [EntityRef(EntityKind.GROUP, code, vocab.ordinal_of(EntityKind.GROUP, code)) for code in universe]
    phi = pairwise_matrix(params, vocab, refs, EntityKind.GROUP)
    if floor_negative:
        np.maximum(phi, 0.0, out=phi)
    return phi


def domain_agent_proximity(phi: np.ndarray, counts: np.ndarray, targets) -> np.ndarray:
    """Patent-count-weighted mean of `phi` over the home rows (`counts > 0`) in each target column.

    One float per target, each a convex combination: within [min phi, max phi] over its column's home rows.
    """
    home = counts > 0
    if not home.any():
        raise EmptyHome("agent has no home domains")
    if home[targets].any():
        raise TargetInHome("a target group is one of the agent's home domains")
    weights = counts[home]
    return _home_proximity(phi, home, targets, weights, weights.sum())


def _home_proximity(phi: np.ndarray, home: np.ndarray, targets, weights: np.ndarray, total) -> np.ndarray:
    # the home x target block, gathered C-ordered as `np.ix_` does, so the GEMV rounds alike
    return np.take(phi[home], targets, axis=1).T @ weights / total


def _rank_percentiles(values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Percentiles (N - r) / (N - 1) of the entries `values[at]`, ranked descending.

    r is the mean of the ranks a tie group spans, counted on the sorted
    vector: r = 1 + #greater + (#equal - 1) / 2.
    """
    n = len(values)
    if n < 2:
        raise TooFewTargets("percentiles need at least two target groups")
    ordered = np.sort(values)
    chosen = values[at]
    below = np.searchsorted(ordered, chosen, "left")
    upto = np.searchsorted(ordered, chosen, "right")
    mean_rank = (2 * (n - upto) + (upto - below) + 1) / 2.0
    return (n - mean_rank) / (n - 1)


def percentiles(values: list[tuple[str, float]]) -> dict[str, float]:
    """Rank percentiles (N - r) / (N - 1), descending by proximity, keyed in input order.

    The top-ranked group gets exactly 1 and the bottom-ranked exactly 0;
    exact ties receive the mean of their ranks before the formula.
    """
    vector = np.array([v for _, v in values], dtype=np.float64)
    pp = _rank_percentiles(vector, np.arange(len(vector)))
    return dict(zip((code for code, _ in values), pp.tolist()))


def profile_from_phi(
    phi: np.ndarray | Sequence[np.ndarray], portfolio: AgentPortfolio, universe: list[str]
) -> ExpansionProfile | list[ExpansionProfile]:
    """Expansion profile of one agent given the universe proximity matrix, or one profile per
    matrix of a sequence of them (a list, or an (m, n, n) stack), from one walk of the portfolio.

    The first patent seeds the home domains without emitting a
    percentile. For each later patent the percentiles of all current
    targets are computed against the pre-patent state; each group of the
    patent not yet in the home appends its percentile (new groups in
    lexicographic order), and only then are the patent's groups counted
    into the home. Emission is skipped (logged once and counted in every
    profile's `skipped`) when fewer than two targets remain.
    """
    if len(portfolio) == 0:
        raise EmptyPortfolio(f"agent {portfolio.agent_id} has no patents")
    index = {code: i for i, code in enumerate(universe)}
    try:
        held = [[index[code] for code in groups] for groups in portfolio.groups]
    except KeyError as exc:
        raise UnknownGroup(f"group {exc.args[0]!r} not in the study universe") from None

    single = isinstance(phi, np.ndarray) and phi.ndim == 2
    stack = [phi] if single else phi
    counts = np.zeros(len(universe), dtype=np.int64)
    profiles = [ExpansionProfile() for _ in stack]
    counts[held[0]] += 1
    for groups, rows in zip(portfolio.groups[1:], held[1:]):
        home_mask = counts > 0
        target_idx = np.nonzero(~home_mask)[0]
        new_groups = sorted(code for code, i in zip(groups, rows) if not home_mask[i])
        if new_groups:
            if len(target_idx) < 2:
                log.info(
                    "agent %s: %d target domains left, skipping percentile emission",
                    portfolio.agent_id, len(target_idx),
                )
                for profile in profiles:
                    profile.skipped += 1
            else:
                weights = counts[home_mask]
                total = weights.sum()
                at = np.searchsorted(target_idx, [index[g] for g in new_groups])
                for phi_k, profile in zip(stack, profiles):
                    prox = _home_proximity(phi_k, home_mask, target_idx, weights, total)
                    profile.entries.extend(_rank_percentiles(prox, at).tolist())
        counts[rows] += 1
    return profiles[0] if single else profiles


def cumulative_distribution(profile: ExpansionProfile) -> list[tuple[float, float]]:
    """Step samples of F(x) = |{pp >= x}| / n at 0, every distinct value, and 1."""
    if len(profile) == 0:
        raise EmptyProfile("profile has no entries")
    n = len(profile)
    xs = sorted({0.0, 1.0} | set(profile.entries))
    at_least = n - np.searchsorted(np.sort(profile.entries), xs, "left")
    return [(float(x), count / n) for x, count in zip(xs, at_least.tolist())]


def auc(profile: ExpansionProfile) -> float:
    """Exact step integral of the cumulative distribution over [0, 1].

    Equal to the profile mean up to rounding, which the test suite checks.
    """
    samples = cumulative_distribution(profile)
    total = 0.0
    for (x0, _), (x1, f1) in zip(samples, samples[1:]):
        # F is constant on (x0, x1], equal to its value at x1
        total += (x1 - x0) * f1
    return total


def explainability(per_agent_auc: dict[str, dict[str, float]]) -> dict[str, float]:
    """Fraction of agents on which each model attains the highest AUC.

    Exact ties split the agent's credit equally, so the fractions sum
    to 1 for any input.
    """
    if not per_agent_auc:
        raise InconsistentModelSets("no agents given")
    agents = list(per_agent_auc)
    model_set = set(per_agent_auc[agents[0]])
    awards = {m: 0.0 for m in sorted(model_set)}
    for agent, by_model in per_agent_auc.items():
        if set(by_model) != model_set:
            raise InconsistentModelSets(f"agent {agent} has a different model set")
        best = max(by_model.values())
        winners = [m for m, v in by_model.items() if v == best]
        for m in winners:
            awards[m] += 1.0 / len(winners)
    return {m: awards[m] / len(agents) for m in awards}


@dataclass(slots=True)
class ExpansionReport:
    """Study outputs for one agent class, keyed by model name; empty when no agent remains."""

    min_patents: int
    agent_kind: EntityKind | None  # None when no portfolio was given
    agent_ids: list[str]
    combined_auc: dict[str, float]
    explainability: dict[str, float]
    combined_profiles: dict[str, ExpansionProfile]
    below_min_patents: int  # agents holding fewer than min_patents patents
    never_expanded: int  # eligible agents whose profiles are empty


def run_study(
    vocab: Vocabulary,
    portfolios: list[AgentPortfolio],
    universe: list[str],
    models: dict[str, ModelParams],
    min_patents: int = 30,
    floor_negative: bool = True,
) -> ExpansionReport:
    """Full study over portfolios of one agent kind: per model, the combined profile grown agent
    by agent during the walk, its AUC, and explainability over the per-agent AUCs.

    Agents below `min_patents` or whose profiles never expand are
    excluded and counted. All model fingerprints must match the one vocabulary.
    """
    if min_patents < 0:
        raise InvalidConfig(f"min_patents must be >= 0, got {min_patents}")
    if not universe:
        raise InvalidConfig("the group universe must hold at least one group code")
    if len({p.agent_kind for p in portfolios}) > 1:
        raise InvalidConfig("portfolios must all be of one agent kind")
    if not models:
        raise InconsistentModelSets("no models given")
    for params in models.values():
        check_fingerprint(params, vocab)

    # a list, not one (m, n, n) array: a contiguous stack cannot reuse the heap holes the
    # matrices' temporaries leave, and it raised the study's peak RSS by about 3 MB at 650 groups
    phis = [group_proximity_matrix(params, vocab, universe, floor_negative) for params in models.values()]
    members = sorted((p for p in portfolios if len(p) >= min_patents), key=lambda p: p.agent_id)
    report = ExpansionReport(min_patents, portfolios[0].agent_kind if portfolios else None, agent_ids=[],
                             combined_auc={}, explainability={}, combined_profiles={},
                             below_min_patents=len(portfolios) - len(members), never_expanded=0)
    combined = {name: ExpansionProfile() for name in models}  # every included agent's entries, in agent order
    per_agent_auc: dict[str, dict[str, float]] = {}
    for portfolio in members:
        by_model = dict(zip(models, profile_from_phi(phis, portfolio, universe)))
        if len(next(iter(by_model.values()))) == 0:
            report.never_expanded += 1  # profile length is model-independent
            continue
        report.agent_ids.append(portfolio.agent_id)
        per_agent_auc[portfolio.agent_id] = {name: auc(profile) for name, profile in by_model.items()}
        for name, profile in by_model.items():
            combined[name].entries.extend(profile.entries)
            combined[name].skipped += profile.skipped
    if report.agent_ids:
        report.combined_profiles = combined
        report.combined_auc = {name: auc(p) for name, p in combined.items()}
        report.explainability = explainability(per_agent_auc)
    return report
