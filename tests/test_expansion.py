"""Domain-expansion study: percentiles, profiles, AUC and explainability."""

import logging
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from patkg import expansion
from patkg.errors import (
    EmptyHome,
    EmptyPortfolio,
    EmptyProfile,
    InconsistentModelSets,
    InvalidConfig,
    TargetInHome,
    TooFewTargets,
    UnknownGroup,
)
from patkg.expansion import (
    ExpansionProfile,
    auc,
    cumulative_distribution,
    domain_agent_proximity,
    explainability,
    group_proximity_matrix,
    percentiles,
    profile_from_phi,
    run_study,
)
from patkg.graph import EntityKind, TripleStore
from patkg.ingestion import AgentPortfolio
from patkg.models import ModelKind, init_params
from patkg.proximity import knowledge_proximity


def profile(*entries):
    return ExpansionProfile(list(entries))


# Pairwise domain proximities consistent with the worked expansion example:
# D scores 0.1, E 0.06, F 0.005 from home {A:1, B:2, C:3}; after entering D,
# E and F score 0.054 and 0.007.
PHI = {
    ("A", "D"): 0.06, ("B", "D"): 0.0, ("C", "D"): 0.18,
    ("A", "E"): 0.36, ("B", "E"): 0.0, ("C", "E"): 0.0, ("D", "E"): 0.018,
    ("A", "F"): 0.03, ("B", "F"): 0.0, ("C", "F"): 0.0, ("D", "F"): 0.019,
}
GROUPS = list("ABCDEF")


def proximity_oracle(phi, counts, targets) -> list[float]:
    """The count-weighted mean as a scalar loop per (home, target) pair, home = groups with a count."""
    out = []
    for j in targets:
        num = 0.0
        den = 0
        for i, count in enumerate(counts):
            if count > 0:
                num += phi[i, j] * count
                den += count
        out.append(num / den)
    return out


class TestDomainAgentProximity:
    def worked(self):
        return phi_matrix(PHI, GROUPS)

    def test_worked_example_d(self):
        prox = domain_agent_proximity(self.worked(), np.array([1, 2, 3, 0, 0, 0]), [3, 4, 5])
        assert abs(prox[0] - 0.1) < 1e-12

    def test_worked_example_e_f(self):
        prox = domain_agent_proximity(self.worked(), np.array([1, 2, 3, 0, 0, 0]), [3, 4, 5])
        assert abs(prox[1] - 0.06) < 1e-12
        assert abs(prox[2] - 0.005) < 1e-12
        after_d = domain_agent_proximity(self.worked(), np.array([1, 2, 3, 1, 0, 0]), [4, 5])
        assert abs(after_d[0] - 0.054) < 1e-12
        assert abs(after_d[1] - 0.007) < 1e-12

    def test_single_home_weighted_mean_of_one(self):
        for n in (1, 5, 40):
            assert domain_agent_proximity(self.worked(), np.array([n, 0, 0, 0, 0, 0]), [3]).tolist() == [0.06]

    def test_convexity(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            phi = rng.uniform(0, 1, (6, 6))
            counts = np.concatenate([rng.integers(1, 9, 3), np.zeros(3, dtype=np.int64)])
            out = domain_agent_proximity(phi, counts, [3, 4, 5])
            column = phi[:3, 3:]
            assert np.all((column.min(axis=0) - 1e-12 <= out) & (out <= column.max(axis=0) + 1e-12))

    def test_errors(self):
        with pytest.raises(EmptyHome):
            domain_agent_proximity(self.worked(), np.zeros(6, dtype=np.int64), [3])
        with pytest.raises(TargetInHome):
            domain_agent_proximity(self.worked(), np.array([1, 0, 0, 0, 0, 0]), [3, 0])


@st.composite
def proximity_cases(draw):
    """(phi, counts, targets) over 2-8 groups: phi in [0, 1], at least one home and one target group."""
    n = draw(st.integers(2, 8))
    phi = np.array(draw(st.lists(st.floats(0, 1), min_size=n * n, max_size=n * n))).reshape(n, n)
    counts = np.array(draw(st.lists(st.integers(0, 50), min_size=n, max_size=n)), dtype=np.int64)
    home, target = draw(st.permutations(range(n)))[:2]
    counts[home], counts[target] = max(counts[home], 1), 0
    targets = draw(st.lists(st.sampled_from(np.flatnonzero(counts == 0).tolist()), min_size=1, unique=True))
    return phi, counts, targets


@given(proximity_cases())
def test_domain_agent_proximity_matches_scalar_oracle(case):
    phi, counts, targets = case
    prox = domain_agent_proximity(phi, counts, targets)
    assert len(prox) == len(targets)
    assert np.all(np.abs(prox - proximity_oracle(phi, counts, targets)) < 1e-12)


class TestPercentiles:
    def test_worked_example_three_targets(self):
        out = percentiles([("D", 0.1), ("E", 0.06), ("F", 0.005)])
        assert out == {"D": 1.0, "E": 0.5, "F": 0.0}

    def test_worked_example_two_targets(self):
        out = percentiles([("E", 0.054), ("F", 0.007)])
        assert out == {"E": 1.0, "F": 0.0}

    def test_all_tied(self):
        out = percentiles([("A", 0.3), ("B", 0.3), ("C", 0.3)])
        assert out == {"A": 0.5, "B": 0.5, "C": 0.5}

    def test_bounds_and_extremes(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            values = [(f"g{i}", float(v)) for i, v in enumerate(rng.normal(size=n))]
            out = percentiles(values)
            assert all(0.0 <= p <= 1.0 for p in out.values())
            top = max(values, key=lambda kv: kv[1])[0]
            bottom = min(values, key=lambda kv: kv[1])[0]
            if len({v for _, v in values}) == n:  # no ties
                assert out[top] == 1.0
                assert out[bottom] == 0.0

    def test_too_few(self):
        for values in ([], [("A", 0.5)]):
            with pytest.raises(TooFewTargets):
                percentiles(values)


def percentiles_oracle(values: list[tuple[str, float]]) -> dict[str, float]:
    """Reference percentiles: sort descending, then walk each run of exact ties."""
    n = len(values)
    if n < 2:
        raise TooFewTargets("percentiles need at least two target groups")
    ordered = sorted(values, key=lambda kv: -kv[1])
    out: dict[str, float] = {}
    i = 0
    while i < n:
        j = i
        while j + 1 < n and ordered[j + 1][1] == ordered[i][1]:
            j += 1
        mean_rank = (i + 1 + j + 1) / 2.0
        pp = (n - mean_rank) / (n - 1)
        for k in range(i, j + 1):
            out[ordered[k][0]] = pp
        i = j + 1
    return out


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


# a small pool so that exact ties, signed zeros included, are common
VALUE_POOL = [0.0, -0.0, 1e-300, 0.1, 0.25, 1 / 3, 0.5, 0.9, 1.0, -0.2]


@given(st.lists(st.sampled_from(VALUE_POOL), min_size=2, max_size=40))
def test_percentiles_match_sort_and_walk_oracle(pool_values):
    values = [(f"g{i}", v) for i, v in enumerate(pool_values)]
    out = percentiles(values)
    oracle = percentiles_oracle(values)
    assert list(out) == [code for code, _ in values]  # keys in input order
    assert bits(out.values()) == bits(oracle[code] for code in out)


def make_portfolio(agent, patents, kind=EntityKind.INVENTOR):
    """patents: list of (patent_id, iso_date, groups)."""
    ordered = sorted(patents, key=lambda p: (p[1], p[0]))
    return AgentPortfolio(agent, kind, [pid for pid, _, _ in ordered], [frozenset(g) for _, _, g in ordered])


UNIVERSE = ["A01A", "B01B", "C01C", "D01D", "E01E", "F01F"]


def phi_matrix(values, universe=UNIVERSE):
    """Symmetric matrix over `universe` from a {(code, code): phi} dict, unit diagonal."""
    m = np.eye(len(universe))
    for (a, b), v in values.items():
        i, j = universe.index(a), universe.index(b)
        m[i, j] = m[j, i] = v
    return m


# the worked-example proximities keyed by universe codes
PHI_CODES = {
    ("A01A", "D01D"): 0.06, ("C01C", "D01D"): 0.18,
    ("A01A", "E01E"): 0.36, ("D01D", "E01E"): 0.018,
    ("A01A", "F01F"): 0.03, ("D01D", "F01F"): 0.019,
}


class TestBuildProfile:
    def test_top_ranked_entries_give_all_ones(self):
        # the worked example as a walk: home {A:1, B:2, C:3}, then D enters top-ranked and E too
        # (0.054 > 0.007); entering F as well finds it the last target, so that emission is skipped
        for tail, skipped in (([], 0), (["F"], 1)):
            portfolio = make_portfolio("x", [(f"p{i}", f"{1990 + i}-01-01", groups)
                                             for i, groups in enumerate(["ABC", "BC", "C", "D", "E", *tail])])
            prof = profile_from_phi(phi_matrix(PHI, GROUPS), portfolio, GROUPS)
            assert (prof.entries, prof.skipped) == ([1.0, 1.0], skipped)

    def test_never_expanding_agent_empty_profile(self):
        portfolio = make_portfolio("x", [
            ("p1", "1990-01-01", ["A01A"]),
            ("p2", "1991-01-01", ["A01A"]),
        ])
        prof = profile_from_phi(phi_matrix(PHI_CODES), portfolio, UNIVERSE)
        assert prof.entries == []

    def test_multiple_new_groups_lexicographic_pre_patent(self):
        portfolio = make_portfolio("x", [
            ("p1", "1990-01-01", ["A01A"]),
            ("p2", "1991-01-01", ["D01D", "B01B"]),
        ])
        phi = phi_matrix({("A01A", "D01D"): 0.9, ("A01A", "B01B"): 0.1,
                          ("A01A", "C01C"): 0.5, ("A01A", "E01E"): 0.3,
                          ("A01A", "F01F"): 0.2})
        prof = profile_from_phi(phi, portfolio, UNIVERSE)
        # targets {B,C,D,E,F} ranked: D=1.0, C=0.75, E=0.5, F=0.25, B=0.0
        # new groups appended in lexicographic order: B then D
        assert prof.entries == [0.0, 1.0]

    def test_oracle_agent_all_ones(self):
        # agent that always enters the argmax-proximity target
        rng = np.random.default_rng(31)
        n = len(UNIVERSE)
        m = np.clip(rng.uniform(0, 1, (n, n)), 0, 1)
        m = (m + m.T) / 2
        np.fill_diagonal(m, 1.0)
        counts = {UNIVERSE[0]: 1}
        patents = [("p0", "1980-01-01", [UNIVERSE[0]])]
        for step in range(1, n - 1):
            home = set(counts)
            targets = [g for g in UNIVERSE if g not in home]
            prox = {
                j: sum(m[UNIVERSE.index(i), UNIVERSE.index(j)] * c for i, c in counts.items())
                / sum(counts.values())
                for j in targets
            }
            best = max(prox, key=lambda j: prox[j])
            patents.append((f"p{step}", f"19{80 + step}-01-01", [best]))
            counts[best] = counts.get(best, 0) + 1
        portfolio = make_portfolio("oracle", patents)
        prof = profile_from_phi(m, portfolio, UNIVERSE)
        assert prof.entries == [1.0] * len(prof.entries)

    def test_unknown_group(self):
        portfolio = make_portfolio("x", [("p1", "1990-01-01", ["Z09Z"])])
        with pytest.raises(UnknownGroup):
            profile_from_phi(phi_matrix({}), portfolio, UNIVERSE)

    def test_empty_portfolio(self):
        with pytest.raises(EmptyPortfolio):
            profile_from_phi(phi_matrix({}), AgentPortfolio("x", EntityKind.INVENTOR, [], []), UNIVERSE)


def profile_oracle(phi, portfolio, universe, proximities=None) -> tuple[list[float], int]:
    """(entries, skipped) built per record from a code-keyed list and `percentiles_oracle`;
    the bytes of each emission's proximity vector are appended to `proximities` if given."""
    index = {code: i for i, code in enumerate(universe)}
    counts = np.zeros(len(universe), dtype=np.int64)
    entries: list[float] = []
    skipped = 0
    for code in portfolio.groups[0]:
        counts[index[code]] += 1
    for groups in portfolio.groups[1:]:
        home_mask = counts > 0
        target_idx = np.nonzero(~home_mask)[0]
        new_groups = sorted(g for g in groups if not home_mask[index[g]])
        if new_groups and len(target_idx) < 2:
            skipped += 1
        elif new_groups:
            weights = counts[home_mask]
            prox = phi[np.ix_(home_mask, ~home_mask)].T @ weights / weights.sum()
            if proximities is not None:
                proximities.append(prox.tobytes())
            pp = percentiles_oracle([(universe[i], float(p)) for i, p in zip(target_idx, prox)])
            entries.extend(pp[g] for g in new_groups)
        for code in groups:
            counts[index[code]] += 1
    return entries, skipped


@st.composite
def study_cases(draw):
    """(a stack of 1-3 phi matrices floored at 0, portfolio, universe) over 2-6 groups and 1-8 patents."""
    n = draw(st.integers(2, len(UNIVERSE)))
    universe = UNIVERSE[:n]
    phis = []
    for _ in range(draw(st.integers(1, 3))):
        upper = np.triu(np.array(draw(st.lists(st.sampled_from(VALUE_POOL), min_size=n * n,
                                               max_size=n * n))).reshape(n, n), 1)
        phis.append(np.maximum(upper + upper.T, 0.0))
        np.fill_diagonal(phis[-1], 1.0)
    records = draw(st.lists(st.sets(st.sampled_from(universe), min_size=1, max_size=3),
                            min_size=1, max_size=8))
    patents = [(f"p{i}", f"{1980 + i}-01-01", sorted(groups)) for i, groups in enumerate(records)]
    return np.stack(phis), make_portfolio("x", patents), universe


def three_group_case(*records):
    """Zero off-diagonal proximities over three groups: every target ties."""
    universe = UNIVERSE[:3]
    patents = [(f"p{i}", f"{1980 + i}-01-01", groups) for i, groups in enumerate(records)]
    return np.stack([np.eye(3)] * 2), make_portfolio("x", patents), universe


@given(study_cases())
@example(three_group_case(["A01A"], ["B01B", "C01C"]))  # two new groups at once
@example(three_group_case(["A01A"], ["B01B"], ["C01C"]))  # one target left: skipped
def test_profile_matches_sort_and_walk_oracle(case):
    # one walk over the stack gives each matrix the profile the oracle builds from it alone
    phis, portfolio, universe = case
    profiles = profile_from_phi(phis, portfolio, universe)
    assert len(profiles) == len(phis)
    # a list of the matrices, as `run_study` passes them, walks alike
    assert [bits(p.entries) + [p.skipped] for p in profile_from_phi(list(phis), portfolio, universe)] == [
        bits(p.entries) + [p.skipped] for p in profiles]
    for phi, prof in zip(phis, profiles):
        single = profile_from_phi(phi, portfolio, universe)
        entries, skipped = profile_oracle(phi, portfolio, universe)
        assert bits(prof.entries) == bits(single.entries) == bits(entries)
        assert prof.skipped == single.skipped == skipped


def benchmark_scale_case(order):
    """Two study-5x-sized matrices (650 groups) with cosine-like phi floored at 0, stacked in
    `order`, and one agent whose home passes 64 groups: 200 patents of 1-3 groups, a third of
    them repeats."""
    rng = np.random.default_rng(23)
    universe = [f"{chr(65 + i // 250)}{i // 5 % 50:02d}{chr(65 + i % 5)}" for i in range(650)]
    phis = []
    for mean in (0.1, 0.0):
        upper = np.triu(rng.normal(mean, 0.3, (650, 650)), 1)
        phis.append(np.maximum(upper + upper.T, 0.0))
        np.fill_diagonal(phis[-1], 1.0)
    held: list[str] = []
    patents = []
    for i in range(200):
        groups = {held[int(rng.integers(len(held)))] if held and rng.random() < 0.35
                  else universe[int(rng.integers(650))] for _ in range(int(rng.integers(1, 4)))}
        held.extend(groups)
        patents.append((f"p{i:03d}", date.fromordinal(722000 + 30 * i).isoformat(), sorted(groups)))
    return np.asarray(np.stack(phis), order=order), make_portfolio("x", patents), universe


@pytest.mark.parametrize("order", ["C", "F"])
def test_profile_blocks_match_ix_oracle_at_benchmark_scale(order, monkeypatch):
    # every emission's proximity vector, not only the percentiles it ranks to, is the `np.ix_` one
    phis, portfolio, universe = benchmark_scale_case(order)
    seen, rank = [], expansion._rank_percentiles
    monkeypatch.setattr(expansion, "_rank_percentiles", lambda values, at: seen.append(values.tobytes())
                        or rank(values, at))
    profiles = profile_from_phi(phis, portfolio, universe)
    proximities = [[], []]
    for phi, prof, vectors in zip(phis, profiles, proximities):
        entries, skipped = profile_oracle(phi, portfolio, universe, vectors)
        assert bits(prof.entries) == bits(entries) and prof.skipped == skipped
    assert seen == [v for pair in zip(*proximities) for v in pair]  # emission by emission, model by model
    assert len(universe) - len(proximities[0][-1]) // 8 > 64 and len(profiles[0]) > 100


class TestCumulativeDistribution:
    def test_all_ones(self):
        samples = dict(cumulative_distribution(profile(1.0, 1.0, 1.0)))
        assert samples[0.0] == 1.0 and samples[1.0] == 1.0

    def test_two_point_profile(self):
        prof = profile(1.0, 0.0)
        samples = dict(cumulative_distribution(prof))
        assert samples[0.0] == 1.0
        assert samples[1.0] == 0.5
        # F is constant on (0, 1]: evaluating anywhere inside gives 0.5
        entries = np.asarray(prof.entries)
        assert (entries >= 0.5).mean() == 0.5

    def test_quarter_above_08(self):
        prof = profile(*([0.9] * 250 + [0.5] * 750))
        samples = dict(cumulative_distribution(prof))
        assert samples[0.9] == 0.25

    def test_empty(self):
        with pytest.raises(EmptyProfile):
            cumulative_distribution(profile())


def cumulative_distribution_oracle(entries):
    """One scan of the profile per distinct value, as the CDF was first computed."""
    array = np.asarray(entries)
    return [(float(x), float((array >= x).mean())) for x in sorted({0.0, 1.0} | set(entries))]


@given(st.lists(st.sampled_from([0.0, 1.0, 0.5, 1 / 3]) | st.floats(0.0, 1.0), min_size=1, max_size=60))
@example([0.0])
@example([1.0, 1.0, 0.0])
@example([1 / 3] * 7 + [0.0] * 3)
def test_cumulative_distribution_matches_scan_oracle(entries):
    assert cumulative_distribution(profile(*entries)) == cumulative_distribution_oracle(entries)


class TestAuc:
    def test_ideal_profile(self):
        assert auc(profile(1.0, 1.0, 1.0)) == 1.0

    def test_zero_profile(self):
        assert auc(profile(0.0, 0.0)) == 0.0

    def test_equals_mean_on_random_profiles(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            entries = rng.uniform(0, 1, size=int(rng.integers(1, 40)))
            prof = profile(*entries)
            assert abs(auc(prof) - entries.mean()) < 1e-9

    def test_uniform_profile_near_half(self):
        rng = np.random.default_rng(29)
        prof = profile(*rng.uniform(0, 1, size=1000))
        assert abs(auc(prof) - 0.5) < 0.05

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        entries = list(rng.uniform(0, 1, size=20))
        base = auc(profile(*entries))
        for _ in range(10):
            rng.shuffle(entries)
            assert abs(auc(profile(*entries)) - base) < 1e-12


class TestExplainability:
    def test_strict_winner(self):
        out = explainability({
            "agent1": {"m1": 0.2, "m2": 0.3, "m3": 0.9},
            "agent2": {"m1": 0.5, "m2": 0.4, "m3": 0.8},
        })
        assert out == {"m1": 0.0, "m2": 0.0, "m3": 1.0}

    def test_tie_splitting(self):
        out = explainability({"a": {"m1": 0.7, "m2": 0.7, "m3": 0.1}})
        assert out["m1"] == 0.5 and out["m2"] == 0.5 and out["m3"] == 0.0

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            agents = {
                f"a{i}": {f"m{j}": float(rng.choice([0.1, 0.5, 0.5, 0.9])) for j in range(4)}
                for i in range(int(rng.integers(1, 10)))
            }
            assert abs(sum(explainability(agents).values()) - 1.0) < 1e-12

    def test_inconsistent_model_sets(self):
        with pytest.raises(InconsistentModelSets):
            explainability({"a": {"m1": 0.5}, "b": {"m2": 0.5}})


class TestGroupProximity:
    def build(self):
        store = TripleStore()
        for code in UNIVERSE:
            store.add_entity(EntityKind.GROUP, code)
        return store

    def proximity(self, params, vocab, g1, g2):
        ref = lambda code: vocab.refs[vocab.ordinal_of(EntityKind.GROUP, code)]
        return knowledge_proximity(params, ref(g1), ref(g2))

    def test_self_proximity(self):
        store = self.build()
        params = init_params(ModelKind.TRANSE_L2, len(store.vocab), 4, 0,
                             store.vocab.fingerprint())
        assert self.proximity(params, store.vocab, "A01A", "A01A") == 1.0

    def test_orthogonal_zero(self):
        store = self.build()
        params = init_params(ModelKind.TRANSE_L2, len(store.vocab), 2, 0,
                             store.vocab.fingerprint())
        params.entities[0] = [1.0, 0.0]
        params.entities[1] = [0.0, 1.0]
        assert self.proximity(params, store.vocab, "A01A", "B01B") == 0.0

    def test_gram_factorization_reproduces_prescribed_cosines(self):
        # Build unit vectors with prescribed pairwise cosines via Cholesky
        # of the Gram matrix, inject them, and read the cosines back.
        gram = phi_matrix(PHI_CODES)
        chol = np.linalg.cholesky(gram)
        store = self.build()
        params = init_params(ModelKind.TRANSE_L2, len(store.vocab), len(UNIVERSE), 0,
                             store.vocab.fingerprint())
        params.entities[: len(UNIVERSE)] = chol
        assert abs(self.proximity(params, store.vocab, "A01A", "D01D") - 0.06) < 1e-12
        assert abs(self.proximity(params, store.vocab, "C01C", "D01D") - 0.18) < 1e-12

    def test_floor_negative(self):
        store = self.build()
        params = init_params(ModelKind.TRANSE_L2, len(store.vocab), 2, 0,
                             store.vocab.fingerprint())
        params.entities[0] = [1.0, 0.0]
        params.entities[1] = [-1.0, 0.0]
        phi = group_proximity_matrix(params, store.vocab, ["A01A", "B01B"], floor_negative=True)
        assert phi[0, 1] == 0.0
        raw = group_proximity_matrix(params, store.vocab, ["A01A", "B01B"], floor_negative=False)
        assert raw[0, 1] == -1.0

    def test_percentile_scale_invariance(self):
        # scaling all group embeddings leaves profiles unchanged
        store = self.build()
        params = init_params(ModelKind.TRANSE_L2, len(store.vocab), 8, 3,
                             store.vocab.fingerprint())
        portfolio = make_portfolio("x", [
            ("p1", "1990-01-01", ["A01A"]),
            ("p2", "1991-01-01", ["B01B"]),
            ("p3", "1992-01-01", ["C01C", "D01D"]),
        ])
        base = profile_from_phi(group_proximity_matrix(params, store.vocab, UNIVERSE),
                                portfolio, UNIVERSE)
        params.entities *= 7.5
        scaled = profile_from_phi(group_proximity_matrix(params, store.vocab, UNIVERSE),
                                  portfolio, UNIVERSE)
        assert scaled.entries == base.entries


class TestRunStudy:
    def build_world(self, n_agents=6, patents_per_agent=4):
        store = TripleStore()
        for code in UNIVERSE:
            store.add_entity(EntityKind.GROUP, code)
        rng = np.random.default_rng(41)
        portfolios = []
        for a in range(n_agents):
            start = rng.integers(0, len(UNIVERSE))
            codes = [UNIVERSE[start]]
            others = [c for c in UNIVERSE if c != codes[0]]
            rng.shuffle(others)
            codes += others[: patents_per_agent - 1]
            patents = [
                (f"a{a}p{i}", f"19{70 + i}-01-01", [code]) for i, code in enumerate(codes)
            ]
            portfolios.append(make_portfolio(f"agent{a}", patents))
        return store, portfolios

    def model(self, store, seed):
        return init_params(ModelKind.TRANSE_L2, len(store.vocab), 6, seed,
                           store.vocab.fingerprint())

    def test_single_model_explainability_one(self):
        store, portfolios = self.build_world()
        report = run_study(store.vocab, portfolios, UNIVERSE, {"only": self.model(store, 1)},
                           min_patents=1)
        assert report.agent_kind is EntityKind.INVENTOR
        assert report.explainability == {"only": 1.0}

    def test_min_patents_excludes(self):
        store, portfolios = self.build_world(n_agents=3, patents_per_agent=4)
        report = run_study(store.vocab, portfolios, UNIVERSE, {"m": self.model(store, 1)},
                           min_patents=30)
        assert (report.agent_kind, report.agent_ids, report.combined_auc, report.explainability,
                report.combined_profiles) == (EntityKind.INVENTOR, [], {}, {}, {})
        assert (report.below_min_patents, report.never_expanded) == (3, 0)
        # two agents cut to 2 patents, one that never leaves A01A, one whose
        # last emission is skipped with a single target left
        short = [AgentPortfolio(p.agent_id, p.agent_kind, p.patent_ids[:2], p.groups[:2]) for p in portfolios[:2]]
        stayer = make_portfolio("stayer", [(f"s{i}", f"198{i}-01-01", ["A01A"]) for i in range(3)])
        filler = make_portfolio("filler", [("f0", "1980-01-01", UNIVERSE[:4]),
                                           ("f1", "1981-01-01", ["E01E"]),
                                           ("f2", "1982-01-01", ["F01F"])])
        report = run_study(store.vocab, short + portfolios[2:] + [stayer, filler], UNIVERSE,
                           {"m": self.model(store, 1)}, min_patents=3)
        assert report.agent_ids == ["agent2", "filler"]
        assert (report.below_min_patents, report.never_expanded) == (2, 1)
        assert report.combined_profiles["m"].skipped == 1

    def test_skipped_emission_logged_once_for_all_models(self, caplog):
        store, _ = self.build_world(n_agents=0)
        filler = make_portfolio("filler", [("f0", "1980-01-01", UNIVERSE[:4]),
                                           ("f1", "1981-01-01", ["E01E"]),
                                           ("f2", "1982-01-01", ["F01F"])])
        models = {"m1": self.model(store, 1), "m2": self.model(store, 2)}
        with caplog.at_level(logging.INFO, logger="patkg.expansion"):
            report = run_study(store.vocab, [filler], UNIVERSE, models, min_patents=3)
        profiles = report.combined_profiles
        assert [(len(p), p.skipped) for p in profiles.values()] == [(1, 1), (1, 1)]
        assert [r.getMessage() for r in caplog.records] == [
            "agent filler: 1 target domains left, skipping percentile emission"]

    def test_min_patents_boundary(self):
        # an agent holding exactly min_patents patents is kept, one fewer is excluded
        store, _ = self.build_world(n_agents=0)
        codes = UNIVERSE * 5
        agent = make_portfolio("big", [(f"p{i}", f"{1950 + i}-01-01", [codes[i]]) for i in range(29)])
        report = run_study(store.vocab, [agent], UNIVERSE, {"m": self.model(store, 1)}, min_patents=29)
        assert (report.agent_ids, report.below_min_patents) == (["big"], 0)
        report = run_study(store.vocab, [agent], UNIVERSE, {"m": self.model(store, 1)}, min_patents=30)
        assert (report.agent_ids, report.below_min_patents) == ([], 1)

    def test_mixed_agent_kinds_refused(self):
        store, portfolios = self.build_world()
        portfolios.append(make_portfolio("firm", [("f0", "1970-01-01", ["A01A"])], kind=EntityKind.ASSIGNEE))
        with pytest.raises(InvalidConfig, match=r"^portfolios must all be of one agent kind$"):
            run_study(store.vocab, portfolios, UNIVERSE, {"m": self.model(store, 1)}, min_patents=1)

    def test_no_portfolios(self):
        store, _ = self.build_world(n_agents=0)
        report = run_study(store.vocab, [], UNIVERSE, {"m": self.model(store, 1)})
        assert (report.agent_kind, report.agent_ids, report.below_min_patents, report.never_expanded) == (
            None, [], 0, 0)
        assert (report.combined_profiles, report.combined_auc, report.explainability) == ({}, {}, {})

    def test_negative_min_patents_refused(self):
        store, portfolios = self.build_world()
        with pytest.raises(InvalidConfig, match=r"^min_patents must be >= 0, got -1$"):
            run_study(store.vocab, portfolios, UNIVERSE, {"m": self.model(store, 1)}, min_patents=-1)

    def test_empty_universe_refused_before_any_matrix(self, monkeypatch):
        store, portfolios = self.build_world()
        monkeypatch.setattr(expansion, "group_proximity_matrix", None)  # a matrix build would raise TypeError
        with pytest.raises(InvalidConfig, match=r"^the group universe must hold at least one group code$"):
            run_study(store.vocab, portfolios, [], {"m": self.model(store, 1)})

    def test_explainability_sums_to_one(self, monkeypatch):
        store, portfolios = self.build_world()
        portfolios.append(make_portfolio("short", [("s0", "1970-01-01", ["A01A"])]))
        models = {"m1": self.model(store, 1), "m2": self.model(store, 2)}
        walks, walk = [], expansion.profile_from_phi
        monkeypatch.setattr(expansion, "profile_from_phi", lambda *args: walks.append(args[1].agent_id)
                            or walk(*args))
        report = run_study(store.vocab, portfolios, UNIVERSE, models, min_patents=2)
        assert walks == [f"agent{a}" for a in range(6)]  # one walk per eligible agent for both models
        assert abs(sum(report.explainability.values()) - 1.0) < 1e-12
        assert set(report.combined_auc) == {"m1", "m2"}


class TestCombine:
    """Each model's combined profile, grown agent by agent during run_study's walk."""
    build_world = TestRunStudy.build_world
    model = TestRunStudy.model

    def study(self):
        """Two models over build_world()'s agents given out of order, beside an agent that never
        expands and one whose last emission is skipped; returns the report and, per model, the
        included agents' own profiles in agent-id order."""
        store, portfolios = self.build_world()
        stayer = make_portfolio("stayer", [(f"s{i}", f"198{i}-01-01", ["A01A"]) for i in range(3)])
        filler = make_portfolio("filler", [("f0", "1980-01-01", UNIVERSE[:4]),
                                           ("f1", "1981-01-01", ["E01E"]),
                                           ("f2", "1982-01-01", ["F01F"])])
        models = {"m1": self.model(store, 1), "m2": self.model(store, 2)}
        report = run_study(store.vocab, portfolios[::-1] + [stayer, filler], UNIVERSE, models, min_patents=2)
        included = sorted(portfolios + [filler], key=lambda p: p.agent_id)
        assert report.agent_ids == [p.agent_id for p in included]
        walks = {name: [profile_from_phi(group_proximity_matrix(params, store.vocab, UNIVERSE), p, UNIVERSE)
                        for p in included] for name, params in models.items()}
        return report, walks

    def test_concatenation(self):
        report, walks = self.study()
        for name, own in walks.items():
            assert report.combined_profiles[name].entries == [pp for walk in own for pp in walk.entries]

    def test_empty(self):
        # every agent below min_patents: no combined profile at all, not an empty one per model
        store, portfolios = self.build_world()
        report = run_study(store.vocab, portfolios, UNIVERSE, {"m": self.model(store, 1)}, min_patents=30)
        assert (report.agent_ids, report.combined_profiles) == ([], {})

    def test_lengths_add(self):
        report, walks = self.study()
        for name, own in walks.items():
            combined = report.combined_profiles[name]
            assert len(combined) == sum(len(walk) for walk in own) > 0
            assert combined.skipped == sum(walk.skipped for walk in own) == 1
