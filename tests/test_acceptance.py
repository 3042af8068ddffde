"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion. The heavyweight criteria share one planted
5-community graph and a lazily trained model cache (see conftest).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from patkg.cli import main as cli_main
from patkg.evaluator import EvalConfig, evaluate, rank_target
from patkg.expansion import (
    ExpansionProfile,
    auc,
    domain_agent_proximity,
    explainability,
    percentiles,
    run_study,
)
from patkg.graph import (
    RELATION_INDEX,
    EntityKind,
    RelationKind,
    Side,
    Triple,
    TripleStore,
    sample_corrupt,
)
from patkg.ingestion import AgentPortfolio, write_triples_file
from patkg.models import ModelKind, grad, init_params
from patkg.proximity import TransformMode, knowledge_proximity, nearest_neighbors

from test_evaluator import exhaustive_oracle
from test_models import finite_difference, max_relative_error


@contextmanager
def criterion(number, description, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit_s else "FAIL (over time budget)"
    print(f"[criterion {number:2d}] {status}  {description}  ({elapsed:.1f}s < {limit_s}s)")
    assert elapsed < limit_s


# -----------------------------------------------------------------------
# 1. Worked expansion example: exact proximities and percentiles
# -----------------------------------------------------------------------

def test_criterion_01_worked_proximity_example():
    with criterion(1, "worked proximity example exact to 1e-12", limit_s=1.0):
        phi_table = {
            ("A", "D"): 0.06, ("B", "D"): 0.0, ("C", "D"): 0.18,
            ("A", "E"): 0.36, ("B", "E"): 0.0, ("C", "E"): 0.0, ("D", "E"): 0.018,
            ("A", "F"): 0.03, ("B", "F"): 0.0, ("C", "F"): 0.0, ("D", "F"): 0.019,
        }
        groups = "ABCDEF"
        phi = np.eye(6)  # symmetric over groups A-F
        for (i, j), value in phi_table.items():
            phi[groups.index(i), groups.index(j)] = phi[groups.index(j), groups.index(i)] = value
        prox = dict(zip("DEF", domain_agent_proximity(phi, np.array([1, 2, 3, 0, 0, 0]), [3, 4, 5]).tolist()))
        assert abs(prox["D"] - 0.1) < 1e-12
        assert abs(prox["E"] - 0.06) < 1e-12
        assert abs(prox["F"] - 0.005) < 1e-12
        assert percentiles(sorted(prox.items())) == {"D": 1.0, "E": 0.5, "F": 0.0}

        # simulated entry into D: remaining targets E and F rank (1, 0)
        prox = dict(zip("EF", domain_agent_proximity(phi, np.array([1, 2, 3, 1, 0, 0]), [4, 5]).tolist()))
        assert abs(prox["E"] - 0.054) < 1e-12
        assert abs(prox["F"] - 0.007) < 1e-12
        assert percentiles(sorted(prox.items())) == {"E": 1.0, "F": 0.0}


# -----------------------------------------------------------------------
# 2. Sampled evaluation with the full pool equals the brute-force oracle
# -----------------------------------------------------------------------

def hand_built_50_entity_store():
    rng = np.random.default_rng(50)
    store = TripleStore()
    subs = [store.add_entity(EntityKind.SUBSECTION, f"S{j:02d}") for j in range(4)]
    groups = [store.add_entity(EntityKind.GROUP, f"S{j % 4:02d}{chr(65 + j)}") for j in range(6)]
    patents = [store.add_entity(EntityKind.PATENT, f"p{i}") for i in range(20)]
    inventors = [store.add_entity(EntityKind.INVENTOR, f"i{i}") for i in range(12)]
    assignees = [store.add_entity(EntityKind.ASSIGNEE, f"a{i}") for i in range(8)]
    for j, g in enumerate(groups):
        store.add_triple(Triple(subs[j % 4].ordinal, RelationKind.COMPRISE, g.ordinal))
    for i, p in enumerate(patents):
        store.add_triple(Triple(groups[i % 6].ordinal, RelationKind.CONTAIN, p.ordinal))
        store.add_triple(Triple(inventors[i % 12].ordinal, RelationKind.WRITE, p.ordinal))
        store.add_triple(Triple(assignees[i % 8].ordinal, RelationKind.OWN, p.ordinal))
    cites = 0
    while cites < 30:
        h, t = rng.integers(0, 20, size=2)
        triple = Triple(patents[h].ordinal, RelationKind.CITE, patents[t].ordinal)
        if h != t and not store.contains(triple.head, RELATION_INDEX[RelationKind.CITE], triple.tail):
            store.add_triple(triple)
            cites += 1
    return store


def test_criterion_02_metric_oracle():
    with criterion(2, "full-pool evaluation equals exhaustive oracle to 1e-12", limit_s=10.0):
        store = hand_built_50_entity_store()
        assert len(store.vocab) == 50
        params = init_params(ModelKind.DISTMULT, 50, 8, seed=2, vocab_fingerprint=store.vocab.fingerprint())
        test = tuple(column[::2] for column in store.triple_arrays())
        report = evaluate(params, test, store, EvalConfig(corruptions_per_side=10_000, seed=3))
        want = exhaustive_oracle(params, test, store)
        assert abs(report.mr - want["mr"]) < 1e-12
        assert abs(report.mrr - want["mrr"]) < 1e-12
        for k in (1, 3, 10):
            assert abs(report.hits[k] - want["hits"][k]) < 1e-12


# -----------------------------------------------------------------------
# 3. Analytic gradients vs central finite differences, all seven models
# -----------------------------------------------------------------------

def test_criterion_03_gradient_check():
    with criterion(3, "gradients match finite differences (rel err < 1e-4)", limit_s=30.0):
        for kind in ModelKind:
            rng = np.random.default_rng(300 + list(ModelKind).index(kind))
            params = init_params(kind, 12, 8, seed=17)
            params.entities += rng.normal(0.0, 0.3, params.entities.shape)
            worst = 0.0
            for _ in range(100):
                h, t = (int(x) for x in rng.choice(12, size=2, replace=False))
                rel = list(RelationKind)[int(rng.integers(5))]
                g = grad(params, h, rel, t)
                assert not g.nondifferentiable
                worst = max(worst, max_relative_error(
                    g.head, finite_difference(params, h, rel, t, params.entities[h])))
                worst = max(worst, max_relative_error(
                    g.tail, finite_difference(params, h, rel, t, params.entities[t])))
                for name, analytic in g.relation.items():
                    numeric = finite_difference(params, h, rel, t, params.relations[rel][name])
                    worst = max(worst, max_relative_error(analytic, numeric))
            assert worst < 1e-4, f"{kind.value}: {worst}"


# -----------------------------------------------------------------------
# 4. Learning at desk scale: every model beats 5x the random baseline
# -----------------------------------------------------------------------

@pytest.mark.parametrize("kind", list(ModelKind), ids=[k.value for k in ModelKind])
def test_criterion_04_learning_at_desk_scale(kind, accept_store, trained_models, accept_test_sample):
    with criterion(4, f"desk-scale learning: {kind.value} MRR>=0.25, Hits@10>=0.5", limit_s=300.0):
        params, train_report = trained_models(kind)
        report = evaluate(
            params, accept_test_sample, accept_store,
            EvalConfig(corruptions_per_side=100, seed=3),
        )
        # closed form: uniform rank over K+1 = 101 candidates
        baseline_mrr = sum(1.0 / r for r in range(1, 102)) / 101
        assert abs(baseline_mrr - 0.051) < 1e-3
        assert report.mrr >= 0.25, f"{kind.value} MRR {report.mrr:.3f}"
        assert report.mrr >= 5 * baseline_mrr
        assert report.hits[10] >= 0.5, f"{kind.value} hits@10 {report.hits[10]:.3f}"
        assert train_report.wall_time_s < 300.0


# -----------------------------------------------------------------------
# 5. Score-function identities
# -----------------------------------------------------------------------

def test_criterion_05_score_identities():
    with criterion(5, "score identities (TransE zero, symmetry, witnesses)", limit_s=10.0):
        rel = RelationKind.CITE

        p = init_params(ModelKind.TRANSE_L2, 4, 8, seed=5)
        p.entities[1] = p.entities[0] + p.relations[rel]["vec"]
        from patkg.models import score
        assert score(p, 0, rel, 1) == 0.0

        rng = np.random.default_rng(55)
        p = init_params(ModelKind.DISTMULT, 64, 12, seed=55)
        p.entities[:] = rng.normal(size=p.entities.shape)
        for _ in range(1000):
            h, t = (int(x) for x in rng.integers(0, 64, size=2))
            assert score(p, h, rel, t) == score(p, t, rel, h)

        p = init_params(ModelKind.COMPLEX, 2, 1, seed=5)
        p.entities[0] = [1.0, 0.0]
        p.entities[1] = [0.0, 1.0]
        p.relations[rel]["vec"][:] = [0.0, 1.0]
        assert score(p, 0, rel, 1) == 1.0
        assert score(p, 1, rel, 0) == -1.0

        # RotatE preserves norms: with an all-zero tail, -score = |h o r| = |h|.
        for _ in range(1000):
            d = int(rng.integers(1, 16))
            p = init_params(ModelKind.ROTATE, 2, d, seed=5)
            p.entities[0] = rng.normal(size=2 * d)
            p.entities[1] = 0.0
            p.relations[rel]["phase"][:] = rng.uniform(-np.pi, np.pi, size=d)
            assert abs(-score(p, 0, rel, 1) - np.linalg.norm(p.entities[0])) < 1e-9


# -----------------------------------------------------------------------
# 6. Rank bound: ranks live in [1, K+1]; worst case hits exactly 10,001
# -----------------------------------------------------------------------

def test_criterion_06_rank_bound():
    with criterion(6, "rank bound [1, K+1]; worst case rank 10,001 at K=10,000", limit_s=30.0):
        store = TripleStore()
        patents = [store.add_entity(EntityKind.PATENT, f"p{i}") for i in range(10_002)]
        store.add_triple(Triple(patents[0].ordinal, RelationKind.CITE, patents[1].ordinal))
        params = init_params(ModelKind.DISTMULT, len(store.vocab), 2, seed=6,
                             vocab_fingerprint=store.vocab.fingerprint())
        params.entities[:] = 1.0          # every corrupt tail scores 2
        params.entities[1] = [-1.0, -1.0]  # true tail scores -2: least probable
        params.relations[RelationKind.CITE]["vec"][:] = [1.0, 1.0]
        triple = store.triples[0]
        K = 10_000
        corrupts = sample_corrupt(store, triple, K, Side.TAIL, rng_seed=1)
        rank = rank_target(params, triple, Side.TAIL, corrupts)
        assert rank == K + 1 == 10_001

        # and on an ordinary evaluation every rank respects the bound
        rng = np.random.default_rng(6)
        params.entities[:] = rng.normal(size=params.entities.shape)
        for k in (1, 7, 100):
            corrupts = sample_corrupt(store, triple, k, Side.TAIL, rng_seed=2)
            r = rank_target(params, triple, Side.TAIL, corrupts)
            assert 1.0 <= r <= k + 1


# -----------------------------------------------------------------------
# 7. AUC equals the profile mean
# -----------------------------------------------------------------------

def test_criterion_07_auc_mean_identity():
    with criterion(7, "step-function AUC equals profile mean within 1e-9", limit_s=5.0):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            entries = rng.uniform(0, 1, size=int(rng.integers(1, 60)))
            profile = ExpansionProfile(list(entries))
            assert abs(auc(profile) - entries.mean()) < 1e-9
        ideal = ExpansionProfile([1.0, 1.0, 1.0])
        assert auc(ideal) == 1.0
        uniform = ExpansionProfile(list(rng.uniform(0, 1, 1000)))
        assert abs(auc(uniform) - 0.5) < 0.05


# -----------------------------------------------------------------------
# 8. Explainability protocol
# -----------------------------------------------------------------------

def test_criterion_08_explainability_protocol():
    with criterion(8, "explainability: strict winner takes 1.0; ties split", limit_s=1.0):
        out = explainability({
            "agentX": {"model1": 0.55, "model2": 0.70, "model3": 0.95},
            "agentY": {"model1": 0.40, "model2": 0.60, "model3": 0.90},
        })
        assert out == {"model1": 0.0, "model2": 0.0, "model3": 1.0}

        tied = explainability({
            "agentX": {"model1": 0.8, "model2": 0.8, "model3": 0.1},
            "agentY": {"model1": 0.9, "model2": 0.2, "model3": 0.9},
        })
        assert tied["model1"] == 0.5
        assert abs(sum(tied.values()) - 1.0) < 1e-12

        rng = np.random.default_rng(8)
        for _ in range(100):
            agents = {
                f"a{i}": {f"m{j}": float(rng.choice([0.2, 0.5, 0.5, 0.8])) for j in range(5)}
                for i in range(int(rng.integers(1, 12)))
            }
            assert abs(sum(explainability(agents).values()) - 1.0) < 1e-12


# -----------------------------------------------------------------------
# 9. Expansion study separates oracle embeddings from random ones
# -----------------------------------------------------------------------

def _simulated_agents(universe, phi, n_agents, entries_per_agent, seed):
    """Agents that always enter the argmax-proximity target under `phi`."""
    rng = np.random.default_rng(seed)
    idx = {code: i for i, code in enumerate(universe)}
    portfolios = []
    for a in range(n_agents):
        start = universe[int(rng.integers(len(universe)))]
        counts = {start: 1}
        patent_ids, groups = [f"g{a}p00"], [frozenset([start])]
        for step in range(1, entries_per_agent + 1):
            weights = np.array([counts.get(g, 0) for g in universe])
            home = weights > 0
            prox = phi[np.ix_(home, ~home)].T @ weights[home] / weights.sum()
            targets = [g for g in universe if not home[idx[g]]]
            best = targets[int(np.argmax(prox))]
            patent_ids.append(f"g{a}p{step:02d}")
            groups.append(frozenset([best]))
            counts[best] = 1
        portfolios.append(AgentPortfolio(f"agent{a}", EntityKind.INVENTOR, patent_ids, groups))
    return portfolios


def test_criterion_09_expansion_discrimination():
    with criterion(9, "oracle embeddings AUC>0.9 vs random 0.5±0.05; explainability>=0.95",
                   limit_s=120.0):
        rng = np.random.default_rng(9)
        clusters, per_cluster = 8, 5
        universe = [f"{chr(65 + k)}0{j}A" for k in range(clusters) for j in range(per_cluster)]
        store = TripleStore()
        for code in universe:
            store.add_entity(EntityKind.GROUP, code)
        fp = store.vocab.fingerprint()

        dim = 16
        oracle = init_params(ModelKind.TRANSE_L2, len(universe), dim, seed=91, vocab_fingerprint=fp)
        for i, code in enumerate(universe):
            k = ord(code[0]) - 65
            centroid = np.zeros(dim)
            centroid[k] = 1.0
            oracle.entities[i] = centroid + rng.normal(0, 0.05, dim)
        random_model = init_params(ModelKind.TRANSE_L2, len(universe), dim, seed=92,
                                   vocab_fingerprint=fp)

        from patkg.expansion import group_proximity_matrix
        phi = group_proximity_matrix(oracle, store.vocab, universe)
        portfolios = _simulated_agents(universe, phi, n_agents=60, entries_per_agent=30, seed=93)

        report = run_study(store.vocab, portfolios, universe,
                           {"oracle": oracle, "random": random_model}, min_patents=30)
        assert report.agent_kind is EntityKind.INVENTOR and len(report.agent_ids) == 60
        assert report.combined_auc["oracle"] > 0.9
        assert abs(report.combined_auc["random"] - 0.5) <= 0.05
        assert report.explainability["oracle"] >= 0.95


# -----------------------------------------------------------------------
# 10. Transformation consistency on the trained synthetic model
# -----------------------------------------------------------------------

def test_criterion_10_transformation_consistency(accept_store, trained_models):
    with criterion(10, "inventors find their own patents in top-10; proximity asymmetric",
                   limit_s=60.0):
        params, _ = trained_models(ModelKind.TRANSE_L2)
        vocab = accept_store.vocab
        inventors = [vocab.refs[o] for o in vocab.ordinals_of_kind(EntityKind.INVENTOR)]
        heads, rels, tails = accept_store.triple_arrays()
        writes = rels == RELATION_INDEX[RelationKind.WRITE]

        def patents_of(inventor):
            """The inventor's patents in insertion order."""
            return tails[writes & (heads == inventor.ordinal)].tolist()

        found = 0
        for inventor in inventors:
            own = set(patents_of(inventor))
            hits = nearest_neighbors(params, vocab, inventor, k=10,
                                     kind_filter={EntityKind.PATENT},
                                     mode=TransformMode.TRANSLATION_ALGEBRA)
            if any(h.entity.ordinal in own for h in hits):
                found += 1
        fraction = found / len(inventors)
        assert fraction >= 0.80, f"only {fraction:.2%} of inventors matched"

        inventor = inventors[0]
        patent = vocab.refs[patents_of(inventor)[0]]
        ab = knowledge_proximity(params, inventor, patent)
        ba = knowledge_proximity(params, patent, inventor)
        assert abs(ab - ba) > 1e-6


# -----------------------------------------------------------------------
# 11. Pipeline determinism: byte-identical archives and reports
# -----------------------------------------------------------------------

def test_criterion_11_pipeline_determinism(tmp_path, monkeypatch):
    with criterion(11, "ingest->train->eval->expansion twice: byte-identical outputs",
                   limit_s=600.0):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        from patkg.graph import generate_synthetic

        store = generate_synthetic(3, 20, 6, 3, 0.2, 0.02, seed=23)
        src = tmp_path / "graph.tsv"
        write_triples_file(store, src)
        groups = [r.source_id for r in store.vocab.refs if r.kind is EntityKind.GROUP]
        universe = tmp_path / "universe.txt"
        universe.write_text("\n".join(groups) + "\n")
        portfolios = tmp_path / "portfolios.tsv"
        rows = []
        for agent in ("x", "y", "z"):
            for i, g in enumerate(groups):
                rows.append(f"{agent}p{i}\t19{70 + i}-01-01\t{g}\t{agent}\tasg")
        portfolios.write_text("\n".join(rows) + "\n")

        def pipeline(tag):
            base = tmp_path / tag
            base.mkdir()
            store_path = base / "store.tsv"
            arc = base / "model.kge"
            eval_report = base / "eval.txt"
            exp_report = base / "expansion.txt"
            assert cli_main(["ingest", str(src), str(store_path)]) == 0
            assert cli_main(["train", str(store_path), "transe_l2", str(arc),
                             "--dim", "8", "--epochs", "5", "--seed", "7"]) == 0
            assert cli_main(["eval", str(arc), str(store_path), str(eval_report),
                             "-K", "20", "--seed", "3"]) == 0
            assert cli_main(["expansion", str(arc), str(portfolios), str(universe),
                             str(exp_report), "--agent-kind", "inventor",
                             "--min-patents", "2"]) == 0
            return [
                (base / "store.tsv.cols").read_bytes(),
                arc.read_bytes(), eval_report.read_bytes(), exp_report.read_bytes(),
                (base / "expansion_inventor_cdf.csv").read_bytes(),
                (base / "expansion_inventor_profiles.csv").read_bytes(),
            ]

        assert pipeline("run_a") == pipeline("run_b")
