"""The domain-expansion study: do embeddings explain where agents go next?

An agent's home domains are the classification groups it already
patents in, weighted by patent counts. Every target group gets the
patent-count-weighted mean proximity to the home domains, targets are
ranked, and the rank percentile of each group the agent actually enters
is appended to its expansion profile. A model whose proximities explain
expansion yields profiles near 1; the step-function AUC of the
profile's cumulative distribution equals the profile mean, and
explainability is the share of agents a model wins on per-agent AUC.

The script first reproduces the hand-worked three-domain example
exactly, then runs the full study machinery over simulated agents with
an informed and an uninformed embedding set.
"""

import numpy as np

from patkg import (
    EntityKind,
    ModelKind,
    TripleStore,
    auc,
    cumulative_distribution,
    domain_agent_proximity,
    init_params,
    percentiles,
    run_study,
)
from patkg.expansion import group_proximity_matrix
from patkg.ingestion import AgentPortfolio

# -- the worked example ---------------------------------------------------
# pairwise proximities of groups A-F as a symmetric matrix (unit diagonal)
phi_table = {
    ("A", "D"): 0.06, ("C", "D"): 0.18,
    ("A", "E"): 0.36, ("D", "E"): 0.018,
    ("A", "F"): 0.03, ("D", "F"): 0.019,
}
codes = "ABCDEF"
phi = np.eye(6)
for (i, j), value in phi_table.items():
    phi[codes.index(i), codes.index(j)] = phi[codes.index(j), codes.index(i)] = value

# the routine whose core the study's walk runs for every emission and model
prox = dict(zip("DEF", domain_agent_proximity(phi, np.array([1, 2, 3, 0, 0, 0]), [3, 4, 5]).tolist()))
print("home {A:1, B:2, C:3}; proximity to targets:", prox)
print("percentiles:", percentiles(sorted(prox.items())))

prox = dict(zip("EF", domain_agent_proximity(phi, np.array([1, 2, 3, 1, 0, 0]), [4, 5]).tolist()))
print("after entering D:", prox, "->", percentiles(sorted(prox.items())))

# -- full study over simulated agents --------------------------------------
rng = np.random.default_rng(17)
universe = [f"{chr(65 + k)}0{j}A" for k in range(6) for j in range(5)]
store = TripleStore()
for code in universe:
    store.add_entity(EntityKind.GROUP, code)
fp = store.vocab.fingerprint()

informed = init_params(ModelKind.TRANSE_L2, len(universe), 12, seed=1, vocab_fingerprint=fp)
for i, code in enumerate(universe):
    centroid = np.zeros(12)
    centroid[ord(code[0]) - 65] = 1.0
    informed.entities[i] = centroid + rng.normal(0, 0.08, 12)
uninformed = init_params(ModelKind.TRANSE_L2, len(universe), 12, seed=2, vocab_fingerprint=fp)

# agents follow the informed model's proximities when choosing domains
phi_matrix = group_proximity_matrix(informed, store.vocab, universe)
portfolios = []
for a in range(25):
    counts = {universe[int(rng.integers(len(universe)))]: 1}
    patent_ids, groups = ["p00"], [frozenset(counts)]
    for step in range(1, 13):
        weights = np.array([counts.get(g, 0) for g in universe])
        target_idx = np.flatnonzero(weights == 0)
        scores = domain_agent_proximity(phi_matrix, weights, target_idx)
        best = universe[target_idx[int(np.argmax(scores))]]
        patent_ids.append(f"p{step:02d}")
        groups.append(frozenset([best]))
        counts[best] = 1
    portfolios.append(AgentPortfolio(f"agent{a}", EntityKind.INVENTOR, patent_ids, groups))

report = run_study(store.vocab, portfolios, universe,
                   {"informed": informed, "uninformed": uninformed}, min_patents=10)
print(f"\nstudy over {len(report.agent_ids)} agents:")
print(f"{'model':12s} {'combined AUC':>13s} {'explainability':>15s}")
for name in sorted(report.combined_auc):
    print(f"{name:12s} {report.combined_auc[name]:13.3f} {report.explainability[name]:15.2f}")

profile = report.combined_profiles["informed"]
print("\ninformed model CDF samples (x, share of profile >= x):")
samples = cumulative_distribution(profile)
for x, share in samples[:: max(1, len(samples) // 6)]:
    print(f"  ({x:.3f}, {share:.3f})")
print("AUC equals the profile mean:", np.isclose(auc(profile), np.mean(profile.entries)))
