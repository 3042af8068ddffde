"""Train embedding models and rank held-out triples against corruptions.

Each model scores a triple <h, r, t> so that higher means more
plausible. Training draws corrupt triples for every positive and either
enforces a margin between the two scores (translational models) or
pushes their logistic likelihoods apart (semantic-matching models).
Evaluation ranks the true entity among K sampled corruptions and
aggregates MR, MRR and Hits@k.
"""

from patkg import (
    EvalConfig,
    ModelKind,
    SplitSpec,
    default_config,
    evaluate,
    generate_synthetic,
    split,
    train,
)
from dataclasses import replace

store = generate_synthetic(
    communities=4,
    patents_per_community=60,
    inventors_per_community=15,
    assignees_per_community=5,
    intra_cite_prob=0.05,
    inter_cite_prob=0.002,
    seed=11,
)
train_store, test = split(store, SplitSpec(0.10, seed=1))
print(f"training on {len(train_store)} triples, evaluating {len(test[0])}")

print(f"\n{'model':12s} {'loss':12s} {'MR':>7s} {'MRR':>7s} {'hits@10':>8s}")
for kind in (ModelKind.TRANSE_L2, ModelKind.DISTMULT, ModelKind.ROTATE):
    config = replace(default_config(kind), dim=32, epochs=40, seed=5)
    params, report = train(train_store, kind, config)
    result = evaluate(params, test, store, EvalConfig(corruptions_per_side=50, seed=2))
    print(f"{kind.value:12s} {config.loss.value:12s} "
          f"{result.mr:7.2f} {result.mrr:7.3f} {result.hits[10]:8.3f}")

# Per-relation breakdown for the last model: functional relations
# (write/own/contain) are much easier to predict than citations.
print("\nper-relation breakdown (last model):")
for rel, metrics in result.per_relation.items():
    print(f"  {rel.value:9s} n={metrics.queries:4d} mrr={metrics.mrr:.3f}")
