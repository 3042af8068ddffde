"""Knowledge proximity: compare any two entities, even of different kinds.

Proximity between same-kind entities is the plain cosine of their
embeddings. For heterogeneous pairs the target entity is first
transformed into the focal entity's kind with signed relation-vector
arithmetic: under the translation principle h + r = t, the
patent-equivalent of an inventor is emb(inventor) + emb(write), and the
inventor-equivalent of a patent is emb(patent) - emb(write). Multi-hop
pairs compose through the patent hub, so the inventor-equivalent of an
assignee is emb(assignee) + emb(own) - emb(write).
"""

from dataclasses import replace

from patkg import (
    EntityKind,
    ModelKind,
    TransformMode,
    default_config,
    generate_synthetic,
    knowledge_proximity,
    nearest_neighbors,
    pairwise_matrix,
    train,
    transform_rule,
)

store = generate_synthetic(
    communities=4, patents_per_community=60, inventors_per_community=15,
    assignees_per_community=5, intra_cite_prob=0.05, inter_cite_prob=0.002, seed=11,
)
config = replace(default_config(ModelKind.TRANSE_L2), dim=32, epochs=60, seed=5)
params, _ = train(store, ModelKind.TRANSE_L2, config)
vocab = store.vocab

# The transformation guide, derived from h + r = t over the schema.
print("transformation steps (focal <- target):")
for focal, target in [
    (EntityKind.PATENT, EntityKind.INVENTOR),
    (EntityKind.INVENTOR, EntityKind.ASSIGNEE),
    (EntityKind.SUBSECTION, EntityKind.PATENT),
]:
    steps = " ".join(f"{'+' if s > 0 else '-'}{rel.value}"
                     for rel, s in transform_rule(focal, target, TransformMode.TRANSLATION_ALGEBRA))
    print(f"  {focal.value:10s} <- {target.value:10s}: emb(target) {steps}")

# Nearest neighborhood of an inventor: its own patents should surface.
inventor = vocab.refs[vocab.ordinals_of_kind(EntityKind.INVENTOR)[0]]
print(f"\nnearest neighbors of {inventor.kind.value}:{inventor.source_id}:")
for rank, hit in enumerate(nearest_neighbors(params, vocab, inventor, k=5), start=1):
    print(f"  {rank}. {hit.entity.kind.value}:{hit.entity.source_id:12s} {hit.proximity:.3f}")

# Proximity is direction-dependent across kinds: the transformation
# differs with the focal side.
from patkg import RelationKind
from patkg.graph import RELATION_INDEX

# The inventor's first patent in insertion order, read from the store's columns.
heads, rels, tails = store.triple_arrays()
written = tails[(heads == inventor.ordinal) & (rels == RELATION_INDEX[RelationKind.WRITE])]
patent = vocab.refs[int(written[0])]
ab = knowledge_proximity(params, inventor, patent)
ba = knowledge_proximity(params, patent, inventor)
print(f"\nproximity(inventor, patent) = {ab:.4f}")
print(f"proximity(patent, inventor) = {ba:.4f}  (differs: transformation swapped)")

# A closed system of heterogeneous entities compared as patent-equivalents.
entities = [
    vocab.refs[vocab.ordinals_of_kind(EntityKind.GROUP)[0]],
    vocab.refs[vocab.ordinals_of_kind(EntityKind.ASSIGNEE)[0]],
    vocab.refs[vocab.ordinals_of_kind(EntityKind.INVENTOR)[0]],
    vocab.refs[vocab.ordinals_of_kind(EntityKind.PATENT)[0]],
]
matrix = pairwise_matrix(params, vocab, entities, EntityKind.PATENT)
labels = [f"{e.kind.value}:{e.source_id}" for e in entities]
print("\npairwise proximity, all entities as patent-equivalents:")
width = max(len(l) for l in labels)
for label, row in zip(labels, matrix):
    print(f"  {label:{width}s} " + " ".join(f"{v:6.3f}" for v in row))
