"""Build a typed patent-metadata graph and look around it.

The graph holds five entity kinds (patent, inventor, assignee, group,
subsection) and five relation kinds with fixed schemas:

    patent     --cite-->     patent
    inventor   --write-->    patent
    assignee   --own-->      patent
    group      --contain-->  patent
    subsection --comprise--> group

This script builds a small planted-community graph, prints its census,
shows the file round trip, and demonstrates train/test splitting and
corrupt-triple sampling, the two ingredients of link-prediction
evaluation.
"""

import tempfile
from pathlib import Path

from patkg import (
    EntityKind,
    RelationKind,
    Side,
    SplitSpec,
    Triple,
    generate_synthetic,
    load_store,
    sample_corrupt,
    split,
    stats,
    write_triples_file,
)

store = generate_synthetic(
    communities=4,
    patents_per_community=50,
    inventors_per_community=12,
    assignees_per_community=4,
    intra_cite_prob=0.05,
    inter_cite_prob=0.005,
    seed=42,
)

census = stats(store)
print(f"{census.n_entities} entities, {census.n_triples} triples")
for kind, count in census.entity_counts.items():
    print(f"  {kind.value:11s} {count}")
for rel, count in census.relation_counts.items():
    print(f"  {rel.value:11s} {count}")

# The store round-trips through the tab-separated triple format, with a
# .vocab sidecar pinning ordinal assignment.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "graph.tsv"
    write_triples_file(store, path)
    clone = load_store(path)
    print(f"\nround trip: {len(clone)} triples, fingerprints match:",
          clone.vocab.fingerprint() == store.vocab.fingerprint())
    print("sample line:", path.read_text().splitlines()[0])

# Deterministic 90/10 split: a pure function of contents and seed. The
# held-out triples come back as (heads, relation codes, tails) int64 columns.
train_store, test = split(store, SplitSpec(test_fraction=0.10, seed=7))
heads, rels, tails = test
print(f"\nsplit: {len(train_store)} train / {len(heads)} test")

# Corrupt the first held-out triple on the tail side, staying within the same
# kind: the sampler returns the replacement tails as an int64 ordinal array.
triple = Triple(int(heads[0]), list(RelationKind)[rels[0]], int(tails[0]))
corrupts = sample_corrupt(store, triple, n=5, side=Side.TAIL, rng_seed=3)
print(f"\ntrue triple: {triple}")
for ordinal in corrupts.tolist():
    ref = store.vocab.refs[ordinal]
    print(f"  corrupt tail -> {ref.kind.value}:{ref.source_id}")
assert all(store.vocab.refs[o].kind is EntityKind.PATENT for o in corrupts.tolist())
