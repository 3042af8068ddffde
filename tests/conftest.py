"""Shared fixtures: the planted acceptance graph and lazily trained models."""

import numpy as np
import pytest
from hypothesis import settings

from patkg.graph import generate_synthetic
from patkg.models import ModelKind
from patkg.trainer import LossKind, TrainConfig, train

# Every property-based test draws 300 examples with no per-example deadline.
# The draws are derived from each test's name, and no example database is
# kept, so every run of the suite tries the same examples.
settings.register_profile("patkg", max_examples=300, deadline=None, derandomize=True, database=None)
settings.load_profile("patkg")

# Acceptance-scale planted graph: 5 communities, ~2,000 entities,
# ~20,000 triples. Regenerated per session, deterministic per seed.
ACCEPT_GRAPH_ARGS = dict(
    communities=5,
    patents_per_community=330,
    inventors_per_community=60,
    assignees_per_community=12,
    intra_cite_prob=0.023,
    inter_cite_prob=0.0004,
    seed=7,
)

# Desk-scale reference configs (dim 50) used by the acceptance run.
ACCEPT_CONFIGS = {
    ModelKind.TRANSE_L2: TrainConfig(
        epochs=80, batch_size=512, negatives_per_positive=4, learning_rate=2.0,
        margin=1.0, loss=LossKind.MARGIN_RANK, normalize_entities=True, seed=7, dim=50,
    ),
    ModelKind.TRANSE_L1: TrainConfig(
        epochs=80, batch_size=512, negatives_per_positive=4, learning_rate=0.5,
        margin=1.0, loss=LossKind.MARGIN_RANK, normalize_entities=True, seed=7, dim=50,
    ),
    ModelKind.TRANSR: TrainConfig(
        epochs=80, batch_size=512, negatives_per_positive=4, learning_rate=0.5,
        margin=1.0, loss=LossKind.MARGIN_RANK, normalize_entities=False, seed=7, dim=50,
    ),
    ModelKind.ROTATE: TrainConfig(
        epochs=80, batch_size=512, negatives_per_positive=4, learning_rate=1.0,
        margin=1.0, loss=LossKind.MARGIN_RANK, normalize_entities=False, seed=7, dim=50,
    ),
    ModelKind.RESCAL: TrainConfig(
        epochs=80, batch_size=512, negatives_per_positive=4, learning_rate=2.0,
        loss=LossKind.LOGISTIC, l2_coefficient=1e-5, normalize_entities=False, seed=7, dim=50,
    ),
    ModelKind.DISTMULT: TrainConfig(
        epochs=80, batch_size=512, negatives_per_positive=4, learning_rate=8.0,
        loss=LossKind.LOGISTIC, l2_coefficient=1e-5, normalize_entities=False, seed=7, dim=50,
    ),
    ModelKind.COMPLEX: TrainConfig(
        epochs=80, batch_size=512, negatives_per_positive=4, learning_rate=8.0,
        loss=LossKind.LOGISTIC, l2_coefficient=1e-5, normalize_entities=False, seed=7, dim=50,
    ),
}


@pytest.fixture(scope="session")
def accept_store():
    return generate_synthetic(**ACCEPT_GRAPH_ARGS)


@pytest.fixture(scope="session")
def trained_models(accept_store):
    """Lazy per-model training cache shared by the acceptance criteria."""
    cache: dict[ModelKind, object] = {}

    def get(kind: ModelKind):
        if kind not in cache:
            params, report = train(accept_store, kind, ACCEPT_CONFIGS[kind])
            cache[kind] = (params, report)
        return cache[kind]

    return get


@pytest.fixture(scope="session")
def accept_test_sample(accept_store):
    rng = np.random.default_rng(0)
    idx = rng.choice(len(accept_store), size=400, replace=False)
    return tuple(column[idx] for column in accept_store.triple_arrays())
