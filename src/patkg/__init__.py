"""Knowledge-graph embeddings and knowledge proximity for patent metadata.

The package builds a five-relation typed graph from patent metadata,
trains translational and semantic-matching embedding models on it,
evaluates them by corrupt-triple ranking, and measures knowledge
proximity between (kind-transformed) entity embeddings, including the
domain-expansion study over agent portfolios.
"""

from .errors import PatkgError
from .graph import (
    CandidatePool,
    EntityKind,
    EntityRef,
    RelationKind,
    Side,
    SplitSpec,
    Triple,
    TripleStore,
    Vocabulary,
    generate_synthetic,
    sample_corrupt,
    split,
    stats,
)
from .ingestion import (
    AgentPortfolio,
    load_portfolios,
    load_store,
    load_universe,
    parse_triples_file,
    write_triples_file,
)
from .models import ModelKind, ModelParams, grad, init_params, score, scores
from .trainer import LossKind, TrainConfig, TrainReport, default_config, train
from .evaluator import EvalConfig, EvalReport, Sides, TieRule, evaluate, rank_target
from .proximity import (
    NeighborHit,
    TransformMode,
    knowledge_proximity,
    nearest_neighbors,
    pairwise_matrix,
    transform_rule,
)
from .expansion import (
    ExpansionProfile,
    ExpansionReport,
    auc,
    cumulative_distribution,
    domain_agent_proximity,
    explainability,
    group_proximity_matrix,
    percentiles,
    run_study,
)
from .archive import load_archive, save_archive

__version__ = "0.1.0"
