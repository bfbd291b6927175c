"""dynembed: dynamic graph embeddings over snapshot sequences.

SVD-family methods (batch, incremental, bounded-restart) and
autoencoder-family methods (static, Procrustes-aligned, warm-started,
lookback) with an evaluation harness and experiment CLI.
"""

__version__ = "0.1.0"

from .ae import (
    AeConfig,
    MlpParams,
    TrainResult,
    ae_forward,
    ae_gradient,
    ae_loss,
    aealign_series,
    d2v_ae_series,
    dyngem_series,
    static_ae_series,
)
from .config import ExperimentConfig, from_dict, from_file
from .evaluation import (
    EvalReport,
    ScoredPairs,
    mean_average_precision,
    migration_proximity_stat,
    node_classification,
    precision_at_k,
    static_lp_split,
    temporal_lp_eval,
)
from .graphs import (
    EdgeDelta,
    GraphSnapshot,
    SnapshotSequence,
    apply_delta,
    dense_adjacency,
    edge_delta,
    load_snapshots,
    save_snapshots,
)
from .numerics import TruncatedSvd, pca_project_2d, procrustes_rotation, truncated_svd
from .pipeline import run_experiment
from .rng import Rng
from .sbm import DynamicSbmSeries, SbmParams, diminish_series, generate_sbm_snapshot
from .series import EmbeddingSeries, load_embedding_series, save_embedding_series
from .svd_embed import (
    SvdFactorState,
    incremental_update,
    loss_lower_bound,
    optimal_svd_embed,
    optimal_svd_series,
    rerun_svd_series,
)

__all__ = [
    "AeConfig", "MlpParams", "TrainResult", "ae_forward", "ae_gradient", "ae_loss",
    "aealign_series", "d2v_ae_series", "dyngem_series", "static_ae_series",
    "ExperimentConfig", "from_dict", "from_file", "EvalReport",
    "ScoredPairs", "mean_average_precision", "migration_proximity_stat",
    "node_classification", "precision_at_k", "static_lp_split", "temporal_lp_eval",
    "EdgeDelta", "GraphSnapshot", "SnapshotSequence", "apply_delta", "dense_adjacency",
    "edge_delta", "load_snapshots", "save_snapshots", "TruncatedSvd", "pca_project_2d",
    "procrustes_rotation", "truncated_svd", "run_experiment", "Rng",
    "DynamicSbmSeries", "SbmParams", "diminish_series", "generate_sbm_snapshot",
    "EmbeddingSeries", "load_embedding_series", "save_embedding_series",
    "SvdFactorState", "incremental_update",
    "loss_lower_bound", "optimal_svd_embed", "optimal_svd_series", "rerun_svd_series",
    "__version__",
]
