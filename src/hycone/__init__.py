"""Hyperbolic contrastive representation learning on the Lorentz model.

Core pieces: hyperboloid geometry kernels, entailment-cone losses, a
minimal reverse-mode tape engine, a deterministic desk-scale trainer on
synthetic concept trees, and embedding-space analysis instruments
(root-distance statistics, geodesic traversals, retrieval, zero-shot
classification) for both the hyperbolic space and a spherical baseline.
"""

from .analysis import (
    Classification,
    ClassScores,
    EmbeddingIndex,
    TraversalResult,
    class_scores,
    classify,
    estimate_root,
    interpolate_steps,
    retrieve,
    root_distance_stats,
    traverse,
    with_root,
)
from .autodiff import GradReport, Node, Tape, finite_diff
from .dumpio import DumpFormatError, read_dump, write_dump
from .entailment import ConeParams, entailment_loss_pair, exterior_angle, half_aperture
from .geometry import (
    AmbientVector,
    Curvature,
    HyperbolicPoint,
    TangentVector,
    exp_map_origin,
    lift,
    log_map_origin,
    lorentz_distance,
    lorentz_inner,
    origin,
    poincare_to_lorentz,
    tangent_project,
    time_component,
)
from .hierarchy import ConceptTree, PairSampler, generate_tree, held_out_images
from .losses import (
    BatchEmbeddings,
    LossBreakdown,
    LossParams,
    SimilarityMode,
    contrastive_loss,
    lift_batch,
    logit_matrix,
    total_loss,
)
from .trainer import (
    Checkpoint,
    DivergenceError,
    TrainConfig,
    adamw_step,
    load_checkpoint,
    lr_at,
    reference_config,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
