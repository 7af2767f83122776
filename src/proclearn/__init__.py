"""Self-supervised key-step discovery from multiple videos of one task.

The pipeline learns per-frame embeddings whose cross-video correspondences
highlight key-step frames, separates key-steps from background with an exact
graph cut, clusters the foreground into K key-steps, orders them, and
evaluates against ground-truth annotations with per-key-step and legacy
framewise protocols. A seeded synthetic benchmark stands in for real data.
"""

from .core import (
    AnnotationError,
    FeatureSequence,
    FileFormatError,
    KeyStepAssignment,
    KeyStepSegment,
    ManifestEntry,
    TaskAnnotation,
    TaskManifest,
    TruncatedFileError,
    load_assignment_file,
    load_feature_header,
    load_features,
    load_manifest,
    parse_annotation_file,
    save_annotation_file,
    save_assignment_file,
    save_features,
    save_manifest,
    segments_to_frame_labels,
)
from .embed import (
    EmbedderParams,
    TrainConfig,
    TrainResult,
    cidm_loss,
    embed_sequence,
    init_params,
    load_params,
    save_params,
    tc3i_loss,
    tcc_loss,
    train_embedder,
)
from .metrics import (
    DatasetStats,
    MetricsReport,
    StepScores,
    dataset_stats,
    full_report,
    hungarian,
    match_labels,
)
from .order import KeyStepOrder, keystep_order
from .procut import (
    CutResult,
    EnergyGraph,
    PcmConfig,
    baseline_cluster_all,
    baseline_random,
    build_energy_graph,
    cluster_foreground,
    correspondence_scores,
    cut_energy,
    localize,
    min_cut,
)
from .synthbench import SynthSpec, compare_methods, generate, run_benchmark

__version__ = "0.1.0"
