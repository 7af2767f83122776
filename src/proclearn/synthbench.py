"""Seeded generator of multi-video tasks with planted key-steps, plus a
benchmark runner comparing the full pipeline against baselines.

Each task plants K prototype feature vectors. Every video walks the step
sequence 1..K, individually dropping, duplicating, and locally reordering
steps per the corruption knobs, then fills the timeline so key-step frames
hit the requested foreground ratio. Key-step frames are noisy copies of their
prototype; background frames are fresh unit draws that never repeat, so they
correspond to nothing in other videos. Ground truth is emitted as ordinary
annotations, so synthetic and real data share one evaluation path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    FeatureSequence,
    KeyStepAssignment,
    KeyStepSegment,
    TaskAnnotation,
    _check_settings,
    _csv_text,
    annotation_to_assignment,
    setting,
)
from .embed import TrainConfig, embed_sequence, train_embedder
from .metrics import _SUMMARY_FIELDS, MetricsReport, full_report
from .procut import PcmConfig, baseline_cluster_all, baseline_random, localize

__all__ = [
    "SynthSpec",
    "generate",
    "compare_methods",
    "run_benchmark",
    "format_benchmark",
    "BENCHMARK_METHODS",
]

BENCHMARK_METHODS = ("cnc", "cluster_all", "random")


@dataclass(frozen=True)
class SynthSpec:
    K: int = setting(5, at_least=1)
    num_videos: int = setting(5, "videos per generated task", at_least=2)
    frames_per_video: int = setting(200, "frames in each generated video", at_least=1)
    feature_dim: int = setting(16, "raw feature dimensionality", at_least=1)
    foreground_ratio_target: float = setting(
        0.6, "target key-step frame fraction", above=0, at_most=1
    )
    missing_prob: float = setting(0.1, "chance each video drops each step", at_least=0, below=1)
    repeat_prob: float = setting(0.1, "chance each video duplicates a step", at_least=0, below=1)
    order_jitter: float = setting(0.1, "chance of swapping each adjacent step pair", at_least=0,
                                 at_most=1)
    noise_sigma: float = setting(0.05, "feature noise scale", at_least=0)
    seed: int = 7

    def __post_init__(self):
        _check_settings(SynthSpec, vars(self))
        if self.K > self.frames_per_video:
            raise ValueError(
                f"K={self.K} exceeds frames_per_video={self.frames_per_video}"
            )


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    rows = rng.standard_normal((count, dim))
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    # A zero draw has probability zero; resample defensively all the same.
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        rows[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / norms


def _video_step_sequence(spec: SynthSpec, rng: np.random.Generator) -> list[int]:
    steps = [k for k in range(1, spec.K + 1) if rng.random() >= spec.missing_prob]
    if steps and rng.random() < spec.repeat_prob:
        dup = steps[int(rng.integers(len(steps)))]
        steps.insert(int(rng.integers(len(steps) + 1)), dup)
    for i in range(len(steps) - 1):
        if rng.random() < spec.order_jitter:
            steps[i], steps[i + 1] = steps[i + 1], steps[i]
    return steps


def generate(
    spec: SynthSpec, task_name: str = "synthetic"
) -> tuple[list[FeatureSequence], TaskAnnotation]:
    """Draw one planted task: feature sequences plus exact ground truth.

    Bit-reproducible for a fixed seed. Raises when a video's sampled step
    occurrences cannot all fit into the foreground frame budget.
    """
    rng = np.random.default_rng(spec.seed)
    prototypes = _unit_rows(rng, spec.K, spec.feature_dim)
    T = spec.frames_per_video
    fps = 1.0

    sequences: list[FeatureSequence] = []
    per_video: dict[str, list[KeyStepSegment]] = {}
    durations: dict[str, float] = {}
    for n in range(spec.num_videos):
        video_id = f"video_{n:02d}"
        steps = _video_step_sequence(spec, rng)
        L = len(steps)
        target = round(spec.foreground_ratio_target * T)
        if L > 0 and target < L:
            raise ValueError(
                f"{video_id}: {L} key-step occurrences cannot fit into "
                f"{target} foreground frames"
            )
        if L == 0:
            occ_sizes = np.zeros(0, dtype=np.int64)
            gap_sizes = np.array([T], dtype=np.int64)
        else:
            occ_sizes = 1 + rng.multinomial(target - L, np.full(L, 1.0 / L))
            gap_sizes = rng.multinomial(T - target, np.full(L + 1, 1.0 / (L + 1)))

        labels = np.zeros(T, dtype=np.int64)
        segments: list[KeyStepSegment] = []
        cursor = int(gap_sizes[0])
        for occ, (label, size) in enumerate(zip(steps, occ_sizes)):
            labels[cursor : cursor + size] = label
            segments.append(
                KeyStepSegment(
                    start_s=cursor / fps, end_s=(cursor + size) / fps, label_id=label
                )
            )
            cursor += int(size) + int(gap_sizes[occ + 1])

        features = np.empty((T, spec.feature_dim))
        background = labels == 0
        features[~background] = prototypes[labels[~background] - 1]
        features[background] = _unit_rows(rng, int(background.sum()), spec.feature_dim)
        if spec.noise_sigma > 0:
            features += spec.noise_sigma * rng.standard_normal(features.shape)
        sequences.append(FeatureSequence(video_id=video_id, features=features, fps=fps))
        per_video[video_id] = segments
        durations[video_id] = T / fps

    annotation = TaskAnnotation(
        task_name=task_name, K=spec.K, per_video=per_video, durations=durations
    )
    return sequences, annotation


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------


def compare_methods(
    embeddings: dict[str, np.ndarray],
    gt: KeyStepAssignment,
    pcm_config: PcmConfig,
    cnc: KeyStepAssignment,
) -> dict[str, MetricsReport]:
    """Score the given ``localize`` assignment and both baselines against one ground truth.

    ``cnc`` is the pipeline's assignment for these embeddings; it must carry
    the ground truth's K, and the baselines run with that K too, so all three
    are directly comparable under the matching step. The ``cluster_all``
    k-means takes its seed and restart count from ``pcm_config``.
    """
    if cnc.K != gt.K:
        raise ValueError(f"cnc assignment has K={cnc.K}, ground truth has K={gt.K}")
    lengths = {video_id: len(labels) for video_id, labels in gt.per_video.items()}
    predictions = {
        "cnc": cnc,
        "cluster_all": baseline_cluster_all(
            embeddings, gt.K, pcm_config.seed, pcm_config.kmeans_restarts
        ),
        "random": baseline_random(lengths, gt.K, pcm_config.seed),
    }
    return {name: full_report(predictions[name], gt) for name in BENCHMARK_METHODS}


def run_benchmark(
    spec: SynthSpec,
    train_config: TrainConfig,
    pcm_config: PcmConfig,
    task_name: str = "synthetic",
) -> dict[str, MetricsReport]:
    """Generate a task, train the embedder, localize once with the ground
    truth's K, and score all methods on it."""
    dataset, annotation = generate(spec, task_name=task_name)
    result = train_embedder(dataset, train_config)
    embeddings = {
        seq.video_id: embed_sequence(result.params, seq) for seq in dataset
    }
    frame_counts = {seq.video_id: seq.num_frames for seq in dataset}
    gt = annotation_to_assignment(annotation, frame_counts)
    config = replace(pcm_config, K=gt.K)
    return compare_methods(embeddings, gt, config, localize(embeddings, config))


def format_benchmark(results: dict[str, MetricsReport]) -> str:
    """One CSV row per method carrying the summary metric columns."""
    rows = [("method", *_SUMMARY_FIELDS)]
    rows.extend((m, *(getattr(r, name) for name in _SUMMARY_FIELDS)) for m, r in results.items())
    return _csv_text(rows)
