"""Evaluation protocol for key-step assignments.

Predicted cluster ids carry no meaning on their own, so evaluation first
finds the best one-to-one relabeling against the ground truth (Hungarian
matching over frame overlap, background included). Scores then come in two
flavors: the per-key-step protocol computes precision/recall/F1/IoU for each
key-step separately and averages the K results unweighted, while the legacy
protocol pools frames across key-steps first. The pooled variant rewards
degenerate single-cluster predictions; the per-key-step mean does not, which
is the point of reporting both. MoF (mean over frames) counts background.

Every score comes from one (K+1) x (K+1) frame-overlap matrix per
(prediction, ground truth) pair, the same matrix the matching runs on. With
its rows relabeled through the mapping, the intersection of a key-step is the
diagonal entry, its predicted and true sizes are the row and column sums, and
MoF is the trace over the total.

Empty-set convention used throughout: a ratio with an empty denominator is 1
when the other set is empty too, otherwise 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import AnnotationError, KeyStepAssignment, TaskAnnotation, _csv_text

__all__ = [
    "StepScores",
    "MetricsReport",
    "DatasetStats",
    "hungarian",
    "match_labels",
    "full_report",
    "dataset_stats",
    "format_report",
    "format_stats",
]


def _check_unit_interval(scores, *names: str) -> None:
    """Raise ValueError naming the first of ``names`` outside [0, 1]."""
    for name in names:
        value = getattr(scores, name)
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class StepScores:
    precision: float
    recall: float
    f1: float
    iou: float

    def __post_init__(self):
        _check_unit_interval(self, "precision", "recall", "f1", "iou")


# MetricsReport's scalar scores, in the order format_report writes them.
_SUMMARY_FIELDS = (
    "legacy_f1",
    "legacy_iou",
    "legacy_precision",
    "legacy_recall",
    "mean_f1",
    "mean_iou",
    "mean_precision",
    "mean_recall",
    "mof",
)


@dataclass(frozen=True)
class MetricsReport:
    mapping: dict[int, int]
    per_keystep: dict[int, StepScores]
    mean_precision: float
    mean_recall: float
    mean_f1: float
    mean_iou: float
    legacy_precision: float
    legacy_recall: float
    legacy_f1: float
    legacy_iou: float
    mof: float

    def __post_init__(self):
        _check_unit_interval(self, *_SUMMARY_FIELDS)


@dataclass(frozen=True)
class DatasetStats:
    foreground_ratio: float
    missing_keysteps: float
    repeated_keysteps: float

    def __post_init__(self):
        _check_unit_interval(self, "foreground_ratio", "missing_keysteps", "repeated_keysteps")


# ---------------------------------------------------------------------------
# Assignment matching
# ---------------------------------------------------------------------------


def _assignment_columns(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column of each row in one min-cost perfect matching of a square matrix.

    Kuhn-Munkres with row and column potentials (Jonker & Volgenant 1987):
    each row enters along one shortest augmenting path of reduced costs,
    grown Dijkstra-style over all columns at once. O(n^3). Also returns the
    final row and column potentials u and v: every reduced cost
    cost[i, j] - u[i] - v[j] is >= 0 up to rounding, and 0 on the matching.
    """
    n = len(cost)
    u, v = np.zeros(n), np.zeros(n + 1)
    row_of = np.full(n + 1, -1)  # matched row per column; column n roots each search
    for i in range(n):
        row_of[n], col = i, n
        dist = np.full(n, np.inf)
        via = np.zeros(n, dtype=np.intp)
        seen = np.zeros(n + 1, dtype=bool)
        while row_of[col] >= 0:
            seen[col] = True
            row = row_of[col]
            reduced = cost[row] - u[row] - v[:n]
            closer = ~seen[:n] & (reduced < dist)
            dist[closer], via[closer] = reduced[closer], col
            col = int(np.argmin(np.where(seen[:n], np.inf, dist)))
            delta = dist[col]
            u[row_of[seen]] += delta
            v[seen] -= delta
            dist[~seen[:n]] -= delta
        while col != n:
            row_of[col], col = row_of[via[col]], via[col]
    columns = np.empty(n, dtype=np.intp)
    columns[row_of[:n]] = np.arange(n)
    return columns, u, v[:n]


def hungarian(cost: np.ndarray) -> tuple[dict[int, int], float]:
    """Min-cost perfect matching on the zero-padded square of ``cost``.

    Deterministic: among all optimal assignments, returns the
    lexicographically smallest (row 0's column first, then row 1's, ...).
    The refinement fixes one row at a time to the smallest column that keeps
    the remaining subproblem at the global optimum. Any matching through
    (row, col) costs at least the optimum plus that entry's reduced cost
    under the first solve's potentials, so a candidate whose reduced cost
    exceeds the 1e-9 tolerance plus a rounding margin of 1e-9 n max|cost|
    is skipped unsolved.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError("cost must be a non-empty 2-D matrix")
    if not np.isfinite(cost).all():
        raise ValueError("cost entries must be finite")
    n = max(cost.shape)
    padded = np.zeros((n, n))
    padded[: cost.shape[0], : cost.shape[1]] = cost

    def optimum(matrix: np.ndarray) -> float:
        if matrix.size == 0:
            return 0.0
        columns, _, _ = _assignment_columns(matrix)
        return float(matrix[np.arange(len(matrix)), columns].sum())

    columns, u, v = _assignment_columns(padded)
    total = float(padded[np.arange(n), columns].sum())
    reduced = padded - u[:, None] - v
    slack = 1e-9 + 1e-9 * n * np.abs(padded).max()
    assignment: dict[int, int] = {}
    free_cols = list(range(n))
    fixed = 0.0
    for row in range(n):
        rest_rows = np.arange(row + 1, n)
        for col in free_cols:
            if reduced[row, col] > slack:
                continue
            rest_cols = [c for c in free_cols if c != col]
            candidate = fixed + padded[row, col] + optimum(padded[np.ix_(rest_rows, rest_cols)])
            if candidate <= total + 1e-9:
                assignment[row] = col
                fixed += padded[row, col]
                free_cols = rest_cols
                break
    return assignment, total


def _overlap(pred: KeyStepAssignment, gt: KeyStepAssignment) -> np.ndarray:
    """(K+1) x (K+1) frame counts: entry [p, g] counts frames predicted p with truth g,
    from one bincount of (K+1) p + g over the task's concatenated frames."""
    if pred.K != gt.K:
        raise ValueError(f"K mismatch: pred {pred.K} vs gt {gt.K}")
    if set(pred.per_video) != set(gt.per_video):
        raise ValueError("pred and gt cover different videos")
    size = gt.K + 1
    codes = [np.zeros(0, np.int64)]
    for video_id, truth in gt.per_video.items():
        if len(pred.per_video[video_id]) != len(truth):
            raise ValueError(f"frame count mismatch for video {video_id!r}")
        codes.append(size * pred.per_video[video_id] + truth)
    return np.bincount(np.concatenate(codes), minlength=size * size).reshape(size, size)


def match_labels(pred: KeyStepAssignment, gt: KeyStepAssignment) -> dict[int, int]:
    """Best predicted-to-true label bijection over {0..K}, background included.

    Maximizes total frame overlap pooled over all videos of the task by
    minimizing its negation with ``hungarian``.
    """
    assignment, _ = hungarian(-_overlap(pred, gt))
    return assignment


# ---------------------------------------------------------------------------
# Scores
# ---------------------------------------------------------------------------


def _safe_ratio(numerator: int, denominator: int, other_size: int) -> float:
    if denominator == 0:
        return 1.0 if other_size == 0 else 0.0
    return numerator / denominator


def _scores(inter: int, n_pred: int, n_gt: int) -> StepScores:
    """Scores of a predicted frame set against a true one, from the two sizes and their overlap."""
    precision = _safe_ratio(inter, n_pred, n_gt)
    recall = _safe_ratio(inter, n_gt, n_pred)
    f1 = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
    union = n_pred + n_gt - inter
    iou = 1.0 if union == 0 else inter / union
    return StepScores(precision=precision, recall=recall, f1=f1, iou=iou)


def full_report(
    pred: KeyStepAssignment,
    gt: KeyStepAssignment,
    mapping: dict[int, int] | None = None,
) -> MetricsReport:
    """Match labels (unless a mapping is given) and compute every score.

    Per-key-step scores average unweighted over labels 1..K; legacy scores
    pool the same counts over 1..K first; MoF counts background too.
    """
    overlap = _overlap(pred, gt)
    K = gt.K
    if mapping is None:
        mapping, _ = hungarian(-overlap)
    elif sorted(mapping) != list(range(K + 1)) or sorted(mapping.values()) != list(range(K + 1)):
        raise ValueError("mapping must be a bijection on labels 0..K")
    # Relabel rows through the mapping: row l then counts frames predicted l.
    confusion = np.empty_like(overlap)
    confusion[[mapping[label] for label in range(K + 1)]] = overlap
    inter = np.diag(confusion)[1:].tolist()
    n_pred = confusion.sum(axis=1)[1:].tolist()
    n_gt = confusion.sum(axis=0)[1:].tolist()
    per_step = {
        label: _scores(i, p, g)
        for label, i, p, g in zip(range(1, K + 1), inter, n_pred, n_gt)
    }
    legacy = _scores(sum(inter), sum(n_pred), sum(n_gt))
    return MetricsReport(
        mapping=mapping,
        per_keystep=per_step,
        mean_precision=float(np.mean([s.precision for s in per_step.values()])),
        mean_recall=float(np.mean([s.recall for s in per_step.values()])),
        mean_f1=float(np.mean([s.f1 for s in per_step.values()])),
        mean_iou=float(np.mean([s.iou for s in per_step.values()])),
        legacy_precision=legacy.precision,
        legacy_recall=legacy.recall,
        legacy_f1=legacy.f1,
        legacy_iou=legacy.iou,
        mof=float(np.trace(confusion) / confusion.sum()),
    )


# ---------------------------------------------------------------------------
# Dataset statistics
# ---------------------------------------------------------------------------


def dataset_stats(annotation: TaskAnnotation) -> DatasetStats:
    """Foreground ratio, missing-key-step rate, and repetition rate.

    With per-video key-step duration t_k, video duration t_v, unique label
    count u, and segment count g over N videos and K key-steps:
    F = mean of t_k/t_v, M = (K*N - sum u)/(K*N), R = (sum g - sum u)/sum g.
    """
    videos = sorted(annotation.per_video)
    if not videos:
        raise AnnotationError("annotation has no videos")
    ratios = []
    unique_total = 0
    segment_total = 0
    for video_id in videos:
        ratios.append(annotation.keystep_duration(video_id) / annotation.video_duration(video_id))
        unique_total += annotation.unique_labels(video_id)
        segment_total += annotation.segment_count(video_id)
    if segment_total == 0:
        raise AnnotationError("no key-step segments; repetition rate undefined")
    N = len(videos)
    K = annotation.K
    return DatasetStats(
        foreground_ratio=sum(ratios) / N,
        missing_keysteps=(K * N - unique_total) / (K * N),
        repeated_keysteps=(segment_total - unique_total) / segment_total,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def format_report(report: MetricsReport) -> str:
    """CSV: one per_keystep row per label ascending, then alphabetical summaries."""
    keysteps = sorted(report.per_keystep.items())
    rows = [("per_keystep", label, s.precision, s.recall, s.f1, s.iou) for label, s in keysteps]
    rows.extend(("summary", name, getattr(report, name)) for name in _SUMMARY_FIELDS)
    return _csv_text(rows)


def format_stats(stats: DatasetStats) -> str:
    """CSV of the three dataset statistics, 6 decimal places."""
    return _csv_text([("stat", "value"), *asdict(stats).items()])
