"""Key-step localization by an exact two-label cut plus clustering.

Frames that correspond strongly across videos of the same task are key-step
candidates; frames that match nothing elsewhere are background. This module
turns per-frame correspondence scores into t-link costs and cuts each video's
chain of frames exactly into a key-step mask. One labeling step,
``_label_frames``, turns a mask into labels: 0 outside it, and 1..K inside it
from ``cluster_foreground``. ``baseline_cluster_all`` is that step on every frame.

Graph convention: the source terminal is the key-step side. ``source_cap[i]``
is the cost of labeling frame i background (it is paid when the cut severs
the source link), and ``sink_cap[i]`` is the cost of labeling it key-step.
Labels are the unique minimal source side over all minimum cuts, so ties go
to background and results do not depend on solver internals.

The graph is one two-label Potts chain per video, and ``EnergyGraph`` holds
just that: per-frame t-link capacities, the video lengths, and the one
``smoothness`` of every n-link between adjacent frames of a video.
``min_cut`` labels it with forward-backward min-marginals in O(T) per
video, all videos in step.

Two stages run concurrently on the process's CPUs: the score products, one
job per video with its later partners, and the Lloyd iterations of the
k-means restarts, one job per restart. Both combine their jobs' results in
a fixed order, so labels do not depend on the CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KeyStepAssignment, _check_settings, _naming, _parallel_map, setting

__all__ = [
    "EnergyGraph",
    "CutResult",
    "PcmConfig",
    "correspondence_scores",
    "build_energy_graph",
    "min_cut",
    "cut_energy",
    "cluster_foreground",
    "localize",
    "baseline_random",
    "baseline_cluster_all",
]


@dataclass(frozen=True)
class EnergyGraph:
    """Two-terminal energy over frames concatenated video by video.

    Each video is a chain: an n-link of capacity ``smoothness`` joins every
    two temporally adjacent frames of one video, and no n-link crosses from
    one video to the next.
    """

    source_cap: np.ndarray
    sink_cap: np.ndarray
    video_lengths: tuple[int, ...]
    smoothness: float

    def __post_init__(self):
        lengths = np.asarray(self.video_lengths)
        if (
            lengths.ndim != 1
            or lengths.size == 0
            or lengths.dtype.kind not in "iu"
            or (lengths < 1).any()
        ):
            raise ValueError(f"video_lengths must be positive integers, got {lengths!r}")
        object.__setattr__(self, "video_lengths", tuple(int(L) for L in lengths))
        for name in ("source_cap", "sink_cap"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (int(lengths.sum()),):
                raise ValueError(f"{name} must have one entry per frame of video_lengths")
            if not np.isfinite(arr).all() or (arr < 0).any():
                raise ValueError(f"{name} entries must be finite and >= 0")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "smoothness", float(self.smoothness))
        _check_settings(PcmConfig, {"smoothness": self.smoothness})

    @property
    def node_count(self) -> int:
        return self.source_cap.shape[0]


@dataclass(frozen=True)
class CutResult:
    """labels[i] = 1 puts node i on the key-step (source) side."""

    labels: np.ndarray
    cut_value: float

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.cut_value < 0:
            raise ValueError(f"cut_value must be >= 0, got {self.cut_value}")


@dataclass(frozen=True)
class PcmConfig:
    """Localization settings; K defaults to ``SynthSpec``'s 5 key-steps."""

    K: int = setting(5, at_least=1)
    smoothness: float = setting(0.5, "n-link capacity between adjacent frames", at_least=0)
    background_bias: float = setting(0.0, "unary offset raising background prevalence")
    kmeans_restarts: int = setting(8, "k-means restarts for foreground clustering", at_least=1)
    seed: int = 0

    def __post_init__(self):
        _check_settings(PcmConfig, vars(self))


# ---------------------------------------------------------------------------
# Correspondence scores and graph construction
# ---------------------------------------------------------------------------


def _embedding_matrices(embeddings: dict) -> list[np.ndarray]:
    """Each video's embedding as a finite float T x E matrix of one shared E.

    Errors name the offending video by the repr of its key.
    """
    names = [repr(v) for v in embeddings]
    mats = []
    for name, E in zip(names, embeddings.values()):
        M = np.asarray(E, dtype=np.float64)
        with _naming(f"video {name}"):
            if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
                got = f"got shape {M.shape}"
                raise ValueError(f"embedding must be a non-empty T x E matrix, {got}")
            if not np.isfinite(M).all():
                raise ValueError("embedding has non-finite entries")
            if mats and M.shape[1] != mats[0].shape[1]:
                width = f"{M.shape[1]} differs from video {names[0]}'s {mats[0].shape[1]}"
                raise ValueError(f"embedding width {width}")
        mats.append(M)
    return mats


def correspondence_scores(embeddings: list[np.ndarray]) -> list[np.ndarray]:
    """Score each frame by how well it matches the other videos.

    The score of frame i in video v is the mean over all other videos of its
    best cosine similarity to any frame there. Rows are assumed
    unit-normalized, so cosines are plain dot products (clipped into [-1, 1]
    against round-off). Each pair of videos shares one product
    ``E_v @ E_w.T``: its row maxima score v and its column maxima score w.
    Every video adds its partners in increasing index order. Errors name a
    video by its index in ``embeddings``.

    Each video's products with its later partners are one job for
    ``core._parallel_map``; the maxima are added in (v, w) order, so scores do
    not depend on the CPU count. A product of more than
    ``_SCORE_BLOCK_ENTRIES`` (2^17) entries is taken in row blocks to bound
    each job's memory.
    """
    if len(embeddings) < 2:
        raise ValueError(f"need at least 2 videos, got {len(embeddings)}")
    mats = _embedding_matrices(dict(enumerate(embeddings)))
    acc = [np.zeros(E.shape[0]) for E in mats]
    mean_length = sum(len(E) for E in mats) / len(mats)
    maxima = _parallel_map(
        lambda v: _partner_maxima(mats, v), range(len(mats) - 1), int(mean_length**2)
    )
    for v, partners in enumerate(maxima):
        for w, (row_max, col_max) in enumerate(partners, start=v + 1):
            acc[v] += row_max
            acc[w] += col_max
    return [np.clip(a / (len(mats) - 1), -1.0, 1.0) for a in acc]


# Entries of one row block of a score product: 1 MB of float64, half of a
# 2 MB L2 cache, so a block stays there while its maxima are taken. A pair
# of videos of up to 2^17 frame pairs is one product. Of 2^15 to 2^18, 2^17
# scored fastest on both 40 videos of 500 frames (297 ms against 335 ms at
# 2^18) and 5 of 1000 (16 ms against 23 ms), E = 16, BLAS on one thread, on
# a 2-vCPU Xeon with 2 MB of L2 per core.
_SCORE_BLOCK_ENTRIES = 1 << 17


def _partner_maxima(mats: list[np.ndarray], v: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row and column maxima of ``mats[v] @ mats[w].T`` for each w > v, in order.

    The product is taken in row blocks of at most ``_SCORE_BLOCK_ENTRIES`` entries,
    each written over the last in one buffer per partner.
    """
    E = mats[v]
    partners = []
    for F in mats[v + 1 :]:
        step = max(1, _SCORE_BLOCK_ENTRIES // len(F))
        block = np.empty((min(step, len(E)), len(F)))
        row_max, col_max = np.empty(len(E)), np.full(len(F), -np.inf)
        for start in range(0, len(E), step):
            rows = E[start : start + step]
            product = np.matmul(rows, F.T, out=block[: len(rows)])
            row_max[start : start + step] = product.max(axis=1)
            np.maximum(col_max, product.max(axis=0), out=col_max)
        partners.append((row_max, col_max))
    return partners


def build_energy_graph(
    scores: np.ndarray,
    video_lengths: list[int],
    smoothness: float,
    background_bias: float,
) -> EnergyGraph:
    """Build the cut graph over all frames, concatenated video by video.

    Per frame with normalized score c = (score + 1) / 2 the background cost
    is c and the key-step cost is 1 - c + background_bias; when the bias
    drives a cost negative, both of the frame's t-links are shifted up
    together so neither capacity goes below zero (the minimizer is
    unaffected). n-links of capacity ``smoothness`` join temporally adjacent
    frames of the same video.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or not np.isfinite(scores).all():
        raise ValueError("scores must be a finite vector")
    c = (scores + 1.0) / 2.0
    bg_cost = c
    ks_cost = 1.0 - c + background_bias
    shift = np.minimum(0.0, np.minimum(bg_cost, ks_cost))
    return EnergyGraph(
        source_cap=np.maximum(0.0, bg_cost - shift),
        sink_cap=np.maximum(0.0, ks_cost - shift),
        video_lengths=video_lengths,
        smoothness=smoothness,
    )


# ---------------------------------------------------------------------------
# Exact min-cut
# ---------------------------------------------------------------------------


def min_cut(graph: EnergyGraph) -> CutResult:
    """Cut every video's chain exactly, in O(T) per video.

    Each video is a two-label Potts chain. With delta = sink_cap - source_cap
    and clip to [-smoothness, smoothness], the forward messages
    f_t = delta_t + clip(f_{t-1}) and backward messages
    b_t = clip(delta_{t+1} + b_{t+1}) sum to M_t(key-step) - M_t(background),
    the difference of frame t's min-marginals (Kohli & Torr 2008). A frame
    is key-step iff that sum is negative: then every minimum cut puts it on
    the source side, and on a tie the minimal source side leaves it out.
    Videos run in step, padded after their end with zero costs.
    """
    lengths = np.asarray(graph.video_lengths)
    video = np.repeat(np.arange(len(lengths)), lengths)
    frame = np.arange(graph.node_count) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    delta = np.zeros((int(lengths.max()), len(lengths)))
    delta[frame, video] = graph.sink_cap - graph.source_cap
    lo, hi = -graph.smoothness, graph.smoothness
    fwd = np.empty_like(delta)
    fwd[0] = delta[0]
    for t in range(1, len(delta)):
        np.maximum(fwd[t - 1], lo, out=fwd[t])
        np.minimum(fwd[t], hi, out=fwd[t])
        fwd[t] += delta[t]
    bwd = np.zeros_like(delta)
    for t in range(len(delta) - 2, -1, -1):
        np.add(delta[t + 1], bwd[t + 1], out=bwd[t])
        np.maximum(bwd[t], lo, out=bwd[t])
        np.minimum(bwd[t], hi, out=bwd[t])
    fwd += bwd
    labels = (fwd[frame, video] < 0.0).astype(np.int64)
    return CutResult(labels=labels, cut_value=cut_energy(graph, labels))


def cut_energy(graph: EnergyGraph, labels: np.ndarray) -> float:
    """Energy of a labeling: chosen-side unary costs plus severed n-links.

    Only a label change between adjacent frames of one video severs a link.
    """
    labels = np.asarray(labels)
    unary = np.where(labels == 1, graph.sink_cap, graph.source_cap).sum()
    changes = labels[1:] != labels[:-1]
    changes[np.cumsum(graph.video_lengths)[:-1] - 1] = False
    return float(unary + graph.smoothness * np.count_nonzero(changes))


# ---------------------------------------------------------------------------
# Foreground clustering
# ---------------------------------------------------------------------------


# Points whose two nearest centroids lie this close in Gram form, relative
# to the squared norms involved, are ranked again from the row differences.
_GRAM_TIE_RTOL = 1e-9


def _nearest_centroids(
    points: np.ndarray, points_t: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Index of each point's nearest centroid, the lowest index on ties.

    Centroids are ranked by ||c||^2 - 2 x.c, one K x n product; rounding in
    that form can swap two centroids at nearly equal distance, so points
    whose best two values lie within ``_GRAM_TIE_RTOL`` of their scale are
    ranked by squared row differences instead.
    """
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    gram = centroids @ points_t
    gram *= -2.0
    gram += c_sq[:, None]
    labels = np.zeros(points_t.shape[1], dtype=np.int64)
    best = gram[0].copy()
    second = np.full_like(best, np.inf)
    for c in range(1, gram.shape[0]):
        np.minimum(second, np.maximum(best, gram[c]), out=second)
        # c exceeds every earlier label, so the maximum sets exactly the
        # points that c is strictly closer to.
        np.maximum(labels, c * (gram[c] < best), out=labels)
        np.minimum(best, gram[c], out=best)
    near = np.flatnonzero(second - best <= _GRAM_TIE_RTOL * (sq_norms + c_sq.max()))
    # Every point can be near a tie (identical centroids, say), so the
    # chunk x K x E differences are taken in chunks of a score block's size.
    step = max(1, _SCORE_BLOCK_ENTRIES // centroids.size)
    for start in range(0, near.size, step):
        chunk = near[start : start + step]
        diff = points[chunk][:, None, :] - centroids[None, :, :]
        labels[chunk] = np.square(diff, out=diff).sum(axis=2).argmin(axis=1)
    return labels


def _kmeans_seed(
    points: np.ndarray, sq_norms: np.ndarray, K: int, rng: np.random.Generator
) -> np.ndarray:
    """K initial centroids by kmeans++ seeding, drawn from ``rng``.

    The first centroid is a point drawn uniformly; each later one is a point
    drawn with probability proportional to its squared distance to the
    nearest centroid so far, or uniformly when every such distance is 0
    (Arthur & Vassilvitskii 2007). ``sq_norms`` holds each point's squared
    norm. A centroid's squared distances come from one matrix-vector product
    in Gram form, ``sq_norms - 2 x.c + ||c||^2``. Distances within
    ``_GRAM_TIE_RTOL`` of the squared norms involved, or below 0, are taken
    from row differences instead, so every copy of a centroid lies at exactly
    0. The draws are the ones row differences everywhere make, in the same
    order, unless a uniform variate lands within rounding of a boundary of
    the cumulative distribution.
    """
    n = points.shape[0]
    centroids = np.empty((K, points.shape[1]))

    def sq_distances(centroid):
        c_sq = centroid @ centroid
        d2 = points @ centroid
        d2 *= -2.0
        d2 += sq_norms
        d2 += c_sq
        near = np.flatnonzero(d2 <= _GRAM_TIE_RTOL * (sq_norms + c_sq))
        if near.size > 0:
            d2[near] = ((points[near] - centroid) ** 2).sum(axis=1)
        return d2

    centroids[0] = points[int(rng.integers(n))]
    d2 = sq_distances(centroids[0])
    for c in range(1, K):
        mass = d2.sum()
        if mass > 0:
            idx = int(rng.choice(n, p=d2 / mass))
        else:
            idx = int(rng.integers(n))
        centroids[c] = points[idx]
        np.minimum(d2, sq_distances(centroids[c]), out=d2)
    return centroids


def _lloyd(points, points_t, sq_norms, centroids):
    """Lloyd iterations from ``centroids`` (updated in place) until the labels
    repeat, at most 100; returns labels, centroids and inertia."""
    K = centroids.shape[0]
    labels = np.full(points.shape[0], -1, dtype=np.int64)
    clusters = np.arange(K)[:, None]
    for _ in range(100):
        new_labels = _nearest_centroids(points, points_t, sq_norms, centroids)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # Member sums from one K x n by n x E product with the one-hot labels.
        counts = np.bincount(labels, minlength=K)
        sums = (labels == clusters).astype(np.float64) @ points
        present = counts > 0
        centroids[present] = sums[present] / counts[present, None]
    diff = centroids[labels]
    np.subtract(points, diff, out=diff)
    np.square(diff, out=diff)
    return labels, centroids, float(diff.sum())


def cluster_foreground(
    points: np.ndarray, K: int, kmeans_restarts: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster foreground embeddings into key-steps labeled 1..K.

    Uses k-means (squared-Euclidean, kmeans++ seeding, best of
    ``kmeans_restarts`` by inertia, the first on ties). With fewer points than
    K every point becomes its own cluster and higher labels go unused. Every
    restart is seeded first, in order, from the one generator; the Lloyd
    iterations of the restarts then run as jobs of ``core._parallel_map``.
    """
    points = np.asarray(points, dtype=np.float64)
    _check_settings(PcmConfig, {"K": K, "kmeans_restarts": kmeans_restarts})
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("need at least one foreground point")
    n = points.shape[0]
    if n < K:
        return np.arange(1, n + 1, dtype=np.int64), points.copy()
    rng = np.random.default_rng(seed)
    sq_norms = np.einsum("ij,ij->i", points, points)
    seeds = [_kmeans_seed(points, sq_norms, K, rng) for _ in range(kmeans_restarts)]
    points_t = np.ascontiguousarray(points.T)
    runs = _parallel_map(
        lambda start: _lloyd(points, points_t, sq_norms, start), seeds, K * points.shape[0]
    )
    labels, centroids, _ = min(runs, key=lambda run: run[2])
    return labels + 1, centroids


# ---------------------------------------------------------------------------
# Full localization and baselines
# ---------------------------------------------------------------------------


def localize(embeddings: dict[str, np.ndarray], config: PcmConfig) -> KeyStepAssignment:
    """Assign every frame a key-step label in 1..K or 0 for background.

    Pipeline: cross-video correspondence scores, an exact cut of each
    video's frame chain (the minimal source side of
    ``min_cut(build_energy_graph(...))``), then ``_label_frames`` on the
    key-step side of the cut.
    An empty foreground yields an all-background assignment. An empty,
    non-2-D, non-finite or mis-sized embedding raises ValueError naming its
    video, and so does K above the task's frame count.
    """
    mats = _embedding_matrices(embeddings)
    frames = sum(len(m) for m in mats)
    if config.K > frames:
        raise ValueError(f"K={config.K} exceeds the task's {frames} frames")
    scores = correspondence_scores(mats)
    lengths = [len(s) for s in scores]
    graph = build_energy_graph(
        np.concatenate(scores), lengths, config.smoothness, config.background_bias
    )
    keystep = min_cut(graph).labels == 1
    return _label_frames(embeddings, mats, keystep, config.K, config.kmeans_restarts, config.seed)


def _label_frames(embeddings, mats, keystep, K, kmeans_restarts, seed) -> KeyStepAssignment:
    """Frames outside the ``keystep`` mask get 0, ``cluster_foreground`` labels
    those inside 1..K, and the labels go back to the videos of ``embeddings``."""
    flat = np.zeros(keystep.shape[0], dtype=np.int64)
    ends = np.cumsum([len(m) for m in mats])[:-1]
    fg = np.flatnonzero(keystep)
    if fg.size > 0:
        # Each video's foreground rows are copied straight into one array:
        # a copy of every frame, or per-video copies, raise the peak memory.
        points = np.empty((fg.size, mats[0].shape[1]))
        pieces = np.split(points, np.searchsorted(fg, ends))
        for m, mask, piece in zip(mats, np.split(keystep, ends), pieces):
            np.compress(mask, m, axis=0, out=piece)
        flat[fg], _ = cluster_foreground(points, K, kmeans_restarts, seed)
    return KeyStepAssignment(per_video=dict(zip(embeddings, np.split(flat, ends))), K=K)


def baseline_random(
    video_lengths: dict[str, int], K: int, seed: int
) -> KeyStepAssignment:
    """Uniform random labels in 1..K for every frame; no background."""
    _check_settings(PcmConfig, {"K": K})
    rng = np.random.default_rng(seed)
    per_video = {
        video_id: rng.integers(1, K + 1, size=T, dtype=np.int64)
        for video_id, T in video_lengths.items()
    }
    return KeyStepAssignment(per_video=per_video, K=K)


def baseline_cluster_all(
    embeddings: dict[str, np.ndarray],
    K: int,
    seed: int,
    kmeans_restarts: int = PcmConfig.kmeans_restarts,
) -> KeyStepAssignment:
    """k-means over every frame of every video; no background separation.

    This is ``localize``'s labeling step with every frame in the mask.
    Embeddings are checked as in ``localize``; errors name the video.
    """
    if len(embeddings) < 1:
        raise ValueError("need at least one video")
    mats = _embedding_matrices(embeddings)
    every_frame = np.ones(sum(len(m) for m in mats), dtype=bool)
    return _label_frames(embeddings, mats, every_frame, K, kmeans_restarts, seed)
