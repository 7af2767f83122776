"""Key-step localization by an exact two-label cut plus clustering.

Frames that correspond strongly across videos of the same task are key-step
candidates; frames that match nothing elsewhere are background. This module
turns per-frame correspondence scores into t-link costs, cuts each video's
chain of frames exactly, and clusters the foreground side into K key-steps.

Graph convention: the source terminal is the key-step side. ``source_cap[i]``
is the cost of labeling frame i background (it is paid when the cut severs
the source link), and ``sink_cap[i]`` is the cost of labeling it key-step.
Labels are the unique minimal source side over all minimum cuts, so ties go
to background and results do not depend on solver internals.

``localize`` only ever cuts disjoint per-video Potts chains, so it labels
them with forward-backward min-marginals in O(T) per video, all videos in
step. ``build_energy_graph`` and ``min_cut`` (Dinic max-flow) stay as the
general graph and solver, and the tests check ``localize`` against them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import KeyStepAssignment, setting

EPS = 1e-12

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
    """Two-terminal energy: per-node t-link capacities plus within-video n-links."""

    node_count: int
    source_cap: np.ndarray
    sink_cap: np.ndarray
    n_links: list[tuple[int, int, float]] = field(default_factory=list)

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {self.node_count}")
        for name in ("source_cap", "sink_cap"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (self.node_count,):
                raise ValueError(f"{name} must have one entry per node")
            if not np.isfinite(arr).all() or (arr < 0).any():
                raise ValueError(f"{name} entries must be finite and >= 0")
            object.__setattr__(self, name, arr)
        for u, v, cap in self.n_links:
            if u == v:
                raise ValueError(f"n-link endpoints must differ, got ({u}, {v})")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"n-link ({u}, {v}) out of range")
            if not (np.isfinite(cap) and cap >= 0):
                raise ValueError(f"n-link capacity must be finite and >= 0, got {cap}")


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

    K: int = 5
    smoothness: float = setting(0.5, "n-link capacity between adjacent frames")
    background_bias: float = setting(0.0, "unary offset raising background prevalence")
    kmeans_restarts: int = setting(8, "k-means restarts for foreground clustering")
    seed: int = 0

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if self.smoothness < 0 or not np.isfinite(self.smoothness):
            raise ValueError("smoothness must be finite and >= 0")
        if not np.isfinite(self.background_bias):
            raise ValueError("background_bias must be finite")
        if self.kmeans_restarts < 1:
            raise ValueError("kmeans_restarts must be >= 1")


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
        if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
            raise ValueError(
                f"video {name}: embedding must be a non-empty T x E matrix, "
                f"got shape {M.shape}"
            )
        if not np.isfinite(M).all():
            raise ValueError(f"video {name}: embedding has non-finite entries")
        if mats and M.shape[1] != mats[0].shape[1]:
            raise ValueError(
                f"video {name}: embedding width {M.shape[1]} differs from "
                f"video {names[0]}'s {mats[0].shape[1]}"
            )
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
    """
    if len(embeddings) < 2:
        raise ValueError(f"need at least 2 videos, got {len(embeddings)}")
    mats = _embedding_matrices(dict(enumerate(embeddings)))
    acc = [np.zeros(E.shape[0]) for E in mats]
    for v, E in enumerate(mats):
        for w in range(v + 1, len(mats)):
            product = E @ mats[w].T
            acc[v] += product.max(axis=1)
            acc[w] += product.max(axis=0)
    return [np.clip(a / (len(mats) - 1), -1.0, 1.0) for a in acc]


def _tlink_caps(scores: np.ndarray, background_bias: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame (source_cap, sink_cap) by the t-link rule of ``build_energy_graph``."""
    c = (scores + 1.0) / 2.0
    bg_cost = c
    ks_cost = 1.0 - c + background_bias
    shift = np.minimum(0.0, np.minimum(bg_cost, ks_cost))
    return np.maximum(0.0, bg_cost - shift), np.maximum(0.0, ks_cost - shift)


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
    frames of the same video; none are added when smoothness is 0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or not np.isfinite(scores).all():
        raise ValueError("scores must be a finite vector")
    if any(L < 1 for L in video_lengths) or sum(video_lengths) != scores.shape[0]:
        raise ValueError("video_lengths must be positive and sum to len(scores)")

    source_cap, sink_cap = _tlink_caps(scores, background_bias)
    n_links: list[tuple[int, int, float]] = []
    if smoothness > 0:
        offset = 0
        for L in video_lengths:
            for t in range(L - 1):
                n_links.append((offset + t, offset + t + 1, float(smoothness)))
            offset += L
    return EnergyGraph(
        node_count=scores.shape[0],
        source_cap=source_cap,
        sink_cap=sink_cap,
        n_links=n_links,
    )


# ---------------------------------------------------------------------------
# Exact min-cut
# ---------------------------------------------------------------------------


def min_cut(graph: EnergyGraph) -> CutResult:
    """Cut the graph exactly; labels come from residual source-reachability.

    Max-flow by Dinic's algorithm with paired residual edges; the blocking
    flow search is iterative, so long frame chains cannot hit the recursion
    limit. Residual capacities below EPS count as saturated.
    """
    n = graph.node_count
    source, sink = n, n + 1
    heads: list[list[int]] = [[] for _ in range(n + 2)]
    to: list[int] = []
    cap: list[float] = []

    def add_edge(u: int, v: int, c_uv: float, c_vu: float) -> None:
        heads[u].append(len(to))
        to.append(v)
        cap.append(c_uv)
        heads[v].append(len(to))
        to.append(u)
        cap.append(c_vu)

    for i in range(n):
        add_edge(source, i, float(graph.source_cap[i]), 0.0)
        add_edge(i, sink, float(graph.sink_cap[i]), 0.0)
    for u, v, c_uv in graph.n_links:
        add_edge(u, v, float(c_uv), float(c_uv))

    total = 0.0
    num_nodes = n + 2
    while True:
        level = [-1] * num_nodes
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for eid in heads[u]:
                v = to[eid]
                if cap[eid] > EPS and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] < 0:
            break
        ptr = [0] * num_nodes
        while True:
            # Walk source->sink through the level graph, retreating on dead ends.
            path: list[int] = []
            u = source
            reached = False
            while True:
                if u == sink:
                    reached = True
                    break
                moved = False
                while ptr[u] < len(heads[u]):
                    eid = heads[u][ptr[u]]
                    v = to[eid]
                    if cap[eid] > EPS and level[v] == level[u] + 1:
                        path.append(eid)
                        u = v
                        moved = True
                        break
                    ptr[u] += 1
                if moved:
                    continue
                if u == source:
                    break
                path.pop()
                u = source if not path else to[path[-1]]
                ptr[u] += 1
            if not reached:
                break
            bottleneck = min(cap[eid] for eid in path)
            for eid in path:
                cap[eid] -= bottleneck
                cap[eid ^ 1] += bottleneck
            total += bottleneck

    reachable = [False] * num_nodes
    reachable[source] = True
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for eid in heads[u]:
            v = to[eid]
            if cap[eid] > EPS and not reachable[v]:
                reachable[v] = True
                queue.append(v)
    labels = np.fromiter((1 if reachable[i] else 0 for i in range(n)), dtype=np.int64)
    return CutResult(labels=labels, cut_value=max(0.0, total))


def cut_energy(graph: EnergyGraph, labels: np.ndarray) -> float:
    """Energy of a labeling: chosen-side unary costs plus severed n-links."""
    labels = np.asarray(labels)
    unary = np.where(labels == 1, graph.sink_cap, graph.source_cap).sum()
    pairwise = sum(c for u, v, c in graph.n_links if labels[u] != labels[v])
    return float(unary + pairwise)


def _cut_chains(
    scores: np.ndarray,
    video_lengths: list[int],
    smoothness: float,
    background_bias: float,
) -> np.ndarray:
    """Key-step mask of ``min_cut(build_energy_graph(...))``, in O(T) per video.

    Each video is a two-label Potts chain. With delta = sink_cap - source_cap
    and clip to [-smoothness, smoothness], the forward messages
    f_t = delta_t + clip(f_{t-1}) and backward messages
    b_t = clip(delta_{t+1} + b_{t+1}) sum to M_t(key-step) - M_t(background),
    the difference of frame t's min-marginals (Kohli & Torr 2008). A frame
    is key-step iff that sum is negative: then every minimum cut puts it on
    the source side, and on a tie the minimal source side leaves it out.
    Videos run in step, padded after their end with zero costs.
    """
    source_cap, sink_cap = _tlink_caps(scores, background_bias)
    lengths = np.asarray(video_lengths)
    video = np.repeat(np.arange(len(lengths)), lengths)
    frame = np.arange(len(scores)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    delta = np.zeros((int(lengths.max()), len(lengths)))
    delta[frame, video] = sink_cap - source_cap
    lo, hi = -float(smoothness), float(smoothness)
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
    return fwd[frame, video] < 0.0


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
        labels[gram[c] < best] = c
        np.minimum(best, gram[c], out=best)
    near = np.flatnonzero(second - best <= _GRAM_TIE_RTOL * (sq_norms + c_sq.max()))
    if near.size > 0:
        diff = points[near][:, None, :] - centroids[None, :, :]
        labels[near] = (diff**2).sum(axis=2).argmin(axis=1)
    return labels


def _kmeans_once(
    points: np.ndarray,
    points_t: np.ndarray,
    sq_norms: np.ndarray,
    K: int,
    rng: np.random.Generator,
):
    n = points.shape[0]
    centroids = np.empty((K, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for c in range(1, K):
        # kmeans++ seeding: sample proportional to squared distance.
        mass = d2.sum()
        if mass > 0:
            idx = int(rng.choice(n, p=d2 / mass))
        else:
            idx = int(rng.integers(n))
        centroids[c] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[c]) ** 2, axis=1))

    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(100):
        new_labels = _nearest_centroids(points, points_t, sq_norms, centroids)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # Member sums in frame order, the order members.mean(axis=0) adds
        # them in, from one weighted bincount per dimension.
        counts = np.bincount(labels, minlength=K)
        sums = np.stack(
            [np.bincount(labels, weights=column, minlength=K) for column in points_t],
            axis=1,
        )
        present = counts > 0
        centroids[present] = sums[present] / counts[present, None]
    inertia = float(((points - centroids[labels]) ** 2).sum())
    return labels, centroids, inertia


def _kmeans(points: np.ndarray, K: int, restarts: int, rng: np.random.Generator):
    points_t = np.ascontiguousarray(points.T)
    sq_norms = np.einsum("ij,ij->i", points, points)
    best = None
    for _ in range(restarts):
        labels, centroids, inertia = _kmeans_once(points, points_t, sq_norms, K, rng)
        if best is None or inertia < best[2]:
            best = (labels, centroids, inertia)
    return best


def cluster_foreground(
    points: np.ndarray, K: int, kmeans_restarts: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster foreground embeddings into key-steps labeled 1..K.

    Uses k-means (squared-Euclidean, kmeans++ seeding, best of
    ``kmeans_restarts`` by inertia). With fewer points than K every point
    becomes its own cluster and higher labels go unused.
    """
    points = np.asarray(points, dtype=np.float64)
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("need at least one foreground point")
    n = points.shape[0]
    if n < K:
        return np.arange(1, n + 1, dtype=np.int64), points.copy()
    rng = np.random.default_rng(seed)
    labels, centroids, _ = _kmeans(points, K, kmeans_restarts, rng)
    return labels + 1, centroids


# ---------------------------------------------------------------------------
# Full localization and baselines
# ---------------------------------------------------------------------------


def localize(embeddings: dict[str, np.ndarray], config: PcmConfig) -> KeyStepAssignment:
    """Assign every frame a key-step label in 1..K or 0 for background.

    Pipeline: cross-video correspondence scores, an exact cut of each
    video's frame chain (the minimal source side of
    ``min_cut(build_energy_graph(...))``, found by ``_cut_chains``), k-means
    over the foreground side. An empty foreground yields an all-background
    assignment. An empty, non-2-D, non-finite or mis-sized embedding raises
    ValueError naming its video, and so does K above the task's frame count.
    """
    video_ids = list(embeddings)
    mats = _embedding_matrices(embeddings)
    frames = sum(len(m) for m in mats)
    if config.K > frames:
        raise ValueError(f"K={config.K} exceeds the task's {frames} frames")
    scores = correspondence_scores(mats)
    lengths = [len(s) for s in scores]
    keystep = _cut_chains(
        np.concatenate(scores), lengths, config.smoothness, config.background_bias
    )

    flat = np.zeros(keystep.shape[0], dtype=np.int64)
    fg_idx = np.flatnonzero(keystep)
    if fg_idx.size > 0:
        cluster_labels, _ = cluster_foreground(
            np.concatenate(mats)[fg_idx], config.K, config.kmeans_restarts, config.seed
        )
        flat[fg_idx] = cluster_labels
    return KeyStepAssignment(per_video=_split_by_video(flat, video_ids, lengths), K=config.K)


def _split_by_video(
    flat: np.ndarray, video_ids: list[str], lengths: list[int]
) -> dict[str, np.ndarray]:
    """Cut labels of concatenated videos back into one array per video."""
    return dict(zip(video_ids, np.split(flat, np.cumsum(lengths)[:-1])))


def baseline_random(
    video_lengths: dict[str, int], K: int, seed: int
) -> KeyStepAssignment:
    """Uniform random labels in 1..K for every frame; no background."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    rng = np.random.default_rng(seed)
    per_video = {
        video_id: rng.integers(1, K + 1, size=T, dtype=np.int64)
        for video_id, T in video_lengths.items()
    }
    return KeyStepAssignment(per_video=per_video, K=K)


def baseline_cluster_all(
    embeddings: dict[str, np.ndarray], K: int, seed: int, kmeans_restarts: int = 8
) -> KeyStepAssignment:
    """k-means over every frame of every video; no background separation.

    Embeddings are checked as in ``localize``; errors name the video.
    """
    if len(embeddings) < 1:
        raise ValueError("need at least one video")
    video_ids = list(embeddings)
    mats = _embedding_matrices(embeddings)
    flat, _ = cluster_foreground(np.concatenate(mats), K, kmeans_restarts, seed)
    lengths = [m.shape[0] for m in mats]
    return KeyStepAssignment(per_video=_split_by_video(flat, video_ids, lengths), K=K)
