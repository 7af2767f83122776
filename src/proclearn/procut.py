"""Key-step localization by exact two-terminal graph cut plus clustering.

Frames that correspond strongly across videos of the same task are key-step
candidates; frames that match nothing elsewhere are background. This module
turns per-frame correspondence scores into a two-terminal energy graph, cuts
it exactly with max-flow, and clusters the foreground side into K key-steps.

Graph convention: the source terminal is the key-step side. ``source_cap[i]``
is the cost of labeling frame i background (it is paid when the cut severs
the source link), and ``sink_cap[i]`` is the cost of labeling it key-step.
Cut labels are read off the source-reachable set of the residual graph,
which is the unique minimal source side over all maximum flows, so results
do not depend on the order augmenting paths were found in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import KeyStepAssignment

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
    K: int = 7
    smoothness: float = 0.5
    background_bias: float = 0.0
    kmeans_restarts: int = 8
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


def correspondence_scores(embeddings: list[np.ndarray]) -> list[np.ndarray]:
    """Score each frame by how well it matches the other videos.

    The score of frame i in video v is the mean over all other videos of its
    best cosine similarity to any frame there. Rows are assumed
    unit-normalized, so cosines are plain dot products (clipped into [-1, 1]
    against round-off).
    """
    mats = [np.asarray(E, dtype=np.float64) for E in embeddings]
    if len(mats) < 2:
        raise ValueError(f"need at least 2 videos, got {len(mats)}")
    for E in mats:
        if E.ndim != 2 or E.shape[0] < 1:
            raise ValueError("each video needs a non-empty T x E matrix")
    scores = []
    for v, E in enumerate(mats):
        acc = np.zeros(E.shape[0])
        for w, F in enumerate(mats):
            if w == v:
                continue
            acc += (E @ F.T).max(axis=1)
        scores.append(np.clip(acc / (len(mats) - 1), -1.0, 1.0))
    return scores


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

    c = (scores + 1.0) / 2.0
    bg_cost = c
    ks_cost = 1.0 - c + background_bias
    shift = np.minimum(0.0, np.minimum(bg_cost, ks_cost))
    source_cap = np.maximum(0.0, bg_cost - shift)
    sink_cap = np.maximum(0.0, ks_cost - shift)

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


# ---------------------------------------------------------------------------
# Foreground clustering
# ---------------------------------------------------------------------------


def _kmeans_once(points: np.ndarray, K: int, rng: np.random.Generator):
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
        dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(K):
            members = points[labels == c]
            if members.shape[0] > 0:
                centroids[c] = members.mean(axis=0)
    inertia = float(((points - centroids[labels]) ** 2).sum())
    return labels, centroids, inertia


def _kmeans(points: np.ndarray, K: int, restarts: int, rng: np.random.Generator):
    best = None
    for _ in range(restarts):
        labels, centroids, inertia = _kmeans_once(points, K, rng)
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

    Pipeline: cross-video correspondence scores, energy graph, exact cut,
    k-means over the foreground side. An empty foreground yields an
    all-background assignment.
    """
    video_ids = list(embeddings)
    mats = [embeddings[v] for v in video_ids]
    scores = correspondence_scores(mats)
    lengths = [len(s) for s in scores]
    graph = build_energy_graph(
        np.concatenate(scores), lengths, config.smoothness, config.background_bias
    )
    cut = min_cut(graph)

    flat = np.zeros(graph.node_count, dtype=np.int64)
    fg_idx = np.flatnonzero(cut.labels == 1)
    if fg_idx.size > 0:
        all_points = np.concatenate([np.asarray(m, dtype=np.float64) for m in mats])
        cluster_labels, _ = cluster_foreground(
            all_points[fg_idx], config.K, config.kmeans_restarts, config.seed
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
    """k-means over every frame of every video; no background separation."""
    if len(embeddings) < 1:
        raise ValueError("need at least one video")
    video_ids = list(embeddings)
    mats = [np.asarray(embeddings[v], dtype=np.float64) for v in video_ids]
    flat, _ = cluster_foreground(np.concatenate(mats), K, kmeans_restarts, seed)
    lengths = [m.shape[0] for m in mats]
    return KeyStepAssignment(per_video=_split_by_video(flat, video_ids, lengths), K=K)
