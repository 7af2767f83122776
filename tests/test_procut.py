from __future__ import annotations

import inspect
import tracemalloc

import numpy as np
import pytest

from oracles import (
    correspondence_scores_serial,
    brute_force_min_energy,
    brute_force_minimal_source_side,
    chain_min_marginals,
    chain_n_links,
    correspondence_scores_oracle,
)
from proclearn import procut
from proclearn.procut import (
    _nearest_centroids,
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

# Frozen from the brute-force double-loop oracle over 3 unit-normalized
# videos (T=5, E=4) drawn from default_rng(5).
SCORES_GOLDEN_V0 = np.array(
    [0.43252675058747636, 0.6199554694122245, 0.3970558065042863,
     0.860092381045274, 0.774259819936072]
)
SCORES_GOLDEN_V2 = np.array(
    [0.7777596411470102, 0.794617055067417, 0.5857898018683495,
     0.6704372664234033, -0.050739152052450415]
)


def _unit_videos(seed=5, count=3, T=5, E=4):
    rng = np.random.default_rng(seed)
    videos = []
    for _ in range(count):
        M = rng.standard_normal((T, E))
        videos.append(M / np.linalg.norm(M, axis=1, keepdims=True))
    return videos


def _random_graph(rng, n):
    """n frames split into random videos; integer caps and smoothness."""
    bounds = rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False)
    return EnergyGraph(
        source_cap=rng.integers(0, 9, size=n).astype(np.float64),
        sink_cap=rng.integers(0, 9, size=n).astype(np.float64),
        video_lengths=np.diff([0, *sorted(bounds), n]).tolist(),
        smoothness=float(rng.integers(0, 6)),
    )


def _links(graph):
    return chain_n_links(graph.video_lengths, graph.smoothness)


# ---------------------------------------------------------------------------
# Correspondence scores
# ---------------------------------------------------------------------------


def test_scores_identical_vector_scores_one():
    shared = np.array([1.0, 0.0, 0.0])
    a = np.stack([shared, [0.0, 1.0, 0.0]])
    b = np.stack([[0.0, 0.0, 1.0], shared])
    scores = correspondence_scores([a, b])
    assert scores[0][0] == 1.0
    assert scores[1][1] == 1.0


def test_scores_orthogonal_frame_scores_zero():
    a = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    b = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    scores = correspondence_scores([a, b])
    assert np.all(scores[0] == 0.0)
    assert np.all(scores[1] == 0.0)


def test_scores_match_double_loop_golden():
    scores = correspondence_scores(_unit_videos())
    np.testing.assert_allclose(scores[0], SCORES_GOLDEN_V0, atol=1e-15)
    np.testing.assert_allclose(scores[2], SCORES_GOLDEN_V2, atol=1e-15)


def test_scores_match_two_product_oracle():
    rng = np.random.default_rng(24)
    for count in (2, 3, 6):
        videos = []
        for T in rng.integers(1, 80, size=count):
            M = rng.standard_normal((int(T), 16))
            videos.append(M / np.linalg.norm(M, axis=1, keepdims=True))
        scores = correspondence_scores(videos)
        for got, expected in zip(scores, correspondence_scores_oracle(videos)):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


def test_scores_do_not_depend_on_the_cpu_count(cpus):
    rng = np.random.default_rng(25)

    def unit(T):
        M = rng.standard_normal((T, 8))
        return M / np.linalg.norm(M, axis=1, keepdims=True)

    ragged = [unit(int(T)) for T in rng.integers(1, 90, size=7)]
    # 620 x 530 frame pairs exceed 2^18: the product is taken in row blocks,
    # which may round differently from one whole product.
    blocked = [unit(620), unit(530), unit(40)]
    for videos in (ragged, blocked):
        serial = correspondence_scores_serial(videos)
        runs = []
        for n in (1, 2, 3):
            cpus(n)
            runs.append(correspondence_scores(videos))
        for scores in runs[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(scores, runs[0]))
        for got, expected in zip(runs[0], serial):
            if videos is ragged:
                assert np.array_equal(got, expected)
            else:
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


def test_scores_errors_name_the_video():
    good = _unit_videos(count=2)
    bad_videos = {
        "empty": np.zeros((0, 4)),
        "not 2-D": np.ones(4),
        "non-finite": np.where(np.eye(5, 4) > 0, np.nan, 0.5),
        "width": np.ones((5, 3)),
    }
    for why, bad in bad_videos.items():
        with pytest.raises(ValueError, match="video 2"):
            correspondence_scores([*good, bad])
        with pytest.raises(ValueError, match="video 'clip_b'"):
            localize({"clip_a": good[0], "clip_b": bad}, PcmConfig(K=2))
        with pytest.raises(ValueError, match="video 'clip_b'"):
            baseline_cluster_all({"clip_a": good[0], "clip_b": bad}, K=2, seed=0)


def test_scores_single_video_rejected():
    with pytest.raises(ValueError):
        correspondence_scores(_unit_videos(count=1))


def test_scores_lie_in_unit_interval_and_permute_with_frames():
    videos = _unit_videos(seed=6)
    scores = correspondence_scores(videos)
    for s in scores:
        assert np.all(s >= -1.0) and np.all(s <= 1.0)
    perm = np.array([3, 0, 4, 1, 2])
    shuffled = [videos[0][perm], videos[1], videos[2]]
    new_scores = correspondence_scores(shuffled)
    np.testing.assert_allclose(new_scores[0], scores[0][perm], atol=1e-15)
    np.testing.assert_allclose(new_scores[1], scores[1], atol=1e-15)
    np.testing.assert_allclose(new_scores[2], scores[2], atol=1e-15)


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------


def test_build_graph_single_certain_frame():
    graph = build_energy_graph(np.array([1.0]), [1], smoothness=0.5, background_bias=0.0)
    assert graph.source_cap[0] == 1.0
    assert graph.sink_cap[0] == 0.0
    assert graph.node_count == 1
    result = min_cut(graph)
    assert result.labels.tolist() == [1]
    assert result.cut_value == 0.0


def test_build_graph_independent_unaries():
    graph = build_energy_graph(np.array([1.0, -1.0]), [2], smoothness=0.0, background_bias=0.0)
    assert graph.smoothness == 0.0
    assert min_cut(graph).labels.tolist() == [1, 0]


def test_build_graph_strong_smoothing_merges_labels():
    graph = build_energy_graph(np.array([1.0, -1.0]), [2], smoothness=10.0, background_bias=0.0)
    result = min_cut(graph)
    assert result.labels[0] == result.labels[1]
    # Optimal energy over the 4 labelings: unaries are (1,0) and (0,1).
    best = brute_force_min_energy(graph.source_cap, graph.sink_cap, _links(graph))
    assert cut_energy(graph, result.labels) == pytest.approx(best, abs=1e-9)


def test_build_graph_links_stay_within_videos():
    graph = build_energy_graph(np.zeros(5), [2, 3], smoothness=0.7, background_bias=0.0)
    assert graph.video_lengths == (2, 3)
    assert graph.smoothness == 0.7
    # Every frame costs 0.5 on either side; only a change inside a video
    # severs an n-link.
    assert cut_energy(graph, np.array([1, 1, 0, 0, 0])) == pytest.approx(2.5)
    assert cut_energy(graph, np.array([1, 0, 0, 0, 0])) == pytest.approx(3.2)
    assert cut_energy(graph, np.array([1, 1, 0, 1, 1])) == pytest.approx(3.2)


def test_build_graph_shifts_negative_capacity():
    # background_bias -0.8 drives the key-step cost of a score-1 frame to
    # -0.8; both t-links shift up together and stay non-negative.
    graph = build_energy_graph(np.array([1.0]), [1], smoothness=0.0, background_bias=-0.8)
    assert graph.source_cap[0] == pytest.approx(1.8)
    assert graph.sink_cap[0] == pytest.approx(0.0)


def test_build_graph_validates_input():
    with pytest.raises(ValueError):
        build_energy_graph(np.array([np.nan]), [1], 0.0, 0.0)
    with pytest.raises(ValueError):
        build_energy_graph(np.zeros(3), [2, 2], 0.0, 0.0)


def test_energy_graph_invariants():
    def graph(source=(0.0, 0.0), lengths=(2,), smoothness=0.0):
        return EnergyGraph(
            source_cap=np.array(source),
            sink_cap=np.zeros(len(source)),
            video_lengths=lengths,
            smoothness=smoothness,
        )

    assert graph().node_count == 2
    assert graph(lengths=np.array([1, 1])).video_lengths == (1, 1)
    for bad in ({"source": (-1.0, 0.0)}, {"source": (np.inf, 0.0)}):
        with pytest.raises(ValueError, match="source_cap"):
            graph(**bad)
    for lengths in ((), (3,), (2, 0), (1, -1, 2), (1.0, 1.0), ((1, 1),)):
        with pytest.raises(ValueError):
            graph(lengths=lengths)
    for smoothness in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="smoothness"):
            graph(smoothness=smoothness)
    with pytest.raises(ValueError):
        CutResult(labels=np.array([0]), cut_value=-1.0)


# ---------------------------------------------------------------------------
# Exact cut
# ---------------------------------------------------------------------------


def test_min_cut_single_node_picks_cheaper_side():
    graph = EnergyGraph(
        source_cap=np.array([5.0]), sink_cap=np.array([1.0]), video_lengths=[1], smoothness=0.0
    )
    result = min_cut(graph)
    assert result.labels.tolist() == [1]
    assert result.cut_value == pytest.approx(1.0)


def test_min_cut_disconnected_nodes_take_per_node_minima():
    # Three one-frame videos: the large smoothness joins nothing.
    source = np.array([3.0, 1.0, 2.0])
    sink = np.array([1.0, 4.0, 2.0])
    result = min_cut(
        EnergyGraph(source_cap=source, sink_cap=sink, video_lengths=[1, 1, 1], smoothness=9.0)
    )
    assert result.cut_value == pytest.approx(np.minimum(source, sink).sum())
    assert result.labels.tolist()[0] == 1
    assert result.labels.tolist()[1] == 0


def test_min_cut_tie_resolves_to_background():
    graph = EnergyGraph(
        source_cap=np.array([0.5]), sink_cap=np.array([0.5]), video_lengths=[1], smoothness=0.0
    )
    assert min_cut(graph).labels.tolist() == [0]


def test_min_cut_matches_exhaustive_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        graph = _random_graph(rng, n)
        result = min_cut(graph)
        energy = cut_energy(graph, result.labels)
        best = brute_force_min_energy(graph.source_cap, graph.sink_cap, _links(graph))
        minimal, _ = brute_force_minimal_source_side(
            graph.source_cap, graph.sink_cap, _links(graph)
        )
        assert energy == best
        assert result.cut_value == energy
        np.testing.assert_array_equal(result.labels, minimal)


def test_min_cut_long_chain_matches_dynamic_program():
    n = 3000
    scores = np.where(np.arange(n) % 2 == 0, 0.9, -0.9)
    graph = build_energy_graph(scores, [n], smoothness=0.1, background_bias=0.0)
    result = min_cut(graph)
    M0, M1 = chain_min_marginals(graph.source_cap, graph.sink_cap, 0.1)
    assert result.cut_value == pytest.approx(min(M0[0], M1[0]), abs=1e-9)
    np.testing.assert_array_equal(result.labels == 1, M1 < M0)


def test_min_cut_deterministic():
    graph = _random_graph(np.random.default_rng(18), 8)
    first = min_cut(graph)
    second = min_cut(graph)
    np.testing.assert_array_equal(first.labels, second.labels)
    assert first.cut_value == second.cut_value


# ---------------------------------------------------------------------------
# The chain cut of localize
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("smoothness", [0.0, 0.25, 0.5, 1.5])
@pytest.mark.parametrize("background_bias", [-0.375, 0.0, 0.25])
def test_chain_cut_matches_min_cut(smoothness, background_bias):
    rng = np.random.default_rng(25)
    ties = 0
    for trial in range(40):
        lengths = [int(L) for L in rng.integers(1, 6, size=int(rng.integers(1, 4)))]
        if trial % 3 == 0:
            lengths[0] = 1
        n = sum(lengths)
        on_grid = trial % 2 == 0
        # Scores on an eighth grid make costs exact binary fractions, so
        # equal-energy labelings tie exactly.
        scores = rng.integers(-8, 9, size=n) / 8.0 if on_grid else rng.uniform(-1, 1, n)
        graph = build_energy_graph(scores, lengths, smoothness, background_bias)
        got = min_cut(graph).labels
        minimal, tied = brute_force_minimal_source_side(
            graph.source_cap, graph.sink_cap, _links(graph)
        )
        np.testing.assert_array_equal(got, minimal)
        offset = 0
        for L in lengths:
            sl = slice(offset, offset + L)
            M0, M1 = chain_min_marginals(graph.source_cap[sl], graph.sink_cap[sl], smoothness)
            np.testing.assert_array_equal(got[sl] == 1, M1 < M0)
            offset += L
        ties += tied
    assert ties > 0


def test_chain_cut_three_way_tie_goes_to_background():
    # Labelings (0,0), (1,0) and (1,1) all cost 1.0; no frame is key-step in all.
    graph = build_energy_graph(np.array([0.5, -0.5]), [2], 0.5, 0.0)
    assert min_cut(graph).labels.tolist() == [0, 0]


def test_localize_foreground_is_min_cut_source_side():
    # The foreground is exactly the frames whose key-step min-marginal, from
    # the looped dynamic program, is below their background one.
    rng = np.random.default_rng(26)
    for trial in range(12):
        videos = {}
        for n, T in enumerate(rng.integers(1, 30, size=int(rng.integers(2, 5)))):
            M = rng.standard_normal((int(T), 4))
            videos[f"v{n}"] = M / np.linalg.norm(M, axis=1, keepdims=True)
        config = PcmConfig(
            K=2,
            smoothness=float(rng.choice([0.0, 0.1, 0.5])),
            background_bias=float(rng.uniform(-0.4, 0.4)),
            kmeans_restarts=2,
            seed=trial,
        )
        assignment = localize(videos, config)
        scores = correspondence_scores(list(videos.values()))
        for video_id, s in zip(videos, scores):
            graph = build_energy_graph(s, [len(s)], config.smoothness, config.background_bias)
            M0, M1 = chain_min_marginals(graph.source_cap, graph.sink_cap, config.smoothness)
            np.testing.assert_array_equal(assignment.per_video[video_id] > 0, M1 < M0)


def test_localize_cuts_through_build_energy_graph_and_min_cut(monkeypatch):
    # The benchmark's cut spans wrap these two module attributes.
    calls = {"build_energy_graph": 0, "min_cut": 0}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(procut, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(procut, name, counted)
    localize(dict(zip("abc", _unit_videos())), PcmConfig(K=2, kmeans_restarts=1))
    assert calls == {"build_energy_graph": 1, "min_cut": 1}


# ---------------------------------------------------------------------------
# Foreground clustering
# ---------------------------------------------------------------------------


def test_cluster_single_cluster_and_centroid():
    points = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    labels, centroids = cluster_foreground(points, K=1, kmeans_restarts=2, seed=0)
    assert labels.tolist() == [1, 1, 1]
    np.testing.assert_allclose(centroids[0], [2.0, 0.0])


def test_cluster_separated_clouds():
    rng = np.random.default_rng(19)
    cloud_a = rng.standard_normal((10, 2)) * 0.1
    cloud_b = rng.standard_normal((10, 2)) * 0.1 + 100.0
    points = np.concatenate([cloud_a, cloud_b])
    labels, _ = cluster_foreground(points, K=2, kmeans_restarts=4, seed=1)
    assert len(set(labels[:10])) == 1
    assert len(set(labels[10:])) == 1
    assert labels[0] != labels[10]


def test_cluster_fewer_points_than_k():
    points = np.array([[0.0, 1.0], [1.0, 0.0]])
    labels, centroids = cluster_foreground(points, K=5, kmeans_restarts=2, seed=2)
    assert labels.tolist() == [1, 2]
    np.testing.assert_array_equal(centroids, points)


def test_cluster_inertia_beats_random_labelings():
    rng = np.random.default_rng(20)
    points = rng.standard_normal((30, 2))
    labels, centroids = cluster_foreground(points, K=3, kmeans_restarts=8, seed=3)
    inertia = ((points - centroids[labels - 1]) ** 2).sum()
    for _ in range(1000):
        rand = rng.integers(0, 3, size=30)
        rand_centroids = np.stack(
            [
                points[rand == c].mean(axis=0) if np.any(rand == c) else np.zeros(2)
                for c in range(3)
            ]
        )
        rand_inertia = ((points - rand_centroids[rand]) ** 2).sum()
        assert inertia <= rand_inertia + 1e-9


@pytest.mark.parametrize("offset", [0.0, 50.0], ids=["unit-norm", "offset-50"])
def test_cluster_is_a_direct_distance_fixed_point(offset):
    rng = np.random.default_rng(27)
    for K in (1, 3, 6):
        points = rng.standard_normal((400, 8))
        if offset == 0.0:
            points /= np.linalg.norm(points, axis=1, keepdims=True)
        else:
            points = points[:, :2] * 0.5 + offset + rng.integers(0, 3, size=(400, 1))
        labels, centroids = cluster_foreground(points, K=K, kmeans_restarts=3, seed=K)
        for c in np.unique(labels):
            members = points[labels == c]
            np.testing.assert_allclose(centroids[c - 1], members.mean(axis=0), rtol=0, atol=1e-12)
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        own = d2[np.arange(len(labels)), labels - 1]
        assert (own - d2.min(axis=1)).max() <= 1e-12


def test_nearest_centroids_match_direct_argmin_on_bisectors():
    # Points within 1e-9 of the midway point between two centroids far from
    # the origin: their two squared distances differ by less than the Gram
    # form's rounding error (about 1e-8 here), but direct differences rank
    # them right.
    rng = np.random.default_rng(29)
    centroids = 1e4 + rng.standard_normal((4, 3))
    pairs = rng.integers(0, 4, size=(2000, 2))
    points = (centroids[pairs[:, 0]] + centroids[pairs[:, 1]]) / 2.0
    points += 1e-9 * rng.standard_normal(points.shape)
    expected = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    got = _nearest_centroids(
        points, np.ascontiguousarray(points.T), (points**2).sum(axis=1), centroids
    )
    np.testing.assert_array_equal(got, expected)


def test_cluster_peak_memory_stays_below_a_point_centroid_difference():
    # n x K x E float64 differences alone would take n * K * E * 8 bytes.
    n, E, K = 20000, 16, 5
    points = np.random.default_rng(28).standard_normal((n, E))
    tracemalloc.start()
    try:
        cluster_foreground(points, K=K, kmeans_restarts=1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * K * E * 8


def test_cluster_does_not_depend_on_the_cpu_count(cpus):
    rng = np.random.default_rng(26)
    centers = rng.standard_normal((4, 3)) * 3
    points = np.concatenate([c + rng.standard_normal((60, 3)) for c in centers])
    runs = []
    for n in (1, 2, 3):
        cpus(n)
        runs.append(cluster_foreground(points, K=4, kmeans_restarts=7, seed=8))
    for labels, centroids in runs[1:]:
        assert np.array_equal(labels, runs[0][0])
        assert np.array_equal(centroids, runs[0][1])


def test_cluster_validation_and_determinism():
    points = np.ones((4, 2))
    with pytest.raises(ValueError):
        cluster_foreground(points, K=0, kmeans_restarts=1, seed=0)
    with pytest.raises(ValueError):
        cluster_foreground(np.ones((0, 2)), K=1, kmeans_restarts=1, seed=0)
    a, _ = cluster_foreground(points, K=2, kmeans_restarts=3, seed=4)
    b, _ = cluster_foreground(points, K=2, kmeans_restarts=3, seed=4)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Localization
# ---------------------------------------------------------------------------


def test_localize_identical_content_single_effective_cluster():
    frame = np.array([1.0, 0.0, 0.0])
    videos = {
        "a": np.tile(frame, (3, 1)),
        "b": np.tile(frame, (3, 1)),
    }
    assignment = localize(videos, PcmConfig(K=2, seed=0))
    for labels in assignment.per_video.values():
        assert np.all(labels == 1)


def test_localize_orthogonal_content_all_background():
    videos = {
        "a": np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]),
        "b": np.array([[0, 0, 1.0, 0], [0, 0, 0, 1.0]]),
    }
    assignment = localize(videos, PcmConfig(K=2, smoothness=0.0, background_bias=0.0, seed=0))
    for labels in assignment.per_video.values():
        assert np.all(labels == 0)


def test_localize_labels_within_range():
    rng = np.random.default_rng(21)
    videos = {}
    for n in range(3):
        M = rng.standard_normal((12, 4))
        videos[f"v{n}"] = M / np.linalg.norm(M, axis=1, keepdims=True)
    config = PcmConfig(K=3, seed=5)
    assignment = localize(videos, config)
    assert assignment.K == 3
    for labels in assignment.per_video.values():
        assert labels.min() >= 0 and labels.max() <= 3


def test_localize_background_bias_is_monotone():
    rng = np.random.default_rng(22)
    videos = {}
    for n in range(3):
        M = rng.standard_normal((15, 4))
        videos[f"v{n}"] = M / np.linalg.norm(M, axis=1, keepdims=True)
    previous = -1
    for bias in (-0.5, -0.2, 0.0, 0.2, 0.5, 0.9):
        assignment = localize(videos, PcmConfig(K=2, background_bias=bias, seed=6))
        background = sum(int((labels == 0).sum()) for labels in assignment.per_video.values())
        assert background >= previous
        previous = background


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_localize_keeping_every_frame_labels_as_cluster_all(seed):
    # With background_bias -2 every frame's key-step cost -1 - c lies below
    # its background cost c, and smoothness 0 couples nothing, so the cut
    # keeps every frame and labeling matches clustering all of them.
    videos = dict(zip("abc", _unit_videos(seed=seed, T=12)))
    config = PcmConfig(K=3, smoothness=0.0, background_bias=-2.0, kmeans_restarts=3, seed=seed)
    cnc = localize(videos, config)
    everything = baseline_cluster_all(videos, config.K, config.seed, config.kmeans_restarts)
    assert list(cnc.per_video) == list(everything.per_video) == list(videos)
    for video_id in videos:
        assert cnc.per_video[video_id].min() >= 1
        np.testing.assert_array_equal(cnc.per_video[video_id], everything.per_video[video_id])


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def test_baseline_random_k1_and_determinism():
    lengths = {"a": 4, "b": 3}
    ones = baseline_random(lengths, K=1, seed=0)
    assert all(np.all(v == 1) for v in ones.per_video.values())
    first = baseline_random(lengths, K=3, seed=1)
    second = baseline_random(lengths, K=3, seed=1)
    for video_id in lengths:
        np.testing.assert_array_equal(first.per_video[video_id], second.per_video[video_id])
        assert first.per_video[video_id].min() >= 1
    with pytest.raises(ValueError):
        baseline_random(lengths, K=0, seed=0)


def test_baseline_cluster_all_partitions_clouds():
    rng = np.random.default_rng(23)
    videos = {
        "a": rng.standard_normal((6, 2)) * 0.1,
        "b": rng.standard_normal((6, 2)) * 0.1 + 50.0,
    }
    single = baseline_cluster_all(videos, K=1, seed=0)
    assert all(np.all(v == 1) for v in single.per_video.values())
    split = baseline_cluster_all(videos, K=2, seed=0)
    assert len(set(split.per_video["a"])) == 1
    assert len(set(split.per_video["b"])) == 1
    assert split.per_video["a"][0] != split.per_video["b"][0]
    with pytest.raises(ValueError):
        baseline_cluster_all(videos, K=0, seed=0)
    with pytest.raises(ValueError):
        baseline_cluster_all({}, K=1, seed=0)


def test_baseline_cluster_all_restarts_default_to_pcm_config():
    default = inspect.signature(baseline_cluster_all).parameters["kmeans_restarts"].default
    assert default == PcmConfig().kmeans_restarts


def test_pcm_config_validation():
    with pytest.raises(ValueError):
        PcmConfig(K=0)
    with pytest.raises(ValueError):
        PcmConfig(smoothness=-0.1)
    with pytest.raises(ValueError):
        PcmConfig(kmeans_restarts=0)
