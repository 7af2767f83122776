from __future__ import annotations

import numpy as np
import pytest

from proclearn.core import (
    KeyStepAssignment,
    KeyStepSegment,
    TaskAnnotation,
    segments_to_frame_labels,
)
from proclearn.embed import TrainConfig
from proclearn.metrics import dataset_stats, full_report
from proclearn.procut import PcmConfig, baseline_cluster_all, localize
from proclearn.synthbench import (
    BENCHMARK_METHODS,
    SynthSpec,
    annotation_to_assignment,
    compare_methods,
    format_benchmark,
    generate,
    run_benchmark,
)


def test_default_configs_agree_on_k():
    spec = SynthSpec(num_videos=3, frames_per_video=40)
    dataset, annotation = generate(spec)
    embeddings = {s.video_id: s.features / np.linalg.norm(s.features, axis=1, keepdims=True)
                  for s in dataset}
    gt = annotation_to_assignment(annotation, {s.video_id: s.num_frames for s in dataset})
    report = full_report(localize(embeddings, PcmConfig()), gt)
    assert PcmConfig().K == SynthSpec().K == gt.K == len(report.per_keystep)


def _clean_spec(**overrides):
    base = dict(
        K=3,
        num_videos=2,
        frames_per_video=30,
        feature_dim=4,
        foreground_ratio_target=0.6,
        missing_prob=0.0,
        repeat_prob=0.0,
        order_jitter=0.0,
        noise_sigma=0.0,
        seed=0,
    )
    base.update(overrides)
    return SynthSpec(**base)


def _tiny_benchmark_args():
    spec = _clean_spec(K=2, frames_per_video=20, noise_sigma=0.05, seed=3)
    train = TrainConfig(steps=5, seed=1)
    pcm = PcmConfig(K=2, seed=2, kmeans_restarts=2)
    return spec, train, pcm


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(K=0)
    with pytest.raises(ValueError):
        SynthSpec(K=10, frames_per_video=5)
    with pytest.raises(ValueError):
        SynthSpec(num_videos=1)
    with pytest.raises(ValueError):
        SynthSpec(foreground_ratio_target=0.0)
    with pytest.raises(ValueError):
        SynthSpec(foreground_ratio_target=1.1)
    with pytest.raises(ValueError):
        SynthSpec(missing_prob=1.0)
    with pytest.raises(ValueError):
        SynthSpec(repeat_prob=-0.1)
    with pytest.raises(ValueError):
        SynthSpec(noise_sigma=-1.0)


def test_clean_knobs_plant_steps_in_order():
    spec = _clean_spec()
    _, annotation = generate(spec)
    assert sorted(annotation.per_video) == ["video_00", "video_01"]
    for video_id in annotation.per_video:
        segments = sorted(annotation.per_video[video_id], key=lambda s: s.start_s)
        assert [seg.label_id for seg in segments] == [1, 2, 3]
    stats = dataset_stats(annotation)
    assert stats.missing_keysteps == 0.0
    assert stats.repeated_keysteps == 0.0


def test_foreground_ratio_is_exact_when_target_divides():
    # round(0.6 * 30) = 18 key-step frames out of 30 in every video.
    _, annotation = generate(_clean_spec())
    stats = dataset_stats(annotation)
    assert stats.foreground_ratio == pytest.approx(0.6)


def test_full_foreground_leaves_no_background():
    spec = _clean_spec(foreground_ratio_target=1.0)
    sequences, annotation = generate(spec)
    for seq in sequences:
        labels = segments_to_frame_labels(
            annotation, seq.video_id, seq.num_frames, seq.fps
        )
        assert np.all(labels > 0)


def test_default_spec_hits_requested_ratio():
    _, annotation = generate(SynthSpec())
    stats = dataset_stats(annotation)
    assert abs(stats.foreground_ratio - 0.6) <= 0.05


def test_generation_is_seed_deterministic():
    spec = SynthSpec(K=3, num_videos=3, frames_per_video=40, feature_dim=6, seed=11)
    first_seqs, first_ann = generate(spec)
    second_seqs, second_ann = generate(spec)
    for a, b in zip(first_seqs, second_seqs):
        assert a.video_id == b.video_id
        np.testing.assert_array_equal(a.features, b.features)
    assert first_ann == second_ann
    other_seqs, _ = generate(
        SynthSpec(K=3, num_videos=3, frames_per_video=40, feature_dim=6, seed=12)
    )
    assert any(
        not np.array_equal(a.features, b.features)
        for a, b in zip(first_seqs, other_seqs)
    )


def test_zero_noise_repeats_prototypes_exactly():
    spec = _clean_spec(num_videos=3)
    sequences, annotation = generate(spec)
    by_label: dict[int, list[np.ndarray]] = {}
    for seq in sequences:
        labels = segments_to_frame_labels(annotation, seq.video_id, seq.num_frames, seq.fps)
        for label in (1, 2, 3):
            frames = seq.features[labels == label]
            assert len(frames) > 0
            # All frames of one step are bit-identical copies of the prototype.
            assert np.all(frames == frames[0])
            by_label.setdefault(label, []).append(frames[0])
    for label, copies in by_label.items():
        for other in copies[1:]:
            np.testing.assert_array_equal(copies[0], other)
    assert not np.array_equal(by_label[1][0], by_label[2][0])


def test_planted_labels_round_trip_through_annotations():
    spec = _clean_spec(
        noise_sigma=0.02, missing_prob=0.2, repeat_prob=0.3, order_jitter=0.2, seed=9
    )
    sequences, annotation = generate(spec)
    counts = {seq.video_id: seq.num_frames for seq in sequences}
    assignment = annotation_to_assignment(annotation, counts)
    for video_id, labels in assignment.per_video.items():
        # Segment boundaries are integral at fps=1, so rasterization is exact.
        total = sum(
            seg.end_s - seg.start_s for seg in annotation.per_video[video_id]
        )
        assert int((labels > 0).sum()) == int(total)


def test_random_specs_produce_valid_annotations():
    rng = np.random.default_rng(55)
    for _ in range(100):
        spec = SynthSpec(
            K=int(rng.integers(1, 6)),
            num_videos=int(rng.integers(2, 5)),
            frames_per_video=int(rng.integers(20, 60)),
            feature_dim=int(rng.integers(2, 8)),
            foreground_ratio_target=float(rng.uniform(0.3, 1.0)),
            missing_prob=float(rng.uniform(0.0, 0.5)),
            repeat_prob=float(rng.uniform(0.0, 0.5)),
            order_jitter=float(rng.uniform(0.0, 0.5)),
            noise_sigma=float(rng.uniform(0.0, 0.2)),
            seed=int(rng.integers(0, 10_000)),
        )
        sequences, annotation = generate(spec)
        assert len(sequences) == spec.num_videos
        for seq in sequences:
            assert seq.features.shape == (spec.frames_per_video, spec.feature_dim)
            assert np.isfinite(seq.features).all()
        assert annotation.K == spec.K


def test_missing_rate_tracks_probability():
    values = []
    for seed in range(50):
        spec = SynthSpec(
            K=5,
            num_videos=4,
            frames_per_video=50,
            feature_dim=4,
            foreground_ratio_target=0.6,
            missing_prob=0.2,
            repeat_prob=0.0,
            order_jitter=0.0,
            noise_sigma=0.0,
            seed=seed,
        )
        _, annotation = generate(spec)
        values.append(dataset_stats(annotation).missing_keysteps)
    # Binomial mean over 50 * 4 * 5 = 1000 drop decisions: 3 SE ~= 0.038.
    assert abs(float(np.mean(values)) - 0.2) <= 0.038


def test_infeasible_budget_is_rejected():
    spec = SynthSpec(
        K=5,
        num_videos=2,
        frames_per_video=200,
        feature_dim=4,
        foreground_ratio_target=0.01,
        missing_prob=0.0,
        seed=0,
    )
    with pytest.raises(ValueError):
        generate(spec)


def test_video_may_lose_every_step():
    spec = SynthSpec(
        K=2,
        num_videos=2,
        frames_per_video=12,
        feature_dim=4,
        foreground_ratio_target=0.5,
        missing_prob=0.8,
        repeat_prob=0.0,
        order_jitter=0.0,
        noise_sigma=0.0,
        seed=4,
    )
    sequences, annotation = generate(spec)
    counts = sorted(annotation.segment_count(v) for v in annotation.per_video)
    assert counts[0] == 0
    assert counts[-1] > 0
    assignment = annotation_to_assignment(
        annotation, {seq.video_id: seq.num_frames for seq in sequences}
    )
    empty = [v for v in annotation.per_video if annotation.segment_count(v) == 0][0]
    assert np.all(assignment.per_video[empty] == 0)


def test_annotation_to_assignment_takes_a_rate_per_video():
    # [1.0, 2.0) covers frame 1 of 3 at 1 fps, frames 2 and 3 of 6 at 2 fps.
    segments = [KeyStepSegment(1.0, 2.0, 1)]
    annotation = TaskAnnotation(
        task_name="t", K=1, per_video={"a": segments, "b": segments},
        durations={"a": 3.0, "b": 3.0},
    )
    assignment = annotation_to_assignment(annotation, {"a": 3, "b": 6}, {"a": 1.0, "b": 2.0})
    np.testing.assert_array_equal(assignment.per_video["a"], [0, 1, 0])
    np.testing.assert_array_equal(assignment.per_video["b"], [0, 0, 1, 1, 0, 0])


def test_compare_methods_reports_all_methods():
    spec, train, pcm = _tiny_benchmark_args()
    results = run_benchmark(spec, train, pcm)
    assert tuple(results) == BENCHMARK_METHODS
    for report in results.values():
        assert 0.0 <= report.mean_f1 <= 1.0


def test_compare_methods_harmonizes_k_with_ground_truth():
    spec, train, _ = _tiny_benchmark_args()
    oversized = PcmConfig(K=7, seed=2, kmeans_restarts=2)
    results = run_benchmark(spec, train, oversized)
    for report in results.values():
        assert set(report.mapping) == set(range(spec.K + 1))


def test_run_benchmark_deterministic():
    spec, train, pcm = _tiny_benchmark_args()
    first = format_benchmark(run_benchmark(spec, train, pcm))
    second = format_benchmark(run_benchmark(spec, train, pcm))
    assert first == second


def test_format_benchmark_layout():
    spec, train, pcm = _tiny_benchmark_args()
    text = format_benchmark(run_benchmark(spec, train, pcm))
    lines = text.splitlines()
    assert lines[0] == (
        "method,legacy_f1,legacy_iou,legacy_precision,legacy_recall,"
        "mean_f1,mean_iou,mean_precision,mean_recall,mof"
    )
    assert [line.split(",")[0] for line in lines[1:]] == list(BENCHMARK_METHODS)
    for line in lines[1:]:
        values = line.split(",")[1:]
        assert len(values) == 9
        assert all(0.0 <= float(v) <= 1.0 for v in values)


def test_compare_methods_accepts_direct_embeddings():
    rng = np.random.default_rng(60)
    gt_labels = {
        "a": np.array([1, 1, 0, 2, 2, 0]),
        "b": np.array([0, 1, 1, 2, 2, 2]),
    }
    gt = KeyStepAssignment(per_video=gt_labels, K=2)
    embeddings = {}
    for video_id, labels in gt_labels.items():
        M = rng.standard_normal((len(labels), 4))
        embeddings[video_id] = M / np.linalg.norm(M, axis=1, keepdims=True)
    config = PcmConfig(K=2, seed=0, kmeans_restarts=2)
    results = compare_methods(embeddings, gt, config, localize(embeddings, config))
    assert tuple(results) == BENCHMARK_METHODS


def test_compare_methods_runs_cluster_all_with_the_configured_restarts():
    # Random unit rows have many k-means local optima, so one restart and
    # eight give different clusterings.
    rng = np.random.default_rng(61)
    gt_labels = {video_id: rng.integers(0, 4, size=40) for video_id in ("a", "b", "c")}
    gt = KeyStepAssignment(per_video=gt_labels, K=3)
    embeddings = {}
    for video_id, labels in gt_labels.items():
        M = rng.standard_normal((len(labels), 4))
        embeddings[video_id] = M / np.linalg.norm(M, axis=1, keepdims=True)
    config = PcmConfig(K=3, seed=5, kmeans_restarts=1)
    results = compare_methods(embeddings, gt, config, localize(embeddings, config))
    expected = baseline_cluster_all(embeddings, 3, 5, kmeans_restarts=1)
    assert results["cluster_all"] == full_report(expected, gt)


def test_compare_methods_rejects_cnc_of_another_k():
    gt = KeyStepAssignment(per_video={"a": np.array([1, 0, 2]), "b": np.array([2, 1, 0])}, K=2)
    cnc = KeyStepAssignment(per_video={"a": np.array([1, 0, 3]), "b": np.array([3, 1, 0])}, K=3)
    embeddings = {"a": np.eye(3), "b": np.eye(3)}
    with pytest.raises(ValueError, match="K=3"):
        compare_methods(embeddings, gt, PcmConfig(K=2), cnc)
