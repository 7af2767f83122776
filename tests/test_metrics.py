from __future__ import annotations

import numpy as np
import pytest

from oracles import (
    brute_force_assignment,
    brute_force_label_match,
    overlap_oracle,
    set_metrics_oracle,
    stats_oracle,
)
from proclearn import metrics
from proclearn.core import AnnotationError, KeyStepAssignment, KeyStepSegment, TaskAnnotation
from proclearn.metrics import (
    DatasetStats,
    MetricsReport,
    StepScores,
    dataset_stats,
    format_report,
    format_stats,
    full_report,
    hungarian,
    match_labels,
)


def _assignment(per_video, K):
    return KeyStepAssignment(
        per_video={vid: np.asarray(labels, dtype=np.int64) for vid, labels in per_video.items()},
        K=K,
    )


def _identity(K):
    return {label: label for label in range(K + 1)}


# Six-frame worked example used for the exact fixtures below.
GT6 = _assignment({"a": [0, 1, 1, 2, 2, 0]}, K=2)
PRED6 = _assignment({"a": [0, 1, 1, 0, 2, 2]}, K=2)


def _random_pair(rng, K=3, videos=2, max_frames=20):
    pred = {}
    gt = {}
    for n in range(videos):
        T = int(rng.integers(1, max_frames + 1))
        pred[f"v{n}"] = rng.integers(0, K + 1, size=T)
        gt[f"v{n}"] = rng.integers(0, K + 1, size=T)
    return _assignment(pred, K), _assignment(gt, K)


# ---------------------------------------------------------------------------
# Hungarian matching
# ---------------------------------------------------------------------------


def test_hungarian_two_by_two():
    assignment, total = hungarian(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert assignment == {0: 0, 1: 1}
    assert total == 2.0


def test_hungarian_three_by_three():
    assignment, total = hungarian(np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]]))
    assert assignment == {0: 1, 1: 0, 2: 2}
    assert total == 5.0


def test_hungarian_prefers_lexicographically_first_optimum():
    # Every assignment of an all-zeros matrix is optimal; the identity is
    # the lexicographically smallest.
    assignment, total = hungarian(np.zeros((3, 3)))
    assert assignment == {0: 0, 1: 1, 2: 2}
    assert total == 0.0


def test_hungarian_pads_rectangles_with_zeros():
    assignment, total = hungarian(np.array([[5.0, 1.0]]))
    assert assignment[0] == 1
    assert total == 1.0
    assert sorted(assignment) == [0, 1]


def test_hungarian_rejects_bad_input():
    with pytest.raises(ValueError):
        hungarian(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        hungarian(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        hungarian(np.array([[np.inf, 1.0], [1.0, 2.0]]))


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(41)
    for trial in range(240):
        n = int(rng.integers(1, 8))
        kind = trial % 4
        if kind == 0:
            cost = rng.integers(0, 20, size=(n, n)).astype(np.float64)
        elif kind == 1:  # tie-heavy: many optimal assignments
            cost = rng.integers(0, 5, size=(n, n)).astype(np.float64)
        elif kind == 2:  # negated overlap counts, mostly zero, as match_labels passes
            cost = -rng.integers(0, 50, size=(n, n)) * (rng.random((n, n)) < 0.4)
        else:  # rectangle, zero-padded to a square
            cost = rng.integers(-9, 10, size=(n, int(rng.integers(1, 8)))).astype(np.float64)
        assignment, total = hungarian(cost)
        padded = np.zeros((max(cost.shape),) * 2)
        padded[: cost.shape[0], : cost.shape[1]] = cost
        expected_assignment, expected_total = brute_force_assignment(padded)
        assert total == expected_total
        assert assignment == expected_assignment


def test_hungarian_refinement_solves_few_subproblems(monkeypatch):
    # A negated 21 x 21 overlap matrix as match_labels builds at K = 20:
    # 60% of frames carry a permuted true label, the rest a random one.
    rng = np.random.default_rng(5)
    gt = rng.integers(0, 21, size=20000)
    pred = np.where(rng.random(20000) < 0.6, rng.permutation(21)[gt], rng.integers(0, 21, size=20000))
    overlap = np.zeros((21, 21))
    np.add.at(overlap, (pred, gt), 1)
    solve = metrics._assignment_columns
    calls = []

    def counted(cost):
        calls.append(cost.shape)
        return solve(cost)

    monkeypatch.setattr(metrics, "_assignment_columns", counted)
    assignment, total = hungarian(-overlap)
    # Only entries with zero reduced cost under the first solve's potentials
    # can be on an optimal matching; solving every candidate took 118 solves.
    assert len(calls) <= 2 * 21
    monkeypatch.undo()
    assert total == -overlap[list(assignment), list(assignment.values())].sum()
    assert sorted(assignment.values()) == list(range(21))


# ---------------------------------------------------------------------------
# Label matching
# ---------------------------------------------------------------------------


def test_match_labels_identity_when_aligned():
    assert match_labels(GT6, GT6) == _identity(2)


def test_match_labels_recovers_swap():
    swapped = _assignment({"a": [0, 2, 2, 1, 1, 0]}, K=2)
    assert match_labels(swapped, GT6) == {0: 0, 1: 2, 2: 1}


def test_match_labels_agrees_with_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(30):
        pred, gt = _random_pair(rng)
        mapping = match_labels(pred, gt)
        expected = brute_force_label_match(
            np.concatenate(list(pred.per_video.values())),
            np.concatenate(list(gt.per_video.values())),
            gt.K,
        )
        assert mapping == expected


def test_match_labels_rejects_mismatches():
    with pytest.raises(ValueError, match="K mismatch: pred 1 vs gt 2"):
        match_labels(_assignment({"a": [0]}, K=1), _assignment({"a": [0]}, K=2))
    with pytest.raises(ValueError, match="cover different videos"):
        match_labels(_assignment({"a": [0]}, K=2), _assignment({"b": [0]}, K=2))
    with pytest.raises(ValueError, match="frame count mismatch for video 'a'"):
        match_labels(_assignment({"a": [0, 1]}, K=2), _assignment({"a": [0]}, K=2))


def test_overlap_counts_every_frame_once():
    rng = np.random.default_rng(23)
    for K in (1, 3, 6):
        lengths = [0, 1, *rng.integers(2, 40, size=3)]
        gt = {f"v{n}": rng.integers(0, K + 1, size=T) for n, T in enumerate(lengths)}
        pred = {v: rng.integers(0, K + 1, size=len(gt[v])) for v in reversed(gt)}
        overlap = metrics._overlap(_assignment(pred, K), _assignment(gt, K))
        assert overlap.dtype == np.int64
        assert np.array_equal(overlap, overlap_oracle(pred, gt, K))
    empty = metrics._overlap(_assignment({}, 2), _assignment({}, 2))
    assert np.array_equal(empty, np.zeros((3, 3), dtype=np.int64))


# ---------------------------------------------------------------------------
# Worked six-frame example
# ---------------------------------------------------------------------------


def test_six_frame_per_step_scores():
    report = full_report(PRED6, GT6, _identity(2))
    per_step = report.per_keystep
    assert per_step[1] == StepScores(precision=1.0, recall=1.0, f1=1.0, iou=1.0)
    assert per_step[2].precision == 0.5
    assert per_step[2].recall == 0.5
    assert per_step[2].f1 == 0.5
    assert per_step[2].iou == pytest.approx(1.0 / 3.0)
    assert report.mean_f1 == 0.75
    assert report.mean_iou == pytest.approx(2.0 / 3.0)
    assert report.mean_precision == 0.75
    assert report.mean_recall == 0.75


def test_six_frame_legacy_scores():
    report = full_report(PRED6, GT6, _identity(2))
    assert report.legacy_precision == 0.75
    assert report.legacy_recall == 0.75
    assert report.legacy_f1 == 0.75
    assert report.legacy_iou == pytest.approx(3.0 / 5.0)


def test_six_frame_mof():
    assert full_report(PRED6, GT6, _identity(2)).mof == pytest.approx(4.0 / 6.0)


def test_full_report_finds_mapping_itself():
    report = full_report(PRED6, GT6)
    assert report.mapping == _identity(2)
    assert report.mean_f1 == 0.75
    assert report.legacy_f1 == 0.75


def test_perfect_prediction_scores_one_everywhere():
    report = full_report(GT6, GT6)
    for scores in report.per_keystep.values():
        assert scores == StepScores(1.0, 1.0, 1.0, 1.0)
    assert report.mean_f1 == 1.0
    assert report.legacy_f1 == 1.0
    assert report.mof == 1.0


def test_disjoint_prediction_scores_zero_f1():
    gt = _assignment({"a": [1, 1, 2, 2]}, K=2)
    pred = _assignment({"a": [2, 2, 1, 1]}, K=2)
    report = full_report(pred, gt, _identity(2))
    assert report.mean_f1 == 0.0
    assert report.mean_iou == 0.0
    assert all(s.precision == 0.0 for s in report.per_keystep.values())


def test_absent_step_on_both_sides_scores_one():
    gt = _assignment({"a": [0, 1, 1, 0]}, K=3)
    pred = _assignment({"a": [0, 1, 1, 0]}, K=3)
    report = full_report(pred, gt, _identity(3))
    assert report.per_keystep[2] == StepScores(1.0, 1.0, 1.0, 1.0)
    assert report.per_keystep[3] == StepScores(1.0, 1.0, 1.0, 1.0)
    assert report.mean_f1 == 1.0


def test_mapping_must_be_bijection():
    with pytest.raises(ValueError):
        full_report(PRED6, GT6, {0: 0, 1: 1, 2: 1})
    with pytest.raises(ValueError):
        full_report(PRED6, GT6, {0: 0, 1: 1})


# ---------------------------------------------------------------------------
# Oracle agreement and properties
# ---------------------------------------------------------------------------


def test_metrics_agree_with_set_oracle():
    rng = np.random.default_rng(43)
    for _ in range(50):
        pred, gt = _random_pair(rng)
        mapping = match_labels(pred, gt)
        report = full_report(pred, gt, mapping)
        lookup = np.empty(gt.K + 1, dtype=np.int64)
        for src, dst in mapping.items():
            lookup[src] = dst
        pred_flat = lookup[np.concatenate(list(pred.per_video.values()))]
        gt_flat = np.concatenate(list(gt.per_video.values()))
        per_step, mean, legacy, expected_mof = set_metrics_oracle(pred_flat, gt_flat, gt.K)
        for label, (p, r, f1, iou) in per_step.items():
            scores = report.per_keystep[label]
            assert scores.precision == pytest.approx(p, abs=1e-12)
            assert scores.recall == pytest.approx(r, abs=1e-12)
            assert scores.f1 == pytest.approx(f1, abs=1e-12)
            assert scores.iou == pytest.approx(iou, abs=1e-12)
        assert report.mean_f1 == pytest.approx(mean[2], abs=1e-12)
        assert report.legacy_precision == pytest.approx(legacy[0], abs=1e-12)
        assert report.legacy_f1 == pytest.approx(legacy[2], abs=1e-12)
        assert report.mof == pytest.approx(expected_mof, abs=1e-12)


def test_single_cluster_degeneracy_penalized():
    # A constant prediction that swallows every frame scores high on the
    # pooled protocol but low on the per-key-step mean.
    rng = np.random.default_rng(44)
    for _ in range(25):
        K = int(rng.integers(2, 5))
        T = int(rng.integers(K * 3, K * 6))
        gt_labels = np.concatenate(
            [np.full(2, label) for label in range(1, K + 1)]
            + [rng.integers(0, K + 1, size=T - 2 * K)]
        )
        rng.shuffle(gt_labels)
        gt = _assignment({"a": gt_labels}, K=K)
        pred = _assignment({"a": np.ones(T, dtype=np.int64)}, K=K)
        report = full_report(pred, gt)
        if report.legacy_f1 > 0.0:
            assert report.mean_f1 < report.legacy_f1


def test_scores_stay_in_bounds():
    rng = np.random.default_rng(45)
    for _ in range(25):
        pred, gt = _random_pair(rng)
        report = full_report(pred, gt)
        for name in (
            "mean_precision",
            "mean_recall",
            "mean_f1",
            "mean_iou",
            "legacy_precision",
            "legacy_recall",
            "legacy_f1",
            "legacy_iou",
            "mof",
        ):
            value = getattr(report, name)
            assert 0.0 <= value <= 1.0
        for scores in report.per_keystep.values():
            assert scores.f1 <= 1.0
            assert scores.iou <= min(scores.precision, scores.recall) + 1e-12


# ---------------------------------------------------------------------------
# Dataset statistics
# ---------------------------------------------------------------------------


def _segments(spans):
    return [KeyStepSegment(start_s=s, end_s=e, label_id=l) for s, e, l in spans]


def _stats_fixture():
    # Video a: 6 unit segments, labels {1,1,1,2,3,4}, duration 12.
    # Video b: 4 unit segments, labels {2,2,3,5}, duration 8.
    # F = (6/12 + 4/8)/2 = 0.5, M = (10 - 7)/10 = 0.3, R = (10 - 7)/10 = 0.3.
    return TaskAnnotation(
        task_name="fixture",
        K=5,
        per_video={
            "a": _segments(
                [(0, 1, 1), (2, 3, 1), (4, 5, 1), (6, 7, 2), (8, 9, 3), (10, 11, 4)]
            ),
            "b": _segments([(0, 1, 2), (2, 3, 2), (4, 5, 3), (6, 7, 5)]),
        },
        durations={"a": 12.0, "b": 8.0},
    )


def test_dataset_stats_fixture_exact():
    stats = dataset_stats(_stats_fixture())
    assert stats.foreground_ratio == 0.5
    assert stats.missing_keysteps == 0.3
    assert stats.repeated_keysteps == 0.3


def test_dataset_stats_no_repeats_or_missing():
    annotation = TaskAnnotation(
        task_name="t",
        K=2,
        per_video={"a": _segments([(0, 1, 1), (2, 3, 2)])},
        durations={"a": 4.0},
    )
    stats = dataset_stats(annotation)
    assert stats.missing_keysteps == 0.0
    assert stats.repeated_keysteps == 0.0


def test_dataset_stats_agrees_with_transcription_oracle():
    rng = np.random.default_rng(46)
    for _ in range(30):
        K = int(rng.integers(1, 6))
        per_video = {}
        durations = {}
        for n in range(int(rng.integers(1, 5))):
            count = int(rng.integers(1, 8))
            spans = []
            cursor = 0.0
            for _ in range(count):
                cursor += float(rng.uniform(0.1, 2.0))
                width = float(rng.uniform(0.1, 3.0))
                spans.append((cursor, cursor + width, int(rng.integers(1, K + 1))))
                cursor += width
            per_video[f"v{n}"] = _segments(spans)
            durations[f"v{n}"] = cursor + float(rng.uniform(0.1, 2.0))
        annotation = TaskAnnotation(
            task_name="t", K=K, per_video=per_video, durations=durations
        )
        stats = dataset_stats(annotation)
        order = sorted(per_video)
        F, M, R = stats_oracle(
            keystep_durations=[annotation.keystep_duration(v) for v in order],
            video_durations=[annotation.video_duration(v) for v in order],
            unique_counts=[annotation.unique_labels(v) for v in order],
            segment_counts=[annotation.segment_count(v) for v in order],
            K=K,
        )
        assert stats.foreground_ratio == pytest.approx(F, abs=1e-12)
        assert stats.missing_keysteps == pytest.approx(M, abs=1e-12)
        assert stats.repeated_keysteps == pytest.approx(R, abs=1e-12)


def test_dataset_stats_rejects_degenerate_annotations():
    with pytest.raises(AnnotationError):
        TaskAnnotation(task_name="t", K=1, per_video={"a": []}, durations={"a": 0.0})
    empty = TaskAnnotation(task_name="t", K=1, per_video={"a": []}, durations={"a": 5.0})
    with pytest.raises(AnnotationError):
        dataset_stats(empty)
    with pytest.raises(AnnotationError):
        dataset_stats(TaskAnnotation(task_name="t", K=1, per_video={}, durations={}))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_format_report_golden():
    report = full_report(PRED6, GT6)
    assert format_report(report) == (
        "per_keystep,1,1.000000,1.000000,1.000000,1.000000\n"
        "per_keystep,2,0.500000,0.500000,0.500000,0.333333\n"
        "summary,legacy_f1,0.750000\n"
        "summary,legacy_iou,0.600000\n"
        "summary,legacy_precision,0.750000\n"
        "summary,legacy_recall,0.750000\n"
        "summary,mean_f1,0.750000\n"
        "summary,mean_iou,0.666667\n"
        "summary,mean_precision,0.750000\n"
        "summary,mean_recall,0.750000\n"
        "summary,mof,0.666667\n"
    )


def test_format_stats_golden():
    stats = DatasetStats(
        foreground_ratio=0.5, missing_keysteps=0.3, repeated_keysteps=0.3
    )
    assert format_stats(stats) == (
        "stat,value\n"
        "foreground_ratio,0.500000\n"
        "missing_keysteps,0.300000\n"
        "repeated_keysteps,0.300000\n"
    )


def test_score_dataclasses_validate_ranges():
    with pytest.raises(ValueError):
        StepScores(precision=1.2, recall=0.0, f1=0.0, iou=0.0)
    with pytest.raises(ValueError):
        DatasetStats(foreground_ratio=-0.1, missing_keysteps=0.0, repeated_keysteps=0.0)
    with pytest.raises(ValueError):
        MetricsReport(
            mapping=_identity(1),
            per_keystep={},
            mean_precision=0.0,
            mean_recall=0.0,
            mean_f1=0.0,
            mean_iou=0.0,
            legacy_precision=0.0,
            legacy_recall=0.0,
            legacy_f1=0.0,
            legacy_iou=0.0,
            mof=1.5,
        )
