"""End-to-end acceptance checks.

One test per shipped guarantee; each prints a single PASS/FAIL line so the
suite doubles as a release checklist. Tolerances are part of the contract
and must not be loosened.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from statistics import median

import numpy as np
import pytest

from oracles import (
    brute_force_assignment,
    brute_force_min_energy,
    brute_force_minimal_source_side,
    central_difference,
    chain_n_links,
    set_metrics_oracle,
    stats_oracle,
)
from proclearn.cli import main
from proclearn.core import KeyStepAssignment, KeyStepSegment, TaskAnnotation
from proclearn.embed import TrainConfig, tc3i_loss
from proclearn.metrics import dataset_stats, full_report, hungarian, match_labels
from proclearn.procut import EnergyGraph, PcmConfig, cut_energy, min_cut
from proclearn.synthbench import SynthSpec, run_benchmark


@contextmanager
def _criterion(name):
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL")
        raise
    print(f"{name}: PASS")


def _assignment(per_video, K):
    return KeyStepAssignment(
        per_video={vid: np.asarray(labels, dtype=np.int64) for vid, labels in per_video.items()},
        K=K,
    )


def _random_pair(rng, K, videos=2, max_frames=25):
    pred = {}
    gt = {}
    for n in range(videos):
        T = int(rng.integers(1, max_frames + 1))
        pred[f"v{n}"] = rng.integers(0, K + 1, size=T)
        gt[f"v{n}"] = rng.integers(0, K + 1, size=T)
    return _assignment(pred, K), _assignment(gt, K)


def test_acceptance_1_gradient_matches_finite_differences():
    with _criterion("1 analytic gradient vs central differences"):
        start = time.monotonic()
        rng = np.random.default_rng(100)
        for _ in range(20):
            N = int(rng.integers(2, 11))
            M = int(rng.integers(2, 11))
            E = int(rng.integers(2, 7))
            A = rng.standard_normal((N, E))
            B = rng.standard_normal((M, E))
            config = TrainConfig(
                temperature=float(rng.choice([0.1, 0.3, 1.0])),
                variance_weight=1e-3,
                cidm_window=int(rng.integers(1, 5)),
                cidm_margin=float(rng.uniform(0.5, 2.0)),
                cidm_weight=float(rng.choice([0.0, 0.5, 1.0])),
            )
            _, gA, gB = tc3i_loss(A, B, config)
            fdA = central_difference(lambda X: tc3i_loss(X, B, config)[0], A)
            fdB = central_difference(lambda X: tc3i_loss(A, X, config)[0], B)
            for analytic, numeric in ((gA, fdA), (gB, fdB)):
                rel = np.linalg.norm(analytic - numeric) / max(
                    np.linalg.norm(numeric), 1e-12
                )
                assert rel <= 1e-4, f"relative gradient error {rel}"
        assert time.monotonic() - start < 5.0


def test_acceptance_2_exact_matching_and_cut():
    with _criterion("2 hungarian and min-cut agree with exhaustive search"):
        start = time.monotonic()
        rng = np.random.default_rng(200)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            cost = rng.integers(0, 50, size=(n, n)).astype(np.float64)
            assignment, total = hungarian(cost)
            expected_assignment, expected_total = brute_force_assignment(cost)
            assert total == expected_total
            assert assignment == expected_assignment
        for _ in range(100):
            # n frames split into random videos, each a Potts chain.
            n = int(rng.integers(1, 13))
            bounds = rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False)
            lengths = np.diff([0, *sorted(bounds), n]).tolist()
            source = rng.integers(0, 10, size=n).astype(np.float64)
            sink = rng.integers(0, 10, size=n).astype(np.float64)
            smoothness = float(rng.integers(0, 6))
            graph = EnergyGraph(
                source_cap=source, sink_cap=sink, video_lengths=lengths, smoothness=smoothness
            )
            result = min_cut(graph)
            links = chain_n_links(lengths, smoothness)
            best = brute_force_min_energy(source, sink, links)
            minimal, _ = brute_force_minimal_source_side(source, sink, links)
            assert cut_energy(graph, result.labels) == best
            assert result.cut_value == best
            np.testing.assert_array_equal(result.labels, minimal)
        assert time.monotonic() - start < 30.0


def test_acceptance_3_metrics_match_set_arithmetic():
    with _criterion("3 evaluation protocol vs set-arithmetic oracle"):
        rng = np.random.default_rng(300)
        for _ in range(200):
            K = int(rng.integers(1, 6))
            pred, gt = _random_pair(rng, K)
            mapping = match_labels(pred, gt)
            report = full_report(pred, gt, mapping)
            lookup = np.empty(K + 1, dtype=np.int64)
            for src, dst in mapping.items():
                lookup[src] = dst
            pred_flat = lookup[np.concatenate(list(pred.per_video.values()))]
            gt_flat = np.concatenate(list(gt.per_video.values()))
            per_step, mean, legacy, expected_mof = set_metrics_oracle(pred_flat, gt_flat, K)
            for label, (p, r, f1, iou) in per_step.items():
                scores = report.per_keystep[label]
                assert abs(scores.precision - p) <= 1e-12
                assert abs(scores.recall - r) <= 1e-12
                assert abs(scores.f1 - f1) <= 1e-12
                assert abs(scores.iou - iou) <= 1e-12
            assert abs(report.mean_precision - mean[0]) <= 1e-12
            assert abs(report.mean_recall - mean[1]) <= 1e-12
            assert abs(report.mean_f1 - mean[2]) <= 1e-12
            assert abs(report.mean_iou - mean[3]) <= 1e-12
            assert abs(report.legacy_precision - legacy[0]) <= 1e-12
            assert abs(report.legacy_recall - legacy[1]) <= 1e-12
            assert abs(report.legacy_f1 - legacy[2]) <= 1e-12
            assert abs(report.legacy_iou - legacy[3]) <= 1e-12
            assert abs(report.mof - expected_mof) <= 1e-12
        gt6 = _assignment({"a": [0, 1, 1, 2, 2, 0]}, K=2)
        pred6 = _assignment({"a": [0, 1, 1, 0, 2, 2]}, K=2)
        fixture = full_report(pred6, gt6)
        assert fixture.mean_f1 == 0.75
        assert fixture.legacy_f1 == 0.75


def test_acceptance_4_single_cluster_degeneracy_is_penalized():
    with _criterion("4 per-key-step mean penalizes the single-cluster collapse"):
        rng = np.random.default_rng(400)
        for _ in range(100):
            K = int(rng.integers(2, 6))
            T = int(rng.integers(3 * K, 8 * K))
            gt_labels = np.concatenate(
                [np.full(2, label) for label in range(1, K + 1)]
                + [rng.integers(0, K + 1, size=T - 2 * K)]
            )
            rng.shuffle(gt_labels)
            gt = _assignment({"a": gt_labels}, K=K)
            pred = _assignment(
                {"a": np.full(T, int(rng.integers(1, K + 1)), dtype=np.int64)}, K=K
            )
            report = full_report(pred, gt)
            if report.legacy_f1 > 0.0:
                assert report.mean_f1 < report.legacy_f1


def test_acceptance_5_dataset_stats_match_transcription():
    with _criterion("5 dataset statistics vs transcription oracle"):
        rng = np.random.default_rng(500)
        for _ in range(100):
            K = int(rng.integers(1, 6))
            per_video = {}
            durations = {}
            for n in range(int(rng.integers(1, 5))):
                spans = []
                cursor = 0.0
                for _ in range(int(rng.integers(1, 8))):
                    cursor += float(rng.uniform(0.1, 2.0))
                    width = float(rng.uniform(0.1, 3.0))
                    spans.append(
                        KeyStepSegment(
                            start_s=cursor,
                            end_s=cursor + width,
                            label_id=int(rng.integers(1, K + 1)),
                        )
                    )
                    cursor += width
                per_video[f"v{n}"] = spans
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
            assert abs(stats.foreground_ratio - F) <= 1e-12
            assert abs(stats.missing_keysteps - M) <= 1e-12
            assert abs(stats.repeated_keysteps - R) <= 1e-12
        fixture = TaskAnnotation(
            task_name="fixture",
            K=5,
            per_video={
                "a": [
                    KeyStepSegment(0, 1, 1),
                    KeyStepSegment(2, 3, 1),
                    KeyStepSegment(4, 5, 1),
                    KeyStepSegment(6, 7, 2),
                    KeyStepSegment(8, 9, 3),
                    KeyStepSegment(10, 11, 4),
                ],
                "b": [
                    KeyStepSegment(0, 1, 2),
                    KeyStepSegment(2, 3, 2),
                    KeyStepSegment(4, 5, 3),
                    KeyStepSegment(6, 7, 5),
                ],
            },
            durations={"a": 12.0, "b": 8.0},
        )
        stats = dataset_stats(fixture)
        assert stats.foreground_ratio == 0.5
        assert stats.missing_keysteps == 0.3
        assert stats.repeated_keysteps == 0.3


def test_acceptance_6_pipeline_beats_baselines():
    with _criterion("6 pipeline vs baselines on the planted benchmark"):
        def medians(ratio):
            cnc, cluster_all, rand = [], [], []
            for seed in range(5):
                spec = SynthSpec(foreground_ratio_target=ratio, seed=seed)
                train = TrainConfig(seed=seed + 1)
                pcm = PcmConfig(K=spec.K, seed=seed + 2)
                start = time.monotonic()
                results = run_benchmark(spec, train, pcm)
                assert time.monotonic() - start < 60.0
                cnc.append(results["cnc"].mean_f1)
                cluster_all.append(results["cluster_all"].mean_f1)
                rand.append(results["random"].mean_f1)
            return median(cnc), median(cluster_all), median(rand)

        cnc_hi, _, random_hi = medians(0.6)
        assert cnc_hi >= 2.0 * random_hi, f"cnc {cnc_hi} vs random {random_hi}"
        cnc_lo, cluster_lo, _ = medians(0.2)
        assert cnc_lo >= cluster_lo, f"cnc {cnc_lo} vs cluster_all {cluster_lo}"


def test_acceptance_7_run_all_is_byte_reproducible(tmp_path):
    with _criterion("7 run-all output trees are byte-identical across runs"):
        flags = [
            "--k", "3",
            "--num_videos", "3",
            "--frames_per_video", "40",
            "--feature_dim", "8",
            "--steps", "20",
            "--hidden_dim", "8",
            "--embed_dim", "4",
            "--seed", "11",
        ]
        trees = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["run-all", "--out", str(out), *flags]) == 0
            trees.append(
                {
                    p.relative_to(out).as_posix(): p.read_bytes()
                    for p in sorted(out.rglob("*"))
                    if p.is_file()
                }
            )
        assert trees[0].keys() == trees[1].keys()
        assert trees[0] == trees[1]
