from __future__ import annotations

import numpy as np
import pytest

from oracles import mean_positions_oracle
from proclearn.core import KeyStepAssignment
from proclearn.order import KeyStepOrder, format_order, keystep_order


def _assignment(per_video, K):
    return KeyStepAssignment(
        per_video={vid: np.asarray(labels, dtype=np.int64) for vid, labels in per_video.items()},
        K=K,
    )


def test_order_single_video_positions():
    assignment = _assignment({"a": [1, 1, 2, 2, 0, 0]}, K=2)
    order = keystep_order(assignment)
    assert order.order == [1, 2]
    # Normalized positions over 6 frames: step 1 at (0+1)/2/5, step 2 at (2+3)/2/5.
    assert order.mean_positions[1] == pytest.approx(0.1)
    assert order.mean_positions[2] == pytest.approx(0.5)


def test_order_reversed_video_flips_order():
    assignment = _assignment({"a": [2, 2, 1, 1]}, K=2)
    order = keystep_order(assignment)
    assert order.order == [2, 1]
    assert order.mean_positions[2] == pytest.approx(1.0 / 6.0)
    assert order.mean_positions[1] == pytest.approx(5.0 / 6.0)


def test_order_tie_breaks_by_label():
    # Step 1 and step 2 occupy mirrored positions across the two videos, so
    # both average to 0.5; the smaller label comes first.
    assignment = _assignment({"a": [1, 2], "b": [2, 1]}, K=2)
    order = keystep_order(assignment)
    assert order.mean_positions[1] == pytest.approx(0.5)
    assert order.mean_positions[2] == pytest.approx(0.5)
    assert order.order == [1, 2]


def test_order_skips_absent_steps():
    assignment = _assignment({"a": [3, 3, 0, 1]}, K=3)
    order = keystep_order(assignment)
    assert order.order == [3, 1]
    assert set(order.mean_positions) == {1, 3}


def test_order_single_frame_video_counts_position_zero():
    assignment = _assignment({"a": [2]}, K=2)
    order = keystep_order(assignment)
    assert order.order == [2]
    assert order.mean_positions[2] == 0.0


def test_order_all_background_rejected():
    assignment = _assignment({"a": [0, 0], "b": [0]}, K=2)
    with pytest.raises(ValueError):
        keystep_order(assignment)


def test_order_reversal_property():
    rng = np.random.default_rng(31)
    for _ in range(20):
        T = int(rng.integers(2, 30))
        labels = rng.integers(0, 4, size=T)
        if not np.any(labels > 0):
            labels[0] = 1
        forward = keystep_order(_assignment({"a": labels}, K=3))
        backward = keystep_order(_assignment({"a": labels[::-1]}, K=3))
        for step, pos in forward.mean_positions.items():
            assert backward.mean_positions[step] == pytest.approx(1.0 - pos, abs=1e-12)


def test_order_is_permutation_of_present_labels():
    rng = np.random.default_rng(32)
    for _ in range(20):
        per_video = {}
        present = set()
        for n in range(int(rng.integers(1, 4))):
            labels = rng.integers(0, 5, size=int(rng.integers(1, 25)))
            per_video[f"v{n}"] = labels
            present |= set(int(v) for v in labels if v > 0)
        if not present:
            continue
        order = keystep_order(_assignment(per_video, K=4))
        assert sorted(order.order) == sorted(present)


def test_mean_positions_equal_a_frame_by_frame_sum_exactly():
    # Lengths 0 and 1 are drawn often, and K exceeds the labels drawn, so
    # empty videos, 1-frame videos and absent labels all occur.
    rng = np.random.default_rng(19)
    for _ in range(300):
        per_video = {
            f"v{n}": rng.integers(0, 4, size=int(rng.choice([0, 1, rng.integers(2, 60)])))
            for n in range(int(rng.integers(1, 6)))
        }
        expected = mean_positions_oracle(per_video)
        assignment = _assignment(per_video, K=5)
        if not expected:
            with pytest.raises(ValueError, match="no key-step frames"):
                keystep_order(assignment)
            continue
        assert keystep_order(assignment).mean_positions == expected


def test_format_order_golden():
    order = KeyStepOrder(order=[2, 1], mean_positions={1: 0.75, 2: 0.25})
    assert format_order(order) == "order,2,1\n"


def test_keystep_order_invariants():
    with pytest.raises(ValueError):
        KeyStepOrder(order=[1, 1], mean_positions={1: 0.5})
    with pytest.raises(ValueError):
        KeyStepOrder(order=[1, 2], mean_positions={1: 0.5})
    with pytest.raises(ValueError):
        KeyStepOrder(order=[0], mean_positions={0: 0.5})
    with pytest.raises(ValueError):
        KeyStepOrder(order=[2, 1], mean_positions={1: 0.2, 2: 0.8})
    with pytest.raises(ValueError):
        KeyStepOrder(order=[1], mean_positions={1: 1.5})
