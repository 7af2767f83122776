"""Recover the logical order of key-steps from where they fall in time."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KeyStepAssignment, _csv_text

__all__ = ["KeyStepOrder", "keystep_order", "format_order"]


@dataclass(frozen=True)
class KeyStepOrder:
    """Labels sorted by ascending mean position; ties broken by label id."""

    order: list[int]
    mean_positions: dict[int, float]

    def __post_init__(self):
        if sorted(self.order) != sorted(self.mean_positions):
            raise ValueError("order must be a permutation of the labels present")
        if any(label < 1 for label in self.order):
            raise ValueError("order may only contain key-step labels (>= 1)")
        if any(not 0.0 <= p <= 1.0 for p in self.mean_positions.values()):
            raise ValueError("mean positions must lie in [0, 1]")
        key = [(self.mean_positions[l], l) for l in self.order]
        if key != sorted(key):
            raise ValueError("order must be sorted by (mean_position, label)")


def keystep_order(assignment: KeyStepAssignment) -> KeyStepOrder:
    """Order the labels that occur by their mean normalized frame position.

    Each labeled frame contributes i / (T - 1) for its video (0 when the
    video has a single frame); positions are averaged per label over all
    videos. Two bincounts over the task's concatenated frames give each
    label's frame count and position sum, the sum added in frame order.
    Background never participates; an all-background assignment has nothing
    to order and is an error.
    """
    # An empty video at the end keeps the concatenation defined on a task of none.
    videos = [*assignment.per_video.values(), np.zeros(0, np.int64)]
    labels = np.concatenate(videos)
    positions = np.concatenate([np.arange(len(v)) / max(len(v) - 1, 1) for v in videos])
    # bincount, not np.unique, which imports numpy.ma (over 1 MB of RSS).
    counts = np.bincount(labels)
    sums = np.bincount(labels, weights=positions)
    present = np.flatnonzero(counts[1:]) + 1
    if not present.size:
        raise ValueError("assignment contains no key-step frames to order")
    means = {int(label): float(sums[label] / counts[label]) for label in present}
    order = sorted(means, key=lambda label: (means[label], label))
    return KeyStepOrder(order=order, mean_positions=means)


def format_order(order: KeyStepOrder) -> str:
    """Render as the single CSV line ``order,l1,l2,...``."""
    return _csv_text([("order", *order.order)])
