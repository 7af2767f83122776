"""The three workloads: the task panels they run and the pipeline they time.

A run of a workload draws a panel of planted tasks from its seed and runs
them one after another in one process (a closed loop with one client). The
panel exists because the quality of one task varies a lot from task to task;
its mean over the panel is steady from seed to seed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import proclearn
from proclearn import embed, metrics, order, procut
from proclearn.core import FeatureSequence, KeyStepAssignment, TaskAnnotation
from proclearn.embed import TrainConfig
from proclearn.procut import PcmConfig
from proclearn.synthbench import SynthSpec, annotation_to_assignment


@dataclass(frozen=True)
class Workload:
    name: str
    num_videos: int
    frames_per_video: int
    foreground_ratio: float
    steps: int
    tasks: int
    cli: bool
    K: int = 5

    def spec(self, task_seed: int) -> SynthSpec:
        return SynthSpec(
            K=self.K,
            num_videos=self.num_videos,
            frames_per_video=self.frames_per_video,
            foreground_ratio_target=self.foreground_ratio,
            seed=task_seed,
        )

    def cli_args(self, out: Path, task_seed: int) -> list[str]:
        return [
            "run-all",
            "--out", str(out.resolve()),
            "--seed", str(task_seed),
            "--k", str(self.K),
            "--num_videos", str(self.num_videos),
            "--frames_per_video", str(self.frames_per_video),
            "--foreground_ratio_target", str(self.foreground_ratio),
            "--steps", str(self.steps),
        ]


# Sizes are chosen so that one panel takes about one measuring window; see
# README.md for why each workload has the make-up it has.
WORKLOADS = {
    "train-long": Workload("train-long", 5, 1000, 0.6, steps=4, tasks=6, cli=False),
    "localize-many": Workload("localize-many", 40, 500, 0.2, steps=3, tasks=14, cli=False),
    "cli-run-all": Workload("cli-run-all", 30, 200, 0.6, steps=40, tasks=5, cli=True),
}


def task_seeds(seed: int, count: int) -> list[int]:
    """Seeds of a run's task panel; distinct seeds give unrelated panels."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint32)
    return [int(s) for s in state]


@dataclass
class Task:
    seed: int
    dataset: list[FeatureSequence]
    annotation: TaskAnnotation
    gt: KeyStepAssignment


def make_task(workload: Workload, task_seed: int) -> Task:
    dataset, annotation = proclearn.synthbench.generate(workload.spec(task_seed))
    frame_counts = {seq.video_id: seq.num_frames for seq in dataset}
    gt = annotation_to_assignment(annotation, frame_counts)
    return Task(task_seed, dataset, annotation, gt)


def make_panel(workload: Workload, seed: int) -> list[Task]:
    return [make_task(workload, s) for s in task_seeds(seed, workload.tasks)]


@dataclass
class Outcome:
    """What one pipeline run produced, as the checks need it."""

    loss_trace: list[float]
    params: embed.EmbedderParams
    embeddings: dict[str, np.ndarray]
    assignment: KeyStepAssignment
    ordering: order.KeyStepOrder
    report: metrics.MetricsReport


def train_config(workload: Workload, task_seed: int) -> TrainConfig:
    return TrainConfig(steps=workload.steps, seed=task_seed + 1)


def pcm_config(workload: Workload, task_seed: int) -> PcmConfig:
    return PcmConfig(K=workload.K, seed=task_seed + 2)


def run_pipeline(workload: Workload, task: Task) -> Outcome:
    """Inputs to scored, ordered key-steps, through the module attributes.

    Every stage is looked up on its module at call time, so the tracer's
    wrappers see each call.
    """
    result = embed.train_embedder(task.dataset, train_config(workload, task.seed))
    embeddings = {
        seq.video_id: embed.embed_sequence(result.params, seq) for seq in task.dataset
    }
    assignment = procut.localize(embeddings, pcm_config(workload, task.seed))
    ordering = order.keystep_order(assignment)
    report = metrics.full_report(assignment, task.gt)
    return Outcome(result.loss_trace, result.params, embeddings, assignment, ordering, report)


@dataclass
class ProcessResult:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stderr: str


def run_cli_process(workload: Workload, out: Path, task_seed: int, env: dict) -> ProcessResult:
    """One ``proclearn run-all`` in a fresh interpreter; wall time and peak RSS."""
    cmd = [sys.executable, "-m", "proclearn.cli", *workload.cli_args(out, task_seed)]
    err_path = out.parent / f"{out.name}.stderr"
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text()
    err_path.unlink()
    # ru_maxrss is in KiB on Linux.
    return ProcessResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, stderr)
