"""One workload in one fresh process; started by run.py.

    worker.py setup <workload> <seed>
        prints the seconds from before ``import proclearn`` to the end of
        generating the workload's task panel (for cli-run-all: the import of
        ``proclearn.cli`` alone);
    worker.py run <workload> <seed> <seconds> <trace> <out-dir>
        runs the workload and prints one JSON line of raw results.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path


def setup(workload_name: str, seed: int) -> None:
    start = time.perf_counter()
    import workloads

    w = workloads.WORKLOADS[workload_name]
    if w.cli:
        import proclearn.cli  # noqa: F401
    else:
        workloads.make_panel(w, seed)
    print(repr(time.perf_counter() - start))


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


class Run:
    """Rounds of one workload and the checks on their outputs.

    Only a digest of each task's first outputs stays in memory during the
    rounds; the outputs themselves wait on disk (pickled, or as run-all's
    ``--out`` tree) for the checks, and each task is generated when its round
    comes. So the worker's peak memory is that of one round.
    """

    def __init__(self, workload, seed: int, out: Path):
        import checks
        import workloads

        self.w = workload
        self.out = out
        self.ck = checks.Checker()
        self.seeds = workloads.task_seeds(seed, workload.tasks)
        self.first: dict[int, Path] = {}
        self.digests: dict[int, str] = {}
        self.times: dict[int, list[float]] = {}
        self.rss: list[float] = []
        self.attempted = 0
        self.failed_rounds: set[int] = set()
        self.round_of_task: dict[int, int] = {}
        self.env = dict(os.environ)
        self.notes: list[str] = []

    def round(self, index: int, task: int, in_process: bool, tracer=None):
        """One pipeline run; returns (seconds, outcome). cli-run-all runs in a
        fresh ``proclearn run-all`` process unless ``in_process``. With a
        tracer, the timed part runs in a ``bench.pipeline`` span."""
        import workloads

        timed = tracer.span("bench.pipeline") if tracer else contextlib.nullcontext()
        if not self.w.cli:
            inputs = workloads.make_task(self.w, self.seeds[task])
            with timed:
                start = time.perf_counter()
                outcome = workloads.run_pipeline(self.w, inputs)
                return time.perf_counter() - start, outcome
        tree = self.out / f"round-{index:03d}"
        if in_process:
            import proclearn.cli

            with timed:
                start = time.perf_counter()
                code = proclearn.cli.main(self.w.cli_args(tree, self.seeds[task]))
                wall = time.perf_counter() - start
            stderr = ""
        else:
            res = workloads.run_cli_process(self.w, tree, self.seeds[task], self.env)
            code, wall, stderr = res.returncode, res.wall_s, res.stderr
            self.rss.append(res.maxrss_mb)
        if code != 0:
            raise RuntimeError(f"run-all exited {code}: {stderr.strip()}")
        return wall, tree

    def attempt(self, index: int, task: int, in_process: bool = False, tracer=None):
        """Run one round as one operation and return its seconds (None if it
        raised); a repeat of a task must reproduce its first outputs exactly."""
        import checks

        self.attempted += 1
        try:
            seconds, outcome = self.round(index, task, in_process, tracer)
        except Exception as exc:  # an operation that fails is counted, not fatal
            self.failed_rounds.add(index)
            self.ck.failures.append(f"round {index} (task {task}) raised {exc!r}")
            return None
        data = pickle.dumps(checks.tree_bytes(outcome) if self.w.cli else outcome)
        digest = hashlib.sha256(data).hexdigest()
        if task not in self.digests:
            self.digests[task] = digest
            self.round_of_task[task] = index
            if self.w.cli:
                self.first[task] = outcome
            else:
                self.first[task] = self.out / f"first-task-{task:02d}.pickle"
                self.first[task].write_bytes(data)
            return seconds
        if self.w.cli:
            shutil.rmtree(outcome)
        if not self.ck.check(f"round {index} repeats task {task} exactly",
                             digest == self.digests[task]):
            self.failed_rounds.add(index)
        return seconds

    def first_outcome(self, task: int):
        """A task's first outputs: run-all's --out tree, or the unpickled Outcome."""
        if self.w.cli:
            return self.first[task]
        return pickle.loads(self.first[task].read_bytes())

    # -- checks ------------------------------------------------------------

    def check_all(self) -> list[dict]:
        """Check the first outcome of every task; deep checks on one task.

        cnc must beat uniform random labels in mean F1 over the panel. Single
        tasks of localize-many fall below random on some seeds (a fault of the
        method on background-heavy tasks, not of a round), so a task below
        random is reported in a note rather than failed.
        """
        per_task = []
        for task in sorted(self.first):
            before = len(self.ck.failures)
            per_task.append(self.check_task(task, self.first_outcome(task),
                                            deep=task == min(self.first)))
            if len(self.ck.failures) > before:
                self.failed_rounds.add(self.round_of_task[task])
        if per_task:
            cnc = statistics.fmean(t["mean_f1"] for t in per_task)
            rnd = statistics.fmean(t["random_f1"] for t in per_task)
            if not self.ck.check("panel cnc mean F1 above uniform-random labels", cnc > rnd,
                                 f"{cnc:.4f} vs {rnd:.4f}"):
                self.failed_rounds.update(self.round_of_task.values())
            below = [task for task, t in zip(sorted(self.first), per_task)
                     if t["mean_f1"] <= t["random_f1"]]
            if below:
                self.notes.append(f"cnc mean F1 at or below uniform-random labels on tasks {below}")
        return per_task

    def check_task(self, task: int, outcome, deep: bool) -> dict:
        import checks
        import workloads

        tag = f"task {task}"
        seed = self.seeds[task]
        if self.w.cli:
            found = checks.check_run_all_tree(self.ck, tag, outcome, self.w.steps, seed + 3)
            if deep:
                embeddings = self.cli_embeddings(outcome)
                checks.check_embedder_outputs(self.ck, tag, embeddings)
                checks.deep_check(self.ck, tag, embeddings, found["pred"],
                                  workloads.pcm_config(self.w, seed), seed + 4)
            return found
        t = workloads.make_task(self.w, seed)
        video_ids = [seq.video_id for seq in t.dataset]
        truth = {seq.video_id: checks.frame_labels(
            [(s.start_s, s.end_s, s.label_id) for s in t.annotation.per_video[seq.video_id]],
            seq.num_frames, seq.fps) for seq in t.dataset}
        report = outcome.report
        summary = {name: getattr(report, name) for name in (
            "mean_precision", "mean_recall", "mean_f1", "mean_iou", "legacy_precision",
            "legacy_recall", "legacy_f1", "legacy_iou", "mof")}
        per_step = [report.per_keystep[k].f1 for k in sorted(report.per_keystep)]
        checks.check_embedder_outputs(self.ck, tag, outcome.embeddings)
        found = checks.check_outputs(
            self.ck, tag, video_ids, truth, outcome.assignment.per_video, self.w.K,
            summary, per_step, checks.EXACT, report.mapping, outcome.ordering.order,
            outcome.ordering.mean_positions, seed + 3,
        )
        checks.check_kmeans_fixed_point(self.ck, tag, *self.foreground(outcome))
        if deep:
            checks.deep_check(self.ck, tag, outcome.embeddings, outcome.assignment.per_video,
                              workloads.pcm_config(self.w, seed), seed + 4)
        return found

    @staticmethod
    def foreground(outcome):
        import numpy as np

        ids = list(outcome.embeddings)
        points = np.concatenate([outcome.embeddings[v] for v in ids])
        labels = np.concatenate([outcome.assignment.per_video[v] for v in ids])
        return points[labels > 0], labels[labels > 0]

    def cli_embeddings(self, tree: Path) -> dict:
        from proclearn import core, embed

        params = embed.load_params(tree / "params.cncp")
        manifest = core.load_manifest(tree / "manifest.csv")
        return {seq.video_id: embed.embed_sequence(params, seq)
                for seq in manifest.load_feature_sequences()}

    def first_embeddings(self) -> dict:
        outcome = self.first_outcome(min(self.first))
        return self.cli_embeddings(outcome) if self.w.cli else outcome.embeddings

    def cleanup(self) -> None:
        for path in self.first.values():
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink(missing_ok=True)

    def failed(self) -> int:
        return len(self.failed_rounds)


def tcc_peak_mb(embeddings: dict) -> float:
    """tracemalloc peak of one tcc_loss call on the first two videos."""
    from proclearn import embed
    from proclearn.embed import TrainConfig

    cfg = TrainConfig()
    A, B = list(embeddings.values())[:2]
    tracemalloc.start()
    try:
        embed.tcc_loss(A, B, cfg.temperature, cfg.variance_weight, cfg.variance_floor)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------

PER_CALL_MS = {
    "embed.tc3i_loss_ms": "embed.tc3i_loss",
    "embed.tcc_loss_ms": "embed.tcc_loss",
    "embed.cidm_loss_ms": "embed.cidm_loss",
    "embed.embed_sequence_ms": "embed.embed_sequence",
    "metrics.full_report_ms": "metrics.full_report",
    "order.keystep_order_ms": "order.keystep_order",
    "core.load_features_ms": "core.load_features",
}
PER_ROUND_S = {
    "procut.correspondence_scores_s": "procut.correspondence_scores",
    "procut.build_energy_graph_s": "procut.build_energy_graph",
    "procut.min_cut_s": "procut.min_cut",
    "procut.cluster_foreground_s": "procut.cluster_foreground",
    "procut.localize_s": "procut.localize",
    "cli.synth_s": "cli.cmd_synth",
    "cli.train_s": "cli.cmd_train",
    "cli.localize_s": "cli.cmd_localize",
    "cli.order_s": "cli.cmd_order",
    "cli.evaluate_s": "cli.cmd_evaluate",
    "cli.stats_s": "cli.cmd_stats",
    "synthbench.generate_s": "synthbench.generate",
    "synthbench.compare_methods_s": "synthbench.compare_methods",
}
PER_ROUND_COUNT = {
    "embed.train_steps": "train_steps",
    "procut.frames_scored": "frames_scored",
    "procut.graph_nodes": "graph_nodes",
    "core.load_features_calls": "feature_reads",
}


def layer_metrics(spans: list[dict], rounds: list[int]) -> tuple[dict, list[str]]:
    from spans import LAYERS, self_times

    values: dict[str, float] = {}
    notes: list[str] = []
    names = {s["name"] for s in spans}
    own = self_times(spans)
    by_round = {r: [s for s in spans if s["round"] == r] for r in rounds}

    def dur(s):
        return s["end"] - s["start"]

    def median_per_round(fn):
        return statistics.median(fn(by_round[r]) for r in rounds)

    def absent(metric, span_name):
        values[metric] = 0.0
        notes.append(f"{metric} does not apply: no {span_name} call on this workload")

    for metric, name in PER_CALL_MS.items():
        calls = [dur(s) * 1e3 for s in spans if s["name"] == name]
        if calls:
            values[metric] = statistics.median(calls)
        else:
            absent(metric, name)
    for metric, name in PER_ROUND_S.items():
        if name in names:
            values[metric] = median_per_round(
                lambda ss: sum(dur(s) for s in ss if s["name"] == name))
        else:
            absent(metric, name)
    for metric, key in PER_ROUND_COUNT.items():
        values[metric] = median_per_round(
            lambda ss: sum(s["counts"].get(key, 0) for s in ss))
    if "embed.train_embedder" in names:
        values["embed.train_step_ms"] = median_per_round(
            lambda ss: 1e3 * sum(dur(s) for s in ss if s["name"] == "embed.train_embedder")
            / max(1, sum(s["counts"].get("train_steps", 0) for s in ss)))
    else:
        absent("embed.train_step_ms", "embed.train_embedder")
    if "cli.cmd_stats" in names:
        # main() dispatches run-all through its command table, so the span
        # around the run-all call is the parent of cmd_stats, whichever it is.
        def after_stats(ss):
            stats = next(s for s in ss if s["name"] == "cli.cmd_stats")
            return spans[stats["parent"]]["end"] - stats["end"]
        values["cli.benchmark_table_s"] = median_per_round(after_stats)
    else:
        absent("cli.benchmark_table_s", "cli.cmd_stats")
    for layer in LAYERS:
        values[f"self.{layer}_s"] = median_per_round(
            lambda ss: sum(own[s["id"]] for s in ss if s["name"].split(".")[0] == layer))
    values["trace.spans"] = median_per_round(len)
    return values, notes


# ---------------------------------------------------------------------------
# Entry
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    import workloads

    w = workloads.WORKLOADS[workload_name]
    r = Run(w, seed, out)
    values: dict[str, float] = {}
    notes: list[str] = []
    start = time.perf_counter()
    if not trace:
        index = 0
        while index < w.tasks or time.perf_counter() - start < seconds:
            seconds_taken = r.attempt(index, index % w.tasks)
            if seconds_taken is not None:
                r.times.setdefault(index % w.tasks, []).append(seconds_taken)
            index += 1
        peak = statistics.median(r.rss) if w.cli else (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        per_task = r.check_all()
        # Tasks differ in cost (k-means runs to convergence), so the panel
        # mean of each task's median is steadier from seed to seed than a
        # median over rounds.
        values["pipeline_s"] = statistics.fmean(
            statistics.median(t) for t in r.times.values()) if r.times else float("nan")
        values["peak_rss_mb"] = peak
        values["mean_f1"] = statistics.fmean(t["mean_f1"] for t in per_task)
        values["mof"] = statistics.fmean(t["mof"] for t in per_task)
    else:
        from spans import Tracer

        tracer = Tracer()
        overheads, rounds = [], []
        index = 0
        while index < 4 or time.perf_counter() - start < seconds:
            # A block of two pairs on one task, untraced-traced then
            # traced-untraced, all in this process: the rounds differ only
            # by the spans, and an effect of running first or second cancels.
            task = (index // 4) % w.tasks
            plain, traced = [], []
            for offset, trace_round in enumerate((False, True, True, False)):
                if trace_round:
                    tracer.round = index + offset
                    tracer.install()
                    try:
                        taken = r.attempt(index + offset, task, True, tracer)
                    finally:
                        tracer.uninstall()
                    traced.append(taken)
                    if taken is not None:
                        rounds.append(index + offset)
                else:
                    plain.append(r.attempt(index + offset, task, in_process=True))
            if None not in plain + traced:
                overheads.append((sum(traced) - sum(plain)) / 2)
            index += 4
        per_task = r.check_all()
        values, notes = layer_metrics(tracer.spans, rounds)
        values["trace.overhead_s"] = statistics.median(overheads) if overheads else float("nan")
        values["procut.bg_recall"] = statistics.fmean(t["bg_recall"] for t in per_task)
        values["embed.tcc_loss_peak_mb"] = tcc_peak_mb(r.first_embeddings())
        tracer.dump(out / "spans.jsonl")
    r.cleanup()
    return {
        "correct": not r.ck.failures,
        "attempted": r.attempted,
        "failed": r.failed(),
        "values": values,
        "checks": r.ck.count,
        "failures": r.ck.failures,
        "notes": notes + r.notes,
        "round_seconds": {str(t): v for t, v in sorted(r.times.items())},
        "environment": environment(seed),
        "task_seeds": r.seeds,
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        setup(argv[1], int(argv[2]))
        return 0
    workload_name, seed, seconds, trace, out = argv[1:6]
    result = run(workload_name, int(seed), float(seconds), trace == "1", Path(out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
