"""Benchmark command: one workload, one seed, one fresh worker process.

    python3 perfbench/run.py --workload train-long --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. With ``--trace 0`` it prints every
end-to-end metric of BENCHMARK.json, with ``--trace 1`` every per-layer
metric, as the last line of standard output:

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}

Lines before it give the environment, the checks that failed and the
per-layer metrics that do not apply to the workload. The full result and the
spans of a traced run are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
SETUP_SAMPLES = 5
BLAS_THREADS = "1"


class BenchError(Exception):
    pass


def run_child(cmd: list[str], env: dict, timeout: float) -> str:
    """Run a child in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:3])} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited {proc.returncode}:\n{err.strip()}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "proclearn" / "__init__.py").is_file():
        print(f"run.py: no src/proclearn under {root}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    out = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "tmp").mkdir(parents=True)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
        TMPDIR=str(out / "tmp"),
    )
    worker = [sys.executable, str(HERE / "worker.py")]

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    try:
        values = {}
        if not args.trace:
            samples = [
                float(run_child(worker + ["setup", args.workload, str(args.seed)], env,
                                remaining()).strip().splitlines()[-1])
                for _ in range(SETUP_SAMPLES)
            ]
            values["setup_s"] = statistics.median(samples)
        line = run_child(
            worker + ["run", args.workload, str(args.seed), str(args.seconds),
                      str(args.trace), str(out)],
            env, remaining(),
        ).strip().splitlines()[-1]
        result = json.loads(line)
        values.update(result["values"])
        metrics = {}
        for m in declared:
            value = values.get(m["name"])
            if value is None or not math.isfinite(value):
                raise BenchError(f"metric {m['name']} was not measured")
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out / "tmp", ignore_errors=True)

    summary = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    record = dict(summary, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  environment=result["environment"], task_seeds=result["task_seeds"],
                  checks=result["checks"], failures=result["failures"], notes=result["notes"],
                  round_seconds=result["round_seconds"])
    if not args.trace:
        record["setup_samples_s"] = samples
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(result["environment"]))
    print(f"checks {result['checks']}, failed {len(result['failures'])}")
    for failure in result["failures"]:
        print("FAILED " + failure)
    for note in result["notes"]:
        print("note " + note)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
