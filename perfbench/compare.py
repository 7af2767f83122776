"""Steadiness of the benchmark: sets of runs on distinct seeds, compared.

    python3 perfbench/compare.py --workload localize-many

Runs ``run.py`` once per seed, one run at a time: two sets of ten runs, the
first on seeds 1-10 and the second on seeds 11-20. For each end-to-end
metric it prints each set's median and its spread (the distance between the
first and third quartiles as a share of the median), and how far the second
set's median moved in the worse direction, against the metric's bound in
BENCHMARK.json. It also checks that both sets fail the same share of
operations. Exit code 1 when a spread or a move exceeds its bound or the
shares differ. The spread of setup_s is printed but not held to its bound:
set-up is about a second of interpreter work, and on a host shared with
other work its speed drifts over minutes (on a shared 2-vCPU host, runs a
minute apart differed by up to half while the five samples within one run
mostly agreed). Its move between the sets is held to the bound like every other
metric's. A summary is written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10
SETS = 2


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    sets = []
    for k in range(SETS):
        runs = []
        for i in range(RUNS):
            seed = 1 + k * RUNS + i
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            values = " ".join(f"{n}={v['value']:.4g}" for n, v in result["metrics"].items())
            print(f"set {k} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}",
                  flush=True)
        sets.append(runs)

    ok = True
    summary = {"workload": args.workload, "sets": []}
    shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
    for k, runs in enumerate(sets):
        entry = {"failed_share": shares[k], "correct": all(r["correct"] for r in runs)}
        ok &= entry["correct"]
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            entry[m["name"]] = {"median": statistics.median(values), "spread": spread(values),
                                "values": values}
            flag = ""
            if m["name"] != "setup_s" and entry[m["name"]]["spread"] > m["bound"]:
                ok, flag = False, "  SPREAD ABOVE BOUND"
            elif entry[m["name"]]["spread"] > m["bound"] / 3:
                flag = "  (above a third of the bound)"
            print(f"set {k} {m['name']:<12} median {entry[m['name']]['median']:.5g} "
                  f"spread {entry[m['name']]['spread']:.4f} bound {m['bound']}{flag}")
        summary["sets"].append(entry)
    for k in range(1, len(sets)):
        for m in metrics:
            first = summary["sets"][0][m["name"]]["median"]
            later = summary["sets"][k][m["name"]]["median"]
            worse = (later - first) if m["better"] == "lower" else (first - later)
            move = worse / first
            flag = "  MOVE ABOVE BOUND" if move > m["bound"] else ""
            ok &= not flag
            print(f"set {k} vs 0 {m['name']:<12} worse by {move:+.4f} (bound {m['bound']}){flag}")
    if len(set(shares)) > 1:
        ok = False
        print(f"failed shares differ between sets: {shares}")
    out = Path(".perfbench_out") / f"compare-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
