"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 bench/stability.py --runs 10 --sets 2 --out bench/out/e2e.json
    python3 bench/stability.py --runs 5 --trace 1 --out bench/out/layers.json

``bench/BASELINE.json`` holds these two reports under "end_to_end" and
"per_layer".

Each set runs every workload once per seed (seeds differ between sets),
interleaving workloads so slow drift of the machine hits them alike. Per
metric it records the median, the quartiles (``statistics.quantiles(n=4)``),
the spread (q3 - q1) / median, and, for end-to-end metrics, the bound from
``BENCHMARK.json`` and the change of the last set's median from the first's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import BENCH, ROOT, WORKLOADS, environment


def summarise(values, bound=None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    out = {"median": median, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / median if median else 0.0, "values": values}
    if bound is not None:
        out["bound"] = bound
        out["spread_below_third_of_bound"] = out["spread"] < bound / 3
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])
    sets = []
    for s in range(args.sets):
        seeds = [s * args.runs + k + 1 for k in range(args.runs)]
        values = {w: {} for w in args.workloads}
        walls = []
        for seed in seeds:
            for workload in args.workloads:
                start = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", seconds, "--trace", str(args.trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=200)
                walls.append(time.monotonic() - start)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if not result["correct"]:
                    print(f"{workload} seed {seed}: incorrect\n{proc.stderr}", file=sys.stderr)
                    return 1
                for name, metric in result["metrics"].items():
                    values[workload].setdefault(name, []).append(metric["value"])
                print(f"set {s} seed {seed} {workload}: {walls[-1]:.1f} s", flush=True)
        sets.append({"seeds": seeds, "max_run_wall_s": max(walls), "workloads": {
            w: {name: summarise(v, bounds.get(name) if args.trace == 0 else None)
                for name, v in metrics.items()}
            for w, metrics in values.items()}})

    if args.trace == 0 and len(sets) > 1:
        for w in args.workloads:
            for name, bound in bounds.items():
                first = sets[0]["workloads"][w][name]["median"]
                last = sets[-1]["workloads"][w][name]["median"]
                better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name)
                worse = (last - first) / first if better == "lower" else (first - last) / first
                sets[-1]["workloads"][w][name]["worse_than_first_set"] = worse
                sets[-1]["workloads"][w][name]["within_bound"] = worse <= bound

    for i, one in enumerate(sets):
        for w, metrics in one["workloads"].items():
            for name, m in metrics.items():
                flag = "" if m.get("spread_below_third_of_bound", True) else "  <-- wide"
                drift = m.get("worse_than_first_set")
                extra = f" worse_than_set0={drift:+.3f}" if drift is not None else ""
                print(f"set {i} {w:14s} {name:28s} median={m['median']:.6g} "
                      f"spread={m['spread']:.4f}{extra}{flag}")
    if args.out:
        report = {"trace": args.trace, "run_seconds": spec["run_seconds"],
                  "environment": environment(argparse.Namespace(workload=None, seed=None),
                                             "see the env line of each run"),
                  "sets": sets}
        (ROOT / args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
