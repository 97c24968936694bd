"""matprod benchmark: one workload as a closed loop with one client.

    python3 bench/run.py --workload mc-dense --seed 1 --seconds 18 --trace 0

Run it from the root of a matprod checkout; it imports ``src/matprod`` and
writes only under ``bench/out/``. Every process runs with one BLAS thread.

--trace 0 measures the end-to-end metrics. PROCESSES fresh workers run one
after another, each for a share of --seconds: set-up (interpreter start to
``import matprod`` done and the first inputs made), the first job, then jobs
back to back. --trace 1 runs one worker: jobs untraced for half of --seconds,
then the same jobs under the outside-in tracer (``spans.py``), and reports the
per-layer metrics. Times are at reference speed (``speed.py``).

Both modes check every job's output and the golden digest of every shipped
preset. Each metric is printed with its unit and sample count; the last stdout
line is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 whenever a result is printed, 1 when the benchmark itself
failed, and 2 when the checkout holds no matprod to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("mc-dense", "mc-narrow", "certify-exact")
BLAS_THREADS = 1
PROCESSES = 4
IMPORTTIME_SAMPLES = 3
TIME_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "first_job_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.self_s": "s/job",
    "cli.bytes_out": "B/job",
    "streams.calls": "count/job",
    "streams.self_s": "s/job",
    "ensembles.draws": "count/job",
    "ensembles.draw_s": "s/job",
    "ensembles.build_s": "s/job",
    "simulate.mc.trials": "count/job",
    "simulate.mc.factor_steps": "count/job",
    "simulate.mc.self_s": "s/job",
    "simulate.mc.dense_flops": "flop/job",
    "simulate.mc.gflop_s": "GFLOP/s",
    "simulate.mc.result_bytes": "B/job",
    "simulate.mc.included_ratio": "ratio",
    "simulate.enum.outcomes": "count/job",
    "simulate.enum.self_s": "s/job",
    "simulate.estimate.self_s": "s/job",
    "schatten.svd.calls": "count/job",
    "schatten.svd.matrices": "count/job",
    "schatten.svd_s": "s/job",
    "schatten.eigvals.calls": "count/job",
    "schatten.eigvals.matrices": "count/job",
    "schatten.eigvals_s": "s/job",
    "schatten.cond.calls": "count/job",
    "schatten.cond_s": "s/job",
    "schatten.svd_per_product": "ratio",
    "schatten.matrices_per_call": "ratio",
    "bounds.calls": "count/job",
    "bounds.self_s": "s/job",
    "verify.compare.self_s": "s/job",
    "verify.checks.self_s": "s/job",
    "verify.instances": "count/job",
    "verify.violations": "count/job",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count/job",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.workdir = BENCH / "out" / f"run-{os.getpid()}"

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time limit reached")
        return left

    def worker_argv(self, mode, *extra):
        a = self.args
        argv = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", a.workload,
                "--seed", str(a.seed), "--trace", str(a.trace), "--workdir", str(self.workdir),
                *extra]
        return argv + (["--smoke"] if a.smoke else [])

    def run(self, argv) -> subprocess.CompletedProcess:
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=self.remaining())
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[1:3]} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{argv[1:3]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc

    def last_json(self, argv) -> dict:
        lines = self.run(argv).stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{argv[1:3]} printed nothing")
        return json.loads(lines[-1])

    def start_worker(self, *extra):
        """(set-up seconds: interpreter start to the ready line, worker result)."""
        start = time.perf_counter()
        proc = subprocess.Popen(self.worker_argv("run", *extra), env=self.env, cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            out, err = proc.communicate(timeout=self.remaining())
        except (subprocess.TimeoutExpired, BenchError) as exc:
            proc.kill()
            proc.communicate()
            raise BenchError("worker timed out") from exc
        if ready.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}):\n{err[-2000:]}")
        return setup, json.loads(out.strip().splitlines()[-1])

    def import_times(self):
        """(matprod, scipy.stats + scipy.linalg) cumulative import seconds,
        at reference speed."""
        code = ("import matprod, sys; sys.path.insert(0, sys.argv[1]); import speed; "
                "speed.kernel_time(); print(speed.REF_S / speed.kernel_time())")
        proc = self.run([sys.executable, "-X", "importtime", "-c", code, str(BENCH)])
        scale = float(proc.stdout.strip().splitlines()[-1])
        return tuple(seconds * scale for seconds in parse_importtime(proc.stderr))


def parse_importtime(text):
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, raw = line.split(":", 1)[1].split("|")
        entries.append((len(raw) - len(raw.lstrip()), raw.strip(), int(cumulative) * 1e-6))
    total = sum(c for _, name, c in entries if name == "matprod")
    counted = {}
    for i, (depth, name, cum) in enumerate(entries):
        if name in ("scipy.stats", "scipy.linalg"):
            j = i - 1
            while j >= 0 and entries[j][0] > depth:  # an import's children precede it
                counted.pop(j, None)
                j -= 1
            counted[i] = cum
    return total, sum(counted.values())


def environment(args, blas) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "workload_seed": args.seed,
        "commit": git_commit(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def tally(records, presets) -> tuple:
    """(attempted, failed, problems): each job record and preset check is one
    operation, failed when it lists any problem."""
    problems = [f"job record {k}: {p}" for k, r in enumerate(records) for p in r["problems"]]
    problems += [f"preset {name}: {p}" for name, found in presets.items() for p in found]
    failed = sum(1 for r in records if r["problems"]) + sum(1 for p in presets.values() if p)
    return len(records) + len(presets), failed, problems


def measure(runner) -> tuple:
    """Returns (metrics {name: (value, samples, raw value)}, attempted, failed,
    problems, blas). Times are at reference speed (speed.py); raw is wall time.

    --trace 0 splits the timed section over PROCESSES fresh workers, run one
    after another: each gives a set-up and a first-job sample, process-level
    noise (memory layout, hash seed) averages out, and the last checks the
    presets. --trace 1 uses one worker.
    """
    args = runner.args
    count = 1 if (args.smoke or args.trace) else PROCESSES
    setups, firsts, records, results = [], [], [], []
    for i in range(count):
        extra = ["--offset", str(i), "--stride", str(count),
                 "--seconds", str(args.seconds / count)]
        setup, result = runner.start_worker(*extra, *([] if args.smoke or i < count - 1
                                                     else ["--presets"]))
        setups.append((setup * result["first"]["scale"], setup))
        firsts.append(result["first"])
        records += result["jobs"]
        results.append(result)
    presets = results[-1].get("presets", {})
    attempted, failed, problems = tally(firsts + records, presets)
    if len({r["digest"] for r in firsts}) != 1:
        problems.append("the first job's output differs between fresh processes")
        failed += 1

    metrics = {}

    def timing(name, pairs, summary):
        metrics[name] = (summary([p[0] for p in pairs]), len(pairs),
                         summary([p[1] for p in pairs]))

    if args.trace == 0:
        latencies = [(r["latency"] * r["scale"], r["latency"]) for r in records]
        timing("setup_s", setups, statistics.median)
        timing("first_job_s", [(r["latency"] * r["scale"], r["latency"]) for r in firsts],
               statistics.median)
        timing("jobs_per_s", latencies, lambda v: len(v) / sum(v))
        timing("job_p50_s", latencies, statistics.median)
        timing("job_p90_s", latencies, p90)
        metrics["peak_rss_mb"] = (max(r["peak_rss_mb"] for r in results), count, None)
    else:
        jobs_traced = len(records) // 2
        for name, value in results[0]["layers"].items():
            metrics[name] = (value, jobs_traced, None)
        samples = [runner.import_times() for _ in range(1 if args.smoke else IMPORTTIME_SAMPLES)]
        metrics["cli.import_s"] = (statistics.median(s[0] for s in samples), len(samples), None)
        metrics["cli.import_scipy_s"] = (statistics.median(s[1] for s in samples), len(samples),
                                         None)
    return metrics, attempted, failed, problems, results[0]["blas"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--seconds", type=int, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken jobs, one set-up sample, no golden checks (self-tests)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "matprod" / "__init__.py").is_file():
        print(f"no matprod package under {ROOT / 'src'}; run from a matprod checkout",
              file=sys.stderr)
        return 2
    runner = Runner(args)
    runner.workdir.mkdir(parents=True, exist_ok=True)
    try:
        # fill the bytecode cache so no timed import compiles
        runner.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "matprod")])
        metrics, attempted, failed, problems, blas = measure(runner)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    units = END_TO_END if args.trace == 0 else PER_LAYER
    for name, unit in units.items():
        value, samples, raw = metrics[name]
        wall = "" if raw is None else f"  (raw wall {raw:.6g})"
        print(f"{name:28s} {value:14.6g} {unit:10s} n={samples}{wall}")
    print(f"{'failed_frac':28s} {failed / attempted:14.6g} {'ratio':10s} n={attempted}")
    print("env " + json.dumps(environment(args, blas), sort_keys=True))
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
