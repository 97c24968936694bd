"""One benchmark process; ``run.py`` starts it in a fresh interpreter.

Modes:
  run     import matprod and make the first job's inputs, print "ready" (the
          end of set-up), run the first job, then jobs --offset + 1,
          --offset + 1 + --stride, ... back to back for --seconds. With
          --trace 1 the same jobs then run again under the tracer. With
          --presets, the untimed golden checks of every shipped preset follow;
  golden  print the digests of every preset and of jobs 0..--jobs-1.

The last stdout line is always one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import jobs
import speed

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"


def _emit(obj):
    print(json.dumps(obj, sort_keys=True), flush=True)


def _job_record(job, workdir, golden):
    latency, job_digest, problems, nbytes = jobs.run_job(job, workdir)
    if golden is not None and job_digest is not None and job["index"] < len(golden):
        if golden[job["index"]] != job_digest:
            problems = [*problems, "output differs from the golden digest"]
    return {"latency": latency, "digest": job_digest, "problems": problems, "bytes": nbytes}


def _blas() -> str:
    import numpy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name')} {info.get('version')}"


def check_presets(golden_presets) -> dict:
    """Run every preset once, untimed; returns name -> problems."""
    out = {}
    for name, argv in jobs.PRESET_CALLS.items():
        code, text = jobs.run_cli([*argv, "--seed", str(jobs.DEFAULT_SEED)])
        problems = jobs.check_output(code, text)
        if hashlib.sha256(text.encode()).hexdigest() != golden_presets.get(name):
            problems.append("output differs from the golden digest")
        out[name] = problems
    return out


def _timed(jobs_, workdir, golden):
    """Records of `jobs_` run back to back, each between two calibration
    kernel runs; "scale" converts its latency to reference speed."""
    records = []
    before = speed.kernel_time()
    for job in jobs_:
        record = _job_record(job, workdir, golden)
        after = speed.kernel_time()
        record["scale"] = 2.0 * speed.REF_S / (before + after)
        records.append(record)
        before = after
    return records


def _for_seconds(make, first, stride, seconds):
    """Jobs first, first + stride, ... generated until `seconds` of wall time pass."""
    start = time.perf_counter()
    k = first
    while time.perf_counter() - start < seconds:
        yield make(k)
        k += stride


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("run", "golden"))
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--offset", type=int, default=0)
    ap.add_argument("--stride", type=int, default=1)
    ap.add_argument("--presets", action="store_true")
    ap.add_argument("--jobs", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    import matprod  # noqa: F401  (set-up ends once the package and first inputs exist)

    size = "smoke" if args.smoke else "full"

    def make(k):
        return jobs.make_job(args.workload, args.seed, k, size)

    first_job = make(0)
    workdir = Path(args.workdir)

    if args.mode == "golden":
        presets, problems = {}, []
        for name, preset_argv in jobs.PRESET_CALLS.items():
            code, text = jobs.run_cli([*preset_argv, "--seed", str(jobs.DEFAULT_SEED)])
            presets[name] = hashlib.sha256(text.encode()).hexdigest()
            problems += [f"{name}: {p}" for p in jobs.check_output(code, text)]
        digests = []
        for k in range(args.jobs):
            _, job_digest, job_problems, _ = jobs.run_job(make(k), workdir)
            digests.append(job_digest)
            problems += [f"job {k}: {p}" for p in job_problems]
        _emit({"presets": presets, "jobs": digests, "problems": problems})
        return 0

    print("ready", flush=True)
    table = json.loads(GOLDEN.read_text())
    golden = None
    if args.seed == jobs.DEFAULT_SEED and not args.smoke:
        golden = table["jobs"][args.workload]
    speed.kernel_time()  # warm-up
    result = {"first": _timed([first_job], workdir, golden)[0]}
    if args.trace == 0:
        result["jobs"] = _timed(_for_seconds(make, 1 + args.offset, args.stride, args.seconds),
                                workdir, golden)
    else:
        import spans

        untraced = _timed(_for_seconds(make, 1, 1, args.seconds / 2), workdir, golden)
        tracer = spans.Tracer()

        def traced_jobs():
            for k in range(1, len(untraced) + 1):
                tracer.job = k
                yield make(k)

        tracer.install()
        try:
            traced = _timed(traced_jobs(), workdir, golden)
        finally:
            tracer.uninstall()
        for a, b in zip(untraced, traced):
            if a["digest"] != b["digest"]:
                b["problems"] = [*b["problems"], "traced output differs from untraced output"]

        def busy(records):
            return sum(r["latency"] * r["scale"] for r in records)

        scale = statistics.median(r["scale"] for r in traced)
        layers = tracer.layer_metrics(len(traced), scale)
        layers["trace.overhead_frac"] = busy(traced) / busy(untraced) - 1.0
        layers["cli.bytes_out"] = sum(r["bytes"] for r in traced) / len(traced)
        result["layers"] = layers
        result["jobs"] = untraced + traced
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-s{args.seed}.json")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas"] = _blas()
    if args.presets:
        result["presets"] = check_presets(table["presets"])
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
