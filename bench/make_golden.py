"""Record the golden digests in ``bench/golden.json``.

    python3 bench/make_golden.py

Digests are sha256 at the default seed 1729: of the stdout of every shipped
preset and of ``matprod verify``, and of jobs 0..1023 of every workload.
Recording refuses to write if any output fails its check or if the preset
digests differ between processes. Record them once, on the commit that
defines them; a later change that alters any of these outputs has changed the
program's bytes and must say so rather than re-record.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import time

from run import BENCH, WORKLOADS, Runner, environment


GOLDEN_JOBS = 1024


def main() -> int:
    runner_args = argparse.Namespace(workload=None, seed=1729, seconds=0, trace=0, smoke=False)
    table = {"presets": None, "jobs": {}}
    for workload in WORKLOADS:
        runner_args.workload = workload
        runner = Runner(runner_args)
        runner.deadline = time.monotonic() + 3600.0
        runner.workdir.mkdir(parents=True, exist_ok=True)
        try:
            out = runner.last_json([*runner.worker_argv("golden"), "--jobs", str(GOLDEN_JOBS)])
        finally:
            shutil.rmtree(runner.workdir, ignore_errors=True)
        if out["problems"]:
            print("\n".join(out["problems"][:20]), file=sys.stderr)
            return 1
        if table["presets"] not in (None, out["presets"]):
            print("preset digests differ between processes", file=sys.stderr)
            return 1
        table["presets"] = out["presets"]
        table["jobs"][workload] = out["jobs"]
        print(f"{workload}: {len(out['jobs'])} job digests", flush=True)
    env = environment(runner_args, "see numpy.show_config()")
    table["recorded_on"] = {k: env[k] for k in ("cpu_model", "python", "numpy", "scipy",
                                                "blas_threads", "commit")}
    table["recorded_on"]["machine"] = platform.machine()
    (BENCH / "golden.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
