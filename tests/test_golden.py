"""Golden smoke: every shipped preset and the first jobs of each benchmark
workload keep the output bytes pinned in ``bench/golden.json``.

The full check covers jobs 0..1023 of each workload:
``python3 bench/worker.py golden --workload W --seed 1729 --jobs 1024 ...``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text())
GOLDEN_SEED = 1729  # the seed golden.json is recorded at
JOBS = 16


@pytest.mark.parametrize("workload", sorted(GOLDEN["jobs"]))
def test_first_jobs_and_presets_match_golden(workload, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "golden", "--workload", workload,
         "--seed", str(GOLDEN_SEED), "--jobs", str(JOBS), "--workdir", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["problems"] == []
    assert out["presets"] == GOLDEN["presets"]
    assert out["jobs"] == GOLDEN["jobs"][workload][:JOBS]
