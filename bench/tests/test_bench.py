"""Self-tests of the benchmark.

    python3 -m pytest bench/tests -q

They run the benchmark's own code against the matprod in ``src/``; the smoke
runs start the real command with shrunken jobs.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import jobs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(jobs.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_smoke_run_prints_every_metric_and_fails_nothing(workload, trace):
    lines = _smoke(workload, trace)
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    table = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in table]
    for m in table:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(result["metrics"][m["name"]]["value"])
    assert result["failed"] == 0 and result["correct"] is True
    assert result["attempted"] >= 2
    printed = {line.split()[0] for line in lines[:-1]}
    assert {m["name"] for m in table} | {"failed_frac", "env"} <= printed


def test_job_generation_is_a_pure_function_of_the_seed():
    for workload in jobs.WORKLOADS:
        forward = [jobs.make_job(workload, 5, k) for k in range(4)]
        backward = [jobs.make_job(workload, 5, k) for k in reversed(range(4))][::-1]
        assert forward == backward
        assert forward != [jobs.make_job(workload, 6, k) for k in range(4)]
        assert len({json.dumps(j["calls"], sort_keys=True) for j in forward}) == 4
    # and independent of the interpreter's hash randomisation
    code = ("import json, jobs; print(json.dumps([jobs.make_job(w, 5, 3) "
            "for w in jobs.WORKLOADS], sort_keys=True))")
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=str(BENCH))
    other = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout
    assert json.loads(other) == json.loads(json.dumps(
        [jobs.make_job(w, 5, 3) for w in jobs.WORKLOADS], sort_keys=True))


def _compare_payload(**row_changes):
    row = {"quantity": "growth-moment", "empirical_kind": "exact", "bound": 2.0,
           "empirical": 1.5, "skipped": False, "conditions_met": True}
    row.update(row_changes)
    return json.dumps({"task": "compare", "meta": {}, "rows": [row]})


def test_checker_passes_a_dominated_row_and_fails_broken_ones():
    assert jobs.check_output(0, _compare_payload()) == []
    assert jobs.check_output(0, _compare_payload(empirical=2.5))
    assert jobs.check_output(0, _compare_payload(empirical_kind="estimate", limit=2.1))
    assert jobs.check_output(0, _compare_payload(
        quantity="tail-growth@2", empirical_kind="estimate", limit=2.1))
    assert jobs.check_output(0, _compare_payload(empirical_kind="estimate"))  # no limit
    assert jobs.check_output(2, _compare_payload())
    assert jobs.check_output(0, "not json")


def test_nan_row_raises_failed_frac():
    nan_bound = json.dumps({"task": "compare", "meta": {}, "rows": [
        {"quantity": "growth-moment", "empirical_kind": "exact", "bound": math.nan,
         "empirical": 1.5, "skipped": False}]})
    good = {"problems": jobs.check_output(0, _compare_payload())}
    bad = {"problems": jobs.check_output(0, nan_bound)}
    assert run.tally([good, good], {})[1] == 0
    attempted, failed, _ = run.tally([good, bad], {})
    assert failed / attempted == 0.5


def test_nan_margin_in_a_verify_report_fails_closed():
    report = {"name": "subquadratic", "instances": 10, "violations": 0,
              "worst_margin": math.nan, "negative_control": False}
    payload = json.dumps({"task": "verify", "ok": True, "reports": [report]})
    assert jobs.check_output(0, payload)
    report["worst_margin"] = 0.5
    assert jobs.check_output(0, json.dumps({"task": "verify", "ok": True,
                                            "reports": [report]})) == []


def test_corrupted_digest_raises_failed_frac(tmp_path):
    job = jobs.make_job("certify-exact", 1729, 0, "smoke")
    clean = worker._job_record(job, tmp_path, None)
    assert clean["problems"] == [] and clean["digest"]
    assert worker._job_record(job, tmp_path, [clean["digest"]])["problems"] == []
    corrupted = worker._job_record(job, tmp_path, ["0" * 64])
    assert corrupted["problems"]
    attempted, failed, _ = run.tally([clean, corrupted], {})
    assert failed / attempted == 0.5


def test_corrupted_preset_digest_fails(monkeypatch):
    monkeypatch.setattr(jobs, "PRESET_CALLS",
                        {"bound-perturbation": ["bound", "--config", "perturbation"]})
    golden = json.loads((BENCH / "golden.json").read_text())["presets"]
    assert worker.check_presets(golden) == {"bound-perturbation": []}
    found = worker.check_presets({"bound-perturbation": "0" * 64})
    assert found["bound-perturbation"]
    assert run.tally([], found)[1] == 1


def test_parse_importtime_counts_nested_scipy_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 |       scipy.linalg",
        "import time:       100 |        900 |     scipy.stats",
        "import time:        50 |        200 |     scipy.special",
        "import time:        10 |       1500 |   matprod.simulate",
        "import time:        10 |       2000 | matprod",
    ])
    total, scipy_share = run.parse_importtime(text)
    assert total == pytest.approx(2000e-6)
    assert scipy_share == pytest.approx(900e-6)


def test_command_fails_without_a_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc-dense",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
