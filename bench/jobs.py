"""Benchmark jobs: generation, execution and the per-job correctness check.

A job's inputs are a pure function of (workload, workload seed, job index);
matprod only ever sees the configs and program seeds that come out. Jobs call
matprod through its public entry points (``matprod.cli.main`` and the
``matprod.verify`` library functions), looked up on the module at call time so
the tracer in ``spans.py`` can rebind them.

The checker fails closed: a NaN anywhere in an output, a missing number, a
broken dominance row or a verify report with a NaN margin all fail the job.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from pathlib import Path

WORKLOADS = ("mc-dense", "mc-narrow", "certify-exact")
DEFAULT_SEED = 1729
EXACT_TOLERANCE = 1e-9

# Job sizes, fixed once for the benchmark. Only values that leave the work per
# job unchanged (drift, radius, start column, hook bias) vary between jobs.
# "smoke" shrinks every size for the benchmark's self-tests.
SIZES = {
    "full": {
        "dense_dim": 10, "dense_n": 200, "dense_trials": 40,
        "inverse_dim": 4, "inverse_n": 10, "inverse_trials": 100,
        "narrow_dim": 100, "narrow_n": 50, "narrow_trials": 150,
        "exact_dim": 4, "exact_n": 11, "inverse_exact_n": 10, "adapted_n": 9,
        "battery_divisor": 24,
    },
    "smoke": {
        "dense_dim": 4, "dense_n": 20, "dense_trials": 40,
        "inverse_dim": 3, "inverse_n": 4, "inverse_trials": 16,
        "narrow_dim": 12, "narrow_n": 8, "narrow_trials": 12,
        "exact_dim": 3, "exact_n": 5, "inverse_exact_n": 4, "adapted_n": 4,
        "battery_divisor": 80,
    },
}

# Every shipped preset and the verify suite, run at the default seed.
PRESET_CALLS = {
    "bound-perturbation": ["bound", "--config", "perturbation"],
    "bound-lt-scenario": ["bound", "--config", "lt-scenario"],
    "compare-two-point-scalar": ["compare", "--config", "two-point-scalar"],
    "compare-kaczmarz": ["compare", "--config", "kaczmarz"],
    "compare-rank-one": ["compare", "--config", "rank-one"],
    "compare-inverse": ["compare", "--config", "inverse"],
    "verify": ["verify"],
}


# ---------------------------------------------------------------------------
# generation

def _matrix(rows, cols, data):
    return {"rows": rows, "cols": cols, "data": [float(x) for x in data]}


def _drift(rng, dim, lo, hi):
    """Random dim x dim drift with Frobenius norm uniform in [lo, hi]."""
    g = [rng.gauss(0.0, 1.0) for _ in range(dim * dim)]
    scale = rng.uniform(lo, hi) / math.sqrt(sum(x * x for x in g))
    return _matrix(dim, dim, [scale * x for x in g])


def _perturbation(dim, n, radius, mean, n_scale, mode, trials, **extra):
    cfg = {
        "spec": {
            "factors": [{"count": n, "ensemble": {
                "kind": "bounded-perturbation", "dim": dim, "radius": radius,
                "n_scale": n_scale, "mean": mean}}],
            "mode": mode,
            "z0": "identity",
        },
        "trials": trials,
    }
    cfg.update(extra)
    return cfg


def _inverse_drift(rng, dim):
    """0.02 I plus a small random drift: factors stay well conditioned."""
    drift = _drift(rng, dim, 0.0, 0.01)
    for i in range(dim):
        drift["data"][i * dim + i] += 0.02
    return drift


def make_job(workload: str, seed: int, index: int, size: str = "full") -> dict:
    """Inputs of job `index` of `workload` at workload seed `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sz = SIZES[size]
    rng = random.Random(f"{workload}:{seed}:{index}")
    program_seed = rng.randrange(2**32)
    calls = []
    if workload == "mc-dense":
        d, n = sz["dense_dim"], sz["dense_n"]
        calls.append({"call": "cli", "argv": ["compare", "--seed", str(program_seed)],
                      "config": _perturbation(
                          d, n, rng.uniform(0.5, 1.5), _drift(rng, d, 1.6, 2.2), float(n),
                          "independent", sz["dense_trials"],
                          thresholds_deviation=[round(rng.uniform(0.8, 1.6), 3)])})
        d = sz["inverse_dim"]
        calls.append({"call": "cli", "argv": ["compare", "--seed", str(program_seed + 1)],
                      "config": _perturbation(
                          d, sz["inverse_n"], rng.uniform(0.01, 0.03),
                          _inverse_drift(rng, d), 1.0, "inverse", sz["inverse_trials"])})
    elif workload == "mc-narrow":
        d = sz["narrow_dim"]
        col = [rng.gauss(0.0, 1.0) for _ in range(d)]
        norm = math.sqrt(sum(x * x for x in col))
        calls.append({"call": "cli", "argv": ["compare", "--seed", str(program_seed)],
                      "config": {
                          "bounds": ["lowrank-growth", "lowrank-concentration"],
                          "p": 2.0 * (1.0 + math.log(d)),
                          "q": 2.0,
                          "spec": {
                              "factors": [{"count": sz["narrow_n"], "ensemble": {
                                  "kind": "rademacher-rank-one", "dim": d}}],
                              "mode": "independent",
                              "z0": _matrix(d, 1, [x / norm for x in col]),
                          },
                          "trials": sz["narrow_trials"],
                      }})
    else:
        calls.append({"call": "battery", "seed": program_seed,
                      "divisor": sz["battery_divisor"]})
        d, n = sz["exact_dim"], sz["exact_n"]
        calls.append({"call": "cli", "argv": ["compare", "--trials", "0"],
                      "config": _perturbation(
                          d, n, rng.uniform(0.2, 0.8), _drift(rng, d, 0.0, 0.5), float(n),
                          "independent", 0,
                          thresholds_growth=[round(rng.uniform(1.5, 2.5), 3)],
                          thresholds_deviation=[round(rng.uniform(0.5, 1.0), 3)])})
        calls.append({"call": "cli", "argv": ["compare", "--trials", "0"],
                      "config": _perturbation(
                          d, sz["inverse_exact_n"], rng.uniform(0.01, 0.03),
                          _inverse_drift(rng, d), 1.0, "inverse", 0)})
        calls.append({"call": "adapted", "dim": 2, "n": sz["adapted_n"],
                      "scale": rng.uniform(0.03, 0.08), "high": rng.uniform(0.6, 0.8)})
    return {"workload": workload, "seed": seed, "index": index, "calls": calls}


# ---------------------------------------------------------------------------
# execution

def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def run_cli(argv):
    """matprod.cli.main in-process; returns (exit code, stdout text)."""
    import matprod.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = matprod.cli.main(list(argv))
    return code, out.getvalue()


def _run_adapted(call):
    import numpy as np

    import matprod.simulate
    import matprod.verify

    hook = matprod.simulate.NormBiasedTwoPointHook(call["dim"], call["scale"], call["high"])
    spec = matprod.simulate.ProductSpec(factors=(), z0=np.eye(call["dim"]), mode="adapted",
                                        adapted_hook=hook, n_steps=call["n"])
    rows, meta = matprod.verify.comparison_rows(spec, trials=0)
    return 0, _dump({"task": "compare", "meta": meta, "rows": [r.to_json() for r in rows]})


def _run_battery(call):
    """The default verify battery, each check at 1/divisor of its trials."""
    import numpy as np

    import matprod.ensembles
    import matprod.simulate
    import matprod.verify as v

    seed = call["seed"]

    def trials(default):
        return max(1, default // call["divisor"])

    reports = [(v.check_uniform_smoothness(trials=trials(400), seed=seed), False)]
    for i, (p, q) in enumerate([(2, 2), (4, 2), (4, 4), (8, 2), (8, 8)]):
        reports.append((v.check_subquadratic(p, q, trials=trials(100), seed=seed + i), False))
    reports.append((v.check_subquadratic(2, 2, trials=trials(50), seed=seed, constant=0.5), True))
    for i, (p, q) in enumerate([(2, 2), (4, 2), (4, 4)]):
        reports.append((v.check_martingale_bound(p, q, n=6, trials=trials(40), seed=seed + i),
                        False))
    for i, (p, q) in enumerate([(4, 2), (8, 4)]):
        reports.append((v.check_factor_contraction(p, q, trials=trials(80), seed=seed + i),
                        False))
    reports.append((v.check_number_inequality(trials=trials(20_000), seed=seed), False))
    make = matprod.ensembles.make_bounded_perturbation
    scalar = make(1, np.zeros((1, 1)), 0.1, 1.0)
    spec = matprod.simulate.ProductSpec(factors=(scalar, scalar), z0=np.eye(1))
    reports.append((v.check_bound_dominance(spec, p=2, q=2, seed=seed), False))
    pert = make(3, 0.2 * np.eye(3), 0.5, 8)
    spec8 = matprod.simulate.ProductSpec(factors=(pert,) * 8, z0=np.eye(3))
    reports.append((v.check_bound_dominance(spec8, p=2, q=2, seed=seed, thresholds_growth=(2.0,),
                                            thresholds_deviation=(1.5,)), False))
    ok = all((rep.violations > 0) == expect for rep, expect in reports)
    return 0, _dump({"task": "verify", "ok": ok, "seed": seed,
                     "reports": [dict(rep.to_json(), negative_control=expect)
                                 for rep, expect in reports]})


def prepare(job, workdir: Path) -> list:
    """Write each cli call's config to a file; returns the calls ready to run."""
    ready = []
    for i, call in enumerate(job["calls"]):
        if call["call"] == "cli":
            path = workdir / f"{job['workload']}-{job['index']}-{i}.json"
            path.write_text(json.dumps(call["config"]))
            call = dict(call, argv=[*call["argv"], "--config", str(path)])
        ready.append(call)
    return ready


def execute(calls):
    """Run prepared calls back to back; returns [(exit code, text)] per call."""
    outputs = []
    for call in calls:
        if call["call"] == "cli":
            outputs.append(run_cli(call["argv"]))
        elif call["call"] == "adapted":
            outputs.append(_run_adapted(call))
        else:
            outputs.append(_run_battery(call))
    return outputs


def run_job(job, workdir: Path):
    """Returns (latency in s, digest, problems, output bytes).

    Writing the config files is not timed; checking the outputs is not either.
    """
    calls = prepare(job, workdir)
    start = time.perf_counter()
    try:
        outputs = execute(calls)
    except Exception as exc:  # a job that raises is a failed job, not a crash
        return time.perf_counter() - start, None, [f"raised {type(exc).__name__}: {exc}"], 0
    latency = time.perf_counter() - start
    problems = []
    for code, text in outputs:
        problems.extend(check_output(code, text))
    return latency, digest(outputs), problems, sum(len(t.encode()) for _, t in outputs)


def digest(outputs) -> str:
    h = hashlib.sha256()
    for code, text in outputs:
        data = text.encode()
        h.update(f"{code}:{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# correctness

def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and not math.isnan(x)


def _has_nan(obj) -> bool:
    if isinstance(obj, float):
        return math.isnan(obj)
    if isinstance(obj, dict):
        return any(_has_nan(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_has_nan(v) for v in obj)
    return False


def _check_rows(rows) -> list:
    if not isinstance(rows, list) or not rows:
        return ["compare output has no rows"]
    problems = []
    checked = 0
    for row in rows:
        name = row.get("quantity", "?")
        if row.get("skipped") is not False:
            if row.get("skipped") is not True:
                problems.append(f"{name}: no skipped flag")
            continue
        checked += 1
        bound, emp, kind = row.get("bound"), row.get("empirical"), row.get("empirical_kind")
        if not (_is_number(bound) and _is_number(emp)):
            problems.append(f"{name}: bound or empirical value missing or NaN")
        elif kind == "exact":
            if bound - emp < -EXACT_TOLERANCE * abs(bound):
                problems.append(f"{name}: exact value {emp!r} above bound {bound!r}")
        elif kind == "estimate":
            limit = row.get("limit")
            if not _is_number(limit):
                problems.append(f"{name}: confidence limit missing or NaN")
            elif name.startswith(("tail-", "contraction-tail")):
                if limit > bound:
                    problems.append(f"{name}: LCL {limit!r} above bound {bound!r}")
            elif bound < limit:
                problems.append(f"{name}: bound {bound!r} below UCL {limit!r}")
        else:
            problems.append(f"{name}: unknown empirical kind {kind!r}")
    if not checked:
        problems.append("every compare row was skipped")
    return problems


def _check_reports(payload) -> list:
    reports = payload.get("reports")
    if not isinstance(reports, list) or not reports:
        return ["verify output has no reports"]
    problems = []
    for rep in reports:
        name = rep.get("name", "?")
        violations, instances = rep.get("violations"), rep.get("instances")
        if not (_is_number(rep.get("worst_margin")) and _is_number(violations)
                and _is_number(instances) and instances > 0):
            problems.append(f"{name}: margin, counts or instances missing or NaN")
        elif (violations > 0) != bool(rep.get("negative_control")):
            problems.append(f"{name}: {violations} violations "
                            f"(negative control: {bool(rep.get('negative_control'))})")
    if payload.get("ok") is not True:
        problems.append("verify reports ok = false")
    return problems


def _check_bound(payload) -> list:
    results = payload.get("results")
    if not isinstance(results, list) or not results:
        return ["bound output has no results"]
    return [f"{r.get('kind', '?')}: value missing or NaN"
            for r in results if not _is_number(r.get("value"))]


def check_output(code, text) -> list:
    """Problems with one call's output; an empty list means it passed."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"unparsable output: {exc}"]
    if not isinstance(payload, dict):
        return ["output is not a JSON object"]
    problems = ["NaN in output"] if _has_nan(payload) else []
    task = payload.get("task")
    if task == "compare":
        problems += _check_rows(payload.get("rows"))
    elif task == "verify":
        problems += _check_reports(payload)
    elif task == "bound":
        problems += _check_bound(payload)
    else:
        problems.append(f"unexpected task {task!r}")
    return problems
