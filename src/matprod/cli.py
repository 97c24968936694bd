"""Command-line interface: bound evaluation, simulation, verification, comparison.

Configs are JSON files (or shipped preset names); outputs are deterministic
JSON (sorted keys, compact separators, trailing newline) or CSV with 17
significant digits. Exit status: 0 success, 1 usage or input error,
2 nothing checkable / every conditional bound's condition violated,
3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .bounds import (
    PerturbationStats,
    ProductStats,
    ScenarioLT,
    evaluate_kind,
    inverse_perturbation_stats,
    scalar_reference_bounds,
    scenario_lt_bounds,
)
from .ensembles import FactorStats
from .errors import InvalidInputError, InvalidParameterError, MatprodError, NothingToCheckError
from .schatten import format_float, matrix_from_json, matrix_to_json
from .simulate import (
    ESTIMATE_FIELDS,
    enumerate_product,
    factor_count,
    spec_from_config,
    summarize_simulation,
)
from .streams import DEFAULT_SEED
from .verify import comparison_rows, default_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONDITIONS = 2
EXIT_VERIFY = 3

ESTIMATE_NAMES = tuple(ESTIMATE_FIELDS)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# io helpers

def _available_presets():
    try:
        root = resources.files("matprod").joinpath("presets")
        return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))
    except (FileNotFoundError, ModuleNotFoundError):
        return []


def _reject_constant(_name: str):
    # json.loads takes NaN, Infinity and -Infinity, which no config may hold
    raise InvalidInputError("config numbers must be finite")


def _finite_float(literal: str) -> float:
    # an overflowing literal such as 1e999 parses to inf without parse_constant
    value = float(literal)
    if math.isinf(value):
        _reject_constant(literal)
    return value


def _load_config(arg: str) -> dict:
    path = Path(arg)
    if path.exists():
        text = path.read_text()
    else:
        res = resources.files("matprod").joinpath("presets", f"{arg}.json")
        if not res.is_file():
            raise InvalidInputError(
                f"config {arg!r} is neither a file nor a preset "
                f"(presets: {', '.join(_available_presets()) or 'none'})")
        text = res.read_text()
    try:
        obj = json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"config is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InvalidInputError("config root must be a JSON object")
    return obj


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def _rows_to_csv(rows) -> str:
    import csv  # its only user; a JSON run need not load it

    header = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(row.get(key)) for key in header])
    return buf.getvalue()


def _flatten_bound(result_json: dict) -> dict:
    row = {
        "kind": result_json["kind"],
        "value": result_json["value"],
        "capped_value": result_json.get("capped_value"),
        "threshold": result_json.get("threshold"),
        "confidence": result_json.get("confidence"),
        "conditions_met": all(c["satisfied"] for c in result_json.get("conditions", [])),
        "trivial_fallback": result_json.get("trivial_fallback"),
        "refined_value": result_json.get("refined_value"),
        "refined_p": result_json.get("refined_p"),
    }
    params = result_json.get("params")
    row["p"] = params["p"] if params else None
    row["q"] = params["q"] if params else None
    return row


def _payload_to_csv(payload: dict) -> str:
    task = payload.get("task")
    if task == "bound":
        return _rows_to_csv([_flatten_bound(r) for r in payload["results"]])
    if task == "compare":
        return _rows_to_csv(payload["rows"])
    if task == "verify":
        rows = []
        for rep in payload["reports"]:
            row = {k: rep[k] for k in ("name", "instances", "violations", "worst_margin",
                                       "tolerance", "seed", "passed", "negative_control")}
            rows.append(row)
        return _rows_to_csv(rows)
    if task == "simulate":
        rows = []
        for est in payload.get("estimates", {}).values():
            rows.append(dict({"record": "estimate"}, **est))
        for est in payload.get("tails", []):
            rows.append(dict({"record": "tail"}, **est))
        for key, value in payload.items():
            if key in ("task", "estimates", "tails", "per_trial_spectral_norms", "mean"):
                continue
            rows.append({"record": "meta", "quantity": key,
                         "mean": value if isinstance(value, (int, float)) else None,
                         "note": None if isinstance(value, (int, float)) else value})
        for k, norm in enumerate(payload.get("per_trial_spectral_norms", [])):
            rows.append({"record": "per-trial", "quantity": str(k), "mean": norm})
        return _rows_to_csv(rows)
    raise InvalidInputError(f"no CSV form for task {task!r}")


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_error(code: str, message: str, out: str | None):
    text = _dump_json({"error": {"code": code, "message": message}})
    try:
        _emit(text, out)
    except OSError:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# config fragments

def _stats_from_config(cfg: dict) -> ProductStats:
    entries = cfg.get("factors")
    if not entries:
        raise InvalidInputError("bound config needs a 'factors' list of statistics")
    allowed = {"mean_norm", "sigma", "q", "uniform_norm", "sigma_uniform",
               "contraction", "mean_perturbation"}
    factors = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise InvalidInputError("each factor entry must be an object")
        body = entry.get("stats", entry)
        count = factor_count(entry)
        unknown = set(body) - allowed - {"count"}
        if unknown:
            raise InvalidInputError(f"unknown factor statistic fields: {sorted(unknown)}")
        stats = FactorStats(**{k: body[k] for k in allowed if k in body})
        factors.extend([stats] * count)
    d = cfg.get("d")
    z0_obj = cfg.get("z0", "identity")
    if z0_obj == "identity":
        if d is None:
            raise InvalidInputError("need 'd' when z0 is the identity")
        z0 = np.eye(int(d))
    else:
        z0 = matrix_from_json(z0_obj)
        d = z0.shape[0] if d is None else int(d)
    return ProductStats.from_factors(factors, int(d), z0,
                                     projected_rank=cfg.get("projected_rank"))


def _float_list(cfg, key):
    values = cfg.get(key, [])
    if not isinstance(values, list):
        raise InvalidInputError(f"'{key}' must be a list of numbers")
    return [float(x) for x in values]


# ---------------------------------------------------------------------------
# subcommands

def run_bound(cfg: dict, seed: int):
    kind = cfg.get("kind")
    results = []
    payload = {"task": "bound", "kind": kind, "seed": seed}

    if kind in ("moment", "contraction", "lowrank"):
        stats = _stats_from_config(cfg)
        if kind == "contraction":
            thresholds = {"deviation-tail": _float_list(cfg, "t")}
        else:
            thresholds = {"growth-tail": _float_list(cfg, "tail_growth_t"),
                          "deviation-tail": _float_list(cfg, "tail_concentration_t")}
        results = evaluate_kind(kind, stats, thresholds, p=float(cfg.get("p", 2.0)),
                                q=float(cfg.get("q", 2.0)), refine=bool(cfg.get("refine", False)))
        if not results:
            raise InvalidInputError(f"the factor statistics meet the needs of no {kind} bound")
    elif kind == "perturbation":
        d = int(cfg["d"])
        if "b" in cfg or "n" in cfg:
            # scenario form: n steps of radius b around a mean drift mu
            n = int(cfg["n"])
            if n < 1:
                raise InvalidParameterError("n must be positive")
            b = float(cfg["b"])
            xi = float(cfg.get("mu", 0.0))
            v = b * b / n
            payload["scenario"] = {"d": d, "n": n, "b": b, "mu": xi, "v": v}
        else:
            xi = float(cfg["xi"])
            v = float(cfg["v"])
        stats = PerturbationStats(xi, v, d)
        results = evaluate_kind(kind, stats, {
            "growth-tail": [1.0 + s for s in _float_list(cfg, "s")],
            "deviation-tail": _float_list(cfg, "t")})
    elif kind == "scenario-lt":
        sc = ScenarioLT(T=float(cfg["T"]), L=float(cfg["L"]), n=int(cfg["n"]),
                        d=int(cfg["d"]), delta=float(cfg.get("delta", 0.01)))
        results.extend(scenario_lt_bounds(sc))
    elif kind == "inverse":
        entries = cfg.get("factors")
        if not entries:
            raise InvalidInputError("inverse config needs 'factors' with xi and sigma")
        xis, sigmas = [], []
        for entry in entries:
            count = factor_count(entry)
            xis.extend([float(entry["xi"])] * count)
            sigmas.extend([float(entry["sigma"])] * count)
        xi_bar, v_bar = inverse_perturbation_stats(xis, sigmas)
        d = int(cfg["d"])
        payload["inverse_stats"] = {"xi_bar": xi_bar, "v_bar": v_bar}
        results = evaluate_kind(kind, PerturbationStats(xi_bar, v_bar, d),
                                {"deviation-tail": _float_list(cfg, "t")})
    elif kind == "scalar":
        pair = scalar_reference_bounds(float(cfg["mu"]), float(cfg["b"]), int(cfg["n"]),
                                       s=cfg.get("s_value"), t=cfg.get("t_value"))
        results.extend(v for v in pair.values() if v is not None)
    else:
        raise InvalidInputError(
            "bound config 'kind' must be one of: moment, perturbation, "
            "scenario-lt, inverse, contraction, lowrank, scalar")

    payload["results"] = [r.to_json() for r in results]
    conditional = [r for r in results if r.conditions]
    code = EXIT_OK
    if conditional and all(not r.conditions_met for r in conditional):
        code = EXIT_CONDITIONS
    return payload, code


def run_simulate(cfg: dict, seed: int, trials_override=None):
    spec = spec_from_config(cfg.get("spec", cfg))
    trials = int(trials_override if trials_override is not None else cfg.get("trials", 0))
    p = float(cfg.get("p", 2.0))
    q = float(cfg.get("q", 2.0))
    tg = _float_list(cfg, "thresholds_growth")
    td = _float_list(cfg, "thresholds_deviation")

    if trials == 0:
        report = enumerate_product(spec, p, q, tg, td)
        payload = {
            "task": "simulate",
            "source": "enumeration",
            "outcomes": report.outcomes,
            "p": report.p,
            "q": report.q,
            "mean": matrix_to_json(report.mean),
            "growth_mean": report.growth_mean,
            "deviation_mean": report.deviation_mean,
            "growth_moment": report.growth_moment,
            "deviation_moment": report.deviation_moment,
            "spectral_radius_mean": report.spectral_radius_mean,
            "tail_growth": {format_float(k): v for k, v in report.tail_growth.items()},
            "tail_deviation": {format_float(k): v for k, v in report.tail_deviation.items()},
            "reference": report.reference,
        }
        return payload, EXIT_OK

    estimates, tails, spectral, excluded = summarize_simulation(spec, trials, seed, p, q, tg, td)
    wanted = cfg.get("quantities")
    if wanted is not None:
        unknown = set(wanted) - set(ESTIMATE_NAMES)
        if unknown:
            raise InvalidInputError(f"unknown quantities: {sorted(unknown)} "
                                    f"(known: {', '.join(ESTIMATE_NAMES)})")
        estimates = {k: v for k, v in estimates.items() if k in wanted}
    payload = {
        "task": "simulate",
        "source": "monte-carlo",
        "trials": trials,
        "seed": seed,
        "excluded": len(excluded),
        "estimates": {k: v.to_json() for k, v in sorted(estimates.items())},
        "tails": [t.to_json() for t in tails],
    }
    if cfg.get("per_trial", False):
        payload["per_trial_spectral_norms"] = [float(x) for x in spectral]
    return payload, EXIT_OK


def run_verify(cfg: dict, seed: int):
    reports, ok = default_suite(seed, deep=bool(cfg.get("deep", False)))
    payload = {
        "task": "verify",
        "ok": ok,
        "seed": seed,
        "reports": [dict(rep.to_json(), negative_control=expect)
                    for rep, expect in reports],
    }
    summary = []
    for rep, expect in reports:
        status = "ok" if (rep.violations > 0) == expect else "FAIL"
        tag = " (negative control)" if expect else ""
        summary.append(f"{status:4s} {rep.name}{tag}: {rep.instances} instances, "
                       f"{rep.violations} violations, worst margin {rep.worst_margin:.3g}")
    print("\n".join(summary), file=sys.stderr)
    return payload, (EXIT_OK if ok else EXIT_VERIFY)


def run_compare(cfg: dict, seed: int, trials_override=None):
    spec = spec_from_config(cfg.get("spec", cfg))
    trials = int(trials_override if trials_override is not None else cfg.get("trials", 0))
    rows, meta = comparison_rows(
        spec,
        p=float(cfg.get("p", 2.0)),
        q=float(cfg.get("q", 2.0)),
        trials=trials,
        seed=seed,
        bounds=cfg.get("bounds"),
        thresholds_growth=_float_list(cfg, "thresholds_growth"),
        thresholds_deviation=_float_list(cfg, "thresholds_deviation"),
        mc_fallback_trials=cfg.get("mc_fallback_trials", 4096),
    )
    payload = {"task": "compare", "meta": meta, "rows": [r.to_json() for r in rows]}
    code = EXIT_CONDITIONS if rows and all(r.skipped for r in rows) else EXIT_OK
    return payload, code


# ---------------------------------------------------------------------------
# entry point

@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="matprod",
        description="Growth and concentration bounds for products of random matrices: "
                    "evaluate bounds, simulate products, verify inequalities, and "
                    "compare bounds with exact or Monte Carlo truth.",
        epilog=f"Shipped presets: {', '.join(_available_presets()) or 'none'}. "
               f"Default seed: {DEFAULT_SEED}.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("bound", "evaluate closed-form bounds from a config"),
                       ("simulate", "Monte Carlo or exact enumeration of a product"),
                       ("verify", "run the inequality certification suite"),
                       ("compare", "join empirical values with their bounds")):
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", required=(name != "verify"),
                       help="config file path or preset name")
        p.add_argument("--seed", type=int, default=None,
                       help=f"master seed (default: config value or {DEFAULT_SEED})")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--trials", type=int, default=None,
                       help="override the config trial count")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    out_path = None
    fmt = "json"
    try:
        args = parser.parse_args(argv)
        out_path = args.out
        fmt = args.format
        cfg = _load_config(args.config) if args.config else {}
        seed = args.seed if args.seed is not None else int(cfg.get("seed", DEFAULT_SEED))
        if seed < 0:
            raise InvalidInputError("seed must be nonnegative")
        if args.command == "bound":
            payload, code = run_bound(cfg, seed)
        elif args.command == "simulate":
            payload, code = run_simulate(cfg, seed, args.trials)
        elif args.command == "verify":
            payload, code = run_verify(cfg, seed)
        else:
            payload, code = run_compare(cfg, seed, args.trials)
    except _UsageError as exc:
        _emit_error("usage", str(exc), out_path)
        return EXIT_USAGE
    except NothingToCheckError as exc:
        _emit_error(exc.code, str(exc), out_path)
        return EXIT_CONDITIONS
    except MatprodError as exc:
        _emit_error(exc.code, str(exc), out_path)
        return EXIT_USAGE
    except OSError as exc:
        _emit_error("io", str(exc), out_path)
        return EXIT_USAGE
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # a config field missing, of the wrong type, or an integer past float range
        message = f"config missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        _emit_error("invalid-input", message, out_path)
        return EXIT_USAGE

    try:
        text = _dump_json(payload) if fmt == "json" else _payload_to_csv(payload)
        _emit(text, out_path)
    except (MatprodError, OSError) as exc:
        code_name = exc.code if isinstance(exc, MatprodError) else "io"
        _emit_error(code_name, str(exc), None)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
