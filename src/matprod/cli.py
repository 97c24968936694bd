"""Command-line interface: bound evaluation, simulation, verification, comparison.

Configs are JSON files (or shipped preset names); outputs are deterministic
JSON (sorted keys, compact separators, trailing newline) or CSV with 17
significant digits. Exit status: 0 success, 1 usage or input error,
2 nothing checkable / every conditional bound's condition violated,
3 verification failure.
"""

from __future__ import annotations

import dataclasses
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
from .ensembles import (
    FactorEnsemble,
    FactorStats,
    make_bounded_perturbation,
    make_rademacher_rank_one,
    make_random_projector_contraction,
)
from .errors import InvalidInputError, InvalidParameterError, MatprodError, NothingToCheckError
from .schatten import format_float, matrix_from_json, matrix_to_json
from .simulate import ESTIMATE_FIELDS, ProductSpec, enumerate_product, summarize_simulation
from .streams import DEFAULT_SEED
from .verify import comparison_rows, default_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONDITIONS = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    pass


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

    header = list(dict.fromkeys(key for row in rows for key in row))
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
        keys = ("name", "instances", "violations", "worst_margin", "tolerance", "seed",
                "passed", "negative_control")
        return _rows_to_csv([{k: rep[k] for k in keys} for rep in payload["reports"]])
    if task == "simulate":
        rows = [dict(record="estimate", **est) for est in payload.get("estimates", {}).values()]
        rows += [dict(record="tail", **est) for est in payload.get("tails", [])]
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
# the config format: a field table per config object, name -> (parser, default)

_REQUIRED = dataclasses.MISSING  # the default of a field that must be given


def _read(obj, what: str, fields: dict) -> dict:
    """The values of config object ``obj``, each given one parsed and each absent one
    its default. A key the table does not name, or a missing required field, is refused."""
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{what} must be an object")
    unknown = [key for key in obj if key not in fields]
    if unknown:
        raise InvalidInputError(f"unknown {what} key(s) {', '.join(map(repr, unknown))} "
                                f"(fields: {', '.join(fields)})")
    values = {}
    for name, (parse, default) in fields.items():
        if name not in obj:
            if default is _REQUIRED:
                raise InvalidInputError(f"{what} needs field {name!r}")
            values[name] = default
            continue
        try:
            values[name] = parse(obj[name])
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"{what} field {name!r}: {exc}") from None
    return values


def _read_kind(obj, what: str, kinds: dict):
    """The kind of a config object that names one, and its values by that kind's table."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise InvalidInputError(f"{what} 'kind' must be one of: {', '.join(kinds)}")
    return kind, _read(obj, f"{kind} {what}", kinds[kind])


def _raw(value):
    return value


def _int(value) -> int:
    # int() would read true as 1 and cut 2.9 to 2
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


def _optional(parse):
    return lambda value: None if value is None else parse(value)


def _floats(value) -> list:
    if not isinstance(value, list):
        raise ValueError("not a list of numbers")
    return [float(x) for x in value]


def _names(field: str, what: str):
    def parse(value):
        if value is None or isinstance(value, list) and all(isinstance(x, str) for x in value):
            return value
        raise InvalidInputError(f"{field!r} must be a list of {what}")
    return parse


def _z0(value):
    return value if value == "identity" else matrix_from_json(value)


def _factors(what: str, fields: dict, build):
    """The parser of a 'factors' list. An entry holds the fields of ``what`` and an
    optional positive 'count': ``count`` copies of the one object ``build`` makes."""
    fields = {**fields, "count": _COUNT}

    def parse(entries):
        if not isinstance(entries, list) or not entries:
            raise InvalidInputError(f"'factors' must be a nonempty list of {what} entries")
        factors = []
        for entry in entries:
            values = _read(entry, what, fields)
            count = values.pop("count")
            if count < 1:
                raise InvalidInputError("factor count must be positive")
            factors.extend([build(values)] * count)
        return factors
    return parse


def ensemble_from_config(obj) -> FactorEnsemble:
    """Build an ensemble from its JSON object form (kind discriminator)."""
    kind, f = _read_kind(obj, "ensemble", _ENSEMBLES)
    if kind == "bounded-perturbation":
        mean = np.zeros((f["dim"],) * 2) if f["mean"] is None else f["mean"]
        return make_bounded_perturbation(f["dim"], mean, f["radius"], f["n_scale"],
                                         f["support"])
    if kind == "rademacher-rank-one":
        return make_rademacher_rank_one(f["dim"])
    return make_random_projector_contraction(f["dim"], f["projector_kind"], f["rows"])


def _spec(f: dict) -> ProductSpec:
    z0 = np.eye(f["factors"][0].dim) if isinstance(f["z0"], str) else f["z0"]
    return ProductSpec(factors=tuple(f["factors"]), z0=z0, mode=f["mode"])


def spec_from_config(obj) -> ProductSpec:
    """Build a ProductSpec from its JSON object form."""
    return _spec(_read(obj, "product spec", _SPEC))


_KIND, _INT, _FLOAT = (_raw, _REQUIRED), (_int, _REQUIRED), (float, _REQUIRED)
_FLOATS, _COUNT, _MATRIX = (_floats, []), (_int, 1), (_optional(matrix_from_json), None)
_ENSEMBLES = {
    "bounded-perturbation": {"kind": _KIND, "dim": _INT, "mean": _MATRIX,
                             "radius": _FLOAT, "n_scale": _FLOAT, "support": (_raw, "two-point")},
    "rademacher-rank-one": {"kind": _KIND, "dim": _INT},
    "projector-contraction": {"kind": _KIND, "dim": _INT, "projector_kind": (_raw, "coordinate"),
                              "rows": _MATRIX},
}
_SPEC_FACTOR = {"ensemble": (ensemble_from_config, _REQUIRED)}
_SPEC = {"factors": (_factors("spec factor", _SPEC_FACTOR, lambda f: f["ensemble"]), _REQUIRED),
         "z0": (_z0, "identity"), "mode": (_raw, "independent")}
_FACTOR_STATS = {f.name: (_raw, f.default) for f in dataclasses.fields(FactorStats)}
_INVERSE_FACTOR = {"xi": _FLOAT, "sigma": _FLOAT}

# the fields of every top-level config, besides its command's own
_ROOT = {"task": (_raw, None), "seed": (_int, DEFAULT_SEED)}
_STATS = {**_ROOT, "kind": _KIND, "factors": (_factors(
              "factor statistics", _FACTOR_STATS, lambda f: FactorStats(**f)), _REQUIRED),
          "d": (_optional(_int), None), "z0": (_z0, "identity"),
          "projected_rank": (_optional(_int), None),
          "p": (float, 2.0), "q": (float, 2.0), "refine": (_bool, False)}
_TAILS = {"tail_growth_t": _FLOATS, "tail_concentration_t": _FLOATS}
_PERTURBATION = {**_ROOT, "kind": _KIND, "d": _INT, "s": _FLOATS, "t": _FLOATS}
_BOUND = {
    "moment": {**_STATS, **_TAILS},
    "perturbation": {**_PERTURBATION, "xi": _FLOAT, "v": _FLOAT},
    "scenario-lt": {**_ROOT, "kind": _KIND, "T": _FLOAT, "L": _FLOAT, "n": _INT, "d": _INT,
                    "delta": (float, 0.01)},
    "inverse": {**_ROOT, "kind": _KIND, "d": _INT, "t": _FLOATS, "factors": (_factors(
        "inverse factor", _INVERSE_FACTOR, lambda f: (f["xi"], f["sigma"])), _REQUIRED)},
    "contraction": {**_STATS, "t": _FLOATS},
    "lowrank": {**_STATS, **_TAILS},
    "scalar": {**_ROOT, "kind": _KIND, "mu": _FLOAT, "b": _FLOAT, "n": _INT,
               "s_value": (_optional(float), None), "t_value": (_optional(float), None)},
}
# perturbation given as n steps of radius b around a mean drift mu
_SCENARIO = {**_PERTURBATION, "n": _INT, "b": _FLOAT, "mu": (float, 0.0)}
_RUN = {**_ROOT, "spec": (spec_from_config, None), "trials": (_int, 0), "p": (float, 2.0),
        "q": (float, 2.0), "thresholds_growth": _FLOATS, "thresholds_deviation": _FLOATS}
_SIMULATE = {**_RUN, "quantities": (_names("quantities", "quantity names"), None),
             "per_trial": (_bool, False)}
_COMPARE = {**_RUN, "bounds": (_names("bounds", "display names"), None),
            "mc_fallback_trials": (_optional(_int), 4096)}


def _read_run(cfg: dict, what: str, fields: dict) -> dict:
    """The values of a simulate or compare config, its spec built. A config
    without 'spec' is its own spec, and takes the spec's fields besides its own."""
    if "spec" in cfg:
        return _read(cfg, what, fields)
    values = _read(cfg, what, {**fields, **_SPEC})
    values["spec"] = _spec(values)
    return values


def _seed(values: dict, flags: dict) -> int:
    seed = flags.get("seed", values["seed"])
    if seed < 0:
        raise InvalidInputError("seed must be nonnegative")
    return seed


def _product_stats(f: dict) -> ProductStats:
    if isinstance(f["z0"], str) and f["d"] is None:
        raise InvalidInputError("need 'd' when z0 is the identity")
    z0 = np.eye(f["d"]) if isinstance(f["z0"], str) else f["z0"]
    d = z0.shape[0] if f["d"] is None else f["d"]
    return ProductStats.from_factors(f["factors"], d, z0, projected_rank=f["projected_rank"])


# ---------------------------------------------------------------------------
# subcommands

def run_bound(cfg: dict, flags: dict):
    scenario = cfg.get("kind") == "perturbation" and ("b" in cfg or "n" in cfg)
    kind, f = _read_kind(cfg, "bound config",
                         dict(_BOUND, perturbation=_SCENARIO) if scenario else _BOUND)
    payload = {"task": "bound", "kind": kind, "seed": _seed(f, flags)}

    if kind in ("moment", "contraction", "lowrank"):
        thresholds = {"deviation-tail": f["t"]} if kind == "contraction" else {
            "growth-tail": f["tail_growth_t"], "deviation-tail": f["tail_concentration_t"]}
        results = evaluate_kind(kind, _product_stats(f), thresholds, p=f["p"], q=f["q"],
                                refine=f["refine"])
        if not results:
            raise InvalidInputError(f"the factor statistics meet the needs of no {kind} bound")
    elif kind == "perturbation":
        if scenario:
            n, b, xi = f["n"], f["b"], f["mu"]
            if n < 1:
                raise InvalidParameterError("n must be positive")
            v = b * b / n
            payload["scenario"] = {"d": f["d"], "n": n, "b": b, "mu": xi, "v": v}
        else:
            xi, v = f["xi"], f["v"]
        results = evaluate_kind(kind, PerturbationStats(xi, v, f["d"]), {
            "growth-tail": [1.0 + s for s in f["s"]], "deviation-tail": f["t"]})
    elif kind == "scenario-lt":
        results = scenario_lt_bounds(ScenarioLT(T=f["T"], L=f["L"], n=f["n"], d=f["d"],
                                                delta=f["delta"]))
    elif kind == "inverse":
        xi_bar, v_bar = inverse_perturbation_stats(*zip(*f["factors"]))
        payload["inverse_stats"] = {"xi_bar": xi_bar, "v_bar": v_bar}
        results = evaluate_kind(kind, PerturbationStats(xi_bar, v_bar, f["d"]),
                                {"deviation-tail": f["t"]})
    else:
        results = list(scalar_reference_bounds(f["mu"], f["b"], f["n"], s=f["s_value"],
                                               t=f["t_value"]).values())

    payload["results"] = [r.to_json() for r in results]
    failed = [f"{r.kind}: {c.name} not met, lhs {c.lhs:.6g}, rhs {c.rhs:.6g}"
              for r in results for c in r.conditions if not c.satisfied]
    if failed:
        print("\n".join(failed), file=sys.stderr)
    conditional = [r for r in results if r.conditions]
    code = EXIT_OK
    if conditional and all(not r.conditions_met for r in conditional):
        code = EXIT_CONDITIONS
    return payload, code


def run_simulate(cfg: dict, flags: dict):
    f = _read_run(cfg, "simulate config", _SIMULATE)
    spec, seed, p, q = f["spec"], _seed(f, flags), f["p"], f["q"]
    trials = flags.get("trials", f["trials"])
    tg, td = f["thresholds_growth"], f["thresholds_deviation"]

    if trials == 0:
        report = enumerate_product(spec, p, q, tg, td)
        # the key order is the CSV row order: task, source, then the report's fields
        payload = {
            "task": "simulate", "source": "enumeration", **vars(report),
            "mean": matrix_to_json(report.mean),
            "tail_growth": {format_float(k): v for k, v in report.tail_growth.items()},
            "tail_deviation": {format_float(k): v for k, v in report.tail_deviation.items()},
        }
        return payload, EXIT_OK

    estimates, tails, spectral, excluded = summarize_simulation(spec, trials, seed, p, q, tg, td)
    wanted = f["quantities"]
    if wanted is not None:
        unknown = set(wanted) - set(ESTIMATE_FIELDS)
        if unknown:
            raise InvalidInputError(f"unknown quantities: {sorted(unknown)} "
                                    f"(known: {', '.join(ESTIMATE_FIELDS)})")
        estimates = {k: v for k, v in estimates.items() if k in wanted}
    payload = {"task": "simulate", "source": "monte-carlo", "trials": trials, "seed": seed,
               "excluded": len(excluded),
               "estimates": {k: v.to_json() for k, v in sorted(estimates.items())},
               "tails": [t.to_json() for t in tails]}
    if f["per_trial"]:
        payload["per_trial_spectral_norms"] = [float(x) for x in spectral]
    return payload, EXIT_OK


def run_verify(cfg: dict, flags: dict):
    seed = _seed(_read(cfg, "verify config", _ROOT), flags)
    reports, ok = default_suite(seed)
    payload = {"task": "verify", "ok": ok, "seed": seed,
               "reports": [dict(r.to_json(), negative_control=e) for r, e in reports]}
    summary = []
    for rep, expect in reports:
        status = "ok" if (rep.violations > 0) == expect else "FAIL"
        tag = " (negative control)" if expect else ""
        summary.append(f"{status:4s} {rep.name}{tag}: {rep.instances} instances, "
                       f"{rep.violations} violations, worst margin {rep.worst_margin:.3g}")
    print("\n".join(summary), file=sys.stderr)
    return payload, (EXIT_OK if ok else EXIT_VERIFY)


def run_compare(cfg: dict, flags: dict):
    f = _read_run(cfg, "compare config", _COMPARE)
    rows, meta = comparison_rows(
        f["spec"], f["p"], f["q"], flags.get("trials", f["trials"]), _seed(f, flags),
        f["bounds"], f["thresholds_growth"], f["thresholds_deviation"], f["mc_fallback_trials"])
    payload = {"task": "compare", "meta": meta, "rows": [r.to_json() for r in rows]}
    code = EXIT_CONDITIONS if rows and all(r.skipped for r in rows) else EXIT_OK
    return payload, code



# ---------------------------------------------------------------------------
# entry point

_COMMANDS = ("bound", "simulate", "verify", "compare")


def _format_name(text: str) -> str:
    if text not in ("json", "csv"):
        raise ValueError(text)
    return text


# the five flags every command takes, each with the parser of its value
_FLAGS = {"--config": str, "--seed": int, "--trials": int, "--out": str,
          "--format": _format_name}

_USAGE = """\
usage: matprod {{bound,simulate,verify,compare}} --config <path-or-preset>
               [--seed <u64>] [--trials <n>] [--out <path>] [--format json|csv]

Growth and concentration bounds for products of random matrices: evaluate
bounds, simulate products, verify inequalities, and compare bounds with exact
or Monte Carlo truth.

commands:
  bound      evaluate closed-form bounds from a config
  simulate   Monte Carlo or exact enumeration of a product
  verify     run the inequality certification suite (no --config needed)
  compare    join empirical values with their bounds

flags, each as --name value or --name=value (the last repeat wins):
  --config   config file path or preset name
  --seed     master seed (default: config value or {seed})
  --trials   override the config trial count
  --out      output file (default: stdout)
  --format   json (default) or csv

Shipped presets: {presets}.
"""


def _parse_args(argv) -> tuple[str, dict]:
    """The command and the flag values of ``argv``: the command comes first,
    then ``--name value`` or ``--name=value`` pairs, and the last repeat of a
    flag wins. A flag that is not given is not in the dict; an empty value is
    refused."""
    if not argv or argv[0] not in _COMMANDS:
        raise _UsageError(f"the first argument must be a command: {', '.join(_COMMANDS)}")
    command, flags = argv[0], {}
    rest = iter(argv[1:])
    for arg in rest:
        name, eq, value = arg.partition("=")
        if name not in _FLAGS:
            raise _UsageError(f"unknown argument {arg!r} (flags: {', '.join(_FLAGS)})")
        if not eq:
            value = next(rest, "")
        if not value or not eq and value.startswith("--"):
            raise _UsageError(f"{name} needs a value")
        try:
            flags[name[2:]] = _FLAGS[name](value)
        except ValueError:
            raise _UsageError(f"invalid {name} value {value!r}") from None
    if "config" not in flags and command != "verify":
        raise _UsageError(f"{command} needs --config")
    return command, flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_USAGE.format(seed=DEFAULT_SEED,
                                       presets=", ".join(_available_presets()) or "none"))
        return EXIT_OK
    out_path = None
    fmt = "json"
    try:
        command, flags = _parse_args(argv)
        out_path = flags.get("out")
        fmt = flags.get("format", fmt)
        cfg = _load_config(flags["config"]) if "config" in flags else {}
        run = {"bound": run_bound, "simulate": run_simulate, "verify": run_verify,
               "compare": run_compare}[command]
        payload, code = run(cfg, flags)
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
    except (TypeError, ValueError, OverflowError) as exc:
        # a value that no field parser converts, such as a factor statistic, of the wrong type
        _emit_error("invalid-input", str(exc), out_path)
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
