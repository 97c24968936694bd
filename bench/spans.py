"""Outside-in span tracer for matprod, installed from the benchmark's side.

``Tracer.install`` rebinds every public function of the span layers in every
matprod module namespace that holds it (``from .x import f`` copies the name),
and wraps the hot leaves: ``streams.substream``, ``FactorEnsemble.draw`` and the
``numpy.linalg`` entry points ``svd``, ``eigvals`` and ``cond``. No program
file changes.

A span records its name, start, end, parent span and job id. Leaves are not
spans: each call adds to a count, a time and a matrix count on the span that
was open when it ran. A span's self time is its duration minus its child
spans and the leaves it directly holds. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

SPAN_LAYERS = ("cli", "ensembles", "simulate", "bounds", "verify")
LEAF_FUNCTIONS = ("streams.substream",)
LINALG_LEAVES = ("svd", "eigvals", "cond")
BUILDERS = ("ensembles.ensemble_from_config", "ensembles.make_bounded_perturbation",
            "ensembles.make_rademacher_rank_one", "ensembles.make_random_projector_contraction")
ESTIMATORS = ("simulate.estimate_norm_statistics", "simulate.tail_frequencies")
COMPARE = ("verify.comparison_rows", "verify.check_bound_dominance",
           "verify.projected_product_stats")

# span record fields
NAME, START, END, PARENT, JOB, LEAF_TIME, LEAVES, INFO = range(8)


def _matrices(args, kwargs):
    a = args[0] if args else next(iter(kwargs.values()))
    shape = getattr(a, "shape", ())
    count = 1
    for n in shape[:-2]:
        count *= n
    return count


def _simulate_info(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    steps = result.trials * spec.n
    held = sum(z.nbytes for z in result.z) + sum(f.nbytes for f in (result.f or ()))
    return {"trials": result.trials, "steps": steps, "flops": 2 * spec.d**2 * spec.r * steps,
            "bytes": held, "included": len(result.z)}


class Tracer:
    def __init__(self):
        self.spans = []
        self.root_leaves = defaultdict(lambda: [0, 0.0, 0])
        self.job = None
        self._open = []        # indices of open spans
        self._leaf_nest = []   # time of nested leaves, per open leaf call
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name, info=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.job, 0.0, None, None]
            open_.append(len(spans))
            spans.append(record)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                open_.pop()
            if info is not None:
                record[INFO] = info(args, kwargs, result)
            elif type(result).__name__ == "CheckReport":
                record[INFO] = {"instances": result.instances, "violations": result.violations}
            return result

        return wrapper

    def _leaf(self, fn, name, size=None):
        spans, open_, nest = self.spans, self._open, self._leaf_nest

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nest.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = nest.pop()
                if open_:
                    record = spans[open_[-1]]
                    if record[LEAVES] is None:
                        record[LEAVES] = defaultdict(lambda: [0, 0.0, 0])
                    agg = record[LEAVES][name]
                    if not nest:
                        record[LEAF_TIME] += elapsed
                else:
                    agg = self.root_leaves[name]
                if nest:
                    nest[-1] += elapsed
                agg[0] += 1
                agg[1] += elapsed - inner
                agg[2] += size(args, kwargs) if size else 1

        return wrapper

    # -- install -----------------------------------------------------------

    def _rebind(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        import numpy

        import matprod
        import matprod.ensembles

        wrappers = {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "matprod" or n.startswith("matprod."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if not home.startswith("matprod."):
                    continue
                name = f"{home.split('.', 1)[1]}.{obj.__name__}"
                if obj not in wrappers:
                    if name in LEAF_FUNCTIONS:
                        wrappers[obj] = self._leaf(obj, name)
                    elif name.split(".")[0] in SPAN_LAYERS:
                        info = _simulate_info if name == "simulate.simulate_product" else (
                            (lambda a, k, r: {"outcomes": r.outcomes})
                            if name == "simulate.enumerate_product" else None)
                        wrappers[obj] = self._span(obj, name, info)
                    else:
                        continue
                self._rebind(module, attr, wrappers[obj])
        cls = matprod.ensembles.FactorEnsemble
        self._rebind(cls, "draw", self._leaf(cls.draw, "ensembles.FactorEnsemble.draw"))
        for attr in LINALG_LEAVES:
            self._rebind(numpy.linalg, attr,
                         self._leaf(getattr(numpy.linalg, attr), f"numpy.linalg.{attr}",
                                    _matrices))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record[PARENT] >= 0:
                covered[record[PARENT]] += record[END] - record[START]
        return [r[END] - r[START] - covered[i] - r[LEAF_TIME] for i, r in enumerate(self.spans)]

    def leaf_totals(self):
        totals = defaultdict(lambda: [0, 0.0, 0])
        buckets = [r[LEAVES] for r in self.spans if r[LEAVES]] + [self.root_leaves]
        for bucket in buckets:
            for name, (count, seconds, matrices) in bucket.items():
                agg = totals[name]
                agg[0] += count
                agg[1] += seconds
                agg[2] += matrices
        return totals

    def layer_metrics(self, jobs: int, scale: float = 1.0) -> dict:
        """Per-layer metrics over the traced jobs; counts and times are per job.

        Every time is multiplied by `scale` (see speed.py).
        """
        selfs = [own * scale for own in self.self_times()]
        by_name = defaultdict(float)
        by_layer = defaultdict(float)
        calls = defaultdict(int)
        info = defaultdict(float)
        build = 0.0
        for record, own in zip(self.spans, selfs):
            name = record[NAME]
            layer = name.split(".")[0]
            by_name[name] += own
            by_layer[layer] += own
            calls[layer] += 1
            for key, value in (record[INFO] or {}).items():
                info[f"{name}.{key}"] += value
            parent = self.spans[record[PARENT]][NAME] if record[PARENT] >= 0 else ""
            if name in BUILDERS and not parent.startswith("ensembles."):
                build += (record[END] - record[START]) * scale
        leaves = self.leaf_totals()
        for agg in leaves.values():
            agg[1] *= scale
        svd, eig, cond = (leaves[f"numpy.linalg.{a}"] for a in LINALG_LEAVES)
        trials = info["simulate.simulate_product.trials"]
        outcomes = info["simulate.enumerate_product.outcomes"]
        mc_self = by_name["simulate.simulate_product"]
        flops = info["simulate.simulate_product.flops"]
        linalg_calls = svd[0] + eig[0] + cond[0]
        verify_self = by_layer["verify"]
        compare_self = sum(by_name[n] for n in COMPARE)
        instances = sum(v for k, v in info.items() if k.endswith(".instances"))
        violations = sum(v for k, v in info.items() if k.endswith(".violations"))
        total = {
            "cli.self_s": by_layer["cli"],
            "streams.calls": leaves["streams.substream"][0],
            "streams.self_s": leaves["streams.substream"][1],
            "ensembles.draws": leaves["ensembles.FactorEnsemble.draw"][0],
            "ensembles.draw_s": leaves["ensembles.FactorEnsemble.draw"][1],
            "ensembles.build_s": build,
            "simulate.mc.trials": trials,
            "simulate.mc.factor_steps": info["simulate.simulate_product.steps"],
            "simulate.mc.self_s": mc_self,
            "simulate.mc.dense_flops": flops,
            "simulate.mc.result_bytes": info["simulate.simulate_product.bytes"],
            "simulate.enum.outcomes": outcomes,
            "simulate.enum.self_s": by_name["simulate.enumerate_product"],
            "simulate.estimate.self_s": sum(by_name[n] for n in ESTIMATORS),
            "schatten.svd.calls": svd[0],
            "schatten.svd.matrices": svd[2],
            "schatten.svd_s": svd[1],
            "schatten.eigvals.calls": eig[0],
            "schatten.eigvals.matrices": eig[2],
            "schatten.eigvals_s": eig[1],
            "schatten.cond.calls": cond[0],
            "schatten.cond_s": cond[1],
            "bounds.calls": calls["bounds"],
            "bounds.self_s": by_layer["bounds"],
            "verify.compare.self_s": compare_self,
            "verify.checks.self_s": verify_self - compare_self,
            "verify.instances": instances,
            "verify.violations": violations,
            "trace.spans": len(self.spans),
        }
        out = {k: v / jobs for k, v in total.items()}
        # ratios are taken over the whole traced section; 0 where the base is 0
        out["simulate.mc.gflop_s"] = flops / mc_self / 1e9 if mc_self > 0 else 0.0
        out["simulate.mc.included_ratio"] = (
            info["simulate.simulate_product.included"] / trials if trials else 0.0)
        out["schatten.svd_per_product"] = svd[2] / (trials + outcomes) if trials + outcomes else 0.0
        out["schatten.matrices_per_call"] = (
            (svd[2] + eig[2] + cond[2]) / linalg_calls if linalg_calls else 0.0)
        return out

    def dump(self, path):
        names = sorted({r[NAME] for r in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[r[NAME]], round(r[START], 7), round(r[END], 7), r[PARENT], r[JOB],
                 {k: v for k, v in (r[LEAVES] or {}).items()}] for r in self.spans]
        path.write_text(json.dumps({"names": names, "fields": [
            "name", "start", "end", "parent", "job", "leaves: name -> [count, s, matrices]"],
            "spans": rows}))
