"""Tracing for the per-layer run.

install() wraps every public function of each icogate layer in every
icogate module namespace that holds it (so exact_synthesize is wrapped
in icosian, diagonal, general and cli alike), and counts GoldenInt
products.  Each wrapped call records a span (name, start, end, parent
span, target id); a generator's work is recorded as one span per
next().  Spans, call counts, exception counts and a few outcome
counters stay in memory; uninstall() puts the original functions back,
write() dumps the spans, and layer_metrics() derives the per-layer
numbers from them.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import pkgutil
from collections import Counter
from time import perf_counter

LAYERS = ("golden", "gaussgolden", "intfactor", "sots", "icosian",
          "unitary", "lattice", "goldengrid", "diagonal", "general")


def _public_functions(module):
    """Module-level public callables defined in the module itself."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type):
            continue
        if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent, target)
        self.stack = []
        self.target = -1
        self.calls = Counter()   # name -> calls (generators: creations)
        self.yields = Counter()  # generator name -> items yielded
        self.raised = Counter()  # (name, exception class) -> count
        self.observed = Counter()
        self.mul_calls = 0
        self._patches = []

    # -- spans --

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start):
        end = perf_counter()
        self.stack.pop()
        self.spans[sid] = (name, start, end, parent, self.target)

    def _wrap_function(self, name, fn, observe):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            sid, parent = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(sid, parent, name, start)
                tracer.raised[name, type(exc)] += 1
                raise
            tracer._close(sid, parent, name, start)
            if observe is not None:
                observe(tracer.observed, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                sid, parent = tracer._open()
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    tracer._close(sid, parent, name, start)
                    return
                except BaseException as exc:
                    tracer._close(sid, parent, name, start)
                    tracer.raised[name, type(exc)] += 1
                    raise
                tracer._close(sid, parent, name, start)
                tracer.yields[name] += 1
                yield item

        return wrapper

    # -- patching --

    def install(self):
        modules = [importlib.import_module(f"icogate.{info.name}")
                   for info in pkgutil.iter_modules(
                       importlib.import_module("icogate").__path__)]
        for layer in LAYERS:
            module = importlib.import_module(f"icogate.{layer}")
            for fname, fn in _public_functions(module).items():
                name = f"{layer}.{fname}"
                if inspect.isgeneratorfunction(fn):
                    wrapped = self._wrap_generator(name, fn)
                else:
                    wrapped = self._wrap_function(name, fn, OBSERVERS.get(name))
                for ns in modules:
                    if vars(ns).get(fname) is fn:
                        self._patches.append((ns, fname, fn))
                        setattr(ns, fname, wrapped)
        golden_int = importlib.import_module("icogate.golden").GoldenInt
        mul = golden_int.__mul__
        tracer = self

        def counted_mul(a, b):
            tracer.mul_calls += 1
            return mul(a, b)

        for attr in ("__mul__", "__rmul__"):
            self._patches.append((golden_int, attr, vars(golden_int)[attr]))
            setattr(golden_int, attr, counted_mul)

    def uninstall(self):
        while self._patches:
            ns, name, original = self._patches.pop()
            setattr(ns, name, original)

    # -- output --

    def write(self, path):
        """Gzipped JSON lines, one per span: id, name, start, end, parent
        span id (-1 for none), target index (times in seconds from the
        first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, (name, start, end, parent, target) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, round(start - t0, 9),
                                     round(end - t0, 9), parent, target]))
                fh.write("\n")

    def layer_metrics(self, errors) -> dict:
        """Per-layer metrics from the spans and counters; errors is the
        icogate.errors module (exception outcomes are matched by class)."""
        total = Counter()      # name -> summed span time
        self_time = Counter()  # layer -> span time minus child span time
        child = [0.0] * len(self.spans)
        outer_calls = 0
        for sid in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _ = self.spans[sid]
            dur = end - start
            total[name] += dur
            self_time[name.split(".")[0]] += dur - child[sid]
            if parent >= 0:
                child[parent] += dur
                if (name == "diagonal.synth_diagonal"
                        and self.spans[parent][0] == "general.synth_general"):
                    outer_calls += 1

        def raised(name, cls):
            return sum(n for (fn, exc), n in self.raised.items()
                       if fn == name and issubclass(exc, cls))

        def ratio(num, den):
            return num / den if den else 0.0

        obs = self.observed
        x1 = self.yields["diagonal.solve_x1"]
        norms = self.yields["general.candidate_norms"]
        sots_calls = self.calls["sots.sots_exact"]
        not_rep = raised("sots.sots_exact", errors.NotRepresentable)
        abandoned = raised("sots.sots_exact", errors.Abandoned)
        sots_failed = raised("sots.sots_exact", Exception)
        factors = self.calls["golden.factor"]
        exact_calls = self.calls["icosian.exact_synthesize"]
        exact_failures = raised("icosian.exact_synthesize", errors.NotInGroup)
        m = {
            "diagonal.shells": self.calls["diagonal.solve_x1"],
            "diagonal.x1_candidates": x1,
            "diagonal.x0_pairs": obs["x0_pairs"],
            "diagonal.pair_yield": ratio(obs["x0_pairs"], x1),
            "diagonal.solve_x1_s": total["diagonal.solve_x1"],
            "diagonal.solve_x0_s": total["diagonal.solve_x0"],
            "goldengrid.regions": self.calls["goldengrid.enumerate_region"],
            "goldengrid.points": obs["grid_points"],
            "lattice.calls": sum(n for name, n in self.calls.items()
                                 if name.startswith("lattice.")),
            "general.norm_candidates": norms,
            "general.central_built": obs["central_built"],
            "general.central_yield": ratio(obs["central_built"], norms),
            "general.tuning_rejected": raised("unitary.tune_diagonals",
                                              errors.HypothesisViolation),
            "general.outer_calls": outer_calls,
            "sots.calls": sots_calls,
            "sots.representable": sots_calls - sots_failed,
            "sots.not_representable": not_rep,
            "sots.abandoned": abandoned,
            "sots.yield": ratio(sots_calls - sots_failed, sots_calls),
            "golden.factor_calls": factors,
            "golden.factor_s": total["golden.factor"],
            "golden.norm_bits_mean": ratio(obs["norm_bits"], factors),
            "golden.mul_calls": self.mul_calls,
            "intfactor.factor_int_calls": self.calls["intfactor.factor_int"],
            "intfactor.factor_int_s": total["intfactor.factor_int"],
            "gaussgolden.gcd_ne_calls": self.calls["gaussgolden.gcd_ne"],
            "gaussgolden.gcd_ne_s": total["gaussgolden.gcd_ne"],
            "icosian.exact_calls": exact_calls,
            "icosian.exact_failures": exact_failures,
            "icosian.taus_peeled": obs["taus_peeled"],
            "icosian.exact_s": total["icosian.exact_synthesize"],
            "icosian.s_per_tau": ratio(total["icosian.exact_synthesize"],
                                       obs["taus_peeled"]),
            "unitary.distance_calls": self.calls["unitary.distance"],
            "unitary.distance_s": total["unitary.distance"],
            "unitary.tune_calls": self.calls["unitary.tune_diagonals"],
            "unitary.tune_s": total["unitary.tune_diagonals"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_time[layer]
        m["trace.spans"] = len(self.spans)
        return {name: (value, unit_of(name)) for name, value in m.items()}


def unit_of(name: str) -> str:
    if name.endswith("s_per_tau"):
        return "s/tau"
    if name.endswith("_s"):
        return "s"
    if name.endswith("yield"):
        return "ratio"
    if name.endswith("_mean"):
        return "bits"
    return "count"


def _count_pairs(obs, args, result):
    obs["x0_pairs"] += len(result)


def _count_points(obs, args, result):
    obs["grid_points"] += len(result)


def _count_central(obs, args, result):
    obs["central_built"] += result is not None


def _count_norm_bits(obs, args, result):
    obs["norm_bits"] += abs(args[0].norm()).bit_length()


def _count_taus(obs, args, result):
    obs["taus_peeled"] += result.tau_count


OBSERVERS = {
    "diagonal.solve_x0": _count_pairs,
    "goldengrid.enumerate_region": _count_points,
    "general.build_central": _count_central,
    "golden.factor": _count_norm_bits,
    "icosian.exact_synthesize": _count_taus,
}
