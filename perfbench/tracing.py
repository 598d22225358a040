"""Span tracing of the mzvff layers, installed from outside the package.

The tracer wraps the public functions of each package module, and the
exactalg methods the per-layer metrics name, at run time.  Nothing under
``src/`` changes.  A wrapper replaces the original wherever the package looks
the name up: as a module global (``cli`` binds ``render_rational`` at import,
``oracle.monic_irreducibles`` recurses through its own global), in the
verification registry, and on the class for methods.

A span records its name, start, end, parent span and request id.  Spans stay
in memory, in flat arrays, until the pass ends.  Counts are taken at the
wrapper from the sizes of arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array
from collections import Counter

LAYERS = (
    "cli", "verification", "polyring", "rational_field",
    "higher_genus", "fieldspec", "oracle", "exactalg",
)

# Helpers that run once per term or per coefficient: a span would cost more
# than the call, so their time stays in the caller's self time.
UNTRACED = frozenset({
    "exactalg.grlex_key", "exactalg.default_names", "exactalg.render_monomial",
    "exactalg.render_polynomial", "exactalg.render_factor",
    "polyring.y_exponent", "polyring.sum_label",
    "oracle.is_prime", "higher_genus.monomial_tower_exponent",
})

RENAMED = {
    "exactalg.render_rational": "exactalg.render",
    "exactalg.render_series": "exactalg.render",
}

METHODS = {
    ("exactalg", "LaurentPolynomial"): {
        "__init__": "poly_init", "__add__": "poly_add", "__mul__": "poly_mul",
        "divide_exact": "poly_divide_exact", "substitute_monomial": "poly_substitute",
    },
    ("exactalg", "FactoredRational"): {
        "__init__": "rat_init", "__add__": "rat_add", "__mul__": "rat_mul",
        "equal": "rat_equal", "reduce": "rat_reduce", "series": "rat_series",
        "substitute": "rat_substitute",
    },
    ("exactalg", "TruncatedSeries"): {"__init__": "series_init", "__eq__": "series_eq"},
    ("fieldspec", "FunctionFieldSpec"): {"__post_init__": "spec_init"},
}


def _count_poly_mul(counts, args, result):
    if hasattr(args[1], "terms"):
        counts["exactalg.poly_mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)
    counts["exactalg.poly_mul.out_terms"] += len(result.terms)


def _count_divide(counts, args, result):
    counts["exactalg.poly_divide_exact.exact"] += result is not None
    counts["exactalg.poly_divide_exact.dividend_terms"] += len(args[0].terms)


def _count_poly_init(counts, args, result):
    terms = args[2] if len(args) > 2 else None
    counts["exactalg.poly_init.terms_in"] += len(terms) if terms else 0


def _count_rat_add(counts, args, result):
    counts["exactalg.rat_add.out_terms"] += len(result.num.terms)


def _count_rat_series(counts, args, result):
    value, bound = args[0], args[1]
    counts["exactalg.rat_series.box_atom_cells"] += (bound + 1) ** value.arity * len(value.den)
    counts["exactalg.rat_series.out_coeffs"] += len(result.coefficients)


def _count_rat_reduce(counts, args, result):
    counts["exactalg.rat_reduce.atoms_cancelled"] += len(args[0].den) - len(result.den)


def _count_series_b(counts, args, result):
    depth, bound = args[1], args[2]
    counts["oracle.truncated_series_b.tuples"] += math.comb(bound + depth, depth)


def _count_series_enum(counts, args, result):
    counts["oracle.truncated_series_enum.tuples"] += int(sum(result.coefficients.values()))


def _count_check(counts, args, result):
    counts["verification.checks_run"] += 1
    counts["verification.checks_failed"] += not result.passed


COUNTERS = {
    "exactalg.poly_mul": _count_poly_mul,
    "exactalg.poly_divide_exact": _count_divide,
    "exactalg.poly_init": _count_poly_init,
    "exactalg.rat_add": _count_rat_add,
    "exactalg.rat_series": _count_rat_series,
    "exactalg.rat_reduce": _count_rat_reduce,
    "oracle.truncated_series_b": _count_series_b,
    "oracle.truncated_series_enum": _count_series_enum,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.request = -1
        self.request_attrs: dict[int, dict] = {}
        self.active = False
        self.counts: Counter = Counter()
        self._irreducibles = None
        self._cache_at_start = None

    # -- spans

    def _open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_request.append(self.request)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        name_id = self._name_id(name)
        count = _count_check if name.startswith("verification.check_") else COUNTERS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # One span per step, so the work a check does between yields is
            # attributed to it rather than to whoever consumes the generator.
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                steps = fn(*args, **kwargs)
                while True:
                    if not tracer.active:
                        yield from steps
                        return
                    index = tracer._open(name_id)
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    if count:
                        count(tracer.counts, args, item)
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count:
                count(tracer.counts, args, result)
            return result

        return wrapper

    # -- installation

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"mzvff.{layer}") for layer in LAYERS}
        package = [importlib.import_module("mzvff"), importlib.import_module("mzvff.bundled")]
        self._irreducibles = modules["oracle"].monic_irreducibles  # the lru_cache object
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in UNTRACED:
                    continue
                if not (inspect.isfunction(value) or hasattr(value, "cache_info")):
                    continue
                if value.__module__ != module.__name__:
                    continue
                wrappers[id(value)] = (value, self.wrap(value, RENAMED.get(name, name)))
        for module in list(modules.values()) + package:
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, wrapper)
        registry = modules["verification"].REGISTRY
        for check, fn in list(registry.items()):
            original, wrapper = wrappers.get(id(fn), (None, None))
            if original is fn:
                registry[check] = wrapper
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for method, short in methods.items():
                setattr(cls, method, self.wrap(vars(cls)[method], f"{layer}.{short}"))

    # -- recording

    def begin_request(self, request: int, attrs: dict) -> None:
        """Spans from now on belong to this request; its root span carries attrs."""
        self.request = request
        self.request_attrs[request] = attrs

    def start(self) -> None:
        self.active = True
        self._cache_at_start = self._irreducibles.cache_info()

    def stop(self) -> None:
        self.active = False

    def summary(self) -> dict:
        """Calls and self time per span name, counts, and the root spans."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        own = array("d", (e - s for s, e in zip(starts, ends)))
        for index, parent in enumerate(parents):
            if parent >= 0:
                own[parent] -= ends[index] - starts[index]
        calls: Counter = Counter()
        self_ms: Counter = Counter()
        roots = []
        for index, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            calls[name] += 1
            self_ms[name] += own[index] * 1000.0
            if parents[index] < 0:
                request = self.span_request[index]
                roots.append({"name": name, "request": request,
                              "ms": (ends[index] - starts[index]) * 1000.0,
                              **self.request_attrs.get(request, {})})
        info = self._irreducibles.cache_info()
        return {
            "spans": len(starts),
            "calls": dict(calls),
            "self_ms": dict(self_ms),
            "counts": dict(self.counts),
            "irreducible_hits": info.hits - self._cache_at_start.hits,
            "irreducible_misses": info.misses - self._cache_at_start.misses,
            "roots": roots,
        }
