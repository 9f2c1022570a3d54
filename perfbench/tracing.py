"""Spans around the calls into each layer of cutproject, from outside it.

``Tracer.install`` replaces every function defined in a layer module
with a timing wrapper, in each layer module that holds it (so names
imported from ``_scaled`` or ``patterns`` into other modules are
wrapped too), plus the public methods, ``__init__`` and
``__post_init__`` of the classes those modules define.  The classes of
``exactnum`` are left alone: their methods run millions of times per
round, and exactnum's cost is measured by the micro timings instead.

A span's self time is its duration minus the durations of the spans it
called; per-layer self times are summed on the fly, so the trace keeps
one number per layer and two per function, not one record per call.
Counts are taken at the same boundaries.  ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("exactnum", "_scaled", "patterns", "discrepancy", "acceptance", "criteria", "bdmatch")

# The functions the per-layer metrics are meant to cover.  One that a later
# version of the program no longer has is reported, not fatal.
EXPECTED = {
    "exactnum": ("fractional_part", "decompose_Z_plus_Zxi", "in_Z_plus_Zxi", "parse_xi", "parse_xireal"),
    "_scaled": (
        "scale_system", "find_singular", "collect_hits", "count_hits", "collect_colored",
        "scan_chunk", "scan_chunk_args", "compare_pairs", "unscale_pair",
    ),
    "patterns": ("orbit_hits", "colored_hits", "strip_points", "local_discrepancy", "PointPattern"),
    "discrepancy": ("profile", "disc", "cochain_discrepancy", "DiscrepancyProfile"),
    "acceptance": ("acceptance_domain", "indicator_hits", "pattern_density"),
    "criteria": ("kesten_condition", "oren_condition", "boundary_classes", "bd_verdict"),
    "bdmatch": ("build_witness", "MatchingWitness"),
}


def _hits(tr: "Tracer", args, kwargs, result) -> None:
    k_min = kwargs.get("k_min", args[1] if len(args) > 1 else 0)
    k_max = kwargs.get("k_max", args[2] if len(args) > 2 else -1)
    tr.counts["patterns.k_requested"] += max(0, k_max - k_min + 1)
    tr.counts["patterns.hits"] += len(result)


def _samples(tr: "Tracer", args, kwargs, result) -> None:
    tr.counts["discrepancy.samples"] += len(result.samples)


HOOKS = {
    "patterns.orbit_hits": _hits,
    "patterns.colored_hits": _hits,
    "patterns.strip_points": _hits,
    "discrepancy.profile": _samples,
}


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str):
        hook = HOOKS.get(key)
        stack = self._stack
        self_s, calls, total_s = self.self_s, self.calls, self.total_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self_s[layer] += dt - child
                calls[key] += 1
                total_s[key] += dt
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return span

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        self.missing = []
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"cutproject.{layer}")
            except ImportError:
                self.missing.append(f"cutproject.{layer}")
        for layer, names in EXPECTED.items():
            mod = modules.get(layer)
            self.missing += [f"cutproject.{layer}.{n}" for n in names if mod is not None and not hasattr(mod, n)]
        by_module = {m.__name__: layer for layer, m in modules.items()}
        wrappers: dict[int, object] = {}
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                origin = by_module.get(getattr(obj, "__module__", None))
                if origin is None or not callable(obj):
                    continue
                if isinstance(obj, type):
                    if mod.__name__ == obj.__module__ and origin != "exactnum":
                        self._wrap_class(obj, origin)
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, f"{origin}.{name}", origin)
                self._set(mod, name, wrappers[id(obj)])

    def _wrap_class(self, cls: type, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in ("__init__", "__post_init__"):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                self._set(cls, name, self._wrap(attr, key, layer))
            elif isinstance(attr, (classmethod, staticmethod)):
                self._set(cls, name, type(attr)(self._wrap(attr.__func__, key, layer)))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results -------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        return {layer: self.self_s.get(layer, 0.0) for layer in LAYERS}

    def functions(self) -> dict[str, dict[str, float]]:
        return {
            k: {"calls": self.calls[k], "total_s": self.total_s[k]}
            for k in sorted(self.calls, key=lambda k: -self.total_s[k])
        }
