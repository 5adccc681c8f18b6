"""In-process tracing of the wrtr package from outside it.

`Tracer.install()` replaces every public function, and every public
method of every public class, in the layer modules with a wrapper that
records a span: calls, total time and self time (total minus the time of
the spans it directly caused), plus how often each span name ran directly
under each other one. A few wrappers also look at arguments or results to
count work (solver iterations, tCG stop reasons, bytes written). Spans are
aggregated by name in memory, not kept one by one: a robust design makes
millions of them. Nothing in the package itself is edited.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import inspect
import os
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("scenario", "radar", "objectives", "manifold", "rtr", "rcg", "driver", "fileio", "cli")
# Dunder methods that do work per call (construction checks, tangent arithmetic).
TRACED_DUNDERS = ("__post_init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = Counter()  # (parent span, child span) -> calls
        self.counts = Counter()  # work counted from arguments and results
        self._stack = []  # open spans: [name, time of direct children]

    def wrap(self, name: str, fn, on_return=None):
        stack, calls, total_s, self_s, edges = self._stack, self.calls, self.total_s, self.self_s, self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                    edges[(parent[0], name)] += 1
            if on_return is not None:
                on_return(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "wrtr") -> None:
        """Wrap the layer modules of `package` for the rest of the process, rebinding every alias."""
        modules = [importlib.import_module(f"{package}.{m}") for m in LAYERS]
        replaced = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    replaced[obj] = self.wrap(name, obj, _hook(name))
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                    self._wrap_class(package, layer, obj)
        # Rebind `from .x import f` aliases in every module of the package.
        pkg = importlib.import_module(package)
        for mod in [pkg] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _wrap_class(self, package: str, layer: str, cls) -> None:
        names = [a for a in dir(cls) if not a.startswith("_")] + list(TRACED_DUNDERS)
        if not dataclasses.is_dataclass(cls):
            names.append("__init__")
        for attr in names:
            fn = inspect.getattr_static(cls, attr, None)
            if inspect.isfunction(fn) and fn.__module__.split(".")[0] == package:
                name = f"{layer}.{cls.__name__}.{attr}"
                setattr(cls, attr, self.wrap(name, fn, _hook(name)))

    # -- aggregation helpers -------------------------------------------------

    def sum_total(self, *names) -> float:
        return sum((self.total_s[n] for n in names), 0.0)

    def sum_self(self, *names) -> float:
        return sum((self.self_s[n] for n in names), 0.0)

    def names(self, prefix: str) -> list:
        return [n for n in self.calls if n.startswith(prefix)]

    def edge_calls(self, parent: str, child_suffix: str) -> int:
        return sum(c for (p, ch), c in self.edges.items() if p == parent and ch.endswith(child_suffix))


# -- counting hooks: (counts, args, kwargs, result) ------------------------


def _rtr_solve(counts, args, kwargs, result):
    trace = result[1]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    counts["rtr.iters"] += len(trace.iterations)
    counts["rtr.accepted"] += sum(1 for it in trace.iterations if it.accepted)
    counts["rtr.capped"] += int(not trace.converged and len(trace.iterations) >= cfg.max_iters)


def _rtr_tcg(counts, args, kwargs, result):
    counts[f"tcg.stop.{result[1].value}"] += 1


def _rcg_solve(counts, args, kwargs, result):
    counts["rcg.iters"] += len(result[1].iterations)


def _optimize(counts, args, kwargs, result):
    counts["driver.outer_iters"] += len(result.history)
    counts["driver.converged"] += int(result.converged)


def _monte_carlo(counts, args, kwargs, result):
    counts["driver.mc_trials"] += kwargs["n_trials"] if "n_trials" in kwargs else args[2]


def _bank_bytes(counts, args, kwargs, result):
    # Computed, not measured: the input vector read plus the (Nt, n) result written.
    counts["radar.bank.bytes"] += args[1].nbytes + result.nbytes


def _csv_bytes(counts, args, kwargs, result):
    # CSV artifacts only: they are byte-deterministic, report.json holds a timing.
    counts["fileio.write.bytes"] += os.path.getsize(args[0])


_HOOKS = {
    "rtr.solve": _rtr_solve,
    "rtr.tcg": _rtr_tcg,
    "rcg.solve_rcg": _rcg_solve,
    "driver.optimize": _optimize,
    "driver.monte_carlo_scr": _monte_carlo,
    "radar.ClutterBank.apply": _bank_bytes,
    "radar.ClutterBank.apply_adjoint": _bank_bytes,
}


def _hook(name: str):
    return _csv_bytes if name.startswith("fileio.write_") and name.endswith("_csv") else _HOOKS.get(name)
