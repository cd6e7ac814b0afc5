"""Outside-in tracer: wraps levykernel's public functions from the outside.

A function is often bound in several namespaces (``log_gamma`` is imported
by name into ``mellin``, ``stable_kernel`` and ``radial_symbol``), so each
hook replaces every binding of the original object in every loaded
``levykernel.*`` module.  Spans (name, start, end, parent) are kept in
memory and reduced to per-name totals and self times when the run ends.
A hook whose target no longer exists is reported as absent, so a
refactor that moves or removes a function does not break the benchmark.
"""

from __future__ import annotations

import sys
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


class Tracer:
    """Installs hooks, records spans and counters, and restores on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._cold_seen: dict = {}  # id(symbol) -> (weakref, t values seen)

    # -- spans ---------------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        end = perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        return end - span[1]

    def wrap(self, name: str, fn, before=None, after=None):
        """Span around ``fn``; ``before(args, kwargs)`` may return new
        (args, kwargs), ``after(result, args, kwargs, seconds)`` counts."""

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self._close(idx)
            if after is not None:
                after(result, args, kwargs, seconds)
            return result

        return wrapper

    # -- installation --------------------------------------------------------
    def hook(self, module: str, attr: str, before=None, after=None):
        mod = sys.modules.get(f"levykernel.{module}")
        original = getattr(mod, attr, None) if mod is not None else None
        if original is None or not callable(original):
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = self.wrap(f"{module}.{attr}", original, before, after)
        for name, ns in list(sys.modules.items()):
            if ns is None or not (name == "levykernel"
                                  or name.startswith("levykernel.")):
                continue
            for key, val in list(vars(ns).items()):
                if val is original:
                    self._patched.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched.clear()

    def install_levykernel_hooks(self):
        c = self.counts

        def elems(key, pos):
            def after(result, args, kwargs, seconds):
                c[key] += _size(args[pos]) if len(args) > pos else 1
            return after

        def line_before(args, kwargs):
            # count and time every integrand call of this line integral
            f = args[0]

            def counted(z):
                c["mellin.vertical_line_integral.integrand_calls"] += 1
                idx = self._open("mellin.integrand")
                try:
                    return f(z)
                finally:
                    self._close(idx)

            return (counted,) + tuple(args[1:]), kwargs

        def line_after(result, args, kwargs, seconds):
            c["mellin.vertical_line_integral.nodes"] += getattr(
                result, "nodes_used", 0)

        def diag_nodes(key):
            def after(result, args, kwargs, seconds):
                diags = getattr(result, "diagnostics", {}) or {}
                c[key] += diags.get("nodes_used", 0)
            return after

        def route(result, args, kwargs, seconds):
            c[f"route:{getattr(result, 'method', 'unknown')}"] += 1

        def general_after(result, args, kwargs, seconds):
            diags = getattr(result, "diagnostics", {}) or {}
            c["radial_symbol.general_kernel_mb.nodes"] += diags.get("nodes_used", 0)
            sym = args[0] if args else kwargs.get("sym")
            t = args[3] if len(args) > 3 else kwargs.get("t")
            # a symbol's first call at each t builds its inner grid
            ref, seen = self._cold_seen.get(id(sym), (None, None))
            if ref is None or ref() is not sym:
                seen = set()
                self._cold_seen[id(sym)] = (weakref.ref(sym), seen)
            if t in seen:
                c["radial_symbol.general_kernel_mb.warm_calls"] += 1
                c["radial_symbol.general_kernel_mb.warm_total_s"] += seconds
            else:
                seen.add(t)
                c["radial_symbol.general_kernel_mb.cold_calls"] += 1
                c["radial_symbol.general_kernel_mb.cold_total_s"] += seconds

        def panels(result, args, kwargs, seconds):
            diags = getattr(result, "diagnostics", {}) or {}
            c["oracle.hankel_oracle.panels"] += diags.get("panels", 0)

        def zeros(result, args, kwargs, seconds):
            c["oracle.bessel_zeros.elems"] += _size(result)

        self.hook("specfun", "log_gamma", after=elems("specfun.log_gamma.elems", 0))
        self.hook("specfun", "bessel_j", after=elems("specfun.bessel_j.elems", 1))
        self.hook("mellin", "vertical_line_integral", before=line_before,
                  after=line_after)
        self.hook("mellin", "auto_truncation")
        self.hook("stable_kernel", "stable_mb",
                  after=diag_nodes("stable_kernel.stable_mb.nodes"))
        self.hook("stable_kernel", "stable_series")
        self.hook("stable_kernel", "small_r_series")
        self.hook("stable_kernel", "evaluate", after=route)
        self.hook("radial_symbol", "make_symbol")
        self.hook("radial_symbol", "general_kernel_mb", after=general_after)
        self.hook("oracle", "hankel_oracle", after=panels)
        self.hook("oracle", "oscillatory_bessel_integral")
        self.hook("oracle", "bessel_zeros", after=zeros)
        self.hook("oracle", "normalization_check")
        self.hook("cli", "main")

    # -- reduction -----------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _parent) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out
