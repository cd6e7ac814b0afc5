"""levykernel benchmark: one closed-loop client, four workloads.

    python3 bench/run.py --workload point-mix --seed 3 --seconds 15 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Inputs are drawn with ``--seed`` from the frozen mpmath
reference pool in ``bench/pool/`` and every value the program returns is
checked against it.  A run repeats whole cycles over its workload's pool
(each cycle in a fresh seeded order, each input at a seeded scale) until
``--seconds`` have passed, so every run checks every pool point.

``--trace 0`` prints the end-to-end metrics, measured with no wrappers
installed; their times are scaled by a calibration unit run between
calls (see ``calibration_unit``).  ``--trace 1`` prints the per-layer
metrics, in plain wall time: it runs the cycles once plainly, then
replays the same inputs with the outside-in tracer installed, and
reports the slowdown as ``trace.overhead_frac``.
The last line of standard output is one JSON object.  The exit code is
non-zero only when the benchmark's own checks fail: a missing package, a
CSV it cannot parse, a missing row, or a metric name that BENCHMARK.json
does not list.  Values that miss their tolerance are reported in the
accuracy metrics, not as failures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
POOL = os.path.join(BENCH, "pool")

SETUP_RUNS = 3          # fresh interpreters timed for setup_s
IMPORTTIME_RUNS = 3     # fresh interpreters parsed for setup.import.*
ROUNDING_FLOOR = 1e-15  # relative slack added to est_error
SCALE_RANGE = (0.5, 2.0)  # seeded spatial scale s; t = s**alpha
REF_UNIT_S = 8e-4       # calibration unit time that timings are scaled to
_CAL_X = np.linspace(0.0, 1.0, 4096)


def calibration_unit():
    """Seconds for a fixed slice of interpreter and numpy work.

    On a shared 2-vCPU Intel Xeon VM the speed of the same code swings by
    up to 1.6x within seconds, as other tenants come and go.  Every timing
    is scaled by REF_UNIT_S over the mean of the units run just before
    and just after it.  In a 60 s test there, this cut the spread of a
    fixed stable_mb and oracle workload over 10 s windows from 17 % to 4 %.
    REF_UNIT_S lies between the unit's quiet (0.6 ms) and busy (0.9 ms)
    times there.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    for _ in range(4):
        np.exp(1j * _CAL_X).sum()
    return perf_counter() - t0


class BenchError(Exception):
    """The benchmark's own checks failed; no result is printed."""


def load_levykernel():
    if not os.path.isfile(os.path.join(SRC, "levykernel", "__init__.py")):
        raise BenchError(f"no levykernel package under {SRC}")
    sys.path.insert(0, SRC)
    import levykernel
    import levykernel.cli  # noqa: F401  (bound as levykernel.cli)

    where = os.path.dirname(os.path.abspath(levykernel.__file__))
    if os.path.dirname(where) != SRC:
        raise BenchError(f"imported levykernel from {where}, not from {SRC}")
    return levykernel


def load_pool(name):
    path = os.path.join(POOL, name)
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read reference pool {path}: {exc}") from exc


def _scale(rng):
    """A third of the inputs run at t = 1 exactly, the rest at a
    log-uniform spatial scale, so no two calls share their arguments."""
    if rng.random() < 1.0 / 3.0:
        return 1.0
    lo, hi = SCALE_RANGE
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# ---------------------------------------------------------------------------
# Accounting.
# ---------------------------------------------------------------------------


class Recorder:
    """Counts calls, failures, latencies and checked values of one phase."""

    def __init__(self, lk, calibrate=True):
        self.lk = lk
        self.calibrate = calibrate
        self.last_unit = calibration_unit() if calibrate else REF_UNIT_S
        self.busy_s = 0.0  # scaled seconds inside calls
        self.latencies: list[float] = []  # scaled seconds per value call
        self.cycle_calls = 0  # value calls in the first whole cycle
        self.first_value_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.typed = 0
        self.untyped = 0
        self.values = 0
        self.rows = 0
        self.checked = 0
        self.tol_met = 0
        self.bound_checked = 0
        self.bound_held = 0
        self.rel_err_max = 0.0

    def scaled(self, seconds):
        """Wall seconds scaled to the reference speed (see calibration_unit)."""
        if not self.calibrate:
            return seconds
        unit = calibration_unit()
        factor = REF_UNIT_S / (0.5 * (self.last_unit + unit))
        self.last_unit = unit
        return seconds * factor

    def call(self, fn, *args, value_call=True, **kwargs):
        """Time one call into the package; returns (result or None,
        scaled seconds)."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except self.lk.LevyKernelError:
            result = None
            self.typed += 1
        except Exception:  # any other escape is an untyped failure
            result = None
            self.untyped += 1
        seconds = self.scaled(perf_counter() - t0)
        if result is None:
            self.failed += 1
        self.busy_s += seconds
        if value_call:
            self.latencies.append(seconds)
        return result, seconds

    def cli_failure(self, text):
        """The CLI caught an exception and printed it as JSON (exit 3)."""
        self.failed += 1
        try:
            name = json.loads(text)["error"]
        except (ValueError, KeyError, TypeError) as exc:
            raise BenchError(f"unparsable CLI error report: {text[:200]!r}") from exc
        cls = getattr(self.lk, name, None)
        if isinstance(cls, type) and issubclass(cls, self.lk.LevyKernelError):
            self.typed += 1
        else:
            self.untyped += 1

    def check(self, value, ref, tol, est_error=None):
        self.checked += 1
        try:
            value = float(value)
        except (TypeError, ValueError):
            value = math.nan
        err = abs(value - ref)
        if math.isfinite(value):
            # saturates at 1: past 100% off a value is wrong, and the size
            # of a cancellation-noise result varies from run to run
            self.rel_err_max = max(self.rel_err_max, min(err / abs(ref), 1.0))
        if err <= tol * abs(ref):  # False for NaN
            self.tol_met += 1
        if est_error is not None:
            self.bound_checked += 1
            if err <= float(est_error) + ROUNDING_FLOOR * abs(ref):
                self.bound_held += 1

    def missing(self, n, with_bound=True):
        """Values a failed call did not return: each counts as a miss."""
        self.checked += n
        if with_bound:
            self.bound_checked += n


# ---------------------------------------------------------------------------
# Workloads.  Each builds one cycle of items from the rng and runs items.
# ---------------------------------------------------------------------------


class StableSweep:
    """In-process CLI ``sweep --method mb --log`` on 400-point grids."""

    def __init__(self, lk):
        self.lk = lk
        pool = load_pool("stable_sweep.json")
        self.tol = pool["tol"]
        self.specs = pool["specs"]
        for spec in self.specs:
            if len(spec["ref"]) != spec["points"]:
                raise BenchError("stable_sweep.json: grid and refs differ")

    def cycle(self, rng):
        order = rng.sample(range(len(self.specs)), len(self.specs))
        return [(i, _scale(rng)) for i in order]

    def run(self, item, rec):
        i, s = item
        sp = self.specs[i]
        d, a, b, n = sp["d"], sp["alpha"], sp["beta"], sp["points"]
        r_min, r_max = s * sp["r_min"], s * sp["r_max"]
        argv = ["sweep", "--d", str(d), "--alpha", repr(a), "--beta", repr(b),
                "--t", repr(s ** a), "--method", "mb", "--log",
                "--r-min", repr(r_min), "--r-max", repr(r_max),
                "--points", str(n)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code, seconds = rec.call(self.lk.cli.main, argv)
            except SystemExit as exc:
                raise BenchError(f"CLI rejected {argv}: exit {exc.code}") from exc
        rec.first_value_s.append(seconds)
        text = buf.getvalue()
        if code != 0:
            if code is not None:
                rec.cli_failure(text)
            rec.missing(n)
            return
        rows = parse_sweep(text)
        if len(rows) != n:
            raise BenchError(f"sweep returned {len(rows)} rows, expected {n}")
        grid = np.geomspace(r_min, r_max, n)
        pref = s ** (-(d + b))
        for (r, value, est), r_expect, ref in zip(rows, grid, sp["ref"]):
            if abs(r - r_expect) > 1e-12 * r_expect:
                raise BenchError(f"sweep row at r={r!r}, expected {r_expect!r}")
            rec.check(value, pref * ref, self.tol, est)
        rec.values += n
        rec.rows += n


def parse_sweep(text):
    """(r, value, est_error) per data row of the sweep CSV."""
    rows = []
    header = False
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if line == "r,t,method,value,est_error":
            header = True
            continue
        fields = line.split(",")
        if not header or len(fields) != 5:
            raise BenchError(f"unparsable sweep CSV line: {line[:200]!r}")
        try:
            rows.append((float(fields[0]), float(fields[3]), float(fields[4])))
        except ValueError as exc:
            raise BenchError(f"unparsable sweep CSV line: {line[:200]!r}") from exc
    return rows


class PointMix:
    """A stream of single ``evaluate(spec, r)`` calls with method auto."""

    def __init__(self, lk):
        self.lk = lk
        pool = load_pool("point_mix.json")
        self.tol = pool["tol"]
        self.points = pool["points"]

    def cycle(self, rng):
        order = rng.sample(range(len(self.points)), len(self.points))
        return [(i, _scale(rng)) for i in order]

    def run(self, item, rec):
        i, s = item
        p = self.points[i]
        d, a, b = p["d"], p["alpha"], p["beta"]
        t, r = s ** a, s * p["r"]
        lk = self.lk
        res, seconds = rec.call(lambda: lk.evaluate(lk.KernelSpec(d, a, b, t), r))
        rec.first_value_s.append(seconds)
        if res is None:
            rec.missing(1)
            return
        rec.values += 1
        rec.check(res.value, s ** (-(d + b)) * p["ref"], self.tol, res.est_error)


def clear_sympy_cache():
    """Forget sympy's expression cache, so a repeated symbol in a later
    cycle is built as cold as in the first one."""
    try:
        from sympy.core.cache import clear_cache
    except ImportError:
        return
    clear_cache()


class SymbolCold:
    """Fresh ``make_symbol``, then ``general_kernel_mb`` at each t and r."""

    def __init__(self, lk):
        self.lk = lk
        pool = load_pool("symbols.json")
        self.tol = pool["tol"]
        self.symbols = pool["symbols"]
        # the t = 1 points belong to oracle-verify
        self.cold_points = [[j for j, p in enumerate(sy["points"]) if p["t"] != 1.0]
                            for sy in self.symbols]

    def cycle(self, rng):
        order = rng.sample(range(len(self.symbols)), len(self.symbols))
        items = []
        for i in order:
            pts = self.cold_points[i]
            items.append((i, tuple(rng.sample(pts, len(pts)))))
        return items

    def run(self, item, rec):
        i, order = item
        sy = self.symbols[i]
        lk = self.lk
        clear_sympy_cache()
        sym, made = rec.call(lk.make_symbol, sy["kind"], value_call=False,
                             **sy["params"])
        if sym is None:
            rec.missing(len(order))
            return
        first = None
        for j in order:
            p = sy["points"][j]
            res, seconds = rec.call(lk.general_kernel_mb, sym, sy["d"],
                                    sy["beta"], p["t"], p["r"])
            if first is None:
                first = made + seconds
            if res is None:
                rec.missing(1)
                continue
            rec.values += 1
            rec.check(res.value, p["ref"], self.tol, res.est_error)
        rec.first_value_s.append(first)


class OracleVerify:
    """Oracle values (stable and symbol) plus ``normalization_check``."""

    def __init__(self, lk):
        self.lk = lk
        pool = load_pool("oracle.json")
        sym_pool = load_pool("symbols.json")
        self.tol = pool["tol"]
        self.stable = pool["stable"]
        self.norms = pool["normalization"]
        # symbols are built once, outside the timed calls
        self.symbol_points = []
        for sy in sym_pool["symbols"]:
            sym = lk.make_symbol(sy["kind"], **sy["params"])
            for p in sy["points"]:
                if p["t"] == 1.0:
                    self.symbol_points.append((sym, sy, p))

    def cycle(self, rng):
        items = [("stable", i, _scale(rng)) for i in range(len(self.stable))]
        items += [("symbol", i, 1.0) for i in range(len(self.symbol_points))]
        items += [("norm", i, 1.0) for i in range(len(self.norms))]
        rng.shuffle(items)
        return items

    def run(self, item, rec):
        kind, i, s = item
        lk = self.lk
        if kind == "stable":
            p = self.stable[i]
            d, a, b = p["d"], p["alpha"], p["beta"]
            t, r = s ** a, s * p["r"]
            res, seconds = rec.call(
                lambda: lk.stable_oracle(lk.KernelSpec(d, a, b, t), r))
            ref, tol = s ** (-(d + b)) * p["ref"], self.tol
        elif kind == "symbol":
            sym, sy, p = self.symbol_points[i]
            res, seconds = rec.call(lk.symbol_oracle, sym, sy["d"], sy["beta"],
                                    p["t"], p["r"])
            ref, tol = p["ref"], self.tol
        else:
            p = self.norms[i]
            mass, seconds = rec.call(
                lambda: lk.normalization_check(lk.KernelSpec(p["d"], p["alpha"])))
            rec.first_value_s.append(seconds)
            if mass is None:
                rec.missing(1, with_bound=False)
                return
            rec.values += 1
            rec.check(mass, p["ref"], p["tol"])
            return
        rec.first_value_s.append(seconds)
        if res is None:
            rec.missing(1)
            return
        rec.values += 1
        rec.check(res.value, ref, tol, res.est_error)


WORKLOADS = {"stable-sweep": StableSweep, "point-mix": PointMix,
             "symbol-cold": SymbolCold, "oracle-verify": OracleVerify}


def drive(workload, rng, seconds, rec, max_items=None):
    """Closed loop, one client: whole cycles until ``seconds`` have passed."""
    done = []
    start = perf_counter()
    while True:
        items = workload.cycle(rng)
        if max_items is not None:
            items = items[:max_items]
        for item in items:
            workload.run(item, rec)
            done.append(item)
        rec.cycle_calls = rec.cycle_calls or len(rec.latencies)
        if perf_counter() - start >= seconds:
            return done, perf_counter() - start


def replay(workload, items, rec):
    start = perf_counter()
    for item in items:
        workload.run(item, rec)
    return perf_counter() - start


# ---------------------------------------------------------------------------
# Set-up time in fresh interpreters.
# ---------------------------------------------------------------------------


def _child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def time_imports(runs, rec, importtime=False):
    """Scaled wall time of `import levykernel, levykernel.cli` in fresh
    interpreters, and the -X importtime report of each when asked."""
    cmd = [sys.executable, "-c", "import levykernel, levykernel.cli"]
    if importtime:
        cmd[1:1] = ["-X", "importtime"]
    walls, reports = [], []
    for _ in range(runs):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=120)
        walls.append(rec.scaled(perf_counter() - t0))
        if proc.returncode != 0:
            raise BenchError(f"fresh import failed: {proc.stderr[-500:]}")
        reports.append(proc.stderr)
    return walls, reports


def parse_importtime(text):
    """Seconds: levykernel (cumulative, with cli) and the self time of
    every module of numpy, scipy and sympy."""
    own = {"numpy": 0.0, "scipy": 0.0, "sympy": 0.0}
    lk_total = 0.0
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue  # the header line
        raw = parts[2].rstrip()
        name = raw.strip()
        top = len(raw) - len(raw.lstrip()) <= 1
        if top and name in ("levykernel", "levykernel.cli"):
            lk_total += cum_us * 1e-6
        pkg = name.split(".")[0]
        if pkg in own:
            own[pkg] += self_us * 1e-6
    return lk_total, own


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def tail_latency(latencies, cycle_calls):
    """Latency at the highest percentile that leaves at least ten samples
    beyond it within one cycle, that percentile, and the sample count.

    Taking the percentile from one cycle keeps it the same whether a run
    fits one cycle or several; with fewer than eleven calls per cycle it
    is the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    cycle_calls = cycle_calls or n
    keep = cycle_calls - 10 if cycle_calls >= 11 else cycle_calls
    i = max(-(-keep * n // cycle_calls) - 1, 0)
    return xs[i], 100.0 * keep / cycle_calls, n


def end_to_end(rec, wall, setup_walls):
    if not rec.latencies:
        raise BenchError("no call that returns values was timed")
    tail, pct, n = tail_latency(rec.latencies, rec.cycle_calls)
    metrics = {
        "setup_s": (statistics.median(setup_walls), "s"),
        "throughput_pts_per_s": (rec.values / rec.busy_s, "1/s"),
        "latency_p50_ms": (statistics.median(rec.latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "cold_value_s": (statistics.median(rec.first_value_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_frac": (1.0 - rec.failed / rec.attempted, "ratio"),
        "tol_met_frac": (rec.tol_met / rec.checked, "ratio"),
        "err_bound_held_frac": (rec.bound_held / max(rec.bound_checked, 1),
                                "ratio"),
        "rel_err_max": (rec.rel_err_max, "ratio"),
    }
    notes = [f"latency_tail_ms is p{pct:.1f} of {n} calls",
             f"setup_s is the median of {len(setup_walls)} fresh interpreters",
             f"checked {rec.checked} values, {rec.bound_checked} with est_error",
             f"times are scaled to a {REF_UNIT_S * 1e3:g} ms calibration unit; "
             f"unscaled, the loop returned {rec.values / wall:.6g} values/s "
             f"over {wall:.3f} s of wall time"]
    return metrics, notes


ROUTES = ("closed_form", "mb_contour", "small_r_series", "oracle",
          "residue_series")


def per_layer(tracer, rec, untraced_wall, traced_wall, importtime_reports):
    tot = tracer.totals()
    cnt = tracer.counts

    def span(name, key):
        return tot[name][key] if name in tot else 0.0

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    for fn in ("log_gamma", "bessel_j"):
        name = f"specfun.{fn}"
        elems = cnt[f"{name}.elems"]
        m[f"{name}.elems"] = (elems, "count")
        m[f"{name}.self_s"] = (span(name, "self_s"), "s")
        m[f"{name}.ns_per_elem"] = (ratio(span(name, "self_s"), elems, 1e9), "ns")
    vli = "mellin.vertical_line_integral"
    m[f"{vli}.calls"] = (span(vli, "calls"), "count")
    m[f"{vli}.nodes"] = (cnt[f"{vli}.nodes"], "count")
    m[f"{vli}.integrand_calls"] = (cnt[f"{vli}.integrand_calls"], "count")
    m[f"{vli}.self_s"] = (span(vli, "self_s"), "s")
    m[f"{vli}.integrand_s"] = (span("mellin.integrand", "total_s"), "s")
    m["mellin.auto_truncation.calls"] = (span("mellin.auto_truncation", "calls"),
                                         "count")
    m["mellin.auto_truncation.self_s"] = (span("mellin.auto_truncation", "self_s"),
                                          "s")
    for fn in ("stable_mb", "stable_series", "small_r_series"):
        name = f"stable_kernel.{fn}"
        calls = span(name, "calls")
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.ms_per_value"] = (ratio(span(name, "total_s"), calls, 1e3), "ms")
    m["stable_kernel.stable_mb.nodes_per_value"] = (
        ratio(cnt["stable_kernel.stable_mb.nodes"],
              span("stable_kernel.stable_mb", "calls")), "count")
    other = sum(v for k, v in cnt.items()
                if k.startswith("route:") and k[6:] not in ROUTES)
    for route in ROUTES:
        m[f"stable_kernel.evaluate.route.{route}"] = (cnt[f"route:{route}"],
                                                      "count")
    m["stable_kernel.evaluate.route.other"] = (other, "count")
    ms = "radial_symbol.make_symbol"
    m[f"{ms}.calls"] = (span(ms, "calls"), "count")
    m[f"{ms}.s_per_call"] = (ratio(span(ms, "total_s"), span(ms, "calls")), "s")
    g = "radial_symbol.general_kernel_mb"
    m[f"{g}.cold_s"] = (ratio(cnt[f"{g}.cold_total_s"], cnt[f"{g}.cold_calls"]), "s")
    m[f"{g}.warm_ms"] = (ratio(cnt[f"{g}.warm_total_s"], cnt[f"{g}.warm_calls"],
                               1e3), "ms")
    m[f"{g}.self_s"] = (span(g, "self_s"), "s")
    m[f"{g}.nodes_per_value"] = (ratio(cnt[f"{g}.nodes"], span(g, "calls")),
                                 "count")
    h = "oracle.hankel_oracle"
    m[f"{h}.calls"] = (span(h, "calls"), "count")
    m[f"{h}.ms_per_value"] = (ratio(span(h, "total_s"), span(h, "calls"), 1e3), "ms")
    m[f"{h}.panels_per_value"] = (ratio(cnt[f"{h}.panels"], span(h, "calls")),
                                  "count")
    m["oracle.oscillatory_bessel_integral.self_s"] = (
        span("oracle.oscillatory_bessel_integral", "self_s"), "s")
    m["oracle.bessel_zeros.elems"] = (cnt["oracle.bessel_zeros.elems"], "count")
    m["oracle.bessel_zeros.self_s"] = (span("oracle.bessel_zeros", "self_s"), "s")
    nc = "oracle.normalization_check"
    m[f"{nc}.s"] = (ratio(span(nc, "total_s"), span(nc, "calls")), "s")
    m["cli.main.self_s"] = (span("cli.main", "self_s"), "s")
    m["cli.rows"] = (rec.rows, "count")
    parsed = [parse_importtime(text) for text in importtime_reports]
    m["setup.import.levykernel_s"] = (statistics.median(p[0] for p in parsed), "s")
    for pkg in ("numpy", "scipy", "sympy"):
        m[f"setup.import.{pkg}_s"] = (statistics.median(p[1][pkg] for p in parsed),
                                      "s")
    m["errors.typed"] = (rec.typed, "count")
    m["errors.untyped"] = (rec.untyped, "count")
    m["trace.overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall,
                                "ratio")
    notes = [f"traced {len(tracer.spans)} spans; untraced {untraced_wall:.3f}s, "
             f"traced {traced_wall:.3f}s"]
    if tracer.absent:
        notes.append("absent hooks (reported as 0): " + ", ".join(tracer.absent))
    if other:
        notes.append("routes outside the known set: " + ", ".join(
            f"{k[6:]}={int(v)}" for k, v in cnt.items()
            if k.startswith("route:") and k[6:] not in ROUTES))
    return m, notes


def check_names(metrics, mode):
    """Every metric BENCHMARK.json lists for this mode, with its unit, and
    nothing else."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)[mode]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read {mode} from {path}: {exc}") from exc
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: unit for name, (_v, unit) in metrics.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        unknown = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise BenchError(f"metric set differs from BENCHMARK.json {mode}: "
                         f"missing {missing}, unknown {unknown}, unit {units}")


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment():
    import scipy
    import sympy

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "nproc": os.cpu_count(), "blas_threads": blas_threads()}


def run(args):
    lk = load_levykernel()
    from tracer import Tracer

    rng = random.Random(f"{args.workload}:{args.seed}")
    workload = WORKLOADS[args.workload](lk)
    rec = Recorder(lk, calibrate=not args.trace)
    lines = [f"levykernel benchmark: workload {args.workload}, seed {args.seed}, "
             f"{args.seconds}s, trace {args.trace}",
             "environment: " + json.dumps(environment(), sort_keys=True)]
    if args.trace:
        _walls, reports = time_imports(IMPORTTIME_RUNS, rec, importtime=True)
        items, untraced = drive(workload, rng, args.seconds / 2.0, rec,
                                args.max_items)
        traced_rec = Recorder(lk, calibrate=False)
        tracer = Tracer()
        tracer.install_levykernel_hooks()
        try:
            traced = replay(workload, items, traced_rec)
        finally:
            tracer.uninstall()
        metrics, notes = per_layer(tracer, traced_rec, untraced, traced, reports)
        mode, result_rec = "per_layer", traced_rec
    else:
        setup_walls, _ = time_imports(SETUP_RUNS, rec)
        items, wall = drive(workload, rng, args.seconds, rec, args.max_items)
        metrics, notes = end_to_end(rec, wall, setup_walls)
        mode, result_rec = "end_to_end", rec
    check_names(metrics, mode)
    lines.append(f"{len(items)} items, {result_rec.attempted} calls, "
                 f"{result_rec.failed} failed "
                 f"({result_rec.typed} typed, {result_rec.untyped} untyped)")
    lines += [f"  {name:<48} {value:>14.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    lines += [f"note: {n}" for n in notes]
    print("\n".join(lines))
    result = {"correct": True, "attempted": result_rec.attempted,
              "failed": result_rec.failed,
              "metrics": {name: {"value": float(value), "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result, sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-items", dest="max_items", type=int, default=None,
                    help="cut every cycle to this many items (self-check only)")
    args = ap.parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
