"""Per-layer timings of the contour engine, opt-in (pytest-benchmark):

    PYTHONPATH=src python -m pytest tests/bench_engine.py

The file name does not match ``test_*.py``, so the test suite does not
collect it; name it on the command line.  Every timing but the cold one
is warm: a first call fills the kernel's line store, so a timed call pays
only its phase sums and its refinement bookkeeping, the per-point cost of
a contour value.  The cold ``general_kernel_mb`` clears the symbol's line
store and inner grids before each round, so it also pays the plan, the
samples of G and the inner Mellin grids behind them.  The scalar calls
run ``mellin._power_one``: trapezoid levels 0 and 1 from one
``mellin._phase_pair``, then ``mellin._refine_one``'s loop, with
``mellin._phase_one`` past level 1; the grid runs ``mellin._refine``'s
array loop on ``mellin._phase_apply``'s sums.  The phase sums of one row
are also timed alone, by each path.  The residue-series timings are warm
too: the pole tables and the gate's envelopes are kept per unit spec.
"""


import numpy as np
import pytest

import levykernel as lk

# (d, alpha, beta) of the README's warm-call timings, at r = 2
STABLE_SPECS = [(2, 1.5, 0.7), (3, 0.5, 0.0), (10, 1.99, 2.0), (2, 0.1, 0.0)]


@pytest.mark.parametrize("d,alpha,beta", STABLE_SPECS)
def test_stable_mb_one_row(benchmark, d, alpha, beta):
    spec = lk.KernelSpec(d, alpha, beta)
    first = lk.stable_mb(spec, 2.0)
    res = benchmark(lk.stable_mb, spec, 2.0)
    assert res == first


def test_general_kernel_mb_one_row(benchmark):
    sym = lk.make_symbol("relativistic", alpha=1.0, m=1.0)
    first = lk.general_kernel_mb(sym, 2, 0.5, 1.0, 2.0)
    res = benchmark(lk.general_kernel_mb, sym, 2, 0.5, 1.0, 2.0)
    assert res == first


@pytest.mark.parametrize("path", ["one", "grid", "pair", "two"])
def test_phase_sum_one_row(benchmark, path):
    # the phase sums of one r on a warm line (d/alpha/beta = 2/1.5/0.7,
    # r = 2).  Level 0 alone: ``_phase_one`` against the grid path's
    # ``_phase_apply`` on a one-element v.  Levels 0 and 1, the two every
    # scalar value takes: ``_phase_pair`` on their pair table against two
    # ``_phase_one`` calls on the level tables
    lk.stable_mb(lk.KernelSpec(2, 1.5, 0.7), 2.0)
    line = lk.stable_kernel._stable_line(2, 1.5, 0.7, 1e-9, None)
    tables = [level[2] for level in line.pair()[:2]]
    x = np.log(np.array([2.0]))
    rows = [lk.mellin._phase_apply(table, x)[0] for table in tables]
    if path == "one":
        res = [benchmark(lk.mellin._phase_one, tables[0], float(x[0]))]
    elif path == "grid":
        res = [benchmark(lk.mellin._phase_apply, tables[0], x)[0]]
    elif path == "pair":
        res = benchmark(lk.mellin._phase_pair, line.pair()[2], float(x[0]))
    else:
        res = benchmark(lambda: [lk.mellin._phase_one(table, float(x[0]))
                                 for table in tables])
    assert list(res) == rows[:len(res)]


def _clear_symbol_stores():
    lk.radial_symbol._symbol_line.cache_clear()
    lk.radial_symbol._grid_for.cache_clear()


def test_general_kernel_mb_cold(benchmark):
    sym = lk.make_symbol("relativistic", alpha=1.0, m=1.0)
    args = (sym, 2, 0.5, 1.0, 2.0)
    warm = lk.general_kernel_mb(*args)
    res = benchmark.pedantic(lk.general_kernel_mb, args=args,
                             setup=_clear_symbol_stores, rounds=20)
    assert res == warm


def test_stable_mb_grid_400(benchmark):
    spec = lk.KernelSpec(2, 1.5, 0.0)
    grid = np.geomspace(0.05, 30.0, 400)
    first = lk.stable_mb(spec, grid)
    res = benchmark(lk.stable_mb, spec, grid)
    assert res == first


def test_convergent_left_series(benchmark):
    # alpha < 1: summed past its largest term to its tail bound
    spec = lk.KernelSpec(3, 0.5, 2.0)
    first = lk.stable_series(spec, 0.3)
    assert first.diagnostics["converged"]
    res = benchmark(lk.stable_series, spec, 0.3)
    assert res == first


def test_right_series_past_half(benchmark):
    # 1 < alpha < 2 at r' = 2, where evaluate takes the small-r series
    spec = lk.KernelSpec(3, 1.5, 2.0)
    first = lk.small_r_series(spec, 2.0)
    assert lk.evaluate(spec, 2.0).method == "small_r_series"
    res = benchmark(lk.small_r_series, spec, 2.0)
    assert res == first


def test_gate_rejection(benchmark):
    # d = 3, alpha = 0.9, r' = 0.3: the gate turns the left series down
    # (the point goes on to the contour); what a rejected attempt costs
    spec = lk.KernelSpec(3, 0.9, 0.0)
    gated = lk.stable_kernel._gated_series
    res = benchmark(gated, spec, 0.3, 0.3, 1e-9, "left")
    assert res is None


@pytest.mark.parametrize("method", ["auto", "oracle"])
def test_near_field_auto_against_oracle(benchmark, method):
    # d = 3, alpha = 0.9, r' = 0.3: past the gate's rejection, auto keeps
    # the contour line, which meets tol; the oracle it fell back on before
    spec = lk.KernelSpec(3, 0.9, 0.0)
    first = lk.evaluate(spec, 0.3, method=method)
    assert first.method == ("mb_contour" if method == "auto" else "oracle")
    res = benchmark(lk.evaluate, spec, 0.3, method=method)
    assert res == first
