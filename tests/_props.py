"""Quantified property checks shared by the unit tests and the
acceptance suite, and the references the contour engine is tested
against.  Each check returns the measured worst-case error so the
callers can assert against the documented tolerances."""

import contextlib
import math

import numpy as np

import levykernel as lk
from levykernel.errors import Approximation, NoDecay
from levykernel.mellin import (ContourSpec, _heights, _magnitudes,
                               _refine_one, _tail_estimate)

POLE_CLEARANCE = 0.05


def _random_z(n, seed, re_lo=-10.0, re_hi=10.0, im_max=50.0):
    rng = np.random.default_rng(seed)
    z = rng.uniform(re_lo, re_hi, n) + 1j * rng.uniform(-im_max, im_max, n)
    # keep clear of the pole lattice on the real axis
    near = (np.abs(z.imag) < POLE_CLEARANCE) & (
        np.abs(z.real - np.round(z.real)) < POLE_CLEARANCE)
    z = z[~near]
    return z


def gamma_functional_equation_err(n=10_000, seed=20240817):
    """max |Gamma(z+1) - z Gamma(z)| / |Gamma(z+1)| over random samples."""
    z = _random_z(n, seed)
    g1 = np.exp(lk.log_gamma(z + 1.0))
    g0 = np.exp(lk.log_gamma(z))
    return float(np.max(np.abs(g1 - z * g0) / np.abs(g1)))


def gamma_reflection_err(n=10_000, seed=20240818):
    """max relative error of Gamma(z) Gamma(1-z) sin(pi z) / pi = 1."""
    z = _random_z(n, seed)
    # sin(pi z) overflows past |Im z| ~ 225; points here stay below 50
    lhs = np.exp(lk.log_gamma(z) + lk.log_gamma(1.0 - z)) * np.sin(np.pi * z)
    return float(np.max(np.abs(lhs / math.pi - 1.0)))


def mellin_bessel_identity_err(z_values=(0.5, 1.0, 1.4)):
    """Numeric Mellin transform of J_0 against the gamma-ratio closed form."""
    worst = 0.0
    for zv in z_values:
        def w(s, zv=zv):
            s = np.asarray(s, dtype=float)
            out = np.zeros_like(s)
            pos = s > 0
            out[pos] = s[pos] ** (zv - 1.0)
            return out

        val = lk.oscillatory_bessel_integral(w, 0.0, 1.0, tol=1e-9).value
        rhs = lk.mellin_bessel_rhs(complex(zv), 0.0).real
        worst = max(worst, abs(val - rhs) / abs(rhs))
    return worst


def contour_independence_spread(abscissas=(0.6, 1.0, 1.4, 1.9)):
    """Pairwise relative spread of the d=2, alpha=1.5, r=3 contour value
    across abscissas inside the admissible strip."""
    spec = lk.KernelSpec(d=2, alpha=1.5)
    vals = []
    for c in abscissas:
        vals.append(lk.stable_mb(spec, 3.0, abscissa=c, tol=1e-11).value)
    vals = np.asarray(vals)
    return float((vals.max() - vals.min()) / np.max(np.abs(vals)))


def scaling_exactness_err(times=(0.1, 1.0, 10.0), r=3.0):
    """kernel(spec, r) against prefactor * kernel(unit spec, r')."""
    worst = 0.0
    for t in times:
        spec = lk.KernelSpec(d=2, alpha=1.5, beta=0.0, t=t)
        unit, rp, pref = lk.scaling_reduce(spec, r)
        lhs = lk.stable_mb(spec, r, tol=1e-11).value
        rhs = pref * lk.stable_mb(unit, rp, tol=1e-11).value
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst


def symbol_route_err(r=3.0):
    """general_kernel_mb of the stable(1.2) symbol against stable_mb of
    its spec (d = 2, beta = 0.7, t = 1)."""
    g = lk.general_kernel_mb(lk.make_symbol("stable", a=1.2), 2, 0.7, 1.0, r)
    s = lk.stable_mb(lk.KernelSpec(d=2, alpha=1.2, beta=0.7), r)
    return abs(g.value - s.value) / abs(s.value)


def grid_nodes(grid):
    """(p, w), the weights and nodes of a ``_MellinGrid`` read back from
    its phase table (``mellin._phase_table``): slot j of the flattened
    (heads, B) table holds node heights[0] + (j - B//2) step.  The table's
    zero padding, and any zero weights at either end, are left out."""
    heights, mat = grid._table[:2]
    p = mat.reshape(-1).real
    live = np.flatnonzero(p)
    j = np.arange(live[0], live[-1] + 1)
    return p[j], (j - mat.shape[1] // 2 + round(heights[0] / grid._h)) * grid._h


def phase_sums(p, w, v, step):
    """sum_k p_k exp(i w_k v_j) by the engine's node split:
    ``mellin._phase_apply`` on the ``mellin._phase_table`` of p."""
    return lk.mellin._phase_apply(lk.mellin._phase_table(p, w, step), v)


def dense_phase_sums(p, w, v):
    """sum_k p_k exp(i w_k v_j), one exp per node and height, each v_j's
    sum formed alone, in order: the reference for ``phase_sums``."""
    return lk.mellin._row_blocks(v, w, lambda ph: np.einsum("rk,k->r", ph, p))


def _checked_tail(f, contour: ContourSpec) -> float:
    """Tail estimate of ``f`` beyond the plan's height, after checking the
    sampled decay precondition |f(c+iT)| < |f(c+iT/2)|."""
    c, big_t = contour.abscissa, contour.half_height
    m_half, m_top = _magnitudes(f, c, (0.5 * big_t, big_t))
    if m_top >= m_half and m_top > 0.0:
        raise NoDecay(
            f"|f| fails to decay along the contour: |f(c+i{big_t})| = "
            f"{m_top:.3e} >= |f(c+i{big_t / 2})| = {m_half:.3e}")
    return _tail_estimate(m_half, m_top, big_t)


def _direct_sums(f, contour):
    """Level sums of one integrand ``f``, formed node by node, as Python
    numbers for ``_refine_one`` (``rows`` None), else as arrays."""

    def sums(level, rows):
        fv = f(contour.abscissa + 1j * _heights(contour, level))
        s = fv.sum()
        if not level:
            s -= 0.5 * (fv[0] + fv[-1])
        a = np.abs(fv).sum()
        if rows is None:
            return complex(s), float(a)
        return np.array([s]), np.array([a])

    return sums


def _line_result(value, tail, disc, used) -> Approximation:
    return Approximation(value=value, est_error=tail + disc,
                         method="line_integral",
                         diagnostics={"nodes_used": 2 + used,
                                      "tail_bound": tail})


def vertical_line_integral(f, contour: ContourSpec,
                           tol: float = 1e-10) -> Approximation:
    """(1/2*pi*i) * integral of f over the truncated vertical line.

    Checks the sampled decay precondition |f(c+iT)| <= |f(c+iT/2)| and
    refines the node count (doubling, at most six times) until the value
    changes by less than ``tol`` relatively, else raises NonConvergent.
    For integrands with f(conj z) = conj f(z) the imaginary part of the
    result is at the rounding level.  The estimate is the tail estimate
    plus the discretization estimate, whose rounding floor counts only
    the sums and products at a node (``_refine_one``'s w = 0), with no
    aliasing guard (frequency 0).
    """
    tail = _checked_tail(f, contour)
    value, disc, used = _refine_one(_direct_sums(f, contour), contour, tol,
                                    0.0, 0.0)
    return _line_result(value, tail, disc, used)


def row_block_mismatches(call, grid, every=61):
    """Indices i at which ``call(grid)[i]`` differs from ``call(grid[i])``
    in value or est_error, checked on both sides of each row-block edge
    of the engine's node-split phase sums and at every ``every``-th point;
    returned with the number of edge points seen."""
    mellin = lk.mellin
    real = mellin._phase_apply
    calls = []

    # the engine's calls only: radial_symbol binds the helper by name, so
    # its inner transform grids, which a warm grid does not build anyway,
    # are not recorded
    def recording(table, v):
        calls.append((v.copy(), mellin._BLOCK_ELEMS // table[0].size))
        return real(table, v)

    call(grid)
    mellin._phase_apply = recording
    try:
        batch = call(grid)
    finally:
        mellin._phase_apply = real
    # the first level refines every r, in the grid's (increasing) order
    x_all = calls[0][0]
    edges = set()
    for v, rows in calls:
        for lo in range(rows, v.size, rows):
            edges.update(np.searchsorted(x_all, v[lo - 1:lo + 1]).tolist())
    bad = []
    for i in sorted(edges | set(range(0, grid.size, every))):
        one = call(float(grid[i]))
        if (batch[i].value, batch[i].est_error) != (one.value, one.est_error):
            bad.append(i)
    return bad, len(edges)


@contextlib.contextmanager
def weight_calls():
    """Counts, while active, the calls of every weight that
    ``oracle.stable_weight`` and ``oracle.symbol_weight`` hand out
    (``counts["calls"]``, probes included) and the support probes that
    ``oracle._support_radius`` makes (``counts["probes"]``)."""
    oracle = lk.oracle
    counts = {"calls": 0, "probes": 0}
    real = oracle.stable_weight, oracle.symbol_weight, oracle._support_radius

    def counting(make):
        def make_counted(*args):
            w = make(*args)

            def counted(s):
                counts["calls"] += 1
                return w(s)

            return counted

        return make_counted

    def probe(weight, s_start):
        counts["probes"] += 1
        return real[2](weight, s_start)

    oracle.stable_weight, oracle.symbol_weight = counting(real[0]), counting(real[1])
    oracle._support_radius = probe
    try:
        yield counts
    finally:
        oracle.stable_weight, oracle.symbol_weight, oracle._support_radius = real
