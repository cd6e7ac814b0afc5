"""Independent brute-force kernel evaluation by oscillatory quadrature.

Every kernel in this package reduces, in polar coordinates, to

    K = (2 pi)^(-d/2) r^(1 - d/2) * int_0^inf J_{d/2-1}(r s) w(s) ds

with a positive weight w.  This module evaluates it head-on, in numpy:
graded Gauss-Legendre panels up to the first scaled Bessel zero, panel
integrals between consecutive zeros, and iterated-averaging (Euler-
transform) acceleration of the alternating panel sums.  It shares
nothing with the contour-integral evaluators except the Bessel function,
so it serves as the ground truth they are judged against.

No node depends on r in the argument x = r s (the 12-point nodes between
zeros of J_nu, and j_{nu,1} u for the head's nodes u in [0, 1]), so one
read-only table per nu, ``_ZERO_TABLES``, holds the zeros and J_nu at
these nodes, grown lock-free in fixed units (1024 zeros or intervals, one
head level) whose bits do not depend on the order of requests.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import Approximation, DomainError, NonConvergent
from .specfun import bessel_j, bessel_j_derivative, bessel_switch_point

__all__ = [
    "bessel_zeros",
    "oscillatory_bessel_integral",
    "hankel_oracle",
    "stable_weight",
    "symbol_weight",
    "stable_oracle",
    "symbol_oracle",
    "normalization_check",
]


_ZERO_BLOCK = 1024
_gl = functools.cache(np.polynomial.legendre.leggauss)
_PANEL_ORDER, _HEAD_ORDER, _HEAD_LEVELS = 12, 16, 9
_MAX_PANELS = 300_000  # panels between zeros before acceleration gives up
_ACCEL_DEPTH = 12  # averaging columns ``_accelerate`` tries at most
_SUPPORT_FLOOR = 1e-21  # |weight| beyond the support radius, against its peak
_ZERO_TABLES: dict[float, dict[str, object]] = {}


def _gl_nodes(edges, order):
    """Gauss-Legendre nodes of each panel (one row each) and half widths."""
    mids, halfw = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    return mids[:, None] + halfw[:, None] * _gl(order)[0][None, :], halfw


def _grow(nu: float, kind: str, n: int, make) -> tuple:
    """Units 0 .. n - 1 of nu's ``kind`` table, missing ones made by make(j)."""
    table = _ZERO_TABLES.setdefault(nu, {})
    units = table.get(kind, ())
    for j in range(len(units), n):
        units += (make(j),)
        units[-1].flags.writeable = False
        table[kind] = units
    return units


def _zero_block(nu: float, j: int) -> np.ndarray:
    """Zeros j B + 1 .. (j + 1) B of J_nu (B = _ZERO_BLOCK) by McMahon's
    expansion polished with Newton steps on the Bessel evaluation itself."""
    k = np.arange(j * _ZERO_BLOCK + 1, (j + 1) * _ZERO_BLOCK + 1, dtype=float)
    mu = 4.0 * nu * nu
    b = (k + 0.5 * nu - 0.25) * math.pi
    e = 8.0 * b
    x = (b - (mu - 1.0) / e
         - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * e ** 3)
         - 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0)
         / (15.0 * e ** 5))
    # Newton polish with a capped step, each zero to its own stationarity
    # (the McMahon start degrades for the first zeros of larger orders)
    live = np.arange(x.size)
    for _ in range(12):
        step = bessel_j(nu, x[live]) / bessel_j_derivative(nu, x[live])
        x[live] -= np.clip(step, -1.0, 1.0)
        live = live[np.abs(step) >= 1e-13]
        if live.size == 0:
            break
    return x


def _zero_table(nu: float, n: int) -> np.ndarray:
    """Read-only table of at least the first n zeros of J_nu."""
    table = _ZERO_TABLES.get(nu, {}).get("zeros", np.empty(0))
    if table.size >= n:
        return table
    parts = [table]
    for j in range(table.size // _ZERO_BLOCK, -(-n // _ZERO_BLOCK)):
        block = _zero_block(nu, j)
        if not np.all(np.diff(np.r_[0.0, parts[-1][-1:], block]) > 0):
            raise NonConvergent(f"zeros of J_{nu} not increasing in block {j}")
        parts.append(block)
    table = np.concatenate(parts)
    table.flags.writeable = False
    _ZERO_TABLES.setdefault(nu, {})["zeros"] = table
    return table


def bessel_zeros(nu: float, n: int, offset: int = 0) -> np.ndarray:
    """Zeros offset + 1 .. offset + n of J_nu, as a fresh array from nu's
    table; each zero's Newton polish stops on its own (history-free bits)."""
    if n <= 0:
        return np.empty(0)
    return _zero_table(nu, offset + n)[offset:offset + n].copy()


def _panel_j(nu: float, start: int, stop: int) -> np.ndarray:
    """J_nu at the 12-point nodes of the intervals between zeros k + 1 and
    k + 2 of J_nu, k = start .. stop - 1, one row per interval."""
    n = -(-stop // _ZERO_BLOCK)
    zeros = _zero_table(nu, n * _ZERO_BLOCK + 1)
    blocks = _grow(nu, "panels", n, lambda j: bessel_j(nu, _gl_nodes(
        zeros[j * _ZERO_BLOCK:(j + 1) * _ZERO_BLOCK + 1], _PANEL_ORDER)[0]))
    return np.concatenate([
        blocks[j][max(start - j * _ZERO_BLOCK, 0):stop - j * _ZERO_BLOCK]
        for j in range(start // _ZERO_BLOCK, n)])


def _head_levels(a, b):
    """Edges a + (b-a) 2^-k, k <= 100, of the graded head, halved per level."""
    edges = np.unique(a + (b - a) * np.r_[0.0, 0.5 ** np.arange(100, -1, -1)])
    for _ in range(_HEAD_LEVELS):
        yield edges
        edges = np.unique(np.r_[edges, 0.5 * (edges[1:] + edges[:-1])])


@functools.cache
def _unit_edges(level: int) -> np.ndarray:
    """The head's edges on [0, 1] at level ``level`` (read-only)."""
    edges = next(itertools.islice(_head_levels(0.0, 1.0), level, None))
    edges.flags.writeable = False
    return edges


def _head_j(nu: float, level: int) -> np.ndarray:
    """J_nu(j_{nu,1} u) at the head's 16-point nodes u of level ``level``."""
    z1 = _zero_table(nu, 1)[0]
    return _grow(nu, "head", level + 1, lambda j: bessel_j(
        nu, z1 * _gl_nodes(_unit_edges(j), _HEAD_ORDER)[0]))[level]


def _panel_integrals(weight, nu, scale, edges, order, jx=None):
    """Gauss-Legendre integral of J_nu(scale*s) * w(s) per panel; int |w|.
    ``jx`` holds J_nu at the nodes when they come from the table."""
    s, halfw = _gl_nodes(edges, order)
    ws = weight(s) * _gl(order)[1][None, :]
    jx = bessel_j(nu, scale * s) if jx is None else jx
    return (jx * ws).sum(axis=1) * halfw, float(np.abs(ws).sum(axis=1) @ halfw)


def _accelerate(partial_sums: np.ndarray):
    """Iterated averaging of a tail of the partial-sum sequence.

    Returns (value, error_estimate, depth_used).  The averaging column
    with the smallest last difference wins; for alternating sequences
    this upgrades linear convergence to near-exponential.
    """
    s = np.asarray(partial_sums, dtype=float)
    if s.size == 1:
        return float(s[-1]), math.inf, 0
    tail = s[-min(s.size, 2 * _ACCEL_DEPTH + 6):]
    best_val = tail[-1]
    best_err = abs(tail[-1] - tail[-2])
    cur = tail
    depth_used = 0
    prev_last = tail[-1]
    for depth in range(1, min(_ACCEL_DEPTH, tail.size - 1) + 1):
        cur = 0.5 * (cur[1:] + cur[:-1])
        diff = abs(cur[-1] - prev_last)
        if diff < best_err:
            best_err = diff
            best_val = cur[-1]
            depth_used = depth
        prev_last = cur[-1]
    return float(best_val), float(best_err), depth_used


def _probes(s_start: float):
    """The weight's peak probe and 1.5x ladder (product by product)."""
    return (np.geomspace(max(s_start, 1e-6) + 1e-12, 1e4, 200),
            np.multiply.accumulate(np.r_[max(1.0, s_start), np.full(59, 1.5)]))


_PROBES = _probes(0.0)  # those of the common start


def _support_radius(weight, s_start: float):
    """Radius beyond which the weight is negligible relative to its peak.

    Returns inf when no decay is detected within the scan cap (the
    integral is then handled as conditionally convergent).
    """
    grid, ladder = _PROBES if s_start == 0 else _probes(s_start)
    wmax = float(np.max(np.abs(weight(grid))))
    if wmax == 0.0:
        return max(s_start, 1.0)
    below = np.abs(weight(ladder)) < _SUPPORT_FLOOR * wmax
    return float(ladder[np.argmax(below)]) if below.any() else math.inf


def _graded_head(weight, nu, scale, a, b, tol, tabled=False):
    """int_a^b J_nu(scale*s) w(s) ds on one Bessel arch (nu = scale = 0:
    int_a^b w) by 16-point Gauss-Legendre panels with edges a + (b-a) 2^-k,
    k <= 100, graded toward a, where s^p and s^(z-1) are not smooth.  All
    panels are halved until the sum moves by under tol/100 (or 1e-15) of
    itself; returns (value, last change, int |w|).  ``tabled`` (a = 0,
    b = j_{nu,1}/scale) reads the Bessel values from nu's table.
    """
    value = math.nan
    # from a = 0 the edges are b times the unit ones; from a != 0,
    # a + (b-a) 2^-k rounds to a for large k and np.unique drops those
    levels = (_head_levels(a, b) if a != 0
              else (b * _unit_edges(k) for k in range(_HEAD_LEVELS)))
    for level, edges in enumerate(levels):
        panels, abs_w = _panel_integrals(weight, nu, scale, edges, _HEAD_ORDER,
                                         _head_j(nu, level) if tabled else None)
        prev, value = value, float(panels.sum())
        change = abs(value - prev)
        if change <= max(1e-2 * tol, 1e-15) * abs(value):
            return value, change, abs_w
    raise NonConvergent(f"graded head on [{a!r}, {b!r}] did not settle "
                        f"(estimate {value!r}, last change {change:.3e})")


def oscillatory_bessel_integral(weight, nu: float, scale: float,
                                s_start: float = 0.0,
                                tol: float = 1e-11) -> Approximation:
    """int_{s_start}^inf J_nu(scale * s) w(s) ds with panel acceleration.

    Returns an ``Approximation`` with ``method="oracle"`` and two
    diagnostics: ``panels``, the number of Bessel zeros used as panel
    edges (0 when the weight dies before the first arch), and ``depth``,
    the acceleration depth (at least 3).  Requires scale > 0 and a
    weight that takes and returns arrays and either decays (support
    detected) or leaves the panel sums alternating so acceleration
    applies.  Panels use the 12-point rule of nu's node table; from
    s_start = 0 no ``bessel_j`` call is made once it has grown far enough.
    The estimate, a bound, adds the head's last halving change,
    the acceleration error, the change between the last two batch ends
    and eps_J int |w|, eps_J bounding the absolute error of ``bessel_j``:
    the rounding of its ascending series at the largest term, e^x /
    sqrt(2 pi x) at the switch point x (5-20x above the errors measured
    against mpmath for nu <= 4).
    """
    if scale <= 0:
        raise ValueError("scale must be > 0")
    s_sup = _support_radius(weight, s_start)
    xs = bessel_switch_point(nu)
    eps_j = 2.0 ** -52 * math.exp(xs) / math.sqrt(2.0 * math.pi * xs)

    # Index of the first zero beyond scale * s_start.
    zs = _zero_table(nu, 1)
    while zs[-1] <= scale * s_start:
        zs = _zero_table(nu, zs.size + 1)
    skip = int(np.searchsorted(zs, scale * s_start, side="right"))

    # Non-oscillatory regime: the weight dies before the first Bessel arch.
    if np.isfinite(s_sup) and zs[0] / scale >= s_sup:
        val, change, abs_w = _graded_head(weight, nu, scale, s_start, s_sup,
                                          tol)
        return Approximation(value=val, est_error=change + eps_j * abs_w,
                             method="oracle",
                             diagnostics={"panels": 0, "depth": 3})

    head_val, head_err, abs_w = _graded_head(
        weight, nu, scale, s_start, zs[skip] / scale, tol, tabled=s_start == 0)

    batch = 64
    panel_vals: list[np.ndarray] = []
    partial: list[float] = []
    running = 0.0
    est = math.inf
    prev_est = None
    value = head_val
    depth = 3
    n_panels = 0
    offset = skip  # index of the zero sitting at the current left edge
    converged = False
    while n_panels < _MAX_PANELS:
        edges = bessel_zeros(nu, batch + 1, offset=offset)
        b, b_abs = _panel_integrals(weight, nu, scale, edges / scale, _PANEL_ORDER,
                                    _panel_j(nu, offset, offset + batch))
        offset += batch
        abs_w += b_abs
        panel_vals.append(b)
        csum = running + np.cumsum(b)
        running = float(csum[-1])
        partial.extend(csum.tolist())
        n_panels += b.size
        acc, acc_err, depth = _accelerate(np.asarray(partial))
        value = head_val + acc
        est = head_err + acc_err + eps_j * abs_w + (
            abs(value - prev_est) if prev_est is not None else 0.0)
        scale_ref = max(abs(value), 1e-300)
        if prev_est is not None and acc_err <= tol * scale_ref \
                and abs(value - prev_est) <= 10 * tol * scale_ref:
            converged = True
            break
        # Pure truncation exit: the remaining weight is negligible.
        if np.isfinite(s_sup) and edges[-1] / scale >= s_sup \
                and abs(b[-1]) <= tol * scale_ref:
            converged = True
            break
        prev_est = value
        batch = min(2 * batch, 4096)
    if not converged:
        raise NonConvergent(
            f"panel acceleration stalled after {n_panels} panels "
            f"(estimate {value!r}, residual {est:.3e})")

    _check_alternation(panel_vals)
    return Approximation(value=value, est_error=est, method="oracle",
                         diagnostics={"panels": offset + 1 - skip,
                                      "depth": max(3, depth)})


def _check_alternation(panel_vals):
    """Panel integrals must alternate in sign beyond the first oscillation."""
    b = np.concatenate(panel_vals)
    b = b[np.abs(b) > 1e-280]
    if b.size < 4:
        return
    signs = np.sign(b[2:])
    bad = signs[1:] * signs[:-1] > 0
    if np.any(bad):
        raise NonConvergent(
            "between-zeros panel sums do not alternate; acceleration "
            "assumptions violated (is the weight nonnegative?)")


def hankel_oracle(weight, d: int, r: float, tol: float = 1e-11) -> Approximation:
    """(2 pi)^(-d/2) r^(1-d/2) * int_0^inf J_{d/2-1}(r s) w(s) ds.

    ``weight`` must already include the s^{d/2+beta} surface factor,
    i.e. w(s) = s^(d/2+beta) exp(-t eta(s)).
    """
    if r <= 0:
        raise DomainError("r must be > 0 (use the origin formula at r = 0)")
    if not math.isfinite(r):
        raise DomainError("r must be finite")
    nu = 0.5 * d - 1.0
    res = oscillatory_bessel_integral(weight, nu, r, tol=tol)
    pref = (2.0 * math.pi) ** (-0.5 * d) * r ** (1.0 - 0.5 * d)
    return Approximation(value=pref * res.value, est_error=pref * res.est_error,
                         method="oracle", diagnostics=res.diagnostics)


def stable_weight(d: int, alpha: float, beta: float, t: float):
    """Weight s^(d/2+beta) exp(-t s^alpha) of the stable kernel."""
    p = 0.5 * d + beta

    def w(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        pos = s > 0
        sp = s[pos]
        out[pos] = np.exp(p * np.log(sp) - t * sp ** alpha)
        if p == 0:
            out[~pos] = 1.0
        return out

    return w


def symbol_weight(sym, d: int, beta: float, t: float):
    """Weight s^(d/2+beta) exp(-t eta(s)) for a radial symbol object."""
    p = 0.5 * d + beta

    def w(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        pos = s > 0
        sp = s[pos]
        out[pos] = sp ** p * np.exp(-t * sym.eta(sp))
        if p == 0:
            out[~pos] = math.exp(-t * sym.eta_at_zero)
        return out

    return w


def stable_oracle(spec, r: float, tol: float = 1e-11) -> Approximation:
    """Oracle value of the stable kernel (or its fractional derivative)."""
    return hankel_oracle(stable_weight(spec.d, spec.alpha, spec.beta, spec.t),
                         spec.d, r, tol=tol)


def symbol_oracle(sym, d: int, beta: float, t: float, r: float,
                  tol: float = 1e-11) -> Approximation:
    """Oracle value of the kernel of a general radial symbol."""
    return hankel_oracle(symbol_weight(sym, d, beta, t), d, r, tol=tol)


def normalization_check(spec, r_split: float = 40.0) -> float:
    """Total mass omega_{d-1} int_0^inf K(r) r^(d-1) dr of a density.

    Only meaningful for beta = 0 (the kernel is then a probability
    density and the result should be 1).  Inside R = r_split the r- and
    s-integrals swap, int_0^R r^(nu+1) J_nu(r s) dr = R^(nu+1) J_(nu+1)(R s)/s,
    and one integration by parts back to nu = d/2 - 1 (DLMF 10.6) leaves

        omega_{d-1} R^(d-2) [delta_{d,2}/(2 pi) + (d-2) H_-2 - alpha H_(alpha-2)]

    with H_b the ``hankel_oracle`` value at R of ``stable_weight(d, alpha,
    b, 1)``.  The far tail comes from the large-r residue expansion.
    """
    from .stable_kernel import KernelSpec, stable_series

    if spec.beta != 0:
        raise ValueError("normalization applies to beta = 0 densities")
    d, alpha = spec.d, spec.alpha
    omega = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)

    def h(b):
        weight = stable_weight(d, alpha, b, 1.0)
        return hankel_oracle(weight, d, r_split, tol=1e-10).value

    # the boundary term at s = 0 is nonzero only at d = 2 (nu = 0)
    inner = 1.0 / (2.0 * math.pi) if d == 2 else (d - 2) * h(-2.0)
    total = omega * r_split ** (d - 2) * (inner - alpha * h(alpha - 2.0))
    # each kept residue term c_n r^(-d-n*alpha) past the vanished n = 0 one
    # integrates against omega r^(d-1) to omega c_n R^(-n alpha)/(n alpha);
    # at alpha = 2 the tail is Gaussian, ~e^(-R^2/4): nothing to add
    if alpha < 2.0:
        terms = stable_series(KernelSpec(d, alpha), r_split).diagnostics["terms"]
        total += omega * sum(c.coefficient * r_split ** -(c.n * alpha)
                             / (c.n * alpha) for c in terms[1:])
    return total
