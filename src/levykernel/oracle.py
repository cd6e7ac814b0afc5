"""Independent brute-force kernel evaluation by oscillatory quadrature.

Every kernel in this package reduces, in polar coordinates, to

    K = (2 pi)^(-d/2) r^(1 - d/2) * int_0^inf J_{d/2-1}(r s) w(s) ds

with a positive weight w.  This module evaluates that integral head-on:
adaptive quadrature up to the first scaled Bessel zero, panel integrals
between consecutive zeros, and iterated-averaging (Euler-transform)
acceleration of the alternating panel sums.  It shares nothing with the
contour-integral evaluators except the Bessel function itself, so it
serves as the ground truth they are judged against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .errors import DomainError, NonConvergent
from .specfun import bessel_j, bessel_j_derivative

__all__ = [
    "OscillatoryPlan",
    "bessel_zeros",
    "oscillatory_bessel_integral",
    "hankel_oracle",
    "stable_weight",
    "symbol_weight",
    "stable_oracle",
    "symbol_oracle",
    "normalization_check",
]


@dataclass
class OscillatoryPlan:
    """Between-zeros integration plan for one (nu, r) pair."""

    nu: float
    scale: float
    zeros: np.ndarray = field(default_factory=lambda: np.empty(0))
    depth: int = 3

    def validate(self):
        if self.zeros.size > 1 and not np.all(np.diff(self.zeros) > 0):
            raise ValueError("Bessel zeros must be strictly increasing")
        if self.depth < 3:
            raise ValueError("acceleration depth must be >= 3")


def bessel_zeros(nu: float, n: int, offset: int = 0) -> np.ndarray:
    """First zeros of J_nu after index ``offset``, by McMahon's expansion
    polished with Newton steps on the Bessel evaluation itself."""
    if n <= 0:
        return np.empty(0)
    k = np.arange(offset + 1, offset + n + 1, dtype=float)
    mu = 4.0 * nu * nu
    b = (k + 0.5 * nu - 0.25) * math.pi
    e = 8.0 * b
    x = (b - (mu - 1.0) / e
         - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * e ** 3)
         - 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0)
         / (15.0 * e ** 5))
    # Newton polish; the McMahon start degrades for the first zeros of
    # larger orders, so iterate to stationarity with a capped step
    for _ in range(12):
        step = bessel_j(nu, x) / bessel_j_derivative(nu, x)
        step = np.clip(step, -1.0, 1.0)
        x = x - step
        if np.max(np.abs(step)) < 1e-13:
            break
    return x


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(order: int):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def _panel_integrals(weight, nu, scale, edges, order=12):
    """Gauss-Legendre integral of J_nu(scale*s) * w(s) over each panel."""
    x_gl, w_gl = _gl(order)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfw = 0.5 * (edges[1:] - edges[:-1])
    s = mids[:, None] + halfw[:, None] * x_gl[None, :]
    vals = bessel_j(nu, scale * s.ravel()).reshape(s.shape) * weight(s)
    return (vals * w_gl[None, :]).sum(axis=1) * halfw


def _accelerate(partial_sums: np.ndarray, max_depth: int = 12):
    """Iterated averaging of a tail of the partial-sum sequence.

    Returns (value, error_estimate, depth_used).  The averaging column
    with the smallest last difference wins; for alternating sequences
    this upgrades linear convergence to near-exponential.
    """
    s = np.asarray(partial_sums, dtype=float)
    if s.size == 1:
        return float(s[-1]), math.inf, 0
    tail = s[-min(s.size, 2 * max_depth + 6):]
    best_val = tail[-1]
    best_err = abs(tail[-1] - tail[-2])
    cur = tail
    depth_used = 0
    prev_last = tail[-1]
    for depth in range(1, min(max_depth, tail.size - 1) + 1):
        cur = 0.5 * (cur[1:] + cur[:-1])
        diff = abs(cur[-1] - prev_last)
        if diff < best_err:
            best_err = diff
            best_val = cur[-1]
            depth_used = depth
        prev_last = cur[-1]
    return float(best_val), float(best_err), depth_used


def _support_radius(weight, s_start: float, rel_floor: float = 1e-21):
    """Radius beyond which the weight is negligible relative to its peak.

    Returns inf when no decay is detected within the scan cap (the
    integral is then handled as conditionally convergent).
    """
    grid = np.geomspace(max(s_start, 1e-6) + 1e-12, 1e4, 200)
    wmax = float(np.max(np.abs(weight(grid))))
    if wmax == 0.0:
        return max(s_start, 1.0)
    s = max(1.0, s_start)
    for _ in range(60):
        if abs(float(weight(np.array([s]))[0])) < rel_floor * wmax:
            return s
        s *= 1.5
    return math.inf


def _head_quad(weight, nu, scale, a, b):
    def f(s):
        return bessel_j(nu, scale * s) * float(weight(np.array([s]))[0])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=integrate.IntegrationWarning)
        val, err = integrate.quad(f, a, b, epsabs=1e-300, epsrel=1e-12,
                                  limit=300)
    return val, err


def oscillatory_bessel_integral(weight, nu: float, scale: float,
                                s_start: float = 0.0, tol: float = 1e-11,
                                order: int = 12, max_panels: int = 300_000):
    """int_{s_start}^inf J_nu(scale * s) w(s) ds with panel acceleration.

    Returns (value, error_estimate, plan).  Requires scale > 0 and a
    weight that either decays (support detected) or leaves the panel
    sums alternating so acceleration applies.
    """
    if scale <= 0:
        raise ValueError("scale must be > 0")
    weight = _vectorize_weight(weight)
    s_sup = _support_radius(weight, s_start)

    # Non-oscillatory regime: the weight dies before the first Bessel arch.
    first_zero = bessel_zeros(nu, 1)[0]
    if np.isfinite(s_sup) and first_zero / scale >= s_sup:
        val, err = _head_quad(weight, nu, scale, s_start, s_sup)
        plan = OscillatoryPlan(nu=nu, scale=scale)
        return val, err, plan

    # Index of the first zero beyond scale * s_start.
    skip = 0
    if s_start > 0:
        approx = int(max(0.0, (scale * s_start / math.pi) - nu / 2 - 2))
        zs = bessel_zeros(nu, approx + 8)
        skip = int(np.searchsorted(zs, scale * s_start, side="right"))
        while skip >= zs.size:
            zs = np.concatenate([zs, bessel_zeros(nu, 64, offset=zs.size)])
            skip = int(np.searchsorted(zs, scale * s_start, side="right"))

    head_end_zero = bessel_zeros(nu, 1, offset=skip)[0]
    head_val, head_err = _head_quad(weight, nu, scale, s_start,
                                    head_end_zero / scale)

    batch = 64
    all_zeros = [np.array([head_end_zero])]
    panel_vals: list[np.ndarray] = []
    partial: list[float] = []
    running = 0.0
    est = math.inf
    prev_est = None
    value = head_val
    depth = 3
    n_panels = 0
    offset = skip + 1  # index of the zero sitting at the current left edge
    left_edge = head_end_zero
    converged = False
    while n_panels < max_panels:
        zs = bessel_zeros(nu, batch, offset=offset)
        offset += batch
        all_zeros.append(zs)
        edges = np.concatenate([[left_edge], zs])
        left_edge = zs[-1]
        b = _panel_integrals(weight, nu, scale, edges / scale, order=order)
        panel_vals.append(b)
        csum = running + np.cumsum(b)
        running = float(csum[-1])
        partial.extend(csum.tolist())
        n_panels += b.size
        acc, acc_err, depth = _accelerate(np.asarray(partial))
        value = head_val + acc
        est = head_err + acc_err
        scale_ref = max(abs(value), 1e-300)
        if prev_est is not None and acc_err <= tol * scale_ref \
                and abs(value - prev_est) <= 10 * tol * scale_ref:
            converged = True
            break
        # Pure truncation exit: the remaining weight is negligible.
        if np.isfinite(s_sup) and left_edge / scale >= s_sup \
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
    plan = OscillatoryPlan(nu=nu, scale=scale,
                           zeros=np.concatenate(all_zeros),
                           depth=max(3, depth))
    plan.validate()
    return value, est, plan


def _check_alternation(panel_vals):
    """Panel integrals must alternate in sign beyond the first oscillation."""
    b = np.concatenate(panel_vals) if panel_vals else np.empty(0)
    big = np.abs(b) > 1e-280
    b = b[big]
    if b.size < 4:
        return
    signs = np.sign(b[2:])
    bad = signs[1:] * signs[:-1] > 0
    if np.any(bad):
        raise NonConvergent(
            "between-zeros panel sums do not alternate; acceleration "
            "assumptions violated (is the weight nonnegative?)")


def _vectorize_weight(weight):
    probe = weight(np.array([0.5, 1.0]))
    if np.shape(probe) != (2,):
        return lambda s: np.asarray([weight(float(v)) for v in np.ravel(s)],
                                    dtype=float).reshape(np.shape(s))
    return weight


@dataclass
class OracleResult:
    value: float
    est_error: float
    method: str = "oracle"
    diagnostics: dict = field(default_factory=dict)


def hankel_oracle(weight, d: int, r: float, tol: float = 1e-11) -> OracleResult:
    """(2 pi)^(-d/2) r^(1-d/2) * int_0^inf J_{d/2-1}(r s) w(s) ds.

    ``weight`` must already include the s^{d/2+beta} surface factor,
    i.e. w(s) = s^(d/2+beta) exp(-t eta(s)).
    """
    if r <= 0:
        raise ValueError("r must be > 0 (use the origin formula at r = 0)")
    if not math.isfinite(r):
        raise DomainError("r must be finite")
    nu = 0.5 * d - 1.0
    val, err, plan = oscillatory_bessel_integral(weight, nu, r, tol=tol)
    pref = (2.0 * math.pi) ** (-0.5 * d) * r ** (1.0 - 0.5 * d)
    return OracleResult(value=pref * val, est_error=pref * err,
                        diagnostics={"panels": int(plan.zeros.size),
                                     "depth": plan.depth})


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


def stable_oracle(spec, r: float, tol: float = 1e-11) -> OracleResult:
    """Oracle value of the stable kernel (or its fractional derivative)."""
    return hankel_oracle(stable_weight(spec.d, spec.alpha, spec.beta, spec.t),
                         spec.d, r, tol=tol)


def symbol_oracle(sym, d: int, beta: float, t: float, r: float,
                  tol: float = 1e-11) -> OracleResult:
    """Oracle value of the kernel of a general radial symbol."""
    return hankel_oracle(symbol_weight(sym, d, beta, t), d, r, tol=tol)


def normalization_check(spec, r_split: float = 40.0) -> float:
    """Total mass omega_{d-1} int_0^inf K(r) r^(d-1) dr of a density.

    Only meaningful for beta = 0 (the kernel is then a probability
    density and the result should be 1).  Oracle values are integrated
    on [0, r_split] by composite Gauss-Legendre; the far tail is added
    from the large-r residue expansion, whose term-by-term r-integral
    is elementary.
    """
    from .stable_kernel import KernelSpec, kernel_at_origin, stable_series

    if spec.beta != 0:
        raise ValueError("normalization applies to beta = 0 densities")
    unit = KernelSpec(d=spec.d, alpha=spec.alpha, beta=0.0, t=1.0)
    d = spec.d
    omega = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
    w = stable_weight(d, unit.alpha, 0.0, 1.0)

    x_gl, w_gl = _gl(24)
    total = 0.0
    edges = [0.0, 1.0, 5.0, 15.0, r_split]
    for a, b in zip(edges[:-1], edges[1:]):
        mid, halfw = 0.5 * (a + b), 0.5 * (b - a)
        for xi, wi in zip(x_gl, w_gl):
            ri = mid + halfw * xi
            if ri <= 0:
                ki = kernel_at_origin(unit)
            else:
                ki = hankel_oracle(w, d, ri, tol=1e-10).value
            total += wi * halfw * omega * ki * ri ** (d - 1)

    # analytic tail of the residue expansion: each c_n r^(-d-n*alpha)
    # integrates against omega r^(d-1) to omega c_n R^(-n alpha)/(n alpha).
    # At alpha = 2 the tail is Gaussian, ~e^(-R^2/4): nothing to add.
    if unit.alpha < 2.0:
        approx = stable_series(unit, r_split)
        for term in approx.diagnostics["terms"]:
            if term.vanished or term.n == 0:
                continue
            na = term.n * unit.alpha
            total += omega * term.coefficient * r_split ** (-na) / na
    return total
