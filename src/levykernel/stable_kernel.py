"""Heat kernels of isotropic stable processes and their fractional derivatives.

The kernel with index alpha in (0, 2), dimension d >= 2, and derivative
order beta >= 0 is the radial function whose Fourier transform is
|xi|^beta exp(-t |xi|^alpha).  Four evaluation routes live here:

* ``stable_mb``       -- inverse-Mellin (vertical line) contour integral;
* ``stable_series``   -- large-r residue expansion (asymptotic series);
* ``small_r_series``  -- small-r expansion from right-shifted residues;
* closed forms at alpha = 1 (Cauchy/Poisson) and alpha = 2 (Gaussian).

Everything is reduced to t = 1 first through the exact self-similarity
kernel(t, r) = t^(-(d+beta)/alpha) * kernel(1, t^(-1/alpha) r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle as _oracle
from .errors import DomainError
from .mellin import (ContourSpec, line_plan, power_line_integral,
                     remember_points)
from .specfun import log_gamma, reciprocal_gamma

__all__ = [
    "KernelSpec",
    "Approximation",
    "SeriesTerm",
    "scaling_reduce",
    "gaussian_kernel",
    "poisson_kernel",
    "kernel_at_origin",
    "stable_mb",
    "stable_series",
    "leading_term",
    "small_r_series",
    "envelope_ratio",
    "sum_symbol_envelope",
    "sum_symbol_envelope_check",
    "evaluate",
    "admissible_strip",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class KernelSpec:
    """One kernel: dimension, stability index, derivative order, time."""

    d: int
    alpha: float
    beta: float = 0.0
    t: float = 1.0

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("dimension d must be >= 2")
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError("alpha must lie in (0, 2]")
        if self.beta < 0.0:
            raise ValueError("beta must be >= 0")
        if not self.t > 0.0:
            raise ValueError("t must be > 0")


@dataclass
class Approximation:
    """A computed value with an a-posteriori error estimate."""

    value: float
    est_error: float
    method: str
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SeriesTerm:
    """One term of the large-r residue expansion at t = 1.

    ``coefficient`` multiplies r^(-exponent) and already contains the
    pi^(-d/2) normalization; ``vanished`` marks indices where the
    reciprocal gamma factor has a zero and the residue drops out.
    """

    n: int
    exponent: float
    coefficient: float
    vanished: bool


def scaling_reduce(spec: KernelSpec, r: float):
    """Reduce to unit time: kernel(spec, r) = prefactor * kernel(unit, r').

    Returns (unit_spec, r_scaled, prefactor) with
    r' = t^(-1/alpha) r and prefactor = t^(-(d+beta)/alpha); exact.
    """
    if spec.t == 1.0:
        return spec, float(r), 1.0
    s = spec.t ** (-1.0 / spec.alpha)
    pref = spec.t ** (-(spec.d + spec.beta) / spec.alpha)
    unit = KernelSpec(d=spec.d, alpha=spec.alpha, beta=spec.beta, t=1.0)
    return unit, float(r) * s, pref


def gaussian_kernel(d: int, t: float, r):
    """(4 pi t)^(-d/2) exp(-r^2 / 4t), the alpha = 2 kernel."""
    r = np.asarray(r, dtype=float)
    out = (4.0 * math.pi * t) ** (-0.5 * d) * np.exp(-r * r / (4.0 * t))
    return float(out) if out.ndim == 0 else out


def poisson_kernel(d: int, t: float, r):
    """Gamma((d+1)/2) pi^(-(d+1)/2) t (t^2 + r^2)^(-(d+1)/2), alpha = 1."""
    r = np.asarray(r, dtype=float)
    g = math.gamma(0.5 * (d + 1))
    out = g * math.pi ** (-0.5 * (d + 1)) * t * (t * t + r * r) ** (-0.5 * (d + 1))
    return float(out) if out.ndim == 0 else out


def kernel_at_origin(spec: KernelSpec) -> float:
    """Kernel value at r = 0 from the radial Fourier integral:

        (2 pi)^-d * omega_{d-1} * Gamma((d+beta)/alpha)/alpha * t^(-(d+beta)/alpha)
    """
    d, a, b = spec.d, spec.alpha, spec.beta
    omega = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
    return ((2.0 * math.pi) ** (-d) * omega * math.gamma((d + b) / a) / a
            * spec.t ** (-(d + b) / a))


def admissible_strip(d: int, beta: float):
    """Abscissa strip of the contour representation: ((d-1)/2 + beta, d + beta)."""
    return (0.5 * (d - 1) + beta, float(d) + beta)


def _mb_log_factor(d, alpha, beta):
    """log of the r-independent part of the contour integrand:
    Gamma(z/a) Gamma((d+b-z)/2) 2^(b-z) / Gamma((z-b)/2)."""

    @remember_points
    def log_g(z):
        z = np.asarray(z, dtype=np.complex128)
        return (log_gamma(z / alpha) + log_gamma(0.5 * (d + beta - z))
                - log_gamma(0.5 * (z - beta)) + (beta - z) * _LN2)

    return log_g


def stable_mb(spec: KernelSpec, r, contour: ContourSpec | None = None,
              tol: float = 1e-9):
    """Kernel value by the vertical-line contour integral

        t^(-(d+b)/a)/(a pi^(d/2)) * (1/2 pi i) *
        int_(c) G(z) (t^(-1/a) r)^(-d-b+z) dz,
        G(z) = Gamma(z/a) Gamma((d+b-z)/2) 2^(b-z) / Gamma((z-b)/2),

    with c inside ((d-1)/2 + b, d + b).  ``mellin.line_plan`` picks the
    abscissa, truncation height and node count.

    ``r`` is a scalar (one Approximation back) or a 1-D array (a list of
    Approximations, one per point).  G does not depend on r, and on the
    line |r'^(z-d-b)| = r'^(c-d-b) at every height, so the truncation
    height, the decay check, the node count and the tail bound (up to
    that factor) are shared by the whole grid and G is sampled once per
    node set.  Each r refines until it converges, as it would alone: a
    grid returns the same values as point-by-point calls.
    """
    if not 0.0 < spec.alpha < 2.0:
        raise DomainError("contour evaluation requires 0 < alpha < 2")
    rs = np.asarray(r, dtype=float)
    if rs.ndim > 1:
        raise ValueError("r must be a scalar or a 1-D array")
    if not np.all(rs > 0.0):
        raise DomainError("r must be > 0 (use kernel_at_origin at r = 0)")
    if not np.all(np.isfinite(rs)):
        raise DomainError("r must be finite")
    unit, r_scale, pref = scaling_reduce(spec, 1.0)
    d, a, b = unit.d, unit.alpha, unit.beta
    log_g = _mb_log_factor(d, a, b)
    plan = line_plan(log_g, admissible_strip(d, b), contour, tol)
    lines = power_line_integral(log_g, np.log(np.atleast_1d(rs) * r_scale),
                                d + b, plan, tol=tol)
    scale = pref / (a * math.pi ** (0.5 * d))
    out = [Approximation(
        value=scale * res.value.real,
        est_error=scale * (res.tail_bound + res.discretization_estimate),
        method="mb_contour",
        diagnostics={"nodes_used": res.nodes_used,
                     "truncation_height": plan.half_height,
                     "abscissa": plan.abscissa, "imag_ratio": abs(res.value.imag)
                     / max(abs(res.value), 1e-300)})
        for res in lines]
    return out if rs.ndim else out[0]


def _series_coefficient(d: int, alpha: float, beta: float, n: int):
    """Full coefficient of r^-(d+beta+n*alpha) at t = 1 (includes pi^(-d/2)).

    This is the residue of the contour integrand at z = -n*alpha; the
    reciprocal-gamma factor zeroes it exactly when (n*alpha + beta)/2 is
    a nonnegative integer.
    """
    rg = reciprocal_gamma(-(n * alpha + beta) / 2.0)
    rg = rg.real if isinstance(rg, complex) else rg
    if rg == 0.0:
        return 0.0, True
    g = math.exp(log_gamma(complex(0.5 * (d + beta + n * alpha))).real)
    c = ((-1.0) ** n / math.factorial(n) * g * 2.0 ** (beta + n * alpha)
         * rg * math.pi ** (-0.5 * d))
    return c, False


def stable_series(spec: KernelSpec, r: float, n_terms: int | None = None,
                  max_terms: int = 40) -> Approximation:
    """Large-r residue expansion.  Terms decay like r^(-d-beta-n*alpha).

    With ``n_terms`` given, keeps that many non-vanished terms (and sets
    a divergence flag if they grow before the count is reached);
    otherwise stops at the optimal truncation point, just before the
    first term whose magnitude exceeds its predecessor.  The error
    estimate is the magnitude of the first omitted non-vanished term.
    """
    if not 0.0 < spec.alpha < 2.0:
        raise DomainError("the residue expansion requires 0 < alpha < 2")
    if not r > 0.0:
        raise DomainError("r must be > 0")
    unit, rp, pref = scaling_reduce(spec, r)
    d, a, b = unit.d, unit.alpha, unit.beta

    terms: list[SeriesTerm] = []
    kept_values: list[float] = []
    value = 0.0
    divergence = False
    next_term_value = None
    n = 0
    while n <= max_terms:
        coef, vanished = _series_coefficient(d, a, b, n)
        exponent = d + b + n * a
        term = SeriesTerm(n=n, exponent=exponent, coefficient=coef,
                          vanished=vanished)
        if vanished:
            terms.append(term)
            n += 1
            continue
        tv = coef * rp ** (-exponent)
        if n_terms is None:
            if kept_values and abs(tv) >= abs(kept_values[-1]):
                next_term_value = tv
                break
        else:
            if len(kept_values) == n_terms:
                next_term_value = tv
                break
            if kept_values and abs(tv) >= abs(kept_values[-1]):
                divergence = True
        terms.append(term)
        kept_values.append(tv)
        value += tv
        n += 1
    if next_term_value is None:
        next_term_value = kept_values[-1] if kept_values else 0.0
    return Approximation(
        value=pref * value, est_error=abs(pref * next_term_value),
        method="residue_series",
        diagnostics={"terms": terms, "terms_used": len(kept_values),
                     "divergence_warning": divergence,
                     "r_scaled": rp, "prefactor": pref})


def leading_term(spec: KernelSpec) -> SeriesTerm:
    """First non-vanished term of the residue expansion (t = 1 normalized).

    Decay exponent is d + beta for beta not an even integer, and
    d + beta + alpha for beta in {0, 2, 4, ...}.
    """
    if not 0.0 < spec.alpha < 2.0:
        raise DomainError("leading term requires 0 < alpha < 2")
    d, a, b = spec.d, spec.alpha, spec.beta
    for n in range(0, 64):
        coef, vanished = _series_coefficient(d, a, b, n)
        if not vanished:
            return SeriesTerm(n=n, exponent=d + b + n * a, coefficient=coef,
                              vanished=False)
    raise DomainError("no non-vanished residue found (is alpha = 2?)")


def _kummer_series(a0: float, b0: float, x: float, tol: float = 1e-17,
                   max_terms: int = 600) -> float:
    """1F1(a0; b0; x) by direct summation; terminates when a0 is a
    nonpositive integer (the cases used here)."""
    term = 1.0
    total = 1.0
    for m in range(max_terms):
        term *= (a0 + m) * x / ((b0 + m) * (m + 1.0))
        if term == 0.0:
            break
        total += term
        if abs(term) <= tol * abs(total):
            break
    return total


def small_r_series(spec: KernelSpec, r: float, tol: float = 1e-16,
                   max_terms: int = 400) -> Approximation:
    """Small-r expansion from right-shifted residues:

        2^(1-d) pi^(-d/2) / alpha *
        sum_m (-1)^m/m! Gamma((d+beta+2m)/alpha) / Gamma(d/2+m) (r'/2)^(2m)

    Converges for all r when alpha > 1, for r' < 1 when alpha = 1, and
    diverges for alpha < 1 (DomainError; use the oracle there).  At
    alpha = 2 the sum is carried out in exponentially factored form, so
    no alternating cancellation occurs; for beta = 0 it collapses to
    the Gaussian closed form.  r must be finite and >= 0.
    """
    if not 0.0 <= r < math.inf:
        raise DomainError(f"the small-r expansion needs 0 <= r < inf, got {r}")
    if spec.alpha < 1.0:
        raise DomainError("the small-r expansion diverges for alpha < 1")
    unit, rp, pref = scaling_reduce(spec, r)
    d, a, b = unit.d, unit.alpha, unit.beta
    if a == 1.0 and rp >= 0.95:
        raise DomainError(
            "small-r expansion at alpha = 1 only converges for t^(-1/alpha) r < 1")
    base = 2.0 ** (1 - d) * math.pi ** (-0.5 * d) / a
    x = (0.5 * rp) ** 2
    if a == 2.0:
        # sum_m (-1)^m/m! G((d+b)/2+m)/G(d/2+m) x^m
        #   = G((d+b)/2)/G(d/2) e^-x 1F1(-b/2; d/2; x)
        front = math.exp(log_gamma(complex(0.5 * (d + b))).real
                         - log_gamma(complex(0.5 * d)).real)
        total = front * math.exp(-x) * _kummer_series(-0.5 * b, 0.5 * d, x)
        return Approximation(
            value=pref * base * total, est_error=abs(pref * base * total) * 1e-15,
            method="small_r_series",
            diagnostics={"terms_used": -1, "factored": True, "r_scaled": rp})

    total = 0.0
    term = None
    max_mag = 0.0
    for m in range(max_terms):
        rg = reciprocal_gamma(0.5 * d + m)
        rg = rg.real if isinstance(rg, complex) else rg
        try:
            g = math.exp(log_gamma(complex((d + b + 2 * m) / a)).real)
            term = (-1.0) ** m / math.factorial(m) * g * rg * x ** m
        except OverflowError as exc:
            raise DomainError(f"small-r expansion overflows at r' = {rp} "
                              "(use the contour route)") from exc
        total += term
        max_mag = max(max_mag, abs(term))
        if m >= 1 and abs(term) <= tol * max(abs(total), 1e-300):
            break
    else:
        raise DomainError("small-r expansion did not converge "
                          f"within {max_terms} terms (r' = {rp})")
    est = (abs(term) + max_mag * 1e-16) * base * pref
    return Approximation(
        value=pref * base * total, est_error=est, method="small_r_series",
        diagnostics={"terms_used": m + 1, "factored": False, "r_scaled": rp,
                     "cancellation": max_mag / max(abs(total), 1e-300)})


def evaluate(spec: KernelSpec, r: float, method: str = "auto",
             tol: float = 1e-9, contour: ContourSpec | None = None) -> Approximation:
    """Evaluate one kernel by the requested route.

    ``auto`` picks a closed form when one exists, the small-r expansion
    (or the oracle, when alpha < 1) for t^(-1/alpha) r < 1/2, and the
    contour integral otherwise.  r must be finite and >= 0; ``auto``
    answers r = 0 with ``kernel_at_origin``.
    """
    if not 0.0 <= r < math.inf:
        raise DomainError(f"r must be finite and >= 0, got {r}")
    d, a, b, t = spec.d, spec.alpha, spec.beta, spec.t
    if method == "closed":
        if a == 2.0 and b == 0.0:
            v = gaussian_kernel(d, t, r)
        elif a == 1.0 and b == 0.0:
            v = poisson_kernel(d, t, r)
        else:
            raise DomainError("no closed form for this spec "
                              "(need alpha in {1, 2} and beta = 0)")
        return Approximation(value=v, est_error=abs(v) * 1e-15,
                             method="closed_form", diagnostics={})
    if method == "mb":
        return stable_mb(spec, r, contour=contour, tol=tol)
    if method == "series":
        return stable_series(spec, r)
    if method == "small-r":
        return small_r_series(spec, r)
    if method == "oracle":
        res = _oracle.stable_oracle(spec, r, tol=min(tol, 1e-10))
        return Approximation(value=res.value, est_error=res.est_error,
                             method="oracle", diagnostics=res.diagnostics)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")

    if r == 0.0:
        v = kernel_at_origin(spec)
        return Approximation(value=v, est_error=abs(v) * 1e-15,
                             method="closed_form", diagnostics={"origin": True})
    if a == 2.0:
        if b == 0.0:
            v = gaussian_kernel(d, t, r)
            return Approximation(value=v, est_error=abs(v) * 1e-15,
                                 method="closed_form", diagnostics={})
        return small_r_series(spec, r)
    if a == 1.0 and b == 0.0:
        v = poisson_kernel(d, t, r)
        return Approximation(value=v, est_error=abs(v) * 1e-15,
                             method="closed_form", diagnostics={})
    rp = spec.t ** (-1.0 / a) * r
    if rp < 0.5:
        if a >= 1.0:
            return small_r_series(spec, r)
        res = _oracle.stable_oracle(spec, r, tol=min(tol, 1e-10))
        return Approximation(value=res.value, est_error=res.est_error,
                             method="oracle", diagnostics=res.diagnostics)
    return stable_mb(spec, r, contour=contour, tol=tol)


def _fractional_envelope(spec: KernelSpec, r):
    """Comparison envelope by beta-parity.

    beta = 0: t^(-d/a) (1 + t^(-1/a) r)^(-(d+a));  beta not even:
    min(t^(-(d+b)/a), r^(-(d+b)));  beta even > 0:
    min(t^(-(d+b)/a), t r^(-(d+b+a))).
    """
    d, a, b, t = spec.d, spec.alpha, spec.beta, spec.t
    r = np.asarray(r, dtype=float)
    if b == 0.0:
        return t ** (-d / a) * (1.0 + t ** (-1.0 / a) * r) ** (-(d + a))
    peak = t ** (-(d + b) / a)
    with np.errstate(divide="ignore"):
        if abs(b / 2.0 - round(b / 2.0)) < 1e-9:
            tail = t * r ** (-(d + b + a))
        else:
            tail = r ** (-(d + b))
    return np.minimum(peak, tail)


def envelope_ratio(spec: KernelSpec, r_grid, values=None) -> dict:
    """Ratios |kernel| / envelope over a grid; the spread max/min being
    bounded is the two-sided comparability statement.

    For beta = 0 the kernel is positive and the plain ratio is used.
    For beta > 0 the kernel changes sign once, so magnitudes are
    compared and the ratio dips toward 0 near the crossing; the upper
    ratio is still the meaningful bound.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if values is None:
        values = np.array([evaluate(spec, float(r)).value for r in r_grid])
    env = _fractional_envelope(spec, r_grid)
    if spec.beta == 0.0:
        ratios = values / env
    else:
        ratios = np.abs(values) / env
    return {"min_ratio": float(np.min(ratios)),
            "max_ratio": float(np.max(ratios)),
            "positive": bool(np.all(values > 0))}


def sum_symbol_envelope(d: int, a: float, b: float, t: float, r):
    """Upper envelope for the kernel of the two-power symbol r^a + r^b:
    the time scale follows the upper exponent for t <= 1 and the lower
    one for t >= 1, the spatial decay always follows the lower one."""
    idx = b if t <= 1.0 else a
    r = np.asarray(r, dtype=float)
    return t ** (-d / idx) * (1.0 + t ** (-1.0 / idx) * r) ** (-(d + a))


def sum_symbol_envelope_check(d: int, a: float, b: float, t: float, r_grid,
                              kernel_values=None, tol: float = 1e-9) -> dict:
    """Upper-bound check for the kernel of the two-power symbol r^a + r^b
    (0 < a < b < 2, beta = 0):

        K_t(r) <= C t^(-d/b) (1 + t^(-1/b) r)^(-(d+a))   for t <= 1,
        K_t(r) <= C t^(-d/a) (1 + t^(-1/a) r)^(-(d+a))   for t >= 1.

    Returns the empirical constant (max ratio) over the grid.
    """
    if not 0.0 < a < b < 2.0:
        raise ValueError("need 0 < a < b < 2")
    r_grid = np.asarray(r_grid, dtype=float)
    if kernel_values is None:
        p = 0.5 * d

        def w(s):
            s = np.asarray(s, dtype=float)
            out = np.zeros_like(s)
            pos = s > 0
            sp = s[pos]
            out[pos] = sp ** p * np.exp(-t * (sp ** a + sp ** b))
            return out

        kernel_values = np.array(
            [_oracle.hankel_oracle(w, d, float(r), tol=tol).value
             if r > 0 else _sum_symbol_origin(d, a, b, t)
             for r in r_grid])
    env = sum_symbol_envelope(d, a, b, t, r_grid)
    ratios = np.asarray(kernel_values) / env
    finite = np.all(np.isfinite(ratios))
    return {"holds": bool(finite and np.all(np.asarray(kernel_values) > 0)),
            "max_ratio": float(np.max(ratios)),
            "min_ratio": float(np.min(ratios))}


def _sum_symbol_origin(d: int, a: float, b: float, t: float) -> float:
    """Kernel of r^a + r^b at the origin by radial quadrature."""
    from scipy import integrate

    omega = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
    val, _ = integrate.quad(
        lambda s: s ** (d - 1) * math.exp(-t * (s ** a + s ** b)),
        0.0, np.inf, limit=200)
    return (2.0 * math.pi) ** (-d) * omega * val
