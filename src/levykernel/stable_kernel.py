"""Heat kernels of isotropic stable processes and their fractional derivatives.

The kernel with index alpha in (0, 2), dimension d >= 2, and derivative
order beta >= 0 is the radial function whose Fourier transform is
|xi|^beta exp(-t |xi|^alpha).  Four evaluation routes live here:

* ``stable_mb``       -- inverse-Mellin (vertical line) contour integral;
* ``stable_series``   -- large-r residue expansion: asymptotic for
                         alpha >= 1, convergent for alpha < 1;
* ``small_r_series``  -- small-r expansion from right-shifted residues;
* closed forms at alpha = 1 (Cauchy/Poisson) and alpha = 2 (Gaussian).

Both series, ``leading_term`` and the far-field laws of ``radial_symbol``
read one residue generator, ``_residues``: large-r terms from the poles
z = -n*alpha of the contour integrand, small-r terms from z = d+beta+2m.

Everything is reduced to t = 1 first through the exact self-similarity
kernel(t, r) = t^(-(d+beta)/alpha) * kernel(1, t^(-1/alpha) r).
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import oracle as _oracle
from .errors import Approximation, DomainError, NoDecay, NonConvergent
from .mellin import _contour_route, _Line, _plan, _radii, fold_conjugates
from .specfun import POLE_TOL, log_gamma

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
    "evaluate",
    "admissible_strip",
]

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)
# the asymptotic (alpha >= 1) large-r series reads the poles n = 0 .. 40
_SERIES_MAX_TERMS = 40
# the convergent (alpha < 1) large-r series reads at most this many poles
_CONVERGENT_POLES = 400
# ``evaluate`` tries a convergent series whose terms peak at a pole
# n <= _LEFT_HUMP (large r) or m <= _RIGHT_HUMP (small r)
_LEFT_HUMP, _RIGHT_HUMP = 100, 120
_TINY = 2.0 ** -1022  # the least normal float
# small_r_series stops at a term this small against its sum
_SMALL_R_TOL = 1e-16
# rounding of a series, per unit of sum |term|: each coefficient is good to
# ~4.5 eps (``_residues``), plus the power and the running sum
_EPS = 2.0 ** -52
_SERIES_ROUNDING = 16.0 * _EPS
# the residue series has converged once a kept term is this small
# against its running sum: the remainder is below the last bit
_CONVERGED = 2.0 ** -53
# ``_kummer_series`` stops at a term this small against its sum, or here
_KUMMER_TOL, _KUMMER_MAX_TERMS = 1e-17, 600
_EVEN_TOL = 1e-9  # distance of beta/2 from an integer read as even beta
# unit kernels whose contour samples (per tol and abscissa) and whose
# residue terms are kept
_LINES_KEPT = 64


@dataclass(frozen=True)
class KernelSpec:
    """One kernel: dimension, stability index, derivative order, time."""

    d: int
    alpha: float
    beta: float = 0.0
    t: float = 1.0

    def __post_init__(self):
        _kernel_rule(self.d, self.alpha, self.beta, self.t)


def _kernel_rule(d, alpha, beta, t):
    """Raise ValueError unless d >= 2, 0 < alpha <= 2, 0 <= beta < inf
    and 0 < t < inf: ``KernelSpec``'s rule, checked in that order."""
    if not d >= 2:
        raise ValueError(f"dimension d must be >= 2, got {d}")
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be >= 0 and finite, got {beta}")
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be > 0 and finite, got {t}")


def _check_kernel(t, d=2, beta=0.0):
    """``KernelSpec``'s d, beta and t rule for a symbol, as DomainError."""
    try:
        _kernel_rule(d, 1.0, beta, t)
    except ValueError as exc:
        raise DomainError(str(exc)) from None


@dataclass(frozen=True)
class SeriesTerm:
    """One residue term of a series at t = 1, normalised as ``_residues``
    says: coefficient * r^-exponent for a large-r term.  ``vanished`` marks
    indices where the reciprocal gamma factor has a zero and the residue
    drops out.
    """

    n: int
    exponent: float
    coefficient: float
    vanished: bool


def _is_even_integer(beta: float) -> bool:
    return abs(0.5 * beta - round(0.5 * beta)) < _EVEN_TOL


def scaling_reduce(spec: KernelSpec, r: float):
    """Reduce to unit time: kernel(spec, r) = prefactor * kernel(unit, r').

    Returns (unit_spec, r_scaled, prefactor) with
    r' = t^(-1/alpha) r and prefactor = t^(-(d+beta)/alpha); exact.
    Raises DomainError where either power overflows a float.
    """
    if spec.t == 1.0:
        return spec, float(r), 1.0
    try:
        s = spec.t ** (-1.0 / spec.alpha)
        pref = spec.t ** (-(spec.d + spec.beta) / spec.alpha)
    except OverflowError as exc:
        raise DomainError(f"t = {spec.t} is too small: t^(-1/alpha) or "
                          "t^(-(d+beta)/alpha) overflows a float") from exc
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
    """Kernel value at r = 0, the m = 0 term of ``small_r_series`` (read
    from the same right residue, for any alpha):

        (2 pi)^-d * omega_{d-1} * Gamma((d+beta)/alpha)/alpha * t^(-(d+beta)/alpha)
    """
    unit, _, pref = scaling_reduce(spec, 0.0)
    (lead,) = _residues(unit.d, unit.alpha, unit.beta, "right", 1)
    return pref * _right_base(unit.d, unit.alpha) * lead.coefficient


def admissible_strip(d: int, beta: float):
    """Abscissa strip of the contour representation: ((d-1)/2 + beta, d + beta)."""
    return (0.5 * (d - 1) + beta, float(d) + beta)


def _mb_log_factor(d, alpha, beta):
    """log of the r-independent part of the contour integrand:
    Gamma(z/a) Gamma((d+b-z)/2) 2^(b-z) / Gamma((z-b)/2), its three
    gamma factors from one ``log_gamma`` call; with ``sizes``, also the
    sum of its four logs' moduli (``mellin._Line``)."""

    @fold_conjugates
    def log_g(z, sizes=False):
        z = np.asarray(z, dtype=np.complex128)
        up, down, over = log_gamma(np.stack(
            (z / alpha, 0.5 * (d + beta - z), 0.5 * (z - beta))))
        power = (beta - z) * _LN2
        lg = up + down - over + power
        if not sizes:
            return lg
        return lg, np.abs(up) + np.abs(down) + np.abs(over) + np.abs(power)

    return log_g


def stable_mb(spec: KernelSpec, r, abscissa: float | None = None,
              tol: float = 1e-9):
    """Kernel value by the vertical-line contour integral

        t^(-(d+b)/a)/(a pi^(d/2)) * (1/2 pi i) *
        int_(c) G(z) (t^(-1/a) r)^(-d-b+z) dz,
        G(z) = Gamma(z/a) Gamma((d+b-z)/2) 2^(b-z) / Gamma((z-b)/2),

    with c inside ((d-1)/2 + b, d + b): ``abscissa``, or the strip
    midpoint.  ``mellin._plan`` picks the truncation height and node
    count from G.

    ``r`` is a scalar (one Approximation back) or a 1-D array (a list of
    Approximations, one per point).  G does not depend on r, and on the
    line |r'^(z-d-b)| = r'^(c-d-b) at every height, so the truncation
    height, the decay check, the node count and the tail estimate (up to
    that factor) are shared by the whole grid and G is sampled once per
    node set.  G does not depend on t either: the samples are kept per
    unit spec (d, a, b), with tol and abscissa, for the last
    ``_LINES_KEPT`` of them, so G is sampled once per unit spec, not per
    call.  Each r refines until it converges, as it would alone: a grid
    returns the same values as point-by-point calls, whatever the store
    held before.
    """
    if not 0.0 < spec.alpha < 2.0:
        raise DomainError("contour evaluation requires 0 < alpha < 2")
    rs = _radii(r)
    unit, r_scale, pref = scaling_reduce(spec, 1.0)
    d, a, b = unit.d, unit.alpha, unit.beta
    return _contour_route(_stable_line(d, a, b, tol, abscissa), d + b, rs,
                          r_scale, pref / (a * math.pi ** (0.5 * d)), tol)


@functools.lru_cache(maxsize=_LINES_KEPT)
def _stable_line(d, alpha, beta, tol, abscissa):
    """The store of the unit kernel (d, alpha, beta)'s line
    (``mellin._Line``), with its log G, shared by every t and r: G is
    sampled once per node set of the plan, whatever the calls that read
    it."""
    log_g = _mb_log_factor(d, alpha, beta)
    return _Line(log_g, *_plan(log_g, admissible_strip(d, beta), abscissa,
                               tol))


def _residues(d: int, alpha: float, beta: float, family: str, limit: int | None):
    """One ``SeriesTerm`` per pole of G, the first ``limit`` poles of one
    family (all of them for None), each (-1)^n/n! Gamma(up)/Gamma(down)
    at real arguments by ``math.gamma``.  ``"left"``, z = -n*alpha: the
    large-r term at t = 1, 2^(beta+n*alpha) pi^(-d/2) included, zero
    where down = -(n*alpha+beta)/2 is within ``POLE_TOL`` of an integer,
    in log form past the float range (``_left_pole``).  ``"right"``,
    z = d+beta+2m: coefficient * (r/2)^(2m), exponent -2m, without the
    factor 2^(1-d) pi^(-d/2) / alpha; up >= down, so Gamma(up) leaves the
    float range first and raises OverflowError."""
    for n in itertools.count() if limit is None else range(limit):
        if family == "left":
            yield _left_pole(d, alpha, beta, n)[0]
            continue
        up, down = (d + beta + 2 * n) / alpha, 0.5 * d + n
        c = (-1) ** n / math.factorial(n) * math.gamma(up) / math.gamma(down)
        yield SeriesTerm(n, -2.0 * n, c, False)


@functools.lru_cache(maxsize=_LINES_KEPT)
def _right_terms(d, alpha, beta):
    """The right ``_residues`` of the unit kernel (d, alpha, beta), the
    small-r terms, shared by every t and r.  Each coefficient costs two
    gamma calls, which a series call would otherwise pay for every pole
    it reads.  The tuple ends at the first coefficient whose gamma factor
    overflows a float, by m = 171, where up >= m + 1."""
    terms = []
    with contextlib.suppress(OverflowError):
        for term in _residues(d, alpha, beta, "right", None):
            terms.append(term)
    return tuple(terms)


def _left_pole(d, alpha, beta, n):
    """The left pole n of ``_residues`` in two forms, as the tuple
    (term, c, sign, ln|c|, rounding): the ``SeriesTerm``; its float
    coefficient c, by ``math.gamma`` to ~4.5 eps, 0.0 where a factor of it
    leaves the normal floats (n > 170 or a gamma overflow); and the
    coefficient sign * exp(ln|c|) in log form, from ``math.lgamma``, with
    the rounding of ln|c| per eps (sign 0.0 where the residue vanishes).
    The term's coefficient is c, else the log form as a float: 0.0 below
    the float range, +-inf above it."""
    exponent = d + beta + n * alpha
    up, down = 0.5 * (d + beta + n * alpha), -(n * alpha + beta) / 2.0
    if abs(down - round(down)) <= POLE_TOL:
        return SeriesTerm(n, exponent, 0.0, True), 0.0, 0.0, -math.inf, 0.0
    logs = (math.lgamma(up), -math.lgamma(n + 1.0), -math.lgamma(down),
            (beta + n * alpha) * _LN2, -0.5 * d * _LNPI)
    ln_c = sum(logs)
    # Gamma(down) < 0 on (-2k-1, -2k)
    sign = (-1.0) ** n * (-1.0 if math.floor(down) % 2 else 1.0)
    c = 0.0
    if n <= 170:  # 1/n! is a normal float
        with contextlib.suppress(OverflowError):
            g_down = math.gamma(down)
            if abs(g_down) >= _TINY:
                c = ((-1) ** n / math.factorial(n) * math.gamma(up) / g_down
                     * 2.0 ** (beta + n * alpha) * math.pi ** (-0.5 * d))
        if not _TINY <= abs(c) < math.inf:
            c = 0.0
    coefficient = c or (sign * math.exp(ln_c) if ln_c < 709.0
                        else math.copysign(math.inf, sign))
    return (SeriesTerm(n, exponent, coefficient, False), c, sign, ln_c,
            8.0 + 2.0 * sum(map(abs, logs)))


@functools.lru_cache(maxsize=_LINES_KEPT)
def _left_poles(d, alpha, beta):
    """The unit kernel (d, alpha, beta)'s table of ``_left_pole``s, shared
    by every t and r: one slot, holding the poles 0 .. n - 1 as a tuple
    (``_more_left_poles`` grows it, up to ``_CONVERGENT_POLES``)."""
    return [()]


def _more_left_poles(d, alpha, beta, poles):
    """The left poles of the unit kernel (d, alpha, beta) past the
    ``poles`` 0 .. n - 1 read so far, up to pole n at least.  Below
    ``_CONVERGENT_POLES`` they come from the shared ``_left_poles``,
    grown a block of ``_SERIES_MAX_TERMS`` + 1 poles at a time: a grown
    tuple replaces the stored one, which nothing changes, so a thread
    that races another reads whole tables, and both build the same bits.
    Past them (``n_terms`` at alpha < 1) they are the caller's own list."""
    n = len(poles)
    if n >= _CONVERGENT_POLES:
        poles = poles if isinstance(poles, list) else list(poles)
        poles.extend(_left_pole(d, alpha, beta, k)
                     for k in range(n, n + _SERIES_MAX_TERMS + 1))
        return poles
    table = _left_poles(d, alpha, beta)
    poles = table[0]
    while len(poles) <= n:
        k = len(poles)
        poles += tuple(_left_pole(d, alpha, beta, j) for j in range(
            k, min(k + _SERIES_MAX_TERMS + 1, _CONVERGENT_POLES)))
        table[0] = poles
    return poles


def _concave_majorant(values):
    """The least concave majorant of the points (n, values[n]), as its
    values at each n and its falls hull[n] - hull[n+1], nondecreasing."""
    vertices = []
    for i, v in enumerate(values):
        while len(vertices) >= 2:
            i1, i2 = vertices[-2], vertices[-1]
            if ((values[i2] - values[i1]) * (i - i1)
                    > (v - values[i1]) * (i2 - i1)):
                break
            vertices.pop()
        vertices.append(i)
    hull, falls = [values[0]], []
    for i1, i2 in zip(vertices, vertices[1:]):
        fall = (values[i1] - values[i2]) / (i2 - i1)
        for i in range(i1 + 1, i2 + 1):
            hull.append(values[i1] - fall * (i - i1))
            falls.append(fall)
    return hull, falls


@functools.lru_cache(maxsize=2 * _LINES_KEPT)
def _envelope(d, alpha, beta, family):
    """A concave bound on ln|coefficient| over one family's poles of the
    unit kernel (d, alpha, beta), as (hull, falls, lead, hump_max): the
    ``_concave_majorant`` of ``"left"``, the first ``_CONVERGENT_POLES``
    coefficients with |1/Gamma(x)| <= Gamma(1-x)/pi, or ``"right"``, the
    ``_right_terms`` up to the first that underflows to 0.  lead is ln of
    the leading value: on the left the origin value, formed from lgamma,
    as Gamma((d+beta)/alpha) may overflow a float where the kernel does
    not; on the right the m = 0 term (without ``_right_base``), None,
    which ``_gate`` skips, where it overflows.  hump_max is the last pole
    a gated series may peak at."""
    if family == "left":
        bounds = [math.lgamma(0.5 * (d + beta + n * alpha)) - math.lgamma(n + 1.0)
                  + math.lgamma(1.0 + 0.5 * (n * alpha + beta))
                  + (beta + n * alpha) * _LN2 - (0.5 * d + 1.0) * _LNPI
                  for n in range(_CONVERGENT_POLES)]
        # ln of the origin value, whose gamma factor may overflow a float
        lead = (math.lgamma((d + beta) / alpha) - math.lgamma(0.5 * d)
                + math.log(_right_base(d, alpha)))
        hump_max = _LEFT_HUMP
    else:
        bounds = [math.log(abs(term.coefficient)) for term in
                  itertools.takewhile(lambda term: term.coefficient,
                                      _right_terms(d, alpha, beta))]
        if not bounds:  # Gamma((d+beta)/alpha) overflows a float
            return (), (), None, -1
        lead = bounds[0]
        hump_max = min(_RIGHT_HUMP, len(bounds) - 2)
    return (*_concave_majorant(bounds), lead, hump_max)


def _gate(d, alpha, beta, family, ln_rp, tol):
    """Whether a convergent series of one family can meet tol at the
    unit-time radius e^ln_rp, in O(1) from its ``_envelope``: the
    envelope of ln|term| (slope -alpha ln r' in n on the left, ln (r'/2)^2
    in m on the right) must peak at a pole up to hump_max, and 16 eps
    times that peak must stay within tol/30 of the leading value.  On the
    left its ratio must also fall below 1/2 within the poles it spans,
    which ``_left_tail`` needs to stop the sum."""
    hull, falls, lead, hump_max = _envelope(d, alpha, beta, family)
    if lead is None or not tol > 0.0:
        return False
    if family == "left":
        slope, shift = -alpha * ln_rp, -(d + beta) * ln_rp
        if not falls[-2] > slope + _LN2:
            return False
    else:
        slope, shift = 2.0 * (ln_rp - _LN2), 0.0
    hump = bisect.bisect_left(falls, slope)
    return hump <= hump_max and (hull[hump] + hump * slope + shift - lead
                                 <= math.log(tol / (30.0 * _SERIES_ROUNDING)))


def _left_tail(d, alpha, beta, n, ln_rp):
    """A bound on sum_(k>n) |t_k| of the convergent (alpha < 1) large-r
    series at t = 1, from its left ``_envelope`` b_k >= |t_k|: b_(n+1)/(1-q)
    once the ratio q = b_(n+2)/b_(n+1), which the envelope's concavity
    makes the largest ratio past n, is below 1/2; None before that."""
    hull, falls, _, _ = _envelope(d, alpha, beta, "left")
    k = n + 1
    if k >= len(falls):
        return None
    ln_q = -alpha * ln_rp - falls[k]
    if not ln_q < -_LN2:
        return None
    try:
        return (math.exp(hull[k] - (d + beta + k * alpha) * ln_rp)
                / (1.0 - math.exp(ln_q)))
    except OverflowError:
        return None


def _log_term(n, sign, ln_c, exponent, ln_rp):
    """The large-r term n, sign * exp(ln|c_n| - e_n ln r'), at t = 1;
    DomainError past the float range."""
    try:
        return sign * math.exp(ln_c - exponent * ln_rp)
    except OverflowError:
        raise DomainError(f"the residue term n = {n} overflows a float "
                          f"at r' = {math.exp(ln_rp)}") from None


def stable_series(spec: KernelSpec, r: float,
                  n_terms: int | None = None) -> Approximation:
    """Large-r residue expansion.  Terms decay like r^(-d-beta-n*alpha).

    With ``n_terms`` given, keeps that many non-vanished terms (and sets
    a divergence flag if they grow before the count is reached).
    Otherwise, for alpha >= 1, where the series is asymptotic, it stops
    at the optimal truncation point, just before the first term whose
    magnitude exceeds its predecessor, or as soon as a kept term falls
    below 2^-53 of the running sum or underflows to zero (below the last
    bit of any sum, a denormal or zero one included), reading the poles
    n = 0 .. 40.  The ``converged`` diagnostic says a kept term fell
    that low before any term grew: the remainder, of the size of the
    first omitted term, is then below the last bit.  The error estimate
    is the magnitude of the first omitted non-vanished term (the last
    kept one where the sum stops converged or at the last pole read).

    For 0 < alpha < 1 the series converges for every r' (its coefficients
    decay like (n!)^(alpha-1)), and without ``n_terms`` it is summed past
    its largest term, over up to 400 poles, until a kept term falls below
    2^-53 of the sum, or to zero, where the terms' concave envelope
    (``_envelope``) already falls by more than half per pole.
    ``converged`` says that happened, and the error estimate is then
    that envelope's geometric tail bound (``_left_tail``).  Terms whose
    coefficient or power leaves the float range, or whose float form
    falls below the normal floats, are formed in log form,
    sign * exp(ln|c_n| - e_n ln r'); a term past the float range raises
    DomainError.

    Both add the rounding: 16 eps times the sum of the kept terms'
    magnitudes, and eps |t_n| (e_n |ln r'| + 1) per kept term
    t_n = c_n r'^(-e_n), for the rounding of its exponent and of its
    power, plus the rounding of ln|c_n| for a term in log form.
    ``diagnostics["terms"]`` lists every pole read.
    """
    if not 0.0 < spec.alpha < 2.0:
        raise DomainError("the residue expansion requires 0 < alpha < 2")
    if not r > 0.0:
        raise DomainError("r must be > 0")
    unit, rp, pref = scaling_reduce(spec, r)
    d, a, b = unit.d, unit.alpha, unit.beta

    ln_rp = math.log(rp)
    ln_r = abs(ln_rp)
    convergent = a < 1.0 and n_terms is None
    if a >= 1.0:
        limit = _SERIES_MAX_TERMS + 1
    else:
        limit = _CONVERGENT_POLES if convergent else None
    (poles,) = _left_poles(d, a, b)
    terms: list[SeriesTerm] = []
    value = gross = power_rounding = 0.0
    used, last = 0, math.inf  # kept terms, |the last kept term|
    divergence = converged = False
    for n in itertools.count() if limit is None else range(limit):
        if n == len(poles):
            poles = _more_left_poles(d, a, b, poles)
        term, c, sign, ln_c, log_rounding = poles[n]
        exponent = term.exponent
        if not sign:  # a vanished residue
            terms.append(term)
            continue
        if c:
            try:
                tv = c * rp ** -exponent
                # below the normal floats its rounding is no longer relative
                log_form = abs(tv) < _TINY
            except OverflowError:
                log_form = True
            if log_form:
                tv = _log_term(n, sign, ln_c, exponent, ln_rp)
                power_rounding += abs(tv) * log_rounding
        elif a >= 1.0:
            raise DomainError(f"the residue coefficient n = {n} "
                              "overflows a float")
        else:
            tv = _log_term(n, sign, ln_c, exponent, ln_rp)
            power_rounding += abs(tv) * log_rounding
        at = abs(tv)
        if not convergent:
            grew = at >= last
            if grew if n_terms is None else used == n_terms:
                next_term_value = tv
                break
            divergence |= grew
        last = at
        used += 1
        terms.append(term)
        value += tv
        gross += at
        if tv:  # a zero term carries no rounding (r' = inf: ln r' = inf)
            power_rounding += at * (exponent * ln_r + 1.0)
        # a term that underflows to zero is below the last bit of any sum,
        # whose own last bit may underflow (2^-53 of a denormal sum is 0)
        if not divergence and (at < _CONVERGED * abs(value) or not at):
            if convergent:
                tail = _left_tail(d, a, b, n, ln_rp)
                if tail is not None:
                    converged = True
                    next_term_value = tail
                    break
                continue
            converged = True
            if n_terms is None:
                next_term_value = tv
                break
    else:
        next_term_value = 0.0 if last == math.inf else last
    if not -math.inf < value < math.inf:
        raise DomainError(f"the residue sum overflows a float at r' = {rp}")
    rounding = _SERIES_ROUNDING * gross + _EPS * power_rounding
    return Approximation(
        value=pref * value,
        est_error=pref * (abs(next_term_value) + rounding),
        method="residue_series",
        diagnostics={"terms": terms, "terms_used": used,
                     "divergence_warning": divergence, "converged": converged,
                     "r_scaled": rp, "prefactor": pref})


def leading_term(spec: KernelSpec) -> SeriesTerm:
    """First non-vanished term of the residue expansion (t = 1 normalized).

    Decay exponent is d + beta for beta not an even integer, and
    d + beta + alpha for beta in {0, 2, 4, ...}.
    """
    if not 0.0 < spec.alpha < 2.0:
        raise DomainError("leading term requires 0 < alpha < 2")
    for n in range(64):
        term = _left_pole(spec.d, spec.alpha, spec.beta, n)[0]
        if not term.vanished:
            return term
    raise DomainError("no non-vanished residue found (is alpha = 2?)")


def _kummer_series(a0: float, b0: float, x: float):
    """1F1(a0; b0; x) by direct summation, with the sums of |term_m| and
    of m |term_m| over its terms, for its rounding and for its
    sensitivity to x (x d/dx 1F1 = sum m term_m); terminates when a0 is
    a nonpositive integer.  Raises NonConvergent when no term falls
    below ``_KUMMER_TOL`` of the sum within ``_KUMMER_MAX_TERMS`` terms."""
    term = 1.0
    total = gross = 1.0
    moment = 0.0
    for m in range(_KUMMER_MAX_TERMS):
        term *= (a0 + m) * x / ((b0 + m) * (m + 1.0))
        if term == 0.0:
            break
        total += term
        gross += abs(term)
        moment += (m + 1) * abs(term)
        if abs(term) <= _KUMMER_TOL * abs(total):
            break
    else:
        raise NonConvergent(f"1F1({a0}; {b0}; {x}) did not converge within "
                            f"{_KUMMER_MAX_TERMS} terms "
                            '(use method="oracle")')
    return total, gross, moment


def _right_base(d: int, alpha: float) -> float:
    """2^(1-d) pi^(-d/2) / alpha, the factor ``_residues`` leaves off the
    right residues."""
    return 2.0 ** (1 - d) * math.pi ** (-0.5 * d) / alpha


def small_r_series(spec: KernelSpec, r: float) -> Approximation:
    """Small-r expansion from right-shifted residues:

        2^(1-d) pi^(-d/2) / alpha *
        sum_m (-1)^m/m! Gamma((d+beta+2m)/alpha) / Gamma(d/2+m) (r'/2)^(2m)

    Converges for all r when alpha > 1, for r' < 1 when alpha = 1, and
    diverges for alpha < 1 (DomainError; use the oracle there).  At
    alpha = 2 the sum is carried out in exponentially factored form, so
    no alternating cancellation occurs; for beta = 0 it collapses to
    the Gaussian closed form.  Its est_error is the rounding of that
    form, (r'/2)^2 included; otherwise it is the last kept term plus
    16 eps times the sum of |term|.  The coefficients are kept per unit
    spec (``_right_terms``).  r must be finite and >= 0.

    At 1 < alpha < 2 ``evaluate`` also reads it past r' = 1/2, where its
    gate (``_gate``) says the terms peak early and low enough to meet
    tol: the terms grow to that peak and then fall, and the 16 eps sum
    |term| of the estimate carries their cancellation.
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
    base = _right_base(d, a)
    x = (0.5 * rp) ** 2
    if a == 2.0:
        # sum_m (-1)^m/m! G((d+b)/2+m)/G(d/2+m) x^m
        #   = G((d+b)/2)/G(d/2) e^-x 1F1(-b/2; d/2; x)
        up, down = math.lgamma(0.5 * (d + b)), math.lgamma(0.5 * d)
        kummer, gross, moment = _kummer_series(-0.5 * b, 0.5 * d, x)
        outside = math.exp(up - down) * math.exp(-x)
        total = outside * kummer
        if not math.isfinite(total):
            raise DomainError(f"the factored small-r sum is not finite at "
                              f"r' = {rp} " '(use method="oracle")')
        # rounding, per eps: x = (r'/2)^2 is good to 1/2 (r' = r at
        # t = 1), else to 7/2 (r' = t^(-1/2) r, two roundings, squared),
        # which moves e^-x 1F1(x) by x + x d/dx ln 1F1 times that; the sum
        # of 1F1 is good to 16 of its gross sum and 3 m per term m (a
        # running product); each lgamma to its size, the exps, products
        # and base to 6, and t's power to 1 + |(d + b)/2 ln t| / 2
        x_rounding = 0.5 if spec.t == 1.0 else 3.5
        power = 0.0 if spec.t == 1.0 else (
            1.0 + 0.25 * (d + b) * abs(math.log(spec.t)))
        est = abs(pref * base * outside) * _EPS * (
            x_rounding * (x * abs(kummer) + moment)
            + 16.0 * gross + 3.0 * moment
            + (abs(up) + abs(down) + 6.0 + power) * abs(kummer))
        return Approximation(
            value=pref * base * total, est_error=est, method="small_r_series",
            diagnostics={"terms_used": -1, "factored": True, "r_scaled": rp})

    terms = _right_terms(d, a, b)
    total = abs_sum = 0.0
    try:
        for res in terms:
            term = res.coefficient * x ** res.n
            total += term
            abs_sum += abs(term)
            if not math.isfinite(total):  # an infinite term or sum
                raise OverflowError
            if res.n >= 1 and abs(term) <= _SMALL_R_TOL * max(abs(total), 1e-300):
                break
        else:  # the next coefficient overflows
            raise OverflowError
    except OverflowError as exc:
        raise DomainError(f"small-r expansion overflows at r' = {rp} "
                          "(use the contour route)") from exc
    est = (abs(term) + _SERIES_ROUNDING * abs_sum) * base * pref
    return Approximation(
        value=pref * base * total, est_error=est, method="small_r_series",
        diagnostics={"terms_used": res.n + 1, "factored": False, "r_scaled": rp,
                     "cancellation": abs_sum / max(abs(total), 1e-300)})


def _closed(value: float, rel: float = 1e-15, **diagnostics) -> Approximation:
    return Approximation(value=value, est_error=abs(value) * rel,
                         method="closed_form", diagnostics=diagnostics)


def evaluate(spec: KernelSpec, r: float, method: str = "auto",
             tol: float = 1e-9, abscissa: float | None = None) -> Approximation:
    """Evaluate one kernel by the requested route.

    ``auto`` answers r = 0 with ``kernel_at_origin`` and takes a closed
    form when one exists (and the small-r sum at alpha = 2).  Otherwise,
    with r' = t^(-1/alpha) r:

    * 0 < alpha < 1: the large-r residue series, which converges there,
      where an O(1) gate (``_gate``) says it can meet tol; else the
      contour integral.  For r' < 1/2 the contour is kept only when its
      est_error meets tol, and the oracle answers where it does not, or
      where the line raises NoDecay or NonConvergent;
    * 1 <= alpha < 2: the small-r expansion for r' < 1/2; beyond, the
      large-r series when it has converged to its last bit, then (for
      alpha > 1, where it converges for every r') the gated small-r
      expansion, else the contour integral.

    A series is taken only when it has converged and its est_error meets
    ``tol``; the contour's est_error carries the rounding floor of its
    line (``mellin._power_line``).  ``abscissa`` moves the contour's line
    (``stable_mb``); the other routes ignore it.  r must be finite and
    >= 0.
    """
    if not 0.0 <= r < math.inf:
        raise DomainError(f"r must be finite and >= 0, got {r}")
    d, a, b, t = spec.d, spec.alpha, spec.beta, spec.t
    if method == "auto" and r == 0.0:
        # 12 eps of rounding (gamma ratio 8, pi^(-d/2)/alpha 2, t's power and
        # products 2), plus eps up |psi(up)| <= eps up (|ln up| + 1/up) from
        # the rounding of up = (d+b)/a inside Gamma(up), plus eps up |ln t|
        # from its rounding in the exponent of t^(-up)
        up = (d + b) / a
        return _closed(kernel_at_origin(spec), 2.0 ** -52 * (
            12.0 + up * (abs(math.log(up)) + 1.0 / up + abs(math.log(t)))),
            origin=True)
    if method in ("closed", "auto") and b == 0.0 and a in (1.0, 2.0):
        return _closed((gaussian_kernel if a == 2.0 else poisson_kernel)(d, t, r))
    if method == "closed":
        raise DomainError("no closed form for this spec "
                          "(need alpha in {1, 2} and beta = 0)")
    if method == "mb":
        return stable_mb(spec, r, abscissa=abscissa, tol=tol)
    if method == "series":
        return stable_series(spec, r)
    if method == "small-r":
        return small_r_series(spec, r)
    if method == "oracle":
        return _oracle.stable_oracle(spec, r, tol=min(tol, 1e-10))
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    if a == 2.0:
        return small_r_series(spec, r)
    rp = scaling_reduce(spec, r)[1]
    if a < 1.0:
        series = _gated_series(spec, r, rp, tol, "left")
        if series is not None:
            return series
        if rp >= 0.5:
            return stable_mb(spec, r, abscissa=abscissa, tol=tol)
        with contextlib.suppress(NoDecay, NonConvergent):
            line = stable_mb(spec, r, abscissa=abscissa, tol=tol)
            if line.est_error <= tol * abs(line.value):
                return line
        return _oracle.stable_oracle(spec, r, tol=min(tol, 1e-10))
    if rp < 0.5:
        return small_r_series(spec, r)
    series = stable_series(spec, r)
    if (series.diagnostics["converged"]
            and series.est_error <= tol * abs(series.value)):
        return series
    if a > 1.0:
        series = _gated_series(spec, r, rp, tol, "right")
        if series is not None:
            return series
    return stable_mb(spec, r, abscissa=abscissa, tol=tol)


def _gated_series(spec, r, rp, tol, family):
    """The convergent series of one family at (spec, r), ``stable_series``
    on the left and ``small_r_series`` on the right, where its ``_gate``
    passes and it converges within tol; None otherwise, a DomainError of
    the sum included."""
    if not _gate(spec.d, spec.alpha, spec.beta, family, math.log(rp), tol):
        return None
    try:
        series = (stable_series if family == "left" else small_r_series)(spec, r)
    except DomainError:
        return None
    if (series.diagnostics.get("converged", True)
            and series.est_error <= tol * abs(series.value)):
        return series
    return None


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
        if _is_even_integer(b):
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
