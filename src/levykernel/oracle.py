"""Independent brute-force kernel evaluation by oscillatory quadrature.

Every kernel in this package reduces, in polar coordinates, to

    K = (2 pi)^(-d/2) r^(1 - d/2) * int_0^inf J_{d/2-1}(r s) w(s) ds

with a positive weight w.  This module evaluates it head-on, in numpy,
and shares nothing with the contour-integral evaluators, so it serves as
the ground truth they are judged against.  Two methods:

* even d, ``symbol_oracle``, and ``hankel_oracle`` for any
  caller-supplied weight: a tanh-sinh trapezoid rule up to the first
  scaled Bessel zero (``_head``), panel integrals between consecutive
  zeros, and iterated-averaging (Euler-transform) acceleration of the
  alternating panel sums;
* odd d in ``stable_oracle``: J_{d/2-1} is elementary, and the weight
  continues analytically off the real axis, so the integral is taken on
  a rotated ray where nothing oscillates (``_ray``), by an exponential-
  type trapezoid rule; where the terms of J_{d/2-1} cancel beyond tol
  (d >= 5 at small r) the panels answer.

No node depends on r in the argument x = r s (the 12-point nodes between
zeros of J_nu, and j_{nu,1} u for the head's nodes u in (0, 1)), so one
read-only table per nu, ``_ZERO_TABLES``, holds the zeros and, per
interval, the nodes x, their weights and J_nu(x), and J_nu at the head's
nodes, grown lock-free in fixed units (1024 zeros or intervals, one head
weight call) whose bits do not depend on the order of requests.  The
head's unit nodes and weights, ``_HEAD_RULE``, are one more r-free table,
shared by every nu.  A call then pays per node, not per numpy call: a
batch of panels is one weight call at x / r, the head's first 321 nodes
one more, and the support radius one more.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import Approximation, DomainError, NonConvergent
from .specfun import _bessel_series_end, bessel_j, bessel_j_derivative

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
_PANEL_ORDER = 12
_MAX_PANELS = 300_000  # panels between zeros before acceleration gives up
_ACCEL_DEPTH = 12  # averaging columns ``_accelerate`` tries at most
# row k: the weights C(k, j) / 2^k that give the last entry of averaging
# column k from the last k + 1 partial sums, newest first
_ACCEL_WEIGHTS = np.array([[math.comb(k, j) / 2.0 ** k
                            for j in range(_ACCEL_DEPTH + 1)]
                           for k in range(_ACCEL_DEPTH + 1)])
_SUPPORT_FLOOR = 1e-21  # |weight| beyond the support radius, against its peak
_ZERO_TABLES: dict[float, dict[str, object]] = {}
# the odd-d ray: its angle as a fraction of the widest, the first step,
# the halvings at most, the first node and the farthest last one in tau,
# and the decay that ends its first pass
_RAY_ANGLE, _RAY_STEP, _RAY_LEVELS = 0.55, 0.125, 6
_RAY_START, _RAY_END, _RAY_DECAY = -4.0, 64.0, 40.0
# the head's tanh-sinh rule: the half range and first step in tau, the
# levels at most, and the levels its first weight call takes
_HEAD_TAU, _HEAD_STEP, _HEAD_LEVELS, _HEAD_FIRST = 5.0, 0.5, 9, 5
_EPS = 2.0 ** -52


def _gl_nodes(edges, order):
    """Gauss-Legendre nodes of each panel (one row each) and half widths."""
    mids, halfw = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    return mids[:, None] + halfw[:, None] * _gl(order)[0][None, :], halfw


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _grow(nu: float, kind: str, n: int, make) -> tuple:
    """Units 0 .. n - 1 of nu's ``kind`` table, missing ones made by make(j)."""
    table = _ZERO_TABLES.setdefault(nu, {})
    units = table.get(kind, ())
    for j in range(len(units), n):
        units += _read_only(make(j))
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


def _panel_block(nu: float, j: int) -> np.ndarray:
    """(x, weights, J_nu(x)) of the 12-point rule on the intervals between
    zeros k + 1 and k + 2 of J_nu, k = j B .. (j + 1) B - 1, one row per
    interval; the weights are the rule's times the half widths in x."""
    zeros = _zero_table(nu, (j + 1) * _ZERO_BLOCK + 1)
    x, halfw = _gl_nodes(zeros[j * _ZERO_BLOCK:(j + 1) * _ZERO_BLOCK + 1],
                         _PANEL_ORDER)
    return np.stack((x, halfw[:, None] * _gl(_PANEL_ORDER)[1], bessel_j(nu, x)))


def _panel_rows(nu: float, start: int, stop: int) -> np.ndarray:
    """Rows start .. stop - 1 of nu's panel table, as (x, weights, J)."""
    n = -(-stop // _ZERO_BLOCK)
    blocks = _grow(nu, "panels", n, functools.partial(_panel_block, nu))
    first = start // _ZERO_BLOCK
    parts = [blocks[j][:, max(start - j * _ZERO_BLOCK, 0):stop - j * _ZERO_BLOCK]
             for j in range(first, n)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _head_rule(levels) -> tuple:
    """Unit nodes u = 1/(1 + e^(-pi sinh tau)) of the head's tanh-sinh
    ``levels``, level by level, and their weights h pi cosh tau u (1 - u)
    at the last level's step h, 1 - u taken as 1/(1 + e^(pi sinh tau)).
    Level 0 has every multiple of _HEAD_STEP on |tau| <= _HEAD_TAU; each
    later level halves the step and adds its odd multiples."""
    taus = []
    for level in levels:
        h = _HEAD_STEP * 0.5 ** level
        n = round(_HEAD_TAU / h)
        taus.append(h * (np.arange(-n, n + 1) if level == 0
                         else np.arange(1 - n, n, 2)))
    tau = np.concatenate(taus)
    e = math.pi * np.sinh(tau)
    u, v = 1.0 / (1.0 + np.exp(-e)), 1.0 / (1.0 + np.exp(e))
    return _read_only(u, h * math.pi * np.cosh(tau) * u * v)


# the head's weight calls: levels 0 .. _HEAD_FIRST - 1, then one each
_HEAD_RULE = (_head_rule(range(_HEAD_FIRST)),) + tuple(
    _head_rule((level,)) for level in range(_HEAD_FIRST, _HEAD_LEVELS))


def _arch_j(nu: float, call: int) -> np.ndarray:
    """J_nu(j_{nu,1} u) at the head's unit nodes u of weight call ``call``."""
    return _grow(nu, "head", call + 1, lambda j: bessel_j(
        nu, _zero_table(nu, 1)[0] * _HEAD_RULE[j][0]))[call]


def _accelerate(partial_sums: np.ndarray):
    """Iterated averaging of a tail of the partial-sum sequence.

    Returns (value, error_estimate, depth_used).  The averaging column
    with the smallest last difference wins (the first, on a tie); for
    alternating sequences this upgrades linear convergence to
    near-exponential.  Column k's last entry is the binomial mean
    2^-k sum_j C(k, j) s_(n-j), so all come from one product.
    """
    s = np.asarray(partial_sums, dtype=float)
    if s.size == 1:
        return float(s[-1]), math.inf, 0
    depth = min(_ACCEL_DEPTH, s.size - 1)
    lasts = _ACCEL_WEIGHTS[:depth + 1, :depth + 1] @ s[:-depth - 2:-1]
    diffs = np.abs(lasts[1:] - lasts[:-1])
    k = int(np.argmin(diffs))
    last_step = abs(s[-1] - s[-2])
    if diffs[k] < last_step:
        return float(lasts[k + 1]), float(diffs[k]), k + 1
    return float(s[-1]), float(last_step), 0


def _probes(s_start: float):
    """The weight's peak probe and 1.5x ladder (product by product), as
    one array, and the size of the probe."""
    grid = np.geomspace(max(s_start, 1e-6) + 1e-12, 1e4, 200)
    ladder = np.multiply.accumulate(np.r_[max(1.0, s_start), np.full(59, 1.5)])
    return np.concatenate((grid, ladder)), grid.size


_PROBES = _probes(0.0)  # those of the common start


def _support_radius(weight, s_start: float):
    """Radius beyond which the weight is negligible relative to its peak,
    from one weight call.

    Returns inf when no decay is detected within the scan cap (the
    integral is then handled as conditionally convergent).
    """
    probes, n = _PROBES if s_start == 0 else _probes(s_start)
    w = np.abs(weight(probes))
    wmax = float(np.max(w[:n]))
    if wmax == 0.0:
        return max(s_start, 1.0)
    below = w[n:] < _SUPPORT_FLOOR * wmax
    return float(probes[n + np.argmax(below)]) if below.any() else math.inf


def _head(weight, nu, scale, a, b, tol, tabled=False):
    """int_a^b J_nu(scale*s) w(s) ds on one Bessel arch (nu = scale = 0:
    int_a^b w) by the tanh-sinh trapezoid rule in s = a + (b-a) u, whose
    nodes crowd double-exponentially to both ends, where s^p and s^(z-1)
    are not smooth (Takahasi and Mori, Publ. RIMS 9, 1974).

    The first weight call takes levels 0 .. _HEAD_FIRST - 1 of
    ``_HEAD_RULE``, each later call the next level's new nodes.  Stops
    once the change from the level before is under tol/100 (or 1e-15) of
    the sum; returns (value, change, int |w|).  ``tabled`` (a = 0,
    b = j_{nu,1}/scale) reads the Bessel values from nu's table.
    """
    span = b - a
    value = abs_w = 0.0
    for call, (u, wu) in enumerate(_HEAD_RULE):
        s = a + span * u
        wv = weight(s) * wu
        jw = (_arch_j(nu, call) if tabled else bessel_j(nu, scale * s)) * wv
        # at twice the step, the first half of the first call's nodes
        # gives the level before its last
        prev = value if call else 2.0 * float(jw[:u.size // 2 + 1].sum())
        value = 0.5 * value + float(jw.sum())
        abs_w = 0.5 * abs_w + float(np.abs(wv).sum())
        change = abs(value - prev)
        if change <= max(1e-2 * tol, 1e-15) * abs(value):
            return span * value, span * change, span * abs_w
    raise NonConvergent(f"tanh-sinh head on [{a!r}, {b!r}] did not settle "
                        f"(estimate {span * value!r}, last change "
                        f"{span * change:.3e})")


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
    applies.  The support radius is probed by one weight call, and the
    head (``_head``) mostly settles in one more, so a warm call that
    needs one batch of panels makes three.  Panels use the 12-point rule
    of nu's node table, whose nodes, weights and Bessel values are
    stored in x = scale * s, so a batch is one weight call at x / scale;
    from s_start = 0 no ``bessel_j`` call is made once the table has
    grown far enough.  The estimate, a bound, adds the head's last
    halving change, the acceleration error, the change between the last
    two batch ends and eps_J int |w|, eps_J bounding the absolute error
    of ``bessel_j``:
    the rounding of its ascending series at the largest term, e^x /
    sqrt(2 pi x) at the series' end x (5-20x above the errors measured
    against mpmath for nu <= 4).
    """
    if scale <= 0:
        raise ValueError("scale must be > 0")
    s_sup = _support_radius(weight, s_start)
    xe = _bessel_series_end(nu)
    eps_j = _EPS * math.exp(xe) / math.sqrt(2.0 * math.pi * xe)

    # Index of the first zero beyond scale * s_start.
    zs = _zero_table(nu, 1)
    while zs[-1] <= scale * s_start:
        zs = _zero_table(nu, zs.size + 1)
    skip = int(np.searchsorted(zs, scale * s_start, side="right"))

    # Non-oscillatory regime: the weight dies before the first Bessel arch.
    if np.isfinite(s_sup) and zs[0] / scale >= s_sup:
        val, change, abs_w = _head(weight, nu, scale, s_start, s_sup, tol)
        return Approximation(value=val, est_error=change + eps_j * abs_w,
                             method="oracle",
                             diagnostics={"panels": 0, "depth": 3})

    head_val, head_err, abs_w = _head(weight, nu, scale, s_start,
                                      float(zs[skip]) / scale, tol,
                                      tabled=s_start == 0)

    batch = 64
    panel_vals: list[np.ndarray] = []
    running = 0.0
    gross = abs(head_val)
    est = math.inf
    prev_est = None
    value = head_val
    depth = 3
    n_panels = 0
    offset = skip  # index of the zero sitting at the current left edge
    converged = False
    while n_panels < _MAX_PANELS:
        x, wx, jx = _panel_rows(nu, offset, offset + batch)
        wv = weight(x / scale) * wx
        b = (jx * wv).sum(axis=1) / scale
        offset += batch
        edge = bessel_zeros(nu, 1, offset=offset)[0]
        abs_w += float(np.abs(wv).sum()) / scale
        gross += float(np.abs(b).sum())
        panel_vals.append(b)
        csum = running + np.cumsum(b)
        running = float(csum[-1])
        n_panels += b.size
        # a batch holds more than the _ACCEL_DEPTH + 1 sums averaging reads
        acc, acc_err, depth = _accelerate(csum)
        value = head_val + acc
        est = head_err + acc_err + eps_j * abs_w + (
            abs(value - prev_est) if prev_est is not None else 0.0)
        scale_ref = max(abs(value), 1e-300)
        # below eps sum |panel| the sums move by rounding alone
        floor = _EPS * gross
        if prev_est is not None and acc_err <= max(tol * scale_ref, floor) \
                and abs(value - prev_est) <= max(10 * tol * scale_ref, floor):
            converged = True
            break
        # Pure truncation exit: the remaining weight is negligible.
        if np.isfinite(s_sup) and edge / scale >= s_sup \
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
    _check_radius(r)
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
        if s.min(initial=math.inf) > 0:
            return np.exp(p * np.log(s) - t * s ** alpha)
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
        if s.min(initial=math.inf) > 0:
            return s ** p * np.exp(-t * sym.eta(s))
        out = np.zeros_like(s)
        pos = s > 0
        sp = s[pos]
        out[pos] = sp ** p * np.exp(-t * sym.eta(sp))
        if p == 0:
            out[~pos] = math.exp(-t * sym.eta_at_zero)
        return out

    return w


def _check_radius(r: float):
    if r <= 0:
        raise DomainError("r must be > 0 (use the origin formula at r = 0)")
    if not math.isfinite(r):
        raise DomainError("r must be finite")


@functools.cache
def _hankel_poly(n: int) -> tuple:
    """(c, q): J_(n+1/2)(z) = sqrt(2/(pi z)) z^-n Re[c Q(z) e^(iz)] with
    c Q(z) = sum_k i^(k-n-1) a_k z^(n-k), a_k = (n+k)!/(2^k k! (n-k)!)
    (DLMF 10.49.6); c = i^(-n-1) and q holds the coefficients of the
    monic Q below its leading one, highest power first."""
    return ((1, 1j, -1, -1j)[(-n - 1) % 4],
            tuple((1, 1j, -1, -1j)[k % 4] * math.factorial(n + k)
                  / (2 ** k * math.factorial(k) * math.factorial(n - k))
                  for k in range(1, n + 1)))


def _ray(d: int, beta: float, r: float, growth: float, weight, tol: float,
         fallback, offset: float = 0.0) -> Approximation:
    """offset + (2 pi)^(-d/2) r^(1-d/2) int_0^inf J_(d/2-1)(r s) s^(d/2+beta)
    W(s) ds for odd d on the ray s = x e^(i theta), where nothing
    oscillates.

    J_(d/2-1) is elementary (``_hankel_poly``), so the integral is the real
    part of int s^(1+beta) Q(r s) e^(irs) W(s) ds, taken on a ray where
    e^(irs) and W decay (Zolotarev, One-dimensional Stable Distributions,
    ch. 2): theta is _RAY_ANGLE of the widest angle pi/(2 max(g, 1)) at
    which e^(irs) and e^(-s^g), g = ``growth``, both still decay.
    ``weight(s, lead)`` returns e^lead W(s) at complex s and the size at
    which it rounds (None: its modulus); W falls off on the unit scale, as
    a unit-time kernel's does.  With x = x0 e^(tau - e^-tau), x0 a quarter
    of the smaller of 1 and the decay length 1/(r sin theta) of e^(irs),
    the integrand dies double-exponentially as tau falls and
    exponentially as it rises (Takahasi and Mori, Publ. RIMS 9, 1974).
    The trapezoid rule halves its step from _RAY_STEP, evaluating only
    the midpoints within a step of the terms above eps times the largest,
    until two levels agree within tol.  The estimate adds the last change
    and the rounding of the sum, _SERIES_ROUNDING (pref h sum size +
    |offset|), which carries any cancellation of its real part.  Where
    that rounding exceeds tol (odd d >= 5 at small r, where Q's terms
    cancel), or the prefactor overflows, ``fallback()``, the Bessel-zero
    panels, answers instead.  Diagnostics: ``nodes`` evaluated, trapezoid
    ``levels``.
    """
    from .stable_kernel import _SERIES_ROUNDING

    lead, poly = _hankel_poly((d - 3) // 2)
    theta = _RAY_ANGLE * 0.5 * math.pi / max(growth, 1.0)
    sin_t = math.sin(theta)
    x0 = 0.25 * min(1.0 / (r * sin_t), 1.0)
    p = 2.0 + beta  # s^(1+beta) ds = s^(2+beta) (1 + e^-tau) dtau
    try:  # r^(2-d) overflows at large d and small r; x0^p <= 1/16
        pref = (2.0 * math.pi) ** (-0.5 * d) * math.sqrt(2.0 / math.pi) * (
            r ** (2 - d) * x0 ** p)
    except OverflowError:
        return fallback()
    s0 = x0 * complex(math.cos(theta), sin_t)
    phase = 1j * p * theta

    def terms(tau):
        e = np.exp(-tau)
        u = tau - e
        s = s0 * np.exp(u)
        rs = r * s
        g, size = weight(s, p * u + (1j * rs + phase))
        g *= 1.0 + e
        size = np.abs(g) if size is None else size * (1.0 + e)
        if poly:
            live = size != 0
            z = rs[live]
            q = z + poly[0]
            for c in poly[1:]:
                q = q * z + c
            g[live] *= q
            size[live] *= np.abs(q)
        return g, size

    # the first pass, of step _RAY_STEP / 2 (its even nodes are the first
    # level), runs from tau = _RAY_START to where e^(irs) or W, taken as
    # e^(-x^g), has fallen by e^-_RAY_DECAY, and doubles its length until
    # its last term is below eps times the largest
    h = 0.5 * _RAY_STEP
    log_end = min(math.log(_RAY_DECAY / (r * sin_t)),
                  math.log(_RAY_DECAY / math.cos(growth * theta)) / growth)
    tau = h * np.arange(_RAY_START / h,
                        max(log_end - math.log(x0), 1.0) / h + 1)
    g, mag = terms(tau)
    while mag[-1] > _EPS * mag.max():
        if tau[-1] > _RAY_END:
            raise NonConvergent(f"ray integrand not negligible at tau = "
                                f"{tau[-1]} (r = {r!r})")
        more = tau[-1] + h * np.arange(1.0, tau.size + 1.0)
        g_more, mag_more = terms(more)
        tau, g = np.concatenate((tau, more)), np.concatenate((g, g_more))
        mag = np.concatenate((mag, mag_more))
    total = complex(g.sum())
    prev = offset + pref * (lead * 2.0 * h * complex(g[::2].sum())).real
    for level in range(2, _RAY_LEVELS + 2):
        value = offset + pref * (lead * h * total).real
        change = abs(value - prev)
        rounding = _SERIES_ROUNDING * (pref * h * float(mag.sum())
                                       + abs(offset))
        if rounding > tol * abs(value):
            return fallback()
        if change <= tol * abs(value):
            return Approximation(value=value, est_error=change + rounding,
                                 method="oracle",
                                 diagnostics={"nodes": tau.size, "levels": level})
        # halve the step: the midpoints within a step of the kept terms
        kept = tau[mag > _EPS * mag.max()]
        h *= 0.5
        new = h * np.arange(kept[0] / h - 1.0, kept[-1] / h + 2.0, 2.0)
        gn, mag_new = terms(new)
        tau, mag = np.concatenate((tau, new)), np.concatenate((mag, mag_new))
        total += complex(gn.sum())
        prev = value
    raise NonConvergent(f"ray quadrature did not settle (estimate {value!r}, "
                        f"last change {change:.3e})")


def _gaussian_kernel(d: int, j: int, r: float) -> float:
    """Kernel of |xi|^(2j) e^(-|xi|^2): the Gaussian's times j!
    L_j^(d/2-1)(r^2/4), the Laguerre polynomial by its recurrence."""
    from .stable_kernel import gaussian_kernel

    a, x = 0.5 * d - 1.0, 0.25 * r * r
    prev, lag = 0.0, 1.0
    for k in range(j):
        prev, lag = lag, ((2 * k + 1 + a - x) * lag - (k + a) * prev) / (k + 1)
    return gaussian_kernel(d, 1.0, r) * math.factorial(j) * lag


def stable_oracle(spec, r: float, tol: float = 1e-11) -> Approximation:
    """Oracle value of the stable kernel (or its fractional derivative).

    Even d: ``hankel_oracle``'s Bessel-zero panels.  Odd d: the unit-time
    kernel (``scaling_reduce``) on a rotated ray (``_ray``), with
    diagnostics ``nodes`` and ``levels`` in place of ``panels``/``depth``.
    At even beta the large-r value is a cancellation of the s^beta term
    of e^(-s^alpha), so s^beta e^(-s^2), whose kernel is closed
    (``_gaussian_kernel``), leaves the weight, by expm1 where
    |s^2 - s^alpha| < 1.
    """
    from .stable_kernel import scaling_reduce

    d, beta = spec.d, spec.beta
    if d % 2 == 0:
        return hankel_oracle(stable_weight(d, spec.alpha, beta, spec.t), d, r,
                             tol=tol)
    _check_radius(r)
    unit, r_unit, pref = scaling_reduce(spec, r)
    alpha = unit.alpha

    def panels():
        return hankel_oracle(stable_weight(d, alpha, beta, 1.0), d, r_unit,
                             tol=tol)

    if beta % 2.0:
        def weight(s, lead):
            return np.exp(lead - s ** alpha), None

        res = _ray(d, beta, r_unit, alpha, weight, tol, panels)
    else:
        def weight(s, lead):
            # s^2 - s^alpha = -s^2 expm1((alpha - 2) log s) keeps its
            # relative accuracy as alpha nears 2; the difference of the
            # two exps rounds at the size of each
            s2, sa = s * s, s ** alpha
            gap = -s2 * np.expm1((alpha - 2.0) * np.log(s))
            near = np.abs(gap) < 1.0
            gauss, stable = np.exp(lead - s2), np.exp(lead - sa)
            g = np.where(near, gauss * np.expm1(np.where(near, gap, 0.0)),
                         stable - gauss)
            return g, np.where(near, np.abs(g), np.abs(stable) + np.abs(gauss))

        res = _ray(d, beta, r_unit, 2.0, weight, tol, panels,
                   _gaussian_kernel(d, int(beta) // 2, r_unit))
    res.value *= pref
    res.est_error *= pref
    return res


def symbol_oracle(sym, d: int, beta: float, t: float, r: float,
                  tol: float = 1e-11) -> Approximation:
    """Oracle value of the kernel of a general radial symbol, by
    ``hankel_oracle``'s Bessel-zero panels at every d.  Raises
    DomainError unless d >= 2, 0 <= beta < inf and 0 < t < inf."""
    from .stable_kernel import _check_kernel

    _check_kernel(t, d, beta)
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
