"""Kernels of general radial Levy symbols eta(|xi|).

For a symbol eta with super-logarithmic growth and r D eta(r) = O(r^alpha)
at the origin, the Mellin transform of exp(-t eta) is continued
meromorphically to Re z > -alpha by one integration by parts,

    M_t(z) = -M_t^1(z)/z,
    M_t^1(z) = int_0^inf D(exp(-t eta(r))) r^z dr,

and the kernel K^beta(t, x) (Fourier transform of |xi|^beta e^{-t eta})
gets a vertical-line representation whose leftmost residues give the
far-field behavior.  The paper integrates by parts k > (d+3)/2 + beta
times, as its proofs rest on the symbol-class bounds alone; the numbers
need one.  Every symbol is a sum of shifted powers c (r^2 + m^2)^p, and

    r D (r^2 + m^2)^p = 2p q (r^2 + m^2)^p,   q = r^2/(r^2 + m^2) in [0, 1],

so r -> 0 cannot overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import oracle as _oracle
from .errors import Approximation, NonConvergent, ParityError, StripViolation
from .mellin import (_contour_route, _Line, _phase_apply, _phase_table, _plan,
                     _radii, fold_conjugates)
from .specfun import log_gamma
from .stable_kernel import (_LINES_KEPT, _check_kernel, _is_even_integer,
                            _left_pole, admissible_strip)

__all__ = [
    "RadialSymbol",
    "make_symbol",
    "symbol_registry",
    "mellin_Mk",
    "mellin_M",
    "general_kernel_mb",
    "general_kernel_at_origin",
    "general_leading_term",
    "perturbed_leading_term",
    "sum_symbol_envelope",
    "sum_symbol_envelope_check",
    "smoothstep_cutoff",
    "tail_integral",
    "decay_slope",
]

_LN2 = math.log(2.0)
_ENVELOPE_WINDOW = 3  # samples of |E| per point of ``decay_slope``'s grid


def _shifted_power(r, mass, p):
    """(r^2 + mass^2)^p.  A mass-0 term is taken as r^(2p) directly, as
    r*r underflows on the r = e^-400 side of the inner Mellin grid."""
    if mass == 0.0:
        return r ** (2.0 * p)
    return (r * r + mass * mass) ** p


@dataclass(frozen=True)
class RadialSymbol:
    """A radial Levy symbol eta(r) = sum c (r^2 + mass^2)^p over its
    ``terms``, given as (c, mass, p) triples, with index ``alpha_index``
    (r D eta = O(r^alpha_index) at the origin); ``eta_at_zero`` is derived
    from them.  A symbol is a value: it cannot be changed.
    """

    name: str
    params: dict
    terms: tuple[tuple[float, float, float], ...]
    alpha_index: float

    def __hash__(self):
        # the fields G reads: equal symbols share one line store
        return hash((self.terms, self.alpha_index))

    @property
    def eta_at_zero(self) -> float:
        return float(self.eta(0.0))

    def eta(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape)
        for c, mass, p in self.terms:
            out += c * _shifted_power(r, mass, p)
        return out

    def scaled_deriv(self, r):
        """r * D eta(r), vectorized: 2p q c (r^2 + mass^2)^p per term."""
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape)
        for c, mass, p in self.terms:
            q = 1.0 if mass == 0.0 else r * r / (r * r + mass * mass)
            out += 2.0 * p * q * c * _shifted_power(r, mass, p)
        return out

    def __repr__(self):
        p = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"RadialSymbol({self.name}({p}))"


def _registry():
    def stable(a: float) -> RadialSymbol:
        if not 0.0 < a < 2.0:
            raise ValueError("stable index must lie in (0, 2)")
        return RadialSymbol(name="stable", params={"a": a},
                            terms=((1.0, 0.0, a / 2.0),), alpha_index=a)

    def sum_stable(a: float, b: float) -> RadialSymbol:
        if not 0.0 < a < b < 2.0:
            raise ValueError("need 0 < a < b < 2")
        return RadialSymbol(name="sum_stable", params={"a": a, "b": b},
                            terms=((1.0, 0.0, a / 2.0), (1.0, 0.0, b / 2.0)),
                            alpha_index=a)

    def relativistic(alpha: float, m: float) -> RadialSymbol:
        if not 0.0 < alpha < 2.0 or m <= 0.0:
            raise ValueError("need 0 < alpha < 2 and m > 0")
        # the constant is the first term at r = 0, by the same expression,
        # so that eta(0) is exactly 0
        at_zero = _shifted_power(0.0, m, alpha / 2.0)
        return RadialSymbol(name="relativistic",
                            params={"alpha": alpha, "m": m},
                            terms=((1.0, m, alpha / 2.0),
                                   (-at_zero, 0.0, 0.0)),
                            alpha_index=alpha)

    def perturbed(a: float, c: float, delta: float) -> RadialSymbol:
        if not 0.0 < a < 2.0 or delta <= a or c < 0.0:
            raise ValueError("need 0 < a < 2 and delta > a and c >= 0")
        return RadialSymbol(name="perturbed",
                            params={"a": a, "c": c, "delta": delta},
                            terms=((1.0, 0.0, a / 2.0), (c, 0.0, delta / 2.0)),
                            alpha_index=a)

    return {"stable": stable, "sum_stable": sum_stable,
            "relativistic": relativistic, "perturbed": perturbed}


_REGISTRY = _registry()


def symbol_registry() -> dict:
    """Names and constructor parameter lists of the built-in symbols."""
    import inspect

    return {name: list(inspect.signature(fn).parameters)
            for name, fn in _REGISTRY.items()}


def make_symbol(kind: str, **params) -> RadialSymbol:
    """Build a registry symbol, e.g. make_symbol("sum_stable", a=0.5, b=1.5)."""
    try:
        fn = _REGISTRY[kind]
    except KeyError:
        raise ValueError(f"unknown symbol kind {kind!r}; "
                         f"known: {sorted(_REGISTRY)}") from None
    return fn(**params)


# ---------------------------------------------------------------------------
# The continued Mellin transform M_t^1 on vertical lines.
# ---------------------------------------------------------------------------

class _MellinGrid:
    """Frozen quadrature grid for M_t^1(c + iv), |v| <= max_imag.

    With r = e^w, M_t^1(c + iv) = int G(e^w) e^{cw} e^{iwv} dw over the
    whole line, G(r) = r D(e^{-t eta}).  The integrand is analytic
    across w = 0 and decays at both ends, so the trapezoid rule on
    [-u0_end, u1_end] converges geometrically (Trefethen and Weideman,
    SIAM Review 56, 2014).  Its step starts at pi/max_imag and halves,
    each level adding only the midpoints, until three probe heights
    settle.  Each value is the phase sum sum_w p e^{i w v},
    p = h G(e^w) e^{cw}, from one ``mellin._phase_table``.  G e^{cw} is
    formed in log space, -sign(D) exp(log|t D| - t eta + c w) with
    D = r D eta, so that no factor overflows where the product does not.
    """

    def __init__(self, sym, t, abscissa, max_imag, tol=1e-10):
        self.c = float(abscissa)
        self.max_imag = float(max_imag)
        alpha = sym.alpha_index
        if self.c <= -alpha:
            raise StripViolation(
                f"Re z = {self.c} outside the holomorphy region Re z > {-alpha}")
        # extent of the r < 1 side: integrand ~ e^(w (c + alpha))
        u0_end = min(48.0 / max(self.c + alpha, 0.05), 400.0)
        # extent of the r > 1 side: killed by e^{-t eta(e^w)}
        u1_end = self._find_u1(sym, t)

        def integrand(w):
            r = np.exp(w)
            d = sym.scaled_deriv(r)
            # D = 0 (a massive term's q underflows at r = e^-400) reads 0
            with np.errstate(divide="ignore"):
                log_td = np.log(np.abs(t * d))
            return -np.sign(d) * np.exp(log_td - t * sym.eta(r) + self.c * w)

        h = math.pi / self.max_imag
        n0, n1 = math.ceil(u0_end / h), math.ceil(u1_end / h)
        w = np.arange(-n0, n1 + 1, dtype=float) * h
        f = integrand(w)
        probes = np.array([0.0, 0.5 * self.max_imag, self.max_imag])
        prev = _phase_apply(_phase_table(h * f, w, h), probes)
        for _ in range(8):
            # the levels nest: only the midpoints are new
            h *= 0.5
            n0 *= 2
            n1 *= 2
            w = np.arange(-n0, n1 + 1, dtype=float) * h
            f = np.insert(f, np.arange(1, f.size), integrand(w[1::2]))
            # the level's table serves its probes and, once it has
            # settled, every later value
            table = _phase_table(h * f, w, h)
            cur = _phase_apply(table, probes)
            scale = np.max(np.abs(cur)) + 1e-300
            if np.max(np.abs(cur - prev)) <= tol * scale:
                break
            prev = cur
        else:
            raise NonConvergent("inner Mellin quadrature did not stabilize")
        self._h, self._table = h, table

    @staticmethod
    def _find_u1(sym, t):
        u = 0.5
        while u < 200.0:
            r = math.exp(u)
            if t * float(sym.eta(np.array([r]))[0]) > 760.0:
                return u
            u *= 1.25
        raise NonConvergent("symbol grows too slowly to truncate the "
                            "Mellin integral (eta must beat log r)")

    def value(self, v):
        """M_t^1(c + iv) for a 1-D array of imaginary parts."""
        return _phase_apply(self._table, np.asarray(v, float))


# a line of ``general_kernel_mb`` reads about two grids
_GRIDS_KEPT = 2 * _LINES_KEPT


@functools.lru_cache(maxsize=_GRIDS_KEPT)
def _grid_for(sym, t, c, cap, tol):
    return _MellinGrid(sym, t, c, cap, tol=tol)


def mellin_Mk(sym: RadialSymbol, t: float, z, tol: float = 1e-10):
    """M_t^1(z) = int_0^inf D(e^{-t eta(r)}) r^z dr.

    Valid (and holomorphic) for Re z > -alpha_index.  Scalars or arrays
    with a common real part are accepted; they are read off the grid of
    (symbol, t, Re z), kept in a bounded cache.  Raises DomainError
    unless 0 < t < inf.
    """
    _check_kernel(t)
    zz = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if not zz.size:
        return zz.reshape(np.shape(z))
    c = float(zz.real[0])
    if not np.all(zz.real == c):
        return np.array([complex(mellin_Mk(sym, t, zi, tol)) for zi in zz])
    # caps are powers of two from 16, the first rung of the decay ladder,
    # so the ladder's first probe {0, 8, 16} shares that rung's grid,
    # which every call builds anyway
    cap = 2.0 ** math.ceil(math.log2(max(np.max(np.abs(zz.imag)), 16.0)))
    out = _grid_for(sym, t, c, cap, tol).value(zz.imag)
    if np.isscalar(z) or getattr(z, "ndim", 0) == 0:
        return complex(out[0])
    return out.reshape(np.shape(z))


def mellin_M(sym: RadialSymbol, t: float, z, tol: float = 1e-10):
    """The continued Mellin transform of e^{-t eta}, M_t(z) = -M_t^1(z)/z."""
    return -mellin_Mk(sym, t, z, tol=tol) / np.asarray(z, dtype=np.complex128)


def general_kernel_mb(sym: RadialSymbol, d: int, beta: float, t: float,
                      r, abscissa: float | None = None, tol: float = 1e-7):
    """Kernel of a general radial symbol by the nested contour integral

        1/(pi^(d/2) r^(d+beta)) * (1/2 pi i) * int_(c) G(z) r^z dz,
        G(z) = Gamma((d+beta-z)/2) 2^(beta-z) / Gamma((z-beta)/2) * M_t(z),
        M_t(z) = -M_t^1(z)/z  (``mellin_M``),

    with c in ((d-1)/2+beta, d+beta), ``admissible_strip`` as for
    ``stable_mb``: ``abscissa`` or the strip midpoint; ``mellin._plan``
    picks the height and node count.  The inner transform values come
    from a frozen vectorized grid sized to the largest |Im z| asked for.

    ``r`` is a scalar or a 1-D array, as for ``stable_mb``: G, inner
    transform included, does not depend on r, and |r^(z-d-beta)| is
    r^(c-d-beta) at every height, so one plan and one sampling of G per
    node set serve the whole grid, and each r refines as it would alone.
    The samples are kept by ``_symbol_line``, per symbol value and
    (d, beta, t, tol, abscissa): G is sampled once per symbol and t,
    and a later call at any r takes no inner transform value.  Raises
    DomainError outside ``KernelSpec``'s rule on d, beta and t.
    """
    _check_kernel(t, d, beta)
    rs = _radii(r)
    out = _contour_route(_symbol_line(sym, d, beta, t, tol, abscissa),
                         d + beta, rs, 1.0, math.pi ** (-0.5 * d), tol)
    for res in out if isinstance(out, list) else [out]:
        res.est_error += abs(res.value) * _inner_tol(tol)
    return out


def _inner_tol(tol):
    """Tolerance of the inner transform M_t^1 behind a kernel's tol."""
    return min(1e-9, 0.1 * tol)


@functools.lru_cache(maxsize=_LINES_KEPT)
def _symbol_line(sym, d, beta, t, tol, abscissa):
    """The store of ``general_kernel_mb``'s line (``mellin._Line``), with
    its log G, shared by every r and by equal symbols, as
    ``stable_kernel._stable_line`` is by equal unit specs."""
    inner_tol = _inner_tol(tol)

    @fold_conjugates
    def log_g(z, sizes=False):
        z = np.asarray(z, dtype=np.complex128)
        # the stable factor's two gamma factors come from one log_gamma call
        down, over = log_gamma(np.stack((0.5 * (d + beta - z), 0.5 * (z - beta))))
        power, ln_m = (beta - z) * _LN2, np.log(mellin_M(sym, t, z, inner_tol))
        lg = down - over + power + ln_m
        if not sizes:
            return lg
        return lg, np.abs(down) + np.abs(over) + np.abs(power) + np.abs(ln_m)

    return _Line(log_g, *_plan(log_g, admissible_strip(d, beta), abscissa, tol))


def general_kernel_at_origin(sym: RadialSymbol, d: int, beta: float,
                             t: float, tol: float = 1e-7) -> Approximation:
    """Kernel of a general radial symbol at r = 0,

        (2 pi)^-d * omega_{d-1} * M_t(d + beta),

    omega_{d-1} the area of the unit sphere: the m = 0 term of the right
    residue series, one ``mellin_M`` read at the kernel's inner tolerance.
    Raises DomainError unless d >= 2, 0 <= beta < inf and 0 < t < inf.
    """
    _check_kernel(t, d, beta)
    inner_tol = _inner_tol(tol)
    omega = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
    value = (2.0 * math.pi) ** (-d) * omega * float(
        mellin_M(sym, t, d + beta, inner_tol).real)
    return Approximation(value=value, est_error=abs(value) * inner_tol,
                         method="mellin_origin", diagnostics={"origin": True})


def general_leading_term(sym: RadialSymbol, d: int, beta: float, t: float) -> dict:
    """Far-field law of the kernel for beta not an even integer:

        K ~ 2^beta Gamma((d+beta)/2) / (pi^(d/2) Gamma(-beta/2))
            * e^{-t eta(0)} * r^(-(d+beta)).

    The law is exact only as r -> infinity.  M_t is holomorphic on
    Re z > -alpha_index (see ``mellin_Mk``), so the relative remainder is
    O(r^(-alpha_index+eps)).  sum_stable(a, b) reaches that rate: its
    first correction, from the -t r^a term of e^{-t eta}, is exactly a
    powers below the leading term (-8.5% at r = 200 for a = 0.6, d = 2,
    beta = 0.5, t = 1).
    """
    if _is_even_integer(beta):
        raise ParityError("beta in {0, 2, 4, ...}: the first residue "
                          "vanishes; use perturbed_leading_term")
    # the n = 0 left residue of the stable integrand; alpha does not enter
    lead = _left_pole(d, sym.alpha_index, beta, 0)[0]
    return {"coefficient": lead.coefficient * math.exp(-t * sym.eta_at_zero),
            "exponent": lead.exponent}


def perturbed_leading_term(alpha: float, eta1_at_zero: float, d: int,
                           beta: float, t: float) -> dict:
    """Far-field law for symbols r^alpha + eta1 with even beta:

        K ~ -2^(beta+alpha) Gamma((d+beta+alpha)/2)
            / (pi^(d/2) Gamma(-(beta+alpha)/2))
            * t e^{-t eta1(0)} * r^(-(d+beta+alpha)).
    """
    if not _is_even_integer(beta):
        raise ParityError("beta not an even integer: use general_leading_term")
    # the n = 1 left residue of the stable integrand, from the -t r^alpha term
    lead = _left_pole(d, alpha, beta, 1)[0]
    return {"coefficient": lead.coefficient * (t * math.exp(-t * eta1_at_zero)),
            "exponent": lead.exponent}


# ---------------------------------------------------------------------------
# Upper envelope of the two-power symbol r^a + r^b.
# ---------------------------------------------------------------------------

def sum_symbol_envelope(d: int, a: float, b: float, t: float, r):
    """Upper envelope for the kernel of the two-power symbol r^a + r^b:
    the time scale follows the upper exponent for t <= 1 and the lower
    one for t >= 1, the spatial decay always follows the lower one."""
    idx = b if t <= 1.0 else a
    r = np.asarray(r, dtype=float)
    return t ** (-d / idx) * (1.0 + t ** (-1.0 / idx) * r) ** (-(d + a))


def sum_symbol_envelope_check(d: int, a: float, b: float, t: float, r_grid,
                              tol: float = 1e-9) -> dict:
    """Upper-bound check for the kernel of the two-power symbol r^a + r^b
    (0 < a < b < 2, beta = 0):

        K_t(r) <= C t^(-d/b) (1 + t^(-1/b) r)^(-(d+a))   for t <= 1,
        K_t(r) <= C t^(-d/a) (1 + t^(-1/a) r)^(-(d+a))   for t >= 1.

    Returns the empirical constant (max ratio) over the grid.  Kernel
    values come from ``symbol_oracle`` on ``sum_stable(a, b)``, and from
    ``general_kernel_at_origin`` at r = 0.
    """
    if not 0.0 < a < b < 2.0:
        raise ValueError("need 0 < a < b < 2")
    r_grid = np.asarray(r_grid, dtype=float)
    sym = make_symbol("sum_stable", a=a, b=b)
    kernel_values = np.array(
        [_oracle.symbol_oracle(sym, d, 0.0, t, float(r), tol=tol).value
         if r > 0 else general_kernel_at_origin(sym, d, 0.0, t, tol).value
         for r in r_grid])
    env = sum_symbol_envelope(d, a, b, t, r_grid)
    ratios = kernel_values / env
    finite = np.all(np.isfinite(ratios))
    return {"holds": bool(finite and np.all(kernel_values > 0)),
            "max_ratio": float(np.max(ratios)),
            "min_ratio": float(np.min(ratios))}


# ---------------------------------------------------------------------------
# Tail (r > 1) error integral and its decay slope.
# ---------------------------------------------------------------------------

def smoothstep_cutoff(n_vanish: int):
    """Polynomial cutoff: 0 on r <= 1, 1 on r >= 2, with the first
    ``n_vanish`` derivatives vanishing at both ends (regularized
    incomplete-beta smoothstep of matching order)."""
    p = int(n_vanish)
    if p < 0:
        raise ValueError("n_vanish must be >= 0")
    norm = math.factorial(2 * p + 1) / (math.factorial(p) ** 2)
    coeffs = [math.comb(p, j) * (-1.0) ** j / (p + 1 + j) for j in range(p + 1)]

    def psi(s):
        s = np.asarray(s, dtype=float)
        u = np.clip(s - 1.0, 0.0, 1.0)
        acc = np.zeros_like(u)
        for j in range(p, -1, -1):
            acc = acc * u + coeffs[j]
        out = norm * acc * u ** (p + 1)
        return float(out) if out.ndim == 0 else out

    psi.n_vanish = p
    return psi


def tail_integral(sym: RadialSymbol, d: int, beta: float, t: float, r: float,
                  n_parts: int = 4, psi=None, tol: float = 1e-11) -> float:
    """The r > 1 remainder integral

        E(t, r) = int_1^inf J_{d/2-1}(r s) psi(s) s^(d/2+beta) e^{-t eta(s)} ds

    for a cutoff psi that is 0 on s <= 1 and 1 on s >= 2.  With psi and
    eta providing n_parts derivatives, |E| decays at least like
    r^(-n_parts - 1/2); the built-in cutoff has n_parts + 1 vanishing
    derivatives at the seam.  Raises DomainError outside ``KernelSpec``'s
    rule on d, beta and t.
    """
    _check_kernel(t, d, beta)
    if psi is None:
        psi = smoothstep_cutoff(n_parts + 1)
    p = 0.5 * d + beta

    def w(s):
        s = np.asarray(s, dtype=float)
        cut = psi(s)
        out = np.zeros_like(s)
        pos = cut != 0.0
        sp_ = s[pos]
        out[pos] = cut[pos] * sp_ ** p * np.exp(-t * sym.eta(sp_))
        return out

    nu = 0.5 * d - 1.0
    return float(_oracle.oscillatory_bessel_integral(w, nu, r, s_start=1.0,
                                                     tol=tol).value)


def decay_slope(sym: RadialSymbol, d: int, beta: float, t: float, r_grid,
                n_parts: int = 4, psi=None) -> float:
    """Least-squares slope of log|E| against log r, fitted through the
    local envelope (window maxima of three samples per grid point) so
    oscillation nulls of E do not poison the fit.  Raises DomainError
    outside ``KernelSpec``'s rule on d, beta and t."""
    _check_kernel(t, d, beta)
    r_grid = np.asarray(r_grid, dtype=float)
    k = _ENVELOPE_WINDOW
    rr = np.geomspace(r_grid.min(), r_grid.max(), k * r_grid.size)
    vals = np.array([abs(tail_integral(sym, d, beta, t, float(r),
                                       n_parts=n_parts, psi=psi))
                     for r in rr])
    n_win = vals.size // k
    env_r = np.empty(n_win)
    env_v = np.empty(n_win)
    for i in range(n_win):
        sl = slice(i * k, (i + 1) * k)
        j = int(np.argmax(vals[sl]))
        env_r[i] = rr[sl][j]
        env_v[i] = vals[sl][j]
    good = env_v > 0
    x = np.log(env_r[good])
    y = np.log(env_v[good])
    slope = float(np.polyfit(x, y, 1)[0])
    return slope

