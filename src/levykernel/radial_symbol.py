"""Kernels of general radial Levy symbols eta(|xi|).

For a symbol eta with super-logarithmic growth and symbol-class bounds
r^(-alpha+m) |D^m eta(r)| <= A, the Mellin transform of exp(-t eta) is
continued meromorphically by k-fold integration by parts,

    M_t(z) = (-1)^k Gamma(z)/Gamma(z+k) * M_t^k(z),
    M_t^k(z) = int_0^inf D^k(exp(-t eta(r))) r^(z+k-1) dr,

and the kernel K^beta(t, x) (Fourier transform of |xi|^beta e^{-t eta})
gets a vertical-line representation whose leftmost residues give the
far-field behavior.  Symbols are registry-built with analytic
derivatives generated symbolically once at construction; evaluation is
plain numpy afterwards.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
import sympy as sp

from . import oracle as _oracle
from .errors import (DomainError, NonConvergent, OrderExceeded, ParityError,
                     StripViolation)
from .mellin import (ContourSpec, line_plan, power_line_integral,
                     remember_points)
from .specfun import log_gamma, reciprocal_gamma
from .stable_kernel import Approximation

__all__ = [
    "RadialSymbol",
    "make_symbol",
    "symbol_registry",
    "exp_eta_derivative",
    "scaled_exp_eta_derivative",
    "mellin_Mk",
    "mellin_M",
    "general_kernel_mb",
    "general_leading_term",
    "perturbed_leading_term",
    "general_strip",
    "default_derivative_order",
    "smoothstep_cutoff",
    "tail_integral",
    "decay_slope",
    "validate_symbol",
]

_LN2 = math.log(2.0)
K_MAX = 12  # highest derivative order generated for any symbol


@dataclass
class RadialSymbol:
    """A radial Levy symbol with analytic derivatives.

    ``localized`` marks symbols whose symbol-class bound holds near the
    origin only (with polynomial growth of all derivatives at infinity);
    the kernel representation is identical, only the sampled condition
    checks differ.
    """

    name: str
    params: dict
    expr: object  # sympy expression in r
    eta_at_zero: float
    alpha_index: float
    localized: bool = False
    delta: float | None = None
    M_growth: float | None = None
    A_bound: float = field(default=math.nan)
    k_max: int = K_MAX

    def __post_init__(self):
        self._r = sp.Symbol("r", positive=True)
        self._scaled: dict[int, object] = {}
        self._eta_fn = sp.lambdify(self._r, self.expr, modules="numpy")
        self._lock = threading.Lock()
        self._grids: dict = {}
        if math.isnan(self.A_bound):
            self.A_bound = self._sample_A_bound()

    # -- core evaluations -------------------------------------------------
    def eta(self, r):
        r = np.asarray(r, dtype=float)
        out = np.asarray(self._eta_fn(r), dtype=float)
        return np.broadcast_to(out, r.shape).copy() if out.shape != r.shape else out

    def _scaled_deriv_fn(self, m: int):
        """Numpy function for r^m * D^m eta, simplified so negative powers
        of r never appear alone (no overflow as r -> 0)."""
        if m > self.k_max:
            raise OrderExceeded(f"symbol provides derivatives up to {self.k_max}")
        with self._lock:
            fn = self._scaled.get(m)
            if fn is None:
                e = sp.powsimp(sp.expand(self._r ** m
                                         * sp.diff(self.expr, self._r, m)))
                fn = sp.lambdify(self._r, e, modules="numpy")
                self._scaled[m] = fn
        return fn

    def scaled_deriv(self, r, m: int):
        """r^m * D^m eta(r), vectorized; bounded by A r^alpha in the
        symbol class."""
        r = np.asarray(r, dtype=float)
        if m == 0:
            return self.eta(r)
        out = np.asarray(self._scaled_deriv_fn(m)(r), dtype=float)
        return np.broadcast_to(out, r.shape).copy() if out.shape != r.shape else out

    def eta_deriv(self, r, m: int):
        """m-th derivative of eta at r > 0."""
        r = np.asarray(r, dtype=float)
        if m == 0:
            return self.eta(r)
        return self.scaled_deriv(r, m) / r ** m

    def _sample_A_bound(self, k: int = 8):
        if self.localized:
            grid = np.geomspace(1e-4, 1.0, 81)
            ms = range(1, k + 1)
        else:
            grid = np.geomspace(1e-4, 1e4, 161)
            ms = range(0, k + 1)
        best = 0.0
        for m in ms:
            vals = np.abs(self.scaled_deriv(grid, m)) * grid ** (-self.alpha_index)
            best = max(best, float(np.max(vals)))
        return best

    @property
    def key(self):
        return (self.name, tuple(sorted(self.params.items())))

    def __repr__(self):
        p = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"RadialSymbol({self.name}({p}))"


def _registry():
    r = sp.Symbol("r", positive=True)

    def stable(a: float) -> RadialSymbol:
        if not 0.0 < a < 2.0:
            raise ValueError("stable index must lie in (0, 2)")
        return RadialSymbol(name="stable", params={"a": a}, expr=r ** a,
                            eta_at_zero=0.0, alpha_index=a, localized=False)

    def sum_stable(a: float, b: float) -> RadialSymbol:
        if not 0.0 < a < b < 2.0:
            raise ValueError("need 0 < a < b < 2")
        return RadialSymbol(name="sum_stable", params={"a": a, "b": b},
                            expr=r ** a + r ** b, eta_at_zero=0.0,
                            alpha_index=a, localized=True, delta=b,
                            M_growth=b)

    def relativistic(alpha: float, m: float) -> RadialSymbol:
        if not 0.0 < alpha < 2.0 or m <= 0.0:
            raise ValueError("need 0 < alpha < 2 and m > 0")
        expr = (r ** 2 + m ** 2) ** (alpha / 2.0) - m ** alpha
        return RadialSymbol(name="relativistic",
                            params={"alpha": alpha, "m": m}, expr=expr,
                            eta_at_zero=0.0, alpha_index=alpha,
                            localized=False)

    def perturbed(a: float, c: float, delta: float) -> RadialSymbol:
        if not 0.0 < a < 2.0 or delta <= a or c < 0.0:
            raise ValueError("need 0 < a < 2 and delta > a and c >= 0")
        return RadialSymbol(name="perturbed",
                            params={"a": a, "c": c, "delta": delta},
                            expr=r ** a + c * r ** delta, eta_at_zero=0.0,
                            alpha_index=a, localized=True, delta=delta,
                            M_growth=max(a, delta))

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
# Derivatives of exp(-t eta) via complete Bell polynomials.
# ---------------------------------------------------------------------------

def scaled_exp_eta_derivative(sym: RadialSymbol, t: float, r, m: int):
    """r^m * D^m(exp(-t eta(r))), vectorized and overflow-safe.

    Uses the Bell recurrence on the scaled derivatives h_j = -t r^j D^j eta,
    which the symbol class keeps O(t A r^alpha); no intermediate blows up
    even at r = e^(-100).
    """
    if m > sym.k_max:
        raise OrderExceeded(f"m = {m} exceeds available order {sym.k_max}")
    r = np.asarray(r, dtype=float)
    base = np.exp(-t * sym.eta(r))
    if m == 0:
        return base
    h = [None] + [-t * sym.scaled_deriv(r, j) for j in range(1, m + 1)]
    bell = [np.ones_like(r)]
    for i in range(m):
        acc = np.zeros_like(r)
        for j in range(i + 1):
            acc += math.comb(i, j) * bell[i - j] * h[j + 1]
        bell.append(acc)
    return base * bell[m]


def exp_eta_derivative(sym: RadialSymbol, t: float, r, m: int):
    """D^m(exp(-t eta(r))) for r > 0."""
    r = np.asarray(r, dtype=float)
    out = scaled_exp_eta_derivative(sym, t, r, m)
    if m:
        out = out / r ** m
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# The continued Mellin transform M_t^k on vertical lines.
# ---------------------------------------------------------------------------

# a folded request takes the factorised phases from this many heights
# on; below it the two exp tables save little over the dense matrix
_MIN_FACTORED = 64
# ... and only while its progression has at most this many slots per
# height: a set symmetric about a non-zero centre folds into two
# interleaved progressions whose common step can be arbitrarily fine
_MAX_SLOTS_PER_HEIGHT = 4
# heights per block of a phase matrix; bounds the working set
_PHASE_ROWS = 256


class _MellinGrid:
    """Frozen quadrature grid for M_t^k(c + iv), |v| <= max_imag.

    Both half-lines are log-substituted (r = e^-u and r = e^u) and the
    scaled integrand G(u) = r^k D^k(e^{-t eta}) is precomputed on
    Gauss-Legendre panels with real weights p0, p1, so each transform
    value is the pure-phase sum sum_u p(u) e^{i w(u) v}.

    ``value`` folds a request onto its distinct |v|, since real weights
    give M(c - iv) = conj M(c + iv).  When the folded heights lie on a
    progression a0 + m*step at most a few times longer than the request,
    as every trapezoid level does, m = b*B + j with B ~ sqrt(m_max + 1)
    splits each phase into a block head and an offset: two exp tables
    of about sqrt(m_max) columns each and one matmul.  Every other set
    (single points, the build probes, Gauss-Legendre panel nodes, short
    or scattered sets) takes the dense phase matrix of ``_eval_arrays``.
    Results are memoised per requested node set.
    """

    def __init__(self, sym, t, k, abscissa, max_imag, tol=1e-10):
        self.c = float(abscissa)
        self.max_imag = float(max_imag)
        self.tol = tol
        alpha = sym.alpha_index
        if self.c <= -alpha:
            raise StripViolation(
                f"Re z = {self.c} outside the holomorphy region Re z > {-alpha}")
        # extent of the r < 1 side: integrand ~ e^(-u (c + alpha))
        u0_rate = max(self.c + alpha, 0.05)
        u0_end = min(48.0 / u0_rate, 400.0)
        # extent of the r > 1 side: killed by e^{-t eta(e^u)}
        u1_end = self._find_u1(sym, t, k)
        delta = min(0.5, 8.0 / max(self.max_imag, 1.0))
        x_gl, w_gl = np.polynomial.legendre.leggauss(16)

        def build(n0, n1):
            u0, w0 = self._panel_nodes(u0_end, n0, x_gl, w_gl)
            u1, w1 = self._panel_nodes(u1_end, n1, x_gl, w_gl)
            g0 = scaled_exp_eta_derivative(sym, t, np.exp(-u0), k)
            g1 = scaled_exp_eta_derivative(sym, t, np.exp(u1), k)
            p0 = w0 * g0 * np.exp(-u0 * self.c)
            with np.errstate(over="ignore"):
                grow = np.exp(u1 * self.c)
            p1 = w1 * g1 * grow
            p1[~np.isfinite(p1)] = 0.0
            return u0, p0, u1, p1

        n0 = max(8, int(math.ceil(u0_end / delta)))
        n1 = max(8, int(math.ceil(u1_end / delta)))
        u0, p0, u1, p1 = build(n0, n1)
        probes = np.array([0.0, 0.5 * self.max_imag, self.max_imag])
        prev = self._eval_arrays(u0, p0, u1, p1, probes)
        for _ in range(8):
            n0 *= 2
            n1 *= 2
            u0, p0, u1, p1 = build(n0, n1)
            cur = self._eval_arrays(u0, p0, u1, p1, probes)
            scale = np.max(np.abs(cur)) + 1e-300
            if np.max(np.abs(cur - prev)) <= tol * scale:
                break
            prev = cur
        else:
            raise NonConvergent("inner Mellin quadrature did not stabilize")
        self.u0, self.p0, self.u1, self.p1 = u0, p0, u1, p1
        # both half-lines as one phase sum: sum p e^{i w v}
        self._w = np.concatenate((-u0, u1))
        self._p = np.concatenate((p0, p1))
        self._memo: dict[bytes, np.ndarray] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _panel_nodes(end, n_panels, x_gl, w_gl):
        edges = np.linspace(0.0, end, n_panels + 1)
        mids = 0.5 * (edges[1:] + edges[:-1])
        halfw = 0.5 * (edges[1:] - edges[:-1])
        u = (mids[:, None] + halfw[:, None] * x_gl[None, :]).ravel()
        w = (halfw[:, None] * w_gl[None, :]).ravel()
        return u, w

    @staticmethod
    def _find_u1(sym, t, k):
        u = 0.5
        while u < 200.0:
            r = math.exp(u)
            if t * float(sym.eta(np.array([r]))[0]) > 760.0:
                return u
            u *= 1.25
        raise NonConvergent("symbol grows too slowly to truncate the "
                            "Mellin integral (eta must beat log r)")

    def _eval_arrays(self, u0, p0, u1, p1, v):
        # M(c + iv) = sum p0 e^{-i u0 v} + sum p1 e^{+i u1 v}
        out = np.empty(v.shape, dtype=np.complex128)
        for i in range(0, v.size, _PHASE_ROWS):
            vv = v[i:i + _PHASE_ROWS]
            out[i:i + _PHASE_ROWS] = (p0 @ np.exp(-1j * np.outer(u0, vv))
                                      + p1 @ np.exp(1j * np.outer(u1, vv)))
        return out

    @staticmethod
    def _progression(a):
        """(a0, step, m) with a ~= a0 + m*step to a few ulps, for sorted
        distinct heights a on a progression of at most
        _MAX_SLOTS_PER_HEIGHT * a.size slots; None for any other set."""
        if a.size < _MIN_FACTORED:
            return None
        span = a[-1] - a[0]
        # the step is taken as the smallest gap; if a has no two adjacent
        # slots filled, the reconstruction check fails and a goes dense
        slots = span / np.diff(a).min()
        if not slots < _MAX_SLOTS_PER_HEIGHT * a.size:
            return None
        step = span / round(slots)
        m = np.rint((a - a[0]) / step)
        ulps = 8 * np.finfo(float).eps * a[-1]
        if np.max(np.abs(a[0] + m * step - a)) > ulps:
            return None
        return a[0], step, m.astype(np.int64)

    def _factored(self, a0, step, m):
        """M(c + i(a0 + m*step)) by blocked phases: with m = b*B + j the
        phase e^{iwv} is e^{iw(a0 + bB step)} e^{iw j step}."""
        n_slots = int(m[-1]) + 1
        block = math.isqrt(n_slots - 1) + 1
        n_heads = -(-n_slots // block)
        offsets = np.exp(1j * np.outer(self._w, step * np.arange(block)))
        heads = a0 + step * block * np.arange(n_heads)
        table = np.empty((n_heads, block), dtype=np.complex128)
        for i in range(0, n_heads, _PHASE_ROWS):
            hh = heads[i:i + _PHASE_ROWS]
            table[i:i + _PHASE_ROWS] = (self._p * np.exp(
                1j * np.outer(hh, self._w))) @ offsets
        return table.ravel()[m]

    def value(self, v):
        """M_t^k(c + iv) for an array of imaginary parts, memoised per
        node set (a copy is returned)."""
        v = np.atleast_1d(np.asarray(v, dtype=float))
        key = v.tobytes()
        with self._lock:
            got = self._memo.get(key)
        if got is None:
            flat = v.ravel()
            a, inverse = np.unique(np.abs(flat), return_inverse=True)
            prog = self._progression(a)
            if prog is None:
                folded = self._eval_arrays(self.u0, self.p0, self.u1, self.p1, a)
            else:
                folded = self._factored(*prog)
            got = folded[inverse]
            np.conjugate(got, out=got, where=flat < 0)
            with self._lock:
                self._memo[key] = got
        return got.reshape(v.shape).copy()


def _grid_for(sym: RadialSymbol, t: float, k: int, abscissa: float,
              max_imag: float, tol: float) -> _MellinGrid:
    # caps are powers of two from 16, the first rung of the decay ladder,
    # so the ladder's samples at Im z = 0 and 8 reuse that rung's grid
    cap = 2.0 ** math.ceil(math.log2(max(max_imag, 16.0)))
    key = (t, k, round(abscissa, 12), cap, tol)
    with sym._lock:
        grid = sym._grids.get(key)
    if grid is None:
        grid = _MellinGrid(sym, t, k, abscissa, cap, tol=tol)
        with sym._lock:
            sym._grids[key] = grid
    return grid


def mellin_Mk(sym: RadialSymbol, t: float, z, k: int, tol: float = 1e-10):
    """M_t^k(z) = int_0^inf D^k(e^{-t eta(r)}) r^(z+k-1) dr.

    Valid (and holomorphic) for Re z > -alpha_index.  Scalars or arrays
    with a common real part are accepted; values are memoised per node
    set on the grid of (symbol, t, k, Re z).
    """
    zz = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    c = float(zz.real[0])
    if not np.all(zz.real == c):
        return np.array([complex(mellin_Mk(sym, t, zi, k, tol)) for zi in zz])
    grid = _grid_for(sym, t, k, c, float(np.max(np.abs(zz.imag))), tol)
    out = grid.value(zz.imag)
    if np.isscalar(z) or getattr(z, "ndim", 0) == 0:
        return complex(out[0])
    return out.reshape(np.shape(z))


def mellin_M(sym: RadialSymbol, t: float, z, k: int, tol: float = 1e-10):
    """The continued Mellin transform of e^{-t eta}:
    M_t(z) = (-1)^k Gamma(z)/Gamma(z+k) M_t^k(z)."""
    zz = np.asarray(z, dtype=np.complex128)
    mk = mellin_Mk(sym, t, z, k, tol=tol)
    ratio = np.exp(log_gamma(zz) - log_gamma(zz + k))
    return (-1.0) ** k * ratio * mk


def general_strip(d: int, beta: float):
    """Contour strip for the general-symbol representation:
    ((d+1)/2 + beta, d + beta)."""
    return (0.5 * (d + 1) + beta, float(d) + beta)


def default_derivative_order(d: int, beta: float) -> int:
    """Smallest integer exceeding (d+3)/2 + beta + 1 (one unit of slack
    beyond the integration-by-parts requirement)."""
    return math.floor(0.5 * (d + 3) + beta + 1.0) + 1


def general_kernel_mb(sym: RadialSymbol, d: int, beta: float, t: float,
                      r, k: int | None = None,
                      contour: ContourSpec | None = None,
                      tol: float = 1e-7):
    """Kernel of a general radial symbol by the nested contour integral

        (-1)^k/(pi^(d/2) r^(d+beta)) * (1/2 pi i) * int_(c) G(z) r^z dz,
        G(z) = Gamma(z) Gamma((d+beta-z)/2) 2^(beta-z)
               / (Gamma(z+k) Gamma((z-beta)/2)) * M_t^k(z),

    with c in ((d+1)/2+beta, d+beta) and k > (d+3)/2 + beta, planned by
    ``mellin.line_plan``.  The inner transform values come from a frozen
    vectorized grid sized to the largest |Im z| asked for.

    ``r`` is a scalar or a 1-D array, as for ``stable_mb``: G, inner
    transform included, does not depend on r, and |r^(z-d-beta)| is
    r^(c-d-beta) at every height, so one plan and one sampling of G per
    node set serve the whole grid, and each r refines as it would alone.
    """
    rs = np.asarray(r, dtype=float)
    if rs.ndim > 1:
        raise ValueError("r must be a scalar or a 1-D array")
    if not np.all(rs > 0.0):
        raise DomainError("r must be > 0")
    if not np.all(np.isfinite(rs)):
        raise DomainError("r must be finite")
    if k is None:
        k = default_derivative_order(d, beta)
    if k <= 0.5 * (d + 3) + beta:
        raise ValueError(f"k = {k} must exceed (d+3)/2 + beta = "
                         f"{0.5 * (d + 3) + beta}")
    if k > sym.k_max:
        raise OrderExceeded(f"k = {k} exceeds available derivatives {sym.k_max}")
    inner_tol = min(1e-9, 0.1 * tol)

    @remember_points
    def log_g(z):
        z = np.asarray(z, dtype=np.complex128)
        return (log_gamma(z) - log_gamma(z + k)
                + log_gamma(0.5 * (d + beta - z)) - log_gamma(0.5 * (z - beta))
                + (beta - z) * _LN2 + np.log(mellin_Mk(sym, t, z, k, inner_tol)))

    plan = line_plan(log_g, general_strip(d, beta), contour, tol)
    lines = power_line_integral(log_g, np.log(np.atleast_1d(rs)), d + beta,
                                plan, tol=tol)
    scale = (-1.0) ** k / math.pi ** (0.5 * d)
    out = []
    for res in lines:
        value = scale * res.value.real
        est = abs(scale) * (res.tail_bound + res.discretization_estimate) \
            + abs(value) * inner_tol
        out.append(Approximation(
            value=value, est_error=est, method="mb_contour",
            diagnostics={"nodes_used": res.nodes_used,
                         "truncation_height": plan.half_height,
                         "abscissa": plan.abscissa, "k": k,
                         "imag_ratio": abs(res.value.imag)
                         / max(abs(res.value), 1e-300)}))
    return out if rs.ndim else out[0]


def _is_even_integer(beta: float, tol: float = 1e-9) -> bool:
    return abs(0.5 * beta - round(0.5 * beta)) < tol


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
    rg = reciprocal_gamma(-0.5 * beta)
    rg = rg.real if isinstance(rg, complex) else rg
    coef = (2.0 ** beta * math.gamma(0.5 * (d + beta)) * rg
            * math.exp(-t * sym.eta_at_zero) / math.pi ** (0.5 * d))
    return {"coefficient": coef, "exponent": float(d) + beta}


def perturbed_leading_term(alpha: float, eta1_at_zero: float, d: int,
                           beta: float, t: float) -> dict:
    """Far-field law for symbols r^alpha + eta1 with even beta:

        K ~ -2^(beta+alpha) Gamma((d+beta+alpha)/2)
            / (pi^(d/2) Gamma(-(beta+alpha)/2))
            * t e^{-t eta1(0)} * r^(-(d+beta+alpha)).
    """
    if not _is_even_integer(beta):
        raise ParityError("beta not an even integer: use general_leading_term")
    rg = reciprocal_gamma(-0.5 * (beta + alpha))
    rg = rg.real if isinstance(rg, complex) else rg
    coef = (-(2.0 ** (beta + alpha)) * math.gamma(0.5 * (d + beta + alpha))
            * rg * t * math.exp(-t * eta1_at_zero) / math.pi ** (0.5 * d))
    return {"coefficient": coef, "exponent": float(d) + beta + alpha}


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
    derivatives at the seam.
    """
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
    val, _, _ = _oracle.oscillatory_bessel_integral(w, nu, r, s_start=1.0,
                                                    tol=tol)
    return float(val)


def decay_slope(sym: RadialSymbol, d: int, beta: float, t: float, r_grid,
                n_parts: int = 4, psi=None, dense: int = 3) -> float:
    """Least-squares slope of log|E| against log r, fitted through the
    local envelope (window maxima) so oscillation nulls of E do not
    poison the fit."""
    r_grid = np.asarray(r_grid, dtype=float)
    rr = np.geomspace(r_grid.min(), r_grid.max(), dense * r_grid.size)
    vals = np.array([abs(tail_integral(sym, d, beta, t, float(r),
                                       n_parts=n_parts, psi=psi))
                     for r in rr])
    k = dense
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


def validate_symbol(sym: RadialSymbol, k: int = 8) -> dict:
    """Sampled regularity checks.

    Global symbols: r^(-alpha+m)|D^m eta| <= 1.01 A on a wide log grid
    for all m <= k.  Localized symbols: the same near the origin, plus
    polynomial growth |D^m eta| <= C r^M for r > 1.  Both: eta(r)/log r
    increasing through r = 1e2, 1e4, 1e6.
    """
    out = {}
    if sym.localized:
        grid = np.geomspace(1e-4, 1.0, 81)
        worst = 0.0
        for m in range(1, k + 1):
            vals = np.abs(sym.scaled_deriv(grid, m)) * grid ** (-sym.alpha_index)
            worst = max(worst, float(np.max(vals)))
        out["class_bound_ok"] = worst <= 1.01 * sym.A_bound
        big = np.geomspace(1.0, 1e4, 81)
        m_exp = sym.M_growth if sym.M_growth is not None else 2.0
        growth = 0.0
        for m in range(0, k + 1):
            vals = np.abs(sym.scaled_deriv(big, m)) / big ** m / big ** m_exp
            growth = max(growth, float(np.max(vals)))
        out["poly_growth_constant"] = growth
        out["poly_growth_ok"] = math.isfinite(growth)
    else:
        grid = np.geomspace(1e-4, 1e4, 161)
        worst = 0.0
        for m in range(0, k + 1):
            vals = np.abs(sym.scaled_deriv(grid, m)) * grid ** (-sym.alpha_index)
            worst = max(worst, float(np.max(vals)))
        out["class_bound_ok"] = worst <= 1.01 * sym.A_bound
    out["A_sampled"] = worst
    probes = np.array([1e2, 1e4, 1e6])
    ratios = sym.eta(probes) / np.log(probes)
    out["superlog_growth_ok"] = bool(np.all(np.diff(ratios) > 0))
    return out
