"""Vertical-line (inverse-Mellin) contour quadrature.

Both kernels are integrals (1/2*pi*i) * int_(c) G(z) r^z dz with G
independent of r (a gamma ratio, times M_t for a general symbol).
A kernel's caller chooses at most the line's abscissa, the strip
midpoint by default; ``_plan`` derives the height and node count from G
alone, climbing a decay ladder whose first rung {0, 8, 16} is one call
of G.  The line's samples live in a store, ``_Line``, and
``_contour_route``, the engine of both kernels, reads them into kernel
values for a whole grid of r, refining each r as it would alone.  The
one rule is the trapezoid with node doubling, exponentially accurate
for analytic integrands that decay along the line (Trefethen and
Weideman, SIAM Review 56, 2014); M_t^1 uses it too, on the log-line.
The limits are fixed, not options: a ladder from T = 16 to 4096, at
least 2 * 64 + 1 nodes on a planned line's first level, and at most six
node doublings after it.

Callers assemble integrands from combined log-gamma ratios, so
magnitudes stay representable on tall lines.  The engine exponentiates
G once per node, scaled by its largest modulus; each r then costs one
real scale r^(c - shift) and a sum of phases r^(i Im z).  Such sums,
here and in M_t^1, come from ``_phase_table`` and ``_phase_apply``, in
sqrt(N) blocks of the evenly spaced nodes: the line's heights, or
M_t^1's log-radii.  Every set of samples, a ladder rung or a quadrature
level, is one call of G.

G never depends on r, so each kernel keeps its line in a store: log G
itself, the plan, the tail estimate and per trapezoid level top, gross
and the ``_phase_table`` of its scaled samples, grown on demand.  Levels
0 and 1 have one node spacing; level 1's table takes level 0's width,
and the store keeps the two as one pair table (``_pair_table``).  G is
sampled and each table built once per unit spec or symbol value; a
later call pays only its phases (``_phase_apply`` for a grid).  Each r
refines as alone, so a value does not depend on what the store held
before.  A row stops only on levels that resolve its phase e^(i v ln r)
(``_refine``'s aliasing guard).

A scalar r is one row, and ``_power_one`` runs it on Python numbers:
numpy forms only its phase sums, its scales and, per level, the moduli
that test convergence, as it would for one row of a grid.  Levels 0
and 1, where almost every value stops, come from one ``_phase_pair``:
one exp of ln r times the pair's stored i heights, and the grid's
contractions, run by numpy's C einsum directly; a later level is one
``_phase_one`` of its own table.  Every other step is rounded as numpy
rounds it, so a scalar call returns the bits of its grid row without a
grid's per-call array work.

All reductions run in a fixed order, so results are bit-reproducible.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (Approximation, DomainError, NoDecay, NonConvergent,
                     StripViolation)
from .specfun import log_gamma

try:  # the C kernel that ``np.einsum(..., optimize=False)`` calls
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum as _c_einsum

__all__ = [
    "ContourSpec",
    "mellin_bessel_rhs",
]

# complex phases per row block of ``_phase_apply``: bounds the working set
# whatever the number of rows
_BLOCK_ELEMS = 1 << 15
_REFINEMENTS = 6  # node doublings after a plan's first trapezoid level
_LADDER_START, _LADDER_CAP = 16.0, 4096.0  # first and last rung of the ladder
_MIN_NODES = 64  # least ``nodes`` of a planned line (``ContourSpec``)
_INV_2PI = 1.0 / (2.0 * math.pi)  # numpy's reciprocal in a division by 2 pi
_EPS = 2.0 ** -52  # the spacing of floats at 1


@dataclass(frozen=True)
class ContourSpec:
    """One vertical-line quadrature plan: Re z = abscissa, |Im z| <=
    half_height, with 2 * nodes + 1 nodes on its first trapezoid level."""

    abscissa: float
    half_height: float
    nodes: int = 64

    def __post_init__(self):
        if not self.half_height > 0:
            raise ValueError("half_height must be > 0")
        if self.nodes < 16:
            raise ValueError("nodes must be >= 16")


def _magnitudes(f, c, heights):
    """|f(c + iv)| at each of ``heights``, from one call of f.  Overflow
    reads as inf, without a warning: the callers test for it."""
    with np.errstate(over="ignore"):
        return np.abs(f(c + 1j * np.array(heights, dtype=float))).tolist()


def _tail_estimate(m_half, m_top, half_height):
    """Estimate, not a bound, of the discarded |Im z| > T tails: a power
    law fitted through the magnitudes at T/2 and T, integrated beyond T.
    It overestimates exponentially decaying integrands; two samples
    guarantee nothing between or beyond them.
    """
    if m_top == 0.0:
        return 0.0
    if m_top >= m_half:
        return math.inf
    p = math.log(m_half / m_top) / math.log(2.0)
    if p <= 1.0:
        return math.inf
    # int_T^inf m_top * (T/v)^p dv = m_top * T / (p - 1), both tails, /(2 pi)
    return m_top * half_height / (p - 1.0) / math.pi


def _level_grid(plan: ContourSpec, i):
    """Half count m and step H/m of trapezoid level i: 2m + 1 nodes on
    level 0, m = n, then the 2m new midpoints on level i, m = n 2^(i-1)."""
    m = plan.nodes << max(i - 1, 0)
    return m, plan.half_height / m


def _heights(plan: ContourSpec, i):
    """Node heights of the plan's trapezoid level i."""
    m, h = _level_grid(plan, i)
    return (np.arange(-m, m, dtype=float) + 0.5) * h if i else (
        np.arange(-m, m + 1, dtype=float) * h)


def _refine(sums, n_rows, contour, tol, rounding, freq):
    """Run the plan's trapezoid on ``n_rows`` integrands whose per-level
    sums come from ``sums(level, rows)``: per row of ``rows``, the sum of
    f (ends halved on level 0) and the sum of |f| over the nodes of that
    level (``_heights``).  A row stops refining once its change is within
    tol, or within 5e-16 of its gross sum g, the rounding of its
    cancelling sum.  Its estimate is the larger of the two, plus the
    rounding floor eps g (8 + w): 8 for the sums and products at a node,
    and w, ``rounding`` (one per row, or one for all), for the rounding
    of the samples themselves, per unit of g (``_power_line``).

    ``freq`` (one per row, or one for all) is the row's phase frequency
    |ln r'|: the estimate of level i, step h_i = h / 2^i, cannot resolve
    e^(i v ln r') once h_i |ln r'| >= pi, and two aliased levels may
    agree on a wrong value, so a row stops at level i only when
    h_(i-1) |ln r'| < pi, h_(i-1) being the spacing of level i's new
    midpoints.  Returns per-row values, discretization estimates and
    node counts; raises NonConvergent if any row fails to converge.
    ``_refine_one`` runs the same loop for one row on Python numbers.
    """
    rounding = np.broadcast_to(rounding, n_rows)
    value = np.empty(n_rows, dtype=np.complex128)
    disc = np.empty(n_rows)
    used = np.empty(n_rows, dtype=np.int64)
    rows = np.arange(n_rows)  # rows still refining, with their estimates
    est = gross = None
    n_used = 0
    last = math.inf
    if not n_rows:
        return value, disc, used
    top_freq = np.asarray(freq).max()
    for level in range(_REFINEMENTS + 1):
        m, h = _level_grid(contour, level)
        s, a = sums(level, rows)
        n_used += 2 * m + (level == 0)
        # a midpoint level halves the step and keeps half the estimate
        scale = 0.5 * h if level else h
        new = scale * s / (2.0 * math.pi)
        g = scale * a / (2.0 * math.pi)
        if level:
            new += 0.5 * est
            g += 0.5 * gross
            diff = np.abs(new - est)
            floor = 5e-16 * g
            done = diff <= np.maximum(np.maximum(tol * np.abs(new), floor),
                                      1e-300)
            if not h * top_freq < math.pi:  # a row may alias on this level
                done &= h * np.broadcast_to(freq, n_rows)[rows] < math.pi
            if done.any():
                out = rows[done]
                value[out] = new[done]
                disc[out] = (np.maximum(diff, floor)[done]
                             + _EPS * g[done] * (8.0 + rounding[out]))
                used[out] = n_used
                if out.size == rows.size:
                    return value, disc, used
                more = ~done
                rows, new, g, diff = rows[more], new[more], g[more], diff[more]
            last = diff.max()
        est, gross = new, g
    raise NonConvergent(
        f"trapezoid refinement stalled after {n_used} nodes, "
        f"last change {last:.3e}")


def _refine_one(sums, contour, tol, rounding, freq):
    """The loop of ``_refine`` for one row, on Python numbers:
    ``sums(level, None)`` gives its two sums as a complex and a float,
    ``rounding`` and ``freq`` are floats, and the value, estimate and
    node count come back as a complex, a float and an int, with the bits
    of a one-row array run.  Each step rounds as numpy's does on one
    element, up to the sign of an underflowed zero.  The complex moduli
    are numpy's, one call per level (Python's abs rounds differently),
    and the division by 2 pi is numpy's Smith quotient by a real,
    (re + im 0, im - re 0) times 1/(2 pi), not Python's.

    ``sums`` still answers index arrays: a zero real part, whose sign
    alone the two loops may round apart, is taken from the array loop.
    """
    est = gross = None
    n_used = 0
    for level in range(_REFINEMENTS + 1):
        m, h = _level_grid(contour, level)
        s, a = sums(level, None)
        n_used += 2 * m + (level == 0)
        scale = 0.5 * h if level else h
        s *= scale
        new = complex((s.real + s.imag * 0.0) * _INV_2PI,
                      (s.imag - s.real * 0.0) * _INV_2PI)
        g = scale * a / (2.0 * math.pi)
        if level:
            new += 0.5 * est
            g += 0.5 * gross
            diff, mod = np.abs((new - est, new)).tolist()
            floor = 5e-16 * g
            if diff <= max(tol * mod, floor, 1e-300) and h * freq < math.pi:
                if not new.real:
                    # numpy may fuse a complex product's multiply and add
                    # (FMA), so an underflowed product can round to a zero
                    # of the other sign
                    value, disc, used = _refine(sums, 1, contour, tol,
                                                rounding, freq)
                    return value.item(), disc.item(), used.item()
                return (new, max(diff, floor) + _EPS * g * (8.0 + rounding),
                        n_used)
        est, gross = new, g
    raise NonConvergent(
        f"trapezoid refinement stalled after {n_used} nodes, "
        f"last change {diff:.3e}")


def _row_blocks(v, heights, contract):
    """``contract`` of the phases exp(i v_j heights), by row blocks of v."""
    rows = max(1, _BLOCK_ELEMS // heights.size)
    if v.size <= rows:
        return contract(np.exp(1j * np.multiply.outer(v, heights)))
    return np.concatenate([contract(np.exp(1j * np.multiply.outer(
        v[lo:lo + rows], heights))) for lo in range(0, v.size, rows)])


def _phase_table(p, w, step, width=None):
    """The v-free part, read-only (heights, table, heads, iheights), of
    the sums sum_k p_k exp(i w_k v_j) for every v_j, the nodes w
    increasing, spaced by ``step`` and reaching w >= 0: the node split of
    a nonequispaced DFT (Dutt and Rokhlin) in ~sqrt(N) blocks.  Counting
    from k0, the first node at or above w = 0, node k0 + m is
    m = b*B + q with centred offsets -half <= q < B - half, and sits in
    slot m + half - lo*B of a (heads, B) table, B = ``width``, by default
    isqrt(N - 1) + 1.  Its phase is head b's, at height w_k0 + b*B*step,
    times offset q's, so the rounding of a height grows with its distance
    from w = 0, as in a direct exp.  ``_phase_apply`` gives each v_j
    heads + B exps of one outer product, and forms its sum alone: its
    bits do not depend on the rest of v.  ``iheights`` = 1j * heights is
    kept for ``_phase_one``, the sum at one float v.  Two tables of one
    width and step share their offset heights (q - half) * step, so
    ``_pair_table`` can join them.
    """
    k0 = int(np.searchsorted(w, 0.0))
    if width is None:
        width = math.isqrt(w.size - 1) + 1
    half = width // 2
    lo = (half - k0) // width
    heads = (w.size - 1 - k0 + half) // width - lo + 1
    mat = np.zeros((heads, width), dtype=np.complex128)
    off = half - k0 - lo * width
    mat.reshape(-1)[off:off + w.size] = p
    heights = np.concatenate((
        w[k0] + (np.arange(lo, lo + heads) * width) * step,
        (np.arange(width) - half) * step))
    iheights = 1j * heights
    for a in (mat, heights, iheights):
        a.flags.writeable = False
    return heights, mat, heads, iheights


def _phase_apply(table, v):
    """The sums of a ``_phase_table`` at each of ``v``, by row blocks:
    per block, the phases exp(i v_j heights) of one outer product, then
    two contractions, the tails over the offsets and their sum over the
    heads."""
    heights, mat, heads, _ = table

    def contract(ph):
        tails = np.einsum("rq,bq->rb", ph[:, heads:], mat)
        return np.einsum("rb,rb->r", tails, ph[:, :heads])

    return _row_blocks(v, heights, contract)


def _phase_one(table, x):
    """The sum of a ``_phase_table`` at one float ``x``, as a complex:
    the row of ``_phase_apply`` at v = [x], bit for bit, without its
    array work.  The phases are one exp of x * iheights, whose imaginary
    parts are the grid's x * heights and whose real parts are zeros, as
    the grid's 1j * (x * heights) has; the two contractions are the
    grid's, one row of them, through the C einsum behind ``np.einsum``.
    """
    _, mat, heads, iheights = table
    ph = np.exp(x * iheights)
    return _c_einsum("b,b->", _c_einsum("q,bq->b", ph[heads:], mat),
                     ph[:heads]).item()


def _pair_table(zero, one):
    """The pair table of two ``_phase_table`` s of one width and step,
    trapezoid levels 0 and 1, and the two tables again, each with its
    (heads, B) table now a row view of the pair's stack, so that the
    store keeps those arrays once.  The pair, read-only, is (i times the
    heights of level 0's heads, level 1's heads and the shared offsets,
    the stacked tables (heads0 + heads1, B), heads0, heads1), for
    ``_phase_pair``."""
    (h0, m0, n0, i0), (h1, m1, n1, i1) = zero, one
    mat = np.concatenate((m0, m1))
    iheights = np.concatenate((i0[:n0], i1))
    for a in (mat, iheights):
        a.flags.writeable = False
    return (h0, mat[:n0], n0, i0), (h1, mat[n0:], n1, i1), (
        iheights, mat, n0, n1)


def _phase_pair(pair, x):
    """The sums of levels 0 and 1 at one float ``x``, as two complexes,
    from their ``_pair_table``: the bits of ``_phase_one`` on each
    level's table.  One exp of x * iheights gives both levels' heads and
    their shared offsets, one contraction the tails of every head of the
    stack, and one contraction per level their sum over its heads."""
    iheights, mat, n0, n1 = pair
    heads = n0 + n1
    ph = np.exp(x * iheights)
    tails = _c_einsum("q,bq->b", ph[heads:], mat)
    return (_c_einsum("b,b->", tails[:n0], ph[:n0]).item(),
            _c_einsum("b,b->", tails[n0:], ph[n0:heads]).item())


class _Line:
    """The r-free samples of one contour: its log_g, its plan, the tail
    estimate of exp(log_g) beyond the plan's height, and per trapezoid
    level the largest Re log_g of the node set, ``top``, the gross sum of
    the scaled samples |e| = |exp(log_g - top)|, and the ``_phase_table``
    of e, ends halved on level 0.  Levels are sampled on demand, in
    order, outside the lock, and kept read-only in an append-only tuple.

    Level 1's table takes level 0's width, and level 1 is stored with
    the ``_pair_table`` of both, in the same locked step that swaps
    level 0's table for its view of the pair: a reader that finds level
    1 finds the pair (``pair``).

    With level 0 the line keeps two means over its nodes, weighted by
    |e|, for the rounding floor of ``_power_line``: ``moments`` = (the
    mean of the summed moduli of log_g's parts, the mean |Im z|).
    ``log_g(z, sizes=True)`` gives that sum beside log_g, from the same
    samples.
    """

    def __init__(self, log_g, plan: ContourSpec, tail: float):
        self.log_g, self.plan, self.tail = log_g, plan, tail
        self._levels = ()
        self._pair = None
        self.moments = None
        self._lock = threading.Lock()

    def level(self, i):
        """(top, gross, table) of level ``i``; its nodes are formed and
        log_g called only for a level the store does not hold yet."""
        levels = self._levels
        if i < len(levels):
            return levels[i]
        if i == 1:
            base = self.level(0)
        v = _heights(self.plan, i)
        z = self.plan.abscissa + 1j * v
        if i:
            lg = self.log_g(z)
        else:
            lg, size = self.log_g(z, sizes=True)
        top = float(lg.real.max())
        e = np.exp(lg - top)
        mod = np.abs(e)
        gross = float(mod.sum())
        if not i:
            moments = (float((mod * size).sum()) / gross,
                       float((mod * np.abs(v)).sum()) / gross)
            e[0] *= 0.5
            e[-1] *= 0.5
        step = _level_grid(self.plan, i)[1]
        if i == 1:
            zero, one, pair = _pair_table(
                base[2], _phase_table(e, v, step, base[2][1].shape[1]))
            stored = top, gross, one
        else:
            stored = top, gross, _phase_table(e, v, step)
        with self._lock:
            # a racing call may have stored level i first, with these bits
            if len(self._levels) == i:
                if not i:
                    self.moments = moments
                if i == 1:
                    self._pair = (base[0], base[1], zero), stored, pair
                    self._levels = self._pair[:2]
                else:
                    self._levels += (stored,)
        return stored

    def pair(self):
        """(level 0, level 1, their ``_pair_table``), each level as
        ``level`` gives it; both are sampled if the store lacks them."""
        held = self._pair
        if held is None:
            self.level(1)
            held = self._pair
        return held


def _line_sums(line: _Line, ln_r, slope):
    """``_refine``'s sums(level, rows) for the rows of the 1-D ``ln_r``
    on the store ``line``, with slope c - shift (``_power_line``)."""

    def sums(level, rows):
        top, gross, table = line.level(level)
        x = ln_r[rows]
        rho = np.exp(top + slope * x)
        return rho * _phase_apply(table, x), rho * gross

    return sums


def _power_line(line: _Line, ln_r, shift, tol):
    """(1/2 pi i) int_(c) exp(log_g(z) + (z - shift) ln r) dz on the
    store ``line`` of log_g, for every entry of the 1-D ``ln_r``: per-row
    values, tail estimates, discretization estimates and node counts.  A
    0-d ``ln_r`` is forwarded to ``_power_one``.

    At node k the integrand is E_k rho e^(i v_k ln r), E_k the level's
    scaled sample, v_k = Im z_k and rho = exp(top + (c - shift) ln r) one
    real scale per r, so each r's sum of |f| is rho * gross and its sum
    of f needs only the phases.  |r^(z - shift)| is r^(c - shift) at
    every height, so each tail estimate is the line's times that.  Each
    r keeps its own convergence test, aliasing guard (frequency |ln r|),
    rounding floor and error estimate, and stops refining when it
    converges: every row equals that of a one-element ``ln_r``, and that
    of ``_power_one``.

    The rounding floor of a row (``_refine``'s w) is the relative
    rounding of its scaled samples, per eps: the parts of log_g, mean
    ``moments[0]``, the phase v ln r, mean ``moments[1]`` |ln r|, and
    the argument top + (c - shift) ln r of rho, at level 0's top.  Each
    is an absolute error in the exponent of a sample, and so a relative
    one in its size (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3).
    """
    ln_r = np.asarray(ln_r, dtype=float)
    if not ln_r.ndim:
        return _power_one(line, float(ln_r), shift, tol)
    slope = line.plan.abscissa - shift
    freq = np.abs(ln_r)
    rounding = 0.0
    if ln_r.size:
        top = line.level(0)[0]
        size, height = line.moments
        rounding = size + height * freq + np.abs(top + slope * ln_r)
    value, disc, used = _refine(_line_sums(line, ln_r, slope), ln_r.size,
                                line.plan, tol, rounding, freq)
    return value, line.tail * np.exp(slope * ln_r), disc, used


def _power_one(line: _Line, x: float, shift, tol):
    """``_power_line`` for one float ln r = ``x``, as Python numbers: a
    complex value, a float tail and discretization estimate and an int
    node count, with the bits of a one-element grid.  Levels 0 and 1 come
    from one ``_phase_pair``, and their scales rho and the tail's
    r^(c - shift) from three scalar exps, which take less time than one
    exp of the three as an array; ``_refine_one`` runs the loop, and a
    level past 1 is one ``_phase_one``.  A zero real part is taken from
    the array loop, as ``_refine_one`` says.
    """
    slope = line.plan.abscissa - shift
    (top, gross0, _), (top1, gross1, _), pair = line.pair()
    size, height = line.moments
    arg = top + slope * x
    rounding = size + height * abs(x) + abs(arg)
    s0, s1 = _phase_pair(pair, x)
    rho0, rho1 = float(np.exp(arg)), float(np.exp(top1 + slope * x))
    head = (rho0 * s0, rho0 * gross0), (rho1 * s1, rho1 * gross1)

    def sums(level, rows):
        if rows is not None:  # the array loop, for a zero real part
            return _line_sums(line, np.array([x]), slope)(level, rows)
        if level < 2:
            return head[level]
        top, gross, table = line.level(level)
        rho = float(np.exp(top + slope * x))
        return rho * _phase_one(table, x), rho * gross

    value, disc, used = _refine_one(sums, line.plan, tol, rounding, abs(x))
    return value, line.tail * float(np.exp(slope * x)), disc, used


def fold_conjugates(log_g):
    """``log_g`` for a G with real coefficients, G(conj z) = conj G(z).

    A node set symmetric about Im z = 0 (z[::-1] == conj z, as every
    trapezoid level is) is sampled on its upper half only and mirrored,
    log_g(conj z) = conj log_g(z): half the gamma work, M_t^1's phase
    sums included.  Other sets are sampled as given.  With
    ``sizes=True`` (``_Line``) the real sizes that log_g gives beside its
    value, even in Im z, are mirrored too.
    """

    def folded(z, sizes=False):
        z = np.asarray(z, dtype=np.complex128)
        if z.ndim != 1 or not np.array_equal(z[::-1], z.conj()):
            return log_g(z, sizes)
        half = z.size // 2
        upper = log_g(z[half:].copy(), sizes)
        if not sizes:
            return np.concatenate((upper[::-1][:half].conj(), upper))
        lg, size = upper
        return (np.concatenate((lg[::-1][:half].conj(), lg)),
                np.concatenate((size[::-1][:half], size)))

    return folded


def _plan(log_g, strip, abscissa: float | None, tol: float):
    """The plan of a line integral of exp(log_g(z)) r^z over the
    abscissa strip (lo, hi), for integrands with their nearest poles at
    z = 0 and z = hi, and the tail estimate of exp(log_g) beyond its
    height, read from the ladder's samples at T/2 and T.

    No ``abscissa`` means the strip midpoint; a given one must lie inside
    the strip.  The height is the ``_ladder``'s on exp(log_g) (target
    tol * 1e-2), one log_g call per rung.  The node count is the larger
    of 64 and the pole-aware floor.  |r^z| is r^c at every height, so
    nothing here depends on r.
    """
    lo, hi = strip
    c = 0.5 * (lo + hi) if abscissa is None else abscissa
    if not lo < c < hi:
        raise StripViolation(
            f"abscissa {c} outside the admissible strip ({lo}, {hi})")
    big_t, m_half, m_top = _ladder(lambda z: np.exp(log_g(z)), c, tol * 1e-2)
    # near a strip edge the poles at z = 0 and z = hi sit min(c, hi - c)
    # from the line; the trapezoid needs h below ~1/5 of that distance
    dist = min(c, hi - c)
    nodes = max(_MIN_NODES, int(math.ceil(big_t / min(0.5, dist / 5.0))))
    return (ContourSpec(abscissa=c, half_height=big_t, nodes=nodes),
            _tail_estimate(m_half, m_top, big_t))


def _radii(r):
    """``r`` as a float, or a 1-D float array, after checking it is > 0
    and finite."""
    if isinstance(r, float):
        rs = float(r)
        positive, finite = rs > 0.0, math.isfinite(rs)
    else:
        rs = np.asarray(r, dtype=float)
        if rs.ndim > 1:
            raise ValueError("r must be a scalar or a 1-D array")
        positive, finite = (rs > 0.0).all(), np.isfinite(rs).all()
        if not rs.ndim:
            rs = float(rs)
    if not positive:
        raise DomainError("r must be > 0")
    if not finite:
        raise DomainError("r must be finite")
    return rs


def _contour_route(line: _Line, shift: float, rs, r_scale: float,
                   scale: float, tol: float):
    """Kernel values

        scale * Re (1/2 pi i) int_(c) exp(log_g(z)) r'^(z - shift) dz,

    r' = r_scale * r, on the store ``line`` of log_g, for ``rs`` from
    ``_radii``: a float (one Approximation back, from ``_power_one``) or
    a 1-D array (a list, one per point, from one ``_power_line`` pass for
    the whole grid).  The estimate is |scale| times that of the line
    integral.
    """
    plan = line.plan
    if isinstance(rs, float):
        value, tail, disc, used = _power_one(
            line, float(np.log(rs * r_scale)), shift, tol)
        mod = max(float(np.hypot(value.real, value.imag)), 1e-300)
        return Approximation(
            value=scale * value.real, est_error=abs(scale) * (tail + disc),
            method="mb_contour",
            diagnostics={"nodes_used": 2 + used,
                         "truncation_height": plan.half_height,
                         "abscissa": plan.abscissa,
                         "imag_ratio": abs(value.imag) / mod})
    value, tail, disc, used = _power_line(line, np.log(rs * r_scale), shift,
                                          tol)
    mod = np.maximum(np.hypot(value.real, value.imag), 1e-300)
    cols = (scale * value.real, abs(scale) * (tail + disc), 2 + used,
            np.abs(value.imag) / mod)
    return [Approximation(
        value=v, est_error=e, method="mb_contour",
        diagnostics={"nodes_used": n, "truncation_height": plan.half_height,
                     "abscissa": plan.abscissa, "imag_ratio": q})
        for v, e, n, q in zip(*(a.tolist() for a in cols))]


def _ladder(f, c, tol):
    """Smallest T from the doubling ladder {16, 32, ..., 4096} with
    |f(c + iT)| * T < tol * |f(c)|, with |f| at T/2 and T.

    One f call samples the heights 0, T0/2 and T0 of the first rung;
    each later rung is one more call.  Raises DomainError if |f(c)| is
    zero or not finite (overflow included), and NoDecay if the sampled
    magnitudes fail to decrease rung to rung, or if the ladder cap is
    reached.
    """
    t = _LADDER_START
    f0, prev, m = _magnitudes(f, c, (0.0, 0.5 * t, t))
    if not (math.isfinite(f0) and f0 > 0.0):
        raise DomainError("integrand vanishes or is not finite at the "
                          f"abscissa: |f({c})| = {f0:.3e}")
    while t <= _LADDER_CAP:
        if m >= prev and m > 0.0:
            raise NoDecay(
                f"|f(c+i{t})| = {m:.3e} does not fall below "
                f"|f(c+i{t / 2})| = {prev:.3e}")
        if m * t < tol * f0:
            return t, prev, m
        t *= 2.0
        if t <= _LADDER_CAP:
            prev, (m,) = m, _magnitudes(f, c, (t,))
    raise NoDecay(f"no ladder height up to {_LADDER_CAP} met the decay "
                  "target")


def mellin_bessel_rhs(z, nu: float):
    """Closed form of the Mellin transform of r^(-nu) J_nu(r):

        2^(z - nu - 1) Gamma(z/2) / Gamma(nu - z/2 + 1),

    valid on the strip 0 < Re z < nu + 3/2.
    """
    zz = np.asarray(z, dtype=np.complex128)
    re = np.atleast_1d(zz.real)
    if np.any(re <= 0.0) or np.any(re >= nu + 1.5):
        raise StripViolation(
            f"Re z must lie in (0, {nu + 1.5}) for the Bessel-Mellin identity")
    lg = (zz - nu - 1.0) * math.log(2.0) + log_gamma(0.5 * zz) \
        - log_gamma(nu - 0.5 * zz + 1.0)
    out = np.exp(lg)
    if np.isscalar(z) or getattr(z, "ndim", 0) == 0:
        return complex(out)
    return out
