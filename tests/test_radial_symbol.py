import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

import levykernel as lk
from levykernel.mellin import _BLOCK_ELEMS, _ladder
from levykernel.radial_symbol import RadialSymbol, _MellinGrid

from _props import (dense_phase_sums, grid_nodes, phase_sums,
                    row_block_mismatches, symbol_route_err,
                    vertical_line_integral)


ALL_SYMBOLS = [
    ("stable", dict(a=1.3)),
    ("sum_stable", dict(a=0.6, b=1.4)),
    ("relativistic", dict(alpha=1.0, m=1.0)),
    ("perturbed", dict(a=0.8, c=1.0, delta=1.6)),
]


def closed_form(kind, params, r, num):
    """The registry symbol's eta(r) written out, with its constants made
    by ``num`` (sp.Float for a sympy expression, mp.mpf for a value)."""
    p = {k: num(v) for k, v in params.items()}
    if kind == "stable":
        return r ** p["a"]
    if kind == "sum_stable":
        return r ** p["a"] + r ** p["b"]
    if kind == "perturbed":
        return r ** p["a"] + p["c"] * r ** p["delta"]
    return (r ** 2 + p["m"] ** 2) ** (p["alpha"] / 2) - p["m"] ** p["alpha"]


class TestRegistry:
    def test_kinds_listed(self):
        reg = lk.symbol_registry()
        assert set(reg) == {"stable", "sum_stable", "relativistic", "perturbed"}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            lk.make_symbol("tempered", a=1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            lk.make_symbol("stable", a=2.5)
        with pytest.raises(ValueError):
            lk.make_symbol("sum_stable", a=1.5, b=0.5)
        with pytest.raises(ValueError):
            lk.make_symbol("perturbed", a=0.8, c=1.0, delta=0.5)

    @pytest.mark.parametrize("kind,params", ALL_SYMBOLS)
    def test_derivatives_match_finite_differences(self, kind, params):
        sym = lk.make_symbol(kind, **params)
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.3, 5.0, 20)
        h = 1e-4
        vals = sym.scaled_deriv(pts) / pts
        fd = (sym.eta(pts + h) - sym.eta(pts - h)) / (2.0 * h)
        assert np.max(np.abs(vals - fd) / np.maximum(np.abs(vals), 1e-8)) < 1e-6

    def test_eta_at_zero(self):
        for kind, params in ALL_SYMBOLS:
            assert lk.make_symbol(kind, **params).eta_at_zero == 0.0

    @pytest.mark.parametrize("kind,params", ALL_SYMBOLS + [
        ("relativistic", dict(alpha=1.0, m=0.1)),
        ("relativistic", dict(alpha=0.5, m=12.0))])
    def test_power_recurrence_against_sympy(self, kind, params):
        # eta and r D eta from the power rule against 30-digit sp.diff,
        # relative to the size sum |c| (r^2 + mass^2)^p of its terms
        sym = lk.make_symbol(kind, **params)
        r = np.geomspace(1e-4, 1e4, 33)
        scale = sum(abs(c) * (r * r + mass * mass) ** p
                    for c, mass, p in sym.terms)
        rr = sp.Symbol("r", positive=True)
        expr = closed_form(kind, params, rr, sp.Float)
        for m, got in enumerate((sym.eta(r), sym.scaled_deriv(r))):
            f = sp.lambdify(rr, rr ** m * sp.diff(expr, rr, m), "mpmath")
            with mp.workdps(30):
                ref = np.array([float(f(mp.mpf(x))) for x in r])
            assert np.all(np.abs(got - ref) <= 1e-13 * scale), m


class TestSymbolValue:
    def test_symbol_is_frozen(self):
        sym = lk.make_symbol("stable", a=1.3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sym.terms = ((2.0, 0.0, 0.65),)
        assert sym.terms == ((1.0, 0.0, 0.65),)


def _scaled_exp_eta_derivative(sym, t, r):
    """r D e^{-t eta(r)} = -t (r D eta) e^{-t eta}, as the inner Mellin
    grid forms it (in log space there)."""
    return -t * sym.scaled_deriv(r) * np.exp(-t * sym.eta(r))


class TestExpEtaDerivative:
    def test_stable_closed_form(self):
        # r D e^{-t r^a} = -t a r^a e^{-t r^a}
        sym = lk.make_symbol("stable", a=1.3)
        r = np.array([0.7, 2.0])
        got = _scaled_exp_eta_derivative(sym, 2.0, r)
        expected = -2.0 * 1.3 * r ** 1.3 * np.exp(-2.0 * r ** 1.3)
        assert np.allclose(got, expected, rtol=1e-14, atol=0.0)

    def test_quadratic_symbol_closed_form(self):
        # D e^{-r^2} = -2r e^{-r^2}; build the symbol directly
        sym = RadialSymbol(name="quad", params={}, terms=((1.0, 0.0, 1.0),),
                           alpha_index=1.99)
        r = np.array([0.5, 1.0, 3.0])
        got = _scaled_exp_eta_derivative(sym, 1.0, r) / r
        assert np.allclose(got, -2.0 * r * np.exp(-r * r), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("kind,params", ALL_SYMBOLS + [
        ("relativistic", dict(alpha=0.5, m=12.0))])
    def test_against_mpmath(self, kind, params):
        # r D e^{-t eta} against 50-digit mpmath differentiation of the
        # closed form, relative to the largest |value| over r
        sym = lk.make_symbol(kind, **params)
        r = np.geomspace(1e-4, 1e4, 9)
        for t in (0.5, 1.0, 2.0):
            with mp.workdps(50):
                def f(x):
                    return mp.exp(-t * closed_form(kind, params, x, mp.mpf))

                ref = np.array([float(mp.mpf(x) * mp.diff(f, mp.mpf(x)))
                                for x in r])
            got = _scaled_exp_eta_derivative(sym, t, r)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), t

    @pytest.mark.parametrize("kind,params", ALL_SYMBOLS + [
        ("relativistic", dict(alpha=0.5, m=12.0))])
    def test_finite_at_grid_ends(self, kind, params):
        # the ends of the inner Mellin grid; a RuntimeWarning fails this
        sym = lk.make_symbol(kind, **params)
        r = np.array([math.exp(-400.0), math.exp(-100.0), 1e4])
        assert np.all(np.isfinite(_scaled_exp_eta_derivative(sym, 1.0, r)))


class TestMellinTransform:
    def test_value_at_zero(self):
        # M_t^1(0) = int D e^{-t eta} dr = -e^{-t eta(0)}
        sym = lk.make_symbol("stable", a=1.3)
        got = lk.mellin_Mk(sym, 1.0, 0.0 + 0j)
        assert got.real == pytest.approx(-1.0, rel=1e-9)
        assert abs(got.imag) < 1e-12 * abs(got.real)

    def test_exponential_symbol_closed_form(self):
        # eta = r: M_t(z) = Gamma(z) t^-z, recovered through one part
        sym = lk.make_symbol("stable", a=1.0)
        t = 0.7
        for z in (1.2 + 3j, 2.0 - 5j, 0.8 + 0j):
            got = lk.mellin_M(sym, t, z)
            expected = complex(np.exp(lk.log_gamma(z) - z * math.log(t)))
            assert got == pytest.approx(expected, rel=1e-9)
        # at Im z = 100, M_t ~ 1e-67 lies below the inner grid's rounding,
        # but the factor -Gamma(z)/Gamma(z+1) = -1/z is still exact to a
        # few ulp
        z = 1.2 + 100j
        ratio = lk.mellin_M(sym, t, z) / lk.mellin_Mk(sym, t, z)
        with mp.workdps(30):
            expected = complex(-mp.gamma(z) / mp.gamma(z + 1))
        assert abs(ratio - expected) <= 10 * 2.0 ** -52 * abs(expected)

    def test_array_with_two_real_parts(self):
        # an array whose real parts differ is read off one grid per point
        sym = lk.make_symbol("sum_stable", a=0.6, b=1.4)
        z = np.array([1.2 + 3j, 2.5 - 7j])
        got = lk.mellin_Mk(sym, 0.8, z)
        assert got.shape == (2,)
        assert got.tolist() == [lk.mellin_Mk(sym, 0.8, zi) for zi in z]

    def test_square_root_symbol_value(self):
        # eta = sqrt(r): int e^{-sqrt r} dr = 2
        sym = lk.make_symbol("stable", a=0.5)
        got = lk.mellin_M(sym, 1.0, 1.0 + 0j)
        assert got.real == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("kind,params", ALL_SYMBOLS)
    def test_against_mpmath(self, kind, params):
        # M_t(z) = -M_t^1(z)/z against 30-digit quadrature of
        # int_0^inf r^(z-1) e^{-t eta(r)} dr
        sym = lk.make_symbol(kind, **params)
        t = 0.8
        for z in (1.5 + 0j, 2.3 + 4j, 0.7 - 2j):
            got = complex(lk.mellin_M(sym, t, z))
            with mp.workdps(30):
                ref = complex(mp.quad(
                    lambda s: s ** (mp.mpc(z) - 1)
                    * mp.exp(-t * closed_form(kind, params, s, mp.mpf)),
                    [0, 1, 10, 100, mp.inf]))
            assert abs(got - ref) <= 1e-13 * abs(ref), z

    def test_strip_violation(self):
        sym = lk.make_symbol("stable", a=0.5)
        with pytest.raises(lk.StripViolation):
            lk.mellin_Mk(sym, 1.0, -1.0 + 0j)

    def test_inversion_round_trip(self):
        # -1/(2 pi i) int M_t^1(z)/z r^-z dz = e^{-t eta(r)}
        sym = lk.make_symbol("stable", a=1.3)
        for r in (0.5, 1.0, 2.0):
            def f(z, r=r):
                z = np.asarray(z, dtype=np.complex128)
                return np.exp(-z * math.log(r)) * lk.mellin_Mk(sym, 1.0, z) / z

            big_t = _ladder(f, 1.0, 1e-9)[0]
            res = vertical_line_integral(
                f, lk.ContourSpec(1.0, big_t, nodes=256), tol=1e-10)
            got = -res.value.real
            target = math.exp(-float(sym.eta(np.array([r]))[0]))
            assert got == pytest.approx(target, rel=1e-7)


class TestGeneralKernel:
    def test_matches_stable_machinery(self):
        assert symbol_route_err() < 1e-10
        g = lk.general_kernel_mb(lk.make_symbol("stable", a=1.2), 2, 0.7,
                                 1.0, 3.0)
        assert g.diagnostics["imag_ratio"] < 1e-10

    def test_relativistic_against_oracle(self):
        sym = lk.make_symbol("relativistic", alpha=1.0, m=1.0)
        g = lk.general_kernel_mb(sym, 2, 0.5, 1.0, 4.0)
        o = lk.symbol_oracle(sym, 2, 0.5, 1.0, 4.0)
        assert abs(g.value - o.value) / abs(o.value) < 1e-4

    def test_argument_validation(self):
        sym = lk.make_symbol("stable", a=1.2)
        with pytest.raises(lk.StripViolation):
            lk.general_kernel_mb(sym, 2, 0.7, 1.0, 3.0, abscissa=0.5)
        for r in (0.0, -1.0, math.nan, np.array([1.0, math.nan]), math.inf,
                  np.array([1.0, math.inf])):
            with pytest.raises(lk.DomainError):
                lk.general_kernel_mb(sym, 2, 0.7, 1.0, r)
        with pytest.raises(ValueError):
            lk.general_kernel_mb(sym, 2, 0.7, 1.0, np.ones((2, 2)))


class TestSymbolStrip:
    # the symbol line plans on the stable kernel's strip,
    # admissible_strip(d, beta) = ((d-1)/2 + beta, d + beta), since M_t
    # is continued by one integration by parts

    def test_lower_band_is_accepted(self):
        # c in ((d-1)/2 + beta, (d+1)/2 + beta], below the strip of the
        # paper's k-fold continuation
        sym, spec = lk.make_symbol("stable", a=1.2), lk.KernelSpec(2, 1.2, 0.7)
        s = lk.stable_mb(spec, 3.0)
        for c in (1.25, 1.7, 2.2):
            g = lk.general_kernel_mb(sym, 2, 0.7, 1.0, 3.0, abscissa=c)
            assert g.diagnostics["abscissa"] == c
            assert abs(g.value - s.value) <= g.est_error + s.est_error, c

    def test_outside_the_strip_raises(self):
        sym = lk.make_symbol("relativistic", alpha=1.0, m=1.0)
        for d, beta in ((2, 0.5), (5, 2.0)):
            lo, hi = lk.admissible_strip(d, beta)
            assert (lo, hi) == (0.5 * (d - 1) + beta, d + beta)
            for c in (lo - 0.1, lo, hi, hi + 0.1):
                with pytest.raises(lk.StripViolation):
                    lk.general_kernel_mb(sym, d, beta, 1.0, 2.0, abscissa=c)

    @pytest.mark.parametrize("kind,params", [
        ("relativistic", {"alpha": 1.0, "m": 1.0}),
        ("sum_stable", {"a": 0.6, "b": 1.4}),
        ("perturbed", {"a": 0.8, "c": 1.0, "delta": 1.6})])
    def test_k_fold_midpoint_agrees_with_the_default(self, kind, params):
        # the default (3d-1)/4 + beta agrees with (3d+1)/4 + beta, the
        # midpoint of the k-fold strip ((d+1)/2 + beta, d + beta)
        sym = lk.make_symbol(kind, **params)
        grid = np.array([0.3, 2.0, 15.0])
        for d, beta in ((2, 0.5), (2, 2.0), (5, 0.5), (5, 2.0)):
            new = lk.general_kernel_mb(sym, d, beta, 1.0, grid)
            old = lk.general_kernel_mb(sym, d, beta, 1.0, grid,
                                       abscissa=0.25 * (3 * d + 1) + beta)
            assert new[0].diagnostics["abscissa"] == 0.25 * (3 * d - 1) + beta
            for r, a, b in zip(grid, new, old):
                assert abs(a.value - b.value) <= a.est_error + b.est_error, (
                    d, beta, r)


@pytest.mark.parametrize("call,kernel", [
    (lambda sym, d, beta, t: lk.general_kernel_mb(sym, d, beta, t, 1.3), True),
    (lambda sym, d, beta, t: lk.general_kernel_at_origin(sym, d, beta, t),
     True),
    (lambda sym, d, beta, t: lk.symbol_oracle(sym, d, beta, t, 1.0), True),
    (lambda sym, d, beta, t, z=1.0 + 0j: lk.mellin_Mk(sym, t, z), False),
    (lambda sym, d, beta, t, z=1.0 + 0j: lk.mellin_M(sym, t, z), False),
], ids=["general_kernel_mb", "general_kernel_at_origin", "symbol_oracle",
        "mellin_Mk", "mellin_M"])
def test_time_is_checked_as_an_argument(monkeypatch, call, kernel):
    # t, and a kernel's d and beta by the rule of KernelSpec, are rejected
    # before any inner Mellin grid or oracle panel is built
    def never(*args, **kwargs):
        raise AssertionError("an inner grid or an oracle panel was built")

    monkeypatch.setattr(lk.radial_symbol, "_MellinGrid", never)
    monkeypatch.setattr(lk.oracle, "hankel_oracle", never)
    sym = lk.make_symbol("relativistic", alpha=1.0, m=1.0)
    bad = [((2, 0.5, t), "t must be > 0") for t in
           (0.0, -1.0, math.nan, math.inf)]
    if kernel:
        # d = 1 lies outside the rule, though its strip (beta, 1 + beta) is
        # not empty
        bad += [((d, 0.5, 1.0), "d must be >= 2") for d in (1, 0, math.nan)]
        bad += [((2, beta, 1.0), "beta must be >= 0") for beta in
                (-0.5, math.nan, math.inf, -math.inf)]
    for args, message in bad:
        with pytest.raises(lk.DomainError, match=message):
            call(sym, *args)
    if not kernel:
        # an empty z takes no grid either
        got = call(sym, 2, 0.5, 1.0, z=np.array([], dtype=complex))
        assert got.shape == (0,) and got.dtype == np.complex128


class TestGeneralKernelAtOrigin:
    @pytest.mark.parametrize("kind,params", ALL_SYMBOLS)
    def test_against_mpmath(self, kind, params):
        # (2 pi)^-d omega_{d-1} int_0^inf s^(d+beta-1) e^{-t eta(s)} ds
        sym = lk.make_symbol(kind, **params)
        for d, beta, t in ((2, 0.0, 1.0), (3, 0.5, 0.7)):
            got = lk.general_kernel_at_origin(sym, d, beta, t)
            with mp.workdps(30):
                radial = mp.quad(
                    lambda s: s ** (d + beta - 1)
                    * mp.exp(-t * closed_form(kind, params, s, mp.mpf)),
                    [0, 1, 10, 100, mp.inf])
                ref = float(2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)
                            * radial / (2 * mp.pi) ** d)
            assert got.method == "mellin_origin"
            assert abs(got.value - ref) <= 1e-13 * ref, (d, beta, t)
            assert abs(got.value - ref) <= got.est_error, (d, beta, t)

    @pytest.mark.parametrize("d,a,beta,t", [(2, 1.5, 0.0, 1.0),
                                            (3, 0.7, 0.5, 2.0),
                                            (4, 1.9, 1.3, 0.4)])
    def test_stable_symbol_matches_origin_formula(self, d, a, beta, t):
        got = lk.general_kernel_at_origin(lk.make_symbol("stable", a=a),
                                          d, beta, t)
        exact = lk.kernel_at_origin(lk.KernelSpec(d, a, beta, t))
        assert got.value == pytest.approx(exact, rel=1e-14)

    def test_integrand_in_log_space(self):
        # alpha = 0.1, d = 10, beta = 4: M_t(14) ~ 1e233 comes from an
        # integrand whose factor e^(14 w) alone overflows near its peak
        sym = lk.make_symbol("stable", a=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lk.general_kernel_at_origin(sym, 10, 4.0, 1.0)
        exact = lk.kernel_at_origin(lk.KernelSpec(10, 0.1, 4.0))
        assert abs(got.value - exact) <= 1e-12 * exact

    def test_small_r_approaches_origin(self):
        # K(r) - K(0) = O(r^2) for a smooth radial kernel
        sym = lk.make_symbol("relativistic", alpha=1.0, m=1.0)
        origin = lk.general_kernel_at_origin(sym, 2, 0.0, 1.0).value
        gaps = [abs(lk.general_kernel_mb(sym, 2, 0.0, 1.0, r).value - origin)
                / r ** 2 for r in (1e-2, 1e-3)]
        assert gaps[1] == pytest.approx(gaps[0], rel=0.05)


class TestGeneralMBGrid:
    # a grid shares one line plan and one sampling of the gamma ratio and
    # inner transform; every r must still refine as a single-point call does
    CASES = [("relativistic", {"alpha": 1.0, "m": 1.0}, 3, 0.0, 1.0),
             ("stable", {"a": 1.2}, 2, 0.5, 0.5),
             ("sum_stable", {"a": 0.8, "b": 1.2}, 2, 0.5, 2.0)]

    @pytest.mark.parametrize("kind,params,d,beta,t", CASES,
                             ids=[c[0] for c in CASES])
    def test_grid_matches_pointwise(self, kind, params, d, beta, t):
        sym = lk.make_symbol(kind, **params)
        grid = np.geomspace(0.3, 40.0, 12)
        batch = lk.general_kernel_mb(sym, d, beta, t, grid)
        assert len(batch) == grid.size
        for r, b in zip(grid, batch):
            p = lk.general_kernel_mb(sym, d, beta, t, float(r))
            assert b.value == p.value
            assert b.est_error == p.est_error
            for key in ("nodes_used", "truncation_height"):
                assert b.diagnostics[key] == p.diagnostics[key]

    def test_grid_matches_pointwise_across_row_blocks(self):
        # the same across the row blocks of a 1500-point grid
        sym = lk.make_symbol("stable", a=1.2)
        bad, edges = row_block_mismatches(
            lambda r: lk.general_kernel_mb(sym, 2, 0.5, 0.5, r),
            np.geomspace(0.3, 40.0, 1500))
        assert edges and not bad

    @pytest.mark.parametrize("kind,params,d,beta,t", CASES,
                             ids=[c[0] for c in CASES])
    def test_one_row_at_moved_abscissa_equals_grid_rows(self, kind, params,
                                                        d, beta, t):
        # a scalar call runs the one-row loop on Python numbers; off the
        # strip midpoint too, it returns the bits of its grid row
        sym = lk.make_symbol(kind, **params)
        lo, hi = lk.admissible_strip(d, beta)
        c = lo + 0.8 * (hi - lo)
        grid = np.geomspace(0.3, 40.0, 12)
        batch = lk.general_kernel_mb(sym, d, beta, t, grid, abscissa=c)
        assert batch[0].diagnostics["abscissa"] == c
        for r, b in zip(grid, batch):
            p = lk.general_kernel_mb(sym, d, beta, t, float(r), abscissa=c)
            assert (p.value.hex(), p.est_error, p.diagnostics) == (
                b.value.hex(), b.est_error, b.diagnostics)

    def test_shapes(self):
        sym = lk.make_symbol("stable", a=1.5)
        one = lk.general_kernel_mb(sym, 2, 0.5, 1.0, 2.0)
        assert isinstance(one, lk.Approximation)
        (row,) = lk.general_kernel_mb(sym, 2, 0.5, 1.0, np.array([2.0]))
        assert row.value == one.value and row.est_error == one.est_error


class TestMellinGridPhases:
    # the factorised phase sums (the node split of ``mellin._phase_table``
    # on the grid's trapezoid nodes) must reproduce the dense phase matrix
    # on the node sets the contour levels request
    GRIDS = [("relativistic", {"alpha": 1.0, "m": 1.0}),
             ("sum_stable", {"a": 0.6, "b": 1.4})]
    N, H = 160, 0.4  # a trapezoid plan with T = 64

    @staticmethod
    def _grid(kind, params):
        sym = lk.make_symbol(kind, **params)
        # the strip midpoint of d = 2, beta = 0.5
        return _MellinGrid(sym, 1.0, 2.25, 64.0, tol=1e-9)

    @staticmethod
    def _dense(grid, v):
        return dense_phase_sums(*grid_nodes(grid), v)

    @pytest.mark.parametrize("kind,params", GRIDS, ids=[g[0] for g in GRIDS])
    def test_factored_matches_dense(self, kind, params):
        grid = self._grid(kind, params)
        n, h = self.N, self.H
        level0 = np.arange(-n, n + 1, dtype=float) * h
        # "offset": 321 heights spaced 0.25, shifted by 2^-21, so not
        # symmetric about 0 and handed over whole by ``fold_conjugates``
        sets = {"level 0": level0,
                "midpoints": (np.arange(-n, n, dtype=float) + 0.5) * h,
                "strided": level0[::3],
                "negative": np.arange(-40, 121, dtype=float) * h,
                "offset": 2.0 ** -21 + np.arange(-n, n + 1, dtype=float) * 0.25}
        gross = np.sum(np.abs(grid_nodes(grid)[0]))
        for name, v in sets.items():
            err = np.max(np.abs(grid.value(v) - self._dense(grid, v)))
            assert err <= 1e-11 * gross, name

    @pytest.mark.parametrize("kind,params", GRIDS, ids=[g[0] for g in GRIDS])
    def test_ladder_probe_reads_lone_heights(self, kind, params):
        # the decay ladder asks for {0, 8, 16} in one request; each value
        # equals that of its height asked alone, bit for bit, so the plan
        # and tail estimate do not depend on how the probe is batched
        grid = self._grid(kind, params)
        probe = grid.value(np.array([0.0, 8.0, 16.0]))
        lone = [grid.value(np.array([v]))[0] for v in (0.0, 8.0, 16.0)]
        assert np.array_equal(probe, lone)
        # nor on the rest of a request or on its layout
        rng = np.random.default_rng(7)
        scattered = np.r_[rng.uniform(-64.0, 64.0, 299), 8.0]
        assert grid.value(scattered)[-1] == lone[1]
        strided = np.array([[16.0, 3.0], [8.0, 5.0]])[:, 0]
        assert not strided.flags.contiguous
        assert grid.value(strided)[1] == lone[1]

    @staticmethod
    def _levels():
        # a trapezoid level of 1281 heights up to 64, as a direct
        # ``mellin_Mk`` call hands it over, and its upper half, 641
        # heights from 0, as ``fold_conjugates`` does
        level = np.arange(-640, 641, dtype=float) * 0.1
        return {"full": level, "upper half": level[level.size // 2:]}

    def test_factored_exps_per_height(self, monkeypatch):
        # a timing-free guard on the work: each height takes heads + B
        # complex exps, B ~ sqrt(N), not one per node
        grid = self._grid(*self.GRIDS[0])
        a = self._levels()["upper half"]
        real_exp = np.exp
        count = [0]

        def counting(x, *args, **kwargs):
            out = real_exp(x, *args, **kwargs)
            if np.iscomplexobj(out):
                count[0] += np.size(out)
            return out

        monkeypatch.setattr(np, "exp", counting)
        p, w = grid_nodes(grid)
        phase_sums(p, w, a, grid._h)
        assert 0 < count[0] <= a.size * (2 * math.isqrt(w.size) + 3)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16,
                        reason="long double is no wider than double")
    @pytest.mark.parametrize("kind,params", GRIDS, ids=[g[0] for g in GRIDS])
    def test_factored_accuracy_against_long_double(self, kind, params):
        # the split phases round no worse than direct exps, whose
        # arguments w*v are themselves rounded, on the full level and on
        # its upper half alike
        grid = self._grid(kind, params)
        p, w = grid_nodes(grid)
        weights = p.astype(np.longdouble)
        for name, a in self._levels().items():
            phase = np.multiply.outer(a.astype(np.longdouble),
                                      w.astype(np.longdouble))
            ref = np.cos(phase) @ weights + 1j * (np.sin(phase) @ weights)
            got = phase_sums(p, w, a, grid._h)
            err = float(np.max(np.abs(got - ref)))
            dense = float(np.max(np.abs(self._dense(grid, a) - ref)))
            assert err <= 1.5 * dense, name

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16,
                        reason="long double is no wider than double")
    def test_one_sided_grid_counts_from_zero(self):
        # near the strip edge Re z = -alpha the grid runs from w = -400 to
        # w = 6; heads counted from its middle node, near w = -197, would
        # round the heights of the large nodes near w = 0 some 5x worse
        # than direct exps
        grid = _MellinGrid(lk.make_symbol("stable", a=1.3), 1.0, -1.2, 64.0,
                           tol=1e-9)
        p, w = grid_nodes(grid)
        assert w[0] < -390.0 < 0.0 < w[-1] < 10.0
        a = np.arange(0.0, 65.0)
        phase = np.multiply.outer(a.astype(np.longdouble),
                                  w.astype(np.longdouble))
        weights = p.astype(np.longdouble)
        ref = np.cos(phase) @ weights + 1j * (np.sin(phase) @ weights)
        got = phase_sums(p, w, a, grid._h)
        err = float(np.max(np.abs(got - ref)))
        assert err <= 1.5 * float(np.max(np.abs(self._dense(grid, a) - ref)))

    def test_factored_peak_memory(self):
        import tracemalloc

        # the phases go by row blocks of _BLOCK_ELEMS complex entries, so
        # the working set is a few blocks whatever the number of heights;
        # only the result grows with it
        grid = self._grid(*self.GRIDS[0])
        p, w = grid_nodes(grid)
        for a in (self._levels()["full"], np.linspace(-64.0, 64.0, 20001)):
            tracemalloc.start()
            try:
                phase_sums(p, w, a, grid._h)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * 16 * _BLOCK_ELEMS + 32 * a.size

    def test_value_returns_fresh_arrays(self):
        grid = self._grid(*self.GRIDS[1])
        v = np.arange(-self.N, self.N + 1, dtype=float) * self.H
        first = grid.value(v)
        kept = first.copy()
        assert np.array_equal(grid.value(v), kept)
        first[:] = 0.0
        assert np.array_equal(grid.value(v), kept)


class TestMellinGridTrapezoid:
    # M_t^1 by one nested trapezoid on the whole log-line w = ln r

    @pytest.mark.parametrize("a", [0.6, 1.3])
    @pytest.mark.parametrize("cap", [64.0, 256.0])
    def test_stable_closed_form_up_to_the_cap(self, a, cap):
        # eta = r^a: M_t^1(z) = -z Gamma(z/a)/a at t = 1.  The rule
        # aliases first at the top of its cap, so every height of a level
        # and its midpoints up to the cap is checked
        sym = lk.make_symbol("stable", a=a)
        c, n = 2.25, int(4 * cap)
        for v in (np.arange(-n, n + 1, dtype=float) * 0.25,
                  (np.arange(-n, n, dtype=float) + 0.5) * 0.25):
            z = c + 1j * v
            got = lk.mellin_Mk(sym, 1.0, z)
            ref = -z * np.exp(lk.log_gamma(z / a)) / a
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind,params", TestMellinGridPhases.GRIDS,
                             ids=[g[0] for g in TestMellinGridPhases.GRIDS])
    def test_levels_nest(self, monkeypatch, kind, params):
        # each halving evaluates the integrand at the new midpoints only:
        # the samples taken over one build are the final nodes
        real = RadialSymbol.scaled_deriv
        samples = []

        def counting(sym, r):
            samples.append(np.log(r))
            return real(sym, r)

        monkeypatch.setattr(RadialSymbol, "scaled_deriv", counting)
        grid = TestMellinGridPhases._grid(kind, params)
        assert len(samples) >= 2
        # no node twice, and together the one grid of the final step
        w = np.sort(np.concatenate(samples))
        assert np.allclose(np.diff(w), grid._h, rtol=1e-6, atol=0.0)


class TestLeadingTerms:
    def test_general_coefficient_gamma_arithmetic(self):
        # d=2, beta=1, eta(0)=0: 2 G(3/2) / (pi G(-1/2)) = -1/(2 pi)
        sym = lk.make_symbol("stable", a=1.5)
        lt = lk.general_leading_term(sym, 2, 1.0, 1.0)
        assert lt["coefficient"] == pytest.approx(-1.0 / (2.0 * math.pi),
                                                  rel=1e-13)
        assert lt["exponent"] == 3.0

    def test_time_enters_only_through_eta_at_zero(self):
        sym = lk.make_symbol("stable", a=1.2)  # eta(0) = 0
        c1 = lk.general_leading_term(sym, 2, 0.7, 0.5)["coefficient"]
        c2 = lk.general_leading_term(sym, 2, 0.7, 2.0)["coefficient"]
        assert c1 == c2

    def test_cross_module_consistency(self):
        sym = lk.make_symbol("stable", a=1.2)
        lt4 = lk.general_leading_term(sym, 2, 0.7, 1.0)
        lt3 = lk.leading_term(lk.KernelSpec(d=2, alpha=1.2, beta=0.7))
        assert lt4["exponent"] == lt3.exponent
        # both read the one residue generator: the n = 0 residue times
        # e^(-t eta(0)), bit for bit, here also with eta(0) = 0.3
        shifted = lk.RadialSymbol(name="shifted", params={},
                                  terms=sym.terms + ((0.3, 0.0, 0.0),),
                                  alpha_index=1.2)
        assert shifted.eta_at_zero == 0.3
        for s, t in ((sym, 1.0), (shifted, 0.5)):
            got = lk.general_leading_term(s, 2, 0.7, t)["coefficient"]
            assert got == lt3.coefficient * math.exp(-t * s.eta_at_zero)

    def test_parity_errors(self):
        sym = lk.make_symbol("stable", a=1.2)
        with pytest.raises(lk.ParityError):
            lk.general_leading_term(sym, 2, 2.0, 1.0)
        with pytest.raises(lk.ParityError):
            lk.perturbed_leading_term(1.2, 0.0, 2, 0.7, 1.0)

    def test_perturbed_reduces_to_stable_tail(self):
        # beta=0, alpha=1, d=2, t=1 -> coefficient 1/(2 pi), exponent 3
        lt = lk.perturbed_leading_term(1.0, 0.0, 2, 0.0, 1.0)
        assert lt["coefficient"] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-13)
        assert lt["exponent"] == 3.0
        # and is the stable leading term (the n = 1 residue of the one
        # generator) times t e^(-t eta1(0)), bit for bit
        t, eta1 = 2.0, 0.4
        for a in (0.7, 1.5):
            got = lk.perturbed_leading_term(a, eta1, 2, 0.0, t)
            ref = lk.leading_term(lk.KernelSpec(d=2, alpha=a))
            assert ref.n == 1
            assert got["coefficient"] == ref.coefficient * (t * math.exp(-t * eta1))

    def test_sign_positive_for_density(self):
        for a in (0.5, 1.0, 1.9):
            assert lk.perturbed_leading_term(a, 0.0, 2, 0.0, 1.0)["coefficient"] > 0


class TestCutoffAndTail:
    def test_smoothstep_endpoints_and_derivatives(self):
        psi = lk.smoothstep_cutoff(5)
        assert psi(1.0) == 0.0
        assert psi(2.0) == pytest.approx(1.0, rel=1e-12)
        assert psi(0.5) == 0.0 and psi(3.0) == pytest.approx(1.0, rel=1e-12)
        # first derivatives vanish at the seams (finite differences)
        h = 1e-3
        for x0 in (1.0, 2.0):
            d1 = (psi(x0 + h) - psi(x0 - h)) / (2 * h)
            assert abs(d1) < 1e-12 if x0 == 1.0 else abs(d1) < 1e-8
        u = np.linspace(1.0, 2.0, 101)
        assert np.all(np.diff(psi(u)) >= 0)

    def test_zero_cutoff_gives_zero(self):
        sym = lk.make_symbol("stable", a=1.5)
        val = lk.tail_integral(sym, 2, 0.0, 1.0, 7.0,
                               psi=lambda s: np.zeros_like(np.asarray(s, float)))
        assert val == 0.0

    @pytest.mark.parametrize("d,beta,t,message", [
        (2, 0.0, 0.0, "t must be > 0"), (2, -0.5, 1.0, "beta must be >= 0"),
        (1, 0.0, 1.0, "d must be >= 2")])
    @pytest.mark.parametrize("call", [
        lambda sym, d, beta, t: lk.tail_integral(sym, d, beta, t, 7.0),
        lambda sym, d, beta, t: lk.decay_slope(sym, d, beta, t,
                                               np.geomspace(20.0, 200.0, 4))],
        ids=["tail_integral", "decay_slope"])
    def test_kernel_arguments_are_checked(self, call, d, beta, t, message):
        # t = 0 returned 0.109 and beta = -0.5 returned 0.0133; d = 1 raised
        # an untyped ValueError from bessel_j (nu = -1/2)
        sym = lk.make_symbol("stable", a=1.5)
        with pytest.raises(lk.DomainError, match=message):
            call(sym, d, beta, t)

    def test_decay_slope_meets_bound(self):
        sym = lk.make_symbol("stable", a=1.5)
        slope = lk.decay_slope(sym, 2, 0.0, 1.0,
                               np.geomspace(20.0, 200.0, 8), n_parts=4)
        assert slope <= -4.2

    def test_smoother_cutoff_steepens_slope(self):
        sym = lk.make_symbol("stable", a=1.5)
        grid = np.geomspace(20.0, 200.0, 8)
        s2 = lk.decay_slope(sym, 2, 0.0, 1.0, grid, n_parts=2)
        s4 = lk.decay_slope(sym, 2, 0.0, 1.0, grid, n_parts=4)
        assert s4 < s2 <= -2.2


def test_import_leaves_sympy_unloaded():
    # scipy and sympy are test-only references; the package must not
    # import either, nor configparser (the CLI reads no config file)
    src = pathlib.Path(lk.__file__).resolve().parents[1]
    code = ("import sys, levykernel, levykernel.cli; "
            "print(sorted({'scipy', 'sympy', 'configparser'} "
            "& sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
