import math

import numpy as np
import pytest
import sympy as sp

import levykernel as lk
from levykernel.radial_symbol import RadialSymbol, _MellinGrid

from _props import k_independence_err


ALL_SYMBOLS = [
    ("stable", dict(a=1.3)),
    ("sum_stable", dict(a=0.6, b=1.4)),
    ("relativistic", dict(alpha=1.0, m=1.0)),
    ("perturbed", dict(a=0.8, c=1.0, delta=1.6)),
]


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
        for m in (1, 2, 3):
            h = 1e-4
            vals = sym.eta_deriv(pts, m)
            lo = sym.eta_deriv(pts - h, m - 1) if m > 1 else sym.eta(pts - h)
            hi = sym.eta_deriv(pts + h, m - 1) if m > 1 else sym.eta(pts + h)
            fd = (hi - lo) / (2.0 * h)
            assert np.max(np.abs(vals - fd) / np.maximum(np.abs(vals), 1e-8)) < 1e-6

    @pytest.mark.parametrize("kind,params", ALL_SYMBOLS)
    def test_sampled_regularity_conditions(self, kind, params):
        sym = lk.make_symbol(kind, **params)
        out = lk.validate_symbol(sym)
        assert out["class_bound_ok"]
        assert out["superlog_growth_ok"]
        if sym.localized:
            assert out["poly_growth_ok"]

    def test_eta_at_zero(self):
        for kind, params in ALL_SYMBOLS:
            assert lk.make_symbol(kind, **params).eta_at_zero == 0.0


class TestExpEtaDerivative:
    def test_order_zero(self):
        sym = lk.make_symbol("stable", a=1.3)
        r = np.array([0.7, 2.0])
        got = lk.exp_eta_derivative(sym, 2.0, r, 0)
        assert np.allclose(got, np.exp(-2.0 * r ** 1.3), rtol=1e-14)

    def test_order_one_structure(self):
        sym = lk.make_symbol("sum_stable", a=0.6, b=1.4)
        r = np.array([1.7])
        t = 0.9
        got = lk.exp_eta_derivative(sym, t, r, 1)[0]
        expected = -t * sym.eta_deriv(r, 1)[0] * math.exp(-t * sym.eta(r)[0])
        assert got == pytest.approx(expected, rel=1e-13)

    def test_quadratic_symbol_closed_form(self):
        # D^2 e^{-r^2} = (4r^2 - 2) e^{-r^2}; build the symbol directly
        rr = sp.Symbol("r", positive=True)
        sym = RadialSymbol(name="quad", params={}, expr=rr ** 2,
                           eta_at_zero=0.0, alpha_index=1.99, localized=True)
        got = lk.exp_eta_derivative(sym, 1.0, np.array([1.0]), 2)[0]
        assert got == pytest.approx(2.0 * math.exp(-1.0), rel=1e-13)

    def test_symbol_class_bound(self):
        # |r^m D^m e^{-t eta}| <= 1.01 (A t r^a + ... + (A t r^a)^m) e^{-t eta}
        t = 1.3
        for kind, params in ALL_SYMBOLS:
            sym = lk.make_symbol(kind, **params)
            grid = np.geomspace(1e-3, 1.0, 41) if sym.localized \
                else np.geomspace(1e-3, 1e3, 81)
            for m in (1, 2, 4, 6):
                lhs = np.abs(lk.scaled_exp_eta_derivative(sym, t, grid, m))
                base = sym.A_bound * t * grid ** sym.alpha_index
                rhs = sum(base ** j for j in range(1, m + 1)) \
                    * np.exp(-t * sym.eta(grid))
                assert np.all(lhs <= 1.01 * rhs + 1e-300)

    def test_order_exceeded(self):
        sym = lk.make_symbol("stable", a=1.3)
        with pytest.raises(lk.OrderExceeded):
            lk.exp_eta_derivative(sym, 1.0, np.array([1.0]), sym.k_max + 1)


class TestMellinTransform:
    def test_value_at_zero(self):
        # M_t^k(0) = (-1)^k Gamma(k) e^{-t eta(0)}
        sym = lk.make_symbol("stable", a=1.3)
        for k in (4, 5):
            got = lk.mellin_Mk(sym, 1.0, 0.0 + 0j, k)
            assert got.real == pytest.approx((-1.0) ** k * math.gamma(k),
                                             rel=1e-9)
            assert abs(got.imag) < 1e-12 * abs(got.real)

    def test_exponential_symbol_closed_form(self):
        # eta = r: M_t(z) = Gamma(z) t^-z, recovered through k = 2 parts
        sym = lk.make_symbol("stable", a=1.0)
        t = 0.7
        for z in (1.2 + 3j, 2.0 - 5j, 0.8 + 0j):
            got = lk.mellin_M(sym, t, z, 2)
            expected = complex(np.exp(lk.log_gamma(z) - z * math.log(t)))
            assert got == pytest.approx(expected, rel=1e-9)

    def test_square_root_symbol_value(self):
        # eta = sqrt(r): int e^{-sqrt r} dr = 2
        sym = lk.make_symbol("stable", a=0.5)
        got = lk.mellin_M(sym, 1.0, 1.0 + 0j, 4)
        assert got.real == pytest.approx(2.0, rel=1e-9)

    def test_strip_violation(self):
        sym = lk.make_symbol("stable", a=0.5)
        with pytest.raises(lk.StripViolation):
            lk.mellin_Mk(sym, 1.0, -1.0 + 0j, 4)

    def test_inversion_round_trip(self):
        # (-1)^k/(2 pi i) int Gamma(z)/Gamma(z+k) M_t^k(z) r^-z dz = e^{-t eta(r)}
        sym = lk.make_symbol("stable", a=1.3)
        k = 4
        for r in (0.5, 1.0, 2.0):
            def f(z, r=r):
                z = np.asarray(z, dtype=np.complex128)
                return np.exp(lk.log_gamma(z) - lk.log_gamma(z + k)
                              - z * math.log(r)) * lk.mellin_Mk(sym, 1.0, z, k)

            big_t = lk.auto_truncation(f, 1.0, 1e-9)
            res = lk.vertical_line_integral(
                f, lk.ContourSpec(1.0, big_t, nodes=256), tol=1e-10)
            got = (-1.0) ** k * res.value.real
            target = math.exp(-float(sym.eta(np.array([r]))[0]))
            assert got == pytest.approx(target, rel=1e-7)


class TestGeneralKernel:
    def test_matches_stable_machinery(self):
        sym = lk.make_symbol("stable", a=1.2)
        spec = lk.KernelSpec(d=2, alpha=1.2, beta=0.7)
        g = lk.general_kernel_mb(sym, 2, 0.7, 1.0, 3.0)
        s = lk.stable_mb(spec, 3.0)
        assert abs(g.value - s.value) / abs(s.value) < 1e-4
        assert g.diagnostics["imag_ratio"] < 1e-10

    def test_relativistic_against_oracle(self):
        sym = lk.make_symbol("relativistic", alpha=1.0, m=1.0)
        g = lk.general_kernel_mb(sym, 2, 0.5, 1.0, 4.0)
        o = lk.symbol_oracle(sym, 2, 0.5, 1.0, 4.0)
        assert abs(g.value - o.value) / abs(o.value) < 1e-4

    def test_k_independence(self):
        assert k_independence_err() < 1e-5

    def test_argument_validation(self):
        sym = lk.make_symbol("stable", a=1.2)
        with pytest.raises(ValueError):
            lk.general_kernel_mb(sym, 2, 0.7, 1.0, 3.0, k=3)
        with pytest.raises(lk.OrderExceeded):
            lk.general_kernel_mb(sym, 2, 0.7, 1.0, 3.0, k=14)
        with pytest.raises(lk.StripViolation):
            lk.general_kernel_mb(sym, 2, 0.7, 1.0, 3.0,
                                 contour=lk.ContourSpec(0.5, 32.0))
        for r in (0.0, -1.0, math.nan, np.array([1.0, math.nan]), math.inf,
                  np.array([1.0, math.inf])):
            with pytest.raises(lk.DomainError):
                lk.general_kernel_mb(sym, 2, 0.7, 1.0, r)
        with pytest.raises(ValueError):
            lk.general_kernel_mb(sym, 2, 0.7, 1.0, np.ones((2, 2)))

    def test_default_derivative_order(self):
        assert lk.default_derivative_order(2, 0.0) == 4
        assert lk.default_derivative_order(2, 0.5) == 5
        assert lk.default_derivative_order(3, 0.0) == 5


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

    def test_shapes(self):
        sym = lk.make_symbol("stable", a=1.5)
        one = lk.general_kernel_mb(sym, 2, 0.5, 1.0, 2.0)
        assert isinstance(one, lk.Approximation)
        (row,) = lk.general_kernel_mb(sym, 2, 0.5, 1.0, np.array([2.0]))
        assert row.value == one.value and row.est_error == one.est_error


class TestMellinGridPhases:
    # the folded, factorised phase sums must reproduce the dense phase
    # matrix on the node sets the contour levels request
    GRIDS = [("relativistic", {"alpha": 1.0, "m": 1.0}),
             ("sum_stable", {"a": 0.6, "b": 1.4})]
    N, H = 160, 0.4  # a trapezoid plan with T = 64

    @staticmethod
    def _grid(kind, params):
        sym = lk.make_symbol(kind, **params)
        # the strip midpoint and default k of d = 2, beta = 0.5
        return _MellinGrid(sym, 1.0, 5, 2.25, 64.0, tol=1e-9)

    @staticmethod
    def _dense(grid, v):
        return grid._eval_arrays(grid.u0, grid.p0, grid.u1, grid.p1, v)

    @pytest.mark.parametrize("kind,params", GRIDS, ids=[g[0] for g in GRIDS])
    def test_factored_matches_dense(self, kind, params):
        grid = self._grid(kind, params)
        n, h = self.N, self.H
        level0 = np.arange(-n, n + 1, dtype=float) * h
        sets = {"level 0": level0,
                "midpoints": (np.arange(-n, n, dtype=float) + 0.5) * h,
                "strided": level0[::3],
                "negative": np.arange(-40, 121, dtype=float) * h}
        gross = np.sum(np.abs(grid.p0)) + np.sum(np.abs(grid.p1))
        for name, v in sets.items():
            assert grid._progression(np.unique(np.abs(v))) is not None, name
            err = np.max(np.abs(grid.value(v) - self._dense(grid, v)))
            assert err <= 1e-11 * gross, name

    def test_offset_symmetric_set_is_dense(self):
        import tracemalloc

        grid = self._grid(*self.GRIDS[0])
        # symmetric about 2^-21: folds onto two interleaved progressions
        # whose common step 2^-20 would need ~1e8 slots
        v = 2.0 ** -21 + np.arange(-self.N, self.N + 1, dtype=float) * 0.25
        assert grid._progression(np.unique(np.abs(v))) is None
        tracemalloc.start()
        try:
            got = grid.value(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        gross = np.sum(np.abs(grid.p0)) + np.sum(np.abs(grid.p1))
        assert np.max(np.abs(got - self._dense(grid, v))) <= 1e-11 * gross

    def test_memo_returns_copies(self):
        grid = self._grid(*self.GRIDS[1])
        v = np.arange(-self.N, self.N + 1, dtype=float) * self.H
        first = grid.value(v)
        kept = first.copy()
        assert np.array_equal(grid.value(v), kept)
        first[:] = 0.0
        assert np.array_equal(grid.value(v), kept)


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
        assert lt4["coefficient"] == pytest.approx(lt3.coefficient, rel=1e-12)

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
        # and matches the t-scaled stable leading term for general alpha
        for a in (0.7, 1.5):
            got = lk.perturbed_leading_term(a, 0.0, 2, 0.0, 1.0)
            ref = lk.leading_term(lk.KernelSpec(d=2, alpha=a))
            assert got["coefficient"] == pytest.approx(ref.coefficient, rel=1e-12)

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
