import math

import numpy as np
import pytest
from scipy import optimize

import levykernel as lk

from _props import contour_independence_spread


def _gamma_times_power(r):
    def f(z):
        z = np.asarray(z, dtype=np.complex128)
        return np.exp(lk.log_gamma(z) - z * math.log(r))

    return f


class TestVerticalLineIntegral:
    def test_exponential_at_one(self):
        # (1/2 pi i) int Gamma(z) 1^-z dz = e^-1
        f = _gamma_times_power(1.0)
        res = lk.vertical_line_integral(f, lk.ContourSpec(1.0, 32.0), tol=1e-12)
        assert res.value.real == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_exponential_at_two(self):
        f = _gamma_times_power(2.0)
        res = lk.vertical_line_integral(f, lk.ContourSpec(1.0, 32.0), tol=1e-12)
        assert res.value.real == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_conjugate_symmetry_gives_real_value(self):
        f = _gamma_times_power(1.7)
        res = lk.vertical_line_integral(f, lk.ContourSpec(1.0, 32.0), tol=1e-12)
        assert abs(res.value.imag) <= 1e-10 * abs(res.value)

    def test_no_decay_raises(self):
        f = lambda z: np.ones_like(np.asarray(z, dtype=np.complex128))
        with pytest.raises(lk.NoDecay):
            lk.vertical_line_integral(f, lk.ContourSpec(1.0, 32.0))

    def test_gauss_panels_cross_check(self):
        f = _gamma_times_power(1.3)
        r1 = lk.vertical_line_integral(f, lk.ContourSpec(1.0, 32.0), tol=1e-11)
        r2 = lk.vertical_line_integral(
            f, lk.ContourSpec(1.0, 32.0, nodes=128, rule="gauss_legendre_panels"),
            tol=1e-11)
        assert r1.value.real == pytest.approx(r2.value.real, rel=1e-10)

    def test_refinement_differences_shrink_monotonically(self):
        # trapezoid on an analytic decaying integrand: successive
        # refinement differences shrink until the rounding floor
        f = _gamma_times_power(1.0)
        c, big_t, n = 1.0, 32.0, 16
        h = big_t / n
        v = np.arange(-n, n + 1) * h
        fv = f(c + 1j * v)
        cur = h * (np.sum(fv) - 0.5 * (fv[0] + fv[-1])) / (2 * math.pi)
        diffs = []
        for _ in range(6):
            mid = (np.arange(-n, n) + 0.5) * h
            nxt = 0.5 * cur + 0.5 * h * np.sum(f(c + 1j * mid)) / (2 * math.pi)
            diffs.append(abs(nxt - cur))
            cur = nxt
            n *= 2
            h *= 0.5
        floor = 1e-14 * abs(cur)
        meaningful = [d for d in diffs if d > floor]
        assert all(b <= a for a, b in zip(meaningful, meaningful[1:]))

    def test_plan_without_height_rejected(self):
        with pytest.raises(ValueError):
            lk.vertical_line_integral(_gamma_times_power(1.0), lk.ContourSpec(1.0))

    def test_invalid_contour_spec(self):
        with pytest.raises(ValueError):
            lk.ContourSpec(1.0, -1.0)
        with pytest.raises(ValueError):
            lk.ContourSpec(1.0, 16.0, nodes=4)
        with pytest.raises(ValueError):
            lk.ContourSpec(1.0, 16.0, rule="simpson")


class TestPowerLineIntegral:
    # (1/2 pi i) int Gamma(z) x^-z dz = e^-x, as a batch over x
    X = np.array([0.5, 1.0, 1.3, 2.0, 7.0])

    @pytest.mark.parametrize("rule", ["trapezoid", "gauss_legendre_panels"])
    def test_rows_equal_single_integrals(self, rule):
        plan = lk.ContourSpec(1.0, 32.0, nodes=128, rule=rule)
        rows = lk.power_line_integral(lk.log_gamma, -np.log(self.X), 0.0, plan,
                                      tol=1e-12)
        for x, row in zip(self.X, rows):
            one = lk.vertical_line_integral(_gamma_times_power(x), plan,
                                            tol=1e-12)
            assert row.value.real == pytest.approx(math.exp(-x), rel=1e-11)
            assert (row.diagnostics["nodes_used"]
                    == one.diagnostics["nodes_used"])
            assert row.value == pytest.approx(one.value, rel=1e-14)
            assert row.diagnostics["tail_bound"] == pytest.approx(
                one.diagnostics["tail_bound"], rel=1e-12)

    def test_any_stalled_row_raises(self):
        plan = lk.ContourSpec(1.0, 32.0)
        with pytest.raises(lk.NonConvergent):
            lk.power_line_integral(lk.log_gamma, -np.log(self.X), 0.0, plan,
                                   tol=1e-30, max_refinements=1)


class TestLinePlan:
    # log Gamma(z) Gamma(3 - z): poles at z = 0 and z = 3, the strip's hi
    STRIP = (1.0, 3.0)

    @staticmethod
    def log_g(z):
        return lk.log_gamma(z) + lk.log_gamma(3.0 - np.asarray(z))

    def test_default_plan(self):
        plan = lk.line_plan(self.log_g, self.STRIP, None, 1e-9)
        expected_t = lk.auto_truncation(lambda z: np.exp(self.log_g(z)),
                                        2.0, 1e-11)
        assert (plan.abscissa, plan.half_height) == (2.0, expected_t)
        assert plan.nodes == max(64, math.ceil(expected_t / 0.2))
        assert plan.rule == "trapezoid"

    def test_override_and_pole_aware_floor(self):
        plan = lk.line_plan(self.log_g, self.STRIP,
                            lk.ContourSpec(2.9, 32.0, nodes=16,
                                           rule="gauss_legendre_panels"), 1e-9)
        # the pole at z = 3 sits 0.1 from the line: h <= 0.1 / 5
        assert (plan.abscissa, plan.half_height) == (2.9, 32.0)
        assert plan.nodes == math.ceil(32.0 / 0.02)
        assert plan.rule == "gauss_legendre_panels"
        wide = lk.line_plan(self.log_g, self.STRIP,
                            lk.ContourSpec(2.0, 32.0, nodes=4096), 1e-9)
        assert wide.nodes == 4096

    def test_abscissa_only_override_climbs_the_ladder(self):
        plan = lk.line_plan(self.log_g, self.STRIP, lk.ContourSpec(1.5), 1e-9)
        assert plan.abscissa == 1.5
        assert plan.half_height == lk.auto_truncation(
            lambda z: np.exp(self.log_g(z)), 1.5, 1e-11)

    def test_abscissa_outside_strip(self):
        for c in (1.0, 3.5):
            with pytest.raises(lk.StripViolation):
                lk.line_plan(self.log_g, self.STRIP, lk.ContourSpec(c), 1e-9)


class TestAutoTruncation:
    def test_ladder_for_quarter_pi_decay(self):
        # solve |f(c+iT)| T = tol |f(c)| for f decaying like e^(-pi v/4);
        # the ladder must return the next power of two above the root
        decay = lambda v: math.exp(-math.pi * abs(v) / 4.0)
        tol = 1e-12
        root = optimize.brentq(lambda t: decay(t) * t - tol, 1.0, 200.0)
        expected = 2.0 ** math.ceil(math.log2(root))
        f = lambda z: np.exp(-math.pi * np.abs(np.asarray(z).imag) / 4.0) \
            * np.ones_like(np.asarray(z, dtype=np.complex128))
        assert lk.auto_truncation(f, 1.0, tol) == expected == 64.0

    def test_gamma_ladder_small(self):
        f = _gamma_times_power(1.0)
        assert lk.auto_truncation(f, 1.0, 1e-10) <= 64.0

    def test_constant_integrand_no_decay(self):
        f = lambda z: np.ones_like(np.asarray(z, dtype=np.complex128))
        with pytest.raises(lk.NoDecay):
            lk.auto_truncation(f, 1.0, 1e-10)


class TestMellinBesselRhs:
    def test_symmetric_cancellation_nu1(self):
        assert lk.mellin_bessel_rhs(2.0 + 0j, 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_symmetric_cancellation_nu0(self):
        assert lk.mellin_bessel_rhs(1.0 + 0j, 0.0) == pytest.approx(1.0, rel=1e-13)

    def test_quarters(self):
        expected = 2.0 ** -0.5 * math.gamma(0.25) / math.gamma(0.75)
        assert lk.mellin_bessel_rhs(0.5 + 0j, 0.0).real == pytest.approx(
            expected, rel=1e-13)

    def test_strip_violation(self):
        with pytest.raises(lk.StripViolation):
            lk.mellin_bessel_rhs(2.0 + 0j, 0.0)
        with pytest.raises(lk.StripViolation):
            lk.mellin_bessel_rhs(-0.1 + 0j, 1.0)


def test_contour_independence():
    assert contour_independence_spread() <= 1e-8
