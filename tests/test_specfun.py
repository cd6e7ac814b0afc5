import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy.special import jv as scipy_jv

import levykernel as lk
from levykernel.specfun import bessel_switch_point

from _props import gamma_functional_equation_err, gamma_reflection_err


def _gamma(z):
    return np.exp(lk.log_gamma(z))


class TestGamma:
    def test_gamma_one(self):
        assert _gamma(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_gamma_half(self):
        assert _gamma(0.5).real == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_magnitude_vs_stirling_on_the_line(self):
        # the leading Stirling magnitude is an independent check at 0.5+10i
        z = 0.5 + 10j
        mag = abs(_gamma(z))
        assert mag == pytest.approx(lk.stirling_magnitude(0.5, 10.0), rel=0.01)

    def test_functional_equation_bulk(self):
        assert gamma_functional_equation_err() <= 1e-12

    def test_reflection_bulk(self):
        assert gamma_reflection_err() <= 1e-10

    def test_log_modulus_tall_line(self):
        # finite and Stirling-consistent far beyond double-precision range
        # (|Gamma| itself underflows near Im z ~ 450, the log must not)
        for u, v in [(0.5, 100.0), (0.5, 500.0), (1.0, 1000.0)]:
            log_modulus = lk.log_gamma(u + v * 1j).real
            assert math.isfinite(log_modulus)
            log_stirling = (0.5 * math.log(2.0 * math.pi)
                            + (u - 0.5) * math.log(v) - 0.5 * math.pi * v)
            assert log_modulus == pytest.approx(log_stirling, rel=1e-6)


class TestLogGammaNearPoles:
    # the kernels' lines may pass close to a pole of Gamma(z/a) or of the
    # denominator Gamma((z-b)/2); the reflection branch must stay accurate
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_residue(self, n):
        # eps Gamma(-n + eps) = (-1)^n/n! (1 + eps psi(n+1) + O(eps^2))
        eps = 1e-7
        psi = -np.euler_gamma + sum(1.0 / k for k in range(1, n + 1))
        expected = (-1.0) ** n / math.factorial(n) * (1.0 + eps * psi)
        got = eps * np.exp(lk.log_gamma(-n + eps))
        assert got.real == pytest.approx(expected, rel=1e-8)
        assert abs(got.imag) <= 1e-15

    def test_reciprocal_at_one(self):
        assert np.exp(-lk.log_gamma(1.0)) == pytest.approx(1.0, rel=1e-14)

    def test_reciprocal_at_minus_half(self):
        # reflection gives Gamma(-1/2) = -2 sqrt(pi)
        expected = 1.0 / (-2.0 * math.sqrt(math.pi))
        got = np.exp(-lk.log_gamma(-0.5))
        assert got.real == pytest.approx(expected, rel=1e-13)
        assert abs(got.imag) <= 1e-15

    def test_reciprocal_small_around_poles(self):
        # |1/Gamma(-n + eps e^{i theta})| = n! eps (1 + O(eps))
        eps = 1e-6
        for n in range(0, 4):
            for theta in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
                z = -n + eps * complex(math.cos(theta), math.sin(theta))
                got = abs(np.exp(-lk.log_gamma(z)))
                assert got == pytest.approx(math.factorial(n) * eps, rel=1e-5)


class TestStirlingMagnitude:
    def test_u_half(self):
        expected = math.sqrt(2.0 * math.pi) * math.exp(-5.0 * math.pi)
        assert lk.stirling_magnitude(0.5, 10.0) == pytest.approx(expected, rel=1e-14)

    def test_u_one(self):
        expected = math.sqrt(2.0 * math.pi) * math.sqrt(20.0) * math.exp(-10.0 * math.pi)
        assert lk.stirling_magnitude(1.0, 20.0) == pytest.approx(expected, rel=1e-14)

    def test_ratio_against_gamma(self):
        ratio = abs(_gamma(0.5 + 50j)) / lk.stirling_magnitude(0.5, 50.0)
        assert 0.99 <= ratio <= 1.01


def _poisson_representation_j(nu, x):
    """Independent Bessel oracle: quadrature of the Poisson integral."""
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    pref = (0.5 * x) ** nu / (math.gamma(nu + 0.5) * math.gamma(0.5))
    val, _ = integrate.quad(
        lambda s: math.cos(x * s) * (1.0 - s * s) ** (nu - 0.5),
        -1.0, 1.0, limit=300)
    return pref * val


class TestBesselJ:
    def test_origin(self):
        assert lk.bessel_j(0.0, 0.0) == 1.0
        assert lk.bessel_j(1.5, 0.0) == 0.0

    def test_half_order_zero_at_pi(self):
        # oracle: the Poisson representation integral
        oracle = _poisson_representation_j(0.5, math.pi)
        assert abs(oracle) < 1e-12
        assert abs(lk.bessel_j(0.5, math.pi)) < 1e-12

    def test_poisson_representation_agreement(self):
        # the oracle quadrature sees endpoint singularities for nu < 1/2,
        # limiting it to ~5e-10 absolute
        for nu in (0.0, 0.5, 1.0, 1.5, 2.0):
            for x in (0.3, 2.0, 7.0, 11.0):
                assert lk.bessel_j(nu, x) == pytest.approx(
                    _poisson_representation_j(nu, x), abs=5e-10)

    def test_large_argument_magnitude_bound(self):
        assert abs(lk.bessel_j(0.0, 100.0)) <= 100.0 ** -0.5

    def test_two_sided_envelope(self):
        # |J_nu(r)| <= C (r^nu and r^(-1/2)) with a single constant
        for nu in (0.0, 0.5, 1.0, 1.5):
            c = 1.1 * max(1.0 / (2.0 ** nu * math.gamma(nu + 1.0)),
                          math.sqrt(2.0 / math.pi))
            r = np.geomspace(1e-3, 300.0, 200)
            vals = np.abs(lk.bessel_j(nu, r))
            assert np.all(vals <= c * np.minimum(r ** nu, r ** -0.5) + 1e-300)

    def test_branch_overlap_consistency(self):
        from levykernel.specfun import _bessel_asymptotic, _bessel_series
        for nu in (0.0, 0.5, 1.0, 1.5, 2.0):
            xs = bessel_switch_point(nu)
            x = np.linspace(0.9 * xs, 1.1 * xs, 41)
            s = _bessel_series(nu, x)
            a = _bessel_asymptotic(nu, x)
            amp = math.sqrt(2.0 / math.pi) * x ** -0.5
            # relative where J is not near a zero, envelope-relative otherwise
            big = np.abs(s) > 0.05 * amp
            assert np.all(np.abs(s[big] - a[big]) <= 1e-9 * np.abs(s[big]))
            assert np.all(np.abs(s - a) <= 1e-9 * amp)

    def test_against_scipy_grid(self):
        for nu in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
            x = np.geomspace(0.05, 400.0, 120)
            ours = lk.bessel_j(nu, x)
            ref = scipy_jv(nu, x)
            assert np.max(np.abs(ours - ref)) < 2e-10

    @pytest.mark.parametrize("nu", [3.0, 3.5, 4.0, 9.5])
    def test_against_mpmath_between_the_branches(self, nu):
        # between x = 12 and the switch point 2 nu^2 the series alone
        # cancelled to 1.2e-10 (nu = 3), 6.3e-8 (3.5) and 7e-5 (4)
        x = np.linspace(0.0, max(40.0, 1.2 * bessel_switch_point(nu)), 401)
        with mp.workdps(30):
            ref = np.array([float(mp.besselj(nu, mp.mpf(float(v)))) for v in x])
        assert np.max(np.abs(lk.bessel_j(nu, x) - ref)) <= 1e-12

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            lk.bessel_j(-0.5, 1.0)
        with pytest.raises(ValueError):
            lk.bessel_j(0.0, -1.0)
