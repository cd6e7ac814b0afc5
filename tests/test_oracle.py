import json
import math
import pathlib

import mpmath as mp
import numpy as np
import pytest
from scipy.special import jn_zeros

import levykernel as lk

POOL = pathlib.Path(__file__).resolve().parents[1] / "bench" / "pool"


class TestBesselZeros:
    def test_against_scipy_integer_orders(self):
        # nu = d/2 - 1 <= 3 is the supported envelope (d <= 8)
        for nu in (0, 1, 2, 3):
            ours = lk.bessel_zeros(float(nu), 40)
            ref = jn_zeros(nu, 40)
            assert np.max(np.abs(ours - ref)) < 1e-10

    def test_half_order_zeros_are_multiples_of_pi(self):
        ours = lk.bessel_zeros(0.5, 20)
        ref = np.arange(1, 21) * math.pi
        assert np.max(np.abs(ours - ref)) < 1e-12

    def test_offset(self):
        a = lk.bessel_zeros(0.0, 10)
        b = lk.bessel_zeros(0.0, 5, offset=5)
        assert np.allclose(a[5:], b, rtol=0, atol=1e-12)


class TestHankelOracle:
    def test_gaussian_weight_example(self):
        # d=2, alpha=2, t=1, r=1 must give the Gaussian closed form
        spec = lk.KernelSpec(d=2, alpha=2.0)
        res = lk.stable_oracle(spec, 1.0)
        assert res.value == pytest.approx(math.exp(-0.25) / (4.0 * math.pi),
                                          rel=1e-10)

    def test_poisson_weight_example(self):
        # d=3, alpha=1, t=1, r=1 -> (1/pi^2) 2^-2
        spec = lk.KernelSpec(d=3, alpha=1.0)
        res = lk.stable_oracle(spec, 1.0)
        assert res.value == pytest.approx(1.0 / (4.0 * math.pi ** 2), rel=1e-10)

    def test_closed_form_agreement_alpha1(self):
        spec = lk.KernelSpec(d=2, alpha=1.0)
        for r in np.geomspace(0.1, 20.0, 9):
            res = lk.stable_oracle(spec, float(r))
            ref = lk.poisson_kernel(2, 1.0, float(r))
            assert abs(res.value - ref) / ref < 1e-8

    def test_closed_form_agreement_alpha2(self):
        # relative comparison is meaningful while the value stays well
        # above the quadrature rounding floor, i.e. r <~ 8
        spec = lk.KernelSpec(d=2, alpha=2.0)
        for r in np.geomspace(0.1, 7.0, 9):
            res = lk.stable_oracle(spec, float(r))
            ref = lk.gaussian_kernel(2, 1.0, float(r))
            assert abs(res.value - ref) / ref < 1e-8

    def test_small_r_limit_matches_origin_formula(self):
        spec = lk.KernelSpec(d=3, alpha=1.5)
        res = lk.stable_oracle(spec, 1e-3)
        origin = lk.kernel_at_origin(spec)
        assert abs(res.value - origin) / origin < 1e-4

    def test_self_consistency_tolerance_halving(self):
        spec = lk.KernelSpec(d=2, alpha=1.5, beta=0.7)
        a = lk.stable_oracle(spec, 2.0, tol=1e-9)
        b = lk.stable_oracle(spec, 2.0, tol=5e-10)
        assert abs(a.value - b.value) <= a.est_error + b.est_error + 1e-15 * abs(a.value)

    def test_rejects_nonpositive_r(self):
        spec = lk.KernelSpec(d=2, alpha=1.5)
        with pytest.raises(lk.DomainError):
            lk.stable_oracle(spec, 0.0)

    def test_plan_invariants(self):
        w = lk.stable_weight(2, 1.5, 0.0, 1.0)
        _, _, plan = lk.oscillatory_bessel_integral(w, 0.0, 5.0)
        plan.validate()
        assert plan.depth >= 3
        assert np.all(np.diff(plan.zeros) > 0)


class TestGradedHead:
    @pytest.mark.parametrize("b", [0.05, 0.2, 3.0])
    def test_gaussian_hankel_closed_form(self, b):
        # int_0^inf J_0(b s) s e^(-s^2) ds = e^(-b^2/4) / 2; at b <= 0.2
        # the weight dies before the first arch (non-oscillatory branch)
        def w(s):
            return s * np.exp(-s * s)

        val, err, plan = lk.oscillatory_bessel_integral(w, 0.0, b, tol=1e-13)
        ref = 0.5 * math.exp(-0.25 * b * b)
        assert (plan.zeros.size == 0) == (b < 1.0)
        assert abs(val - ref) <= 1e-13 * ref
        assert abs(val - ref) <= err

    @pytest.mark.parametrize("z", [0.5, 1.0, 1.4])
    def test_mellin_bessel_identity(self, z):
        # int_0^inf J_0(s) s^(z-1) ds = 2^(z-1) G(z/2) / G(1-z/2): the
        # head carries an integrable singularity at z < 1, the weight
        # grows at z > 1
        def w(s):
            out = np.zeros_like(s)
            pos = s > 0
            out[pos] = s[pos] ** (z - 1.0)
            return out

        val, err, _ = lk.oscillatory_bessel_integral(w, 0.0, 1.0, tol=1e-9)
        rhs = lk.mellin_bessel_rhs(complex(z), 0.0).real
        assert abs(val - rhs) <= 1e-9 * abs(rhs)
        assert abs(val - rhs) <= err

    @pytest.mark.parametrize("d,a,b,t", [(2, 0.6, 1.4, 1.0), (3, 0.5, 1.5, 0.3),
                                         (1, 0.3, 1.9, 4.0)])
    def test_sum_symbol_origin_against_mpmath(self, d, a, b, t):
        # the r = 0 path of sum_symbol_envelope_check
        check = lk.sum_symbol_envelope_check(d, a, b, t, [0.0])
        k0 = check["max_ratio"] * lk.sum_symbol_envelope(d, a, b, t, 0.0)
        with mp.workdps(30):
            radial = mp.quad(lambda s: s ** (d - 1) * mp.exp(-t * (s ** a + s ** b)),
                             [0, 1, 10, 100, mp.inf])
            ref = float(2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)
                        * radial / (2 * mp.pi) ** d)
        assert abs(k0 - ref) <= 1e-13 * ref


def test_est_error_bounds_frozen_references():
    # every stable point of the benchmark's 30-digit reference pool (t = 1)
    pool = json.loads((POOL / "oracle.json").read_text())
    misses = []
    for p in pool["stable"]:
        spec = lk.KernelSpec(d=p["d"], alpha=p["alpha"], beta=p["beta"])
        res = lk.stable_oracle(spec, p["r"])
        if abs(res.value - p["ref"]) > res.est_error + 1e-15 * abs(p["ref"]):
            misses.append((p["d"], p["alpha"], p["beta"], p["r"]))
    assert len(pool["stable"]) == 20
    assert misses == []


class TestNormalization:
    @pytest.mark.parametrize("d,alpha,tol", [(2, 1.0, 1e-5), (2, 2.0, 1e-8)])
    def test_unit_mass(self, d, alpha, tol):
        mass = lk.normalization_check(lk.KernelSpec(d=d, alpha=alpha))
        assert abs(mass - 1.0) < tol

    def test_rejects_beta(self):
        with pytest.raises(ValueError):
            lk.normalization_check(lk.KernelSpec(d=2, alpha=1.5, beta=0.5))
