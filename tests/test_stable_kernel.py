import math

import numpy as np
import pytest

import levykernel as lk

from _props import scaling_exactness_err


class TestScalingReduce:
    def test_time_four(self):
        unit, rp, pref = lk.scaling_reduce(
            lk.KernelSpec(d=2, alpha=1.0, t=4.0), 8.0)
        assert (rp, pref) == (2.0, 1.0 / 16.0)
        assert unit.t == 1.0

    def test_identity_at_unit_time(self):
        spec = lk.KernelSpec(d=2, alpha=1.3)
        unit, rp, pref = lk.scaling_reduce(spec, 3.0)
        assert unit is spec and rp == 3.0 and pref == 1.0

    def test_fractional_orders(self):
        _, rp, pref = lk.scaling_reduce(
            lk.KernelSpec(d=3, alpha=1.5, beta=1.5, t=2.0), 1.0)
        assert pref == pytest.approx(0.125, rel=1e-15)
        assert rp == pytest.approx(2.0 ** (-2.0 / 3.0), rel=1e-15)


class TestClosedForms:
    def test_gaussian_values(self):
        assert lk.gaussian_kernel(2, 1.0, 0.0) == pytest.approx(
            1.0 / (4.0 * math.pi), rel=1e-15)
        assert lk.gaussian_kernel(2, 1.0, 2.0) == pytest.approx(
            math.exp(-1.0) / (4.0 * math.pi), rel=1e-15)

    def test_poisson_values(self):
        assert lk.poisson_kernel(2, 1.0, 0.0) == pytest.approx(
            1.0 / (2.0 * math.pi), rel=1e-15)
        assert lk.poisson_kernel(3, 1.0, 0.0) == pytest.approx(
            1.0 / math.pi ** 2, rel=1e-15)
        assert lk.poisson_kernel(2, 2.0, 0.0) == pytest.approx(
            0.25 / (2.0 * math.pi), rel=1e-15)

    def test_origin_formula(self):
        assert lk.kernel_at_origin(lk.KernelSpec(d=2, alpha=2.0)) == \
            pytest.approx(lk.gaussian_kernel(2, 1.0, 0.0), rel=1e-14)
        assert lk.kernel_at_origin(lk.KernelSpec(d=2, alpha=1.0)) == \
            pytest.approx(lk.poisson_kernel(2, 1.0, 0.0), rel=1e-14)
        expected = (2.0 * math.pi) ** -3 * 4.0 * math.pi * math.gamma(2.0) / 1.5
        assert lk.kernel_at_origin(lk.KernelSpec(d=3, alpha=1.5)) == \
            pytest.approx(expected, rel=1e-14)

    def test_origin_matches_oracle_limit(self):
        spec = lk.KernelSpec(d=3, alpha=1.5)
        o = lk.stable_oracle(spec, 1e-3).value
        assert lk.kernel_at_origin(spec) == pytest.approx(o, rel=1e-4)


class TestStableMB:
    def test_poisson_point(self):
        spec = lk.KernelSpec(d=2, alpha=1.0)
        got = lk.stable_mb(spec, 1.0).value
        assert got == pytest.approx(2.0 ** -1.5 / (2.0 * math.pi), rel=1e-12)

    def test_poisson_point_3d(self):
        spec = lk.KernelSpec(d=3, alpha=1.0)
        got = lk.stable_mb(spec, 2.0).value
        assert got == pytest.approx(1.0 / (25.0 * math.pi ** 2), rel=1e-12)

    def test_oracle_spot(self):
        spec = lk.KernelSpec(d=2, alpha=1.5)
        mb = lk.stable_mb(spec, 5.0).value
        o = lk.stable_oracle(spec, 5.0).value
        assert abs(mb - o) / abs(o) < 1e-6

    def test_closed_form_agreement_alpha1(self):
        spec = lk.KernelSpec(d=2, alpha=1.0)
        for r in np.geomspace(0.5, 20.0, 8):
            got = lk.stable_mb(spec, float(r)).value
            assert got == pytest.approx(lk.poisson_kernel(2, 1.0, float(r)),
                                        rel=1e-8)

    def test_positivity(self):
        for alpha in (0.5, 1.5, 1.9):
            spec = lk.KernelSpec(d=2, alpha=alpha)
            for r in np.geomspace(0.5, 100.0, 7):
                assert lk.stable_mb(spec, float(r)).value > 0

    def test_scaling_exactness(self):
        assert scaling_exactness_err() <= 1e-10

    def test_domain_checks(self):
        with pytest.raises(lk.DomainError):
            lk.stable_mb(lk.KernelSpec(d=2, alpha=2.0), 1.0)
        with pytest.raises(lk.DomainError):
            lk.stable_mb(lk.KernelSpec(d=2, alpha=1.5), 0.0)
        with pytest.raises(lk.StripViolation):
            lk.stable_mb(lk.KernelSpec(d=2, alpha=1.5), 1.0,
                         contour=lk.ContourSpec(5.0, 32.0))

    def test_method_tag_and_diagnostics(self):
        a = lk.stable_mb(lk.KernelSpec(d=2, alpha=1.5), 2.0)
        assert a.method == "mb_contour"
        assert a.est_error >= 0
        assert a.diagnostics["nodes_used"] > 0


class TestStableMBGrid:
    # a grid shares one gamma-ratio sampling and one line plan; every r
    # must still refine exactly as a point-by-point call does
    SPECS = [lk.KernelSpec(d=2, alpha=0.1),
             lk.KernelSpec(d=10, alpha=1.5, beta=2.0),
             lk.KernelSpec(d=3, alpha=1.0, beta=0.7, t=2.5),
             lk.KernelSpec(d=2, alpha=1.99, beta=0.7),
             lk.KernelSpec(d=10, alpha=0.5, t=0.4)]

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_grid_matches_pointwise(self, spec):
        grid = np.geomspace(0.05, 30.0, 50)
        batch = lk.stable_mb(spec, grid)
        assert len(batch) == grid.size
        for r, b in zip(grid, batch):
            p = lk.stable_mb(spec, float(r))
            for key in ("nodes_used", "truncation_height"):
                assert b.diagnostics[key] == p.diagnostics[key]
            assert abs(b.value - p.value) <= p.est_error + 1e-14 * abs(p.value)

    def test_shapes(self):
        spec = lk.KernelSpec(d=2, alpha=1.5)
        one = lk.stable_mb(spec, 2.0)
        assert isinstance(one, lk.Approximation)
        (row,) = lk.stable_mb(spec, np.array([2.0]))
        assert row.value == one.value and row.est_error == one.est_error
        with pytest.raises(lk.DomainError):
            lk.stable_mb(spec, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            lk.stable_mb(spec, np.ones((2, 2)))


class TestStableSeries:
    def test_coefficients_match_indicator_formula(self):
        # beta = 0 reduction: (1 - 1_Z(n a/2)) (-1)^n/n! G((d+na)/2) 2^(na) / G(-na/2)
        d, a = 2, 1.5
        approx = lk.stable_series(lk.KernelSpec(d=d, alpha=a), 10.0, n_terms=4)
        for term in approx.diagnostics["terms"]:
            n = term.n
            if n == 0:
                continue
            if (n * a / 2.0) == round(n * a / 2.0):
                assert term.vanished and term.coefficient == 0.0
            else:
                expected = ((-1.0) ** n / math.factorial(n)
                            * math.gamma(0.5 * (d + n * a)) * 2.0 ** (n * a)
                            / math.gamma(-0.5 * n * a) / math.pi ** (0.5 * d))
                assert term.coefficient == pytest.approx(expected, rel=1e-12)

    def test_vanishing_pattern_alpha_one(self):
        approx = lk.stable_series(lk.KernelSpec(d=2, alpha=1.0), 10.0, n_terms=3)
        flags = {t.n: t.vanished for t in approx.diagnostics["terms"]}
        assert flags[0] and flags[2] and flags[4]
        assert not flags[1] and not flags[3]

    def test_one_term_value_and_poisson_limit(self):
        spec = lk.KernelSpec(d=2, alpha=1.0)
        one = lk.stable_series(spec, 10.0, n_terms=1).value
        assert one == pytest.approx(1e-3 / (2.0 * math.pi), rel=1e-13)
        # ratio against the closed form tends to 1 as r grows
        r1 = one / lk.poisson_kernel(2, 1.0, 10.0)
        r2 = lk.stable_series(spec, 100.0, n_terms=1).value \
            / lk.poisson_kernel(2, 1.0, 100.0)
        assert abs(r2 - 1.0) < abs(r1 - 1.0)
        assert r2 == pytest.approx(1.0, abs=2e-4)

    def test_asymptotic_control_spot(self):
        spec = lk.KernelSpec(d=2, alpha=1.5)
        mb = lk.stable_mb(spec, 12.0, tol=1e-11).value
        for n in (1, 2, 3):
            s = lk.stable_series(spec, 12.0, n_terms=n)
            assert abs(mb - s.value) <= 2.0 * s.est_error

    def test_optimal_truncation_stops_before_growth(self):
        spec = lk.KernelSpec(d=2, alpha=1.9)
        approx = lk.stable_series(spec, 2.0)
        vals = [t.coefficient * approx.diagnostics["r_scaled"] ** -t.exponent
                for t in approx.diagnostics["terms"] if not t.vanished]
        mags = [abs(v) for v in vals]
        assert all(b < a for a, b in zip(mags, mags[1:]))

    def test_divergence_flag(self):
        spec = lk.KernelSpec(d=2, alpha=1.9)
        approx = lk.stable_series(spec, 1.1, n_terms=12)
        assert approx.diagnostics["divergence_warning"]


class TestLeadingTerm:
    def test_beta_zero_sign_and_value(self):
        for d, a in [(2, 0.7), (2, 1.5), (3, 1.2)]:
            lt = lk.leading_term(lk.KernelSpec(d=d, alpha=a))
            assert lt.exponent == pytest.approx(d + a)
            expected = (-math.gamma(0.5 * (d + a)) * 2.0 ** a
                        / (math.pi ** (0.5 * d) * math.gamma(-0.5 * a)))
            assert lt.coefficient == pytest.approx(expected, rel=1e-12)
            assert lt.coefficient > 0

    def test_parity_of_decay_order(self):
        assert lk.leading_term(
            lk.KernelSpec(d=2, alpha=1.5, beta=1.0)).exponent == 3.0
        assert lk.leading_term(
            lk.KernelSpec(d=2, alpha=1.5, beta=2.0)).exponent == 5.5


class TestSmallRSeries:
    def test_gaussian_identity_spot(self):
        spec = lk.KernelSpec(d=2, alpha=2.0)
        got = lk.small_r_series(spec, 1.0).value
        assert got == pytest.approx(math.exp(-0.25) / (4 * math.pi), rel=1e-14)

    def test_gaussian_identity_full_range(self):
        # exact (factored) summation stays at the closed form out to the
        # far tail, r in [0, 20]
        for d in (2, 3):
            spec = lk.KernelSpec(d=d, alpha=2.0)
            for r in np.linspace(0.0, 20.0, 11):
                got = lk.small_r_series(spec, float(r)).value
                ref = lk.gaussian_kernel(d, 1.0, float(r))
                assert got == pytest.approx(ref, rel=1e-8)

    def test_origin_equals_origin_formula(self):
        for spec in (lk.KernelSpec(d=2, alpha=1.5),
                     lk.KernelSpec(d=3, alpha=1.2, beta=0.7)):
            assert lk.small_r_series(spec, 0.0).value == pytest.approx(
                lk.kernel_at_origin(spec), rel=1e-12)

    def test_poisson_agreement(self):
        spec = lk.KernelSpec(d=2, alpha=1.0)
        got = lk.small_r_series(spec, 0.5).value
        assert got == pytest.approx(lk.poisson_kernel(2, 1.0, 0.5), rel=1e-8)

    def test_domain_guards(self):
        with pytest.raises(lk.DomainError):
            lk.small_r_series(lk.KernelSpec(d=2, alpha=0.8), 0.1)
        with pytest.raises(lk.DomainError):
            lk.small_r_series(lk.KernelSpec(d=2, alpha=1.0), 0.99)
        # the terms overflow a float before the series converges
        with pytest.raises(lk.DomainError):
            lk.small_r_series(lk.KernelSpec(d=2, alpha=1.5), 6.0)
        # negative, NaN and infinite r are rejected, not folded to |r|
        for spec in (lk.KernelSpec(d=2, alpha=1.5),
                     lk.KernelSpec(d=3, alpha=2.0, beta=0.7)):
            for r in (-1.0, math.nan, math.inf):
                with pytest.raises(lk.DomainError):
                    lk.small_r_series(spec, r)
        for spec in (lk.KernelSpec(d=2, alpha=1.5),
                     lk.KernelSpec(d=2, alpha=1.0),
                     lk.KernelSpec(d=2, alpha=2.0, beta=1.0)):
            for r in (-1.0, -0.1, math.nan):
                with pytest.raises(lk.DomainError):
                    lk.evaluate(spec, r)
        assert lk.evaluate(lk.KernelSpec(d=2, alpha=1.5), 0.0).value == \
            lk.kernel_at_origin(lk.KernelSpec(d=2, alpha=1.5))
        # r = inf is rejected by the contour and oracle routes, which
        # would otherwise run into NaN intermediates
        spec = lk.KernelSpec(d=2, alpha=1.5)
        for r in (math.inf, np.array([1.0, math.inf])):
            with pytest.raises(lk.DomainError):
                lk.stable_mb(spec, r)
        for method in ("auto", "mb"):
            with pytest.raises(lk.DomainError):
                lk.evaluate(spec, math.inf, method=method)
        with pytest.raises(lk.DomainError):
            lk.stable_oracle(spec, math.inf)
        # the residue series keeps its exact limit
        assert lk.stable_series(spec, math.inf).value == 0.0

    def test_beta_positive_vs_oracle(self):
        spec = lk.KernelSpec(d=2, alpha=1.5, beta=0.7)
        for r in (0.1, 0.4):
            got = lk.small_r_series(spec, r).value
            ref = lk.stable_oracle(spec, r).value
            assert got == pytest.approx(ref, rel=1e-9)

    def test_alpha2_beta_positive_vs_oracle(self):
        spec = lk.KernelSpec(d=2, alpha=2.0, beta=1.0)
        got = lk.small_r_series(spec, 1.5).value
        ref = lk.stable_oracle(spec, 1.5).value
        assert got == pytest.approx(ref, rel=1e-9)


class TestEvaluateRouting:
    def test_auto_routes(self):
        assert lk.evaluate(lk.KernelSpec(d=2, alpha=2.0), 1.0).method == "closed_form"
        assert lk.evaluate(lk.KernelSpec(d=2, alpha=1.0), 1.0).method == "closed_form"
        assert lk.evaluate(lk.KernelSpec(d=2, alpha=1.5), 0.2).method == "small_r_series"
        assert lk.evaluate(lk.KernelSpec(d=2, alpha=0.7), 0.2).method == "oracle"
        assert lk.evaluate(lk.KernelSpec(d=2, alpha=1.5), 3.0).method == "mb_contour"
        assert lk.evaluate(lk.KernelSpec(d=2, alpha=1.5), 0.0).method == "closed_form"

    def test_closed_method_requires_closed_form(self):
        with pytest.raises(lk.DomainError):
            lk.evaluate(lk.KernelSpec(d=2, alpha=1.5), 1.0, method="closed")

    def test_routes_agree_with_oracle(self):
        spec = lk.KernelSpec(d=2, alpha=1.3, beta=0.0, t=2.0)
        for r in (0.05, 0.3, 1.0, 4.0):
            v = lk.evaluate(spec, r).value
            o = lk.stable_oracle(spec, r).value
            assert v == pytest.approx(o, rel=1e-7)


class TestEnvelopes:
    def test_cor32_ratio_bounded_and_positive(self):
        spec = lk.KernelSpec(d=2, alpha=1.0)
        grid = np.concatenate([[0.0], np.geomspace(0.01, 1e3, 30)])
        out = lk.envelope_ratio(spec, grid)
        assert out["positive"]
        assert 0 < out["min_ratio"] <= out["max_ratio"] < math.inf
        # tail ratio tends to the leading coefficient of the Poisson tail
        lt = lk.leading_term(spec)
        far = lk.envelope_ratio(spec, np.array([1e3]))
        assert far["max_ratio"] == pytest.approx(lt.coefficient, rel=0.01)

    def test_envelope_selection_by_parity(self):
        from levykernel.stable_kernel import _fractional_envelope
        r = np.array([100.0])
        e0 = _fractional_envelope(lk.KernelSpec(d=2, alpha=1.5, beta=0.0, t=1.0), r)
        assert e0[0] == pytest.approx((1.0 + 100.0) ** -3.5, rel=1e-12)
        e1 = _fractional_envelope(lk.KernelSpec(d=2, alpha=1.5, beta=1.0, t=1.0), r)
        assert e1[0] == pytest.approx(100.0 ** -3.0, rel=1e-12)
        e2 = _fractional_envelope(lk.KernelSpec(d=2, alpha=1.5, beta=2.0, t=2.0), r)
        assert e2[0] == pytest.approx(2.0 * 100.0 ** -5.5, rel=1e-12)

    def test_sum_symbol_t_one_boundary(self):
        # at t = 1 both branch envelopes coincide
        grid = np.geomspace(0.1, 20.0, 6)
        out = lk.sum_symbol_envelope_check(2, 0.5, 1.5, 1.0, grid)
        assert out["holds"]
        assert out["max_ratio"] < math.inf

    def test_sum_symbol_envelope_branches(self):
        r = 3.0
        # small time follows the upper exponent...
        got = lk.sum_symbol_envelope(2, 0.5, 1.5, 0.25, r)
        expected = 0.25 ** (-2.0 / 1.5) * (1.0 + 0.25 ** (-1.0 / 1.5) * r) ** -2.5
        assert got == pytest.approx(expected, rel=1e-14)
        # ...large time the lower one; spatial decay is d + a either way
        got = lk.sum_symbol_envelope(2, 0.5, 1.5, 4.0, r)
        expected = 4.0 ** (-2.0 / 0.5) * (1.0 + 4.0 ** (-1.0 / 0.5) * r) ** -2.5
        assert got == pytest.approx(expected, rel=1e-14)


def test_normalization_of_contour_route():
    # omega int_0^inf K(r) r^(d-1) dr = 1 with K from the contour/series
    # evaluators (small-r expansion below 1/2, contour above, analytic
    # series tail beyond the grid)
    spec = lk.KernelSpec(d=2, alpha=1.5)
    omega = 2.0 * math.pi
    x_gl, w_gl = np.polynomial.legendre.leggauss(32)
    total = 0.0
    for a, b in [(0.0, 0.5), (0.5, 2.0), (2.0, 8.0), (8.0, 40.0)]:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for xi, wi in zip(x_gl, w_gl):
            r = mid + half * xi
            v = lk.evaluate(spec, float(r), tol=1e-10).value
            total += wi * half * omega * v * r
    for term in lk.stable_series(spec, 40.0).diagnostics["terms"]:
        if term.vanished:
            continue
        na = term.n * spec.alpha
        total += omega * term.coefficient * 40.0 ** (-na) / na
    assert abs(total - 1.0) < 1e-5
