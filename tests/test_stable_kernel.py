import functools
import math
import sys
import threading
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import levykernel as lk

from _props import row_block_mismatches, scaling_exactness_err


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
            lk.stable_mb(lk.KernelSpec(d=2, alpha=1.5), 1.0, abscissa=5.0)

    @pytest.mark.parametrize("alpha", [0.01, 0.02])
    def test_overflowing_gamma_ratio_is_a_domain_error(self, alpha):
        # at d = 10, Gamma(d/alpha) > 1e308: |G(c)| overflows, and the
        # contour raises a typed error and warns nothing.  The kernel
        # itself is finite (1.4425e-4 at alpha = 0.01), and evaluate takes
        # the convergent series, whose gate reads the origin value in log
        # form; it raised DomainError while the gate read it as a float
        spec = lk.KernelSpec(d=10, alpha=alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(lk.DomainError):
                lk.stable_mb(spec, 1.0)
            got = lk.evaluate(spec, 1.0)
        assert got.method == "residue_series"
        ref = _left_series_mp(10, alpha, 0.0, 1.0, 1.0, dps=40)
        assert abs(got.value - ref) <= got.est_error <= 1e-9 * abs(ref)

    @pytest.mark.parametrize("method", ["auto", "mb", "series"])
    @pytest.mark.parametrize("r", [0.0, 0.5, 5.0])
    def test_overflowing_time_power_is_typed(self, method, r):
        # t^(-(d+beta)/alpha) = 1e600 at t = 1e-30, alpha = 0.1: past the
        # float range, so every route raises a LevyKernelError
        with pytest.raises(lk.LevyKernelError):
            lk.evaluate(lk.KernelSpec(d=2, alpha=0.1, t=1e-30), r,
                        method=method)

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
            assert b.value == p.value
            assert b.est_error == p.est_error
            for key in ("nodes_used", "truncation_height"):
                assert b.diagnostics[key] == p.diagnostics[key]

    def test_grid_matches_pointwise_across_row_blocks(self):
        # 1500 points span two row blocks of the phase sums; the points on
        # both sides of each block edge, and a sample of the rest, must
        # still equal scalar calls bit for bit
        bad, edges = row_block_mismatches(
            lambda r: lk.stable_mb(self.SPECS[0], r),
            np.geomspace(0.05, 30.0, 1500))
        assert edges and not bad

    @pytest.mark.parametrize("spec", SPECS[:3], ids=repr)
    def test_grid_exponentiates_per_node_not_per_point(self, spec, monkeypatch):
        # a timing-free guard on the engine's work: G is exponentiated once
        # per node and each r takes only ~2 sqrt(N) phases per level in the
        # node split of ``mellin._phase_table``, far fewer complex exps than
        # the nodes all its points use
        real_exp = np.exp
        count = [0]

        def counting(x, *args, **kwargs):
            out = real_exp(x, *args, **kwargs)
            if np.iscomplexobj(out):
                count[0] += np.size(out)
            return out

        monkeypatch.setattr(np, "exp", counting)
        batch = lk.stable_mb(spec, np.geomspace(0.05, 30.0, 400))
        nodes = sum(b.diagnostics["nodes_used"] for b in batch)
        assert count[0] <= 0.25 * nodes

    @pytest.mark.parametrize("spec,grid,moved", [
        (lk.KernelSpec(d=3, alpha=1.2, beta=0.7, t=0.8),
         np.geomspace(0.05, 30.0, 400), 3.2),
        # the alpha < 1 near field, where evaluate keeps the line
        (lk.KernelSpec(d=10, alpha=0.9, beta=1.3, t=1.7),
         np.geomspace(0.01, 0.8, 200), 7.0)], ids=["3-1.2-0.7", "10-0.9-1.3"])
    def test_grid_matches_pointwise_cold_and_warm(self, spec, grid, moved):
        # the line store holds G's samples: a grid on a cold store, scalar
        # calls that grow it in the reverse r order, and the grid again on
        # the warm store all return the same bits, est_error and its
        # rounding floor included, on the default line (the strip
        # midpoint) and on a moved one
        lo, hi = lk.admissible_strip(spec.d, spec.beta)
        for c in (None, moved):
            lk.stable_kernel._stable_line.cache_clear()
            cold = lk.stable_mb(spec, grid, abscissa=c)
            lk.stable_kernel._stable_line.cache_clear()
            scalar = [lk.stable_mb(spec, float(r), abscissa=c)
                      for r in grid[::-1]][::-1]
            warm = lk.stable_mb(spec, grid, abscissa=c)
            assert cold[0].diagnostics["abscissa"] == (
                0.5 * (lo + hi) if c is None else c)
            for runs in zip(cold, scalar, warm):
                assert len({(b.value, b.est_error, b.diagnostics["nodes_used"])
                            for b in runs}) == 1

    def test_line_store_is_bounded(self):
        kept = lk.stable_kernel._LINES_KEPT
        lk.stable_kernel._stable_line.cache_clear()
        for alpha in np.linspace(1.1, 1.9, kept + 5):
            lk.stable_mb(lk.KernelSpec(d=2, alpha=float(alpha)), 2.0)
        info = lk.stable_kernel._stable_line.cache_info()
        assert info.misses == kept + 5
        assert info.currsize <= info.maxsize == kept

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


class TestAliasingGuard:
    # the trapezoid estimate of step h cannot resolve e^(i v ln r') once
    # h |ln r'| >= pi; two aliased levels may agree on a wrong value, as
    # 2/1.5/0.7 at r = 1e30 did (h |ln r'| = 10.3): 4.19e-29 with
    # est_error 1.2e-37 where the kernel is -1.16e-82.  A row stops at a
    # level only once the level before it resolves its phase, so each
    # value's est_error covers its error, or the line raises
    POINTS = [((2, 1.5, 0.7), 1e30), ((2, 0.7, 0.0), 1e30),
              ((3, 1.2, 0.0), 1e-250), ((3, 1.2, 0.0), 1e-300),
              ((2, 1.5, 0.7), 1e-300)]

    @staticmethod
    def _reference(d, alpha, beta, r):
        """The kernel at t = 1: a 40-digit mpmath sum of the large-r
        series at alpha < 1, of the small-r one at small r, else the
        converged float series."""
        if alpha < 1.0:
            return _left_series_mp(d, alpha, beta, 1.0, r, dps=40)
        if r < 1.0:
            return _right_series_mp(d, alpha, beta, r, dps=40)
        series = lk.stable_series(lk.KernelSpec(d, alpha, beta), r)
        assert series.diagnostics["converged"]
        return series.value

    @pytest.mark.parametrize("dab,r", POINTS, ids=repr)
    def test_value_is_bounded_or_raises(self, dab, r):
        spec = lk.KernelSpec(*dab)
        try:
            one = lk.stable_mb(spec, r)
        except lk.NonConvergent as exc:
            with pytest.raises(lk.NonConvergent) as row:
                lk.stable_mb(spec, np.array([r]))
            assert str(row.value) == str(exc)
            return
        (row,) = lk.stable_mb(spec, np.array([r]))
        assert (row.value, row.est_error, row.diagnostics) == (
            one.value, one.est_error, one.diagnostics)
        ref = self._reference(*dab, r)
        assert abs(one.value - ref) <= one.est_error + 1e-15 * abs(ref)


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
        assert not approx.diagnostics["converged"]

    def test_early_stop_only_without_n_terms(self):
        # at r = 1e6 the third kept term is below 2^-53 of the sum: the
        # series stops there, converged; a term count is kept as asked
        spec = lk.KernelSpec(d=2, alpha=1.5)
        auto = lk.stable_series(spec, 1e6)
        assert auto.diagnostics["converged"]
        assert auto.diagnostics["terms_used"] == 3
        for k in (1, 3, 12, 30):
            fixed = lk.stable_series(spec, 1e6, n_terms=k)
            kept = [t for t in fixed.diagnostics["terms"] if not t.vanished]
            assert len(kept) == fixed.diagnostics["terms_used"] == k
            assert fixed.diagnostics["converged"] == (k >= 3)

    def test_overflowing_coefficient_is_a_domain_error(self):
        # Gamma((d + beta + n alpha)/2) leaves the float range at n = 1
        # here; it was a raw OverflowError
        with pytest.raises(lk.DomainError, match="n = 1 overflows"):
            lk.stable_series(lk.KernelSpec(d=2, alpha=1.5, beta=340.0), 50.0)

    def test_far_field_value_within_estimate(self):
        # evaluate routes r' = 1e6 to the converged series: the contour
        # returned -1.712e-22 here, its sign flipped by cancellation
        res = lk.evaluate(lk.KernelSpec(d=2, alpha=1.5), 1e6)
        ref = 1.711671304067496e-22  # 40-digit mpmath, the point-mix pool's
        assert res.method == "residue_series"
        assert res.diagnostics["converged"]
        assert abs(res.value - ref) <= 1e-13 * ref
        assert abs(res.value - ref) <= res.est_error
        assert res.est_error <= 1e-9 * ref


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


# d, alpha, beta
_RESIDUE_SPECS = [(2, 1.5, 0.0), (3, 1.2, 0.7), (2, 1.01, 0.3), (5, 1.9, 2.0),
                  (10, 1.3, 1.0), (3, 0.5, 0.0), (2, 0.1, 0.0), (10, 1.99, 2.0)]


class TestResidueCoefficients:
    # each pole is (-1)^n/n! Gamma(up)/Gamma(down) by math.gamma at real
    # arguments; against 40-digit mpmath at the same float arguments
    EPS = 2.0 ** -52

    @pytest.mark.parametrize("d,alpha,beta", _RESIDUE_SPECS)
    def test_within_8_eps_of_mpmath(self, d, alpha, beta):
        with mp.workdps(40):
            for term in lk.stable_kernel._residues(d, alpha, beta, "left", 41):
                n = term.n
                if term.vanished:
                    continue
                up, down = 0.5 * (d + beta + n * alpha), -(n * alpha + beta) / 2.0
                ref = ((-1) ** n / mp.factorial(n) * mp.gamma(up) / mp.gamma(down)
                       * mp.mpf(2) ** (beta + n * alpha) * mp.pi ** (-mp.mpf(d) / 2))
                assert abs(term.coefficient - ref) <= 8 * self.EPS * abs(ref), n
            right = lk.stable_kernel._residues(d, alpha, beta, "right", 60)
            for m in range(60):
                up, down = (d + beta + 2 * m) / alpha, 0.5 * d + m
                if mp.gamma(up) > sys.float_info.max:
                    # Gamma(up) is the first factor past the float range
                    with pytest.raises(OverflowError):
                        next(right)
                    break
                term = next(right)
                ref = (-1) ** m / mp.factorial(m) * mp.gamma(up) / mp.gamma(down)
                assert term.n == m and not term.vanished
                assert abs(term.coefficient - ref) <= 8 * self.EPS * abs(ref), m

    @pytest.mark.parametrize("d,alpha,beta", _RESIDUE_SPECS)
    def test_vanished_where_half_order_is_an_integer(self, d, alpha, beta):
        # a left pole drops out exactly where (n alpha + beta)/2 is a
        # nonnegative integer: the zeros of 1/Gamma(-(n alpha + beta)/2)
        a, b = Fraction(repr(alpha)), Fraction(repr(beta))
        for term in lk.stable_kernel._residues(d, alpha, beta, "left", 41):
            half = (term.n * a + b) / 2
            assert term.vanished == (half.denominator == 1), term.n
            assert term.vanished == (term.coefficient == 0.0)


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
        # both read the m = 0 right residue, so they agree bit for bit
        for d, alpha, beta in ((2, 1.5, 0.0), (3, 1.2, 0.7), (2, 1.01, 0.3),
                               (5, 1.9, 2.0), (10, 1.3, 1.0)):
            for t in (1.0, 0.7):
                spec = lk.KernelSpec(d=d, alpha=alpha, beta=beta, t=t)
                assert (lk.small_r_series(spec, 0.0).value
                        == lk.kernel_at_origin(spec))

    @pytest.mark.parametrize("d,alpha,beta,t", [
        spec + (t,) for spec in _RESIDUE_SPECS
        for t in (1.0, 0.7, 1e-10, 1e-3, 1e3)])
    def test_origin_error_within_closed_form_estimate(self, d, alpha, beta, t):
        # evaluate answers r = 0 with
        # eps (12 + up (|ln up| + 1/up + |ln t|)) |value|, up = (d+beta)/alpha:
        # 12 eps of rounding, the rounding of up carried by Gamma(up),
        # up |psi(up)| <= up |ln up| + 1, and by t^(-up), up |ln t|.  That
        # bounds the error against the exact origin value, 3.2e-15 relative
        # at alpha = 0.1 (up = 20), where 1e-15 |value| did not, and 130 eps
        # at t = 1e-10 there, where the estimate without t's term was 73 eps
        res = lk.evaluate(lk.KernelSpec(d=d, alpha=alpha, beta=beta, t=t), 0.0)
        up = (d + beta) / alpha
        assert res.est_error == abs(res.value) * (2.0 ** -52 * (
            12.0 + up * (abs(math.log(up)) + 1.0 / up + abs(math.log(t)))))
        with mp.workdps(40):
            p, q = mp.mpf(d) / 2, (d + mp.mpf(beta)) / alpha
            ref = (2 * mp.pi ** p / mp.gamma(p) / (2 * mp.pi) ** d
                   * mp.gamma(q) / alpha * mp.mpf(t) ** -q)
        assert abs(res.value - ref) <= res.est_error

    def test_poisson_agreement(self):
        spec = lk.KernelSpec(d=2, alpha=1.0)
        got = lk.small_r_series(spec, 0.5).value
        assert got == pytest.approx(lk.poisson_kernel(2, 1.0, 0.5), rel=1e-8)

    @pytest.mark.parametrize("r", [300.0, 1e4])
    @pytest.mark.parametrize("route", [
        lk.small_r_series, functools.partial(lk.evaluate, method="small-r")],
        ids=["small_r_series", "evaluate"])
    def test_infinite_sum_is_a_domain_error(self, route, r):
        # the terms reach +-inf before they fall below tol: -inf at
        # r = 300, +inf at 1e4 were returned as values
        with pytest.raises(lk.DomainError, match="overflows"):
            route(lk.KernelSpec(d=2, alpha=1.1, beta=2.0), r)

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
        # the oracle has no value at r = 0 (the origin formula covers it)
        with pytest.raises(lk.DomainError):
            lk.evaluate(spec, 0.0, method="oracle")
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

    @pytest.mark.parametrize("d,beta,r", [(5, 2.0, 3.0), (5, 2.0, 6.0),
                                          (2, 2.0, 3.0), (3, 0.5, 6.0),
                                          (10, 3.3, 1.0)])
    def test_alpha2_estimate_bounds_seeded_times(self, d, beta, r):
        # the factored sum's est_error carries the rounding of
        # x = (t^(-1/2) r / 2)^2 through e^-x 1F1(x), and that of the
        # lgamma front factor and of t's power; 1e-15 |value| did not,
        # missing by up to 5.5e-15 relative at d = 5, beta = 2
        rng = np.random.default_rng(20261020 + d)
        with mp.workdps(40):
            for s in [1.0, *rng.uniform(0.5, 2.0, 19)]:
                t, rs = float(s) ** 2, float(s) * r
                got = lk.small_r_series(lk.KernelSpec(d, 2.0, beta, t), rs)
                half_d, half_b = mp.mpf(d) / 2, mp.mpf(beta) / 2
                x = mp.mpf(rs) ** 2 / (4 * mp.mpf(t))
                ref = (mp.mpf(t) ** -(half_d + half_b)
                       * mp.mpf(2) ** -d * mp.pi ** -half_d
                       * mp.gamma(half_d + half_b) / mp.gamma(half_d)
                       * mp.exp(-x) * mp.hyp1f1(-half_b, half_d, x))
                assert abs(got.value - ref) <= got.est_error
                assert got.est_error <= 1e-13 * abs(ref)

    def test_alpha2_factored_sum_fails_honestly(self):
        # 1F1(-1/2; 3/2; (r/2)^2) settles within its 600 terms up to
        # r = 40; at r = 50 the cut sum returned -3.00e-9 against -1.63e-8
        spec = lk.KernelSpec(d=3, alpha=2.0, beta=1.0)
        got = lk.small_r_series(spec, 40.0).value
        ref = lk.stable_oracle(spec, 40.0).value
        assert abs(got - ref) <= 1e-13 * abs(ref)
        for r in (45.0, 50.0):
            with pytest.raises(lk.NonConvergent, match="oracle"):
                lk.small_r_series(spec, r)
        # e^-x underflows to 0 and 1F1 overflows: the sum was NaN
        with pytest.raises(lk.DomainError, match='method="oracle"'):
            lk.small_r_series(lk.KernelSpec(d=2, alpha=2.0, beta=0.5), 300.0)


class TestEvaluateRouting:
    def test_auto_routes(self):
        assert lk.evaluate(lk.KernelSpec(d=2, alpha=2.0), 1.0).method == "closed_form"
        assert lk.evaluate(lk.KernelSpec(d=2, alpha=1.0), 1.0).method == "closed_form"
        assert lk.evaluate(lk.KernelSpec(d=2, alpha=1.5), 0.2).method == "small_r_series"
        # at alpha < 1, r' < 1/2 the contour line meets tol where the
        # large-r series cannot
        assert lk.evaluate(lk.KernelSpec(d=2, alpha=0.7), 0.2).method == "mb_contour"
        # at alpha > 1 the small-r series converges for every r': at r = 3
        # it meets tol past the large-r series; at r = 5 its terms cancel
        # too much and the contour answers
        assert lk.evaluate(lk.KernelSpec(d=2, alpha=1.5), 3.0).method == "small_r_series"
        assert lk.evaluate(lk.KernelSpec(d=2, alpha=1.5), 5.0).method == "mb_contour"
        assert lk.evaluate(lk.KernelSpec(d=2, alpha=1.5), 30.0).method == "residue_series"
        assert lk.evaluate(lk.KernelSpec(d=2, alpha=1.5), 0.0).method == "closed_form"

    @pytest.mark.parametrize("miss", ["tol", "NonConvergent", "NoDecay"])
    def test_oracle_answers_a_contour_miss(self, monkeypatch, miss):
        # at alpha < 1, r' < 1/2 the oracle still answers where the line
        # misses tol or fails
        spec, r = lk.KernelSpec(d=2, alpha=0.7), 0.2
        line = lk.stable_mb(spec, r)

        def missing(*args, **kwargs):
            if miss == "tol":
                return lk.Approximation(line.value, 1e-8 * abs(line.value),
                                        "mb_contour", line.diagnostics)
            raise getattr(lk, miss)("the line failed")

        monkeypatch.setattr(lk.stable_kernel, "stable_mb", missing)
        got = lk.evaluate(spec, r)
        assert got.method == "oracle"
        assert got.value == pytest.approx(line.value, rel=1e-9)

    # the alpha < 1, r' < 1/2 points of the benchmark's point mix that the
    # left series' gate turns down, as (d, alpha, beta, r, K(1, r)), K from
    # the pool's multi-precision Mellin-Barnes references; each went to the
    # oracle
    NEAR_FIELD = [
        (3, 0.5, 2.0, 0.02, 16331.685693599771),
        (3, 0.5, 2.0, 0.1, 47.240256313850125),
        (2, 0.5, 0.0, 0.02, 1.77351075866701),
        (2, 0.7, 2.0, 0.02, 16.519173779410234),
        (2, 0.7, 2.0, 0.1, 10.240141543900261),
        (2, 0.7, 2.0, 0.3, 0.3465706921815937),
        (3, 0.7, 2.0, 0.02, 66.47887947308747),
        (3, 0.7, 2.0, 0.1, 38.53932030314126),
        (3, 0.7, 2.0, 0.3, 2.1571035288357305),
        (10, 0.9, 1.3, 0.02, 46.14289126607126),
        (10, 0.9, 1.3, 0.1, 39.90720227805651),
        (10, 0.9, 1.3, 0.3, 13.495181172967914),
        (10, 0.9, 1.3, 0.45, 3.871851740976861),
        (3, 0.9, 0.0, 0.02, 0.1561666421414548),
        (3, 0.9, 0.0, 0.1, 0.15115686938124734),
        (3, 0.9, 0.0, 0.3, 0.11792147698744523),
        (3, 0.9, 0.0, 0.45, 0.08780995618536577),
    ]

    @pytest.mark.parametrize("d,alpha,beta,r,ref", NEAR_FIELD,
                             ids=[f"{p[0]}-{p[1]}-{p[2]}-{p[3]}" for p in NEAR_FIELD])
    def test_near_field_line_meets_tol(self, d, alpha, beta, r, ref):
        # at t = 1 and at seeded scales s in (1/2, 2), t = s^alpha, where
        # K(t, s r) = s^-(d+beta) K(1, r): the contour answers within tol,
        # and its est_error, with its rounding floor, bounds the error
        rng = np.random.default_rng(20261020)
        scales = np.concatenate(([1.0], np.exp(rng.uniform(
            math.log(0.5), math.log(2.0), 20))))
        for s in scales.tolist():
            got = lk.evaluate(lk.KernelSpec(d, alpha, beta, s ** alpha), s * r)
            assert got.method == "mb_contour"
            want = s ** -(d + beta) * ref
            err = abs(got.value - want)
            assert err <= 1e-9 * abs(want)
            assert err <= got.est_error + 1e-15 * abs(want)

    def test_closed_method_requires_closed_form(self):
        with pytest.raises(lk.DomainError):
            lk.evaluate(lk.KernelSpec(d=2, alpha=1.5), 1.0, method="closed")

    def test_routes_agree_with_oracle(self):
        spec = lk.KernelSpec(d=2, alpha=1.3, beta=0.0, t=2.0)
        for r in (0.05, 0.3, 1.0, 4.0):
            v = lk.evaluate(spec, r).value
            o = lk.stable_oracle(spec, r).value
            assert v == pytest.approx(o, rel=1e-7)

    @pytest.mark.parametrize("d,alpha,r", [(3, 1.2, 1e75), (3, 1.2, 1e80),
                                           (3, 1.2, 1e100), (2, 0.7, 1e150)])
    def test_series_whose_terms_underflow(self, d, alpha, r):
        # |K| ~ |c_1| r^(-d-alpha) is below 1e-300: the series' terms
        # underflow and 2^-53 of its denormal or zero sum is 0, so its stop
        # test read 0 < 0 and evaluate fell to the contour, which returned
        # 7.70e-84 at (3, 1.2, 1e75) with est_error 2.2e-90
        got = lk.evaluate(lk.KernelSpec(d, alpha), r)
        assert got.method == "residue_series"
        assert got.diagnostics["converged"]
        with mp.workdps(30):
            # the leading terms n = 1 .. 4 at t = 1 (n = 0 vanishes at
            # beta = 0); each is below 1e-90 of the one before
            a, r_mp = mp.mpf(alpha), mp.mpf(r)
            k = mp.fsum(
                (-1) ** n / mp.factorial(n) * mp.gamma((d + n * a) / 2)
                * mp.rgamma(-n * a / 2) * 2 ** (n * a) * mp.pi ** (-d / 2)
                * r_mp ** -(d + n * a) for n in range(1, 5))
            assert abs(k) < mp.mpf(10) ** -300
            assert abs(mp.mpf(got.value) - k) <= (mp.mpf(got.est_error)
                                                  + mp.mpf(2) ** -1074)


def _left_series_mp(d, alpha, beta, t, r, dps=50):
    """K(t, r) from the large-r residue series in mpmath, which converges
    at alpha < 1, at the exact float arguments given."""
    with mp.workdps(dps):
        d, alpha, beta, t, r = map(mp.mpf, (d, alpha, beta, t, r))
        rp = r * t ** (-1 / alpha)
        total, peak, n = mp.mpf(0), mp.mpf(0), 0
        while True:
            term = ((-1) ** n / mp.factorial(n) * mp.gamma((d + beta + n * alpha) / 2)
                    * mp.rgamma(-(n * alpha + beta) / 2) * 2 ** (beta + n * alpha)
                    * mp.pi ** (-d / 2) * rp ** (-(d + beta + n * alpha)))
            total += term
            peak = max(peak, abs(term))
            if n > 20 and abs(term) < peak and abs(term) < mp.mpf(10) ** -dps * abs(total):
                return float(t ** (-(d + beta) / alpha) * total)
            n += 1


def _right_series_mp(d, alpha, beta, r, dps=60):
    """K(1, r) from the small-r residue series in mpmath (alpha > 1)."""
    with mp.workdps(dps):
        d, alpha, beta, r = map(mp.mpf, (d, alpha, beta, r))
        x, total, m = (r / 2) ** 2, mp.mpf(0), 0
        while True:
            term = ((-1) ** m / mp.factorial(m) * mp.gamma((d + beta + 2 * m) / alpha)
                    / mp.gamma(d / 2 + m) * x ** m)
            total += term
            if m > 5 and abs(term) < mp.mpf(10) ** -dps * abs(total):
                return float(2 ** (1 - d) * mp.pi ** (-d / 2) / alpha * total)
            m += 1


class TestConvergentSeries:
    # evaluate("auto") draws whose contour or oracle value missed tol with
    # an est_error that did not bound its error: +3.385e173, +7.05e106,
    # +2.0747e5 (est 1.1e3 |K|) and +4.681e33 at alpha = 0.1, +2.580e-11
    # (148 |K| off, est 2.6e-9 |K|) from the oracle at alpha = 0.058, where
    # the gate read the origin value as an overflowing float, and -758.82185
    # (est 7.46e-3, error 9.2e-3) at d = 8, alpha = 0.5, beta = 2.  The
    # references are 90-digit sums of the left series at these floats.
    DRAWS = [
        ((10, 0.1, 2.082, 0.4303), 0.27539, 70690.58147756961037797709),
        ((9, 0.1, 2.763, 1.6529), 1123.43, 6.436632343593687323593394e-37),
        ((3, 0.1, 0.0, 0.7286), 0.026572, 155.5653662708856266225253),
        ((5, 0.1, 2.0, 1.9916), 1230.16, -3.263473700954293634702801e-24),
        ((10, 0.058, 2.0, 3.71), 7.34, -1.746122491673752536435729e-13),
        ((8, 0.5, 2.0, 0.5), 0.4, -758.8126349344255602937591),
    ]

    @pytest.mark.parametrize("args,r,ref", DRAWS,
                             ids=["10-0.1-2.082", "9-0.1-2.763", "3-0.1-0",
                                  "5-0.1-2", "10-0.058-2", "8-0.5-2"])
    def test_frozen_defect_draws(self, args, r, ref):
        got = lk.evaluate(lk.KernelSpec(*args), r)
        assert got.method == "residue_series"
        err = abs(got.value - ref)
        assert err <= 1e-9 * abs(ref)
        assert err <= got.est_error + 1e-15 * abs(ref)
        assert got.est_error <= 1e-9 * abs(got.value)

    def test_contour_estimate_bounds_its_error(self):
        # the midpoint line c = 7.75 at d = 8, alpha = 0.5, beta = 2,
        # r' = 1.6 loses 9.2e-3 of -758.81 to the rounding of its samples;
        # its est_error was 7.46e-3, and the rounding floor now covers it
        (args, r, ref) = self.DRAWS[-1]
        got = lk.stable_mb(lk.KernelSpec(*args), r)
        err = abs(got.value - ref)
        assert 9e-3 < err <= got.est_error

    def test_estimate_bounds_seeded_draws(self):
        # the sum runs past its largest term; its est_error is the
        # envelope's geometric tail plus the rounding
        rng = np.random.default_rng(20261020)
        for _ in range(12):
            d = int(rng.integers(2, 11))
            alpha, beta = float(rng.uniform(0.05, 0.95)), float(rng.choice([0.0, 0.7, 2.0]))
            t, r = float(10 ** rng.uniform(-1, 1)), float(10 ** rng.uniform(-1, 2))
            got = lk.stable_series(lk.KernelSpec(d, alpha, beta, t), r)
            if not got.diagnostics["converged"]:
                continue
            ref = _left_series_mp(d, alpha, beta, t, r)
            assert abs(got.value - ref) <= got.est_error + 1e-15 * abs(ref)

    def test_tail_bound_covers_an_accidentally_small_term(self):
        # at alpha = 0.5 + 1e-12 the residue n = 4 sits 2e-12 off a zero of
        # 1/Gamma, just outside POLE_TOL: at r = 1000 its term falls below
        # 2^-53 of the sum, and the sum stops there, 5.3e-8 off.  Its
        # est_error was 2.1e-23 and evaluate returned it; the envelope's
        # tail bound covers the next term, so evaluate moves on
        spec, r = lk.KernelSpec(d=2, alpha=0.500000000001), 1000.0
        ref = _left_series_mp(2, 0.500000000001, 0.0, 1.0, r)
        got = lk.stable_series(spec, r)
        assert got.diagnostics["converged"]
        assert abs(got.value - ref) > 1e-8 * abs(ref)
        assert abs(got.value - ref) <= got.est_error
        auto = lk.evaluate(spec, r)
        assert auto.method == "mb_contour"
        assert abs(auto.value - ref) <= min(1e-9 * abs(ref), auto.est_error)

    def test_sum_runs_on_until_the_envelope_halves(self):
        # at alpha = 0.75 + 1e-12, r = 0.5 a term falls below 2^-53 of the
        # sum at n = 48, where the envelope still shrinks by less than half
        # per pole; the sum runs on to where it does, and meets tol
        spec, r = lk.KernelSpec(d=2, alpha=0.750000000001), 0.5
        ref = _left_series_mp(2, 0.750000000001, 0.0, 1.0, r)
        got = lk.stable_series(spec, r)
        assert got.diagnostics["converged"]
        assert got.diagnostics["terms_used"] > 48
        assert got.est_error <= 1e-9 * abs(got.value)
        assert abs(got.value - ref) <= got.est_error + 1e-15 * abs(ref)

    def test_every_pole_read_is_listed(self):
        # normalization_check integrates the listed terms; at alpha = 0.5
        # every 4th residue (beta = 0) vanishes and is listed too; at
        # r = 0.1 the sum reads past the 41 poles of the asymptotic series
        got = lk.stable_series(lk.KernelSpec(2, 0.5), 0.1)
        poles = [term.n for term in got.diagnostics["terms"]]
        assert got.diagnostics["converged"]
        assert poles == list(range(len(poles))) and len(poles) > 41
        assert [term.vanished for term in got.diagnostics["terms"]][::4] == \
            [True] * len(poles[::4])

    @pytest.mark.parametrize("d,alpha,beta", [(2, 0.5, 0.0), (3, 0.3, 0.7),
                                              (10, 0.9, 2.0), (5, 0.1, 4.3)])
    def test_log_form_matches_float_form(self, d, alpha, beta):
        # a term whose coefficient or power leaves the float range is
        # formed as sign * exp(ln|c_n| - e_n ln r'); where both forms
        # exist they agree within the log form's rounding
        for n in range(171):
            term, c, sign, ln_c, rounding = \
                lk.stable_kernel._left_pole(d, alpha, beta, n)
            exponent = term.exponent
            assert exponent == d + beta + n * alpha
            if term.vanished:
                assert sign == 0.0 and term.coefficient == 0.0
                continue
            log_form = lk.stable_kernel._log_term(n, sign, ln_c, exponent, 0.0)
            if c:
                assert term.coefficient == c
                assert abs(log_form - c) <= 2.0 ** -52 * (rounding + 8.0) * abs(c)
            else:
                assert term.coefficient == log_form

    @pytest.mark.parametrize("n_terms", [None, 300, 400])
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 0.9, 0.99])
    def test_long_sums_raise_only_typed_errors(self, alpha, n_terms):
        # at r' = 0.02 the terms pass 1e308 before they fall: the power
        # r'^(-e_n) raised an untyped OverflowError once read past n = 40
        spec = lk.KernelSpec(d=3, alpha=alpha, beta=0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = lk.stable_series(spec, 0.02, n_terms=n_terms)
            except lk.DomainError as exc:
                assert "overflows" in str(exc)
                return
        assert math.isfinite(got.value) and got.est_error >= 0.0
        if n_terms is not None:
            assert got.diagnostics["terms_used"] == n_terms

    def test_long_sums_keep_the_shared_table_bounded(self, monkeypatch):
        # a sum asked for more poles than the convergent sum may read
        # makes the poles past the table for itself: the table of a unit
        # spec never holds more than _CONVERGENT_POLES of them
        sk = lk.stable_kernel
        monkeypatch.setattr(sk, "_CONVERGENT_POLES", 60)
        sk._left_poles.cache_clear()
        spec = lk.KernelSpec(d=3, alpha=0.5, beta=0.7)
        got = lk.stable_series(spec, 5.0, n_terms=150)
        assert got.diagnostics["terms_used"] == 150
        assert [term.n for term in got.diagnostics["terms"]] == \
            list(range(len(got.diagnostics["terms"])))
        assert len(sk._left_poles(3, 0.5, 0.7)[0]) == 60
        sk._left_poles.cache_clear()
        fresh = [sk._left_pole(3, 0.5, 0.7, n)[0]
                 for n in range(len(got.diagnostics["terms"]))]
        assert got.diagnostics["terms"] == fresh

    def test_concurrent_growth(self):
        # the pole table takes no lock: threads that race on a cold table
        # may build a block twice, with the same bits; each sums from whole
        # tables, and so does every later call, which reads deeper poles
        specs = [lk.KernelSpec(d, alpha, beta) for d in (2, 3)
                 for alpha in (0.3, 0.6) for beta in (0.0, 0.7)]

        def run():
            return ([lk.stable_series(spec, r) for spec in specs for r in (0.05, 0.2)]
                    + [lk.stable_series(spec, 5.0, n_terms=300) for spec in specs])

        def key(approx):
            return approx.value, approx.est_error, approx.diagnostics["terms"]

        clear = lk.stable_kernel._left_poles.cache_clear
        clear()
        ref = [key(a) for a in run()]
        interval = sys.getswitchinterval()
        for _ in range(10):
            clear()
            start, got = threading.Barrier(4), {}

            def work(i):
                start.wait()
                got[i] = run()

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            for approxes in [*got.values(), run()]:
                assert [key(a) for a in approxes] == ref

    def test_gate_skips_a_hopeless_sum(self, monkeypatch):
        # at d = 3, alpha = 0.9, r = 0.3 the terms' envelope does not fall
        # by half per pole within the poles the sum may read, and at d = 2,
        # alpha = 1.9, r = 40 the small-r terms peak past m = 120: the gate
        # sends both points on without summing, the first to the contour
        def never(*args, **kwargs):
            raise AssertionError("the series was summed")

        spec = lk.KernelSpec(d=3, alpha=0.9)
        monkeypatch.setattr(lk.stable_kernel, "stable_series", never)
        assert lk.evaluate(spec, 0.3).method == "mb_contour"
        monkeypatch.undo()
        spec = lk.KernelSpec(d=2, alpha=1.9)
        monkeypatch.setattr(lk.stable_kernel, "small_r_series", never)
        assert lk.evaluate(spec, 40.0).method in ("residue_series", "mb_contour")

    def test_gate_skips_an_empty_right_table(self):
        # at d = 190, alpha = 1.1 Gamma((d+beta)/alpha) overflows at m = 0,
        # so no small-r term exists; the large-r series does not converge
        # at r = 1, and the gate sends the point on to the contour (it
        # raised IndexError reading the empty table)
        spec = lk.KernelSpec(d=190, alpha=1.1, beta=0.5)
        assert lk.stable_kernel._right_terms(190, 1.1, 0.5) == ()
        assert not lk.stable_kernel._gate(190, 1.1, 0.5, "right", 0.0, 1e-9)
        with pytest.raises(lk.DomainError):
            lk.small_r_series(spec, 1.0)
        got = lk.evaluate(spec, 1.0)
        assert got.method == "mb_contour"
        assert got.value == lk.stable_mb(spec, 1.0).value

    @pytest.mark.parametrize("d,alpha,beta,r", [
        (2, 1.5, 0.0, 3.0), (10, 1.9, 0.0, 0.55), (3, 1.3, 1.3, 2.0),
        (5, 1.5, 1.3, 2.0), (2, 1.99, 0.0, 2.0)])
    def test_right_series_past_half(self, d, alpha, beta, r):
        # at 1 < alpha < 2 the small-r series converges for every r':
        # past r' = 1/2 evaluate takes it where it meets tol
        got = lk.evaluate(lk.KernelSpec(d, alpha, beta), r)
        assert got.method == "small_r_series"
        ref = _right_series_mp(d, alpha, beta, r)
        err = abs(got.value - ref)
        assert err <= 1e-9 * abs(ref)
        assert err <= got.est_error + 1e-15 * abs(ref)


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
