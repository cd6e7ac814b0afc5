import functools
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy import optimize

import levykernel as lk
from levykernel.mellin import (_REFINEMENTS, _ladder, _level_grid, _Line,
                               _plan, _power_line, _refine, _refine_one)

from _props import (_checked_tail, contour_independence_spread,
                    dense_phase_sums, phase_sums, vertical_line_integral)


def _gamma_times_power(r):
    def f(z):
        z = np.asarray(z, dtype=np.complex128)
        return np.exp(lk.log_gamma(z) - z * math.log(r))

    return f


class TestVerticalLineIntegral:
    def test_exponential_at_one(self):
        # (1/2 pi i) int Gamma(z) 1^-z dz = e^-1
        f = _gamma_times_power(1.0)
        res = vertical_line_integral(f, lk.ContourSpec(1.0, 32.0), tol=1e-12)
        assert res.value.real == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_exponential_at_two(self):
        f = _gamma_times_power(2.0)
        res = vertical_line_integral(f, lk.ContourSpec(1.0, 32.0), tol=1e-12)
        assert res.value.real == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_conjugate_symmetry_gives_real_value(self):
        f = _gamma_times_power(1.7)
        res = vertical_line_integral(f, lk.ContourSpec(1.0, 32.0), tol=1e-12)
        assert abs(res.value.imag) <= 1e-10 * abs(res.value)

    def test_no_decay_raises(self):
        f = lambda z: np.ones_like(np.asarray(z, dtype=np.complex128))
        with pytest.raises(lk.NoDecay):
            vertical_line_integral(f, lk.ContourSpec(1.0, 32.0))

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
        # a plan is a whole line: only a kernel derives the height itself
        with pytest.raises(TypeError):
            lk.ContourSpec(1.0)

    def test_invalid_contour_spec(self):
        with pytest.raises(ValueError):
            lk.ContourSpec(1.0, -1.0)
        with pytest.raises(ValueError):
            lk.ContourSpec(1.0, 16.0, nodes=4)


def _engine_rows(log_g, ln_r, shift, plan, tol):
    """``_power_line`` on a fresh store of log_g, whose tail is that of
    exp(log_g) after the decay check, with |log_g| for the sizes of its
    parts: per-row values, tail estimates, discretization estimates and
    node counts."""
    tail = _checked_tail(lambda z: np.exp(log_g(z)), plan)

    def sized(z, sizes=False):
        lg = log_g(z)
        return (lg, np.abs(lg)) if sizes else lg

    return _power_line(_Line(sized, plan, tail), ln_r, shift, tol)


class TestPowerLineIntegral:
    # (1/2 pi i) int Gamma(z) x^-z dz = e^-x, as a batch over x
    X = np.array([0.5, 1.0, 1.3, 2.0, 7.0])

    def test_rows_equal_single_integrals(self):
        plan = lk.ContourSpec(1.0, 32.0, nodes=128)
        rows = _engine_rows(lk.log_gamma, -np.log(self.X), 0.0, plan, 1e-12)
        for x, value, tail, _, used in zip(self.X, *rows):
            one = vertical_line_integral(_gamma_times_power(x), plan,
                                         tol=1e-12)
            assert value.real == pytest.approx(math.exp(-x), rel=1e-11)
            assert 2 + used == one.diagnostics["nodes_used"]
            assert value == pytest.approx(one.value, rel=1e-14)
            assert tail == pytest.approx(one.diagnostics["tail_bound"],
                                         rel=1e-12)

    def test_any_stalled_row_raises(self):
        # Gamma's pole at z = 0 sits 0.01 from the line: six node
        # doublings of the 129-node first level cannot resolve it
        plan = lk.ContourSpec(0.01, 32.0)
        with pytest.raises(lk.NonConvergent, match="after 8193 nodes"):
            _engine_rows(lk.log_gamma, -np.log(self.X), 0.0, plan, 1e-12)

    # (d, alpha, beta) of the stable-sweep benchmark grids
    SWEEP_SPECS = [(2, 0.1, 0.0), (2, 1.5, 0.0), (2, 1.99, 0.7), (2, 0.8, 2.0),
                   (3, 1.2, 0.0), (3, 1.0, 0.7), (3, 0.5, 2.0), (3, 1.5, 2.0),
                   (10, 0.5, 0.0), (10, 1.2, 0.7), (10, 1.99, 0.7),
                   (10, 1.5, 2.0)]

    @staticmethod
    def _stable_log_g(d, alpha, beta):
        def log_g(z):
            z = np.asarray(z, dtype=np.complex128)
            return (lk.log_gamma(z / alpha) + lk.log_gamma(0.5 * (d + beta - z))
                    - lk.log_gamma(0.5 * (z - beta)) + (beta - z) * math.log(2.0))

        return log_g

    @staticmethod
    def _agrees(value, log_g, ln_r, shift, plan, tol):
        def f(z):
            return np.exp(log_g(z) + (z - shift) * ln_r)

        one = vertical_line_integral(f, plan, tol=tol)
        return abs(value - one.value) <= (one.est_error
                                          + 1e-14 * abs(one.value))

    @pytest.mark.parametrize("d,alpha,beta", SWEEP_SPECS)
    def test_kernel_lines_match_direct_integrals(self, d, alpha, beta):
        # each r's phases are summed in blocks; the direct per-node
        # integral of the same integrand is the reference
        log_g = self._stable_log_g(d, alpha, beta)
        plan = _plan(log_g, lk.admissible_strip(d, beta), None, 1e-9)[0]
        r = np.array([0.025, 0.05, 1.0, 60.0])
        values = _engine_rows(log_g, np.log(r), d + beta, plan, 1e-9)[0]
        for x, value in zip(np.log(r), values):
            assert self._agrees(value, log_g, x, d + beta, plan, 1e-9)

    def test_no_symmetry_assumed(self):
        # exp(0.1 i z) breaks f(conj z) = conj f(z): an engine that
        # mirrored the lower half of a node set would be off by O(1)
        def log_g(z):
            return lk.log_gamma(z) + 0.1j * np.asarray(z)

        plan = lk.ContourSpec(1.0, 32.0, nodes=128)
        values = _engine_rows(log_g, -np.log(self.X), 0.0, plan, 1e-12)[0]
        for x, value in zip(self.X, values):
            assert self._agrees(value, log_g, -math.log(x), 0.0, plan, 1e-12)
            assert abs(value.imag) > 1e-3 * abs(value)

    def test_one_row_stall_raises_as_a_grid_row(self):
        # the one-row loop stalls where a grid row does, with its message
        plan = lk.ContourSpec(0.01, 32.0)
        x = -math.log(1.3)
        with pytest.raises(lk.NonConvergent, match="after 8193 nodes") as one:
            _engine_rows(lk.log_gamma, x, 0.0, plan, 1e-12)
        with pytest.raises(lk.NonConvergent) as row:
            _engine_rows(lk.log_gamma, np.array([x]), 0.0, plan, 1e-12)
        assert str(one.value) == str(row.value)

    def test_one_row_equals_a_grid_row(self):
        plan = lk.ContourSpec(1.0, 32.0, nodes=128)
        rows = _engine_rows(lk.log_gamma, -np.log(self.X), 0.0, plan, 1e-12)
        for i, x in enumerate(self.X):
            one = _engine_rows(lk.log_gamma, -math.log(x), 0.0, plan, 1e-12)
            assert list(map(type, one)) == [complex, float, float, int]
            assert one == tuple(col[i] for col in rows)


class TestOneRowUnderflow:
    def test_zero_value_takes_the_grid_row(self, monkeypatch):
        # rho = exp(top + 101 ln r) underflows to 0 at ln r = -8, shift
        # -100: a zero value, whose sign the array loop sets, so the one
        # row takes its bits from a one-element grid
        plan = lk.ContourSpec(1.0, 32.0, nodes=128)
        (value,), *row = _engine_rows(lk.log_gamma, np.array([-8.0]), -100.0,
                                      plan, 1e-12)
        assert value == 0.0
        calls = []
        real = lk.mellin._phase_apply

        def recording(*args):
            calls.append(args[1].size)
            return real(*args)

        monkeypatch.setattr(lk.mellin, "_phase_apply", recording)
        one = _engine_rows(lk.log_gamma, -8.0, -100.0, plan, 1e-12)
        assert calls and set(calls) == {1}
        assert list(map(type, one)) == [complex, float, float, int]
        assert _hex([one[0]]) == _hex([value])
        assert one[1:] == tuple(col[0] for col in row)


def _bits(value, disc, used):
    value = complex(value)
    return value.real.hex(), value.imag.hex(), float(disc).hex(), int(used)


class TestOneRowBookkeeping:
    """``_refine_one`` runs one row on Python numbers, ``_refine`` its
    array loop on numpy arrays: on the same level sums both must give the
    same bits, or the same stall."""

    PLAN = lk.ContourSpec(1.0, 16.0, nodes=32)  # step 0.5 on level 0
    TOL = 1e-9

    @classmethod
    def _draws(cls, n, seed):
        """Level sums (s, a) of n rows that approach a value of any size,
        denormal to huge, with errors shrinking at a random rate per
        level, so rows converge on every level or stall; gross sums up
        to ~1e4 times |S|, so the rounding floor decides some rows.  One
        row in 40 takes its sums from +-0 and +-5e-324, where products
        underflow."""
        rng = np.random.default_rng(seed)
        levels = _REFINEMENTS + 1
        mag = 10.0 ** rng.uniform(-330.0, 300.0, n)
        value = mag * np.exp(2j * np.pi * rng.random(n))
        err = ((mag * 10.0 ** rng.uniform(-12.0, 0.0, n))[:, None]
               * (10.0 ** -rng.uniform(0.5, 4.0, n))[:, None]
               ** np.arange(levels)
               * np.exp(2j * np.pi * rng.random((n, levels))))
        est = value[:, None] + err
        s = np.empty((n, levels), dtype=np.complex128)
        for level in range(levels):
            h = _level_grid(cls.PLAN, level)[1]
            if level:
                s[:, level] = ((est[:, level] - 0.5 * est[:, level - 1])
                               * (2.0 * math.pi) / (0.5 * h))
            else:
                s[:, 0] = est[:, 0] * (2.0 * math.pi) / h
        a = np.abs(s) * 10.0 ** rng.exponential(1.0, (n, levels))
        tiny = rng.random(n) < 1 / 40
        shape = (tiny.sum(), levels)
        for part in (s.real, s.imag):
            part[tiny] = rng.choice([0.0, -0.0, 5e-324, -5e-324], shape)
        a[tiny] = rng.choice([0.0, 1.0], shape)
        return s, a

    def _one_row(self, s, a, rounding=0.0, freq=0.0):
        def sums(level, rows):
            if rows is None:
                return complex(s[level]), float(a[level])
            return s[None, level], a[None, level]

        try:
            return _bits(*_refine_one(sums, self.PLAN, self.TOL, rounding,
                                      freq))
        except lk.NonConvergent as exc:
            return str(exc)

    def _check_loops(self, s, a, w, f):
        """Both loops on the rows (s, a), with rounding floors w and
        frequencies f: the same bits, or the same stall.  Returns the one
        row results and the array loop's node counts."""
        one = [self._one_row(s[i], a[i], float(w[i]), float(f[i]))
               for i in range(len(s))]
        done = np.array([i for i, res in enumerate(one)
                         if not isinstance(res, str)])
        value, disc, used = _refine(
            lambda level, rows: (s[done[rows], level], a[done[rows], level]),
            done.size, self.PLAN, self.TOL, w[done], f[done])
        assert [_bits(*row) for row in zip(value, disc, used)] == [
            one[i] for i in done]
        for i in sorted(set(range(len(one))) - set(done.tolist())):
            with pytest.raises(lk.NonConvergent) as row:
                _refine(lambda level, rows: (s[i, None, level],
                                             a[i, None, level]),
                        1, self.PLAN, self.TOL, 0.0, f[i])
            assert str(row.value) == one[i]
        return one, used

    def test_random_level_sums(self):
        # each row with its own rounding floor, as ``_power_line`` gives
        s, a = self._draws(10_000, 20261020)
        w = 10.0 ** np.random.default_rng(7).uniform(-1.0, 4.0, len(s))
        one, used = self._check_loops(s, a, w, np.zeros(len(s)))
        # converged on every level, stalled, and underflowed to zero
        assert set(used.tolist()) == {(64 << k) + 1 for k in range(1, 7)}
        assert 500 < len(one) - used.size < 2000
        assert sum(res[0].endswith("0x0.0p+0") for res in one
                   if not isinstance(res, str)) > 100

    def test_random_level_sums_behind_the_aliasing_guard(self):
        # phase frequencies 0.1 to ~300 against level 0's step 0.5: a row
        # may stop at level i only once h_(i-1) f < pi, h_(i-1) = 0.5 /
        # 2^(i-1), so the guard holds rows back, and stalls every row
        # with f >= 64 pi, which no level resolves
        s, a = self._draws(4_000, 20261023)
        w = 10.0 ** np.random.default_rng(8).uniform(-1.0, 4.0, len(s))
        f = 10.0 ** np.random.default_rng(9).uniform(-1.0, 2.5, len(s))
        one, used = self._check_loops(s, a, w, f)
        free = [self._one_row(s[i], a[i], float(w[i])) for i in range(len(s))]
        held = [(one[i], free[i]) for i in range(len(s)) if one[i] != free[i]]
        assert len(held) > 500
        # a held row stops later than it would unguarded, or stalls
        for guarded, unguarded in held:
            assert isinstance(guarded, str) or guarded[3] > unguarded[3]
        assert all(isinstance(one[i], str)
                   for i in np.flatnonzero(f >= 64.0 * math.pi))

    def test_underflowed_zero_takes_the_array_sign(self):
        # -5e-324 halved rounds to a zero whose sign numpy's fused complex
        # product and Python's plain one may set differently; the one row
        # returns the array loop's bits
        s = np.full(_REFINEMENTS + 1, complex(-5e-324, -5e-324))
        a = np.ones(_REFINEMENTS + 1)
        value, disc, used = _refine(
            lambda level, rows: (s[None, level], a[None, level]), 1,
            self.PLAN, self.TOL, 0.0, 0.0)
        assert self._one_row(s, a) == _bits(value[0], disc[0], used[0])


def _count_log_gamma(monkeypatch, module):
    """Sizes of the log_gamma calls ``module`` makes, in order."""
    sizes = []
    real = lk.log_gamma

    def counting(z):
        sizes.append(np.size(z))
        return real(z)

    monkeypatch.setattr(f"levykernel.{module}.log_gamma", counting)
    return sizes


_SYMBOL = lk.make_symbol("stable", a=1.2)

# (module, gamma factors per node, scalar contour call)
_KERNEL_CALLS = [
    ("stable_kernel", 3, lambda: lk.stable_mb(
        lk.KernelSpec(d=2, alpha=1.5, beta=0.7), 2.0)),
    ("stable_kernel", 3, lambda: lk.stable_mb(
        lk.KernelSpec(d=3, alpha=0.5, beta=0.0), 2.0)),
    ("stable_kernel", 3, lambda: lk.stable_mb(
        lk.KernelSpec(d=10, alpha=1.99, beta=2.0), 2.0)),
    # M_t's factor -1/z is taken inside mellin_M
    ("radial_symbol", 2, lambda: lk.general_kernel_mb(
        _SYMBOL, 2, 0.5, 0.5, 1.3)),
]
_KERNEL_IDS = ["stable-2-1.5-0.7", "stable-3-0.5-0", "stable-10-1.99-2",
               "general-stable-1.2"]


def _clear_symbol_stores():
    lk.radial_symbol._symbol_line.cache_clear()
    lk.radial_symbol._grid_for.cache_clear()


@pytest.fixture
def cold_lines():
    """Empty line stores, so that a call samples every set of its line
    whatever ran before it."""
    lk.stable_kernel._stable_line.cache_clear()
    _clear_symbol_stores()


def _ladder_calls(res):
    """log_g calls of the decay ladder behind a contour result: the first
    rung's heights {0, 8, 16} share one, each later rung takes one."""
    return 1 + round(math.log2(res.diagnostics["truncation_height"] / 16.0))


class TestRememberPoints:
    @pytest.mark.usefixtures("cold_lines")
    def test_kernels_sample_half_of_each_level(self, monkeypatch):
        # G has real coefficients, so both kernels evaluate log_gamma on
        # the upper half of every symmetric node set: per level one call
        # of k * ceil(N/2) elements, k gamma factors per node
        calls = [("stable_kernel", 3, lambda: lk.stable_mb(
                     lk.KernelSpec(d=3, alpha=1.5, beta=2.0), 0.05)),
                 _KERNEL_CALLS[-1]]
        for module, k, call in calls:
            sizes = _count_log_gamma(monkeypatch, module)
            res = call()
            levels = sizes[_ladder_calls(res):]
            assert len(levels) >= 2
            # trapezoid levels hold 2n + 1, then 2n, 4n, 8n, ... nodes
            n = levels[0] // k - 1
            assert levels == [k * (n + 1)] + [k * n * 2 ** i
                                               for i in range(len(levels) - 1)]
            full = [2 * n + 1] + [2 * n * 2 ** i for i in range(len(levels) - 1)]
            assert res.diagnostics["nodes_used"] == 2 + sum(full)

    def test_folded_values_equal_direct_ones(self):
        # the sizes of log_g's parts, for a line's rounding floor, too
        def log_g(z, sizes=False):
            z = np.asarray(z)
            up, down = lk.log_gamma(z / 1.5), lk.log_gamma(0.5 * z)
            return (up - down, np.abs(up) + np.abs(down)) if sizes else up - down

        wrapped = lk.mellin.fold_conjugates(log_g)
        for v in (np.arange(-40, 41) * 0.3, (np.arange(-40, 40) + 0.5) * 0.3,
                  np.arange(-3.0, 9.0)):
            z = 1.7 + 1j * v
            assert np.array_equal(wrapped(z), log_g(z))
            for folded, direct in zip(wrapped(z, sizes=True),
                                      log_g(z, sizes=True)):
                assert np.array_equal(folded, direct)


class TestLogGammaCalls:
    @pytest.mark.usefixtures("cold_lines")
    @pytest.mark.parametrize("module,k,call", _KERNEL_CALLS,
                             ids=_KERNEL_IDS)
    def test_one_call_per_sample_set(self, monkeypatch, module, k, call):
        # every set of log G samples costs one log_gamma call: the first
        # rung of the ladder, each later rung, and each trapezoid level;
        # the decay check reads the ladder's samples
        sizes = _count_log_gamma(monkeypatch, module)
        res = call()
        rungs = _ladder_calls(res)
        assert sizes[:rungs] == [3 * k] + [k] * (rungs - 1)
        # the first level holds 2n + 1 nodes, of which n + 1 are sampled;
        # each later one doubles the nodes used so far, less one
        n = sizes[rungs] // k - 1
        doublings = (res.diagnostics["nodes_used"] - 3) / (2 * n)
        assert doublings == 2 ** round(math.log2(doublings))
        assert len(sizes) == rungs + 1 + round(math.log2(doublings))


class TestLineStore:
    # G does not depend on r or t: a kernel's line keeps its samples, and
    # a later call reads them instead of calling log_gamma again
    SPEC = lk.KernelSpec(d=3, alpha=1.2, beta=0.7, t=0.8)
    OTHER = lk.KernelSpec(d=3, alpha=1.2, beta=0.7, t=2.5)

    @staticmethod
    def _bits(res):
        return (res.value, res.est_error, res.diagnostics)

    @pytest.mark.usefixtures("cold_lines")
    def test_warm_stable_call_samples_nothing(self, monkeypatch):
        cold = lk.stable_mb(self.OTHER, 4.0)
        lk.stable_kernel._stable_line.cache_clear()
        first = lk.stable_mb(self.SPEC, 1.3)
        assert (first.diagnostics["nodes_used"]
                >= cold.diagnostics["nodes_used"])
        sizes = _count_log_gamma(monkeypatch, "stable_kernel")
        warm = lk.stable_mb(self.OTHER, 4.0)
        assert sizes == []
        assert self._bits(warm) == self._bits(cold)

    @staticmethod
    def _count_mellin_M(monkeypatch):
        """The calls of the inner transform that ``general_kernel_mb``
        makes, in order."""
        calls = []
        real = lk.radial_symbol.mellin_M

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(lk.radial_symbol, "mellin_M", counting)
        return calls

    def test_warm_general_call_takes_no_inner_transform(self, monkeypatch):
        sym = lk.make_symbol("stable", a=1.2)
        first = lk.general_kernel_mb(sym, 2, 0.5, 0.5, 1.3)
        calls = self._count_mellin_M(monkeypatch)
        warm = lk.general_kernel_mb(sym, 2, 0.5, 0.5, 0.7)
        assert calls == []
        assert (warm.diagnostics["nodes_used"]
                <= first.diagnostics["nodes_used"])
        # and the warm value is the cold one, bit for bit
        _clear_symbol_stores()
        assert self._bits(warm) == self._bits(lk.general_kernel_mb(
            lk.make_symbol("stable", a=1.2), 2, 0.5, 0.5, 0.7))

    @pytest.mark.usefixtures("cold_lines")
    def test_equal_symbols_share_a_store(self, monkeypatch):
        # the store is keyed by the symbol's value, not by the object
        first = lk.general_kernel_mb(
            lk.make_symbol("relativistic", alpha=1, m=1), 2, 0.5, 1.0, 1.5)
        calls = self._count_mellin_M(monkeypatch)
        again = lk.general_kernel_mb(
            lk.make_symbol("relativistic", alpha=1, m=1), 2, 0.5, 1.0, 1.5)
        assert calls == []
        assert self._bits(again) == self._bits(first)
        lk.general_kernel_mb(
            lk.make_symbol("relativistic", alpha=1, m=2), 2, 0.5, 1.0, 1.5)
        assert calls

    @pytest.mark.usefixtures("cold_lines")
    def test_concurrent_equal_symbols(self):
        # threads with their own equal symbols race on one cold store and
        # its grids; each returns the bits of a call made alone
        radii = [0.05, 0.3, 1.3, 4.0, 20.0, 60.0]

        def call(r):
            sym = lk.make_symbol("relativistic", alpha=1, m=1)
            return self._bits(lk.general_kernel_mb(sym, 2, 0.5, 1.0, r))

        alone = {}
        for r in radii:
            _clear_symbol_stores()
            alone[r] = call(r)
        _clear_symbol_stores()
        got = {}

        def work(r):
            got[r] = call(r)

        threads = [threading.Thread(target=work, args=(r,)) for r in radii]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == alone

    @pytest.mark.usefixtures("cold_lines")
    def test_symbol_stores_are_bounded(self):
        kept = lk.stable_kernel._LINES_KEPT
        sym = lk.make_symbol("relativistic", alpha=1, m=1)
        for t in np.linspace(0.5, 2.0, kept + 5):
            lk.general_kernel_mb(sym, 2, 0.5, float(t), 1.5)
        lines = lk.radial_symbol._symbol_line.cache_info()
        grids = lk.radial_symbol._grid_for.cache_info()
        assert lines.misses == kept + 5
        assert lines.currsize <= lines.maxsize == kept
        assert grids.misses > grids.maxsize == 2 * kept >= grids.currsize

    @pytest.mark.usefixtures("cold_lines")
    @pytest.mark.parametrize("module,k,call", _KERNEL_CALLS,
                             ids=_KERNEL_IDS)
    def test_phase_tables_are_built_once_per_level(self, monkeypatch,
                                                    module, k, call):
        # a level's phase table does not depend on r: a cold line builds
        # one per level it samples, and a warm call builds none and calls
        # no log G.  The inner transform's grids are warmed first, so
        # that only the line's tables are counted.
        call()
        lk.stable_kernel._stable_line.cache_clear()
        lk.radial_symbol._symbol_line.cache_clear()
        tables = []
        for mod in (lk.mellin, lk.radial_symbol):
            def counting(p, w, step, *width, real=mod._phase_table):
                tables.append(w.size)
                return real(p, w, step, *width)

            monkeypatch.setattr(mod, "_phase_table", counting)
        sizes = _count_log_gamma(monkeypatch, module)
        cold = call()
        # levels of 2n + 1, then 2n, 4n, ... nodes, one log G call each
        n = (tables[0] - 1) // 2
        assert tables == [2 * n + 1] + [n * 2 ** i
                                        for i in range(1, len(tables))]
        assert sum(tables) == cold.diagnostics["nodes_used"] - 2
        assert len(tables) == len(sizes) - _ladder_calls(cold) >= 2
        tables.clear()
        sizes.clear()
        warm = call()
        assert tables == [] and sizes == []
        assert self._bits(warm) == self._bits(cold)

    @pytest.mark.usefixtures("cold_lines")
    def test_concurrent_growth(self):
        # racing calls on one cold store may each sample a level; one is
        # kept, with the same bits, and every call returns the bits of a
        # call made alone
        radii = [0.05, 0.3, 1.3, 4.0, 20.0, 60.0]
        alone = {}
        for r in radii:
            lk.stable_kernel._stable_line.cache_clear()
            alone[r] = self._bits(lk.stable_mb(self.SPEC, r))
        # one store, planned but holding no level, shared by every thread
        lk.stable_kernel._stable_line.cache_clear()
        line = lk.stable_kernel._stable_line(3, 1.2, 0.7, 1e-9, None)
        assert line._levels == ()
        got = {}

        def work(r):
            got[r] = self._bits(lk.stable_mb(self.SPEC, r))

        threads = [threading.Thread(target=work, args=(r,)) for r in radii]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == alone
        # the store holds each level once, as a serial run builds it
        lk.stable_kernel._stable_line.cache_clear()
        for r in radii:
            lk.stable_mb(self.SPEC, r)
        serial = lk.stable_kernel._stable_line(3, 1.2, 0.7, 1e-9, None)
        assert len(line._levels) == len(serial._levels)
        assert line.moments == serial.moments
        for (top, gross, table), (top1, gross1, table1) in zip(
                line._levels, serial._levels):
            assert (top, gross, table[2]) == (top1, gross1, table1[2])
            assert all(np.array_equal(table[i], table1[i]) for i in (0, 1, 3))
        # and the pair of levels 0 and 1, stored with level 1, once
        (*raced, pair), (*alone, pair1) = line._pair, serial._pair
        assert raced == list(line._levels[:2])
        assert alone == list(serial._levels[:2])
        assert pair[2:] == pair1[2:]
        assert all(np.array_equal(pair[i], pair1[i]) for i in (0, 1))
        assert raced[0][2][1].base is pair[1] is raced[1][2][1].base


class TestPhaseSums:
    # sum_k p_k exp(i w_k v_j) by the node split, on the engine's
    # symmetric trapezoid levels and on M_t^1's one-sided grid, against
    # the dense reference
    RNG = np.random.default_rng(14)

    @staticmethod
    def _check(p, w, v, step):
        got = phase_sums(p, w, v, step)
        assert got.shape == v.shape
        err = np.max(np.abs(got - dense_phase_sums(p, w, v)))
        assert err <= 1e-13 * np.sum(np.abs(p))
        return got

    def _weights(self, n):
        return self.RNG.normal(size=n) + 1j * self.RNG.normal(size=n)

    @pytest.mark.parametrize("n", [1, 40, 41, 333])
    def test_node_split(self, n):
        h = 25.0 / n
        x = np.r_[self.RNG.uniform(-6.0, 6.0, 37), 0.0, -4.5]
        # a level of 2n + 1 nodes (odd, one at v = 0), then its 2n
        # midpoints, which have no node at v = 0, then a one-sided set
        # from -3nh to nh, as M_t^1's grid
        for w in (np.arange(-n, n + 1, dtype=float) * h,
                  (np.arange(-n, n, dtype=float) + 0.5) * h,
                  np.arange(-3 * n, n + 1, dtype=float) * h):
            p = self._weights(w.size)
            full = self._check(p, w, x, h)
            # each query's sum is formed alone: its bits are batch-free
            for j in (0, 17, x.size - 1):
                assert full[j] == phase_sums(p, w, x[j:j + 1], h)[0]

    def test_sets_the_fold_used_to_normalise(self):
        # M_t^1 no longer folds its requests onto sorted distinct |v|: an
        # unsorted set, repeats, an all-negative set, two points, a
        # strided subset with gaps and scattered heights must each give
        # the right sums, without a RuntimeWarning
        h = 0.06
        w = np.arange(-500, 201, dtype=float) * h
        p = self.RNG.normal(size=w.size)
        level = np.arange(0, 161, dtype=float) * 0.4
        sets = {"unsorted": self.RNG.permutation(level),
                "repeats": np.repeat(level, 2),
                "all negative": -level[::-1] - 3.0,
                "two points": np.array([8.0, 16.0]),
                "strided with gaps": np.delete(level[::2], [3, 4, 5, 50]),
                "scattered": np.sort(self.RNG.uniform(0.0, 64.0, 300))}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v in sets.values():
                self._check(p, w, v, h)

    @pytest.mark.usefixtures("cold_lines")
    def test_engine_passes_its_step(self, monkeypatch):
        # the node split trusts its step: both callers, the engine's
        # levels and M_t^1's grid, hand it the spacing of their nodes,
        # which have a node within half a step of w = 0
        seen = {"mellin": 0, "radial_symbol": 0}
        for module in seen:
            real = getattr(lk, module)._phase_table

            def checking(p, w, step, *width, module=module, real=real):
                seen[module] += 1
                assert np.allclose(np.diff(w), step, rtol=1e-12, atol=0.0)
                assert np.min(np.abs(w)) <= 0.5 * step
                return real(p, w, step, *width)

            monkeypatch.setattr(getattr(lk, module), "_phase_table", checking)
        spec = lk.KernelSpec(d=2, alpha=1.5, beta=0.7)
        lk.stable_mb(spec, 2.0)
        lk.stable_mb(spec, np.geomspace(0.05, 30.0, 400))
        lk.general_kernel_mb(lk.make_symbol("stable", a=1.2), 2, 0.5, 0.5,
                             1.3)
        assert min(seen.values()) >= 2


def _hex(values):
    """Bits of complex values, signs of zeros included."""
    return np.asarray(values, dtype=np.complex128).view(np.uint64).tolist()


class TestOneRowPhaseSum:
    """``mellin._phase_one``, the phase sum of one float, against the row
    of a ``_phase_apply`` grid call: the same bits, on random tables and
    queries, and the path a warm scalar call takes."""

    # queries of a zero or denormal ln r', where products underflow
    SPECIAL_X = (0.0, -0.0, 5e-324, -5e-324)

    @staticmethod
    def _node_count(rng):
        """1 to ~3000 nodes, half of them at N - 1 = k^2 + {-1, 0, 1},
        where the block width B = isqrt(N - 1) + 1 steps up."""
        if rng.random() < 0.5:
            return int(round(10.0 ** rng.uniform(0.0, 3.5)))
        return int(rng.integers(1, 55)) ** 2 + int(rng.integers(0, 3))

    @staticmethod
    def _nodes(rng, n):
        """n nodes spaced by a random step h: a symmetric level 0 (2m + 1
        nodes, one at w = 0), its midpoints (2m, none at w = 0) or a
        one-sided M_t^1-style set reaching w >= 0."""
        h = 10.0 ** rng.uniform(-2.5, 0.0)
        kind = rng.integers(3)
        if kind == 0:
            m = n // 2
            w = np.arange(-m, m + 1, dtype=float) * h
        elif kind == 1:
            m = max(1, n // 2)
            w = (np.arange(-m, m, dtype=float) + 0.5) * h
        else:
            below = int(rng.integers(0, n))
            w = np.arange(-below, n - below, dtype=float) * h
        return w, h

    @staticmethod
    def _weights(rng, n):
        """Moduli 1e-300 to 1e300, and exact zeros of either sign, whole
        weights or one part of them."""
        p = 10.0 ** rng.uniform(-300.0, 300.0, n) * np.exp(
            2j * np.pi * rng.random(n))
        zero = rng.random(n) < 0.1
        p[zero] = rng.choice([0.0, -0.0], zero.sum()) + 1j * rng.choice(
            [0.0, -0.0], zero.sum())
        real = rng.random(n) < 0.05
        p.imag[real] = 0.0
        return p

    def test_random_tables_match_grid_rows(self):
        rng = np.random.default_rng(20261021)
        pool = self._weights(rng, 1 << 17)  # each table takes a window
        one, rows, cases = [], [], 0
        for _ in range(10_000):
            n = self._node_count(rng)
            w, h = self._nodes(rng, n)
            lo = int(rng.integers(0, pool.size - w.size))
            table = lk.mellin._phase_table(pool[lo:lo + w.size], w, h)
            # a special query and two ln r' for r' in 1e-300 .. 1e300
            x = np.r_[rng.choice(self.SPECIAL_X),
                      np.log(10.0 ** rng.uniform(-300.0, 300.0, 2))]
            rows += lk.mellin._phase_apply(table, x).tolist()
            one += [lk.mellin._phase_one(table, float(xj)) for xj in x]
            cases += x.size
        assert all(type(v) is complex for v in one)
        assert cases >= 30_000
        assert _hex(one) == _hex(rows)

    @pytest.mark.parametrize("kernel", ["stable_mb", "general_kernel_mb"])
    def test_scalar_at_unit_radius_matches_grid(self, kernel):
        # r' = 1 exactly, where ln r' = 0.0 times each height is a zero
        if kernel == "stable_mb":
            calls = [functools.partial(lk.stable_mb, lk.KernelSpec(d, a, b))
                     for d, a, b in ((2, 1.5, 0.7), (3, 0.5, 0.0),
                                     (10, 1.99, 2.0), (3, 1.2, 0.0))]
        else:
            calls = [functools.partial(lk.general_kernel_mb, sym, 2, 0.5, 1.0)
                     for sym in (_SYMBOL, lk.make_symbol(
                         "relativistic", alpha=1.0, m=1.0))]
        for call in calls:
            one, (row,) = call(1.0), call(np.array([1.0]))
            assert _hex([one.value, one.est_error]) == _hex(
                [row.value, row.est_error])
            assert one.diagnostics == row.diagnostics

    @staticmethod
    def _count_grid_path(monkeypatch):
        counts = {"_row_blocks": 0, "einsum": 0}
        real_blocks, real_einsum = lk.mellin._row_blocks, np.einsum

        def blocks(*args):
            counts["_row_blocks"] += 1
            return real_blocks(*args)

        def einsum(*args, **kwargs):
            counts["einsum"] += 1
            return real_einsum(*args, **kwargs)

        monkeypatch.setattr(lk.mellin, "_row_blocks", blocks)
        monkeypatch.setattr(np, "einsum", einsum)
        return counts

    @pytest.mark.parametrize("call", [
        functools.partial(lk.stable_mb, lk.KernelSpec(2, 1.5, 0.7)),
        functools.partial(lk.general_kernel_mb, _SYMBOL, 2, 0.5, 0.5),
    ], ids=["stable_mb", "general_kernel_mb"])
    def test_warm_scalar_takes_no_grid_path(self, monkeypatch, call):
        grid = np.geomspace(0.05, 30.0, 400)
        warm = call(2.0), call(grid)
        counts = self._count_grid_path(monkeypatch)
        assert call(2.0) == warm[0]
        assert counts == {"_row_blocks": 0, "einsum": 0}
        assert call(grid) == warm[1]
        assert min(counts.values()) > 0


class TestPairPhaseSum:
    """``mellin._phase_pair``, the sums of trapezoid levels 0 and 1 at
    one float from their ``_pair_table``, against the rows of
    ``_phase_apply`` on the two level tables: the same bits, and the path
    a warm scalar call takes."""

    @staticmethod
    def _half_count(rng):
        """Half counts n, half of them with 2n = k^2 (8, 72, 128, ...),
        where level 1's own width isqrt(2n - 1) + 1 differs from level
        0's isqrt(2n) + 1."""
        if rng.random() < 0.5:
            return 2 * int(rng.integers(1, 40)) ** 2
        return int(round(10.0 ** rng.uniform(0.0, 3.2)))

    def test_random_pairs_match_grid_rows(self):
        rng = np.random.default_rng(20261022)
        pool = TestOneRowPhaseSum._weights(rng, 1 << 17)
        pairs, rows, squares = [], [], 0
        for _ in range(10_000):
            n = self._half_count(rng)
            squares += math.isqrt(2 * n) ** 2 == 2 * n
            h = 10.0 ** rng.uniform(-2.5, 0.0)
            w0 = np.arange(-n, n + 1, dtype=float) * h
            w1 = (np.arange(-n, n, dtype=float) + 0.5) * h
            lo = int(rng.integers(0, pool.size - 4 * n - 1))
            zero = lk.mellin._phase_table(pool[lo:lo + w0.size], w0, h)
            one = lk.mellin._phase_table(pool[lo + w0.size:lo + 4 * n + 1],
                                         w1, h, zero[1].shape[1])
            zero, one, pair = lk.mellin._pair_table(zero, one)
            x = np.r_[rng.choice(TestOneRowPhaseSum.SPECIAL_X),
                      np.log(10.0 ** rng.uniform(-300.0, 300.0, 2))]
            rows += [v for level in zip(lk.mellin._phase_apply(zero, x),
                                        lk.mellin._phase_apply(one, x))
                     for v in level]
            pairs += [v for xj in x
                      for v in lk.mellin._phase_pair(pair, float(xj))]
        assert all(type(v) is complex for v in pairs)
        assert len(pairs) >= 60_000 and 3_000 < squares < 7_000
        assert _hex(pairs) == _hex(rows)

    @pytest.mark.usefixtures("cold_lines")
    def test_store_keeps_the_tables_once(self):
        # level 1 takes level 0's width; their (heads, B) tables are row
        # views of the pair's stack; level 2 keeps a table of its own
        lk.stable_mb(lk.KernelSpec(2, 0.1, 0.0), 2.0)
        line = lk.stable_kernel._stable_line(2, 0.1, 0.0, 1e-9, None)
        zero, one, (iheights, mat, n0, n1) = line.pair()
        assert zero is line.level(0) and one is line.level(1)
        assert zero[2][1].base is mat and one[2][1].base is mat
        assert np.array_equal(np.concatenate((zero[2][1], one[2][1])), mat)
        assert zero[2][1].shape[1] == one[2][1].shape[1] == mat.shape[1]
        assert np.array_equal(iheights, np.r_[zero[2][3][:n0], one[2][3]])
        assert not (mat.flags.writeable or iheights.flags.writeable)
        assert not np.shares_memory(line.level(2)[2][1], mat)

    @staticmethod
    def _count_sums(monkeypatch):
        counts = {"_phase_pair": 0, "_phase_one": 0}
        for name in counts:
            def counting(*args, name=name, real=getattr(lk.mellin, name)):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(lk.mellin, name, counting)
        return counts

    @pytest.mark.parametrize("call,line,levels", [
        (functools.partial(lk.stable_mb, lk.KernelSpec(2, 1.5, 0.7), 2.0),
         lambda: lk.stable_kernel._stable_line(2, 1.5, 0.7, 1e-9, None), 2),
        (functools.partial(lk.general_kernel_mb, _SYMBOL, 2, 0.5, 0.5, 2.0),
         lambda: lk.radial_symbol._symbol_line(_SYMBOL, 2, 0.5, 0.5, 1e-7,
                                               None), 2),
        (functools.partial(lk.stable_mb, lk.KernelSpec(2, 0.1, 0.0), 2.0),
         lambda: lk.stable_kernel._stable_line(2, 0.1, 0.0, 1e-9, None), 3),
    ], ids=["stable_mb", "general_kernel_mb", "stable_mb-3-levels"])
    def test_warm_scalar_takes_one_pair(self, monkeypatch, call, line,
                                        levels):
        # levels 0 and 1 from one pair, each later level from one phase
        # sum of its own table
        warm = call()
        n = line().plan.nodes
        assert warm.diagnostics["nodes_used"] == 3 + (2 * n << (levels - 1))
        counts = self._count_sums(monkeypatch)
        assert call() == warm
        assert counts == {"_phase_pair": 1, "_phase_one": levels - 2}


class TestLinePlan:
    # log Gamma(z) Gamma(3 - z): poles at z = 0 and z = 3, the strip's hi
    STRIP = (1.0, 3.0)

    @staticmethod
    def log_g(z):
        return lk.log_gamma(z) + lk.log_gamma(3.0 - np.asarray(z))

    def test_default_plan(self):
        plan = _plan(self.log_g, self.STRIP, None, 1e-9)[0]
        expected_t = _ladder(lambda z: np.exp(self.log_g(z)), 2.0, 1e-11)[0]
        assert (plan.abscissa, plan.half_height) == (2.0, expected_t)
        assert plan.nodes == max(64, math.ceil(expected_t / 0.2))

    def test_override_and_pole_aware_floor(self):
        plan = _plan(self.log_g, self.STRIP, 2.9, 1e-9)[0]
        big_t = _ladder(lambda z: np.exp(self.log_g(z)), 2.9, 1e-11)[0]
        # the pole at z = 3 sits 0.1 from the line: h <= 0.1 / 5
        assert (plan.abscissa, plan.half_height) == (2.9, big_t)
        assert plan.nodes == math.ceil(big_t / 0.02) > 64

    def test_abscissa_only_override_climbs_the_ladder(self):
        plan = _plan(self.log_g, self.STRIP, 1.5, 1e-9)[0]
        assert plan.abscissa == 1.5
        assert plan.half_height == _ladder(
            lambda z: np.exp(self.log_g(z)), 1.5, 1e-11)[0]

    def test_abscissa_outside_strip(self):
        for c in (1.0, 3.5):
            with pytest.raises(lk.StripViolation):
                _plan(self.log_g, self.STRIP, c, 1e-9)


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
        assert _ladder(f, 1.0, tol)[0] == expected == 64.0

    def test_gamma_ladder_small(self):
        f = _gamma_times_power(1.0)
        assert _ladder(f, 1.0, 1e-10)[0] <= 64.0

    def test_constant_integrand_no_decay(self):
        f = lambda z: np.ones_like(np.asarray(z, dtype=np.complex128))
        with pytest.raises(lk.NoDecay):
            _ladder(f, 1.0, 1e-10)


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
