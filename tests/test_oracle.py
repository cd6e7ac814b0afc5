import json
import math
import os
import pathlib
import subprocess
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
from scipy.special import jn_zeros

import levykernel as lk
from levykernel import oracle
from levykernel.specfun import bessel_switch_point

POOL = pathlib.Path(__file__).resolve().parents[1] / "bench" / "pool"

# Runs in a fresh interpreter: reports whether importing the package left
# the zero tables empty, then fills the nu = 0 table in one of two orders
# and reports its bits and one oracle value.
_ZERO_ORDER_SCRIPT = """
import hashlib, json, sys
import levykernel, levykernel.cli
from levykernel import oracle
empty_after_import = not oracle._ZERO_TABLES
oracle_value = lambda: levykernel.stable_oracle(
    levykernel.KernelSpec(2, 1.99), 50.0).value.hex()
if sys.argv[1] == "far-first":
    oracle.bessel_zeros(0.0, 1, offset=19999)
    value = oracle_value()
else:
    value = oracle_value()
    n = 1
    while n < 20000:
        oracle.bessel_zeros(0.0, n)
        n *= 2
    oracle.bessel_zeros(0.0, 20000)
table = oracle._ZERO_TABLES[0.0]
print(json.dumps({"empty_after_import": empty_after_import, "value": value,
                  "size": table.size,
                  "table": hashlib.sha256(table.tobytes()).hexdigest()}))
"""


@pytest.fixture(scope="module")
def zero_orders():
    src = pathlib.Path(lk.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return {order: json.loads(subprocess.run(
        [sys.executable, "-c", _ZERO_ORDER_SCRIPT, order], capture_output=True,
        text=True, check=True, env=env).stdout)
        for order in ("far-first", "grow-from-1")}


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

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 4.0])
    def test_against_mpmath(self, nu):
        idx = np.r_[1:65, 20001:20009]
        ours = np.r_[lk.bessel_zeros(nu, 64),
                     lk.bessel_zeros(nu, 8, offset=20000)]
        with mp.workdps(30):
            ref = np.array([float(mp.besseljzero(mp.mpf(nu), int(k)))
                            for k in idx])
        # At nu >= 3 bessel_j is inaccurate below its switch point (see
        # its docstring), so the first zeros of J_4 are up to 5e-5 off,
        # and zeros 11-14 up to 1e-7: the Newton derivative (4/x) J_4 -
        # J_5 takes J_5 from its series up to bessel_switch_point(5) = 50.
        # Only the zeros past both switch points are checked there.
        keep = ref > (bessel_switch_point(nu + 1.0) if nu >= 3 else 0.0)
        err = np.abs(ours - ref)[keep]
        assert keep.sum() >= 8
        assert np.all(err <= 1e-12 + 4 * np.spacing(ref[keep]))

    def test_returns_fresh_array(self):
        before = lk.bessel_zeros(0.0, 10, offset=3)
        lk.bessel_zeros(0.0, 10, offset=3)[:] = -1.0
        assert np.array_equal(lk.bessel_zeros(0.0, 10, offset=3), before)

    def test_table_is_history_free(self, zero_orders):
        far, grown = zero_orders["far-first"], zero_orders["grow-from-1"]
        assert far["size"] == grown["size"] >= 20000
        assert far["table"] == grown["table"]
        assert far["value"] == grown["value"]

    def test_import_computes_no_zeros(self, zero_orders):
        assert all(run["empty_after_import"] for run in zero_orders.values())

    def test_concurrent_growth(self, monkeypatch):
        # the table takes no lock: racing threads may compute a block
        # twice, with identical bits, and each reads correct zeros
        ref = lk.bessel_zeros(0.5, 7000)
        monkeypatch.setattr(oracle, "_ZERO_TABLES", {})
        spans = [(700 * i, 300 + 500 * i) for i in range(6)]
        got = {}

        def work(i):
            offset, n = spans[i]
            got[i] = lk.bessel_zeros(0.5, n, offset=offset)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
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
        for i, (offset, n) in enumerate(spans):
            assert np.array_equal(got[i], ref[offset:offset + n])

    def test_non_increasing_block_is_typed(self, monkeypatch):
        monkeypatch.setattr(oracle, "_ZERO_TABLES", {})
        monkeypatch.setattr(oracle, "_zero_block",
                            lambda nu, j: np.full(oracle._ZERO_BLOCK, 3.0))
        with pytest.raises(lk.NonConvergent):
            lk.stable_oracle(lk.KernelSpec(d=2, alpha=1.5), 5.0)


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


def _support_radius_loop(weight, s_start, rel_floor=1e-21):
    """The scalar 1.5x ladder that oracle._support_radius vectorises."""
    grid = np.geomspace(max(s_start, 1e-6) + 1e-12, 1e4, 200)
    wmax = float(np.max(np.abs(weight(grid))))
    if wmax == 0.0:
        return max(s_start, 1.0)
    s = max(1.0, s_start)
    for _ in range(60):
        if abs(float(weight(np.array([s]))[0])) < rel_floor * wmax:
            return s
        s *= 1.5
    return math.inf


@pytest.mark.parametrize("weight,s_start", [
    (lk.stable_weight(2, 1.5, 0.0, 1.0), 0.0),
    (lk.stable_weight(3, 0.3, 0.7, 1.0), 0.0),
    (lk.stable_weight(2, 1.99, 0.0, 1.0), 1.0),
    (lk.symbol_weight(lk.make_symbol("relativistic", alpha=0.8, m=2.0),
                      3, 0.0, 1.0), 0.0),
    (lk.symbol_weight(lk.make_symbol("sum_stable", a=0.8, b=1.2),
                      2, 0.5, 1.0), 1.0),
    (np.ones_like, 0.0),
    (np.zeros_like, 0.0),
])
def test_support_radius_matches_scalar_ladder(weight, s_start):
    assert oracle._support_radius(weight, s_start) \
        == _support_radius_loop(weight, s_start)


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
