import functools
import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import jn_zeros

import levykernel as lk
from _props import weight_calls
from levykernel import oracle

POOL = pathlib.Path(__file__).resolve().parents[1] / "bench" / "pool"

# Runs in a fresh interpreter: reports whether importing the package left
# the tables empty, then fills the nu = 0 table (zeros, panel and head
# node values) in one of two orders and reports its bits and one oracle
# value.
_ZERO_ORDER_SCRIPT = """
import hashlib, json, sys
import levykernel, levykernel.cli
from levykernel import oracle
empty_after_import = not oracle._ZERO_TABLES
oracle_value = lambda: levykernel.stable_oracle(
    levykernel.KernelSpec(2, 1.99), 50.0).value.hex()
if sys.argv[1] == "far-first":
    oracle.bessel_zeros(0.0, 1, offset=19999)
    oracle._panel_rows(0.0, 19990, 19999)[2]
    oracle._arch_j(0.0, len(oracle._HEAD_RULE) - 1)
    value = oracle_value()
else:
    value = oracle_value()
    n = 1
    while n < 20000:
        oracle.bessel_zeros(0.0, n)
        oracle._panel_rows(0.0, n // 2, n)[2]
        n *= 2
    oracle.bessel_zeros(0.0, 20000)
    oracle._panel_rows(0.0, 19990, 19999)[2]
    for call in range(len(oracle._HEAD_RULE)):
        oracle._arch_j(0.0, call)
table = oracle._ZERO_TABLES[0.0]
digest = lambda arrays: [len(arrays), hashlib.sha256(
    b"".join(a.tobytes() for a in arrays)).hexdigest()]
print(json.dumps({"empty_after_import": empty_after_import, "value": value,
                  "size": table["zeros"].size, "table": digest([table["zeros"]]),
                  "panels": digest(table["panels"]), "head": digest(table["head"])}))
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
        # the first zeros of J_4 lie where bessel_j recurs from lower
        # orders (between x = 12 and its switch point 32)
        err = np.abs(ours - ref)
        assert np.all(err <= 1e-12 + 4 * np.spacing(ref))

    def test_returns_fresh_array(self):
        before = lk.bessel_zeros(0.0, 10, offset=3)
        lk.bessel_zeros(0.0, 10, offset=3)[:] = -1.0
        assert np.array_equal(lk.bessel_zeros(0.0, 10, offset=3), before)

    def test_table_is_history_free(self, zero_orders):
        far, grown = zero_orders["far-first"], zero_orders["grow-from-1"]
        assert far["size"] == grown["size"] >= 20000
        assert far["table"] == grown["table"]
        assert far["value"] == grown["value"]
        assert far["panels"] == grown["panels"] and far["panels"][0] >= 20
        assert far["head"] == grown["head"] and far["head"][0] >= 5

    def test_import_computes_no_zeros(self, zero_orders):
        assert all(run["empty_after_import"] for run in zero_orders.values())

    def test_concurrent_growth(self, monkeypatch):
        # the table takes no lock: racing threads may compute a block
        # twice, with identical bits, and each reads correct zeros and
        # node values
        ref = lk.bessel_zeros(0.5, 7000)
        ref_panels = oracle._panel_rows(0.5, 0, 7000)[2]
        ref_head = [oracle._arch_j(0.5, call) for call in range(3)]
        monkeypatch.setattr(oracle, "_ZERO_TABLES", {})
        spans = [(700 * i, 300 + 500 * i) for i in range(6)]
        got = {}

        def work(i):
            offset, n = spans[i]
            got[i] = (lk.bessel_zeros(0.5, n, offset=offset),
                      oracle._panel_rows(0.5, offset, offset + n)[2],
                      oracle._arch_j(0.5, i % 3))

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
            zeros, panels, head = got[i]
            assert np.array_equal(zeros, ref[offset:offset + n])
            assert np.array_equal(panels, ref_panels[offset:offset + n])
            assert np.array_equal(head, ref_head[i % 3])

    def test_non_increasing_block_is_typed(self, monkeypatch):
        # resetting the zero tables resets the node values with them
        monkeypatch.setattr(oracle, "_ZERO_TABLES", {})
        monkeypatch.setattr(oracle, "_zero_block",
                            lambda nu, j: np.full(oracle._ZERO_BLOCK, 3.0))
        with pytest.raises(lk.NonConvergent):
            lk.stable_oracle(lk.KernelSpec(d=2, alpha=1.5), 5.0)


def _nodes(edges, order):
    x_gl = np.polynomial.legendre.leggauss(order)[0]
    return (0.5 * (edges[1:] + edges[:-1])[:, None]
            + 0.5 * (edges[1:] - edges[:-1])[:, None] * x_gl[None, :])


class TestNodeTable:
    @pytest.mark.parametrize("nu", [0.0, 0.5, 4.0])
    def test_values_are_bessel_j_at_the_nodes(self, nu):
        n = 2 * oracle._ZERO_BLOCK + 100
        zeros = lk.bessel_zeros(nu, n + 1)
        panels = oracle._panel_rows(nu, 0, n)[2]
        assert np.array_equal(panels, lk.bessel_j(nu, _nodes(zeros, 12)))
        assert np.array_equal(oracle._panel_rows(nu, 1000, 2100)[2],
                              panels[1000:2100])
        # the head's tanh-sinh nodes u = 1/(1 + e^(-pi sinh tau)) on
        # |tau| <= 5: level 0 at step 1/2, level k at the odd multiples
        # of 2^-(k+1); its first call takes levels 0 .. 4, the next 5
        taus = [0.5 * np.arange(-10, 11)] + [
            2.0 ** -k * np.arange(1 - 5 * 2 ** k, 5 * 2 ** k, 2)
            for k in range(2, 7)]
        for call, tau in enumerate((np.concatenate(taus[:5]), taus[5])):
            u = 1.0 / (1.0 + np.exp(-math.pi * np.sinh(tau)))
            np.testing.assert_allclose(oracle._HEAD_RULE[call][0], u,
                                       rtol=1e-15, atol=0.0)
            assert np.array_equal(oracle._arch_j(nu, call), lk.bessel_j(
                nu, zeros[0] * oracle._HEAD_RULE[call][0]))

    def test_warm_oscillatory_call_makes_no_bessel_call(self, monkeypatch):
        monkeypatch.setattr(oracle, "_ZERO_TABLES", {})
        calls = []

        def counted(nu, x):
            calls.append(np.size(x))
            return lk.bessel_j(nu, x)

        monkeypatch.setattr(oracle, "bessel_j", counted)
        # the panels of d = 3 (odd-d kernels take the ray, not the panels)
        weight = lk.stable_weight(3, 1.5, 0.0, 1.0)
        lk.hankel_oracle(weight, 3, 2.0)
        assert calls  # the first call fills the table
        calls.clear()
        res = lk.hankel_oracle(weight, 3, 2.7)
        assert res.diagnostics["panels"] > 0 and calls == []
        # the weight dies before the first arch: the head is not tabled
        res = lk.hankel_oracle(weight, 3, 0.01)
        assert res.diagnostics["panels"] == 0 and calls


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
        res = lk.oscillatory_bessel_integral(w, 0.0, 5.0)
        assert res.diagnostics["depth"] >= 3
        assert np.all(
            np.diff(lk.bessel_zeros(0.0, res.diagnostics["panels"])) > 0)


def _accelerate_loop(partial_sums):
    """The iterated-averaging loop that oracle._accelerate takes in closed
    form: each column the mean of neighbours in the one before."""
    s = np.asarray(partial_sums, dtype=float)
    if s.size == 1:
        return float(s[-1]), math.inf, 0
    tail = s[-min(s.size, 2 * oracle._ACCEL_DEPTH + 6):]
    best_val, best_err = tail[-1], abs(tail[-1] - tail[-2])
    cur, depth_used, prev_last = tail, 0, tail[-1]
    for depth in range(1, min(oracle._ACCEL_DEPTH, tail.size - 1) + 1):
        cur = 0.5 * (cur[1:] + cur[:-1])
        diff = abs(cur[-1] - prev_last)
        if diff < best_err:
            best_err, best_val, depth_used = diff, cur[-1], depth
        prev_last = cur[-1]
    return float(best_val), float(best_err), depth_used


_J0_PANELS = oracle._panel_rows(0.0, 0, 64)


@pytest.mark.parametrize("terms", [
    (-1.0) ** np.arange(40) / np.arange(1, 41),  # alternating, to ln 2
    (-1.0) ** np.arange(7) / np.arange(1, 8) ** 0.5,
    (_J0_PANELS[2] * np.exp(-(_J0_PANELS[0] / 7.0) ** 1.5)
     * _J0_PANELS[1]).sum(axis=1),  # Bessel-zero panels of a weight
    1.0 / np.arange(1, 50) ** 2,  # monotone
    0.5 ** np.arange(30),
    np.r_[1.0, np.zeros(20)],  # constant partial sums
    np.array([3.0]), np.array([1.0, -0.5]),
])
def test_accelerate_matches_iterated_averaging(terms):
    partial = np.cumsum(terms)
    value, err, depth = oracle._accelerate(partial)
    ref_value, ref_err, ref_depth = _accelerate_loop(partial)
    rounding = 16 * np.finfo(float).eps * np.max(np.abs(partial))
    assert depth == ref_depth
    assert abs(value - ref_value) <= rounding
    assert abs(err - ref_err) <= rounding or err == ref_err


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
    (lk.stable_weight(2, 1.5, 0.0, 1.0), 3.0),
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


_RELATIVISTIC = lk.make_symbol("relativistic", alpha=0.8, m=2.0)


@pytest.mark.parametrize("weight, at_zero", [
    (lk.stable_weight(2, 1.5, 0.0, 1.0), 0.0),
    (lk.stable_weight(2, 1.5, -1.0, 2.0), 1.0),  # s^0 e^(-t 0)
    (lk.symbol_weight(_RELATIVISTIC, 3, 0.5, 1.0), 0.0),
    (lk.symbol_weight(_RELATIVISTIC, 2, -1.0, 2.0),
     math.exp(-2.0 * _RELATIVISTIC.eta_at_zero)),
])
def test_weights_at_zero(weight, at_zero):
    # the library's nodes are all > 0; at s = 0 the weights mask and
    # scatter, and agree with their all-positive path elsewhere
    s = np.array([0.3, 0.0, 2.0, 7.5])
    got = weight(s)
    assert got[1] == at_zero
    np.testing.assert_allclose(got[[0, 2, 3]], weight(s[[0, 2, 3]]),
                               rtol=1e-15, atol=0.0)


class TestHead:
    @pytest.mark.parametrize("b", [3.0, 100.0, 1e4])
    def test_endpoint_singularity_within_change(self, b):
        # nu = scale = 0: int_0^b s^(-1/2) e^(-s) ds = sqrt(pi) erf(sqrt(b))
        calls = []

        def w(s):
            calls.append(s.size)
            return np.exp(-s) / np.sqrt(s)

        val, change, abs_w = oracle._head(w, 0.0, 0.0, 0.0, b, 1e-13)
        ref = math.sqrt(math.pi) * math.erf(math.sqrt(b))
        assert abs(val - ref) <= change + 2 * np.spacing(ref)
        assert abs_w == pytest.approx(ref, rel=1e-14)
        # the first call takes levels 0 .. 4 (321 nodes), each later call
        # one level's new nodes; on [0, 1e4] the mass sits in u < 0.005
        assert calls == [u.size for u, _ in oracle._HEAD_RULE[:len(calls)]]
        assert calls[0] == 321 and (len(calls) == 1) == (b < 1e3)

    @pytest.mark.parametrize("b", [0.05, 0.2, 3.0])
    def test_gaussian_hankel_closed_form(self, b):
        # int_0^inf J_0(b s) s e^(-s^2) ds = e^(-b^2/4) / 2; at b <= 0.2
        # the weight dies before the first arch (non-oscillatory branch)
        def w(s):
            return s * np.exp(-s * s)

        res = lk.oscillatory_bessel_integral(w, 0.0, b, tol=1e-13)
        val, err = res.value, res.est_error
        ref = 0.5 * math.exp(-0.25 * b * b)
        assert (res.diagnostics["panels"] == 0) == (b < 1.0)
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

        res = lk.oscillatory_bessel_integral(w, 0.0, 1.0, tol=1e-9)
        val, err = res.value, res.est_error
        rhs = lk.mellin_bessel_rhs(complex(z), 0.0).real
        assert abs(val - rhs) <= 1e-9 * abs(rhs)
        assert abs(val - rhs) <= err

    @pytest.mark.parametrize("d,a,b,t", [(2, 0.6, 1.4, 1.0), (3, 0.5, 1.5, 0.3),
                                         (4, 0.3, 1.9, 4.0)])
    def test_sum_symbol_origin_against_mpmath(self, d, a, b, t):
        # the r = 0 path of sum_symbol_envelope_check (d >= 2, as for every
        # kernel)
        check = lk.sum_symbol_envelope_check(d, a, b, t, [0.0])
        k0 = check["max_ratio"] * lk.sum_symbol_envelope(d, a, b, t, 0.0)
        with mp.workdps(30):
            radial = mp.quad(lambda s: s ** (d - 1) * mp.exp(-t * (s ** a + s ** b)),
                             [0, 1, 10, 100, mp.inf])
            ref = float(2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(mp.mpf(d) / 2)
                        * radial / (2 * mp.pi) ** d)
        assert abs(k0 - ref) <= 1e-13 * ref


def _one_batch_pool_calls():
    """Oracle calls of the even-d stable and the t = 1 symbol points of
    the benchmark's pool, keyed by name."""
    calls = {}
    for p in json.loads((POOL / "oracle.json").read_text())["stable"]:
        if p["d"] % 2 == 0:
            spec = lk.KernelSpec(p["d"], p["alpha"], p["beta"])
            calls[f"stable {spec} r={p['r']}"] = functools.partial(
                lk.stable_oracle, spec, p["r"])
    for sy in json.loads((POOL / "symbols.json").read_text())["symbols"]:
        sym = lk.make_symbol(sy["kind"], **sy["params"])
        for p in sy["points"]:
            if p["t"] == 1.0:
                name = f"{sym.name}{sy['params']} d={sy['d']} r={p['r']}"
                calls[name] = functools.partial(
                    lk.symbol_oracle, sym, sy["d"], sy["beta"], 1.0, p["r"])
    return calls


def test_warm_one_batch_calls_make_three_weight_calls():
    # one support probe (a 260-node weight call), the head's first call
    # (tanh-sinh levels 0 .. 4) and one batch of 64 panels
    seen = {}
    for name, call in _one_batch_pool_calls().items():
        if call().diagnostics["panels"] != 65:
            continue
        with weight_calls() as counts:
            call()
        seen[name] = counts
    assert len(seen) >= 30
    assert {name: c for name, c in seen.items()
            if c["calls"] > 3 or c["probes"] != 1} == {}


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

    @pytest.mark.parametrize("d", range(2, 8))
    def test_unit_mass_across_dimensions(self, d):
        for alpha in (0.5, 1.0, 1.5, 1.9):
            mass = lk.normalization_check(lk.KernelSpec(d=d, alpha=alpha))
            assert abs(mass - 1.0) <= (1e-13 if d <= 3 else 1e-11), alpha

    @pytest.mark.parametrize("d,alpha", [(2, 1.0), (3, 1.5), (5, 1.3)])
    def test_independent_of_split_radius(self, d, alpha):
        spec = lk.KernelSpec(d=d, alpha=alpha)
        masses = [lk.normalization_check(spec, r_split)
                  for r_split in (20.0, 40.0, 80.0)]
        assert max(masses) - min(masses) <= 1e-12

    def test_unit_mass_at_d10(self):
        # nu = 3.5 and 4: between x = 12 and its switch point bessel_j
        # recurs from lower orders, where its series would cancel
        for d in (9, 10):
            mass = lk.normalization_check(lk.KernelSpec(d=d, alpha=1.5))
            assert abs(mass - 1.0) <= 2e-11, d

    @pytest.mark.parametrize("d,alpha", [(2, 1.5), (3, 1.2)])
    def test_inner_mass_equals_composite_rule(self, d, alpha):
        # the mass inside R from two Hankel integrals equals
        # omega int_0^R K(r) r^(d-1) dr by 24-point Gauss-Legendre panels on
        # [0, 1, 5, 15, R] of oracle values; both add the same residue tail
        r_split = 40.0
        omega = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
        weight = oracle.stable_weight(d, alpha, 0.0, 1.0)
        edges = np.array([0.0, 1.0, 5.0, 15.0, r_split])
        x, w = np.polynomial.legendre.leggauss(24)
        inner = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            for xi, wi in zip(x, w):
                r = 0.5 * (a + b) + 0.5 * (b - a) * xi
                k = lk.hankel_oracle(weight, d, r, tol=1e-10).value
                inner += 0.5 * (b - a) * wi * omega * k * r ** (d - 1)
        terms = lk.stable_series(lk.KernelSpec(d=d, alpha=alpha), r_split
                                 ).diagnostics["terms"]
        tail = omega * sum(c.coefficient * r_split ** -(c.n * alpha) / (c.n * alpha)
                           for c in terms if c.n > 0)
        mass = lk.normalization_check(lk.KernelSpec(d=d, alpha=alpha), r_split)
        assert abs((mass - tail) - inner) <= 1e-10

    @pytest.mark.parametrize("d,alpha", [(2, 1.5), (3, 1.2), (5, 2.0)])
    def test_at_most_two_oracle_calls(self, monkeypatch, d, alpha):
        # the mass inside r_split is two Hankel integrals (one at d = 2),
        # not a quadrature over r of oracle values
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        real = oracle.hankel_oracle
        monkeypatch.setattr(oracle, "hankel_oracle", counted)
        lk.normalization_check(lk.KernelSpec(d=d, alpha=alpha))
        assert 1 <= len(calls) <= 2


def _mp_kernel(d, beta, r, eta):
    """(2 pi)^(-d/2) r^(1-d/2) int_0^inf J_(d/2-1)(r s) s^(d/2+beta)
    e^(-eta(s)) ds on the real axis, at 30 digits, split every 0.5 in s
    up to the first integer ``top`` where the weight is below e^-80."""
    with mp.workdps(30):
        r, beta, nu = mp.mpf(r), mp.mpf(beta), mp.mpf(d) / 2 - 1
        top = 1
        while (nu + 1 + beta) * mp.log(top) - eta(mp.mpf(top)) > -80:
            top += 1
        val = mp.quad(lambda s: mp.besselj(nu, r * s) * s ** (nu + 1 + beta)
                      * mp.exp(-eta(s)), mp.linspace(0, top, 2 * top + 1))
        return float((2 * mp.pi) ** (-nu - 1) * r ** -nu * val)


# {index: (spec, r, ref)} for the odd-d stable points of ``oracle.json``
_ODD_POOL = {i: (lk.KernelSpec(p["d"], p["alpha"], p["beta"]), p["r"], p["ref"])
             for i, p in enumerate(json.loads(
                 (POOL / "oracle.json").read_text())["stable"]) if p["d"] % 2}


class TestRay:
    """Odd d: the oracle on the rotated ray (``oracle._ray``)."""

    def test_pool_covers_the_odd_points(self):
        assert len(_ODD_POOL) == 7

    @pytest.mark.parametrize("key", _ODD_POOL)
    def test_frozen_references(self, key):
        spec, r, ref = _ODD_POOL[key]
        res = lk.stable_oracle(spec, r)
        assert abs(res.value - ref) <= 1e-13 * abs(ref)
        assert abs(res.value - ref) <= res.est_error + 1e-15 * abs(ref)
        # a timing-free guard on the cost
        assert res.diagnostics["nodes"] <= 600

    @pytest.mark.parametrize("d,alpha,beta,r", [
        (5, 1.5, 0.5, 0.7), (7, 1.2, 2.0, 1.0), (9, 1.8, 1.3, 2.0),
        (5, 1.5, 4.0, 1.0), (3, 1.5, 4.0, 1.0)])
    def test_against_mpmath(self, d, alpha, beta, r):
        # the n >= 1 terms of the Hankel polynomial, and beta = 4, whose
        # Gaussian part is the Laguerre closed form
        res = lk.stable_oracle(lk.KernelSpec(d, alpha, beta), r)
        ref = _mp_kernel(d, beta, r, lambda s: s ** mp.mpf(alpha))
        assert abs(res.value - ref) <= 1e-13 * abs(ref)
        assert abs(res.value - ref) <= res.est_error

    @pytest.mark.parametrize("alpha,beta", [(1.5, 0.0), (0.7, 0.5), (1.2, 2.0)])
    def test_large_r_against_series(self, alpha, beta):
        spec = lk.KernelSpec(3, alpha, beta)
        res, ser = lk.stable_oracle(spec, 1e6), lk.stable_series(spec, 1e6)
        gap = abs(res.value - ser.value)
        assert gap <= 1e-13 * abs(ser.value)
        assert gap <= res.est_error + ser.est_error

    @pytest.mark.parametrize("alpha,beta", [(1.5, 0.0), (1.2, 2.0), (0.7, 0.5)])
    def test_small_r_against_origin(self, alpha, beta):
        spec = lk.KernelSpec(3, alpha, beta)
        res = lk.stable_oracle(spec, 1e-3)
        assert "nodes" in res.diagnostics
        origin = lk.kernel_at_origin(spec)
        assert abs(res.value - origin) <= 1e-4 * origin
        if alpha >= 1.0:
            ser = lk.small_r_series(spec, 1e-3)
            assert abs(res.value - ser.value) <= res.est_error + ser.est_error

    @pytest.mark.parametrize("beta,closed", [
        (0.0, lambda r: lk.gaussian_kernel(3, 1.0, r)),
        (2.0, lambda r: lk.gaussian_kernel(3, 1.0, r) * (1.5 - 0.25 * r * r))])
    def test_gaussian(self, beta, closed):
        # alpha = 2, even beta: nothing is left on the ray
        for r in (0.3, 2.0, 9.0):
            res = lk.stable_oracle(lk.KernelSpec(3, 2.0, beta), r)
            assert abs(res.value - closed(r)) <= res.est_error + 1e-15 * abs(closed(r))

    def test_scaling(self):
        # t != 1 goes through scaling_reduce: the value and its estimate
        # scale alike
        spec = lk.KernelSpec(3, 1.2, 0.5, t=2.5)
        unit, r_unit, pref = lk.scaling_reduce(spec, 1.7)
        res, one = lk.stable_oracle(spec, 1.7), lk.stable_oracle(unit, r_unit)
        assert res.value == pref * one.value
        assert res.est_error == pref * one.est_error

    def test_cancelling_terms_take_the_panels(self):
        # at d = 5 and r = 1e-3 the Hankel terms cancel to ~1e-9 of their
        # size, beyond tol: the Bessel-zero panels answer instead
        spec = lk.KernelSpec(5, 1.5, 0.0)
        res = lk.stable_oracle(spec, 1e-3)
        assert "panels" in res.diagnostics
        assert abs(res.value - lk.kernel_at_origin(spec)) <= 1e-5 * res.value

    @pytest.mark.parametrize("d,alpha,beta,r", [
        (3, 0.05, 0.0, 1e-2), (3, 1.999, 2.0, 1e4), (3, 0.5, 10.0, 30.0),
        (21, 1.5, 0.0, 50.0), (3, 1.0, 0.0, 1e-9), (9, 0.3, 0.5, 1e3),
        (9, 1.5, 0.0, 1e-60), (5, 1.5, 0.0, 1e-110)])
    def test_no_floating_point_warnings(self, d, alpha, beta, r):
        with np.errstate(all="raise", under="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                res = lk.stable_oracle(lk.KernelSpec(d, alpha, beta), r)
            except lk.LevyKernelError:
                return
        assert math.isfinite(res.value) and res.est_error >= 0.0
