"""Regenerate the frozen reference pool that the benchmark checks against.

    python3 bench/gen_pool.py                 # every pool file
    python3 bench/gen_pool.py symbol oracle   # only the named parts

Uses mpmath only; it shares no code with ``levykernel``.  Stable kernels
come from the Mellin-Barnes integral, aiming at 40 or more digits, by the
trapezoid rule on the vertical line (one gamma-ratio sample per node,
shared by every r of a spec; each value is checked against the half-step
rule), or from the residue series at large r, or from the closed forms.
General-symbol kernels come from ``mpmath.quadosc`` on the Hankel
integral, computed at two working precisions that must agree.  The
output files in ``bench/pool/`` are what the benchmark reads; mpmath is
not needed to run it.  Full regeneration takes about 20 minutes on one
core.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time

import mpmath as mp

POOL_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool")
MAX_REF_ERR = 1e-20  # every frozen value is this accurate, relatively

# ---------------------------------------------------------------------------
# Stable kernels at t = 1.
# ---------------------------------------------------------------------------


def _mb_group(d, alpha, beta, c, rs, digits):
    """Mellin-Barnes values at t = 1 on the line Re z = c.

    K(r) = 1/(alpha pi^(d/2)) (1/2pi) int G(c+iv) r^(c+iv-d-beta) dv with
    G(z) = Gamma(z/alpha) Gamma((d+beta-z)/2) 2^(beta-z) / Gamma((z-beta)/2).
    The step is set from the pole distance so the coarse rule already
    meets ``digits``; the fine rule (half step) is the value, and the
    coarse-fine gap is its error estimate.  Returns [(value, err, gross)].
    """
    mp.mp.dps = digits + 16
    d, alpha, beta, c = mp.mpf(d), mp.mpf(alpha), mp.mpf(beta), mp.mpf(c)
    a = 0.9 * min(c, d + beta - c)
    lmax = max(abs(mp.log(r)) for r in rs) + mp.log(2)
    h = 2 * mp.pi / (lmax + (digits + 10) * mp.log(10) / a)
    hf = h / 2
    ln2 = mp.log(2)
    g = []
    gmax = mp.mpf(0)
    quiet = 0
    j = 0
    while True:
        z = mp.mpc(c, j * hf)
        gj = (mp.gamma(z / alpha) * mp.gamma((d + beta - z) / 2)
              * mp.rgamma((z - beta) / 2) * mp.exp((beta - z) * ln2))
        g.append(gj)
        m = abs(gj)
        gmax = max(gmax, m)
        quiet = quiet + 1 if m < mp.mpf(10) ** (-(digits + 6)) * gmax else 0
        if quiet >= 12 and j >= 24:
            break
        j += 1
        if j > 200000:
            raise RuntimeError("Mellin-Barnes integrand does not decay")
    gabs = mp.fsum(abs(x) for x in g)
    norm = 1 / (alpha * mp.pi ** (d / 2) * mp.pi)
    out = []
    for r in rs:
        r = mp.mpf(r)
        lr = mp.log(r)
        w = mp.expj(hf * lr)
        wj = mp.mpc(1)
        fine = g[0] / 2
        coarse = g[0] / 2
        for k in range(1, len(g)):
            wj *= w
            term = g[k] * wj
            fine += term
            if k % 2 == 0:
                coarse += term
        fr = r ** (c - d - beta) * norm
        vf = fr * hf * fine.real
        vc = fr * h * coarse.real
        gross = fr * hf * gabs
        err = abs(vf - vc) + gross * mp.mpf(10) ** (-(digits + 6))
        out.append((vf, err, gross))
    return out


def mb_values(d, alpha, beta, rs):
    """Mellin-Barnes values (mpf) and relative error estimates for rs > 0.

    r < 1 uses the line next to the right pole, r >= 1 the line next to
    the left one, which keeps the cancellation of the oscillating sum
    small; the working precision grows with whatever cancellation is left.
    """
    res = {}
    for c, group in ((d + beta - 1.0, [r for r in rs if r < 1.0]),
                     (1.0, [r for r in rs if r >= 1.0])):
        if not group:
            continue
        digits = 40
        for _ in range(4):
            vals = _mb_group(d, alpha, beta, c, group, digits)
            worst = max(float(mp.log10(gr / abs(v))) for v, _e, gr in vals)
            if digits - worst >= 28:
                break
            digits = int(math.ceil(worst)) + 30
        else:
            raise RuntimeError(f"cancellation too deep at d={d} alpha={alpha}")
        for r, (v, e, _g) in zip(group, vals):
            res[r] = (v, float(e / abs(v)))
    return [res[r] for r in rs]


def series_value(d, alpha, beta, r, digits=40):
    """Large-r residue series; None unless its terms fall below 1e-40
    of the sum before they turn upward (convergent for alpha < 1,
    asymptotic but extremely sharp at large r for alpha > 1)."""
    mp.mp.dps = digits + 20
    d, alpha, beta, r = mp.mpf(d), mp.mpf(alpha), mp.mpf(beta), mp.mpf(r)
    total = mp.mpf(0)
    big = mp.mpf(0)
    small = mp.inf
    for n in range(4000):
        e = n * alpha + beta
        rg = mp.rgamma(-e / 2)
        if rg == 0:
            continue
        term = ((-1) ** n / mp.factorial(n) * mp.gamma((d + e) / 2)
                * mp.mpf(2) ** e * rg * r ** (-d - e))
        total += term
        big = max(big, abs(term))
        small = min(small, abs(term))
        if alpha >= 1 and abs(term) > 1e6 * small:  # asymptotic and diverging
            return None
        if total != 0 and abs(term) < mp.mpf(10) ** (-digits) * abs(total) and n > 2:
            cancel = float(mp.log10(big / abs(total)))
            if cancel > 18:
                return None
            return total / mp.pi ** (d / 2)
    return None


def origin_value(d, alpha, beta):
    mp.mp.dps = 40
    d, alpha, beta = mp.mpf(d), mp.mpf(alpha), mp.mpf(beta)
    omega = 2 * mp.pi ** (d / 2) / mp.gamma(d / 2)
    return (2 * mp.pi) ** (-d) * omega * mp.gamma((d + beta) / alpha) / alpha


def closed_value(d, alpha, r):
    mp.mp.dps = 40
    d, r = mp.mpf(d), mp.mpf(r)
    if alpha == 2.0:
        return (4 * mp.pi) ** (-d / 2) * mp.exp(-r * r / 4)
    return (mp.gamma((d + 1) / 2) * mp.pi ** (-(d + 1) / 2)
            * (1 + r * r) ** (-(d + 1) / 2))


SERIES_FROM = 150.0


def stable_refs(d, alpha, beta, rs):
    """Reference values at t = 1: list of (float value, rel_err, source)."""
    out = [None] * len(rs)
    mb_idx = []
    for i, r in enumerate(rs):
        if r == 0.0:
            out[i] = (origin_value(d, alpha, beta), 1e-35, "origin")
        elif r >= SERIES_FROM and (s := series_value(d, alpha, beta, r)) is not None:
            out[i] = (s, 1e-35, "series")
        else:
            mb_idx.append(i)
    if mb_idx:
        vals = mb_values(d, alpha, beta, [rs[i] for i in mb_idx])
        for i, (v, e) in zip(mb_idx, vals):
            out[i] = (v, e, "mb")
    if beta == 0.0 and alpha in (1.0, 2.0):
        for i, r in enumerate(rs):
            exact = closed_value(d, alpha, r)
            gap = abs(out[i][0] - exact) / abs(exact)
            if gap > MAX_REF_ERR:
                raise RuntimeError(f"closed-form check failed d={d} "
                                   f"alpha={alpha} r={r}: {gap}")
            out[i] = (exact, 1e-35, "closed")
    for i, (v, e, src) in enumerate(out):
        if not e <= MAX_REF_ERR:
            raise RuntimeError(f"reference too loose d={d} alpha={alpha} "
                               f"beta={beta} r={rs[i]}: {e} ({src})")
        out[i] = (float(v), float(e), src)
    return out


def cross_check(d, alpha, beta, r):
    """Mellin-Barnes against the residue series where both are sharp."""
    s = series_value(d, alpha, beta, r)
    if s is None:
        return None
    (v, _e), = mb_values(d, alpha, beta, [r])
    return float(abs(v - s) / abs(s))


# ---------------------------------------------------------------------------
# General radial symbols.
# ---------------------------------------------------------------------------

SYMBOLS = [  # (kind, params, d, beta): three of each family
    ("stable", {"a": 0.9}, 3, 0.0),
    ("stable", {"a": 1.2}, 2, 0.5),
    ("stable", {"a": 1.5}, 3, 0.5),
    ("sum_stable", {"a": 0.6, "b": 1.4}, 3, 0.0),
    ("sum_stable", {"a": 0.8, "b": 1.2}, 2, 0.5),
    ("sum_stable", {"a": 1.0, "b": 1.9}, 3, 0.5),
    ("relativistic", {"alpha": 1.0, "m": 1.0}, 2, 0.0),
    ("relativistic", {"alpha": 0.8, "m": 2.0}, 3, 0.0),
    ("relativistic", {"alpha": 1.2, "m": 1.0}, 3, 0.5),
    ("perturbed", {"a": 1.0, "c": 1.0, "delta": 1.5}, 3, 0.0),
    ("perturbed", {"a": 0.6, "c": 0.3, "delta": 1.9}, 2, 0.5),
    ("perturbed", {"a": 1.2, "c": 2.0, "delta": 1.8}, 3, 0.5),
]
SYMBOL_T = [0.5, 1.0, 2.0]  # t = 1 feeds oracle-verify, the others symbol-cold
SYMBOL_R = [0.7, 1.5, 2.5]


def _eta(kind, p):
    f = {k: mp.mpf(v) for k, v in p.items()}
    if kind == "stable":
        return lambda s: s ** f["a"]
    if kind == "sum_stable":
        return lambda s: s ** f["a"] + s ** f["b"]
    if kind == "relativistic":
        return lambda s: (s * s + f["m"] ** 2) ** (f["alpha"] / 2) - f["m"] ** f["alpha"]
    return lambda s: s ** f["a"] + f["c"] * s ** f["delta"]


def hankel_value(kind, params, d, beta, t, r, dps):
    mp.mp.dps = dps
    eta = _eta(kind, params)
    d, beta, t, r = mp.mpf(d), mp.mpf(beta), mp.mpf(t), mp.mpf(r)
    nu = d / 2 - 1

    def f(s):
        return mp.besselj(nu, r * s) * s ** (d / 2 + beta) * mp.exp(-t * eta(s))

    val = mp.quadosc(f, [0, mp.inf], omega=r)
    return (2 * mp.pi) ** (-d / 2) * r ** (1 - d / 2) * val


def symbol_ref(kind, params, d, beta, t, r):
    if kind == "stable":
        a = params["a"]
        rp = t ** (-1.0 / a) * r
        (v, e, src), = stable_refs(d, a, beta, [rp])
        return v * t ** (-(d + beta) / a), e, src
    hi = hankel_value(kind, params, d, beta, t, r, 34)
    lo = hankel_value(kind, params, d, beta, t, r, 26)
    err = float(abs(hi - lo) / abs(hi))
    if err > MAX_REF_ERR:
        raise RuntimeError(f"quadosc disagrees with itself for {kind}{params} "
                           f"d={d} beta={beta} t={t} r={r}: {err}")
    return float(hi), err, "hankel"


# ---------------------------------------------------------------------------
# Workload pools.
# ---------------------------------------------------------------------------

SWEEP_SPECS = [  # (d, beta, alpha); 400-point log grids on [0.05, 30] at t = 1
    (2, 0.0, 0.1), (2, 0.0, 1.5), (2, 0.7, 1.99), (2, 2.0, 0.8),
    (3, 0.0, 1.2), (3, 0.7, 1.0), (3, 2.0, 0.5), (3, 2.0, 1.5),
    (10, 0.0, 0.5), (10, 0.7, 1.2), (10, 0.7, 1.99), (10, 2.0, 1.5),
]
SWEEP_GRID = (0.05, 30.0, 400)


def _geomspace(lo, hi, n):
    # same spacing rule as numpy.geomspace, endpoints exact
    step = (math.log10(hi) - math.log10(lo)) / (n - 1)
    out = [10.0 ** (math.log10(lo) + i * step) for i in range(n)]
    out[0], out[-1] = lo, hi
    return out


def build_sweep():
    lo, hi, n = SWEEP_GRID
    rs = _geomspace(lo, hi, n)
    specs = []
    for d, beta, alpha in SWEEP_SPECS:
        t0 = time.time()
        refs = stable_refs(d, alpha, beta, rs)
        specs.append({"d": d, "alpha": alpha, "beta": beta, "r_min": lo,
                      "r_max": hi, "points": n,
                      "ref": [v for v, _e, _s in refs],
                      "ref_rel_err_max": max(e for _v, e, _s in refs)})
        print(f"sweep d={d} alpha={alpha} beta={beta}: {time.time() - t0:.1f}s",
              flush=True)
    return {"tol": 1e-9, "specs": specs}


def _point_mix_specs():
    """(d, alpha, beta, [r' at t = 1]) chosen so `auto` takes every route:
    r' = 0 and alpha in {1, 2} with beta = 0 give closed forms, alpha = 2
    with beta > 0 and alpha >= 1 below r' = 1/2 the small-r series,
    alpha < 1 below 1/2 the oracle, and the rest the contour."""
    rng = random.Random(20121)
    ds = (2, 3, 5, 10)
    betas = (0.0, 0.5, 1.3, 2.0)
    specs = [(2, 1.5, 0.0, [0.6, 30.0, 1e6])]  # auto's wrong-sign point
    for alpha in (2.0, 1.0):
        for d in ds:
            specs.append((d, alpha, 0.0, [0.0, 0.3, 1.5]))
    for d in ds:
        specs.append((d, 2.0, rng.choice(betas[1:]), [0.2, 1.0, 3.0, 6.0]))
    for alpha in (1.1, 1.3, 1.5, 1.7, 1.9, 1.99):
        for d in rng.sample(ds, 2):
            specs.append((d, alpha, rng.choice(betas),
                          [0.0, 1e-6, 0.05, 0.3, 0.45, 0.55, 2.0, 8.0, 40.0,
                           300.0, 1e4, 1e6]))
    for d in ds[:2]:
        specs.append((d, 1.0, rng.choice(betas[1:]), [0.1, 0.4, 1.0, 10.0]))
    for alpha in (0.3, 0.5, 0.7, 0.9):
        for d in rng.sample(ds, 2):
            specs.append((d, alpha, rng.choice(betas),
                          [0.0, 0.02, 0.1, 0.3, 0.45, 0.6, 3.0, 20.0, 500.0,
                           1e6]))
    return specs


def build_point_mix():
    points = []
    for d, alpha, beta, rs in _point_mix_specs():
        t0 = time.time()
        for r, (v, e, src) in zip(rs, stable_refs(d, alpha, beta, rs)):
            points.append({"d": d, "alpha": alpha, "beta": beta, "r": r,
                           "ref": v, "ref_rel_err": e, "ref_source": src})
        print(f"point-mix d={d} alpha={alpha} beta={beta}: "
              f"{time.time() - t0:.1f}s", flush=True)
    return {"tol": 1e-9, "points": points}


def build_symbols():
    symbols = []
    for kind, params, d, beta in SYMBOLS:
        t0 = time.time()
        pts = []
        for t in SYMBOL_T:
            for r in SYMBOL_R:
                v, e, src = symbol_ref(kind, params, d, beta, t, r)
                pts.append({"t": t, "r": r, "ref": v, "ref_rel_err": e,
                            "ref_source": src})
        symbols.append({"kind": kind, "params": params, "d": d, "beta": beta,
                        "points": pts})
        print(f"symbol {kind}{params}: {time.time() - t0:.1f}s", flush=True)
    return {"tol": 1e-7, "symbols": symbols}


ORACLE_STABLE = [  # (d, alpha, beta, r' at t = 1)
    (2, 1.5, 0.0, 3.0), (2, 1.5, 0.0, 259.0), (2, 1.99, 0.0, 50.0),
    (2, 0.5, 0.0, 0.1), (2, 0.5, 0.0, 10.0), (2, 0.8, 0.7, 1.0),
    (2, 1.2, 2.0, 30.0), (2, 1.99, 0.7, 100.0), (3, 0.5, 0.7, 0.2),
    (3, 1.0, 0.7, 5.0), (3, 1.5, 0.0, 120.0), (3, 1.2, 0.0, 0.5),
    (3, 0.8, 2.0, 40.0), (3, 1.99, 0.0, 8.0), (10, 0.8, 0.0, 100.0),
    (10, 1.5, 0.0, 3.0), (10, 1.2, 0.7, 1.0), (2, 1.5, 0.7, 400.0),
    (3, 0.3, 0.0, 2.0), (2, 1.7, 2.0, 12.0),
]
NORMALIZATION = [(3, 1.5), (3, 1.2), (2, 1.0)]  # about 3 s each
CROSS_CHECKS = [  # (d, alpha, beta, r) where the series converges fast
    (2, 0.5, 0.0, 20.0), (3, 0.8, 2.0, 40.0), (10, 0.8, 0.0, 100.0),
    (3, 0.3, 0.0, 50.0), (2, 0.7, 2.0, 500.0), (5, 0.9, 1.3, 200.0),
]


def build_oracle():
    points = []
    for d, alpha, beta, r in ORACLE_STABLE:
        (v, e, src), = stable_refs(d, alpha, beta, [r])
        points.append({"d": d, "alpha": alpha, "beta": beta, "r": r,
                       "ref": v, "ref_rel_err": e, "ref_source": src})
        print(f"oracle d={d} alpha={alpha} beta={beta} r={r}", flush=True)
    checks = {}
    for d, alpha, beta, r in CROSS_CHECKS:
        gap = cross_check(d, alpha, beta, r)
        checks[f"{d},{alpha},{beta},{r}"] = gap
        if gap is None or gap > MAX_REF_ERR:
            raise RuntimeError(f"mb and series disagree at {d},{alpha},{beta},{r}: "
                               f"{gap}")
    return {"tol": 1e-11, "stable": points,
            "normalization": [{"d": d, "alpha": a, "ref": 1.0, "tol": 1e-5}
                              for d, a in NORMALIZATION],
            "mb_series_cross_checks": checks}


PARTS = {"sweep": ("stable_sweep.json", build_sweep),
         "point_mix": ("point_mix.json", build_point_mix),
         "symbol": ("symbols.json", build_symbols),
         "oracle": ("oracle.json", build_oracle)}


def main(argv):
    names = argv or list(PARTS)
    os.makedirs(POOL_DIR, exist_ok=True)
    for name in names:
        fname, build = PARTS[name]
        t0 = time.time()
        data = build()
        data["generator"] = {"mpmath": mp.__version__,
                             "max_ref_rel_err": MAX_REF_ERR,
                             "seconds": round(time.time() - t0, 1)}
        with open(os.path.join(POOL_DIR, fname), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {fname} in {time.time() - t0:.0f}s", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
