"""Defect ledger over the benchmark's reference pool.

Every point of ``bench/pool/*.json`` runs once, at scale 1 (t = 1 for the
stable pools), through the route the benchmark drives: stable-sweep
grids through ``stable_mb`` (what the CLI's ``sweep --method mb`` calls),
point-mix through ``evaluate``, symbols through ``general_kernel_mb`` and,
at t = 1, ``symbol_oracle``, the oracle pool through ``stable_oracle``
and ``normalization_check``.  A point passes when it meets its pool's tol
and, where the route reports one, est_error plus the benchmark's
``ROUNDING_FLOOR``·|ref| bounds its error.

The points that fail are listed in ``pool_ledger.json`` with the checks
they miss, and every other point must pass.  Outside the stable-sweep
pool each entry runs as a strict xfail: a fix turns it into XPASS, which
fails, so its entry must leave and the ledger only shrinks.  A
stable-sweep grid (400 points) is one test, which asks its failing
points to be exactly its ledger entries, to the same effect.  Rebuild
the ledger from a run, never by hand:

    PYTHONPATH=src python tests/test_pool_ledger.py

which prints the entries that leave the ledger on disk and those that
come in before it rewrites the file.
"""

import functools
import importlib.util
import json
import os

import numpy as np
import pytest

import levykernel as lk

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(HERE), "bench")
LEDGER_PATH = os.path.join(HERE, "pool_ledger.json")


def _bench_run():
    spec = importlib.util.spec_from_file_location(
        "bench_run", os.path.join(BENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ROUNDING_FLOOR = _bench_run().ROUNDING_FLOOR


def _pool(name):
    with open(os.path.join(BENCH, "pool", name), encoding="utf-8") as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def _symbol(kind, params):
    return lk.make_symbol(kind, **dict(params))


def _groups():
    """(keys, refs, tol, run) per call; ``run()`` returns one
    result per key, an Approximation or (normalization) a float."""
    out = []
    sweep = _pool("stable_sweep.json")
    for sp in sweep["specs"]:
        d, a, b = sp["d"], sp["alpha"], sp["beta"]
        grid = np.geomspace(sp["r_min"], sp["r_max"], sp["points"])
        out.append(([f"stable-sweep/{d}-{a}-{b}/{j}" for j in range(sp["points"])],
                    sp["ref"], sweep["tol"],
                    functools.partial(lk.stable_mb, lk.KernelSpec(d, a, b), grid)))
    mix = _pool("point_mix.json")
    for i, p in enumerate(mix["points"]):
        spec = lk.KernelSpec(p["d"], p["alpha"], p["beta"])
        out.append(([f"point-mix/{i}"], [p["ref"]], mix["tol"],
                    lambda spec=spec, r=p["r"]: [lk.evaluate(spec, r)]))
    symbols = _pool("symbols.json")
    for sy in symbols["symbols"]:
        params = tuple(sorted(sy["params"].items()))
        name = "{}({})-{}-{}".format(sy["kind"], ",".join(f"{k}={v}" for k, v in params),
                                     sy["d"], sy["beta"])
        for j, p in enumerate(sy["points"]):
            routes = [("symbol-mb", lk.general_kernel_mb)]
            if p["t"] == 1.0:
                routes.append(("symbol-oracle", lk.symbol_oracle))
            for route, fn in routes:
                out.append(([f"{route}/{name}/{j}"], [p["ref"]], symbols["tol"],
                            lambda fn=fn, sy=sy, params=params, p=p: [fn(
                                _symbol(sy["kind"], params), sy["d"], sy["beta"],
                                p["t"], p["r"])]))
    oracle = _pool("oracle.json")
    for i, p in enumerate(oracle["stable"]):
        spec = lk.KernelSpec(p["d"], p["alpha"], p["beta"])
        out.append(([f"stable-oracle/{i}"], [p["ref"]], oracle["tol"],
                    lambda spec=spec, r=p["r"]: [lk.stable_oracle(spec, r)]))
    for i, p in enumerate(oracle["normalization"]):
        spec = lk.KernelSpec(p["d"], p["alpha"])
        out.append(([f"normalization/{i}"], [p["ref"]], p["tol"],
                    lambda spec=spec: [lk.normalization_check(spec)]))
    return out


_GROUPS = _groups()
_INDEX = {key: (g, j) for g, group in enumerate(_GROUPS)
          for j, key in enumerate(group[0])}
with open(LEDGER_PATH, encoding="utf-8") as _fh:
    LEDGER = json.load(_fh)


@functools.lru_cache(maxsize=None)
def _results(g):
    try:
        return _GROUPS[g][3]()
    except lk.LevyKernelError as exc:
        return type(exc).__name__


def defect(key):
    """The checks ``key`` misses, joined by '+' ('tol', 'bound'), the
    error class its call raised, or None when it passes."""
    g, j = _INDEX[key]
    _, refs, tol, _ = _GROUPS[g]
    results = _results(g)
    if isinstance(results, str):
        return results
    res, ref = results[j], refs[j]
    value, est = (res, None) if isinstance(res, float) else (res.value, res.est_error)
    err = abs(value - ref)
    missed = []
    if not err <= tol * abs(ref):
        missed.append("tol")
    if est is not None and not err <= est + ROUNDING_FLOOR * abs(ref):
        missed.append("bound")
    return "+".join(missed) or None


_SWEEP = "stable-sweep/"


@pytest.mark.parametrize("key", [
    pytest.param(key, marks=pytest.mark.xfail(strict=True, reason=miss))
    for key, miss in LEDGER.items() if not key.startswith(_SWEEP)])
def test_ledger_point(key):
    assert defect(key) is None


@pytest.mark.parametrize("pool", ["point-mix", "symbol-mb", "symbol-oracle",
                                  "stable-oracle", "normalization"])
def test_points_outside_ledger_pass(pool):
    failing = {key: miss for key in _INDEX
               if key.startswith(pool + "/") and key not in LEDGER
               and (miss := defect(key))}
    assert failing == {}


@pytest.mark.parametrize("g", [g for g, group in enumerate(_GROUPS)
                               if group[0][0].startswith(_SWEEP)],
                         ids=lambda g: _GROUPS[g][0][0].rsplit("/", 1)[0])
def test_sweep_grid(g):
    keys = _GROUPS[g][0]
    missed = {key: miss for key in keys if (miss := defect(key))}
    assert missed == {key: LEDGER[key] for key in keys if key in LEDGER}


def test_ledger_names_pool_points():
    assert set(LEDGER) <= set(_INDEX)


@pytest.mark.parametrize("scale", [1.0, 1.7])
def test_point_mix_warm_equals_cold(scale):
    # the contour route reads G's samples from a store shared by every t
    # and r of a unit kernel: each point-mix point, at t = scale**alpha,
    # r = scale * r, gives the same bits on a cleared store, on one that
    # the points after it have grown, and on one that all have warmed
    def run(p):
        spec = lk.KernelSpec(p["d"], p["alpha"], p["beta"], scale ** p["alpha"])
        res = lk.evaluate(spec, scale * p["r"])
        return res.value, res.est_error, res.diagnostics.get("nodes_used")

    points = _pool("point_mix.json")["points"]
    cold = []
    for p in points:
        lk.stable_kernel._stable_line.cache_clear()
        cold.append(run(p))
    lk.stable_kernel._stable_line.cache_clear()
    assert [run(p) for p in points[::-1]][::-1] == cold
    assert [run(p) for p in points] == cold


def ledger_diff(old, new):
    """Lines naming the entries (key and checks missed) that leave ``old``,
    '-', and that come into ``new``, '+': an entry whose checks change
    does both."""
    gone = sorted(old.items() - new.items())
    come = sorted(new.items() - old.items())
    return ([f"- {key}: {miss}" for key, miss in gone]
            + [f"+ {key}: {miss}" for key, miss in come]
            + [f"{len(gone)} entries leave, {len(come)} come in"])


def test_ledger_diff_names_each_entry_that_moves():
    old = {"a": "tol", "b": "bound", "c": "tol"}
    new = {"a": "tol", "b": "tol+bound", "d": "bound"}
    assert ledger_diff(old, new) == [
        "- b: bound", "- c: tol", "+ b: tol+bound", "+ d: bound",
        "2 entries leave, 2 come in"]


if __name__ == "__main__":
    found = {key: miss for key in _INDEX if (miss := defect(key))}
    print("\n".join(ledger_diff(LEDGER, found)))
    with open(LEDGER_PATH, "w", encoding="utf-8") as fh:
        json.dump(found, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(found)} of {len(_INDEX)} pool points in {LEDGER_PATH}")
