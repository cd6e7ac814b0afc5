"""Hex dump of the kernel values the benchmark pool asks for, opt-in:

    PYTHONPATH=src python tests/bit_dump.py > dump.txt

One line per value: a label, then the value and its est_error as
``float.hex`` and the method, with ``nodes_used`` for a contour value,
or the exception's class and message.  Two dumps of the same pool from
two versions of the package are equal exactly when every value,
est_error and node count is bit for bit the same.  The calls are

* the point-mix pool at the scales 1, 0.6 and 1.7 (t = s^alpha,
  r = s r'), through ``stable_mb`` and ``evaluate``;
* the stable-sweep grids, through ``stable_mb`` on each whole grid and
  on every 37th point as a scalar;
* the symbol pool, through ``general_kernel_mb`` at each point, as a
  scalar and as a one-element grid.

It reads ``bench/pool/`` and writes nothing there.  The file name does
not match ``test_*.py``, so the test suite does not collect it.
"""

import json
import os

import numpy as np

import levykernel as lk

POOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "bench", "pool")
SCALES = (1.0, 0.6, 1.7)
EVERY = 37  # the stable-sweep grid points also dumped as scalars


def _pool(name):
    with open(os.path.join(POOL, name)) as f:
        return json.load(f)


def _line(label, call):
    try:
        res = call()
    except Exception as exc:  # noqa: BLE001 -- the failure is the output
        return [f"{label} {type(exc).__name__}: {exc}"]
    out = []
    for i, one in enumerate(res if isinstance(res, list) else [res]):
        nodes = one.diagnostics.get("nodes_used")
        tag = one.method if nodes is None else f"{nodes}/{one.method}"
        sub = f"[{i}]" if isinstance(res, list) else ""
        out.append(f"{label}{sub} {float(one.value).hex()} "
                   f"{float(one.est_error).hex()} {tag}")
    return out


def dump():
    """The dump's lines, in a fixed order."""
    lines = []
    for s in SCALES:
        for i, p in enumerate(_pool("point_mix.json")["points"]):
            d, a, b = p["d"], p["alpha"], p["beta"]
            spec = lk.KernelSpec(d, a, b, s ** a)
            r = s * p["r"]
            label = f"point-mix s={s} #{i}"
            lines += _line(label + " mb", lambda: lk.stable_mb(spec, r))
            lines += _line(label + " auto", lambda: lk.evaluate(spec, r))
    sweep = _pool("stable_sweep.json")
    for i, sp in enumerate(sweep["specs"]):
        spec = lk.KernelSpec(sp["d"], sp["alpha"], sp["beta"])
        grid = np.geomspace(sp["r_min"], sp["r_max"], sp["points"])
        label = f"sweep #{i}"
        lines += _line(label + " grid", lambda: lk.stable_mb(
            spec, grid, tol=sweep["tol"]))
        for j in range(0, grid.size, EVERY):
            lines += _line(f"{label} [{j}] scalar", lambda: lk.stable_mb(
                spec, float(grid[j]), tol=sweep["tol"]))
    for i, sy in enumerate(_pool("symbols.json")["symbols"]):
        sym = lk.make_symbol(sy["kind"], **sy["params"])
        for j, p in enumerate(sy["points"]):
            args = (sym, sy["d"], sy["beta"], p["t"])
            label = f"symbol #{i} point {j}"
            lines += _line(label + " scalar", lambda: lk.general_kernel_mb(
                *args, float(p["r"])))
            lines += _line(label + " grid", lambda: lk.general_kernel_mb(
                *args, np.array([p["r"]])))
    return lines


if __name__ == "__main__":
    print("\n".join(dump()))
