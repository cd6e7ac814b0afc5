"""Self-check of the benchmark at minimal size (about two minutes).

    python3 bench/selfcheck.py

1. Runs every workload in both modes with each cycle cut to two items and
   checks that the last line of output is a result object carrying every
   metric BENCHMARK.json lists for that mode, with its unit.
2. Re-runs point-mix inputs whose values meet their tolerance with every
   returned value perturbed by 1e-6 relative, and checks that each
   accuracy metric trips: no value meets its tolerance or its error
   bound, and rel_err_max reads 1e-6.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys

import run as bench

PERTURB = 1e-6


def fail(msg):
    print(f"selfcheck FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def check_emitted(spec):
    for workload in bench.WORKLOADS:
        for trace, mode in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(bench.BENCH, "run.py"),
                   "--workload", workload, "--seed", "1", "--seconds", "0",
                   "--trace", str(trace), "--max-items", "2"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=300)
            if proc.returncode != 0:
                fail(f"{workload} trace {trace} exited {proc.returncode}: "
                     f"{proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(result)}")
            if result["attempted"] < 1:
                fail(f"{workload}: nothing attempted")
            got = result["metrics"]
            for m in spec[mode]:
                entry = got.get(m["name"])
                if entry is None or entry.get("unit") != m["unit"] \
                        or not isinstance(entry.get("value"), (int, float)):
                    fail(f"{workload} trace {trace}: {m['name']} missing "
                         f"or without unit {m['unit']}: {entry}")
            if len(got) != len(spec[mode]):
                fail(f"{workload} trace {trace}: {len(got)} metrics emitted, "
                     f"{len(spec[mode])} listed")
            print(f"ok  {workload:<14} trace {trace}: "
                  f"{len(got)} metrics with units")


def check_perturbation():
    lk = bench.load_levykernel()
    workload = bench.PointMix(lk)
    original = lk.evaluate
    returned = []

    def captured(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]

    clean = []
    lk.evaluate = captured
    try:
        for item in workload.cycle(random.Random(0)):
            rec = bench.Recorder(lk)
            workload.run(item, rec)
            res = returned[-1]
            # exact values whose est_error is well below the perturbation
            if rec.rel_err_max < 1e-12 and res.est_error < 0.1 * PERTURB * abs(res.value):
                clean.append(item)
            if len(clean) == 20:
                break
    finally:
        lk.evaluate = original
    if len(clean) < 5:
        fail("too few point-mix values are accurate enough to perturb")

    def perturbed(*args, **kwargs):
        res = original(*args, **kwargs)
        return dataclasses.replace(res, value=res.value * (1.0 + PERTURB))

    rec = bench.Recorder(lk)
    lk.evaluate = perturbed
    try:
        for item in clean:
            workload.run(item, rec)
    finally:
        lk.evaluate = original
    if rec.tol_met != 0:
        fail(f"{rec.tol_met} perturbed values still met their tolerance")
    if rec.bound_held != 0:
        fail(f"{rec.bound_held} perturbed values still met their error bound")
    if not 0.5 * PERTURB < rec.rel_err_max < 2.0 * PERTURB:
        fail(f"rel_err_max {rec.rel_err_max:.3e} does not show the perturbation")
    print(f"ok  a {PERTURB:g} relative perturbation of {len(clean)} point-mix "
          f"values trips tol_met_frac, err_bound_held_frac and rel_err_max")


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_perturbation()
    check_emitted(spec)
    print("selfcheck passed")


if __name__ == "__main__":
    main()
