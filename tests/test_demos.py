"""Each demo runs to completion in a fresh interpreter, warnings as errors."""

import os
import pathlib
import subprocess
import sys

import pytest

import levykernel as lk

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos")
               .glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    src = pathlib.Path(lk.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-W", "error", str(demo)],
                         capture_output=True, text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip()
