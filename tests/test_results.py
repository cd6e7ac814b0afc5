"""Every public route returns ``Approximation``: one result type.  The
package exports exactly its modules' public names."""

import math
import types

import numpy as np
import pytest

import levykernel as lk
from levykernel import cli, errors, stable_kernel

from _props import vertical_line_integral

METHODS = {"closed_form", "mb_contour", "residue_series", "small_r_series",
           "oracle", "line_integral", "mellin_origin"}

SPEC = lk.KernelSpec(d=2, alpha=1.5)
GRID = np.array([0.8, 2.0, 6.0])


def _symbol():
    return lk.make_symbol("relativistic", alpha=1.0, m=1.0)


def _gamma_line(x):
    # (1/2 pi i) int Gamma(z) x^-z dz = e^-x
    return lambda z: np.exp(lk.log_gamma(z) - np.asarray(z) * math.log(x))


def _gaussian_weight(s):
    return s * np.exp(-s * s)


ROUTES = {
    "evaluate-auto": lambda: lk.evaluate(SPEC, 2.0),
    "evaluate-auto-origin": lambda: lk.evaluate(SPEC, 0.0),
    "evaluate-mb": lambda: lk.evaluate(SPEC, 2.0, method="mb"),
    "evaluate-series": lambda: lk.evaluate(SPEC, 20.0, method="series"),
    "evaluate-small-r": lambda: lk.evaluate(SPEC, 0.3, method="small-r"),
    "evaluate-closed": lambda: lk.evaluate(lk.KernelSpec(d=3, alpha=1.0), 2.0,
                                           method="closed"),
    "evaluate-oracle": lambda: lk.evaluate(SPEC, 2.0, method="oracle"),
    "stable_mb": lambda: lk.stable_mb(SPEC, 2.0),
    "stable_mb-grid": lambda: lk.stable_mb(SPEC, GRID),
    "general_kernel_mb": lambda: lk.general_kernel_mb(_symbol(), 2, 0.5, 1.0,
                                                      2.0),
    "general_kernel_mb-grid": lambda: lk.general_kernel_mb(_symbol(), 2, 0.5,
                                                           1.0, GRID),
    "general_kernel_at_origin": lambda: lk.general_kernel_at_origin(
        _symbol(), 2, 0.5, 1.0),
    "stable_series": lambda: lk.stable_series(SPEC, 20.0),
    "small_r_series": lambda: lk.small_r_series(SPEC, 0.3),
    "stable_oracle": lambda: lk.stable_oracle(SPEC, 2.0),
    "symbol_oracle": lambda: lk.symbol_oracle(_symbol(), 2, 0.5, 1.0, 2.0),
    "hankel_oracle": lambda: lk.hankel_oracle(
        lk.stable_weight(2, 1.5, 0.0, 1.0), 2, 2.0),
    "oscillatory-panels": lambda: lk.oscillatory_bessel_integral(
        _gaussian_weight, 0.0, 3.0),
    "oscillatory-head-only": lambda: lk.oscillatory_bessel_integral(
        _gaussian_weight, 0.0, 0.1),
    "vertical_line_integral": lambda: vertical_line_integral(
        _gamma_line(2.0), lk.ContourSpec(1.0, 32.0)),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_returns_approximation(route):
    out = ROUTES[route]()
    results = out if isinstance(out, list) else [out]
    if route.endswith("-grid"):
        assert isinstance(out, list) and len(out) == GRID.size
    for res in results:
        assert isinstance(res, lk.Approximation)
        assert math.isfinite(res.est_error) and res.est_error >= 0.0
        # Python floats, not numpy scalars (the contour line's value is
        # complex)
        assert type(res.est_error) is float
        assert type(res.value) is (complex if route == "vertical_line_integral"
                                   else float)
        assert res.method in METHODS
        assert isinstance(res.diagnostics, dict)


def test_one_definition():
    assert lk.Approximation is stable_kernel.Approximation \
        is errors.Approximation
    # no other result or plan class is left beside it
    for module in (lk, lk.mellin, lk.oracle):
        assert [name for name, obj in vars(module).items()
                if isinstance(obj, type)
                and name.endswith(("Result", "Plan"))] == []


# names taken out of the package: contour wrappers that only restated one
# engine call, special functions that only tests called, and their error
DELETED = {"power_line_integral", "line_plan", "auto_truncation",
           "vertical_line_integral", "_phase_sums", "gamma", "gamma_residue",
           "reciprocal_gamma", "_near_nonpositive_integer",
           "scaled_exp_eta_derivative", "PoleHit"}


def test_public_surface():
    modules = (lk.mellin, lk.oracle, lk.radial_symbol, lk.specfun,
               lk.stable_kernel)
    expected = set().union(*(m.__all__ for m in modules))
    expected |= {name for name, obj in vars(errors).items()
                 if isinstance(obj, type) and obj.__module__ == errors.__name__}
    expected.add("__version__")
    exported = {name for name, obj in vars(lk).items()
                if (not name.startswith("_") or name == "__version__")
                and not isinstance(obj, types.ModuleType)}
    assert exported == expected
    for module in (lk, errors, cli) + modules:
        assert DELETED.isdisjoint(vars(module)), module.__name__


def test_line_integral_fields():
    res = vertical_line_integral(_gamma_line(2.0), lk.ContourSpec(1.0, 32.0),
                                 tol=1e-12)
    assert res.method == "line_integral"
    assert isinstance(res.value, complex)
    assert res.value.real == pytest.approx(math.exp(-2.0), rel=1e-11)
    assert set(res.diagnostics) == {"nodes_used", "tail_bound"}
    assert res.est_error >= res.diagnostics["tail_bound"]


def test_oscillatory_branches():
    head = lk.oscillatory_bessel_integral(_gaussian_weight, 0.0, 0.1)
    assert head.diagnostics == {"panels": 0, "depth": 3}
    panels = lk.oscillatory_bessel_integral(_gaussian_weight, 0.0, 3.0)
    assert panels.diagnostics["panels"] > 0
    assert panels.diagnostics["depth"] >= 3
