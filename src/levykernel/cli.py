"""Command-line front end: eval | sweep | compare | envelope | symbols.

Values and reports are JSON, sweeps CSV with header
``r,t,method,value,est_error`` and 17-significant-digit floats, so a
parsed sweep reproduces the table exactly; identical invocations give
byte-identical output.

Kernel flags (--d --alpha --beta --t --out) go on eval, sweep, compare
and envelope, route flags (--symbol --contour-c --tol) on eval, sweep
and compare; symbols takes --out alone.  eval, sweep and compare share
one value path, on which r = 0 is the origin value for every method
(exact for a stable spec, one Mellin moment for a symbol) and the
contour columns (``mb``, and ``auto`` for a symbol) are one batched call
over the whole grid.

Exit codes: 0 success, 3 numeric failure (a JSON diagnostic on stdout),
2 usage error, before any computation and with stdout empty: an unknown
flag or method, --r, --r-min or --r-max negative or not finite, --points
below 1, --log with --r-min <= 0, --tol not a finite number > 0, a
stable-only method (series, small-r, closed) with --symbol, a malformed
--symbol, a kernel parameter out of range (--alpha on stable runs only).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import LevyKernelError
from .oracle import stable_oracle, symbol_oracle
from .radial_symbol import (general_kernel_at_origin, general_kernel_mb,
                            general_leading_term, make_symbol,
                            perturbed_leading_term, sum_symbol_envelope_check,
                            symbol_registry)
from .stable_kernel import (KernelSpec, envelope_ratio, evaluate,
                            leading_term, stable_mb)

_METHODS = ("auto", "mb", "series", "small-r", "closed", "oracle")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _points(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return n


def _tolerance(text):
    tol = float(text)
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not finite and > 0")
    return tol


def _radius(text):
    r = float(text)
    if not 0.0 <= r < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not finite and >= 0")
    return r


def _method_list(text):
    """argparse ``type=`` of a comma-separated method list."""
    methods = text.split(",")
    for m in methods:
        if m not in _METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown method {m!r}; choose from {', '.join(_METHODS)}")
    return methods


def _parse_symbol(text):
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            text = fh.read()
    obj = json.loads(text)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError('expected a JSON object with a "kind"')
    kind = obj.pop("kind")
    return make_symbol(kind, **obj)


def _usage_error(args):
    """Resolve ``args.symbol`` and ``args.spec`` (a stable run's
    ``KernelSpec``, else None) of a run with kernel flags; return the
    usage error found, or None."""
    text = getattr(args, "symbol", None)
    try:
        args.symbol = _parse_symbol(text) if text else None
    except (OSError, ValueError, TypeError) as exc:
        return f"symbol error: {exc}"
    stable = args.symbol is None and getattr(args, "family", "") != "sum"
    try:  # --alpha enters no symbol's kernel
        spec = KernelSpec(d=args.d, alpha=args.alpha if stable else 1.0,
                          beta=args.beta, t=args.t)
    except ValueError as exc:
        return f"spec error: {exc}"
    args.spec = spec if stable else None
    if getattr(args, "log", False) and args.r_min <= 0:
        return "usage error: --log needs --r-min > 0"
    methods = getattr(args, "method", [])
    named = {methods} if isinstance(methods, str) else set(methods)
    if args.symbol is not None and named & {"series", "small-r", "closed"}:
        return "usage error: series, small-r and closed take no --symbol"
    return None


def _values(args, method, rs):
    """One result per r of ``rs``, of a stable spec or a general symbol.
    r = 0 is the origin value for every method, exact for a stable spec;
    the contour columns are one batched call over the whole grid."""
    sym, c = args.symbol, args.contour_c
    origin = np.flatnonzero(rs == 0.0)
    pts = np.delete(rs, origin)
    if not pts.size:
        out = []
    elif sym is not None and method == "oracle":
        out = [symbol_oracle(sym, args.d, args.beta, args.t, float(r))
               for r in pts]
    elif sym is not None:
        out = general_kernel_mb(sym, args.d, args.beta, args.t, pts,
                                tol=args.tol, abscissa=c)
    elif method == "mb":
        out = stable_mb(args.spec, pts, abscissa=c, tol=args.tol)
    else:
        out = [evaluate(args.spec, float(r), method=method, tol=args.tol,
                        abscissa=c) for r in pts]
    if origin.size:
        at_origin = (evaluate(args.spec, 0.0) if sym is None else
                     general_kernel_at_origin(sym, args.d, args.beta, args.t,
                                              tol=args.tol))
        for i in origin:
            out.insert(i, at_origin)
    return out


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_eval(args) -> int:
    sym = args.symbol
    (a,) = _values(args, args.method, np.array([args.r]))
    diags = {k: v for k, v in a.diagnostics.items()
             if isinstance(v, (int, float, bool, str))}
    payload = {"value": a.value, "est_error": a.est_error,
               "method": a.method, "diagnostics": diags,
               "spec": _spec_dict(args)}
    if args.verify and args.r > 0:
        ref = (symbol_oracle(sym, args.d, args.beta, args.t, args.r)
               if sym is not None else stable_oracle(args.spec, args.r))
        gap = abs(payload["value"] - ref.value) / max(abs(ref.value), 1e-300)
        payload["verify"] = {"oracle_value": ref.value,
                             "oracle_est_error": ref.est_error, "rel_gap": gap}
    _emit(args, _json_dumps(payload))
    return 0


def _spec_dict(args):
    sym = args.symbol
    kind = ({"alpha": args.alpha} if sym is None
            else {"symbol": {"kind": sym.name, **sym.params}})
    return {"d": args.d, "beta": args.beta, "t": args.t,
            "version": __version__, **kind}


def _r_grid(args):
    if args.points == 1:
        return np.array([args.r_min])
    if args.log:
        return np.geomspace(args.r_min, args.r_max, args.points)
    return np.linspace(args.r_min, args.r_max, args.points)


def cmd_sweep(args) -> int:
    methods = args.method
    if args.verify and "oracle" not in methods:
        methods = methods + ["oracle"]
    grid = _r_grid(args)
    rows = []
    for m in methods:
        rows += [(float(r), a.method, a.value, a.est_error) for r, a in
                 zip(grid, _values(args, m, grid))]
    rows.sort(key=lambda row: (row[0], row[1]))

    lines = [f"# spec={json.dumps(_spec_dict(args), sort_keys=True)}"]
    lines.append("r,t,method,value,est_error")
    row = f"%.17g,{_fmt(args.t)},%s,%.17g,%.17g"  # %.17g is _fmt
    lines += [row % r for r in rows]
    if len(methods) > 1:
        gap = _max_rel_gap(rows)
        lines.append(f"# max_rel_gap={_fmt(gap)}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _max_rel_gap(rows) -> float:
    by_r: dict[float, list[float]] = {}
    for r, _m, v, _e in rows:
        by_r.setdefault(r, []).append(v)
    gap = 0.0
    for vals in by_r.values():
        if len(vals) > 1:
            scale = max(abs(v) for v in vals)
            if scale > 0:
                gap = max(gap, (max(vals) - min(vals)) / scale)
    return gap


def parse_sweep_csv(text: str):
    """Parse the CSV emitted by ``sweep`` back into (metadata, rows)."""
    meta = {}
    rows = []
    for line in text.strip().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            try:
                meta[key] = json.loads(val)
            except json.JSONDecodeError:
                meta[key] = float(val)
        elif line and not line.startswith("r,"):
            r, t, m, v, e = line.split(",")
            rows.append((float(r), float(t), m, float(v), float(e)))
    return meta, rows


def _tail_law(args):
    """The run's first-order far-field law {coefficient, exponent}, or
    None where there is none (alpha = 2, relativistic at even beta)."""
    sym, spec = args.symbol, args.spec
    if sym is None:
        try:
            term = leading_term(spec)
        except LevyKernelError:
            return None
        pref = spec.t ** (-(spec.d + spec.beta) / spec.alpha)
        sc = spec.t ** (-1.0 / spec.alpha)
        coef = term.coefficient * pref * sc ** (-term.exponent)
        return {"coefficient": coef, "exponent": term.exponent}
    try:
        return general_leading_term(sym, args.d, args.beta, args.t)
    except LevyKernelError:
        if sym.name not in ("stable", "perturbed", "sum_stable"):
            return None
        return perturbed_leading_term(sym.alpha_index, 0.0, args.d,
                                      args.beta, args.t)


def cmd_compare(args) -> int:
    methods = args.method
    grid = _r_grid(args)
    values = {m: np.array([a.value for a in _values(args, m, grid)])
              for m in methods}

    pairwise = {}
    for i, m1 in enumerate(methods):
        for m2 in methods[i + 1:]:
            scale = np.maximum(np.abs(values[m1]), np.abs(values[m2]))
            scale[scale == 0] = 1.0
            pairwise[f"{m1}|{m2}"] = float(
                np.max(np.abs(values[m1] - values[m2]) / scale))
    if len(methods) == 1:
        pairwise[f"{methods[0]}|{methods[0]}"] = 0.0

    report = {"pairwise_max_rel_diff": pairwise, "r_grid": grid.tolist()}

    # tail behavior against the applicable first-order law
    lt = _tail_law(args)
    if lt is not None and grid.size >= 3 and np.all(grid > 0):
        ref = values[methods[0]]
        mask = np.abs(ref) > 0
        x = np.log(grid[mask])
        y = np.log(np.abs(ref[mask]))
        slope = float(np.polyfit(x, y, 1)[0])
        coef = float(np.sign(ref[mask][-1]) * math.exp(
            float(np.mean(y + lt["exponent"] * x))))
        report["tail_fit"] = {
            "fitted_slope": slope,
            "theory_slope": -lt["exponent"],
            "fitted_coefficient": coef,
            "theory_coefficient": lt["coefficient"],
            "coefficient_ratio": coef / lt["coefficient"],
        }
    _emit(args, _json_dumps(report))
    return 0


def cmd_envelope(args) -> int:
    grid = _r_grid(args)
    if args.family == "stable":
        out = envelope_ratio(args.spec, grid)
        out["holds"] = bool(np.isfinite(out["min_ratio"])
                            and np.isfinite(out["max_ratio"])
                            and out["max_ratio"] > 0)
    else:
        out = sum_symbol_envelope_check(args.d, args.a, args.b, args.t, grid)
    _emit(args, _json_dumps(out))
    return 0


def cmd_symbols(args) -> int:
    reg = symbol_registry()
    out = [{"kind": name, "params": params} for name, params in sorted(reg.items())]
    _emit(args, _json_dumps(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    kernel = argparse.ArgumentParser(add_help=False)
    kernel.add_argument("--d", type=int, default=2, help="dimension (>= 2)")
    kernel.add_argument("--alpha", type=float, default=1.5,
                        help="stability index in (0, 2]")
    kernel.add_argument("--beta", type=float, default=0.0,
                        help="fractional derivative order (>= 0)")
    kernel.add_argument("--t", type=float, default=1.0, help="time (> 0)")
    kernel.add_argument("--out", help="write output here")

    route = argparse.ArgumentParser(add_help=False)
    route.add_argument("--symbol", help="radial symbol as inline JSON or "
                       "@file, e.g. '{\"kind\":\"stable\",\"a\":1.2}'")
    route.add_argument("--contour-c", dest="contour_c", type=float,
                       help="contour abscissa override")
    route.add_argument("--tol", type=_tolerance, default=1e-9,
                       help="target tolerance, a finite number > 0")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--r-min", dest="r_min", type=_radius, default=0.1)
    grid.add_argument("--r-max", dest="r_max", type=_radius, default=10.0)
    grid.add_argument("--points", type=_points, default=20)
    grid.add_argument("--log", action="store_true", help="log-spaced grid")

    ap = argparse.ArgumentParser(
        prog="levykernel",
        description="Heat kernels of stable and radial Levy processes: "
                    "contour integrals, residue expansions, and an "
                    "oscillatory-quadrature oracle.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", parents=[kernel, route],
                        help="evaluate one kernel value")
    pe.add_argument("--r", type=_radius, required=True)
    pe.add_argument("--method", choices=_METHODS, default="auto")
    pe.add_argument("--verify", action="store_true",
                    help="run the oracle alongside and embed the gap")
    pe.set_defaults(func=cmd_eval)

    ps = sub.add_parser("sweep", parents=[kernel, route, grid],
                        help="evaluate over an r grid, emit CSV")
    ps.add_argument("--method", type=_method_list, default="auto",
                    help="comma-separated list of " + ",".join(_METHODS))
    ps.add_argument("--verify", action="store_true",
                    help="add oracle rows and a max_rel_gap footer")
    ps.set_defaults(func=cmd_sweep)

    pc = sub.add_parser("compare", parents=[kernel, route, grid],
                        help="pairwise method differences and tail fits, "
                             "as JSON")
    pc.add_argument("--method", type=_method_list, default="mb,oracle",
                    help="comma-separated list, as for sweep")
    pc.set_defaults(func=cmd_compare)

    pv = sub.add_parser("envelope", parents=[kernel, grid],
                        help="two-sided comparison ratios")
    pv.add_argument("--family", choices=("stable", "sum"), default="stable")
    pv.add_argument("--a", type=float, default=0.5,
                    help="lower exponent of the two-power symbol")
    pv.add_argument("--b", type=float, default=1.5,
                    help="upper exponent of the two-power symbol")
    pv.set_defaults(func=cmd_envelope)

    pl = sub.add_parser("symbols", help="list the built-in radial symbols")
    pl.add_argument("--out", help="write output here")
    pl.set_defaults(func=cmd_symbols)

    return ap


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: building it costs more than parsing."""
    return build_parser()


def main(argv=None) -> int:
    ap = _shared_parser()
    args = ap.parse_args(argv)
    problem = None if args.command == "symbols" else _usage_error(args)
    if problem:
        ap.exit(2, problem + "\n")
    try:
        return args.func(args)
    except (LevyKernelError, ValueError, ZeroDivisionError, OverflowError) as exc:
        sys.stdout.write(_json_dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
