"""Command-line front end.

Subcommands: eval | sweep | compare | envelope | symbols.  Single values
and reports come out as JSON, grid sweeps as CSV with a fixed header
``r,t,method,value,est_error`` and 17-significant-digit floats, so a
parsed sweep reproduces the in-memory table exactly.  Identical
invocations produce byte-identical output (fixed summation orders, no
timestamps).

Exit codes: 0 success, 2 usage error (a malformed ``--symbol``, a kernel
parameter out of range or a missing config file included), 3 numeric
failure (a JSON diagnostic goes to stdout in that case).

An INI config file (section ``[levykernel]``) may set the default
``tol``; other keys are ignored.  The contour columns of ``sweep`` and
``compare`` (``mb``, and ``auto`` for a symbol) are one batched contour
call over the whole grid.
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
from .radial_symbol import (general_kernel_mb, general_leading_term,
                            make_symbol, perturbed_leading_term,
                            sum_symbol_envelope_check, symbol_registry)
from .stable_kernel import (KernelSpec, envelope_ratio, evaluate,
                            leading_term, stable_mb)

_METHODS = ("auto", "mb", "series", "small-r", "closed", "oracle")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _config_tol(path) -> float:
    """The default ``tol``: 1e-9, or the config file's."""
    if not path:
        return 1e-9
    import configparser

    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise FileNotFoundError(f"config file {path!r} not found")
    return parser.getfloat("levykernel", "tol", fallback=1e-9)


def _parse_symbol(text):
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            text = fh.read()
    obj = json.loads(text)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError('expected a JSON object with a "kind"')
    kind = obj.pop("kind")
    return make_symbol(kind, **obj)


def _stable_spec(args):
    """The ``KernelSpec`` of a stable run (eval, sweep and compare without
    ``--symbol``, envelope --family stable), else None.  Raises
    ValueError for a parameter out of range."""
    if args.command == "envelope":
        stable = args.family == "stable"
    else:
        stable = args.command != "symbols" and args.symbol is None
    if not stable:
        return None
    return KernelSpec(d=args.d, alpha=args.alpha, beta=args.beta, t=args.t)


def _values(args, method, rs):
    """One result per r of ``rs``, for either a stable spec or a general
    symbol.  The contour columns (``mb`` for a stable spec, ``mb`` and
    ``auto`` for a symbol) are one batched call over the whole grid."""
    sym, c = args.symbol, args.contour_c
    if sym is not None:
        if method in ("auto", "mb"):
            return general_kernel_mb(sym, args.d, args.beta, args.t, rs,
                                     k=args.k, tol=args.tol, abscissa=c)
        if method == "oracle":
            return [symbol_oracle(sym, args.d, args.beta, args.t, float(r))
                    for r in rs]
        raise LevyKernelError(f"method {method!r} applies to stable specs only")
    if method == "mb":
        return stable_mb(args.spec, rs, abscissa=c, tol=args.tol)
    return [evaluate(args.spec, float(r), method=method, tol=args.tol,
                     abscissa=c)
            for r in rs]


def _emit(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_eval(args) -> int:
    sym, spec = args.symbol, args.spec
    if args.r == 0.0 and sym is None:
        a = evaluate(spec, 0.0)
    else:
        (a,) = _values(args, args.method, np.array([args.r]))
    diags = {k: v for k, v in a.diagnostics.items()
             if isinstance(v, (int, float, bool, str))}
    payload = {"value": a.value, "est_error": a.est_error,
               "method": a.method, "diagnostics": diags}
    payload["spec"] = _spec_dict(args, sym)
    if args.verify and args.r > 0:
        ref = (symbol_oracle(sym, args.d, args.beta, args.t, args.r)
               if sym is not None else stable_oracle(spec, args.r))
        gap = abs(payload["value"] - ref.value) / max(abs(ref.value), 1e-300)
        payload["verify"] = {"oracle_value": ref.value, "rel_gap": gap}
    _emit(args, _json_dumps(payload))
    return 0


def _spec_dict(args, sym):
    base = {"d": args.d, "beta": args.beta, "t": args.t,
            "version": __version__}
    if sym is not None:
        base["symbol"] = {"kind": sym.name, **sym.params}
    else:
        base["alpha"] = args.alpha
    return base


def _r_grid(args):
    if args.points < 1:
        raise LevyKernelError("need at least one grid point")
    if args.points == 1:
        return np.array([args.r_min])
    if args.log:
        if args.r_min <= 0:
            raise LevyKernelError("log spacing needs r_min > 0")
        return np.geomspace(args.r_min, args.r_max, args.points)
    return np.linspace(args.r_min, args.r_max, args.points)


def cmd_sweep(args) -> int:
    sym = args.symbol
    methods = args.method.split(",")
    for m in methods:
        if m not in _METHODS:
            raise LevyKernelError(f"unknown method {m!r}")
    if args.verify and "oracle" not in methods:
        methods = methods + ["oracle"]
    grid = _r_grid(args)
    origin = (grid == 0.0) & (sym is None)

    pts = grid[~origin]
    at_origin = [evaluate(args.spec, 0.0) for _ in range(int(origin.sum()))]
    rows = []
    for m in methods:
        rows += [(0.0, a.method, a.value, a.est_error) for a in at_origin]
        rows += [(float(r), a.method, a.value, a.est_error) for r, a in
                 zip(pts, _values(args, m, pts))]
    rows.sort(key=lambda row: (row[0], row[1]))

    lines = [f"# spec={json.dumps(_spec_dict(args, sym), sort_keys=True)}"]
    lines.append("r,t,method,value,est_error")
    for r, m, v, e in rows:
        lines.append(f"{_fmt(r)},{_fmt(args.t)},{m},{_fmt(v)},{_fmt(e)}")
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


def cmd_compare(args) -> int:
    sym, spec = args.symbol, args.spec
    methods = args.method.split(",")
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
    if sym is not None:
        try:
            lt = general_leading_term(sym, args.d, args.beta, args.t)
        except LevyKernelError:
            lt = None
            if sym.name in ("stable", "perturbed", "sum_stable"):
                a = sym.params.get("a", sym.params.get("alpha"))
                lt = perturbed_leading_term(a, 0.0, args.d, args.beta, args.t)
    else:
        term = leading_term(spec)
        pref = spec.t ** (-(spec.d + spec.beta) / spec.alpha)
        sc = spec.t ** (-1.0 / spec.alpha)
        lt = {"coefficient": term.coefficient * pref * sc ** (-term.exponent),
              "exponent": term.exponent}
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


def _add_common(p, with_alpha=True):
    p.add_argument("--d", type=int, default=2, help="dimension (>= 2)")
    if with_alpha:
        p.add_argument("--alpha", type=float, default=1.5,
                       help="stability index in (0, 2]")
    p.add_argument("--beta", type=float, default=0.0,
                   help="fractional derivative order (>= 0)")
    p.add_argument("--t", type=float, default=1.0, help="time (> 0)")
    p.add_argument("--symbol", type=str, default=None,
                   help='radial symbol as inline JSON or @file, e.g. '
                        '\'{"kind":"relativistic","alpha":1,"m":1}\'')
    p.add_argument("--k", type=int, default=None,
                   help="derivative order for the general-symbol contour")
    p.add_argument("--contour-c", dest="contour_c", type=float, default=None,
                   help="contour abscissa override")
    p.add_argument("--tol", type=float, default=None, help="target tolerance")
    p.add_argument("--out", type=str, default=None, help="write output here")
    p.add_argument("--config", type=str, default=None,
                   help="INI config file with [levykernel] defaults")


def _add_grid(p):
    p.add_argument("--r-min", dest="r_min", type=float, default=0.1)
    p.add_argument("--r-max", dest="r_max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--log", action="store_true", help="log-spaced grid")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="levykernel",
        description="Heat kernels of stable and radial Levy processes: "
                    "contour integrals, residue expansions, and an "
                    "oscillatory-quadrature oracle.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one kernel value")
    _add_common(pe)
    pe.add_argument("--r", type=float, required=True)
    pe.add_argument("--method", choices=_METHODS, default="auto")
    pe.add_argument("--verify", action="store_true",
                    help="run the oracle alongside and embed the gap")
    pe.set_defaults(func=cmd_eval)

    ps = sub.add_parser("sweep", help="evaluate over an r grid, emit CSV")
    _add_common(ps)
    _add_grid(ps)
    ps.add_argument("--method", type=str, default="auto",
                    help="comma-separated list from "
                         "{auto,mb,series,small-r,closed,oracle}")
    ps.add_argument("--verify", action="store_true",
                    help="add oracle rows and a max_rel_gap footer")
    ps.set_defaults(func=cmd_sweep)

    pc = sub.add_parser("compare", help="pairwise method differences and "
                                        "tail fits, as JSON")
    _add_common(pc)
    _add_grid(pc)
    pc.add_argument("--method", type=str, default="mb,oracle")
    pc.set_defaults(func=cmd_compare)

    pv = sub.add_parser("envelope", help="two-sided comparison ratios")
    _add_common(pv)
    _add_grid(pv)
    pv.add_argument("--family", choices=("stable", "sum"), default="stable")
    pv.add_argument("--a", type=float, default=0.5,
                    help="lower exponent of the two-power symbol")
    pv.add_argument("--b", type=float, default=1.5,
                    help="upper exponent of the two-power symbol")
    pv.set_defaults(func=cmd_envelope)

    pl = sub.add_parser("symbols", help="list the built-in radial symbols")
    pl.add_argument("--out", type=str, default=None)
    pl.add_argument("--config", type=str, default=None)
    pl.set_defaults(func=cmd_symbols)

    return ap


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: building it costs more than parsing."""
    return build_parser()


def main(argv=None) -> int:
    ap = _shared_parser()
    args = ap.parse_args(argv)
    try:
        tol = _config_tol(getattr(args, "config", None))
    except (FileNotFoundError, ValueError) as exc:
        ap.exit(2, f"config error: {exc}\n")
    if getattr(args, "tol", None) is None:
        args.tol = tol
    try:
        text = getattr(args, "symbol", None)
        args.symbol = _parse_symbol(text) if text else None
    except (OSError, ValueError, TypeError) as exc:
        ap.exit(2, f"symbol error: {exc}\n")
    try:
        args.spec = _stable_spec(args)
    except ValueError as exc:
        ap.exit(2, f"spec error: {exc}\n")
    try:
        return args.func(args)
    except (LevyKernelError, ValueError, ZeroDivisionError, OverflowError) as exc:
        sys.stdout.write(_json_dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
