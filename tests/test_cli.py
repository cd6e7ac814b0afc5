import json
import math
import shlex
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import levykernel as lk
from levykernel.cli import build_parser, main, parse_sweep_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestEval:
    def test_closed_poisson_value(self, capsys):
        code, out = run_cli(capsys, "eval", "--d", "2", "--alpha", "1",
                            "--beta", "0", "--t", "1", "--r", "1",
                            "--method", "closed")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(
            2.0 ** -1.5 / (2.0 * math.pi), rel=1e-12)
        assert payload["method"] == "closed_form"

    def test_origin_gaussian(self, capsys):
        code, out = run_cli(capsys, "eval", "--d", "2", "--alpha", "2",
                            "--r", "0")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(
            1.0 / (4.0 * math.pi), rel=1e-12)

    def test_symbol_eval_with_verify(self, capsys):
        code, out = run_cli(capsys, "eval",
                            "--symbol", '{"kind":"relativistic","alpha":1,"m":1}',
                            "--d", "2", "--beta", "0.5", "--t", "1",
                            "--r", "4", "--method", "mb", "--verify")
        assert code == 0
        payload = json.loads(out)
        assert math.isfinite(payload["value"])
        assert payload["est_error"] >= 0
        assert payload["verify"]["rel_gap"] < 1e-6

    def test_verify_reports_the_oracle_estimate(self, capsys):
        # at d = 2, alpha = 0.1, r = 5 the oracle's own est_error is large
        # against its value, so rel_gap alone says little there
        code, out = run_cli(capsys, "eval", "--d", "2", "--alpha", "0.1",
                            "--r", "5", "--verify")
        assert code == 0
        verify = json.loads(out)["verify"]
        assert set(verify) == {"oracle_value", "oracle_est_error", "rel_gap"}
        ref = lk.stable_oracle(lk.KernelSpec(d=2, alpha=0.1), 5.0)
        assert verify["oracle_value"] == ref.value
        assert verify["oracle_est_error"] == ref.est_error > 0
        code, out = run_cli(capsys, "eval", "--d", "2", "--alpha", "0.1",
                            "--r", "5")
        assert "verify" not in json.loads(out)

    @pytest.mark.parametrize("method", ["mb", "oracle"])
    def test_symbol_origin(self, capsys, method):
        # relativistic(1, 1) at d = 2, beta = 0, t = 1:
        # (1/2 pi) int_0^inf s e^{1 - sqrt(s^2+1)} ds = 1/pi
        code, out = run_cli(capsys, "eval", "--symbol", RELATIVISTIC,
                            "--r", "0", "--method", method)
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "mellin_origin"
        assert payload["value"] == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert abs(payload["value"] - 1.0 / math.pi) <= payload["est_error"]

    def test_numeric_failure_exit_code(self, capsys):
        # Gamma(d/alpha) overflows on the line: a DomainError, not a usage
        # error
        code, out = run_cli(capsys, "eval", "--d", "10", "--alpha", "0.01",
                            "--r", "1", "--method", "mb")
        assert code == 3
        assert json.loads(out)["error"] == "DomainError"

    @pytest.mark.parametrize("flag,value", [
        ("--alpha", "3.0"), ("--d", "1"), ("--t", "0"), ("--beta", "-1"),
        ("--beta", "nan"), ("--beta", "inf"), ("--t", "inf")])
    def test_spec_out_of_range_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--r", "1", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("spec error: ")

    @pytest.mark.parametrize("run", [
        ["eval", "--r", "1", "--symbol", '{"kind":"stable","a":1.2}'],
        ["sweep", "--points", "3", "--symbol", '{"kind":"stable","a":1.2}'],
        ["compare", "--points", "3", "--symbol", '{"kind":"stable","a":1.2}'],
        ["envelope", "--family", "sum", "--points", "3"]],
        ids=["eval", "sweep", "compare", "envelope-sum"])
    @pytest.mark.parametrize("flag,value", [
        ("--d", "1"), ("--t", "0"), ("--t", "-1"), ("--t", "nan"),
        ("--beta", "-0.5"), ("--beta", "inf")])
    def test_kernel_flags_of_every_run_are_checked(self, capsys, run, flag,
                                                   value):
        # --d, --beta and --t follow the rule of KernelSpec on symbol and
        # two-power envelope runs too
        with pytest.raises(SystemExit) as exc:
            main(run + [flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("spec error: ")

    def test_alpha_is_ignored_in_symbol_runs(self, capsys):
        code, out = run_cli(capsys, "eval", "--r", "1", "--alpha", "3",
                            "--symbol", '{"kind":"stable","a":1.2}')
        assert code == 0 and math.isfinite(json.loads(out)["value"])

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--d", "2", "--r", "1", "--method", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", [
        '{"alpha":1}', '{"kind":"stable","x":1}', '[1]',
        '@/nonexistent.json', '{"kind":"nope"}'])
    def test_malformed_symbol_is_a_usage_error(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--r", "1", "--symbol", text])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("symbol error: ")


class TestSharedParser:
    def test_invocations_stay_independent(self, capsys):
        # main builds its parser once per process and reuses it
        sweep = ["sweep", "--d", "3", "--alpha", "1.2", "--r-min", "0.5",
                 "--r-max", "4", "--points", "5", "--log", "--method", "mb"]
        runs = [sweep, ["eval", "--d", "2", "--beta", "0.7", "--r", "1.5"],
                ["eval", "--d", "2", "--r", "1", "--method", "bogus"], sweep]
        codes, outs = [], []
        for argv in runs:
            try:
                codes.append(main(list(argv)))
            except SystemExit as exc:
                codes.append(exc.code)
            outs.append(capsys.readouterr().out)
        assert codes == [0, 0, 2, 0]
        assert outs[0] and outs[3] == outs[0]
        assert json.loads(outs[1])["value"] > 0
        assert build_parser() is not build_parser()


class TestSweep:
    def test_row_count_and_round_trip(self, capsys):
        code, out = run_cli(capsys, "sweep", "--d", "2", "--alpha", "1.5",
                            "--r-min", "0.5", "--r-max", "8", "--points", "3",
                            "--log", "--method", "mb,oracle")
        assert code == 0
        meta, rows = parse_sweep_csv(out)
        assert len(rows) == 6  # 3 grid points x 2 methods
        assert "spec" in meta and meta["spec"]["alpha"] == 1.5
        assert meta["max_rel_gap"] <= 1e-6
        # round trip: re-emitting from parsed rows reproduces the table
        header = "r,t,method,value,est_error"
        body = [line for line in out.strip().splitlines()
                if not line.startswith("#") and line != header]
        rebuilt = [f"{r:.17g},{t:.17g},{m},{v:.17g},{e:.17g}"
                   for r, t, m, v, e in rows]
        assert body == rebuilt
        # rows sorted by (r, method)
        keys = [(r, m) for r, _t, m, _v, _e in rows]
        assert keys == sorted(keys)

    def test_bit_reproducibility(self, capsys):
        args = ("sweep", "--d", "2", "--alpha", "1.2", "--r-min", "0.6",
                "--r-max", "5", "--points", "4", "--method", "auto")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_symbol_mb_rows_equal_eval(self, capsys):
        # a symbol's mb column is one contour call over the whole grid;
        # each row must equal the single-point eval value exactly
        sym = ("--symbol", '{"kind":"relativistic","alpha":1,"m":1}',
               "--d", "2", "--beta", "0.5", "--method", "mb")
        code, out = run_cli(capsys, "sweep", *sym, "--r-min", "0.5",
                            "--r-max", "20", "--points", "4", "--log")
        assert code == 0
        _, rows = parse_sweep_csv(out)
        assert len(rows) == 4
        for r, _t, m, v, e in rows:
            code, out = run_cli(capsys, "eval", *sym, "--r", repr(r))
            assert code == 0
            single = json.loads(out)
            assert (m, v, e) == (single["method"], single["value"],
                                 single["est_error"])

    def test_symbol_mb_against_oracle(self, capsys):
        code, out = run_cli(capsys, "sweep", "--symbol", RELATIVISTIC,
                            "--r-min", "0.5", "--r-max", "8", "--points", "3",
                            "--log", "--method", "mb,oracle")
        assert code == 0
        meta, rows = parse_sweep_csv(out)
        assert {m for _r, _t, m, _v, _e in rows} == {"mb_contour", "oracle"}
        assert meta["max_rel_gap"] <= 1e-6

    def test_symbol_origin_for_every_method(self, capsys):
        # a symbol's r = 0 row is (2 pi)^-d omega_{d-1} M_t(d + beta) for
        # every method; here (1/2 pi) int_0^inf s e^{-(sqrt(s^2+1) - 1)} ds
        code, out = run_cli(capsys, "sweep", "--symbol", RELATIVISTIC,
                            "--r-min", "0", "--r-max", "2", "--points", "3",
                            "--method", "mb,oracle")
        assert code == 0
        at_origin = [row for row in parse_sweep_csv(out)[1] if row[0] == 0.0]
        assert len(at_origin) == 2 and at_origin[0] == at_origin[1]
        with mp.workdps(30):
            ref = float(mp.quad(lambda s: s * mp.exp(1 - mp.sqrt(s * s + 1)),
                                [0, 1, 10, mp.inf]) / (2 * mp.pi))
        _r, _t, _m, value, est = at_origin[0]
        assert abs(value - ref) <= 1e-12 * ref
        assert abs(value - ref) <= est

    def test_origin_is_exact_for_every_method(self, capsys):
        code, out = run_cli(capsys, "sweep", "--r-min", "0", "--r-max", "2",
                            "--points", "3", "--method", "auto,mb,series")
        assert code == 0
        at_origin = [row for row in parse_sweep_csv(out)[1] if row[0] == 0.0]
        exact = lk.evaluate(lk.KernelSpec(d=2, alpha=1.5), 0.0)
        assert [(m, v, e) for _r, _t, m, v, e in at_origin] == [
            (exact.method, exact.value, exact.est_error)] * 3

    def test_mb_far_field_rows_bound_their_error(self, capsys):
        # out to r = 1e30, where the trapezoid's first levels alias the
        # phase of r^z: every contour row's est_error covers its distance
        # from the converged large-r series
        spec = lk.KernelSpec(d=2, alpha=1.5, beta=0.7)
        code, out = run_cli(capsys, "sweep", "--d", "2", "--alpha", "1.5",
                            "--beta", "0.7", "--r-min", "1e10", "--r-max",
                            "1e30", "--points", "5", "--log", "--method",
                            "mb")
        assert code == 0
        _, rows = parse_sweep_csv(out)
        assert len(rows) == 5 and rows[-1][0] == 1e30
        for r, _t, m, v, e in rows:
            series = lk.stable_series(spec, r)
            assert m == "mb_contour" and series.diagnostics["converged"]
            assert abs(v - series.value) <= e + 1e-15 * abs(series.value)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, _ = run_cli(capsys, "sweep", "--d", "2", "--alpha", "1.5",
                          "--r-min", "1", "--r-max", "2", "--points", "2",
                          "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("#")


class TestContourAbscissa:
    def test_eval_contour_c(self, capsys):
        base = ("eval", "--d", "2", "--alpha", "1.5", "--r", "2",
                "--method", "mb")
        code, out = run_cli(capsys, *base, "--contour-c", "1.2")
        assert code == 0
        moved = json.loads(out)
        _, out = run_cli(capsys, *base)
        default = json.loads(out)
        assert moved["diagnostics"]["abscissa"] == 1.2
        assert moved["value"] == pytest.approx(default["value"], rel=1e-8)

    def test_sweep_contour_c(self, capsys):
        base = ("sweep", "--d", "2", "--alpha", "1.5", "--r-min", "0.5",
                "--r-max", "20", "--points", "5", "--log", "--method", "mb")
        code, out = run_cli(capsys, *base, "--contour-c", "1.2")
        assert code == 0
        _, moved = parse_sweep_csv(out)
        _, default = parse_sweep_csv(run_cli(capsys, *base)[1])
        assert len(moved) == len(default) == 5
        for a, b in zip(moved, default):
            assert a[3] == pytest.approx(b[3], rel=1e-8)
        # the rows are the library's own values on the moved line
        direct = lk.stable_mb(lk.KernelSpec(d=2, alpha=1.5),
                              np.geomspace(0.5, 20.0, 5), abscissa=1.2)
        assert [(a[3], a[4]) for a in moved] == [
            (b.value, b.est_error) for b in direct]


class TestCompare:
    def test_mb_vs_closed_alpha_one(self, capsys):
        code, out = run_cli(capsys, "compare", "--d", "2", "--alpha", "1",
                            "--r-min", "0.5", "--r-max", "20", "--points", "6",
                            "--log", "--method", "mb,closed")
        assert code == 0
        rep = json.loads(out)
        assert rep["pairwise_max_rel_diff"]["mb|closed"] <= 1e-8

    def test_identical_method_zero_diff(self, capsys):
        code, out = run_cli(capsys, "compare", "--d", "2", "--alpha", "1.5",
                            "--r-min", "1", "--r-max", "4", "--points", "3",
                            "--method", "mb,mb")
        assert code == 0
        rep = json.loads(out)
        assert rep["pairwise_max_rel_diff"]["mb|mb"] == 0.0

    def test_tail_fit_report(self, capsys):
        code, out = run_cli(capsys, "compare", "--d", "2", "--alpha", "1.5",
                            "--r-min", "50", "--r-max", "500", "--points", "5",
                            "--log", "--method", "mb")
        rep = json.loads(out)
        fit = rep["tail_fit"]
        assert fit["fitted_slope"] == pytest.approx(fit["theory_slope"], rel=0.02)
        assert fit["coefficient_ratio"] == pytest.approx(1.0, abs=0.03)

    def test_beta_two_slope_summary(self, capsys):
        # the even-order derivative decays with the alpha-shifted exponent
        code, out = run_cli(capsys, "compare", "--d", "2", "--alpha", "1.5",
                            "--beta", "2", "--r-min", "50", "--r-max", "500",
                            "--points", "5", "--log", "--method", "mb")
        assert code == 0
        fit = json.loads(out)["tail_fit"]
        assert fit["theory_slope"] == -5.5  # -(d + beta + alpha)
        assert fit["fitted_slope"] == pytest.approx(-5.5, rel=0.02)


    def test_symbol_even_beta_slope(self, capsys):
        # no general law at even beta: the perturbed law of index a applies
        code, out = run_cli(capsys, "compare", "--symbol",
                            '{"kind":"sum_stable","a":0.6,"b":1.4}',
                            "--beta", "2", "--r-min", "20", "--r-max", "200",
                            "--points", "5", "--log", "--method", "mb")
        assert code == 0
        fit = json.loads(out)["tail_fit"]
        assert fit["theory_slope"] == pytest.approx(-4.6, rel=1e-15)
        assert fit["fitted_slope"] == pytest.approx(-4.6, rel=0.02)

    def test_no_far_field_law_no_tail_fit(self, capsys):
        code, out = run_cli(capsys, "compare", "--alpha", "2",
                            "--method", "closed,small-r", "--points", "3")
        assert code == 0
        rep = json.loads(out)
        assert "tail_fit" not in rep
        assert rep["pairwise_max_rel_diff"]["closed|small-r"] <= 1e-12

    def test_origin_accepted(self, capsys):
        code, out = run_cli(capsys, "compare", "--r-min", "0", "--r-max", "2",
                            "--points", "3", "--method", "mb,oracle")
        assert code == 0
        rep = json.loads(out)
        assert rep["r_grid"][0] == 0.0
        assert rep["pairwise_max_rel_diff"]["mb|oracle"] <= 1e-8


class TestEnvelopeAndSymbols:
    def test_envelope_stable(self, capsys):
        code, out = run_cli(capsys, "envelope", "--family", "stable", "--d", "2",
                            "--alpha", "1.0", "--r-min", "0.01", "--r-max",
                            "100", "--points", "10", "--log")
        assert code == 0
        rep = json.loads(out)
        assert rep["holds"]
        assert 0 < rep["min_ratio"] <= rep["max_ratio"] < math.inf

    def test_envelope_sum(self, capsys):
        code, out = run_cli(capsys, "envelope", "--family", "sum", "--d", "2",
                            "--a", "0.5", "--b", "1.5", "--t", "0.25",
                            "--r-min", "0.1", "--r-max", "20", "--points", "6",
                            "--log")
        assert code == 0
        rep = json.loads(out)
        assert rep["holds"] and math.isfinite(rep["max_ratio"])

    def test_symbols_listing(self, capsys):
        code, out = run_cli(capsys, "symbols")
        assert code == 0
        listing = {entry["kind"]: entry["params"] for entry in json.loads(out)}
        assert listing["relativistic"] == ["alpha", "m"]
        assert set(listing) == {"stable", "sum_stable", "relativistic",
                                "perturbed"}


RELATIVISTIC = '{"kind":"relativistic","alpha":1,"m":1}'


class TestUsage:
    def test_each_command_takes_only_the_flags_it_reads(self):
        sub = next(a for a in build_parser()._actions if a.choices)
        flags = {name: {a.option_strings[0] for a in p._actions
                        if a.option_strings and a.dest != "help"}
                 for name, p in sub.choices.items()}
        kernel = {"--d", "--alpha", "--beta", "--t", "--out"}
        route = {"--symbol", "--contour-c", "--tol"}
        grid = {"--r-min", "--r-max", "--points", "--log"}
        assert flags == {
            "eval": kernel | route | {"--r", "--method", "--verify"},
            "sweep": kernel | route | grid | {"--method", "--verify"},
            "compare": kernel | route | grid | {"--method"},
            "envelope": kernel | grid | {"--family", "--a", "--b"},
            "symbols": {"--out"},
        }
        assert sum(map(len, flags.values())) == 51

    @pytest.mark.parametrize("argv", [
        "sweep --method mb,bogus",
        "compare --method mb,bogus",
        "sweep --points 0",
        "compare --points -1",
        "envelope --points 0",
        "sweep --log --r-min 0",
        "compare --log --r-min -1",
        "envelope --log --r-min 0",
        f"eval --r 1 --symbol '{RELATIVISTIC}' --method series",
        f"sweep --symbol '{RELATIVISTIC}' --method mb,small-r",
        f"compare --symbol '{RELATIVISTIC}' --method closed",
        f"eval --r 1 --symbol '{RELATIVISTIC}' --k 5",
        "eval --r 1 --tol 0",
        "sweep --tol -1",
        "compare --tol nan",
        "eval --r 1 --tol inf",
        f"envelope --symbol '{RELATIVISTIC}'",
        "envelope --tol 1e-6",
        "envelope --k 8",
        "envelope --contour-c 1.2",
        "symbols --config x",
        "symbols --d 3",
        "eval --r 1 --config x",
        "eval --r -1",
        "eval --r nan",
        "eval --r inf",
        "sweep --r-min -1",
        "sweep --r-max nan",
        "compare --r-min -1",
        "envelope --r-max inf",
    ])
    def test_usage_error_exits_two_before_computing(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(shlex.split(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "symbol error" not in captured.err

    def test_readme_examples_run(self, capsys, tmp_path, monkeypatch):
        # every command under "## Command line" runs as written
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1]
        block = block.split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line, comments=True)
                    for line in block.replace("\\\n", " ").splitlines()]
        assert len(commands) == 7
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert argv[0] == "levykernel"
            assert main(argv[1:]) == 0, argv
            capsys.readouterr()
