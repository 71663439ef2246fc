"""Command-line surface: output formats, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ncf import core, make_mealy_rscc, q_cesaro
from ncf.cli import main


# a 401-digit --n: no binary64 value
_N_PAST_FLOAT = "1" + "0" * 400


def run_cli(argv, capsys):
    """Exit code, stdout and stderr of one call; a usage error that argparse
    reports by SystemExit gives its exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _python_child(code, argv=(), timeout=120, **kwargs):
    """Run `code` in a fresh interpreter that imports this package's source."""
    import ncf
    src = str(Path(ncf.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}", *argv],
        capture_output=True, text=True, timeout=timeout, **kwargs)


def _cli_child(argv, budget=None, timeout=120):
    """The CLI in a fresh interpreter under a 2 GiB address-space cap, with
    NCF_BUDGET set to `budget` (None: unset)."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {k: v for k, v in os.environ.items() if k != "NCF_BUDGET"}
    if budget is not None:
        env["NCF_BUDGET"] = budget
    return _python_child(f"from ncf.cli import main; sys.exit(main({argv!r}))",
                         timeout=timeout, preexec_fn=cap, env=env)


class TestExpand:
    def test_rational_json(self, capsys):
        # 2/(3/7) = 14/3: first digit 4, image 2/3, then digit 3 exactly
        code, out, _ = run_cli(["expand", "--x", "3/7", "--n", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "ncf-expand-v1"
        assert payload["digits"] == [4, 3]
        assert payload["terminated"] is True

    def test_decimal_csv(self, capsys):
        code, out, _ = run_cli(
            ["expand", "--x", "0.5", "--max-len", "3", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,digit"
        assert lines[1] == "1,2"

    def test_zero_rejected(self, capsys):
        code, _, err = run_cli(["expand", "--x", "0"], capsys)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ["expand", "--x", "1e-320"],
        ["expand", "--x", "5e-324", "--n", "3"],
    ])
    def test_overflowing_digit_rejected(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "error" in err


class TestEval:
    def test_exact_value(self, capsys):
        code, out, _ = run_cli(["eval", "--digits", "4,2", "--n", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "2/5"
        assert payload["convergents"] == ["1/2", "2/5"]

    def test_bad_digits(self, capsys):
        code, _, _ = run_cli(["eval", "--digits", "", "--n", "1"], capsys)
        assert code == 2

    def test_digit_below_n_rejected(self, capsys):
        code, _, err = run_cli(["eval", "--digits", "1", "--n", "2"], capsys)
        assert code == 2
        assert "error" in err


class TestDigitLaw:
    def test_probabilities(self, capsys):
        code, out, _ = run_cli(["digit-law", "--n", "2", "--grid", "5"], capsys)
        assert code == 0
        payload = json.loads(out)
        law = payload["law"]
        assert law[0]["digit"] == 2
        assert all(a["probability"] > b["probability"]
                   for a, b in zip(law, law[1:]))

    def test_huge_n(self, capsys):
        # every probability came out 0.0 once i (i+2) / (i+1)^2 rounded to 1
        code, out, _ = run_cli(["digit-law", "--n", "1000000000", "--grid", "2"], capsys)
        assert code == 0
        for cell in json.loads(out)["law"]:
            assert cell["probability"] == pytest.approx(1e-9, rel=1e-8)


class TestInvariance:
    def test_small_grid(self, capsys):
        # the rule integrates each piece to rounding and math.fsum adds the
        # 40 weighted values exactly: the worst error is 2.2e-16
        for n in (1, 2, 5):
            code, out, _ = run_cli(["invariance", "--n", str(n), "--grid", "8"], capsys)
            assert code == 0
            assert json.loads(out)["max_abs_error"] < 1e-15

    @pytest.mark.parametrize("grid", [1, 2, 3, 8, 64, 1000])
    def test_points_are_numpys_linspace(self, grid, capsys):
        code, out, _ = run_cli(["invariance", "--grid", str(grid)], capsys)
        assert code == 0
        got = [c["u"] for c in json.loads(out)["curve"]]
        assert got == np.linspace(1.0 / grid, 1.0, grid).tolist()

    def test_cdf_at_most_one(self, capsys):
        code, out, _ = run_cli(["invariance", "--n", "3", "--grid", "8"], capsys)
        assert code == 0
        assert all(0.0 <= c["cdf"] <= 1.0 for c in json.loads(out)["curve"])


class TestTransferAndGap:
    def test_transfer_curve(self, capsys):
        code, out, _ = run_cli(
            ["transfer", "--n", "1", "--grid", "256", "--nmax", "6"], capsys)
        assert code == 0
        payload = json.loads(out)
        errs = [c["sup_error"] for c in payload["curve"]]
        assert errs == sorted(errs, reverse=True)

    def test_gap_report(self, capsys):
        code, out, _ = run_cli(
            ["gap", "--n", "1", "--grid", "1024", "--nmax", "20"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert 0.25 < payload["q_hat"] < 0.40

    def test_fit_error_exit_code(self, capsys):
        # starting from the invariant measure there is no decay to fit
        code, _, _ = run_cli(
            ["gk", "--mu", "gauss", "--nmax", "6", "--grid", "128"], capsys)
        assert code == 0  # gauss start skips the fit requirement by default
        code, _, err = run_cli(
            ["gk", "--mu", "gauss", "--nmax", "6", "--grid", "128",
             "--require-fit"], capsys)
        assert code == 4
        assert "fit" in err


    def test_large_n_within_default_budget(self, capsys, monkeypatch):
        # the charge once grew like 100 N: gap --n 1000 exited 3
        monkeypatch.delenv("NCF_BUDGET", raising=False)
        code, out, _ = run_cli(["gap", "--n", "1000"], capsys)
        assert code == 0
        assert 0.0 < json.loads(out)["q_hat"] < 1.0


class TestGk:
    def test_large_n_within_default_budget(self, capsys, monkeypatch):
        # gk --n 2000 exited 3.  From the Lebesgue measure its error is below
        # the fit's floor from step 3 on, which is a fit failure (4); from
        # the invariant measure no fit is required
        monkeypatch.delenv("NCF_BUDGET", raising=False)
        code, _, err = run_cli(["gk", "--n", "2000"], capsys)
        assert code == 4 and "fit" in err
        code, out, _ = run_cli(["gk", "--n", "2000", "--mu", "gauss"], capsys)
        assert code == 0
        assert max(json.loads(out)["sup_errors"]) < 1e-12

    def test_lebesgue_report(self, capsys):
        code, out, _ = run_cli(
            ["gk", "--n", "1", "--nmax", "12", "--grid", "512"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "ncf-gk-v1"
        assert payload["q_fit"] is not None
        for cell in payload["method_agreement"]:
            assert abs(cell["operator"] - cell["montecarlo"]) <= cell["band"]

    def test_memory_does_not_grow_with_nmax(self, capsys):
        # each step keeps its two error summaries, and only the three spot
        # steps their CDFs: all 2000 CDFs once held 23.6 MB traced (7.9 MB
        # at --nmax 500)
        run_cli(["gk", "--nmax", "40"], capsys)  # warm-up: imports, the operator slot
        peaks = []
        for nmax in (500, 2000):
            tracemalloc.start()
            try:
                code, _, _ = run_cli(["gk", "--nmax", str(nmax)], capsys)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] - peaks[0] < 2e6

    @pytest.mark.parametrize("n", [10**11, 10**13, 10**18])
    def test_monte_carlo_disagreement_exits_4(self, n, capsys):
        # the float map loses frac(N/y) past 2^53: at N = 10^13 the spot
        # checks read 0.3077, 0.5225 and 0.8268 against the operator's 0.25,
        # 0.5 and 0.75, with bands of 0.005-0.006, and the command exited 0
        code, _, err = run_cli(["gk", "--mu", "gauss", "--grid", "8", "--nmax", "5",
                                "--n", str(n)], capsys)
        assert code == 4
        assert all(word in err for word in ("n=", "x=", "operator", "montecarlo", "band"))

    def test_unknown_measure(self, capsys):
        code, _, err = run_cli(["gk", "--mu", "cauchy"], capsys)
        assert code == 2
        assert "cauchy" in err


class TestRsccMealy:
    def test_kernel_report(self, capsys):
        code, out, _ = run_cli(
            ["rscc-mealy", "--alpha", "0.3", "--beta", "0.6"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["kernel"] == [[0.3, 0.7], [0.6, 0.4]]
        pi = payload["stationary"]
        assert pi[0] + pi[1] == pytest.approx(1.0, abs=1e-15)

    def test_dot_output(self, capsys):
        code, out, _ = run_cli(
            ["rscc-mealy", "--alpha", "0.3", "--beta", "0.6", "--dot"], capsys)
        assert code == 0
        assert out.startswith("digraph")
        assert 'label="1/0.3"' in out

    def test_dot_output_to_file(self, capsys, tmp_path):
        path = tmp_path / "mealy.dot"
        code, out, _ = run_cli(["rscc-mealy", "--alpha", "0.3", "--beta", "0.6",
                                "--dot", "--out", str(path)], capsys)
        assert code == 0 and out == ""
        assert path.read_text() == core.mealy_dot(core.mealy_kernel(0.3, 0.6))

    def test_invalid_probability(self, capsys):
        code, _, _ = run_cli(
            ["rscc-mealy", "--alpha", "1.5", "--beta", "0.2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("alpha,beta", [(0.2, 0.6), (0.3, 0.6), (0.4, 0.6)])
    def test_cesaro_is_the_exact_closed_form(self, alpha, beta, capsys):
        # pi + (delta - pi) lam (1 - lam^n)/((1 - lam) n) over the exact
        # rationals of the kernel, lam = alpha - beta, pi_1 = beta/(1 - lam);
        # within 2^-53 (the eigendecomposition it replaced was 1.69 2^-53 off)
        code, out, _ = run_cli(["rscc-mealy", "--alpha", str(alpha), "--beta", str(beta),
                                "--nmax", "1000"], capsys)
        assert code == 0
        a, b = Fraction(alpha), Fraction(beta)
        lam = a - b
        pi = [b / (1 - lam), (1 - a) / (1 - lam)]
        s = lam * (1 - lam ** 1000) / ((1 - lam) * 1000)
        want = [pi[0] + (1 - pi[0]) * s, pi[1] - pi[1] * s]
        got = json.loads(out)["cesaro_from_1"]
        assert all(abs(Fraction(g) - w) <= Fraction(1, 2 ** 53) for g, w in zip(got, want))

    def test_cesaro_and_stationary_are_the_layers(self, capsys):
        # the command and the NumPy layer read one closed form
        code, out, _ = run_cli(["rscc-mealy", "--alpha", "0.3", "--beta", "0.6"], capsys)
        payload = json.loads(out)
        sys_ = make_mealy_rscc(0.3, 0.6)
        assert payload["cesaro_from_1"] == [q_cesaro(sys_, 1000, 1.0, [s]) for s in (1, 2)]
        assert payload["stationary"] == np.array(
            core.mealy_cesaro(core.mealy_kernel(0.3, 0.6), math.inf)[0]).tolist()

    def test_nmax_past_binary64(self, capsys):
        # lam ** n raised "int too large to convert to float" (exit 2); at
        # such an n the average is the stationary law to rounding
        code, out, err = run_cli(["rscc-mealy", "--alpha", "0.3", "--beta", "0.6",
                                  "--nmax", _N_PAST_FLOAT], capsys)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["cesaro_from_1"] == payload["stationary"]
        assert payload["cesaro_steps"] == int(_N_PAST_FLOAT)

    def test_identity_kernel_has_no_stationary_law(self, capsys):
        code, out, err = run_cli(["rscc-mealy", "--alpha", "1", "--beta", "0"], capsys)
        assert code == 2 and out == ""
        assert err == "ncf: error: no unique stationary vector when alpha=1, beta=0\n"


class TestContractionAndRegularity:
    def test_contraction(self, capsys):
        code, out, _ = run_cli(
            ["contraction", "--n", "1", "--grid", "128"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"] is True
        assert all(0 < r < 1 for r in payload["r_values"])

    @pytest.mark.parametrize("n", [2**63, 10**29])
    def test_contraction_past_int64(self, n, capsys):
        # events past 2^63 made an object array and a NumPy casting traceback;
        # r_1 is about 1/N there (R = 1/(4N) exactly)
        code, out, err = run_cli(["contraction", "--n", str(n), "--grid", "16"], capsys)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["big_r"] == 1 / (4 * n)
        assert math.isclose(payload["r_values"][0], 1 / n, rel_tol=1e-6)

    def test_contraction_past_squares_is_quiet(self):
        # N = 10^200: the branch masses (w+N)/((w+i)(w+i+1)) overflowed in the
        # product, with a RuntimeWarning on stderr; r_1 is about 1/N
        r = _cli_child(["contraction", "--n", "1" + "0" * 200, "--grid", "16"])
        assert r.returncode == 0 and r.stderr == ""
        assert math.isclose(json.loads(r.stdout)["r_values"][0], 1e-200, rel_tol=1e-6)

    def test_contraction_ignores_seed(self, capsys):
        # no state pair is drawn at random: --seed is accepted and inert
        outs = [run_cli(["contraction", "--grid", "64", "--seed", s], capsys)[1]
                for s in ("0", "7")]
        assert outs[0] == outs[1]

    def test_regularity(self, capsys):
        code, out, _ = run_cli(
            ["regularity", "--n", "2", "--nmax", "100"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert all(d <= 1e-14 for d in payload["final_distances"])

    def test_regularity_memory_does_not_grow_with_nmax(self, capsys):
        # only each orbit's last distance is kept: the five default curves of
        # --nmax 200000 once held 9.2 MB of traced memory
        run_cli(["regularity", "--nmax", "100"], capsys)  # warm-up: imports, caches
        tracemalloc.start()
        try:
            code, out, _ = run_cli(["regularity", "--nmax", "200000"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(json.loads(out)["final_distances"]) == 5
        assert peak < 0.5e6

    @pytest.mark.parametrize("starts", ["nan", "2", "0,-0.5", "0.5,inf"])
    def test_regularity_bad_start(self, starts, capsys):
        code, out, err = run_cli(["regularity", "--starts", starts], capsys)
        assert code == 2
        assert out == ""
        assert "start" in err


class TestOutputPlumbing:
    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "law.json"
        code, out, _ = run_cli(
            ["digit-law", "--grid", "3", "--out", str(path)], capsys)
        assert code == 0
        assert out == ""
        payload = json.loads(path.read_text())
        assert payload["schema"] == "ncf-digit-law-v1"

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_a_usage_error(self, where, tmp_path, capsys):
        # an --out that cannot be opened ended in a traceback with exit 1:
        # FileNotFoundError under a missing directory, IsADirectoryError on one
        path = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
        code, out, err = run_cli(["expand", "--x", "3/7", "--out", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("ncf: error:") and str(path) in err

    # every command that evaluates the transfer operator is budgeted
    @pytest.mark.parametrize("argv", [
        ["gk", "--n", "1"],
        ["gap", "--grid", "64", "--nmax", "8"],
        ["transfer", "--grid", "64", "--nmax", "8"],
    ], ids=["gk", "gap", "transfer"])
    def test_budget_exit_code(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("NCF_BUDGET", "10")
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert out == ""
        assert "budget" in err

    @pytest.mark.parametrize("command", ["gap", "transfer", "gk", "contraction"])
    def test_huge_grid_is_refused_before_allocation(self, command):
        # the grid's M+1 samples (contraction: its state pairs) were allocated
        # before any charge: under a 2 GiB address-space cap this was a
        # MemoryError traceback (exit 1)
        r = _cli_child([command, "--grid", "1000000000000"])
        assert r.returncode == 3, r.stderr
        assert "budget" in r.stderr

    @pytest.mark.parametrize("argv", [
        ["digit-law", "--grid", "100000000"],
        ["invariance", "--grid", "200000"],
        ["regularity", "--nmax", "100000000"],
        ["gk", "--grid", "16", "--nmax", "100000000"],
        ["transfer", "--grid", "16", "--nmax", "100000000"],
        ["gap", "--grid", "16", "--nmax", "100000000"],
        ["gk", "--n", "1001", "--grid", "16", "--nmax", "100000000"],
        ["transfer", "--n", "1001", "--grid", "16", "--nmax", "100000000"],
        ["gap", "--n", "1001", "--grid", "16", "--nmax", "100000000"],
    ], ids=["digit-law", "invariance", "regularity", "gk-steps", "transfer-steps", "gap-steps",
            "gk-grid-steps", "transfer-grid-steps", "gap-grid-steps"])
    def test_large_work_is_refused_in_time(self, argv):
        # these loops ran uncharged: past a 15 s timeout under NCF_BUDGET=1000
        # (the operator steps of gk, transfer and gap: only the build was
        # charged; past N = 10^3, on the grid, each branch sum was charged
        # alone, about 500 units at M = 16, and never the run)
        r = _cli_child(argv, budget="1000", timeout=10)
        assert r.returncode == 3, r.stderr
        assert "budget" in r.stderr

    @pytest.mark.parametrize("argv,cost", [
        (["digit-law", "--n", "2", "--grid", "10"], 11),  # one unit a digit
        (["invariance", "--n", "1", "--grid", "8"], 8 * 40),  # two 20-node pieces a point
        (["regularity", "--n", "2", "--nmax", "100"], 5 * 100),  # one unit an orbit step
        # one unit a digit of --max-len: expand ran uncharged, and a float
        # orbit that never reaches 0 runs the whole length
        (["expand", "--x", "0.5", "--max-len", "11"], 11),
    ], ids=["digit-law", "invariance", "regularity", "expand"])
    def test_charge_is_the_work(self, argv, cost, capsys, monkeypatch):
        monkeypatch.setenv("NCF_BUDGET", str(cost))
        assert run_cli(argv, capsys)[0] == 0
        monkeypatch.setenv("NCF_BUDGET", str(cost - 1))
        code, out, err = run_cli(argv, capsys)
        assert code == 3 and out == "" and "budget" in err

    @pytest.mark.parametrize("raw", ["abc", "-5", "1.5", "1e9"])
    def test_bad_budget_is_a_usage_error(self, raw, capsys, monkeypatch):
        monkeypatch.setenv("NCF_BUDGET", raw)
        code, out, err = run_cli(["gk", "--grid", "64", "--nmax", "8"], capsys)
        assert code == 2
        assert out == ""
        assert "NCF_BUDGET" in err
        assert repr(raw) in err

    @pytest.mark.parametrize("argv,want", [
        (["regularity"], 2), (["digit-law"], 2), (["invariance"], 2), (["transfer"], 2),
        (["gap"], 2), (["gk"], 2), (["contraction"], 2), (["expand", "--x", "0.5"], 2),
        (["expand", "--x", "1e-300"], 2),
        # integers and rationals throughout: N never meets a float
        (["eval", "--digits", _N_PAST_FLOAT], 0), (["expand", "--x", "1/3"], 0),
    ], ids=["regularity", "digit-law", "invariance", "transfer", "gap", "gk", "contraction",
            "expand-0.5", "expand-1e-300", "eval", "expand-1/3"])
    def test_n_past_binary64(self, argv, want, capsys):
        # an N whose float overflows was an OverflowError traceback (exit 1)
        # in every command that takes N into a float
        code, out, err = run_cli(argv + ["--n", _N_PAST_FLOAT], capsys)
        assert code == want, err
        if want == 2:
            assert out == "" and err.startswith("ncf: error: --n must stay below about ")
            assert ("1.3e154" if argv[0] in ("regularity", "digit-law") else "1.8e308") in err

    @pytest.mark.parametrize("command", ["regularity", "digit-law"])
    def test_n_squared_past_binary64(self, command, capsys):
        # N = 10^200 has a float, N^2 has none
        code, out, err = run_cli([command, "--n", "1" + "0" * 200], capsys)
        assert code == 2 and out == ""
        assert err == ("ncf: error: --n must stay below about 1.3e154, "
                       "where N^2 has no binary64 value\n")

    def test_n_times_grid_past_binary64(self, capsys):
        # invariance takes N/u from u = 1/grid on: N = 10^308 has a float and
        # 8 N none, which was "cannot convert float infinity to integer"
        code, out, err = run_cli(["invariance", "--n", "1" + "0" * 308, "--grid", "8"], capsys)
        assert code == 2 and out == ""
        assert err == ("ncf: error: --n must stay below about 2.2e307 at --grid 8, "
                       "where N * grid has no binary64 value\n")

    @pytest.mark.parametrize("argv,limit", [
        (["gap", "--n", "1" + "0" * 305], "8.8e304 at --grid 2048"),
        (["transfer", "--n", "2" + "0" * 305], "1.8e305 at --grid 1024"),
        (["gk", "--n", "2" + "0" * 305], "1.8e305 at --grid 1024"),
    ], ids=["gap", "transfer", "gk"])
    def test_n_times_operator_grid_past_binary64(self, argv, limit, capsys):
        # the operator's grid has N M cells: at the default grids these N
        # have a float and N M none, which was "int too large to convert to
        # float"
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err == (f"ncf: error: --n must stay below about {limit}, "
                       "where N * grid has no binary64 value\n")

    def test_other_overflows_keep_their_message(self, capsys, monkeypatch):
        # an overflow that N's float did not cause is not blamed on --n
        def overflow(*args):
            raise OverflowError("int too large to convert to float")

        monkeypatch.setattr(core, "digit_probability", overflow)
        code, _, err = run_cli(["digit-law", "--n", "2"], capsys)
        assert code == 2 and err == "ncf: error: int too large to convert to float\n"

    @pytest.mark.parametrize("argv", [
        ["expand", "--x", "0.5", "--max-len"], ["digit-law", "--grid"],
        ["invariance", "--grid"], ["regularity", "--nmax"], ["transfer", "--nmax"],
        ["gap", "--nmax"], ["gk", "--nmax"], ["contraction", "--grid"],
    ], ids=lambda argv: " ".join(argv))
    def test_size_flag_past_binary64(self, argv, capsys):
        # the refused cost was formatted as a float: exit 2, "int too large
        # to convert to float", in place of the budget error
        code, out, err = run_cli(argv + [_N_PAST_FLOAT], capsys)
        assert code == 3 and out == "", err
        assert err.startswith("ncf: budget error:") and "e+40" in err

    def test_contraction_charges_every_r_k_first(self, capsys, monkeypatch):
        # r_1..r_22 were computed, for minutes, before r_23 was refused
        from ncf import rscc
        calls = []
        monkeypatch.setattr(rscc, "_r_k_estimate", lambda *args: calls.append(args) or 0.5)
        code, out, err = run_cli(["contraction", "--kmax", "30", "--grid", "4"], capsys)
        assert code == 3 and out == "" and calls == []
        assert err.startswith("ncf: budget error: r_21 word enumeration:")
        assert run_cli(["contraction", "--kmax", "20", "--grid", "4"], capsys)[0] == 0
        assert len(calls) == 20

    def test_zero_budget_is_a_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("NCF_BUDGET", "0")
        code, _, err = run_cli(["gk", "--grid", "64", "--nmax", "8"], capsys)
        assert code == 3
        assert "budget" in err


class TestFlags:
    # each command takes only the flags it reads
    BASE = {
        "expand": ["expand", "--x", "3/7"],
        "eval": ["eval", "--digits", "1"],
        "digit-law": ["digit-law"],
        "invariance": ["invariance"],
        "transfer": ["transfer"],
        "gap": ["gap"],
        "rscc-mealy": ["rscc-mealy", "--alpha", "0.3", "--beta", "0.6"],
        "contraction": ["contraction"],
        "regularity": ["regularity"],
    }

    @pytest.mark.parametrize("command,flag", [
        ("expand", "--grid"), ("expand", "--nmax"), ("expand", "--seed"),
        ("eval", "--grid"), ("eval", "--nmax"), ("eval", "--seed"),
        ("digit-law", "--nmax"), ("digit-law", "--seed"),
        ("invariance", "--nmax"), ("invariance", "--seed"),
        ("transfer", "--seed"), ("gap", "--seed"),
        ("rscc-mealy", "--n"), ("rscc-mealy", "--grid"), ("rscc-mealy", "--seed"),
        ("contraction", "--nmax"),
        ("regularity", "--grid"), ("regularity", "--seed"),
    ])
    def test_unread_flag_is_a_usage_error(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.BASE[command] + [flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSizeFlags:
    @pytest.mark.parametrize("argv,flag", [
        (["digit-law", "--grid", "-3"], "--grid"),
        (["digit-law", "--grid", "0"], "--grid"),
        (["transfer", "--nmax", "0"], "--nmax"),
        (["transfer", "--grid", "0"], "--grid"),
        (["gap", "--grid", "-1"], "--grid"),
        (["gk", "--nmax", "-40"], "--nmax"),
        (["contraction", "--grid", "0"], "--grid"),
        (["contraction", "--kmax", "0"], "--kmax"),
        (["invariance", "--grid", "0"], "--grid"),
        (["rscc-mealy", "--alpha", "0.3", "--beta", "0.6", "--nmax", "0"], "--nmax"),
        (["regularity", "--nmax", "0"], "--nmax"),
        (["expand", "--x", "3/7", "--max-len", "0"], "--max-len"),
        (["transfer", "--grid", "ten"], "--grid"),
    ])
    def test_non_positive_size_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}" in captured.err
        assert "positive integer" in captured.err


class TestUnreadableFlags:
    # once `ncf: error: Fraction(1, 0)`, `invalid literal for int() with base
    # 10: ''` and `could not convert string to float: ''`, naming no flag
    @pytest.mark.parametrize("argv,flag", [
        (["expand", "--x", "1/0"], "--x"),
        (["expand", "--x", "abc"], "--x"),
        (["eval", "--digits", ""], "--digits"),
        (["eval", "--digits", "1,,2"], "--digits"),
        (["regularity", "--starts", ""], "--starts"),
        (["regularity", "--starts", "0,x"], "--starts"),
        # once NumPy's "expected non-negative integer" (gk), and an answer (contraction)
        (["gk", "--seed", "-1"], "--seed"),
        (["contraction", "--seed", "-1"], "--seed"),
    ])
    def test_usage_error_names_the_flag(self, argv, flag, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"argument {flag}: expected " in err
        assert f"got {argv[-1]!r}" in err


class TestDeterminism:
    def _run(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "ncf.cli"] + argv,
            capture_output=True, text=True)

    def test_byte_identical_reruns(self):
        argv = ["gk", "--n", "1", "--nmax", "8", "--grid", "256", "--seed", "42"]
        a = self._run(argv)
        b = self._run(argv)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_import_leaves_scipy_out(self):
        # NumPy is the only runtime dependency; touching one layer loads all
        r = _python_child("import ncf.cli; ncf.transfer; print('scipy' in sys.modules)")
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False"

    def test_module_entry_point(self):
        r = self._run(["eval", "--digits", "1,1,1"])
        assert r.returncode == 0
        assert json.loads(r.stdout)["value"] == "2/3"


class TestLazyImports:
    # the commands that need only the pure-Python core: each in a fresh
    # process, with its documented exit code
    @pytest.mark.parametrize("argv,code", [
        (["expand", "--x", "3/7", "--n", "2"], 0),
        (["eval", "--digits", "3,4", "--n", "2"], 0),
        (["expand", "--x", "0"], 2),
        (["eval", "--digits", "0"], 2),
        (["expand", "--x", "1e-320"], 2),
        (["eval", "--digits", "1", "--n", "2"], 2),
        (["--help"], 0),
        (["digit-law", "--n", "2", "--grid", "10"], 0),
        (["regularity", "--n", "2", "--nmax", "100"], 0),
        (["rscc-mealy", "--alpha", "0.3", "--beta", "0.6", "--dot"], 0),
        (["regularity", "--starts", "0,2"], 2),
        (["rscc-mealy", "--alpha", "1.5", "--beta", "0.2", "--dot"], 2),
        (["digit-law", "--grid", "100000000"], 3),
        (["invariance", "--n", "1", "--grid", "8"], 0),
        (["invariance", "--grid", "200000"], 3),
        (["rscc-mealy", "--alpha", "0.3", "--beta", "0.6"], 0),
        (["rscc-mealy", "--alpha", "1", "--beta", "0"], 2),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_core_commands_leave_numpy_out(self, argv, code):
        # under a budget of 1000 units, which refuses digit-law --grid
        # 100000000 and invariance --grid 200000 before any work
        r = _python_child(
            "import ncf.cli\n"
            "try:\n"
            "    code = ncf.cli.main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(code, [m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules],\n"
            "      file=sys.stderr)", argv,
            env={**os.environ, "NCF_BUDGET": "1000"})
        assert r.returncode == 0, r.stderr
        assert r.stderr.splitlines()[-1] == f"{code} []"

    @pytest.mark.parametrize("argv", [
        ["gap", "--grid", "64", "--nmax", "10"],
        ["gk", "--grid", "64", "--nmax", "8"],
    ], ids=["gap", "gk"])
    def test_rate_fits_leave_numpy_ma_out(self, argv):
        # the fit window's median is taken in Python: np.median loads numpy.ma
        r = _python_child(
            "import io, contextlib, ncf.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = ncf.cli.main(sys.argv[1:])\n"
            "print(code, 'numpy' in sys.modules, 'numpy.ma' in sys.modules)", argv)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == ["0 True False"]

    def test_every_public_name_is_its_modules_object(self):
        import ncf
        assert len(ncf.__all__) == len(set(ncf.__all__)) == 37
        for name in ncf.__all__:
            obj = getattr(ncf, name)
            assert obj.__module__.startswith("ncf.")
            assert getattr(sys.modules[obj.__module__], name) is obj
        assert set(ncf.__all__) <= set(dir(ncf))

    def test_star_import_binds_every_name(self):
        import ncf
        namespace = {}
        exec("from ncf import *", namespace)
        assert {n for n in namespace if not n.startswith("__")} == set(ncf.__all__)
        assert all(namespace[n] is getattr(ncf, n) for n in ncf.__all__)

    def test_unknown_name_is_an_attribute_error(self):
        import ncf
        with pytest.raises(AttributeError, match="no_such_name"):
            ncf.no_such_name
        assert not hasattr(ncf, "RsccSystm")

    def test_one_access_loads_every_layer(self):
        # perfbench/trace.py's Tracer.install reads ncf.transfer right after
        # `import ncf.cli`, then wraps the layers it finds in sys.modules
        layers = ["ncf.gausskuzmin", "ncf.measure", "ncf.rscc", "ncf.transfer"]
        r = _python_child(
            "import ncf.cli\n"
            f"print([m in sys.modules for m in {layers!r} + ['numpy']])\n"
            "ncf.transfer\n"
            f"print([m in sys.modules for m in {layers!r}])")
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == [str([False] * 5), str([True] * 4)]


# every command that takes --n, at small sizes; eval's digits are N itself
_N_FORMS = [
    ["expand", "--x", "3/7", "--max-len", "8"], ["eval", "--digits", "{n},{n}"],
    ["digit-law", "--grid", "4"], ["invariance", "--grid", "8"],
    ["transfer", "--grid", "8", "--nmax", "5"], ["gap", "--grid", "8", "--nmax", "5"],
    *(["gk", "--mu", mu, "--grid", "8", "--nmax", "5"] for mu in ("lebesgue", "gauss", "tilted")),
    ["contraction", "--grid", "4", "--kmax", "1"], ["regularity", "--nmax", "5"],
]
# the texts of Python's and NumPy's own overflow errors
_RAW_OVERFLOWS = ("too large to convert", "cannot convert float", "out of range",
                  "math range error", "overflow")


@pytest.mark.parametrize("n", [1, 2, 5, 50, 10**3, 10**6, 10**9, 2**53, 10**18, 10**154,
                               10**305, 10**308, 10**309])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_command_at_every_n(n, capsys):
    # the family from N = 1 to past binary64: each command answers or
    # refuses with a documented exit code, and an exit-2 message is the
    # command's own, never the text of an overflow inside it, nor a
    # RuntimeWarning (at N = 10^305 the Monte Carlo map's N/y can pass binary64)
    for form in _N_FORMS:
        argv = [t.format(n=n) for t in form] + ["--n", str(n)]
        code, _, err = run_cli(argv, capsys)
        assert code in (0, 2, 3, 4), (argv[0], err)
        if code == 2:
            assert not any(t in err.lower() for t in _RAW_OVERFLOWS), (argv[0], err)
