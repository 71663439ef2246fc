"""The command line against a committed corpus: for each argv list, the exit
code, the parsed stdout and the stderr of `main`, run in this process, as
stored in tests/golden/cli.json.  After a change that moves an output on
purpose, regenerate the records of the command it moves and quote their diff:

    PYTHONPATH=src python tests/test_golden.py --only COMMAND

`--only` reruns the records whose argv starts with COMMAND and keeps every
other record byte for byte; without it every record is rerun, and the
`gk`, `gap` and `transfer` floats move with the host's BLAS summation order.
"""

import contextlib
import csv
import io
import json
import os
import re
from pathlib import Path

import pytest

from ncf.cli import main

CORPUS = Path(__file__).with_name("golden") / "cli.json"

# acceptance criterion 11's argv lists
_CRITERION_11 = [
    ["expand", "--x", "3/7", "--n", "2"],
    ["eval", "--digits", "4,3", "--n", "2"],
    ["digit-law", "--n", "2", "--grid", "10"],
    ["invariance", "--n", "1", "--grid", "8"],
    ["transfer", "--n", "1", "--grid", "256", "--nmax", "5"],
    ["gap", "--n", "1", "--grid", "512", "--nmax", "15"],
    ["gk", "--n", "1", "--nmax", "8", "--grid", "256", "--seed", "42"],
    ["rscc-mealy", "--alpha", "0.3", "--beta", "0.6"],
    ["rscc-mealy", "--alpha", "0.3", "--beta", "0.6", "--dot"],
    ["contraction", "--n", "1", "--grid", "128", "--seed", "7"],
    ["regularity", "--n", "2", "--nmax", "100"],
]
# the argv lists of the benchmark's cli-mix that its seeds 1-3 add to
# criterion 11's: their drawn rationals, digits, Mealy parameters and seeds
_CLI_MIX_SEEDS_1_TO_3 = [
    ["expand", "--x", "17/139", "--n", "2"],
    ["eval", "--digits", "6,3", "--n", "2"],
    ["gk", "--n", "1", "--nmax", "8", "--grid", "256", "--seed", "483"],
    ["contraction", "--n", "1", "--grid", "128", "--seed", "667"],
    ["expand", "--x", "221/245", "--n", "2"],
    ["eval", "--digits", "2,3", "--n", "2"],
    ["gk", "--n", "1", "--nmax", "8", "--grid", "256", "--seed", "855"],
    ["rscc-mealy", "--alpha", "0.2", "--beta", "0.6"],
    ["rscc-mealy", "--alpha", "0.2", "--beta", "0.6", "--dot"],
    ["contraction", "--n", "1", "--grid", "128", "--seed", "173"],
    ["expand", "--x", "152/245", "--n", "2"],
    ["eval", "--digits", "4,7", "--n", "2"],
    ["gk", "--n", "1", "--nmax", "8", "--grid", "256", "--seed", "640"],
    ["rscc-mealy", "--alpha", "0.4", "--beta", "0.6"],
    ["rscc-mealy", "--alpha", "0.4", "--beta", "0.6", "--dot"],
    ["contraction", "--n", "1", "--grid", "128", "--seed", "594"],
]
# (argv, NCF_BUDGET): refusals (exit 3) and bad budgets (exit 2): a budget
# below each command's work, and grids too large to allocate under the
# default cap
_BUDGET = [
    (["gk", "--n", "1"], "10"),
    (["gap", "--grid", "64", "--nmax", "8"], "10"),
    (["transfer", "--grid", "64", "--nmax", "8"], "10"),
    (["contraction", "--n", "1", "--grid", "128", "--seed", "7"], "128"),
    (["digit-law", "--n", "2", "--grid", "10"], "10"),
    (["invariance", "--n", "1", "--grid", "8"], "319"),
    (["regularity", "--n", "2", "--nmax", "100"], "499"),
    (["expand", "--x", "0.5", "--max-len", "11"], "10"),
    (["digit-law", "--grid", "100000000"], "1000"),
    (["invariance", "--grid", "200000"], "1000"),
    (["regularity", "--nmax", "100000000"], "1000"),
    (["gk", "--grid", "64", "--nmax", "8"], "0"),
    (["gk", "--grid", "64", "--nmax", "8"], "abc"),
    (["gk", "--grid", "64", "--nmax", "8"], "1e9"),
] + [([command, "--grid", "1000000000000"], None)
     for command in ("gap", "transfer", "gk", "contraction")]
# (argv, NCF_BUDGET or None): criterion 11 in JSON and CSV, cli-mix's seeds
# 1-3, the benchmark's four exit-2 cases, the budget cases and a fit that
# cannot be made (exit 4)
CASES = ([(argv, None) for argv in _CRITERION_11]
         + [(argv + ["--format", "csv"], None) for argv in _CRITERION_11]
         + [(argv, None) for argv in _CLI_MIX_SEEDS_1_TO_3]
         + [(argv, None) for argv in (["expand", "--x", "0"], ["eval", "--digits", "0"],
                                      ["expand", "--x", "1e-320"],
                                      ["eval", "--digits", "1", "--n", "2"])]
         + _BUDGET + [(["gk", "--n", "1000"], None)])

# The floats of `gk`, `gap` and `transfer` that pass through the products of
# the spectral matrix (past N = 1000, of the assembled operator's `dense @
# v`), and `gap`'s lambda2, an eigenvalue of that matrix, whose summation
# order BLAS picks by machine, by
# field (a JSON key at any depth, or a CSV column), with their tolerance in
# ulps of 1.0 (units of 2^-52, absolute).  The iterates are of order 1, so
# another order moves them by about one unit, and each field by what it
# makes of that.  The comments give the largest move seen over five orders
# (BLAS forward and reversed, einsum, pairwise, long double); every other
# value is compared exactly.
_BLAS_COMMANDS = ("gk", "gap", "transfer")
_BLAS_ULPS = {
    "sup_errors": 8, "sup_error": 8,  # 0.5
    "operator": 8,  # 0.25
    "lipschitz_errors": 2 ** 12, "lipschitz_error": 2 ** 12,  # 256.5: M times a slope
    "q_hat": 2 ** 14, "q_fit": 2 ** 14,  # 669
    "k_hat": 2 ** 16, "theta_bound": 2 ** 16,  # 3638, none
    "residuals": 2 ** 20, "fit_residuals": 2 ** 20,  # 51384: logs of the errors
    "lambda2": 2 ** 5,  # 5.25 with every entry of the matrix moved by up to 2 units
}


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parse(argv, text):
    """JSON as parsed, CSV as its columns by header, DOT (or nothing) as text."""
    if not text or "--dot" in argv:
        return text
    if "csv" in argv:
        header, *rows = csv.reader(io.StringIO(text))
        return {name: [_cell(row[j]) for row in rows] for j, name in enumerate(header)}
    return json.loads(text)


def run(argv, budget):
    """The record of main(argv) in this process under NCF_BUDGET = budget
    (None: unset): its exit code, parsed stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("NCF_BUDGET", None)
    if budget is not None:
        os.environ["NCF_BUDGET"] = budget
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.environ.pop("NCF_BUDGET", None)
        if saved is not None:
            os.environ["NCF_BUDGET"] = saved
    return {"argv": argv, "budget": budget, "code": code,
            "stdout": _parse(argv, out.getvalue()), "stderr": err.getvalue()}


def _assert_same(got, want, ulps, field=None):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), field
        for key in want:
            _assert_same(got[key], want[key], ulps, key)
    elif isinstance(want, list):
        assert len(got) == len(want), field
        for g, w in zip(got, want):
            _assert_same(g, w, ulps, field)
    elif isinstance(want, float) and field in ulps:
        assert type(got) is float and abs(got - want) <= ulps[field] * 2.0 ** -52, \
            (field, got, want)
    else:
        assert type(got) is type(want) and got == want, (field, got, want)


@pytest.mark.parametrize("argv,budget", CASES, ids=[
    re.sub(r"[^\w.,=-]+", "_", " ".join(argv + ([f"NCF_BUDGET={budget}"] if budget else [])))
    for argv, budget in CASES])
def test_cli_matches_corpus(argv, budget):
    stored = {(tuple(r["argv"]), r["budget"]): r for r in json.loads(CORPUS.read_text())}
    ulps = _BLAS_ULPS if argv[0] in _BLAS_COMMANDS else {}
    _assert_same(run(argv, budget), stored[tuple(argv), budget], ulps)


def regenerate(only=None, path=CORPUS) -> int:
    """Write the corpus to `path`, rerunning the cases of command `only`
    (None: every case) and any case it lacks; the count rerun."""
    stored = ({(tuple(r["argv"]), r["budget"]): r for r in json.loads(path.read_text())}
              if only else {})
    records = [stored.get((tuple(argv), budget)) for argv, budget in CASES]
    fresh = [i for i, (argv, budget) in enumerate(CASES)
             if records[i] is None or argv[0] == only]
    for i in fresh:
        records[i] = run(*CASES[i])
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(records, indent=1) + "\n")
    return len(fresh)


def test_only_keeps_other_records(tmp_path):
    # the stored JSON round-trips: a rerun of `eval` alone, whose records do
    # not move, writes the corpus back byte for byte
    copy = tmp_path / "cli.json"
    copy.write_bytes(CORPUS.read_bytes())
    assert regenerate("eval", copy) == sum(argv[0] == "eval" for argv, _ in CASES)
    assert copy.read_bytes() == CORPUS.read_bytes()


if __name__ == "__main__":
    import argparse
    parser = argparse.ArgumentParser(description="Regenerate the CLI golden corpus.")
    parser.add_argument("--only", metavar="COMMAND", choices=sorted({a[0] for a, _ in CASES}),
                        help="rerun only the records of this command")
    only = parser.parse_args().only
    print(f"reran {regenerate(only)} of {len(CASES)} records into {CORPUS}")
