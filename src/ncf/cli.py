"""Command-line surface: reproducible experiments with JSON/CSV output.

Every command is deterministic given its flags (including --seed); floats are
emitted in shortest round-trip form in JSON and with 17 significant digits in
CSV.  Exit codes: 0 success, 2 usage/domain error, 3 compute-budget error,
4 fit failure, or a `gk` Monte Carlo spot check outside its band.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import math
import sys as _sys
from fractions import Fraction

# `transfer`, `gap`, `gk` and `contraction` import NumPy and its layers
# themselves (`gk` and `contraction` `dataclasses` too); every other command
# runs on the pure-Python `core` alone
from . import core
from .errors import BudgetExceededError, FitError, charge, count

SCHEMA_VERSION = 1


def _typed(read, form: str):
    """An argparse type: read(text), or a usage error quoting the text and the form expected."""
    def parse(text: str):
        try:
            return read(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
    return parse


# the size flags --grid, --nmax, --kmax and --max-len, and --seed: `_typed`
# words the refusal, so the names given to `count` are never shown
_positive_int = _typed(lambda text: count(int(text), "size", 1), "a positive integer")
_seed = _typed(lambda text: count(int(text), "seed", 0), "a non-negative integer")


def _render(args, fields: dict, header: tuple, rows) -> str:
    """What a handler returns, its fields, CSV header and rows, as the JSON
    payload in the envelope every command shares, or as the CSV table."""
    if args.format == "csv":
        lines = [header] + [[f"{v:.17g}" if isinstance(v, float) else str(v) for v in row]
                            for row in rows]
        return "".join(",".join(line) + "\n" for line in lines)
    payload = {"schema": f"ncf-{args.command}-v{SCHEMA_VERSION}", **fields}
    if "n" in args:
        payload["n"] = args.n
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cmd_expand(args):
    params = core.NcfParams(args.n)
    charge(args.max_len, "expand digits")
    seq = core.digits(args.x, params, args.max_len)
    return ({"digits": seq.digits, "terminated": seq.terminated},
            ("k", "digit"), enumerate(seq.digits, 1))


def _cmd_eval(args):
    params = core.NcfParams(args.n)
    value = core.evaluate(args.digits, params)
    convs = core.convergents(args.digits, params)
    return ({"digits": args.digits, "value": str(value), "value_float": float(value),
             "convergents": [str(c) for c in convs]},
            ("k", "convergent", "convergent_float"),
            [(k, str(c), float(c)) for k, c in enumerate(convs, 1)])


def _cmd_digit_law(args):
    params = core.NcfParams(args.n)
    charge(args.grid + 1, "digit-law digits")
    items = [(i, core.digit_probability(i, params))
             for i in range(args.n, args.n + args.grid + 1)]
    return ({"law": [{"digit": i, "probability": p} for i, p in items]},
            ("digit", "probability"), items)


def _cmd_invariance(args):
    rows = core.invariance_rows(core.NcfParams(args.n), args.grid)
    return ({"grid": args.grid, "max_abs_error": max(r[3] for r in rows),
             "curve": [{"u": r[0], "integral": r[1], "cdf": r[2], "abs_error": r[3]}
                       for r in rows]},
            ("u", "kernel_integral", "cdf", "abs_error"), rows)


def _cmd_transfer(args):
    from . import transfer
    f = transfer.GridFunction.from_callable(lambda x: x, args.grid)
    c_f, sup_errors, lip_errors = transfer.error_curves(f, core.NcfParams(args.n), args.nmax)
    rows = [(k, float(e), float(lip)) for k, e, lip in
            zip(range(1, args.nmax + 1), sup_errors, lip_errors)]
    return ({"grid": args.grid, "limit_value": c_f,
             "curve": [{"step": r[0], "sup_error": r[1], "lipschitz_error": r[2]}
                       for r in rows]},
            ("step", "sup_error", "lipschitz_error"), rows)


def _cmd_gap(args):
    from . import transfer
    params = core.NcfParams(args.n)
    f = transfer.GridFunction.from_callable(lambda x: x, args.grid)
    est = transfer.estimate_gap(f, params, args.nmax)
    sup_errors = [float(e) for e in est.sup_errors]
    lip_errors = [float(e) for e in est.lip_errors]
    return ({"grid": args.grid, "q_hat": est.q_hat, "k_hat": est.k_hat,
             "fit_window": est.n_window,
             "residuals": [float(r) for r in est.residuals],
             "sup_errors": sup_errors, "lipschitz_errors": lip_errors},
            ("step", "sup_error", "lipschitz_error"),
            zip(range(1, args.nmax + 1), sup_errors, lip_errors))


_MEASURES = ("lebesgue", "gauss", "tilted")


def _cmd_gk(args):
    import dataclasses
    import numpy as np
    from . import gausskuzmin
    params = core.NcfParams(args.n)
    mu = {"lebesgue": gausskuzmin.lebesgue_measure,
          "gauss": functools.partial(gausskuzmin.gauss_initial, params),
          "tilted": gausskuzmin.tilted_measure}[args.mu]()
    rng = np.random.default_rng(args.seed)
    report = gausskuzmin.run_experiment(
        mu, params, n_max=args.nmax, m=args.grid, rng=rng,
        require_fit=args.require_fit or args.mu != "gauss")
    bad = [c for c in report.method_agreement if not c["agrees"]]
    if bad:  # exit 4, as for a fit that cannot be made
        raise FitError("Monte Carlo check at n={n}, x={x} out of band: operator {operator:.4g}, "
                       "montecarlo {montecarlo:.4g}, band {band:.2g}".format(**bad[0]))
    return ({"mu": args.mu, "seed": args.seed, **dataclasses.asdict(report)},
            ("step", "sup_error"), zip(report.n_values, report.sup_errors))


def _cmd_rscc_mealy(args):
    kernel = core.mealy_kernel(args.alpha, args.beta)
    if args.dot:
        return core.mealy_dot(kernel)
    return ({"alpha": args.alpha, "beta": args.beta, "kernel": kernel,
             "cesaro_from_1": core.mealy_cesaro(kernel, args.nmax)[0],  # row of state 1
             "stationary": core.mealy_cesaro(kernel, math.inf)[0],
             "cesaro_steps": args.nmax},
            ("state", "to_1", "to_2"), [(i + 1, kernel[i][0], kernel[i][1]) for i in range(2)])


def _cmd_contraction(args):
    import dataclasses
    from . import rscc
    sys_ = rscc.make_ncf_rscc(core.NcfParams(args.n))
    # --seed is accepted and has no effect: no state pair is drawn at random
    rep = rscc.contraction_coefficients(sys_, k_max=args.kmax, grid=args.grid)
    return dataclasses.asdict(rep), ("k", "r_k"), enumerate(rep.r_values, 1)


def _cmd_regularity(args):
    params = core.NcfParams(args.n)
    x_star, ratio_limit, orbits = core.lowest_branch_orbits(params, args.starts, args.nmax)
    final = [collections.deque(o, maxlen=1).pop() for o in orbits]  # O(1) in --nmax
    return ({"x_star": x_star, "ratio_limit": ratio_limit,
             "starts": args.starts, "final_distances": final},
            ("start", "final_distance"), zip(args.starts, final))


def _n_overflow(args, exc):
    """The message for an OverflowError that --n caused, else None: N has no
    binary64 value from about 1.8e308 on, and N^2 none from about 1.3e154,
    where `regularity`'s N^2 + 4N and `digit-law`'s N(N + 2) stop converting;
    a command with --grid takes N * grid (`invariance` as N/u from u =
    1/grid on), which overflows from about 1.8e308/grid."""
    if not isinstance(exc, OverflowError) or "n" not in args:
        return None
    squares = args.command in ("regularity", "digit-law")
    try:
        n = float(args.n * args.n if squares else args.n)
    except OverflowError:
        limit, what = ("1.3e154", "N^2") if squares else ("1.8e308", "N")
        return f"--n must stay below about {limit}, where {what} has no binary64 value"
    if "grid" in args and math.isinf(n / (1.0 / args.grid)):
        limit = f"{_sys.float_info.max / args.grid:.1e}".replace("e+", "e")
        return (f"--n must stay below about {limit} at --grid {args.grid}, "
                "where N * grid has no binary64 value")
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncf", description="N-continued-fraction experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviations: a flag a command does not take, such as --n on
    # rscc-mealy, must not be read as a prefix of one it does (--nmax)
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    def flags(p, n=True, grid=None, nmax=None, seed=None):
        """The flags a command reads; a flag whose default is None is absent."""
        if n:
            p.add_argument("--n", type=int, default=1, help="expansion parameter N")
        for name, default in (("--grid", grid), ("--nmax", nmax), ("--seed", seed)):
            if default is not None:
                p.add_argument(name, type=_seed if name == "--seed" else _positive_int,
                               default=default)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)

    p = command("expand", help="digit expansion of a point")
    p.add_argument("--x", required=True, help="point in (0,1], 'p/q' or decimal", type=_typed(
        lambda t: Fraction(t) if "/" in t else float(t), "'p/q' with q nonzero, or a decimal"))
    p.add_argument("--max-len", type=_positive_int, default=64)
    flags(p)
    p.set_defaults(fn=_cmd_expand)

    p = command("eval", help="evaluate a finite digit sequence exactly")
    p.add_argument("--digits", required=True, help="comma-separated digits", type=_typed(
        lambda t: [int(d) for d in t.split(",")], "comma-separated integers"))
    flags(p)
    p.set_defaults(fn=_cmd_eval)

    p = command("digit-law", help="invariant law of the first digit")
    flags(p, grid=30)
    p.set_defaults(fn=_cmd_digit_law)

    p = command("invariance", help="kernel-integral invariance check")
    flags(p, grid=64)
    p.set_defaults(fn=_cmd_invariance)

    p = command("transfer", help="operator iteration error curve for f(x)=x")
    flags(p, grid=1024, nmax=40)
    p.set_defaults(fn=_cmd_transfer)

    p = command("gap", help="geometric-rate estimate for f(x)=x")
    flags(p, grid=2048, nmax=30)
    p.set_defaults(fn=_cmd_gap)

    p = command("gk", help="Gauss-Kuzmin experiment report")
    p.add_argument("--mu", choices=_MEASURES, default="lebesgue",
                   help="initial measure")
    p.add_argument("--require-fit", action="store_true",
                   help="fail (exit 4) if no geometric rate can be fitted")
    flags(p, grid=1024, nmax=40, seed=0)
    p.set_defaults(fn=_cmd_gk)

    p = command("rscc-mealy", help="two-state Mealy machine")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--dot", action="store_true", help="emit a GraphViz diagram")
    flags(p, n=False, nmax=1000)
    p.set_defaults(fn=_cmd_rscc_mealy)

    p = command("contraction", help="contraction-coefficient report")
    p.add_argument("--kmax", type=_positive_int, default=2)
    flags(p, grid=512, seed=0)
    p.set_defaults(fn=_cmd_contraction)

    p = command("regularity", help="orbit witness of kernel-support collapse")
    p.add_argument("--starts", default="0,0.25,0.5,0.75,1", type=_typed(
        lambda t: [float(x) for x in t.split(",")], "comma-separated numbers"))
    flags(p, nmax=200)
    p.set_defaults(fn=_cmd_regularity)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.fn(args)
        text = result if isinstance(result, str) else _render(args, *result)
    except BudgetExceededError as exc:
        print(f"ncf: budget error: {exc}", file=_sys.stderr)
        return 3
    except FitError as exc:
        print(f"ncf: fit error: {exc}", file=_sys.stderr)
        return 4
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"ncf: error: {_n_overflow(args, exc) or exc}", file=_sys.stderr)
        return 2
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            _sys.stdout.write(text)
    except OSError as exc:  # an --out that cannot be opened or written
        print(f"ncf: error: {exc}", file=_sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
