"""One workload child: set up, run passes in a closed loop, check, report.

    python -m perfbench.child --workload NAME --seed N --seconds S [--trace] [--setup-only] [--tiny]

Started by `run.py` with `src` and the checkout root on PYTHONPATH.  Prints
one JSON object on its last stdout line.  `ready_at` is the monotonic clock
at the end of set-up (the import of `ncf`, or of `ncf.cli` in cli-mix, and
input generation); the parent subtracts its own clock reading at spawn, so
set-up includes interpreter start.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from time import perf_counter

from . import workloads
from .metrics import metric, tail


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.wall_s = 0.0
        self.latencies: list = []
        self.outcomes: list = []
        self.span_range = (0, 0)
        self.counts = {}


def run_pass(wl, tracer, traced: bool) -> Pass:
    p = Pass(traced)
    if traced:
        tracer.install()
        before = dict(tracer.counts)
    start = len(tracer.spans) if tracer else 0
    t_pass = perf_counter()
    for k, task in enumerate(wl.tasks):
        t0 = perf_counter()
        try:
            if traced:
                tracer.task = k
                with tracer.span("bench.task"):
                    result = (_traced_cli(tracer, task) if task.cli_argv is not None
                              else task.call())
            else:
                result = task.call()
            err = None
        except Exception as exc:  # a failing call is a failed task, not a harness error
            result, err = None, f"{type(exc).__name__}: {exc}"
        p.latencies.append(perf_counter() - t0)
        p.outcomes.append((result, err))
    p.wall_s = perf_counter() - t_pass
    if traced:
        tracer.uninstall()
        tracer.task = None
        p.counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
    p.span_range = (start, len(tracer.spans) if tracer else 0)
    return p


def _traced_cli(tracer, task):
    from .trace import MARKER

    with tracer.span("cli.proc", meta=task.name) as idx:
        code, out, err = workloads.run_cli(task.cli_argv, module="perfbench.cli_shim")
    kept = []
    for line in err.splitlines(keepends=True):
        if line.startswith(MARKER):
            tracer.adopt(json.loads(line[len(MARKER):]), idx)
        else:
            kept.append(line)
    return code, out, "".join(kept)


def check_pass(wl, p: Pass, failures: dict, accuracy: dict) -> int:
    failed = 0
    for task, (result, err) in zip(wl.tasks, p.outcomes):
        if err is None:
            try:
                figures = task.check(result)
            except workloads.CheckFailed as exc:
                err = f"check: {exc}"
            except Exception as exc:  # a result the check cannot read is a failure
                err = f"check raised {type(exc).__name__}: {exc}"
            else:
                for key, value in figures.items():
                    accuracy[key] = max(accuracy.get(key, value), value)
        if err is not None:
            failed += 1
            failures.setdefault(task.name, err)
    return failed


def layer_metrics(tracer, passes: list) -> dict:
    """Per-layer figures from the traced passes (medians over them)."""
    from .trace import LAYERS, ancestors_named, summarise

    names, spans = tracer.names, tracer.spans
    traced = [p for p in passes if p.traced]
    per_pass = []
    for p in traced:
        start, end = p.span_range
        s = summarise(names, spans, start, end)
        covered = sum(s["durations_ns"].get("bench.task", []))
        fig = {f"{layer}.self_s": s["layer_self_ns"].get(layer, 0) / 1e9 for layer in LAYERS}
        # the harness's own share: inside tasks but outside any ncf span, and
        # between tasks.  Time a missed ncf function takes lands here.
        fig["bench.self_s"] = (s["layer_self_ns"].get("bench", 0)
                               + max(0, p.wall_s * 1e9 - covered)) / 1e9
        apply_idx = [i for i in range(start, end)
                     if names[spans[i][0]] == "transfer.apply_transfer"]
        evals = sum((m + 1) * (i_max - n + 1) for m, n, i_max in (spans[i][5] for i in apply_idx))
        fig["transfer.apply.calls"] = len(apply_idx)
        fig["transfer.apply.self_s"] = s["self_ns"].get("transfer.apply_transfer", 0) / 1e9
        fig["transfer.apply.branch_evals"] = evals
        # computed, not measured: four float64 arrays (weights, branch points,
        # interpolated values, products) per branch evaluation
        fig["transfer.apply.bytes_computed"] = 32 * evals
        fig["transfer.estimate_gap_s"] = sum(s["durations_ns"].get("transfer.estimate_gap", [])) / 1e9
        experiments = s["calls"].get("gausskuzmin.run_experiment", 0)
        in_exp = sum(ancestors_named(names, spans, i, "gausskuzmin.run_experiment") for i in apply_idx)
        fig["gausskuzmin.applies_per_experiment"] = in_exp / experiments if experiments else 0
        fig["gausskuzmin.run_experiment.self_s"] = s["self_ns"].get("gausskuzmin.run_experiment", 0) / 1e9
        for method in ("operator", "montecarlo"):
            fig[f"gausskuzmin.distribution_at.{method}_s"] = sum(
                spans[i][2] - spans[i][1] for i in range(start, end)
                if names[spans[i][0]] == "gausskuzmin.distribution_at" and spans[i][5] == method) / 1e9
        fig["gausskuzmin.pushforward_density_s"] = sum(
            s["durations_ns"].get("gausskuzmin.pushforward_density", [])) / 1e9
        fig["measure.density_function.calls"] = s["calls"].get("measure.DensityFunction", 0)
        fig["rscc.contraction.words"] = p.counts.get("rscc.contraction.transitions", 0) // 2
        for i in range(start, end):
            name = names[spans[i][0]]
            if name == "cli.proc":
                fig.setdefault(f"cli.proc_ms.{spans[i][5]}", []).append((spans[i][2] - spans[i][1]) / 1e6)
            elif name == "cli.main":  # adopted from the shim: its parent is the cli.proc span
                fig.setdefault(f"cli.main_ms.{spans[spans[i][3]][5]}", []).append(
                    (spans[i][2] - spans[i][1]) / 1e6)
            elif name == "cli.import":
                fig.setdefault("cli.import_ms.in_call", []).append((spans[i][2] - spans[i][1]) / 1e6)
        for key, value in list(fig.items()):
            if isinstance(value, list):
                fig[key] = statistics.median(value)
        per_pass.append(fig)

    units = {"calls": "count", "branch_evals": "count", "bytes_computed": "B",
             "applies_per_experiment": "count", "words": "count"}
    out = {}
    for key in per_pass[0]:
        value = statistics.median(f[key] for f in per_pass if key in f)
        last = key.rsplit(".", 1)[-1]
        unit = units.get(last, "ms" if "_ms" in key else "s")
        if unit in ("count", "B"):
            value = per_pass[-1][key]  # exact counts: the same in every pass
        out[key] = metric(value, unit)
    untraced = statistics.median(p.wall_s for p in passes if not p.traced)
    traced_wall = statistics.median(p.wall_s for p in traced)
    out["trace.untraced_wall_s"] = metric(untraced, "s")
    out["trace.traced_wall_s"] = metric(traced_wall, "s")
    out["trace.overhead_frac"] = metric(traced_wall / untraced - 1.0, "frac")
    # ncf_frac + bench_frac = 1 + overhead_frac: the ncf layers account for the
    # untraced wall time up to the tracing overhead and the harness's share
    ncf_self = sum(out[f"{layer}.self_s"]["value"] for layer in LAYERS)
    out["trace.ncf_frac"] = metric(ncf_self / untraced, "frac")
    out["trace.bench_frac"] = metric(out["bench.self_s"]["value"] / untraced, "frac")
    out["measure.density_function.setup_calls"] = metric(
        sum(1 for sp in spans[:tracer.setup_end] if names[sp[0]] == "measure.DensityFunction"), "count")
    return out


def versions() -> dict:
    out = {"python": sys.version.split()[0]}
    for mod in ("numpy", "scipy"):
        try:
            out[mod] = __import__(mod).__version__
        except ImportError:
            out[mod] = None
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    # timed: the import is part of set-up.  cli-mix imports the module each
    # of its CLI processes runs, so its set-up is a figure of the program too.
    if workloads.uses_ncf(args.workload):
        import ncf  # noqa: F401
    else:
        import ncf.cli  # noqa: F401
    import_s = perf_counter() - t0
    tracer = None
    if args.trace:
        from .trace import Tracer
        tracer = Tracer()
        if workloads.uses_ncf(args.workload):
            tracer.install()
    wl = workloads.build(args.workload, args.seed, tiny=args.tiny)
    ready_at = perf_counter()
    if tracer:
        tracer.uninstall()
        tracer.setup_end = len(tracer.spans)
    rec = {"ready_at": ready_at, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(rec))
        return 0

    # closed loop: the next task starts when the previous one returns.  A
    # traced run alternates untraced and traced passes.  The number of
    # rounds is fixed by --seconds; only a machine over twice as slow as
    # the nominal pass time cuts it short.
    schedule = [False, True] if args.trace else [False]
    min_rounds = -(-wl.min_passes // len(schedule))
    rounds = max(min_rounds, int(args.seconds // (wl.pass_s * len(schedule))))
    passes, failures, accuracy = [], {}, {}
    attempted = failed = 0
    start = perf_counter()
    for r in range(rounds):
        if r >= min_rounds and perf_counter() - start > 2 * args.seconds:
            break
        for traced in schedule:
            p = run_pass(wl, tracer, traced)
            passes.append(p)
            attempted += len(wl.tasks)
            failed += check_pass(wl, p, failures, accuracy)
    if args.workload == "exact-mc":
        accuracy["core.roundtrip_mismatches"] = sum(
            1 for name in failures if name.startswith("roundtrip["))

    untraced = [p for p in passes if not p.traced]
    latencies = [1e3 * t for p in untraced for t in p.latencies]
    tail_ms, tail_pct, beyond = tail(latencies)
    rec.update({
        "versions": versions(),
        "passes": len(untraced),
        "pass_walls_s": [p.wall_s for p in untraced],
        "tasks_per_pass": len(wl.tasks),
        "task_p50_ms": statistics.median(latencies),
        "task_tail_ms": tail_ms,
        "task_tail_percentile": tail_pct,
        "task_tail_beyond": beyond,
        "task_samples": len(latencies),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "accuracy": accuracy,
        "maxrss_kb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                         resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
    })
    if tracer:
        from .probes import run_probes
        layers = layer_metrics(tracer, passes)
        layers.update(run_probes(args.seed))
        rec["layers"] = layers
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
