"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's `src`.  The workload runs in a fresh child
process (`child.py`), one task at a time.  With `--trace 0` the run also
starts set-up-only children so that `setup_s` is a median, and the result
line carries the end-to-end metrics; with `--trace 1` the child alternates
untraced and traced passes, runs the probe set, and the result line
carries the per-layer metrics.  Every metric is printed as a line of its
own first, and the whole record, with the environment, is written to
`perfbench/results/`.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, PER_LAYER, environment, metric  # noqa: E402
from perfbench.workloads import WORKLOADS, known_defect  # noqa: E402

# set-ups per untraced run: the workload child's own, and set-up-only
# children split before and after it, so that the median spans the run
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"  # one dict/set layout for every child: less run-to-run noise
    # NumPy/BLAS pools capped at the CPUs this process may use
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(args, extra: list, deadline: float) -> dict:
    """Run one child to completion; its record plus `setup_s`."""
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    if args.tiny:
        cmd.append("--tiny")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any CLI process it started
        proc.communicate()
        raise ChildError(f"workload child exceeded the {RUN_LIMIT_S:.0f} s run limit")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"workload child exited {proc.returncode}:\n{err.strip()}")
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec["ready_at"] - t0
    return rec


def end_to_end(rec: dict, setups: list) -> dict:
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(rec["pass_walls_s"]), "s"),
        "task_p50_ms": metric(rec["task_p50_ms"], "ms"),
        "task_tail_ms": metric(rec["task_tail_ms"], "ms"),
        "fail_frac": metric(rec["failed"] / rec["attempted"], "frac"),
        "peak_rss_mb": metric(rec["maxrss_kb"] / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="run length: sets the fixed number of passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the harness smoke test")
    args = ap.parse_args(argv)

    # a SIGTERM unwinds through spawn(), which kills the child's process group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "ncf" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'ncf'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_LIMIT_S
    try:
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [spawn(args, ["--setup-only"], deadline)["setup_s"] for _ in range(extra // 2)]
        rec = spawn(args, ["--trace"] if args.trace else [], deadline)
        setups.append(rec["setup_s"])
        setups += [spawn(args, ["--setup-only"], deadline)["setup_s"]
                   for _ in range(extra - extra // 2)]
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = environment(ROOT, args.seed, bool(args.trace), rec["versions"])
    e2e = end_to_end(rec, setups)
    layers = rec.get("layers", {})
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {rec['passes']} untraced passes of {rec['tasks_per_pass']} tasks",
        "task_p50_ms": f"{rec['task_samples']} samples",
        "task_tail_ms": (f"p{rec['task_tail_percentile']:.2f}, {rec['task_tail_beyond']} "
                         f"samples beyond, {rec['task_samples']} samples"),
        "fail_frac": f"{rec['failed']} of {rec['attempted']} tasks",
    }
    for key, value in env.items():
        print(f"env {key} = {value}")
    for name, m in {**e2e, **layers}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}{note}")
    for name, value in sorted(rec["accuracy"].items()):
        print(f"{args.workload} accuracy {name} = {value!r}")
    if args.trace:
        print(f"{args.workload} trace coverage: ncf layers {layers['trace.ncf_frac']['value']:.4f}"
              f" + harness {layers['trace.bench_frac']['value']:.4f} of untraced wall_s"
              f" = 1 + overhead_frac {layers['trace.overhead_frac']['value']:+.4f}")
    for name, reason in rec["failures"].items():
        known = f"  [known defect: {known_defect(name)}]" if known_defect(name) else ""
        print(f"{args.workload} failed {name}: {reason}{known}")

    # known defects count in `failed` but do not make the outputs incorrect
    correct = all(known_defect(name) for name in rec["failures"])
    wanted = PER_LAYER if args.trace else END_TO_END
    result = {"correct": correct, "attempted": rec["attempted"], "failed": rec["failed"],
              "metrics": {name: (layers if args.trace else e2e)[name] for name in wanted}}
    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    tag = "-tiny" if args.tiny else ""
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "environment": env, "end_to_end": e2e,
        "per_layer": layers, "accuracy": rec["accuracy"], "failures": rec["failures"],
        "setup_samples_s": setups, "pass_walls_s": rec["pass_walls_s"],
        "task_tail": {"percentile": rec["task_tail_percentile"],
                      "beyond": rec["task_tail_beyond"], "samples": rec["task_samples"]},
        "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
