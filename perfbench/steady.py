"""Steadiness check: two sets of seeded runs of the same code, compared.

    python3 perfbench/steady.py [--workloads a,b]

Runs `run.py --trace 0` for BENCHMARK.json's run_seconds once per seed and
workload (all its workloads unless --workloads names some), set 1 on seeds
1-10 and set 2 on seeds 11-20, interleaving workloads so that a change in
machine load reaches all of them.  For each workload and end-to-end metric it
prints each set's median and quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median, and whether the benchmark accepts it: every
spread, setup_s included, within the metric's bound in BENCHMARK.json, and
the two medians within the bound of each other in both directions (set 2
no worse than set 1, and set 1 no worse than set 2).  The summary is also
written to perfbench/results/steady.json.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import quartile_spread  # noqa: E402

SETS = (range(1, 11), range(11, 21))  # the seeds of set 1 and set 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "run.py"),
                             "--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"],
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=300)
    finally:
        if proc.poll() is None:
            proc.terminate()  # run.py stops its own children on SIGTERM
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    values = {(s, w, name): [] for s in range(len(SETS)) for w in workloads for name in metrics}
    failed = {}
    for s, seeds in enumerate(SETS):
        for seed in seeds:
            for w in workloads:
                res = run_once(w, seed, spec["run_seconds"])
                failed.setdefault(w, []).append((res["correct"], res["failed"], res["attempted"]))
                for name in metrics:
                    values[(s, w, name)].append(res["metrics"][name]["value"])
                print(f"set {s + 1} seed {seed} {w}: " + ", ".join(
                    f"{n}={res['metrics'][n]['value']:.4g}" for n in metrics), flush=True)

    ok_all = True
    summary = []
    for w in workloads:
        print(f"\n{w}: correct/failed/attempted {sorted(set(failed[w]))}")
        for name, m in metrics.items():
            stats = [quartile_spread(values[(s, w, name)]) for s in range(len(SETS))]
            meds = [st[0] for st in stats]
            sign = 1.0 if m["better"] == "lower" else -1.0
            # worse[s]: how much set s is worse than the other set, as a share of it
            worse = [sign * (meds[s] - meds[1 - s]) / meds[1 - s] for s in range(2)]
            agree = max(worse) <= m["bound"]
            for s, (med, q1, q3, spread) in enumerate(stats):
                ok = spread <= m["bound"] and agree
                ok_all &= ok
                summary.append({"workload": w, "metric": name, "set": s + 1, "median": med,
                                "q1": q1, "q3": q3, "spread": spread,
                                "worse_than_other_set": worse[s], "bound": m["bound"], "ok": ok})
                print(f"  {name:13s} set {s + 1}: median {med:.5g} {m['unit']}  q1 {q1:.5g}  "
                      f"q3 {q3:.5g}  spread {spread:.3f}  worse than set {2 - s} by "
                      f"{worse[s]:+.3f}  bound {m['bound']}  {'ok' if ok else 'NOT STEADY'}")
    out = ROOT / "perfbench" / "results"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(summary, indent=1) + "\n")
    print("\nsteady: all within bounds" if ok_all else "\nsteady: some metrics outside their bounds")
    return 0 if ok_all else 1


if __name__ == "__main__":
    raise SystemExit(main())
