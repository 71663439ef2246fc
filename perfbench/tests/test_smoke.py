"""Smoke test of the benchmark harness itself: every workload at a tiny size.

    python -m pytest perfbench/tests -q

Checks the shape of the result line and that every metric is printed by
name with its unit.  Gates may fail at tiny sizes, so `correct` is not
asserted here; the full-size runs check it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.trace import LAYERS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "7", "--seconds", "1",
                           "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _printed(lines: list, workload: str) -> dict:
    """name -> unit of the '<workload> <name> = <value> <unit>' lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 5 and parts[0] == workload and parts[2] == "=":
            out[parts[1]] = parts[4]
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(wanted)
    for name, m in result["metrics"].items():
        assert m["unit"] == wanted[name][0]
        assert isinstance(m["value"], (int, float))

    printed = _printed(lines[:-1], workload)
    for name, (unit, _) in END_TO_END.items():
        assert printed[name] == unit
    assert printed["fail_frac"] == "frac"
    if trace:
        for name, (unit, _) in PER_LAYER.items():
            assert printed[name] == unit
        for layer in LAYERS + ("bench",):
            assert printed[f"{layer}.self_s"] == "s"
    env = {line.split()[1] for line in lines if line.startswith("env ")}
    assert {"nproc", "cpu_model", "cache_sizes", "python", "numpy", "scipy",
            "git_commit", "seed", "trace"} <= env


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


def test_refuses_to_run_without_the_program():
    bare = ROOT / "perfbench" / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    try:
        proc = _run("exact-mc", 0, cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare)
