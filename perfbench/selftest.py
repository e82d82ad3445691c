"""Self-tests of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

They run each workload at a tiny size through the code path of a real run,
check that a corrupted reference value is reported as a failure, check that
each traced command's span self times sum to its wall time within the
measured tracing overhead, check that the metric names match
``BENCHMARK.json``, and check that a directory holding only the benchmark
files makes the benchmark fail without printing a result.  Exit code 0 means
every test passed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from spans import LAYER_METRICS, RUN_METRICS
from workloads import (
    EXHAUST_STAGE_VALUES,
    BalayagePlate,
    CapacitySphere,
    ExhaustFW,
)

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
SECONDS = 2.0
TINY = (CapacitySphere(n_nodes=200), ExhaustFW(), BalayagePlate(side=8))


def run_tiny(workload, trace: int) -> tuple[int, dict, dict]:
    """One short run in this process: (exit code, details, result)."""
    args = run.parse_args(["--workload", workload.name, "--seed", "3",
                           "--seconds", str(SECONDS), "--trace", str(trace)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run_workload(workload, args, ROOT, ROOT / "src", run.set_blas_threads(None))
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[-2])["details"], json.loads(lines[-1])


def test_tiny_workloads() -> None:
    for workload in TINY:
        for trace in (0, 1):
            code, details, result = run_tiny(workload, trace)
            assert code == 0 and result["correct"], (workload.name, details["failures"])
            assert result["failed"] == 0 and result["attempted"] >= 2, result
            if trace:
                check_span_sums(workload.name, details, result)


def check_span_sums(name: str, details: dict, result: dict) -> None:
    """Per command, the wall time minus the sum of span self times is the
    cost of the root span's own wrapper: at least 0, at most the overhead."""
    metrics = result["metrics"]
    overhead = (metrics["trace.time_to_solution_s.p50"]["value"]
                - metrics["trace.untraced_time_to_solution_s.p50"]["value"])
    gap = details["span_gap_s"]
    assert gap["min"] >= 0.0, (name, gap)
    assert gap["max"] <= max(overhead, 1e-3), (name, gap, overhead)


def test_corrupted_reference_fails() -> None:
    stages = list(EXHAUST_STAGE_VALUES)
    stages[2] *= 1.0 + 1e-6
    corrupted = (CapacitySphere(n_nodes=200, bias=1.001 * CapacitySphere(200).bias),
                 ExhaustFW(stage_values=stages))
    for workload in corrupted:
        code, details, result = run_tiny(workload, trace=0)
        assert code != 0 and not result["correct"], (workload.name, result)
        assert result["failed"] == result["attempted"], (workload.name, result)
        assert details["failures"], details


def test_metric_names_match_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    _, _, result0 = run_tiny(TINY[2], trace=0)
    _, _, result1 = run_tiny(TINY[2], trace=1)
    assert {k: v["unit"] for k, v in result0["metrics"].items()} == end_to_end
    assert {k: v["unit"] for k, v in result1["metrics"].items()} == per_layer
    assert [m[0] for m in LAYER_METRICS] + [m[0] for m in RUN_METRICS] == list(per_layer)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_fails_without_program() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench_work-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        spec = json.loads((bare / "BENCHMARK.json").read_text())
        proc = subprocess.run(
            [*spec["command"], "--workload", "exhaust_fw", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0, proc
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    tests = [test_tiny_workloads, test_corrupted_reference_fails,
             test_metric_names_match_benchmark_json, test_fails_without_program]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
