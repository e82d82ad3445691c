"""Benchmark of the vequil CLI: time to a certified solution, per workload.

Run from the root of a checkout; vequil is imported from ``src/`` there:

    python3 perfbench/run.py --workload capacity_sphere --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One run is one process and one client in a closed loop: it calls
``vequil.cli.main(argv)`` in process, each call with its own seeded config,
for ``--seconds`` seconds after one untimed warm-up command, and checks every
command's output.  ``--trace 0`` prints the end-to-end metrics, with each
command's time over that of a fixed reference computation timed around it
(see ``reference.py``); ``--trace 1`` alternates untraced and traced
commands and prints the per-layer metrics.
The last line of standard output is the result object; the line before it
holds the details (environment, sample counts, accuracy, failures).  The
exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import Reference
from spans import RUN_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS, commands

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")
# Commands generated per run; a run that uses them all stops early.
POOL = 1000
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 5
GOLDEN = "goldens/solve_two_plate.json"
GOLDEN_TOL = 1e-8
MAX_REPORTED_FAILURES = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=None,
                        help="BLAS threads (default: the CPUs this process may use); "
                             "1 gives the single-threaded baseline")
    return parser.parse_args(argv)


def set_blas_threads(threads: int | None) -> int:
    """Fix the BLAS thread count (default: the CPUs this process may use).

    Takes effect only before numpy is first imported.
    """
    threads = threads or len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def fresh_import_seconds(src: Path) -> float:
    """Wall time of a new interpreter that imports vequil.cli from ``src``."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import vequil.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(src)], check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def environment(threads: int) -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def call_cli(cli, argv: list[str]) -> tuple[object, float, str, str]:
    """Run one command in process: (exit code or exception, wall s, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code
        except Exception as exc:  # a crash is a failed command, not a failed run
            code = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    return code, wall, out.getvalue(), err.getvalue()


def check_golden(cli, root: Path) -> str | None:
    golden = json.loads((root / GOLDEN).read_text())
    code, _, out, err = call_cli(cli, ["solve", str(root / golden["config"])])
    if code != 0:
        return f"golden solve: exit code {code} {err.strip()}"
    rec = json.loads(out)
    if not rec["converged"] or abs(rec["value"] - golden["value"]) > GOLDEN_TOL:
        return f"golden solve: value {rec['value']} != {golden['value']}"
    return None


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    A run holds fewer than 40 samples when a command takes seconds, so the
    rule is relaxed there to at least a quarter of the samples beyond it;
    below 4 samples the tail is the maximum.  Returns (value, percentile,
    samples beyond).
    """
    xs = sorted(samples)
    n = len(xs)
    beyond = min(10, (n + 3) // 4) if n >= 4 else 0
    rank = n - beyond
    return xs[rank - 1], 100.0 * rank / n, beyond


class Loop:
    """The closed loop of one run: one command at a time, each checked."""

    def __init__(self, cli, workload, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.accuracy: dict[str, list[float]] = {}

    def run(self, index: int, cmd, tracer: Tracer | None = None) -> float:
        path = self.workdir / f"cmd{index}.json"
        path.write_text(cmd.config)
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            code, wall, out, err = call_cli(self.cli, cmd.argv(str(path)))
        finally:
            if tracer is not None:
                tracer.uninstall()
        path.unlink()
        self.attempted += 1
        try:
            problem = self.workload.check(cmd, code, out)
            if problem is None:
                for key, val in self.workload.accuracy(cmd, out).items():
                    self.accuracy.setdefault(key, []).append(val)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem is not None:
            self.failures.append(f"command {index}: {problem} {err.strip()[-200:]}".strip())
        return wall


def run_workload(workload, args: argparse.Namespace, root: Path, src: Path, threads: int) -> int:
    import_s = [fresh_import_seconds(src) for _ in range(SETUP_REPEATS)]
    start = time.perf_counter()
    cmds = commands(workload, args.seed, POOL)
    generate_s = time.perf_counter() - start
    setup_s = statistics.median(import_s) + generate_s

    sys.path.insert(0, str(src))
    import vequil.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: vequil imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    golden_problem = check_golden(cli, root)

    reference = None if args.trace else Reference()
    walls: list[float] = []
    ref_s: list[float] = []  # reference times before each timed command and after the last
    traced_walls: list[float] = []
    traces = []
    span_gaps: list[float] = []
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".perfbench_work-", dir=root) as work:
        loop = Loop(cli, workload, Path(work))
        loop.run(0, cmds[0])  # warm-up: lazy imports and first-touch allocation
        deadline = time.perf_counter() + args.seconds
        # At least one timed command, and one traced command in a traced run.
        last_required = 2 if tracer is not None else 1
        index = 1
        while index < len(cmds) and (time.perf_counter() < deadline or index <= last_required):
            if tracer is not None and index % 2 == 0:
                wall = loop.run(index, cmds[index], tracer)
                trace = tracer.end_command()
                traces.append(trace)
                traced_walls.append(wall)
                span_gaps.append(wall - trace.self_sum())
            else:
                if reference is not None:
                    ref_s.append(reference.seconds())
                walls.append(loop.run(index, cmds[index]))
            index += 1
        if reference is not None:
            ref_s.append(reference.seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = loop.failures + ([golden_problem] if golden_problem else [])
    p50 = statistics.median(walls)
    tail_s, tail_pct, tail_beyond = tail(walls)
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(threads),
        "samples": len(walls),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": tail_beyond,
        "time_to_solution_s": {"p50": p50, "tail": tail_s},
        "pool_exhausted": index >= len(cmds),
        "setup": {"import_s": import_s, "generate_s": generate_s},
        "golden": "ok" if golden_problem is None else golden_problem,
        "accuracy": {k: {"median": statistics.median(v), "max": max(v)}
                     for k, v in loop.accuracy.items()},
        "failures": failures[:MAX_REPORTED_FAILURES],
    }
    if tracer is None:
        # Each command's wall time over the mean of the reference times that
        # bracket it: time to solution in units of the reference computation.
        ratios = [wall / (0.5 * (before + after))
                  for wall, before, after in zip(walls, ref_s, ref_s[1:])]
        details["reference_s"] = {"p50": statistics.median(ref_s), "min": min(ref_s),
                                  "max": max(ref_s)}
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "time_to_solution_ref.p50": {"value": statistics.median(ratios), "unit": "ref"},
            "time_to_solution_ref.tail": {"value": tail(ratios)[0], "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        traced_p50 = statistics.median(traced_walls)
        metrics = layer_metrics(traces)
        run_values = {
            "trace.overhead_frac": traced_p50 / p50 - 1.0,
            "trace.time_to_solution_s.p50": traced_p50,
            "trace.untraced_time_to_solution_s.p50": p50,
        }
        for name, unit, _ in RUN_METRICS:
            metrics[name] = {"value": run_values[name], "unit": unit}
        details["traced_samples"] = len(traces)
        details["span_gap_s"] = {"min": min(span_gaps), "max": max(span_gaps)}
    correct = not failures
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": len(loop.failures), "metrics": metrics}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; one table of every metric."""
    results = {}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.blas_threads is not None:
            argv += ["--blas-threads", str(args.blas_threads)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            status = 1
        if len(lines) < 2:
            print(f"{name}: no result (exit code {proc.returncode})")
            continue
        details, result = json.loads(lines[-2])["details"], json.loads(lines[-1])
        results[name] = {"details": details, **result}
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} samples={details['samples']}")
        for metric, val in result["metrics"].items():
            print(f"  {metric:42s} {val['value']:.6g} {val['unit']}")
        for failure in details["failures"]:
            print(f"  FAILED {failure}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = set_blas_threads(args.blas_threads)
    root = Path.cwd()
    src = root / "src"
    if not (src / "vequil" / "cli.py").is_file():
        print(f"error: no vequil sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(WORKLOADS[args.workload], args, root, src, threads)


if __name__ == "__main__":
    sys.exit(main())
