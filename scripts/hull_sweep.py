"""Solve a fixed sweep of stress instances with Frank-Wolfe and record each run.

Usage: python3 scripts/hull_sweep.py REPO OUT
       python3 scripts/hull_sweep.py --compare OLD NEW

The sweep is every two-plate instance ``tests/instances.two_plate_signed(
default_rng(1000 n + seed), n)`` for n = 4..15 nodes per plate and seed =
0..14, with g = 1 and each plate's mass 0.6 of its sigma, on the riesz Gram
with alpha = 2, under a case-1 field of +c on plate 0 and -c on plate 1 for
c = 1e2 ... 1e8 (one per decade): 1,260 runs of Frank-Wolfe with ``grad_tol``
1e-300 and ``max_iters`` 5000.  Such fields push the hull's corrective step
to the edge of round-off.

The first form runs the sweep in one child process on REPO's ``src/`` and
``tests/`` trees, from REPO, with ``OPENBLAS_NUM_THREADS=1``.  OUT gets one
JSON line per run: ``n``, ``seed``, ``c``, ``iterations``, ``value``, the
duality ``gap`` at the returned minimizer, ``slowest_step_s`` (the slowest
corrective step, in seconds of the process's CPU time, which leaves out the
time it waited for a core) and ``lstsq`` (calls of
``np.linalg.lstsq`` during the solve).

The second form reads two OUT files of the first and prints what differs: the
runs whose iteration count moved, the runs whose values differ by more than
the larger of the two duality gaps plus 1e-12 relative, and per file the
slowest corrective step and the runs that called ``lstsq``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

NODES, SEEDS, FIELDS = range(4, 16), range(15), [10.0 ** k for k in range(2, 9)]


def sweep(out: Path) -> None:
    """Run every instance on the importable ``vequil`` and write OUT."""
    import dataclasses

    import numpy as np
    from instances import random_gram, two_plate_signed

    from vequil import FieldSpec, solver
    from vequil.condenser import CASE1, Condenser
    from vequil.solver import _QP, SolverConfig, solve

    step, lstsq = solver._corrective_step, np.linalg.lstsq
    slowest, calls = [0.0], [0]

    def timed_step(*args):
        start = time.process_time()
        result = step(*args)
        slowest[0] = max(slowest[0], time.process_time() - start)
        return result

    def counted_lstsq(*args, **kwargs):
        calls[0] += 1
        return lstsq(*args, **kwargs)

    solver._corrective_step, np.linalg.lstsq = timed_step, counted_lstsq
    cfg = SolverConfig(algorithm="frank_wolfe", grad_tol=1e-300, max_iters=5000)
    with open(out, "w", encoding="utf-8") as fh:
        for n in NODES:
            for seed in SEEDS:
                plates = two_plate_signed(np.random.default_rng(1000 * n + seed), n).plates
                c = Condenser(plates=tuple(dataclasses.replace(
                    p, g=np.ones(n), mass=0.6 * float(p.sigma.sum())) for p in plates))
                K = random_gram(np.random.default_rng(seed), c, alpha=2.0)
                for field in FIELDS:
                    f = FieldSpec(case=CASE1, case1_values=(np.full(n, field), np.full(n, -field)))
                    slowest[0], calls[0] = 0.0, 0
                    rep = solve(c, K, f, cfg)
                    qp = _QP(c, K, f)
                    w = rep.minimizer.concat()
                    grad = qp.gradient(w)
                    gap = float(grad @ (w - qp.lmo(grad)))
                    fh.write(json.dumps({"n": n, "seed": seed, "c": field,
                                         "iterations": rep.iterations, "value": rep.value,
                                         "gap": gap, "slowest_step_s": slowest[0],
                                         "lstsq": calls[0]}) + "\n")


def compare(old: Path, new: Path) -> None:
    """Print the runs of two OUT files that differ, and each file's slowest step."""
    runs = [[json.loads(line) for line in path.read_text().splitlines()] for path in (old, new)]
    if [(r["n"], r["seed"], r["c"]) for r in runs[0]] != \
            [(r["n"], r["seed"], r["c"]) for r in runs[1]]:
        raise SystemExit(f"{old} and {new} cover different sweeps")
    moved = far = 0
    for a, b in zip(*runs):
        label = f"n={a['n']} seed={a['seed']} c={a['c']:.0e}"
        if a["iterations"] != b["iterations"]:
            moved += 1
            print(f"iterations {label}: {a['iterations']} -> {b['iterations']}")
        allowed = max(a["gap"], b["gap"], 0.0) + 1e-12 * max(abs(a["value"]), abs(b["value"]))
        if not abs(a["value"] - b["value"]) <= allowed:
            far += 1
            print(f"value {label}: {a['value']!r} -> {b['value']!r}, allowed {allowed:.3g}")
    print(f"{len(runs[0])} runs: {moved} iteration counts moved, {far} values beyond the gaps")
    for path, rows in zip((old, new), runs):
        worst = max(rows, key=lambda r: r["slowest_step_s"])
        users = [r for r in rows if r["lstsq"]]
        print(f"{path}: slowest corrective step {1e3 * worst['slowest_step_s']:.3f} ms "
              f"(n={worst['n']} seed={worst['seed']} c={worst['c']:.0e}); "
              f"{len(users)} runs called lstsq, {sum(r['lstsq'] for r in users)} calls")


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        compare(Path(argv[1]), Path(argv[2]))
        return 0
    if len(argv) == 2 and argv[0] == "--here":  # the child of the first form
        sweep(Path(argv[1]))
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    repo, target = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(repo / "src"), str(repo / "tests")])}
    return subprocess.run([sys.executable, str(Path(__file__).resolve()), "--here", str(target)],
                          cwd=repo, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
