"""Run a fixed list of vequil CLI commands and record everything they print.

Usage: python3 scripts/cli_outputs.py [--records] REPO OUT

Each command runs in its own child process on REPO's ``src/`` tree, from
REPO, with ``OPENBLAS_NUM_THREADS=1``: output bits depend on the BLAS thread
count.  OUT gets, per command, a header line with its label, then its exit
code, standard output and standard error.  Two trees print the same bytes on
every command exactly when their OUT files are equal (``cmp A B``).

With ``--records``, OUT is instead a JSON list with one entry per command:
its label, exit code, ``error:`` line (or null) and the records it
printed, parsed.  ``goldens/cli_records.json`` is this file, and
``tests/test_cli_records.py`` compares every command against it.

The list: ``solve``, ``capacity`` and ``exhaust`` on every committed config,
with no seed and with ``--seed 3``; ``balayage`` and ``check-pd`` on every
config; seven ``thinness`` commands; and ``solve`` and ``exhaust`` with
Frank-Wolfe on the two two-plate configs, with no seed, ``--seed 3`` and
``--seed 11``.  The Frank-Wolfe configs are the committed ones with
``solver.algorithm`` set to ``frank_wolfe``, passed inline as JSON text.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

CONFIGS = ("balayage_point_to_plate", "capacity_sphere", "check_pd_identity",
           "exhaust_two_plate", "solve_two_plate")
THINNESS = (["power_s", "1", "4", "8", "16", "32"], ["exp_s_gt1", "2", "5", "10", "20"],
            ["exp_s_le1", "0.5", "4", "8", "16", "64"])


def commands(repo: Path) -> list[tuple[str, list[str]]]:
    """``(label, argv)`` for every command, in a fixed order."""
    out = []
    for name in CONFIGS:
        path = f"configs/{name}.json"
        for command in ("solve", "capacity", "exhaust"):
            out += [(f"{command} {path}", [command, path]),
                    (f"{command} {path} --seed 3", [command, path, "--seed", "3"])]
        out += [(f"{command} {path}", [command, path]) for command in ("balayage", "check-pd")]
    out.append(("thinness power_s 1 4 8",
                ["thinness", "--profile", "power_s", "--s", "1", "--radii", "4", "8"]))
    for profile, s, *radii in THINNESS:
        argv = ["thinness", "--profile", profile, "--s", s, "--radii", *radii]
        out += [(" ".join(argv), argv), (" ".join(argv) + " --no-gap", [*argv, "--no-gap"])]
    for name in ("solve_two_plate", "exhaust_two_plate"):
        doc = json.loads((repo / "configs" / f"{name}.json").read_text())
        doc.setdefault("solver", {})["algorithm"] = "frank_wolfe"
        text = json.dumps(doc)
        for command in ("solve", "exhaust"):
            for seed in ([], ["--seed", "3"], ["--seed", "11"]):
                label = " ".join([command, f"<{name} with frank_wolfe>", *seed])
                out.append((label, [command, text, *seed]))
    return out


def outcome(label: str, code: int, stdout: str, stderr: str) -> dict:
    """One command's entry of the ``--records`` file."""
    errors = [line for line in stderr.splitlines() if line.startswith("error: ")]
    return {"label": label, "exit": code, "error": errors[-1] if errors else None,
            "records": [json.loads(line) for line in stdout.splitlines()]}


def main(argv: list[str]) -> int:
    records = argv[:1] == ["--records"]
    argv = argv[records:]
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    repo, target = Path(argv[0]).resolve(), Path(argv[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(repo / "src")}
    entries = []
    with open(target, "w", encoding="utf-8") as fh:
        for label, args in commands(repo):
            run = subprocess.run([sys.executable, "-m", "vequil.cli", *args], cwd=repo, env=env,
                                 capture_output=True, text=True)
            if records:
                entries.append(outcome(label, run.returncode, run.stdout, run.stderr))
            else:
                fh.write(f"### {label}\nexit {run.returncode}\n--- stdout\n{run.stdout}"
                         f"--- stderr\n{run.stderr}")
        if records:
            fh.write("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
