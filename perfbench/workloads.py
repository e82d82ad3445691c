"""The benchmark's workloads: seeded command inputs and output checks.

Each workload turns a seed into a sequence of distinct commands (config text
plus argv for ``vequil.cli.main``) and checks each command's exit code and
JSON records.  A check returns ``None`` when the output is right, otherwise
a one-line reason.  The reference values below were recorded from the seed
commit of the benchmark (``f8adb3d``); the tolerances are fixed from the
solver tolerances, not fitted to runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Value tolerance for results certified by a KKT residual of 1e-10: the same
# absolute tolerance the solve golden is checked with.
VALUE_TOL = 1e-8

# Discretization bias (capacity - R) / R of the Fibonacci sphere under the
# default eps = h/2 regularization.  It does not depend on R or the centre.
CAPACITY_BIAS = {200: 0.04866059291498703, 3000: 0.012439869860406905}

# Stage values of exhaust_two_plate.json; the minimizer is unique, so they do
# not depend on the Frank-Wolfe start.  PG at grad_tol 1e-12 agrees to 1e-14.
EXHAUST_STAGE_VALUES = (
    2.7077891482857117,
    2.2400901299189697,
    1.9255984782242177,
    1.6982653287859453,
)
EXHAUST_FULL_VALUE = 1.6982653287859453

# The geometry of configs/exhaust_two_plate.json, kept here so that the
# workload does not change when that example config does.
EXHAUST_PLATES = (
    {"sign": 1, "low": [-2.4, -0.8, -0.8], "high": [-1.2, 0.8, 0.8], "shape": [6, 4, 4],
     "a": 1.0, "sigma": 0.05},
    {"sign": -1, "low": [1.2, -0.8, -0.8], "high": [2.4, 0.8, 0.8], "shape": [6, 4, 4],
     "a": 1.2, "sigma": 0.06},
)
EXHAUST_FRACTIONS = [0.25, 0.5, 0.75, 1.0]
EXHAUST_SIGMA_SCALES = [1.3, 1.1, 1.02, 1.0]


@dataclass(frozen=True)
class Command:
    """One command: the config text, the argv after the config path, and what
    the check needs to know about the input."""

    subcommand: str
    config: str
    extra_argv: tuple
    expect: dict

    def argv(self, config_path: str) -> list[str]:
        return [self.subcommand, config_path, *self.extra_argv]


def _offset(rng: random.Random, size: float) -> list[float]:
    return [rng.uniform(-size, size) for _ in range(3)]


def _close(value, reference: float) -> bool:
    if not isinstance(value, (int, float)):
        return False
    return abs(value - reference) <= VALUE_TOL * max(1.0, abs(reference))


def _records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


class CapacitySphere:
    """``vequil capacity`` on a Fibonacci sphere of random radius and centre."""

    name = "capacity_sphere"
    grad_tol = 1e-10

    def __init__(self, n_nodes: int = 3000, bias: float | None = None):
        self.n_nodes = n_nodes
        self.bias = CAPACITY_BIAS[n_nodes] if bias is None else bias

    def command(self, rng: random.Random) -> Command:
        radius = rng.uniform(0.5, 3.0)
        doc = {
            "kernel": {"family": "newtonian"},
            "plates": [{
                "sign": 1,
                "nodes": {"generator": "sphere", "count": self.n_nodes, "radius": radius,
                          "center": _offset(rng, 2.0)},
                "g": 1.0, "a": 1.0, "sigma": 1.0,
            }],
            "solver": {"algorithm": "projected_gradient", "grad_tol": self.grad_tol},
            "capacity": {"plate": 0},
        }
        return Command("capacity", json.dumps(doc), (), {"radius": radius})

    def check(self, cmd: Command, code, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        (rec,) = _records(stdout)
        if not rec["converged"]:
            return "not converged"
        if not rec["kkt_residual"] <= self.grad_tol:
            return f"kkt_residual {rec['kkt_residual']} > {self.grad_tol}"
        if not rec["frostman_violation"] <= rec["frostman_tol"]:
            return f"frostman_violation {rec['frostman_violation']}"
        if rec["n_nodes"] != self.n_nodes or len(rec["unit_minimizer"]) != self.n_nodes:
            return "wrong node count"
        radius = cmd.expect["radius"]
        if not _close(rec["capacity"] / radius, 1.0 + self.bias):
            return f"capacity {rec['capacity']} != R (1 + {self.bias}) for R = {radius}"
        return None

    def accuracy(self, cmd: Command, stdout: str) -> dict:
        (rec,) = _records(stdout)
        radius = cmd.expect["radius"]
        return {"capacity_rel_err": abs(rec["capacity"] - radius) / radius}


class ExhaustFW:
    """``vequil exhaust`` with Frank-Wolfe on the exhaust_two_plate geometry,
    translated by a random offset, with a random Frank-Wolfe start."""

    name = "exhaust_fw"

    def __init__(self, stage_values=EXHAUST_STAGE_VALUES, full_value=EXHAUST_FULL_VALUE):
        self.stage_values = tuple(stage_values)
        self.full_value = full_value

    def command(self, rng: random.Random) -> Command:
        off = _offset(rng, 5.0)
        plates = [{
            "sign": p["sign"],
            "nodes": {"generator": "grid", "shape": p["shape"],
                      "low": [x + o for x, o in zip(p["low"], off)],
                      "high": [x + o for x, o in zip(p["high"], off)]},
            "g": 1.0, "a": p["a"], "sigma": p["sigma"],
        } for p in EXHAUST_PLATES]
        doc = {
            "kernel": {"family": "riesz", "alpha": 2.0},
            "plates": plates,
            "solver": {"algorithm": "frank_wolfe", "grad_tol": 1e-10},
            "exhaust": {"fractions": EXHAUST_FRACTIONS, "sigma_scales": EXHAUST_SIGMA_SCALES},
        }
        return Command("exhaust", json.dumps(doc), ("--seed", str(rng.randrange(1, 2**31))), {})

    def check(self, cmd: Command, code, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        recs = _records(stdout)
        if len(recs) != len(self.stage_values):
            return f"{len(recs)} stage records"
        for k, (rec, ref) in enumerate(zip(recs, self.stage_values)):
            if not (rec["feasible"] and rec["converged"]):
                return f"stage {k} infeasible or not converged"
            if not _close(rec["value"], ref):
                return f"stage {k} value {rec['value']} != {ref}"
        if not _close(recs[0]["full_value"], self.full_value):
            return f"full value {recs[0]['full_value']} != {self.full_value}"
        return None

    def accuracy(self, cmd: Command, stdout: str) -> dict:
        return {}


class BalayagePlate:
    """``vequil balayage`` of a random 3-point positive source above a planar
    grid plate; the whole scene is translated by a random offset."""

    name = "balayage_plate"
    tol = 1e-8

    def __init__(self, side: int = 32):
        self.side = side

    def command(self, rng: random.Random) -> Command:
        off = _offset(rng, 5.0)
        support = [[rng.uniform(-0.8, 0.8) + off[0], rng.uniform(-0.8, 0.8) + off[1],
                    rng.uniform(0.3, 1.5) + off[2]] for _ in range(3)]
        weights = [rng.uniform(0.2, 1.0) for _ in range(3)]
        doc = {
            "kernel": {"family": "newtonian"},
            "plates": [{
                "sign": 1,
                "nodes": {"generator": "grid", "shape": [self.side, self.side, 1],
                          "low": [off[0] - 1.0, off[1] - 1.0, off[2]],
                          "high": [off[0] + 1.0, off[1] + 1.0, off[2]]},
                "g": 1.0, "a": 1.0, "sigma": 1.0,
            }],
            "balayage": {"source": {"support": support, "weights": weights},
                         "target_plate": 0, "tol": self.tol},
        }
        return Command("balayage", json.dumps(doc), (), {})

    def check(self, cmd: Command, code, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        (rec,) = _records(stdout)
        if not (rec["within_tol"] and rec["potential_residual"] <= self.tol):
            return f"potential_residual {rec['potential_residual']} > {self.tol}"
        if not 0.0 < rec["mass_ratio"] <= 1.0:
            return f"mass_ratio {rec['mass_ratio']} outside (0, 1]"
        if len(rec["swept"]) != self.side * self.side:
            return "wrong target size"
        return None

    def accuracy(self, cmd: Command, stdout: str) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (CapacitySphere(), ExhaustFW(), BalayagePlate())}


def commands(workload, seed: int, count: int) -> list[Command]:
    """The first ``count`` commands of a workload for a seed.

    The generator is seeded with the workload name and the seed, so the same
    seed gives the same inputs and two workloads never share a stream.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    return [workload.command(rng) for _ in range(count)]
