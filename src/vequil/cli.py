"""Command-line front end.

Subcommands mirror the library operations: ``solve``, ``capacity``,
``balayage``, ``exhaust``, ``thinness``, ``check-pd``.  Each reads a JSON
problem config (``thinness`` takes flags instead), runs the operation, and
emits one JSON record per line (or a CSV table with ``--format csv``).

Exit codes: 0 on success, 2 when the problem was feasible but a solve did
not reach its tolerance, 1 on usage/parse/infeasibility/domain errors and
when memory runs out (an ``error:`` line, not a traceback).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys

import numpy as np

from .analysis import balayage, equilibrium, exhaustion_experiment, thinness_demo
from .config import parse_config
from .errors import VequilError
from .geometry import PROFILES
from .kernels import GramMatrix, check_positive_definite
from .solver import Problem


def _records_to_csv(records: list[dict]) -> str:
    keys: list[str] = []
    for rec in records:
        for key, val in rec.items():
            if isinstance(val, (list, dict)):
                continue
            if key not in keys:
                keys.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    for rec in records:
        writer.writerow([rec.get(k, "") for k in keys])
    return buf.getvalue()


def _emit(records: list[dict], fmt: str, out: str | None) -> None:
    if fmt == "csv":
        text = _records_to_csv(records)
    else:
        text = "\n".join(json.dumps(rec) for rec in records) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise VequilError(f"cannot write output file {out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _with_seed(problem: Problem, seed: int | None) -> Problem:
    if seed is None:
        return problem
    cfg = dataclasses.replace(problem.config, seed=seed)
    return dataclasses.replace(problem, config=cfg)


def _plate_gram(problem: Problem, k: int) -> GramMatrix:
    """Plate ``k``'s diagonal block of the parse-time Gram: the same entries an
    assembly over the plate's nodes would compute, under the same epsilon."""
    return problem.gram.block(problem.condenser.slices()[k])


def _record(command: str, report, lead: dict | None = None, trail: dict | None = None,
            skip: tuple = ()) -> dict:
    """A report's record: ``command``, the leading context, every report field
    not named in ``skip`` in declaration order, the trailing context, then the
    report's per-node arrays as lists."""
    values = [(f.name, getattr(report, f.name)) for f in dataclasses.fields(report)
              if f.name not in skip]
    arrays = {k: v.tolist() for k, v in values if isinstance(v, np.ndarray)}
    return {
        "command": command,
        **(lead or {}),
        **{k: v for k, v in values if k not in arrays},
        **(trail or {}),
        **arrays,
    }


def _cmd_solve(args) -> int:
    parsed = parse_config(args.config)
    problem = _with_seed(parsed.problem, args.seed)
    rep = problem.solve()
    # The per-iteration trace is not part of the record.
    record = _record("solve", rep, skip=("minimizer", "objective_trace", "multipliers"), trail={
        "multipliers": list(rep.multipliers),
        "plates": [
            {"id": p.id, "weights": w.tolist()}
            for p, w in zip(problem.condenser.plates, rep.minimizer.weights)
        ],
    })
    _emit([record], args.format, args.out)
    return 0 if rep.converged else 2


def _cmd_capacity(args) -> int:
    parsed = parse_config(args.config)
    plate_idx = parsed.capacity_plate
    plate = parsed.problem.condenser.plates[plate_idx]
    cfg = _with_seed(parsed.problem, args.seed).config
    eq = equilibrium(plate.nodes, _plate_gram(parsed.problem, plate_idx),
                     frostman_tol=parsed.frostman_tol, config=cfg)
    _emit([_record("capacity", eq, lead={"plate": plate_idx, "n_nodes": plate.n_nodes})],
          args.format, args.out)
    return 0 if eq.converged else 2


def _cmd_balayage(args) -> int:
    parsed = parse_config(args.config)
    if parsed.balayage_source is None:
        raise VequilError("balayage: config has no balayage section")
    plate_idx = parsed.balayage_plate
    rep = balayage(parsed.balayage_source, _plate_gram(parsed.problem, plate_idx))
    ok = rep.potential_residual <= parsed.balayage_tol
    _emit([_record("balayage", rep, lead={"target_plate": plate_idx}, trail={"within_tol": ok})],
          args.format, args.out)
    return 0 if ok else 2


def _cmd_exhaust(args) -> int:
    parsed = parse_config(args.config)
    if not parsed.exhaust_schedule:
        raise VequilError("exhaust: config has no exhaust section")
    fractions, scales = zip(*parsed.exhaust_schedule)
    trace = exhaustion_experiment(_with_seed(parsed.problem, args.seed), fractions, scales)
    full = {"full_value": trace.full_value, "full_converged": trace.full_converged}
    _emit([_record("exhaust", st, trail=full) for st in trace.stages], args.format, args.out)
    ok = trace.full_converged and all(st.converged for st in trace.stages if st.feasible)
    return 0 if ok else 2


def _cmd_thinness(args) -> int:
    rep = thinness_demo(
        args.profile,
        args.s,
        args.radii,
        q=args.q,
        include_gap=not args.no_gap,
    )
    lead, note = {"profile": rep.profile, "s": rep.s}, {"note": rep.note}
    _emit([_record("thinness", st, lead=lead, trail=note) for st in rep.stages],
          args.format, args.out)
    return 0 if all(st.converged for st in rep.stages) else 2


def _cmd_check_pd(args) -> int:
    parsed = parse_config(args.config)
    _emit([_record("check-pd", check_positive_definite(parsed.problem.gram))],
          args.format, args.out)
    return 0


def _add_common(sub: argparse.ArgumentParser, with_config: bool = True,
                with_seed: bool = False) -> None:
    if with_config:
        sub.add_argument("config", help="path to a JSON problem config")
    sub.add_argument("--out", default=None, help="write records to this file")
    if with_seed:
        sub.add_argument("--seed", type=int, default=None, help="override the solver seed")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="vequil",
        description="Constrained weighted-energy problems on signed condensers",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("solve", help="minimize the weighted energy"), with_seed=True)
    _add_common(subs.add_parser("capacity", help="equilibrium measure and capacity of a plate"),
                with_seed=True)
    _add_common(subs.add_parser("balayage", help="sweep a source measure onto a plate"))
    _add_common(subs.add_parser("exhaust", help="value continuity under node-set exhaustion"),
                with_seed=True)
    thin = subs.add_parser("thinness", help="capacity dichotomy of thinning bodies")
    thin.add_argument("--profile", required=True, choices=PROFILES)
    thin.add_argument("--s", type=float, required=True, help="profile decay parameter")
    thin.add_argument("--radii", type=float, nargs="+", required=True)
    thin.add_argument("--q", type=float, default=1.0, help="axial start of the body")
    thin.add_argument("--no-gap", action="store_true",
                      help="skip the two-plate solve; report capacities only")
    _add_common(thin, with_config=False)
    _add_common(subs.add_parser("check-pd", help="positive-definiteness diagnosis"))
    return parser


_DISPATCH = {
    "solve": _cmd_solve,
    "capacity": _cmd_capacity,
    "balayage": _cmd_balayage,
    "exhaust": _cmd_exhaust,
    "thinness": _cmd_thinness,
    "check-pd": _cmd_check_pd,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the usage error, or the help (code 0)
        if not exc.code:
            raise
        return 1
    try:
        return _DISPATCH[args.command](args)
    except VequilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
