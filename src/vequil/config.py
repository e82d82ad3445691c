"""Problem-config parsing: JSON documents into a problem and typed command settings.

A config is a single JSON object with ``kernel``, ``plates``, and optional
``field``, ``solver``, ``capacity``, ``balayage``, and ``exhaust`` sections;
the last three become typed, defaulted settings on :class:`ParsedConfig`.
Plate nodes may be inline coordinate arrays or generator descriptions
(``sphere``, ``grid``, ``ring``, ``rotational_body``), so experiment configs
are self-contained.  Parsing failures raise :class:`ConfigError` anchored at
the offending field path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .analysis import _sub_gram, equilibrium, exhaustion_schedule
from .condenser import (
    CASE1,
    CASE2,
    Condenser,
    FieldSpec,
    Plate,
    ScalarSignedMeasure,
)
from .errors import ConfigError, VequilError
from .geometry import fibonacci_sphere, grid_nodes, ring_nodes, rotational_body
from .kernels import KernelSpec, assemble_gram
from .solver import Problem, SolverConfig

_GENERATORS = ("sphere", "grid", "ring", "rotational_body")


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _get(d: dict, key: str, path: str, required: bool = True, default=None):
    if key not in d:
        if required:
            raise _fail(f"{path}.{key}", "missing required field")
        return default
    return d[key]


def _as_float(value, path: str) -> float:
    if isinstance(value, str):
        token = value.strip().lower().lstrip("+")
        if token in ("inf", "infinity"):
            return float("inf")
        raise _fail(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise _fail(path, f"expected a number, got {value!r}") from None


def _as_int(value, path: str) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected an integer, got {value!r}")
    return value


def _finite(value, path: str) -> float:
    number = _as_float(value, path)
    if not np.isfinite(number):
        raise _fail(path, f"expected a finite number, got {number!r}")
    return number


def build_nodes(desc, path: str) -> np.ndarray:
    """Inline coordinate list or generator description to a node array.

    A generator takes only the fields its branch reads; any other is refused
    at its own path.  Inline or generated, an empty node set is refused.
    """
    if isinstance(desc, list):
        try:
            nodes = np.asarray(desc, dtype=float)
        except (TypeError, ValueError):
            raise _fail(path, "inline nodes must be a rectangular numeric array") from None
        return _nonempty(nodes[:, None] if nodes.ndim == 1 else nodes, path)
    if not isinstance(desc, dict):
        raise _fail(path, "nodes must be an array or a generator object")
    gen = _get(desc, "generator", path)
    read = {"generator"}

    def field(key: str, default=None):
        read.add(key)
        return _get(desc, key, path, required=default is None, default=default)

    def number(key: str, default=None) -> float:
        return _finite(field(key, default), f"{path}.{key}")

    def integer(key: str) -> int:
        return _as_int(field(key), f"{path}.{key}")

    def entries(key: str, parse, default=None) -> list:
        at, value = f"{path}.{key}", field(key, default)
        if not isinstance(value, (list, tuple)):
            raise _fail(at, f"expected a list, got {value!r}")
        return [parse(v, f"{at}[{k}]") for k, v in enumerate(value)]

    if gen == "sphere":
        make, kwargs = fibonacci_sphere, dict(
            count=integer("count"),
            radius=number("radius", 1.0),
            center=entries("center", _finite, (0.0, 0.0, 0.0)),
        )
    elif gen == "grid":
        make, kwargs = grid_nodes, dict(low=entries("low", _finite), high=entries("high", _finite),
                                        shape=entries("shape", _as_int))
    elif gen == "ring":
        make, kwargs = ring_nodes, dict(
            count=integer("count"),
            radius=number("radius", 1.0),
            center=entries("center", _finite, (0.0, 0.0)),
            phase=number("phase", 0.0),
        )
    elif gen == "rotational_body":
        make, kwargs = rotational_body, dict(
            profile=field("profile"),
            s=number("s"),
            q=number("q", 1.0),
            r_max=number("r_max"),
        )
    else:
        raise _fail(f"{path}.generator", f"unknown generator {gen!r}; choose from {_GENERATORS}")
    unknown = sorted(set(desc) - read)
    if unknown:
        raise _fail(f"{path}.{unknown[0]}", f"unknown {gen} field")
    try:
        nodes = make(**kwargs)
    except (VequilError, TypeError, ValueError) as exc:
        raise _fail(path, str(exc)) from exc
    return _nonempty(nodes, path)


def _nonempty(nodes: np.ndarray, path: str) -> np.ndarray:
    if nodes.ndim != 2 or nodes.shape[0] == 0:
        raise _fail(path, "nodes must be a nonempty 2-D array")
    return nodes


def _per_node(value, n: int, path: str, allow_inf: bool = False) -> np.ndarray:
    if isinstance(value, list):
        arr = np.array([_as_float(v, path) for v in value])
        if arr.shape != (n,):
            raise _fail(path, f"expected {n} per-node values, got {arr.shape[0]}")
    else:
        arr = np.full(n, _as_float(value, path))
    if not allow_inf and not np.all(np.isfinite(arr)):
        raise _fail(path, "values must be finite")
    return arr


def _parse_kernel(d, path: str) -> KernelSpec:
    if not isinstance(d, dict):
        raise _fail(path, "kernel must be an object")
    family = _get(d, "family", path)
    alpha = d.get("alpha")
    epsilon = d.get("epsilon")
    table = d.get("table")
    try:
        return KernelSpec(
            family=family,
            alpha=None if alpha is None else _as_float(alpha, f"{path}.alpha"),
            epsilon=None if epsilon is None else _as_float(epsilon, f"{path}.epsilon"),
            table=None if table is None else np.asarray(table, dtype=float),
        )
    except (VequilError, TypeError, ValueError) as exc:
        raise _fail(path, str(exc)) from exc


def _parse_scalar_measure(d, path: str) -> ScalarSignedMeasure:
    if not isinstance(d, dict):
        raise _fail(path, "expected an object with support and weights")
    support, weights = _get(d, "support", path), _get(d, "weights", path)
    try:
        return ScalarSignedMeasure(support=np.asarray(support, dtype=float),
                                   weights=np.asarray(weights, dtype=float))
    except (VequilError, TypeError, ValueError) as exc:
        raise _fail(path, str(exc)) from exc


def _section(doc: dict, key: str) -> dict:
    section = doc.get(key) or {}
    if not isinstance(section, dict):
        raise _fail(key, "must be an object")
    return section


def _plate_index(value, path: str, n_plates: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < n_plates:
        raise _fail(path, f"expected a plate index in [0, {n_plates}), got {value!r}")
    return value


def _tolerance(value, path: str) -> float:
    tol = _as_float(value, path)
    if not 0.0 < tol < np.inf:
        raise _fail(path, f"expected a finite positive tolerance, got {value!r}")
    return tol


def _parse_solver(d, path: str) -> SolverConfig:
    if d is None:
        return SolverConfig()
    if not isinstance(d, dict):
        raise _fail(path, "solver must be an object")
    known = {"algorithm", "max_iters", "grad_tol", "seed"}
    unknown = set(d) - known
    if unknown:
        raise _fail(f"{path}.{sorted(unknown)[0]}", "unknown solver field")
    max_iters, seed = d.get("max_iters"), d.get("seed")
    try:
        return SolverConfig(
            algorithm=d.get("algorithm", SolverConfig.algorithm),
            max_iters=None if max_iters is None else _as_int(max_iters, f"{path}.max_iters"),
            grad_tol=_as_float(d.get("grad_tol", SolverConfig.grad_tol), f"{path}.grad_tol"),
            seed=None if seed is None else _as_int(seed, f"{path}.seed"),
        )
    except ConfigError:
        raise
    except VequilError as exc:
        raise ConfigError(f"{path}.{exc}") from exc  # SolverConfig anchors at the field


@dataclass(frozen=True)
class ParsedConfig:
    """A parsed config: the solvable problem plus each command's settings, typed and defaulted.

    ``balayage_source`` is ``None`` without a ``balayage`` section;
    ``exhaust_schedule``, the stages of :func:`exhaustion_schedule`, is empty
    without an ``exhaust`` section.
    """

    problem: Problem
    capacity_plate: int
    frostman_tol: float | None
    balayage_source: ScalarSignedMeasure | None
    balayage_plate: int
    balayage_tol: float
    exhaust_schedule: tuple[tuple[float, float], ...]


def parse_config(source) -> ParsedConfig:
    """Parse a config from a dict, a JSON string, or a file path."""
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            raw = text
        else:
            try:
                with open(text, "r", encoding="utf-8") as fh:
                    raw = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file {text!r}: {exc}") from exc
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level: config must be a JSON object")

    spec = _parse_kernel(_get(doc, "kernel", "config"), "kernel")
    plates_doc = _get(doc, "plates", "config")
    if not isinstance(plates_doc, list) or not plates_doc:
        raise ConfigError("plates: must be a nonempty list")

    nodes_list, signs, gs, masses, sigma_descs = [], [], [], [], []
    for k, pd in enumerate(plates_doc):
        path = f"plates[{k}]"
        if not isinstance(pd, dict):
            raise _fail(path, "plate must be an object")
        sign = _as_int(_get(pd, "sign", path), f"{path}.sign")
        if sign not in (1, -1):
            raise _fail(f"{path}.sign", "sign must be 1 or -1")
        nodes = build_nodes(_get(pd, "nodes", path), f"{path}.nodes")
        if not np.all(np.isfinite(nodes)):
            raise _fail(f"{path}.nodes", "node coordinates must be finite")
        n = nodes.shape[0]
        g = _per_node(pd.get("g", 1.0), n, f"{path}.g")
        mass = _as_float(_get(pd, "a", path), f"{path}.a")
        nodes_list.append(nodes)
        signs.append(sign)
        gs.append(g)
        masses.append(mass)
        sigma_descs.append(pd.get("sigma", None))

    if len({nodes.shape[1] for nodes in nodes_list}) > 1:
        raise ConfigError("plates: all plates must share one spatial dimension")
    # One Gram over all nodes: the problem's, whose diagonal blocks also serve
    # the equilibrium-scaled sigmas.
    try:
        gram = assemble_gram(spec, np.vstack(nodes_list))
    except VequilError as exc:
        anchor = "kernel.epsilon" if "default epsilon" in str(exc) else "kernel"
        raise ConfigError(f"{anchor}: {exc}") from exc
    offsets = np.cumsum([0] + [nodes.shape[0] for nodes in nodes_list])

    plates = []
    for k, (nodes, sign, g, mass, sdesc) in enumerate(
        zip(nodes_list, signs, gs, masses, sigma_descs)
    ):
        path = f"plates[{k}].sigma"
        if sdesc is None:
            raise _fail(path, "missing required field")
        if isinstance(sdesc, dict):
            scale = _as_float(_get(sdesc, "equilibrium_scale", path), path)
            try:
                eq = equilibrium(nodes, _sub_gram(gram, slice(offsets[k], offsets[k + 1])))
            except VequilError as exc:
                raise _fail(path, f"equilibrium-scaled sigma failed: {exc}") from exc
            sigma = scale * mass * eq.unit_minimizer
        else:
            sigma = _per_node(sdesc, nodes.shape[0], path)
        try:
            plates.append(Plate(id=k, sign=sign, nodes=nodes, g=g, mass=mass, sigma=sigma))
        except VequilError as exc:
            raise _fail(f"plates[{k}]", str(exc)) from exc

    try:
        cond = Condenser(plates=tuple(plates))
    except VequilError as exc:
        raise ConfigError(f"plates: {exc}") from exc

    field_doc = doc.get("field")
    if field_doc is None:
        field = FieldSpec(
            case=CASE1, case1_values=tuple(np.zeros(p.n_nodes) for p in cond.plates)
        )
    elif not isinstance(field_doc, dict):
        raise ConfigError("field: must be an object")
    else:
        case = _get(field_doc, "case", "field")
        if case == CASE1:
            values_doc = _get(field_doc, "values", "field")
            if not isinstance(values_doc, list) or len(values_doc) != len(plates):
                raise ConfigError("field.values: one entry (scalar or list) per plate required")
            values = tuple(
                _per_node(v, p.n_nodes, f"field.values[{k}]", allow_inf=True)
                for k, (v, p) in enumerate(zip(values_doc, cond.plates))
            )
            field = FieldSpec(case=CASE1, case1_values=values)
        elif case == CASE2:
            zeta = _parse_scalar_measure(_get(field_doc, "zeta", "field"), "field.zeta")
            field = FieldSpec(case=CASE2, case2_zeta=zeta)
        else:
            raise ConfigError(f"field.case: unknown case {case!r}")

    solver_cfg = _parse_solver(doc.get("solver"), "solver")
    problem = Problem(condenser=cond, gram=gram, field=field, config=solver_cfg)

    n_plates = len(cond.plates)
    capacity = _section(doc, "capacity")
    capacity_plate = _plate_index(capacity.get("plate", 0), "capacity.plate", n_plates)
    frostman_tol = capacity.get("frostman_tol")
    if frostman_tol is not None:
        frostman_tol = _tolerance(frostman_tol, "capacity.frostman_tol")
    balayage_doc = _section(doc, "balayage")
    balayage_source = None
    if balayage_doc:
        balayage_source = _parse_scalar_measure(
            _get(balayage_doc, "source", "balayage"), "balayage.source"
        )
    balayage_plate = _plate_index(balayage_doc.get("target_plate", 0), "balayage.target_plate",
                                  n_plates)
    balayage_tol = _tolerance(balayage_doc.get("tol", 1e-9), "balayage.tol")
    exhaust = _section(doc, "exhaust")
    schedule = ()
    if exhaust:
        fr, sc = _get(exhaust, "fractions", "exhaust"), exhaust.get("sigma_scales")
        if not isinstance(fr, list) or not fr:
            raise ConfigError("exhaust.fractions: must be a nonempty list")
        if sc is not None and not isinstance(sc, list):
            raise ConfigError("exhaust.sigma_scales: must be a list as long as fractions")
        fractions = [_as_float(v, f"exhaust.fractions[{k}]") for k, v in enumerate(fr)]
        scales = None if sc is None else [
            _as_float(v, f"exhaust.sigma_scales[{k}]") for k, v in enumerate(sc)
        ]
        try:
            schedule = tuple(exhaustion_schedule(fractions, scales))
        except VequilError as exc:
            raise ConfigError(f"exhaust.{exc}") from exc

    return ParsedConfig(
        problem=problem,
        capacity_plate=capacity_plate,
        frostman_tol=frostman_tol,
        balayage_source=balayage_source,
        balayage_plate=balayage_plate,
        balayage_tol=balayage_tol,
        exhaust_schedule=schedule,
    )
