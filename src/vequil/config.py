"""Problem-config parsing: JSON documents into a problem and typed command settings.

A config is a single JSON object with ``kernel``, ``plates``, and optional
``field``, ``solver``, ``capacity``, ``balayage``, and ``exhaust`` sections;
the last three become typed, defaulted settings on :class:`ParsedConfig`.
Plate nodes may be inline coordinate arrays or generator descriptions
(``sphere``, ``grid``, ``ring``, ``rotational_body``), so experiment configs
are self-contained.

Every JSON object, from the top level down to a generator or a sigma dict,
is read by one reader, :class:`_Fields`: each field is taken by name with its
parse rule, and a field that no read names is refused.  Parsing failures
raise :class:`ConfigError` anchored at the offending field path, for example
``plates[0].nodes.radius`` or ``exhaust.fractions[1]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .analysis import equilibrium, exhaustion_schedule
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
_REQUIRED = object()


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


class _Fields:
    """The fields of one JSON object at ``path``, each read by name.

    A read names the field's parse rule, a function ``(value, path)``, and
    anchors it at ``path.field``.  An absent or null field takes ``default``,
    which the rule parses too unless it is ``None``; a field without a default
    is required.  :meth:`done` refuses any field that no read named.
    """

    def __init__(self, doc, path: str):
        if not isinstance(doc, dict):
            raise _fail(path or "top level", "must be an object")
        self.doc, self.path, self.names = doc, path, set()

    def _at(self, name: str) -> str:
        return f"{self.path}.{name}" if self.path else name

    def __call__(self, name: str, parse=None, default=_REQUIRED):
        self.names.add(name)
        value = self.doc.get(name)
        if value is None:
            if default is _REQUIRED:
                raise _fail(self._at(name), "missing required field")
            value = default
        return value if value is None or parse is None else parse(value, self._at(name))

    def done(self) -> None:
        unknown = sorted(set(self.doc) - self.names)
        if unknown:
            raise _fail(self._at(unknown[0]), "unknown field")


def _as_float(value, path: str) -> float:
    if isinstance(value, str) and value.strip().lower().lstrip("+") in ("inf", "infinity"):
        return float("inf")
    try:
        if not isinstance(value, (bool, str)):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise _fail(path, f"expected a number, got {value!r}")


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


def _tolerance(value, path: str) -> float:
    tol = _as_float(value, path)
    if not 0.0 < tol < np.inf:
        raise _fail(path, f"expected a finite positive tolerance, got {value!r}")
    return tol


def _sign(value, path: str) -> int:
    sign = _as_int(value, path)
    if sign not in (1, -1):
        raise _fail(path, "sign must be 1 or -1")
    return sign


def _plate_index(value, path: str, n_plates: int) -> int:
    index = _as_int(value, path)
    if not 0 <= index < n_plates:
        raise _fail(path, f"expected a plate index in [0, {n_plates}), got {value!r}")
    return index


def _one_of(choices: tuple):
    """Parse rule for a string from ``choices``."""
    def parse(value, path: str) -> str:
        if value not in choices:
            raise _fail(path, f"expected one of {choices}, got {value!r}")
        return value
    return parse


def _list_of(parse, nonempty: bool = False):
    """Parse rule for a list whose entry ``k`` is parsed at ``path[k]``."""
    def parse_list(value, path: str) -> list:
        if not isinstance(value, list) or nonempty and not value:
            raise _fail(path, f"expected a {'nonempty ' if nonempty else ''}list, got {value!r}")
        return [parse(v, f"{path}[{k}]") for k, v in enumerate(value)]
    return parse_list


def _array(value, path: str, depth: int = 2):
    """Parse rule for a number, or a list of these nested at most ``depth`` deep."""
    nested = isinstance(value, list) and depth > 0
    return (_list_of(partial(_array, depth=depth - 1)) if nested else _as_float)(value, path)


def _per_node(value, path: str, n: int, allow_inf: bool = False) -> np.ndarray:
    """A scalar or a list of ``n`` numbers; finite, or also +inf with ``allow_inf``."""
    if isinstance(value, list):
        arr = np.array(_list_of(_as_float)(value, path))
        if arr.shape != (n,):
            raise _fail(path, f"expected {n} per-node values, got {arr.shape[0]}")
    else:
        arr = np.full(n, _as_float(value, path))
    if not np.all(np.isfinite(arr) | (allow_inf & (arr == np.inf))):
        raise _fail(path, "values must be finite or +inf" if allow_inf else "values must be finite")
    return arr


def build_nodes(desc, path: str) -> np.ndarray:
    """Inline coordinate list or generator description to a node array.

    Inline or generated, an empty node set or a non-finite coordinate is
    refused.
    """
    if isinstance(desc, list):
        try:
            nodes = np.asarray(_array(desc, path), dtype=float)
        except (TypeError, ValueError):
            raise _fail(path, "inline nodes must be a rectangular numeric array") from None
        nodes = nodes[:, None] if nodes.ndim == 1 else nodes
    elif not isinstance(desc, dict):
        raise _fail(path, "nodes must be an array or a generator object")
    else:
        fields = _Fields(desc, path)
        gen, finite_list = fields("generator", _one_of(_GENERATORS)), _list_of(_finite)
        if gen == "sphere":
            make, kwargs = fibonacci_sphere, dict(
                count=fields("count", _as_int),
                radius=fields("radius", _finite, 1.0),
                center=fields("center", finite_list, [0.0, 0.0, 0.0]),
            )
        elif gen == "grid":
            make, kwargs = grid_nodes, dict(low=fields("low", finite_list),
                                            high=fields("high", finite_list),
                                            shape=fields("shape", _list_of(_as_int)))
        elif gen == "ring":
            make, kwargs = ring_nodes, dict(
                count=fields("count", _as_int),
                radius=fields("radius", _finite, 1.0),
                center=fields("center", finite_list, [0.0, 0.0]),
                phase=fields("phase", _finite, 0.0),
            )
        else:
            make, kwargs = rotational_body, dict(
                profile=fields("profile"),
                s=fields("s", _finite),
                q=fields("q", _finite, 1.0),
                r_max=fields("r_max", _finite),
            )
        fields.done()
        try:
            nodes = make(**kwargs)
        except (VequilError, TypeError, ValueError) as exc:
            raise _fail(path, str(exc)) from exc
    if nodes.ndim != 2 or nodes.shape[0] == 0:
        raise _fail(path, "nodes must be a nonempty 2-D array")
    if not np.all(np.isfinite(nodes)):
        raise _fail(path, "node coordinates must be finite")
    return nodes


def _parse_kernel(value, path: str) -> KernelSpec:
    kernel = _Fields(value, path)
    settings = dict(family=kernel("family"), alpha=kernel("alpha", _as_float, None),
                    epsilon=kernel("epsilon", _as_float, None), table=kernel("table", _array, None))
    kernel.done()
    try:
        return KernelSpec(**settings)
    except (VequilError, TypeError, ValueError) as exc:
        raise _fail(path, str(exc)) from exc


def _parse_scalar_measure(value, path: str) -> ScalarSignedMeasure:
    measure = _Fields(value, path)
    support, weights = measure("support", _array), measure("weights", _array)
    measure.done()
    try:
        return ScalarSignedMeasure(np.asarray(support, float), np.asarray(weights, float))
    except (VequilError, TypeError, ValueError) as exc:
        raise _fail(path, str(exc)) from exc


def _sigma(value, path: str, n: int):
    """A plate's per-node sigma, or the scale ``t`` of ``{"equilibrium_scale": t}``."""
    if not isinstance(value, dict):
        return _per_node(value, path, n)
    scaled = _Fields(value, path)
    scale = scaled("equilibrium_scale", _finite)
    scaled.done()
    return scale


def _parse_plate(value, path: str) -> tuple:
    plate = _Fields(value, path)
    sign, nodes = plate("sign", _sign), plate("nodes", build_nodes)
    n = nodes.shape[0]
    g, mass = plate("g", partial(_per_node, n=n), 1.0), plate("a", _as_float)
    sigma = plate("sigma", partial(_sigma, n=n))
    plate.done()
    return sign, nodes, g, mass, sigma


def _field_values(value, path: str, sizes: list) -> tuple:
    if not isinstance(value, list) or len(value) != len(sizes):
        raise _fail(path, "one entry (scalar or list) per plate required")
    return tuple(_per_node(v, f"{path}[{k}]", n, allow_inf=True)
                 for k, (v, n) in enumerate(zip(value, sizes)))


def _parse_field(value, path: str, sizes: list) -> FieldSpec:
    field = _Fields(value, path)
    if field("case", _one_of((CASE1, CASE2))) == CASE1:
        spec = FieldSpec(case=CASE1,
                         case1_values=field("values", partial(_field_values, sizes=sizes)))
    else:
        spec = FieldSpec(case=CASE2, case2_zeta=field("zeta", _parse_scalar_measure))
    field.done()
    return spec


def _parse_solver(value, path: str) -> SolverConfig:
    solver = _Fields(value, path)
    settings = dict(algorithm=solver("algorithm", None, SolverConfig.algorithm),
                    max_iters=solver("max_iters", _as_int, None),
                    grad_tol=solver("grad_tol", _as_float, SolverConfig.grad_tol),
                    seed=solver("seed", _as_int, None))
    solver.done()
    try:
        return SolverConfig(**settings)
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
                raise ConfigError(f"cannot read config file {text!r}: {exc.strerror}") from exc
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc

    top = _Fields(doc, "")
    spec = top("kernel", _parse_kernel)
    plates_read = top("plates", _list_of(_parse_plate, nonempty=True))
    nodes_list = [nodes for _, nodes, *_ in plates_read]
    if len({nodes.shape[1] for nodes in nodes_list}) > 1:
        raise ConfigError("plates: all plates must share one spatial dimension")
    sizes = [nodes.shape[0] for nodes in nodes_list]
    field = top("field", partial(_parse_field, sizes=sizes), None) or FieldSpec(
        case=CASE1, case1_values=tuple(np.zeros(n) for n in sizes))
    solver_cfg = top("solver", _parse_solver, {})
    plate_index = partial(_plate_index, n_plates=len(sizes))
    capacity = top("capacity", _Fields, {})
    capacity_plate = capacity("plate", plate_index, 0)
    frostman_tol = capacity("frostman_tol", _tolerance, None)
    capacity.done()
    balayage = top("balayage", _Fields, {})
    balayage_source = balayage("source", _parse_scalar_measure) if balayage.doc else None
    balayage_plate = balayage("target_plate", plate_index, 0)
    balayage_tol = balayage("tol", _tolerance, 1e-9)
    balayage.done()
    exhaust = top("exhaust", _Fields, {})
    schedule = ()
    if exhaust.doc:
        fractions = exhaust("fractions", _list_of(_as_float, nonempty=True))
        scales = exhaust("sigma_scales", _list_of(_as_float), None)
        exhaust.done()
        try:
            schedule = tuple(exhaustion_schedule(fractions, scales))
        except VequilError as exc:
            raise ConfigError(f"exhaust.{exc}") from exc
    top.done()

    # One Gram over all nodes: the problem's, whose diagonal blocks also serve
    # the equilibrium-scaled sigmas.
    try:
        gram = assemble_gram(spec, np.vstack(nodes_list))
    except VequilError as exc:
        anchor = "kernel.epsilon" if "default epsilon" in str(exc) else "kernel"
        raise ConfigError(f"{anchor}: {exc}") from exc
    offsets = np.cumsum([0] + sizes)

    plates = []
    for k, (sign, nodes, g, mass, sigma) in enumerate(plates_read):
        if isinstance(sigma, float):  # the scale of {"equilibrium_scale": t}
            try:
                eq = equilibrium(nodes, gram.block(slice(offsets[k], offsets[k + 1])))
            except VequilError as exc:
                raise _fail(f"plates[{k}].sigma",
                            f"equilibrium-scaled sigma failed: {exc}") from exc
            sigma = sigma * mass * eq.unit_minimizer
        try:
            plates.append(Plate(id=k, sign=sign, nodes=nodes, g=g, mass=mass, sigma=sigma))
        except VequilError as exc:
            raise _fail(f"plates[{k}]", str(exc)) from exc

    try:
        cond = Condenser(plates=tuple(plates))
    except VequilError as exc:
        raise ConfigError(f"plates: {exc}") from exc

    return ParsedConfig(
        problem=Problem(condenser=cond, gram=gram, field=field, config=solver_cfg),
        capacity_plate=capacity_plate,
        frostman_tol=frostman_tol,
        balayage_source=balayage_source,
        balayage_plate=balayage_plate,
        balayage_tol=balayage_tol,
        exhaust_schedule=schedule,
    )
