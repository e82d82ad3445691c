"""Span tracing of vequil's public functions, from outside the package.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces
each traced callable by a timing wrapper everywhere vequil has bound it (the
defining module, every ``from ... import`` of it, and the package
re-exports), and wraps ``__init__`` of the traced classes.  Library calls
that a layer delegates to (the dense eigensolvers and ``scipy.optimize.nnls``)
are wrapped on their library module as well.  ``uninstall`` restores every
binding, so untraced commands run the unmodified code.

A span is ``(id, parent id, name, start, end, self time)``; spans of one
command share the tracer's command buffer.  Self time is the span's duration
minus the part covered by its child spans, so the self times of one command
sum to the duration of its root span.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (module, attribute, span name).  Span names are "<layer>.<function>"; the
# layer is the vequil module the function belongs to.
FUNCTIONS = (
    ("vequil.cli", "main", "cli.main"),
    ("vequil.config", "parse_config", "config.parse_config"),
    ("vequil.config", "build_nodes", "config.build_nodes"),
    ("vequil.config", "canonical_form", "config.canonical_form"),
    ("vequil.geometry", "fibonacci_sphere", "geometry.fibonacci_sphere"),
    ("vequil.geometry", "grid_nodes", "geometry.grid_nodes"),
    ("vequil.geometry", "ring_nodes", "geometry.ring_nodes"),
    ("vequil.geometry", "rotational_body", "geometry.rotational_body"),
    ("vequil.kernels", "assemble_gram", "kernels.assemble_gram"),
    ("vequil.kernels", "resolve_epsilon", "kernels.resolve_epsilon"),
    ("vequil.kernels", "minimum_spacing", "kernels.minimum_spacing"),
    ("vequil.kernels", "cross_kernel", "kernels.cross_kernel"),
    ("vequil.kernels", "check_positive_definite", "kernels.check_positive_definite"),
    ("vequil.condenser", "weighted_energy", "condenser.weighted_energy"),
    ("vequil.condenser", "energy", "condenser.energy"),
    ("vequil.condenser", "mutual_energy", "condenser.mutual_energy"),
    ("vequil.condenser", "semimetric_distance", "condenser.semimetric_distance"),
    ("vequil.condenser", "field_linear_coefficients", "condenser.field_linear_coefficients"),
    ("vequil.condenser", "check_feasibility", "condenser.check_feasibility"),
    ("vequil.solver", "solve", "solver.solve"),
    ("vequil.solver", "project_plate", "solver.project_plate"),
    ("vequil.solver", "verify_kkt", "solver.verify_kkt"),
    ("vequil.analysis", "equilibrium", "analysis.equilibrium"),
    ("vequil.analysis", "balayage", "analysis.balayage"),
    ("vequil.analysis", "balayage_gram", "analysis.balayage_gram"),
    ("vequil.analysis", "green_gram", "analysis.green_gram"),
    ("vequil.analysis", "exhaustion_experiment", "analysis.exhaustion_experiment"),
    # Library routines, named after the layer that calls them.
    ("numpy.linalg", "eigvalsh", "kernels.eigensolver"),
    ("numpy.linalg", "eigh", "kernels.eigensolver"),
    ("scipy.linalg", "eigvalsh", "kernels.eigensolver"),
    ("scipy.linalg", "eigh", "kernels.eigensolver"),
    ("scipy.sparse.linalg", "eigsh", "kernels.eigensolver"),
    ("scipy.optimize", "nnls", "analysis.nnls"),
)

# (module, class, span name): construction, including dataclass validation.
CLASSES = (
    ("vequil.kernels", "GramMatrix", "kernels.GramMatrix"),
    ("vequil.condenser", "Plate", "condenser.construct"),
    ("vequil.condenser", "Condenser", "condenser.construct"),
    ("vequil.condenser", "VectorMeasure", "condenser.construct"),
    ("vequil.condenser", "ScalarSignedMeasure", "condenser.construct"),
    ("vequil.condenser", "FieldSpec", "condenser.construct"),
)

LAYERS = ("cli", "config", "geometry", "kernels", "condenser", "solver", "analysis")
GRAM_CONSUMERS = ("solver.solve", "analysis.equilibrium", "analysis.balayage")
ENERGY_SPANS = (
    "condenser.weighted_energy",
    "condenser.energy",
    "condenser.mutual_energy",
    "condenser.semimetric_distance",
    "condenser.field_linear_coefficients",
)
GEOMETRY_SPANS = tuple(name for _, _, name in FUNCTIONS if name.startswith("geometry."))


class Counters:
    """Exact work counts of one command, filled by the wrappers' hooks."""

    def __init__(self):
        self.gram_entries = 0
        self.gram_entries_used = 0
        self.nodes = 0
        self.iterations = 0
        self.kkt_max = 0.0
        # Grams produced by assembly, by id; the objects are held so that an
        # id cannot be reused within the command.
        self.produced: dict[int, object] = {}
        self.used: set[int] = set()

    def note_produced(self, gram) -> None:
        self.produced[id(gram)] = gram

    def note_consumed(self, args, kwargs) -> None:
        for arg in (*args, *kwargs.values()):
            key = id(arg)
            if key in self.produced and key not in self.used:
                self.used.add(key)
                self.gram_entries_used += arg.entries.size


def _after_assemble(counters: Counters, args, kwargs, result) -> None:
    counters.gram_entries += result.entries.size
    counters.note_produced(result)


def _after_balayage_gram(counters: Counters, args, kwargs, result) -> None:
    counters.note_produced(result)


def _after_solve(counters: Counters, args, kwargs, result) -> None:
    counters.iterations += result.iterations
    counters.kkt_max = max(counters.kkt_max, float(result.kkt_residual))


def _after_nodes(counters: Counters, args, kwargs, result) -> None:
    counters.nodes += result.shape[0]


AFTER = {
    "kernels.assemble_gram": _after_assemble,
    "analysis.balayage_gram": _after_balayage_gram,
    "solver.solve": _after_solve,
    **{name: _after_nodes for name in GEOMETRY_SPANS},
}


class Tracer:
    """Installs span wrappers and collects the spans of traced commands."""

    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._next_id = 0
        self.spans: list[tuple] = []
        self.counters = Counters()

    def _wrap(self, fn, name: str):
        tracer = self
        after = AFTER.get(name)
        before = name in GRAM_CONSUMERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before:
                tracer.counters.note_consumed(args, kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append((span_id, parent, name, start, end, end - start - frame[1]))
            if after is not None:
                after(tracer.counters, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced callable in all vequil namespaces that bind it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        packages = [m for n, m in list(sys.modules.items())
                    if m is not None and (n == "vequil" or n.startswith("vequil."))]
        for mod_name, attr, name in FUNCTIONS:
            owner = sys.modules.get(mod_name)
            if owner is None or attr not in owner.__dict__:
                continue  # not loaded, or no longer part of the program
            original = owner.__dict__[attr]
            traced = self._wrap(original, name)
            self._patch(owner, attr, traced)
            for mod in packages:
                for key, val in list(mod.__dict__.items()):
                    if val is original:
                        self._patch(mod, key, traced)
        for mod_name, cls_name, name in CLASSES:
            cls = getattr(sys.modules[mod_name], cls_name, None)
            if cls is not None:
                self._patch(cls, "__init__", self._wrap(cls.__dict__["__init__"], name))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def end_command(self) -> "CommandTrace":
        """The spans and counts recorded since the previous command."""
        if self._stack:
            raise RuntimeError("span stack not empty at the end of a command")
        trace = CommandTrace(self.spans, self.counters)
        self.spans = []
        self.counters = Counters()
        return trace


class CommandTrace:
    """The spans and counts of one traced command."""

    def __init__(self, spans: list[tuple], counters: Counters):
        self.spans = spans
        self.counters = counters
        self._parent = {s[0]: s[1] for s in spans}
        self._name = {s[0]: s[2] for s in spans}

    def self_sum(self) -> float:
        return sum(s[5] for s in self.spans)

    def calls(self, *names: str) -> int:
        return sum(1 for s in self.spans if s[2] in names)

    def self_s(self, *names: str) -> float:
        return sum(s[5] for s in self.spans if s[2] in names)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s[5] for s in self.spans if s[2].startswith(prefix))

    def total_s(self, *names: str) -> float:
        """Wall time inside the named spans, nested ones counted once."""
        total = 0.0
        for span_id, parent, name, start, end, _ in self.spans:
            if name not in names:
                continue
            while parent != -1 and self._name[parent] not in names:
                parent = self._parent[parent]
            if parent == -1:
                total += end - start
        return total


# Per-layer metrics: (name, unit, better, kind, function of a CommandTrace).
# "time" values are reported as the median over the traced commands of a
# run; "count" values repeat exactly for an input and are reported for the
# run's first traced command, whose input depends only on the seed.
def _per_iteration(t: CommandTrace) -> float:
    iters = t.counters.iterations
    return t.self_s("solver.solve") / iters if iters else 0.0


def _use_ratio(t: CommandTrace) -> float:
    c = t.counters
    return c.gram_entries_used / c.gram_entries if c.gram_entries else 0.0


def _layer_self_s(layer: str):
    return lambda t: t.layer_self_s(layer)


LAYER_METRICS = (
    *((f"{layer}.self_s", "s", "lower", "time", _layer_self_s(layer)) for layer in LAYERS),
    ("cli.main.self_s", "s", "lower", "time", lambda t: t.self_s("cli.main")),
    ("config.parse_config.self_s", "s", "lower", "time",
     lambda t: t.self_s("config.parse_config")),
    ("config.parse_config.total_s", "s", "lower", "time",
     lambda t: t.total_s("config.parse_config")),
    ("geometry.nodes.total_s", "s", "lower", "time", lambda t: t.total_s(*GEOMETRY_SPANS)),
    ("geometry.nodes.count", "count", "lower", "count", lambda t: t.counters.nodes),
    ("kernels.resolve_epsilon.total_s", "s", "lower", "time",
     lambda t: t.total_s("kernels.resolve_epsilon")),
    ("kernels.minimum_spacing.total_s", "s", "lower", "time",
     lambda t: t.total_s("kernels.minimum_spacing")),
    ("kernels.assemble_gram.calls", "count", "lower", "count",
     lambda t: t.calls("kernels.assemble_gram")),
    ("kernels.assemble_gram.self_s", "s", "lower", "time",
     lambda t: t.self_s("kernels.assemble_gram")),
    ("kernels.assemble_gram.entries", "count", "lower", "count",
     lambda t: t.counters.gram_entries),
    # Computed from array sizes (8-byte entries written), not measured.
    ("kernels.assemble_gram.bytes_computed", "B", "lower", "count",
     lambda t: 8 * t.counters.gram_entries),
    ("kernels.gram_use_ratio", "ratio", "higher", "count", _use_ratio),
    ("kernels.GramMatrix.calls", "count", "lower", "count",
     lambda t: t.calls("kernels.GramMatrix")),
    ("kernels.GramMatrix.self_s", "s", "lower", "time", lambda t: t.self_s("kernels.GramMatrix")),
    ("kernels.check_positive_definite.calls", "count", "lower", "count",
     lambda t: t.calls("kernels.check_positive_definite")),
    ("kernels.check_positive_definite.total_s", "s", "lower", "time",
     lambda t: t.total_s("kernels.check_positive_definite")),
    ("kernels.eigensolver.calls", "count", "lower", "count",
     lambda t: t.calls("kernels.eigensolver")),
    ("kernels.eigensolver.total_s", "s", "lower", "time",
     lambda t: t.total_s("kernels.eigensolver")),
    ("condenser.construct.self_s", "s", "lower", "time",
     lambda t: t.self_s("condenser.construct")),
    ("condenser.energy.total_s", "s", "lower", "time", lambda t: t.total_s(*ENERGY_SPANS)),
    ("solver.solve.calls", "count", "lower", "count", lambda t: t.calls("solver.solve")),
    ("solver.solve.self_s", "s", "lower", "time", lambda t: t.self_s("solver.solve")),
    ("solver.iterations", "count", "lower", "count", lambda t: t.counters.iterations),
    ("solver.self_s_per_iteration", "s", "lower", "time", _per_iteration),
    ("solver.project_plate.calls", "count", "lower", "count",
     lambda t: t.calls("solver.project_plate")),
    ("solver.project_plate.self_s", "s", "lower", "time",
     lambda t: t.self_s("solver.project_plate")),
    ("solver.kkt_residual.max", "abs", "lower", "count", lambda t: t.counters.kkt_max),
    ("analysis.equilibrium.self_s", "s", "lower", "time",
     lambda t: t.self_s("analysis.equilibrium")),
    ("analysis.exhaustion_experiment.self_s", "s", "lower", "time",
     lambda t: t.self_s("analysis.exhaustion_experiment")),
    ("analysis.balayage.self_s", "s", "lower", "time", lambda t: t.self_s("analysis.balayage")),
    ("analysis.nnls.total_s", "s", "lower", "time", lambda t: t.total_s("analysis.nnls")),
    ("analysis.balayage_gram.self_s", "s", "lower", "time",
     lambda t: t.self_s("analysis.balayage_gram")),
    ("trace.spans", "count", "lower", "count", lambda t: len(t.spans)),
)

# Metrics of the traced run as a whole, computed in run.py.
RUN_METRICS = (
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.time_to_solution_s.p50", "s", "lower"),
    ("trace.untraced_time_to_solution_s.p50", "s", "lower"),
)


def layer_metrics(traces: list[CommandTrace]) -> dict[str, dict]:
    """Per-layer metrics over the traced commands of one run."""
    out = {}
    for name, unit, _, kind, fn in LAYER_METRICS:
        if kind == "count":
            value = fn(traces[0])
        else:
            value = statistics.median(fn(t) for t in traces)
        out[name] = {"value": value, "unit": unit}
    return out
