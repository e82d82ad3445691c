"""Config parsing, typed command settings, CLI commands, exit codes, goldens."""

import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from vequil import _lapack, analysis, cli, kernels, solver
from vequil import config as config_module
from vequil.cli import main
from vequil.config import parse_config
from vequil.errors import ConfigError

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def minimal_config(**overrides):
    doc = {
        "kernel": {"family": "riesz", "alpha": 2.0},
        "plates": [
            {
                "sign": 1,
                "nodes": [[-2.0, 0.0, 0.0], [-1.5, 0.0, 0.0]],
                "g": 1.0,
                "a": 1.0,
                "sigma": 0.8,
            },
            {
                "sign": -1,
                "nodes": [[1.5, 0.0, 0.0], [2.0, 0.0, 0.0]],
                "g": 1.0,
                "a": 0.5,
                "sigma": 0.5,
            },
        ],
        "solver": {"grad_tol": 1e-10},
    }
    doc.update(overrides)
    return doc


class TestParse:
    def test_command_settings_are_typed_and_defaulted(self):
        bare = parse_config(minimal_config())
        assert (bare.capacity_plate, bare.frostman_tol, bare.balayage_source) == (0, None, None)
        assert (bare.balayage_plate, bare.balayage_tol, bare.exhaust_schedule) == (0, 1e-9, ())
        parsed = parse_config(minimal_config(
            capacity={"plate": 1.0, "frostman_tol": 1e-3},
            balayage={"source": _SOURCE, "target_plate": 1.0, "tol": 1},
            exhaust={"fractions": [0.5, 1]},
        ))
        assert (parsed.capacity_plate, parsed.frostman_tol) == (1, 1e-3)
        assert type(parsed.capacity_plate) is type(parsed.balayage_plate) is int
        assert (parsed.balayage_plate, parsed.balayage_tol) == (1, 1.0)
        assert parsed.exhaust_schedule == ((0.5, 1.0), (1.0, 1.0))
        values = (parsed.frostman_tol, parsed.balayage_tol, *sum(parsed.exhaust_schedule, ()))
        assert all(type(v) is float for v in values)

    def test_missing_field_anchored_error(self):
        doc = minimal_config()
        del doc["plates"][0]["a"]
        with pytest.raises(ConfigError, match=r"plates\[0\]\.a"):
            parse_config(doc)

    def test_bad_sigma_anchored_error(self):
        doc = minimal_config()
        doc["plates"][1]["sigma"] = [0.5]
        with pytest.raises(ConfigError, match=r"plates\[1\]\.sigma"):
            parse_config(doc)

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config('{"kernel": }')

    def test_infinite_field_values(self):
        doc = minimal_config(
            field={"case": "case1", "values": [["inf", 0.0], 0.0]}
        )
        parsed = parse_config(doc)
        vals = parsed.problem.field.case1_values
        assert np.isinf(vals[0][0]) and vals[0][1] == 0.0

    def test_equilibrium_scaled_sigma(self):
        doc = minimal_config()
        doc["plates"][0]["sigma"] = {"equilibrium_scale": 2.0}
        parsed = parse_config(doc)
        sigma = parsed.problem.condenser.plates[0].sigma
        assert sigma.sum() == pytest.approx(2.0 * 1.0, rel=1e-10)

    @pytest.mark.parametrize(
        "kernel, nodes, message",
        [
            ({"family": "riesz", "alpha": 2.0}, [[0.0, 0.0, 0.0]],
             r"kernel\.epsilon: cannot derive a default epsilon from a single node"),
            ({"family": "riesz", "alpha": 2.0, "epsilon": 0.0}, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
             r"kernel: riesz Gram assembly requires epsilon > 0"),
            ({"family": "log_disk"}, [[0.0, 0.0], [0.0, 1.0]],
             r"kernel: log_disk nodes must lie inside the open unit disk"),
            ({"family": "custom_table", "table": np.eye(3).tolist()}, [[0], [1.5]],
             r"kernel: custom_table nodes must be row indices in \[0, 3\)"),
        ],
    )
    def test_kernel_domain_anchored_error(self, kernel, nodes, message):
        doc = minimal_config(kernel=kernel)
        doc["plates"] = [dict(doc["plates"][0], nodes=nodes)]
        with pytest.raises(ConfigError, match="^" + message):
            parse_config(doc)

    @pytest.mark.parametrize("epsilon", [None, 0.1])
    def test_non_finite_nodes_anchored_error(self, epsilon):
        doc = minimal_config(kernel={"family": "riesz", "alpha": 2.0, "epsilon": epsilon})
        doc["plates"][1]["nodes"] = [[1.5, 0.0, float("nan")], [2.0, 0.0, 0.0]]
        with pytest.raises(ConfigError, match=r"^plates\[1\]\.nodes: node coordinates"):
            parse_config(doc)

    def test_mixed_dimensions_anchored_error(self):
        doc = minimal_config()
        doc["plates"][1]["nodes"] = [[1.5, 0.0], [2.0, 0.0]]
        with pytest.raises(ConfigError, match=r"^plates: all plates must share one spatial"):
            parse_config(doc)

    def test_unknown_generator(self):
        doc = minimal_config()
        doc["plates"][0]["nodes"] = {"generator": "moebius", "count": 5}
        with pytest.raises(ConfigError, match="generator"):
            parse_config(doc)


def test_case2_field_parses():
    zeta = {"support": [[0.0, 3.0, 0.0], [0.5, 3.0, 0.0]], "weights": [1.0, -0.5]}
    field = parse_config(minimal_config(field={"case": "case2", "zeta": zeta})).problem.field
    assert field.case == "case2"
    assert field.case2_zeta.support.tolist() == zeta["support"]
    assert field.case2_zeta.weights.tolist() == zeta["weights"]


_SOURCE = {"support": [[0.0, 3.0, 0.0]], "weights": [1.0]}
_SPHERE = {"generator": "sphere", "count": 4, "radius": 0.25, "center": [-2.0, 0.0, 0.0]}
_RING = {"generator": "ring", "count": 4}
_BODY = {"generator": "rotational_body", "profile": "power_s", "s": 1.0, "r_max": 4.0}
_GRID = {"generator": "grid", "low": [-2.0, -0.5, 0.0], "high": [-1.5, 0.5, 0.0],
         "shape": [2, 2, 1]}


def _generated_plates(generator, **settings):
    """The minimal config's plates with the first one's nodes from a generator."""
    plates = minimal_config()["plates"]
    plates[0]["nodes"] = {**generator, **settings}
    return plates


def _plates_with(**fields):
    """The minimal config's plates with fields of the first one set."""
    plates = minimal_config()["plates"]
    plates[0].update(fields)
    return plates


@pytest.mark.parametrize(
    "command, section, field_path",
    [
        ("capacity", {"capacity": {"plate": "x"}}, "capacity.plate"),
        ("capacity", {"capacity": {"plate": 2}}, "capacity.plate"),
        ("balayage", {"balayage": {"source": _SOURCE, "target_plate": "zero"}},
         "balayage.target_plate"),
        ("balayage", {"balayage": {"source": _SOURCE, "tol": "tight"}}, "balayage.tol"),
        ("balayage", {"balayage": {"source": {"support": "x", "weights": [1.0]}}},
         "balayage.source.support"),
        ("exhaust", {"exhaust": {"fractions": ["half"]}}, "exhaust.fractions[0]"),
        ("exhaust", {"exhaust": {"fractions": [0.5, 1.0], "sigma_scales": 5}},
         "exhaust.sigma_scales"),
        ("solve", {"solver": {"max_iters": "many"}}, "solver.max_iters"),
        ("solve", {"solver": {"max_iters": 2.7}}, "solver.max_iters"),
        ("solve", {"solver": {"seed": "x"}}, "solver.seed"),
        ("solve", {"solver": {"seed": [1]}}, "solver.seed"),
        ("solve", {"plates": _generated_plates(_SPHERE, count="ten")}, "plates[0].nodes.count"),
        ("solve", {"plates": _generated_plates(_SPHERE, center=[-2.0, 0.0])}, "plates[0].nodes"),
        ("solve", {"solver": {"step_rule": "backtracking"}}, "solver.step_rule"),
        ("solve", {"plates": _generated_plates(_SPHERE, radius="big")}, "plates[0].nodes.radius"),
        ("solve", {"plates": _generated_plates(_SPHERE, radius="inf")}, "plates[0].nodes.radius"),
        ("solve", {"plates": _generated_plates(_RING, phase="x")}, "plates[0].nodes.phase"),
        ("solve", {"plates": _generated_plates(_BODY, s="big")}, "plates[0].nodes.s"),
        ("solve", {"plates": _generated_plates(_BODY, q="big")}, "plates[0].nodes.q"),
        ("solve", {"plates": _generated_plates(_BODY, r_max="big")}, "plates[0].nodes.r_max"),
        ("solve", {"solver": {"grad_tol": "inf"}}, "solver.grad_tol"),
        ("solve", {"solver": {"seed": -1}}, "solver.seed"),
        ("balayage", {"balayage": {"source": _SOURCE, "tol": -1}}, "balayage.tol"),
        ("balayage", {"balayage": {"source": _SOURCE, "tol": "inf"}}, "balayage.tol"),
        ("balayage", {"balayage": {"source": _SOURCE, "tol": float("nan")}}, "balayage.tol"),
        ("capacity", {"capacity": {"frostman_tol": 0}}, "capacity.frostman_tol"),
        ("capacity", {"capacity": {"frostman_tol": "inf"}}, "capacity.frostman_tol"),
        ("capacity", {"capacity": {"frostman_tol": float("nan")}}, "capacity.frostman_tol"),
        ("solve", {"plates": _generated_plates(_BODY, dx_max=-1)}, "plates[0].nodes.dx_max"),
        ("solve", {"plates": _generated_plates(_BODY, dx_min=0)}, "plates[0].nodes.dx_min"),
        ("solve", {"plates": _generated_plates(_BODY, dx_min=0, dx_max=0)},
         "plates[0].nodes.dx_max"),
        ("solve", {"plates": _generated_plates(_SPHERE, radii=2.0)}, "plates[0].nodes.radii"),
        ("check-pd", {"kernel": {"family": "custom_table", "table": [[1, 0], [0]]}}, "kernel"),
        ("capacity", {"plates": _generated_plates(_GRID, shape=[0, 2, 1])}, "plates[0].nodes"),
        ("solve", {"plates": _generated_plates(_GRID, shape=[2.5, 2, 1])},
         "plates[0].nodes.shape[0]"),
        ("solve", {"plates": _plates_with(sign=True)}, "plates[0].sign"),
        ("solve", {"plates": _plates_with(a=True)}, "plates[0].a"),
        ("solve", {"plates": _plates_with(sigma=True)}, "plates[0].sigma"),
        ("solve", {"solver": {"grad_tol": True}}, "solver.grad_tol"),
        ("solve", {"kernel": {"family": "riesz", "alpha": True}}, "kernel.alpha"),
        ("exhaust", {"exhaust": []}, "exhaust"),
        ("exhaust", {"exhaust": 0}, "exhaust"),
        ("capacity", {"capacity": False}, "capacity"),
        ("balayage", {"balayage": ""}, "balayage"),
        ("capacity", {"capacity": {"plate": True}}, "capacity.plate"),
        ("solve", {"kernel": {"family": "riesz", "alpha": 2.0, "epsilom": 0.1}},
         "kernel.epsilom"),
        ("solve", {"plates": _plates_with(gg=1.0)}, "plates[0].gg"),
        ("solve", {"solvr": {"grad_tol": 1e-6}}, "solvr"),
        ("capacity", {"capacity": {"plat": 1}}, "capacity.plat"),
        ("exhaust", {"exhaust": {"fractions": [1.0], "sigma_scale": [1.0]}},
         "exhaust.sigma_scale"),
        ("balayage", {"balayage": {"source": _SOURCE, "target": 1}}, "balayage.target"),
        ("solve", {"plates": _plates_with(sigma={"equilibrium_scale": 2, "x": 1})},
         "plates[0].sigma.x"),
        ("solve", {"plates": _plates_with(sigma={"equilibrium_scale": "inf"})},
         "plates[0].sigma.equilibrium_scale"),
        ("solve", {"field": {"case": "case1", "values": [float("nan"), 0.0]}},
         "field.values[0]"),
        ("solve", {"plates": _plates_with(nodes=[[True, 0.0, 0.0], [-1.5, 0.0, 0.0]])},
         "plates[0].nodes[0][0]"),
        ("solve", {"plates": _plates_with(nodes=[[-2.0, 0.0, 0.0], ["1", 0.0, 1.0]])},
         "plates[0].nodes[1][0]"),
        ("check-pd", {"kernel": {"family": "custom_table", "table": [[True, 0], [0, 1]]}},
         "kernel.table[0][0]"),
        ("check-pd", {"kernel": {"family": "custom_table", "table": [[1, 0], [0, "1"]]}},
         "kernel.table[1][1]"),
        ("balayage", {"balayage": {"source": {"support": [[0.0, 0.0, True]], "weights": [1.0]}}},
         "balayage.source.support[0][2]"),
        ("balayage", {"balayage": {"source": {"support": [[0.0, 3.0, 0.0]], "weights": ["2"]}}},
         "balayage.source.weights[0]"),
        ("solve", {"field": {"case": "case2", "zeta": {"support": [["0", 3.0, 0.0]],
                                                       "weights": [1.0]}}},
         "field.zeta.support[0][0]"),
        ("solve", {"field": {"case": "case2", "zeta": {"support": [[0.0, 3.0, 0.0]],
                                                       "weights": [True]}}},
         "field.zeta.weights[0]"),
    ],
)
def test_malformed_command_section_is_a_config_error(command, section, field_path,
                                                     capsys, tmp_path):
    path = tmp_path / "bad_section.json"
    path.write_text(json.dumps(minimal_config(**section)))
    with pytest.raises(ConfigError, match=re.escape(field_path)):
        parse_config(str(path))
    code, _, err = run_cli([command, str(path)], capsys)
    assert code == 1
    assert err.startswith(f"error: {field_path}: ")


@pytest.mark.parametrize("command, config", [("solve", "solve_two_plate.json"),
                                             ("exhaust", "exhaust_two_plate.json")])
def test_negative_seed_flag_is_refused(command, config, capsys):
    code, out, err = run_cli([command, str(CONFIGS / config), "--seed", "-1"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: seed: must be a nonnegative integer\n"


@pytest.mark.parametrize("flags, got", [
    (["--radii", "inf"], "q=1.0, r_max=inf"),
    (["--radii", "4", "--q=-inf"], "q=-inf, r_max=4.0"),
])
def test_non_finite_thinness_range_is_refused(flags, got, capsys):
    code, out, err = run_cli(["thinness", "--profile", "power_s", "--s", "1", *flags], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: rotational body needs a finite q and r_max, got {got}\n"


def test_huge_thinness_radius_gives_the_body_that_ends_at_the_floor(capsys):
    # exp(-x1^2) is below NODE_FLOOR past x1 = 2.302: radius 1e9 stepped a
    # billion empty stations before the stepping stopped at the first one.
    code, out, _ = run_cli(["thinness", "--profile", "exp_s_gt1", "--s", "2",
                            "--radii", "4", "1e9", "--no-gap"], capsys)
    assert code == 0
    short, huge = (json.loads(line) for line in out.splitlines())
    assert huge["radius"] == 1e9
    assert (huge["n_body_nodes"], huge["capacity"]) == (short["n_body_nodes"], short["capacity"])


def test_endless_thinness_body_is_refused_before_its_gram(capsys):
    # power_s with s = 0 has the constant radius 1, so the body never ends at
    # the node floor: radius 1e9 would step 2e9 stations.  Its node count passes
    # what a Gram in physical memory can hold after some 2,500 stations.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(["thinness", "--profile", "power_s", "--s", "0",
                                  "--radii", "4", "1e9", "--no-gap"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 10.0
    assert peak < 64 * 2**20  # the refused body's coordinates, not its Gram
    assert (code, out) == (1, "")
    n, need, memory = map(int, re.fullmatch(
        r"error: rotational body: (\d+) nodes \(r_max=1000000000\.0\) need a (\d+)-byte Gram, "
        r"over (\d+) bytes of memory\n", err).groups())
    assert need == 8 * n * n > memory == os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert 8 * (n - 32) ** 2 <= memory  # refused at the first station past the limit


def test_gram_over_memory_is_refused_before_assembly(capsys, monkeypatch, tmp_path):
    # A 12 x 12 x 12 grid needs a 24 MB Gram; with physical memory taken as
    # 1 MiB it is refused by name before any N x N buffer exists.
    limit = 2**20
    monkeypatch.setattr(kernels, "_memory_bytes", lambda: limit)
    doc = json.loads((CONFIGS / "solve_two_plate.json").read_text())
    doc["plates"] = doc["plates"][:1]
    doc["plates"][0]["nodes"]["shape"] = [12, 12, 12]
    doc["field"]["values"] = [0.2]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    n = 12**3
    tracemalloc.start()
    try:
        code, out, err = run_cli(["solve", str(path)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == (f"error: kernel: {n} nodes need a {8 * n * n}-byte Gram, "
                   f"over {limit} bytes of memory\n")
    assert peak < 8 * n * n // 16  # the nodes and the parse, not the Gram


def test_memory_error_is_an_error_line(capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 30.5 GiB for an array with shape (64000, 64000)")

    monkeypatch.setattr(config_module, "assemble_gram", no_memory)
    code, out, err = run_cli(["solve", str(CONFIGS / "solve_two_plate.json")], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: out of memory: Unable to allocate 30.5 GiB for an array with shape "
                   "(64000, 64000)\n")


def test_negative_q_is_refused_without_a_warning(capsys):
    # exp(-(x1**s)) of a negative x1 is complex: the body was built from real parts.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["thinness", "--profile", "exp_s_le1", "--s", "0.5",
                                  "--radii", "2", "--q", "-1", "--no-gap"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: rotational body needs q >= 0, got q=-1.0\n"


def test_unreadable_config_error_names_its_path_once(capsys):
    code, out, err = run_cli(["solve", "/nonexistent.json"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: cannot read config file '/nonexistent.json': No such file or directory\n"


def count_factorizations(monkeypatch) -> list:
    """Record the rows of every LAPACK ``dpotrf`` call."""
    calls, dpotrf = [], _lapack.lapack.dpotrf

    def counted(a, *args, **kwargs):
        calls.append(a.shape[0])
        return dpotrf(a, *args, **kwargs)

    monkeypatch.setattr(_lapack.lapack, "dpotrf", counted)
    return calls


@pytest.mark.parametrize("seed", [[], ["--seed", "3"]])
def test_capacity_factors_its_gram_once(seed, capsys, monkeypatch):
    # The gate's factor of K - pd_tol*I is the one equilibrium solves with.
    calls = count_factorizations(monkeypatch)
    code, _, _ = run_cli(["capacity", str(CONFIGS / "capacity_sphere.json"), *seed], capsys)
    assert (code, calls) == (0, [500])


def test_thinness_factors_four_matrices_per_radius(capsys, monkeypatch):
    # Per radius: the body Gram at -pd_tol (gate and equilibrium) and at 0
    # (green_gram, then balayage on the kept factor), the screened Gram and the
    # condenser Gram.
    calls = count_factorizations(monkeypatch)
    code, out, _ = run_cli("thinness --profile power_s --s 1 --radii 4 8 16 32".split(), capsys)
    assert code == 0 and len(calls) == 16
    for k, record in enumerate(map(json.loads, out.splitlines())):
        n = record["n_body_nodes"]
        assert calls[4 * k: 4 * k + 4] == [n, n, 80, 48 + n]


@pytest.mark.parametrize("target, reason", [
    ("missing/out.json", "No such file or directory"),
    (".", "Is a directory"),
])
def test_unwritable_out_path_is_an_error(target, reason, capsys, tmp_path):
    path = str(tmp_path / target)
    code, out, err = run_cli(["solve", str(CONFIGS / "solve_two_plate.json"), "--out", path],
                             capsys)
    assert (code, out) == (1, "")
    assert err == f"error: cannot write output file {path!r}: {reason}\n"


@pytest.mark.parametrize("argv", [
    ["balayage", str(CONFIGS / "balayage_point_to_plate.json")],
    ["check-pd", str(CONFIGS / "check_pd_identity.json")],
    ["thinness", "--profile", "power_s", "--s", "1", "--radii", "4"],
])
def test_seed_flag_only_where_a_solve_reads_it(argv, capsys):
    code, out, err = run_cli([*argv, "--seed", "3"], capsys)
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --seed 3" in err


@pytest.mark.parametrize("argv, message", [
    (["solve"], "vequil solve: error: the following arguments are required: config"),
    # argparse takes "-inf" for an option
    (["thinness", "--profile", "power_s", "--s", "1", "--radii", "4", "-inf", "--no-gap"],
     "vequil: error: unrecognized arguments: -inf"),
])
def test_usage_error_exits_1_not_2(argv, message, capsys):
    # Exit 2 means a solve missed its tolerance.
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("usage: vequil") and err.endswith(f"\n{message}\n")


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: vequil")


@pytest.mark.parametrize("index", [5, -1, 1.5])
def test_table_node_outside_the_rows_is_refused(index, capsys, tmp_path):
    doc = json.loads((CONFIGS / "check_pd_identity.json").read_text())
    doc["plates"][0]["nodes"] = [[index]]
    path = tmp_path / "bad_row.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["solve", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: kernel: custom_table nodes must be row indices in [0, 3)\n"


@pytest.mark.parametrize(
    "exhaust, field_path",
    [
        ({"fractions": [0.5, 1.5]}, "exhaust.fractions[1]"),
        ({"fractions": [0.0, 1.0]}, "exhaust.fractions[0]"),
        ({"fractions": [0.5, 1.0], "sigma_scales": [1.2, -0.5]}, "exhaust.sigma_scales[1]"),
        ({"fractions": [0.5], "sigma_scales": ["inf"]}, "exhaust.sigma_scales[0]"),
        ({"fractions": [0.5, 1.0], "sigma_scales": [1.2]}, "exhaust.sigma_scales"),
    ],
)
def test_exhaust_schedule_is_refused_before_any_solve(exhaust, field_path, capsys, tmp_path,
                                                      monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the exhaust schedule was checked")

    monkeypatch.setattr(analysis, "solve", no_solve)
    path = tmp_path / "bad_schedule.json"
    path.write_text(json.dumps(minimal_config(exhaust=exhaust)))
    code, out, err = run_cli(["exhaust", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {field_path}: ")


def count_assemblies(monkeypatch) -> list:
    """Record ``(rows, cols)`` of every kernel matrix; forbid a separate spacing sweep."""

    def no_spacing_sweep(*args, **kwargs):
        raise AssertionError("a separate spacing sweep ran")

    assemblies = []
    kernel_matrix = kernels._kernel_matrix

    def counted(spec, X, Y, **lower):
        assemblies.append((X.shape[0], Y.shape[0]))
        return kernel_matrix(spec, X, Y, **lower)

    monkeypatch.setattr(kernels, "minimum_spacing", no_spacing_sweep)
    monkeypatch.setattr(kernels, "resolve_epsilon", no_spacing_sweep)
    monkeypatch.setattr(kernels, "_kernel_matrix", counted)
    return assemblies


@pytest.mark.parametrize("command", ["solve", "capacity"])
@pytest.mark.parametrize(
    "name", ["balayage_point_to_plate", "capacity_sphere", "exhaust_two_plate", "solve_two_plate"]
)
def test_command_assembles_one_gram_in_one_sweep(command, name, capsys, monkeypatch):
    path = str(CONFIGS / f"{name}.json")
    n = parse_config(path).problem.gram.size
    assemblies = count_assemblies(monkeypatch)
    code, _, _ = run_cli([command, path], capsys)
    assert code == 0
    assert assemblies == [(n, n)]


def test_balayage_borders_the_parse_time_gram(capsys, monkeypatch):
    path = str(CONFIGS / "balayage_point_to_plate.json")
    parsed = parse_config(path)
    n = parsed.problem.gram.size
    n_s = len(parsed.balayage_source.weights)  # the source lies off the plate
    assemblies = count_assemblies(monkeypatch)
    code, _, _ = run_cli(["balayage", path], capsys)
    assert code == 0
    # The plate's Gram once, at parse time, then only the source rows of the joint one.
    assert assemblies == [(n, n), (n_s, n + n_s)]


def test_equilibrium_scaled_sigmas_share_the_problem_gram(monkeypatch):
    path = CONFIGS / "solve_two_plate.json"
    base = parse_config(str(path)).problem
    doc = json.loads(path.read_text())
    for plate in doc["plates"]:
        plate["sigma"] = {"equilibrium_scale": 1.5}
    # Each plate's sigma as its own assembly, under the all-nodes epsilon, gave it.
    expected = [
        1.5 * p.mass * analysis.equilibrium(p.nodes, kernels.assemble_gram(base.gram.spec, p.nodes))
        .unit_minimizer
        for p in base.condenser.plates
    ]
    assemblies = count_assemblies(monkeypatch)
    parsed = parse_config(doc)
    assert assemblies == [(base.gram.size, base.gram.size)]
    for plate, sigma in zip(parsed.problem.condenser.plates, expected):
        assert np.array_equal(plate.sigma.view(np.int64), sigma.view(np.int64))


class TestCLI:
    def test_pinned_single_node_value(self, capsys, tmp_path):
        # the mass constraint pins the solution; value = regularized self-energy
        doc = {
            "kernel": {"family": "riesz", "alpha": 2.0, "epsilon": 0.5},
            "plates": [
                {"sign": 1, "nodes": [[0.0, 0.0, 0.0]], "g": 1.0, "a": 1.0, "sigma": 1.0}
            ],
        }
        path = tmp_path / "pinned.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["solve", str(path)], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["value"] == pytest.approx(1.0 / 0.5, rel=1e-12)
        assert record["plates"][0]["weights"] == [1.0]

    def test_solve_golden_value(self, capsys):
        code, out, _ = run_cli(["solve", str(CONFIGS / "solve_two_plate.json")], capsys)
        assert code == 0
        record = json.loads(out)
        golden = json.loads((REPO / "goldens" / "solve_two_plate.json").read_text())
        assert abs(record["value"] - golden["value"]) <= 1e-8
        assert record["converged"]

    def test_thinness_golden(self, capsys):
        golden = json.loads((REPO / "goldens" / "thinness_power_s.json").read_text())
        code, out, _ = run_cli(golden["command"].split()[1:], capsys)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == len(golden["stages"])
        for record, stage in zip(records, golden["stages"]):
            assert record["n_body_nodes"] == stage["n_body_nodes"]
            assert record["converged"] is stage["converged"]
            for key in ("radius", "capacity", "minimizer_mass_center",
                        "gap_to_balayage_candidate", "swept_mass"):
                assert abs(record[key] - stage[key]) <= 1e-8, key

    def test_solve_deterministic_bytes(self, capsys):
        args = ["solve", str(CONFIGS / "solve_two_plate.json"), "--seed", "11"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_infeasible_exit_code_and_message(self, capsys, tmp_path):
        doc = minimal_config()
        doc["plates"][0]["sigma"] = 0.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["solve", str(path)], capsys)
        assert code == 1
        assert "plate 0" in err

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(["solve", str(path)], capsys)
        assert code == 1
        assert "line" in err

    def test_unconverged_exit_code(self, capsys, tmp_path):
        doc = minimal_config()
        doc["solver"] = {"grad_tol": 1e-14, "max_iters": 2}
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["solve", str(path)], capsys)
        assert code == 2
        assert not json.loads(out)["converged"]

    def test_capacity_sphere_within_five_percent(self, capsys):
        code, out, _ = run_cli(
            ["capacity", str(CONFIGS / "capacity_sphere.json")], capsys
        )
        assert code == 0
        record = json.loads(out)
        assert abs(record["capacity"] - 2.0) <= 0.1
        assert record["frostman_violation"] <= record["frostman_tol"]

    def test_capacity_needs_no_iterative_solve(self, capsys, monkeypatch):
        def no_iterations(*args, **kwargs):
            raise AssertionError("projected gradient ran although K u = 1 has a positive solution")

        monkeypatch.setattr(solver, "_run_projected_gradient", no_iterations)
        code, out, _ = run_cli(["capacity", str(CONFIGS / "capacity_sphere.json")], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["converged"] is True
        assert record["kkt_residual"] <= 1e-10
        assert record["frostman_violation"] <= record["frostman_tol"]

    def test_capacity_small_sphere_converges(self, capsys, tmp_path):
        # A 3000-node sphere of radius 0.534 on which projected gradient
        # stalls at a KKT residual of 1e-7; the direct solve certifies it.
        radius = 0.5340820005757438
        doc = {
            "kernel": {"family": "newtonian"},
            "plates": [{
                "sign": 1,
                "nodes": {"generator": "sphere", "count": 3000, "radius": radius,
                          "center": [0.2941028698480386, 1.9521353613276058,
                                     -1.360360172466926]},
                "g": 1.0, "a": 1.0, "sigma": 1.0,
            }],
            "solver": {"algorithm": "projected_gradient", "grad_tol": 1e-10},
            "capacity": {"plate": 0},
        }
        path = tmp_path / "small_sphere.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["capacity", str(path)], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["converged"] is True
        assert record["kkt_residual"] <= 1e-10
        # 0.0124... is the Fibonacci sphere's discretization bias at 3000 nodes
        assert abs(record["capacity"] / radius - (1.0 + 0.012439869860406905)) <= 1e-8

    def test_check_pd_identity_table(self, capsys):
        code, out, _ = run_cli(["check-pd", str(CONFIGS / "check_pd_identity.json")], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["is_strictly_pd"] is True

    def test_balayage_command(self, capsys):
        code, out, _ = run_cli(
            ["balayage", str(CONFIGS / "balayage_point_to_plate.json")], capsys
        )
        assert code == 0
        record = json.loads(out)
        assert record["potential_residual"] <= 1e-8
        assert record["mass_ratio"] <= 1.0 + 1e-8

    def test_balayage_command_needs_no_nnls(self, capsys, monkeypatch):
        def no_nnls(*args, **kwargs):
            raise AssertionError("NNLS ran although the unconstrained sweep is nonnegative")

        monkeypatch.setattr(scipy.optimize, "nnls", no_nnls)
        code, out, _ = run_cli(
            ["balayage", str(CONFIGS / "balayage_point_to_plate.json")], capsys
        )
        assert code == 0
        assert json.loads(out)["within_tol"] is True

    def test_exhaust_records_monotone(self, capsys):
        code, out, _ = run_cli(
            ["exhaust", str(CONFIGS / "exhaust_two_plate.json")], capsys
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 4
        values = [r["value"] for r in records if r["feasible"]]
        assert all(values[i + 1] <= values[i] + 1e-8 for i in range(len(values) - 1))

    def test_exhaust_unconverged_full_solve_exit_code(self, capsys, tmp_path):
        doc = json.loads((CONFIGS / "exhaust_two_plate.json").read_text())
        doc["solver"]["max_iters"] = 2
        doc["exhaust"] = {"fractions": [0.25], "sigma_scales": [1 / 1.2]}
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["exhaust", str(path)], capsys)
        record = json.loads(out)
        assert record["converged"] is True
        assert record["full_converged"] is False
        assert code == 2

    def test_frank_wolfe_exhaust_needs_no_least_squares(self, capsys, tmp_path, monkeypatch):
        code, out, _ = run_cli(["exhaust", str(CONFIGS / "exhaust_two_plate.json")], capsys)
        assert code == 0
        pg = [json.loads(line) for line in out.strip().splitlines()]

        def no_lstsq(*args, **kwargs):
            raise AssertionError("least squares ran on the Frank-Wolfe path")

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        doc = json.loads((CONFIGS / "exhaust_two_plate.json").read_text())
        doc["solver"]["algorithm"] = "frank_wolfe"
        path = tmp_path / "fw.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["exhaust", str(path)], capsys)
        assert code == 0
        fw = [json.loads(line) for line in out.strip().splitlines()]
        assert len(fw) == len(pg) == 4
        for a, b in zip(fw, pg):
            assert a["converged"] and a["full_converged"]
            assert abs(a["value"] - b["value"]) <= 1e-10
        assert abs(fw[0]["full_value"] - pg[0]["full_value"]) <= 1e-10

    def test_frank_wolfe_exhaust_carries_the_hull_factor(self, capsys, tmp_path, monkeypatch):
        # Each round appends one column to the hull's packed Cholesky factor.  Only a
        # solve's first hull and a round that drops an atom are factored from
        # scratch.
        code, out, _ = run_cli(["exhaust", str(CONFIGS / "exhaust_two_plate.json")], capsys)
        assert code == 0
        pg = [json.loads(line) for line in out.strip().splitlines()]

        counts = dict.fromkeys(
            ("dpptrf", "dtpsv", "solve", "rounds", "dropping"), 0)

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("dpptrf", "dtpsv"):
            counted(solver, name)
        counted(analysis, "solve")
        step = solver._corrective_step

        def counted_step(*args):
            alpha, R = step(*args)
            counts["rounds"] += 1
            counts["dropping"] += bool(np.any(alpha <= 1e-15))
            return alpha, R

        monkeypatch.setattr(solver, "_corrective_step", counted_step)
        doc = json.loads((CONFIGS / "exhaust_two_plate.json").read_text())
        doc["solver"]["algorithm"] = "frank_wolfe"
        path = tmp_path / "fw.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["exhaust", str(path)], capsys)
        assert code == 0
        assert counts["rounds"] > 10 * counts["solve"]
        assert counts["dpptrf"] <= counts["solve"] + counts["dropping"]
        assert counts["dtpsv"] <= counts["rounds"]  # one triangular solve per entering atom
        fw = [json.loads(line) for line in out.strip().splitlines()]
        assert len(fw) == len(pg) == 4
        for a, b in zip(fw, pg):
            assert a["converged"] and a["full_converged"]
            assert abs(a["value"] - b["value"]) <= 1e-10
        assert abs(fw[0]["full_value"] - pg[0]["full_value"]) <= 1e-10

    @pytest.mark.parametrize("algorithm", ["projected_gradient", "frank_wolfe"])
    def test_exhaust_full_stage_reuses_full_solve(self, capsys, tmp_path, monkeypatch,
                                                  algorithm):
        calls = []
        solve = analysis.solve

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(analysis, "solve", counted)
        doc = json.loads((CONFIGS / "exhaust_two_plate.json").read_text())
        doc["solver"]["algorithm"] = algorithm

        def run(last_fraction):
            doc["exhaust"]["fractions"][-1] = last_fraction
            path = tmp_path / "exhaust.json"
            path.write_text(json.dumps(doc))
            calls.clear()
            code, out, _ = run_cli(["exhaust", str(path), "--seed", "3"], capsys)
            assert code == 0
            return [json.loads(line) for line in out.strip().splitlines()], len(calls)

        records, solves = run(1.0)
        # ceil((1 - 1e-9) * 96) keeps every node of each 96-node plate, so this
        # stage solves the full problem again, as every full stage used to.
        resolved, resolves = run(1.0 - 1e-9)
        assert (solves, resolves) == (4, 5)
        resolved[-1]["node_fraction"] = 1.0
        assert records == resolved
        assert records[-1]["value"] == records[-1]["full_value"]
        assert records[-1]["semimetric_gap"] == 0.0

    def test_csv_format(self, capsys, tmp_path):
        out_file = tmp_path / "records.csv"
        code, _, _ = run_cli(
            ["exhaust", str(CONFIGS / "exhaust_two_plate.json"), "--format", "csv",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0].startswith("command,node_fraction,sigma_scale")
        assert len(lines) == 5

    def test_capacity_assembles_one_gram_and_no_spectrum(self, capsys, monkeypatch):
        def no_spectrum(*args, **kwargs):
            raise AssertionError("a full eigendecomposition ran on the capacity path")

        assemblies = []
        kernel_matrix = kernels._kernel_matrix

        def counted(*args, **lower):
            assemblies.append(args[1].shape[0])
            return kernel_matrix(*args, **lower)

        monkeypatch.setattr(np.linalg, "eigvalsh", no_spectrum)
        monkeypatch.setattr(kernels, "_kernel_matrix", counted)
        code, out, _ = run_cli(["capacity", str(CONFIGS / "capacity_sphere.json")], capsys)
        assert code == 0
        assert json.loads(out)["converged"] is True
        assert assemblies == [500]

    def test_check_pd_reports_dense_eigenvalue_extremes(self, capsys, tmp_path):
        table = [[2.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 0.2]]
        doc = {"kernel": {"family": "custom_table", "table": table},
               "plates": [{"sign": 1, "nodes": [[0], [1], [2]], "g": 1.0, "a": 1.0,
                           "sigma": 1.0}]}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["check-pd", str(path)], capsys)
        assert code == 0
        record = json.loads(out)
        vals = np.linalg.eigvalsh(np.array(table))
        assert (record["min_eigenvalue"], record["max_eigenvalue"]) == (vals[0], vals[-1])
        assert record["pd_tol"] == 1e-10 * np.abs(vals).max()

    def test_balayage_dimension_mismatch_is_an_error(self, capsys, tmp_path):
        doc = minimal_config(balayage={"source": {"support": [[0.0, 3.0]], "weights": [1.0]}})
        path = tmp_path / "mixed_dims.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["balayage", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "dimension" in err

    def test_thinness_flags(self, capsys):
        code, out, _ = run_cli(
            ["thinness", "--profile", "exp_s_gt1", "--s", "2.0",
             "--radii", "4", "8", "--no-gap"],
            capsys,
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 2
        assert records[0]["capacity"] == records[1]["capacity"]
        assert "not certified" in records[0]["note"]


def _readme_record_keys() -> dict:
    """README's "Result record fields" list: command name to its keys, in order."""
    section = (REPO / "README.md").read_text().split("## Result record fields")[1]
    bullets = re.findall(r"^\* `([a-z-]+)`[^:]*:(.*?)\.\n(?!  )", section, re.M | re.S)
    return {command: re.findall(r"`([^`]+)`", keys) for command, keys in bullets}


@pytest.mark.parametrize("argv", [
    ["solve", str(CONFIGS / "solve_two_plate.json")],
    ["capacity", str(CONFIGS / "capacity_sphere.json")],
    ["balayage", str(CONFIGS / "balayage_point_to_plate.json")],
    ["exhaust", str(CONFIGS / "exhaust_two_plate.json")],
    ["check-pd", str(CONFIGS / "check_pd_identity.json")],
    ["thinness", "--profile", "power_s", "--s", "1", "--radii", "4", "--no-gap"],
])
def test_record_keys_are_the_readme_list(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    keys = _readme_record_keys()[argv[0]]
    records = [json.loads(line) for line in out.splitlines()]
    assert records and all(list(record) == keys for record in records)


def test_cached_parser_keeps_no_arguments_between_commands(capsys, tmp_path, monkeypatch):
    # The parser is built once per process; each command parses its own argv.
    seen = []
    for name, command in list(cli._DISPATCH.items()):
        def recorded(args, command=command):
            seen.append(dict(vars(args)))
            return command(args)

        monkeypatch.setitem(cli._DISPATCH, name, recorded)
    solve_cfg, pd_cfg = str(CONFIGS / "solve_two_plate.json"), str(CONFIGS / "check_pd_identity.json")
    out = tmp_path / "solve.csv"
    assert main(["solve", solve_cfg, "--seed", "3", "--format", "csv", "--out", str(out)]) == 0
    assert main(["check-pd", pd_cfg]) == 0
    assert cli.build_parser() is cli.build_parser()
    assert seen == [
        {"command": "solve", "config": solve_cfg, "seed": 3, "format": "csv", "out": str(out)},
        {"command": "check-pd", "config": pd_cfg, "format": "json", "out": None},
    ]
    assert out.read_text().startswith("command,value,")
    assert json.loads(capsys.readouterr().out)["command"] == "check-pd"


def test_console_entry_point_runs():
    # The child imports vequil from this checkout, with or without PYTHONPATH set.
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-m", "vequil.cli", "check-pd", str(CONFIGS / "check_pd_identity.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["is_pd"] is True


def _fresh_python(code: str, threads: int = 1) -> str:
    """Standard output of ``code`` in a fresh interpreter, ``threads`` BLAS threads,
    vequil from src/."""
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p),
             "OPENBLAS_NUM_THREADS": str(threads)},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("package", ["scipy.linalg", "scipy.optimize", "scipy.sparse"])
def test_cli_import_leaves_scipy_package_out(package):
    # BLAS and LAPACK are scipy's extension modules, loaded without their package
    # (vequil._lapack); scipy.optimize serves only balayage's NNLS fallback, which
    # imports it itself; lambda_max is vequil's own Lanczos: no ARPACK.
    assert _fresh_python(f"import sys, vequil.cli; print({package!r} in sys.modules)") == "False\n"


_SOLVE = ("import sys, vequil.cli; "
          f"sys.exit(vequil.cli.main(['solve', {str(CONFIGS / 'solve_two_plate.json')!r}]))")
_NNLS_BALAYAGE = """
import sys
import numpy as np
from vequil import ScalarSignedMeasure, KernelSpec, assemble_gram, _lapack
from vequil.analysis import balayage
from vequil.geometry import fibonacci_sphere
target = np.vstack([fibonacci_sphere(60, radius=1.0), fibonacci_sphere(20, radius=0.5)])
assert "scipy.optimize" not in sys.modules
balayage(ScalarSignedMeasure(support=[[2.5, 0.0, 0.0]], weights=[1.0]),
         assemble_gram(KernelSpec("newtonian"), target))
import scipy.linalg
assert "scipy.optimize" in sys.modules
assert scipy.linalg.blas._fblas is _lapack.blas and scipy.linalg.lapack._flapack is _lapack.lapack
assert _lapack.blas.dsymv is scipy.linalg.blas.dsymv
assert _lapack.lapack.dpotrf is scipy.linalg.lapack.dpotrf
"""


def test_nnls_path_reuses_the_loaded_blas_and_lapack():
    # balayage's NNLS branch imports scipy.optimize and through it scipy.linalg, which
    # takes over the extension modules vequil loaded: the same routines, the same record.
    assert _fresh_python(_NNLS_BALAYAGE + _SOLVE) == _fresh_python(_SOLVE)


_CAPACITY_THREADS = f"""
import os, vequil.cli
from vequil import _lapack
def threads():
    count = _lapack.set_threads_local(1)
    _lapack.set_threads_local(count)
    return count
counts = [threads()]
for command, config in (("capacity", "capacity_sphere.json"),
                        ("balayage", "balayage_point_to_plate.json")):
    path = os.path.join({str(CONFIGS)!r}, config)
    assert vequil.cli.main([command, path, "--out", os.devnull]) == 0
    counts.append(threads())
print(*counts)
"""


@pytest.mark.skipif(_lapack.set_threads_local is None,
                    reason="scipy's BLAS has no openblas_set_num_threads_local")
def test_capacity_leaves_scipys_thread_count_as_it_found_it():
    # The 500-row capacity Gram and the 100-row balayage target are factored on one
    # BLAS thread; the process's count of two comes back after each command.
    assert _fresh_python(_CAPACITY_THREADS, threads=2).split() == ["2", "2", "2"]
