"""Config parsing, canonical round-trip, CLI commands, exit codes, goldens."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from vequil import analysis, kernels, solver
from vequil.cli import main
from vequil.config import parse_config, serialize_config
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
    def test_round_trip_is_idempotent(self):
        parsed = parse_config(minimal_config())
        text1 = serialize_config(parsed.canonical)
        parsed2 = parse_config(text1)
        text2 = serialize_config(parsed2.canonical)
        assert text1 == text2

    def test_generator_expansion_round_trip(self):
        parsed = parse_config(str(CONFIGS / "solve_two_plate.json"))
        text1 = serialize_config(parsed.canonical)
        text2 = serialize_config(parse_config(text1).canonical)
        assert text1 == text2

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


def test_case2_round_trip():
    doc = minimal_config(
        field={
            "case": "case2",
            "zeta": {"support": [[0.0, 3.0, 0.0], [0.5, 3.0, 0.0]], "weights": [1.0, -0.5]},
        }
    )
    text1 = serialize_config(parse_config(doc).canonical)
    text2 = serialize_config(parse_config(text1).canonical)
    assert text1 == text2


_SOURCE = {"support": [[0.0, 3.0, 0.0]], "weights": [1.0]}


@pytest.mark.parametrize(
    "command, section, field_path",
    [
        ("capacity", {"capacity": {"plate": "x"}}, "capacity.plate"),
        ("capacity", {"capacity": {"plate": 2}}, "capacity.plate"),
        ("balayage", {"balayage": {"source": _SOURCE, "target_plate": "zero"}},
         "balayage.target_plate"),
        ("balayage", {"balayage": {"source": _SOURCE, "tol": "tight"}}, "balayage.tol"),
        ("balayage", {"balayage": {"source": {"support": "x", "weights": [1.0]}}},
         "balayage.source"),
        ("exhaust", {"exhaust": {"fractions": ["half"]}}, "exhaust.fractions[0]"),
        ("exhaust", {"exhaust": {"fractions": [0.5, 1.0], "sigma_scales": 5}},
         "exhaust.sigma_scales"),
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


def count_assemblies(monkeypatch) -> list:
    """Record ``(rows, cols)`` of every kernel matrix; forbid a separate spacing sweep."""

    def no_spacing_sweep(*args, **kwargs):
        raise AssertionError("a separate spacing sweep ran")

    assemblies = []
    kernel_matrix = kernels._kernel_matrix

    def counted(spec, X, Y):
        assemblies.append((X.shape[0], Y.shape[0]))
        return kernel_matrix(spec, X, Y)

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
        doc["solver"] = {"grad_tol": 1e-14, "max_iters": 2, "step_rule": "fixed_lipschitz"}
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

        def counted(*args):
            assemblies.append(args[1].shape[0])
            return kernel_matrix(*args)

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
