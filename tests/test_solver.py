"""Projection, knapsack oracle, both solve algorithms, KKT certificates."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from vequil import (
    Condenser,
    InfeasibleProblem,
    KernelSpec,
    NotPositiveDefinite,
    SolverConfig,
    condenser_gram,
    make_plate,
    project_plate,
    semimetric_distance,
    solve,
    verify_kkt,
    weighted_energy,
    zero_field,
)
from vequil import condenser, solver
from vequil.condenser import CASE1, CASE2, FieldSpec, ScalarSignedMeasure, r_map
from vequil.config import parse_config
from vequil.kernels import GramMatrix
from vequil.solver import _knapsack_vertex

from instances import random_case1_field, two_plate_signed


def random_feasible_point(rng, g, sigma, a):
    """Rejection-free feasible point via projection of random coordinates."""
    return project_plate(rng.uniform(0.0, 1.0, g.shape[0]) * sigma, g, sigma, a)


class TestProjectPlate:
    def test_already_feasible(self):
        w = project_plate([0.9, 0.1], [1.0, 1.0], [1.0, 1.0], 1.0)
        np.testing.assert_allclose(w, [0.9, 0.1], atol=1e-12)

    def test_box_cap_binds(self):
        w = project_plate([2.0, 0.0], [1.0, 1.0], [1.0, 1.0], 1.0)
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)

    def test_symmetric_split(self):
        w = project_plate([0.0, 0.0], [1.0, 1.0], [1.0, 1.0], 1.0)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)

    def test_infeasible_mass_raises(self):
        with pytest.raises(InfeasibleProblem):
            project_plate([0.0, 0.0], [1.0, 1.0], [0.3, 0.3], 1.0)

    def test_degenerate_returns_sigma(self):
        w = project_plate([5.0, -3.0], [1.0, 2.0], [0.2, 0.4], 1.0)
        np.testing.assert_allclose(w, [0.2, 0.4], atol=1e-14)

    def test_variational_inequality(self):
        # w* is the projection of v iff (v - w*) . (u - w*) <= 0 for feasible u
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(2, 12))
            g = rng.uniform(0.5, 2.0, m)
            sigma = rng.uniform(0.1, 1.0, m)
            a = float(rng.uniform(0.1, 0.95)) * float(g @ sigma)
            v = rng.normal(0.0, 1.0, m)
            w = project_plate(v, g, sigma, a)
            assert np.all(w >= -1e-14) and np.all(w <= sigma + 1e-14)
            assert abs(float(g @ w) - a) <= 1e-10 * max(1.0, a)
            for _ in range(10):
                u = random_feasible_point(rng, g, sigma, a)
                assert float((v - w) @ (u - w)) <= 1e-9


class TestKnapsackOracle:
    def test_minimizes_over_random_feasible_points(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(2, 12))
            g = rng.uniform(0.5, 2.0, m)
            sigma = rng.uniform(0.1, 1.0, m)
            a = float(rng.uniform(0.1, 0.95)) * float(g @ sigma)
            cost = rng.normal(0.0, 1.0, m)
            v = _knapsack_vertex(cost, g, sigma, a)
            assert np.all(v >= 0.0) and np.all(v <= sigma + 1e-14)
            assert abs(float(g @ v) - a) <= 1e-10 * max(1.0, a)
            best = float(cost @ v)
            for _ in range(20):
                u = random_feasible_point(rng, g, sigma, a)
                assert best <= float(cost @ u) + 1e-9

    def test_ties_break_by_node_index(self):
        v = _knapsack_vertex(np.zeros(3), np.ones(3), np.full(3, 0.5), 0.8)
        np.testing.assert_allclose(v, [0.5, 0.3, 0.0], atol=1e-14)


def pinned_single_node():
    c = Condenser(plates=(make_plate(0, 1, [[0.0, 0.0, 0.0]], sigma=1.0, mass=1.0),))
    K = condenser_gram(KernelSpec("riesz", alpha=2.0, epsilon=0.4), c)
    return c, K


class TestSolve:
    def test_pinned_single_node(self):
        c, K = pinned_single_node()
        rep = solve(c, K, zero_field(c))
        assert rep.minimizer.weights[0][0] == pytest.approx(1.0, abs=1e-12)
        assert rep.value == pytest.approx(K.entries[0, 0], rel=1e-13)
        assert rep.converged

    def test_two_symmetric_nodes(self):
        c = Condenser(
            plates=(make_plate(0, 1, [[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]], sigma=1.0),)
        )
        K = condenser_gram(KernelSpec("riesz", alpha=2.0, epsilon=0.3), c)
        rep = solve(c, K, zero_field(c), SolverConfig(grad_tol=1e-12))
        np.testing.assert_allclose(rep.minimizer.weights[0], [0.5, 0.5], atol=1e-10)

    def test_infeasible_raises_with_plate_name(self):
        c = Condenser(plates=(make_plate(0, 1, [[0.0, 0.0]], sigma=0.0, mass=1.0),))
        K = condenser_gram(KernelSpec("riesz", alpha=1.0, epsilon=0.3), c)
        with pytest.raises(InfeasibleProblem, match="plate 0"):
            solve(c, K, zero_field(c))
        # Feasible only through a +inf field node, which may not carry charge.
        c = Condenser(plates=(make_plate(0, 1, [[0.0, 0.0], [1.0, 0.0]], sigma=1.0, mass=1.5),))
        K = condenser_gram(KernelSpec("riesz", alpha=1.0, epsilon=0.3), c)
        f = FieldSpec(case=CASE1, case1_values=(np.array([0.0, np.inf]),))
        with pytest.raises(InfeasibleProblem, match="plate 0"):
            solve(c, K, f)

    def test_non_pd_gram_refused(self):
        table = np.array([[1.0, 2.0], [2.0, 1.0]])
        c = Condenser(plates=(make_plate(0, 1, [[0.0], [1.0]], sigma=1.0),))
        K = condenser_gram(KernelSpec("custom_table", table=table), c)
        with pytest.raises(NotPositiveDefinite, match=r"objective: K \+ pd_tol\*I has no "
                           r"Cholesky factor \(lambda_max 3\.000e\+00, pd_tol 3\.000e-10\)"):
            solve(c, K, zero_field(c))

    @pytest.mark.parametrize("algorithm", ["projected_gradient", "frank_wolfe"])
    def test_trace_monotone_and_constraints(self, algorithm):
        rng = np.random.default_rng(2)
        c = two_plate_signed(rng, n_per=10)
        K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
        f = random_case1_field(rng, c)
        rep = solve(c, K, f, SolverConfig(algorithm=algorithm, grad_tol=1e-9))
        assert rep.converged
        tr = rep.objective_trace
        assert np.all(tr[1:] <= tr[:-1] + 1e-12 * (1.0 + np.abs(tr[:-1])))
        for p, w in zip(c.plates, rep.minimizer.weights):
            assert np.all(w >= 0.0) and np.all(w <= p.sigma + 1e-12)
            assert abs(float(p.g @ w) - p.mass) <= 1e-10 * p.mass
        recomputed = weighted_energy(c, K, f, rep.minimizer)
        assert abs(rep.value - recomputed) <= 1e-12 * (1.0 + abs(rep.value))

    def test_case2_field_is_evaluated_once_per_solve(self, monkeypatch):
        rng = np.random.default_rng(4)
        c = two_plate_signed(rng, n_per=10)
        K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
        zeta = ScalarSignedMeasure(support=[[0.0, 3.0, 0.0], [0.5, 3.0, 0.0]], weights=[1.0, -0.5])
        f = FieldSpec(case=CASE2, case2_zeta=zeta)
        calls = []
        cross_kernel = condenser.cross_kernel

        def counted(spec, X, Y):
            calls.append((X.shape[0], Y.shape[0]))
            return cross_kernel(spec, X, Y)

        monkeypatch.setattr(condenser, "cross_kernel", counted)
        rep = solve(c, K, f, SolverConfig(grad_tol=1e-10))
        assert calls == [(c.total_nodes, 2)]
        assert rep.converged
        assert rep.value == weighted_energy(c, K, f, rep.minimizer)

    def test_algorithms_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            c = two_plate_signed(rng, n_per=10)
            K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
            f = random_case1_field(rng, c)
            rp = solve(c, K, f, SolverConfig(algorithm="projected_gradient", grad_tol=1e-10))
            rf = solve(c, K, f, SolverConfig(algorithm="frank_wolfe", grad_tol=1e-10))
            assert abs(rp.value - rf.value) <= 1e-6
            assert semimetric_distance(c, K, rp.minimizer, rf.minimizer) <= 1e-4

    def test_frank_wolfe_stops_when_the_new_vertex_does_not_enter(self, monkeypatch):
        # A new vertex left at zero weight is pruned and w stays where it was,
        # so the oracle would propose that same vertex until max_iters.
        rng = np.random.default_rng(2)
        c = two_plate_signed(rng, n_per=10)
        K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
        f = random_case1_field(rng, c)
        rounds = []

        def refused(Q, lin, alpha, R):
            rounds.append(alpha.size)
            return np.append(alpha, 0.0), R

        monkeypatch.setattr(solver, "_corrective_step", refused)
        rep = solve(c, K, f, SolverConfig(algorithm="frank_wolfe", max_iters=500))
        assert rounds == [1]
        assert rep.iterations == 1 and not rep.converged
        assert rep.objective_trace.size == 1

    def test_frank_wolfe_stops_when_the_oracle_reproposes_a_hull_vertex(self, monkeypatch):
        # A re-proposed hull vertex has its copy's row of Q, so the corrective
        # step leaves it out and the run ends in that round.  On this instance
        # the field of +-100 makes the duality gap's round-off clear the gap
        # floor when the oracle re-proposes a hull vertex in round 2.
        rng = np.random.default_rng(1)
        c = two_plate_signed(rng, n_per=6)
        K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
        f = FieldSpec(case=CASE1, case1_values=(np.full(6, 100.0), np.full(6, -100.0)))
        lmo, step = solver._QP.lmo, solver._corrective_step
        proposals, hull, repeats = [], [], []

        def oracle(qp, grad):
            proposals.append(lmo(qp, grad))
            if len(proposals) == 1:
                hull.append(proposals[0])  # the starting vertex
            return proposals[-1]

        def corrective(Q, lin, alpha, R):
            new, R = step(Q, lin, alpha, R)
            s = proposals[-1]
            if any(np.array_equal(s, h) for h in hull):
                repeats.append((len(proposals) - 1, float(new[-1])))
            hull[:] = [h for h, x in zip(hull + [s], new) if x > 1e-15]  # the solver's pruning
            return new, R

        monkeypatch.setattr(solver._QP, "lmo", oracle)
        monkeypatch.setattr(solver, "_corrective_step", corrective)
        rep = solve(c, K, f, SolverConfig(algorithm="frank_wolfe", grad_tol=1e-300, max_iters=500))
        assert repeats == [(2, 0.0)]
        assert rep.iterations == 2 and len(proposals) == 3

    def test_infinite_field_nodes_clamped(self):
        c = Condenser(
            plates=(make_plate(0, 1, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], sigma=1.0),)
        )
        K = condenser_gram(KernelSpec("riesz", alpha=2.0, epsilon=0.4), c)
        f = FieldSpec(case=CASE1, case1_values=(np.array([np.inf, 0.0]),))
        rep = solve(c, K, f)
        np.testing.assert_allclose(rep.minimizer.weights[0], [0.0, 1.0], atol=1e-12)
        assert np.isfinite(rep.value)

    def test_lower_bound_case1(self):
        # value >= -2 sum_i a_i max|f_i| / min g_i for finite case-1 fields
        rng = np.random.default_rng(4)
        for _ in range(10):
            c = two_plate_signed(rng, n_per=8)
            K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
            f = random_case1_field(rng, c, scale=2.0)
            rep = solve(c, K, f, SolverConfig(grad_tol=1e-9))
            bound = -2.0 * sum(
                p.mass * float(np.abs(v).max()) / float(p.g.min())
                for p, v in zip(c.plates, f.case1_values)
            )
            assert rep.value >= bound - 1e-9
            assert np.isfinite(rep.value)

    def test_convexity_certificate_between_minimizers(self):
        rng = np.random.default_rng(5)
        c = two_plate_signed(rng, n_per=8)
        K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
        f = random_case1_field(rng, c)
        r1 = solve(c, K, f, SolverConfig(grad_tol=1e-11, seed=1))
        r2 = solve(c, K, f, SolverConfig(grad_tol=1e-11, seed=2))
        mid = c.measure(
            [0.5 * (a + b) for a, b in zip(r1.minimizer.weights, r2.minimizer.weights)]
        )
        assert weighted_energy(c, K, f, mid) <= max(r1.value, r2.value) + 1e-10

    def test_monotonicity_in_nodes_and_sigma(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            c = two_plate_signed(rng, n_per=12)
            K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
            f = zero_field(c)
            full = solve(c, K, f, SolverConfig(grad_tol=1e-10))
            keep = 9
            factor = 0.95
            plates = []
            feasible = True
            for p in c.plates:
                sig = factor * p.sigma[:keep]
                if float(p.g[:keep] @ sig) < p.mass:
                    feasible = False
                plates.append(
                    make_plate(p.id, p.sign, p.nodes[:keep], g=p.g[:keep],
                               mass=p.mass, sigma=sig)
                )
            if not feasible:
                continue
            c_sub = Condenser(plates=tuple(plates))
            K_sub = condenser_gram(K.spec, c_sub)  # under the full Gram's epsilon
            sub = solve(c_sub, K_sub, zero_field(c_sub), SolverConfig(grad_tol=1e-10))
            assert sub.value >= full.value - 1e-8


    @pytest.mark.parametrize("algorithm", ["projected_gradient", "frank_wolfe"])
    def test_a_plate_of_zero_boxes_keeps_one_coordinate(self, algorithm):
        # A mass within the feasibility fuzz of <g, sigma> = 0: the solve cuts
        # the zero boxes, but no plate is left without a coordinate.
        c = Condenser(plates=(
            make_plate(0, 1, [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]], sigma=0.0, mass=1e-13),
            make_plate(1, -1, [[2.0, 0.0, 0.0], [2.5, 0.0, 0.0], [3.0, 0.0, 0.0]], sigma=0.5)))
        K = condenser_gram(KernelSpec("riesz", alpha=2.0, epsilon=0.3), c)
        qp = solver._QP(c, K, zero_field(c), cut=True)
        assert qp.on.tolist() == [0, 2, 3, 4] and qp.starts.tolist() == [0, 1]
        rep = solve(c, K, zero_field(c), SolverConfig(algorithm=algorithm, grad_tol=1e-10))
        assert rep.converged and rep.multipliers[0] == 0.0
        assert rep.minimizer.weights[0].tolist() == [0.0, 0.0]
        np.testing.assert_allclose(rep.minimizer.weights[1], [0.39492282, 0.21015435, 0.39492282],
                                   atol=1e-8)

def two_plate_config(scale=1.0):
    """``configs/solve_two_plate.json`` with its Gram scaled by ``scale``."""
    config = Path(__file__).resolve().parents[1] / "configs" / "solve_two_plate.json"
    problem = parse_config(config).problem
    gram = GramMatrix(problem.gram.dense() * scale)
    return problem.condenser, gram, problem.field, problem.config


def one_free_node():
    # The one weight is fixed at a/g = 0.5, and g = 0.7 leaves a KKT residual of
    # round-off: a step cannot move, and the residual misses a tolerance below it.
    c = Condenser(plates=(make_plate(0, 1, [[0.0, 0.0, 0.0]], g=0.7, mass=0.35),))
    K = condenser_gram(KernelSpec("riesz", alpha=2.0, epsilon=0.3), c)
    return c, K, zero_field(c), SolverConfig(grad_tol=1e-300)


def stop_rule(monkeypatch, instance, **settings):
    """Solve ``instance``; name the exit from the last projection and corrective step.

    A run that neither converged nor used up ``max_iters`` ended at a step that
    could not move.  For projected gradient that is a projection fixed point
    when the last projection is the minimizer, and the line-search floor when
    it is a rejected trial point.  For Frank-Wolfe it is the gap floor when the
    last round made no corrective step, and a vertex that does not enter when
    that step left the new vertex at zero weight.
    """
    c, K, f, cfg = instance
    cfg = dataclasses.replace(cfg, **settings)
    projections, corrections = [], []
    project, corrective_step = solver._QP.project, solver._corrective_step

    def projected(qp, v):
        projections.append(project(qp, v))
        return projections[-1]

    def corrected(*args):
        corrections.append(corrective_step(*args))
        return corrections[-1]

    monkeypatch.setattr(solver._QP, "project", projected)
    monkeypatch.setattr(solver, "_corrective_step", corrected)
    rep = solve(c, K, f, cfg)
    stalled = rep.objective_trace.size == rep.iterations  # the last step did not move
    if rep.converged:
        exit_ = "converged"
    elif rep.iterations == (cfg.max_iters or max(1000, 50 * c.total_nodes)):
        exit_ = "max_iters"
    elif stalled and cfg.algorithm == "projected_gradient":
        fixed = np.array_equal(projections[-1], rep.minimizer.concat())
        exit_ = "projection_fixed_point" if fixed else "line_search_stall"
    elif stalled and len(corrections) == rep.iterations - 1:
        exit_ = "fw_gap_floor"
    elif stalled and corrections[-1][0][-1] == 0.0:
        exit_ = "fw_vertex_not_entering"
    else:
        exit_ = "unknown"
    return exit_, rep.iterations, rep.converged, rep.objective_trace.size


PG, FW = "projected_gradient", "frank_wolfe"


class TestStopRules:
    """Each exit of the descent loop, on purpose, with the count and trace it gives.

    A converged run counts the steps it took, a step that could not move
    counts as taken, a ``max_iters`` run counts ``max_iters``, and the trace
    holds the start and each step that moved.
    """

    @pytest.mark.parametrize("instance, settings, expected", [
        (two_plate_config, dict(algorithm=PG, grad_tol=1e3), ("converged", 0, True, 1)),
        (two_plate_config, dict(algorithm=FW, grad_tol=1e3), ("converged", 0, True, 1)),
        (two_plate_config, dict(algorithm=PG), ("converged", 23, True, 24)),
        (two_plate_config, dict(algorithm=FW), ("converged", 52, True, 53)),
        (two_plate_config, dict(algorithm=PG, max_iters=5), ("max_iters", 5, False, 6)),
        (two_plate_config, dict(algorithm=FW, max_iters=5), ("max_iters", 5, False, 6)),
        (one_free_node, dict(algorithm=PG), ("projection_fixed_point", 1, False, 1)),
        (one_free_node, dict(algorithm=FW), ("fw_gap_floor", 1, False, 1)),
    ], ids=["pg-at-start", "fw-at-start", "pg-converged", "fw-converged", "pg-max-iters",
            "fw-max-iters", "pg-fixed-point", "fw-gap-floor"])
    def test_exit(self, monkeypatch, instance, settings, expected):
        assert stop_rule(monkeypatch, instance(), **settings) == expected

    @pytest.mark.parametrize("scale, algorithm, expected", [
        (1e8, PG, ("max_iters", 3600, False, 3601)),
        (1e-6, PG, ("line_search_stall", 7, False, 7)),
        (1e8, FW, ("fw_vertex_not_entering", 58, False, 58)),
    ], ids=["pg-max-iters", "pg-line-search-floor", "fw-vertex-not-entering"])
    def test_exit_of_a_scaled_gram(self, monkeypatch, scale, algorithm, expected):
        assert stop_rule(monkeypatch, two_plate_config(scale), algorithm=algorithm) == expected

    @pytest.mark.parametrize("seed", [None, 3, 11])
    @pytest.mark.parametrize("algorithm", [PG, FW])
    def test_trace_is_the_lowest_value_so_far(self, algorithm, seed):
        c, K, f, cfg = two_plate_config()
        rep = solve(c, K, f, dataclasses.replace(cfg, algorithm=algorithm, seed=seed))
        trace = rep.objective_trace
        assert trace.size == rep.iterations + 1
        assert np.array_equal(trace, np.minimum.accumulate(trace))


class TestVerifyKKT:
    def test_pinned_solution_residual_zero(self):
        c, K = pinned_single_node()
        rep = solve(c, K, zero_field(c))
        cert = verify_kkt(c, K, zero_field(c), rep.minimizer, tol=1e-10)
        assert cert.ok
        assert cert.max_residual == 0.0

    def test_perturbed_minimizer_flagged(self):
        rng = np.random.default_rng(7)
        c = two_plate_signed(rng, n_per=10)
        K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
        f = zero_field(c)
        rep = solve(c, K, f, SolverConfig(grad_tol=1e-10))
        w = [v.copy() for v in rep.minimizer.weights]
        sl = np.flatnonzero((w[0] > 0.01) & (w[0] < c.plates[0].sigma - 0.01))
        if sl.size < 2:  # move mass between two interior coordinates
            pytest.skip("no interior pair to perturb")
        g = c.plates[0].g
        w[0][sl[0]] += 0.01 / g[sl[0]]
        w[0][sl[1]] -= 0.01 / g[sl[1]]
        cert = verify_kkt(c, K, f, c.measure(w), tol=1e-6)
        assert not cert.ok

    def test_certificate_independent_of_solver(self):
        rng = np.random.default_rng(8)
        c = two_plate_signed(rng, n_per=10)
        K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
        f = random_case1_field(rng, c)
        for algorithm in ("projected_gradient", "frank_wolfe"):
            rep = solve(c, K, f, SolverConfig(algorithm=algorithm, grad_tol=1e-8))
            cert = verify_kkt(c, K, f, rep.minimizer, tol=1e-6)
            assert cert.ok
            assert len(cert.multipliers) == 2

    def test_uniqueness_across_starts(self):
        rng = np.random.default_rng(9)
        c = two_plate_signed(rng, n_per=8)
        K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
        f = zero_field(c)
        sols = [solve(c, K, f, SolverConfig(grad_tol=1e-12, seed=s)) for s in range(4)]
        for i in range(len(sols)):
            for j in range(i + 1, len(sols)):
                assert semimetric_distance(c, K, sols[i].minimizer, sols[j].minimizer) <= 1e-5
                ri = r_map(c, sols[i].minimizer)
                rj = r_map(c, sols[j].minimizer)
                assert np.max(np.abs(ri.weights - rj.weights)) <= 1e-5
