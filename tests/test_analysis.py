"""Equilibrium/capacity, balayage, exhaustion, and thinness operations."""

import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.optimize

from vequil import (
    Condenser,
    KernelSpec,
    NotPositiveDefinite,
    ScalarSignedMeasure,
    SolverConfig,
    assemble_gram,
    check_positive_definite,
    condenser_gram,
    make_plate,
    zero_field,
)
from vequil import analysis
from vequil.analysis import (
    balayage,
    balayage_gram,
    equilibrium,
    exhaustion_experiment,
    green_gram,
    thinness_demo,
)
from vequil.config import parse_config
from vequil.errors import DimensionMismatch, VequilError
from vequil.geometry import fibonacci_sphere, grid_nodes, ring_nodes, rotational_body
from vequil.solver import Problem, solve, verify_kkt

from instances import two_plate_signed

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestEquilibrium:
    def test_single_node(self):
        d = 4.0
        K = assemble_gram(KernelSpec("custom_table", table=[[d]]), [[0]])
        eq = equilibrium([[0]], K)
        assert eq.unit_minimizer[0] == pytest.approx(1.0, abs=1e-13)
        assert eq.robin_constant == pytest.approx(d, rel=1e-12)
        assert eq.capacity == pytest.approx(1.0 / d, rel=1e-12)

    def test_two_symmetric_nodes(self):
        d, c = 3.0, 1.0
        K = assemble_gram(KernelSpec("custom_table", table=[[d, c], [c, d]]), [[0], [1]])
        eq = equilibrium([[0], [1]], K, config=SolverConfig(grad_tol=1e-12))
        np.testing.assert_allclose(eq.unit_minimizer, [0.5, 0.5], atol=1e-10)
        assert eq.robin_constant == pytest.approx((d + c) / 2.0, rel=1e-11)

    def test_matches_linear_solve_oracle(self):
        # interior solution: K nu = W 1, so capacity = 1' K^{-1} 1
        rng = np.random.default_rng(0)
        nodes = fibonacci_sphere(120, radius=1.5)
        K = assemble_gram(KernelSpec("newtonian"), nodes)
        eq = equilibrium(nodes, K, config=SolverConfig(grad_tol=1e-11))
        u = np.linalg.solve(K.entries, np.ones(len(nodes)))
        assert np.all(u > 0.0)
        assert eq.capacity == pytest.approx(float(u.sum()), rel=1e-9)
        np.testing.assert_allclose(eq.unit_minimizer, u / u.sum(), atol=1e-9)

    def test_sphere_capacity_near_radius(self):
        nodes = fibonacci_sphere(300, radius=1.0)
        K = assemble_gram(KernelSpec("newtonian"), nodes)
        eq = equilibrium(nodes, K)
        assert eq.capacity == pytest.approx(1.0, rel=0.05)
        assert eq.frostman_violation <= eq.frostman_tol

    def test_normalization_identities(self):
        # theta = nu/W satisfies total mass = energy = capacity
        nodes = fibonacci_sphere(200, radius=2.0)
        K = assemble_gram(KernelSpec("newtonian"), nodes)
        eq = equilibrium(nodes, K, config=SolverConfig(grad_tol=1e-11))
        theta = eq.unit_minimizer / eq.robin_constant
        total = float(theta.sum())
        en = float(theta @ K.entries @ theta)
        assert abs(total - eq.capacity) <= 1e-8 * eq.capacity
        assert abs(en - eq.capacity) <= 1e-8 * eq.capacity

    def test_log_disk_circle_robin_constant(self):
        # equilibrium of the log kernel on a circle of radius r has W = -log r
        nodes = ring_nodes(128, 0.5)
        K = assemble_gram(KernelSpec("log_disk"), nodes)
        eq = equilibrium(nodes, K, config=SolverConfig(grad_tol=1e-11))
        assert eq.converged
        assert eq.robin_constant == pytest.approx(np.log(2.0), rel=0.05)

    def test_capacity_monotone_under_node_subsets(self):
        rng = np.random.default_rng(1)
        nodes = rng.uniform(-1, 1, (40, 3))
        spec = KernelSpec("riesz", alpha=2.0, epsilon=0.1)
        cap_full = equilibrium(nodes, assemble_gram(spec, nodes)).capacity
        for m in (10, 20, 30):
            cap_sub = equilibrium(nodes[:m], assemble_gram(spec, nodes[:m])).capacity
            assert cap_sub <= cap_full + 1e-10

    def test_rank_deficient_rejected(self):
        K = assemble_gram(KernelSpec("custom_table", table=np.ones((2, 2))), [[0], [1]])
        with pytest.raises(NotPositiveDefinite, match="strictly PD Gram .min eigenvalue"):
            equilibrium([[0], [1]], K)

    def test_negative_linear_solve_takes_constrained_solver(self):
        # On a 6x6x6 grid over the unit cube, K u = 1 has 56 negative entries,
        # so the minimizer is not u / sum(u) and the constrained solver runs.
        nodes = grid_nodes([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [6, 6, 6])
        K = assemble_gram(KernelSpec("newtonian"), nodes)
        cfg = SolverConfig(grad_tol=1e-10)
        with mock.patch.object(analysis, "solve", wraps=solve) as fallback:
            eq = equilibrium(nodes, K, config=cfg)
        assert fallback.call_count == 1
        c = Condenser(plates=(make_plate(0, 1, nodes),))
        rep = solve(c, K, zero_field(c), cfg)
        assert eq.converged and eq.kkt_residual <= 1e-10
        assert eq.robin_constant == pytest.approx(rep.value, rel=1e-12)
        want = rep.minimizer.weights[0]
        assert np.abs(eq.unit_minimizer - want).max() <= 1e-12 * want.max()
        assert np.count_nonzero(eq.unit_minimizer == 0.0) > 0
        assert verify_kkt(c, K, zero_field(c), c.measure([eq.unit_minimizer]), 1e-10).ok

    def test_working_memory_is_one_gram_sized_matrix(self):
        # The PD gate's factor is the one N^2 work matrix; the solves with it
        # and the certificate add O(N).  A C-ordered factor (which cho_solve
        # would copy) or any N^2 temporary breaks the bound.
        n = 1500
        nodes = fibonacci_sphere(n, radius=1.0)
        K = assemble_gram(KernelSpec("newtonian"), nodes)
        tracemalloc.start()
        try:
            eq = equilibrium(nodes, K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert eq.converged
        assert peak <= 8 * n * n + 64 * 8 * n


class TestBalayage:
    def test_single_target_node_formula(self):
        spec = KernelSpec("newtonian", epsilon=0.1)
        src = ScalarSignedMeasure(support=[[0.0, 0.0, 0.0]], weights=[2.0])
        y = np.array([[0.5, 0.5, 0.5]])
        rep = balayage(src, y, balayage_gram(spec, src, y))
        from vequil import evaluate_kernel

        expected = max(0.0, 2.0 * evaluate_kernel(spec, y[0], [0, 0, 0])
                       / evaluate_kernel(spec, y[0], y[0]))
        assert rep.swept[0] == pytest.approx(expected, rel=1e-12)

    def test_source_on_target_is_fixed_point(self):
        spec = KernelSpec("newtonian", epsilon=0.2)
        target = grid_nodes([-1, -1, 0], [1, 1, 0], [4, 4, 1])
        src = ScalarSignedMeasure(support=target[:3], weights=[0.2, 0.3, 0.5])
        rep = balayage(src, target, balayage_gram(spec, src, target))
        np.testing.assert_allclose(rep.swept[:3], [0.2, 0.3, 0.5], atol=1e-12)
        np.testing.assert_allclose(rep.swept[3:], 0.0, atol=1e-14)
        assert rep.potential_residual <= 1e-10

    def test_point_source_onto_flat_target(self):
        spec = KernelSpec("newtonian")
        target = grid_nodes([-1, -1, 0], [1, 1, 0], [10, 10, 1])
        src = ScalarSignedMeasure(support=[[0.0, 0.0, 1.0]], weights=[1.0])
        joint = balayage_gram(spec, src, target)
        rep = balayage(src, target, joint, tol=1e-8)
        assert rep.potential_residual <= 1e-8
        assert rep.mass_ratio <= 1.0 + 1e-8
        assert rep.swept_energy <= rep.source_energy + 1e-8
        # independent gradient evaluation on the support of the swept measure
        K = joint.entries
        emb = np.zeros(K.shape[0])
        emb[: len(target)] = rep.swept
        omega = np.zeros(K.shape[0])
        omega[len(target)] = 1.0
        grad = (K @ (emb - omega))[: len(target)]
        assert np.abs(grad[rep.swept > 0]).max() <= 1e-8

    def test_energy_contraction(self):
        rng = np.random.default_rng(2)
        spec = KernelSpec("riesz", alpha=1.5)
        target = rng.uniform(-1, 1, (30, 3))
        src = ScalarSignedMeasure(
            support=rng.uniform(-1, 1, (5, 3)) + [0, 0, 2.5],
            weights=rng.uniform(0.1, 1.0, 5),
        )
        rep = balayage(src, target, balayage_gram(spec, src, target))
        assert rep.swept_energy <= rep.source_energy + 1e-8

    def test_signed_source_rejected(self):
        spec = KernelSpec("newtonian", epsilon=0.2)
        src = ScalarSignedMeasure(support=[[0.0, 0.0, 1.0]], weights=[-1.0])
        with pytest.raises(VequilError):
            balayage(src, [[0.0, 0.0, 0.0]], balayage_gram(spec, src, [[0.0, 0.0, 0.0]]))

    def test_negative_unconstrained_weights_take_nnls(self, monkeypatch):
        # An inner sphere shielded by an outer one: the unconstrained solve of
        # K_tt beta = (K omega)_t charges all 20 inner nodes negatively.
        calls = []
        nnls = scipy.optimize.nnls

        def counted(A, b, **kwargs):
            calls.append(A.shape[1])
            return nnls(A, b, **kwargs)

        monkeypatch.setattr(scipy.optimize, "nnls", counted)
        spec = KernelSpec("newtonian")
        target = np.vstack([fibonacci_sphere(60, radius=1.0), fibonacci_sphere(20, radius=0.5)])
        src = ScalarSignedMeasure(support=[[2.5, 0.0, 0.0]], weights=[1.0])
        rep = balayage(src, target, balayage_gram(spec, src, target), tol=1e-9)
        assert calls == [80]
        assert np.all(rep.swept >= 0.0)
        assert np.all(rep.swept[60:] == 0.0)
        assert rep.potential_residual <= 1e-9

    @pytest.mark.parametrize("outer_radius", [1.0, None])
    def test_joint_gram_row_order_does_not_matter(self, outer_radius):
        # With and without the outer sphere, so both the Cholesky solve and the
        # NNLS fallback see a joint Gram whose target rows are not first.
        spec = KernelSpec("newtonian", epsilon=0.15)
        inner = fibonacci_sphere(20, radius=0.5)
        target = inner if outer_radius is None else np.vstack(
            [fibonacci_sphere(60, radius=outer_radius), inner])
        src = ScalarSignedMeasure(support=[[2.5, 0.0, 0.0], inner[3]], weights=[1.0, 0.25])
        joint = balayage_gram(spec, src, target)
        perm = np.random.default_rng(4).permutation(joint.size)
        shuffled = assemble_gram(spec, joint.nodes[perm])
        ref = balayage(src, target, joint)
        rep = balayage(src, target, shuffled)
        assert np.array_equal(rep.swept, ref.swept)
        assert (rep.potential_residual, rep.mass_ratio, rep.swept_energy, rep.source_energy) == (
            ref.potential_residual, ref.mass_ratio, ref.swept_energy, ref.source_energy)

    def test_duplicate_target_nodes_rejected(self):
        spec = KernelSpec("newtonian", epsilon=0.2)
        src = ScalarSignedMeasure(support=[[0.0, 0.0, 1.0]], weights=[1.0])
        joint = balayage_gram(spec, src, [[0.0, 0.0, 0.0]])
        with pytest.raises(VequilError, match="target nodes must be distinct"):
            balayage(src, [[0.0, 0.0, 0.0], [-0.0, 0.0, 0.0]], joint)

    def test_dimension_mismatch_raises(self):
        spec = KernelSpec("newtonian", epsilon=0.2)
        src2 = ScalarSignedMeasure(support=[[0.0, 1.0]], weights=[1.0])
        target3 = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        with pytest.raises(DimensionMismatch):
            balayage_gram(spec, src2, target3)
        src3 = ScalarSignedMeasure(support=[[0.0, 0.0, 1.0]], weights=[1.0])
        joint = balayage_gram(spec, src3, target3)
        with pytest.raises(DimensionMismatch):
            balayage(src2, target3, joint)
        with pytest.raises(DimensionMismatch):
            balayage(src3, [[0.0, 0.0], [1.0, 0.0]], joint)


class TestGreenGram:
    def test_schur_complement_is_pd_and_dominated(self):
        rng = np.random.default_rng(3)
        inner = rng.uniform(-1, 1, (12, 3)) + [-3.0, 0.0, 0.0]
        screen = rng.uniform(-1, 1, (20, 3)) + [3.0, 0.0, 0.0]
        spec = KernelSpec("newtonian", epsilon=0.15)
        G = green_gram(spec, inner, screen)
        assert check_positive_definite(G).is_strictly_pd
        plain = assemble_gram(spec, inner)
        # screening only removes energy
        rng2 = np.random.default_rng(4)
        for _ in range(10):
            w = rng2.uniform(0.0, 1.0, 12)
            assert w @ G.entries @ w <= w @ plain.entries @ w + 1e-10


def loose_two_plate(rng, n_per=40):
    # masses small enough that 25% head-truncations stay feasible
    c = two_plate_signed(rng, n_per=n_per, mass_frac=(0.08, 0.18))
    K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
    return Problem(condenser=c, gram=K, field=zero_field(c),
                   config=SolverConfig(grad_tol=1e-10))


class TestExhaustion:
    def test_single_full_stage_equals_full_solve(self):
        rng = np.random.default_rng(5)
        prob = loose_two_plate(rng, n_per=15)
        tr = exhaustion_experiment(prob, [1.0])
        assert len(tr.stages) == 1
        st = tr.stages[0]
        assert st.feasible
        assert st.value == pytest.approx(tr.full_value, abs=1e-12)
        assert st.semimetric_gap <= 1e-10

    def test_values_monotone_across_stages(self):
        rng = np.random.default_rng(6)
        prob = loose_two_plate(rng, n_per=30)
        tr = exhaustion_experiment(prob, [0.25, 0.5, 1.0], [1.3, 1.1, 1.0])
        assert all(st.feasible for st in tr.stages)
        assert tr.values_monotone(1e-8)

    def test_headroom_restores_feasibility(self):
        # sigma tight enough that the 25% truncation fails at beta = 1
        rng = np.random.default_rng(7)
        n = 20
        nodes1 = rng.uniform(-1, 1, (n, 3)) + [-2.0, 0.0, 0.0]
        nodes2 = rng.uniform(-1, 1, (n, 3)) + [2.0, 0.0, 0.0]
        c = Condenser(
            plates=(
                make_plate(0, 1, nodes1, sigma=0.14, mass=1.0),
                make_plate(1, -1, nodes2, sigma=0.14, mass=1.0),
            )
        )
        # 25% keeps 5 nodes: cap = 0.7 < 1 infeasible; 1.5 * 0.7 = 1.05 feasible
        K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
        prob = Problem(condenser=c, gram=K, field=zero_field(c),
                       config=SolverConfig(grad_tol=1e-9))
        bare = exhaustion_experiment(prob, [0.25, 0.5, 1.0], [1.0, 1.0, 1.0])
        assert not bare.stages[0].feasible
        head = exhaustion_experiment(prob, [0.25, 0.5, 1.0], [1.5, 1.1, 1.0])
        assert head.stages[0].feasible
        assert head.values_monotone(1e-8)

    def test_unconverged_full_solve_is_reported(self):
        # At sigma scale 1/1.2 the 25% stage's feasible set is a single point,
        # so the stage converges within two iterations; the full solve does not.
        doc = json.loads((CONFIGS / "exhaust_two_plate.json").read_text())
        doc["solver"]["max_iters"] = 2
        prob = parse_config(doc).problem
        tr = exhaustion_experiment(prob, [0.25], [1 / 1.2])
        assert tr.stages[0].feasible and tr.stages[0].converged
        assert tr.full_converged is False
        assert exhaustion_experiment(parse_config(CONFIGS / "exhaust_two_plate.json").problem,
                                     [1.0]).full_converged is True

    def test_final_gap_small(self):
        rng = np.random.default_rng(8)
        prob = loose_two_plate(rng, n_per=25)
        tr = exhaustion_experiment(prob, [0.5, 1.0], [1.1, 1.0])
        assert tr.stages[-1].semimetric_gap <= 1e-4


class TestRotationalBody:
    def test_nested_across_radii(self):
        small = rotational_body("power_s", 1.0, 1.0, 6.0)
        large = rotational_body("power_s", 1.0, 1.0, 12.0)
        assert small.shape[0] < large.shape[0]
        np.testing.assert_array_equal(large[: small.shape[0]], small)

    def test_profile_radius_respected(self):
        body = rotational_body("power_s", 1.0, 1.0, 8.0)
        radial = np.sqrt(body[:, 1] ** 2 + body[:, 2] ** 2)
        assert np.all(radial <= body[:, 0] ** -1.0 + 1e-12)

    def test_empty_discretization_raises(self):
        with pytest.raises(VequilError):
            rotational_body("exp_s_gt1", 2.0, 5.0, 6.0)  # radius below floor throughout


class TestThinnessDemo:
    def test_single_radius_record(self):
        rep = thinness_demo("power_s", 1.0, [4.0], include_gap=False)
        assert len(rep.stages) == 1
        assert rep.stages[0].capacity > 0.0
        assert rep.note

    def test_capacity_dichotomy_small(self):
        flat = thinness_demo("exp_s_gt1", 2.0, [4.0, 8.0], include_gap=False)
        caps = [st.capacity for st in flat.stages]
        assert caps[1] - caps[0] <= 0.01 * caps[1]
        grow = thinness_demo("power_s", 1.0, [4.0, 8.0], include_gap=False)
        caps = [st.capacity for st in grow.stages]
        assert caps[1] >= caps[0]
        assert caps[1] - caps[0] > 0.10 * caps[1]

    def test_gap_and_center_reported(self):
        rep = thinness_demo("power_s", 1.0, [4.0])
        st = rep.stages[0]
        assert np.isfinite(st.gap_to_balayage_candidate)
        assert st.minimizer_mass_center > 0.0
        assert 0.0 < st.swept_mass <= 1.0 + 1e-8

    def test_exp_slow_decay_profile_runs(self):
        # the ambiguous slow-decay case: reported as a trend only
        rep = thinness_demo("exp_s_le1", 1.0, [4.0, 8.0], include_gap=False)
        caps = [st.capacity for st in rep.stages]
        assert caps[0] > 0.0 and caps[1] >= caps[0] - 1e-12


def test_ring_nodes_on_circle():
    pts = ring_nodes(8, 0.5, center=(1.0, -1.0))
    d = np.sqrt(((pts - [1.0, -1.0]) ** 2).sum(axis=1))
    np.testing.assert_allclose(d, 0.5, rtol=1e-12)
