"""Equilibrium/capacity, balayage, exhaustion, and thinness operations."""

import dataclasses
import json
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from vequil import (
    Condenser,
    FieldSpec,
    GramMatrix,
    KernelSpec,
    NotPositiveDefinite,
    Plate,
    ScalarSignedMeasure,
    SolverConfig,
    assemble_gram,
    check_positive_definite,
    condenser_gram,
    cross_kernel,
    make_plate,
    zero_field,
)
from vequil import analysis, kernels
from vequil.analysis import (
    balayage,
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
        u = np.linalg.solve(K.dense(), np.ones(len(nodes)))
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
        en = float(theta @ K.dense() @ theta)
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
        with pytest.raises(NotPositiveDefinite, match=r"strictly PD Gram: K - pd_tol\*I has no "
                           r"Cholesky factor \(lambda_max 2\.000e\+00, pd_tol 2\.000e-10\)"):
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

    def test_working_memory_is_the_gram_plus_vectors(self):
        # The PD gate factors in the Gram's spare triangle and keeps the factor
        # there; the solves with the factor, Lanczos and the certificate add
        # O(N).  An N^2 work matrix (a dense() or np.ix_ copy, a factor held
        # elsewhere) or any other N^2 temporary breaks the bound.
        n = 1000
        nodes = fibonacci_sphere(n, radius=1.0)
        K = assemble_gram(KernelSpec("newtonian"), nodes)
        before = K.dense()
        tracemalloc.start()
        try:
            eq = equilibrium(nodes, K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert eq.converged
        assert peak <= 64 * 8 * n
        assert np.array_equal(K.dense(), before)

    def test_gate_inside_solve_adds_only_vectors(self):
        # solve's gate factors inside the Gram too; the iterations add O(N).
        n = 1000
        nodes = fibonacci_sphere(n, radius=1.0)
        K = assemble_gram(KernelSpec("newtonian"), nodes)
        c = Condenser(plates=(make_plate(0, 1, nodes),))
        tracemalloc.start()
        try:
            rep = solve(c, K, zero_field(c), SolverConfig(max_iters=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.iterations <= 3
        assert peak <= 64 * 8 * n


class TestBalayage:
    def test_single_target_node_formula(self):
        spec = KernelSpec("newtonian", epsilon=0.1)
        src = ScalarSignedMeasure(support=[[0.0, 0.0, 0.0]], weights=[2.0])
        y = np.array([[0.5, 0.5, 0.5]])
        rep = balayage(src, assemble_gram(spec, y))
        from vequil import evaluate_kernel

        expected = max(0.0, 2.0 * evaluate_kernel(spec, y[0], [0, 0, 0])
                       / evaluate_kernel(spec, y[0], y[0]))
        assert rep.swept[0] == pytest.approx(expected, rel=1e-12)

    def test_source_on_target_is_fixed_point(self):
        spec = KernelSpec("newtonian", epsilon=0.2)
        target = grid_nodes([-1, -1, 0], [1, 1, 0], [4, 4, 1])
        src = ScalarSignedMeasure(support=target[:3], weights=[0.2, 0.3, 0.5])
        rep = balayage(src, assemble_gram(spec, target))
        np.testing.assert_allclose(rep.swept[:3], [0.2, 0.3, 0.5], atol=1e-12)
        np.testing.assert_allclose(rep.swept[3:], 0.0, atol=1e-14)
        assert rep.potential_residual <= 1e-10

    def test_point_source_onto_flat_target(self):
        spec = KernelSpec("newtonian")
        target = grid_nodes([-1, -1, 0], [1, 1, 0], [10, 10, 1])
        src = ScalarSignedMeasure(support=[[0.0, 0.0, 1.0]], weights=[1.0])
        K_t = assemble_gram(spec, target)
        rep = balayage(src, K_t)
        assert rep.potential_residual <= 1e-8
        assert rep.mass_ratio <= 1.0 + 1e-8
        assert rep.swept_energy <= rep.source_energy + 1e-8
        # independent gradient evaluation on the support of the swept measure
        source_potential = cross_kernel(K_t.spec, target, src.support) @ src.weights
        grad = K_t.dense() @ rep.swept - source_potential
        assert np.abs(grad[rep.swept > 0]).max() <= 1e-8

    def test_energy_contraction(self):
        rng = np.random.default_rng(2)
        spec = KernelSpec("riesz", alpha=1.5)
        target = rng.uniform(-1, 1, (30, 3))
        src = ScalarSignedMeasure(
            support=rng.uniform(-1, 1, (5, 3)) + [0, 0, 2.5],
            weights=rng.uniform(0.1, 1.0, 5),
        )
        rep = balayage(src, assemble_gram(spec, target))
        assert rep.swept_energy <= rep.source_energy + 1e-8

    def test_signed_source_rejected(self):
        spec = KernelSpec("newtonian", epsilon=0.2)
        src = ScalarSignedMeasure(support=[[0.0, 0.0, 1.0]], weights=[-1.0])
        with pytest.raises(VequilError):
            balayage(src, assemble_gram(spec, [[0.0, 0.0, 0.0]]))

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
        rep = balayage(src, assemble_gram(spec, target))
        assert calls == [80]
        assert np.all(rep.swept >= 0.0)
        assert np.all(rep.swept[60:] == 0.0)
        assert rep.potential_residual <= 1e-9

    def test_duplicate_target_nodes_rejected(self):
        spec = KernelSpec("newtonian", epsilon=0.2)
        src = ScalarSignedMeasure(support=[[0.0, 0.0, 1.0]], weights=[1.0])
        with pytest.raises(VequilError, match="target nodes must be distinct"):
            balayage(src, assemble_gram(spec, [[0.0, 0.0, 0.0], [-0.0, 0.0, 0.0]]))

    def test_dimension_mismatch_raises(self):
        spec = KernelSpec("riesz", alpha=1.0, epsilon=0.2)
        src2 = ScalarSignedMeasure(support=[[0.0, 1.0]], weights=[1.0])
        K_3 = assemble_gram(spec, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            balayage(src2, K_3)
        src3 = ScalarSignedMeasure(support=[[0.0, 0.0, 1.0]], weights=[1.0])
        with pytest.raises(DimensionMismatch):
            balayage(src3, assemble_gram(spec, [[0.0, 0.0], [1.0, 0.0]]))

    def test_target_gram_must_record_nodes_and_kernel(self):
        src = ScalarSignedMeasure(support=[[0.0, 0.0, 1.0]], weights=[1.0])
        K = assemble_gram(KernelSpec("newtonian", epsilon=0.2), [[0.0, 0.0, 0.0]])
        # Copies: a Gram's buffer belongs to it alone (the PD gate factors in it).
        for bare in (GramMatrix._assembled(K.entries.copy(), spec=K.spec),
                     GramMatrix._assembled(K.entries.copy(), nodes=K.nodes)):
            with pytest.raises(VequilError, match="records its nodes and kernel"):
                balayage(src, bare)

    def test_working_memory_is_vectors_beside_the_gram(self):
        # K_tt is factored inside the target Gram's own buffer; the source rows,
        # the solve with the factor and the diagnostics add O(n_t).  A joint
        # (target + source) Gram, a second factor or any other n_t^2 temporary
        # breaks the bound.
        n = 32 * 32
        target = grid_nodes([-1, -1, 0], [1, 1, 0], [32, 32, 1])
        K_t = assemble_gram(KernelSpec("newtonian"), target)
        src = ScalarSignedMeasure(support=[[0.1, -0.2, 0.5], [0.3, 0.4, 1.2], [-0.6, 0.0, 0.8]],
                                  weights=[0.5, 0.3, 0.9])
        tracemalloc.start()
        try:
            rep = balayage(src, K_t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.potential_residual <= 1e-8
        assert peak <= 64 * 8 * n

    def test_refused_target_is_restored(self):
        # An indefinite table block, the source on the table's third row: the
        # factorization fails in the Gram's spare triangle: the Gram is unchanged.
        table = np.array([[1.0, 2.0, 0.5], [2.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
        K = assemble_gram(KernelSpec("custom_table", table=table), [[0], [1]])
        before = K.dense()
        with pytest.raises(NotPositiveDefinite, match=r"^target Gram is not strictly PD: "
                                                      r"Matrix is not positive definite$"):
            balayage(ScalarSignedMeasure(support=[[2]], weights=[1.0]), K)
        assert np.array_equal(K.dense(), before) and not K.entries.flags.writeable


class TestGreenGram:
    def test_schur_complement_is_pd_and_dominated(self):
        rng = np.random.default_rng(3)
        inner = rng.uniform(-1, 1, (12, 3)) + [-3.0, 0.0, 0.0]
        screen = rng.uniform(-1, 1, (20, 3)) + [3.0, 0.0, 0.0]
        spec = KernelSpec("newtonian", epsilon=0.15)
        G = green_gram(cross_kernel(spec, inner, np.vstack([inner, screen])),
                       assemble_gram(spec, screen))
        assert check_positive_definite(G).is_strictly_pd
        plain = assemble_gram(spec, inner)
        # screening only removes energy
        rng2 = np.random.default_rng(4)
        for _ in range(10):
            w = rng2.uniform(0.0, 1.0, 12)
            assert w @ G.dense() @ w <= w @ plain.dense() @ w + 1e-10


    def test_equals_the_joint_schur_complement_bit_for_bit(self):
        # The inner rows are those of the joint Gram and the screen block is
        # the screen Gram itself, factored in place: the Schur complement of the
        # joint Gram, entry for entry, and the screen Gram left as it was.
        rng = np.random.default_rng(6)
        inner = rng.uniform(-1, 1, (12, 3)) + [-3.0, 0.0, 0.0]
        screen = rng.uniform(-1, 1, (40, 3)) + [3.0, 0.0, 0.0]
        spec = KernelSpec("newtonian", epsilon=0.15)
        K_s = assemble_gram(spec, screen)
        before = K_s.dense()
        rows = cross_kernel(spec, inner, np.vstack([inner, screen]))
        G = green_gram(rows, K_s)
        assert np.array_equal(K_s.dense(), before)
        joint = assemble_gram(spec, np.vstack([inner, screen])).dense()
        A, B, C = joint[:12, :12], joint[:12, 12:], joint[12:, 12:]
        S = A - B @ scipy.linalg.cho_solve(scipy.linalg.cho_factor(C, lower=True), B.T)
        assert np.array_equal(G.dense(), 0.5 * (S + S.T))
        with pytest.raises(DimensionMismatch, match=r"rows \(12, 51\) for a screen of 40"):
            green_gram(rows[:, :-1], K_s)

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
        values = [st.value for st in tr.stages]
        assert all(b <= a + 1e-8 for a, b in zip(values, values[1:]))

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
        values = [st.value for st in head.stages if st.feasible]
        assert all(b <= a + 1e-8 for a, b in zip(values, values[1:]))

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

    @staticmethod
    def truncated(c, K, f, frac, beta):
        """The stage's problem built by hand on cut plates, with a Gram assembled
        over the kept nodes alone under ``K``'s epsilon."""
        keep = [max(1, int(np.ceil(frac * p.n_nodes))) for p in c.plates]
        c_sub = Condenser(plates=tuple(
            make_plate(p.id, p.sign, p.nodes[:m], g=p.g[:m], mass=p.mass,
                       sigma=beta * p.sigma[:m])
            for p, m in zip(c.plates, keep)))
        if f.case == "case1":
            f = FieldSpec(case="case1",
                          case1_values=tuple(v[:m] for v, m in zip(f.case1_values, keep)))
        return c_sub, condenser_gram(K.spec, c_sub), f, keep

    @pytest.mark.parametrize("algorithm", ["projected_gradient", "frank_wolfe"])
    @pytest.mark.parametrize("field", ["zero", "case1_inf", "case2"])
    def test_stage_is_the_truncated_problem(self, algorithm, field, monkeypatch):
        c = two_plate_signed(np.random.default_rng(9), n_per=24, mass_frac=(0.08, 0.18))
        K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
        if field == "zero":
            f = zero_field(c)
        elif field == "case1_inf":
            values = [np.linspace(-0.3, 0.3, p.n_nodes) for p in c.plates]
            values[0][[0, -1]] = np.inf  # one node kept at every stage, one dropped
            f = FieldSpec(case="case1", case1_values=tuple(values))
        else:
            zeta = ScalarSignedMeasure(support=[[0.0, 3.0, 0.0], [0.5, -3.0, 0.0]],
                                       weights=[1.0, -0.5])
            f = FieldSpec(case="case2", case2_zeta=zeta)
        cfg = SolverConfig(algorithm=algorithm, grad_tol=1e-10)
        prob = Problem(condenser=c, gram=K, field=f, config=cfg)
        schedule = [(0.25, 1.3), (0.5, 1.1), (0.75, 1.02)]
        solves = []

        def recording(*args):
            solves.append((args, solve(*args)))
            return solves[-1][1]

        monkeypatch.setattr(analysis, "solve", recording)
        tr = exhaustion_experiment(prob, *zip(*schedule))
        assert all(st.feasible for st in tr.stages)
        for st, (frac, beta), ((c_stage, K_stage, f_stage, _), rep) in zip(
                tr.stages, schedule, solves[1:]):
            assert K_stage is K and f_stage is f
            c_sub, K_sub, f_sub, keep = self.truncated(c, K, f, frac, beta)
            kept = np.concatenate([np.arange(sl.start, sl.start + m)
                                   for sl, m in zip(c.slices(), keep)])
            assert np.array_equal(K_sub.dense(), K.dense()[np.ix_(kept, kept)])
            ref = solve(c_sub, K_sub, f_sub, cfg)
            assert st.value == pytest.approx(ref.value, rel=1e-10, abs=1e-10)
            assert st.converged == ref.converged
            for w, w_ref, m in zip(rep.minimizer.weights, ref.minimizer.weights, keep):
                assert np.all(w[m:] == 0.0)
                np.testing.assert_allclose(w[:m], w_ref, rtol=0.0, atol=1e-8)
            assert verify_kkt(c_stage, K, f, rep.minimizer, cfg.grad_tol).ok

    def test_one_exhaust_run_factors_the_gram_once(self, monkeypatch):
        factored, computed = [], []
        real_factored, real_lambda_max = GramMatrix._factored, GramMatrix.lambda_max

        def counting_factored(self, *args):
            factored.append(self.size)
            return real_factored(self, *args)

        def counting_lambda_max(self):
            if "lambda_max" not in self._cache:
                computed.append(self.size)
            return real_lambda_max(self)

        monkeypatch.setattr(GramMatrix, "_factored", counting_factored)
        monkeypatch.setattr(GramMatrix, "lambda_max", counting_lambda_max)
        parsed = parse_config(str(CONFIGS / "exhaust_two_plate.json"))
        tr = exhaustion_experiment(parsed.problem, *zip(*parsed.exhaust_schedule))
        assert all(st.feasible and st.converged for st in tr.stages)
        n = parsed.problem.gram.size
        assert (factored, computed) == ([n], [n])

    def test_stage_condensers_keep_the_validated_plates(self, monkeypatch):
        # A stage changes only sigma: its condenser is the validated one with the
        # new sigma checked, and solves bit for bit as one built from scratch.
        parsed = parse_config(str(CONFIGS / "exhaust_two_plate.json"))
        schedule = list(zip(*parsed.exhaust_schedule))
        built = []

        def counted(cls):
            real = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(cls) or real(self))

        counted(Plate)
        counted(Condenser)
        got = exhaustion_experiment(parsed.problem, *schedule)
        assert built == []

        def from_scratch(self, sigmas):
            return Condenser(plates=tuple(dataclasses.replace(p, sigma=s)
                                          for p, s in zip(self.plates, sigmas)))

        monkeypatch.setattr(Condenser, "with_sigma", from_scratch)
        want = exhaustion_experiment(parsed.problem, *schedule)
        assert built and got == want

    def test_bad_stage_sigma_is_refused(self):
        prob = loose_two_plate(np.random.default_rng(8), n_per=5)
        c = prob.condenser
        with pytest.raises(VequilError, match="^plate 1: sigma must be nonnegative and finite$"):
            c.with_sigma([np.ones(5), np.array([1.0, 1.0, np.nan, 1.0, 1.0])])
        with pytest.raises(VequilError, match="^plate 0: sigma must be nonnegative and finite$"):
            c.with_sigma([-np.ones(5), np.ones(5)])
        with pytest.raises(DimensionMismatch, match="^plate 0: g and sigma must have one value"):
            c.with_sigma([np.ones(4), np.ones(5)])
        with pytest.raises(ValueError):
            c.with_sigma([np.ones(5)])
        # A stage scale that overflows sigma to inf is refused like a plate's own.
        huge = dataclasses.replace(prob, condenser=c.with_sigma([np.full(5, 1e300)] * 2))
        with np.errstate(over="ignore"), pytest.raises(
                VequilError, match="^plate 0: sigma must be nonnegative and finite$"):
            exhaustion_experiment(huge, [0.5], [1e10])

    @pytest.mark.parametrize(
        "fractions, scales, anchor",
        [([0.5, 1.5], None, "fractions[1]"), ([0.5, 1.0], [1.1, -1.0], "sigma_scales[1]"),
         ([0.5], [float("nan")], "sigma_scales[0]"), ([0.5, 1.0], [1.1], "sigma_scales")],
    )
    def test_bad_schedule_is_refused_before_the_full_solve(self, fractions, scales, anchor,
                                                           monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the full problem was solved before the schedule was checked")

        prob = loose_two_plate(np.random.default_rng(8), n_per=5)
        monkeypatch.setattr(analysis, "solve", no_solve)
        with pytest.raises(VequilError, match="^" + re.escape(anchor) + ": "):
            exhaustion_experiment(prob, fractions, scales)


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

    @pytest.mark.parametrize("q, r_max", [(1.0, np.inf), (-np.inf, 4.0), (-np.inf, np.inf)])
    def test_non_finite_range_is_refused(self, q, r_max):
        # Stepping from q toward r_max would never end.
        with pytest.raises(VequilError, match="needs a finite q and r_max"):
            rotational_body("power_s", 1.0, q, r_max)


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

    @pytest.mark.parametrize("include_gap, evaluations", [(True, 3), (False, 1)])
    def test_one_assembly_per_command(self, include_gap, evaluations, monkeypatch):
        # One Gram over anchor, source and the largest body serves every
        # radius; the only other kernel evaluation is each radius's case-2
        # field inside solve.  No separate spacing pass runs.
        calls = []
        kernel_matrix = kernels._kernel_matrix

        def counted(spec, X, Y, **lower):
            calls.append((X.shape[0], Y.shape[0]))
            return kernel_matrix(spec, X, Y, **lower)

        def no_spacing_pass(*args):
            raise AssertionError("a separate spacing pass ran")

        monkeypatch.setattr(kernels, "_kernel_matrix", counted)
        monkeypatch.setattr(kernels, "minimum_spacing", no_spacing_pass)
        thinness_demo("power_s", 1, [4, 8], include_gap=include_gap)
        assert len(calls) == evaluations
        assert calls[0] == (80 + 307, 80 + 307)

    def test_exp_slow_decay_profile_runs(self):
        # the ambiguous slow-decay case: reported as a trend only
        rep = thinness_demo("exp_s_le1", 1.0, [4.0, 8.0], include_gap=False)
        caps = [st.capacity for st in rep.stages]
        assert caps[0] > 0.0 and caps[1] >= caps[0] - 1e-12


@pytest.mark.parametrize("low, high, shape", [
    (0.0, 1.0, 5),  # scalar corners
    ([0.0], [1.0], [2.5]),  # a fractional count
    ([0.0], [1.0], [0]),  # an empty axis
    ([0.0, 0.0], [1.0, 1.0], [2]),  # one count for two axes
])
def test_grid_nodes_refuses_bad_arguments(low, high, shape):
    with pytest.raises(VequilError, match="grid generator"):
        grid_nodes(low, high, shape)


def test_ring_nodes_on_circle():
    pts = ring_nodes(8, 0.5, center=(1.0, -1.0))
    d = np.sqrt(((pts - [1.0, -1.0]) ** 2).sum(axis=1))
    np.testing.assert_allclose(d, 0.5, rtol=1e-12)


class NoProducts(np.ndarray):
    """Gram entries that refuse every product but ``GramMatrix.matvec``'s ``dsymv``."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("a Gram product bypassed GramMatrix.matvec")

    __matmul__ = __rmatmul__ = dot = _refuse

    def __array_function__(self, func, types, args, kwargs):
        if func in (np.dot, np.inner, np.vdot, np.tensordot, np.einsum):
            self._refuse()
        return super().__array_function__(func, types, args, kwargs)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self._refuse()
        inputs = tuple(x.view(np.ndarray) if isinstance(x, NoProducts) else x for x in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, NoProducts) else x
                                  for x in kwargs["out"])
        return getattr(ufunc, method)(*inputs, **kwargs)


def guarded(K):
    """``K`` with entries that refuse products; its blocks (``GramMatrix.block``) refuse too."""
    return GramMatrix._assembled(K.entries.copy().view(NoProducts), spec=K.spec, nodes=K.nodes)


class TestEveryGramProductIsMatvec:
    @pytest.mark.parametrize("algorithm", ["projected_gradient", "frank_wolfe"])
    def test_solve(self, algorithm):
        problem = parse_config(str(CONFIGS / "solve_two_plate.json")).problem
        cfg = dataclasses.replace(problem.config, algorithm=algorithm)
        with pytest.raises(AssertionError, match="bypassed"):
            guarded(problem.gram).entries @ np.ones(problem.gram.size)
        want = solve(problem.condenser, problem.gram, problem.field, cfg)
        got = solve(problem.condenser, guarded(problem.gram), problem.field, cfg)
        assert (got.value, got.iterations, got.kkt_residual) == \
            (want.value, want.iterations, want.kkt_residual)

    @pytest.mark.parametrize("nodes, constrained", [
        (fibonacci_sphere(200, radius=1.0), False),  # K u = 1 has a positive solution
        (grid_nodes([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [6, 6, 6]), True),  # it does not
    ], ids=["direct", "constrained"])
    def test_equilibrium(self, nodes, constrained):
        K = assemble_gram(KernelSpec("newtonian"), nodes)
        cfg = SolverConfig(grad_tol=1e-10)
        want = equilibrium(nodes, K, config=cfg)
        with mock.patch.object(analysis, "solve", wraps=solve) as fallback:
            got = equilibrium(nodes, guarded(K), config=cfg)
        assert fallback.called == constrained
        assert got.robin_constant == want.robin_constant
        assert np.array_equal(got.unit_minimizer, want.unit_minimizer)

    def test_lanczos(self):
        # Every Lanczos product is the Gram's own dsymv; its reorthogonalization
        # touches only the basis, never the entries.
        K = assemble_gram(KernelSpec("newtonian"), fibonacci_sphere(200, radius=1.0))
        with mock.patch.object(GramMatrix, "matvec", autospec=True,
                               side_effect=GramMatrix.matvec) as matvec:
            lam = K.lambda_max()
        assert matvec.call_count >= 2
        assert abs(lam - np.linalg.eigvalsh(K.entries)[-1]) <= 1e-12 * lam

    @pytest.mark.parametrize("target, source, nnls", [
        (grid_nodes([-1, -1, 0], [1, 1, 0], [10, 10, 1]), [0.0, 0.0, 1.0], False),
        # An inner sphere shielded by an outer one: some weight of the solve is negative.
        (np.vstack([fibonacci_sphere(60, radius=1.0), fibonacci_sphere(20, radius=0.5)]),
         [2.5, 0.0, 0.0], True),
    ], ids=["dpotrs", "nnls"])
    def test_balayage(self, target, source, nnls):
        K = assemble_gram(KernelSpec("newtonian"), target)
        src = ScalarSignedMeasure(support=[source], weights=[1.0])
        before = K.dense()
        want = balayage(src, K)
        assert np.array_equal(K.dense(), before) and not K.entries.flags.writeable
        with mock.patch.object(scipy.optimize, "nnls", wraps=scipy.optimize.nnls) as fallback:
            got = balayage(src, guarded(K))
        assert fallback.called == nnls
        assert np.array_equal(got.swept, want.swept)
        assert got.potential_residual == want.potential_residual

    def test_exhaustion_experiment(self):
        parsed = parse_config(str(CONFIGS / "exhaust_two_plate.json"))
        problem = parsed.problem
        args = tuple(zip(*parsed.exhaust_schedule))
        want = exhaustion_experiment(problem, *args)
        got = exhaustion_experiment(dataclasses.replace(problem, gram=guarded(problem.gram)), *args)
        assert got == want
