"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is fixed here, not calibrated at runtime.
"""

import time

import numpy as np

from vequil import (
    Condenser,
    KernelSpec,
    Plate,
    ScalarSignedMeasure,
    SolverConfig,
    assemble_gram,
    check_positive_definite,
    condenser_gram,
    energy,
    make_plate,
    r_map,
    scalar_energy,
    scalar_sum,
    semimetric_distance,
    solve,
    verify_kkt,
    weighted_energy,
    zero_field,
)
from vequil.analysis import balayage, equilibrium, exhaustion_experiment, thinness_demo
from vequil.condenser import CASE2, FieldSpec
from vequil.geometry import fibonacci_sphere, grid_nodes
from vequil.solver import Problem

from instances import (
    overlapping_pair,
    random_case1_field,
    random_condenser,
    random_gram,
    random_measure,
    random_zeta,
    two_plate_signed,
)


def report(num, name, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_energy_identity():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(200):
        c = random_condenser(rng, max_plates=3, max_nodes=20)
        K = random_gram(rng, c)
        mu = random_measure(rng, c)
        e_vec = energy(c, K, mu)
        e_sca = scalar_energy(K.spec, r_map(c, mu))
        worst = max(worst, abs(e_vec - e_sca) / (1.0 + abs(e_vec)))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    report(1, "energy identity", ok, f"worst rel dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_case2_identity():
    rng = np.random.default_rng(102)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        c = random_condenser(rng, max_plates=3, max_nodes=12)
        K = random_gram(rng, c)
        zeta = random_zeta(rng, c)
        f = FieldSpec(case=CASE2, case2_zeta=zeta)
        mu = random_measure(rng, c)
        lhs = weighted_energy(c, K, f, mu)
        rhs = scalar_energy(K.spec, scalar_sum(r_map(c, mu), zeta)) - scalar_energy(
            K.spec, zeta
        )
        worst = max(worst, abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs))))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    report(2, "case-II field identity", ok, f"worst rel dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_solver_optimality():
    rng = np.random.default_rng(103)
    t0 = time.time()
    worst_gap = 0.0
    worst_resid = 0.0
    for _ in range(50):
        c = two_plate_signed(rng, n_per=15)
        K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
        f = random_case1_field(rng, c)
        rp = solve(c, K, f, SolverConfig(algorithm="projected_gradient", grad_tol=1e-9))
        rf = solve(c, K, f, SolverConfig(algorithm="frank_wolfe", grad_tol=1e-9))
        worst_gap = max(worst_gap, abs(rp.value - rf.value))
        for rep in (rp, rf):
            cert = verify_kkt(c, K, f, rep.minimizer, tol=1e-6)
            worst_resid = max(worst_resid, cert.max_residual)
    elapsed = time.time() - t0
    ok = worst_gap <= 1e-6 and worst_resid <= 1e-6 and elapsed < 60.0
    report(
        3,
        "dual-algorithm optimality",
        ok,
        f"worst value gap {worst_gap:.2e}, worst KKT {worst_resid:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_uniqueness():
    rng = np.random.default_rng(104)
    t0 = time.time()
    worst_semi = worst_rimg = worst_coord = 0.0
    instances = [(two_plate_signed(rng, n_per=12), True) for _ in range(3)]
    instances += [(overlapping_pair(rng, n_nodes=10), False) for _ in range(2)]
    for c, disjoint in instances:
        K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
        f = random_case1_field(rng, c)
        sols = [
            solve(c, K, f, SolverConfig(grad_tol=1e-12, seed=s)) for s in range(10)
        ]
        for i in range(10):
            for j in range(i + 1, 10):
                a, b = sols[i].minimizer, sols[j].minimizer
                worst_semi = max(worst_semi, semimetric_distance(c, K, a, b))
                ra, rb = r_map(c, a), r_map(c, b)
                worst_rimg = max(worst_rimg, float(np.abs(ra.weights - rb.weights).max()))
                if disjoint:
                    worst_coord = max(
                        worst_coord, float(np.abs(a.concat() - b.concat()).max())
                    )
    elapsed = time.time() - t0
    ok = (
        worst_semi <= 1e-5
        and worst_rimg <= 1e-5
        and worst_coord <= 1e-5
        and elapsed < 60.0
    )
    report(
        4,
        "minimizer uniqueness",
        ok,
        f"semimetric {worst_semi:.2e}, R-image {worst_rimg:.2e}, "
        f"coordinate {worst_coord:.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_monotonicity():
    rng = np.random.default_rng(105)
    t0 = time.time()
    worst_drop = 0.0
    pairs = 0
    while pairs < 50:
        c = two_plate_signed(rng, n_per=12, mass_frac=(0.1, 0.35))
        keep = int(rng.integers(8, 12))
        factor = float(rng.uniform(0.85, 1.0))
        plates, feasible = [], True
        for p in c.plates:
            sigma = factor * p.sigma[:keep]
            if float(p.g[:keep] @ sigma) < p.mass:
                feasible = False
                break
            plates.append(
                Plate(id=p.id, sign=p.sign, nodes=p.nodes[:keep], g=p.g[:keep],
                      mass=p.mass, sigma=sigma)
            )
        if not feasible:
            continue
        K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
        full = solve(c, K, zero_field(c), SolverConfig(grad_tol=1e-10))
        c_sub = Condenser(plates=tuple(plates))
        K_sub = condenser_gram(K.spec, c_sub)  # under the full Gram's epsilon
        sub = solve(c_sub, K_sub, zero_field(c_sub), SolverConfig(grad_tol=1e-10))
        worst_drop = max(worst_drop, full.value - sub.value)
        pairs += 1
    elapsed = time.time() - t0
    ok = worst_drop <= 1e-8 and elapsed < 60.0
    report(
        5,
        "value monotonicity in (nodes, sigma)",
        ok,
        f"worst drop {worst_drop:.2e} over 50 nested pairs, {elapsed:.1f}s",
    )


def test_criterion_06_exhaustion():
    rng = np.random.default_rng(106)
    t0 = time.time()
    n = 100
    nodes1 = rng.uniform(-1, 1, (n, 3)) * [1.0, 1.0, 0.3] + [-2.0, 0.0, 0.0]
    nodes2 = rng.uniform(-1, 1, (n, 3)) * [1.0, 1.0, 0.3] + [2.0, 0.0, 0.0]
    c = Condenser(
        plates=(
            make_plate(0, 1, nodes1, sigma=0.05, mass=1.0),
            make_plate(1, -1, nodes2, sigma=0.06, mass=1.2),
        )
    )
    K = condenser_gram(KernelSpec("riesz", alpha=2.0), c)
    prob = Problem(condenser=c, gram=K, field=zero_field(c),
                   config=SolverConfig(grad_tol=1e-10))
    trace = exhaustion_experiment(prob, [0.25, 0.5, 0.75, 1.0], [1.3, 1.1, 1.02, 1.0])
    elapsed = time.time() - t0
    values = [st.value for st in trace.stages]
    feasible = [st.value for st in trace.stages if st.feasible]
    monotone = all(b <= a + 1e-8 for a, b in zip(feasible, feasible[1:]))
    final_gap = trace.stages[-1].semimetric_gap
    ok = (
        all(st.feasible for st in trace.stages)
        and monotone
        and final_gap <= 1e-4
        and elapsed < 120.0
    )
    report(
        6,
        "exhaustion continuity",
        ok,
        f"values {['%.6f' % v for v in values]}, final gap {final_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_07_equilibrium_capacity():
    t0 = time.time()
    nodes = fibonacci_sphere(500, radius=2.0)
    K = assemble_gram(KernelSpec("newtonian"), nodes)  # eps = half min spacing
    eq = equilibrium(nodes, K, config=SolverConfig(grad_tol=1e-10))
    elapsed = time.time() - t0
    ok = (
        1.9 <= eq.capacity <= 2.1
        and eq.frostman_violation <= 1e-6 * eq.robin_constant
        and eq.converged
        and elapsed < 60.0
    )
    report(
        7,
        "sphere capacity and Frostman check",
        ok,
        f"capacity {eq.capacity:.4f} (analytic 2), Frostman violation "
        f"{eq.frostman_violation:.2e} <= {1e-6 * eq.robin_constant:.2e}, {elapsed:.1f}s",
    )


def test_criterion_08_balayage_kkt():
    t0 = time.time()
    spec = KernelSpec("newtonian")
    target = grid_nodes([-1, -1, 0], [1, 1, 0], [10, 10, 1])
    source = ScalarSignedMeasure(support=[[0.0, 0.0, 1.0]], weights=[1.0])
    rep = balayage(source, assemble_gram(spec, target))
    elapsed = time.time() - t0
    ok = (
        rep.potential_residual <= 1e-6
        and rep.swept_energy <= rep.source_energy + 1e-8
        and elapsed < 30.0
    )
    report(
        8,
        "balayage complementarity and contraction",
        ok,
        f"residual {rep.potential_residual:.2e}, energy {rep.swept_energy:.4f} <= "
        f"{rep.source_energy:.4f}, mass ratio {rep.mass_ratio:.4f}, {elapsed:.1f}s",
    )


def test_criterion_09_thinness_dichotomy():
    t0 = time.time()
    radii = [5.0, 10.0, 20.0]
    bounded = thinness_demo("exp_s_gt1", 2.0, radii)
    growing = thinness_demo("power_s", 1.0, radii)
    elapsed = time.time() - t0
    caps_b = [st.capacity for st in bounded.stages]
    caps_g = [st.capacity for st in growing.stages]
    nondecreasing = all(c2 >= c1 - 1e-12 for c1, c2 in zip(caps_b, caps_b[1:])) and all(
        c2 >= c1 - 1e-12 for c1, c2 in zip(caps_g, caps_g[1:])
    )
    incr_b = (caps_b[-1] - caps_b[-2]) / caps_b[-1]
    incr_g = (caps_g[-1] - caps_g[-2]) / caps_g[-1]
    # trend check only; non-solvability itself is NOT certified (see report note)
    ok = nondecreasing and incr_b < 0.01 and incr_g > 0.10 and elapsed < 300.0
    report(
        9,
        "thinning-tail capacity dichotomy",
        ok,
        f"exp(-r^2) last increment {incr_b:.2%} < 1%, r^-1 last increment "
        f"{incr_g:.2%} > 10%, {elapsed:.1f}s",
    )


def test_criterion_10_semimetric_dichotomy():
    rng = np.random.default_rng(110)
    t0 = time.time()
    # overlapping equal-sign plates: distinct measures, identical R-image
    c_over = overlapping_pair(rng, n_nodes=8)
    K_over = condenser_gram(KernelSpec("riesz", alpha=2.0), c_over)
    w = rng.uniform(0.1, 0.4, 8)
    mu1 = c_over.measure([w, 0.6 * w])
    mu2 = c_over.measure([0.6 * w, w])
    distinct = not np.array_equal(mu1.weights[0], mu2.weights[0])
    d_zero = semimetric_distance(c_over, K_over, mu1, mu2)
    # disjoint plates, strictly PD kernel: every perturbed pair separates
    c_dis = two_plate_signed(rng, n_per=10)
    K_dis = condenser_gram(KernelSpec("riesz", alpha=2.0), c_dis)
    assert check_positive_definite(K_dis).min_eigenvalue > 0.0
    mu = random_measure(rng, c_dis)
    min_pos = np.inf
    for _ in range(20):
        delta = [rng.uniform(0.001, 0.05, p.n_nodes) for p in c_dis.plates]
        nu = c_dis.measure([wv + dv for wv, dv in zip(mu.weights, delta)])
        min_pos = min(min_pos, semimetric_distance(c_dis, K_dis, mu, nu))
    elapsed = time.time() - t0
    ok = distinct and d_zero <= 1e-7 and min_pos > 0.0 and elapsed < 5.0
    report(
        10,
        "semimetric metrization dichotomy",
        ok,
        f"overlap distance {d_zero:.2e} (distinct measures), disjoint min distance "
        f"{min_pos:.2e} > 0, {elapsed:.2f}s",
    )
