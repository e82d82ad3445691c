"""Condenser types, R-map, energies, semimetric, fields, feasibility."""

import tracemalloc

import numpy as np
import pytest

from vequil import (
    Condenser,
    KernelSpec,
    Plate,
    ScalarSignedMeasure,
    VequilError,
    check_feasibility,
    check_positive_definite,
    condenser_gram,
    energy,
    make_plate,
    mutual_energy,
    r_map,
    scalar_energy,
    scalar_mutual_energy,
    scalar_sum,
    semimetric_distance,
    weighted_energy,
    zero_field,
)
from vequil.condenser import CASE1, CASE2, FieldSpec
from vequil.geometry import fibonacci_sphere

from instances import (
    overlapping_pair,
    random_case1_field,
    random_case2_field,
    random_condenser,
    random_gram,
    random_measure,
    random_zeta,
)


def rel_err(a, b):
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


class TestConstruction:
    def test_cross_sign_overlap_rejected(self):
        shared = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        p0 = make_plate(0, +1, shared, sigma=1.0)
        p1 = make_plate(1, -1, shared, sigma=1.0)
        with pytest.raises(VequilError):
            Condenser(plates=(p0, p1))

    def test_equal_sign_overlap_allowed(self):
        c = overlapping_pair(np.random.default_rng(0))
        assert len(c.plates) == 2

    def test_duplicate_nodes_within_plate_rejected(self):
        with pytest.raises(VequilError):
            make_plate(0, 1, [[0.0, 0.0], [0.0, 0.0]], sigma=1.0)

    def test_nonpositive_g_rejected(self):
        with pytest.raises(VequilError):
            make_plate(0, 1, [[0.0, 0.0]], g=0.0, sigma=1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(VequilError):
            make_plate(0, 1, [[0.0, 0.0]], sigma=-0.1)

    def test_negative_weights_rejected(self):
        c = Condenser(plates=(make_plate(0, 1, [[0.0, 0.0]], sigma=1.0),))
        with pytest.raises(VequilError):
            c.measure([np.array([-0.5])])

    def test_separation_check_memory_is_blocked(self):
        # Two opposite 3000-node plates: all pairwise differences at once
        # would take 3000 * 3000 * 3 doubles (216 MB) per temporary.
        p0 = make_plate(0, 1, fibonacci_sphere(3000))
        p1 = make_plate(1, -1, fibonacci_sphere(3000, center=(3.0, 0.0, 0.0)))
        tracemalloc.start()
        try:
            Condenser(plates=(p0, p1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20


class TestRMap:
    def test_shared_node_accumulates(self):
        shared = np.array([[0.25, -0.5, 1.0]])
        c = Condenser(
            plates=(make_plate(0, 1, shared, sigma=5.0), make_plate(1, 1, shared, sigma=5.0))
        )
        m = r_map(c, c.measure([np.array([2.0]), np.array([3.0])]))
        assert m.support.shape == (1, 3)
        assert m.weights[0] == 5.0

    def test_opposite_signs(self):
        c = Condenser(
            plates=(
                make_plate(0, 1, [[0.0, 0.0, 0.0]], sigma=3.0),
                make_plate(1, -1, [[1.0, 0.0, 0.0]], sigma=3.0),
            )
        )
        m = r_map(c, c.measure([np.array([1.5]), np.array([2.5])]))
        np.testing.assert_array_equal(m.weights, [1.5, -2.5])

    def test_zero_measure_keeps_support(self):
        rng = np.random.default_rng(1)
        c = random_condenser(rng)
        m = r_map(c, c.zero_measure())
        assert np.all(m.weights == 0.0)
        assert m.support.shape[0] > 0


class TestEnergy:
    def test_zero_measure(self):
        rng = np.random.default_rng(2)
        c = random_condenser(rng)
        K = random_gram(rng, c)
        assert energy(c, K, c.zero_measure()) == 0.0

    def test_single_node_diagonal(self):
        c = Condenser(plates=(make_plate(0, 1, [[0.0, 0.0, 0.0]], sigma=10.0),))
        K = condenser_gram(KernelSpec("riesz", alpha=2.0, epsilon=0.5), c)
        d = K.entries[0, 0]
        val = energy(c, K, c.measure([np.array([3.0])]))
        assert val == pytest.approx(9.0 * d, rel=1e-14)

    def test_two_opposite_single_nodes_expansion(self):
        c = Condenser(
            plates=(
                make_plate(0, 1, [[0.0, 0.0, 0.0]], sigma=10.0),
                make_plate(1, -1, [[1.0, 0.0, 0.0]], sigma=10.0),
            )
        )
        K = condenser_gram(KernelSpec("riesz", alpha=2.0, epsilon=0.25), c)
        k11, k22, k12 = K.dense()[0, 0], K.dense()[1, 1], K.dense()[0, 1]
        w1, w2 = 1.3, 0.7
        val = energy(c, K, c.measure([np.array([w1]), np.array([w2])]))
        assert val == pytest.approx(k11 * w1**2 + k22 * w2**2 - 2 * k12 * w1 * w2, rel=1e-13)

    def test_energy_identity_with_r_image(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            c = random_condenser(rng)
            K = random_gram(rng, c)
            mu = random_measure(rng, c)
            e_vec = energy(c, K, mu)
            e_sca = scalar_energy(K.spec, r_map(c, mu))
            assert abs(e_vec - e_sca) <= 1e-12 * (1.0 + abs(e_vec))

    def test_energy_nonnegative_under_pd_kernel(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            c = random_condenser(rng)
            K = random_gram(rng, c)
            mu = random_measure(rng, c)
            w = mu.concat()
            assert energy(c, K, mu) >= -1e-10 * float(w @ w)


class TestMutualEnergy:
    def test_zero_and_diagonal(self):
        rng = np.random.default_rng(5)
        c = random_condenser(rng)
        K = random_gram(rng, c)
        mu = random_measure(rng, c)
        assert mutual_energy(c, K, mu, c.zero_measure()) == 0.0
        assert mutual_energy(c, K, mu, mu) == energy(c, K, mu)

    def test_matches_scalar_mutual_energy(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            c = random_condenser(rng, max_plates=3)
            K = random_gram(rng, c)
            mu, nu = random_measure(rng, c), random_measure(rng, c)
            lhs = mutual_energy(c, K, mu, nu)
            rhs = scalar_mutual_energy(K.spec, r_map(c, mu), r_map(c, nu))
            assert rel_err(lhs, rhs) <= 1e-12

    def test_bilinear(self):
        rng = np.random.default_rng(7)
        c = random_condenser(rng)
        K = random_gram(rng, c)
        mu, nu = random_measure(rng, c), random_measure(rng, c)
        lhs = mutual_energy(c, K, c.measure([2.0 * w for w in mu.weights]), nu)
        assert rel_err(lhs, 2.0 * mutual_energy(c, K, mu, nu)) <= 1e-12


class TestSemimetric:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(8)
        c = random_condenser(rng)
        K = random_gram(rng, c)
        mu = random_measure(rng, c)
        assert semimetric_distance(c, K, mu, mu) == 0.0

    def test_r_equivalent_measures_at_distance_zero(self):
        rng = np.random.default_rng(9)
        c = overlapping_pair(rng)
        K = random_gram(rng, c)
        w = rng.uniform(0.1, 0.4, c.plates[0].n_nodes)
        mu1 = c.measure([w, 0.75 * w])
        mu2 = c.measure([0.75 * w, w])
        assert not np.array_equal(mu1.weights[0], mu2.weights[0])
        assert semimetric_distance(c, K, mu1, mu2) <= 1e-7

    def test_distinct_r_images_strictly_positive(self):
        rng = np.random.default_rng(10)
        c = random_condenser(rng, max_plates=2)
        K = random_gram(rng, c)
        lam_min = check_positive_definite(K).min_eigenvalue
        assert lam_min > 0
        mu = random_measure(rng, c)
        bump = [w.copy() for w in mu.weights]
        bump[0] = bump[0] + 0.05
        nu = c.measure(bump)
        d = semimetric_distance(c, K, mu, nu)
        diff = mu.concat() - nu.concat()
        assert d >= np.sqrt(lam_min * float(diff @ diff)) * 0.99

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            c = random_condenser(rng)
            K = random_gram(rng, c)
            mu, nu, rho = (random_measure(rng, c) for _ in range(3))
            dmn = semimetric_distance(c, K, mu, nu)
            assert dmn == semimetric_distance(c, K, nu, mu)
            assert dmn <= (
                semimetric_distance(c, K, mu, rho) + semimetric_distance(c, K, rho, nu) + 1e-9
            )

    def test_parallelogram_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            c = random_condenser(rng)
            K = random_gram(rng, c)
            mu, nu = random_measure(rng, c), random_measure(rng, c)
            rmu, rnu = r_map(c, mu), r_map(c, nu)
            spec = K.spec
            plus = scalar_energy(spec, scalar_sum(rmu, rnu))
            minus_m = ScalarSignedMeasure(rnu.support, -rnu.weights)
            minus = scalar_energy(spec, scalar_sum(rmu, minus_m))
            rhs = 2.0 * scalar_energy(spec, rmu) + 2.0 * scalar_energy(spec, rnu)
            assert rel_err(plus + minus, rhs) <= 1e-10


class TestWeightedEnergy:
    def test_zero_field_reduces_to_energy(self):
        rng = np.random.default_rng(13)
        c = random_condenser(rng)
        K = random_gram(rng, c)
        mu = random_measure(rng, c)
        assert weighted_energy(c, K, zero_field(c), mu) == energy(c, K, mu)

    def test_infinite_field_node_with_charge(self):
        c = Condenser(plates=(make_plate(0, 1, [[0.0, 0.0, 0.0]], sigma=1.0),))
        K = condenser_gram(KernelSpec("riesz", alpha=2.0, epsilon=0.3), c)
        f = FieldSpec(case=CASE1, case1_values=(np.array([np.inf]),))
        assert weighted_energy(c, K, f, c.measure([np.array([0.5])])) == np.inf

    def test_zero_times_inf_convention(self):
        c = Condenser(
            plates=(make_plate(0, 1, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], sigma=1.0),)
        )
        K = condenser_gram(KernelSpec("riesz", alpha=2.0, epsilon=0.3), c)
        f = FieldSpec(case=CASE1, case1_values=(np.array([np.inf, 1.0]),))
        mu = c.measure([np.array([0.0, 0.8])])
        expected = energy(c, K, mu) + 2.0 * 0.8
        assert weighted_energy(c, K, f, mu) == pytest.approx(expected, rel=1e-14)

    def test_case2_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            c = random_condenser(rng)
            K = random_gram(rng, c)
            f = random_case2_field(rng, c)
            mu = random_measure(rng, c)
            lhs = weighted_energy(c, K, f, mu)
            shifted = scalar_sum(r_map(c, mu), f.case2_zeta)
            rhs = scalar_energy(K.spec, shifted) - scalar_energy(K.spec, f.case2_zeta)
            assert rel_err(lhs, rhs) <= 1e-10

    def test_case1_linear_term(self):
        rng = np.random.default_rng(15)
        c = random_condenser(rng)
        K = random_gram(rng, c)
        f = random_case1_field(rng, c)
        mu = random_measure(rng, c)
        lin = sum(float(v @ w) for v, w in zip(f.case1_values, mu.weights))
        assert weighted_energy(c, K, f, mu) == pytest.approx(
            energy(c, K, mu) + 2.0 * lin, rel=1e-12
        )


class TestShapeErrors:
    def test_mismatched_measure_rejected(self):
        rng = np.random.default_rng(18)
        c = random_condenser(rng, max_plates=2)
        K = random_gram(rng, c)
        from vequil.errors import DimensionMismatch

        from vequil.condenser import VectorMeasure

        bad = VectorMeasure(weights=tuple(np.zeros(p.n_nodes + 1) for p in c.plates))
        with pytest.raises(DimensionMismatch):
            energy(c, K, bad)

    def test_case2_needs_kernel_provenance(self):
        rng = np.random.default_rng(19)
        c = random_condenser(rng, max_plates=1)
        K = random_gram(rng, c)
        from vequil import GramMatrix

        bare = GramMatrix(entries=K.dense())
        f = random_case2_field(rng, c)
        mu = random_measure(rng, c)
        with pytest.raises(VequilError):
            weighted_energy(c, bare, f, mu)


class TestFeasibility:
    def test_zero_sigma_infeasible(self):
        c = Condenser(plates=(make_plate(0, 1, [[0.0, 0.0]], sigma=0.0, mass=1.0),))
        rep = check_feasibility(c, zero_field(c))
        assert not rep.feasible
        assert rep.per_plate[0].slack == -1.0

    def test_slack_reported(self):
        c = Condenser(
            plates=(make_plate(0, 1, [[0.0, 0.0], [1.0, 0.0]], sigma=0.6, mass=1.0),)
        )
        rep = check_feasibility(c, zero_field(c))
        assert rep.feasible
        assert rep.per_plate[0].slack == pytest.approx(0.2, rel=1e-12)

    def test_infinite_field_node_excluded(self):
        c = Condenser(
            plates=(make_plate(0, 1, [[0.0, 0.0], [1.0, 0.0]], sigma=1.0, mass=1.0),)
        )
        f = FieldSpec(case=CASE1, case1_values=(np.array([np.inf, 0.0]),))
        rep = check_feasibility(c, f)
        assert rep.feasible
        assert rep.per_plate[0].slack == pytest.approx(0.0, abs=1e-14)


class TestMetrizationDichotomy:
    def test_overlap_breaks_identity_of_indiscernibles(self):
        rng = np.random.default_rng(16)
        c = overlapping_pair(rng)
        K = random_gram(rng, c)
        assert check_positive_definite(K).min_eigenvalue > -1e-12  # PSD with duplicated rows
        w = rng.uniform(0.1, 0.4, c.plates[0].n_nodes)
        mu1, mu2 = c.measure([w, 0.5 * w]), c.measure([0.5 * w, w])
        assert semimetric_distance(c, K, mu1, mu2) <= 1e-7

    def test_disjoint_strictly_pd_is_a_metric(self):
        rng = np.random.default_rng(17)
        c = random_condenser(rng, max_plates=2)
        K = random_gram(rng, c)
        assert check_positive_definite(K).min_eigenvalue > 0
        mu = random_measure(rng, c)
        for _ in range(10):
            delta = [rng.uniform(0.0, 0.02, p.n_nodes) for p in c.plates]
            nu = c.measure([w + d for w, d in zip(mu.weights, delta)])
            if all(np.array_equal(a, b) for a, b in zip(mu.weights, nu.weights)):
                continue
            assert semimetric_distance(c, K, mu, nu) > 0.0

    def test_rank_deficient_kernel_breaks_metric(self):
        # strictly PD fails => distinct R-images can sit at distance 0
        table = np.ones((2, 2))
        spec = KernelSpec("custom_table", table=table)
        c = Condenser(
            plates=(make_plate(0, 1, [[0.0], [1.0]], sigma=5.0, mass=1.0),)
        )
        K = condenser_gram(spec, c)
        mu = c.measure([np.array([1.0, 0.0])])
        nu = c.measure([np.array([0.0, 1.0])])
        assert semimetric_distance(c, K, mu, nu) == 0.0
