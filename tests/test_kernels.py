"""Kernel catalog, Gram assembly, and PD diagnostics."""

import tracemalloc

import numpy as np
import pytest

from vequil import (
    GramMatrix,
    KernelDomainError,
    KernelSpec,
    assemble_gram,
    check_positive_definite,
    cross_kernel,
    evaluate_kernel,
    minimum_spacing,
    resolve_epsilon,
)
from vequil import kernels
from vequil.errors import DimensionMismatch
from vequil.geometry import fibonacci_sphere


class TestEvaluateKernel:
    def test_riesz_unit_distance(self):
        spec = KernelSpec("riesz", alpha=2.0, epsilon=0.0)
        assert evaluate_kernel(spec, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == 1.0

    def test_riesz_regularized_diagonal(self):
        spec = KernelSpec("riesz", alpha=2.0, epsilon=0.3)
        val = evaluate_kernel(spec, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert val == pytest.approx(1.0 / 0.3, rel=1e-14)

    def test_log_disk_unit_separation(self):
        spec = KernelSpec("log_disk", epsilon=0.0)
        assert evaluate_kernel(spec, [0.5, 0.0], [-0.5, 0.0]) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        spec = KernelSpec("riesz", alpha=1.3, epsilon=0.1)
        for _ in range(20):
            x, y = rng.normal(0, 1, 3), rng.normal(0, 1, 3)
            assert evaluate_kernel(spec, x, y) == evaluate_kernel(spec, y, x)

    def test_newtonian_alias(self):
        spec = KernelSpec("newtonian", epsilon=0.2)
        assert spec.alpha == 2.0
        ref = KernelSpec("riesz", alpha=2.0, epsilon=0.2)
        x, y = [0.1, 0.2, 0.3], [1.0, -0.5, 0.2]
        assert evaluate_kernel(spec, x, y) == evaluate_kernel(ref, x, y)

    def test_singular_diagonal_is_inf(self):
        spec = KernelSpec("riesz", alpha=2.0, epsilon=0.0)
        assert evaluate_kernel(spec, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == np.inf

    def test_dimension_mismatch(self):
        spec = KernelSpec("riesz", alpha=2.0)
        with pytest.raises(DimensionMismatch):
            evaluate_kernel(spec, [0.0, 0.0], [0.0, 0.0, 0.0])

    def test_log_disk_outside_disk(self):
        spec = KernelSpec("log_disk", epsilon=0.1)
        with pytest.raises(KernelDomainError):
            evaluate_kernel(spec, [1.5, 0.0], [0.0, 0.0])

    def test_invalid_alpha(self):
        with pytest.raises(KernelDomainError):
            KernelSpec("riesz", alpha=-1.0)
        with pytest.raises(KernelDomainError):
            # alpha must be < dimension at evaluation time
            evaluate_kernel(KernelSpec("riesz", alpha=3.5), [0.0] * 3, [1.0] * 3)

    def test_newtonian_needs_three_dims(self):
        with pytest.raises(KernelDomainError):
            evaluate_kernel(KernelSpec("newtonian", epsilon=0.1), [0.0, 0.0], [1.0, 0.0])

    def test_custom_table_lookup(self):
        table = np.array([[2.0, 0.5], [0.5, 3.0]])
        spec = KernelSpec("custom_table", table=table)
        assert evaluate_kernel(spec, [0], [1]) == 0.5
        assert evaluate_kernel(spec, [1], [1]) == 3.0

    def test_custom_table_must_be_symmetric(self):
        with pytest.raises(KernelDomainError):
            KernelSpec("custom_table", table=[[1.0, 2.0], [0.0, 1.0]])


class TestAssembleGram:
    def test_single_node(self):
        G = assemble_gram(KernelSpec("riesz", alpha=2.0, epsilon=1.0), [[0.0, 0.0, 0.0]])
        assert G.entries.shape == (1, 1)
        assert G.entries[0, 0] == 1.0

    def test_two_nodes_unit_distance(self):
        G = assemble_gram(
            KernelSpec("riesz", alpha=2.0, epsilon=1.0),
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        )
        expected = np.array([[1.0, 1.0 / np.sqrt(2.0)], [1.0 / np.sqrt(2.0), 1.0]])
        np.testing.assert_allclose(G.entries, expected, rtol=1e-15)

    def test_matches_elementwise_recomputation(self):
        rng = np.random.default_rng(7)
        nodes = rng.uniform(-1, 1, (50, 3))
        spec = resolve_epsilon(KernelSpec("riesz", alpha=1.7), nodes)
        G = assemble_gram(spec, nodes)
        assert np.array_equal(G.entries, G.entries.T)
        assert np.all(np.isfinite(G.entries))
        for p in range(0, 50, 7):
            for q in range(0, 50, 11):
                assert G.entries[p, q] == evaluate_kernel(spec, nodes[p], nodes[q])

    def test_default_epsilon_is_half_min_spacing(self):
        nodes = np.array([[0.0, 0.0, 0.0], [0.4, 0.0, 0.0], [2.0, 0.0, 0.0]])
        G = assemble_gram(KernelSpec("riesz", alpha=2.0), nodes)
        assert G.spec.epsilon == pytest.approx(0.2, rel=1e-14)
        assert minimum_spacing(nodes) == pytest.approx(0.4, rel=1e-14)

    def test_zero_epsilon_rejected_for_singular_family(self):
        with pytest.raises(KernelDomainError):
            assemble_gram(
                KernelSpec("riesz", alpha=2.0, epsilon=0.0),
                [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            )

    @pytest.mark.parametrize(
        "spec, nodes, message",
        [
            (KernelSpec("riesz", alpha=2.0, epsilon=0.0), [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
             "requires epsilon > 0"),
            (KernelSpec("log_disk"), [[0.0, 0.0], [1.0, 0.0]], "open unit disk"),
            (KernelSpec("log_disk", epsilon=0.1), [[0.0, 0.0], [0.0, -1.5]], "open unit disk"),
        ],
    )
    def test_domain_errors_come_before_the_distance_sweep(self, spec, nodes, message,
                                                           monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the distance sweep ran before validation")

        monkeypatch.setattr(kernels, "_sq_dist_blocks", no_sweep)
        with pytest.raises(KernelDomainError, match=message):
            assemble_gram(spec, nodes)

    def test_working_memory_is_the_gram_plus_one_block(self):
        # Assembly through temporaries of 512-row blocks held four of them at
        # once (8N^2 + 16384N bytes here); two passes over the Gram's own
        # buffer need one 32-row block of floats (256N bytes) and its mask.
        n = 1500
        nodes = fibonacci_sphere(n, radius=1.3)
        for spec in (KernelSpec("newtonian"), KernelSpec("newtonian", epsilon=0.01)):
            tracemalloc.start()
            try:
                G = assemble_gram(spec, nodes)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert G.size == n
            assert peak <= 8 * n * n + 1024 * n

    def test_custom_table_assembly(self):
        table = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]])
        G = assemble_gram(KernelSpec("custom_table", table=table), [[2], [0]])
        np.testing.assert_array_equal(
            G.entries, np.array([[1.0, 0.1], [0.1, 1.0]])
        )

    def test_gram_requires_exact_symmetry(self):
        with pytest.raises(DimensionMismatch):
            GramMatrix(entries=np.array([[1.0, 0.1], [0.2, 1.0]]))


class TestCrossKernel:
    def test_matches_elementwise(self):
        rng = np.random.default_rng(11)
        X, Y = rng.normal(0, 1, (6, 3)), rng.normal(0, 1, (4, 3))
        spec = KernelSpec("riesz", alpha=2.0, epsilon=0.15)
        C = cross_kernel(spec, X, Y)
        for p in range(6):
            for q in range(4):
                assert C[p, q] == evaluate_kernel(spec, X[p], Y[q])

    @pytest.mark.parametrize(
        "spec, Y",
        [
            (KernelSpec("riesz", alpha=1.0), [[0.0, 0.0], [1.0, 0.0]]),
            (KernelSpec("log_disk"), [[0.0, 0.0], [0.5, 0.0]]),
        ],
    )
    def test_coincident_pair_without_epsilon_is_a_domain_error(self, spec, Y):
        # Raised as KernelDomainError, without a numpy divide-by-zero warning.
        with pytest.raises(KernelDomainError, match="singular entries"):
            cross_kernel(spec, [[0.0, 0.0]], Y)


class TestPositiveDefiniteness:
    def test_identity(self):
        G = assemble_gram(KernelSpec("custom_table", table=np.eye(3)), [[0], [1], [2]])
        rep = check_positive_definite(G)
        assert rep.min_eigenvalue == pytest.approx(1.0, rel=1e-12)
        assert rep.is_strictly_pd

    def test_rank_one_psd(self):
        G = assemble_gram(KernelSpec("custom_table", table=np.ones((2, 2))), [[0], [1]])
        rep = check_positive_definite(G)
        assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-14)
        assert rep.is_pd
        assert not rep.is_strictly_pd

    def test_indefinite_detected(self):
        table = np.array([[1.0, 2.0], [2.0, 1.0]])
        G = assemble_gram(KernelSpec("custom_table", table=table), [[0], [1]])
        rep = check_positive_definite(G)
        assert rep.min_eigenvalue == pytest.approx(-1.0, rel=1e-12)
        assert not rep.is_pd

    def test_regularized_riesz_strictly_pd(self):
        rng = np.random.default_rng(5)
        nodes = rng.uniform(-1, 1, (20, 3))
        G = assemble_gram(KernelSpec("riesz", alpha=2.0), nodes)
        assert check_positive_definite(G).is_strictly_pd

    def test_psd_quadratic_form_property(self):
        rng = np.random.default_rng(13)
        for alpha in (1.0, 1.5, 2.0):
            nodes = rng.uniform(-1, 1, (15, 3))
            G = assemble_gram(KernelSpec("riesz", alpha=alpha), nodes)
            rep = check_positive_definite(G)
            for _ in range(10):
                w = rng.normal(0, 1, 15)
                assert w @ G.entries @ w >= -rep.pd_tol * float(w @ w)

    def test_log_disk_pd_on_sub_disk(self):
        rng = np.random.default_rng(17)
        r = np.sqrt(rng.uniform(0, 1, 25)) * 0.8
        t = rng.uniform(0, 2 * np.pi, 25)
        nodes = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
        G = assemble_gram(KernelSpec("log_disk"), nodes)
        assert check_positive_definite(G).is_pd


def test_assembly_deterministic():
    rng = np.random.default_rng(19)
    nodes = rng.uniform(-1, 1, (30, 3))
    spec = KernelSpec("riesz", alpha=2.0)
    a = assemble_gram(spec, nodes)
    b = assemble_gram(spec, nodes)
    assert np.array_equal(a.entries, b.entries)
    assert a.spec.epsilon == b.spec.epsilon


def test_regularization_continuity():
    # |kappa_eps - kappa_0| <= eps^2 * C at distances >= 1 (alpha=2, n=3, C=1)
    x, y = np.array([0.0, 0.0, 0.0]), np.array([1.2, 0.4, -0.3])
    exact = evaluate_kernel(KernelSpec("riesz", alpha=2.0, epsilon=0.0), x, y)
    for eps in (0.3, 0.1, 0.03, 0.01):
        reg = evaluate_kernel(KernelSpec("riesz", alpha=2.0, epsilon=eps), x, y)
        assert abs(reg - exact) <= eps**2
