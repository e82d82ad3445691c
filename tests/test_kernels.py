"""Kernel catalog, Gram assembly, and PD diagnostics."""

import ast
import re
import tracemalloc
from pathlib import Path

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
from vequil import _lapack, kernels
from vequil.errors import DimensionMismatch, EigensolverError
from vequil.geometry import fibonacci_sphere

from instances import blas_threads, count_factorizations


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
        np.testing.assert_allclose(G.dense(), expected, rtol=1e-15)

    def test_matches_elementwise_recomputation(self):
        rng = np.random.default_rng(7)
        nodes = rng.uniform(-1, 1, (50, 3))
        spec = resolve_epsilon(KernelSpec("riesz", alpha=1.7), nodes)
        K = assemble_gram(spec, nodes).dense()
        assert np.array_equal(K, K.T)
        assert np.all(np.isfinite(K))
        for p in range(0, 50, 7):
            for q in range(0, 50, 11):
                assert K[p, q] == evaluate_kernel(spec, nodes[p], nodes[q])

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

    @pytest.mark.parametrize("spec, nodes", [
        (KernelSpec("custom_table", table=[[1.0, np.inf], [np.inf, 1.0]]), [[0], [1]]),
        # eps^2 underflows to 0, so the diagonal is 1/0: refused, with no divide warning
        (KernelSpec("newtonian", epsilon=1e-200), fibonacci_sphere(3)),
    ], ids=["table_with_inf", "newtonian_eps_squared_underflows"])
    def test_non_finite_entries_are_refused(self, spec, nodes):
        with pytest.raises(KernelDomainError, match="Gram entries must be finite"):
            assemble_gram(spec, nodes)

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

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
    def test_product_refuses_a_vector_of_another_size(self, shape):
        G = GramMatrix(entries=np.eye(3))
        with pytest.raises(DimensionMismatch, match="Gram product"):
            G.matvec(np.ones(shape))


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


_TABLE3 = KernelSpec("custom_table", table=np.eye(3) + 0.25)

# Each entry point on one good and one bad point: the pair, a cross row, a two-node Gram.
_ENTRIES = {
    "evaluate_kernel": lambda spec, good, bad: evaluate_kernel(spec, good, bad),
    "cross_kernel": lambda spec, good, bad: cross_kernel(spec, [good, good], [bad]),
    "assemble_gram": lambda spec, good, bad: assemble_gram(spec, [good, bad]),
}


class TestOnePointCheck:
    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    @pytest.mark.parametrize("index", [5, -1, 1.5, np.nan])
    def test_table_index_outside_the_rows_is_refused(self, entry, index):
        with pytest.raises(KernelDomainError, match=r"row indices in \[0, 3\)"):
            _ENTRIES[entry](_TABLE3, [0], [index])

    def test_table_node_is_one_index(self):
        with pytest.raises(KernelDomainError, match="row indices"):
            assemble_gram(_TABLE3, [[0, 1], [2, 0]])

    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    def test_ragged_table_nodes_are_a_dimension_mismatch(self, entry):
        with pytest.raises(DimensionMismatch, match="ragged"):
            _ENTRIES[entry](_TABLE3, [0], [[1], [1, 2]])

    def test_repeated_table_rows_stay_legal(self):
        G = assemble_gram(_TABLE3, [[2], [0], [2]])
        assert G.entries[0, 2] == 1.25 and G.entries[0, 1] == 0.25
        assert cross_kernel(_TABLE3, [1, 1], [2]).tolist() == [[0.25], [0.25]]

    @pytest.mark.parametrize(
        "spec, good, bad, error",
        [
            (KernelSpec("newtonian", epsilon=0.1), [0.0, 0.0], [1.0, 0.0], KernelDomainError),
            (KernelSpec("riesz", alpha=1.0, epsilon=0.1), [0.0, 0.0], [1.0, 0.0, 0.0],
             DimensionMismatch),
            (KernelSpec("log_disk", epsilon=0.1), [0.0, 0.0], [0.0, 1.0], KernelDomainError),
            (_TABLE3, [0], [3], KernelDomainError),
        ],
        ids=["newtonian_in_the_plane", "mixed_dimensions", "log_disk_on_the_circle",
             "table_row_3_of_3"],
    )
    def test_every_entry_refuses_alike(self, spec, good, bad, error):
        # A Gram's node set with mixed dimensions is a ragged list.
        for entry in _ENTRIES.values():
            with pytest.raises(error) as info:
                entry(spec, good, bad)
            assert type(info.value) is error

    def test_point_evaluation_takes_one_point_each(self):
        with pytest.raises(DimensionMismatch, match="one point each"):
            evaluate_kernel(KernelSpec("riesz", alpha=1.0), [[0.0, 0.0], [1.0, 0.0]], [0.0, 1.0])


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
                assert w @ G.dense() @ w >= -rep.pd_tol * float(w @ w)

    def test_log_disk_pd_on_sub_disk(self):
        rng = np.random.default_rng(17)
        r = np.sqrt(rng.uniform(0, 1, 25)) * 0.8
        t = rng.uniform(0, 2 * np.pi, 25)
        nodes = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
        G = assemble_gram(KernelSpec("log_disk"), nodes)
        assert check_positive_definite(G).is_pd


class TestOneThreadFactor:
    """A Gram of at most ``_ONE_THREAD_ROWS`` rows is factored on one thread of
    scipy's BLAS pool, and the caller's count is back when ``_factored`` returns."""

    @pytest.mark.skipif(_lapack.set_threads_local is None,
                        reason="scipy's BLAS has no openblas_set_num_threads_local")
    def test_one_thread_at_the_cut_and_the_callers_count_above_it(self):
        cut, seen = kernels._ONE_THREAD_ROWS, []
        previous = _lapack.set_threads_local(2)
        try:
            for n in (cut, cut + 1):
                G = assemble_gram(KernelSpec("newtonian"), fibonacci_sphere(n, radius=1.0))
                seen.append(G._factored(0.0, lambda c, d: blas_threads()))
                assert blas_threads() == 2
                assert G._factored(-2.0 * G.lambda_max()) is None  # refused
                assert blas_threads() == 2
        finally:
            _lapack.set_threads_local(previous)
        assert seen == [1, 2]

    def test_without_the_setter_the_same_decisions_and_entries(self, monkeypatch):
        G = assemble_gram(KernelSpec("newtonian"), fibonacci_sphere(300, radius=1.0))
        before = G.dense()

        def run():
            factors = [G._factored(shift, lambda c, d: np.tril(c))
                       for shift in (0.0, -2.0 * G.lambda_max(), 1.0)]
            assert np.array_equal(G.dense(), before) and not G.entries.flags.writeable
            return factors

        want = run()
        monkeypatch.setattr(_lapack, "set_threads_local", None)
        got = run()
        assert [f is not None for f in got] == [f is not None for f in want] == [True, False, True]
        for a, b in zip(got[::2], want[::2]):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13 * np.abs(b).max())

    def test_the_setter_is_found_on_openblas(self):
        import scipy

        try:
            lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        except (TypeError, KeyError):
            pytest.skip("scipy does not report its LAPACK")
        version = tuple(int(x) for x in re.findall(r"\d+", str(lapack.get("version")))[:3])
        if "openblas" not in str(lapack.get("name")).lower() or version < (0, 3, 27):
            pytest.skip(f"scipy's LAPACK is {lapack.get('name')} {lapack.get('version')}")
        assert _lapack.set_threads_local is not None


def _sphere_gram() -> GramMatrix:
    # Condition number 52: numpy's solve and GramMatrix.solve agreed within 8.9e-16 of
    # the solution's largest entry, and R'R within 3.9e-16 of K's, where measured.
    return assemble_gram(KernelSpec("newtonian"), fibonacci_sphere(200, radius=1.0))


class TestGramSolve:
    """``GramMatrix.solve`` and ``GramMatrix.least_squares`` against numpy's dense
    algebra, on the factor the Gram keeps."""

    @pytest.mark.parametrize("shape, gated", [((200,), False), ((200, 3), False), ((200,), True)],
                             ids=["vector", "matrix", "vector-at-minus-pd-tol"])
    def test_solve_matches_numpy(self, shape, gated):
        G = _sphere_gram()
        b = np.random.default_rng(1).standard_normal(shape)
        want = np.linalg.solve(G.dense(), b)
        if gated:  # on the gate's factor of K - pd_tol*I and one refinement step
            assert kernels._pd_gate(G) == (True, True)
        got = G.solve(b, -kernels._pd_tol(G) if gated else 0.0)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("seed", range(3))
    def test_shifted_solve_refines_with_the_gram(self, seed):
        # lambda_min = 1e-7 = 1000 pd_tol: the shifted factor alone is off by about
        # pd_tol / lambda_min = 1e-3 (measured 3.8e-4 to 8.1e-4 on six seeds), one
        # refinement step with K squares that (measured at most 8.0e-7).
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        a = (q * np.geomspace(1e-7, 1.0, 40)) @ q.T
        G = GramMatrix(0.5 * (a + a.T))
        b = rng.standard_normal(40)
        want = np.linalg.solve(G.dense(), b)
        assert kernels._pd_gate(G)[1]
        got = G.solve(b, -kernels._pd_tol(G))
        assert np.abs(got - want).max() <= 2e-6 * np.abs(want).max()

    def test_a_refused_shift_returns_none_and_keeps_the_gram(self):
        # The Gram is the C-lower triangle and the diagonal; the other triangle is scratch.
        G = _sphere_gram()
        before = np.tril(G.entries)
        assert G.solve(np.ones(G.size), -2.0 * G.lambda_max()) is None
        assert np.array_equal(np.tril(G.entries).view(np.int64), before.view(np.int64))
        assert not G.entries.flags.writeable

    def test_gate_then_two_solves_factor_once(self, monkeypatch):
        calls = count_factorizations(monkeypatch)
        G = _sphere_gram()
        b = np.ones(G.size)
        assert kernels._pd_gate(G) == (True, True)
        first, second = (G.solve(b, -kernels._pd_tol(G)) for _ in range(2))
        assert calls == [G.size] and np.array_equal(first, second)

    def test_least_squares_is_the_factor_and_its_forward_solve(self, monkeypatch):
        calls = count_factorizations(monkeypatch)
        G = _sphere_gram()
        K, b = G.dense(), np.random.default_rng(3).standard_normal(G.size)
        assert G.solve(b) is not None
        R, rhs = G.least_squares(b)  # on the factor solve kept
        assert calls == [G.size] and np.array_equal(R, np.triu(R))
        assert np.abs(R.T @ R - K).max() <= 1e-14 * np.abs(K).max()
        assert np.abs(R.T @ rhs - b).max() <= 1e-14 * np.abs(b).max()


def _log_disk_gram() -> GramMatrix:
    # Points on a ring of radius 0.9: pairs farther apart than 1 have entries < 0.
    t = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
    return assemble_gram(KernelSpec("log_disk"), 0.9 * np.stack([np.cos(t), np.sin(t)], axis=1))


def _table_gram(table) -> GramMatrix:
    return assemble_gram(KernelSpec("custom_table", table=np.asarray(table, dtype=float)), None)


class TestLambdaMax:
    @pytest.mark.parametrize("make", [
        # ones/sqrt(N) is an eigenvector of the first two tables for 1 and 2,
        # not for their top 3 and 4: Lanczos breaks down at once and only the
        # restart sees the top.
        lambda: _table_gram([[2.0, -1.0], [-1.0, 2.0]]),
        lambda: _table_gram(np.kron(np.eye(3), [[3.0, -1.0], [-1.0, 3.0]])),
        lambda: _table_gram(np.zeros((4, 4))),
        _log_disk_gram,
    ], ids=["table_2x2", "table_kron", "zero_table", "log_disk"])
    def test_matches_dense_eigensolver(self, make):
        G = make()
        if G.spec.family == "log_disk":
            assert G.entries.min() < 0.0
        hi = np.linalg.eigvalsh(G.entries)[-1]
        assert abs(G.lambda_max() - hi) <= 1e-12 * max(abs(hi), 1.0)

    def test_work_and_memory_on_a_sphere(self, monkeypatch):
        # ARPACK took 21 products and held about 46 vectors; Lanczos with full
        # reorthogonalization took 9 to a residual of 1e-14 * lambda, and 4 to
        # the Kato-Temple bound res^2 / gap <= 1e-13 * lambda, with a basis of 16 rows.
        n = 1000
        nodes = fibonacci_sphere(n, radius=1.0)
        G = assemble_gram(KernelSpec("newtonian"), nodes)
        products = []
        matvec = GramMatrix.matvec
        monkeypatch.setattr(GramMatrix, "matvec", lambda self, x: products.append(1) or matvec(self, x))
        lam = G.lambda_max()
        monkeypatch.undo()
        assert len(products) <= 4
        assert abs(lam - np.linalg.eigvalsh(G.entries)[-1]) <= 1e-12 * lam
        fresh = assemble_gram(KernelSpec("newtonian"), nodes)
        tracemalloc.start()
        try:
            assert fresh.lambda_max() == lam
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 8 * n

    def test_step_cap_raises(self, monkeypatch):
        G = assemble_gram(KernelSpec("newtonian"), fibonacci_sphere(200, radius=1.0))
        monkeypatch.setattr(kernels, "_LANCZOS_STEPS", 3)
        with pytest.raises(EigensolverError, match="did not converge in 3 products"):
            G.lambda_max()


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


@pytest.mark.parametrize("n", [1, 33, 128, 129, 300])
@pytest.mark.parametrize("order", ["C", "F"])
def test_mirror_copies_the_lower_triangle_across_tiles(n, order):
    # GramMatrix.rows mirrors a transposed view, _factored a C-ordered buffer.
    lower = np.tril(np.random.default_rng(n).standard_normal((n, n)))
    a = np.array(lower, order=order)
    assert kernels._mirror(a) is a
    assert np.array_equal(a, np.where(np.tri(n, dtype=bool), lower, lower.T))


def test_only_kernels_reads_the_gram_factor():
    # The factor's layout is one module's decision: only kernels and the solver (whose
    # hull keeps its own packed factor) import vequil._lapack, and only kernels
    # reaches GramMatrix._factored.
    importers, callers = set(), set()
    for path in sorted(Path(kernels.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                names = []
            if any(name.split(".")[-1] == "_lapack" for name in names):
                importers.add(path.stem)
            if isinstance(node, ast.Attribute) and node.attr == "_factored":
                callers.add(path.stem)
    assert (importers, callers) == ({"kernels", "solver"}, {"kernels"})
