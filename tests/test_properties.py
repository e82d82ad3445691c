"""Property tests of the node-set bookkeeping and of the dense kernels around a solve.

Points are drawn from a coarse lattice that contains both -0.0 and +0.0, so
coincident nodes (and coincidences up to the sign of zero) actually occur.
The node-set oracles are straightforward per-point dict loops keyed on the
bytes of the +0.0-normalized coordinates; the library must agree with them
bit for bit, in support order and in every weight.

Balayage is compared with the NNLS-only sweep it replaced, and the equilibrium
measure on both of its branches with the constrained solver.

The kernel properties compare the per-coordinate distance sweep, and the
two-pass Gram assembly with its default epsilon, with the expressions they
replaced, the Cholesky PD gate and the Lanczos largest
eigenvalue with a dense symmetric eigensolver (the gate and ``equilibrium``
also leave the Gram, ``dense()``, bit for bit as it was), the Gram product
with numpy's, and the solver's carried matvec with a fresh gradient.  Frank-Wolfe's
corrective step on its carried hull factor is compared, one appended atom at
a time, with the active-set oracle that solves every support by least squares.
The one-pass KKT residual is compared with the per-plate loop it replaced, and
the one-sort knapsack oracle over all plates with the one-plate knapsack.
Projected gradient and Frank-Wolfe are compared on random small condensers,
where each one's multipliers must also bound the value of a perturbed
neighbour from below, and mutated committed configs must parse or raise a
ConfigError; a committed config with an unknown key in any of its objects is
refused at that key's path.
"""

import copy
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from vequil import (
    Condenser,
    FieldSpec,
    GramMatrix,
    KernelSpec,
    ScalarSignedMeasure,
    ConfigError,
    InfeasibleProblem,
    KernelDomainError,
    NotPositiveDefinite,
    VequilError,
    assemble_gram,
    check_positive_definite,
    condenser_gram,
    cross_kernel,
    energy,
    evaluate_kernel,
    make_plate,
    minimum_spacing,
    r_map,
    scalar_energy,
    scalar_sum,
)
from vequil import analysis, solver
from vequil.analysis import balayage, equilibrium, green_gram
from vequil.condenser import CASE1, CASE2, zero_field
from vequil.config import parse_config
from vequil.geometry import PROFILES, fibonacci_sphere, rotational_body
from vequil.kernels import _ASSEMBLY_BLOCK, _pd_gate, _sq_dist_blocks
from vequil.solver import (
    _QP,
    SolverConfig,
    _corrective_step,
    _hull_factor,
    _kkt_residual,
    _knapsack_vertex,
    solve,
    verify_kkt,
)

from instances import blas_threads

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

LATTICE = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)
# Opposite-sign plates are shifted this far along the first axis.
SHIFT = 10.0


# ---------------------------------------------------------------------------
# Oracles: per-point dict loops
# ---------------------------------------------------------------------------


def _coord_key(point) -> bytes:
    return (np.asarray(point, dtype=float) + 0.0).tobytes()


def oracle_has_duplicate(points) -> bool:
    seen = set()
    for p in points:
        key = _coord_key(p)
        if key in seen:
            return True
        seen.add(key)
    return False


def oracle_r_map(c, mu):
    order, acc = [], {}
    for p, w in zip(c.plates, mu.weights):
        for loc in range(p.n_nodes):
            key = _coord_key(p.nodes[loc])
            if key not in acc:
                acc[key] = 0.0
                order.append(p.nodes[loc] + 0.0)
            acc[key] += p.sign * float(w[loc])
    support = np.vstack(order)
    return support, np.array([acc[_coord_key(pt)] for pt in support])


def oracle_scalar_sum(m1, m2):
    order, acc = [], {}
    for m in (m1, m2):
        for pt, w in zip(m.support, m.weights):
            key = _coord_key(pt)
            if key not in acc:
                acc[key] = 0.0
                order.append(pt + 0.0)
            acc[key] += float(w)
    support = np.vstack(order)
    return support, np.array([acc[_coord_key(pt)] for pt in support])


def oracle_balayage_rows(source, target):
    """Joint node rows (target first) and the row of each source point."""
    rows, seen, source_rows = [], {}, []
    for pt in target:
        seen[_coord_key(pt)] = len(rows)
        rows.append(pt)
    for pt in source.support:
        key = _coord_key(pt)
        if key not in seen:
            seen[key] = len(rows)
            rows.append(pt)
        source_rows.append(seen[key])
    return np.vstack(rows), source_rows


def oracle_min_sq_dist(a, b, positive_only=False):
    best = np.inf
    for p in a:
        for q in b:
            d2 = float(np.sum((p - q) ** 2))
            if d2 > 0.0 or not positive_only:
                best = min(best, d2)
    return best


def distinct(points):
    out, seen = [], set()
    for p in points:
        key = _coord_key(p)
        if key not in seen:
            seen.add(key)
            out.append(p)
    return np.array(out)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

dims = st.integers(min_value=1, max_value=3)
weights = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False, allow_subnormal=False)
nonneg_weights = st.floats(min_value=0.0, max_value=8.0, allow_nan=False, allow_subnormal=False)


def lattice_points(dim, min_size=1, max_size=12):
    point = st.lists(st.sampled_from(LATTICE), min_size=dim, max_size=dim)
    return st.lists(point, min_size=min_size, max_size=max_size).map(
        lambda pts: np.array(pts, dtype=float).reshape(-1, dim)
    )


@st.composite
def condensers_with_measures(draw):
    dim = draw(dims)
    plates, ws = [], []
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        sign = draw(st.sampled_from((1, -1)))
        nodes = distinct(draw(lattice_points(dim)))
        if sign < 0:
            nodes[:, 0] += SHIFT
        plates.append(make_plate(k, sign, nodes))
        ws.append(np.array(draw(st.lists(nonneg_weights, min_size=len(nodes),
                                         max_size=len(nodes)))))
    c = Condenser(plates=tuple(plates))
    return c, c.measure(ws)


@st.composite
def scalar_measures(draw, dim):
    support = distinct(draw(lattice_points(dim)))
    w = draw(st.lists(weights, min_size=len(support), max_size=len(support)))
    return ScalarSignedMeasure(support=support, weights=np.array(w))


@st.composite
def scalar_measure_pairs(draw):
    dim = draw(dims)
    return draw(scalar_measures(dim)), draw(scalar_measures(dim))


point_sets = dims.flatmap(lambda d: lattice_points(d, max_size=16))


@st.composite
def opposite_plate_pairs(draw):
    dim = draw(dims)
    return distinct(draw(lattice_points(dim))), distinct(draw(lattice_points(dim)))


@st.composite
def spacing_inputs(draw):
    dim = draw(dims)
    coarse = draw(lattice_points(dim, max_size=16))
    fine = draw(st.lists(st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                                  min_size=dim, max_size=dim), min_size=0, max_size=8))
    fine = np.array(fine, dtype=float).reshape(-1, dim)
    return np.vstack([coarse, fine])


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@SETTINGS
@given(condensers_with_measures())
def test_r_map_matches_oracle(cm):
    c, mu = cm
    support, w = oracle_r_map(c, mu)
    image = r_map(c, mu)
    assert same_bits(image.support, support)
    assert same_bits(image.weights, w)


@SETTINGS
@given(scalar_measure_pairs())
def test_scalar_sum_matches_oracle(pair):
    m1, m2 = pair
    support, w = oracle_scalar_sum(m1, m2)
    total = scalar_sum(m1, m2)
    assert same_bits(total.support, support)
    assert same_bits(total.weights, w)


@SETTINGS
@given(point_sets)
def test_plate_rejects_iff_duplicate(points):
    dup = oracle_has_duplicate(points)
    try:
        make_plate(0, 1, points)
        rejected = False
    except VequilError as exc:
        assert "duplicate node coordinates" in str(exc)
        rejected = True
    assert rejected == dup


@SETTINGS
@given(point_sets)
def test_scalar_measure_rejects_iff_duplicate(points):
    dup = oracle_has_duplicate(points)
    try:
        ScalarSignedMeasure(support=points, weights=np.zeros(len(points)))
        rejected = False
    except VequilError as exc:
        assert "must be distinct" in str(exc)
        rejected = True
    assert rejected == dup


def _condenser_accepts(pos_nodes, neg_nodes) -> bool:
    try:
        Condenser(plates=(make_plate(0, 1, pos_nodes), make_plate(1, -1, neg_nodes)))
    except VequilError as exc:
        assert "positive separation" in str(exc)
        return False
    return True


@SETTINGS
@given(opposite_plate_pairs())
def test_condenser_accepts_iff_separated(pair):
    pos_nodes, neg_nodes = pair
    separated = oracle_min_sq_dist(pos_nodes, neg_nodes) > 0.0
    assert _condenser_accepts(pos_nodes, neg_nodes) == separated


def test_condenser_separation_across_row_blocks():
    # More positive nodes than one distance block holds; the only coincident
    # pair sits in the last block.
    x = np.arange(1100, dtype=float)
    pos_nodes = np.column_stack([x, np.zeros_like(x)])
    neg_nodes = np.array([[0.5, 1.0], [1099.0, -0.0]])
    assert not _condenser_accepts(pos_nodes, neg_nodes)
    assert _condenser_accepts(pos_nodes, neg_nodes[:1])


@SETTINGS
@given(spacing_inputs())
def test_minimum_spacing_matches_brute_force(points):
    d2 = oracle_min_sq_dist(points, points, positive_only=True)
    assert same_bits(minimum_spacing(points), np.sqrt(d2))


def test_minimum_spacing_across_row_blocks():
    rng = np.random.default_rng(5)
    points = np.round(rng.uniform(-4.0, 4.0, (1100, 2)), 1)
    points[-1] = points[3] + [0.0, 1e-3]
    diff = points[:, None, :] - points[None, :, :]
    d2 = (diff ** 2).sum(axis=-1)
    assert minimum_spacing(points) == np.sqrt(d2[d2 > 0.0].min())


@SETTINGS
@given(point_sets)
def test_balayage_gram_rejects_iff_target_duplicate(points):
    source = ScalarSignedMeasure(support=np.full((1, points.shape[1]), 7.0), weights=[1.0])
    K_t = assemble_gram(KernelSpec("riesz", alpha=0.5, epsilon=0.2), points)
    if oracle_has_duplicate(points):
        with pytest.raises(VequilError, match="target nodes must be distinct"):
            balayage(source, K_t)
    else:
        balayage(source, K_t)


def oracle_nnls_balayage(spec, source, target):
    """The sweep with NNLS on every input: ``min |L'(emb - omega)|`` over
    ``beta >= 0`` for the Cholesky factor L of the joint Gram, assembled over
    the target nodes followed by the source points off the target."""
    rows, source_rows = oracle_balayage_rows(source, target)
    K = assemble_gram(spec, rows).dense()
    n_t = len(target)
    L = np.linalg.cholesky(K)
    omega = np.zeros(K.shape[0])
    np.add.at(omega, source_rows, source.weights)
    beta, _ = scipy.optimize.nnls(L.T[:, :n_t], L.T @ omega, maxiter=max(200, 50 * n_t))
    emb = np.zeros(K.shape[0])
    emb[:n_t] = beta
    return (beta, float(beta.sum()) / source.total, float(np.sqrt(max(0.0, emb @ (K @ emb)))),
            float(np.sqrt(max(0.0, omega @ (K @ omega)))))


# (kernel, layout, target size, source size, source points on the target,
# height of the other source points, seed).
# - "lattice": jittered points of a 5x5x5 lattice of spacing 0.5, so the joint
#   Gram stays well conditioned.  The unconstrained weights come out positive
#   and the Cholesky solve answers.
# - "shells": an inner sphere of radius 0.5 shielded by an outer one of radius
#   1, both randomly rotated, with the other source points (one at least)
#   outside the outer one.  Under the newtonian kernel the unconstrained solve
#   charges inner nodes negatively, so NNLS runs.
# When every source point lies on a target node, the source is returned as its
# own sweep, with neither the Cholesky solve nor NNLS.  The explicit examples
# take the shortcut, the Cholesky solve and NNLS, in that order.
sweep_inputs = st.tuples(
    st.sampled_from(("newtonian", "riesz")),
    st.sampled_from(("lattice", "shells")),
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.sampled_from((0.0, 1.5, 5.0)),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def sweep_problem(family, layout, n_t, k, k_on, height, seed):
    rng = np.random.default_rng(seed)
    if layout == "lattice":
        lattice = np.stack(np.meshgrid(*[np.arange(5) * 0.5 - 1.0] * 3), axis=-1).reshape(-1, 3)
        target = lattice[rng.choice(len(lattice), n_t, replace=False)]
        target = target + rng.uniform(-0.1, 0.1, target.shape)
        k_on = min(k_on, k, n_t)
        off = rng.uniform(-1.0, 1.0, (k - k_on, 3)) + [0.0, 0.0, height]
    else:
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        n_outer = 30 + 2 * n_t
        target = np.vstack([fibonacci_sphere(n_outer, radius=1.0),
                            fibonacci_sphere(n_t, radius=0.5)]) @ rotation
        n_t = len(target)
        k_on = min(k_on, k - 1)  # one source point at least lies outside
        directions = rng.normal(size=(k - k_on, 3))
        off = directions / np.linalg.norm(directions, axis=1)[:, None] * (1.5 + height)
    support = np.vstack([target[rng.choice(n_t, k_on, replace=False)], off])
    weights = rng.uniform(0.0, 1.0, k)
    weights[0] += 0.1
    alpha = 1.5 if family == "riesz" else None
    source = ScalarSignedMeasure(support=support, weights=weights)
    return KernelSpec(family, alpha=alpha, epsilon=0.15), source, target


@SETTINGS
@given(sweep_inputs)
@example(("newtonian", "lattice", 20, 1, 2, 0.0, 558))
@example(("riesz", "lattice", 12, 3, 1, 5.0, 2))
@example(("newtonian", "shells", 20, 1, 0, 1.0, 0))
def test_balayage_matches_nnls_oracle(inputs):
    spec, source, target = sweep_problem(*inputs)
    with mock.patch.object(scipy.optimize, "nnls", wraps=scipy.optimize.nnls) as nnls, \
            mock.patch.object(scipy.linalg, "cho_solve", wraps=scipy.linalg.cho_solve) as cholesky:
        rep = balayage(source, assemble_gram(spec, target))
    event("nnls" if nnls.called else "cholesky" if cholesky.called else "source on target")
    beta, mass_ratio, swept_energy, source_energy = oracle_nnls_balayage(spec, source, target)
    assert np.all(rep.swept >= 0.0)
    assert np.abs(rep.swept - beta).max() <= 1e-10 * max(1.0, float(beta.max()))
    for got, want in ((rep.mass_ratio, mass_ratio), (rep.swept_energy, swept_energy),
                      (rep.source_energy, source_energy)):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert rep.potential_residual <= 1e-9


def test_source_on_target_is_its_own_sweep():
    spec, source, target = sweep_problem("newtonian", "lattice", 20, 3, 3, 0.0, 558)

    def refuse(*args, **kwargs):
        raise AssertionError("a solve ran although the source lies on the target")

    with mock.patch.object(scipy.optimize, "nnls", refuse), \
            mock.patch.object(scipy.linalg, "cho_solve", refuse):
        rep = balayage(source, assemble_gram(spec, target))
    _, source_rows = oracle_balayage_rows(source, target)
    want = np.zeros(len(target))
    want[source_rows] = source.weights
    assert np.array_equal(rep.swept, want)
    assert rep.potential_residual == 0.0
    assert rep.mass_ratio == pytest.approx(1.0, rel=1e-15)
    assert rep.swept_energy == rep.source_energy


@SETTINGS
@given(condensers_with_measures())
def test_r_map_energy_identity(cm):
    c, mu = cm
    spec = KernelSpec("riesz", alpha=0.5, epsilon=0.3)
    vector = energy(c, condenser_gram(spec, c), mu)
    scalar = scalar_energy(spec, r_map(c, mu))
    assert vector == pytest.approx(scalar, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# Dense kernels: distance sweep, symmetry, PD gate, carried matvec
# ---------------------------------------------------------------------------


def oracle_sq_dist(rows, cols):
    """The expression the per-coordinate sweep replaced: one (rows, cols, dim)
    temporary of squared differences summed over its last axis."""
    return ((rows[:, None, :] - cols[None, :, :]) ** 2).sum(axis=-1)


def swept(rows, cols):
    return np.vstack([d2 for _, d2 in _sq_dist_blocks(rows, cols)])


coords = st.one_of(
    st.sampled_from(LATTICE),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_subnormal=False),
)


@st.composite
def sweep_inputs(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    point = st.lists(coords, min_size=dim, max_size=dim)
    pts = st.lists(point, min_size=1, max_size=12).map(
        lambda p: np.array(p, dtype=float).reshape(-1, dim)
    )
    return draw(pts), draw(pts)


@SETTINGS
@given(sweep_inputs())
def test_sq_dist_sweep_matches_old_expression(pair):
    rows, cols = pair
    assert same_bits(swept(rows, cols), oracle_sq_dist(rows, cols))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sq_dist_sweep_across_row_blocks(dim):
    rng = np.random.default_rng(dim)
    rows = rng.normal(size=(_ASSEMBLY_BLOCK + 37, dim))
    cols = rng.normal(size=(40, dim))
    assert same_bits(swept(rows, cols), oracle_sq_dist(rows, cols))
    if dim == 3:
        sphere = fibonacci_sphere(_ASSEMBLY_BLOCK + 37, radius=1.7, center=(0.3, -1.0, 2.0))
        assert same_bits(swept(sphere, sphere[:60]), oracle_sq_dist(sphere, sphere[:60]))


@st.composite
def gram_inputs(draw):
    family = draw(st.sampled_from(("riesz", "newtonian", "log_disk")))
    dim = {"newtonian": 3, "log_disk": 2}.get(family) or draw(st.integers(1, 4))
    point = st.lists(st.floats(min_value=-0.7, max_value=0.7, allow_nan=False),
                     min_size=dim, max_size=dim)
    pts = np.array(draw(st.lists(point, min_size=1, max_size=14)), dtype=float)
    alpha = 0.5 * dim if family == "riesz" else None
    return KernelSpec(family, alpha=alpha, epsilon=0.1), pts


@SETTINGS
@given(gram_inputs())
def test_assembled_gram_is_exactly_symmetric(inputs):
    spec, pts = inputs
    # Only one triangle is assembled; the evaluation it takes is exactly
    # symmetric, and the Gram is that evaluation.
    C = cross_kernel(spec, pts, pts)
    assert same_bits(C, C.T)
    assert same_bits(assemble_gram(spec, pts).dense(), C)


@st.composite
def two_pass_inputs(draw):
    """A node set of 1 to 2 row blocks plus 3 nodes, with coincidences, under
    a family, and an explicit epsilon or none."""
    family = draw(st.sampled_from(("riesz", "newtonian", "log_disk")))
    dim = {"newtonian": 3, "log_disk": 2}.get(family) or draw(st.integers(1, 4))
    n = draw(st.integers(min_value=1, max_value=2 * _ASSEMBLY_BLOCK + 3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pts = rng.uniform(-0.7, 0.7, (n, dim))
    # Coarse rounding makes coincident nodes likely; finer keeps them rare.
    pts = np.round(pts, draw(st.sampled_from((1, 3, 17))))
    if draw(st.booleans()):
        pts[-1] = pts[0]
    alpha = draw(st.sampled_from((0.5, 0.9))) * dim if family == "riesz" else None
    epsilon = draw(st.sampled_from((None, 0.05, 0.3)))
    return KernelSpec(family, alpha=alpha, epsilon=epsilon), pts


def straddling_pair() -> np.ndarray:
    """Nodes on a line in R^3 whose closest pair is rows B-1 and B, across a row-block
    boundary, and whose last node repeats the first (B = _ASSEMBLY_BLOCK)."""
    x = np.linspace(-0.7, 0.7, 2 * _ASSEMBLY_BLOCK + 3)
    x[_ASSEMBLY_BLOCK] = x[_ASSEMBLY_BLOCK - 1] + 1e-3
    x[-1] = x[0]
    return np.column_stack([x, np.zeros_like(x), np.zeros_like(x)])


@SETTINGS
@given(two_pass_inputs())
@example((KernelSpec("newtonian"), straddling_pair()))
@example((KernelSpec("newtonian"), fibonacci_sphere(_ASSEMBLY_BLOCK, radius=0.6)))
@example((KernelSpec("riesz", alpha=0.5), np.linspace(-0.7, 0.7, _ASSEMBLY_BLOCK + 1)[:, None]))
@example((KernelSpec("log_disk"), np.repeat(fibonacci_sphere(_ASSEMBLY_BLOCK, 0.5)[:, :2], 2, 0)))
def test_two_pass_assembly_matches_two_sweep_expression(inputs):
    spec, pts = inputs
    n = pts.shape[1]
    d2 = oracle_sq_dist(pts, pts)
    if spec.epsilon is None and not np.any(d2 > 0.0):
        with pytest.raises(KernelDomainError, match="default epsilon"):
            assemble_gram(spec, pts)
        return
    G = assemble_gram(spec, pts)
    eps = spec.epsilon
    if eps is None:
        eps = 0.5 * minimum_spacing(pts)
        assert same_bits(eps, 0.5 * np.sqrt(d2[d2 > 0.0].min()))
    assert same_bits(G.spec.epsilon, eps)
    # The family code as it stood before assembly went in place, with the
    # exponent -1/2 taken as 1 / sqrt.
    r2 = d2 + eps * eps
    if spec.family == "log_disk":
        expected = -0.5 * np.log(r2)
    elif float(spec.alpha) - n == -1.0:
        expected = 1.0 / np.sqrt(r2)
    else:
        expected = r2 ** ((float(spec.alpha) - n) / 2.0)
    K = G.dense()
    assert same_bits(K, expected)
    assert same_bits(cross_kernel(G.spec, pts, pts), K)
    for p, q in ((0, -1), (-1, 0), (len(pts) // 2, 0)):
        assert same_bits(evaluate_kernel(G.spec, pts[p], pts[q]), K[p, q])


# (size, lambda_max, lambda_min / pd_tol, seed): lambda_min stays at least a
# factor of 2 away from -pd_tol and +pd_tol, pd_tol = 1e-10 * lambda_max.
spectra = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.1, max_value=10.0),
    st.one_of(
        st.floats(min_value=-0.5, max_value=0.5),
        st.floats(min_value=2.0, max_value=1e10),
        st.floats(min_value=-1e12, max_value=-2.0),
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def gram_with_spectrum(n, lam_max, ratio, seed) -> GramMatrix:
    """``Q diag(lambda) Q'`` for a random orthogonal Q; lambda_min = ratio * pd_tol."""
    rng = np.random.default_rng(seed)
    lam_min = ratio * 1e-10 * lam_max
    lam = np.concatenate([[lam_min], rng.uniform(lam_min, lam_max, max(n - 2, 0)), [lam_max]])[:n]
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = (q * lam) @ q.T
    return GramMatrix(entries=0.5 * (a + a.T))


@SETTINGS
@given(spectra)
@example((1, 1.0, -5.0, 0))
@example((1, 3.0, 7.0, 0))
@example((2, 1.0, 0.25, 1))
@example((2, 1.0, -3.0, 2))
@example((3, 2.0, -0.4, 3))
@example((3, 2.0, 40.0, 4))
def test_pd_gate_matches_eigenvalue_classification(spectrum):
    G = gram_with_spectrum(*spectrum)
    rep = check_positive_definite(G)
    lo = abs(rep.min_eigenvalue)
    assume(lo >= 2.0 * rep.pd_tol or lo <= 0.5 * rep.pd_tol)
    assert _pd_gate(G) == (rep.is_pd, rep.is_strictly_pd)


@SETTINGS
@given(spectra)
@example((1, 1.0, 5.0, 0))
@example((70, 1.0, 5.0, 1))  # three copy blocks, the last one partial
@example((33, 2.0, -0.3, 2))
@example((65, 1.0, -1e12, 3))
def test_pd_gate_leaves_the_gram_bit_for_bit(spectrum):
    # The gate factors in the Gram's spare triangle: strict, definite-only and
    # indefinite spectra take different branches, each must leave the Gram
    # as it was and cache no N x N array.  So must equilibrium, which runs on
    # the gate's kept factor of a gated Gram and must then give the same result.
    G = gram_with_spectrum(*spectrum)
    before, threads = G.dense(), blas_threads()
    is_pd, strict = _pd_gate(G)
    event("strictly PD" if strict else "PD only" if is_pd else "indefinite")
    assert np.array_equal(G.dense(), before) and not G.entries.flags.writeable
    assert blas_threads() == threads  # restored after a refused factorization too
    cached = [x for v in G._cache.values() for x in (v if isinstance(v, tuple) else (v,))]
    assert not any(np.ndim(x) == 2 for x in cached)
    nodes = np.arange(float(G.size))[:, None]
    if not strict:
        with pytest.raises(NotPositiveDefinite):
            equilibrium(nodes, G)
        assert np.array_equal(G.dense(), before)
        return
    fresh = GramMatrix(entries=before)
    want = equilibrium(nodes, fresh)
    got = equilibrium(nodes, G)
    for K in (G, fresh):
        assert np.array_equal(K.dense(), before) and not K.entries.flags.writeable
    assert got.robin_constant == want.robin_constant
    assert np.array_equal(got.unit_minimizer, want.unit_minimizer)

    seen = []

    def fail(c, d):
        seen.append(blas_threads())
        raise RuntimeError("inside the factor")

    with pytest.raises(RuntimeError, match="inside the factor"):
        G._factored(0.0, fail)
    assert np.array_equal(G.dense(), before) and not G.entries.flags.writeable
    # The factor ran on one thread of scipy's pool, whose count is back.
    assert seen == [None if threads is None else 1] and blas_threads() == threads


@SETTINGS
@given(spectra)
@example((2, 1.0, -1e12, 5))
def test_lambda_max_matches_dense_eigensolver(spectrum):
    G = gram_with_spectrum(*spectrum)
    vals = np.linalg.eigvalsh(G.entries)
    assert abs(G.lambda_max() - vals[-1]) <= 1e-12 * np.abs(vals).max()


def test_lambda_max_of_assembled_gram():
    G = assemble_gram(KernelSpec("newtonian"), fibonacci_sphere(400, radius=1.3))
    hi = np.linalg.eigvalsh(G.entries)[-1]
    assert abs(G.lambda_max() - hi) <= 1e-12 * hi


GRAM_PATHS = ("assemble_gram", "GramMatrix", "GramMatrix.block", "green_gram", "custom_table")


def gram_by(path: str, n: int, rng) -> GramMatrix:
    """An n-node Gram built the way ``path`` builds one."""
    spec = KernelSpec("newtonian", epsilon=0.05)
    pts = rng.uniform(-1.0, 1.0, (n, 3))
    if path == "assemble_gram":
        return assemble_gram(spec, pts)
    if path == "GramMatrix":
        # A Fortran-ordered input: the public constructor must still store C order.
        return GramMatrix(entries=assemble_gram(spec, pts).dense().T)
    if path == "GramMatrix.block":
        big = assemble_gram(spec, rng.uniform(-1.0, 1.0, (n + 5, 3)))
        start = int(rng.integers(0, 6))
        return big.block(slice(start, start + n))
    if path == "green_gram":
        screen = rng.uniform(-1.0, 1.0, (6, 3)) + [4.0, 0.0, 0.0]
        rows = cross_kernel(spec, pts, np.vstack([pts, screen]))
        return green_gram(rows, assemble_gram(spec, screen))
    table = assemble_gram(spec, rng.uniform(-1.0, 1.0, (n + 3, 3))).dense()
    return assemble_gram(KernelSpec("custom_table", table=table), rng.integers(0, n + 3, n))


@SETTINGS
@given(st.sampled_from(GRAM_PATHS), st.integers(min_value=1, max_value=70),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_gram_product_matches_numpy(path, n, seed):
    rng = np.random.default_rng(seed)
    G = gram_by(path, n, rng)
    # f2py would copy a non-contiguous buffer on every product, silently.
    assert G.entries.flags.c_contiguous
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    K = G.dense()
    err = np.abs(G.matvec(x) - K @ x).max()
    assert err <= 1e-14 * np.linalg.norm(K) * np.linalg.norm(x)


@SETTINGS
@given(condensers_with_measures())
def test_carried_gradient_is_a_fresh_gradient(cm):
    c, mu = cm
    K = condenser_gram(KernelSpec("riesz", alpha=0.5, epsilon=0.3), c)
    qp = _QP(c, K, FieldSpec(case=CASE1, case1_values=mu.weights))
    w = mu.concat()
    Kz = qp.product(w)
    # A fresh product, as the objective and the gradient took it before the carry.
    s = qp.signs
    fresh_grad = 2.0 * (s * K.matvec(s * w) + qp.q)
    fresh_value = float((s * w) @ K.matvec(s * w)) + 2.0 * float(qp.q @ w)
    assert same_bits(qp.gradient(w, Kz), fresh_grad)
    assert same_bits(qp.gradient(w), fresh_grad)
    assert same_bits(qp.objective(w, Kz), fresh_value)


# ---------------------------------------------------------------------------
# Frank-Wolfe inner loops against the implementations they replaced
# ---------------------------------------------------------------------------


def oracle_simplex_qp(Q, b, warm):
    """The active-set simplex QP with a least-squares solve of the bordered
    KKT system on every working support."""
    n = Q.shape[0]
    alpha = warm.copy()
    support = alpha > 0.0
    if not support.any():
        support[int(np.argmin(b))] = True
        alpha[:] = 0.0
        alpha[support] = 1.0
    scale = max(1.0, float(np.abs(Q).max()), float(np.abs(b).max()))
    tol = 1e-13 * scale
    for _ in range(50 * (n + 2)):
        idx = np.flatnonzero(support)
        k = idx.size
        sys_mat = np.zeros((k + 1, k + 1))
        sys_mat[:k, :k] = 2.0 * Q[np.ix_(idx, idx)]
        sys_mat[:k, k] = 1.0
        sys_mat[k, :k] = 1.0
        rhs = np.concatenate([-2.0 * b[idx], [1.0]])
        x = np.linalg.lstsq(sys_mat, rhs, rcond=None)[0][:k]
        if np.any(x < -1e-14):
            cur = alpha[idx]
            neg = x < 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = cur[neg] / (cur[neg] - x[neg])
            t = float(min(1.0, np.min(ratios)))
            stepped = cur + t * (x - cur)
            stepped[stepped < 1e-15] = 0.0
            alpha[:] = 0.0
            alpha[idx] = stepped
            total = alpha.sum()
            if total > 0.0:
                alpha /= total
            support = alpha > 0.0
            if not support.any():
                support[int(np.argmin(b))] = True
                alpha[support] = 1.0
            continue
        alpha[:] = 0.0
        alpha[idx] = np.maximum(x, 0.0)
        alpha /= alpha.sum()
        grad_full = 2.0 * (Q @ alpha + b)
        reduced = grad_full - float(grad_full[idx].mean())
        outside = np.flatnonzero(~support)
        if outside.size == 0 or reduced[outside].min() >= -tol:
            return alpha
        support[outside[int(np.argmin(reduced[outside]))]] = True
    return alpha


def oracle_knapsack_vertex(cost, g, sigma, a):
    """The per-node loop: saturate the cheapest caps until the budget is spent."""
    order = np.argsort(cost / g, kind="stable")
    v = np.zeros_like(g)
    remaining = float(a)
    for j in order:
        if remaining <= 0.0:
            break
        take = min(float(sigma[j]), remaining / float(g[j]))
        v[j] = take
        remaining -= take * float(g[j])
    if remaining > 1e-9 * max(1.0, a):
        raise InfeasibleProblem("knapsack budget not exhausted; plate infeasible")
    return v


# (atoms k, rank of the atoms' Gram, seed); a rank below k makes the atoms
# linearly dependent.  As in Frank-Wolfe, the linear term is b_i = <q, v_i>
# for the atoms v_i (the rows of V), so it lies in the range of Q = V V' and
# the QP is bounded below on every support.
simplex_inputs = st.integers(min_value=1, max_value=12).flatmap(lambda k: st.tuples(
    st.just(k),
    st.integers(min_value=0, max_value=k),
    st.integers(min_value=0, max_value=2**32 - 1),
))


def simplex_problem(k, rank, seed):
    """``Q = V V'`` with ``V`` of the given rank, and ``b = V q``."""
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(k, rank)) @ rng.normal(size=(rank, k + 2))
    return V @ V.T, V @ rng.normal(size=k + 2)


def simplex_objective(Q, b, x):
    return float(x @ Q @ x) + 2.0 * float(b @ x)


def assert_simplex_optimum(Q, b, x, ref):
    """``x`` is as good as the oracle's ``ref`` and satisfies the simplex KKT conditions."""
    assert np.all(x >= 0.0) and abs(x.sum() - 1.0) <= 1e-12
    f, f_ref = simplex_objective(Q, b, x), simplex_objective(Q, b, ref)
    assert abs(f - f_ref) <= 1e-12 * max(1.0, abs(f_ref))
    scale = max(1.0, float(np.abs(Q).max()), float(np.abs(b).max()))
    grad = 2.0 * (Q @ x + b)
    assert float(grad[x > 0.0].max()) - float(grad.min()) <= 1e-12 * scale


def unpacked(R, n):
    """The n x n upper triangle whose columns are packed in the leading entries of ``R``."""
    U = np.zeros((n, n))
    U.T[np.tril_indices(n)] = R[:n * (n + 1) // 2]
    return U


def grow_hull(Q, b):
    """Admit atoms 1, 2, ... one at a time through the corrective step, dropping
    the atoms it gives weight zero, as Frank-Wolfe does; yields each round's hull
    Gram, linear term, warm start, weights, the returned factor unpacked at the
    size of the new support, and whether that factor is the carried buffer
    itself (None on a round that had no carried factor, lost an atom or got
    no factor back)."""
    hull, alpha, R = [0], np.array([1.0]), None
    for j in range(1, Q.shape[0]):
        idx = hull + [j]
        Q_h, b_h = Q[np.ix_(idx, idx)], b[idx]
        warm = np.append(alpha, 0.0)
        x, R_new = _corrective_step(Q_h, b_h, alpha, R)
        kept = np.flatnonzero(x)
        # On a round where every atom kept its weight, a carried buffer with room
        # for the new column is extended in place; one without comes back as a
        # copy at least twice its size.
        in_place = None
        if kept.size == len(idx) and R is not None and R_new is not None:
            in_place = R_new is R
            assert in_place == (R.size >= len(idx) * (len(idx) + 1) // 2)
            assert in_place or R_new.size >= 2 * R.size
        yield Q_h, b_h, warm, x, None if R_new is None else unpacked(R_new, kept.size), in_place
        if x[-1] == 0.0:
            continue  # the atom did not enter: Frank-Wolfe stops, the property goes on
        hull, alpha, R = [idx[i] for i in kept], x[kept], R_new


@SETTINGS
@given(simplex_inputs)
@example((12, 12, 3))
@example((12, 5, 4))
@example((6, 0, 5))
# A step back drops an atom that the loop then admits again (about one round in 1,500).
@example((9, 9, 293))
@example((12, 12, 505))
def test_carried_step_matches_least_squares_oracle(inputs):
    Q, b = simplex_problem(*inputs)
    for Q_h, b_h, warm, x, R, _ in grow_hull(Q, b):
        assert_simplex_optimum(Q_h, b_h, x, oracle_simplex_qp(Q_h, b_h, warm))
        if R is not None:
            # A returned factor is the upper Cholesky factor of the support's Gram.
            kept = np.flatnonzero(x)
            assert np.array_equal(R, np.triu(R)) and np.all(np.diag(R) > 0.0)
            Q_s = Q_h[np.ix_(kept, kept)]
            assert np.abs(R.T @ R - Q_s).max() <= 1e-13 * max(1.0, float(np.abs(Q_s).max()))


def test_packed_factor_grows_in_place():
    # Twelve orthonormal atoms around their centroid: each enters, none leaves,
    # and the factor is the identity.  The first round has no carried factor;
    # after it the buffer is extended in place until it is full, then doubled.
    flags = []
    for _, _, _, x, R, in_place in grow_hull(np.eye(12), np.full(12, -1.0 / 12.0)):
        np.testing.assert_allclose(x, 1.0 / x.size, rtol=1e-14)
        np.testing.assert_array_equal(R, np.eye(x.size))
        flags.append(in_place)
    assert flags == [None, True, False, True, False, True, True, False, True, True, True]


# Three unit atoms e_0, e_1, e_2 (and their sum), with the objective
# |x - p|^2 - |p|^2 over their hull: Q = V V', b = -V p.  The hull {e_0, e_1}
# is at its optimum before the third atom arrives.
def corrective_round(third, p, monkeypatch):
    V = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], third])
    Q, b = V @ V.T, -V @ np.asarray(p)
    alpha = np.array([0.5 + 0.5 * (p[0] - p[1]), 0.5 - 0.5 * (p[0] - p[1])])
    R = _hull_factor(Q[:2, :2])
    calls = {"dpptrf": 0, "dtpsv": 0}

    def counted(name):
        inner = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(solver, name, wrapper)

    for name in calls:
        counted(name)
    x, R = _corrective_step(Q, b, alpha, R)
    assert_simplex_optimum(Q, b, x, oracle_simplex_qp(Q, b, np.append(alpha, 0.0)))
    return x, None if R is None else unpacked(R, np.count_nonzero(x)), calls


def test_carried_step_appends_one_row(monkeypatch):
    x, R, calls = corrective_round([0.0, 0.0, 1.0], [0.2, 0.3, 0.5], monkeypatch)
    np.testing.assert_allclose(x, [0.2, 0.3, 0.5], atol=1e-15)
    assert calls == {"dpptrf": 0, "dtpsv": 1}
    np.testing.assert_allclose(R, np.eye(3), atol=1e-15)


# e_0 + e_1 is outside the segment [e_0, e_1] but in the span of its atoms: the
# appended pivot is zero.  Lifted by 1e-6 out of that span, the pivot is 1e-12,
# still below the share that counts as dependent.
@pytest.mark.parametrize("lift", [0.0, 1e-6])
def test_carried_step_dependent_atom_falls_back(lift, monkeypatch):
    x, R, calls = corrective_round([1.0, 1.0, lift], [0.9, 0.6, 0.0], monkeypatch)
    np.testing.assert_allclose(x, [0.4, 0.1, 0.5], atol=1e-9)
    assert calls == {"dpptrf": 0, "dtpsv": 1} and R is None


def test_simplex_qp_dependent_atoms_use_least_squares(monkeypatch):
    # The third atom is the sum of the first two: the hull's Gram has rank 2 and
    # no Cholesky factor, so its one support is solved by least squares.
    sizes = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        sizes.append(args[0].shape[0])
        return lstsq(*args, **kwargs)

    V = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    Q, b = V @ V.T, -V @ np.array([0.9, 0.6])
    alpha = np.array([0.65, 0.35])  # the optimum on the segment [e_0, e_1]
    R = _hull_factor(Q[:2, :2])
    monkeypatch.setattr(np.linalg, "lstsq", counted)
    x, R = _corrective_step(Q, b, alpha, R)
    monkeypatch.undo()
    assert sizes == [4] and R is None
    assert_simplex_optimum(Q, b, x, oracle_simplex_qp(Q, b, np.append(alpha, 0.0)))
    np.testing.assert_allclose(x, [0.4, 0.1, 0.5], atol=1e-12)


def test_carried_step_backs_off(monkeypatch):
    # The affine optimum (-0.2, 0.3, 0.9) is outside the triangle: e_0 leaves,
    # and the factor of the support {e_1, e_2} comes back.
    x, R, calls = corrective_round([0.0, 0.0, 1.0], [-0.2, 0.3, 0.9], monkeypatch)
    np.testing.assert_allclose(x, [0.0, 0.2, 0.8], atol=1e-15)
    assert x[0] == 0.0
    assert calls == {"dpptrf": 1, "dtpsv": 1}
    np.testing.assert_allclose(R, np.eye(2), atol=1e-15)


def test_carried_step_drops_a_weight_at_round_off(monkeypatch):
    # The affine optimum is p = 0.4 e_1 + 0.6 (0, 0.5, 1): e_0's weight is zero up to
    # round-off, so e_0 leaves without a step back, and the factor of the support
    # {e_1, e_2} comes back, not the leading block of the hull's.
    x, R, calls = corrective_round([0.0, 0.5, 1.0], [0.0, 0.7, 0.6], monkeypatch)
    assert x[0] == 0.0
    np.testing.assert_allclose(x, [0.0, 0.4, 0.6], atol=1e-15)
    assert calls == {"dpptrf": 1, "dtpsv": 1}
    np.testing.assert_allclose(R, [[1.0, 0.5], [0.0, 1.0]], atol=1e-15)


# The new atom's reduced gradient is 2, or 0 (a tie, which does not enter either):
# the weights and the factor of the old hull come back.
@pytest.mark.parametrize("p", [[0.5, 0.5, -1.0], [0.5, 0.5, 0.0]])
def test_carried_step_new_atom_does_not_enter(p, monkeypatch):
    x, R, calls = corrective_round([0.0, 0.0, 1.0], p, monkeypatch)
    np.testing.assert_array_equal(x, [0.5, 0.5, 0.0])
    assert calls == {"dpptrf": 0, "dtpsv": 0}
    np.testing.assert_array_equal(R, np.eye(2))


COST_LATTICE = (-1.0, -0.5, 0.0, 0.5, 1.0)
G_LATTICE = (0.25, 0.5, 0.75, 1.0, 1.5, 3.0)
SIGMA_LATTICE = (0.0, 0.1, 0.25, 0.5, 1.0, 2.0)


@st.composite
def knapsack_inputs(draw):
    m = draw(st.integers(min_value=1, max_value=12))
    cost = np.array(draw(st.lists(st.sampled_from(COST_LATTICE), min_size=m, max_size=m)))
    g = np.array(draw(st.lists(st.sampled_from(G_LATTICE), min_size=m, max_size=m)))
    sigma = np.array(draw(st.lists(st.sampled_from(SIGMA_LATTICE), min_size=m, max_size=m)))
    cap = float(g @ sigma)
    a = draw(st.one_of(st.just(0.0), st.just(cap),
                       st.floats(min_value=0.0, max_value=1.0).map(lambda t: t * cap)))
    return cost, g, sigma, a


@SETTINGS
@given(knapsack_inputs())
def test_knapsack_vertex_matches_loop_oracle(inputs):
    cost, g, sigma, a = inputs
    v = _knapsack_vertex(cost, g, sigma, a)
    ref = oracle_knapsack_vertex(cost, g, sigma, a)
    assert np.abs(v - ref).max() <= 1e-15 * max(1.0, a)
    assert np.array_equal(v > 0.0, ref > 0.0)
    assert np.all(v >= 0.0) and np.all(v <= sigma)
    assert abs(float(g @ v) - a) <= 1e-12 * max(1.0, a)


@SETTINGS
@given(knapsack_inputs(), st.floats(min_value=1e-6, max_value=10.0))
def test_knapsack_vertex_rejects_infeasible_budget(inputs, excess):
    cost, g, sigma, _ = inputs
    a = float(g @ sigma) + excess
    with pytest.raises(InfeasibleProblem):
        oracle_knapsack_vertex(cost, g, sigma, a)
    with pytest.raises(InfeasibleProblem):
        _knapsack_vertex(cost, g, sigma, a)


# ---------------------------------------------------------------------------
# Plate projection: box, exact mass, idempotence, variational inequality
# ---------------------------------------------------------------------------


# Kinks v/g and (v - sigma)/g drawn from one lattice tie often, and so do the
# kinks of equal g; a zero sigma is a zero-width box.  The mass a sits at 0,
# just above it, anywhere inside, just below <g, sigma> or at it.
KINK_LATTICE = (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0)
MASS_SHARES = (0.0, 1e-15, 1e-9, 1.0 - 1e-9, 1.0 - 1e-15, 1.0)


@st.composite
def projection_inputs(draw):
    m = draw(st.integers(min_value=1, max_value=30))
    entries = lambda values: st.lists(values, min_size=m, max_size=m)  # noqa: E731
    if draw(st.booleans()):
        g = np.full(m, draw(st.sampled_from(G_LATTICE)))
    else:
        g = np.array(draw(entries(st.one_of(st.sampled_from(G_LATTICE),
                                            st.floats(min_value=0.1, max_value=10.0)))))
    sigma = np.array(draw(entries(st.one_of(st.sampled_from(SIGMA_LATTICE),
                                            st.floats(min_value=0.0, max_value=2.0)))))
    kinks = np.array(draw(entries(st.one_of(st.sampled_from(KINK_LATTICE),
                                            st.floats(min_value=-3.0, max_value=3.0)))))
    share = draw(st.one_of(st.sampled_from(MASS_SHARES), st.floats(min_value=0.0, max_value=1.0)))
    return kinks * g, g, sigma, share * float(g @ sigma)


@SETTINGS
@given(projection_inputs())
# The mass at the kink where node 0 reaches zero rounds to 4.4e-16 > a, so the
# bracketing segment is the zero-width one at node 1's tied kinks: no free node.
@example((np.array([-1.3, -0.65]), np.array([1.3, 1.3]), np.array([1.0, 0.0]), 1e-100))
def test_plate_projection_is_exact(inputs):
    v, g, sigma, a = inputs
    w = solver.project_plate(v, g, sigma, a)
    assert np.all(w >= 0.0) and np.all(w <= sigma)
    scale = float(g @ (sigma + np.abs(v)))  # the magnitudes the mass adds up
    assert abs(float(g @ w) - a) <= 1e-12 * scale
    again = solver.project_plate(w, g, sigma, a)
    assert np.abs(again - w).max() <= 1e-12 * max(1.0, float(sigma.max()))
    # (v - w).(s - w) is largest over the plate at a knapsack vertex s.
    r = v - w
    s = _knapsack_vertex(-r, g, sigma, a)
    assert float(r @ (s - w)) <= 1e-12 * (1.0 + float(np.abs(r) @ np.abs(s - w)))


# ---------------------------------------------------------------------------
# The one-pass KKT residual and the one-sort oracle against their per-plate forms
# ---------------------------------------------------------------------------


def oracle_kkt_residual(plates, w, grad):
    """The per-plate KKT residual: a loop over ``(slice, g, sigma, a)`` plates."""
    worst = 0.0
    taus = []
    for sl, gs, sigma, a in plates:
        ws, rs = w[sl], grad[sl]
        band = max(1e-14, 1e-9 * a / float(gs.min()))
        pinned = sigma <= 2.0 * band  # zero-width box: no condition
        lo = (ws <= band) & ~pinned
        hi = (ws >= sigma - band) & ~pinned
        interior = ~lo & ~hi & ~pinned
        cap = float(gs @ sigma)
        if cap - a <= 1e-12 * max(1.0, cap):
            # Degenerate plate: the feasible set is the single point sigma.
            ratios = rs[~pinned] / gs[~pinned]
            taus.append(float(ratios.max()) if ratios.size else 0.0)
            continue
        if interior.any():
            tau = float(gs[interior] @ rs[interior]) / float(gs[interior] @ gs[interior])
        else:
            lo_r = rs[lo] / gs[lo]
            hi_r = rs[hi] / gs[hi]
            if hi_r.size and lo_r.size:
                if hi_r.max() <= lo_r.min():
                    tau = 0.5 * (float(hi_r.max()) + float(lo_r.min()))
                else:
                    sup = ws > band
                    tau = float(gs[sup] @ rs[sup]) / float(gs[sup] @ gs[sup])
            elif hi_r.size:
                tau = float(hi_r.max())
            elif lo_r.size:
                tau = float(lo_r.min())
            else:
                tau = 0.0
        taus.append(tau)
        r = rs - tau * gs
        if lo.any():
            worst = max(worst, float(np.maximum(0.0, -r[lo]).max()))
        if hi.any():
            worst = max(worst, float(np.maximum(0.0, r[hi]).max()))
        if interior.any():
            worst = max(worst, float(np.abs(r[interior]).max()))
    return worst, tuple(taus)


def plates_qp(plates):
    """``_QP`` over same-signed plates ``(g, sigma, mass)`` on a line, zero field."""
    c = Condenser(plates=tuple(
        make_plate(i, 1, np.column_stack([np.arange(g.size) + 100.0 * i,
                                          np.zeros(g.size), np.zeros(g.size)]),
                   g=g, mass=a, sigma=sigma)
        for i, (g, sigma, a) in enumerate(plates)
    ))
    K = condenser_gram(KernelSpec("riesz", alpha=0.5, epsilon=0.3), c)
    return _QP(c, K, zero_field(c))


# A weight at zero, inside the band of zero, at the cap, inside the band of
# the cap, or strictly inside the box; a plate of kind "bounds" has no
# interior weight, and one of kind "degenerate" has mass <g, sigma>.
BOUND_SPOTS = ("zero", "near_zero", "cap", "near_cap")
KKT_SIGMA_LATTICE = (0.0, 1e-12, 0.1, 0.25, 0.5, 1.0, 2.0)


@st.composite
def kkt_inputs(draw):
    spot_scale = draw(st.sampled_from((1.0, 0.01, 30.0)))
    plates = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        m = draw(st.integers(min_value=1, max_value=8))
        g = np.array(draw(st.lists(st.sampled_from(G_LATTICE), min_size=m, max_size=m)))
        sigma = np.array(draw(st.lists(st.sampled_from(KKT_SIGMA_LATTICE), min_size=m, max_size=m)))
        sigma[0] = max(sigma[0], 0.1)  # a positive mass is feasible
        kind = draw(st.sampled_from(("mixed", "bounds", "degenerate")))
        cap = float(g @ sigma)
        a = cap if kind == "degenerate" else draw(st.floats(min_value=0.05, max_value=0.95)) * cap
        spots = BOUND_SPOTS if kind == "bounds" else BOUND_SPOTS + ("interior",)
        where = draw(st.lists(st.sampled_from(spots), min_size=m, max_size=m))
        plates.append((g, sigma, a, where))
    return plates, spot_scale, draw(st.integers(min_value=0, max_value=2**32 - 1))


def kkt_point(plates, spot_scale, seed):
    """Weights at the drawn spots of each box and a gradient of scale 0.1 to 10.

    The "near" spots lie half a band from their bound, the band scaled by
    ``spot_scale``: at 0.01 deep inside the active band, at 30 well outside
    it.  The residuals classify them with the real band.
    """
    rng = np.random.default_rng(seed)
    w = []
    for g, sigma, a, where in plates:
        band = max(1e-14, 1e-9 * a / float(g.min())) * spot_scale
        spot = {"zero": np.zeros_like(sigma), "near_zero": np.minimum(0.5 * band, sigma),
                "cap": sigma, "near_cap": np.maximum(sigma - 0.5 * band, 0.0),
                "interior": sigma * rng.uniform(0.2, 0.8, sigma.size)}
        w.append(np.array([spot[k][j] for j, k in enumerate(where)]))
    w = np.concatenate(w)
    return w, rng.normal(size=w.size) * 10.0 ** rng.uniform(-1.0, 1.0)


def qp_plates(qp):
    """The ``(slice, g, sigma, a)`` plates of a ``_QP``, for the per-plate oracles."""
    return [(sl, qp.g[sl], qp.sigma[sl], a) for sl, a in zip(qp.slices, qp.masses)]


def first_vertex(config, seed):
    """Frank-Wolfe's first iterate on a committed config under ``--seed``:
    the knapsack vertex of the seeded direction, with its gradient."""
    problem = parse_config(CONFIGS / config).problem
    qp = _QP(problem.condenser, problem.gram, problem.field)
    w = qp.lmo(np.random.default_rng(seed).standard_normal(qp.sigma.size))
    return qp, w, qp.gradient(w)


@SETTINGS
@given(kkt_inputs())
@example(([(np.array([1.0, 0.5]), np.array([0.5, 0.0]), 0.25, ["interior", "zero"])], 1.0, 0))
@example(([(np.array([1.0, 3.0]), np.array([0.5, 0.25]), 1.25, ["cap", "near_cap"]),
           (np.array([0.25]), np.array([1.0]), 0.125, ["near_zero"])], 30.0, 1))
# Frank-Wolfe's first iterate on the exhaust config under seed 3: each plate's
# mass is a whole number of caps, so neither plate has an interior coordinate.
@example(("exhaust_two_plate.json", 3))
def test_one_pass_kkt_residual_matches_per_plate_loop(inputs):
    if isinstance(inputs[0], str):
        qp, w, grad = first_vertex(*inputs)
        assert not ((w > qp.band) & (w < qp.room) & qp.free).any()
    else:
        plates, spot_scale, seed = inputs
        qp = plates_qp([(g, sigma, a) for g, sigma, a, _ in plates])
        w, grad = kkt_point(plates, spot_scale, seed)
    resid, taus = _kkt_residual(qp, w, grad)
    ref, ref_taus = oracle_kkt_residual(qp_plates(qp), w, grad)
    # The interior sums add in another order: both may move at round-off.
    assert abs(resid - ref) <= 1e-14 * max(1.0, float(np.abs(grad).max()))
    assert len(taus) == len(ref_taus)
    for tau, ref_tau in zip(taus, ref_taus):
        assert abs(tau - ref_tau) <= 1e-14 * max(1.0, abs(ref_tau))


@st.composite
def oracle_inputs(draw):
    plates = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        cost, g, sigma, a = draw(knapsack_inputs())
        sigma[0] = max(sigma[0], 0.1)  # a positive mass is feasible
        cap = float(g @ sigma)
        plates.append((cost, g, sigma, min(max(a, 0.01 * cap), cap)))
    return plates, draw(st.integers(min_value=0, max_value=len(plates))), draw(
        st.floats(min_value=1e-6, max_value=10.0))


@SETTINGS
@given(oracle_inputs())
def test_one_sort_oracle_matches_per_plate_knapsack(inputs):
    plates, short, excess = inputs
    cost = np.concatenate([p[0] for p in plates])
    qp = plates_qp([(g, sigma, a) for _, g, sigma, a in plates])
    v = qp.lmo(cost)
    for (sl, g, sigma, a), (c, _, _, _) in zip(qp_plates(qp), plates):
        ref = _knapsack_vertex(c, g, sigma, a)
        assert np.array_equal(v[sl] > 0.0, ref > 0.0)
        assert np.abs(v[sl] - ref).max() <= 1e-15 * max(1.0, a)
    if short < len(plates):
        # One plate's budget exceeds <g, sigma>: both forms refuse it.
        _, g, sigma, _ = plates[short]
        plates[short] = (plates[short][0], g, sigma, float(g @ sigma) + excess)
        qp = plates_qp([(g, sigma, a) for _, g, sigma, a in plates])
        with pytest.raises(InfeasibleProblem):
            _knapsack_vertex(plates[short][0], g, sigma, plates[short][3])
        with pytest.raises(InfeasibleProblem):
            qp.lmo(cost)


# ---------------------------------------------------------------------------
# Equilibrium: the direct solve against the constrained solver
# ---------------------------------------------------------------------------


# (kernel, node count, seed).  Nodes are jittered points of a 6^d lattice of
# spacing 0.24 in [-0.6, 0.6]^d: d = 2 for log_disk (inside the unit disk), 2
# or 3 for riesz with a random alpha in (0.5, d - 0.5).  About a third of the
# inputs have a negative entry in the solution of K u = 1 and take the
# constrained solver; the first explicit example takes the direct solve, the
# second the fallback.
equilibrium_inputs = st.tuples(
    st.sampled_from(("riesz", "log_disk")),
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def equilibrium_problem(family, n, seed):
    rng = np.random.default_rng(seed)
    dim = 2 if family == "log_disk" else int(rng.integers(2, 4))
    axis = np.arange(6) * 0.24 - 0.6
    lattice = np.stack(np.meshgrid(*[axis] * dim), axis=-1).reshape(-1, dim)
    nodes = lattice[rng.choice(len(lattice), n, replace=False)]
    nodes = nodes + rng.uniform(-0.05, 0.05, nodes.shape)
    alpha = rng.uniform(0.5, dim - 0.5) if family == "riesz" else None
    return nodes, assemble_gram(KernelSpec(family, alpha=alpha), nodes)


@SETTINGS
@given(equilibrium_inputs)
@example(("riesz", 12, 0))
@example(("log_disk", 30, 1))
def test_equilibrium_matches_constrained_solve(inputs):
    nodes, K = equilibrium_problem(*inputs)
    assume(_pd_gate(K)[1])
    cfg = SolverConfig(grad_tol=1e-12)
    with mock.patch.object(analysis, "solve", wraps=solve) as fallback:
        eq = equilibrium(nodes, K, config=cfg)
    event("constrained solver" if fallback.called else "direct solve")
    c = Condenser(plates=(make_plate(0, 1, K.nodes),))
    rep = solve(c, K, zero_field(c), cfg)
    assert eq.converged and rep.converged
    assert abs(eq.robin_constant - rep.value) <= 1e-10 * rep.value
    assert np.abs(eq.unit_minimizer - rep.minimizer.weights[0]).max() <= 1e-8 * eq.unit_minimizer.max()
    assert eq.kkt_residual <= cfg.grad_tol
    assert verify_kkt(c, K, zero_field(c), c.measure([eq.unit_minimizer]), cfg.grad_tol).ok


# ---------------------------------------------------------------------------
# Projected gradient against Frank-Wolfe on random condensers
# ---------------------------------------------------------------------------


# (kernel, nodes per plate, field case, each plate's kind, seed).  The nodes
# of all plates, and a case-2 field's three charges, are distinct jittered
# points of equilibrium_problem's lattice, so oppositely signed plates are
# separated.  Plate 0 is positive and the others take a random sign.  A
# plate's mass is a random fraction of its <g, sigma>, all of it on a
# degenerate plate, and all but 1e-10 of it on a tight plate, whose every
# weight then lies within the active band of its cap: no interior coordinate.
solve_inputs = st.tuples(
    st.sampled_from(("riesz", "log_disk")),
    st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=3).filter(
        lambda sizes: sum(sizes) >= 2),
    st.sampled_from((CASE1, CASE2)),
    st.lists(st.sampled_from(("free", "degenerate", "tight")), min_size=3, max_size=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def solve_problem(family, sizes, case, kinds, seed):
    rng = np.random.default_rng(seed)
    dim = 2 if family == "log_disk" else int(rng.integers(2, 4))
    axis = np.arange(6) * 0.24 - 0.6
    lattice = np.stack(np.meshgrid(*[axis] * dim), axis=-1).reshape(-1, dim)
    n_zeta = 3 if case == CASE2 else 0
    points = lattice[rng.choice(len(lattice), sum(sizes) + n_zeta, replace=False)]
    points = points + rng.uniform(-0.05, 0.05, points.shape)
    plates, start = [], 0
    for k, m in enumerate(sizes):
        g, sigma = rng.uniform(0.5, 2.0, m), rng.uniform(0.05, 0.6, m)
        cap = float(g @ sigma)
        share = {"free": float(rng.uniform(0.2, 0.9)), "degenerate": 1.0, "tight": 1.0 - 1e-10}
        mass = share[kinds[k]] * cap
        sign = 1 if k == 0 else int(rng.choice([-1, 1]))
        plates.append(make_plate(k, sign, points[start:start + m], g=g, mass=mass, sigma=sigma))
        start += m
    c = Condenser(plates=tuple(plates))
    alpha = rng.uniform(0.5, dim - 0.5) if family == "riesz" else None
    K = condenser_gram(KernelSpec(family, alpha=alpha), c)
    if case == CASE1:
        f = FieldSpec(case=CASE1, case1_values=tuple(rng.normal(0.0, 1.0, m) for m in sizes))
    else:
        f = FieldSpec(case=CASE2, case2_zeta=ScalarSignedMeasure(
            support=points[start:], weights=rng.normal(0.0, 1.0, n_zeta)))
    return c, K, f


@settings(SETTINGS, max_examples=200)
@given(solve_inputs)
def test_projected_gradient_and_frank_wolfe_agree(inputs):
    c, K, f = solve_problem(*inputs)
    assume(_pd_gate(K)[0])
    tol = 1e-9
    pg, fw = (solve(c, K, f, SolverConfig(algorithm=algorithm, grad_tol=tol))
              for algorithm in ("projected_gradient", "frank_wolfe"))
    assert pg.converged and fw.converged
    qp = _QP(c, K, f)
    if qp.degenerate.any():
        event("a degenerate plate")
    slack = 1e-12 * max(1.0, abs(pg.value))
    for rep, other in ((pg, fw), (fw, pg)):
        assert verify_kkt(c, K, f, rep.minimizer, tol).ok
        # By convexity a value exceeds the optimum, and so the other value, by
        # at most its duality gap.  The residual alone bounds less: a weight
        # within the active band of its cap counts as at the cap.
        w = rep.minimizer.concat()
        grad = qp.gradient(w)
        assert rep.value - other.value <= float(grad @ (w - qp.lmo(grad))) + slack
        interior = (w > qp.band) & (w < qp.room) & qp.free
        if not (np.logical_or.reduceat(interior, qp.starts) | qp.degenerate).all():
            event(f"{rep.algorithm}: a plate without interior coordinate")


# (solve_inputs, each plate's kept nodes, each plate's +inf field nodes).  A
# plate's sigma is zeroed off its kept nodes, a case-1 field is +inf on its
# locked ones (a zeroed node may be locked too), and a plate with no kept
# finite node keeps its first one, finite.  Its mass is the same share of
# what its kept finite nodes hold as before, so every plate stays feasible and
# of its kind.
@st.composite
def zeroed_inputs(draw):
    inputs = draw(solve_inputs)
    flags = [st.lists(st.booleans(), min_size=m, max_size=m) for m in inputs[1]]
    keep = [draw(fl) for fl in flags]
    locked = [draw(fl) if inputs[2] == CASE1 else [False] * m for fl, m in zip(flags, inputs[1])]
    return inputs, keep, locked


def zeroed_problem(inputs, keep, locked):
    """The problem with zeroed sigmas, the one with those nodes removed, and the
    masks of the kept nodes and of the kept finite ones."""
    c, K, f = solve_problem(*inputs)
    zeroed, removed, values, kept, usable_all = [], [], [], [], []
    for k, p in enumerate(c.plates):
        keep_k, locked_k = np.array(keep[k]), np.array(locked[k])
        if not (keep_k & ~locked_k).any():
            keep_k[0], locked_k[0] = True, False
        usable = keep_k & ~locked_k
        mass = p.mass / float(p.g @ p.sigma) * float(p.g[usable] @ p.sigma[usable])
        zeroed.append(make_plate(p.id, p.sign, p.nodes, g=p.g, mass=mass,
                                 sigma=np.where(keep_k, p.sigma, 0.0)))
        removed.append(make_plate(p.id, p.sign, p.nodes[keep_k], g=p.g[keep_k], mass=mass,
                                  sigma=p.sigma[keep_k]))
        if f.case == CASE1:
            values.append(np.where(locked_k, np.inf, f.case1_values[k]))
        kept.append(keep_k)
        usable_all.append(usable)
    kept = np.concatenate(kept)
    if f.case == CASE1:
        f, f_removed = (FieldSpec(case=CASE1, case1_values=tuple(values)),
                        FieldSpec(case=CASE1, case1_values=tuple(v[k] for v, k in zip(
                            values, np.split(kept, np.cumsum(inputs[1])[:-1])))))
    else:
        f_removed = f
    c_zeroed, c_removed = Condenser(plates=tuple(zeroed)), Condenser(plates=tuple(removed))
    return ((c_zeroed, K, f), (c_removed, K.block(np.flatnonzero(kept)), f_removed),
            kept, np.concatenate(usable_all))


def duality_gap(c, K, f, rep):
    qp = _QP(c, K, f)
    w = rep.minimizer.concat()
    grad = qp.gradient(w)
    return float(grad @ (w - qp.lmo(grad)))


@SETTINGS
@given(zeroed_inputs())
# Plate 0 is cut to its one middle node, and its first node is zeroed and +inf.
@example((("riesz", [3, 2], CASE1, ["free", "degenerate", "free"], 5),
          [[False, True, False], [True, True]], [[True, False, False], [False, True]]))
@example((("log_disk", [4, 3, 2], CASE2, ["tight", "free", "free"], 6),
          [[True, False, True, False], [False, False, True], [True, True]], [[False] * 4,
                                                                           [False] * 3,
                                                                           [False] * 2]))
def test_zero_boxes_are_cut_from_the_solve(inputs):
    (c, K, f), (c_cut, K_cut, f_cut), kept, usable = zeroed_problem(*inputs)
    assume(_pd_gate(K)[0])
    tol = 1e-9
    # The solve runs on the nodes whose box is not [0, 0], and each plate has one.
    qp = _QP(c, K, f, cut=True)
    assert isinstance(qp.on, slice) == usable.all()
    assert qp.sigma.size == np.count_nonzero(usable) and np.all(qp.sigma > 0.0)
    assert all(sl.stop > sl.start for sl in qp.slices)
    if min(sl.stop - sl.start for sl in qp.slices) == 1 < min(p.n_nodes for p in c.plates):
        event("a plate cut to one coordinate")
    g_min = float(qp.g.min())
    for algorithm in ("projected_gradient", "frank_wolfe"):
        cfg = SolverConfig(algorithm=algorithm, grad_tol=tol)
        rep, ref = solve(c, K, f, cfg), solve(c_cut, K_cut, f_cut, cfg)
        assert rep.converged and ref.converged
        w = rep.minimizer.concat()
        assert np.all(w[~usable] == 0.0)
        assert verify_kkt(c, K, f, rep.minimizer, tol).ok
        # Both values lie above the optimum by at most their duality gaps; each
        # multiplier is fixed by the gradient to within what the residual
        # target leaves open, tol / g.
        gaps = duality_gap(c, K, f, rep) + duality_gap(c_cut, K_cut, f_cut, ref)
        assert abs(rep.value - ref.value) <= gaps + 1e-12 * max(1.0, abs(ref.value))
        for tau, tau_ref in zip(rep.multipliers, ref.multipliers, strict=True):
            assert abs(tau - tau_ref) <= gaps + 2.0 * tol / g_min + 1e-12 * max(1.0, abs(tau_ref))
        # The same point in the problem without the zeroed nodes has the same multipliers.
        same = verify_kkt(c_cut, K_cut, f_cut, c_cut.measure(np.split(
            w[kept], np.cumsum([p.n_nodes for p in c_cut.plates])[:-1])), tol)
        assert same.ok
        np.testing.assert_allclose(same.multipliers, rep.multipliers, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# The multipliers bound the value of every neighbouring problem
# ---------------------------------------------------------------------------


def perturbed(c, size, seed):
    """``c`` with each node's sigma moved by up to ``size`` of it and each plate's
    mass by up to ``size / 2`` of its <g, sigma>, then kept within [0, <g, sigma'>];
    and the moves of the masses and of the sigmas."""
    rng = np.random.default_rng(seed)
    plates = []
    for p in c.plates:
        sigma = p.sigma * rng.uniform(1.0 - size, 1.0 + size, p.n_nodes)
        cap = float(p.g @ sigma)
        mass = min(max(p.mass + float(rng.uniform(-0.5, 0.5)) * size * cap, 0.0), cap)
        plates.append(make_plate(p.id, p.sign, p.nodes, g=p.g, mass=mass, sigma=sigma))
    moved = Condenser(plates=tuple(plates))
    return (moved, np.array([q.mass - p.mass for p, q in zip(c.plates, moved.plates)]),
            np.concatenate([q.sigma - p.sigma for p, q in zip(c.plates, moved.plates)]))


# A move of 1e-3 leaves about 50 times the tolerance below to round-off and
# multiplier error, and a move of 0.1 about 1e6 times.
@settings(SETTINGS, max_examples=100)
@given(solve_inputs, st.sampled_from((1e-3, 0.1)), st.integers(min_value=0, max_value=2**32 - 1))
# Binding caps on two free plates.
@example(("riesz", [8, 6], CASE1, ["free", "free", "free"], 3), 1e-3, 0)
# A degenerate plate: tau is the midpoint rule's choice.
@example(("log_disk", [5, 4], CASE2, ["degenerate", "free", "free"], 1), 1e-3, 1)
def test_multipliers_bound_every_neighbouring_value(inputs, size, seed):
    # V(a, sigma) is jointly convex, so with the mass multipliers tau and
    # mu_j = max(0, tau g_j - grad_j) on the coordinates at their cap,
    # V' >= V + sum tau_i da_i - sum mu_j dsigma_j for every feasible (a', sigma').
    # The computed values stand within their duality gaps of the optima.
    c, K, f = solve_problem(*inputs)
    assume(_pd_gate(K)[0])
    moved, d_mass, d_sigma = perturbed(c, size, seed)
    qp = _QP(c, K, f)
    tol = 1e-9
    for algorithm in ("projected_gradient", "frank_wolfe"):
        cfg = SolverConfig(algorithm=algorithm, grad_tol=tol)
        rep, rep_moved = solve(c, K, f, cfg), solve(moved, K, f, cfg)
        assert rep.converged and rep_moved.converged
        w = rep.minimizer.concat()
        grad = qp.gradient(w)
        tau = np.array(rep.multipliers)
        at_cap = w >= qp.room
        mu = np.where(at_cap, np.maximum(0.0, tau[qp.plate_of] * qp.g - grad), 0.0)
        if np.any(mu * d_sigma != 0.0):
            event("a binding cap moved")
        bound = rep.value + float(tau @ d_mass) - float(mu @ d_sigma)
        gaps = duality_gap(c, K, f, rep) + duality_gap(moved, K, f, rep_moved)
        assert rep_moved.value >= bound - gaps - 1e-12 * max(1.0, abs(rep.value))


# ---------------------------------------------------------------------------
# Nested rotational bodies: thinness reads every radius from the largest one
# ---------------------------------------------------------------------------


# The exponent range each profile accepts, cut to keep the bodies small.
PROFILE_EXPONENTS = {"power_s": (0.0, 3.0), "exp_s_le1": (0.05, 1.0), "exp_s_gt1": (1.01, 3.0)}


@st.composite
def nested_bodies(draw):
    profile = draw(st.sampled_from(PROFILES))
    s = draw(st.floats(*PROFILE_EXPONENTS[profile]))
    q = draw(st.floats(0.1, 2.0))
    r = q + draw(st.floats(0.01, 15.0))
    return profile, s, q, r, r + draw(st.floats(0.01, 15.0))


@SETTINGS
@given(nested_bodies())
@example(("power_s", 1.0, 1.0, 4.0, 32.0))
def test_rotational_body_is_a_prefix_of_a_longer_one(body):
    profile, s, q, r, r_max = body
    try:
        short = rotational_body(profile, s, q, r)
    except VequilError:  # every station up to r is below the node floor
        event("empty short body")
        short = np.empty((0, 3))
    try:
        longer = rotational_body(profile, s, q, r_max)
    except VequilError:
        assert short.shape[0] == 0
        return
    assert same_bits(short, longer[: short.shape[0]])
    # thinness_demo counts a radius's nodes in its longest body so.
    assert np.searchsorted(longer[:, 0], r + 1e-12, side="right") == short.shape[0]


# ---------------------------------------------------------------------------
# Mutated committed configs: parsed, or refused with a ConfigError
# ---------------------------------------------------------------------------


COMMITTED_CONFIGS = sorted(path.name for path in CONFIGS.glob("*.json"))
# What a mutation writes in place of a value.  No number exceeds 3, so no
# mutation asks for a large node set.
MUTANTS = (None, True, False, 0, -1, 1, 2, 3, 0.5, 2.5, -0.5, 1e-300, float("nan"), float("inf"),
           "x", "inf", "nan", [], {}, [0.0], [1, 2], [[1.0, 0.0], [0.0]],
           {"generator": "grid"}, {"equilibrium_scale": 2.0})


def small_config(name):
    """A committed config with each generated plate cut to at most 32 nodes."""
    doc = json.loads((CONFIGS / name).read_text())
    for plate in doc["plates"]:
        nodes = plate["nodes"]
        if isinstance(nodes, dict) and "count" in nodes:
            nodes["count"] = min(nodes["count"], 32)
        if isinstance(nodes, dict) and "shape" in nodes:
            nodes["shape"] = [min(s, 3) for s in nodes["shape"]]
    return doc


def doc_paths(node, prefix=()):
    """The key paths to every value below a JSON node."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield prefix + (key,)
            yield from doc_paths(child, prefix + (key,))


def lookup(doc, path):
    """The value of a JSON document at a key path."""
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_configs(draw):
    doc = small_config(draw(st.sampled_from(COMMITTED_CONFIGS)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        paths = list(doc_paths(doc))
        if not paths:
            break
        *head, key = draw(st.sampled_from(paths))
        parent = lookup(doc, head)
        mutant = draw(st.sampled_from(("delete",) + MUTANTS))
        if mutant == "delete":
            del parent[key]
        else:
            parent[key] = copy.deepcopy(mutant)
    return doc


@settings(SETTINGS, max_examples=300)
@given(mutated_configs())
def test_mutated_config_parses_or_is_a_config_error(doc):
    try:
        parse_config(doc)
    except ConfigError:
        event("ConfigError")
    else:
        event("parsed")


# Keys that no config object reads, several of them near misses of one that does.
UNKNOWN_KEYS = ("epsilom", "gg", "solvr", "plat", "sigma_scale", "target", "x", "Sign")


def json_path(keys) -> str:
    """A key path in the form a ConfigError names it, such as ``plates[0].nodes``."""
    path = ""
    for key in keys:
        path += f"[{key}]" if isinstance(key, int) else f".{key}" if path else key
    return path


# Every JSON object of every committed config, as (config name, key path).
CONFIG_OBJECTS = [(name, path) for name in COMMITTED_CONFIGS for doc in [small_config(name)]
                  for path in [(), *doc_paths(doc)] if isinstance(lookup(doc, path), dict)]


@pytest.mark.parametrize("name, at", CONFIG_OBJECTS,
                         ids=[f"{name}:{json_path(at) or 'top'}" for name, at in CONFIG_OBJECTS])
@settings(SETTINGS, max_examples=4)
@given(key=st.sampled_from(UNKNOWN_KEYS), value=st.sampled_from(MUTANTS))
def test_unknown_key_is_refused_at_its_path(name, at, key, value):
    doc = small_config(name)
    lookup(doc, at)[key] = copy.deepcopy(value)
    with pytest.raises(ConfigError) as refused:
        parse_config(doc)
    assert str(refused.value).startswith(f"{json_path(at + (key,))}: ")


# Every number of every committed config, as (config name, key path).
CONFIG_NUMBERS = [(name, path) for name in COMMITTED_CONFIGS for doc in [small_config(name)]
                  for path in doc_paths(doc) if type(lookup(doc, path)) in (int, float)]


@pytest.mark.parametrize("name, at", CONFIG_NUMBERS,
                         ids=[f"{name}:{json_path(at)}" for name, at in CONFIG_NUMBERS])
def test_true_in_place_of_a_number_is_refused_at_its_path(name, at):
    doc = small_config(name)
    *head, key = at
    lookup(doc, head)[key] = True
    with pytest.raises(ConfigError) as refused:
        parse_config(doc)
    assert str(refused.value).startswith(f"{json_path(at)}: ")
