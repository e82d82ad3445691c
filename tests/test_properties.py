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
eigenvalue with a dense symmetric eigensolver, and the solver's carried
matvec with a fresh gradient.
"""

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
    InfeasibleProblem,
    KernelDomainError,
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
from vequil import analysis
from vequil.analysis import balayage, balayage_gram, equilibrium
from vequil.condenser import CASE1, zero_field
from vequil.geometry import fibonacci_sphere
from vequil.kernels import _ASSEMBLY_BLOCK, _pd_gate, _sq_dist_blocks
from vequil.solver import _QP, SolverConfig, _knapsack_vertex, _simplex_qp, solve, verify_kkt

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


@st.composite
def balayage_inputs(draw):
    target = distinct(draw(lattice_points(3)))
    return draw(scalar_measures(3)), target


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
@given(balayage_inputs())
def test_balayage_gram_shares_coincident_rows(inputs):
    source, target = inputs
    spec = KernelSpec("riesz", alpha=1.0, epsilon=0.2)
    rows, source_rows = oracle_balayage_rows(source, target)
    joint = balayage_gram(spec, source, target)
    assert same_bits(joint.nodes, rows)
    assert same_bits(joint.entries, assemble_gram(spec, rows).entries)
    # Each source point owns exactly one row: the target's row when it lies
    # on the target (-0.0 == +0.0 here), a row after the target otherwise.
    for pt, row in zip(source.support, source_rows):
        assert np.flatnonzero((joint.nodes == pt).all(axis=1)).tolist() == [row]


@SETTINGS
@given(point_sets)
def test_balayage_gram_rejects_iff_target_duplicate(points):
    source = ScalarSignedMeasure(support=np.full((1, points.shape[1]), 7.0), weights=[1.0])
    spec = KernelSpec("riesz", alpha=0.5, epsilon=0.2)
    if oracle_has_duplicate(points):
        with pytest.raises(VequilError, match="target nodes must be distinct"):
            balayage_gram(spec, source, points)
    else:
        balayage_gram(spec, source, points)


def oracle_nnls_balayage(source, target, joint):
    """The sweep with NNLS on every input: ``min |L'(emb - omega)|`` over
    ``beta >= 0`` for the Cholesky factor L of the target-first joint Gram."""
    K = joint.entries
    n_t = len(target)
    _, source_rows = oracle_balayage_rows(source, target)
    L = np.linalg.cholesky(K)
    omega = np.zeros(K.shape[0])
    np.add.at(omega, source_rows, source.weights)
    beta, _ = scipy.optimize.nnls(L.T[:, :n_t], L.T @ omega, maxiter=max(200, 50 * n_t))
    emb = np.zeros(K.shape[0])
    emb[:n_t] = beta
    return (beta, float(beta.sum()) / source.total, float(np.sqrt(max(0.0, emb @ (K @ emb)))),
            float(np.sqrt(max(0.0, omega @ (K @ omega)))))


# (kernel, target size, source size, source points on the target, height of
# the other source points, seed).  Targets are jittered points of a 5x5x5
# lattice of spacing 0.5, so the joint Gram stays well conditioned.  When
# every source point lies on a target node, the source is returned as its own
# sweep, with neither the Cholesky solve nor NNLS; otherwise the unconstrained
# weights come out positive and the Cholesky solve answers.  NNLS runs only on
# negative unconstrained weights, which these inputs do not produce
# (tests/test_analysis.py pins that branch).  The first explicit example takes
# the shortcut, the second the Cholesky solve.
sweep_inputs = st.tuples(
    st.sampled_from(("newtonian", "riesz")),
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.sampled_from((0.0, 1.5, 5.0)),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def sweep_problem(family, n_t, k, k_on, height, seed):
    rng = np.random.default_rng(seed)
    lattice = np.stack(np.meshgrid(*[np.arange(5) * 0.5 - 1.0] * 3), axis=-1).reshape(-1, 3)
    target = lattice[rng.choice(len(lattice), n_t, replace=False)]
    target = target + rng.uniform(-0.1, 0.1, target.shape)
    k_on = min(k_on, k, n_t)
    off = rng.uniform(-1.0, 1.0, (k - k_on, 3)) + [0.0, 0.0, height]
    support = np.vstack([target[rng.choice(n_t, k_on, replace=False)], off])
    weights = rng.uniform(0.0, 1.0, k)
    weights[0] += 0.1
    alpha = 1.5 if family == "riesz" else None
    source = ScalarSignedMeasure(support=support, weights=weights)
    return KernelSpec(family, alpha=alpha, epsilon=0.15), source, target


@SETTINGS
@given(sweep_inputs)
@example(("newtonian", 20, 1, 2, 0.0, 558))
@example(("riesz", 12, 3, 1, 5.0, 2))
def test_balayage_matches_nnls_oracle(inputs):
    spec, source, target = sweep_problem(*inputs)
    joint = balayage_gram(spec, source, target)
    with mock.patch.object(scipy.optimize, "nnls", wraps=scipy.optimize.nnls) as nnls, \
            mock.patch.object(scipy.linalg, "cho_solve", wraps=scipy.linalg.cho_solve) as cholesky:
        rep = balayage(source, target, joint)
    event("nnls" if nnls.called else "cholesky" if cholesky.called else "source on target")
    beta, mass_ratio, swept_energy, source_energy = oracle_nnls_balayage(source, target, joint)
    assert np.all(rep.swept >= 0.0)
    assert np.abs(rep.swept - beta).max() <= 1e-10 * max(1.0, float(beta.max()))
    for got, want in ((rep.mass_ratio, mass_ratio), (rep.swept_energy, swept_energy),
                      (rep.source_energy, source_energy)):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert rep.potential_residual <= 1e-9


def test_source_on_target_is_its_own_sweep():
    spec, source, target = sweep_problem("newtonian", 20, 3, 3, 0.0, 558)
    joint = balayage_gram(spec, source, target)

    def refuse(*args, **kwargs):
        raise AssertionError("a solve ran although the source lies on the target")

    with mock.patch.object(scipy.optimize, "nnls", refuse), \
            mock.patch.object(scipy.linalg, "cho_solve", refuse):
        rep = balayage(source, target, joint)
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
    G = assemble_gram(spec, pts)
    assert same_bits(G.entries, G.entries.T)


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


@SETTINGS
@given(two_pass_inputs())
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
    # The family code as it stood before assembly went in place.
    r2 = d2 + eps * eps
    if spec.family == "log_disk":
        expected = -0.5 * np.log(r2)
    else:
        expected = r2 ** ((float(spec.alpha) - n) / 2.0)
    assert same_bits(G.entries, expected)
    assert same_bits(cross_kernel(G.spec, pts, pts), G.entries)
    for p, q in ((0, -1), (-1, 0), (len(pts) // 2, 0)):
        assert same_bits(evaluate_kernel(G.spec, pts[p], pts[q]), G.entries[p, q])


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
@example((2, 1.0, -1e12, 5))
def test_lambda_max_matches_dense_eigensolver(spectrum):
    G = gram_with_spectrum(*spectrum)
    vals = np.linalg.eigvalsh(G.entries)
    assert abs(G.lambda_max() - vals[-1]) <= 1e-12 * np.abs(vals).max()


def test_lambda_max_of_assembled_gram():
    G = assemble_gram(KernelSpec("newtonian"), fibonacci_sphere(400, radius=1.3))
    hi = np.linalg.eigvalsh(G.entries)[-1]
    assert abs(G.lambda_max() - hi) <= 1e-12 * hi


@SETTINGS
@given(condensers_with_measures())
def test_carried_gradient_is_a_fresh_gradient(cm):
    c, mu = cm
    K = condenser_gram(KernelSpec("riesz", alpha=0.5, epsilon=0.3), c)
    qp = _QP(c, K, FieldSpec(case=CASE1, case1_values=mu.weights))
    w = mu.concat()
    Kz = qp.product(w)
    # The expressions the objective and the gradient used before the carry.
    s = qp.signs
    fresh_grad = 2.0 * (s * (K.entries @ (s * w)) + qp.q)
    fresh_value = float((s * w) @ (K.entries @ (s * w))) + 2.0 * float(qp.q @ w)
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


# (atoms k, rank of the atoms' Gram, warm start, seed); a rank below k makes
# the atoms linearly dependent, and a uniform warm start then puts dependent
# atoms on the first working support.  As in Frank-Wolfe, the linear term is
# b_i = <q, v_i> for the atoms v_i (the rows of V), so it lies in the range
# of Q = V V' and the QP is bounded below on every support.
simplex_inputs = st.integers(min_value=1, max_value=12).flatmap(lambda k: st.tuples(
    st.just(k),
    st.integers(min_value=0, max_value=k),
    st.one_of(st.just(-1), st.integers(min_value=0, max_value=k - 1)),
    st.integers(min_value=0, max_value=2**32 - 1),
))


def simplex_problem(k, rank, start, seed):
    """``Q = V V'`` with ``V`` of the given rank, ``b = V q`` and a feasible warm start."""
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(k, rank)) @ rng.normal(size=(rank, k + 2))
    Q = V @ V.T
    b = V @ rng.normal(size=k + 2)
    warm = np.full(k, 1.0 / k) if start < 0 else np.eye(k)[start]
    return Q, b, warm


def simplex_objective(Q, b, x):
    return float(x @ Q @ x) + 2.0 * float(b @ x)


@SETTINGS
@given(simplex_inputs)
@example((4, 4, -1, 0))
@example((5, 2, -1, 1))
@example((3, 0, -1, 2))
@example((12, 12, 0, 3))
@example((12, 5, -1, 4))
def test_simplex_qp_matches_least_squares_oracle(inputs):
    Q, b, warm = simplex_problem(*inputs)
    x = _simplex_qp(Q, b, warm)
    ref = oracle_simplex_qp(Q, b, warm)
    assert np.all(x >= 0.0) and abs(x.sum() - 1.0) <= 1e-12
    f, f_ref = simplex_objective(Q, b, x), simplex_objective(Q, b, ref)
    assert abs(f - f_ref) <= 1e-12 * max(1.0, abs(f_ref))
    # Simplex KKT: the gradient is smallest, and constant, on the support.
    scale = max(1.0, float(np.abs(Q).max()), float(np.abs(b).max()))
    grad = 2.0 * (Q @ x + b)
    lam = float(grad.min())
    assert float(grad[x > 0.0].max()) - lam <= 1e-12 * scale


def test_simplex_qp_dependent_atoms_use_least_squares(monkeypatch):
    # The third atom is the sum of the first two: their Gram has rank 2 and
    # no Cholesky factor.
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    V = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    Q = V @ V.T
    b = V @ np.array([0.3, -0.2])
    x = _simplex_qp(Q, b, np.full(3, 1.0 / 3.0))
    ref = oracle_simplex_qp(Q, b, np.full(3, 1.0 / 3.0))
    assert calls and calls[0] == 4
    assert np.all(x >= 0.0) and abs(x.sum() - 1.0) <= 1e-12
    assert abs(simplex_objective(Q, b, x) - simplex_objective(Q, b, ref)) <= 1e-12


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
