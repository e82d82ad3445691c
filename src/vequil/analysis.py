"""Potential-theory operations: equilibrium measures, balayage, experiments.

The capacity of a node set is read off its unit-mass energy minimizer (the
discrete Robin problem); balayage is the energy-metric projection of a
nonnegative measure onto the cone of nonnegative measures on a target node
set.  The two experiment drivers reproduce the structural behavior of the
constrained problem: value continuity under exhaustion of the node sets, and
the bounded-vs-divergent capacity dichotomy of thinning rotational bodies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .condenser import (
    CASE1,
    CASE2,
    Condenser,
    FieldSpec,
    Plate,
    ScalarSignedMeasure,
    _merge_points,
    check_feasibility,
    condenser_gram,
    semimetric_distance,
    zero_field,
)
from .errors import DimensionMismatch, NotPositiveDefinite, VequilError
from .geometry import fibonacci_sphere, rotational_body
from .kernels import (
    GramMatrix,
    KernelSpec,
    _pd_gate,
    assemble_gram,
    check_positive_definite,
    resolve_epsilon,
)
from .solver import Problem, SolverConfig, solve, verify_kkt


# ---------------------------------------------------------------------------
# Equilibrium measure and capacity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquilibriumReport:
    """Unit-mass minimizer, Robin constant, capacity, and potential check."""

    unit_minimizer: np.ndarray
    robin_constant: float
    capacity: float
    frostman_violation: float
    frostman_tol: float
    kkt_residual: float
    converged: bool


def equilibrium(nodes, K: GramMatrix, frostman_tol: float | None = None,
                config: SolverConfig | None = None) -> EquilibriumReport:
    """Minimize ``nu' K nu`` over probability weight vectors on the nodes.

    The minimal value is the Robin constant W, the capacity is 1/W, and the
    potential of the minimizer must reach W at every node (with equality on
    the support): the violation reported is ``max(W - K nu)``.

    This is a single-plate instance of the constrained solver with unit g
    and mass; the box cap 1 is never binding because the weights sum to 1.
    The Gram must be strictly positive definite: ``K - pd_tol*I`` must have a
    Cholesky factor, ``pd_tol = 1e-10 * lambda_max``.

    When ``K u = 1`` has a positive solution, the minimizer is ``u / sum(u)``:
    the KKT conditions hold with zero bound multipliers.  ``u`` is solved
    with the PD gate's factor of ``K - pd_tol*I`` and one refinement step
    with ``K`` itself, which contracts the error by
    ``pd_tol / (lambda_min - pd_tol) < 1``; :func:`verify_kkt` then certifies
    it at ``grad_tol``, and ``converged`` is that certificate.  When some
    ``u_i <= 0`` the constrained solver (:func:`solve`) runs instead.
    """
    if not _pd_gate(K)[1]:
        pd = check_positive_definite(K)
        raise NotPositiveDefinite(
            f"equilibrium needs a strictly PD Gram (min eigenvalue {pd.min_eigenvalue:.3e})"
        )
    n = K.size
    plate = Plate(id=0, sign=1, nodes=K.nodes if K.nodes is not None else np.asarray(nodes, float),
                  g=np.ones(n), mass=1.0, sigma=np.ones(n))
    c = Condenser(plates=(plate,))
    f = zero_field(c)
    cfg = config or SolverConfig(grad_tol=1e-10)
    factor = K._cache["cholesky"]
    ones = np.ones(n)
    u = scipy.linalg.cho_solve(factor, ones, check_finite=False)
    u += scipy.linalg.cho_solve(factor, ones - K.entries @ u, check_finite=False)
    if u.min() > 0.0:
        nu = u / u.sum()
        potential = K.entries @ nu
        W = float(nu @ potential)
        kkt = verify_kkt(c, K, f, c.measure([nu]), cfg.grad_tol)
        resid, converged = kkt.max_residual, kkt.ok
    else:
        rep = solve(c, K, f, cfg)
        nu = rep.minimizer.weights[0]
        potential = K.entries @ nu
        W, resid, converged = rep.value, rep.kkt_residual, rep.converged
    violation = float((W - potential).max())
    tol = frostman_tol if frostman_tol is not None else 1e-6 * W
    return EquilibriumReport(
        unit_minimizer=nu,
        robin_constant=float(W),
        capacity=1.0 / float(W),
        frostman_violation=violation,
        frostman_tol=float(tol),
        kkt_residual=resid,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Balayage (sweeping) onto a node set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BalayageReport:
    """Swept weights on the target plus the KKT and mass diagnostics."""

    swept: np.ndarray
    potential_residual: float
    mass_ratio: float
    swept_energy: float
    source_energy: float


def _check_same_dimension(*point_sets: np.ndarray) -> None:
    dims = sorted({pts.shape[1] for pts in point_sets})
    if len(dims) > 1:
        raise DimensionMismatch(f"balayage points differ in dimension: {dims}")


def balayage_gram(spec: KernelSpec, source: ScalarSignedMeasure, target_nodes) -> GramMatrix:
    """Joint Gram over target and source points for :func:`balayage`.

    The target nodes take the first rows, in order; source points that do
    not coincide with a target node follow.  Coincident target/source
    coordinates share a row.
    """
    target = np.atleast_2d(np.asarray(target_nodes, dtype=float))
    _check_same_dimension(target, source.support)
    joint = np.vstack([target, source.support])
    first, inverse = _merge_points(joint)
    n_t = target.shape[0]
    if not np.array_equal(inverse[:n_t], np.arange(n_t)):
        raise VequilError("balayage target nodes must be distinct")
    return assemble_gram(spec, joint[first])


def balayage(source: ScalarSignedMeasure, target_nodes, K_joint: GramMatrix,
             tol: float = 1e-9) -> BalayageReport:
    """Sweep a nonnegative measure onto a target node set.

    Minimizes the energy-metric distance to the source over nonnegative
    weights on the target.  The rows of ``K_joint`` that hold the target
    nodes and the source points are found by merging those points with
    ``K_joint.nodes``; a point that is not a node of ``K_joint`` is an
    error.  The optimality contract is the discrete balayage
    property: the swept potential dominates the source potential on the
    target, with equality where the swept measure is charged; the maximum
    violation is reported as ``potential_residual``.

    The joint Gram is factored once by Cholesky, target rows first (a
    refusal raises :class:`NotPositiveDefinite`).  The target block of that
    factor solves the normal equations ``K_tt beta = (K omega)_t``; when
    every weight comes out nonnegative this is the constrained optimum (the
    KKT conditions hold with zero multipliers).  Only when some weight is
    negative does ``scipy.optimize.nnls`` solve the least-squares form
    ``min |L' (emb - omega)|`` over ``beta >= 0``.  A source that lies
    wholly on target nodes is returned as it is, the exact optimum with
    residual 0, without either solve.
    """
    if np.any(source.weights < 0.0):
        raise VequilError("balayage source must be nonnegative")
    if source.total <= 0.0:
        raise VequilError("balayage source must carry positive mass")
    target = np.atleast_2d(np.asarray(target_nodes, dtype=float))
    n_t = target.shape[0]
    if K_joint.nodes is None:
        raise VequilError("balayage needs a joint Gram that records its nodes")
    n = K_joint.size
    _check_same_dimension(K_joint.nodes, target, source.support)
    first, inverse = _merge_points(np.vstack([K_joint.nodes, target, source.support]))
    rows = first[inverse[n:]]
    if np.any(rows >= n):
        raise VequilError("balayage target and source points must be nodes of the joint Gram")
    rows_t, rows_s = rows[:n_t], rows[n_t:]
    if np.unique(rows_t).size < n_t:
        raise VequilError("balayage target nodes must be distinct")
    # Target rows first, so the factor's leading block is that of K_tt.
    order = np.concatenate([rows_t, np.setdiff1d(np.arange(n), rows_t, assume_unique=True)])
    K = _sub_gram(K_joint, order).entries
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"joint Gram is not strictly PD: {exc}") from exc
    omega = np.zeros(n)
    np.add.at(omega, rows_s, source.weights)
    omega = omega[order]
    K_omega = K @ omega
    if not omega[n_t:].any():
        beta = omega[:n_t]  # the source lies on the target: it is its own sweep
    else:
        beta = scipy.linalg.cho_solve((L[:n_t, :n_t], True), K_omega[:n_t])
        if np.any(beta < 0.0):
            beta, _ = scipy.optimize.nnls(L.T[:, :n_t], L.T @ omega, maxiter=max(200, 50 * n_t))
    emb = np.zeros(n)
    emb[:n_t] = beta
    K_emb = K @ emb
    diff_potential = K_emb[:n_t] - K_omega[:n_t]
    charged = beta > 0.0
    violation = 0.0
    if charged.any():
        violation = float(np.abs(diff_potential[charged]).max())
    if (~charged).any():
        violation = max(violation, float(np.maximum(0.0, -diff_potential[~charged]).max()))
    swept_energy = float(np.sqrt(max(0.0, emb @ K_emb)))
    source_energy = float(np.sqrt(max(0.0, omega @ K_omega)))
    return BalayageReport(
        swept=beta,
        potential_residual=violation,
        mass_ratio=float(beta.sum()) / source.total,
        swept_energy=swept_energy,
        source_energy=source_energy,
    )


def green_gram(spec: KernelSpec, inner_nodes, screen_nodes) -> GramMatrix:
    """Gram of the kernel screened by a node set, via linear sweeping.

    The screened kernel is ``kappa(x, y) - kappa(x, swept delta_y)`` with the
    sweep onto the screen nodes; on a joint Gram this is exactly the Schur
    complement of the screen block.  Inner and screen nodes must be disjoint.
    """
    inner = np.asarray(inner_nodes, dtype=float)
    screen = np.asarray(screen_nodes, dtype=float)
    n_i = inner.shape[0]
    joint = assemble_gram(spec, np.vstack([inner, screen]))
    A = joint.entries[:n_i, :n_i]
    B = joint.entries[:n_i, n_i:]
    C = joint.entries[n_i:, n_i:]
    try:
        cho = scipy.linalg.cho_factor(C, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"screen block is not strictly PD: {exc}") from exc
    S = A - B @ scipy.linalg.cho_solve(cho, B.T)
    S = 0.5 * (S + S.T)  # exactly symmetric: IEEE addition commutes
    return GramMatrix._assembled(S, nodes=inner)


# ---------------------------------------------------------------------------
# Exhaustion experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExhaustionStage:
    node_fraction: float
    sigma_scale: float
    feasible: bool
    value: float
    semimetric_gap: float
    converged: bool


@dataclass(frozen=True)
class ExhaustionTrace:
    stages: tuple
    full_value: float
    full_converged: bool

    def values_monotone(self, tol: float = 1e-8) -> bool:
        vals = [st.value for st in self.stages if st.feasible]
        return all(vals[k + 1] <= vals[k] + tol for k in range(len(vals) - 1))


def _sub_gram(K: GramMatrix, rows: np.ndarray) -> GramMatrix:
    """The principal block of ``K`` on ``rows``; ``K`` itself when that is all of it.

    Returning ``K`` keeps its cached Lanczos and Cholesky results.
    """
    if np.array_equal(rows, np.arange(K.size)):
        return K
    return GramMatrix._assembled(K.entries[np.ix_(rows, rows)], spec=K.spec,
                                 nodes=None if K.nodes is None else K.nodes[rows])


def exhaustion_experiment(problem: Problem, node_fractions, sigma_scales=None) -> ExhaustionTrace:
    """Solve truncations of a problem on growing head-portions of the plates.

    Stage ``k`` keeps the first ``ceil(fraction * m)`` nodes of each plate
    and scales the truncated constraint by ``sigma_scales[k]`` (headroom
    factors > 1 can restore feasibility of tight constraints on small
    truncations; stages that are still infeasible are recorded and skipped).
    Each stage records its value and the semimetric gap to the full-problem
    minimizer; ``full_converged`` records whether that full solve, the source
    of ``full_value`` and of every gap, reached its tolerance.
    """
    fractions = [float(t) for t in node_fractions]
    scales = [1.0] * len(fractions) if sigma_scales is None else [float(b) for b in sigma_scales]
    if len(scales) != len(fractions):
        raise VequilError("node_fractions and sigma_scales must have equal length")
    if any(not 0.0 < t <= 1.0 for t in fractions):
        raise VequilError("node fractions must lie in (0, 1]")
    c, K, f, cfg = problem.condenser, problem.gram, problem.field, problem.config
    full = solve(c, K, f, cfg)
    slices = c.slices()
    stages = []
    for frac, beta in zip(fractions, scales):
        if frac == 1.0 and beta == 1.0:
            # The full problem itself: same condenser, Gram, field and config.
            stages.append(ExhaustionStage(node_fraction=frac, sigma_scale=beta, feasible=True,
                                          value=full.value, semimetric_gap=0.0,
                                          converged=full.converged))
            continue
        keep_counts = [max(1, int(np.ceil(frac * p.n_nodes))) for p in c.plates]
        idx = np.concatenate(
            [np.arange(sl.start, sl.start + m) for sl, m in zip(slices, keep_counts)]
        )
        plates_sub = tuple(
            Plate(id=p.id, sign=p.sign, nodes=p.nodes[:m], g=p.g[:m],
                  mass=p.mass, sigma=beta * p.sigma[:m])
            for p, m in zip(c.plates, keep_counts)
        )
        c_sub = Condenser(plates=plates_sub)
        K_sub = _sub_gram(K, idx)
        if f.case == CASE1:
            f_sub = FieldSpec(case=CASE1, case1_values=tuple(
                v[:m] for v, m in zip(f.case1_values, keep_counts)))
        else:
            f_sub = f
        if not check_feasibility(c_sub, f_sub).feasible:
            stages.append(ExhaustionStage(node_fraction=frac, sigma_scale=beta, feasible=False,
                                          value=float("nan"), semimetric_gap=float("nan"),
                                          converged=False))
            continue
        rep = solve(c_sub, K_sub, f_sub, cfg)
        embedded = []
        for p, m, w in zip(c.plates, keep_counts, rep.minimizer.weights):
            wide = np.zeros(p.n_nodes)
            wide[:m] = w
            embedded.append(wide)
        gap = semimetric_distance(c, K, c.measure(embedded), full.minimizer)
        stages.append(ExhaustionStage(node_fraction=frac, sigma_scale=beta, feasible=True,
                                      value=rep.value, semimetric_gap=gap,
                                      converged=rep.converged))
    return ExhaustionTrace(stages=tuple(stages), full_value=full.value,
                           full_converged=full.converged)


# ---------------------------------------------------------------------------
# Thinning-tail demo
# ---------------------------------------------------------------------------

_THINNESS_NOTE = (
    "Capacity trend at finite truncation radii and resolution: a bounded "
    "sequence indicates finite capacity of the full body, a steadily growing "
    "one indicates capacity divergence.  Non-solvability of the constrained "
    "problem itself is not certified: at finite resolution a slowly escaping "
    "minimizing sequence and slow convergence are indistinguishable."
)


@dataclass(frozen=True)
class ThinnessStage:
    radius: float
    n_body_nodes: int
    capacity: float
    minimizer_mass_center: float
    gap_to_balayage_candidate: float
    swept_mass: float
    converged: bool


@dataclass(frozen=True)
class ThinnessReport:
    profile: str
    s: float
    stages: tuple
    note: str = _THINNESS_NOTE

    def capacity_increments(self) -> list[float]:
        caps = [st.capacity for st in self.stages]
        return [caps[k + 1] - caps[k] for k in range(len(caps) - 1)]


def _annulus_allowance(nodes2: np.ndarray, deficit: float, q: float) -> np.ndarray:
    """Uniform probability tail measures on up to three axial annuli."""
    allowance = np.zeros(nodes2.shape[0])
    if deficit <= 0.0:
        return allowance
    x1 = nodes2[:, 0]
    hi = float(x1.max())
    edges = np.linspace(q, hi, 4)
    edges[-1] = hi + 1.0
    for k in range(3):
        mask = (x1 >= edges[k]) & (x1 < edges[k + 1])
        if mask.any():
            allowance[mask] += deficit / float(mask.sum())
    return allowance


def thinness_demo(
    profile: str,
    s: float,
    truncation_radii,
    *,
    q: float = 1.0,
    include_gap: bool = True,
    capacity_config: SolverConfig | None = None,
    solve_config: SolverConfig | None = None,
    body_kwargs: dict | None = None,
    anchor_nodes=None,
    source_nodes=None,
    balayage_tol: float = 1e-8,
) -> ThinnessReport:
    """Capacity growth and balayage-candidate gap for a thinning body.

    For each truncation radius the rotational body is discretized (node sets
    are nested across radii, under one kernel regularization fixed by the
    largest radius), its capacity computed, and a two-plate charge problem
    solved: a fixed compact positive plate holding the trace of a screened
    equilibrium measure against the body as the negative plate, driven by
    the potential of the remaining trace.  The reported gap is the
    semimetric distance between the solved minimizer and the swept
    candidate; the constraint on the body is the swept measure plus uniform
    annulus allowances absorbing any mass lost by the sweep.
    """
    radii = sorted(float(r) for r in truncation_radii)
    if not radii:
        raise VequilError("need at least one truncation radius")
    body_kwargs = dict(body_kwargs or {})
    anchor = (np.asarray(anchor_nodes, dtype=float) if anchor_nodes is not None
              else fibonacci_sphere(48, radius=0.6, center=(-2.5, 0.0, 0.0)))
    src = (np.asarray(source_nodes, dtype=float) if source_nodes is not None
           else fibonacci_sphere(32, radius=0.4, center=(-5.0, 0.0, 0.0)))
    body_full = rotational_body(profile, s, q, radii[-1], **body_kwargs)
    spec = resolve_epsilon(KernelSpec("newtonian"),
                           np.vstack([anchor, src, body_full]))
    cap_cfg = capacity_config or SolverConfig(grad_tol=1e-9)
    cfg = solve_config or SolverConfig(grad_tol=1e-9)
    stages = []
    for r in radii:
        nodes2 = rotational_body(profile, s, q, r, **body_kwargs)
        K2 = assemble_gram(spec, nodes2)
        eq = equilibrium(nodes2, K2, config=cap_cfg)
        mass_center = float("nan")
        gap = float("nan")
        swept_mass = float("nan")
        converged = eq.converged
        if include_gap:
            inner = np.vstack([anchor, src])
            Gg = green_gram(spec, inner, nodes2)
            eq_g = equilibrium(inner, Gg, config=cap_cfg)
            theta = eq_g.unit_minimizer
            theta_anchor = theta[: anchor.shape[0]]
            theta_src = theta[anchor.shape[0]:]
            # dot with ones matches the feasibility check's reduction order
            a1 = float(np.ones(theta_anchor.shape[0]) @ theta_anchor)
            if a1 <= 1e-12:
                raise VequilError("screened equilibrium places no mass on the anchor plate")
            theta_measure = ScalarSignedMeasure(support=inner, weights=theta)
            Kj = balayage_gram(spec, theta_measure, nodes2)
            bal = balayage(theta_measure, nodes2, Kj, tol=balayage_tol)
            swept_mass = float(bal.swept.sum())
            deficit = max(0.0, 1.0 - swept_mass)
            sigma2 = bal.swept + _annulus_allowance(nodes2, deficit, q)
            plate1 = Plate(id=0, sign=1, nodes=anchor, g=np.ones(anchor.shape[0]),
                           mass=a1, sigma=theta_anchor)
            plate2 = Plate(id=1, sign=-1, nodes=nodes2, g=np.ones(nodes2.shape[0]),
                           mass=1.0, sigma=sigma2)
            cond = Condenser(plates=(plate1, plate2))
            Kc = condenser_gram(spec, cond)
            zeta = ScalarSignedMeasure(support=src, weights=theta_src)
            field = FieldSpec(case=CASE2, case2_zeta=zeta)
            rep = solve(cond, Kc, field, cfg)
            candidate = cond.measure([theta_anchor, bal.swept])
            gap = semimetric_distance(cond, Kc, rep.minimizer, candidate)
            w2 = rep.minimizer.weights[1]
            mass_center = float(w2 @ nodes2[:, 0] / w2.sum())
            converged = converged and rep.converged
        stages.append(ThinnessStage(radius=r, n_body_nodes=nodes2.shape[0],
                                    capacity=eq.capacity, minimizer_mass_center=mass_center,
                                    gap_to_balayage_candidate=gap, swept_mass=swept_mass,
                                    converged=converged))
    return ThinnessReport(profile=profile, s=float(s), stages=tuple(stages))
