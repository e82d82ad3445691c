"""Potential-theory operations: equilibrium measures, balayage, experiments.

The capacity of a node set is read off its unit-mass energy minimizer (the
discrete Robin problem); balayage is the energy-metric projection of a
nonnegative measure onto the cone of nonnegative measures on a target node
set, computed from the Gram over the target nodes and the source rows
alone.  The two experiment drivers reproduce the structural behavior of the
constrained problem: value continuity under exhaustion of the node sets, and
the bounded-vs-divergent capacity dichotomy of thinning rotational bodies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .condenser import (
    CASE2,
    Condenser,
    FieldSpec,
    Plate,
    ScalarSignedMeasure,
    _merge_points,
    check_feasibility,
    semimetric_distance,
    zero_field,
)
from .errors import DimensionMismatch, NotPositiveDefinite, VequilError
from .geometry import fibonacci_sphere, rotational_body
from .kernels import (
    GramMatrix,
    KernelSpec,
    _not_pd,
    _pd_gate,
    _pd_tol,
    assemble_gram,
    cross_kernel,
)
from .solver import Problem, SolverConfig, _certificate, solve


# ---------------------------------------------------------------------------
# Equilibrium measure and capacity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquilibriumReport:
    """Unit-mass minimizer, Robin constant, capacity, and potential check."""

    capacity: float
    robin_constant: float
    frostman_violation: float
    frostman_tol: float
    kkt_residual: float
    converged: bool
    unit_minimizer: np.ndarray


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
    the KKT conditions hold with zero bound multipliers.  ``u`` is
    :meth:`GramMatrix.solve` at ``shift = -pd_tol``: the PD gate's kept factor
    and one refinement step with ``K``.  Then :func:`verify_kkt`'s certificate
    of ``u / sum(u)`` at ``grad_tol``, from the potential's product (the zero
    field's gradient is ``2 K nu``), is ``converged``.  When some ``u_i <= 0``
    the constrained solver (:func:`solve`) runs instead.  Working memory is the
    Gram plus O(N) vectors.
    """
    n = K.size
    u = K.solve(np.ones(n), -_pd_tol(K)) if _pd_gate(K)[1] else None
    if u is None:
        raise _not_pd(K, "-", "equilibrium needs a strictly PD Gram")
    plate = Plate(id=0, sign=1, nodes=K.nodes if K.nodes is not None else np.asarray(nodes, float),
                  g=np.ones(n), mass=1.0, sigma=np.ones(n))
    c = Condenser(plates=(plate,))
    f = zero_field(c)
    cfg = config or SolverConfig(grad_tol=1e-10)
    if u.min() > 0.0:
        nu = u / u.sum()
        potential = K.matvec(nu)
        W = float(nu @ potential)
        kkt = _certificate(c, K, f, nu, cfg.grad_tol, potential)
        resid, converged = kkt.max_residual, kkt.ok
    else:
        rep = solve(c, K, f, cfg)
        nu = rep.minimizer.weights[0]
        potential = K.matvec(nu)
        W, resid, converged = rep.value, rep.kkt_residual, rep.converged
    violation = float((W - potential).max())
    tol = frostman_tol if frostman_tol is not None else 1e-6 * W
    return EquilibriumReport(
        capacity=1.0 / float(W),
        robin_constant=float(W),
        frostman_violation=violation,
        frostman_tol=float(tol),
        kkt_residual=resid,
        converged=converged,
        unit_minimizer=nu,
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


def balayage(source: ScalarSignedMeasure, target_gram: GramMatrix) -> BalayageReport:
    """Sweep a nonnegative measure onto the nodes of a target Gram.

    Minimizes the energy-metric distance to the source over nonnegative
    weights on ``target_gram.nodes``.  The optimality contract is the
    discrete balayage property: the swept potential dominates the source
    potential on the target, with equality where the swept measure is
    charged; the maximum violation is reported as ``potential_residual``.

    Only the target block ``K_tt`` and the source potential on the target,
    ``(K omega)_t``, enter :func:`_swept`.  The source rows come from
    :func:`cross_kernel` under the Gram's spec, so a source point on a node
    gets that node's Gram row bit for bit.  A source that lies wholly on
    target nodes is returned as it is, the exact optimum with residual 0,
    without factoring ``K_tt``.  Working memory is the Gram plus vectors, and
    the copy of ``L'`` on the NNLS path.
    """
    if np.any(source.weights < 0.0):
        raise VequilError("balayage source must be nonnegative")
    if source.total <= 0.0:
        raise VequilError("balayage source must carry positive mass")
    target, spec = target_gram.nodes, target_gram.spec
    if target is None or spec is None:
        raise VequilError("balayage needs a target Gram that records its nodes and kernel")
    support, w = source.support, source.weights
    if support.shape[1] != target.shape[1]:
        raise DimensionMismatch(f"balayage source has dimension {support.shape[1]}, "
                                f"target nodes {target.shape[1]}")
    n_t = target.shape[0]
    points = np.vstack([target, support])
    _, inverse = _merge_points(points)
    if not np.array_equal(inverse[:n_t], np.arange(n_t)):
        raise VequilError("balayage target nodes must be distinct")
    rows = inverse[n_t:]
    # The source rows against the target nodes, then against the source itself.
    cross = cross_kernel(spec, support, points)
    source_energy = float(np.sqrt(max(0.0, w @ cross[:, n_t:] @ w)))
    if not w[rows >= n_t].any():  # the source lies on the target: it is its own sweep
        on = rows < n_t
        beta = np.zeros(n_t)
        beta[rows[on]] = w[on]
        return BalayageReport(swept=beta, potential_residual=0.0,
                              mass_ratio=float(beta.sum()) / source.total,
                              swept_energy=source_energy, source_energy=source_energy)
    K_omega = w @ cross[:, :n_t]
    beta = _swept(target_gram, K_omega)
    K_beta = target_gram.matvec(beta)
    diff_potential, charged = K_beta - K_omega, beta > 0.0
    violation = max(float(np.abs(diff_potential[charged]).max(initial=0.0)),
                    float(np.maximum(0.0, -diff_potential[~charged]).max(initial=0.0)))
    return BalayageReport(
        swept=beta,
        potential_residual=violation,
        mass_ratio=float(beta.sum()) / source.total,
        swept_energy=float(np.sqrt(max(0.0, beta @ K_beta))),
        source_energy=source_energy,
    )


def _swept(K_tt: GramMatrix, K_omega: np.ndarray) -> np.ndarray:
    """The balayage weights ``beta >= 0`` on a target Gram ``K_tt`` of ``(K omega)_t``.

    It solves ``K_tt beta = (K omega)_t`` (:meth:`GramMatrix.solve`; a refused factor
    raises :class:`NotPositiveDefinite`): if every weight is nonnegative, the KKT
    conditions hold with zero multipliers.  Otherwise ``scipy.optimize.nnls`` runs
    over ``beta >= 0`` on :meth:`GramMatrix.least_squares`, from the kept factor.
    """
    beta = K_tt.solve(K_omega)
    if beta is None:
        raise NotPositiveDefinite("target Gram is not strictly PD: Matrix is not positive definite")
    if np.any(beta < 0.0):
        from scipy import optimize  # imported only on this path: the import is slow

        beta, _ = optimize.nnls(*K_tt.least_squares(K_omega), maxiter=max(200, 50 * K_tt.size))
    return beta


def green_gram(rows, screen_gram: GramMatrix) -> GramMatrix:
    """Gram of the kernel screened by the nodes of a Gram, via linear sweeping.

    The screened kernel is ``kappa(x, y) - kappa(x, swept delta_y)`` with the
    sweep onto the screen nodes: on the joint Gram over inner and screen
    nodes, exactly the Schur complement ``A - B C^-1 B'`` of the screen block
    ``C``, here ``screen_gram``.  ``rows`` are the joint Gram's inner rows
    ``[A | B]``, ``n x (n + screen_gram.size)``; no kernel is evaluated here, and
    ``C^-1 B'`` is :meth:`GramMatrix.solve`.  Inner and screen nodes must be
    disjoint.  The result records neither nodes nor a kernel: the screened
    kernel is not one of the catalog.
    """
    rows = np.asarray(rows, dtype=float)
    n_i = rows.shape[0]
    if rows.shape != (n_i, n_i + screen_gram.size):
        raise DimensionMismatch(f"green_gram rows {rows.shape} for a screen of {screen_gram.size}")
    A, B = rows[:, :n_i], rows[:, n_i:]
    X = screen_gram.solve(B.T)
    if X is None:
        raise NotPositiveDefinite("screen Gram is not strictly PD: it has no Cholesky factor")
    S = A - B @ X
    return GramMatrix(0.5 * (S + S.T))  # exactly symmetric: IEEE addition commutes


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
    iterations: int


@dataclass(frozen=True)
class ExhaustionTrace:
    stages: tuple
    full_value: float
    full_converged: bool
    full_iterations: int


def exhaustion_schedule(node_fractions, sigma_scales=None) -> list[tuple[float, float]]:
    """The ``(fraction, sigma scale)`` stages of an exhaustion run: fractions in
    (0, 1], scales (1 when not given) finite, nonnegative and one per fraction.
    A violation raises :class:`VequilError` anchored at ``fractions[k]`` or
    ``sigma_scales[k]``."""
    fractions = [float(t) for t in node_fractions]
    scales = [1.0] * len(fractions) if sigma_scales is None else [float(b) for b in sigma_scales]
    if len(scales) != len(fractions):
        raise VequilError("sigma_scales: must be a list as long as fractions")
    for k, (t, b) in enumerate(zip(fractions, scales)):
        if not 0.0 < t <= 1.0:
            raise VequilError(f"fractions[{k}]: node fractions must lie in (0, 1]")
        if not 0.0 <= b < np.inf:
            raise VequilError(f"sigma_scales[{k}]: sigma scales must be finite and >= 0")
    return list(zip(fractions, scales))


def exhaustion_experiment(problem: Problem, node_fractions, sigma_scales=None) -> ExhaustionTrace:
    """Solve truncations of a problem on growing head-portions of the plates.

    Stage ``k`` is the full problem with each plate's constraint scaled by
    ``sigma_scales[k]`` on its first ``ceil(fraction * m)`` nodes and zero on
    the rest: under ``0 <= w <= sigma`` that is the truncated problem, with
    the same admissible class, minimizer and value, on the problem's own Gram
    (one ``lambda_max`` and PD gate serve every stage).  Headroom factors > 1
    can restore feasibility of tight constraints on small truncations; stages
    that are still infeasible are recorded and skipped.  The schedule is
    checked by :func:`exhaustion_schedule` before any solve.  A stage records
    its value, semimetric gap to the full minimizer and ``iterations`` (0 if
    skipped); ``full_converged`` and ``full_iterations`` report the full solve
    behind ``full_value`` and every gap: its tolerance met, its iterations.
    """
    schedule = exhaustion_schedule(node_fractions, sigma_scales)
    c, K, f, cfg = problem.condenser, problem.gram, problem.field, problem.config
    full = solve(c, K, f, cfg)
    stages = []
    for frac, beta in schedule:
        if frac == 1.0 and beta == 1.0:
            rep, gap = full, 0.0  # the full problem itself: same condenser, Gram, field, config
        else:
            heads = [np.arange(p.n_nodes) < max(1, np.ceil(frac * p.n_nodes)) for p in c.plates]
            c_stage = c.with_sigma([np.where(head, beta * p.sigma, 0.0)
                                    for p, head in zip(c.plates, heads)])
            if not check_feasibility(c_stage, f).feasible:
                stages.append(ExhaustionStage(node_fraction=frac, sigma_scale=beta, feasible=False,
                                              value=float("nan"), semimetric_gap=float("nan"),
                                              converged=False, iterations=0))
                continue
            rep = solve(c_stage, K, f, cfg)
            gap = semimetric_distance(c, K, rep.minimizer, full.minimizer)
        stages.append(ExhaustionStage(node_fraction=frac, sigma_scale=beta, feasible=True,
                                      value=rep.value, semimetric_gap=gap,
                                      converged=rep.converged, iterations=rep.iterations))
    return ExhaustionTrace(stages=tuple(stages), full_value=full.value,
                           full_converged=full.converged, full_iterations=full.iterations)


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
) -> ThinnessReport:
    """Capacity growth and balayage-candidate gap for a thinning body.

    For each truncation radius the rotational body is discretized, its
    capacity computed, and a two-plate charge problem solved: a fixed compact
    positive plate holding the trace of a screened equilibrium measure
    against the body as the negative plate, driven by the potential of the
    remaining trace.  The reported gap is the semimetric distance between
    the solved minimizer and the swept candidate; the constraint on the body
    is the swept measure plus uniform annulus allowances absorbing any mass
    lost by the sweep.  The node sets are nested across radii, so one Gram
    ``J`` over anchor, source and the largest body, its spacing pass fixing
    the regularization, holds every matrix: each radius copies its inner rows,
    its body Gram and, once that is dropped, its condenser Gram out of ``J``,
    so ``J`` and one block are held at a time.
    """
    radii = sorted(float(r) for r in truncation_radii)
    if not radii:
        raise VequilError("need at least one truncation radius")
    anchor = fibonacci_sphere(48, radius=0.6, center=(-2.5, 0.0, 0.0))
    src = fibonacci_sphere(32, radius=0.4, center=(-5.0, 0.0, 0.0))
    n1, n_in = anchor.shape[0], anchor.shape[0] + src.shape[0]
    J = assemble_gram(KernelSpec("newtonian"),
                      np.vstack([anchor, src, rotational_body(profile, s, q, radii[-1])]))
    cfg = SolverConfig(grad_tol=1e-9)
    stages = []
    for r in radii:
        # Stations keep their x1 bits, ascend, and stop at x1 <= r + 1e-12.
        body = slice(n_in, n_in + int(np.searchsorted(J.nodes[n_in:, 0], r + 1e-12, "right")))
        if body.stop == n_in or not r > q:
            rotational_body(profile, s, q, r)  # raises the error of an empty or invalid body
        nodes2 = J.nodes[body]
        K2 = J.block(body)
        eq = equilibrium(nodes2, K2, config=cfg)
        mass_center = gap = swept_mass = float("nan")
        converged = eq.converged
        if include_gap:
            rows = J.rows(n_in, body.stop)
            theta = equilibrium(J.nodes[:n_in], green_gram(rows, K2), config=cfg).unit_minimizer
            theta_anchor, theta_src = theta[:n1], theta[n1:]
            # dot with ones matches the feasibility check's reduction order
            a1 = float(np.ones(n1) @ theta_anchor)
            if a1 <= 1e-12:
                raise VequilError("screened equilibrium places no mass on the anchor plate")
            swept = _swept(K2, theta @ rows[:, n_in:])
            del K2  # J and one block are held: K2 goes before the condenser block is copied
            swept_mass = float(swept.sum())
            sigma2 = swept + _annulus_allowance(nodes2, max(0.0, 1.0 - swept_mass), q)
            cond = Condenser(plates=(
                Plate(id=0, sign=1, nodes=anchor, g=np.ones(n1), mass=a1, sigma=theta_anchor),
                Plate(id=1, sign=-1, nodes=nodes2, g=np.ones(len(nodes2)), mass=1.0, sigma=sigma2)))
            Kc = J.block(np.r_[:n1, body])
            field = FieldSpec(case=CASE2, case2_zeta=ScalarSignedMeasure(src, theta_src))
            rep = solve(cond, Kc, field, cfg)
            gap = semimetric_distance(cond, Kc, rep.minimizer, cond.measure([theta_anchor, swept]))
            w2 = rep.minimizer.weights[1]
            mass_center = float(w2 @ nodes2[:, 0] / w2.sum())
            converged = converged and rep.converged
        stages.append(ThinnessStage(radius=r, n_body_nodes=nodes2.shape[0],
                                    capacity=eq.capacity, minimizer_mass_center=mass_center,
                                    gap_to_balayage_candidate=gap, swept_mass=swept_mass,
                                    converged=converged))
    return ThinnessReport(profile=profile, s=float(s), stages=tuple(stages))
