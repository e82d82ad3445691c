"""Constrained minimization of the field-weighted energy.

The admissible class is a product, over plates, of box-capped hyperplane
sets ``{0 <= w <= sigma, <g, w> = a}``.  With a positive definite Gram the
objective is a convex quadratic, so first-order KKT residuals certify global
optimality.  Two independent algorithms are provided:

* ``projected_gradient`` -- exact projection onto each plate's feasible set
  (one sort of the mass multiplier's breakpoints, :func:`project_plate`);
  Barzilai-Borwein steps with a monotone backtracking safeguard.
* ``frank_wolfe`` -- conditional gradient whose linear oracle is a
  fractional-knapsack greedy per plate (sort by gradient/g, fill cheapest
  g-mass first; one stable sort keyed by plate, then gradient/g, serves all
  plates); after each new vertex the objective is re-optimized exactly
  over the hull of collected vertices (fully corrective).  The hull's Gram
  keeps its upper Cholesky factor across rounds, packed by columns in a
  buffer that doubles when full, so a round that admits the new vertex
  without dropping one appends n+1 numbers (one ``dtpsv``) and solves for
  the weights with one ``dpptrs``; each vertex keeps its Gram product, so a
  round makes one Gram product.  A round whose weights must back off to the
  simplex boundary goes on as an active-set loop that refactors each changed
  support (least squares on the bordered KKT system only for dependent atoms).

Both run in one loop, :func:`_descend`, which owns the stopping test, the
iteration count and the trace (the lowest value so far after each step that
moved); each algorithm supplies only its step.  Every round costs a fixed
number of array operations for the whole condenser, apart from one
:func:`project_plate` call per plate.  ``_QP`` keeps the plates only as
arrays, computed once per solve; the start and the final snap are
whole-vector steps followed by one projection.  The KKT residual classifies
all coordinates in one pass and sums each plate's multiplier with
``np.add.reduceat``; the rule for plates without an interior coordinate also
runs for all plates at once, and only when one exists.  A solve runs over
the coordinates whose box is not ``[0, 0]`` only; its products go through the
full Gram.

Projected gradient is the faster default on instances whose minimizer has
many strictly interior coordinates (one hull vertex per interior coordinate
makes the corrective variant collect large hulls); Frank-Wolfe shines when
the solution sits on few vertices and serves as the independent cross-check
either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import blas, lapack
from .condenser import (
    CASE1,
    Condenser,
    FieldSpec,
    VectorMeasure,
    check_feasibility,
    check_shapes,
    field_linear_coefficients,
)
from .errors import InfeasibleProblem, VequilError
from .kernels import GramMatrix, _not_pd, _pd_gate

dgemv, dtpsv = blas.dgemv, blas.dtpsv
dpptrf, dpptrs = lapack.dpptrf, lapack.dpptrs

PROJECTED_GRADIENT = "projected_gradient"
FRANK_WOLFE = "frank_wolfe"


@dataclass(frozen=True)
class SolverConfig:
    """Algorithm selection and tolerances.

    ``max_iters=None`` defaults to ``max(1000, 50 * total_nodes)``.  ``seed``
    (a nonnegative integer) randomizes the starting point; ``None`` starts
    from the feasible scaling of sigma.  ``grad_tol`` must be finite and
    positive.  A refused setting raises :class:`VequilError` anchored at the
    field's name.
    """

    algorithm: str = PROJECTED_GRADIENT
    max_iters: int | None = None
    grad_tol: float = 1e-8
    seed: int | None = None

    def __post_init__(self):
        if self.algorithm not in (PROJECTED_GRADIENT, FRANK_WOLFE):
            raise VequilError(f"algorithm: unknown algorithm {self.algorithm!r}")
        if self.max_iters is not None and self.max_iters < 1:
            raise VequilError("max_iters: must be >= 1")
        if not 0.0 < self.grad_tol < np.inf:
            raise VequilError("grad_tol: must be finite and positive")
        if self.seed is not None and self.seed < 0:
            raise VequilError("seed: must be a nonnegative integer")


@dataclass(frozen=True)
class SolveReport:
    minimizer: VectorMeasure
    value: float
    kkt_residual: float
    iterations: int
    converged: bool
    objective_trace: np.ndarray
    multipliers: tuple
    algorithm: str


@dataclass(frozen=True)
class KKTReport:
    ok: bool
    max_residual: float
    multipliers: tuple


def project_plate(v, g, sigma, a) -> np.ndarray:
    """Euclidean projection onto ``{w: 0 <= w <= sigma, <g, w> = a}``.

    The projection is ``clip(v - tau*g, 0, sigma)`` where the multiplier tau
    makes the g-mass exact.  The mass is continuous, nonincreasing and
    piecewise linear in tau, with kinks where a node leaves its cap,
    ``(v - sigma)/g`` (slope ``-g^2``), and where it reaches zero, ``v/g``
    (slope ``+g^2``).  One sort of the kinks and the cumulative slope sums
    give the mass at every kink (Helgason, Kennington & Lall 1980; Kiwiel,
    *Math. Program.* 112, 2008); tau is then solved exactly on the segment
    that brackets ``a``, from its free and upper sets.  Rounded kink masses
    can pick a segment without a free node (flat, or of zero width); any of
    its points serves, and tau is its end.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    g = np.asarray(g, dtype=float).reshape(-1)
    sigma = np.asarray(sigma, dtype=float).reshape(-1)
    a = float(a)
    cap = float(g @ sigma)
    fuzz = 1e-12 * max(1.0, abs(cap))
    if a < -fuzz or a > cap + fuzz:
        raise InfeasibleProblem(f"mass a={a} outside [0, <g,sigma>={cap}]")
    if a <= 0.0:
        return np.zeros_like(v)
    if a >= cap:
        return sigma.copy()
    m = v.size
    kinks = np.concatenate([v / g, (v - sigma) / g])
    order = np.argsort(kinks, kind="stable")
    t = kinks[order]
    slope = np.cumsum(np.where(order < m, -1.0, 1.0) * (g * g)[order % m])  # -mass' after each kink
    mass = cap - np.concatenate([[0.0], np.cumsum(slope[:-1] * np.diff(t))])
    mass[-1] = 0.0  # every node at zero
    j = int(np.argmax(mass <= a))  # the segment (t[j-1], t[j]) brackets a
    passed = np.zeros(2 * m, dtype=bool)
    passed[order[:j]] = True  # the kinks at or below the segment's start
    upper = ~passed[m:]
    free = passed[m:] & ~passed[:m]
    denom = float(g[free] @ g[free])
    if denom > 0.0:
        tau = (float(g[free] @ v[free]) + float(g[upper] @ sigma[upper]) - a) / denom
    else:
        tau = float(t[j])
    return np.clip(v - tau * g, 0.0, sigma)


def _knapsack_vertex(cost, g, sigma, a, plate_of=None, slices=None) -> np.ndarray:
    """Linear minimization over one plate, or over several: fill cheapest g-mass first.

    Sorts by ``cost/g`` (stable, so ties break by node index); each node
    takes what is left of the g-mass budget ``a`` after all cheaper nodes
    are saturated, clipped to ``[0, sigma]``, so the marginal node gets the
    exact fractional remainder.  Several plates share one stable sort keyed
    by ``(plate_of, cost/g)``: ``slices`` are their consecutive node ranges
    and ``a`` is the budget per node.  Each plate sums only its own cheaper
    nodes, so it gets the vertex it would get alone: its cumulative sum
    starts from an exact zero, which one sum over all plates less their
    offsets would not; its last entry is the plate's ``<g, sigma>``, which
    must cover the budget.  ``np.cumsum`` and ``np.clip`` would cost about
    1.3 us more per call at N = 192 than the ufuncs, for the same bits.
    """
    if plate_of is None:
        order, slices = np.argsort(cost / g, kind="stable"), (slice(0, g.size),)
    else:
        order = np.lexsort((cost / g, plate_of))
    g_o, sigma_o = g[order], sigma[order]
    mass = g_o * sigma_o
    before = np.empty_like(mass)  # g-mass of the same plate's cheaper nodes
    for sl in slices:
        start, last = sl.start, sl.stop - 1
        before[start] = 0.0
        np.add.accumulate(mass[start:last], out=before[start + 1:last + 1])
        a_p = float(a if plate_of is None else a[start])
        if a_p - float(before[last] + mass[last]) > 1e-9 * max(1.0, a_p):
            raise InfeasibleProblem("knapsack budget not exhausted; plate infeasible")
    v = np.empty_like(g)
    v[order] = np.minimum(np.maximum((a - before) / g_o, 0.0), sigma_o)
    return v


class _QP:
    """One solve instance, its plates kept only as arrays computed once.

    Per plate: the masses, ``caps`` (``<g, sigma>``), the ``degenerate``
    flags, and the ``starts`` and ``slices`` of the node ranges.  Per node:
    ``plate_of``, the plate's mass (``budget``), ``a / min g``, the active
    ``band`` with ``room = sigma - band``, ``pinned`` (a box at most two bands
    wide) and ``free`` (neither pinned nor on a degenerate plate).
    With ``cut`` the per-node arrays hold only the coordinates ``on`` whose box
    is not ``[0, 0]`` (a plate with none keeps its first): caps, bands and
    degenerate flags are the whole plates', and products run through the
    full Gram on an N-vector that is zero elsewhere.
    """

    def __init__(self, c: Condenser, K: GramMatrix, f: FieldSpec, cut: bool = False):
        self.K = K
        q = field_linear_coefficients(c, K, f)
        sigma = np.concatenate([p.sigma for p in c.plates]).copy()
        if f.case == CASE1:
            locked = np.isinf(q)
            sigma[locked] = 0.0  # +inf field nodes may not carry charge
            q = np.where(locked, 0.0, q)
        g = np.concatenate([p.g for p in c.plates])
        self.masses = np.array([p.mass for p in c.plates])
        # Each <g, sigma> as project_plate takes it; a degenerate plate's feasible set is sigma.
        self.caps = np.array([float(g[sl] @ sigma[sl]) for sl in c.slices()])
        self.degenerate = self.caps - self.masses <= 1e-12 * np.maximum(1.0, self.caps)
        starts = np.array([sl.start for sl in c.slices()])
        kept = sigma > 0.0
        kept[starts] |= ~np.logical_or.reduceat(kept, starts)  # no plate is left empty
        self.on = on = np.flatnonzero(kept) if cut and not kept.all() else slice(None)
        plate_of = np.repeat(np.arange(len(c.plates)), [p.n_nodes for p in c.plates])[on]
        self.signs, self.q, self.sigma, self.g = c.signs_per_node()[on], q[on], sigma[on], g[on]
        self.plate_of, self.g2 = plate_of, self.g * self.g
        self.starts = np.searchsorted(plate_of, np.arange(len(c.plates)))
        ends = [*self.starts[1:].tolist(), plate_of.size]
        self.slices = tuple(map(slice, self.starts.tolist(), ends))
        self.budget = self.masses[plate_of]
        g_min = np.minimum.reduceat(g, starts)[plate_of]
        self.a_over_g = self.budget / g_min
        self.band = np.maximum(1e-14, 1e-9 * self.budget / g_min)
        self.room = self.sigma - self.band
        self.pinned = self.sigma <= 2.0 * self.band
        self.free = ~self.pinned & ~self.degenerate[plate_of]
        self._full = np.zeros(K.size)  # the product's N-vector, zero off ``on``

    def product(self, w: np.ndarray) -> np.ndarray:
        """``K (s*w)``: the one matvec the objective and the gradient at ``w`` share."""
        self._full[self.on] = self.signs * w
        return self.K.matvec(self._full)[self.on]

    def objective(self, w: np.ndarray, Kz: np.ndarray) -> float:
        return float((self.signs * w) @ Kz) + 2.0 * float(self.q @ w)

    def gradient(self, w: np.ndarray, Kz: np.ndarray | None = None) -> np.ndarray:
        if Kz is None:
            Kz = self.product(w)
        return 2.0 * (self.signs * Kz + self.q)

    def project(self, v: np.ndarray) -> np.ndarray:
        """One :func:`project_plate` call per plate: one lexsort of all plates' kinks
        was 4-5x faster at 250 plates of 4 nodes, but 27% slower at 2 of 500
        and 10-15% slower at 1 of 3000."""
        w = np.empty_like(v)
        for sl, a in zip(self.slices, self.masses.tolist()):
            w[sl] = project_plate(v[sl], self.g[sl], self.sigma[sl], a)
        return w

    def lmo(self, grad: np.ndarray) -> np.ndarray:
        return _knapsack_vertex(grad, self.g, self.sigma, self.budget, self.plate_of, self.slices)

    def initial(self, seed: int | None) -> np.ndarray:
        """The projection of ``sigma`` scaled to each plate's mass, times seeded noise."""
        scale = self.masses / np.where(self.caps > 0.0, self.caps, np.inf)  # 0 on a zero box
        base = self.sigma * scale[self.plate_of]
        if seed is not None:
            base = base * np.random.default_rng(seed).uniform(0.05, 1.0, self.K.size)[self.on]
        return self.project(base)

    def snap(self, w: np.ndarray) -> np.ndarray:
        """Snap near-bound weights onto the bounds, then restore the mass."""
        band = 1e-12 * np.maximum(1.0, self.a_over_g)
        ws = np.where(w < band, 0.0, w)
        at_cap = self.sigma - ws < band
        ws[at_cap] = self.sigma[at_cap]
        return self.project(ws)


def _kkt_residual(qp: _QP, w: np.ndarray, grad: np.ndarray):
    """Max stationarity/complementarity violation and per-plate multipliers.

    A coordinate within the active band of zero or of its cap is at that
    bound; a pinned one carries no condition.  A plate's multiplier is the
    g-weighted average of ``grad`` over its interior coordinates.  A plate
    without one (a degenerate plate never has one, nor a violation) takes the
    midpoint between its largest cap ratio ``grad/g`` and smallest zero ratio
    when they are ordered, its g-weighted support average when not, the one
    side present, or zero; a degenerate plate counts its unpinned
    coordinates as at the cap.  Each case is one segmented reduction over
    all plates, run only in a call where such a plate exists.  The residual
    is the larger of two masked reductions of ``r = grad - tau g``: ``r`` off
    zero (interior or at the cap, where ``r <= 0``) and ``-r`` below the cap.
    """
    band, room, free, starts = qp.band, qp.room, qp.free, qp.starts
    up = (w > band) & free  # interior or at the cap
    down = (w < room) & free  # interior or at zero
    interior = up & down
    has_interior = np.logical_or.reduceat(interior, starts)
    g_grad = qp.g * grad
    num = np.add.reduceat(np.where(interior, g_grad, 0.0), starts)
    den = np.add.reduceat(np.where(interior, qp.g2, 0.0), starts)
    tau = num / np.where(has_interior, den, 1.0)
    if not all(has_interior.tolist()):  # ndarray.all() costs about 1 us more at 2 plates
        ratio = grad / qp.g
        at_cap = np.where(qp.degenerate[qp.plate_of], ~qp.pinned, up & ~down)
        cap_max = np.maximum.reduceat(np.where(at_cap, ratio, -np.inf), starts)
        zero_min = np.minimum.reduceat(np.where(down & ~up, ratio, np.inf), starts)
        has_cap, has_zero = cap_max > -np.inf, zero_min < np.inf
        both = has_cap & has_zero
        with np.errstate(divide="ignore", invalid="ignore"):  # values the select leaves out
            split = 0.5 * (cap_max + zero_min)
            sup_avg = (np.add.reduceat(np.where(w > band, g_grad, 0.0), starts)
                       / np.add.reduceat(np.where(w > band, qp.g2, 0.0), starts))
        tau = np.where(has_interior, tau, np.select(
            [both & (cap_max <= zero_min), both, has_cap, has_zero],
            [split, sup_avg, cap_max, zero_min]))
    r = grad - tau[qp.plate_of] * qp.g
    resid = max(np.maximum.reduce(r, where=up, initial=0.0),
                0.0 - np.minimum.reduce(r, where=down, initial=0.0))
    return float(resid), tuple(tau.tolist())


def verify_kkt(c: Condenser, K: GramMatrix, f: FieldSpec, mu: VectorMeasure,
               tol: float) -> KKTReport:
    """Independent first-order optimality certificate for a candidate measure."""
    check_shapes(c, mu)
    qp = _QP(c, K, f)
    w = mu.concat()
    resid, taus = _kkt_residual(qp, w, qp.gradient(w))
    return KKTReport(ok=resid <= tol, max_residual=resid, multipliers=taus)


def _descend(qp: _QP, cfg: SolverConfig, max_iters: int, w: np.ndarray, step):
    """The descent loop of both algorithms, from the feasible start ``w``.

    Each round takes the gradient and KKT residual at ``w`` through the carried
    ``Kz``; the run stops at ``grad_tol`` or after ``max_iters`` steps.  Else
    ``step(w, Kz, G, grad)``, ``G`` the lowest value so far, returns the next
    ``(w, Kz, value)``, or ``None`` when it cannot move: the run then stops,
    the step counted as taken.  The trace holds ``G`` at the start and after
    each step that moved.
    """
    Kz = qp.product(w)
    G = qp.objective(w, Kz)
    trace = [G]
    iters = 0
    while True:
        grad = qp.gradient(w, Kz)
        resid, taus = _kkt_residual(qp, w, grad)
        if resid <= cfg.grad_tol or iters == max_iters:
            return w, Kz, resid, taus, iters, trace
        iters += 1
        moved = step(w, Kz, G, grad)
        if moved is None:
            return w, Kz, resid, taus, iters, trace
        w, Kz, value = moved
        G = min(G, value)
        trace.append(G)


def _run_projected_gradient(qp: _QP, cfg: SolverConfig, max_iters: int):
    eta_safe = 1.0 / (2.0 * max(qp.K.lambda_max(), 1e-300))
    prev_w = prev_grad = None

    def step(w, Kz, G, grad):
        nonlocal prev_w, prev_grad
        eta = eta_safe
        if prev_w is not None:
            s, y = w - prev_w, grad - prev_grad
            sy = float(s @ y)
            if sy > 0.0:
                eta = float(s @ s) / sy
        eta = min(max(eta, 1e-3 * eta_safe), 1e8 * eta_safe)
        slack = 1e-13 * (1.0 + abs(G))
        while True:
            w_new = qp.project(w - eta * grad)
            Kz_new = qp.product(w_new)
            G_new = qp.objective(w_new, Kz_new)
            if G_new <= G + slack:
                break
            if eta <= 0.5 * eta_safe:
                return None  # line-search floor: a stall
            eta = max(0.5 * eta, 0.25 * eta_safe)
        if float(np.max(np.abs(w_new - w))) == 0.0:
            return None  # projection fixed point below the residual target
        prev_w, prev_grad = w, grad
        return w_new, Kz_new, G_new

    return _descend(qp, cfg, max_iters, qp.initial(cfg.seed), step)


# Below this share of its own Gram entry, a new atom's Cholesky pivot counts as
# zero: the atom is (numerically) a combination of the hull's atoms.
_DEPENDENT_PIVOT = 1e-10


def _hull_factor(Q: np.ndarray) -> np.ndarray | None:
    """Upper Cholesky factor of a hull Gram, or ``None`` when its atoms are dependent.

    Packed by columns (as ``Q``'s C-lower triangle is by rows) in a buffer of
    twice its size, so that columns can be appended (:func:`_corrective_step`).
    """
    n = Q.shape[0]
    R = np.empty(n * (n + 1))
    R[:n * (n + 1) // 2] = Q[np.tri(n, dtype=bool)]
    return R if dpptrf(n, R, lower=0, overwrite_ap=1)[1] == 0 else None


def _corrective_step(Q: np.ndarray, lin: np.ndarray, alpha: np.ndarray, R: np.ndarray | None):
    """Minimize ``x'Qx + 2 lin'x`` over the simplex after one atom was appended to the hull.

    ``Q`` and ``lin`` cover the hull with the new atom last, ``alpha`` is the
    optimum over the old hull (every weight positive) and ``R`` the packed
    upper Cholesky factor of its Gram (:func:`_hull_factor`), or ``None``.
    Returns the weights, exact zeros on the atoms that left (at most 1e-15),
    and the factor of the kept atoms' Gram in index order, ``None`` when they
    are dependent.

    ``alpha`` is already stationary on its support: the old hull's half
    gradient ``Q alpha + lin`` takes one value there, read off its first row.
    Against it the new atom's component, one row of ``Q``, decides without a
    solve whether the atom enters.  If it does, ``R`` gains the column
    ``r = R'^-1 Q[:n, n]`` and ``sqrt(Q_nn - r.r)`` (one ``dtpsv``, in place
    or in a copy over twice the size; Gill, Golub, Murray & Saunders, *Math.
    Comp.* 28, 1974), and one ``dpptrs`` gives the equality-constrained
    optimum on the enlarged support.  Unless a weight is negative, that is
    the answer.  Otherwise the active-set loop of Lawson & Hanson (*Solving
    Least Squares Problems*, 1974) steps back to the simplex boundary and
    drops the atoms that reach zero, or admits the left atom of most negative
    reduced gradient, and refactors the new support (``dpptrf``), until none
    leaves or enters.  A support without a factor (a new atom whose pivot is
    not safely positive) is solved by least squares on the bordered KKT
    system: ``lin_i = <q, atom_i>`` lies in the range of ``Q``, so that gives
    a minimizer.
    """
    n = alpha.size
    # Q is a Gram, so its largest entry in magnitude sits on its diagonal.
    scale = max(1.0, np.maximum.reduce(Q.diagonal()), np.maximum.reduce(np.abs(lin)))
    stationary, entry = (Q[::n, :n] @ alpha + lin[::n]).tolist()  # rows 0 and n
    if entry - stationary >= -0.5e-13 * scale:
        return np.append(alpha, 0.0), R  # the new atom does not enter
    if R is None:
        R = _hull_factor(Q[:n, :n])
    if R is not None:
        k = n * (n + 1) // 2  # where the new column starts
        if R.size < k + n + 1:
            R = np.concatenate((R, np.empty(R.size + n + 1)))
        r = R[k:k + n]
        r[:] = Q[n, :n]
        dtpsv(n, R, r, trans=1, overwrite_x=1)
        q_nn = float(Q[n, n])
        pivot = q_nn - float(r @ r)
        if pivot > _DEPENDENT_PIVOT * q_nn:
            R[k + n] = math.sqrt(pivot)
        else:
            R = None  # the new atom depends on the hull's
    x = np.zeros(n + 1)
    x[:n] = alpha
    support, Q_S, lin_S = np.arange(n + 1), Q, lin
    for _ in range(50 * (n + 3)):  # a cap: round-off can make the loop cycle
        m = lin_S.size
        if R is None:  # dependent atoms: the bordered KKT system, by least squares
            bordered = np.ones((m + 1, m + 1))
            bordered[:m, :m] = 2.0 * Q_S
            bordered[m, m] = 0.0
            y = np.linalg.lstsq(bordered, np.append(-2.0 * lin_S, 1.0), rcond=None)[0][:m]
        else:
            # With u = Q_S^-1 lin_S and v = Q_S^-1 1: y = ((1 + sum u) / sum v) v - u.
            rhs = np.empty((2, m))
            rhs[0], rhs[1] = lin_S, 1.0
            uv = dpptrs(m, R, rhs.T, lower=0, overwrite_b=1)[0]
            sum_u, sum_v = np.add.reduce(uv).tolist()
            y = ((1.0 + sum_u) / sum_v) * uv[:, 1] - uv[:, 0]
        if np.minimum.reduce(y) < -1e-14:  # step back to the simplex boundary
            cur = x[support]
            neg = y < 0.0
            t = min(1.0, float(np.minimum.reduce(cur[neg] / (cur[neg] - y[neg]))))
            cur += t * (y - cur)
            cur[cur < 1e-15] = 0.0
            x[support] = cur / np.add.reduce(cur)
            support = np.flatnonzero(x)
        else:
            np.maximum(y, 0.0, out=y)
            y /= np.add.reduce(y)
            if m > n:
                x = y
                break
            x[support] = y
            half = Q @ x + lin  # half the gradient, stationary on the support
            reduced = half - np.add.reduce(half[support]) / m
            reduced[support] = 0.0
            j = int(np.argmin(reduced))
            if reduced[j] >= -0.5e-13 * scale:
                break
            support = np.union1d(support, j)
        Q_S, lin_S = Q[np.ix_(support, support)], lin[support]
        R = _hull_factor(Q_S)
    if np.minimum.reduce(x) <= 1e-15:  # such weights leave, as at a step back
        x[x <= 1e-15] = 0.0
        x /= np.add.reduce(x)
        kept = np.flatnonzero(x)
        if kept.size < support.size:
            R = _hull_factor(Q[np.ix_(kept, kept)])
    return x, R


def _run_frank_wolfe(qp: _QP, cfg: SolverConfig, max_iters: int):
    """Fully corrective conditional gradient over the knapsack vertex hull.

    Each round calls the per-plate knapsack oracle for a new vertex, then
    re-optimizes exactly over the convex hull of the vertices collected so
    far (a small simplex QP, :func:`_corrective_step`); the vertices it
    gives weight zero are dropped, so the hull is always the support.  The
    hull keeps each vertex ``s`` in ``atoms`` and its product ``K(signs*s)``
    in ``prods``: the new ``w`` and its product are one ``dgemv`` each, and so
    is the new vertex's row of the hull Gram ``Q``, ``prods`` against
    ``signs*s``.  These, the linear term and ``Q`` live in the leading rows of
    buffers that double when full.  The packed upper Cholesky factor ``R`` of
    ``Q`` (``None`` before the first round and while the hull's atoms are
    dependent) is made, grown and refactored by :func:`_corrective_step`
    alone, and carried from round to round; the run only compacts its
    buffers to the vertices that stay.  A new vertex that does not enter
    leaves ``w`` unchanged, so the oracle would propose it again: the run
    stops there.  A re-proposed hull vertex has its copy's row of ``Q``, so
    it does not enter either, unless the carried weights' stationarity error
    exceeds the entry tolerance (seen only under fields of 1e4 and more): it
    then enters as a dependent atom, and the run stops a few rounds later.
    The classic 2/(k+2) step decreases the objective only at an O(1/k) rate
    and lets the vertex set proliferate, which is far too slow to certify
    tight KKT residuals; the corrective variant keeps the same oracle and
    converges linearly in practice.
    """
    if cfg.seed is None:
        start_dir = qp.gradient(qp.initial(None))
    else:
        start_dir = np.random.default_rng(cfg.seed).standard_normal(qp.K.size)[qp.on]
    v0 = qp.lmo(start_dir)
    atoms = np.empty((16, v0.size))  # hull vertices, one per row, in the first n rows
    prods = np.empty_like(atoms)  # their products K(signs*vertex)
    lin = np.empty(16)  # <q, vertex>
    Q = np.empty((16, 16))  # K-metric Gram of the hull vertices
    n = 1
    atoms[0], prods[0] = v0, qp.product(v0)
    lin[0] = float(qp.q @ v0)
    Q[0, 0] = float((qp.signs * v0) @ prods[0])
    alpha = np.array([1.0])
    R = None  # the packed upper Cholesky factor of Q, made and carried by _corrective_step

    def step(w, Kz, G, grad):
        nonlocal atoms, prods, lin, Q, n, alpha, R
        s = qp.lmo(grad)
        if float(grad @ (w - s)) <= 1e-15 * (1.0 + abs(G)):
            return None  # the duality gap is at the float floor
        if n == lin.size:  # buffers full: double them
            atoms, prods, lin = (np.concatenate([b, np.empty_like(b)]) for b in (atoms, prods, lin))
            Q = np.pad(Q, (0, n))
        atoms[n], prods[n] = s, qp.product(s)
        Q[n, :n + 1] = Q[:n + 1, n] = dgemv(1.0, prods[:n + 1].T, qp.signs * s, trans=1)
        lin[n] = float(qp.q @ s)
        n += 1
        alpha, R = _corrective_step(Q[:n, :n], lin[:n], alpha, R)
        if alpha[-1] == 0.0:
            return None  # the new vertex does not enter the hull: w cannot move
        if np.minimum.reduce(alpha) == 0.0:  # vertices left: keep the rest, in order
            idx = np.flatnonzero(alpha)
            atoms[:idx.size], prods[:idx.size], lin[:idx.size] = atoms[idx], prods[idx], lin[idx]
            Q[:idx.size, :idx.size] = Q[np.ix_(idx, idx)]
            n, alpha = idx.size, alpha[idx]
        w, Kz = dgemv(1.0, atoms[:n].T, alpha), dgemv(1.0, prods[:n].T, alpha)
        return w, Kz, qp.objective(w, Kz)

    w, Kz, resid, taus, iters, trace = _descend(qp, cfg, max_iters, v0, step)
    # Final polish: exact bounds help the complementarity classification.
    snapped = qp.snap(w)
    Kz_snap = qp.product(snapped)
    r_snap, t_snap = _kkt_residual(qp, snapped, qp.gradient(snapped, Kz_snap))
    if r_snap <= resid:
        return snapped, Kz_snap, r_snap, t_snap, iters, trace
    return w, Kz, resid, taus, iters, trace


def solve(c: Condenser, K: GramMatrix, f: FieldSpec, cfg: SolverConfig | None = None) -> SolveReport:
    """Minimize the field-weighted energy over the admissible class.

    Refuses infeasible instances and Grams that fail the positive
    semidefiniteness gate (the objective could be unbounded below): a
    Cholesky factorization of ``K + pd_tol*I``, ``pd_tol = 1e-10 * lambda_max``
    (see :func:`vequil.kernels._pd_gate`).  The
    returned minimizer satisfies the box and mass constraints to float
    accuracy; ``converged`` records whether the KKT residual target was met.
    """
    cfg = cfg or SolverConfig()
    feas = check_feasibility(c, f)
    if not feas.feasible:
        bad = feas.failing()[0]
        slack = next(p.slack for p in feas.per_plate if p.plate_id == bad)
        raise InfeasibleProblem(f"plate {bad}: a exceeds <g, sigma> (slack {slack:.6g})")
    if not _pd_gate(K)[0]:
        raise _not_pd(K, "+", "refusing a possibly unbounded objective")
    qp = _QP(c, K, f, cut=True)
    max_iters = cfg.max_iters if cfg.max_iters is not None else max(1000, 50 * c.total_nodes)
    run = _run_projected_gradient if cfg.algorithm == PROJECTED_GRADIENT else _run_frank_wolfe
    w, Kz, resid, taus, iters, trace = run(qp, cfg, max_iters)
    w_all = np.zeros(K.size)  # exact zeros where the box is [0, 0]
    w_all[qp.on] = np.maximum(w, 0.0)
    # The value takes the field from the solve's own q: a +inf field node has cap 0
    # and carries no charge, so its zero in q gives weighted_energy's value.
    return SolveReport(
        minimizer=c.measure([w_all[sl] for sl in c.slices()]),
        value=qp.objective(w, Kz),
        kkt_residual=resid,
        iterations=iters,
        converged=bool(resid <= cfg.grad_tol),
        objective_trace=np.asarray(trace),
        multipliers=taus,
        algorithm=cfg.algorithm,
    )


@dataclass(frozen=True)
class Problem:
    """A full instance: condenser, Gram, field, and solver configuration."""

    condenser: Condenser
    gram: GramMatrix
    field: FieldSpec
    config: SolverConfig

    def solve(self) -> SolveReport:
        return solve(self.condenser, self.gram, self.field, self.config)
