"""Signed condensers, vector measures, energies, and the superposition map.

A condenser is a finite family of node-set plates, each carrying a sign.
Charges on plates interact through ``sign_i * sign_j * kappa``; superposing
all plates with their signs yields a scalar signed measure (the R-image),
whose kernel energy coincides with the vector energy.  That identity is the
backbone of every check in this module.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, VequilError
from .kernels import (
    GramMatrix,
    KernelSpec,
    _as_points,
    _sq_dist_blocks,
    assemble_gram,
    cross_kernel,
)

CASE1 = "case1"
CASE2 = "case2"


def _merge_points(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge exactly coincident points (-0.0 == +0.0) into ``(first, inverse)``.

    ``first`` indexes the first occurrence of each distinct point, in input
    order; ``points[k]`` is the distinct point ``inverse[k]``.
    """
    _, first, inverse = np.unique(points + 0.0, axis=0, return_index=True,
                                  return_inverse=True)
    # np.unique ranks points lexicographically; re-rank by first occurrence.
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.reshape(-1)]


def _merge_weighted(points: np.ndarray, weights: np.ndarray) -> "ScalarSignedMeasure":
    """Signed measure of weighted points; coincident weights add in input order."""
    first, inverse = _merge_points(points)
    acc = np.zeros(first.size)
    np.add.at(acc, inverse, weights)
    return ScalarSignedMeasure(support=points[first] + 0.0, weights=acc)


_PER_NODE = "plate {}: g and sigma must have one value per node"


def _plate_sigma(plate_id: int, sigma, m: int) -> np.ndarray:
    """``sigma`` as a read-only float vector of one finite value >= 0 for each of ``m`` nodes."""
    sigma = np.asarray(sigma, dtype=float).reshape(-1)
    if sigma.shape != (m,):
        raise DimensionMismatch(_PER_NODE.format(plate_id))
    if not (np.all(np.isfinite(sigma)) and np.all(sigma >= 0.0)):
        raise VequilError(f"plate {plate_id}: sigma must be nonnegative and finite")
    sigma.setflags(write=False)
    return sigma


@dataclass(frozen=True)
class Plate:
    """One signed plate: nodes plus its weight function, mass, and constraint.

    ``g`` samples the positive weight function at the nodes, ``mass`` is the
    prescribed g-weighted total charge, and ``sigma`` is the per-node upper
    constraint (box) on admissible weights.
    """

    id: int
    sign: int
    nodes: np.ndarray
    g: np.ndarray
    mass: float
    sigma: np.ndarray

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise VequilError(f"plate {self.id}: sign must be +1 or -1")
        nodes = _as_points(self.nodes)
        g = np.asarray(self.g, dtype=float).reshape(-1)
        m = nodes.shape[0]
        if g.shape != (m,):
            raise DimensionMismatch(_PER_NODE.format(self.id))
        if not (np.all(np.isfinite(g)) and np.all(g > 0.0)):
            raise VequilError(f"plate {self.id}: g must be positive and finite")
        sigma = _plate_sigma(self.id, self.sigma, m)
        if not (np.isfinite(self.mass) and self.mass > 0.0):
            raise VequilError(f"plate {self.id}: mass must be positive")
        if _merge_points(nodes)[0].size < m:
            raise VequilError(f"plate {self.id}: duplicate node coordinates")
        for arr in (nodes, g):
            arr.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "mass", float(self.mass))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


def make_plate(plate_id: int, sign: int, nodes, g=1.0, mass=1.0, sigma=1.0) -> Plate:
    """Plate constructor that broadcasts scalar ``g`` and ``sigma``."""
    nodes = _as_points(nodes)
    m = nodes.shape[0]
    g_arr = np.full(m, float(g)) if np.ndim(g) == 0 else np.asarray(g, dtype=float)
    s_arr = np.full(m, float(sigma)) if np.ndim(sigma) == 0 else np.asarray(sigma, dtype=float)
    return Plate(id=plate_id, sign=int(sign), nodes=nodes, g=g_arr, mass=float(mass), sigma=s_arr)


@dataclass(frozen=True)
class Condenser:
    """Finite family of signed plates with oppositely signed plates separated.

    Equally signed plates may overlap or coincide; a positive and a negative
    plate must keep a strictly positive distance (coincident coordinates
    across opposite signs are rejected at construction).
    """

    plates: tuple

    def __post_init__(self):
        plates = tuple(self.plates)
        if not plates:
            raise VequilError("condenser needs at least one plate")
        ids = [p.id for p in plates]
        if len(set(ids)) != len(ids):
            raise VequilError("plate ids must be unique")
        dim = plates[0].nodes.shape[1]
        for p in plates:
            if p.nodes.shape[1] != dim:
                raise DimensionMismatch("all plates must share one spatial dimension")
        pos = [p for p in plates if p.sign > 0]
        neg = [p for p in plates if p.sign < 0]
        if pos and neg:
            pos_nodes = np.vstack([p.nodes for p in pos])
            neg_nodes = np.vstack([p.nodes for p in neg])
            if any(float(d2.min()) <= 0.0 for _, d2 in _sq_dist_blocks(pos_nodes, neg_nodes)):
                raise VequilError(
                    "oppositely signed plates must be disjoint with positive separation"
                )
        object.__setattr__(self, "plates", plates)

    def with_sigma(self, sigmas) -> "Condenser":
        """This condenser with plate ``k``'s constraint replaced by ``sigmas[k]``.

        Only the new constraints are checked, as :class:`Plate` checks one; the
        nodes, ``g``, masses and plate separation are the ones already validated.
        """
        plates = []
        for p, sigma in zip(self.plates, sigmas, strict=True):
            p = copy.copy(p)  # a shallow copy: no __post_init__
            object.__setattr__(p, "sigma", _plate_sigma(p.id, sigma, p.n_nodes))
            plates.append(p)
        c = copy.copy(self)
        object.__setattr__(c, "plates", tuple(plates))
        return c

    @property
    def dimension(self) -> int:
        return self.plates[0].nodes.shape[1]

    @property
    def total_nodes(self) -> int:
        return sum(p.n_nodes for p in self.plates)

    def slices(self) -> list[slice]:
        out, start = [], 0
        for p in self.plates:
            out.append(slice(start, start + p.n_nodes))
            start += p.n_nodes
        return out

    def all_nodes(self) -> np.ndarray:
        return np.vstack([p.nodes for p in self.plates])

    def signs_per_node(self) -> np.ndarray:
        return np.concatenate([np.full(p.n_nodes, float(p.sign)) for p in self.plates])

    def measure(self, weights) -> "VectorMeasure":
        return VectorMeasure.for_condenser(self, weights)

    def zero_measure(self) -> "VectorMeasure":
        return self.measure([np.zeros(p.n_nodes) for p in self.plates])


def condenser_gram(spec: KernelSpec, c: Condenser) -> GramMatrix:
    """Gram matrix over all plate nodes; plate ``k`` owns rows ``c.slices()[k]``.

    The default epsilon is resolved from the minimum positive spacing of the
    full node collection (coincident equal-sign nodes are ignored).
    """
    return assemble_gram(spec, c.all_nodes())


@dataclass(frozen=True)
class VectorMeasure:
    """Per-plate nonnegative node weights; the optimization variable."""

    weights: tuple

    def __post_init__(self):
        ws = []
        for w in self.weights:
            arr = np.asarray(w, dtype=float).reshape(-1)
            if not np.all(np.isfinite(arr)):
                raise VequilError("vector measure weights must be finite")
            if np.any(arr < 0.0):
                raise VequilError("vector measure weights must be nonnegative")
            arr = arr.copy()
            arr.setflags(write=False)
            ws.append(arr)
        object.__setattr__(self, "weights", tuple(ws))

    @classmethod
    def for_condenser(cls, c: Condenser, weights) -> "VectorMeasure":
        mu = cls(weights=tuple(weights))
        check_shapes(c, mu)
        return mu

    def concat(self) -> np.ndarray:
        return np.concatenate(self.weights)


@dataclass(frozen=True)
class ScalarSignedMeasure:
    """Node-supported signed measure: distinct support points, signed weights."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        support = _as_points(self.support)
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if support.shape[0] != weights.shape[0]:
            raise DimensionMismatch("support and weights length mismatch")
        if not np.all(np.isfinite(weights)):
            raise VequilError("scalar measure weights must be finite")
        if _merge_points(support)[0].size < support.shape[0]:
            raise VequilError("scalar measure support points must be distinct")
        support.setflags(write=False)
        weights = weights.copy()
        weights.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)

    @property
    def total(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class FieldSpec:
    """External field: explicit samples (case 1) or a charge potential (case 2).

    Case 1 samples may be ``+inf`` (forbidden nodes); case 2 fields are
    ``sign_i * kappa(., zeta)`` for a finite-energy signed measure ``zeta``.
    """

    case: str
    case1_values: tuple | None = None
    case2_zeta: ScalarSignedMeasure | None = None

    def __post_init__(self):
        if self.case not in (CASE1, CASE2):
            raise VequilError(f"unknown field case {self.case!r}")
        if self.case == CASE1:
            if self.case1_values is None:
                raise VequilError("case1 field requires per-plate values")
            vals = []
            for v in self.case1_values:
                arr = np.asarray(v, dtype=float).reshape(-1)
                if np.any(np.isnan(arr)) or np.any(arr == -np.inf):
                    raise VequilError("case1 field values must lie in (-inf, +inf]")
                arr = arr.copy()
                arr.setflags(write=False)
                vals.append(arr)
            object.__setattr__(self, "case1_values", tuple(vals))
        else:
            if self.case2_zeta is None:
                raise VequilError("case2 field requires a zeta measure")


def zero_field(c: Condenser) -> FieldSpec:
    return FieldSpec(case=CASE1, case1_values=tuple(np.zeros(p.n_nodes) for p in c.plates))


def check_shapes(c: Condenser, mu: VectorMeasure) -> None:
    if len(mu.weights) != len(c.plates):
        raise DimensionMismatch("vector measure plate count mismatch")
    for p, w in zip(c.plates, mu.weights):
        if w.shape != (p.n_nodes,):
            raise DimensionMismatch(f"plate {p.id}: weight vector has wrong length")


def _check_field(c: Condenser, f: FieldSpec) -> None:
    if f.case == CASE1:
        if len(f.case1_values) != len(c.plates):
            raise DimensionMismatch("field plate count mismatch")
        for p, v in zip(c.plates, f.case1_values):
            if v.shape != (p.n_nodes,):
                raise DimensionMismatch(f"plate {p.id}: field samples have wrong length")


def r_map(c: Condenser, mu: VectorMeasure) -> ScalarSignedMeasure:
    """Superpose all plate charges with their signs into one signed measure.

    Nodes shared between plates (exact coordinate equality) accumulate into a
    single support point; points whose net weight cancels to zero are kept
    with weight zero, so the support bookkeeping is exact.
    """
    check_shapes(c, mu)
    return _merge_weighted(c.all_nodes(), _signed_concat(c, mu))


def _signed_concat(c: Condenser, mu: VectorMeasure) -> np.ndarray:
    return c.signs_per_node() * mu.concat()


def _quad_form(K: GramMatrix, z: np.ndarray) -> float:
    return float(z @ K.matvec(z))


def energy(c: Condenser, K: GramMatrix, mu: VectorMeasure) -> float:
    """Quadratic interaction energy sum_ij sign_i sign_j w_i' K_ij w_j."""
    check_shapes(c, mu)
    return _quad_form(K, _signed_concat(c, mu))


def mutual_energy(c: Condenser, K: GramMatrix, mu: VectorMeasure, nu: VectorMeasure) -> float:
    """Bilinear mutual energy; symmetrized so the diagonal equals ``energy``."""
    check_shapes(c, mu)
    check_shapes(c, nu)
    z1, z2 = _signed_concat(c, mu), _signed_concat(c, nu)
    return 0.5 * (float(z1 @ K.matvec(z2)) + float(z2 @ K.matvec(z1)))


def semimetric_distance(c: Condenser, K: GramMatrix, mu: VectorMeasure, nu: VectorMeasure) -> float:
    """Energy seminorm of the difference; equals the seminorm of the R-images.

    The quadratic form is clamped at zero before the square root to absorb
    eigensolver-scale float noise on positive semidefinite Grams.
    """
    check_shapes(c, mu)
    check_shapes(c, nu)
    z = c.signs_per_node() * (mu.concat() - nu.concat())
    return float(np.sqrt(max(0.0, _quad_form(K, z))))


def scalar_energy(spec: KernelSpec, m: ScalarSignedMeasure) -> float:
    """Kernel energy of a scalar signed measure, assembled over its support."""
    G = assemble_gram(spec, m.support)
    return _quad_form(G, m.weights)


def scalar_mutual_energy(spec: KernelSpec, m1: ScalarSignedMeasure, m2: ScalarSignedMeasure) -> float:
    C = cross_kernel(spec, m1.support, m2.support)
    return float(m1.weights @ (C @ m2.weights))


def scalar_sum(m1: ScalarSignedMeasure, m2: ScalarSignedMeasure) -> ScalarSignedMeasure:
    """Support-merged sum of two scalar signed measures (exact coordinates)."""
    return _merge_weighted(np.vstack([m1.support, m2.support]),
                           np.concatenate([m1.weights, m2.weights]))


def field_linear_coefficients(c: Condenser, K: GramMatrix, f: FieldSpec) -> np.ndarray:
    """Per-node coefficients q with ``<f, mu> = sum(q * weights)``.

    Case 1 returns the sampled values (may contain ``+inf``); case 2 returns
    ``sign_i * kappa(node, zeta)`` evaluated through the kernel the Gram was
    assembled with.
    """
    _check_field(c, f)
    if f.case == CASE1:
        return np.concatenate(f.case1_values)
    if K.spec is None:
        raise VequilError("case2 field needs a Gram assembled from a kernel spec")
    zeta = f.case2_zeta
    C = cross_kernel(K.spec, c.all_nodes(), zeta.support)
    return c.signs_per_node() * (C @ zeta.weights)


def weighted_energy(c: Condenser, K: GramMatrix, f: FieldSpec, mu: VectorMeasure) -> float:
    """Field-weighted energy ``energy + 2 <f, mu>``.

    Case 1 uses the 0*inf = 0 convention: a ``+inf`` field node contributes
    nothing when it carries no charge and makes the value ``+inf`` otherwise.
    """
    check_shapes(c, mu)
    q = field_linear_coefficients(c, K, f)
    w = mu.concat()
    if f.case == CASE1:
        infinite = np.isinf(q)
        if np.any(infinite & (w > 0.0)):
            return float(np.inf)
        lin = float(q[~infinite] @ w[~infinite])
    else:
        lin = float(q @ w)
    return energy(c, K, mu) + 2.0 * lin


@dataclass(frozen=True)
class PlateFeasibility:
    plate_id: int
    feasible: bool
    slack: float


@dataclass(frozen=True)
class FeasibilityReport:
    per_plate: tuple

    @property
    def feasible(self) -> bool:
        return all(p.feasible for p in self.per_plate)

    def failing(self) -> list[int]:
        return [p.plate_id for p in self.per_plate if not p.feasible]


def check_feasibility(c: Condenser, f: FieldSpec) -> FeasibilityReport:
    """Per-plate verdict: mass must not exceed the admissible g-mass of sigma.

    Plate i is feasible iff ``a_i <= sum(g_i * sigma_i)`` over nodes where the
    field is finite; the slack is that sum minus ``a_i``.  Equality (the
    degenerate pinned plate) is feasible, with a relative float fuzz so that
    masses computed by a different summation order still count as equal.
    """
    _check_field(c, f)
    verdicts = []
    for k, p in enumerate(c.plates):
        if f.case == CASE1:
            usable = np.isfinite(f.case1_values[k])
        else:
            usable = np.ones(p.n_nodes, dtype=bool)
        cap = float(p.g[usable] @ p.sigma[usable])
        slack = cap - p.mass
        fuzz = 1e-12 * max(1.0, abs(cap))
        verdicts.append(PlateFeasibility(plate_id=p.id, feasible=slack >= -fuzz, slack=slack))
    return FeasibilityReport(per_plate=tuple(verdicts))
