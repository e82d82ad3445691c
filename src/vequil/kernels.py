"""Kernel catalog, Gram assembly, and positive-definiteness diagnostics.

Supported families:

* ``riesz``        -- ``(|x-y|^2 + eps^2)^((alpha-n)/2)`` with ``0 < alpha < n``
* ``newtonian``    -- alias for ``riesz`` with ``alpha = 2`` (requires n >= 3)
* ``log_disk``     -- ``-0.5 * log(|x-y|^2 + eps^2)``, points inside the open
  unit disk of the plane
* ``custom_table`` -- entries injected as an explicit symmetric matrix; nodes
  are integer index points and geometry is bypassed entirely

The singular families are regularized by the length ``eps``, which enters
every entry as ``|x-y|^2 + eps^2``; a node is thereby modelled as a small
charge cell of that size.  When ``eps`` is left unset it defaults, at
assembly time, to half the minimum (positive) inter-node spacing of the node
set.

A Gram is assembled by two in-place passes over its own N x N buffer, in
row blocks of :data:`_ASSEMBLY_BLOCK` rows.  The first writes the squared
distances, summed one coordinate at a time, left to right, and takes the
default ``eps`` from their positive minimum; the second adds ``eps^2`` and
applies the family.  Working memory is the Gram plus one block of scratch.
The sum order makes an assembled Gram exactly symmetric by construction, and
each entry equals the point evaluation of its pair bit for bit.

Positive definiteness is decided two ways.  The solvers' gate
(:func:`_pd_gate`) never computes a spectrum: it takes the largest
eigenvalue from Lanczos, sets ``pd_tol = 1e-10 * lambda_max``, and certifies
strict definiteness by a Cholesky factorization of ``K - pd_tol*I`` and
definiteness by one of ``K + pd_tol*I``.  The diagnostic
:func:`check_positive_definite` (the ``check-pd`` command) reports both
extreme eigenvalues from a dense symmetric eigensolver.  The two agree except
for matrices whose smallest eigenvalue lies within about ``1e-12 * lambda_max``
of ``-pd_tol`` or ``+pd_tol``, the rounding error of either method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import DimensionMismatch, EigensolverError, KernelDomainError

RIESZ = "riesz"
NEWTONIAN = "newtonian"
LOG_DISK = "log_disk"
CUSTOM_TABLE = "custom_table"

FAMILIES = (RIESZ, NEWTONIAN, LOG_DISK, CUSTOM_TABLE)
SINGULAR_FAMILIES = (RIESZ, NEWTONIAN, LOG_DISK)

# Row-block size of every pairwise-distance pass: a block of N columns stays in cache.
_ASSEMBLY_BLOCK = 32


def _as_points(x) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise DimensionMismatch(f"expected points of shape (N, n), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DimensionMismatch("points must have finite coordinates")
    return pts


@dataclass(frozen=True)
class KernelSpec:
    """Parameters selecting one kernel from the catalog.

    ``epsilon=None`` means "resolve to half the minimum node spacing when a
    Gram matrix is assembled"; point evaluations treat it as 0 (the exact,
    possibly singular, kernel).
    """

    family: str
    alpha: float | None = None
    epsilon: float | None = None
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise KernelDomainError(f"unknown kernel family {self.family!r}")
        if self.family == NEWTONIAN:
            if self.alpha is None:
                object.__setattr__(self, "alpha", 2.0)
            elif self.alpha != 2.0:
                raise KernelDomainError("newtonian kernel fixes alpha = 2")
        if self.family in (RIESZ, NEWTONIAN):
            if self.alpha is None or not 0.0 < float(self.alpha):
                raise KernelDomainError("riesz kernel requires alpha > 0")
        if self.epsilon is not None and not self.epsilon >= 0.0:
            raise KernelDomainError("epsilon must be >= 0")
        if self.family == CUSTOM_TABLE:
            if self.table is None:
                raise KernelDomainError("custom_table kernel requires a table")
            tbl = np.asarray(self.table, dtype=float)
            if tbl.ndim != 2 or tbl.shape[0] != tbl.shape[1]:
                raise KernelDomainError("custom table must be square")
            if not np.array_equal(tbl, tbl.T):
                raise KernelDomainError("custom table must be symmetric")
            tbl = tbl.copy()
            tbl.setflags(write=False)
            object.__setattr__(self, "table", tbl)
        elif self.table is not None:
            raise KernelDomainError("table is only valid for custom_table kernels")

    @property
    def singular(self) -> bool:
        return self.family in SINGULAR_FAMILIES

    def with_epsilon(self, epsilon: float) -> "KernelSpec":
        return KernelSpec(self.family, self.alpha, float(epsilon), self.table)

    def _check_dimension(self, n: int) -> None:
        if self.family in (RIESZ, NEWTONIAN):
            if not float(self.alpha) < n:
                raise KernelDomainError(
                    f"riesz order alpha={self.alpha} requires alpha < dimension (n={n})"
                )
            if self.family == NEWTONIAN and n < 3:
                raise KernelDomainError("newtonian kernel requires dimension >= 3")
        if self.family == LOG_DISK and n != 2:
            raise KernelDomainError("log_disk kernel lives in the plane (n = 2)")


@dataclass(frozen=True)
class GramMatrix:
    """Dense symmetric kernel matrix over an ordered node set.

    Row ``i`` belongs to node ``nodes[i]``; over a condenser the plates occupy
    consecutive row ranges, given by ``Condenser.slices()``.  ``spec`` and
    ``nodes`` record how the matrix was assembled so downstream operations
    (external fields, balayage rows) can evaluate the same kernel off, or
    locate points in, the stored node set.
    """

    entries: np.ndarray
    spec: KernelSpec | None = None
    nodes: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=float)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
            raise DimensionMismatch("Gram entries must be a square matrix")
        if not np.array_equal(ent, ent.T):
            raise DimensionMismatch("Gram entries must be exactly symmetric")
        if not np.all(np.isfinite(ent)):
            raise KernelDomainError(
                "Gram entries must be finite; regularize the diagonal (epsilon > 0)"
            )
        ent = ent.copy()
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    @classmethod
    def _assembled(cls, entries: np.ndarray, spec: KernelSpec | None = None,
                   nodes: np.ndarray | None = None) -> "GramMatrix":
        """Wrap entries that are symmetric by construction, without a copy.

        For matrices vequil computes itself: ``entries`` must be a fresh,
        exactly symmetric float array owned by nobody else; it is frozen in
        place.  Only finiteness is checked, by ``min`` and ``max`` (which
        propagate NaN), so without an N x N temporary.
        """
        if not (np.isfinite(entries.min(initial=0.0)) and np.isfinite(entries.max(initial=0.0))):
            raise KernelDomainError(
                "Gram entries must be finite; regularize the diagonal (epsilon > 0)"
            )
        entries.setflags(write=False)
        gram = object.__new__(cls)
        for name, value in (("entries", entries), ("spec", spec), ("nodes", nodes),
                            ("_cache", {})):
            object.__setattr__(gram, name, value)
        return gram

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def lambda_max(self) -> float:
        """Largest eigenvalue by Lanczos (start vector all ones), cached."""
        if "lambda_max" not in self._cache:
            if self.size == 1:
                lam = float(self.entries[0, 0])
            else:
                try:
                    (lam,) = scipy.sparse.linalg.eigsh(
                        self.entries, k=1, which="LA", v0=np.ones(self.size),
                        return_eigenvectors=False,
                    )
                except scipy.sparse.linalg.ArpackError as exc:
                    raise EigensolverError(f"Lanczos eigensolver failed: {exc}") from exc
            self._cache["lambda_max"] = float(lam)
        return self._cache["lambda_max"]

    def eig_extremes(self) -> tuple[float, float]:
        """Smallest and largest eigenvalue, cached after the first call."""
        if "eig" not in self._cache:
            try:
                vals = np.linalg.eigvalsh(self.entries)
            except np.linalg.LinAlgError as exc:
                raise EigensolverError(f"symmetric eigensolver failed: {exc}") from exc
            self._cache["eig"] = (float(vals[0]), float(vals[-1]))
        return self._cache["eig"]


@dataclass(frozen=True)
class PDReport:
    min_eigenvalue: float
    max_eigenvalue: float
    pd_tol: float
    is_pd: bool
    is_strictly_pd: bool


def evaluate_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate the kernel at a single pair of points.

    For ``custom_table`` kernels the points are integer row indices into the
    table.  ``epsilon=None`` is treated as 0 here, so coincident points under
    a singular family evaluate to ``+inf``.
    """
    if spec.family == CUSTOM_TABLE:
        i, j = int(np.asarray(x).ravel()[0]), int(np.asarray(y).ravel()[0])
        return float(spec.table[i, j])
    px, py = _as_points(x)[0], _as_points(y)[0]
    if px.shape != py.shape:
        raise DimensionMismatch(f"point dimensions differ: {px.shape[0]} vs {py.shape[0]}")
    n = px.shape[0]
    spec._check_dimension(n)
    if spec.family == LOG_DISK:
        for p in (px, py):
            if np.sum(p * p) >= 1.0:
                raise KernelDomainError("log_disk points must lie inside the open unit disk")
    eps = 0.0 if spec.epsilon is None else float(spec.epsilon)
    # Same distance sweep and family code as Gram assembly: bit-identical entries.
    r2 = next(_sq_dist_blocks(px[None, :], py[None, :]))[1][0] + eps * eps
    if r2[0] == 0.0:
        return float(np.inf)
    return float(_apply_family(spec, r2, n)[0])


def minimum_spacing(nodes) -> float:
    """Smallest positive pairwise distance of a node set (inf if none)."""
    pts = _as_points(nodes)
    blocks = _sq_dist_blocks(pts, pts)
    return float(np.sqrt(min((_min_positive(d2) for _, d2 in blocks), default=np.inf)))


def resolve_epsilon(spec: KernelSpec, nodes) -> KernelSpec:
    """Fill in the default diagonal regularization for a node set.

    The default is half the minimum positive inter-node spacing.  Coincident
    nodes (legal for overlapping equal-sign plates) are ignored when taking
    the minimum.  :func:`assemble_gram` takes the same value from its own
    distance pass instead.
    """
    if spec.epsilon is not None or not spec.singular:
        return spec
    return spec.with_epsilon(_default_epsilon(minimum_spacing(nodes)))


def _min_positive(d2: np.ndarray) -> float:
    return float(np.min(d2, where=d2 > 0.0, initial=np.inf))


def _default_epsilon(spacing: float) -> float:
    if not np.isfinite(spacing):
        raise KernelDomainError(
            "cannot derive a default epsilon from a single node; set epsilon explicitly"
        )
    return 0.5 * spacing


def _sq_dist_blocks(rows: np.ndarray, cols: np.ndarray, out: np.ndarray | None = None):
    """Yield ``(start, d2)``, ``d2[p, q] = |rows[start + p] - cols[q]|^2``, by row block.

    Each ``d2`` is a fresh array, or the view of its rows of ``out`` when given.
    """
    diff = np.empty((min(_ASSEMBLY_BLOCK, rows.shape[0]), cols.shape[0]))
    for start in range(0, rows.shape[0], _ASSEMBLY_BLOCK):
        blk = rows[start : start + _ASSEMBLY_BLOCK]
        t = diff[: blk.shape[0]]
        d2 = np.empty_like(t) if out is None else out[start : start + blk.shape[0]]
        # (a_k - b_k)**2 summed over k left to right: exactly symmetric,
        # identical for every pair wherever it is evaluated.
        np.subtract.outer(blk[:, 0], cols[:, 0], out=d2)
        np.square(d2, out=d2)
        for k in range(1, rows.shape[1]):
            np.subtract.outer(blk[:, k], cols[:, k], out=t)
            np.square(t, out=t)
            d2 += t
        yield start, d2


def _apply_family(spec: KernelSpec, r2: np.ndarray, n: int) -> np.ndarray:
    """The kernel of squared regularized distances ``r2``, computed in place."""
    if spec.family == LOG_DISK:
        np.log(r2, out=r2)
        r2 *= -0.5
    else:
        np.power(r2, (float(spec.alpha) - n) / 2.0, out=r2)
    return r2


def _kernel_matrix(spec: KernelSpec, X: np.ndarray,
                   Y: np.ndarray) -> tuple[np.ndarray, KernelSpec]:
    """Kernel matrix of ``X`` against ``Y`` by the two passes of the module
    notes, and the spec it used (an unset epsilon resolved by pass 1)."""
    out = np.empty((X.shape[0], Y.shape[0]))
    min_d2 = np.inf
    for _, d2 in _sq_dist_blocks(X, Y, out):
        if spec.epsilon is None:
            min_d2 = min(min_d2, _min_positive(d2))
    if spec.epsilon is None:
        spec = spec.with_epsilon(_default_epsilon(float(np.sqrt(min_d2))))
    eps = float(spec.epsilon)
    for start in range(0, out.shape[0], _ASSEMBLY_BLOCK):
        r2 = out[start : start + _ASSEMBLY_BLOCK]
        r2 += eps * eps
        _apply_family(spec, r2, X.shape[1])
    return out, spec


def cross_kernel(spec: KernelSpec, x_nodes, y_nodes) -> np.ndarray:
    """Rectangular kernel matrix ``K[p, q] = kappa(x_p, y_q)``.

    Requires a concrete ``epsilon`` for singular families (coincident pairs
    would otherwise produce infinities).
    """
    if spec.family == CUSTOM_TABLE:
        xi = np.asarray(x_nodes, dtype=float).reshape(-1).astype(int)
        yi = np.asarray(y_nodes, dtype=float).reshape(-1).astype(int)
        return spec.table[np.ix_(xi, yi)].astype(float)
    X, Y = _as_points(x_nodes), _as_points(y_nodes)
    if X.shape[1] != Y.shape[1]:
        raise DimensionMismatch("node sets have different dimensions")
    n = X.shape[1]
    spec._check_dimension(n)
    if spec.family == LOG_DISK:
        if np.any((X * X).sum(axis=1) >= 1.0) or np.any((Y * Y).sum(axis=1) >= 1.0):
            raise KernelDomainError("log_disk points must lie inside the open unit disk")
    with np.errstate(divide="ignore"):  # a coincident pair at eps = 0 gives inf, refused below
        out, _ = _kernel_matrix(spec.with_epsilon(spec.epsilon or 0.0), X, Y)
    if not np.all(np.isfinite(out)):
        raise KernelDomainError("cross kernel has singular entries; use epsilon > 0")
    return out


def assemble_gram(spec: KernelSpec, nodes) -> GramMatrix:
    """Assemble the dense Gram matrix of a kernel over a node set.

    Row ``i`` belongs to ``nodes[i]``.  ``epsilon=None`` on a singular family
    resolves to half the minimum positive node spacing.  The result is
    exactly symmetric and finite.
    """
    if spec.family == CUSTOM_TABLE:
        if nodes is None:
            idx = np.arange(spec.table.shape[0])
        else:
            idx = np.asarray(nodes, dtype=float).reshape(-1).astype(int)
        entries = spec.table[np.ix_(idx, idx)].astype(float)
        pts = idx.astype(float)[:, None]
    else:
        pts = _as_points(nodes)
        spec._check_dimension(pts.shape[1])
        if spec.epsilon is not None and not spec.epsilon > 0.0:
            raise KernelDomainError(
                f"{spec.family} Gram assembly requires epsilon > 0 (singular diagonal)"
            )
        if spec.family == LOG_DISK and np.any((pts * pts).sum(axis=1) >= 1.0):
            raise KernelDomainError("log_disk nodes must lie inside the open unit disk")
        entries, spec = _kernel_matrix(spec, pts, pts)
    return GramMatrix._assembled(entries, spec=spec, nodes=pts)


def check_positive_definite(G: GramMatrix, pd_tol: float | None = None) -> PDReport:
    """Diagnose (strict) positive definiteness from the extreme eigenvalues.

    Both extremes come from a full dense symmetric eigendecomposition, which
    costs far more than the solvers' Cholesky gate (:func:`_pd_gate`); the
    solvers call this only to word a refusal.  ``pd_tol`` defaults to
    ``1e-10 * max|eigenvalue|``, the float noise floor of dense symmetric
    eigensolvers.
    """
    lo, hi = G.eig_extremes()
    if pd_tol is None:
        pd_tol = 1e-10 * max(abs(lo), abs(hi), 1e-300)
    return PDReport(
        min_eigenvalue=lo,
        max_eigenvalue=hi,
        pd_tol=float(pd_tol),
        is_pd=lo >= -pd_tol,
        is_strictly_pd=lo > pd_tol,
    )


def _pd_gate(G: GramMatrix) -> tuple[bool, bool]:
    """``(is_pd, is_strictly_pd)`` of a Gram by Cholesky factorizations, cached.

    With ``pd_tol = 1e-10 * lambda_max``, strict definiteness holds when
    ``K - pd_tol*I`` has a Cholesky factor, and definiteness when that one or
    the one of ``K + pd_tol*I`` does.  One copy of ``K`` is shifted and
    factored in place.  The decisions equal those of
    :func:`check_positive_definite` unless the smallest eigenvalue lies
    within the factorization's rounding error (about ``1e-12 * lambda_max``)
    of ``-pd_tol`` or ``+pd_tol``.

    When the strict factorization succeeds, its upper factor ``U`` (with
    ``U'U = K - pd_tol*I``) stays in the cache as ``"cholesky": (U, False)``,
    ready for ``scipy.linalg.cho_solve``; ``U`` is Fortran-ordered, so the
    solve takes it without a copy.  It is the gate's one work matrix, kept.
    """
    if "pd_gate" not in G._cache:
        pd_tol = 1e-10 * max(G.lambda_max(), 1e-300)
        work = np.empty_like(G.entries)

        def factor(shift: float) -> np.ndarray | None:
            work[...] = G.entries
            work.reshape(-1)[:: G.size + 1] += shift
            try:
                # work.T is Fortran-ordered and, K being symmetric, equal to
                # work, so LAPACK factors it in place.
                return scipy.linalg.cholesky(work.T, overwrite_a=True, check_finite=False)
            except np.linalg.LinAlgError:
                return None

        upper = factor(-pd_tol)
        strict = upper is not None
        if strict:
            G._cache["cholesky"] = (upper, False)
        G._cache["pd_gate"] = (strict or factor(pd_tol) is not None, strict)
    return G._cache["pd_gate"]
