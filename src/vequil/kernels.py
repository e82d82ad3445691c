"""Kernel catalog, Gram assembly, and positive-definiteness diagnostics.

Supported families:

* ``riesz``        -- ``(|x-y|^2 + eps^2)^((alpha-n)/2)`` with ``0 < alpha < n``
* ``newtonian``    -- alias for ``riesz`` with ``alpha = 2`` (requires n >= 3)
* ``log_disk``     -- ``-0.5 * log(|x-y|^2 + eps^2)``, points inside the open
  unit disk of the plane
* ``custom_table`` -- entries injected as an explicit symmetric ``m x m``
  matrix; nodes are row indices in ``[0, m)`` and geometry is bypassed

The singular families are regularized by the length ``eps``, which enters
every entry as ``|x-y|^2 + eps^2``; a node is thereby modelled as a small
charge cell of that size.  An unset ``eps`` defaults, at assembly time, to
half the minimum (positive) inter-node spacing of the node set.

:func:`evaluate_kernel`, :func:`cross_kernel` and :func:`assemble_gram` take
their points through one check (:func:`_kernel_points`) and their entries from
one evaluation (:func:`_kernel_matrix`): they refuse the same inputs with the
same error, and agree bit for bit.

A Gram is the C-lower triangle and the diagonal of its N x N buffer, and is
assembled by two in-place passes over the lower row blocks of a zeroed one,
:data:`_ASSEMBLY_BLOCK` rows at a time.  The first writes the squared
distances, summed one coordinate at a time, left to right, and takes the
default ``eps`` from their positive minimum; the second adds ``eps^2``,
applies the family and refuses a non-finite block while it is in cache.
Working memory is the Gram plus one block, and each entry is the point
evaluation of its pair bit for bit.  The C-upper triangle keeps the last factor
of :meth:`GramMatrix._factored`, whose layout no other module reads: they solve
by :meth:`GramMatrix.solve` and :meth:`GramMatrix.least_squares`.

Positive definiteness is decided two ways.  The solvers' gate (:func:`_pd_gate`)
never computes a spectrum: it takes the largest eigenvalue from vequil's own
Lanczos iteration on the Gram product (:meth:`GramMatrix.lambda_max`), sets
``pd_tol = 1e-10 * lambda_max``, and certifies strict definiteness by a Cholesky
factorization of ``K - pd_tol*I`` and definiteness by one of ``K + pd_tol*I``.
Each is made in the Gram's spare triangle (:meth:`GramMatrix._factored`): the
gate allocates no N x N matrix, and a Gram must not be read from another thread
while it is gated.  The diagnostic :func:`check_positive_definite` (``check-pd``)
reports both extreme eigenvalues from a dense symmetric eigensolver.  The two
agree except for matrices whose smallest eigenvalue lies within about
``1e-12 * lambda_max`` of ``-pd_tol`` or ``+pd_tol``, the rounding error of either.

Gram products go through :meth:`GramMatrix.matvec`, scipy's ``dsymv``, not
numpy's ``@``, and factorizations and solves through :meth:`GramMatrix._factored`.
numpy and scipy each ship their own OpenBLAS, and each library's worker
threads spin for about 0.1 s after every call; a solve that alternated numpy
products with scipy's Cholesky factorizations and solves would run each on
cores the other library's idle threads still hold.  With one library, the
Lanczos products and reorthogonalization (``dgemv``), the factorizations,
the solves and the certificate share one thread pool.

A caller's own numpy BLAS work still leaves numpy's threads spinning, and
OpenBLAS threads a Cholesky factorization of 128 rows or more, so a
factorization on two threads then waits for a core at each hand-off: right
after numpy BLAS, one in ten 192-row gates of ``exhaust`` commands took over
90 ms, and none over 1 ms on one thread.  So :meth:`GramMatrix._factored`
factors a Gram of at most :data:`_ONE_THREAD_ROWS` rows, and solves with the
factor (its internal ``use`` callback), on one thread of scipy's pool
(:func:`vequil._lapack.one_blas_thread`), then puts the count back.  The cut
is the largest size at which one thread beat two on the mean of the "idle"
and "after numpy" medians of a ``dpotrf`` sweep on a 2-vCPU machine
(README); larger Grams keep the caller's count.

These routines are scipy's f2py modules ``_fblas`` and ``_flapack``, loaded by
:mod:`vequil._lapack` from their files without the ``scipy.linalg`` package
import (half of a fresh ``import vequil.cli``); a later ``import scipy.linalg``
reuses them.  Where the files are not found, ``_lapack`` imports
``scipy.linalg.blas`` and ``scipy.linalg.lapack``.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field

import numpy as np

from ._lapack import blas, lapack, one_blas_thread
from .errors import (DimensionMismatch, EigensolverError, KernelDomainError, NotPositiveDefinite,
                     VequilError)

RIESZ = "riesz"
NEWTONIAN = "newtonian"
LOG_DISK = "log_disk"
CUSTOM_TABLE = "custom_table"

FAMILIES = (RIESZ, NEWTONIAN, LOG_DISK, CUSTOM_TABLE)
SINGULAR_FAMILIES = (RIESZ, NEWTONIAN, LOG_DISK)

_ASSEMBLY_BLOCK = 32  # rows per block of distance passes (cache-sized)
_MIRROR_TILE = 128  # rows and columns per square tile of _mirror's transposed copies

_LANCZOS_STEPS = 300  # cap on GramMatrix.lambda_max's products and basis rows
_ONE_THREAD_ROWS = 1024  # the largest Gram GramMatrix._factored factors on one thread
_NONFINITE_GRAM = "Gram entries must be finite; regularize the diagonal (epsilon > 0)"


def _orthogonalized(B: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``w`` less its projection on the orthonormal rows of ``B``, taken twice."""
    for _ in range(2):
        h = blas.dgemv(1.0, B.T, w, trans=1)
        w = blas.dgemv(-1.0, B.T, h, beta=1.0, y=w, overwrite_y=1)
    return w


def _mirror(a: np.ndarray) -> np.ndarray:
    """Copy the C-lower triangle of the square ``a`` into its C-upper one, by square
    tiles (on 2 vCPUs 6-12 ms at 3,000 rows and 1.1-1.3 at 1,024, against 19-21 and
    2.4-2.6 with 32-row strips across the whole matrix)."""
    n, t = a.shape[0], _MIRROR_TILE
    upper = np.triu(np.ones((t, t), dtype=bool), 1)
    for i in range(0, n, t):
        blk, mask = a[i:i + t, i:i + t], upper[: min(t, n - i), : min(t, n - i)]
        blk[mask] = blk.T[mask]
        for k in range(i + t, n, t):
            a[i:i + t, k:k + t] = a[k:k + t, i:i + t].T
    return a


def _all_finite(a: np.ndarray) -> bool:
    """No inf or NaN in ``a``, by ``min`` and ``max`` (which propagate NaN): no temporary."""
    return bool(np.isfinite(a.min(initial=0.0)) and np.isfinite(a.max(initial=0.0)))


def _float_array(x) -> np.ndarray:
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError):  # a ragged list
        raise DimensionMismatch("expected points of shape (N, n), got a ragged array") from None


def _as_points(x) -> np.ndarray:
    pts = _float_array(x)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise DimensionMismatch(f"expected points of shape (N, n), got {pts.shape}")
    if not _all_finite(pts):
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
            tbl = np.array(self.table, dtype=float)
            if tbl.ndim != 2 or tbl.shape[0] != tbl.shape[1]:
                raise KernelDomainError("custom table must be square")
            if not np.array_equal(tbl, tbl.T):
                raise KernelDomainError("custom table must be symmetric")
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

    The Gram is the C-lower triangle and diagonal of ``entries``, a buffer of its own;
    the C-upper triangle is the scratch of :meth:`_factored`, the buffer's one writer.
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
        if not _all_finite(ent):
            raise KernelDomainError(_NONFINITE_GRAM)
        ent = ent.copy()
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    @classmethod
    def _assembled(cls, entries: np.ndarray, spec: KernelSpec | None = None,
                   nodes: np.ndarray | None = None) -> "GramMatrix":
        """Wrap, and freeze in place, a fresh float buffer owned by nobody else whose
        C-lower triangle is a finite Gram vequil computed: no copy, no check."""
        entries.setflags(write=False)
        gram = object.__new__(cls)
        gram.__dict__.update(entries=entries, spec=spec, nodes=nodes, _cache={})
        return gram

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def dense(self) -> np.ndarray:
        """A full symmetric N x N copy of the Gram, made on demand; no command calls it."""
        return self.rows(self.size)

    def rows(self, n: int, stop: int | None = None) -> np.ndarray:
        """The leading rows ``K[:n, :stop]`` (``n <= stop``), a fresh C-ordered copy."""
        out = self.entries[:stop, :n].T.copy()  # K where a column is at or right of its row
        _mirror(out[:, :n].T)
        return out

    def block(self, index) -> "GramMatrix":
        """The principal block on a slice or increasing indices; ``self``, caches kept, if all."""
        idx = np.arange(self.size)[index]
        if np.array_equal(idx, np.arange(self.size)):
            return self
        ent = (self.entries[index, index].copy() if isinstance(index, slice)
               else self.entries[np.ix_(idx, idx)])  # a slice copies twice as fast
        return GramMatrix._assembled(ent, spec=self.spec,
                                     nodes=None if self.nodes is None else self.nodes[idx])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The Gram product ``K x``, by scipy's BLAS ``dsymv``.

        ``dsymv`` reads the upper triangle, the Gram, of the Fortran view
        ``entries.T``: no copy.  Every Gram product of a solve goes through
        here, so a solve does all of its BLAS and LAPACK work on scipy's
        library (see the module notes).
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.size,):  # dsymv would read the first N entries of a longer x
            raise DimensionMismatch(f"Gram product of size {self.size} with shape {x.shape}")
        return blas.dsymv(1.0, self.entries.T, x)

    def lambda_max(self) -> float:
        """Largest eigenvalue by Lanczos with full reorthogonalization, cached.

        Starts from ones/sqrt(N), takes every product from :meth:`matvec` and
        orthogonalizes each new vector twice against the whole basis (``dgemv``
        on a row buffer that doubles when full).  A block stops when the top
        Ritz pair ``(theta, y)`` of its tridiagonal (``dstemr``) has a residual
        ``res = beta_k*|y_k| <= 1e-14*|theta|``, or the Kato-Temple bound on its
        error ``res^2 / gap <= 1e-13*|theta|``, ``gap`` being ``theta`` less the
        second Ritz value.  A breakdown (``beta_k`` at round-off of the largest
        product) leaves an invariant subspace that need not hold
        the top eigenvalue, so, as ARPACK's ``dgetv0`` does, the iteration
        restarts once from a seeded random vector orthogonal to the basis; that
        block sees every eigenvalue left.  The result is the largest Ritz value
        of the blocks; no convergence in :data:`_LANCZOS_STEPS` products raises
        :class:`EigensolverError`.
        """
        if "lambda_max" not in self._cache:
            n, steps = self.size, min(self.size, _LANCZOS_STEPS)
            V = np.empty((min(n, 16), n))  # the basis, one vector a row
            v, d, e, lam, scale, restarted = np.full(n, n ** -0.5), [], [], -np.inf, 0.0, False
            for k in range(steps):
                if k == len(V):
                    V = np.concatenate((V, np.empty((min(k, steps - k), n))))
                V[k] = v
                w = self.matvec(v)
                d.append(blas.ddot(v, w))
                scale = max(scale, blas.dnrm2(w))
                w = _orthogonalized(V[: k + 1], w)
                b = blas.dnrm2(w)
                m, vals, z, info = lapack.dstemr(d, e + [0.0], 2, 0.0, 0.0,
                                                 max(len(d) - 1, 1), len(d))
                if info:
                    raise EigensolverError("Lanczos' tridiagonal eigensolver failed")
                theta, res, broke = vals[m - 1], b * abs(z[-1, m - 1]), b <= 1e-12 * scale
                if (broke or res <= 1e-14 * abs(theta)
                        or res * res <= 1e-13 * abs(theta) * (theta - vals[0])):
                    lam = max(lam, theta)
                    if not broke or restarted or k == n - 1:
                        break
                    w = _orthogonalized(V[: k + 1], np.random.default_rng(k).standard_normal(n))
                    b, d, e, restarted = blas.dnrm2(w), [], [], True
                else:
                    e.append(b)
                v = w / b
            else:
                raise EigensolverError(f"Lanczos did not converge in {k + 1} products")
            self._cache["lambda_max"] = float(lam)
        return self._cache["lambda_max"]

    def _factored(self, shift: float, use=None):
        """A Cholesky factor of ``K + shift*I``, made and kept in the C-upper triangle.

        The one writer of ``entries``, and the one place vequil factors a Gram (for
        :meth:`solve`, :meth:`least_squares` and the PD gate).  LAPACK's ``dpotrf`` on
        the Fortran view ``entries.T`` (``lower=1``) works on the C-upper triangle and
        the diagonal, so the lower triangle is first copied into the upper one
        (:func:`_mirror`) and the diagonal shifted.  The factor ``L``, with
        ``L L' = K + shift*I``, stays there, its diagonal in an N-vector, and a later
        call at the same shift reuses it.  With a factor, ``use(c, d)`` runs while its
        diagonal is in place (``c`` the Fortran view, ``d`` ``K``'s diagonal); the
        result is ``use``'s (never None), True without ``use``, or None when the
        factorization is refused.  On the way out the diagonal is ``d``.  A Gram of at
        most :data:`_ONE_THREAD_ROWS` rows is factored, and ``use`` runs, on one thread
        of scipy's BLAS pool (module notes).
        """
        ent, small = self.entries, self.size <= _ONE_THREAD_ROWS
        d, kept = ent.diagonal().copy(), self._cache.pop("factor", None)
        ent.setflags(write=True)
        try:
            with one_blas_thread() if small else contextlib.nullcontext():
                if kept is not None and kept[0] == shift:
                    np.fill_diagonal(ent, kept[1])
                else:
                    np.fill_diagonal(_mirror(ent), d + shift)
                    if lapack.dpotrf(ent.T, lower=1, clean=0, overwrite_a=1)[1]:
                        return None
                    kept = (shift, ent.diagonal().copy())
                self._cache["factor"] = kept
                return use(ent.T, d) if use else True
        finally:
            np.fill_diagonal(ent, d)
            ent.setflags(write=False)

    def solve(self, b: np.ndarray, shift: float = 0.0) -> np.ndarray | None:
        """``K^-1 b`` (``b`` a vector or N x k) by ``dpotrs`` with the kept or a new factor
        ``L L' = K + shift*I`` (:meth:`_factored`), or None when that factor is refused.
        With a shift, ``b`` is a vector and one refinement step with ``K`` follows,
        ``x += (L L')^-1 (b - K x)``, ``K x`` being ``dsymv`` on the factor's storage plus
        ``(diag K - diag L) x``; it contracts the error by ``|shift| / (lambda_min + shift)``
        (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 12).
        At ``-pd_tol`` it reuses the PD gate's factor."""

        def use(c, d):
            x = lapack.dpotrs(c, b, lower=1)[0]
            if shift:
                x += lapack.dpotrs(c, b - (blas.dsymv(1.0, c, x) + (d - c.diagonal()) * x),
                                   lower=1)[0]
            return x

        return self._factored(shift, use)

    def least_squares(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """``(L', L^-1 b)``, ``L L' = K`` the kept or a new factor (:meth:`_factored`), or None
        when it is refused: ``|L' x - L^-1 b|^2 = x'Kx - 2 b'x + b'K^-1 b``.  ``L'`` is a
        fresh copy of the factor's triangle; ``L^-1 b`` is ``dtrtrs``'s."""
        return self._factored(0.0, lambda c, d: (np.triu(c.T), lapack.dtrtrs(c, b, lower=1)[0]))


@dataclass(frozen=True)
class PDReport:
    min_eigenvalue: float
    max_eigenvalue: float
    pd_tol: float
    is_pd: bool
    is_strictly_pd: bool


def evaluate_kernel(spec: KernelSpec, x, y) -> float:
    """The kernel at one pair of points (table row indices for ``custom_table``).

    The 1 x 1 case of :func:`cross_kernel`, except that a coincident pair under
    a singular family with ``epsilon=None`` evaluates to ``+inf``.
    """
    X, Y = _kernel_points(spec, x, y)
    if X.shape[0] != 1 or Y.shape[0] != 1:
        raise DimensionMismatch(f"expected one point each, got {X.shape[0]} and {Y.shape[0]}")
    return float(_pointwise(spec, X, Y)[0, 0])


def minimum_spacing(nodes) -> float:
    """Smallest positive pairwise distance of a node set (inf if none)."""
    pts = _as_points(nodes)
    blocks = _sq_dist_blocks(pts, pts, lower=True)
    return float(np.sqrt(min((_min_positive(*blk) for blk in blocks), default=np.inf)))


def resolve_epsilon(spec: KernelSpec, nodes) -> KernelSpec:
    """Fill in the default diagonal regularization for a node set: half the
    minimum positive inter-node spacing, coincident nodes (legal for overlapping
    equal-sign plates) ignored.  :func:`assemble_gram` takes the same value from
    its own distance pass instead."""
    if spec.epsilon is not None or not spec.singular:
        return spec
    return spec.with_epsilon(_default_epsilon(minimum_spacing(nodes)))


def _min_positive(start: int, d2: np.ndarray) -> float:
    """Smallest positive entry of a row block of :func:`_sq_dist_blocks`: a plain ``min``
    left of column ``start`` and right of it, each masked only where it reads 0."""
    best = np.inf
    for part in (d2[:, :start], d2[:, start:]):
        m = float(part.min(initial=np.inf))
        best = min(best, m if m > 0.0 else float(np.min(part, where=part > 0.0, initial=np.inf)))
    return best


def _default_epsilon(spacing: float) -> float:
    if not np.isfinite(spacing):
        raise KernelDomainError("cannot derive a default epsilon from a single node; "
                                "set epsilon explicitly")
    return 0.5 * spacing


def _sq_dist_blocks(rows: np.ndarray, cols: np.ndarray, out: np.ndarray | None = None,
                    lower: bool = False):
    """Yield ``(start, d2)``, ``d2[p, q] = |rows[start + p] - cols[q]|^2``, by row block,
    with ``lower`` only for ``q < start + len(d2)`` (the C-lower blocks).  Each ``d2``
    is a fresh array, or the view of its entries of ``out`` when given; ``cols`` is read
    by contiguous coordinate rows."""
    diff = np.empty((min(_ASSEMBLY_BLOCK, rows.shape[0]), cols.shape[0]))
    coords = np.ascontiguousarray(cols.T)
    for start in range(0, rows.shape[0], _ASSEMBLY_BLOCK):
        blk = rows[start : start + _ASSEMBLY_BLOCK]
        stop = start + blk.shape[0] if lower else cols.shape[0]
        t = diff[: blk.shape[0], :stop]
        d2 = np.empty_like(t) if out is None else out[start : start + blk.shape[0], :stop]
        # (a_k - b_k)**2 summed over k left to right: exactly symmetric,
        # identical for every pair wherever it is evaluated.
        np.subtract.outer(blk[:, 0], coords[0, :stop], out=d2)
        np.square(d2, out=d2)
        for k in range(1, rows.shape[1]):
            np.subtract.outer(blk[:, k], coords[k, :stop], out=t)
            np.square(t, out=t)
            d2 += t
        yield start, d2


def _apply_family(spec: KernelSpec, r2: np.ndarray, n: int) -> None:
    """The kernel of squared regularized distances ``r2``, computed in place; the
    exponent -1/2 as ``1 / sqrt``, within 2.3e-16 relative of ``np.power`` and faster."""
    if spec.family == LOG_DISK:
        np.log(r2, out=r2)
        r2 *= -0.5
    elif float(spec.alpha) - n == -1.0:
        np.divide(1.0, np.sqrt(r2, out=r2), out=r2)
    else:
        np.power(r2, (float(spec.alpha) - n) / 2.0, out=r2)


def _kernel_points(spec: KernelSpec, *sets) -> tuple[np.ndarray, ...]:
    """Each node set as an (N, n) float array in the kernel's domain.

    Table nodes are single whole numbers in ``[0, m)``, returned as one column;
    other points share one dimension that fits the family, and ``log_disk``
    points lie inside the open unit disk.
    """
    if spec.family == CUSTOM_TABLE:
        m, cols = spec.table.shape[0], [_float_array(s) for s in sets]
        if not all(c.shape[1:] in ((), (1,)) and np.all((c >= 0.0) & (c < m) & (c == np.floor(c)))
                   for c in cols):  # one index per node; NaN compares False
            raise KernelDomainError(f"custom_table nodes must be row indices in [0, {m})")
        return tuple(c.reshape(-1, 1) for c in cols)
    pts = tuple(_as_points(s) for s in sets)
    if len({p.shape[1] for p in pts}) > 1:
        raise DimensionMismatch("node sets have different dimensions")
    spec._check_dimension(pts[0].shape[1])
    if spec.family == LOG_DISK and any(np.any((p * p).sum(axis=1) >= 1.0) for p in pts):
        raise KernelDomainError("log_disk nodes must lie inside the open unit disk")
    return pts


def _memory_bytes() -> int:
    """Physical memory, from ``os.sysconf``: the most one float matrix may take."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(nodes: str, rows: int, cols: int) -> None:
    """Refuse, before it is allocated, a ``rows x cols`` float matrix over physical
    memory, with a :class:`VequilError` that names its ``nodes``, bytes and the limit."""
    need, limit = 8 * rows * cols, _memory_bytes()
    if need > limit:
        matrix = "Gram" if rows == cols else "kernel matrix"
        raise VequilError(f"{nodes} need a {need}-byte {matrix}, over {limit} bytes of memory")


def _kernel_matrix(spec: KernelSpec, X: np.ndarray, Y: np.ndarray, lower: bool = False,
                   refusal: str | None = None) -> tuple[np.ndarray, KernelSpec]:
    """Kernel matrix of checked points ``X`` against ``Y``, and the spec it used: a table's
    gather, or the module notes' two passes (pass 1 resolves an unset epsilon), over
    the C-lower blocks alone with ``lower``.  With ``refusal``, a non-finite entry
    raises :class:`KernelDomainError` with that message, checked block by block.  A
    matrix over physical memory is refused first (:func:`_check_memory`)."""
    rows, cols = X.shape[0], Y.shape[0]
    _check_memory(f"{rows} nodes" if rows == cols else f"{rows} x {cols} nodes", rows, cols)
    if spec.family == CUSTOM_TABLE:
        out = spec.table[np.ix_(X[:, 0].astype(int), Y[:, 0].astype(int))]
        if refusal and not _all_finite(out):
            raise KernelDomainError(refusal)
        return out, spec
    out, blocks, min_d2 = np.zeros((rows, cols)), [], np.inf
    for start, d2 in _sq_dist_blocks(X, Y, out, lower):
        blocks.append(d2)
        if spec.epsilon is None:
            min_d2 = min(min_d2, _min_positive(start, d2))
    if spec.epsilon is None:
        spec = spec.with_epsilon(_default_epsilon(float(np.sqrt(min_d2))))
    eps = float(spec.epsilon)
    with np.errstate(divide="ignore"):  # a zero r2 gives inf, refused or returned
        for r2 in blocks:
            r2 += eps * eps
            _apply_family(spec, r2, X.shape[1])
            if refusal and not _all_finite(r2):  # while the block is in cache
                raise KernelDomainError(refusal)
    return out, spec


def _pointwise(spec: KernelSpec, X: np.ndarray, Y: np.ndarray,
               refusal: str | None = None) -> np.ndarray:
    """:func:`_kernel_matrix` with an unset epsilon taken as 0 (a coincident pair gives inf)."""
    if spec.singular and spec.epsilon is None:
        spec = spec.with_epsilon(0.0)
    return _kernel_matrix(spec, X, Y, refusal=refusal)[0]


def cross_kernel(spec: KernelSpec, x_nodes, y_nodes) -> np.ndarray:
    """Rectangular kernel matrix ``K[p, q] = kappa(x_p, y_q)``, points checked as by
    :func:`assemble_gram`.  ``epsilon=None`` counts as 0: a coincident pair under a
    singular family is refused."""
    return _pointwise(spec, *_kernel_points(spec, x_nodes, y_nodes),
                      refusal="cross kernel has singular entries; use epsilon > 0")


def assemble_gram(spec: KernelSpec, nodes) -> GramMatrix:
    """Assemble the dense Gram matrix of a kernel over a node set.

    Row ``i`` belongs to ``nodes[i]``, a table row index for ``custom_table``
    (all rows when ``nodes`` is None).  ``epsilon=None`` on a singular family
    resolves to half the minimum positive node spacing.  Only the C-lower
    triangle is computed (module notes); the Gram is finite.
    """
    if spec.family == CUSTOM_TABLE and nodes is None:
        nodes = np.arange(spec.table.shape[0])
    pts, = _kernel_points(spec, nodes)
    if spec.singular and spec.epsilon is not None and not spec.epsilon > 0.0:
        raise KernelDomainError(f"{spec.family} Gram assembly requires epsilon > 0 "
                                "(singular diagonal)")
    entries, spec = _kernel_matrix(spec, pts, pts, lower=True, refusal=_NONFINITE_GRAM)
    return GramMatrix._assembled(entries, spec=spec, nodes=pts)


def check_positive_definite(G: GramMatrix) -> PDReport:
    """Diagnose (strict) positive definiteness from the extreme eigenvalues.

    Both extremes come from a full dense symmetric eigendecomposition, which
    costs far more than the solvers' Cholesky gate (:func:`_pd_gate`); only
    the ``check-pd`` command calls it.  ``pd_tol`` is
    ``1e-10 * max|eigenvalue|``, the float noise floor of dense symmetric
    eigensolvers.
    """
    try:
        vals = np.linalg.eigvalsh(G.entries, UPLO="L")  # the Gram's triangle
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"symmetric eigensolver failed: {exc}") from exc
    lo, hi = float(vals[0]), float(vals[-1])
    pd_tol = 1e-10 * max(abs(lo), abs(hi), 1e-300)
    return PDReport(min_eigenvalue=lo, max_eigenvalue=hi, pd_tol=pd_tol,
                    is_pd=lo >= -pd_tol, is_strictly_pd=lo > pd_tol)


def _pd_gate(G: GramMatrix) -> tuple[bool, bool]:
    """``(is_pd, is_strictly_pd)`` of a Gram by Cholesky factorizations, cached.

    With ``pd_tol = 1e-10 * lambda_max``, strict definiteness holds when
    ``K - pd_tol*I`` has a Cholesky factor, and definiteness when that one or
    the one of ``K + pd_tol*I`` does.  Each is factored in the Gram's spare
    triangle (:meth:`GramMatrix._factored`), which keeps the last: for a strictly
    PD Gram, the one :meth:`GramMatrix.solve` reuses at ``-pd_tol``.  The two
    decisions are cached.  They equal those of :func:`check_positive_definite`
    unless the smallest eigenvalue lies within the factorization's rounding
    error (about ``1e-12 * lambda_max``) of ``-pd_tol`` or ``+pd_tol``.
    """
    gate = G._cache.get("pd_gate")
    if gate is None:
        strict = G._factored(-_pd_tol(G)) is not None
        gate = G._cache["pd_gate"] = (strict or G._factored(_pd_tol(G)) is not None, strict)
    return gate


def _pd_tol(G: GramMatrix) -> float:
    return 1e-10 * max(G.lambda_max(), 1e-300)


def _not_pd(G: GramMatrix, sign: str, why: str) -> NotPositiveDefinite:
    """The gate's refusal of ``K {sign} pd_tol*I``, worded from the cached values it used."""
    return NotPositiveDefinite(f"{why}: K {sign} pd_tol*I has no Cholesky factor (lambda_max "
                               f"{G.lambda_max():.3e}, pd_tol {_pd_tol(G):.3e}); "
                               "`vequil check-pd` reports the spectrum")
