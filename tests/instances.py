"""Shared random-instance builders for the test suite."""

from __future__ import annotations

import numpy as np

from vequil import Condenser, KernelSpec, Plate, _lapack, condenser_gram
from vequil.condenser import CASE1, CASE2, FieldSpec, ScalarSignedMeasure


def blas_threads() -> int | None:
    """The thread count of scipy's BLAS pool, read by setting it back; None without the setter."""
    setter = _lapack.set_threads_local
    if setter is None:
        return None
    count = setter(1)
    setter(count)
    return count


def count_factorizations(monkeypatch) -> list:
    """Record the rows of every LAPACK ``dpotrf`` call."""
    calls, dpotrf = [], _lapack.lapack.dpotrf

    def counted(a, *args, **kwargs):
        calls.append(a.shape[0])
        return dpotrf(a, *args, **kwargs)

    monkeypatch.setattr(_lapack.lapack, "dpotrf", counted)
    return calls


def random_condenser(rng, max_plates=3, max_nodes=20, dim=3, box_half=1.0):
    """Random mixed-sign condenser; plates sit in separated boxes on the x-axis.

    Feasible by construction: each plate's mass is a random fraction of its
    admissible g-mass.
    """
    n_plates = int(rng.integers(1, max_plates + 1))
    plates = []
    for k in range(n_plates):
        m = int(rng.integers(2, max_nodes + 1))
        center = np.zeros(dim)
        center[0] = 2.5 * k
        nodes = rng.uniform(-box_half, box_half, (m, dim)) * 0.45 + center
        g = rng.uniform(0.5, 2.0, m)
        sigma = rng.uniform(0.05, 0.6, m)
        mass = float(rng.uniform(0.3, 0.9)) * float(g @ sigma)
        sign = 1 if k == 0 else int(rng.choice([-1, 1]))
        plates.append(Plate(id=k, sign=sign, nodes=nodes, g=g, mass=mass, sigma=sigma))
    return Condenser(plates=tuple(plates))


def random_gram(rng, c, alpha=None):
    alpha = float(rng.uniform(1.0, 2.5)) if alpha is None else alpha
    return condenser_gram(KernelSpec("riesz", alpha=alpha), c)


def random_measure(rng, c):
    return c.measure([rng.uniform(0.0, 1.0, p.n_nodes) * p.sigma for p in c.plates])


def random_case1_field(rng, c, scale=1.0):
    return FieldSpec(
        case=CASE1,
        case1_values=tuple(rng.normal(0.0, scale, p.n_nodes) for p in c.plates),
    )


def random_zeta(rng, c, n_points=4):
    """Signed measure placed in a box offset from every plate."""
    dim = c.dimension
    center = np.zeros(dim)
    center[min(1, dim - 1)] = 3.0
    support = rng.uniform(-0.5, 0.5, (n_points, dim)) + center
    weights = rng.normal(0.0, 1.0, n_points)
    return ScalarSignedMeasure(support=support, weights=weights)


def random_case2_field(rng, c):
    return FieldSpec(case=CASE2, case2_zeta=random_zeta(rng, c))


def two_plate_signed(rng, n_per=15, mass_frac=(0.3, 0.9)):
    """The workhorse instance: one positive and one negative separated plate.

    ``mass_frac`` bounds each plate's mass as a fraction of its admissible
    g-mass; small fractions keep truncations of the plate feasible too.
    """
    nodes1 = rng.uniform(-1, 1, (n_per, 3)) * [1.0, 1.0, 0.5] + [-2.0, 0.0, 0.0]
    nodes2 = rng.uniform(-1, 1, (n_per, 3)) * [1.0, 1.0, 0.5] + [2.0, 0.0, 0.0]
    g1 = rng.uniform(0.5, 2.0, n_per)
    g2 = rng.uniform(0.5, 2.0, n_per)
    s1 = rng.uniform(0.05, 0.5, n_per)
    s2 = rng.uniform(0.05, 0.5, n_per)
    a1 = float(rng.uniform(*mass_frac)) * float(g1 @ s1)
    a2 = float(rng.uniform(*mass_frac)) * float(g2 @ s2)
    return Condenser(
        plates=(
            Plate(id=0, sign=1, nodes=nodes1, g=g1, mass=a1, sigma=s1),
            Plate(id=1, sign=-1, nodes=nodes2, g=g2, mass=a2, sigma=s2),
        )
    )


def overlapping_pair(rng, n_nodes=8):
    """Two equal-sign plates on identical node coordinates."""
    shared = rng.uniform(-1.0, 1.0, (n_nodes, 3))
    p0 = Plate(id=0, sign=1, nodes=shared, g=np.ones(n_nodes), mass=0.6,
               sigma=np.full(n_nodes, 0.4))
    p1 = Plate(id=1, sign=1, nodes=shared, g=np.ones(n_nodes), mass=0.5,
               sigma=np.full(n_nodes, 0.4))
    return Condenser(plates=(p0, p1))
