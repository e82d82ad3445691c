"""Node-set generators used by configs and experiments."""

from __future__ import annotations

import numpy as np

from .errors import VequilError
from .kernels import _check_memory

PROFILE_POWER = "power_s"
PROFILE_EXP_LE1 = "exp_s_le1"
PROFILE_EXP_GT1 = "exp_s_gt1"
PROFILES = (PROFILE_POWER, PROFILE_EXP_LE1, PROFILE_EXP_GT1)


def fibonacci_sphere(count: int, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Near-uniform points on a sphere via the golden-angle spiral."""
    if count < 1:
        raise VequilError("sphere generator needs count >= 1")
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    return radius * pts + np.asarray(center, dtype=float)


def grid_nodes(low, high, shape) -> np.ndarray:
    """Regular grid over a box; ``shape`` gives points per axis, whole numbers >= 1."""
    low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
    shape = np.atleast_1d(np.asarray(shape, dtype=float))
    if low.ndim != 1 or not low.shape == high.shape == shape.shape:
        raise VequilError("grid generator: low, high, shape must be lists of one length")
    if not np.all((shape >= 1) & (shape == np.floor(shape))):  # NaN compares False
        raise VequilError("grid generator: shape entries must be whole numbers >= 1")
    axes = [np.linspace(lo, hi, int(s)) for lo, hi, s in zip(low, high, shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def ring_nodes(count: int, radius: float, center=(0.0, 0.0), phase: float = 0.0) -> np.ndarray:
    """Equally spaced points on a planar circle (2-D output)."""
    if count < 1:
        raise VequilError("ring generator needs count >= 1")
    t = phase + 2.0 * np.pi * np.arange(count) / count
    pts = radius * np.stack([np.cos(t), np.sin(t)], axis=1)
    return pts + np.asarray(center, dtype=float)


def profile_radius(profile: str, s: float):
    """Radius-vs-axial-coordinate function of the rotational test bodies."""
    if profile == PROFILE_POWER:
        if s < 0:
            raise VequilError("power profile needs s >= 0")
        return lambda x: float(x) ** (-s) if x > 0 else np.inf
    if profile == PROFILE_EXP_LE1:
        if not 0.0 < s <= 1.0:
            raise VequilError("exp_s_le1 profile needs 0 < s <= 1")
        return lambda x: float(np.exp(-(float(x) ** s)))
    if profile == PROFILE_EXP_GT1:
        if not s > 1.0:
            raise VequilError("exp_s_gt1 profile needs s > 1")
        return lambda x: float(np.exp(-(float(x) ** s)))
    raise VequilError(f"unknown profile {profile!r}; choose from {PROFILES}")


# The stepping of rotational_body (see its docstring).
AXIAL_COARSENESS, DX_MIN, DX_MAX = 0.5, 0.2, 1.0
NODE_FLOOR, RING_MIN, RING_MAX = 5e-3, 8, 32


def rotational_body(profile: str, s: float, q: float, r_max: float) -> np.ndarray:
    """Discretize ``{q <= x1 <= r_max, x2^2 + x3^2 <= rho(x1)^2}`` by rings.

    Each axial station carries a ring of ``RING_MIN``..``RING_MAX`` nodes at
    the local profile radius, staggered between stations; an axial step is
    ``AXIAL_COARSENESS`` times the local radius, clipped to ``[DX_MIN,
    DX_MAX]``.  Stations whose radius falls below ``NODE_FLOOR`` are below
    the resolution of the discretization and carry no nodes: a single global
    diagonal regularization cannot represent features many orders of
    magnitude thinner than the node spacing, and placing bare axis nodes
    there would inflate the tail capacity artificially.  Every profile is
    nonincreasing, so the stepping ends at the first such finite radius.

    The stepping sequence depends only on ``q`` and the profile, so node
    sets for increasing ``r_max`` are nested.  A body whose Gram (8 N^2 bytes)
    would exceed physical memory is refused while it is built
    (:func:`vequil.kernels._check_memory`).
    """
    if not r_max > q:
        raise VequilError("rotational body needs r_max > q")
    if not np.isfinite([q, r_max]).all():  # the stepping below would never end
        raise VequilError(f"rotational body needs a finite q and r_max, got q={q}, r_max={r_max}")
    if q < 0.0:  # the profiles take real powers of x1
        raise VequilError(f"rotational body needs q >= 0, got q={q}")
    rho = profile_radius(profile, s)
    pts: list[np.ndarray] = []
    x = float(q)
    station = count = 0
    while x <= r_max + 1e-12:
        r = rho(x)
        if np.isfinite(r) and r >= NODE_FLOOR:
            dx = float(np.clip(AXIAL_COARSENESS * r, DX_MIN, DX_MAX))
            m = int(np.clip(np.ceil(2.0 * np.pi * r / dx), RING_MIN, RING_MAX))
            phase = (station % 2) * np.pi / m
            ring = ring_nodes(m, r, center=(0.0, 0.0), phase=phase)
            pts.append(np.column_stack([np.full(m, x), ring[:, 0], ring[:, 1]]))
            count += m
            _check_memory(f"rotational body: {count} nodes (r_max={r_max})", count, count)
        elif np.isfinite(r):  # every profile is nonincreasing: no station beyond has nodes
            break
        else:
            dx = DX_MAX
        x += dx
        station += 1
    if not pts:
        raise VequilError(
            f"empty discretization: profile radius below node_floor={NODE_FLOOR} "
            f"on the whole range [{q}, {r_max}]"
        )
    return np.vstack(pts)
