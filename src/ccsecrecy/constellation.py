"""Finite complex constellations, normalized to unit average energy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Validation builds M x M distance matrices, 16 MiB at this cap; psk20000
# would need about 9 GiB.
MAX_POINTS = 1024
ENERGY_TOL = 1e-12
DUPLICATE_TOL = 1e-12
# A square symmetry must map every point this close to another point. Points
# built by rotation, reflection or sign flips map exactly; psk<M> maps within
# a few ulp, since each point comes from its own complex exponential.
SYMMETRY_TOL = 1e-13

# The symmetries of the square, z -> g * z and z -> g * conj(z).
_QUARTER_TURNS = (1.0, 1.0j, -1.0, -1.0j)


def _min_pairwise_distance(points: np.ndarray) -> float:
    gaps = np.abs(points[:, None] - points[None, :])
    i, j = np.triu_indices(points.size, k=1)
    return float(gaps[i, j].min())


def _require_size(m: int) -> None:
    if m > MAX_POINTS:
        raise ValueError(f"a constellation has at most {MAX_POINTS} points, got {m}")


def _require_finite(points: np.ndarray) -> None:
    if not np.all(np.isfinite(points)):
        bad = int(np.flatnonzero(~np.isfinite(points))[0])
        raise ValueError(
            f"constellation points must be finite, got {points[bad]} at index {bad}"
        )


def _square_orbits(points: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Orbits of the point indices under the square symmetries the set admits."""
    m = points.size
    perms = []
    for turn in _QUARTER_TURNS:
        for image in (turn * points, turn * np.conj(points)):
            gaps = np.abs(image[:, None] - points[None, :])
            nearest = np.argmin(gaps, axis=1)
            if (
                gaps[np.arange(m), nearest].max() <= SYMMETRY_TOL
                and np.bincount(nearest, minlength=m).max() == 1
            ):
                perms.append(nearest)
    images = np.array(perms)
    # Label each point by the smallest index among its images, until no label
    # changes; the minimum then has travelled round every permutation cycle.
    label = np.arange(m)
    while True:
        lowest = label[images].min(axis=0)
        if np.array_equal(lowest, label):
            break
        label = lowest
    return tuple(
        tuple(np.flatnonzero(label == rep).tolist())
        for rep in np.flatnonzero(label == np.arange(m))
    )


@dataclass(frozen=True, eq=False)
class Constellation:
    """Ordered set of 2 to MAX_POINTS distinct complex points of unit mean energy."""

    name: str
    points: np.ndarray

    def __post_init__(self):
        points = np.array(self.points, dtype=np.complex128)
        if points.ndim != 1 or points.size < 2:
            raise ValueError("a constellation needs at least 2 points")
        _require_size(points.size)
        _require_finite(points)
        energy = float(np.mean(np.abs(points) ** 2))
        if abs(energy - 1.0) > ENERGY_TOL:
            raise ValueError(
                f"average energy must be 1, got {energy!r} (off by {energy - 1.0:.3e})"
            )
        gap = _min_pairwise_distance(points)
        if gap <= DUPLICATE_TOL:
            raise ValueError(
                f"duplicate constellation points: minimum pairwise distance {gap:.3e}"
            )
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    @property
    def size(self) -> int:
        return int(self.points.size)

    @cached_property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Point indices grouped by orbit under the set's square symmetries.

        The symmetries are the rotations by multiples of 90 degrees and the
        reflections z -> i^k * conj(z) that map the set onto itself. Orbits
        are sorted by their smallest index, which comes first in each; a set
        with no such symmetry has one singleton orbit per point.
        """
        return _square_orbits(self.points)

    @cached_property
    def axes(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The real and imaginary levels (A, B) if the points are exactly A x B.

        A and B are the distinct real and imaginary parts, ascending; the set
        is their full product when |A| |B| = M, since M distinct points take
        M distinct (real, imaginary) pairs from the |A| |B| of the product.
        None for any other set, such as psk8. The parts are compared exactly,
        by a Python set: np.unique would cost its first caller about 8 ms to
        import numpy.ma.
        """
        levels = tuple(
            np.array(sorted(set(part.tolist()))) for part in (self.points.real, self.points.imag)
        )
        if levels[0].size * levels[1].size != self.size:
            return None
        for axis in levels:
            axis.flags.writeable = False
        return levels


def make_bpsk() -> Constellation:
    """Antipodal pair {+1, -1}."""
    return Constellation("bpsk", np.array([1.0 + 0.0j, -1.0 + 0.0j]))


def make_psk(m: int) -> Constellation:
    """M unit-modulus points exp(i*2*pi*k/M), k = 0..M-1, in increasing angle."""
    if m < 2:
        raise ValueError(f"PSK size must be at least 2, got {m}")
    _require_size(m)
    phases = 2.0 * np.pi * np.arange(m) / m
    return Constellation(f"psk{m}", np.exp(1j * phases))


def make_qam(m: int) -> Constellation:
    """Square QAM on the odd-integer grid, scaled to unit average energy.

    Points use per-axis levels {+/-1, +/-3, ...} and are ordered
    lexicographically by (real, imag). M must be a perfect square with an
    even side length (4, 16, 64, ...).
    """
    side = math.isqrt(max(m, 0))
    # 0 is a square with even side too, but no constellation.
    if m < 4 or side * side != m or side % 2 != 0:
        raise ValueError(
            f"QAM size must be a perfect square with even side, at least 4, got {m}"
        )
    _require_size(m)
    levels = np.arange(-(side - 1), side, 2, dtype=float)
    re, im = np.meshgrid(levels, levels, indexing="ij")
    raw = (re + 1j * im).ravel()
    scale = math.sqrt(float(np.mean(np.abs(raw) ** 2)))
    return Constellation(f"qam{m}", raw / scale)


def from_points(raw, name: str = "custom") -> Constellation:
    """Build a constellation from arbitrary complex points, normalizing energy.

    Raises if fewer than 2 points are given, if any point is NaN or infinite,
    if the set has zero total energy, or if two points coincide after
    normalization.
    """
    points = np.array(raw, dtype=np.complex128)
    if points.ndim != 1 or points.size < 2:
        raise ValueError("a constellation needs at least 2 points")
    _require_finite(points)
    # An exact scale of the copy by 2^-k puts the largest |re| or |im| in
    # [0.5, 1), so the energy cannot overflow or underflow; ldexp takes k = 1024.
    parts = points.view(np.float64)
    _, k = math.frexp(float(np.abs(parts).max()))
    np.ldexp(parts, -k, out=parts)
    energy = float(np.mean(np.abs(points) ** 2))
    if energy <= 0.0:
        raise ValueError("degenerate constellation: total energy is zero")
    return Constellation(name, points / math.sqrt(energy))


def average_energy(c: Constellation) -> float:
    """Mean of |x|^2 over the constellation (1 by construction)."""
    return float(np.mean(np.abs(c.points) ** 2))


def min_distance(c: Constellation) -> float:
    """Smallest pairwise Euclidean distance between constellation points."""
    return _min_pairwise_distance(c.points)
