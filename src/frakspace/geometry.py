"""Axis-aligned cubes and dyadic nets over a cloud's bounding box."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, ScaleTooFine
from .measure import WeightedPointCloud

__all__ = ["Cube", "Net", "restrict", "dyadic_net"]


@dataclass(frozen=True)
class Cube:
    """Closed axis-aligned cube: |y - center|_inf <= half_side."""

    center: np.ndarray
    half_side: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).ravel()
        if c.size == 0:
            raise OutOfRange("cube center must be nonempty")
        if not (self.half_side > 0.0 and math.isfinite(self.half_side)):
            raise OutOfRange(f"half_side must be positive, got {self.half_side}")
        c.setflags(write=False)
        object.__setattr__(self, "center", c)

    @property
    def ambient_dim(self) -> int:
        return self.center.shape[0]

    @property
    def side(self) -> float:
        return 2.0 * self.half_side

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.ambient_dim:
            raise OutOfRange("point dimension mismatch")
        # Axis by axis: numpy reduces a short trailing axis slowly.
        dist = np.abs(pts[:, 0] - self.center[0])
        for axis in range(1, self.ambient_dim):
            np.maximum(dist, np.abs(pts[:, axis] - self.center[axis]), out=dist)
        return dist <= self.half_side

    def scaled(self, factor: float) -> "Cube":
        """Concentric cube with half_side multiplied by ``factor``."""
        return Cube(self.center, self.half_side * factor)


def restrict(cloud: WeightedPointCloud, cube: Cube) -> tuple[np.ndarray, float]:
    """Indices of cloud points inside the closed cube, and their total mass."""
    mask = cube.contains(cloud.points)
    idx = np.flatnonzero(mask)
    mass = float(cloud.weights[idx].sum())
    return idx, mass


@dataclass(frozen=True)
class Net:
    """Partition of a box into congruent cubes of side ``mesh``.

    Cells are anchored at the lower corner of the box (optionally shifted);
    a point on a shared face belongs to the lexicographically smallest cell.
    """

    mesh: float
    level: int
    anchor: np.ndarray
    counts: tuple[int, ...]

    def __post_init__(self):
        a = np.asarray(self.anchor, dtype=float).ravel()
        a.setflags(write=False)
        object.__setattr__(self, "anchor", a)
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if any(c < 1 for c in self.counts):
            raise OutOfRange("every axis needs at least one cell")

    @property
    def ambient_dim(self) -> int:
        return self.anchor.shape[0]

    @property
    def ncubes(self) -> int:
        return int(np.prod(self.counts))

    def cell_index(self, points: np.ndarray) -> np.ndarray:
        """Per-axis cell indices; face ties go to the lower cell."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        pos = (pts - self.anchor) / self.mesh
        idx = np.floor(pos).astype(int)
        on_face = (pos == idx) & (idx > 0)
        idx[on_face] -= 1
        return np.clip(idx, 0, np.asarray(self.counts) - 1)

    def assign(self, points: np.ndarray) -> np.ndarray:
        """Flat cell index per point (C order over the per-axis indices)."""
        idx = self.cell_index(points)
        return np.ravel_multi_index(idx.T, self.counts)

    def cube(self, flat_index: int) -> Cube:
        multi = np.unravel_index(int(flat_index), self.counts)
        center = self.anchor + (np.asarray(multi) + 0.5) * self.mesh
        return Cube(center, 0.5 * self.mesh)

    @property
    def cubes(self) -> list[Cube]:
        return [self.cube(i) for i in range(self.ncubes)]


def dyadic_net(
    level: int,
    bbox: tuple[np.ndarray, np.ndarray],
    offset: np.ndarray | None = None,
    min_mesh: float = 0.0,
) -> Net:
    """Net of side 2**-level cubes covering ``bbox``.

    ``offset`` (each entry in [0, 1)) shifts the anchor by a fraction of the
    mesh for sensitivity studies. ``min_mesh`` rejects meshes finer than the
    caller's resolution threshold.
    """
    if level < 0:
        raise OutOfRange(f"level must be >= 0, got {level}")
    mesh = 2.0**-level
    if mesh < min_mesh:
        raise ScaleTooFine(f"mesh {mesh} below minimum {min_mesh}")
    lo = np.asarray(bbox[0], dtype=float).ravel()
    hi = np.asarray(bbox[1], dtype=float).ravel()
    if lo.shape != hi.shape or np.any(hi < lo):
        raise OutOfRange("malformed bounding box")
    anchor = lo.copy()
    if offset is not None:
        off = np.asarray(offset, dtype=float).ravel()
        if off.shape != lo.shape or np.any(off < 0.0) or np.any(off >= 1.0):
            raise OutOfRange("offset entries must lie in [0, 1)")
        anchor = lo - off * mesh
    counts = np.maximum(np.ceil((hi - anchor) / mesh - 1e-12).astype(int), 1)
    return Net(mesh=mesh, level=level, anchor=anchor, counts=tuple(counts))
