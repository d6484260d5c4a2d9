"""Weighted point clouds carrying the natural measure of a self-similar set.

A cloud discretizes the d-regular measure of an iterated function system of
contracting similarities: one representative point per depth-m cell, weighted
by the cell's measure. Total mass is normalized to 1, so empirical regularity
constants are reported relative to that normalization.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    EmptyRatios,
    OutOfRange,
    ScaleTooFine,
    UnknownGenerator,
)

__all__ = [
    "IfsSpec",
    "WeightedPointCloud",
    "AhlforsReport",
    "moran_dimension",
    "build_cloud",
    "ahlfors_constants",
    "cantor_dust",
    "sierpinski_carpet",
    "unit_square",
    "unit_interval",
    "BUILTIN_GENERATORS",
    "generator_spec",
    "load_ifs",
    "DEFAULT_POINT_BUDGET",
]

DEFAULT_POINT_BUDGET = 1 << 17


@dataclass(frozen=True)
class IfsSpec:
    """An iterated function system of contracting similarities.

    Each map is ``x -> ratio * x + translate``. Ratios must lie strictly
    inside (0, 1); the open-set condition is assumed, not checked.
    """

    ambient_dim: int
    maps: tuple[tuple[float, tuple[float, ...]], ...]
    name: str = "ifs"

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise OutOfRange(f"ambient_dim must be >= 1, got {self.ambient_dim}")
        if not self.maps:
            raise EmptyRatios("an IFS needs at least one map")
        norm_maps = []
        for ratio, translate in self.maps:
            ratio = float(ratio)
            if not 0.0 < ratio < 1.0:
                raise OutOfRange(f"contraction ratio must lie in (0, 1), got {ratio}")
            translate = tuple(float(t) for t in translate)
            if len(translate) != self.ambient_dim:
                raise OutOfRange(
                    f"translation has dim {len(translate)}, expected {self.ambient_dim}"
                )
            norm_maps.append((ratio, translate))
        object.__setattr__(self, "maps", tuple(norm_maps))

    @property
    def ratios(self) -> tuple[float, ...]:
        return tuple(r for r, _ in self.maps)

    @classmethod
    def from_dict(cls, data: dict) -> "IfsSpec":
        try:
            maps = tuple(
                (m["ratio"], tuple(m["translate"])) for m in data["maps"]
            )
            return cls(
                ambient_dim=int(data["ambient_dim"]),
                maps=maps,
                name=str(data.get("name", "ifs")),
            )
        except (KeyError, TypeError) as exc:
            raise OutOfRange(f"malformed IFS document: {exc}") from exc


def load_ifs(path) -> IfsSpec:
    """Read an :class:`IfsSpec` from a JSON document."""
    with open(path, "r", encoding="utf-8") as fh:
        return IfsSpec.from_dict(json.load(fh))


@dataclass(frozen=True)
class WeightedPointCloud:
    """Finite discretization of the natural measure on a self-similar set.

    ``points`` has shape (N, n); ``weights`` sums to 1. ``s`` is the
    similarity dimension and must satisfy n - 1 < s <= n. ``max_ratio`` is
    the largest contraction ratio of the generating system; together with
    ``depth`` it fixes the finest trustworthy scale.
    """

    points: np.ndarray
    weights: np.ndarray
    s: float
    depth: int
    diam: float
    max_ratio: float
    name: str = "cloud"

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        wts = np.asarray(self.weights, dtype=float).ravel()
        if pts.shape[0] != wts.shape[0]:
            raise OutOfRange("points and weights disagree in length")
        if pts.shape[0] == 0:
            raise OutOfRange("a cloud needs at least one point")
        if np.any(wts <= 0.0):
            raise OutOfRange("weights must be strictly positive")
        total = float(wts.sum())
        if abs(total - 1.0) > 1e-9:
            raise OutOfRange(f"weights must sum to 1, got {total!r}")
        n = pts.shape[1]
        if not (n - 1 < self.s <= n):
            raise OutOfRange(
                f"dimension s={self.s} violates {n - 1} < s <= {n}"
            )
        if self.diam <= 0.0 or not math.isfinite(self.diam):
            raise OutOfRange(f"diam must be positive, got {self.diam}")
        if not 0.0 < self.max_ratio < 1.0:
            raise OutOfRange(f"max_ratio must lie in (0, 1), got {self.max_ratio}")
        if self.depth < 0:
            raise OutOfRange(f"depth must be >= 0, got {self.depth}")
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self.points.min(axis=0), self.points.max(axis=0)

    @property
    def resolution_scale(self) -> float:
        """Diameter of the deepest generation cell: diam * max_ratio**depth."""
        return self.diam * self.max_ratio**self.depth

    def values_of(self, f) -> np.ndarray:
        """The samples of f, one per point: its ``values``, or f itself, as floats.

        A function that carries its ``cloud`` must come from this cloud, or
        from one of equal points and weights.
        """
        home = getattr(f, "cloud", self)
        if home is not self and not (
            np.array_equal(home.points, self.points)
            and np.array_equal(home.weights, self.weights)
        ):
            raise OutOfRange(f"function sampled on {home.name}, not on {self.name}")
        values = np.asarray(getattr(f, "values", f), dtype=float).ravel()
        if values.shape[0] != self.size:
            raise OutOfRange(f"function has {values.shape[0]} samples, cloud has {self.size}")
        return values


@dataclass(frozen=True)
class AhlforsReport:
    """Empirical regularity constants min/max of mass(Q(x, r)) / r**s."""

    c1_hat: float
    c2_hat: float
    samples: int
    scale_range: tuple[float, float]

    def __post_init__(self):
        if not (0.0 < self.c1_hat <= self.c2_hat < math.inf):
            raise OutOfRange(
                f"need 0 < c1_hat <= c2_hat < inf, got ({self.c1_hat}, {self.c2_hat})"
            )

    @property
    def ratio(self) -> float:
        return self.c2_hat / self.c1_hat


def moran_dimension(ratios, tol: float = 1e-12) -> float:
    """Solve sum(r_i**s) == 1 for s by bisection.

    The left side is strictly decreasing in s, so the root is unique.
    """
    ratios = [float(r) for r in ratios]
    if not ratios:
        raise EmptyRatios("need at least one contraction ratio")
    for r in ratios:
        if not 0.0 < r < 1.0:
            raise OutOfRange(f"contraction ratio must lie in (0, 1), got {r}")
    if len(ratios) == 1:
        return 0.0
    arr = np.asarray(ratios)

    def excess(sdim: float) -> float:
        return float(np.sum(arr**sdim)) - 1.0

    lo = 0.0
    hi = 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:  # unreachable for valid ratios; guards infinite loop
            raise OutOfRange("failed to bracket the similarity dimension")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def build_cloud(
    ifs: IfsSpec,
    depth: int,
    budget: int = DEFAULT_POINT_BUDGET,
) -> WeightedPointCloud:
    """Discretize the attractor measure at generation ``depth``.

    Each depth-m cell contributes the image of the unit-cube center under
    its map word, weighted by the product of ratio**s factors. For an
    equal-ratio system the weights are exactly uniform.
    """
    if depth < 0:
        raise OutOfRange(f"depth must be >= 0, got {depth}")
    nmaps = len(ifs.maps)
    count = nmaps**depth
    if count > budget:
        raise BudgetExceeded(
            f"{nmaps}**{depth} = {count} points exceeds budget {budget}"
        )
    s = moran_dimension(ifs.ratios)
    n = ifs.ambient_dim

    pts = np.full((1, n), 0.5)
    wts = np.ones(1)
    ratios = np.array(ifs.ratios)
    shifts = np.array([t for _, t in ifs.maps])
    equal = bool(np.all(ratios == ratios[0]))
    branch_mass = ratios**s
    for _ in range(depth):
        pts = np.concatenate([r * pts + t for r, t in zip(ratios, shifts)])
        wts = np.concatenate([m * wts for m in branch_mass])
    if equal:
        wts = np.full(count, 1.0 / count)
    else:
        wts = wts / wts.sum()

    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    diam = float(np.linalg.norm(hi - lo))
    if diam == 0.0:
        # depth 0 or a degenerate system: fall back to the unit cell size
        diam = 1.0
    return WeightedPointCloud(
        points=pts,
        weights=wts,
        s=s,
        depth=depth,
        diam=diam,
        max_ratio=float(ratios.max()),
        name=ifs.name,
    )


def ahlfors_constants(
    cloud: WeightedPointCloud,
    samples: int,
    scales,
    rng=0,
) -> AhlforsReport:
    """Min/max of mass(Q(x, r)) / r**s over sampled centers and given scales.

    Scales must lie in [cloud.resolution_scale, diam]; finer requests are
    meaningless at this depth and are rejected.
    """
    scales = [float(r) for r in scales]
    if not scales:
        raise OutOfRange("need at least one scale")
    res = cloud.resolution_scale
    for r in scales:
        if r < res:
            raise ScaleTooFine(f"scale {r} below resolution scale {res}")
        if r > cloud.diam * (1 + 1e-12):
            raise OutOfRange(f"scale {r} exceeds diameter {cloud.diam}")
    if samples < 1:
        raise OutOfRange("samples must be >= 1")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng

    idx = rng.integers(0, cloud.size, size=samples)
    pts = cloud.points
    wts = cloud.weights
    lo = math.inf
    hi = -math.inf
    for i in idx:
        dx = np.max(np.abs(pts - pts[i]), axis=1)
        for r in scales:
            mass = float(wts[dx <= r].sum())
            ratio = mass / r**cloud.s
            lo = min(lo, ratio)
            hi = max(hi, ratio)
    return AhlforsReport(
        c1_hat=lo, c2_hat=hi, samples=samples, scale_range=(min(scales), max(scales))
    )


def cantor_dust(ratio: float = 1.0 / 3.0) -> IfsSpec:
    """Four-corner Cantor dust in the plane; ratio in (1/4, 1/2] keeps s > 1."""
    if not 0.25 < ratio <= 0.5:
        raise OutOfRange(f"dust ratio must lie in (1/4, 1/2], got {ratio}")
    off = 1.0 - ratio
    corners = [(0.0, 0.0), (off, 0.0), (0.0, off), (off, off)]
    return IfsSpec(2, tuple((ratio, c) for c in corners), name="cantor4")


def sierpinski_carpet() -> IfsSpec:
    """Eight ratio-1/3 maps: the unit square minus its middle cell."""
    cells = [
        (i / 3.0, j / 3.0)
        for i in range(3)
        for j in range(3)
        if not (i == 1 and j == 1)
    ]
    return IfsSpec(2, tuple((1.0 / 3.0, c) for c in cells), name="carpet")


def unit_square() -> IfsSpec:
    """Four ratio-1/2 maps tiling the unit square; s = 2."""
    corners = [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)]
    return IfsSpec(2, tuple((0.5, c) for c in corners), name="square")


def unit_interval() -> IfsSpec:
    """Two ratio-1/2 maps tiling [0, 1]; s = 1."""
    return IfsSpec(1, ((0.5, (0.0,)), (0.5, (0.5,))), name="interval")


BUILTIN_GENERATORS = {
    "cantor4": cantor_dust,
    "carpet": sierpinski_carpet,
    "square": unit_square,
    "interval": unit_interval,
}


def generator_spec(name: str) -> IfsSpec:
    """Resolve a built-in generator name, or a path to a JSON IFS document."""
    if name in BUILTIN_GENERATORS:
        return BUILTIN_GENERATORS[name]()
    if str(name).endswith(".json"):
        try:
            return load_ifs(name)
        except FileNotFoundError as exc:
            raise UnknownGenerator(f"no such IFS document: {name}") from exc
    raise UnknownGenerator(
        f"unknown generator {name!r}; known: {sorted(BUILTIN_GENERATORS)}"
    )
