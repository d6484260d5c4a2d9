"""Fractional sharp and Hardy-Littlewood maximal operators on a cloud.

Both operators scan cubes centered at every cloud point over a shared dyadic
scale grid. The sharp operator weights local best-approximation errors by
t**-alpha; the degree of the fitted polynomial space follows alpha through
one of two conventions ("sharp" and "flat") that differ only at integer
alpha.

Cubes are found chunk by chunk: for a fixed-size block of centres the
Chebyshev distances to the whole cloud are computed once and each row is
ordered by scale level, so every cube Q(x_i, t_j) is a prefix of its row.
``error_matrices`` fits the cubes of one scale in batches, for every
requested function at once; ``hl_maximal`` takes prefix sums along the
same rows.

The fits themselves are ``polyapprox._local_errors``, the kernel that
``fit_in_span`` and ``best_approx`` call on one cube, so a matrix cell and
``best_approx`` on the same cube run the same fit: exact constants (k = 1)
for every u, and for higher degrees least squares (u = 2) or reweighting
(other u).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyGrid,
    NonFiniteValue,
    NonpositiveAlpha,
    OutOfRange,
    ScaleTooFine,
    TooFewPoints,
)
from .measure import WeightedPointCloud
# The matrices never call fit_in_span; it stays importable here only
# because bench/layers.py wraps it by name at this module too.
from .polyapprox import (  # noqa: F401
    MIN_POINTS_FACTOR,
    _local_errors,
    _vandermonde,
    fit_in_span,
    multi_indices,
)

__all__ = [
    "GridFunction",
    "ScaleGrid",
    "degree_for_sharp",
    "degree_for_flat",
    "error_matrices",
    "approx_error_matrix",
    "sharp_maximal",
    "hl_maximal",
]

# Bound on the (centre, point) pairs of one block of distances, and on the
# elements a batch of fits allocates at once; keeps the kernels' memory flat in N.
CHUNK_ELEMS = 1 << 15


@dataclass(frozen=True)
class GridFunction:
    """Values of a function at every point of a cloud."""

    cloud: WeightedPointCloud
    values: np.ndarray
    name: str = ""
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.shape[0] != self.cloud.size:
            raise OutOfRange(
                f"{vals.shape[0]} values for a cloud of {self.cloud.size} points"
            )
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValue(f"non-finite sample in {self.name or 'function'}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ScaleGrid:
    """Decreasing dyadic scales t_nu = diam * 2**-nu, nu = nu_min..nu_max."""

    scales: np.ndarray
    levels: np.ndarray
    diam: float
    factor: float

    def __post_init__(self):
        s = np.asarray(self.scales, dtype=float)
        lv = np.asarray(self.levels, dtype=int)
        if s.shape != lv.shape:
            raise OutOfRange("scales and levels disagree in length")
        if s.size and np.any(np.diff(s) >= 0.0):
            raise OutOfRange("scales must be strictly decreasing")
        s.setflags(write=False)
        lv.setflags(write=False)
        object.__setattr__(self, "scales", s)
        object.__setattr__(self, "levels", lv)

    def __len__(self) -> int:
        return int(self.scales.size)

    @classmethod
    def dyadic(
        cls,
        cloud: WeightedPointCloud,
        factor: float = 4.0,
        nu_max: int | None = None,
        nu_min: int = 0,
    ) -> "ScaleGrid":
        """All levels whose scale stays above factor * resolution_scale."""
        if factor <= 0.0:
            raise OutOfRange(f"factor must be positive, got {factor}")
        if nu_min < 0:
            raise OutOfRange(f"nu_min must be >= 0, got {nu_min}")
        floor_scale = factor * cloud.resolution_scale
        auto_max = int(math.floor(math.log2(cloud.diam / floor_scale) + 1e-9))
        if nu_max is None:
            nu_max = auto_max
        elif nu_max > auto_max:
            raise ScaleTooFine(
                f"nu_max={nu_max} finer than admissible level {auto_max} "
                f"(factor {factor} x resolution scale)"
            )
        if nu_max < nu_min:
            raise ScaleTooFine(
                f"no admissible scales: nu_max={nu_max} < nu_min={nu_min}"
            )
        levels = np.arange(nu_min, nu_max + 1)
        return cls(
            scales=cloud.diam * 2.0 ** -levels.astype(float),
            levels=levels,
            diam=cloud.diam,
            factor=factor,
        )


def degree_for_sharp(alpha: float) -> int:
    """Space parameter k for the sharp convention: greatest integer < alpha + 1."""
    if not alpha > 0.0:
        raise NonpositiveAlpha(f"alpha must be positive, got {alpha}")
    return int(math.ceil(alpha))


def degree_for_flat(alpha: float) -> int:
    """Space parameter k for the flat convention: smallest integer > alpha."""
    if not alpha > 0.0:
        raise NonpositiveAlpha(f"alpha must be positive, got {alpha}")
    return int(math.floor(alpha)) + 1


def _variant_degree(alpha: float, variant: str) -> int:
    if variant == "sharp":
        return degree_for_sharp(alpha)
    if variant == "flat":
        return degree_for_flat(alpha)
    raise OutOfRange(f"variant must be 'sharp' or 'flat', got {variant!r}")


def _neighbourhoods(cloud: WeightedPointCloud, scales: np.ndarray):
    """Every cube Q(x_i, t_j) as a prefix of an ordered row, chunk by chunk.

    Yields (rows, order, counts) for fixed-size chunks of centres: row r of
    ``order`` lists cloud indices by the number of scales whose cube misses
    them (a stable sort of small integer keys, so ties keep index order),
    hence Q(x_rows[r], t_j) is ``order[r, :counts[r, j]]``.
    """
    pts = cloud.points
    size, nscales = cloud.size, scales.size
    step = max(1, CHUNK_ELEMS // size)
    for start in range(0, size, step):
        rows = np.arange(start, min(start + step, size))
        dx = np.abs(pts[rows, None, 0] - pts[None, :, 0])
        for axis in range(1, cloud.ambient_dim):
            np.maximum(dx, np.abs(pts[rows, None, axis] - pts[None, :, axis]), out=dx)
        # Scales below the Chebyshev distance, whose cubes miss the point.
        missed = np.zeros(dx.shape, dtype=np.min_scalar_type(nscales))
        for t in scales:
            missed += dx > t
        del dx
        order = np.argsort(missed, axis=1, kind="stable")
        counts = np.stack([np.sum(missed <= j, axis=1) for j in range(nscales)], axis=1)
        yield rows, order, counts[:, ::-1]


def error_matrices(
    cloud: WeightedPointCloud,
    values,
    k: int,
    u: float,
    grid: ScaleGrid,
    min_points_factor: int = MIN_POINTS_FACTOR,
) -> np.ndarray:
    """Normalized local errors of several functions, shape [F, N, S].

    Entry (f, i, j) is the average-form best-approximation error of
    ``values[f]`` over Q(x_i, t_j) by degree <= k - 1 polynomials, measured in
    L^u. Cubes holding fewer than ``min_points_factor`` times the basis size
    (or rank deficient, for a function not zero there) are NaN; a point with
    every scale skipped raises, since its maximal value would be meaningless.
    """
    if not (1.0 <= u < math.inf):
        raise OutOfRange(f"u must lie in [1, inf), got {u}")
    if k < 1:
        raise OutOfRange(f"space parameter k must be >= 1, got {k}")
    if len(grid) == 0:
        raise EmptyGrid("scale grid holds no scales")
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != cloud.size:
        raise OutOfRange("function sample count does not match the cloud")
    n, size = cloud.ambient_dim, cloud.size
    exps = np.asarray(multi_indices(n, k - 1), dtype=int).reshape(-1, n)
    needed = max(1, min_points_factor * exps.shape[0])
    # Index ``size`` is a zero-weight sentinel padding cubes to a common width.
    pts = np.vstack([cloud.points, np.zeros((1, n))])
    wts = np.append(cloud.weights, 0.0)
    vals = np.concatenate([values, np.zeros((values.shape[0], 1))], axis=1)
    # A batch of fits keeps about two arrays per function and basis column
    # alive, each holding one element per (cell, point) pair.
    per_point = 2 * (values.shape[0] + exps.shape[0])
    out = np.full((values.shape[0], size, len(grid)), np.nan)
    for rows, order, counts in _neighbourhoods(cloud, grid.scales):
        for j, t in enumerate(grid.scales):
            live = np.flatnonzero(counts[:, j] >= needed)
            if live.size == 0:
                break
            step = max(1, CHUNK_ELEMS // (int(counts[live, j].max()) * per_point))
            for start in range(0, live.size, step):
                cells = live[start : start + step]
                m = counts[cells, j]
                width = int(m.max())
                inside = np.arange(width) < m[:, None]
                idx = np.where(inside, order[cells, :width], size)
                w = wts[idx]
                mass = w.sum(axis=1)
                V = None
                if exps.shape[0] > 1:
                    z = (pts[idx] - cloud.points[rows[cells], None, :]) / t
                    V = _vandermonde(z.reshape(-1, n), exps).reshape(idx.shape + (-1,))
                err = _local_errors(V, w, np.take(vals, idx, axis=1), u, mass)[0]
                out[:, rows[cells], j] = err / mass ** (1.0 / u)
    skipped = np.isnan(out).all(axis=2).any(axis=0)
    if skipped.any():
        raise TooFewPoints(
            f"point {int(np.argmax(skipped))} admits no scale with {needed} "
            f"points for k={k}"
        )
    return out


def approx_error_matrix(
    cloud: WeightedPointCloud,
    f,
    k: int,
    u: float,
    grid: ScaleGrid,
    min_points_factor: int = MIN_POINTS_FACTOR,
) -> np.ndarray:
    """Normalized local errors of one function: row i, column j is Q(x_i, t_j).

    The one-function case of ``error_matrices``.
    """
    values = np.asarray(getattr(f, "values", f), dtype=float).ravel()
    return error_matrices(cloud, values[None], k, u, grid, min_points_factor)[0]


def _sharp_from_matrix(matrix: np.ndarray, scales: np.ndarray, alpha: float) -> np.ndarray:
    """Per-point max over scales of t**-alpha times the local error, NaN cells skipped."""
    with np.errstate(invalid="ignore"):
        return np.nanmax(matrix * scales**-alpha, axis=1)


def sharp_maximal(
    cloud: WeightedPointCloud,
    f,
    alpha: float,
    u: float = 1.0,
    variant: str = "sharp",
    grid: ScaleGrid | None = None,
    min_points_factor: int = MIN_POINTS_FACTOR,
) -> GridFunction:
    """Pointwise max over admissible scales of t**-alpha times the local error."""
    k = _variant_degree(alpha, variant)
    if grid is None:
        grid = ScaleGrid.dyadic(cloud)
    if len(grid) == 0:
        raise EmptyGrid("scale grid holds no scales")
    matrix = approx_error_matrix(cloud, f, k, u, grid, min_points_factor)
    vals = _sharp_from_matrix(matrix, grid.scales, alpha)
    skipped = int(np.isnan(matrix).sum())
    name = getattr(f, "name", "")
    return GridFunction(
        cloud,
        vals,
        name=f"sharp({name})" if name else "sharp",
        meta={
            "alpha": alpha,
            "u": u,
            "variant": variant,
            "k": k,
            "skipped_cells": skipped,
            "nu_min": int(grid.levels[0]),
            "nu_max": int(grid.levels[-1]),
        },
    )


def hl_maximal(
    cloud: WeightedPointCloud,
    g,
    sigma: float,
    grid: ScaleGrid | None = None,
) -> GridFunction:
    """M_sigma g: max over scales of the cube average of |g|**sigma, power 1/sigma.

    Cubes are centered at cloud points, so every cube holds at least its
    center and all scales contribute.
    """
    if not sigma > 0.0:
        raise OutOfRange(f"sigma must be positive, got {sigma}")
    if grid is None:
        grid = ScaleGrid.dyadic(cloud)
    if len(grid) == 0:
        raise EmptyGrid("scale grid holds no scales")
    values = np.asarray(getattr(g, "values", g), dtype=float).ravel()
    if values.shape[0] != cloud.size:
        raise OutOfRange("function sample count does not match the cloud")
    wts = cloud.weights
    powered = wts * np.abs(values) ** sigma
    out = np.empty(cloud.size)
    for rows, order, counts in _neighbourhoods(cloud, grid.scales):
        near = order[:, : counts[:, 0].max()]
        last = counts - 1
        cw = np.take_along_axis(np.cumsum(wts[near], axis=1), last, axis=1)
        cg = np.take_along_axis(np.cumsum(powered[near], axis=1), last, axis=1)
        out[rows] = np.max(cg / cw, axis=1) ** (1.0 / sigma)
    name = getattr(g, "name", "")
    return GridFunction(
        cloud,
        out,
        name=f"hl({name})" if name else "hl",
        meta={"sigma": sigma},
    )
