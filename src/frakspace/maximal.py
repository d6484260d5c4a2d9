"""Fractional sharp and Hardy-Littlewood maximal operators on a cloud.

Both operators scan cubes centered at every cloud point over a shared dyadic
scale grid. The sharp operator weights local best-approximation errors by
t**-alpha; the degree of the fitted polynomial space follows alpha through
one of two conventions ("sharp" and "flat") that differ only at integer
alpha.

Cubes live in rank space (``_cubes``): on each axis a cube admits a run of
the sorted coordinates, and centres whose runs agree on every axis hold the
same points. Per scale only the first centre of each such group is built,
from the run of its narrowest axis, and the rest copy its result:
``error_matrices`` fits the built cubes in batches, for every requested
function at once, and ``hl_maximal`` averages over them. A local error
depends only on the points of its cube, since the polynomial space is
invariant under translation and scaling.

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
    _local_errors,
    _vandermonde,
    fit_in_span,
    multi_indices,
    point_quota,
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

# Bound on the elements one batch of cubes allocates at once; keeps memory flat in N.
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
        if not np.all(np.isfinite(s) & (s > 0.0)):
            raise OutOfRange("scales must be finite and positive")
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
        if not 0.0 < factor < math.inf:
            raise OutOfRange(f"factor must be finite and positive, got {factor}")
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


def _scale_grid(cloud: WeightedPointCloud, grid: ScaleGrid | None) -> ScaleGrid:
    """``grid``, or the cloud's default dyadic grid when it is None; never empty."""
    if grid is None:
        grid = ScaleGrid.dyadic(cloud)
    if len(grid) == 0:
        raise EmptyGrid("scale grid holds no scales")
    return grid


def _variant_degree(alpha: float, variant: str) -> int:
    if variant == "sharp":
        return degree_for_sharp(alpha)
    if variant == "flat":
        return degree_for_flat(alpha)
    raise OutOfRange(f"variant must be 'sharp' or 'flat', got {variant!r}")


def _cubes(cloud: WeightedPointCloud, scales: np.ndarray, quota: int, budget: int):
    """The distinct cubes Q(x_i, t_j) of at least ``quota`` points, in rank space.

    Yields, per scale, (j, first, batches): ``first[i]`` is the lowest centre
    whose runs of admitted coordinates (``_admitted_runs``) equal x_i's on
    every axis, so whose cube holds the same points, and ``batches`` yields
    (centres, idx) for the first centres whose cubes meet the quota: row r
    of idx[L, W] lists the members of the cube about ``centres[r]``, padded
    with the index N, and L * W <= budget unless L = 1. A cube's candidates
    are the run of its narrowest axis, a slice of that axis's ``argsort``,
    kept by the test ``|p_a - c_a| <= t`` on the other axes.
    """
    pts, (size, n) = cloud.points, cloud.points.shape
    ranked = np.stack([np.argsort(pts[:, axis], kind="stable") for axis in range(n)])
    coords = [pts[order, axis] for axis, order in enumerate(ranked)]
    # Rank r of axis a is entry a * (N + 1) + r, and entry N is the padding.
    ranked = np.hstack([ranked, np.full((n, 1), size)]).ravel()
    # Coordinates by axis and point; the padding's column is masked out.
    axes = np.hstack([pts.T, np.zeros((n, 1))])

    def batches(centres, along, starts, lengths, t):
        done = 0
        while done < centres.size:
            run_axis = along[done]
            end = np.searchsorted(along, run_axis, "right")
            end = min(end, done + max(1, budget // int(lengths[done])))
            c, start, length = (x[done:end] for x in (centres, starts, lengths))
            done = end
            col = np.arange(length[0])
            inside = col < length[:, None]
            idx = ranked[np.where(inside, start[:, None] + col, size)]
            if n > 1:  # in 1-D the run is the cube
                for x in (x for a, x in enumerate(axes) if a != run_axis):
                    inside &= np.abs(x[idx] - x[c, None]) <= t
                count = np.count_nonzero(inside, axis=1)
                keep = count >= quota
                if not keep.any():
                    continue
                c, count, inside, idx = c[keep], count[keep], inside[keep], idx[keep]
                # Members to the front of their rows, in run order.
                row = np.nonzero(inside)[0]
                packed = np.full((c.size, int(count.max())), size)
                packed[row, np.arange(row.size) - (np.cumsum(count) - count)[row]] = idx[inside]
                idx = packed
            yield c, idx

    everyone = np.arange(size)
    for j, t in enumerate(scales):
        runs = np.stack([_admitted_runs(c, pts[:, a], t) for a, c in enumerate(coords)], axis=1)
        first = _first_alike(runs.reshape(size, 2 * n))
        lengths = runs[..., 1] - runs[..., 0]
        axis = lengths.argmin(axis=1)
        starts = runs[everyone, axis, 0] + axis * (size + 1)
        lengths = lengths[everyone, axis]
        centres = np.flatnonzero((first == everyone) & (lengths >= quota))
        # By run axis and longest run first: a batch shares its run axis, and
        # its first cube sets its width.
        centres = centres[np.lexsort((-lengths[centres], axis[centres]))]
        yield j, first, batches(centres, axis[centres], starts[centres], lengths[centres], t)


def _first_alike(runs: np.ndarray) -> np.ndarray:
    """The lowest centre whose runs [N, 2n] equal each centre's on every axis.

    Runs that differ only in coordinates no point of the cube uses (gaps in
    the cloud's coordinate grid) hold the same points, but such cubes keep
    separate representatives. A stable sort keeps each group in index order.
    """
    order = np.lexsort(runs.T)
    ranked = runs[order]
    starts = np.concatenate([[True], (ranked[1:] != ranked[:-1]).any(axis=1)])
    first = np.empty(runs.shape[0], dtype=int)
    first[order] = order[starts][np.cumsum(starts) - 1]
    return first


def _admitted_runs(coords: np.ndarray, centres: np.ndarray, t: float) -> np.ndarray:
    """Runs [lo, hi) of sorted ``coords`` with ``|coord - c| <= t``, [C, 2].

    Each centre must be one of the coordinates, so no run is empty.
    """
    lo = np.searchsorted(coords, centres - t)
    hi = np.searchsorted(coords, centres + t, side="right")

    def admitted(i):
        return np.abs(centres - coords[np.clip(i, 0, coords.size - 1)]) <= t

    # c - t and c + t are rounded: move each end until the test admits the
    # coordinate just inside it and not the one just outside.
    while True:
        lo_up, lo_down = ~admitted(lo), (lo > 0) & admitted(lo - 1)
        hi_down, hi_up = ~admitted(hi - 1), (hi < coords.size) & admitted(hi)
        if not (lo_up | lo_down | hi_down | hi_up).any():
            return np.stack([lo, hi], axis=1)
        lo = lo + lo_up - lo_down
        hi = hi + hi_up - hi_down


def error_matrices(
    cloud: WeightedPointCloud,
    values,
    k: int,
    u: float,
    grid: ScaleGrid,
) -> np.ndarray:
    """Normalized local errors of several functions, shape [F, N, S].

    Entry (f, i, j) is the average-form best-approximation error of
    ``values[f]`` over Q(x_i, t_j) by degree <= k - 1 polynomials, measured in
    L^u. Cubes holding fewer than ``point_quota`` of the basis size (or rank
    deficient, for a function not zero there) are NaN; a point with
    every scale skipped raises, since its maximal value would be meaningless.
    Cubes of one scale that hold the same points share the fit of the first
    such centre, since the error depends on the point set only.
    """
    if not (1.0 <= u < math.inf):
        raise OutOfRange(f"u must lie in [1, inf), got {u}")
    if k < 1:
        raise OutOfRange(f"space parameter k must be >= 1, got {k}")
    grid = _scale_grid(cloud, grid)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != cloud.size:
        raise OutOfRange("function sample count does not match the cloud")
    n, size = cloud.ambient_dim, cloud.size
    exps = np.asarray(multi_indices(n, k - 1), dtype=int).reshape(-1, n)
    needed = point_quota(exps.shape[0])
    # Index ``size`` is a zero-weight sentinel padding cubes to a common width.
    pts = np.vstack([cloud.points, np.zeros((1, n))])
    wts = np.append(cloud.weights, 0.0)
    vals = np.concatenate([values, np.zeros((values.shape[0], 1))], axis=1)
    # A batch of fits keeps about two arrays per function and basis column
    # alive, each holding one element per (cell, point) pair.
    budget = max(1, CHUNK_ELEMS // (2 * (values.shape[0] + exps.shape[0])))
    out = np.full((values.shape[0], size, len(grid)), np.nan)
    for j, first, batches in _cubes(cloud, grid.scales, needed, budget):
        for centres, idx in batches:
            w = wts[idx]
            mass = w.sum(axis=1)
            V = None
            if exps.shape[0] > 1:
                z = (pts[idx] - cloud.points[centres, None, :]) / grid.scales[j]
                V = _vandermonde(z.reshape(-1, n), exps).reshape(idx.shape + (-1,))
            err = _local_errors(V, w, np.take(vals, idx, axis=1), u, mass)[0]
            out[:, centres, j] = err / mass ** (1.0 / u)
        out[:, :, j] = out[:, first, j]
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
) -> np.ndarray:
    """Normalized local errors of one function: row i, column j is Q(x_i, t_j).

    The one-function case of ``error_matrices``.
    """
    return error_matrices(cloud, cloud.values_of(f)[None], k, u, grid)[0]


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
) -> GridFunction:
    """Pointwise max over admissible scales of t**-alpha times the local error."""
    k = _variant_degree(alpha, variant)
    grid = _scale_grid(cloud, grid)
    matrix = approx_error_matrix(cloud, f, k, u, grid)
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
    center and all scales contribute. Centres whose cubes hold the same
    points share one average.
    """
    if not sigma > 0.0:
        raise OutOfRange(f"sigma must be positive, got {sigma}")
    grid = _scale_grid(cloud, grid)
    values = cloud.values_of(g)
    # Index N is a zero-weight sentinel, as in the padding of ``_cubes``.
    wts = np.append(cloud.weights, 0.0)
    powered = wts * np.abs(np.append(values, 0.0)) ** sigma
    average, best = np.empty(cloud.size), np.zeros(cloud.size)
    for _, first, batches in _cubes(cloud, grid.scales, 1, CHUNK_ELEMS):
        for centres, idx in batches:
            average[centres] = powered[idx].sum(axis=1) / wts[idx].sum(axis=1)
        np.maximum(best, average[first], out=best)
    name = getattr(g, "name", "")
    return GridFunction(
        cloud, best ** (1.0 / sigma), name=f"hl({name})" if name else "hl",
        meta={"sigma": sigma},
    )
