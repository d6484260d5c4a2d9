"""Fractional sharp and Hardy-Littlewood maximal operators on a cloud.

Both operators scan cubes centered at every cloud point over a shared dyadic
scale grid. The sharp operator weights local best-approximation errors by
t**-alpha; the degree of the fitted polynomial space follows alpha through
one of two conventions ("sharp" and "flat") that differ only at integer
alpha.

``rankspace`` finds the distinct cubes of each scale and, where the cloud's
coordinate grid allows, reads sums over cubes from summed-area tables. Two
guards here judge those sums, each by its own rounding bound, and keep a
table value only within BOX_RTOL / 2 of exact: ``_table_errors`` the moments
that fix a u = 2 error of degree <= 1 (k <= 2), ``hl_maximal`` the mass and
the mass of |g|**sigma. Every other cube is gathered, then fitted or summed;
a local error depends only on the points of its cube, since the polynomial
space is invariant under translation and scaling.

The fits themselves are ``polyapprox._local_errors``, the kernel that
``fit_in_span`` and ``best_approx`` call on one cube, so a gathered matrix
cell and ``best_approx`` on the same cube run the same fit: exact constants
(k = 1) for every u, and for higher degrees least squares (u = 2), an exact
vertex exchange (u = 1) or reweighting (other u).
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
    CLAMP_REL,
    RANK_RTOL_SV,
    _local_errors,
    basis_size,
    fit_in_span,
    point_quota,
)
from .rankspace import (
    CHUNK_ELEMS, _box_sums, _cubes, _fit_batches, _rank_grid, _summed_area, _table_layout,
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

# A u = 2 error read from cube moments is kept when its rounding bound puts it
# within BOX_RTOL / 2 of the exact error, relative; other cubes are fitted.
BOX_RTOL = 1e-10


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
    """Decreasing dyadic scales t_nu = diam * 2**-nu over increasing levels nu."""

    scales: np.ndarray
    levels: np.ndarray
    diam: float

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
    ) -> "ScaleGrid":
        """All levels whose scale stays above factor * resolution_scale."""
        if not 0.0 < factor < math.inf:
            raise OutOfRange(f"factor must be finite and positive, got {factor}")
        floor_scale = factor * cloud.resolution_scale
        auto_max = int(math.floor(math.log2(cloud.diam / floor_scale) + 1e-9))
        if nu_max is None:
            nu_max = auto_max
        elif nu_max > auto_max:
            raise ScaleTooFine(
                f"nu_max={nu_max} finer than admissible level {auto_max} "
                f"(factor {factor} x resolution scale)"
            )
        if nu_max < 0:
            raise ScaleTooFine(f"no admissible scales: nu_max={nu_max} < 0")
        levels = np.arange(nu_max + 1)
        return cls(
            scales=cloud.diam * 2.0 ** -levels.astype(float),
            levels=levels,
            diam=cloud.diam,
        )

    @classmethod
    def or_default(cls, cloud: WeightedPointCloud, grid: ScaleGrid | None) -> "ScaleGrid":
        """``grid``, or the cloud's default dyadic grid when it is None; never empty."""
        if grid is None:
            grid = cls.dyadic(cloud)
        if len(grid) == 0:
            raise EmptyGrid("scale grid holds no scales")
        return grid


def degree_for_sharp(alpha: float) -> int:
    """Space parameter k for the sharp convention: greatest integer < alpha + 1."""
    return int(math.ceil(_finite_alpha(alpha)))


def degree_for_flat(alpha: float) -> int:
    """Space parameter k for the flat convention: smallest integer > alpha."""
    return int(math.floor(_finite_alpha(alpha))) + 1


def _finite_alpha(alpha: float) -> float:
    if not alpha > 0.0:
        raise NonpositiveAlpha(f"alpha must be positive, got {alpha}")
    if alpha == math.inf:
        raise OutOfRange(f"alpha must be finite, got {alpha}")
    return alpha


def _table_errors(cloud: WeightedPointCloud, layout, values: np.ndarray, k: int, scales,
                  quota, out, settled):
    """A ``settle`` for ``_cubes``: the u = 2 errors of degree <= k - 1 fits
    (k <= 2) that cube moments fix, read from summed-area tables.

    ``settle(j, reps, runs)`` writes into ``out`` [F, N, S] each normalized
    error it keeps and marks ``settled`` [F, N, S] where it kept one or the
    cube holds fewer than ``quota`` points (NaN); it returns the mask of
    cubes settled for every function.

    Moments are taken of x about the cloud's centre and of each f about its
    weighted mean. Per cube, the centred co-moments C of (x, f) give
    E**2 = C_ff - 2 C_xf.c + c.C_xx c at c = C_xx**-1 C_xf.

    The rounding bound: a box sum of a table of q, the rounding of each
    point's product included, is within beta * sum|q| of exact, where
    beta = 2**n (depth + 2**n + 3) u, u = eps / 2 the unit roundoff and
    depth that of ``_table_layout``. So each co-moment C_ij is within
    2 beta (|P| A |P|^T)_ij, the factor 2 covering the centring's own
    rounding, with A the cloud's sums of w |z_i z_j| over z = (1, x, f)
    and P = [-zbar | I] from the cube means. At v = (-c, 1), E**2 is then
    within 2 beta y.A.y, y = |P|^T |v|, which also covers the arithmetic of
    the form and the minimizer of the exact moments, kept within
    sqrt(BOX_RTOL) relative of c by the conditioning test below. A cell
    keeps its error when that bound plus beta A_ww / mass, the bound on its
    mass, stays within BOX_RTOL of E**2, its count meets ``quota``, its
    C_xx is well conditioned (the kernel's rank test passes, and C_xx's own
    error moves c by at most sqrt(BOX_RTOL) relative), and its error is
    clear of the kernel's zero clamp taken with the cloud's max|f|. Cells
    that keep nothing are left for the kernel.

    All tables are built at once, m + 2 + m (m + 1) / 2 shared and m + 2
    per function, each of about N to GRID_CELLS_PER_POINT * N entries.
    """
    pts, w = cloud.points, cloud.weights
    n, nfun = pts.shape[1], values.shape[0]
    m = n if k == 2 else 0  # the x columns of the fit: none for constants
    lo, hi = cloud.bbox
    x = (pts - 0.5 * (lo + hi))[:, :m]
    f = values - (values @ w / w.sum())[:, None]
    pairs = [(a, b) for a in range(m) for b in range(a, m)]
    shared = [np.ones_like(w), w, *(w * x[:, a] for a in range(m))]
    shared += [w * x[:, a] * x[:, b] for a, b in pairs]
    own = [[w * g, *(w * x[:, a] * g for a in range(m)), w * g * g] for g in f]
    tables = _summed_area(layout, shared + [q for qs in own for q in qs])
    # The cloud's absolute moments A [F, m + 2, m + 2] of z = (1, |x|, |f|).
    absolute = np.empty((nfun, m + 2, m + 2))
    for into, g in zip(absolute, f):
        z = np.column_stack([np.ones_like(w), np.abs(x), np.abs(g)])
        into[:] = (z.T * w) @ z
    beta = 2**n * (layout[2] + 2**n + 3) * 0.5 * np.finfo(float).eps
    peak = np.abs(values).max(axis=1)[:, None]

    def settle(j, reps, runs):
        t = scales[j]
        for part, sums, _ in _box_sums(layout, tables, runs):
            rows = reps[part]
            count, mass = sums[0], sums[1]
            Sx = sums[2 : 2 + m].T
            Sxx = np.empty((mass.size, m, m))
            for row, (a, b) in zip(sums[2 + m : len(shared)], pairs):
                Sxx[:, a, b] = Sxx[:, b, a] = row
            own_sums = sums[len(shared) :].reshape(nfun, m + 2, -1)
            Sf, Sxf, Sff = (own_sums[:, i] for i in (0, slice(1, 1 + m), -1))
            Sxf = np.swapaxes(Sxf, 1, 2)
            xbar, fbar = Sx / mass[:, None], Sf / mass
            Cxx = Sxx - Sx[:, :, None] * xbar[:, None, :]
            Cxf = Sxf - Sx * fbar[..., None]
            E2 = Sff - Sf * fbar
            zbar = np.concatenate([np.broadcast_to(xbar, Cxf.shape), fbar[..., None]], axis=2)
            zbar = np.abs(zbar)
            # Diagonal of |P| A |P|^T, per function, cube and column of z.
            diag = (
                zbar * zbar * absolute[:, None, :1, 0]
                + 2.0 * zbar * absolute[:, None, 0, 1:]
                + np.diagonal(absolute, axis1=1, axis2=2)[:, None, 1:]
            )
            keep = np.broadcast_to(count >= quota, E2.shape)
            c = np.zeros(Cxf.shape)
            if m:
                # One eigendecomposition per cube serves every function.
                spectrum, basis = np.linalg.eigh(Cxx)
                lam = spectrum[:, 0]
                ranked = lam >= RANK_RTOL_SV * t * t * mass
                spectrum[~ranked] = 1.0
                along = (Cxf[..., None, :] @ basis)[..., 0, :] / spectrum
                c = (basis @ along[..., None])[..., 0]
                E2 = E2 + (((Cxx @ c[..., None])[..., 0] - 2.0 * Cxf) * c).sum(axis=2)
                trace = 2.0 * beta * diag[..., :m].sum(axis=2)
                moved = trace + np.sqrt(trace * 2.0 * beta * diag[..., m])
                keep = keep & ranked & (moved <= math.sqrt(BOX_RTOL) * lam)
            v = np.abs(c)
            y0 = (zbar[..., :m] * v).sum(axis=2, keepdims=True) + zbar[..., m:]
            y = np.concatenate([y0, v, np.ones(E2.shape + (1,))], axis=2)
            bound = 2.0 * beta * ((y @ absolute) * y).sum(axis=2)
            with np.errstate(divide="ignore", invalid="ignore"):
                norm = np.sqrt(E2 / mass)
                keep = keep & (bound + E2 * beta * absolute[:, :1, 0] / mass <= BOX_RTOL * E2)
            keep = keep & (norm > CLAMP_REL * peak * (1.0 + BOX_RTOL))
            out[:, rows, j] = np.where(keep, norm, np.nan)
            settled[:, rows, j] = keep | (count < quota)
        return settled[:, reps, j].all(axis=0)

    return settle


def _no_scale(point: int, needed: int, k: int) -> TooFewPoints:
    return TooFewPoints(f"point {point} admits no scale with {needed} points for k={k}")


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

    At u = 2 with k <= 2, errors are read from summed-area tables of cube
    moments where the cloud's coordinate grid allows them and a rounding
    bound keeps each within BOX_RTOL / 2 of exact (``_table_errors``); the
    cubes left over are fitted as above, in batches that fit each function
    the tables left open on some cube of the batch, and those fits replace
    the batch's table values. So a cell's last bits depend on which functions
    share the call, since batch sizes follow the function count (up to
    1.8e-12 relative in the cases that README's verify section lists).
    """
    if not (1.0 <= u < math.inf):
        raise OutOfRange(f"u must lie in [1, inf), got {u}")
    if k < 1:
        raise OutOfRange(f"space parameter k must be >= 1, got {k}")
    grid = ScaleGrid.or_default(cloud, grid)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != cloud.size:
        raise OutOfRange("function sample count does not match the cloud")
    # No cube holds more points than the cloud, so refuse a k that needs more
    # before listing the basis exponents, which takes time growing with k.
    needed = point_quota(basis_size(cloud.ambient_dim, k))
    if needed > cloud.size:
        raise _no_scale(0, needed, k)
    budget, batch = _fit_batches(cloud, values, k)
    rank = _rank_grid(cloud)
    out = np.full((values.shape[0], cloud.size, len(grid)), np.nan)
    settled = np.zeros(out.shape, dtype=bool)
    settle = None
    layout = _table_layout(rank) if u == 2.0 and k <= 2 else None
    if layout is not None:
        settle = _table_errors(cloud, layout, values, k, grid.scales, needed, out, settled)
    for j, first, batches in _cubes(rank, grid.scales, needed, budget, settle):
        for centres, idx in batches:
            V, w, f, mass = batch(idx, cloud.points[centres], grid.scales[j])
            # Only the functions that some cube of the batch still needs are
            # fitted, and their fits replace any table values of the batch.
            rows = np.flatnonzero(~settled[:, centres, j].all(axis=1))
            out[rows[:, None], centres, j] = (
                _local_errors(V, w, f[rows], u, mass)[0] / mass ** (1.0 / u)
            )
        out[:, :, j] = out[:, first, j]
    skipped = np.isnan(out).all(axis=2).any(axis=0)
    if skipped.any():
        raise _no_scale(int(np.argmax(skipped)), needed, k)
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
    if variant not in ("sharp", "flat"):
        raise OutOfRange(f"variant must be 'sharp' or 'flat', got {variant!r}")
    k = degree_for_sharp(alpha) if variant == "sharp" else degree_for_flat(alpha)
    grid = ScaleGrid.or_default(cloud, grid)
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
    points share one average. Where the cloud's grid of distinct coordinates
    allows (``rankspace._table_layout``), a cube's mass and mass of
    |g|**sigma are read from summed-area tables. Their terms are nonnegative,
    but a box sum adds and subtracts 2**n prefix sums, so its error is
    bounded by (depth + 2**n + 1) eps / 2 times the sum of those prefix
    sums, which for a small cube can be about N times its own sum. A cube
    keeps its table average only when that bound puts M_sigma within
    BOX_RTOL / 2 of exact; every other cube is gathered and summed. Powers
    are taken in units of max|g|, so none overflows and the largest is 1.
    """
    if not 0.0 < sigma < math.inf:
        raise OutOfRange(f"sigma must be positive and finite, got {sigma}")
    grid = ScaleGrid.or_default(cloud, grid)
    values = np.abs(cloud.values_of(g))
    unit = float(values.max()) or 1.0
    wts = np.append(cloud.weights, 0.0)
    powered = wts * np.append(values / unit, 0.0) ** sigma
    average = np.empty(cloud.size)
    rank = _rank_grid(cloud)
    settle = None
    layout = _table_layout(rank)
    if layout is not None:
        tables = _summed_area(layout, [wts[:-1], powered[:-1]])
        rounding = (layout[2] + 2**cloud.ambient_dim + 1) * 0.5 * np.finfo(float).eps

        def settle(j, reps, runs):
            keep = np.empty(reps.size, dtype=bool)
            for part, (mass, total), spread in _box_sums(layout, tables, runs, unsigned=True):
                average[reps[part]] = total / mass
                # Relative errors of mass and total add in the average, and
                # the power 1 / sigma scales them.
                bound = rounding * (spread[0] * total + spread[1] * mass)
                keep[part] = bound <= 0.5 * sigma * BOX_RTOL * mass * total
            return keep

    best = np.zeros(cloud.size)
    for _, first, batches in _cubes(rank, grid.scales, 1, CHUNK_ELEMS, settle):
        for centres, idx in batches:
            average[centres] = powered[idx].sum(axis=1) / wts[idx].sum(axis=1)
        np.maximum(best, average[first], out=best)
    name = getattr(g, "name", "")
    return GridFunction(
        cloud, unit * best ** (1.0 / sigma), name=f"hl({name})" if name else "hl",
        meta={"sigma": sigma},
    )
