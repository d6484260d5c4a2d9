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
that fix a u = 2 error of degree <= 1 (k <= 2), from tables over tiles of
side 4t in which f is taken less a fit on the tile, one build per group of
scales, and ``hl_maximal`` the mass and the mass of |g|**sigma, from tables
over the whole cloud. Every other cube is gathered, then fitted or summed;
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
    _weighted_mean,
    basis_size,
    fit_in_span,
    point_quota,
)
from .rankspace import (
    CHUNK_ELEMS, _binned, _box_sums, _cubes, _fit_batches, _rank_grid, _summed_area,
    _table_layout, _tilings,
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
# An ``hl_maximal`` sum of powers below this has underflowed.
TINY = np.finfo(float).tiny


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


def _table_errors(cloud: WeightedPointCloud, rank, values: np.ndarray, k: int, scales,
                  quota, out, settled):
    """A ``settle`` for ``_cubes``: the u = 2 errors of degree <= k - 1 fits
    (k <= 2) that cube moments fix, read from tile-local summed-area tables.

    Returns (settle, rows). ``settle(js, reps, runs)`` writes into ``out``
    [F, N, S] each normalized error it keeps, or 0 where it settles one at
    the clamp, marks those and the cubes of fewer than ``quota`` points (NaN)
    in ``settled``, and returns the mask of cubes settled for every function.
    It builds ``rows`` tables once for its group of scales, over the tilings
    of side 4t that hold some cube at each scale t (``_tilings``). In a tile
    x is taken about its centre and f less p, the tile's weighted least
    squares polynomial of degree <= k - 1 (``_detrended``), which changes no
    cube's error. The centred co-moments C of z = (1, x, r) give E**2 =
    C_rr - 2 C_xr.c + c.C_xx c at c = C_xx**-1 C_xr.

    Rounding: a box sum of a table of q is within gamma = (depth + 2**n + 3)
    u (u = eps / 2, its scale's depth in ``_table_layout``) times the corner
    sums of |q|, which for q = w z_i z_j are at most a_i a_j, a_i**2 those of
    w z_i**2. With P = [-zbar | I] from the cube means, E**2 at v = (-c, 1) is
    then within 2 gamma ((|P| a).|v|)**2, c kept within sqrt(BOX_RTOL) of the
    exact minimizer by the conditioning test; the rounding of r and of x
    moves E by at most eta. A cell keeps its error when these and the mass's
    bound put it within BOX_RTOL / 2 of exact, its count meets ``quota``,
    the kernel's rank test passes, and it clears the kernel's zero clamp
    taken with max|f|. It is settled at 0 when its bound on E lies below the
    clamp taken with a lower bound on its own max|f| (its centre's |f| or
    its RMS), as the kernel would report it. Others are left for the kernel.
    """
    pts, w = cloud.points, cloud.weights
    n, nfun = pts.shape[1], values.shape[0]
    m = n if k == 2 else 0  # the x columns of the fit: none for constants
    pairs = [(a, b) for a in range(m + 1) for b in range(a, m + 1)]
    squares, shared = [1 + pairs.index((a, a)) for a in range(m + 1)], 1 + len(pairs)
    unit = 0.5 * np.finfo(float).eps
    peak = np.abs(values).max(axis=1)[:, None]

    def settle(js, reps, runs):
        sides = 4.0 * scales[js[0] : js[-1] + 1]
        tiles, which = _tilings(rank, runs, sides, js - js[0])
        part = np.flatnonzero(which >= 0)
        layout = _table_layout(rank, tiles, which[part])
        if layout is None or not part.size:
            return np.zeros(reps.size, dtype=bool)
        pick, which = layout.pick, layout.slot[which[part]]
        # Each point's tile per entry [E, N], by its first grid cell, numbered densely; z = (1, x).
        back = [b[v][:, r - 1] for v, b, r in zip(pick.T, layout.reach, rank.ranks)]
        tile = layout.cells - np.ravel_multi_index(back, layout.shape[1:])
        used = np.bincount(tile.ravel()) > 0
        tile, owner = (np.cumsum(used) - 1)[tile], np.flatnonzero(used) // math.prod(layout.shape[1:])
        homes = tile[which, reps[part]]  # a cube's tile holds its centre
        z = np.ones((m + 1,) + tile.shape)
        for a, (p, x, number, r) in enumerate(zip(pts.T[:m], rank.axes, tiles, rank.ranks)):
            centre = x[0] + (number + np.array([[0.5], [0.0]])) * sides[:, None, None]
            z[1 + a] = p - centre.reshape(-1, x.size)[pick[:, a]][:, r - 1]
        r, coef = _detrended(z, w, values, tile, owner.size, 0.5 * sides[pick[owner, 0] // 2])
        del tiles, back, tile  # not held while the tables are
        # The count, w z_a z_b, and per function w z_a r and w r r.
        tables = _summed_area(layout, _moments(z, w, r, pairs, count=True))
        del z, r
        for chunk, sums, spread in _box_sums(layout, tables, runs[part], which):
            rows, j, fit, count = reps[part[chunk]], js[part[chunk]], coef[:, homes[chunk]], sums[0]
            t, gamma = scales[j], (layout.depth[which[chunk]] + 2**n + 3) * unit
            S = np.empty((nfun, count.size, m + 2, m + 2))
            for row, (a, c) in zip(sums[1:shared], pairs):
                S[..., a, c] = S[..., c, a] = row
            S[..., m + 1] = S[..., m + 1, :] = sums[shared:].reshape(nfun, m + 2, -1).transpose(0, 2, 1)
            mass = S[0, :, 0, 0]
            zbar = S[..., 0, 1:] / mass[:, None]
            C = S[..., 1:, 1:] - S[..., 1:, :1] * zbar[..., None, :]
            Cxx, Cxf, E2 = C[0, :, :m, :m], C[..., :m, m], C[..., m, m]
            a = np.empty((nfun, count.size, m + 2))
            a[..., : m + 1], a[..., m + 1] = spread[squares].T, spread[shared + m + 1 :: m + 2]
            np.sqrt(a, out=a)
            Pa = np.abs(zbar) * a[..., :1] + a[..., 1:]
            sound, c = count >= quota, np.zeros(Cxf.shape)
            if m:
                # One eigendecomposition per cube serves every function.
                spectrum, basis = np.linalg.eigh(Cxx)
                lam = spectrum[:, 0]
                ranked = lam >= RANK_RTOL_SV * t * t * mass
                spectrum[~ranked] = 1.0
                along = (Cxf[..., None, :] @ basis)[..., 0, :] / spectrum
                c = (basis @ along[..., None])[..., 0]
                E2 = E2 + (((Cxx @ c[..., None])[..., 0] - 2.0 * Cxf) * c).sum(axis=2)
                trace = 2.0 * gamma * (Pa[..., :m] ** 2).sum(axis=2)
                moved = trace + np.sqrt(trace * 2.0 * gamma) * Pa[..., m]
                sound = sound & ranked & (moved <= math.sqrt(BOX_RTOL) * lam)
            v, E2, root = np.abs(c), np.maximum(E2, 0.0), np.sqrt(mass)
            bound = 2.0 * gamma * ((Pa[..., :m] * v).sum(axis=2) + Pa[..., m]) ** 2
            slope = np.abs(fit[..., 1:]).sum(axis=2)
            eta = 2 * (m + 1) * unit * ((1.0 + unit) * a[..., -1] + root * (2.5 * t * slope + unit * peak))
            eta += unit * 2.5 * t * root * (v.sum(axis=2) + slope)
            weighed = gamma * a[..., 0] ** 2 / mass
            norm = np.sqrt(E2 / mass)
            keep = sound & (bound + E2 * weighed + 2.0 * eta * np.sqrt(E2) <= BOX_RTOL * E2)
            keep &= norm > CLAMP_REL * peak * (1.0 + BOX_RTOL)
            # sqrt(mass) times lower bounds on max|f|: the centre's |f|, and
            # the RMS of r + c0 + b.x from the moments, less their rounding;
            # only cells whose E may lie below the clamp need them.
            top = np.sqrt(E2 + bound) + eta
            zero = sound & (weighed <= BOX_RTOL) & (top <= CLAMP_REL * peak * root)
            if zero.any():
                fit = np.concatenate([fit, np.ones(E2.shape + (1,))], axis=2)
                power = (fit[..., None] * S * fit[..., None, :]).sum(axis=(2, 3))
                power -= gamma * ((np.abs(fit) * a).sum(axis=2)) ** 2
                low = np.maximum(np.abs(values[:, rows]) * root, np.sqrt(np.maximum(power, 0.0)) - eta)
                zero &= top <= CLAMP_REL * low * (1.0 - BOX_RTOL)
            out[:, rows, j] = np.where(keep, norm, np.where(zero, 0.0, np.nan))
            settled[:, rows, j] = keep | zero | (count < quota)
        return settled[:, reps, js].all(axis=0)

    return settle, shared + nfun * (m + 2)


def _moments(z, w, r, pairs, count=False):
    """Rows of w z_a z_b over ``pairs``, after ones if ``count``, then per
    function of ``r`` [F, V, N] w z_a r and w r r."""
    out = np.empty((count + len(pairs) + len(r) * (len(z) + 1),) + z.shape[1:])
    out[:count] = 1.0
    for into, (a, b) in zip(out[count:], pairs):
        np.multiply(w * z[a], z[b], out=into)
    own = out[count + len(pairs) :].reshape((len(r), len(z) + 1) + z.shape[1:])
    np.multiply(w * z, r[:, None], out=own[:, :-1])
    np.multiply(w * r, r, out=own[:, -1])
    return out


def _detrended(z, w, values, tile, ntile, width):
    """r = f - p [F, E, N] and p's coefficients (c0, b) [F, tiles, m + 1]:
    each tile's weighted mean (k = 1) or least-squares line in the chart
    x / width[tile] (k = 2), exactly c0 + b.x as stored. lead + tail = c0 + b.x
    to the rounding of the products (TwoSum), so r is rounded by at most
    m + 1 ulps of |b.x| <= 2.5 t |b| plus two of |r|, which eta bounds.
    """
    m, nfun = len(z) - 1, len(values)
    if not m:
        sums = _binned(tile, ntile, w * np.concatenate([z, values[:, None] * z]))
        coef = (sums[1:] / np.maximum(sums[0], 1e-300))[..., None]
        return values[:, None] - coef[:, tile, 0], coef
    chart = np.concatenate([z[:1], z[1:] / width[tile]])
    pairs = [(a, b) for a in range(m + 1) for b in range(a, m + 1)]
    sums = _binned(tile, ntile, _moments(chart, w, values[:, None] * z[0], pairs))
    gram = np.empty((ntile, m + 1, m + 1))
    for row, (a, b) in zip(sums, pairs):
        gram[:, a, b] = gram[:, b, a] = row
    used, coef = gram[:, 0, 0] > 0.0, np.zeros((nfun, ntile, m + 1))
    rhs = sums[len(pairs) :].reshape(nfun, m + 2, ntile)[:, : m + 1, used].transpose(0, 2, 1)
    coef[:, used] = (np.linalg.pinv(gram[used], 1e-10, hermitian=True) @ rhs[..., None])[..., 0]
    coef[..., 1:] /= width[:, None]
    c0, bx = coef[:, tile, 0], coef[:, tile, 1:] * z[1:].transpose(1, 2, 0)
    q = bx.sum(axis=-1)
    lead = c0 + q
    tail = (c0 - (lead - (lead - c0))) + (q - (lead - c0))
    return (values[:, None] - lead) - tail, coef


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

    At u = 2 with k <= 2, errors are read from tile-local summed-area tables
    of cube moments where the cloud's coordinate grid allows them and a
    rounding bound keeps each within BOX_RTOL / 2 of exact, or settles it at
    the kernel's zero clamp (``_table_errors``); the cubes left over are
    fitted as above, in batches that fit each function the tables left open
    on some cube of the batch, and a fit fills only the cells left open.
    Batches hold the same cubes for any number of functions, so a cell
    depends only on its own function, except that on this table path the
    cubes left open for any function decide which cubes share a batch, and
    a fitted cell's last bits with them (README's verify section).
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
    settle, rows = (_table_errors(cloud, rank, values, k, grid.scales, needed, out, settled)
                    if u == 2.0 and k <= 2 else (None, 0))
    for j, first, batches in _cubes(rank, grid.scales, needed, budget, settle, rows):
        for centres, idx in batches:
            V, w, f, mass = batch(idx, cloud.points[centres], grid.scales[j])
            # Only the functions that some cube of the batch still needs are
            # fitted, and their fits fill only the cells the tables left open.
            rows = np.flatnonzero(~settled[:, centres, j].all(axis=1))
            fit = _local_errors(V, w, f[rows], u, mass)[0] / mass ** (1.0 / u)
            at = rows[:, None], centres, j
            out[at] = fit if settle is None else np.where(settled[at], out[at], fit)
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
    A cube whose sum of powers is below TINY is gathered and averaged in
    units of its own max|g|, its root entering the maximum directly.
    """
    if not 0.0 < sigma < math.inf:
        raise OutOfRange(f"sigma must be positive and finite, got {sigma}")
    grid = ScaleGrid.or_default(cloud, grid)
    values = np.abs(cloud.values_of(g))
    unit = float(values.max()) or 1.0
    wts = np.append(cloud.weights, 0.0)
    powered = wts * np.append(values / unit, 0.0) ** sigma
    average = np.empty((len(grid), cloud.size))
    rank = _rank_grid(cloud)
    settle, layout = None, _table_layout(rank)
    if layout is not None:
        tables = _summed_area(layout, [wts[:-1], powered[:-1]])
        rounding = (layout.depth[0] + 2**cloud.ambient_dim + 1) * 0.5 * np.finfo(float).eps

        def settle(js, reps, runs):
            keep = np.empty(reps.size, dtype=bool)
            for part, (mass, total), spread in _box_sums(layout, tables, runs, 0 * reps):
                average[js[part], reps[part]] = total / mass
                # Relative errors of mass and total add in the average, and
                # the power 1 / sigma scales them.
                bound = rounding * (spread[0] * total + spread[1] * mass)
                keep[part] = (bound <= 0.5 * sigma * BOX_RTOL * mass * total) & (total >= TINY)
            return keep

    best, floor, padded = np.zeros(cloud.size), np.zeros(cloud.size), np.append(values, 0.0)
    for j, first, batches in _cubes(rank, grid.scales, 1, CHUNK_ELEMS, settle, 2):
        low = np.zeros(cloud.size)
        for centres, idx in batches:
            total = powered[idx].sum(axis=1)
            average[j, centres] = total / wts[idx].sum(axis=1)
            under = np.flatnonzero(total < TINY)
            if under.size:
                own, w = padded[idx[under]], wts[idx[under]]
                peak = own.max(axis=1)
                ratio = own / np.where(peak > 0.0, peak, 1.0)[:, None]
                low[centres[under]] = peak * _weighted_mean(ratio, w, sigma, w.sum(axis=1))
                average[j, centres[under]] = 0.0
        np.maximum(best, average[j, first], out=best)
        np.maximum(floor, low[first], out=floor)
    name = getattr(g, "name", "")
    return GridFunction(
        cloud, np.maximum(unit * best ** (1.0 / sigma), floor),
        name=f"hl({name})" if name else "hl", meta={"sigma": sigma},
    )
