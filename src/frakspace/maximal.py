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

Constant fits (k = 1) are exact for every u: the weighted median (u = 1),
the mean (u = 2), a cubic root (u = 4) or bracketed Newton (other u).
Higher degrees reproduce ``fit_in_span`` cell by cell, with its smoothed
reweighting for u not in {1, 2}. ``best_approx`` and ``fit_in_span`` still
reweight constants too, so for the same cube at k = 1 they can report a
larger error than the matrix.
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
# fit_in_span stays importable here: bench/layers.py wraps it by name.
from .polyapprox import (  # noqa: F401
    CLAMP_REL,
    DEFAULT_DELTA_REL,
    DEFAULT_MAX_ITER,
    DEFAULT_RTOL,
    MIN_POINTS_FACTOR,
    RANK_RTOL_SV,
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
# Newton's tolerance on best constants in L^u, relative to the spread of the
# cell's values, and a cap on its steps that bisection keeps out of reach.
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 200


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
                    V = np.ascontiguousarray(np.swapaxes(V, 1, 2))
                err = _local_errors(V, w, np.take(vals, idx, axis=1), u, mass)
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


def _local_errors(V, w, f, u, mass):
    """Best-approximation errors of functions f[F, L, W] on cells [L].

    V is the [L, d, W] design, or None for constants (k = 1). Constants are
    fitted exactly for every u (``_constant_errors``); ``fit_in_span``
    reweights them for u not in {1, 2}, so its error on the same cube can
    be larger. Higher degrees follow ``fit_in_span`` cell by cell: weighted
    least squares, final for u = 2 and otherwise the start of its
    reweighted iteration.
    """
    scale = np.abs(f).max(axis=2)
    if V is None:
        return _clamp(_constant_errors(w, f, u, mass, scale), scale, mass, u)
    Vw = V * w[:, None]
    lam, basis = np.linalg.eigh(Vw @ np.swapaxes(V, 1, 2))
    deficient = lam[:, 0] <= lam[:, -1] * (100.0 * RANK_RTOL_SV**2)
    if deficient.any():
        # Near the threshold the Gram spectrum is too coarse; decide with
        # fit_in_span's own test on the singular values of sqrt(w) V.
        doubt = np.flatnonzero(deficient)
        sv = np.linalg.svd(np.sqrt(w[doubt])[:, None] * V[doubt], compute_uv=False)
        deficient[doubt] = sv[:, -1] <= sv[:, 0] * RANK_RTOL_SV
        lam[deficient] = 1.0
    # f[:, :, None] holds each cell's values as a row: [F, L, 1, W].
    rhs = f[:, :, None] @ np.swapaxes(Vw, 1, 2)
    coef = (rhs @ basis / lam[:, None]) @ np.swapaxes(basis, 1, 2)
    resid = f - (coef @ V)[:, :, 0]
    if u == 2.0:
        value = np.sqrt(np.einsum("flw,flw,lw->fl", resid, resid, w))
    else:
        value = _irls(V, w, f, u, coef[:, :, 0], resid, scale, ~deficient)
    value = _clamp(value, scale, mass, u)
    value[:, deficient] = np.where(scale[:, deficient] > 0.0, np.nan, 0.0)
    return value


def _constant_errors(w, f, u, mass, scale):
    """Exact best-constant errors (sum_w |f - c|**u)**(1/u), shape [F, L].

    u = 1 takes the weighted median and u = 2 the weighted mean. Otherwise
    the minimizer is found about the mean: the one real root of a cubic for
    u = 4, safeguarded Newton for other u. The error is always summed over
    the cell at the constant found, never recovered from moments.
    """
    nfun, ncell, width = f.shape
    if u == 1.0:
        # Ties reorder freely: the median value, hence the error, is the same.
        order = np.argsort(f, axis=2)
        cum = np.cumsum(w.ravel()[order + (np.arange(ncell) * width)[:, None]], axis=2)
        pos = np.sum(cum < 0.5 * mass[:, None], axis=2)
        row = np.arange(nfun * ncell).reshape(nfun, ncell) * width
        c = f.ravel()[order.ravel()[row + pos] + row]
        return np.einsum("flw,lw->fl", np.abs(f - c[..., None]), w)
    d = f - (np.einsum("flw,lw->fl", f, w) / mass)[..., None]
    if u == 2.0:
        return np.sqrt(np.einsum("flw,flw,lw->fl", d, d, w))
    # In units of max|f|, so that no power of a value under- or overflows.
    unit = np.where(scale > 0.0, scale, 1.0)
    d /= unit[..., None]
    if u == 4.0:
        d -= _quartic_root(d, w, mass)[..., None]
        d *= d
        return unit * np.einsum("flw,flw,lw->fl", d, d, w) ** 0.25
    return unit * _newton_errors(d, w, u)


def _quartic_root(d, w, mass):
    """The c minimizing sum_w (d - c)**4: the one real root of a monotone cubic.

    With mass-normalized moments m1, m2, m3 of d, the root of
    sum_w (c - d)**3 = 0 is c = m1 + y, where y**3 + 3 p y = q,
    p = m2 - m1**2 >= 0 and q = m3 - 3 m1 m2 + 2 m1**3. Cardano's
    y = A - p / A, rewritten as q / (A**2 + p + p**2 / A**2), adds only
    non-negative terms.
    """
    d2 = d * d
    m1 = np.einsum("flw,lw->fl", d, w) / mass
    m2 = np.einsum("flw,lw->fl", d2, w) / mass
    m3 = np.einsum("flw,flw,lw->fl", d2, d, w) / mass
    p = np.maximum(m2 - m1 * m1, 0.0)
    q = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    A2 = np.cbrt(0.5 * np.abs(q) + np.sqrt(0.25 * q * q + p**3)) ** 2
    positive = A2 > 0.0
    den = np.where(positive, A2 + p + p * p / np.where(positive, A2, 1.0), 1.0)
    return m1 + np.where(positive, q / den, 0.0)


def _newton_errors(d, w, u):
    """Best-constant errors (sum_w |d - c|**u)**(1/u) for u not in {1, 2, 4}.

    Newton on phi'(c) = sum_w |c - d|**(u-1) sgn(c - d) from c = 0 (the
    mean), inside a sign bracket of the root that starts at [min d, max d];
    a step that leaves the bracket, or is over half the step before it,
    becomes bisection. With tol = NEWTON_TOL times the cell's spread, a
    pair stops when its bracket is at most 2 tol wide or, for u > 2, where
    phi'' is finite, when its Newton step is at most tol. For u < 2, where
    phi'' is infinite at every data point, a short step shows nothing: it
    is lengthened to tol to cross the root and close the bracket. The error
    is summed at the last c evaluated (the current c for a pair still
    running after NEWTON_MAX_ITER steps). Pairs leave the arrays as they stop;
    one whose values are all equal stops at once, with error 0.
    """
    nfun, ncell, width = d.shape
    da, wa = d.reshape(-1, width), np.tile(w, (nfun, 1))
    act = np.arange(da.shape[0])
    out = np.zeros(act.size)
    real = wa > 0.0  # the zero-weight sentinel pads a cell, it is not in it
    lo = np.where(real, da, np.inf).min(axis=1)
    hi = np.where(real, da, -np.inf).max(axis=1)
    half = 0.5 * (hi - lo)
    tol = NEWTON_TOL * (hi - lo)
    ones = np.ones(width)
    c = np.zeros(act.size)
    for _ in range(NEWTON_MAX_ITER):
        r = c[:, None] - da
        g = np.abs(r)
        if u < 2.0:
            g[g == 0.0] = np.inf  # leave out the point under c, where phi'' is infinite
        if u != 3.0:  # |r|**(u-2) is |r| itself at u = 3
            g **= u - 2.0
        g *= wa  # w |r|**(u-2): phi' = sum g r, phi'' = (u-1) sum g, phi = sum g r r
        slope = np.einsum("pw,pw->p", g, r)
        hi = np.where(slope >= 0.0, c, hi)
        lo = np.where(slope <= 0.0, c, lo)
        # 0 / 0 only where every value equals c, a pair the bracket stops.
        with np.errstate(divide="ignore", invalid="ignore"):
            step = slope / ((1.0 - u) * (g @ ones))
        size = np.abs(step)
        done = hi - lo <= 2.0 * tol
        if u > 2.0:
            done |= size <= tol
        if done.any():
            out[act[done]] = np.einsum("pw,pw,pw->p", g, r, r)[done]
            keep = ~done
            act, da, wa, step, size, lo, hi, half, tol, c = (
                x[keep] for x in (act, da, wa, step, size, lo, hi, half, tol, c)
            )
        if act.size == 0:
            break
        new = c + np.copysign(np.maximum(size, tol), step)
        newton = (size <= half) & (new > lo) & (new < hi)
        new = np.where(newton, new, 0.5 * (lo + hi))
        half, c = 0.5 * np.abs(new - c), new
    else:
        out[act] = np.einsum("pw,pw->p", wa, np.abs(c[:, None] - da) ** u)
    return out.reshape(nfun, ncell) ** (1.0 / u)


def _irls(V, w, f, u, coef, resid, scale, usable):
    """fit_in_span's reweighted iteration on every (function, cell) pair.

    Serves k >= 2 only: constants have exact fits here, while
    ``fit_in_span`` and ``best_approx`` still reweight them. Each pair
    stops on its own rule; returns the objective at its best iterate.
    Converged pairs leave the working arrays.
    """
    nfun, ncell, width = f.shape
    cells = np.tile(np.arange(ncell), nfun)
    scale = scale.ravel()
    # Pairs left out (zero data, rank-deficient cell) are settled by the caller.
    best = np.zeros(nfun * ncell)
    act = np.flatnonzero(usable[cells] & (scale > 0.0))
    cells = cells[act]
    fa, wa, Va = f.reshape(-1, width)[act], w[cells], V[cells]
    ca = coef.reshape(nfun * ncell, -1)[act]
    floor = DEFAULT_DELTA_REL * scale[act]
    # |r|**u as (r*r)**(u/2): the squares also feed the weights, and the
    # power is a plain square for u = 4.
    rr = np.square(resid.reshape(-1, width)[act])
    obj = low = np.sum(wa * rr ** (0.5 * u), axis=1) ** (1.0 / u)
    exponent = 0.5 * u - 1.0
    # Plain reweighting oscillates for u > 2; see fit_in_span.
    damping = 1.0 / (u - 1.0) if u > 2.0 else 1.0
    for _ in range(DEFAULT_MAX_ITER):
        if act.size == 0:
            break
        omega = wa * (rr + (floor * floor)[:, None]) ** exponent
        Vo = Va * omega[:, None]
        G = Vo @ np.swapaxes(Va, 1, 2)
        step = _solve_each(G, Vo @ fa[..., None], Va, omega, fa)
        ca = ca + damping * (step - ca)
        rr = np.square(fa - (ca[:, None] @ Va)[:, 0])
        new = np.sum(wa * rr ** (0.5 * u), axis=1) ** (1.0 / u)
        low = np.minimum(low, new)
        done = np.abs(new - obj) <= DEFAULT_RTOL * np.maximum(obj, floor)
        obj = new
        if done.any():
            best[act[done]] = low[done]
            keep = ~done
            act, fa, wa, Va, rr, ca, floor, obj, low = (
                x[keep] for x in (act, fa, wa, Va, rr, ca, floor, obj, low)
            )
    best[act] = low
    return best.reshape(nfun, ncell)


def _solve_each(G, rhs, V, omega, f):
    """Batched G x = rhs; a singular system falls back to lstsq as in fit_in_span."""
    try:
        return np.linalg.solve(G, rhs)[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty(rhs.shape[:2])
        for p in range(len(G)):
            try:
                out[p] = np.linalg.solve(G[p], rhs[p])[:, 0]
            except np.linalg.LinAlgError:
                so = np.sqrt(omega[p])
                out[p] = np.linalg.lstsq((V[p] * so).T, so * f[p], rcond=None)[0]
        return out


def _clamp(value, scale, mass, u):
    """Errors below CLAMP_REL times the local data scale are exact fits: 0."""
    return np.where(value <= CLAMP_REL * scale * mass ** (1.0 / u), 0.0, value)


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
