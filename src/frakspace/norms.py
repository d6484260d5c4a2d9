"""Calderon- and Besov-type norms assembled from local approximation errors.

Scales are dyadic fractions of the cloud diameter: level nu means
t = diam * 2**-nu, and the per-scale weight is t**-alpha. The Besov
seminorm sums weighted per-scale error norms over the admissible window;
an independent net-based construction serves as its cross-check. It fits
f on every occupied cell of a dyadic net in L^p, in padded batches through
the kernel every other fit runs (``polyapprox._local_errors``), and fits a
cell whose points leave the monomials dependent over a full-rank basis of
the same span, so every p in [1, inf) gives a finite seminorm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveAlpha, OutOfRange
from .geometry import Net, dyadic_net
from .maximal import (
    ScaleGrid,
    approx_error_matrix,
    degree_for_flat,
    _fit_batches,
    _scale_grid,
    _sharp_from_matrix,
    _variant_degree,
)
from .measure import WeightedPointCloud
# The net route never calls fit_in_span; it stays importable here only
# because bench/layers.py wraps it by name at this module too.
from .polyapprox import RANK_RTOL_SV, _local_errors, fit_in_span  # noqa: F401

__all__ = [
    "NormReport",
    "NetBesovResult",
    "lp_norm",
    "calderon_norm",
    "besov_norm",
    "besov_net_norm",
    "scale_profile",
]


def lp_norm(cloud: WeightedPointCloud, f, p: float) -> float:
    """(sum_i w_i |f_i|**p)**(1/p); max |f_i| for p = inf."""
    if not 1.0 <= p:
        raise OutOfRange(f"p must lie in [1, inf], got {p}")
    values = cloud.values_of(f)
    if p == math.inf:
        return float(np.max(np.abs(values)))
    return float(np.sum(cloud.weights * np.abs(values) ** p) ** (1.0 / p))


@dataclass(frozen=True)
class NormReport:
    """One norm evaluation; fields not computed by an operation are None.

    ``per_scale`` holds (nu, ||local error at scale nu||_p) pairs without the
    t**-alpha weight; ``weighted_per_scale`` applies it.
    """

    lp: float
    sharp_lp: float | None
    calderon: float | None
    besov_seminorm: float | None
    besov: float | None
    params: dict
    per_scale: tuple[tuple[int, float], ...]
    nu_min: int
    nu_max: int
    diam: float

    def weighted_per_scale(self) -> tuple[tuple[int, float], ...]:
        alpha = self.params["alpha"]
        return tuple(
            (nu, raw * (self.diam * 2.0**-nu) ** -alpha)
            for nu, raw in self.per_scale
        )


def _column_lp(matrix: np.ndarray, weights: np.ndarray, p: float) -> np.ndarray:
    """Per-scale L^p norms of the error matrix, ignoring NaN cells."""
    ok = ~np.isnan(matrix)
    if p == math.inf:
        filled = np.where(ok, np.abs(matrix), -np.inf)
        out = filled.max(axis=0)
        return np.where(np.isfinite(out), out, np.nan)
    vals = np.where(ok, np.abs(matrix), 0.0) ** p
    out = (weights[:, None] * vals).sum(axis=0) ** (1.0 / p)
    out[~ok.any(axis=0)] = np.nan
    return out


def scale_profile(
    cloud: WeightedPointCloud,
    f,
    k: int,
    u: float,
    p: float,
    grid: ScaleGrid,
) -> np.ndarray:
    """Raw per-scale norms ||local error(., t_nu)||_p for degree space k, L^u."""
    matrix = approx_error_matrix(cloud, f, k, u, grid)
    return _column_lp(matrix, cloud.weights, p)


def calderon_norm(
    cloud: WeightedPointCloud,
    f,
    alpha: float,
    p: float,
    u: float = 1.0,
    variant: str = "sharp",
    grid: ScaleGrid | None = None,
) -> NormReport:
    """||f||_p plus the L^p norm of the fractional sharp maximal function."""
    if not p > 1.0:
        raise OutOfRange(f"p must exceed 1 for this norm, got {p}")
    grid = _scale_grid(cloud, grid)
    k = _variant_degree(alpha, variant)
    matrix = approx_error_matrix(cloud, f, k, u, grid)
    sharp_vals = _sharp_from_matrix(matrix, grid.scales, alpha)
    lp = lp_norm(cloud, f, p)
    sharp_lp = lp_norm(cloud, sharp_vals, p)
    return NormReport(
        lp=lp,
        sharp_lp=sharp_lp,
        calderon=lp + sharp_lp,
        besov_seminorm=None,
        besov=None,
        params={"alpha": alpha, "p": p, "q": None, "u": u, "variant": variant},
        per_scale=(),
        nu_min=int(grid.levels[0]),
        nu_max=int(grid.levels[-1]),
        diam=grid.diam,
    )


def besov_norm(
    cloud: WeightedPointCloud,
    f,
    alpha: float,
    p: float,
    q: float,
    u: float | None = None,
    grid: ScaleGrid | None = None,
) -> NormReport:
    """Dyadic-sum Besov norm with degree space k = floor(alpha) + 1.

    The inner error exponent u defaults to p. For p = inf a finite u must be
    given explicitly, since sup-norm polynomial fitting is out of scope.
    """
    if not alpha > 0.0:
        raise NonpositiveAlpha(f"alpha must be positive, got {alpha}")
    if not 1.0 <= p:
        raise OutOfRange(f"p must lie in [1, inf], got {p}")
    if not 1.0 <= q:
        raise OutOfRange(f"q must lie in [1, inf], got {q}")
    if u is None:
        if p == math.inf:
            raise OutOfRange(
                "p = inf needs an explicit finite inner exponent u"
            )
        u = p
    grid = _scale_grid(cloud, grid)
    k = degree_for_flat(alpha)
    raw = scale_profile(cloud, f, k, u, p, grid)
    weighted = raw * grid.scales**-alpha
    finite = weighted[~np.isnan(weighted)]
    if q == math.inf:
        seminorm = float(np.max(finite)) if finite.size else 0.0
    else:
        seminorm = float(np.sum(finite**q) ** (1.0 / q))
    lp = lp_norm(cloud, f, p)
    per_scale = tuple(
        (int(nu), float(r))
        for nu, r in zip(grid.levels, raw)
        if not math.isnan(r)
    )
    return NormReport(
        lp=lp,
        sharp_lp=None,
        calderon=None,
        besov_seminorm=seminorm,
        besov=lp + seminorm,
        params={"alpha": alpha, "p": p, "q": q, "u": u, "variant": None},
        per_scale=per_scale,
        nu_min=int(grid.levels[0]),
        nu_max=int(grid.levels[-1]),
        diam=grid.diam,
    )


@dataclass(frozen=True)
class NetBesovResult:
    """Net-based Besov seminorm and its per-level weighted terms."""

    seminorm: float
    levels: tuple[int, ...]
    per_level: tuple[float, ...]


def besov_net_norm(
    cloud: WeightedPointCloud,
    f,
    alpha: float,
    p: float,
    q: float,
    levels,
    offset=None,
) -> NetBesovResult:
    """Besov seminorm via piecewise-polynomial approximation on dyadic nets.

    At each level nu a net of mesh 2**-nu partitions the cloud; on every
    occupied cell f is fitted by a polynomial of degree <= floor(alpha) in
    L^p, and c_nu = (mesh)**-alpha * ||f - fit||_p. Independent of the
    scale-sum route, so it serves as that route's oracle.
    """
    if not alpha > 0.0:
        raise NonpositiveAlpha(f"alpha must be positive, got {alpha}")
    if not (1.0 <= p < math.inf):
        raise OutOfRange(f"p must lie in [1, inf) here, got {p}")
    if not 1.0 <= q:
        raise OutOfRange(f"q must lie in [1, inf], got {q}")
    levels = [int(v) for v in levels]
    if not levels:
        raise OutOfRange("need at least one net level")
    budget, _, batch = _fit_batches(cloud, cloud.values_of(f)[None], degree_for_flat(alpha))
    terms = []
    for nu in levels:
        net = dyadic_net(nu, cloud.bbox, offset=offset)
        raw = np.sum(_net_errors(cloud, net, budget, batch, p) ** p) ** (1.0 / p)
        terms.append(net.mesh**-alpha * float(raw))
    terms_arr = np.asarray(terms)
    if q == math.inf:
        seminorm = float(terms_arr.max())
    else:
        seminorm = float(np.sum(terms_arr**q) ** (1.0 / q))
    return NetBesovResult(
        seminorm=seminorm, levels=tuple(levels), per_level=tuple(terms)
    )


def _net_errors(cloud: WeightedPointCloud, net: Net, budget: int, batch, p: float):
    """L^p errors of the best fits on the occupied cells of ``net``, by label.

    One stable sort of the cell labels lists each cell's points; cells go
    to the kernel largest first, in batches of L cells of width W with
    L * W <= budget unless L = 1, as ``maximal._cubes`` bounds its cubes.
    A cell the kernel calls rank deficient is fitted over the same span in
    a full-rank basis, the right singular vectors of sqrt(w) V above the
    kernel's rank threshold; cells of one rank share one call.
    """
    cells = net.assign(cloud.points)
    order = np.argsort(cells, kind="stable")
    starts = np.flatnonzero(np.concatenate([[True], np.diff(cells[order]) != 0]))
    counts = np.diff(np.append(starts, cloud.size))
    by_size = np.argsort(-counts, kind="stable")
    starts, counts = starts[by_size], counts[by_size]
    labels = cells[order[starts]]
    order = np.append(order, cloud.size)  # order[-1] is N, the padding index
    out, done = np.empty(starts.size), 0
    while done < starts.size:
        end = min(starts.size, done + max(1, budget // int(counts[done])))
        col = np.arange(counts[done])
        idx = order[np.where(col < counts[done:end, None], starts[done:end, None] + col, -1)]
        corner = np.stack(np.unravel_index(labels[done:end], net.counts), axis=1)
        V, w, f, mass = batch(idx, net.anchor + (corner + 0.5) * net.mesh, 0.5 * net.mesh)
        err = _local_errors(V, w, f, p, mass)[0][0]
        bad = np.flatnonzero(np.isnan(err))
        if bad.size:
            _, sv, vt = np.linalg.svd(np.sqrt(w[bad])[..., None] * V[bad], full_matrices=False)
            rank = np.count_nonzero(sv > sv[:, :1] * RANK_RTOL_SV, axis=1)
            for r in set(rank.tolist()):
                group = bad[rank == r]
                span = V[group] @ np.swapaxes(vt[rank == r, :r], 1, 2)
                err[group] = _local_errors(span, w[group], f[:, group], p, mass[group])[0][0]
        out[by_size[done:end]] = err
        done = end
    return out
