"""Calderon- and Besov-type norms assembled from local approximation errors.

Scales are dyadic fractions of the cloud diameter: level nu means
t = diam * 2**-nu, and the per-scale weight is t**-alpha. The Besov
seminorm sums weighted per-scale error norms over the admissible window;
an independent net-based construction serves as its cross-check. This
module owns the net route's cells: each point's cell is ``Net.assign``'s,
with its half-open faces, and ``rankspace`` gathers the cells in the padded
batches every other fit takes. It fits f on every occupied cell in L^p
through the kernel every other fit runs (``polyapprox._local_errors``), and
fits a cell whose points leave the monomials dependent over a full-rank
basis of the same span, so every p in [1, inf) gives a finite seminorm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .geometry import Net, dyadic_net
from .maximal import ScaleGrid, approx_error_matrix, degree_for_flat, sharp_maximal
from .measure import WeightedPointCloud
# The net route never calls fit_in_span; it stays importable here only
# because bench/layers.py wraps it by name at this module too.
from .polyapprox import RANK_RTOL_SV, _local_errors, _weighted_mean, _weighted_norm, fit_in_span  # noqa: F401
from .rankspace import _fit_batches, _padded_batches

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
    return _weighted_norm(cloud.values_of(f), cloud.weights, p)


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
    out = _weighted_mean(np.where(ok, np.abs(matrix), 0.0), weights[:, None], p, 1.0, axis=0)
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
    grid = ScaleGrid.or_default(cloud, grid)
    sharp_lp = lp_norm(cloud, sharp_maximal(cloud, f, alpha, u, variant, grid), p)
    lp = lp_norm(cloud, f, p)
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
    k = degree_for_flat(alpha)
    lp = lp_norm(cloud, f, p)  # and its check of p
    if not 1.0 <= q:
        raise OutOfRange(f"q must lie in [1, inf], got {q}")
    if u is None:
        if p == math.inf:
            raise OutOfRange(
                "p = inf needs an explicit finite inner exponent u"
            )
        u = p
    grid = ScaleGrid.or_default(cloud, grid)
    raw = scale_profile(cloud, f, k, u, p, grid)
    weighted = raw * grid.scales**-alpha
    seminorm = _weighted_norm(weighted[~np.isnan(weighted)], 1.0, q)
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
    """Net-based Besov seminorm and its per-level weighted terms.

    ``unconverged`` counts the cell fits, over all levels, that stopped at
    their step cap: their errors bound the best ones from above only.
    """

    seminorm: float
    levels: tuple[int, ...]
    per_level: tuple[float, ...]
    unconverged: int = 0


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
    k = degree_for_flat(alpha)
    if not (1.0 <= p < math.inf):
        raise OutOfRange(f"p must lie in [1, inf) here, got {p}")
    if not 1.0 <= q:
        raise OutOfRange(f"q must lie in [1, inf], got {q}")
    levels = [int(v) for v in levels]
    if not levels:
        raise OutOfRange("need at least one net level")
    nets, groups, weights = [], [], []
    for nu in levels:
        nets.append(dyadic_net(nu, cloud.bbox, offset=offset))
        groups.append(_occupied(nets[-1].assign(cloud.points)))
        try:
            weights.append(nets[-1].mesh**-alpha)
        except OverflowError:
            raise OutOfRange(f"mesh**-alpha overflows at level {nu} for alpha={alpha}") from None
    # Degree k - 1 interpolates any data on k distinct points, so when no
    # occupied cell holds more, every fit is exact and every term 0; the
    # basis, whose size grows with k, is then never listed.
    terms, unconverged = [0.0] * len(levels), 0
    if max(int(group[-1].max()) for group in groups) > k:
        budget, batch = _fit_batches(cloud, cloud.values_of(f)[None], k)
        for i, (net, group) in enumerate(zip(nets, groups)):
            errors, stopped = _net_errors(cloud, net, budget, batch, p, group)
            terms[i] = weights[i] * _weighted_norm(errors, 1.0, p)
            unconverged += stopped
    return NetBesovResult(
        seminorm=_weighted_norm(np.asarray(terms), 1.0, q),
        levels=tuple(levels),
        per_level=tuple(terms),
        unconverged=unconverged,
    )


def _occupied(cells: np.ndarray):
    """(cells, order, starts, counts) of the occupied cells of the labels
    ``cells``: one stable sort lists each cell's points in index order."""
    order = np.argsort(cells, kind="stable")
    starts = np.flatnonzero(np.concatenate([[True], np.diff(cells[order]) != 0]))
    return cells, order, starts, np.diff(np.append(starts, cells.size))


def _net_errors(cloud: WeightedPointCloud, net: Net, budget: int, batch, p: float, occupied=None):
    """L^p errors of the best fits on the occupied cells of ``net``
    (``occupied``, as ``_occupied`` lists them), by label, and the number of
    those fits that did not converge.

    Cells go to the kernel largest first, in the padded batches of
    ``rankspace._padded_batches``. A cell the kernel calls rank deficient is
    fitted over the same span in a full-rank basis, the right singular
    vectors of sqrt(w) V above the kernel's rank threshold; cells of one
    rank share one call.
    """
    cells, order, starts, counts = occupied or _occupied(net.assign(cloud.points))
    labels = cells[order[starts]]
    out, unconverged = np.empty(starts.size), 0
    for part, idx in _padded_batches(np.append(order, cloud.size), starts, counts, budget):
        corner = np.stack(np.unravel_index(labels[part], net.counts), axis=1)
        V, w, f, mass = batch(idx, net.anchor + (corner + 0.5) * net.mesh, 0.5 * net.mesh)
        err, _, _, converged = (x[0] for x in _local_errors(V, w, f, p, mass))
        bad = np.flatnonzero(np.isnan(err))
        if bad.size:
            _, sv, vt = np.linalg.svd(np.sqrt(w[bad])[..., None] * V[bad], full_matrices=False)
            rank = np.count_nonzero(sv > sv[:, :1] * RANK_RTOL_SV, axis=1)
            for r in set(rank.tolist()):
                group = bad[rank == r]
                span = V[group] @ np.swapaxes(vt[rank == r, :r], 1, 2)
                fit = _local_errors(span, w[group], f[:, group], p, mass[group])
                err[group], converged[group] = fit[0][0], fit[3][0]
        out[part] = err
        unconverged += int(np.count_nonzero(~converged))
    return out, unconverged
