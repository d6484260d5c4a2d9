"""Brute-force reference implementations used to cross-check the package.

Everything here is written from the operator definitions alone: plain
masks, closed-form or bisected constant fits, and exhaustive scans. No
code is shared with the package internals, so agreement is meaningful
evidence.
"""
import numpy as np


def best_constant_l1(values, weights):
    """Exact min of sum w|f - c|: scan every data value (one is optimal)."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return min(float(np.sum(weights * np.abs(values - c))) for c in values)


def best_constant_l2(values, weights):
    """Closed form: the weighted mean minimizes the squared error."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    c = float(np.sum(weights * values) / np.sum(weights))
    return float(np.sqrt(np.sum(weights * (values - c) ** 2)))


def best_constant_lu(values, weights, u):
    """Exact min over c of (sum w|f - c|**u)**(1/u), for any u >= 1.

    The derivative of sum w|f - c|**u is monotone in c, so 60 bisections on
    its sign shrink [min f, max f] (points of positive weight) below 1e-18
    of its width. Works on one cell (1-D input) or on stacked cells along
    the last axis, where a zero weight marks padding.
    """
    values = np.asarray(values, dtype=float)
    weights = np.broadcast_to(np.asarray(weights, dtype=float), values.shape)
    real = weights > 0.0
    lo = np.where(real, values, np.inf).min(axis=-1)
    hi = np.where(real, values, -np.inf).max(axis=-1)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        r = mid[..., None] - values
        slope = np.sum(weights * np.abs(r) ** (u - 1.0) * np.sign(r), axis=-1)
        lo = np.where(slope <= 0.0, mid, lo)
        hi = np.where(slope >= 0.0, mid, hi)
    c = 0.5 * (lo + hi)
    err = np.sum(weights * np.abs(values - c[..., None]) ** u, axis=-1) ** (1.0 / u)
    return err if err.ndim else float(err)


def chebyshev_distances(points, center):
    diff = np.abs(np.atleast_2d(points) - center)
    return diff.max(axis=1)


def sharp_maximal_constant_fit(cloud, values, alpha, u, scales, needed=2):
    """Exhaustive (point, scale) scan for the sharp function with k = 1.

    For each cloud point and each scale t, gathers the points of the cube
    Q(x, t), computes the exact best-constant error in L^u (any u >= 1),
    normalizes by the local mass, weights by t**-alpha, and takes the max
    over scales holding at least ``needed`` points.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty(cloud.size)
    for i in range(cloud.size):
        dist = chebyshev_distances(cloud.points, cloud.points[i])
        best = -np.inf
        for t in scales:
            sel = dist <= t
            if int(sel.sum()) < needed:
                continue
            w = cloud.weights[sel]
            fv = values[sel]
            if u == 1.0:
                err = best_constant_l1(fv, w)
            elif u == 2.0:
                err = best_constant_l2(fv, w)
            else:
                err = best_constant_lu(fv, w, u)
            mass = float(w.sum())
            best = max(best, err / mass ** (1.0 / u) * t**-alpha)
        out[i] = best
    return out


def constant_fit_matrix(cloud, values, u, scales, needed=2):
    """Exact k = 1 error matrices [F, N, S] of values [F, N], by cube masks.

    Cell (f, i, j) is the best-constant error of values[f] in L^u on the
    cube Q(x_i, t_j), divided by the cube's mass**(1/u); cubes with fewer
    than ``needed`` points are NaN. Centres whose cubes hold the same
    points share one ``best_constant_lu`` call.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    dist = np.max(np.abs(cloud.points[:, None, :] - cloud.points[None, :, :]), axis=2)
    out = np.full(values.shape + (len(scales),), np.nan)
    for j, t in enumerate(scales):
        cubes, which = np.unique(dist <= t, axis=0, return_inverse=True)
        counts = cubes.sum(axis=1)
        width = int(counts.max())
        idx = np.argsort(~cubes, axis=1, kind="stable")[:, :width]
        w = np.where(np.arange(width) < counts[:, None], cloud.weights[idx], 0.0)
        err = best_constant_lu(values[:, idx], w, u) / w.sum(axis=1) ** (1.0 / u)
        err[:, counts < needed] = np.nan
        out[:, :, j] = err[:, which.ravel()]
    return out


def hl_maximal(cloud, values, sigma, scales):
    """Exhaustive scan for the scale-restricted maximal average."""
    values = np.asarray(values, dtype=float)
    powered = np.abs(values) ** sigma
    out = np.empty(cloud.size)
    for i in range(cloud.size):
        dist = chebyshev_distances(cloud.points, cloud.points[i])
        best = -np.inf
        for t in scales:
            sel = dist <= t
            if not sel.any():
                continue
            w = cloud.weights[sel]
            best = max(best, float(np.sum(w * powered[sel]) / np.sum(w)))
        out[i] = best ** (1.0 / sigma)
    return out
