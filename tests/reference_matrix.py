"""The per-cell error-matrix loop that preceded the chunked kernel.

Kept verbatim as the reference the kernel in ``frakspace.maximal`` is pinned
to: one stable distance argsort per point, one fit per (point, scale) cell
through ``fit_in_span`` (or the constant-fit shortcut for k = 1).
"""
import math

import numpy as np

from frakspace.errors import EmptyGrid, OutOfRange, RankDeficient, TooFewPoints
from frakspace.polyapprox import (
    CLAMP_REL,
    DEFAULT_DELTA_REL,
    DEFAULT_MAX_ITER,
    DEFAULT_RTOL,
    MIN_POINTS_FACTOR,
    basis_size,
    fit_in_span,
    multi_indices,
)


def approx_error_matrix(cloud, f, k, u, grid, min_points_factor=MIN_POINTS_FACTOR):
    if not (1.0 <= u < math.inf):
        raise OutOfRange(f"u must lie in [1, inf), got {u}")
    if len(grid) == 0:
        raise EmptyGrid("scale grid holds no scales")
    values = np.asarray(getattr(f, "values", f), dtype=float).ravel()
    if values.shape[0] != cloud.size:
        raise OutOfRange("function sample count does not match the cloud")
    n = cloud.ambient_dim
    d = basis_size(n, k)
    needed = max(1, min_points_factor * d)
    pts = cloud.points
    wts = cloud.weights
    scales = grid.scales
    inv_u = 1.0 / u
    out = np.full((cloud.size, len(grid)), np.nan)

    if d > 1:
        exps = np.asarray(multi_indices(n, k - 1), dtype=int).reshape(-1, n)
        degs = exps.sum(axis=1).astype(float)

    for i in range(cloud.size):
        dx = np.max(np.abs(pts - pts[i]), axis=1) if n > 1 else np.abs(
            pts[:, 0] - pts[i, 0]
        )
        order = np.argsort(dx, kind="stable")
        dxs = dx[order]
        fo = values[order]
        wo = wts[order]
        if d > 1:
            rel = pts[order] - pts[i]
            raw = np.ones((cloud.size, d))
            for col, e in enumerate(exps):
                for j in range(n):
                    p = int(e[j])
                    if p:
                        raw[:, col] *= rel[:, j] ** p
        for j, t in enumerate(scales):
            m = int(np.searchsorted(dxs, t, side="right"))
            if m < needed:
                continue
            w = wo[:m]
            fv = fo[:m]
            mass = float(w.sum())
            if d == 1:
                ek = _constant_fit_error(fv, w, mass, u)
            else:
                V = raw[:m] * t**-degs
                try:
                    _, ek, _, _ = fit_in_span(V, w, fv, u)
                except RankDeficient:
                    continue
            out[i, j] = ek / mass**inv_u
        if np.isnan(out[i]).all():
            raise TooFewPoints(
                f"point {i} admits no scale with {needed} points for k={k}"
            )
    return out


def _constant_fit_error(fv, w, mass, u):
    """Best-constant error in L^u; mirrors fit_in_span's degree-0 behavior."""
    scale = float(np.max(np.abs(fv)))
    if scale == 0.0:
        return 0.0
    c = float(np.dot(w, fv) / mass)
    r = fv - c
    if u == 2.0:
        value = float(np.sqrt(np.dot(w, r * r)))
    elif u == 1.0:
        # The weighted median minimizes sum w|f - c| exactly; no iteration.
        order = np.argsort(fv, kind="stable")
        cum = np.cumsum(w[order])
        c = float(fv[order][np.searchsorted(cum, 0.5 * mass)])
        value = float(np.dot(w, np.abs(fv - c)))
    else:
        delta2 = (DEFAULT_DELTA_REL * scale) ** 2
        obj = float(np.dot(w, np.abs(r) ** u) ** (1.0 / u))
        best = obj
        exponent = 0.5 * u - 1.0
        damping = 1.0 / (u - 1.0) if u > 2.0 else 1.0
        for _ in range(DEFAULT_MAX_ITER):
            omega = w * (r * r + delta2) ** exponent
            c += damping * (float(np.dot(omega, fv) / omega.sum()) - c)
            r = fv - c
            new_obj = float(np.dot(w, np.abs(r) ** u) ** (1.0 / u))
            if new_obj < best:
                best = new_obj
            if abs(new_obj - obj) <= DEFAULT_RTOL * max(obj, DEFAULT_DELTA_REL * scale):
                break
            obj = new_obj
        value = best
    if value <= CLAMP_REL * scale * mass ** (1.0 / u):
        value = 0.0
    return value
