"""The per-cell error-matrix loop that preceded the chunked kernel.

Kept verbatim as the reference the kernel in ``frakspace.maximal`` is pinned
to: one stable distance argsort per point, one fit per (point, scale) cell
through ``fit_in_span`` (or the constant-fit shortcut for k = 1).

``fit_in_span`` below is a verbatim copy of the package's per-cell fit from
before it became the one-cell call of the batched kernel (lstsq start, then
smoothed reweighting). The package's own ``fit_in_span`` now runs the code
this module checks, so the reference keeps its own copy to stay independent.
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
    RANK_RTOL_SV,
    _weighted_norm,
    basis_size,
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


def fit_in_span(
    V: np.ndarray,
    w: np.ndarray,
    f: np.ndarray,
    u: float,
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    rtol: float = DEFAULT_RTOL,
    delta_rel: float = DEFAULT_DELTA_REL,
) -> tuple[np.ndarray, float, int, bool]:
    """Minimize (sum_i w_i |f_i - (V c)_i|^u)^(1/u) over coefficients c.

    u = 2 is solved directly; other u by iteratively reweighted least
    squares warm-started from the u = 2 solution, with residual smoothing
    delta = delta_rel * max|f|. Returns (c, value, iterations, converged);
    the reported value is the true objective at the best iterate seen.
    """
    m, d = V.shape
    if d == 0:
        value = _weighted_norm(f, w, u)
        return np.zeros(0), value, 0, True
    scale = float(np.max(np.abs(f))) if m else 0.0
    mass = float(w.sum())
    if scale == 0.0:
        return np.zeros(d), 0.0, 0, True

    if d == 1 and np.all(V[:, 0] == 1.0):
        if u == 1.0:
            # Weighted median: the exact minimizer of sum w|f - c|.
            order = np.argsort(f, kind="stable")
            cum = np.cumsum(w[order])
            c = float(f[order][np.searchsorted(cum, 0.5 * mass)])
            value = float(np.sum(w * np.abs(f - c)))
            if value <= CLAMP_REL * scale * mass:
                value = 0.0
            return np.array([c]), value, 0, True
        coef = np.array([float(np.sum(w * f) / mass)])
        resid = f - coef[0]
    else:
        sw = np.sqrt(w)
        coef, _, rank, sv = np.linalg.lstsq(V * sw[:, None], sw * f, rcond=None)
        if rank < d or (sv.size and sv[-1] <= sv[0] * RANK_RTOL_SV):
            raise RankDeficient(
                f"local Gram matrix is rank deficient ({rank} of {d} columns usable)"
            )
        resid = f - V @ coef

    if u == 2.0:
        value = float(np.sqrt(np.sum(w * resid * resid)))
        iters, converged = 0, True
    else:
        delta2 = (delta_rel * scale) ** 2
        obj = float(np.sum(w * np.abs(resid) ** u) ** (1.0 / u))
        best_obj, best_coef = obj, coef
        iters, converged = 0, False
        exponent = 0.5 * u - 1.0
        # Plain reweighting oscillates for u > 2; relaxing the step by
        # 1/(u - 1) restores monotone convergence to the minimizer.
        damping = 1.0 / (u - 1.0) if u > 2.0 else 1.0
        for _ in range(max_iter):
            omega = w * (resid * resid + delta2) ** exponent
            G = V.T @ (V * omega[:, None])
            rhs = V.T @ (omega * f)
            try:
                step = np.linalg.solve(G, rhs)
            except np.linalg.LinAlgError:
                so = np.sqrt(omega)
                step = np.linalg.lstsq(V * so[:, None], so * f, rcond=None)[0]
            coef = coef + damping * (step - coef)
            iters += 1
            resid = f - V @ coef
            new_obj = float(np.sum(w * np.abs(resid) ** u) ** (1.0 / u))
            if new_obj < best_obj:
                best_obj, best_coef = new_obj, coef
            if abs(new_obj - obj) <= rtol * max(obj, delta_rel * scale):
                converged = True
                break
            obj = new_obj
        value, coef = best_obj, best_coef

    if value <= CLAMP_REL * scale * mass ** (1.0 / u):
        value = 0.0
    return np.asarray(coef, dtype=float), value, iters, converged
