"""The per-cell net-Besov loop that preceded the batched net route.

Kept verbatim as the reference ``frakspace.norms.besov_net_norm`` is pinned
to: one ``cells == cell`` scan per occupied cell, and one fit per cell
through ``_net_cell_residual``, which takes weighted least squares
(``lstsq``) for p = 2 and on cells of at most basis_size points, and
``fit_in_span`` in L^p otherwise. At p = 2 the two routes fit the same
problem; at other p this one reports a least-squares residual on small
cells, so its terms bound the package's from above.
"""
import math

import numpy as np

from frakspace.errors import NonpositiveAlpha, OutOfRange, RankDeficient
from frakspace.geometry import dyadic_net
from frakspace.maximal import degree_for_flat
from frakspace.norms import NetBesovResult
from frakspace.polyapprox import RANK_RTOL_SV, basis_size, fit_in_span, monomial_matrix


def besov_net_norm(cloud, f, alpha, p, q, levels, offset=None):
    if not alpha > 0.0:
        raise NonpositiveAlpha(f"alpha must be positive, got {alpha}")
    if not (1.0 <= p < math.inf):
        raise OutOfRange(f"p must lie in [1, inf) here, got {p}")
    if not 1.0 <= q:
        raise OutOfRange(f"q must lie in [1, inf], got {q}")
    levels = [int(v) for v in levels]
    if not levels:
        raise OutOfRange("need at least one net level")
    values = cloud.values_of(f)
    k = degree_for_flat(alpha)
    bbox = cloud.bbox
    terms = []
    for nu in levels:
        net = dyadic_net(nu, bbox, offset=offset)
        cells = net.assign(cloud.points)
        total = 0.0
        for cell in np.unique(cells):
            sel = np.flatnonzero(cells == cell)
            w = cloud.weights[sel]
            fv = values[sel]
            cube = net.cube(cell)
            resid = _net_cell_residual(cloud.points[sel], w, fv, cube, k, p)
            total += float(np.sum(w * np.abs(resid) ** p))
        raw = total ** (1.0 / p)
        terms.append(net.mesh**-alpha * raw)
    terms_arr = np.asarray(terms)
    if q == math.inf:
        seminorm = float(terms_arr.max())
    else:
        seminorm = float(np.sum(terms_arr**q) ** (1.0 / q))
    return NetBesovResult(
        seminorm=seminorm, levels=tuple(levels), per_level=tuple(terms)
    )


def _net_cell_residual(pts, w, fv, cube, k, p):
    """Residual of the best degree <= k-1 polynomial fit on one net cell.

    For p = 2, and on cells of at most basis_size points, the fit is
    weighted least squares; underdetermined fits interpolate whenever the
    points allow it. Otherwise it is ``fit_in_span`` in L^p. A cell whose
    monomials are dependent on its points (all on one line, say) is fitted
    over the same span in a full-rank basis: the right singular vectors of
    sqrt(w) V above the kernel's rank threshold.
    """
    d = basis_size(pts.shape[1], k)
    if d == 0:
        return fv
    if pts.shape[0] == 1:
        return fv - fv[0]
    V, _ = monomial_matrix(pts, cube, k)
    sw = np.sqrt(w)
    if p == 2.0 or pts.shape[0] <= d:
        coef = np.linalg.lstsq(V * sw[:, None], sw * fv, rcond=None)[0]
        return fv - V @ coef
    try:
        coef = fit_in_span(V, w, fv, p)[0]
    except RankDeficient:
        _, sv, vt = np.linalg.svd(V * sw[:, None], full_matrices=False)
        V = V @ vt[sv > sv[0] * RANK_RTOL_SV].T
        coef = fit_in_span(V, w, fv, p)[0]
    return fv - V @ coef
