"""Reference computations for the benchmark's output checks.

Everything here is written from the definitions in the package's
documentation, with numpy alone: Chebyshev-distance masks, weighted least
squares, weighted-median scans, golden-section search, vertex enumeration of
L1 fits and duality certificates. Nothing is imported from ``frakspace``, so
agreement between the two is evidence, not an echo.

Conventions the checks rely on (all documented by the package):

* a cube Q(x, t) is the closed Chebyshev ball max_j |y_j - x_j| <= t;
* a degree space k holds polynomials of total degree <= k - 1, fitted in
  the chart z = (y - center) / half_side;
* a cell of an error matrix is the best L^u error divided by mass^(1/u),
  and is NaN when the cube holds fewer than 2 * dim(space) points or the
  fit is rank deficient;
* errors below 1e-11 * max|f| * mass^(1/u) are reported as exactly 0.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

# Agreement demanded of closed-form cells (u = 2, or k = 1 with u = 1).
ORACLE_REL = 1e-6
# Slack on the two sides of a bracket [exact minimum, least-squares objective].
BRACKET_REL = 1e-9
# The package reports a fit error as 0 below this share of max|f| mass^(1/u).
CLAMP_FLOOR = 1e-11
# The package calls a fit rank deficient when the smallest singular value of
# sqrt(w) V is at most this share of the largest. Cells within a factor 2 of
# the threshold are ambiguous and are not checked.
RANK_SV = 1e-6
# Exact L1 fits by vertex enumeration are affordable up to this many points.
VERTEX_MAX_POINTS = 40


def exponents(n: int, k: int) -> np.ndarray:
    """All multi-indices in n variables of total degree <= k - 1."""
    rows = [e for e in itertools.product(range(max(k, 0)), repeat=n) if sum(e) <= k - 1]
    return np.asarray(rows, dtype=int).reshape(-1, n)


def space_dim(n: int, k: int) -> int:
    return math.comb(n + k - 1, n) if k >= 1 else 0


def design(z: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """Monomial values: column j is prod_l z_l ** exps[j, l]."""
    return np.prod(z[:, None, :] ** exps[None, :, :], axis=2)


def cube_mask(points: np.ndarray, center: np.ndarray, half: float) -> np.ndarray:
    return np.max(np.abs(points - center), axis=1) <= half


def lu_norm(r: np.ndarray, w: np.ndarray, u: float) -> float:
    return float(np.sum(w * np.abs(r) ** u) ** (1.0 / u))


def evaluate_poly(points, exps, coefficients, origin, scale) -> np.ndarray:
    """Value of sum_j c_j prod_l ((y_l - origin_l) / scale) ** e_jl."""
    if len(coefficients) == 0:
        return np.zeros(points.shape[0])
    z = (points - origin) / scale
    return design(z, np.asarray(exps, dtype=int)) @ np.asarray(coefficients)


def weighted_median_error(f: np.ndarray, w: np.ndarray) -> float:
    """min_c sum w|f - c|, scanning every data value with prefix sums."""
    order = np.argsort(f)
    fs, ws = f[order], w[order]
    cw = np.cumsum(ws)
    cf = np.cumsum(ws * fs)
    total_w, total_f = cw[-1], cf[-1]
    # sum_{i<=j} w (c - f) + sum_{i>j} w (f - c) at c = fs[j]
    obj = fs * cw - cf + (total_f - cf) - fs * (total_w - cw)
    return float(max(obj.min(), 0.0))


def least_squares(V: np.ndarray, w: np.ndarray, f: np.ndarray):
    """Weighted least-squares coefficients and the singular-value ratio."""
    sw = np.sqrt(w)
    A = V * sw[:, None]
    sv = np.linalg.svd(A, compute_uv=False)
    coef = np.linalg.lstsq(A, sw * f, rcond=None)[0]
    ratio = float(sv[-1] / sv[0]) if sv[0] > 0.0 else 0.0
    return coef, ratio


def golden_constant_error(f: np.ndarray, w: np.ndarray, u: float) -> float:
    """min_c (sum w|f - c|^u)^(1/u) by golden-section search on [min f, max f]."""
    lo, hi = float(f.min()), float(f.max())
    if hi == lo:
        return 0.0
    g = (math.sqrt(5.0) - 1.0) / 2.0

    def phi(c):
        return float(np.sum(w * np.abs(f - c) ** u))

    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = phi(c), phi(d)
    for _ in range(120):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = phi(d)
        if b - a <= 1e-15 * (hi - lo):
            break
    return min(fc, fd, phi(0.5 * (a + b))) ** (1.0 / u)


def vertex_l1_error(V: np.ndarray, w: np.ndarray, f: np.ndarray) -> float:
    """Exact min_c sum w|f - Vc| over fits that interpolate d of the points.

    A linear program attains its optimum at a vertex, and the vertices of
    this one interpolate d linearly independent data points.
    """
    m, d = V.shape
    subsets = np.asarray(list(itertools.combinations(range(m), d)), dtype=int)
    A = V[subsets]
    b = f[subsets]
    det = np.linalg.det(A)
    scale = np.prod(np.linalg.norm(A, axis=2), axis=1)
    ok = np.abs(det) > 1e-10 * scale
    coef = np.linalg.solve(A[ok], b[ok][..., None])[..., 0]
    resid = f[None, :] - coef @ V.T
    return float((np.abs(resid) * w[None, :]).sum(axis=1).min())


def _irls(V, w, f, u, coef, iterations=15):
    """A residual close to optimal, used only to build a certificate."""
    r = f - V @ coef
    best, best_obj = r, lu_norm(r, w, u)
    delta = 1e-9 * float(np.max(np.abs(f)))
    for _ in range(iterations):
        omega = w * (r * r + delta * delta) ** (0.5 * u - 1.0)
        G = V.T @ (V * omega[:, None])
        try:
            step = np.linalg.solve(G, V.T @ (omega * f))
        except np.linalg.LinAlgError:
            break
        coef = coef + (step - coef) / max(u - 1.0, 1.0)
        r = f - V @ coef
        obj = lu_norm(r, w, u)
        if not math.isfinite(obj):
            break
        if obj < best_obj:
            best, best_obj = r, obj
    return best


def dual_lower_bound(V, w, f, coef, u) -> float:
    """A certified lower bound on min_c (sum w|f - Vc|^u)^(1/u).

    For any lam with V^T lam = 0, lam.f = lam.(f - Vc) for every c, and
    Holder's inequality gives lam.f <= ||lam w^(-1/u)||_u' E. lam is taken
    from a near-optimal residual and projected onto the null space of V^T;
    the bound holds whatever residual is used.
    """
    r = _irls(V, w, f, u, coef)
    lam = w * np.sign(r) * np.abs(r) ** (u - 1.0)
    Q, _ = np.linalg.qr(V)
    lam = lam - Q @ (Q.T @ lam)
    if u == 1.0:
        dual = float(np.max(np.abs(lam) / w))
    else:
        conj = u / (u - 1.0)
        dual = float(np.sum(np.abs(lam * w ** (-1.0 / u)) ** conj) ** (1.0 / conj))
    if dual == 0.0:
        return 0.0
    # lam is orthogonal to range(V) only up to roundoff; charge the leak.
    leak = float(np.abs(V.T @ lam).sum() * np.abs(coef).max(initial=0.0))
    return max((float(lam @ f) - leak) / dual, 0.0)


class Cell:
    """Bracket [lo, hi] on one normalized best-approximation error.

    ``status`` is "exact" (lo == hi, closed form), "bracket", "skip" (the
    package must report NaN / refuse the fit) or "ambiguous" (too close to
    the rank threshold to predict, so not checked).
    """

    def __init__(self, status, lo=math.nan, hi=math.nan, floor=0.0):
        self.status, self.lo, self.hi, self.floor = status, lo, hi, floor

    def admits(self, value: float) -> bool:
        if self.status == "ambiguous":
            return True
        if self.status == "skip":
            return math.isnan(value)
        if math.isnan(value):
            return False
        rel = ORACLE_REL if self.status == "exact" else BRACKET_REL
        return (
            self.lo * (1.0 - rel) - self.floor
            <= value
            <= self.hi * (1.0 + rel) + self.floor
        )


def cell(points, weights, values, center, half, k, u, lower=True) -> Cell:
    """Oracle for the normalized L^u error of f on Q(center, half), space k.

    With ``lower`` false a bracket keeps 0 as its lower end, which skips the
    costly exact minimum.
    """
    mask = cube_mask(points, center, half)
    m = int(mask.sum())
    n = points.shape[1]
    d = space_dim(n, k)
    if m < max(1, 2 * d):
        return Cell("skip")
    w = weights[mask]
    f = values[mask]
    mass = float(w.sum())
    norm = mass ** (1.0 / u)
    scale = float(np.max(np.abs(f)))
    floor = 2.0 * CLAMP_FLOOR * scale
    if d == 0:
        e = lu_norm(f, w, u) / norm
        return Cell("exact", e, e, floor)
    if scale == 0.0:
        return Cell("exact", 0.0, 0.0, 0.0)
    if k == 1 and u == 1.0:
        e = weighted_median_error(f, w) / norm
        return Cell("exact", e, e, floor)
    V = design((points[mask] - center) / half, exponents(n, k))
    coef, ratio = least_squares(V, w, f)
    if k > 1:
        if ratio <= 0.5 * RANK_SV:
            return Cell("skip")
        if ratio <= 2.0 * RANK_SV:
            return Cell("ambiguous")
    ls = lu_norm(f - V @ coef, w, u) / norm
    if u == 2.0:
        return Cell("exact", ls, ls, floor)
    if not lower:
        lo = 0.0
    elif k == 1:
        lo = golden_constant_error(f, w, u) / norm
    elif u == 1.0 and k == 2 and m <= VERTEX_MAX_POINTS:
        lo = vertex_l1_error(V, w, f) / norm
    else:
        lo = dual_lower_bound(V, w, f, coef, u) / norm
    return Cell("bracket", lo, ls, floor)


def matrix_row(points, weights, values, i, scales, k, u, lower=True) -> list[Cell]:
    """Oracle cells of row i of an error matrix (cubes centred at point i)."""
    return [cell(points, weights, values, points[i], float(t), k, u, lower) for t in scales]


def hl_value(points, weights, values, i, scales, sigma) -> float:
    """max over scales of the cube average of |g|^sigma, to the power 1/sigma."""
    dist = np.max(np.abs(points - points[i]), axis=1)
    powered = np.abs(values) ** sigma
    best = -math.inf
    for t in scales:
        sel = dist <= t
        if sel.any():
            best = max(best, float(np.sum(weights[sel] * powered[sel]) / np.sum(weights[sel])))
    return best ** (1.0 / sigma)


def net_besov_seminorm(points, weights, values, alpha, p, q, levels) -> float:
    """Besov seminorm over dyadic nets, for p = 2, from the documented rules.

    The net of level nu has mesh 2**-nu and is anchored at the lower corner
    of the cloud's bounding box; a point on a shared face belongs to the
    lower cell. On every occupied cell f is fitted by degree <= floor(alpha)
    polynomials in weighted least squares in the cell's chart, and the term
    of the level is mesh**-alpha times the L^p norm of the residual.
    """
    if p != 2.0:
        raise ValueError("the net oracle covers p = 2 only")
    n = points.shape[1]
    k = int(math.floor(alpha)) + 1
    exps = exponents(n, k)
    lo, hi = points.min(axis=0), points.max(axis=0)
    terms = []
    for nu in levels:
        mesh = 2.0**-nu
        counts = np.maximum(np.ceil((hi - lo) / mesh - 1e-12).astype(int), 1)
        pos = (points - lo) / mesh
        idx = np.floor(pos).astype(int)
        idx[(pos == idx) & (idx > 0)] -= 1
        idx = np.minimum(np.maximum(idx, 0), counts - 1)
        keys = np.ravel_multi_index(idx.T, counts)
        total = 0.0
        for key in np.unique(keys):
            sel = keys == key
            w, f = weights[sel], values[sel]
            if sel.sum() == 1:
                continue
            center = lo + (np.asarray(np.unravel_index(key, counts)) + 0.5) * mesh
            V = design((points[sel] - center) / (0.5 * mesh), exps)
            sw = np.sqrt(w)
            coef = np.linalg.lstsq(V * sw[:, None], sw * f, rcond=None)[0]
            total += float(np.sum(w * (f - V @ coef) ** 2))
        terms.append(mesh**-alpha * math.sqrt(total))
    return float(np.sum(np.asarray(terms) ** q) ** (1.0 / q))


def close(a: float, b: float, rel: float = ORACLE_REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))
