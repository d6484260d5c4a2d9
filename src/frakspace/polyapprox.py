"""Best polynomial approximation on cube-localized pieces of a cloud.

All fits work in the cube's own chart z = (x - center)/half_side, which maps
the cube onto [-1, 1]^n and keeps Vandermonde matrices well scaled. Degrees
are indexed by the space parameter k: fits range over polynomials of total
degree <= k - 1, with k = 0 denoting the zero space.

One batched kernel, ``_local_errors``, fits all (function, cell) pairs of a
batch at once: ``maximal.error_matrices`` calls it on many cubes,
``fit_in_span`` (and so ``best_approx``) on one. Constants (k = 1) are
fitted exactly for every u: the weighted median (u = 1), the mean (u = 2), a
cubic root (u = 4) or bracketed Newton (other u). Higher degrees take
weighted least squares, final for u = 2, the start of an exact vertex
exchange for u = 1 (Barrodale & Roberts), and otherwise the start of
reweighted least squares, stopped by a Lagrange dual bound. A converged fit
is exact or certified; an unconverged one reports the error of its last
iterate, an upper bound on the minimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import EmptyCube, OutOfRange, RankDeficient, TooFewPoints
from .geometry import Cube, restrict
from .measure import WeightedPointCloud

__all__ = [
    "multi_indices",
    "basis_size",
    "Polynomial",
    "Projector",
    "ApproxResult",
    "make_projector",
    "apply_projector",
    "best_approx",
    "reverse_holder_ratio",
    "fit_in_span",
    "monomial_matrix",
    "uniform_bound",
    "sup_bound_ratio",
]

# Singular values of sqrt(w)V below this relative threshold flag a rank
# deficient Gram matrix (its square on the Gram spectrum itself).
RANK_RTOL_SV = 1e-6
# Normalized fit errors below CLAMP_REL times the local data scale are
# floating-point noise from an exact fit and are reported as 0.
CLAMP_REL = 1e-11

# Exact L1 fits: a pivot cap, the excess of a multiplier over its weight the
# certificate forgives, and the rounding of a residual taken for zero.
EXCHANGE_MAX_PIVOTS = 100
EXCHANGE_RTOL = 1e-10
EXCHANGE_ZERO_REL = 1e-14
# Reweighted fits (k >= 2, u not in {1, 2}): a step cap, and the duality gap,
# relative to the error, that certifies a minimum.
DEFAULT_MAX_ITER = 50
DEFAULT_RTOL = 1e-8
# Newton's tolerance on best constants in L^u, relative to the spread of the
# cell's values, and a cap on its steps that bisection keeps out of reach.
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 200
# A fit needs this many points per basis column (and always one point).
MIN_POINTS_FACTOR = 2


def point_quota(d: int) -> int:
    """Fewest points a cube must hold to be fitted from d basis columns."""
    return max(1, MIN_POINTS_FACTOR * d)


def multi_indices(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples with total degree <= max_degree, graded lexicographic:
    each degree's tuples once each, decreasing, as their multisets come."""
    if n < 1:
        raise OutOfRange(f"ambient dimension must be >= 1, got {n}")
    out: list[tuple[int, ...]] = []
    for deg in range(max(max_degree, -1) + 1):
        for combo in combinations_with_replacement(range(n), deg):
            e = [0] * n
            for j in combo:
                e[j] += 1
            out.append(tuple(e))
    return out


def basis_size(n: int, k: int) -> int:
    """Dimension of polynomials of total degree <= k - 1 in n variables."""
    if n < 1:
        raise OutOfRange(f"ambient dimension must be >= 1, got {n}")
    if k < 0:
        raise OutOfRange(f"space parameter k must be >= 0, got {k}")
    return math.comb(n + k - 1, n)


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in chart coordinates z = (x - origin) / scale.

    ``exponents`` holds one multi-index per row; total degree never exceeds
    ``max_degree``. An empty exponent set is the zero polynomial.
    """

    ambient_dim: int
    max_degree: int
    exponents: np.ndarray
    coefficients: np.ndarray
    origin: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        exps = np.asarray(self.exponents, dtype=int).reshape(-1, self.ambient_dim)
        coef = np.asarray(self.coefficients, dtype=float).ravel()
        if exps.shape[0] != coef.shape[0]:
            raise OutOfRange("exponents and coefficients disagree in length")
        if exps.size and int(exps.sum(axis=1).max()) > self.max_degree:
            raise OutOfRange("an exponent exceeds max_degree")
        origin = np.asarray(self.origin, dtype=float).ravel()
        if origin.shape[0] != self.ambient_dim:
            raise OutOfRange("origin dimension mismatch")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise OutOfRange(f"chart scale must be positive, got {self.scale}")
        for arr in (exps, coef, origin):
            arr.setflags(write=False)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "origin", origin)

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, -1, np.zeros((0, n), dtype=int), np.zeros(0), np.zeros(n))

    @classmethod
    def constant(cls, n: int, value: float) -> "Polynomial":
        return cls(n, 0, np.zeros((1, n), dtype=int), np.array([float(value)]), np.zeros(n))

    @classmethod
    def from_coeff_map(cls, n, mapping, origin=None, scale=1.0) -> "Polynomial":
        items = sorted(mapping.items())
        exps = np.array([e for e, _ in items], dtype=int).reshape(-1, n)
        coef = np.array([c for _, c in items], dtype=float)
        deg = int(exps.sum(axis=1).max()) if len(items) else -1
        if origin is None:
            origin = np.zeros(n)
        return cls(n, deg, exps, coef, origin, scale)

    def coeff_map(self) -> dict[tuple[int, ...], float]:
        return {
            tuple(int(v) for v in e): float(c)
            for e, c in zip(self.exponents, self.coefficients)
        }

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.ambient_dim:
            raise OutOfRange("point dimension mismatch")
        if self.exponents.shape[0] == 0:
            return np.zeros(pts.shape[0])
        z = (pts - self.origin) / self.scale
        V = _vandermonde(z, self.exponents)
        return V @ self.coefficients

    __call__ = evaluate


def _vandermonde(z: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    V = np.ones((z.shape[0], exponents.shape[0]))
    for col, e in enumerate(exponents.tolist()):
        for j, p in enumerate(e):
            if p:
                V[:, col] *= z[:, j] ** p
    return V


def monomial_matrix(points: np.ndarray, cube: Cube, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Chart-local monomial values at ``points`` for degree <= k - 1.

    Returns (V, exponents); V has one column per multi-index.
    """
    exps = np.asarray(multi_indices(cube.ambient_dim, k - 1), dtype=int).reshape(
        -1, cube.ambient_dim
    )
    z = (np.atleast_2d(points) - cube.center) / cube.half_side
    return _vandermonde(z, exps), exps


def _weighted_mean(values: np.ndarray, weights, e: float, mass, axis: int = -1) -> np.ndarray:
    """(sum w v**e / mass)**(1/e) of ``values`` >= 0 along ``axis``, their
    largest for e = inf: the L^e average, or with mass 1 the L^e norm."""
    if e == math.inf:
        return values.max(axis=axis)
    return (np.sum(weights * values**e, axis=axis) / mass) ** (1.0 / e)


def _weighted_norm(values: np.ndarray, weights, u: float) -> float:
    """(sum w |v|**u)**(1/u), max |v| for u = inf (0 over no values)."""
    if u == math.inf and not values.size:
        return 0.0
    return float(_weighted_mean(np.abs(values), weights, u, 1.0))


def fit_in_span(
    V: np.ndarray, w: np.ndarray, f: np.ndarray, u: float
) -> tuple[np.ndarray, float, int, bool]:
    """Minimize (sum_i w_i |f_i - (V c)_i|^u)^(1/u) over coefficients c.

    The one-cell call of the batched kernel ``_local_errors``; a single
    column of ones is fitted as a constant, exactly for every u. Returns
    (c, value, iterations, converged), value being the objective at c.
    """
    d = V.shape[1]
    if d == 0:
        return np.zeros(0), _weighted_norm(f, w, u), 0, True
    if not f.any():
        return np.zeros(d), 0.0, 0, True
    design = None if d == 1 and (V[:, 0] == 1.0).all() else V[None]
    fit = _local_errors(design, w[None], f[None, None], u, w.sum(keepdims=True))
    value, coef, iters, converged = (x[0, 0] for x in fit)
    if np.isnan(value):
        raise RankDeficient(f"local Gram matrix of {d} columns is rank deficient")
    return coef, float(value), int(iters), bool(converged)


def _local_errors(V, w, f, u, mass):
    """Best approximations of functions f[F, L, W] on cells [L] of width W.

    V is the [L, W, d] design, or None for constants (k = 1); w[L, W] holds
    the weights, with 0 marking padding, and mass[L] their sums. Constants
    are fitted exactly for every u (``_constant_errors``). Higher degrees
    take weighted least squares, final for u = 2; otherwise pairs it fits to
    the clamp floor are settled, and the rest start ``_l1_vertices`` (u = 1)
    or ``_irls``. Returns (errors [F, L], coefficients [F, L, d], iterations
    [F, L], converged [F, L]), each error the objective at its coefficients
    and converged meaning exact or certified by a dual bound.
    Residuals are formed as V @ c, as ``Polynomial.evaluate`` forms them, so
    that the minimizer's residual reproduces its error even where the error
    is at the level of rounding. A rank-deficient cell's error is NaN, or 0
    for a function zero there.
    """
    scale = np.abs(f).max(axis=2)
    floor = CLAMP_REL * scale * mass ** (1.0 / u)  # errors up to it are exact fits: 0
    if V is None:
        value, coef, iters, converged = _constant_errors(w, f, u, mass, scale)
        return np.where(value <= floor, 0.0, value), coef[..., None], iters, converged
    # The Gram matrix from [L, d, W] rows: weighting and products along W run
    # on contiguous memory, where [L, W, d] makes them stride over short rows.
    VT = np.ascontiguousarray(np.swapaxes(V, 1, 2))
    Vw = VT * w[:, None]
    lam, basis = np.linalg.eigh(Vw @ np.swapaxes(VT, 1, 2))
    deficient = lam[:, 0] <= lam[:, -1] * (100.0 * RANK_RTOL_SV**2)
    if np.count_nonzero(deficient):
        # Near the threshold the Gram spectrum is too coarse; decide on the
        # singular values of sqrt(w) V instead. A cell of fewer rows than
        # columns has fewer singular values than columns: it is deficient.
        doubt = np.flatnonzero(deficient)
        sv = np.linalg.svd(np.sqrt(w[doubt])[..., None] * V[doubt], compute_uv=False)
        deficient[doubt] = (sv.shape[1] < V.shape[2]) | (sv[:, -1] <= sv[:, 0] * RANK_RTOL_SV)
        lam[deficient] = 1.0
    # f[:, :, None] holds each cell's values as a row: [F, L, 1, W].
    rhs = f[:, :, None] @ np.swapaxes(Vw, 1, 2)
    coef = ((rhs @ basis / lam[:, None]) @ np.swapaxes(basis, 1, 2))[:, :, 0]
    resid = f - (V @ coef[..., None])[..., 0]
    if u == 2.0:
        value = np.sqrt(np.einsum("flw,flw,lw->fl", resid, resid, w))
        iters, converged = _closed_form(value)
    else:
        size, unit = np.abs(resid), 1.0
        if u != 1.0:  # in units of the largest residual, where no power overflows
            unit = size.max(axis=2)
            rel = size / np.where(unit > 0.0, unit, 1.0)[..., None]
            size = rel**u
        value = unit * np.einsum("lw,flw->fl", w, size) ** (1.0 / u)
        # Pairs that least squares already fits to the clamp floor are settled.
        act = np.flatnonzero(~deficient & (value > floor))
        # The fitters take the rows of the pairs ``act`` (function p // L on
        # cell p % L) and write what they fit into these, flat over pairs.
        out = value.ravel(), coef.reshape(value.size, -1), *_closed_form(value.ravel())
        cells, width = act % V.shape[0], f.shape[2]
        pairs = V[cells], w[cells], f.reshape(-1, width)[act], resid.reshape(-1, width)[act]
        if u == 1.0:
            _l1_vertices(*pairs, act, *out)
        else:
            _irls(*pairs, rel.reshape(-1, width)[act], u, act, *out)
        value, coef, iters, converged = (x.reshape(f.shape[:2] + x.shape[1:]) for x in out)
    value = np.where(value <= floor, 0.0, value)
    if np.count_nonzero(deficient):
        value[:, deficient] = np.where(scale[:, deficient] > 0.0, np.nan, 0.0)
    return value, coef, iters, converged


def _closed_form(value):
    """Iteration counts (0) and converged flags (True) of closed-form fits."""
    return np.zeros(value.shape, dtype=int), np.ones(value.shape, dtype=bool)


def _constant_errors(w, f, u, mass, scale):
    """Exact best constants c and errors (sum_w |f - c|**u)**(1/u), shape [F, L].

    u = 1 takes the weighted median and u = 2 the weighted mean. Otherwise
    the minimizer is found about the mean: the one real root of a cubic for
    u = 4, safeguarded Newton for other u. The error is always summed over
    the cell at the constant found, never recovered from moments. Returns
    (errors, constants, iterations, converged).
    """
    nfun, ncell, width = f.shape
    if u == 1.0:
        # Ties reorder freely: the median value, hence the error, is the same.
        order = np.argsort(f, axis=2)
        cum = np.cumsum(w.ravel()[order + (np.arange(ncell) * width)[:, None]], axis=2)
        pos = (cum < 0.5 * mass[:, None]).sum(axis=2)
        row = np.arange(nfun * ncell).reshape(nfun, ncell) * width
        c = f.ravel()[order.ravel()[row + pos] + row]
        value = np.einsum("flw,lw->fl", np.abs(f - c[..., None]), w)
        return value, c, *_closed_form(c)
    mean = np.einsum("flw,lw->fl", f, w) / mass
    d = f - mean[..., None]
    if u == 2.0:
        value = np.sqrt(np.einsum("flw,flw,lw->fl", d, d, w))
        return value, mean, *_closed_form(mean)
    if u == 4.0:
        # In units of max|f|, where (d / max|f|)**4 underflows only for
        # errors far below the clamp floor.
        unit = np.where(scale > 0.0, scale, 1.0)
        d /= unit[..., None]
        c = _quartic_root(d, w, mass)
        d -= c[..., None]
        d *= d
        value = unit * np.einsum("flw,flw,lw->fl", d, d, w) ** 0.25
        return value, mean + unit * c, *_closed_form(c)
    value, c, iters, converged = _newton_errors(d, w, u)
    return value, mean + c, iters, converged


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
    """Best constants c and errors (sum_w |d - c|**u)**(1/u) for u not in {1, 2, 4}.

    Newton on phi'(c) = sum_w |c - d|**(u-1) sgn(c - d) from c = 0 (the
    mean), inside a sign bracket of the root that starts at [min d, max d];
    a step that leaves the bracket, or is over half the step before it,
    becomes bisection. With tol = NEWTON_TOL times the cell's spread, a
    pair stops when its bracket is at most 2 tol wide or, for u > 2, where
    phi'' is finite, when its Newton step is at most tol. For u < 2, where
    phi'' is infinite at every data point, a short step shows nothing: it
    is lengthened to tol to cross the root and close the bracket. The error
    is summed at the c returned, the last one evaluated; a pair still
    running after NEWTON_MAX_ITER steps is not converged and reports its
    current c. Pairs leave the arrays as they stop; one whose values are
    all equal stops before the first step, with c that value and error 0.
    Powers act on d / max|d|, so none under- or overflows. Returns (errors,
    constants, steps, converged), each of shape [F, L].
    """
    nfun, ncell, width = d.shape
    da, wa = d.reshape(-1, width), np.tile(w, (nfun, 1))
    act = np.arange(da.shape[0])
    out, cout = np.zeros(act.size), np.zeros(act.size)
    steps = np.full(act.size, NEWTON_MAX_ITER)
    real = wa > 0.0  # the zero-weight sentinel pads a cell, it is not in it
    lo = np.where(real, da, np.inf).min(axis=1)
    hi = np.where(real, da, -np.inf).max(axis=1)
    unit = np.where(hi > lo, np.maximum(hi, -lo), 1.0)
    da, lo, hi = da / unit[:, None], lo / unit, hi / unit
    half = 0.5 * (hi - lo)
    tol = NEWTON_TOL * (hi - lo)
    ones = np.ones(width)
    # Equal values give tol = 0, which no step from elsewhere meets: such a
    # pair starts at its value, so its bracket closes before the first step.
    c = np.where(lo == hi, lo, 0.0)
    for it in range(NEWTON_MAX_ITER):
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
        stopped = np.count_nonzero(done)
        if stopped:
            out[act[done]] = np.einsum("pw,pw,pw->p", g, r, r)[done]
            cout[act[done]], steps[act[done]] = c[done], it
            if stopped == act.size:
                break
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
        cout[act] = c
    return tuple(
        x.reshape(nfun, ncell)
        for x in (unit * out ** (1.0 / u), unit * cout, steps, steps < NEWTON_MAX_ITER)
    )


def _l1_vertices(Va, wa, fa, ra, act, value, coef, iters, converged):
    """Exact weighted L1 fits of every (function, cell) pair by vertex exchange.

    The simplex of Barrodale & Roberts (1973). A vertex c interpolates the d
    rows of its basis B (block A of V), first the independent rows of least
    least-squares residual. With s_i the side of r_i, lam = A^-T sum_{i not
    in B} w_i s_i v_i certifies the minimum once |lam_j| <= w_j on B, since
    y = (w s off B, -lam on B) then solves the dual max y.f, V^T y = 0,
    |y| <= w. Otherwise the row of largest |lam_j| / w_j leaves, c moves
    along sgn(lam_j) A^-1 e_j to the weighted median of the breakpoints (the
    edge's minimum), and the row there enters. Ties go as under f + eps xi,
    eps -> 0, xi free of small integer relations (the lexicographic rule): a
    rounded zero residual takes its side and order from the residual rho of
    xi, and c moves only on steps of nonzero length, so no basis recurs. A
    pair cut off by EXCHANGE_MAX_PIVOTS reports its last vertex, unconverged.
    Fits the pairs ``act`` from their rows of V, w, f and the least-squares
    residual, writing their errors, coefficients, pivots and converged flags
    into ``value``, ``coef``, ``iters`` and ``converged``, flat over pairs.
    """
    (width, d), cost = Va.shape[1:], np.abs(ra)
    # A lone pair drops the pair axis and its index prefix p1 is empty, so
    # that every index below is a plain one on short vectors.
    p1, pc = (np.arange(act.size),), (np.arange(act.size)[:, None],)
    if act.size == 1:
        act, wa, Va, fa, cost = (x[0] for x in (act, wa, Va, fa, cost))
        p1 = pc = ()
    U, cost = Va.copy(), np.where(wa > 0.0, cost, np.inf)
    basis = np.zeros(U.shape[:-2] + (d,), dtype=int)
    for k in range(d):
        col = np.abs(U[..., k])
        i = np.where(col > RANK_RTOL_SV * col.max(-1)[..., None], cost, np.inf).argmin(-1)
        basis[..., k], cost[p1 + (i,)], pivot = i, np.inf, U[p1 + (i, k)]
        pivot = (pivot + (pivot == 0.0))[..., None, None]
        U -= U[..., k, None] / pivot * U[p1 + (i,)][..., None, :]
    Ainv = np.linalg.inv(Va[pc + (basis,)])
    c = (Ainv @ fa[pc + (basis,)][..., None])[..., 0]
    # Residuals within rounding of the terms they are formed from are zero.
    tiny = np.abs(Va).max((-2, -1)) * np.abs(c).sum(-1)
    tiny = EXCHANGE_ZERO_REL * (np.abs(fa) + tiny[..., None])
    xi = (43758.5453 * np.sin(np.arange(1.0, width + 1.0))) % 1.0
    for it in range(EXCHANGE_MAX_PIVOTS + 1):
        M = Va @ Ainv  # row i: v_i in the coordinates of the basis rows
        r = fa - (Va @ c[..., None])[..., 0]  # formed as Polynomial.evaluate does
        rho = xi - (M @ xi[basis][..., None])[..., 0]
        zero = np.abs(r) <= tiny
        side = np.sign(np.where(zero, rho, r))
        side[pc + (basis,)] = 0.0
        lam = ((wa * side)[..., None, :] @ M)[..., 0, :]
        excess = np.abs(lam) / wa[pc + (basis,)]
        j = excess.argmax(-1)
        lj, certified = lam[p1 + (j,)], excess[p1 + (j,)] <= 1.0 + EXCHANGE_RTOL
        a = M[p1 + (Ellipsis, j)] * np.sign(lj)[..., None]
        cand = side * a > RANK_RTOL_SV * np.abs(a).max(-1)[..., None]
        stop = certified | ~cand.any(-1) | (it == EXCHANGE_MAX_PIVOTS)
        if stop.any() or stop.all():  # an empty batch stops at once
            done = act[stop]
            value[done] = np.einsum("pw,pw->p", wa[stop], np.abs(r[stop]))
            coef[done], iters[done], converged[done] = c[stop], it, certified[stop]
            if stop.all():
                break
            state = act, wa, Va, fa, tiny, c, basis, Ainv, M, r, rho, zero, excess, j, lj
            act, wa, Va, fa, tiny, c, basis, Ainv, M, r, rho, zero, excess, j, lj = (
                x[~stop] for x in state
            )
            a, cand = a[~stop], cand[~stop]
            p1, pc = (np.arange(act.size),), (np.arange(act.size)[:, None],)
        # Breakpoints r_i / a_i; zero residuals' come first, by rho_i / a_i.
        sa = np.where(cand, a, np.nan)
        key = r / sa
        np.divide(-sa, rho, out=key, where=zero)
        order = key.argsort(-1)
        # The weighted median: where w_j - |lam_j| + 2 sum w |a| turns >= 0.
        reach = (wa * np.abs(a))[pc + (order,)].cumsum(-1)
        need = 0.5 * np.abs(lj) * (1.0 - 1.0 / excess[p1 + (j,)])
        enter = order[p1 + (np.minimum((reach < need[..., None]).sum(-1), cand.sum(-1) - 1),)]
        step = np.maximum(key[p1 + (enter,)], 0.0) * np.sign(lj)
        c += step[..., None] * Ainv[p1 + (Ellipsis, j)]
        # Basis row j becomes v_enter: A^-1 -= A^-1 e_j (h - e_j)^T / h_j.
        h = M[p1 + (enter,)] / M[p1 + (enter, j)][..., None]
        h[p1 + (j,)] -= 1.0 / M[p1 + (enter, j)]
        Ainv -= Ainv[p1 + (Ellipsis, j)][..., :, None] * h[..., None, :]
        basis[p1 + (j,)] = enter


def _irls(Va, wa, fa, r, a, u, act, value, coef, iters, converged):
    """Reweighted least squares on the pairs ``act``, stopped by a duality gap.

    Serves k >= 2 with u not in {1, 2}. At an iterate c with residual r, let
    Omega = w rho**(u - 2), rho = |r| / max|r| floored at CLAMP_REL, and
    s = (V^T Omega V)^-1 V^T Omega f. The step is c + (s - c) / (u - 1) for
    u > 2, Newton's on sum w |r|**u, and s for u < 2, the majorize-minimize
    reweighting. lam = Omega (f - V s) has V^T lam = 0, so by Hoelder
    lam.r / ||lam w**(-1/u)||_u' bounds the minimum from below. A pair stops
    at the first iterate whose error E exceeds the last step's bound by at
    most DEFAULT_RTOL E, or unconverged where it is after DEFAULT_MAX_ITER
    steps, a singular Gram matrix or a bound that is not a number. Errors are
    summed over f - V c as ``_weighted_norm`` does, or in units of max|r|
    where that sum leaves the normal range. Takes the rows of the pairs
    ``act`` as ``_l1_vertices`` does, with ``a`` = |r| / max|r|, starts from
    least squares' ``coef`` and writes into its arrays as it does.
    """
    d, ca = Va.shape[2], coef[act]
    VaT = np.ascontiguousarray(np.swapaxes(Va, 1, 2))
    conj = u / (u - 1.0)
    # The certificate's powers act on |r| / max|r| and |lam| / max|lam|, so
    # none overflows. Where they underflow, at extreme u, a step is singular
    # or its bound not a number, and its pair stops unconverged.
    with np.errstate(all="ignore"):
        for it in range(1, DEFAULT_MAX_ITER + 1):
            if not act.size:
                break
            rho = np.maximum(a, CLAMP_REL) ** (u - 2.0)  # Omega / w
            Vo = VaT * (wa * rho)[:, None]
            G, rhs = Vo @ np.swapaxes(VaT, 1, 2), Vo @ fa[..., None]
            try:
                s = np.linalg.solve(G, rhs)[..., 0]
            except np.linalg.LinAlgError:
                singular = np.linalg.slogdet(G)[0] == 0.0
                G[singular] = np.eye(d)
                s = np.linalg.solve(G, rhs)[..., 0]
                s[singular] = np.nan
            g = rho * (fa - (Va @ s[..., None])[..., 0])  # lam / w
            top = np.abs(g).max(axis=1)
            low = np.einsum("pw,pw,pw->p", wa, g, r) / top
            low /= np.einsum("pw,pw->p", wa, np.abs(g / top[:, None]) ** conj) ** (1.0 / conj)
            step = s if u < 2.0 else ca + (s - ca) / (u - 1.0)
            ca = np.where(np.isnan(low)[:, None], ca, step)  # no bound: stay, and stop
            r = fa - (Va @ ca[..., None])[..., 0]
            a = np.abs(r)
            unit = a.max(axis=1)
            a /= unit[:, None]
            err = unit * np.einsum("pw,pw->p", wa, a**u) ** (1.0 / u)
            certified = low >= (1.0 - DEFAULT_RTOL) * err
            stop = certified | np.isnan(low) | (it == DEFAULT_MAX_ITER)
            # count_nonzero is the cheapest test of a small mask.
            stopped = np.count_nonzero(stop)
            if stopped:
                done = act[stop]
                total = (wa[stop] * np.abs(r[stop]) ** u).sum(axis=1)
                normal = (total >= np.finfo(float).tiny) & (total < np.inf)
                value[done] = np.where(normal, total ** (1.0 / u), err[stop])
                coef[done], iters[done], converged[done] = ca[stop], it, certified[stop]
                if stopped == act.size:
                    break
                keep = ~stop
                act, fa, wa, Va, VaT, ca, r, a = (x[keep] for x in (act, fa, wa, Va, VaT, ca, r, a))


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector onto degree <= k - 1 polynomials over a cube.

    ``basis`` is orthonormal for <f, g> = sum_i w_i f(x_i) g(x_i) over the
    cloud points inside the cube.
    """

    cloud: WeightedPointCloud
    cube: Cube
    k: int
    basis: tuple[Polynomial, ...]
    gram_cond: float
    indices: np.ndarray
    mass: float
    _weights: np.ndarray
    _basis_values: np.ndarray
    _coeff_matrix: np.ndarray
    _exponents: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.basis)


def make_projector(cloud: WeightedPointCloud, cube: Cube, k: int) -> Projector:
    """Construct the local projector; the cube must hold enough points.

    Requires ``point_quota`` of the basis size (one point even for k = 0)
    so that the Gram matrix is trustworthy. The zero space (k = 0) takes the
    same steps with an empty basis: its projection is the zero polynomial.
    """
    d = basis_size(cloud.ambient_dim, k)
    idx, mass = restrict(cloud, cube)
    needed = point_quota(d)
    if idx.size < needed:
        raise TooFewPoints(
            f"cube holds {idx.size} points, need {needed} for k={k} in dim "
            f"{cloud.ambient_dim}"
        )
    w = cloud.weights[idx]
    V, exps = monomial_matrix(cloud.points[idx], cube, k)
    lam, U = np.linalg.eigh(V.T @ (V * w[:, None]))
    if d and (lam[-1] <= 0.0 or lam[0] <= lam[-1] * RANK_RTOL_SV**2):
        raise RankDeficient(
            f"Gram spectrum [{lam[0]:.3e}, {lam[-1]:.3e}] is rank deficient"
        )
    C = U / np.sqrt(lam)
    basis = tuple(
        Polynomial(cloud.ambient_dim, k - 1, exps, C[:, j], cube.center, cube.half_side)
        for j in range(d)
    )
    return Projector(
        cloud=cloud,
        cube=cube,
        k=k,
        basis=basis,
        gram_cond=float(lam[-1] / lam[0]) if d else 1.0,
        indices=idx,
        mass=mass,
        _weights=w,
        _basis_values=V @ C,
        _coeff_matrix=C,
        _exponents=exps,
    )


def _project(proj: Projector, f) -> tuple[np.ndarray, np.ndarray]:
    """The cube values of f and <f, p_beta> for each basis polynomial p_beta.

    One refinement pass keeps reproduction exact to roundoff even when the
    Gram matrix is poorly conditioned.
    """
    fv = proj.cloud.values_of(f)[proj.indices]
    B, w = proj._basis_values, proj._weights
    a = B.T @ (w * fv)
    a += B.T @ (w * (fv - B @ a))
    return fv, a


def apply_projector(proj: Projector, f) -> Polynomial:
    """P_Q f = sum_beta <f, p_beta> p_beta as a chart-local polynomial.

    ``f`` may be a GridFunction or a plain value array over the full cloud.
    """
    coef = proj._coeff_matrix @ _project(proj, f)[1]
    cube = proj.cube
    return Polynomial(
        cube.ambient_dim, proj.k - 1, proj._exponents, coef, cube.center, cube.half_side
    )


def sup_bound_ratio(proj: Projector, f) -> float:
    """max |P_Q f| over cube points divided by the average of |f| there."""
    fv, a = _project(proj, f)
    avg = float(np.sum(proj._weights * np.abs(fv)) / proj.mass)
    peak = float(np.max(np.abs(proj._basis_values @ a)))
    if avg == 0.0:
        return math.inf if peak > 0.0 else 0.0
    return peak / avg


def uniform_bound(proj: Projector, u: float) -> float:
    """sum_beta ||p_beta||_u * ||p_beta||_u' over the cube (u' conjugate)."""
    if not 1.0 <= u:
        raise OutOfRange(f"u must be >= 1, got {u}")
    dual = math.inf if u == 1.0 else 1.0 if u == math.inf else u / (u - 1.0)
    total = 0.0
    for j in range(proj.dimension):
        vals = proj._basis_values[:, j]
        total += _weighted_norm(vals, proj._weights, u) * _weighted_norm(
            vals, proj._weights, dual
        )
    return total


@dataclass(frozen=True)
class ApproxResult:
    """Outcome of a local best-approximation problem.

    ``value`` is the plain integral error E_k; ``normalized`` divides by
    mass(Q)^(1/u), i.e. the average form used by the maximal operators.
    ``value`` is the error of ``minimizer``. ``iterations`` counts
    reweighting or Newton steps, or the pivots of the exact u = 1 exchange,
    and is 0 for closed forms (the median, the mean, the cubic root, u = 2
    least squares) and for fits least squares makes exact. ``converged``
    means exact, or certified within DEFAULT_RTOL of the minimum; an
    unconverged ``value`` only bounds the minimum from above.
    """

    value: float
    normalized: float
    minimizer: Polynomial
    iterations: int
    converged: bool


def best_approx(
    cloud: WeightedPointCloud,
    cube: Cube,
    f,
    k: int,
    u: float,
) -> ApproxResult:
    """Best degree <= k - 1 approximation of f over the cube in L^u."""
    if not (1.0 <= u < math.inf):
        raise OutOfRange(f"u must lie in [1, inf), got {u}")
    values = cloud.values_of(f)
    d = basis_size(cloud.ambient_dim, k)
    idx, mass = restrict(cloud, cube)
    needed = point_quota(d)
    if idx.size < needed:
        raise TooFewPoints(f"cube holds {idx.size} points, need {needed} for k={k}")
    # k = 0 goes through too: an empty design, and fit_in_span's plain norm.
    V, exps = monomial_matrix(cloud.points[idx], cube, k)
    coef, value, iters, converged = fit_in_span(V, cloud.weights[idx], values[idx], u)
    minimizer = Polynomial(
        cloud.ambient_dim, k - 1, exps, coef, cube.center, cube.half_side
    )
    return ApproxResult(value, value / mass ** (1.0 / u), minimizer, iters, converged)


def reverse_holder_ratio(
    cloud: WeightedPointCloud,
    cube: Cube,
    poly: Polynomial,
    q: float,
    u: float,
) -> float:
    """Ratio of average L^q to average L^u size of a polynomial on the cube.

    Returns +inf when the denominator vanishes while the numerator does not,
    and 1 when both vanish.
    """
    if not (1.0 <= u <= q):
        raise OutOfRange(f"need 1 <= u <= q, got u={u}, q={q}")
    idx, mass = restrict(cloud, cube)
    if idx.size == 0:
        raise EmptyCube("cube contains no cloud points")
    vals = np.abs(poly.evaluate(cloud.points[idx]))
    w = cloud.weights[idx]
    num, den = float(_weighted_mean(vals, w, q, mass)), float(_weighted_mean(vals, w, u, mass))
    if den == 0.0:
        return math.inf if num > 0.0 else 1.0
    return num / den
