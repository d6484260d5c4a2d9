"""Best polynomial approximation on cube-localized pieces of a cloud.

All fits work in the cube's own chart z = (x - center)/half_side, which maps
the cube onto [-1, 1]^n and keeps Vandermonde matrices well scaled. Degrees
are indexed by the space parameter k: fits range over polynomials of total
degree <= k - 1, with k = 0 denoting the zero space.

Every fit goes through one batched kernel, ``_local_errors``, which fits
all (function, cell) pairs of a batch at once: ``maximal.error_matrices``
calls it on many cubes, ``fit_in_span`` (and so ``best_approx``) on one.
Constants (k = 1) are fitted exactly for every u: the weighted median
(u = 1), the mean (u = 2), a cubic root (u = 4) or bracketed Newton (other
u). Higher degrees take weighted least squares, final for u = 2 and
otherwise the start of damped, smoothed reweighting (IRLS).
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

# IRLS: step cap, stopping tolerance on the objective, and residual
# smoothing relative to max|f|.
DEFAULT_MAX_ITER = 50
DEFAULT_RTOL = 1e-8
DEFAULT_DELTA_REL = 1e-8
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
    """Exponent tuples with total degree <= max_degree, graded lexicographic."""
    if n < 1:
        raise OutOfRange(f"ambient dimension must be >= 1, got {n}")
    out: list[tuple[int, ...]] = []
    for deg in range(max(max_degree, -1) + 1):
        block = set()
        for combo in combinations_with_replacement(range(n), deg):
            e = [0] * n
            for j in combo:
                e[j] += 1
            block.add(tuple(e))
        out.extend(sorted(block, reverse=True))
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


def _weighted_norm(values: np.ndarray, weights: np.ndarray, u: float) -> float:
    if u == math.inf:
        return float(np.max(np.abs(values))) if values.size else 0.0
    return float(np.sum(weights * np.abs(values) ** u) ** (1.0 / u))


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
    take weighted least squares, final for u = 2 and otherwise the start of
    ``_irls``. Returns (errors [F, L], coefficients [F, L, d], iterations
    [F, L], converged [F, L]), each error the objective at its coefficients.
    Residuals are formed as V @ c, as ``Polynomial.evaluate`` forms them, so
    that the minimizer's residual reproduces its error even where the error
    is at the level of rounding. A rank-deficient cell's error is NaN, or 0
    for a function zero there.
    """
    scale = np.abs(f).max(axis=2)
    if V is None:
        value, coef, iters, converged = _constant_errors(w, f, u, mass, scale)
        return _clamp(value, scale, mass, u), coef[..., None], iters, converged
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
        value, coef, iters, converged = _irls(
            V, w, f, u, coef, resid, scale, ~deficient
        )
    value = _clamp(value, scale, mass, u)
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
    # In units of max|f|, so that no power of a value under- or overflows.
    unit = np.where(scale > 0.0, scale, 1.0)
    d /= unit[..., None]
    if u == 4.0:
        c = _quartic_root(d, w, mass)
        d -= c[..., None]
        d *= d
        value = unit * np.einsum("flw,flw,lw->fl", d, d, w) ** 0.25
        return value, mean + unit * c, *_closed_form(c)
    value, c, iters, converged = _newton_errors(d, w, u)
    return unit * value, mean + unit * c, iters, converged


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
    Returns (errors, constants, steps, converged), each of shape [F, L].
    """
    nfun, ncell, width = d.shape
    da, wa = d.reshape(-1, width), np.tile(w, (nfun, 1))
    act = np.arange(da.shape[0])
    out, cout = np.zeros(act.size), np.zeros(act.size)
    steps = np.full(act.size, NEWTON_MAX_ITER)
    real = wa > 0.0  # the zero-weight sentinel pads a cell, it is not in it
    lo = np.where(real, da, np.inf).min(axis=1)
    hi = np.where(real, da, -np.inf).max(axis=1)
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
        for x in (out ** (1.0 / u), cout, steps, steps < NEWTON_MAX_ITER)
    )


def _irls(V, w, f, u, coef, resid, scale, usable):
    """Damped, smoothed reweighted least squares on every (function, cell) pair.

    Serves k >= 2 only: constants have exact fits. The weights are
    w (r**2 + delta**2)**(u/2 - 1) with delta = DEFAULT_DELTA_REL * max|f|;
    each pair stops on its own rule, a change of objective of at most
    DEFAULT_RTOL relative, or after DEFAULT_MAX_ITER steps unconverged.
    Returns (errors, coefficients, iterations, converged) of each pair's
    best iterate. Converged pairs leave the working arrays.
    """
    nfun, ncell, width = f.shape
    pairs = nfun * ncell
    best, iters = np.zeros(pairs), np.zeros(pairs, dtype=int)
    coef, converged = coef.reshape(pairs, -1).copy(), np.ones(pairs, dtype=bool)
    # Pair p fits function p // ncell on cell p % ncell. Pairs left out (zero
    # data, rank-deficient cell) are settled by the caller.
    act = np.flatnonzero((usable & (scale > 0.0)).ravel())
    cells = act % ncell
    fa, wa, Va, ca = f.reshape(pairs, width)[act], w[cells], V[cells], coef[act]
    floor = DEFAULT_DELTA_REL * scale.ravel()[act]
    # |r|**u as (r*r)**(u/2): the squares also feed the weights, and the
    # power is a plain square for u = 4.
    rr = np.square(resid.reshape(pairs, width)[act])
    VaT = np.ascontiguousarray(np.swapaxes(Va, 1, 2))
    floor2 = (floor * floor)[:, None]
    obj = low = _lu_norms(wa, rr, u)
    low_c = ca.copy()
    exponent = 0.5 * u - 1.0
    # Plain reweighting oscillates for u > 2; relaxing the step by
    # 1/(u - 1) restores monotone convergence to the minimizer.
    damping = 1.0 / (u - 1.0) if u > 2.0 else 1.0
    for it in range(1, DEFAULT_MAX_ITER + 1):
        if act.size == 0:
            break
        omega = wa * (rr + floor2) ** exponent
        Vo = VaT * omega[:, None]
        G = Vo @ np.swapaxes(VaT, 1, 2)
        step = _solve_each(G, Vo @ fa[..., None], Va, omega, fa)
        ca = step if damping == 1.0 else ca + damping * (step - ca)
        rr = np.square(fa - (Va @ ca[..., None])[..., 0])
        new = _lu_norms(wa, rr, u)
        np.copyto(low_c, ca, where=(new < low)[:, None])
        low = np.fmin(low, new)
        done = np.abs(new - obj) <= DEFAULT_RTOL * np.maximum(obj, floor)
        obj = new
        # count_nonzero is the cheapest test of a small mask.
        stopped = np.count_nonzero(done)
        if stopped:
            best[act[done]], coef[act[done]] = low[done], low_c[done]
            iters[act[done]] = it
            if stopped == act.size:
                break
            keep = ~done
            act, fa, wa, Va, VaT, rr, ca, floor, floor2, obj, low, low_c = (
                x[keep]
                for x in (act, fa, wa, Va, VaT, rr, ca, floor, floor2, obj, low, low_c)
            )
    else:
        best[act], coef[act], converged[act] = low, low_c, False
        iters[act] = DEFAULT_MAX_ITER
    return tuple(
        x.reshape((nfun, ncell) + x.shape[1:]) for x in (best, coef, iters, converged)
    )


def _lu_norms(w, rr, u):
    """(sum_w rr**(u/2))**(1/u) along the last axis, rr holding squared residuals."""
    total = (w * rr ** (0.5 * u)).sum(axis=-1)
    return total if u == 1.0 else total ** (1.0 / u)


def _solve_each(G, rhs, V, omega, f):
    """Batched G x = rhs; a singular system falls back to weighted lstsq."""
    try:
        if len(G) == 1:  # numpy solves one vector right-hand side fastest
            return np.linalg.solve(G[0], rhs[0, :, 0])[None]
        return np.linalg.solve(G, rhs)[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty(rhs.shape[:2])
        for p in range(len(G)):
            try:
                out[p] = np.linalg.solve(G[p], rhs[p])[:, 0]
            except np.linalg.LinAlgError:
                so = np.sqrt(omega[p])
                out[p] = np.linalg.lstsq(V[p] * so[:, None], so * f[p], rcond=None)[0]
        return out


def _clamp(value, scale, mass, u):
    """Errors below CLAMP_REL times the local data scale are exact fits: 0."""
    return np.where(value <= CLAMP_REL * scale * mass ** (1.0 / u), 0.0, value)


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
    dual = math.inf if u == 1.0 else u / (u - 1.0)
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
    ``value`` is the error of ``minimizer``. ``iterations`` counts IRLS or
    Newton steps, and is 0 for closed forms (the median, the mean, the cubic
    root, u = 2 least squares); ``converged`` is False only for a fit cut
    off by its step cap.
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
    vals = poly.evaluate(cloud.points[idx])
    w = cloud.weights[idx]
    num = float((np.sum(w * np.abs(vals) ** q) / mass) ** (1.0 / q))
    den = float((np.sum(w * np.abs(vals) ** u) / mass) ** (1.0 / u))
    if den == 0.0:
        return math.inf if num > 0.0 else 1.0
    return num / den
