"""Internal-consistency checks with estimated constants and budgets.

A direct check compares its worst observed constant with a tight budget, for
inequalities that hold exactly by construction (nestedness, pointwise
orderings, per-scale domination). A stability check tracks a genuinely
estimated constant per generator and depth, and compares its worst drift
between consecutive depths with a factor-2 budget. Cube batteries are drawn
with common random numbers per generator, so constants at different depths
are comparable.

The checks run at one parameter choice, the module constants from
``SCALE_FACTOR`` to ``AHLFORS_SCALES`` below (degrees k, inner exponents u,
smoothness alpha, norm exponents p), which the acceptance gate pins. Each
check reads them itself, but ``check_embedding_chain`` takes its alphas and
p, since the gate calls it one alpha at a time. A ``RunConfig`` picks the
rest: generators and depths, seed, how many cubes each sampling check
draws, which battery functions enter, and budgets.

``run_all`` works cloud by cloud. ``_needs`` lists the error matrices the
checks read; they are united by (k, u) and fetched with one kernel call per
(k, u), so the checks only hit the cache. The sampling checks fit their
random cubes through the same kernel in padded batches (``_cube_fits``), not
one ``best_approx`` call per cube. ``_observe`` then calls each
``check_*`` and yields observations (check, label, value, witnesses,
evaluated); ``label`` is None for a direct check and names the constant
family of a stability check. One reduction follows: the worst value of each
direct check, ``_stability`` for each stability check. An observation that
evaluated nothing takes no part in a verdict, nor does a stability constant
of 0.0, a largest ratio over no item (or over degenerate ones only, of
zero local error). A check left with none is NOT EVALUATED.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRange
from .functions import battery, sample
# approx_error_matrix, restrict, best_approx and reverse_holder_ratio stay
# importable here: bench/layers.py wraps them by name.
from .geometry import restrict  # noqa: F401
from .maximal import (  # noqa: F401
    ScaleGrid,
    _sharp_from_matrix,
    approx_error_matrix,
    degree_for_flat,
    degree_for_sharp,
    error_matrices,
)
from .measure import (
    WeightedPointCloud,
    ahlfors_constants,
    build_cloud,
    generator_spec,
)
from .norms import _column_lp, lp_norm
from .polyapprox import (  # noqa: F401
    _local_errors,
    _weighted_mean,
    _weighted_norm,
    basis_size,
    best_approx,
    point_quota,
    reverse_holder_ratio,
)
from .rankspace import CHUNK_ELEMS, _cube_cells

__all__ = [
    "Witness",
    "CheckResult",
    "RunConfig",
    "MatrixCache",
    "DEFAULT_BUDGETS",
    "DIRECT_CHECKS",
    "poincare_sigma",
    "sobolev_exponent",
    "check_monotonicity",
    "check_poincare",
    "check_sharp_equivalence",
    "check_embedding_chain",
    "check_sobolev_embedding",
    "check_reverse_holder",
    "check_ahlfors",
    "run_all",
]

DEFAULT_BUDGETS = {
    "ahlfors_ratio": 50.0,
    "embedding_perscale": 1.0 + 1e-6,
    "embedding_stability": 2.0,
    "monotonicity": 1.0 + 1e-6,
    "monotonicity_regularity": 2.0,
    "poincare_stability": 2.0,
    "reverse_holder_stability": 2.0,
    "sharp_equivalence_left": 1.0 + 1e-8,
    "sharp_equivalence_right_stability": 2.0,
    "sobolev_stability": 2.0,
}
# Checks judged by their worst value; every other check is judged by the
# drift of its constants between consecutive depths of one generator.
DIRECT_CHECKS = frozenset(
    {"ahlfors_ratio", "embedding_perscale", "monotonicity", "sharp_equivalence_left"}
)

# The checks' parameters (see the module docstring), each written once here.
SCALE_FACTOR = 4.0  # scale floor and cube window, in resolution scales
MONO_DEGREES, MONO_EXPONENTS = (1, 2), (1.0, 2.0, 3.0)
POINCARE_ALPHA, POINCARE_Q = 0.5, 2.0
SHARP_ALPHA, SHARP_EXPONENTS, SHARP_NORM_P = 0.5, (1.0, 2.0, 4.0), 4.0
EMBEDDING_ALPHAS, EMBEDDING_P = (0.7, 1.3, 1.0), 2.0
SOBOLEV_K, SOBOLEV_P = 1, 1.0
REVHOLDER_DEGREE, REVHOLDER_PAIRS = 2, ((4.0, 1.0), (2.0, 1.0))
AHLFORS_SCALES = 6

# Tags mixed into per-check random seeds so draws are independent between
# checks yet identical across depths of one generator.
_TAG_MONO, _TAG_POINCARE, _TAG_REVHOLDER, _TAG_AHLFORS = 11, 12, 13, 14


@dataclass(frozen=True)
class Witness:
    """One concrete configuration behind an observed constant."""

    generator: str
    depth: int
    function: str
    params: str
    value: float


@dataclass(frozen=True)
class CheckResult:
    """Aggregated outcome of one named check.

    ``evaluated`` counts the items the verdict rests on: cube pairs, cubes,
    functions, clouds or, for a stability check, depth pairs. A check with
    ``evaluated == 0`` was NOT EVALUATED; its worst constant is NaN.
    """

    check_name: str
    worst_constant: float
    budget: float
    witnesses: tuple[Witness, ...] = ()
    metadata: dict = field(default_factory=dict, compare=False)
    evaluated: int = 0

    @property
    def passed(self) -> bool:
        return self.worst_constant <= self.budget


class _Worst:
    """The largest value offered, from 0.0, and the one witness behind it."""

    def __init__(self, generator: str, depth: int):
        self.value, self.witnesses = 0.0, []
        self._where = (generator, depth)

    def offer(self, value: float, function: str, params: str) -> None:
        if value > self.value:
            self.value = value
            self.witnesses = [Witness(*self._where, function, params, value)]

    def offer_max(self, values: np.ndarray, describe) -> None:
        """Offer the first largest of ``values``, NaN taking no part, with
        ``describe(i)``, the (function, params) of value i."""
        values = np.where(np.isnan(values), -np.inf, values)
        if values.size:
            i = int(np.argmax(values))
            self.offer(float(values[i]), *describe(i))


def _ratio(num, den):
    """num / den, where x / 0 is inf for x > 0 and 0 / 0 is 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, num / den, np.where(num > 0.0, np.inf, 1.0))


def poincare_sigma(q: float, alpha: float, s: float) -> float:
    """Inner exponent sigma with 1/sigma = 1/q + alpha/s."""
    if not (q >= 1.0 and alpha > 0.0 and s > 0.0):
        raise OutOfRange(f"bad parameters q={q}, alpha={alpha}, s={s}")
    return 1.0 / (1.0 / q + alpha / s)


def sobolev_exponent(s: float, p: float, k: int) -> float:
    """Improved exponent q = s p / (s - k p); requires k p < s."""
    if not (s > 0.0 and p >= 1.0 and k >= 1):
        raise OutOfRange(f"bad parameters s={s}, p={p}, k={k}")
    if not k * p < s:
        raise OutOfRange(f"need k*p < s, got k*p={k * p}, s={s}")
    return s * p / (s - k * p)


class MatrixCache:
    """Shares error matrices and scale grids across checks of one run.

    Keyed by the identities of the cloud and the function, the degree
    parameter and the inner exponent. Each entry holds the objects it is
    keyed on, so no identity can be reused while the cache lives. Every
    check that can reuse a matrix does, which both saves time and makes
    cross-check inequalities exact rather than statistical.
    """

    def __init__(self):
        self._grids: dict[int, tuple[WeightedPointCloud, ScaleGrid]] = {}
        self._matrices: dict[tuple, tuple[object, np.ndarray]] = {}

    def grid(self, cloud: WeightedPointCloud) -> ScaleGrid:
        if id(cloud) not in self._grids:
            grid = ScaleGrid.dyadic(cloud, factor=SCALE_FACTOR)
            self._grids[id(cloud)] = (cloud, grid)
        return self._grids[id(cloud)][1]

    def matrices(self, cloud: WeightedPointCloud, funcs, k: int, u: float) -> list:
        """One matrix per function; every missing one comes from one kernel call."""
        grid = self.grid(cloud)
        keys = [(id(cloud), id(gf), int(k), float(u)) for gf in funcs]
        missing = {key: gf for key, gf in zip(keys, funcs) if key not in self._matrices}
        if missing:
            values = np.stack([cloud.values_of(gf) for gf in missing.values()])
            built = error_matrices(cloud, values, k, u, grid)
            for (key, gf), matrix in zip(missing.items(), built):
                self._matrices[key] = (gf, matrix)
        return [self._matrices[key][1] for key in keys]

    def matrix(self, cloud: WeightedPointCloud, gf, k: int, u: float) -> np.ndarray:
        return self.matrices(cloud, [gf], k, u)[0]

    def sharp_values(
        self, cloud: WeightedPointCloud, funcs, alpha: float, u: float, k: int
    ) -> list:
        """Pointwise sharp maximal values of each function, from cached matrices."""
        scales = self.grid(cloud).scales
        return [_sharp_from_matrix(m, scales, alpha) for m in self.matrices(cloud, funcs, k, u)]


@dataclass(frozen=True)
class RunConfig:
    """What a verification run may change: clouds, seed, draws, functions, budgets.

    The checks' own parameters are the module constants, not fields.
    """

    generators: tuple = (
        ("cantor4", (3, 4, 5)),
        ("interval", (8, 10)),
        ("square", (3,)),
        ("carpet", (2,)),
    )
    seed: int = 0
    mono_pairs: int = 500
    poincare_samples: int = 40
    revholder_trials: int = 24
    ahlfors_samples: int = 64
    check_functions: tuple = (
        "linear_axis",
        "quad_axis",
        "cusp_beta030",
        "cusp_beta090",
        "lacunary_beta050",
        "lacunary_beta150",
        "sigmoid_steep",
    )
    sharp_functions: tuple = (
        "cusp_beta030",
        "cusp_beta090",
        "lacunary_beta050",
        "sigmoid_steep",
    )
    budget_overrides: tuple = ()

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise OutOfRange(f"config must be a JSON object, got {type(data).__name__}")
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise OutOfRange(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for name, value in data.items():
            like = fields[name].default
            if name == "budget_overrides":  # a {check: budget} map or its pairs
                value = list(value.items()) if isinstance(value, dict) else value
                like = (("check", 1.0),)
            try:
                kwargs[name] = _conform(value, like)
            except (TypeError, ValueError) as exc:
                raise OutOfRange(f"config field {name!r}: {exc}") from None
        generators = kwargs.get("generators", cls.generators)
        if not generators:
            raise OutOfRange("config field 'generators': names no cloud")
        # One generator's depths share its seed stream and radius window, so
        # their constants are comparable only as one entry, of distinct depths.
        names = [gen for gen, _ in generators]
        for gen, depths in generators:
            if names.count(gen) > 1 or not depths or len(set(depths)) < len(depths):
                raise OutOfRange(
                    f"config field 'generators': {gen!r} needs one entry of distinct depths, one at least"
                )
        return cls(**kwargs)

    def budgets(self) -> dict[str, float]:
        unknown = sorted({name for name, _ in self.budget_overrides} - set(DEFAULT_BUDGETS))
        if unknown:
            raise OutOfRange(f"unknown budget names: {unknown}; known: {sorted(DEFAULT_BUDGETS)}")
        out = dict(DEFAULT_BUDGETS)
        out.update({k: float(v) for k, v in self.budget_overrides})
        return out


def _conform(value, like, record: bool = False):
    """``value`` in the shape of ``like``, a config field's default.

    A tuple takes a JSON list and returns a tuple: a list of any length
    whose items take the shape of the default's first item, and inside that
    a record of the default's own length. A float takes any number, an int
    an int >= 0 (each counts or seeds), a str a str; no bool passes for a number.
    """
    if isinstance(like, tuple):
        if not isinstance(value, (list, tuple)) or record and len(value) != len(like):
            raise TypeError(f"expected a list like {list(like)!r}, got {value!r}")
        if record:
            return tuple(_conform(v, part) for v, part in zip(value, like))
        return tuple(_conform(v, like[0], True) for v in value)
    kinds = (int, float) if isinstance(like, float) else type(like)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"expected {type(like).__name__}, got {value!r}")
    if isinstance(like, int) and value < 0:
        raise ValueError(f"expected an int >= 0, got {value!r}")
    return float(value) if isinstance(like, float) else value


def _check_rng(seed: int, tag: int, gen_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag, gen_index]))


def _radius_window(cloud: WeightedPointCloud) -> tuple[float, float]:
    """Log-uniform sampling window for cube half-sides on this cloud."""
    lo = SCALE_FACTOR * cloud.resolution_scale
    hi = max(cloud.diam / 4.0, 2.0 * lo)
    hi = min(hi, 0.99 * cloud.diam)
    if hi <= lo:
        hi = 1.5 * lo
    return lo, hi


def _random_cubes(cloud: WeightedPointCloud, rng, count: int, lo: float, hi: float):
    """Centres snapped to the cloud, then half-sides log-uniform in [lo, hi].

    Targets are snapped in chunks of at most CHUNK_ELEMS (target, point,
    axis) triples, so memory stays flat in the draw count; squared distances
    add axis by axis, as a sum over a short trailing axis would, only faster.
    """
    box_lo, box_hi = cloud.bbox
    targets = box_lo + rng.random((count, cloud.ambient_dim)) * (box_hi - box_lo)
    nearest = np.empty(count, dtype=np.intp)
    step = max(1, CHUNK_ELEMS // cloud.points.size)
    for i in range(0, count, step):
        d2 = sum((t[:, None] - x) ** 2 for t, x in zip(targets[i : i + step].T, cloud.points.T))
        nearest[i : i + step] = np.argmin(d2, axis=1)
    radii = np.exp(np.log(lo) + rng.random(count) * (np.log(hi) - np.log(lo)))
    return cloud.points[nearest], radii


def _first_evaluated(draws: int, wanted: int, fit) -> np.ndarray:
    """The first ``wanted`` of ``draws`` draws that evaluate, in draw order.

    ``fit(js)`` fits draws ``js`` and says which evaluate. Each round fits
    the next ``wanted`` less those found, so no draw is fitted twice, nor
    any past the one where a loop with an early exit would stop."""
    kept, start = [], 0
    while len(kept) < wanted and start < draws:
        js = np.arange(start, min(draws, start + wanted - len(kept)))
        kept += js[fit(js)].tolist()
        start += js.size
    return np.asarray(kept, dtype=int)


def _cube_fits(cloud: WeightedPointCloud, values, rows, centres, halves, k: int, u: float):
    """Errors E_k in L^u of values[rows[c]] on cubes Q(centres[c], halves[c]),
    the minimizers' coefficients [C, d] and the cubes' masses, fitted in
    batches (``rankspace._cube_cells``). An error is NaN where ``best_approx``
    raises: below the point quota, or rank deficient, f not zero there."""
    d = basis_size(cloud.ambient_dim, k)
    err, coef, mass = np.full(len(rows), np.nan), np.zeros((len(rows), d)), np.zeros(len(rows))
    for at, (V, w, f, m) in _cube_cells(cloud, values, k, centres, halves, point_quota(d), rows):
        fit = _local_errors(V, w, f, u, m)
        err[at], coef[at], mass[at] = fit[0][0], fit[1][0], m
    return err, coef, mass


def check_monotonicity(
    cloud: WeightedPointCloud, funcs, rng: np.random.Generator, pairs: int,
    window: tuple[float, float] | None = None, generator: str = "?",
):
    """Nested cubes: the raw error on the inner cube never exceeds the outer.

    Draw j fits funcs[j % F] at MONO_DEGREES[j % 2] and MONO_EXPONENTS[j % 3]
    on an outer cube and an inner cube inside it; the first ``pairs`` of 3
    ``pairs`` draws where ``best_approx`` fits both count, each round fitting
    both cubes of each (k, u) in one pass (``_first_evaluated``). The inner
    error is the smaller of the inner fit's and the outer minimizer's there.
    Returns (worst_ratio, regularity_constant, witnesses, evaluated): the
    regularity constant, the worst ratio of measure-normalized errors over
    the draws where both are positive (0.0 if there are none), is only
    controlled by the doubling of the measure and is tracked for depth
    stability.
    """
    lo, hi = window or _radius_window(cloud)
    draws = 3 * pairs
    centers, inner_r = _random_cubes(cloud, rng, draws, lo, max(hi / 2.2, lo * 1.01))
    outer_r = inner_r * (1.5 + 0.7 * rng.random(draws))
    shift = (2.0 * rng.random((draws, cloud.ambient_dim)) - 1.0) * (outer_r - inner_r)[:, None]
    inner_c = centers + shift
    values = np.stack([cloud.values_of(gf) for gf in funcs])
    fid = np.arange(draws) % len(funcs)
    ks = np.take(MONO_DEGREES, np.arange(draws) % len(MONO_DEGREES))
    us = np.take(MONO_EXPONENTS, np.arange(draws) % len(MONO_EXPONENTS))
    err, mass = np.full((2, draws), np.nan), np.zeros((2, draws))  # outer, inner
    candidate = np.zeros(draws)

    def fit(js):
        for k, u in itertools.product(MONO_DEGREES, MONO_EXPONENTS):
            on = js[(ks[js] == k) & (us[js] == u)]
            nest = (np.concatenate([centers[on], inner_c[on]]),
                    np.concatenate([outer_r[on], inner_r[on]]))
            e, c, m = _cube_fits(cloud, values, np.tile(fid[on], 2), *nest, k, u)
            err[:, on], mass[:, on] = e.reshape(2, -1), m.reshape(2, -1)
            # The outer minimizer's error on the inner cube, in the outer chart.
            ok = ~np.isnan(err[:, on]).any(axis=0)
            on, c = on[ok], c[: on.size][ok]
            cells = inner_c[on], inner_r[on], 1, fid[on], (centers[on], outer_r[on])
            for at, (V, w, f, _) in _cube_cells(cloud, values, k, *cells):
                resid = f[0] - (c[at] if V is None else (V @ c[at, :, None])[..., 0])
                candidate[on[at]] = _weighted_mean(np.abs(resid), w, u, 1.0)
        return ~np.isnan(err[:, js]).any(axis=0)

    kept = _first_evaluated(draws, pairs, fit)
    out, inner = err[0, kept], np.minimum(err[1, kept], candidate[kept])
    u = us[kept]
    both = (inner > 0.0) & (out > 0.0)
    ratio = _ratio(inner, out)
    with np.errstate(divide="ignore", invalid="ignore"):
        reg = (inner / mass[1, kept] ** (1.0 / u)) / (out / mass[0, kept] ** (1.0 / u))
    regularity = float(reg[both].max()) if both.any() else 0.0

    def describe(i):
        j = kept[i]
        u, r_in, r_out = float(us[j]), float(inner_r[j]), float(outer_r[j])
        return funcs[fid[j]].name, f"k={ks[j]},u={u!r},r_in={r_in!r},r_out={r_out!r}"

    worst = _Worst(generator, cloud.depth)
    worst.offer_max(ratio, describe)
    return worst.value, regularity, worst.witnesses, int(kept.size)


def check_poincare(
    cloud: WeightedPointCloud, funcs, cache: MatrixCache, rng: np.random.Generator,
    samples: int, window: tuple[float, float] | None = None, generator: str = "?",
):
    """Estimated constant in the local error vs averaged-sharp inequality.

    For cubes Q of half-side t the measure-normalized local error in L^q is
    compared with t**alpha times the L^sigma average of the sharp maximal
    function over the doubled cube, 1/sigma = 1/q + alpha/s. Cube j fits
    funcs[j % F]; the first ``samples`` of 3 ``samples`` cubes that
    ``best_approx`` fits count (``_first_evaluated``), a round in one pass,
    and their doubled cubes' averages come from one batched gather.
    """
    if not funcs:
        return 0.0, [], 0
    alpha, q = POINCARE_ALPHA, POINCARE_Q
    sigma = poincare_sigma(q, alpha, cloud.s)
    k = degree_for_sharp(alpha)
    draws = 3 * samples
    centers, radii = _random_cubes(cloud, rng, draws, *(window or _radius_window(cloud)))
    values = np.stack([cloud.values_of(gf) for gf in funcs])
    fid = np.arange(draws) % len(funcs)
    err, mass = np.full(draws, np.nan), np.zeros(draws)

    def fit(js):
        err[js], _, mass[js] = _cube_fits(cloud, values, fid[js], centers[js], radii[js], k, q)
        return ~np.isnan(err[js])

    kept = _first_evaluated(draws, samples, fit)
    sharp = np.stack(cache.sharp_values(cloud, funcs, alpha, 1.0, k))
    avg = np.zeros(draws)
    doubled = centers[kept], 2.0 * radii[kept], 1, fid[kept]
    for at, (_, w, s, m) in _cube_cells(cloud, sharp, 1, *doubled):
        avg[kept[at]] = _weighted_mean(s[0], w, sigma, m)
    lhs, rhs = err[kept] / mass[kept] ** (1.0 / q), radii[kept] ** alpha * avg[kept]
    with np.errstate(divide="ignore", invalid="ignore"):
        # A cube where both sides vanish is evaluated but offers nothing.
        ratio = np.where(rhs == 0.0, np.where(lhs == 0.0, np.nan, np.inf), lhs / rhs)
    worst = _Worst(generator, cloud.depth)
    worst.offer_max(ratio, lambda i: (
        funcs[fid[kept[i]]].name, f"alpha={alpha!r},q={q!r},t={float(radii[kept[i]])!r}"
    ))
    return worst.value, worst.witnesses, int(kept.size)


def check_sharp_equivalence(
    cloud: WeightedPointCloud, funcs, cache: MatrixCache, generator: str = "?"
):
    """Pointwise ordering of sharp maximal functions in the inner exponent.

    Larger inner exponents dominate pointwise (power-mean monotonicity), an
    inequality the implementation reproduces essentially exactly; the
    reverse comparison only holds on average, so its constant is the ratio
    of L^SHARP_NORM_P norms and is tracked for stability.
    """
    alpha = SHARP_ALPHA
    k = degree_for_sharp(alpha)
    values = {}
    for u in SHARP_EXPONENTS:
        for gf, v in zip(funcs, cache.sharp_values(cloud, funcs, alpha, u, k)):
            values[(gf.name, u)] = v
    left = _Worst(generator, cloud.depth)
    right_constant = 0.0
    for gf in funcs:
        for u_lo, u_hi in zip(SHARP_EXPONENTS, SHARP_EXPONENTS[1:]):
            v_lo = values[(gf.name, u_lo)]
            v_hi = values[(gf.name, u_hi)]
            ratios = _ratio(v_lo, v_hi)
            params = f"alpha={alpha!r},u_lo={u_lo!r},u_hi={u_hi!r}"
            left.offer(float(ratios.max()), gf.name, params)
            hi_norm = lp_norm(cloud, v_hi, SHARP_NORM_P)
            lo_norm = lp_norm(cloud, v_lo, SHARP_NORM_P)
            if lo_norm > 0.0:
                right_constant = max(right_constant, hi_norm / lo_norm)
    return left.value, right_constant, left.witnesses


def check_embedding_chain(
    cloud: WeightedPointCloud, funcs, cache: MatrixCache, alphas: tuple, p: float,
    generator: str = "?",
):
    """Scale-sum norms against the sharp maximal route, on shared matrices.

    Every weighted per-scale error norm is dominated by the L^p norm of the
    pointwise max over scales -- exactly, since both sides read the same
    matrix. The summed-over-scales route exceeds the maximal route and the
    maximal route exceeds the max-over-scales route by genuinely estimated
    factors R1 and R2, both tracked for depth stability.
    """
    perscale = _Worst(generator, cloud.depth)
    r1_constant = 0.0
    r2_constant = 0.0
    for alpha in alphas:
        k = degree_for_flat(alpha)
        grid = cache.grid(cloud)
        for gf, matrix in zip(funcs, cache.matrices(cloud, funcs, k, p)):
            weighted_cols = _column_lp(matrix, cloud.weights, p) * (
                grid.scales**-alpha
            )
            sharp_lp = lp_norm(cloud, _sharp_from_matrix(matrix, grid.scales, alpha), p)
            finite = weighted_cols[~np.isnan(weighted_cols)]
            if sharp_lp == 0.0:
                worst_col = 1.0 if np.all(finite == 0.0) else math.inf
            else:
                worst_col = float(finite.max()) / sharp_lp if finite.size else 1.0
            perscale.offer(worst_col, gf.name, f"alpha={alpha!r},p={p!r}")
            lp = lp_norm(cloud, gf, p)
            if finite.size and sharp_lp > 0.0:
                sum_norm = _weighted_norm(finite, 1.0, p)
                r1_constant = max(r1_constant, (lp + sharp_lp) / (lp + sum_norm))
                r2_constant = max(
                    r2_constant, (lp + float(finite.max())) / (lp + sharp_lp)
                )
    return perscale.value, r1_constant, r2_constant, perscale.witnesses


def check_sobolev_embedding(
    cloud: WeightedPointCloud, funcs, cache: MatrixCache, generator: str = "?"
):
    """Estimated constant in the improved-exponent inequality.

    Compares the L^q norm of f minus its mean, q = s p/(s - k p), with the
    L^p norm of the order-k sharp maximal function. Returns None when
    k p >= s and the exponent is undefined on this cloud.
    """
    k, p = SOBOLEV_K, SOBOLEV_P
    if not k * p < cloud.s:
        return None
    q = sobolev_exponent(cloud.s, p, k)
    worst = _Worst(generator, cloud.depth)
    for gf, sharp in zip(funcs, cache.sharp_values(cloud, funcs, float(k), 1.0, k)):
        rhs = lp_norm(cloud, sharp, p)
        values = cloud.values_of(gf)
        lhs = lp_norm(cloud, values - float(np.dot(cloud.weights, values)), q)
        if rhs == 0.0:
            if lhs == 0.0:
                continue
            ratio = math.inf
        else:
            ratio = lhs / rhs
        worst.offer(ratio, gf.name, f"k={k},p={p!r},q={q!r}")
    return worst.value, worst.witnesses


def check_reverse_holder(
    cloud: WeightedPointCloud, rng: np.random.Generator, trials: int,
    window: tuple[float, float] | None = None, generator: str = "?",
):
    """Worst average-L^q over average-L^u ratio of random polynomials.

    Trial j draws a cube and a polynomial in its chart, evaluated once over
    the cube's members in batches; the ratios take ``reverse_holder_ratio``'s
    formulas and conventions, and an empty cube is skipped.
    """
    degree, width = REVHOLDER_DEGREE, len(REVHOLDER_PAIRS)
    centers, radii = _random_cubes(cloud, rng, trials, *(window or _radius_window(cloud)))
    coeffs = rng.standard_normal((trials, basis_size(cloud.ambient_dim, degree + 1)))
    ratios = np.full((trials, width), np.nan)
    cells = _cube_cells(cloud, np.empty((0, cloud.size)), degree + 1, centers, radii)
    for at, (V, w, _, mass) in cells:
        vals = np.abs((V @ coeffs[at, :, None])[..., 0])
        for i, (q, u) in enumerate(REVHOLDER_PAIRS):
            ratios[at, i] = _ratio(*(_weighted_mean(vals, w, e, mass) for e in (q, u)))
    worst = _Worst(generator, cloud.depth)
    worst.offer_max(ratios.ravel(), lambda i: (
        f"poly_deg{degree}",
        "q={!r},u={!r},t={!r}".format(*REVHOLDER_PAIRS[i % width], float(radii[i // width])),
    ))
    return worst.value, worst.witnesses


def check_ahlfors(cloud: WeightedPointCloud, samples: int, seed: int, generator: str = "?"):
    """Spread between the extreme normalized ball masses."""
    lo, hi = _radius_window(cloud)
    scales = np.geomspace(lo, hi, AHLFORS_SCALES)
    report = ahlfors_constants(cloud, samples=samples, scales=scales, rng=seed)
    witness = Witness(
        generator,
        cloud.depth,
        "-",
        f"scales={lo!r}..{hi!r},samples={samples}",
        report.ratio,
    )
    return report, witness


def _stability(families: dict) -> tuple[float, list[Witness], dict, int]:
    """Worst consecutive-depth drift over the constant families of one check.

    ``families`` maps a label to ``{generator: {depth: constant}}``; only
    generators with two or more depths take part. Returns the worst drift
    with its witness, each family's table of constants and the number of
    depth pairs compared.
    """
    worst = 1.0
    witnesses: list[Witness] = []
    tables: dict[str, dict] = {}
    compared = 0
    for label, per_gen in families.items():
        table = {
            gen: dict(sorted(by_depth.items()))
            for gen, by_depth in per_gen.items()
            if len(by_depth) >= 2
        }
        if table:
            tables[label] = table
        for gen, by_depth in table.items():
            depths = list(by_depth)
            for a, b in zip(depths, depths[1:]):
                ca, cb = by_depth[a], by_depth[b]
                compared += 1
                if not (math.isfinite(ca) and math.isfinite(cb) and ca > 0.0 and cb > 0.0):
                    ratio = math.inf
                else:
                    ratio = max(ca / cb, cb / ca)
                if ratio > worst:
                    params = f"depths={a}->{b},c_lo={ca!r},c_hi={cb!r}"
                    worst, witnesses = ratio, [Witness(gen, b, label, params, ratio)]
    return worst, witnesses, tables, compared


def _needs(cloud: WeightedPointCloud, check_funcs, sharp_funcs):
    """Every (functions, k, u) whose error matrices the checks read on a cloud."""
    needs = [(check_funcs, degree_for_sharp(POINCARE_ALPHA), 1.0)]
    k = degree_for_sharp(SHARP_ALPHA)
    needs += [(sharp_funcs, k, u) for u in SHARP_EXPONENTS]
    needs += [(check_funcs, degree_for_flat(a), EMBEDDING_P) for a in EMBEDDING_ALPHAS]
    if SOBOLEV_K * SOBOLEV_P < cloud.s:
        needs.append((check_funcs, SOBOLEV_K, 1.0))
    return needs


def _observe(config, cache, gen_index, name, cloud, window, quota, funcs, checked, sharp):
    """Run every check on one cloud, one observation per outcome.

    Yields ``(check, label, value, witnesses, evaluated)``: ``label`` is None
    for a direct check and names the constant family of a stability check;
    ``evaluated`` counts the items behind ``value``. ``funcs`` is the whole
    battery, ``checked`` and ``sharp`` the configured subsets of it.
    """
    rng = _check_rng(config.seed, _TAG_MONO, gen_index)
    worst, reg, wits, n = check_monotonicity(cloud, funcs, rng, quota, window, name)
    yield "monotonicity", None, worst, wits, n
    yield "monotonicity_regularity", "regularity", reg, [], n

    rng = _check_rng(config.seed, _TAG_POINCARE, gen_index)
    samples = config.poincare_samples
    worst, wits, n = check_poincare(cloud, checked, cache, rng, samples, window, name)
    yield "poincare_stability", "poincare", worst, wits, n

    left, right, wits = check_sharp_equivalence(cloud, sharp, cache, generator=name)
    n = len(sharp) * (len(SHARP_EXPONENTS) - 1)
    yield "sharp_equivalence_left", None, left, wits, n
    yield "sharp_equivalence_right_stability", "right", right, [], n

    perscale, r1, r2, wits = check_embedding_chain(
        cloud, checked, cache, EMBEDDING_ALPHAS, EMBEDDING_P, generator=name
    )
    n = len(checked) * len(EMBEDDING_ALPHAS)
    yield "embedding_perscale", None, perscale, wits, n
    yield "embedding_stability", "R1", r1, [], n
    yield "embedding_stability", "R2", r2, [], n

    sob = check_sobolev_embedding(cloud, checked, cache, generator=name)
    if sob is not None:
        yield "sobolev_stability", "sobolev", sob[0], sob[1], len(checked)

    rng = _check_rng(config.seed, _TAG_REVHOLDER, gen_index)
    worst, wits = check_reverse_holder(cloud, rng, config.revholder_trials, window, name)
    n = config.revholder_trials * len(REVHOLDER_PAIRS)
    yield "reverse_holder_stability", "reverse_holder", worst, wits, n

    if config.ahlfors_samples:  # no centre drawn: nothing evaluated
        seed = config.seed + _TAG_AHLFORS + gen_index
        report, wit = check_ahlfors(cloud, config.ahlfors_samples, seed, name)
        yield "ahlfors_ratio", None, report.ratio, [wit], 1


def run_all(config: RunConfig) -> list[CheckResult]:
    """Run every check over the configured clouds and aggregate verdicts."""
    budgets = config.budgets()
    clouds: list[tuple[int, str, WeightedPointCloud]] = []
    for gen_index, (gen, depths) in enumerate(config.generators):
        spec = generator_spec(gen)
        for depth in sorted(depths):
            clouds.append((gen_index, spec.name, build_cloud(spec, depth)))
    if not clouds:
        return []
    known = {tf.name for tf in battery(clouds[0][2], seed=config.seed)}
    unknown = [
        f"{field}: {sorted(set(names) - known)}"
        for field, names in (
            ("check_functions", config.check_functions),
            ("sharp_functions", config.sharp_functions),
        )
        if set(names) - known
    ]
    if unknown:
        raise OutOfRange(f"unknown function names in {'; '.join(unknown)}")

    quota = -(-config.mono_pairs // len(clouds))
    # Cube radii of every depth of a generator come from its coarsest cloud.
    windows: dict[int, tuple[float, float]] = {}
    cache = MatrixCache()
    # check -> (worst value, its witnesses, items evaluated)
    direct: dict[str, tuple[float, list[Witness], int]] = {}
    # check -> label -> generator -> depth -> constant
    constants: dict[str, dict[str, dict[str, dict[int, float]]]] = {}
    for gen_index, name, cloud in clouds:
        window = windows.setdefault(gen_index, _radius_window(cloud))
        by_name = {tf.name: sample(tf, cloud) for tf in battery(cloud, seed=config.seed)}
        checked = [by_name[n] for n in config.check_functions]
        sharp = [by_name[n] for n in config.sharp_functions]
        by_ku: dict[tuple[int, float], dict] = {}
        for funcs, k, u in _needs(cloud, checked, sharp):
            by_ku.setdefault((int(k), float(u)), {}).update((id(gf), gf) for gf in funcs)
        for (k, u), group in by_ku.items():
            cache.matrices(cloud, list(group.values()), k, u)

        funcs = list(by_name.values())
        for check, label, value, wits, evaluated in _observe(
            config, cache, gen_index, name, cloud, window, quota, funcs, checked, sharp
        ):
            # A stability constant of 0.0 rests on no item (module docstring).
            if not evaluated or label is not None and value == 0.0:
                continue
            if label is None:
                worst, worst_wits, total = direct.get(check, (value, wits, 0))
                if value > worst:
                    worst, worst_wits = value, wits
                direct[check] = (worst, worst_wits, total + evaluated)
            else:
                families = constants.setdefault(check, {})
                families.setdefault(label, {}).setdefault(name, {})[cloud.depth] = value

    results = []
    for check in sorted(DEFAULT_BUDGETS):
        if check in DIRECT_CHECKS:
            worst, wits, evaluated = direct.get(check, (math.nan, [], 0))
            meta = {"pairs": evaluated} if check == "monotonicity" else {}
        else:
            worst, wits, meta, evaluated = _stability(constants.get(check, {}))
        if not evaluated:
            worst = math.nan
        results.append(
            CheckResult(check, worst, budgets[check], tuple(wits), meta, evaluated)
        )
    return results
