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
(k, u), so the checks only hit the cache. ``_observe`` then calls each
``check_*`` and yields observations (check, label, value, witnesses,
evaluated); ``label`` is None for a direct check and names the constant
family of a stability check. One reduction follows: the worst value of each
direct check, ``_stability`` for each stability check. An observation that
evaluated nothing takes no part in a verdict; a check left with none is NOT
EVALUATED (``evaluated == 0``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyCube, OutOfRange, RankDeficient, TooFewPoints
from .functions import battery, sample
from .geometry import Cube, restrict
# approx_error_matrix stays importable here: bench/layers.py wraps it by name.
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
from .polyapprox import (
    Polynomial,
    _weighted_norm,
    best_approx,
    multi_indices,
    reverse_holder_ratio,
)
from .rankspace import CHUNK_ELEMS

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
        return [
            _sharp_from_matrix(matrix, scales, alpha)
            for matrix in self.matrices(cloud, funcs, k, u)
        ]


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
            except TypeError as exc:
                raise OutOfRange(f"config field {name!r}: {exc}") from None
        return cls(**kwargs)

    def budgets(self) -> dict[str, float]:
        out = dict(DEFAULT_BUDGETS)
        out.update({k: float(v) for k, v in self.budget_overrides})
        return out


def _conform(value, like, record: bool = False):
    """``value`` in the shape of ``like``, a config field's default.

    A tuple takes a JSON list and returns a tuple: a list of any length
    whose items take the shape of the default's first item, and inside that
    a record of the default's own length. A float takes any number, an int
    an int, a str a str; no bool passes for a number.
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

    Targets are snapped in chunks, each [chunk, N, n] difference at most
    CHUNK_ELEMS elements, so memory stays flat in the draw count.
    """
    box_lo, box_hi = cloud.bbox
    targets = box_lo + rng.random((count, cloud.ambient_dim)) * (box_hi - box_lo)
    nearest = np.empty(count, dtype=np.intp)
    step = max(1, CHUNK_ELEMS // cloud.points.size)
    for i in range(0, count, step):
        d2 = ((targets[i : i + step, None, :] - cloud.points[None, :, :]) ** 2).sum(axis=2)
        nearest[i : i + step] = np.argmin(d2, axis=1)
    radii = np.exp(np.log(lo) + rng.random(count) * (np.log(hi) - np.log(lo)))
    return cloud.points[nearest], radii


def check_monotonicity(
    cloud: WeightedPointCloud,
    funcs,
    rng: np.random.Generator,
    pairs: int,
    window: tuple[float, float] | None = None,
    generator: str = "?",
):
    """Nested cubes: the raw error on the inner cube never exceeds the outer.

    Returns (worst_ratio, regularity_constant, witnesses, evaluated). The
    regularity constant is the worst ratio of measure-normalized errors,
    which is only controlled by the doubling behaviour of the measure and
    is tracked for depth stability rather than against a tight budget.
    """
    lo, hi = window or _radius_window(cloud)
    draws = 3 * pairs
    centers, inner_r = _random_cubes(cloud, rng, draws, lo, max(hi / 2.2, lo * 1.01))
    expand_fracs = rng.random(draws)
    offset_fracs = rng.random((draws, cloud.ambient_dim))
    outer_r = inner_r * (1.5 + 0.7 * expand_fracs)

    worst, regularity = _Worst(generator, cloud.depth), 0.0
    evaluated = 0
    for j in range(draws):
        if evaluated >= pairs:
            break
        gf = funcs[j % len(funcs)]
        k = MONO_DEGREES[j % len(MONO_DEGREES)]
        u = MONO_EXPONENTS[j % len(MONO_EXPONENTS)]
        c_out = centers[j]
        shift = (2.0 * offset_fracs[j] - 1.0) * (outer_r[j] - inner_r[j])
        outer = Cube(c_out, float(outer_r[j]))
        inner = Cube(c_out + shift, float(inner_r[j]))
        try:
            res_out = best_approx(cloud, outer, gf, k, u)
            res_in = best_approx(cloud, inner, gf, k, u)
        except (TooFewPoints, RankDeficient):
            continue
        idx_in, mass_in = restrict(cloud, inner)
        candidate = _weighted_norm(
            cloud.values_of(gf)[idx_in] - res_out.minimizer(cloud.points[idx_in]),
            cloud.weights[idx_in],
            u,
        )
        value_in = min(res_in.value, candidate)
        evaluated += 1
        if res_out.value == 0.0:
            ratio = 1.0 if value_in == 0.0 else math.inf
        else:
            ratio = value_in / res_out.value
        params = f"k={k},u={u!r},r_in={float(inner_r[j])!r},r_out={float(outer_r[j])!r}"
        worst.offer(ratio, gf.name, params)
        if value_in > 0.0 and res_out.value > 0.0:
            reg = (value_in / mass_in ** (1.0 / u)) / res_out.normalized
            regularity = max(regularity, reg)
    return worst.value, regularity, worst.witnesses, evaluated


def check_poincare(
    cloud: WeightedPointCloud,
    funcs,
    cache: MatrixCache,
    rng: np.random.Generator,
    samples: int,
    window: tuple[float, float] | None = None,
    generator: str = "?",
):
    """Estimated constant in the local error vs averaged-sharp inequality.

    For cubes Q of half-side t the measure-normalized local error in L^q is
    compared with t**alpha times the L^sigma average of the sharp maximal
    function over the doubled cube, 1/sigma = 1/q + alpha/s.
    """
    if not funcs:
        return 0.0, [], 0
    alpha, q = POINCARE_ALPHA, POINCARE_Q
    sigma = poincare_sigma(q, alpha, cloud.s)
    k = degree_for_sharp(alpha)
    centers, radii = _random_cubes(
        cloud, rng, 3 * samples, *(window or _radius_window(cloud))
    )

    worst = _Worst(generator, cloud.depth)
    evaluated = 0
    sharp_by_name = dict(
        zip((gf.name for gf in funcs), cache.sharp_values(cloud, funcs, alpha, 1.0, k))
    )
    for j in range(3 * samples):
        if evaluated >= samples:
            break
        gf = funcs[j % len(funcs)]
        cube = Cube(centers[j], float(radii[j]))
        try:
            res = best_approx(cloud, cube, gf, k, q)
        except (TooFewPoints, RankDeficient):
            continue
        idx2, mass2 = restrict(cloud, cube.scaled(2.0))
        sharp = sharp_by_name[gf.name][idx2]
        avg = float(
            (np.sum(cloud.weights[idx2] * sharp**sigma) / mass2) ** (1.0 / sigma)
        )
        rhs = cube.half_side**alpha * avg
        evaluated += 1
        if rhs == 0.0:
            if res.normalized == 0.0:
                continue
            ratio = math.inf
        else:
            ratio = res.normalized / rhs
        worst.offer(ratio, gf.name, f"alpha={alpha!r},q={q!r},t={float(radii[j])!r}")
    return worst.value, worst.witnesses, evaluated


def check_sharp_equivalence(
    cloud: WeightedPointCloud,
    funcs,
    cache: MatrixCache,
    generator: str = "?",
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
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(
                    v_hi > 0.0, v_lo / v_hi, np.where(v_lo > 0.0, np.inf, 1.0)
                )
            params = f"alpha={alpha!r},u_lo={u_lo!r},u_hi={u_hi!r}"
            left.offer(float(ratios.max()), gf.name, params)
            hi_norm = lp_norm(cloud, v_hi, SHARP_NORM_P)
            lo_norm = lp_norm(cloud, v_lo, SHARP_NORM_P)
            if lo_norm > 0.0:
                right_constant = max(right_constant, hi_norm / lo_norm)
    return left.value, right_constant, left.witnesses


def check_embedding_chain(
    cloud: WeightedPointCloud,
    funcs,
    cache: MatrixCache,
    alphas: tuple,
    p: float,
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
                sum_norm = float(np.sum(finite**p) ** (1.0 / p))
                r1_constant = max(r1_constant, (lp + sharp_lp) / (lp + sum_norm))
                r2_constant = max(
                    r2_constant, (lp + float(finite.max())) / (lp + sharp_lp)
                )
    return perscale.value, r1_constant, r2_constant, perscale.witnesses


def check_sobolev_embedding(
    cloud: WeightedPointCloud,
    funcs,
    cache: MatrixCache,
    generator: str = "?",
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
    cloud: WeightedPointCloud,
    rng: np.random.Generator,
    trials: int,
    window: tuple[float, float] | None = None,
    generator: str = "?",
):
    """Worst average-L^q over average-L^u ratio of random polynomials."""
    n, degree = cloud.ambient_dim, REVHOLDER_DEGREE
    exps = np.asarray(multi_indices(n, degree), dtype=int)
    centers, radii = _random_cubes(
        cloud, rng, trials, *(window or _radius_window(cloud))
    )
    coeffs = rng.standard_normal((trials, exps.shape[0]))

    worst = _Worst(generator, cloud.depth)
    for j in range(trials):
        cube = Cube(centers[j], float(radii[j]))
        poly = Polynomial(n, degree, exps, coeffs[j], cube.center, cube.half_side)
        for q, u in REVHOLDER_PAIRS:
            try:
                ratio = reverse_holder_ratio(cloud, cube, poly, q, u)
            except EmptyCube:
                continue
            worst.offer(ratio, f"poly_deg{degree}", f"q={q!r},u={u!r},t={float(radii[j])!r}")
    return worst.value, worst.witnesses


def check_ahlfors(
    cloud: WeightedPointCloud,
    samples: int,
    seed: int,
    generator: str = "?",
):
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
                if not (
                    math.isfinite(ca) and math.isfinite(cb) and ca > 0.0 and cb > 0.0
                ):
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
    worst, reg, wits, n = check_monotonicity(
        cloud,
        funcs,
        _check_rng(config.seed, _TAG_MONO, gen_index),
        quota,
        window,
        generator=name,
    )
    yield "monotonicity", None, worst, wits, n
    yield "monotonicity_regularity", "regularity", reg, [], n

    worst, wits, n = check_poincare(
        cloud,
        checked,
        cache,
        _check_rng(config.seed, _TAG_POINCARE, gen_index),
        config.poincare_samples,
        window,
        generator=name,
    )
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

    worst, wits = check_reverse_holder(
        cloud,
        _check_rng(config.seed, _TAG_REVHOLDER, gen_index),
        config.revholder_trials,
        window,
        generator=name,
    )
    n = config.revholder_trials * len(REVHOLDER_PAIRS)
    yield "reverse_holder_stability", "reverse_holder", worst, wits, n

    report, wit = check_ahlfors(
        cloud,
        config.ahlfors_samples,
        config.seed + _TAG_AHLFORS + gen_index,
        generator=name,
    )
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

    quota = max(1, -(-config.mono_pairs // len(clouds)))
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
            if not evaluated:
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
