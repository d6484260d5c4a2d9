"""Internal-consistency checks with estimated constants and budgets.

Every check reduces to a worst observed constant compared against a budget.
Two kinds of budgets appear: tight ones for inequalities that hold exactly
by construction (nestedness, pointwise orderings, per-scale domination),
and a factor-2 stability budget for genuinely estimated equivalence
constants, which must not drift under depth refinement of the same
generator. Cube batteries are drawn with common random numbers per
generator so that constants at different depths are comparable.
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
from .polyapprox import Polynomial, best_approx, multi_indices, reverse_holder_ratio

__all__ = [
    "Witness",
    "CheckResult",
    "RunConfig",
    "MatrixCache",
    "DEFAULT_BUDGETS",
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
    """Aggregated outcome of one named check."""

    check_name: str
    worst_constant: float
    budget: float
    witnesses: tuple[Witness, ...] = ()
    metadata: dict = field(default_factory=dict, compare=False)

    @property
    def passed(self) -> bool:
        return self.worst_constant <= self.budget


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

    def __init__(self, factor: float = 4.0):
        self.factor = factor
        self._grids: dict[int, tuple[WeightedPointCloud, ScaleGrid]] = {}
        self._matrices: dict[tuple, tuple[object, np.ndarray]] = {}

    def grid(self, cloud: WeightedPointCloud) -> ScaleGrid:
        if id(cloud) not in self._grids:
            grid = ScaleGrid.dyadic(cloud, factor=self.factor)
            self._grids[id(cloud)] = (cloud, grid)
        return self._grids[id(cloud)][1]

    def matrices(self, cloud: WeightedPointCloud, funcs, k: int, u: float) -> list:
        """One matrix per function; every missing one comes from one kernel call."""
        grid = self.grid(cloud)
        keys = [(id(cloud), id(gf), int(k), float(u)) for gf in funcs]
        missing = {key: gf for key, gf in zip(keys, funcs) if key not in self._matrices}
        if missing:
            values = np.stack([gf.values for gf in missing.values()])
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
        weights = self.grid(cloud).scales**-alpha
        with np.errstate(invalid="ignore"):
            return [
                np.nanmax(matrix * weights, axis=1)
                for matrix in self.matrices(cloud, funcs, k, u)
            ]


@dataclass(frozen=True)
class RunConfig:
    """Everything a verification run depends on, seed included."""

    generators: tuple = (
        ("cantor4", (3, 4, 5)),
        ("interval", (8, 10)),
        ("square", (3,)),
        ("carpet", (2,)),
    )
    seed: int = 0
    scale_factor: float = 4.0
    mono_pairs: int = 500
    mono_degrees: tuple = (1, 2)
    mono_exponents: tuple = (1.0, 2.0, 3.0)
    poincare_samples: int = 40
    poincare_alpha: float = 0.5
    poincare_q: float = 2.0
    sharp_alpha: float = 0.5
    sharp_exponents: tuple = (1.0, 2.0, 4.0)
    sharp_norm_p: float = 4.0
    embedding_alphas: tuple = (0.7, 1.3, 1.0)
    embedding_p: float = 2.0
    sobolev_k: int = 1
    sobolev_p: float = 1.0
    revholder_degree: int = 2
    revholder_pairs: tuple = ((4.0, 1.0), (2.0, 1.0))
    revholder_trials: int = 24
    ahlfors_samples: int = 64
    ahlfors_scales: int = 6
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
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(data) - known
        if unknown:
            raise OutOfRange(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "generators" in kwargs:
            kwargs["generators"] = tuple(
                (str(g), tuple(int(d) for d in depths))
                for g, depths in kwargs["generators"]
            )
        if "budget_overrides" in kwargs:
            ov = kwargs["budget_overrides"]
            items = ov.items() if isinstance(ov, dict) else ov
            kwargs["budget_overrides"] = tuple(
                (str(k), float(v)) for k, v in items
            )
        for name in (
            "mono_degrees",
            "mono_exponents",
            "sharp_exponents",
            "embedding_alphas",
            "check_functions",
            "sharp_functions",
        ):
            if name in kwargs:
                kwargs[name] = tuple(kwargs[name])
        if "revholder_pairs" in kwargs:
            kwargs["revholder_pairs"] = tuple(
                (float(a), float(b)) for a, b in kwargs["revholder_pairs"]
            )
        return cls(**kwargs)

    def budgets(self) -> dict[str, float]:
        out = dict(DEFAULT_BUDGETS)
        out.update({k: float(v) for k, v in self.budget_overrides})
        return out


def _check_rng(seed: int, tag: int, gen_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag, gen_index]))


def _radius_window(cloud: WeightedPointCloud, factor: float) -> tuple[float, float]:
    """Log-uniform sampling window for cube half-sides on this cloud."""
    lo = factor * cloud.resolution_scale
    hi = max(cloud.diam / 4.0, 2.0 * lo)
    hi = min(hi, 0.99 * cloud.diam)
    if hi <= lo:
        hi = 1.5 * lo
    return lo, hi


def _snap_centers(cloud: WeightedPointCloud, fracs: np.ndarray) -> np.ndarray:
    """Map unit-box fractions to the nearest actual cloud points."""
    lo, hi = cloud.bbox
    targets = lo + fracs * (hi - lo)
    d2 = ((targets[:, None, :] - cloud.points[None, :, :]) ** 2).sum(axis=2)
    return cloud.points[np.argmin(d2, axis=1)]


def _log_interp(lo: float, hi: float, frac: np.ndarray) -> np.ndarray:
    return np.exp(np.log(lo) + frac * (np.log(hi) - np.log(lo)))


def _residual_norm(fv, w, poly, pts, u):
    r = fv - poly(pts)
    return float(np.sum(w * np.abs(r) ** u) ** (1.0 / u))


def check_monotonicity(
    cloud: WeightedPointCloud,
    funcs,
    rng: np.random.Generator,
    pairs: int,
    window: tuple[float, float] | None = None,
    degrees: tuple = (1, 2),
    exponents: tuple = (1.0, 2.0, 3.0),
    generator: str = "?",
):
    """Nested cubes: the raw error on the inner cube never exceeds the outer.

    Returns (worst_ratio, regularity_constant, witnesses, evaluated). The
    regularity constant is the worst ratio of measure-normalized errors,
    which is only controlled by the doubling behaviour of the measure and
    is tracked for depth stability rather than against a tight budget.
    """
    if window is None:
        window = _radius_window(cloud, 4.0)
    lo, hi = window
    n = cloud.ambient_dim
    draws = 3 * pairs
    center_fracs = rng.random((draws, n))
    inner_fracs = rng.random(draws)
    expand_fracs = rng.random(draws)
    offset_fracs = rng.random((draws, n))
    centers = _snap_centers(cloud, center_fracs)
    inner_hi = max(hi / 2.2, lo * 1.01)
    inner_r = _log_interp(lo, inner_hi, inner_fracs)
    outer_r = inner_r * (1.5 + 0.7 * expand_fracs)

    worst, regularity = 0.0, 0.0
    witnesses: list[Witness] = []
    evaluated = 0
    for j in range(draws):
        if evaluated >= pairs:
            break
        gf = funcs[j % len(funcs)]
        k = degrees[j % len(degrees)]
        u = exponents[j % len(exponents)]
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
        candidate = _residual_norm(
            gf.values[idx_in],
            cloud.weights[idx_in],
            res_out.minimizer,
            cloud.points[idx_in],
            u,
        )
        value_in = min(res_in.value, candidate)
        evaluated += 1
        if res_out.value == 0.0:
            ratio = 1.0 if value_in == 0.0 else math.inf
        else:
            ratio = value_in / res_out.value
        if ratio > worst:
            worst = ratio
            witnesses = [
                Witness(
                    generator,
                    cloud.depth,
                    gf.name,
                    f"k={k},u={u!r},r_in={float(inner_r[j])!r},"
                    f"r_out={float(outer_r[j])!r}",
                    ratio,
                )
            ]
        if value_in > 0.0 and res_out.value > 0.0:
            _, mass_out = restrict(cloud, outer)
            reg = (value_in / mass_in ** (1.0 / u)) / (
                res_out.value / mass_out ** (1.0 / u)
            )
            regularity = max(regularity, reg)
    return worst, regularity, witnesses, evaluated


def check_poincare(
    cloud: WeightedPointCloud,
    funcs,
    cache: MatrixCache,
    rng: np.random.Generator,
    samples: int,
    alpha: float,
    q: float,
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
    if window is None:
        window = _radius_window(cloud, 4.0)
    lo, hi = window
    sigma = poincare_sigma(q, alpha, cloud.s)
    k = degree_for_sharp(alpha)
    center_fracs = rng.random((3 * samples, cloud.ambient_dim))
    radius_fracs = rng.random(3 * samples)
    centers = _snap_centers(cloud, center_fracs)
    radii = _log_interp(lo, hi, radius_fracs)

    worst = 0.0
    witnesses: list[Witness] = []
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
        if ratio > worst:
            worst = ratio
            witnesses = [
                Witness(
                    generator,
                    cloud.depth,
                    gf.name,
                    f"alpha={alpha!r},q={q!r},t={float(radii[j])!r}",
                    ratio,
                )
            ]
    return worst, witnesses, evaluated


def check_sharp_equivalence(
    cloud: WeightedPointCloud,
    funcs,
    cache: MatrixCache,
    alpha: float,
    exponents: tuple,
    norm_p: float,
    generator: str = "?",
):
    """Pointwise ordering of sharp maximal functions in the inner exponent.

    Larger inner exponents dominate pointwise (power-mean monotonicity), an
    inequality the implementation reproduces essentially exactly; the
    reverse comparison only holds on average, so its constant is the ratio
    of L^norm_p norms and is tracked for stability.
    """
    k = degree_for_sharp(alpha)
    us = tuple(sorted(float(u) for u in exponents))
    values = {}
    for u in us:
        for gf, v in zip(funcs, cache.sharp_values(cloud, funcs, alpha, u, k)):
            values[(gf.name, u)] = v
    left_worst = 0.0
    left_witnesses: list[Witness] = []
    right_constant = 0.0
    for gf in funcs:
        for u_lo, u_hi in zip(us, us[1:]):
            v_lo = values[(gf.name, u_lo)]
            v_hi = values[(gf.name, u_hi)]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(
                    v_hi > 0.0, v_lo / v_hi, np.where(v_lo > 0.0, np.inf, 1.0)
                )
            r = float(ratios.max())
            if r > left_worst:
                left_worst = r
                left_witnesses = [
                    Witness(
                        generator,
                        cloud.depth,
                        gf.name,
                        f"alpha={alpha!r},u_lo={u_lo!r},u_hi={u_hi!r}",
                        r,
                    )
                ]
            hi_norm = lp_norm(cloud, v_hi, norm_p)
            lo_norm = lp_norm(cloud, v_lo, norm_p)
            if lo_norm > 0.0:
                right_constant = max(right_constant, hi_norm / lo_norm)
    return left_worst, right_constant, left_witnesses


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
    perscale_worst = 0.0
    perscale_witnesses: list[Witness] = []
    r1_constant = 0.0
    r2_constant = 0.0
    for alpha in alphas:
        k = degree_for_flat(alpha)
        grid = cache.grid(cloud)
        for gf, matrix in zip(funcs, cache.matrices(cloud, funcs, k, p)):
            weighted_cols = _column_lp(matrix, cloud.weights, p) * (
                grid.scales**-alpha
            )
            with np.errstate(invalid="ignore"):
                sharp_vals = np.nanmax(matrix * grid.scales**-alpha, axis=1)
            sharp_lp = lp_norm(cloud, sharp_vals, p)
            finite = weighted_cols[~np.isnan(weighted_cols)]
            if sharp_lp == 0.0:
                worst_col = 1.0 if np.all(finite == 0.0) else math.inf
            else:
                worst_col = float(finite.max()) / sharp_lp if finite.size else 1.0
            if worst_col > perscale_worst:
                perscale_worst = worst_col
                perscale_witnesses = [
                    Witness(
                        generator,
                        cloud.depth,
                        gf.name,
                        f"alpha={alpha!r},p={p!r}",
                        worst_col,
                    )
                ]
            lp = lp_norm(cloud, gf, p)
            if finite.size and sharp_lp > 0.0:
                sum_norm = float(np.sum(finite**p) ** (1.0 / p))
                r1_constant = max(r1_constant, (lp + sharp_lp) / (lp + sum_norm))
                r2_constant = max(
                    r2_constant, (lp + float(finite.max())) / (lp + sharp_lp)
                )
    return perscale_worst, r1_constant, r2_constant, perscale_witnesses


def check_sobolev_embedding(
    cloud: WeightedPointCloud,
    funcs,
    cache: MatrixCache,
    k: int,
    p: float,
    generator: str = "?",
):
    """Estimated constant in the improved-exponent inequality.

    Compares the L^q norm of f minus its mean, q = s p/(s - k p), with the
    L^p norm of the order-k sharp maximal function. Returns None when
    k p >= s and the exponent is undefined on this cloud.
    """
    if not k * p < cloud.s:
        return None
    q = sobolev_exponent(cloud.s, p, k)
    worst = 0.0
    witnesses: list[Witness] = []
    for gf, sharp in zip(funcs, cache.sharp_values(cloud, funcs, float(k), 1.0, k)):
        rhs = lp_norm(cloud, sharp, p)
        mean = float(np.dot(cloud.weights, gf.values))
        lhs = lp_norm(cloud, gf.values - mean, q)
        if rhs == 0.0:
            if lhs == 0.0:
                continue
            ratio = math.inf
        else:
            ratio = lhs / rhs
        if ratio > worst:
            worst = ratio
            witnesses = [
                Witness(
                    generator,
                    cloud.depth,
                    gf.name,
                    f"k={k},p={p!r},q={q!r}",
                    ratio,
                )
            ]
    return worst, witnesses


def check_reverse_holder(
    cloud: WeightedPointCloud,
    rng: np.random.Generator,
    degree: int,
    qu_pairs: tuple,
    trials: int,
    window: tuple[float, float] | None = None,
    generator: str = "?",
):
    """Worst average-L^q over average-L^u ratio of random polynomials."""
    if window is None:
        window = _radius_window(cloud, 4.0)
    lo, hi = window
    n = cloud.ambient_dim
    exps = np.asarray(multi_indices(n, degree), dtype=int)
    center_fracs = rng.random((trials, n))
    radius_fracs = rng.random(trials)
    coeffs = rng.standard_normal((trials, exps.shape[0]))
    centers = _snap_centers(cloud, center_fracs)
    radii = _log_interp(lo, hi, radius_fracs)

    worst = 0.0
    witnesses: list[Witness] = []
    for j in range(trials):
        cube = Cube(centers[j], float(radii[j]))
        poly = Polynomial(n, degree, exps, coeffs[j], cube.center, cube.half_side)
        for q, u in qu_pairs:
            try:
                ratio = reverse_holder_ratio(cloud, cube, poly, q, u)
            except EmptyCube:
                continue
            if ratio > worst:
                worst = ratio
                witnesses = [
                    Witness(
                        generator,
                        cloud.depth,
                        f"poly_deg{degree}",
                        f"q={q!r},u={u!r},t={float(radii[j])!r}",
                        ratio,
                    )
                ]
    return worst, witnesses


def check_ahlfors(
    cloud: WeightedPointCloud,
    samples: int,
    nscales: int,
    seed: int,
    generator: str = "?",
):
    """Spread between the extreme normalized ball masses."""
    lo, hi = _radius_window(cloud, 4.0)
    scales = np.geomspace(lo, hi, nscales)
    report = ahlfors_constants(cloud, samples=samples, scales=scales, rng=seed)
    witness = Witness(
        generator,
        cloud.depth,
        "-",
        f"scales={lo!r}..{hi!r},samples={samples}",
        report.ratio,
    )
    return report, witness


def _stability(per_gen: dict) -> tuple[float, list[Witness], dict]:
    """Worst consecutive-depth drift of a per-generator constant family."""
    worst = 1.0
    witnesses: list[Witness] = []
    table: dict[str, dict[int, float]] = {}
    for gen, by_depth in per_gen.items():
        table[gen] = {d: c for d, c in sorted(by_depth.items())}
        depths = sorted(by_depth)
        for a, b in zip(depths, depths[1:]):
            ca, cb = by_depth[a], by_depth[b]
            if not (
                math.isfinite(ca) and math.isfinite(cb) and ca > 0.0 and cb > 0.0
            ):
                ratio = math.inf
            else:
                ratio = max(ca / cb, cb / ca)
            if ratio > worst:
                worst = ratio
                witnesses = [
                    Witness(
                        gen,
                        b,
                        "-",
                        f"depths={a}->{b},c_lo={ca!r},c_hi={cb!r}",
                        ratio,
                    )
                ]
    return worst, witnesses, {"constants": table}


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

    nclouds = len(clouds)
    mono_quota = max(1, -(-config.mono_pairs // nclouds))
    windows: dict[int, tuple[float, float]] = {}
    for gen_index, name, cloud in clouds:
        if gen_index not in windows:
            windows[gen_index] = _radius_window(cloud, config.scale_factor)

    cache = MatrixCache(factor=config.scale_factor)
    mono_worst, mono_evaluated = 0.0, 0
    mono_wits: list[Witness] = []
    reg_per_gen: dict[str, dict[int, float]] = {}
    poin_per_gen: dict[str, dict[int, float]] = {}
    right_per_gen: dict[str, dict[int, float]] = {}
    embed_r1_per_gen: dict[str, dict[int, float]] = {}
    embed_r2_per_gen: dict[str, dict[int, float]] = {}
    sobolev_per_gen: dict[str, dict[int, float]] = {}
    rev_per_gen: dict[str, dict[int, float]] = {}
    left_worst = 0.0
    left_wits: list[Witness] = []
    perscale_worst = 0.0
    perscale_wits: list[Witness] = []
    ahlfors_worst = 0.0
    ahlfors_wits: list[Witness] = []

    for gen_index, name, cloud in clouds:
        window = windows[gen_index]
        funcs_by_name = {
            tf.name: sample(tf, cloud) for tf in battery(cloud, seed=config.seed)
        }
        all_funcs = list(funcs_by_name.values())
        check_funcs = [funcs_by_name[n] for n in config.check_functions]
        sharp_funcs = [funcs_by_name[n] for n in config.sharp_functions]

        worst, reg, wits, evaluated = check_monotonicity(
            cloud,
            all_funcs,
            _check_rng(config.seed, _TAG_MONO, gen_index),
            mono_quota,
            window,
            config.mono_degrees,
            config.mono_exponents,
            generator=name,
        )
        mono_evaluated += evaluated
        if worst > mono_worst:
            mono_worst, mono_wits = worst, wits
        reg_per_gen.setdefault(name, {})[cloud.depth] = reg

        worst, wits, _ = check_poincare(
            cloud,
            check_funcs,
            cache,
            _check_rng(config.seed, _TAG_POINCARE, gen_index),
            config.poincare_samples,
            config.poincare_alpha,
            config.poincare_q,
            window,
            generator=name,
        )
        poin_per_gen.setdefault(name, {})[cloud.depth] = worst

        left, right, wits = check_sharp_equivalence(
            cloud,
            sharp_funcs,
            cache,
            config.sharp_alpha,
            config.sharp_exponents,
            config.sharp_norm_p,
            generator=name,
        )
        if left > left_worst:
            left_worst, left_wits = left, wits
        right_per_gen.setdefault(name, {})[cloud.depth] = right

        perscale, r1, r2, wits = check_embedding_chain(
            cloud,
            check_funcs,
            cache,
            config.embedding_alphas,
            config.embedding_p,
            generator=name,
        )
        if perscale > perscale_worst:
            perscale_worst, perscale_wits = perscale, wits
        embed_r1_per_gen.setdefault(name, {})[cloud.depth] = r1
        embed_r2_per_gen.setdefault(name, {})[cloud.depth] = r2

        sob = check_sobolev_embedding(
            cloud,
            check_funcs,
            cache,
            config.sobolev_k,
            config.sobolev_p,
            generator=name,
        )
        if sob is not None:
            sobolev_per_gen.setdefault(name, {})[cloud.depth] = sob[0]

        worst, wits = check_reverse_holder(
            cloud,
            _check_rng(config.seed, _TAG_REVHOLDER, gen_index),
            config.revholder_degree,
            config.revholder_pairs,
            config.revholder_trials,
            window,
            generator=name,
        )
        rev_per_gen.setdefault(name, {})[cloud.depth] = worst

        report, wit = check_ahlfors(
            cloud,
            config.ahlfors_samples,
            config.ahlfors_scales,
            config.seed + _TAG_AHLFORS + gen_index,
            generator=name,
        )
        if report.ratio > ahlfors_worst:
            ahlfors_worst, ahlfors_wits = report.ratio, [wit]

    results = [
        CheckResult(
            "ahlfors_ratio",
            ahlfors_worst,
            budgets["ahlfors_ratio"],
            tuple(ahlfors_wits),
        ),
        CheckResult(
            "embedding_perscale",
            perscale_worst,
            budgets["embedding_perscale"],
            tuple(perscale_wits),
        ),
        CheckResult(
            "monotonicity",
            mono_worst,
            budgets["monotonicity"],
            tuple(mono_wits),
            {"pairs": mono_evaluated},
        ),
        CheckResult(
            "sharp_equivalence_left",
            left_worst,
            budgets["sharp_equivalence_left"],
            tuple(left_wits),
        ),
    ]
    stability_families = [
        ("embedding_stability", (("R1", embed_r1_per_gen), ("R2", embed_r2_per_gen))),
        ("monotonicity_regularity", (("regularity", reg_per_gen),)),
        ("poincare_stability", (("poincare", poin_per_gen),)),
        ("reverse_holder_stability", (("reverse_holder", rev_per_gen),)),
        ("sharp_equivalence_right_stability", (("right", right_per_gen),)),
        ("sobolev_stability", (("sobolev", sobolev_per_gen),)),
    ]
    for check_name, families in stability_families:
        worst = -math.inf
        wits: list[Witness] = []
        meta: dict = {}
        found = False
        for label, per_gen in families:
            multi = {g: d for g, d in per_gen.items() if len(d) >= 2}
            if not multi:
                continue
            found = True
            fam_worst, fam_wits, fam_meta = _stability(multi)
            meta[label] = fam_meta["constants"]
            if fam_worst > worst:
                worst = fam_worst
                wits = [
                    Witness(w.generator, w.depth, label, w.params, w.value)
                    for w in fam_wits
                ]
        if not found:
            continue
        results.append(
            CheckResult(check_name, worst, budgets[check_name], tuple(wits), meta)
        )
    return sorted(results, key=lambda r: r.check_name)
