"""The per-cube check loops that preceded the batched checks.

Kept verbatim as the reference ``frakspace.verify.check_monotonicity``,
``check_poincare`` and ``check_reverse_holder`` are pinned to: each cube a
``restrict`` scan and one ``best_approx`` (or ``reverse_holder_ratio``)
call, in draw order, with an early exit once enough cubes evaluate. Their
return values are the loops' own.
"""
from __future__ import annotations

import math

import numpy as np

from frakspace.errors import EmptyCube, RankDeficient, TooFewPoints
from frakspace.geometry import Cube, restrict
from frakspace.maximal import degree_for_sharp
from frakspace.measure import WeightedPointCloud
from frakspace.polyapprox import (
    Polynomial,
    _weighted_norm,
    best_approx,
    multi_indices,
    reverse_holder_ratio,
)
from frakspace.verify import (
    MONO_DEGREES,
    MONO_EXPONENTS,
    POINCARE_ALPHA,
    POINCARE_Q,
    REVHOLDER_DEGREE,
    REVHOLDER_PAIRS,
    MatrixCache,
    _radius_window,
    _random_cubes,
    _Worst,
    poincare_sigma,
)


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
