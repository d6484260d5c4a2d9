import math

import numpy as np
import pytest

import frakspace as fs
import oracles
import reference_matrix


def rough_sample(cloud, seed=5):
    """A function with structure at every scale, nowhere locally polynomial."""
    rng = np.random.default_rng(seed)
    x = cloud.points
    vals = np.abs(x[:, 0] - 0.37) ** 0.6 + 0.3 * np.sin(9.0 * x.sum(axis=1))
    vals += 0.05 * rng.standard_normal(cloud.size)
    return vals


class TestDegreeConventions:
    def test_sharp_convention(self):
        assert fs.degree_for_sharp(0.3) == 1
        assert fs.degree_for_sharp(1.0) == 1
        assert fs.degree_for_sharp(1.5) == 2
        assert fs.degree_for_sharp(2.0) == 2

    def test_flat_convention(self):
        assert fs.degree_for_flat(0.3) == 1
        assert fs.degree_for_flat(1.0) == 2
        assert fs.degree_for_flat(1.5) == 2
        assert fs.degree_for_flat(2.0) == 3

    def test_conventions_differ_only_at_integers(self):
        for alpha in (0.3, 0.7, 1.2, 2.6):
            assert fs.degree_for_sharp(alpha) == fs.degree_for_flat(alpha)
        for alpha in (1.0, 2.0, 3.0):
            assert fs.degree_for_flat(alpha) == fs.degree_for_sharp(alpha) + 1

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(fs.NonpositiveAlpha):
            fs.degree_for_sharp(0.0)
        with pytest.raises(fs.NonpositiveAlpha):
            fs.degree_for_flat(-1.0)

    def test_unknown_variant_rejected(self, interval6):
        with pytest.raises(fs.OutOfRange):
            fs.sharp_maximal(interval6, np.ones(64), 0.5, variant="round")


class TestScaleGrid:
    def test_interval_depth_six_levels(self, interval6):
        grid = fs.ScaleGrid.dyadic(interval6)
        assert list(grid.levels) == [0, 1, 2, 3, 4]
        assert np.allclose(grid.scales, interval6.diam * 2.0 ** -np.arange(5.0))
        assert len(grid) == 5

    def test_finer_than_admissible_rejected(self, interval6):
        with pytest.raises(fs.ScaleTooFine):
            fs.ScaleGrid.dyadic(interval6, nu_max=5)

    def test_window_restriction(self, interval6):
        grid = fs.ScaleGrid.dyadic(interval6, nu_min=2, nu_max=3)
        assert list(grid.levels) == [2, 3]

    def test_empty_window_rejected(self, interval6):
        with pytest.raises(fs.ScaleTooFine):
            fs.ScaleGrid.dyadic(interval6, nu_min=5)

    def test_scales_must_decrease(self):
        with pytest.raises(fs.OutOfRange):
            fs.ScaleGrid(
                scales=np.array([0.5, 1.0]),
                levels=np.array([1, 0]),
                diam=1.0,
                factor=4.0,
            )

    def test_looser_factor_allows_deeper_levels(self, interval6):
        assert len(fs.ScaleGrid.dyadic(interval6, factor=2.0)) == 6

    @pytest.mark.parametrize("scales", [[np.nan], [-0.5], [0.5, -0.5], [0.5, 0.0], [np.inf]])
    def test_scales_must_be_finite_and_positive(self, scales):
        # A NaN or negative scale once sent the cube search into an endless
        # loop, or hl_maximal into an IndexError.
        with pytest.raises(fs.OutOfRange):
            fs.ScaleGrid(
                scales=np.array(scales),
                levels=np.arange(len(scales)),
                diam=1.0,
                factor=4.0,
            )

    @pytest.mark.parametrize("factor", [np.nan, -1.0, 0.0, np.inf])
    def test_factor_must_be_finite_and_positive(self, interval6, factor):
        with pytest.raises(fs.OutOfRange):
            fs.ScaleGrid.dyadic(interval6, factor=factor)


class TestGridFunction:
    def test_wrong_length_rejected(self, dust3):
        with pytest.raises(fs.OutOfRange):
            fs.GridFunction(dust3, np.ones(63))

    def test_non_finite_rejected(self, dust3):
        vals = np.ones(64)
        vals[10] = np.nan
        with pytest.raises(fs.NonFiniteValue):
            fs.GridFunction(dust3, vals)

    def test_values_read_only(self, dust3):
        gf = fs.GridFunction(dust3, np.ones(64))
        with pytest.raises(ValueError):
            gf.values[0] = 2.0


class TestAgainstBruteForce:
    @pytest.mark.parametrize("u", [1.0, 2.0, 4.0])
    def test_sharp_matches_exhaustive_scan(self, dust3, interval6, u):
        for cloud in (dust3, interval6):
            vals = rough_sample(cloud)
            grid = fs.ScaleGrid.dyadic(cloud)
            got = fs.sharp_maximal(cloud, vals, 0.5, u=u, grid=grid).values
            want = oracles.sharp_maximal_constant_fit(
                cloud, vals, 0.5, u, grid.scales
            )
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-6

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["dust3", "cantor4_d4"])
    def test_constant_fit_matrices_are_exact(self, request, name):
        # All 16 battery functions, sigmoid_steep included: its cells with
        # errors far below max|f| are where smoothed reweighting stalls.
        cloud = request.getfixturevalue(name)
        vals = np.stack([fs.sample(tf, cloud).values for tf in fs.battery(cloud)])
        grid = fs.ScaleGrid.dyadic(cloud)
        floor = 2.0 * fs.polyapprox.CLAMP_REL * np.abs(vals).max(axis=1)[:, None, None]
        for u in (1.5, 3.0, 4.0):
            got = fs.error_matrices(cloud, vals, 1, u, grid)
            want = oracles.constant_fit_matrix(cloud, vals, u, grid.scales)
            assert np.array_equal(np.isnan(got), np.isnan(want)), u
            gap = np.abs(got - want) - 1e-9 * np.abs(want) - floor
            assert np.nanmax(gap) <= 0.0, (u, float(np.nanmax(gap)))

    def test_newton_step_cap_reports_an_upper_bound(self, dust3, monkeypatch):
        # Pairs cut off by the step cap report the error at their current
        # constant: never below the minimum, and a NaN only where it was.
        monkeypatch.setattr(fs.polyapprox, "NEWTON_MAX_ITER", 1)
        vals = rough_sample(dust3)[None]
        grid = fs.ScaleGrid.dyadic(dust3)
        got = fs.error_matrices(dust3, vals, 1, 3.0, grid)
        want = oracles.constant_fit_matrix(dust3, vals, 3.0, grid.scales)
        floor = 2.0 * fs.polyapprox.CLAMP_REL * np.max(np.abs(vals))
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmin(got - want * (1.0 - 1e-12)) >= -floor
        assert np.nanmax(got - want) > 1e-6 * np.nanmax(want)

    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_hl_matches_exhaustive_scan(self, dust3, interval6, cantor4_d4, sigma):
        # cantor4 and the gapped IFS have groups of many centres sharing one
        # cube, whose average is computed once and copied.
        gapped = build("gapped", 4)
        for cloud in (dust3, interval6, cantor4_d4, gapped):
            vals = rough_sample(cloud, seed=7)
            grid = fs.ScaleGrid.dyadic(cloud)
            got = fs.hl_maximal(cloud, vals, sigma, grid=grid).values
            want = oracles.hl_maximal(cloud, vals, sigma, grid.scales)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-6


class TestSharpProperties:
    def test_constants_give_zero(self, dust3, interval6):
        for cloud in (dust3, interval6):
            for c in (1.0, -3.7):
                out = fs.sharp_maximal(cloud, np.full(cloud.size, c), 0.5)
                assert np.all(out.values == 0.0)

    def test_covered_polynomials_give_zero(self, dust3):
        x = dust3.points
        linear = 0.4 - 1.3 * x[:, 0] + 0.7 * x[:, 1]
        for u in (1.0, 2.0):
            out = fs.sharp_maximal(dust3, linear, 1.5, u=u)
            assert np.all(out.values == 0.0)

    @pytest.mark.parametrize(
        "lam,u",
        [(2.0, 1.0), (0.5, 1.0), (2.0, 2.0), (0.5, 2.0), (-4.0, 2.0)],
    )
    def test_homogeneity_exact_for_binary_scalars(self, dust3, lam, u):
        vals = rough_sample(dust3)
        base = fs.sharp_maximal(dust3, vals, 0.5, u=u).values
        scaled = fs.sharp_maximal(dust3, lam * vals, 0.5, u=u).values
        assert np.array_equal(scaled, abs(lam) * base)

    def test_homogeneity_close_otherwise(self, dust3):
        # Sign flips reorder the median scan and non-binary scalars or
        # u > 2 round through pow, so equality holds only to the ulp level.
        vals = rough_sample(dust3)
        for lam, u in [(-4.0, 1.0), (3.0, 1.0), (2.0, 3.0)]:
            base = fs.sharp_maximal(dust3, vals, 0.5, u=u).values
            scaled = fs.sharp_maximal(dust3, lam * vals, 0.5, u=u).values
            assert np.allclose(scaled, abs(lam) * base, rtol=1e-12)

    def test_constant_fits_scale_across_the_float_range(self, dust3):
        # Fits are made in units of max|f|, so no power of a value under-
        # or overflows near either end of the float range.
        vals = rough_sample(dust3)
        grid = fs.ScaleGrid.dyadic(dust3)
        for u in (1.5, 3.0, 4.0):
            base = fs.approx_error_matrix(dust3, vals, 1, u, grid)
            for lam in (1e-200, 1e150):
                got = fs.approx_error_matrix(dust3, lam * vals, 1, u, grid)
                np.testing.assert_allclose(got / lam, base, rtol=1e-12)

    def test_pointwise_ordering_in_u(self, dust3):
        vals = rough_sample(dust3)
        outs = {
            u: fs.sharp_maximal(dust3, vals, 0.5, u=u).values
            for u in (1.0, 2.0, 3.0)
        }
        assert np.all(outs[1.0] <= outs[2.0] * (1.0 + 1e-8))
        assert np.all(outs[2.0] <= outs[3.0] * (1.0 + 1e-8))

    def test_grid_function_input_and_meta(self, dust3):
        gf = fs.GridFunction(dust3, rough_sample(dust3), name="rough")
        out = fs.sharp_maximal(dust3, gf, 0.7, u=2.0)
        assert out.name == "sharp(rough)"
        assert out.meta["k"] == 1
        assert out.meta["u"] == 2.0
        assert out.meta["nu_max"] == 2

    def test_exponent_validation(self, dust3):
        with pytest.raises(fs.OutOfRange):
            fs.sharp_maximal(dust3, np.ones(64), 0.5, u=0.5)
        with pytest.raises(fs.OutOfRange):
            fs.sharp_maximal(dust3, np.ones(64), 0.5, u=math.inf)


class TestErrorMatrix:
    def test_nan_pattern_shared_across_u(self, dust3):
        vals = rough_sample(dust3)
        grid = fs.ScaleGrid.dyadic(dust3, factor=0.5)
        masks = [
            np.isnan(fs.approx_error_matrix(dust3, vals, 1, u, grid))
            for u in (1.0, 2.0, 3.0)
        ]
        assert masks[0].any()
        assert np.array_equal(masks[0], masks[1])
        assert np.array_equal(masks[0], masks[2])

    def test_skips_scales_below_point_quota(self, make_cloud, rng):
        # Two tight four-point clusters far apart: at the small scale each
        # cube sees its own cluster only, below the quota for a planar fit.
        corners = np.repeat([[0.0, 0.0], [1.0, 1.0]], 4, axis=0)
        pts = corners + 0.01 * rng.random((8, 2))
        cloud = make_cloud(pts)
        grid = fs.ScaleGrid(
            scales=np.array([2.0, 0.05]),
            levels=np.array([0, 1]),
            diam=2.0,
            factor=1.0,
        )
        out = fs.approx_error_matrix(cloud, rng.random(8), 2, 1.0, grid)
        assert not np.isnan(out[:, 0]).any()
        assert np.isnan(out[:, 1]).all()

    def test_isolated_point_raises(self, make_cloud):
        pts = [[0.0, 0.0], [0.01, 0.0], [5.0, 5.0]]
        cloud = make_cloud(pts)
        grid = fs.ScaleGrid(
            scales=np.array([0.1]), levels=np.array([0]), diam=7.1, factor=1.0
        )
        with pytest.raises(fs.TooFewPoints):
            fs.approx_error_matrix(cloud, [1.0, 2.0, 3.0], 1, 1.0, grid)

    def test_row_count_matches_cloud(self, interval6):
        grid = fs.ScaleGrid.dyadic(interval6)
        out = fs.approx_error_matrix(interval6, rough_sample(interval6), 2, 2.0, grid)
        assert out.shape == (64, 5)


class TestHlProperties:
    def test_constant_function(self, dust3):
        out = fs.hl_maximal(dust3, np.full(64, -2.0), 1.0)
        assert np.allclose(out.values, 2.0, rtol=1e-12)

    def test_monotone_in_sigma(self, interval6):
        vals = rough_sample(interval6, seed=9)
        m1 = fs.hl_maximal(interval6, vals, 1.0).values
        m2 = fs.hl_maximal(interval6, vals, 2.0).values
        assert np.all(m1 <= m2 * (1.0 + 1e-12))

    def test_bounded_by_sup(self, dust3):
        vals = rough_sample(dust3, seed=11)
        out = fs.hl_maximal(dust3, vals, 2.0).values
        assert np.max(out) <= np.max(np.abs(vals)) * (1.0 + 1e-12)

    def test_sigma_validation(self, dust3):
        with pytest.raises(fs.OutOfRange):
            fs.hl_maximal(dust3, np.ones(64), 0.0)


class TestKernelPinnedToCellLoop:
    """The chunked kernel against the per-cell loop it replaced.

    NaN patterns must agree exactly. Values agree to rtol relative plus the
    zero clamp's floor: 1e-9 where the fit is closed-form (u = 2, and the
    weighted median for k = 1, u = 1), 1e-6 where the reference iterates.
    At k = 1 with u not in {1, 2} the kernel is the exact side: it finds
    the best constant to rounding (pinned to an oracle by
    ``test_constant_fit_matrices_are_exact``), while the reference runs
    smoothed reweighting, which on ``rough_sample`` stops within 1e-6 of
    the minimum.
    """

    CLOUDS = ("dust3", "interval6", "cantor4_d4", "square3", "carpet2")

    @pytest.mark.parametrize("name", CLOUDS)
    def test_matches_reference(self, request, name):
        cloud = request.getfixturevalue(name)
        vals = rough_sample(cloud)
        grid = fs.ScaleGrid.dyadic(cloud)
        floor = 2.0 * fs.polyapprox.CLAMP_REL * np.max(np.abs(vals))
        for k in (1, 2, 3):
            for u in (1.0, 2.0, 3.0, 4.0):
                if cloud.size > 64 and (k, u) == (3, 1.0):
                    continue  # the reference's IRLS takes seconds here
                got = fs.approx_error_matrix(cloud, vals, k, u, grid)
                want = reference_matrix.approx_error_matrix(cloud, vals, k, u, grid)
                assert np.array_equal(np.isnan(got), np.isnan(want)), (k, u)
                ok = ~np.isnan(want)
                rtol = 1e-9 if u == 2.0 or (k, u) == (1, 1.0) else 1e-6
                gap = np.abs(got[ok] - want[ok]) - rtol * np.abs(want[ok])
                assert np.all(gap <= floor), (k, u, float(gap.max()))

    def test_rank_deficient_cubes_match_reference(self, make_cloud):
        # Points on a line bent by 1e-9..1e-3: small cubes about the flat end
        # hold enough points for a planar fit but are rank deficient.
        x = np.linspace(0.0, 1.0, 48)
        y = 10.0 ** np.linspace(-9.0, -3.0, 48) * (-1.0) ** np.arange(48)
        cloud = make_cloud(np.column_stack([x, y]))
        levels = np.arange(6)
        grid = fs.ScaleGrid(
            scales=cloud.diam * 2.0**-levels, levels=levels, diam=cloud.diam, factor=1.0
        )
        vals = np.sin(5.0 * x) + 1e3 * y
        zero = fs.approx_error_matrix(cloud, np.zeros(48), 2, 2.0, grid)
        for u in (1.0, 2.0, 3.0):
            got = fs.approx_error_matrix(cloud, vals, 2, u, grid)
            want = reference_matrix.approx_error_matrix(cloud, vals, 2, u, grid)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            # Rank-deficient cubes: NaN for this function, 0 for the zero one.
            assert (np.isnan(want) & (zero == 0.0)).any()
            ok = ~np.isnan(want)
            np.testing.assert_allclose(got[ok], want[ok], rtol=1e-6, atol=1e-11)

    def test_batch_layout(self, dust3):
        grid = fs.ScaleGrid.dyadic(dust3)
        vals = np.stack([rough_sample(dust3, seed) for seed in (1, 2, 3)])
        out = fs.error_matrices(dust3, vals, 2, 2.0, grid)
        assert out.shape == (3, dust3.size, len(grid))
        np.testing.assert_allclose(
            out[1], fs.approx_error_matrix(dust3, vals[1], 2, 2.0, grid), rtol=1e-12
        )

    def test_zero_space_rejected(self, dust3):
        with pytest.raises(fs.OutOfRange):
            fs.error_matrices(
                dust3, np.ones((1, 64)), 0, 2.0, fs.ScaleGrid.dyadic(dust3)
            )


# Two depths of every builtin generator, and an IFS whose unequal ratios and
# translations leave gaps in the grid of its coordinates.
BUILTIN_DEPTHS = [
    (name, depth)
    for name, depths in (
        ("cantor4", (3, 4)),
        ("carpet", (2, 3)),
        ("square", (3, 4)),
        ("interval", (6, 8)),
    )
    for depth in depths
]
GAPPED_IFS = fs.IfsSpec(
    2,
    ((0.37, (0.0, 0.0)), (0.29, (0.61, 0.11)), (0.31, (0.13, 0.67)), (0.3, (0.7, 0.7))),
    name="gapped",
)


def cube_sets(cloud, scales):
    """Sorted member tuples of every cube Q(x_i, t_j) by the distance test, [N][S]."""
    pts = cloud.points
    return [
        [tuple(np.flatnonzero(np.abs(pts - c).max(axis=1) <= t).tolist()) for t in scales]
        for c in pts
    ]


def build(name, depth):
    return fs.build_cloud(GAPPED_IFS if name == "gapped" else fs.generator_spec(name), depth)


def assert_cubes_match_the_distance_test(cloud, scales, quota, budget):
    """Every cube ``_cubes`` yields against the brute-force Chebyshev mask."""
    pts, size = cloud.points, cloud.size
    seen = []
    for j, first, batches in fs.maximal._cubes(cloud, scales, quota, budget):
        t = scales[j]
        built = []
        for centres, idx in batches:
            assert idx.shape[0] == centres.size
            assert centres.size == 1 or idx.size <= budget
            for c, row in zip(centres, idx):
                members = row[row < size]
                # Members first, then only padding.
                assert np.all(row[members.size :] == size)
                want = np.flatnonzero(np.abs(pts - pts[c]).max(axis=1) <= t)
                assert np.array_equal(np.sort(members), want), (j, c)
                built.append(c)
        # Every group's first centre is built once, unless its cube holds
        # fewer points than the quota.
        counts = (np.abs(pts[:, None] - pts[None]).max(axis=2) <= t).sum(axis=1)
        reps = np.flatnonzero(first == np.arange(size))
        assert sorted(built) == reps[counts[reps] >= quota].tolist(), j
        seen.append(j)
    assert seen == list(range(scales.size))


class TestRankSpaceCubes:
    @pytest.mark.parametrize("quota", [1, 12])
    @pytest.mark.parametrize(
        "name,depth", BUILTIN_DEPTHS + [("gapped", 4), ("gapped", 5)]
    )
    def test_cubes_match_the_distance_test(self, name, depth, quota):
        # A small budget splits most scales into many batches.
        cloud = build(name, depth)
        scales = fs.ScaleGrid.dyadic(cloud).scales
        assert_cubes_match_the_distance_test(cloud, scales, quota, 200)

    @pytest.mark.parametrize("quota", [1, 12])
    def test_points_on_the_faces_are_members(self, make_cloud, quota):
        # On a lattice of spacing 1/8 the faces of every cube pass through
        # points, on the run axis and on the other alike.
        g = np.arange(7) / 8.0
        cloud = make_cloud(np.stack(np.meshgrid(g, 0.5 * g), axis=-1).reshape(-1, 2))
        scales = np.array([0.5, 0.25, 0.125, 0.0625])
        assert_cubes_match_the_distance_test(cloud, scales, quota, 40)


class TestSharedCubeFits:
    """Cubes of one scale that hold the same points share one fit."""

    @pytest.mark.parametrize(
        "name,depth", BUILTIN_DEPTHS + [("gapped", 4), ("gapped", 5)]
    )
    def test_grouping_matches_the_cubes(self, name, depth):
        cloud = build(name, depth)
        scales = fs.ScaleGrid.dyadic(cloud).scales
        cubes = fs.maximal._cubes(cloud, scales, 1, fs.maximal.CHUNK_ELEMS)
        first = np.stack([first for _, first, _ in cubes], axis=1)
        sets = cube_sets(cloud, scales)
        for j in range(scales.size):
            # Each representative is the lowest index of its group and holds
            # the same points as every centre it stands for.
            assert np.all(first[:, j] <= np.arange(cloud.size))
            assert np.array_equal(first[first[:, j], j], first[:, j])
            for i in range(cloud.size):
                assert sets[i][j] == sets[first[i, j]][j], (i, j)
            if name != "gapped":
                # On the builtin grids equal point sets are never split.
                reps = {}
                for i in range(cloud.size):
                    assert reps.setdefault(sets[i][j], first[i, j]) == first[i, j]

    def test_admitted_runs_follow_the_distance_test(self, rng):
        # Coordinates within two ulps of c - t and c + t, where the rounded
        # ends c -+ t alone admit the wrong neighbour about half the time,
        # some of them repeated, as points sharing a coordinate repeat it.
        for _ in range(200):
            c, t = rng.random(), 0.5 * rng.random()
            near = [c]
            for edge in (c - t, c + t):
                below = above = edge
                near.append(edge)
                for _ in range(2):
                    below, above = np.nextafter(below, -1.0), np.nextafter(above, 2.0)
                    near += [below, above]
            coords = np.sort(np.concatenate([near, near[::2], rng.random(8)]))
            runs = fs.maximal._admitted_runs(coords, coords, t)
            ranks = np.arange(coords.size)
            want = np.abs(coords[:, None] - coords[None, :]) <= t
            got = (runs[:, :1] <= ranks) & (ranks < runs[:, 1:])
            assert np.array_equal(got, want)

    def test_each_distinct_cube_is_fitted_once(self, cantor4_d4, monkeypatch):
        cloud = cantor4_d4
        grid = fs.ScaleGrid.dyadic(cloud)
        kernel = fs.maximal._local_errors
        fitted = []

        def counting(V, w, f, u, mass):
            fitted.append(w.shape[0])
            return kernel(V, w, f, u, mass)

        monkeypatch.setattr(fs.maximal, "_local_errors", counting)
        vals = rough_sample(cloud)[None]
        out = fs.error_matrices(cloud, vals, 2, 2.0, grid)
        needed = fs.polyapprox.MIN_POINTS_FACTOR * 3
        sets = cube_sets(cloud, grid.scales)
        distinct = {
            (j, s[j]) for s in sets for j in range(len(grid)) if len(s[j]) >= needed
        }
        assert sum(fitted) == len(distinct)
        assert sum(fitted) < np.count_nonzero(~np.isnan(out))
