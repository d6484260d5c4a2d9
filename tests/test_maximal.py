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

    def test_infinite_alpha_rejected(self, dust3):
        vals = rough_sample(dust3)
        for call in (
            lambda: fs.degree_for_sharp(math.inf),
            lambda: fs.degree_for_flat(math.inf),
            lambda: fs.sharp_maximal(dust3, vals, math.inf),
            lambda: fs.calderon_norm(dust3, vals, math.inf, 2.0),
            lambda: fs.besov_net_norm(dust3, vals, math.inf, 2.0, 2.0, levels=[0]),
        ):
            with pytest.raises(fs.FrakspaceError):
                call()

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
        grid = fs.ScaleGrid.dyadic(interval6, nu_max=3)
        assert list(grid.levels) == [0, 1, 2, 3]

    def test_empty_window_rejected(self, interval6):
        with pytest.raises(fs.ScaleTooFine):
            fs.ScaleGrid.dyadic(interval6, nu_max=-1)

    def test_scales_must_decrease(self):
        with pytest.raises(fs.OutOfRange):
            fs.ScaleGrid(
                scales=np.array([0.5, 1.0]),
                levels=np.array([1, 0]),
                diam=1.0,
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
        # cube. The builtin clouds read summed-area tables; the gapped IFS
        # has about N**2 grid cells, so its cubes are gathered, each group's
        # average computed once and copied.
        gapped = build("gapped", 4)
        for cloud in (dust3, interval6, cantor4_d4, gapped):
            vals = rough_sample(cloud, seed=7)
            grid = fs.ScaleGrid.dyadic(cloud)
            got = fs.hl_maximal(cloud, vals, sigma, grid=grid).values
            want = oracles.hl_maximal(cloud, vals, sigma, grid.scales)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10


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
        )
        out = fs.approx_error_matrix(cloud, rng.random(8), 2, 1.0, grid)
        assert not np.isnan(out[:, 0]).any()
        assert np.isnan(out[:, 1]).all()

    @pytest.mark.parametrize("k", [1, 2])
    def test_scales_with_no_cube_at_the_quota_are_nan(self, k):
        # At factor 1 the finest scales of interval d5 hold no cube of the
        # point quota: they never reach the tables, their columns are NaN,
        # and every other column is the matrix without them, bit for bit.
        cloud = build("interval", 5)
        grid = fs.ScaleGrid.dyadic(cloud, factor=1.0)
        vals = rough_sample(cloud)[None]
        got = fs.error_matrices(cloud, vals, k, 2.0, grid)
        pts = cloud.points
        counts = (np.abs(pts[:, None] - pts[None]).max(axis=2)[..., None] <= grid.scales).sum(axis=1)
        empty = (counts < fs.polyapprox.point_quota(fs.polyapprox.basis_size(1, k))).all(axis=0)
        assert empty.any() and not empty.all()
        assert np.isnan(got[..., empty]).all()
        rest = fs.ScaleGrid(scales=grid.scales[~empty], levels=grid.levels[~empty], diam=grid.diam)
        assert np.array_equal(got[..., ~empty], fs.error_matrices(cloud, vals, k, 2.0, rest), equal_nan=True)

    def test_isolated_point_raises(self, make_cloud):
        pts = [[0.0, 0.0], [0.01, 0.0], [5.0, 5.0]]
        cloud = make_cloud(pts)
        grid = fs.ScaleGrid(
            scales=np.array([0.1]), levels=np.array([0]), diam=7.1
        )
        with pytest.raises(fs.TooFewPoints):
            fs.approx_error_matrix(cloud, [1.0, 2.0, 3.0], 1, 1.0, grid)

    def test_row_count_matches_cloud(self, interval6):
        grid = fs.ScaleGrid.dyadic(interval6)
        out = fs.approx_error_matrix(interval6, rough_sample(interval6), 2, 2.0, grid)
        assert out.shape == (64, 5)

    def test_impossible_degree_refused_before_the_basis(self, interval6, monkeypatch):
        # k = 10**6 needs more points than the cloud holds, so it is refused
        # before its basis exponents, whose listing takes time growing with k.
        def unreachable(*args):
            raise AssertionError("basis exponents listed for an impossible degree")

        monkeypatch.setattr(fs.rankspace, "multi_indices", unreachable)
        grid = fs.ScaleGrid.dyadic(interval6)
        with pytest.raises(fs.TooFewPoints, match=r"point 0 admits no scale .* k=1000000"):
            fs.error_matrices(interval6, rough_sample(interval6)[None], 10**6, 1.0, grid)


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

    def test_infinite_sigma_refused(self, interval6):
        g = 3.0 * interval6.points[:, 0] - 1.0
        with pytest.raises(fs.OutOfRange):
            fs.hl_maximal(interval6, g, math.inf)

    def test_large_sigma_neither_underflows_nor_overflows(self, interval6):
        # 0.5**2000 underflows and 1.977**2000 overflows; in units of max|g|
        # neither does. The largest cube holds the peak, so every value lies
        # within min(w)**(1 / sigma) of max|g|.
        const = fs.hl_maximal(interval6, np.full(interval6.size, 0.5), 2000.0).values
        np.testing.assert_allclose(const, 0.5, rtol=1e-12)
        g = 3.0 * interval6.points[:, 0] - 1.0
        peak, sigma = np.max(np.abs(g)), 2000.0
        out = fs.hl_maximal(interval6, g, sigma).values
        assert np.all(out <= peak * (1.0 + 1e-12))
        assert np.all(out >= peak * np.min(interval6.weights) ** (1.0 / sigma))


def test_empty_grid_is_not_replaced_by_the_default(dust3):
    # ScaleGrid defines __len__, so an empty grid is falsy; only None means
    # the default grid.
    empty = fs.ScaleGrid(scales=np.zeros(0), levels=np.zeros(0), diam=1.0)
    vals = rough_sample(dust3)
    for call in (
        lambda: fs.sharp_maximal(dust3, vals, 0.5, grid=empty),
        lambda: fs.hl_maximal(dust3, vals, 1.0, grid=empty),
        lambda: fs.calderon_norm(dust3, vals, 0.5, 2.0, grid=empty),
        lambda: fs.besov_norm(dust3, vals, 0.5, 2.0, 2.0, grid=empty),
        lambda: fs.approx_error_matrix(dust3, vals, 1, 1.0, empty),
    ):
        with pytest.raises(fs.EmptyGrid):
            call()


class TestKernelPinnedToCellLoop:
    """The chunked kernel against the per-cell loop it replaced.

    NaN patterns must agree exactly. Values agree to rtol relative plus the
    zero clamp's floor: 1e-9 where the fit is closed-form (u = 2, and the
    weighted median for k = 1, u = 1), 1e-6 where the reference iterates.
    At k = 1 with u not in {1, 2} the kernel is the exact side: it finds
    the best constant to rounding (pinned to an oracle by
    ``test_constant_fit_matrices_are_exact``), while the reference runs
    smoothed reweighting, which on ``rough_sample`` stops within 1e-6 of
    the minimum. At k >= 2 with u = 1 the kernel's fits are exact vertex
    solutions (pinned to the vertex oracle by ``TestExactL1``), which the
    reference's reweighting only approaches from above: no kernel value may
    exceed the reference's by more than 1e-9 relative plus the floor.
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
                if k >= 2 and u == 1.0:
                    over = got[ok] - want[ok] * (1.0 + 1e-9)
                    assert np.all(over <= floor), (k, u, float(over.max()))
                    continue
                rtol = 1e-9 if u == 2.0 or (k, u) == (1, 1.0) else 1e-6
                gap = np.abs(got[ok] - want[ok]) - rtol * np.abs(want[ok])
                assert np.all(gap <= floor), (k, u, float(gap.max()))

    @pytest.mark.parametrize("name", CLOUDS)
    def test_certified_fits_lie_in_the_duality_bracket(self, request, name):
        # Reweighted fits (k >= 2, u = 3) stop on a duality gap of 1e-8: each
        # converged one lies in the benchmark oracle's bracket [dual bound,
        # least squares] and, the bound being tight here, within 1e-8 above it.
        cloud = request.getfixturevalue(name)
        vals = rough_sample(cloud)
        cubes = {}
        for x in cloud.points:
            for t in fs.ScaleGrid.dyadic(cloud).scales:
                cube = fs.Cube(x, float(t))
                cubes.setdefault(fs.restrict(cloud, cube)[0].tobytes(), cube)
        checked = 0
        for k in (2, 3):
            for cube in cubes.values():
                try:
                    res = fs.best_approx(cloud, cube, vals, k, 3.0)
                except (fs.TooFewPoints, fs.RankDeficient):
                    continue
                assert res.converged
                cell = oracles.bench.cell(
                    cloud.points, cloud.weights, vals, cube.center, cube.half_side, k, 3.0
                )
                if cell.status != "bracket":
                    continue
                assert cell.admits(res.normalized), (k, cube, res.normalized, cell.lo)
                assert res.normalized - cell.lo <= 1e-8 * res.normalized + cell.floor
                checked += 1
        assert checked > 0

    def test_rank_deficient_cubes_match_reference(self, make_cloud):
        # Points on a line bent by 1e-9..1e-3: small cubes about the flat end
        # hold enough points for a planar fit but are rank deficient.
        x = np.linspace(0.0, 1.0, 48)
        y = 10.0 ** np.linspace(-9.0, -3.0, 48) * (-1.0) ** np.arange(48)
        cloud = make_cloud(np.column_stack([x, y]))
        levels = np.arange(6)
        grid = fs.ScaleGrid(
            scales=cloud.diam * 2.0**-levels, levels=levels, diam=cloud.diam
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
            if u == 1.0:  # exact fits, at most the reference's reweighted ones
                assert np.all(got[ok] <= want[ok] * (1.0 + 1e-9) + 1e-11)
            else:
                np.testing.assert_allclose(got[ok], want[ok], rtol=1e-6, atol=1e-11)

    def test_batch_layout(self, dust3):
        grid = fs.ScaleGrid.dyadic(dust3)
        vals = np.stack([rough_sample(dust3, seed) for seed in (1, 2, 3)])
        for u in (2.0, 1.0):
            out = fs.error_matrices(dust3, vals, 2, u, grid)
            assert out.shape == (3, dust3.size, len(grid))
            for f in range(3):
                np.testing.assert_allclose(
                    out[f], fs.approx_error_matrix(dust3, vals[f], 2, u, grid), rtol=1e-12
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
    rank = fs.rankspace._rank_grid(cloud)
    for j, first, batches in fs.rankspace._cubes(rank, scales, quota, budget):
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


def test_padded_batches_take_lengths_in_any_order():
    lengths = np.array([2, 5, 1, 5, 3, 2, 4])
    starts = np.concatenate([[0], lengths.cumsum()[:-1]])
    size = int(lengths.sum())
    flat = np.append(np.arange(size)[::-1], size)  # the padding index last
    seen = []
    for part, idx in fs.rankspace._padded_batches(flat, starts, lengths, 10):
        assert idx.shape == (part.size, lengths[part].max())
        assert part.size == 1 or idx.size <= 10
        for r, row in zip(part, idx):
            assert np.array_equal(row[: lengths[r]], flat[starts[r] : starts[r] + lengths[r]])
            assert (row[lengths[r] :] == size).all()
        seen += part.tolist()
    # Longest first, equal lengths in their given order, each slice once.
    assert seen == [1, 3, 6, 4, 0, 5, 2]


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
        rs = fs.rankspace
        cubes = rs._cubes(rs._rank_grid(cloud), scales, 1, rs.CHUNK_ELEMS)
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
            runs = fs.rankspace._admitted_runs(coords, coords, t)
            ranks = np.arange(coords.size)
            want = np.abs(coords[:, None] - coords[None, :]) <= t
            got = (runs[:, :1] <= ranks) & (ranks < runs[:, 1:])
            assert np.array_equal(got, want)

    def test_admitted_runs_about_any_centre(self, rng):
        # Centres in the gaps between coordinates, on them, below the first
        # and above the last, one half-side each, some too small to admit
        # any coordinate: then lo = hi.
        for _ in range(50):
            coords = np.sort(rng.random(12))
            gaps = 0.5 * (coords[1:] + coords[:-1])
            centres = np.concatenate([gaps, coords, [coords[0] - 0.1, coords[-1] + 0.1, -1.0, 2.0]])
            halves = 10.0 ** rng.uniform(-4.0, -0.5, centres.size)
            halves[::5] = np.abs(centres - coords[:, None]).min(axis=0)[::5]  # a coordinate on a face
            runs = fs.rankspace._admitted_runs(coords, centres, halves)
            ranks = np.arange(coords.size)
            want = np.abs(centres[:, None] - coords[None, :]) <= halves[:, None]
            got = (runs[:, :1] <= ranks) & (ranks < runs[:, 1:])
            assert np.array_equal(got, want)
            empty = ~want.any(axis=1)
            assert empty.any() and np.all(runs[empty, 0] == runs[empty, 1])

    def test_fits_fill_only_the_cells_the_tables_left_open(self, cantor4_d4, monkeypatch):
        # A cell that the tables keep in a call of seven functions and in a
        # call of one holds the same bits in both, whichever cubes share
        # its batch.
        cloud = cantor4_d4
        grid = fs.ScaleGrid.dyadic(cloud)
        funcs = {tf.name: tf for tf in fs.battery(cloud, 1)}
        vals = np.stack([fs.sample(funcs[name], cloud).values for name in fs.RunConfig().check_functions])
        tables, settled = fs.maximal._table_errors, []

        def reading(*args):
            settled.append(args[-1])
            return tables(*args)

        monkeypatch.setattr(fs.maximal, "_table_errors", reading)
        together = fs.error_matrices(cloud, vals, 2, 2.0, grid)
        for f, kept in enumerate(settled.pop()):
            alone = fs.error_matrices(cloud, vals[f : f + 1], 2, 2.0, grid)[0]
            both = kept & settled.pop()[0]
            assert both.any()
            assert np.array_equal(together[f][both], alone[both], equal_nan=True), f

    @pytest.mark.parametrize("name,depth", [("interval", 8), ("cantor4", 4)])
    def test_a_cell_depends_only_on_its_own_function(self, name, depth):
        # Fit batches take the same cubes whatever the function count, so
        # seven functions in one call are fitted bit for bit as seven calls
        # of one; when batches followed the count, 738 cells (interval d8)
        # and 1,363 (cantor4 d4) differed here. At (2, 2) the cubes that the
        # tables leave open for some function decide which cubes share a
        # batch, so a fitted cell may move by rounding.
        cloud = build(name, depth)
        grid = fs.ScaleGrid.dyadic(cloud)
        vals = np.stack([fs.sample(tf, cloud).values for tf in fs.battery(cloud, 1)[7:14]])
        for k, u in [(1, 1.0), (1, 2.0), (1, 3.0), (1, 4.0), (2, 1.0), (2, 2.0), (2, 3.0), (3, 2.0)]:
            together = fs.error_matrices(cloud, vals, k, u, grid)
            alone = np.stack([fs.error_matrices(cloud, f[None], k, u, grid)[0] for f in vals])
            if (k, u) != (2, 2.0):
                assert np.array_equal(together, alone, equal_nan=True), (k, u)
                continue
            assert np.array_equal(np.isnan(together), np.isnan(alone))
            gap = np.nan_to_num(np.abs(together - alone)) / np.abs(vals).max(axis=1)[:, None, None]
            assert gap.max() <= 1e-15

    def test_batches_are_packed_by_member_count(self, monkeypatch):
        # On cantor4 d6 a cube's narrowest run holds far more points than
        # the cube; batches sized by the run made 1,248 kernel calls here.
        cloud = fs.build_cloud(fs.generator_spec("cantor4"), 6)
        vals = np.stack([fs.sample(tf, cloud).values for tf in fs.battery(cloud, 1)[7:14]])
        kernel, calls = fs.maximal._local_errors, []

        def counting(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(fs.maximal, "_local_errors", counting)
        fs.error_matrices(cloud, vals, 1, 1.0, fs.ScaleGrid.dyadic(cloud))
        assert len(calls) <= 1248 // 2

    def test_each_distinct_cube_is_read_or_fitted_once(self, cantor4_d4, monkeypatch):
        # At (k, u) = (2, 2) summed-area tables settle some cubes; every other
        # distinct cube is fitted once, and no cube is both.
        cloud = cantor4_d4
        grid = fs.ScaleGrid.dyadic(cloud)
        kernel, batches, tables = (
            fs.maximal._local_errors, fs.maximal._fit_batches, fs.maximal._table_errors
        )
        fitted, gathered, settled = [], [], []

        def counting(V, w, f, u, mass):
            fitted.append(w.shape[0])
            return kernel(V, w, f, u, mass)

        def recording(cloud, values, k):
            budget, batch = batches(cloud, values, k)

            def gather(idx, origin, half):
                j = int(np.flatnonzero(grid.scales == half)[0])
                members = (tuple(sorted(row[row < cloud.size].tolist())) for row in idx)
                gathered.extend((j, cube) for cube in members)
                return batch(idx, origin, half)

            return budget, gather

        def reading(*args):
            # The last argument is the mask of cells the tables settle.
            settled.append(args[-1])
            return tables(*args)

        monkeypatch.setattr(fs.maximal, "_local_errors", counting)
        monkeypatch.setattr(fs.maximal, "_fit_batches", recording)
        monkeypatch.setattr(fs.maximal, "_table_errors", reading)
        vals = rough_sample(cloud)[None]
        out = fs.error_matrices(cloud, vals, 2, 2.0, grid)
        needed = fs.polyapprox.MIN_POINTS_FACTOR * 3
        sets = cube_sets(cloud, grid.scales)
        distinct = {
            (j, s[j]) for s in sets for j in range(len(grid)) if len(s[j]) >= needed
        }
        read = {(j, sets[i][j]) for i, j in zip(*np.nonzero(settled[0][0] & ~np.isnan(out[0])))}
        assert sum(fitted) == len(gathered) == len(set(gathered))
        assert read and gathered and not read & set(gathered)
        assert read | set(gathered) == distinct
        assert sum(fitted) < np.count_nonzero(~np.isnan(out))


class TestBoxSums:
    """Summed-area tables against the gather path, forced by the grid gate.

    NaN patterns agree exactly, values to 1e-10 relative plus the zero
    clamp's floor: the tables keep a u = 2 error only where its rounding
    bound puts it within BOX_RTOL / 2 of exact, and an hl average only where
    its own bound does.
    """

    CLOUDS = ("dust3", "interval6", "cantor4_d4", "square3", "carpet2")
    FUNCTIONS = ("cusp_beta060", "quad_cross", "ripple")

    @staticmethod
    def fitted_cells(monkeypatch, call):
        """call()'s result and the cells it sent to the kernel."""
        kernel, fitted = fs.maximal._local_errors, []

        def counting(V, w, f, u, mass):
            fitted.append(w.shape[0])
            return kernel(V, w, f, u, mass)

        with monkeypatch.context() as patched:
            patched.setattr(fs.maximal, "_local_errors", counting)
            return call(), sum(fitted)

    @staticmethod
    def gathered(monkeypatch, call):
        with monkeypatch.context() as patched:
            patched.setattr(fs.rankspace, "GRID_CELLS_PER_POINT", 0)
            return call()

    @staticmethod
    def assert_agree(got, want, vals):
        floor = 2.0 * fs.polyapprox.CLAMP_REL * np.abs(vals).max(axis=1)[:, None, None]
        assert np.array_equal(np.isnan(got), np.isnan(want))
        gap = np.abs(got - want) - 1e-10 * np.abs(want) - floor
        assert np.nanmax(gap) <= 0.0, float(np.nanmax(gap))

    @pytest.mark.parametrize("name,depth", BUILTIN_DEPTHS + [("gapped", 4)])
    def test_the_gate_passes_the_builtin_grids_only(self, name, depth):
        # The builtin clouds have at most 2 grid cells per point, the gapped
        # IFS about N.
        cloud = build(name, depth)
        layout = fs.rankspace._table_layout(fs.rankspace._rank_grid(cloud))
        assert (layout is None) == (name == "gapped")

    @pytest.mark.parametrize("name", CLOUDS)
    def test_matches_the_gather_path(self, request, monkeypatch, name):
        cloud = request.getfixturevalue(name)
        battery = [fs.sample(tf, cloud).values for tf in fs.battery(cloud)
                   if tf.name in self.FUNCTIONS]
        vals = np.stack([rough_sample(cloud)] + battery)
        grid = fs.ScaleGrid.dyadic(cloud)
        for k in (1, 2):
            def matrices():
                return fs.error_matrices(cloud, vals, k, 2.0, grid)

            got, fits = self.fitted_cells(monkeypatch, matrices)
            want, all_fits = self.gathered(
                monkeypatch, lambda: self.fitted_cells(monkeypatch, matrices)
            )
            self.assert_agree(got, want, vals)
            assert fits < all_fits, k

        def hl():
            return fs.hl_maximal(cloud, vals[0], 1.0, grid).values

        got, want = hl(), self.gathered(monkeypatch, hl)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("steep", [False, True])
    def test_hl_matches_the_gather_path_on_a_large_cloud(self, monkeypatch, steep):
        # 4,096 points in 2-D, where a box sum's prefix sums can reach about N
        # times its own sum. Under exp(-12 (x + y)) they reach far more on
        # cubes away from the origin, and the guard must gather those cubes.
        cloud = fs.build_cloud(fs.generator_spec("carpet"), 4)
        assert cloud.size >= 4096 and cloud.ambient_dim == 2
        p = cloud.points
        vals = np.exp(-12.0 * p.sum(axis=1)) if steep else rough_sample(cloud)
        grid = fs.ScaleGrid.dyadic(cloud)
        cubes, gathered = fs.maximal._cubes, []

        def counting(*args):
            for j, first, batches in cubes(*args):
                yield j, first, (gathered.append(c.size) or (c, idx) for c, idx in batches)

        def hl():
            return fs.hl_maximal(cloud, vals, 1.0, grid).values

        with monkeypatch.context() as patched:
            patched.setattr(fs.maximal, "_cubes", counting)
            got = hl()
        want = self.gathered(monkeypatch, hl)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
        assert (sum(gathered) > 0) == steep

    @pytest.mark.parametrize("k,trend", [(1, False), (2, False), (2, True)])
    def test_a_large_offset_or_trend_sends_cells_to_the_gather_path(
        self, cantor4_d4, monkeypatch, k, trend
    ):
        # A large step: the tables take f about a fit on each tile, which a
        # step inside the tile leaves as large as the step, so the moments of
        # cubes in such tiles cancel, and the rounding bound must refuse
        # them (a constant offset the tile fits remove exactly). A steep
        # linear trend, which the tile fits remove, still moves each cube's
        # error by the rounding of x about its tile's centre times the
        # slope, and the bound must refuse that too.
        cloud = cantor4_d4
        grid = fs.ScaleGrid.dyadic(cloud)
        base = rough_sample(cloud)[None]
        added = 1e6 * cloud.points[:, 0] if trend else 1e10 * (cloud.points[:, 0] > 0.5)
        fits = []
        for vals in (base, base + added):
            def matrices():
                return fs.error_matrices(cloud, vals, k, 2.0, grid)

            got, fit = self.fitted_cells(monkeypatch, matrices)
            want = self.gathered(monkeypatch, matrices)
            self.assert_agree(got, want, vals)
            fits.append(fit)
        assert fits[1] > fits[0]

    @pytest.mark.parametrize("name,depth,cap", [("interval", 12, 32736 * 15 // 100), ("cantor4", 6, 5179 // 2)])
    def test_tile_tables_on_4096_point_clouds(self, monkeypatch, name, depth, cap):
        # Tiles of side 4t keep the tables' sums local, so at 4,096 points
        # they settle nearly every cube; the caps are the kernel cells of one
        # (2, 2) call on cusp_beta060 (battery seed 1) before the tiles:
        # 15% of 32,736 on interval d12 and half of 5,179 on cantor4 d6.
        cloud = build(name, depth)
        grid = fs.ScaleGrid.dyadic(cloud)
        cusp = [fs.sample(tf, cloud).values for tf in fs.battery(cloud, seed=1)
                if tf.name == "cusp_beta060"][0]
        vals = np.stack([cusp, rough_sample(cloud)])
        for k in (1, 2):
            def matrices():
                return fs.error_matrices(cloud, vals, k, 2.0, grid)

            got, fits = self.fitted_cells(monkeypatch, matrices)
            want, all_fits = self.gathered(monkeypatch, lambda: self.fitted_cells(monkeypatch, matrices))
            self.assert_agree(got, want, vals)
            assert fits < all_fits, k
        _, fits = self.fitted_cells(monkeypatch, lambda: fs.error_matrices(cloud, vals[:1], 2, 2.0, grid))
        assert fits <= cap

    @pytest.mark.parametrize("name,depth,factor", [("cantor4", 3, 1e-10), ("cantor4", 6, 1.0)])
    def test_detrending_bins_are_dense(self, monkeypatch, name, depth, factor):
        # Far below the resolution scale floor((x - x[0]) / 4t) runs to about
        # diam / 4t. Numbered densely, a tiling's tiles are at most the
        # distinct coordinates per axis; the bound is checked before the bins
        # are allocated.
        cloud = build(name, depth)
        grid = fs.ScaleGrid.dyadic(cloud, factor=factor)
        cells = math.prod(x.size for x in fs.rankspace._rank_grid(cloud).axes)
        detrended, bins = fs.maximal._detrended, []

        def bounded(z, w, values, tile, ntile, width):
            assert ntile <= tile.shape[0] * cells, (ntile, tile.shape[0], cells)
            bins.append(ntile)
            return detrended(z, w, values, tile, ntile, width)

        monkeypatch.setattr(fs.maximal, "_detrended", bounded)
        for k in (1, 2):
            fs.error_matrices(cloud, rough_sample(cloud)[None], k, 2.0, grid)
        assert bins

    def test_constants_and_affine_functions_settle_without_a_fit(self, monkeypatch):
        # Their errors are 0, and each cube's bound puts its error below the
        # kernel's clamp, taken with a lower bound on its max|f|.
        def no_fit(*args):
            raise AssertionError("the kernel was called")

        monkeypatch.setattr(fs.maximal, "_local_errors", no_fit)
        for name, depths in fs.RunConfig().generators:
            for depth in depths:
                cloud = build(name, depth)
                grid = fs.ScaleGrid.dyadic(cloud)
                battery = {tf.name: fs.sample(tf, cloud).values for tf in fs.battery(cloud)}
                for k, names in ((2, ("const_one", "const_minus", "linear_axis", "linear_blend")),
                                 (1, ("const_one", "const_minus"))):
                    vals = np.stack([battery[f] for f in names])
                    out = fs.error_matrices(cloud, vals, k, 2.0, grid)
                    assert np.all(out == 0.0), (name, depth, k)


class TestGroupedTables:
    """Scales grouped into one table build give the bytes of a build per scale."""

    @staticmethod
    def builds(monkeypatch, call, budget=None):
        """call()'s result and its table builds, under GROUP_ELEMS = ``budget``."""
        summed, built = fs.maximal._summed_area, []

        def counting(*args):
            built.append(args[0].shape[0])
            return summed(*args)

        with monkeypatch.context() as patched:
            patched.setattr(fs.maximal, "_summed_area", counting)
            if budget is not None:
                patched.setattr(fs.rankspace, "GROUP_ELEMS", budget)
            return call(), len(built)

    def assert_alone_alike(self, monkeypatch, cloud, budget=None):
        grid = fs.ScaleGrid.dyadic(cloud)
        battery = [fs.sample(tf, cloud).values for tf in fs.battery(cloud)
                   if tf.name in TestBoxSums.FUNCTIONS]
        many = np.stack([rough_sample(cloud)] + battery)
        for vals in (many[:1], many):
            for k in (1, 2):
                def matrices():
                    return fs.error_matrices(cloud, vals, k, 2.0, grid)

                got, grouped = self.builds(monkeypatch, matrices, budget)
                want, alone = self.builds(monkeypatch, matrices, 0)
                assert np.array_equal(got, want, equal_nan=True), (len(vals), k)
                assert grouped < alone == len(grid), (len(vals), k)

        def hl():
            return fs.hl_maximal(cloud, many[0], 1.0, grid).values

        got, _ = self.builds(monkeypatch, hl, budget)
        assert np.array_equal(got, self.builds(monkeypatch, hl, 0)[0])

    @pytest.mark.parametrize("name", TestBoxSums.CLOUDS)
    def test_small_clouds(self, request, monkeypatch, name):
        self.assert_alone_alike(monkeypatch, request.getfixturevalue(name))

    @pytest.mark.parametrize("name,depth", [("interval", 12), ("cantor4", 6)])
    def test_4096_point_clouds_under_a_larger_budget(self, monkeypatch, name, depth):
        self.assert_alone_alike(monkeypatch, build(name, depth), 1 << 20)

    @pytest.mark.parametrize("name,depth", [("interval", 8), ("cantor4", 4), ("interval", 10)])
    def test_one_build_per_matrix_on_the_small_rungs(self, monkeypatch, name, depth):
        # The 256- and 1,024-point rungs of the norms-scaling benchmark.
        cloud = build(name, depth)
        grid = fs.ScaleGrid.dyadic(cloud)
        for k in (1, 2):
            _, built = self.builds(monkeypatch, lambda: fs.error_matrices(cloud, rough_sample(cloud)[None], k, 2.0, grid))
            assert built == 1, k


class TestHlUnderflow:
    def test_cubes_whose_powers_underflow_keep_their_values(self, interval6):
        # Without levels 0-2 no cube about a point right of 1/2 reaches the
        # values 1 left of it, and (1e-3)**sigma underflows in units of 1.
        x = interval6.points[:, 0]
        g = np.where(x < 0.5, 1.0, 1e-3)
        full = fs.ScaleGrid.dyadic(interval6)
        grid = fs.ScaleGrid(scales=full.scales[3:], levels=full.levels[3:], diam=full.diam)
        for sigma in (200.0, 2000.0):
            got = fs.hl_maximal(interval6, g, sigma, grid).values
            far = x - grid.scales[0] > 0.5
            assert far.sum() >= 20
            np.testing.assert_allclose(got[far], 1e-3, rtol=1e-12)
            assert np.all(got > 0.0)

    def test_other_values_are_unchanged(self, monkeypatch):
        # With TINY = 0 no sum counts as underflowed: the guard and the
        # gather path are those without the mend, bit for bit.
        for name, depths in fs.RunConfig().generators:
            for depth in depths:
                cloud = build(name, depth)
                for tf in fs.battery(cloud):
                    vals = fs.sample(tf, cloud)
                    for sigma in (1.0, 3.0):
                        got = fs.hl_maximal(cloud, vals, sigma).values
                        with monkeypatch.context() as patched:
                            patched.setattr(fs.maximal, "TINY", 0.0)
                            want = fs.hl_maximal(cloud, vals, sigma).values
                        assert np.array_equal(got, want), (name, depth, tf.name, sigma)
