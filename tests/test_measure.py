import json
import math

import numpy as np
import pytest

import frakspace as fs


class TestMoranDimension:
    def test_two_halves_give_dimension_one(self):
        assert fs.moran_dimension([0.5, 0.5]) == pytest.approx(1.0, abs=1e-10)

    def test_four_halves_give_dimension_two(self):
        assert fs.moran_dimension([0.5] * 4) == pytest.approx(2.0, abs=1e-10)

    def test_four_thirds_matches_log_ratio(self):
        # Closed form: 4 * r**s = 1  =>  s = log 4 / log(1/r).
        expected = math.log(4.0) / math.log(3.0)
        assert fs.moran_dimension([1 / 3] * 4) == pytest.approx(expected, abs=1e-10)

    def test_eight_thirds_matches_log_ratio(self):
        expected = math.log(8.0) / math.log(3.0)
        assert fs.moran_dimension([1 / 3] * 8) == pytest.approx(expected, abs=1e-10)

    def test_mixed_ratios_match_golden_ratio_closed_form(self):
        # 0.5**s + 0.25**s = 1 with x = 0.5**s becomes x + x**2 = 1, so
        # x = (sqrt(5) - 1)/2 and s = log(x)/log(0.5).
        x = (math.sqrt(5.0) - 1.0) / 2.0
        expected = math.log(x) / math.log(0.5)
        assert fs.moran_dimension([0.5, 0.25]) == pytest.approx(expected, abs=1e-10)

    def test_single_ratio_gives_zero(self):
        assert fs.moran_dimension([0.37]) == 0.0

    def test_moran_identity_holds_at_solution(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ratios = rng.uniform(0.05, 0.45, size=rng.integers(2, 6))
            s = fs.moran_dimension(ratios)
            assert float(np.sum(ratios**s)) == pytest.approx(1.0, abs=1e-10)

    def test_shrinking_ratios_decreases_dimension(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            ratios = rng.uniform(0.05, 0.45, size=4)
            assert fs.moran_dimension(0.9 * ratios) < fs.moran_dimension(ratios)

    def test_empty_ratios_rejected(self):
        with pytest.raises(fs.EmptyRatios):
            fs.moran_dimension([])

    def test_ratio_bounds_enforced(self):
        with pytest.raises(fs.OutOfRange):
            fs.moran_dimension([0.5, 1.0])
        with pytest.raises(fs.OutOfRange):
            fs.moran_dimension([0.5, 0.0])


class TestBuildCloud:
    def test_dust_depth3_point_count_and_uniform_weights(self, dust3):
        assert dust3.size == 64
        assert np.all(dust3.weights == 1.0 / 64)
        assert abs(float(dust3.weights.sum()) - 1.0) <= 1e-12
        assert dust3.depth == 3
        assert dust3.max_ratio == pytest.approx(1 / 3)
        assert dust3.name == "cantor4"

    def test_depth_zero_is_single_center_point(self):
        cloud = fs.build_cloud(fs.generator_spec("square"), 0)
        assert cloud.size == 1
        assert np.allclose(cloud.points, 0.5)
        assert cloud.diam == 1.0

    def test_budget_enforced(self):
        spec = fs.generator_spec("cantor4")
        with pytest.raises(fs.BudgetExceeded):
            fs.build_cloud(spec, 9)  # 4**9 = 262144 > 2**17
        assert fs.DEFAULT_POINT_BUDGET == 2**17

    def test_unequal_ratios_weights_follow_mass_products(self):
        # 1D system with ratios (0.5, 0.25): branch masses are x and x**2
        # with x = 0.5**s = (sqrt(5) - 1)/2.
        spec = fs.IfsSpec(
            ambient_dim=1,
            maps=((0.5, (0.0,)), (0.25, (0.75,))),
            name="two_scale",
        )
        cloud = fs.build_cloud(spec, 1)
        x = (math.sqrt(5.0) - 1.0) / 2.0
        assert cloud.weights == pytest.approx([x, x * x], abs=1e-12)

    def test_depth_weights_multiply_along_words(self):
        spec = fs.IfsSpec(
            ambient_dim=1,
            maps=((0.5, (0.0,)), (0.25, (0.75,))),
            name="two_scale",
        )
        cloud = fs.build_cloud(spec, 2)
        x = (math.sqrt(5.0) - 1.0) / 2.0
        expected = [x * x, x * x * x, x * x * x, x * x * x * x]
        assert cloud.weights == pytest.approx(expected, abs=1e-12)

    def test_resolution_scale_formula(self, dust3):
        assert dust3.resolution_scale == pytest.approx(
            dust3.diam * (1 / 3) ** 3, rel=1e-12
        )

    def test_interval_points_are_dyadic_centers(self):
        cloud = fs.build_cloud(fs.generator_spec("interval"), 3)
        expected = np.sort((2 * np.arange(8) + 1) / 16.0)
        assert np.allclose(np.sort(cloud.points[:, 0]), expected)


class TestCloudValidation:
    def test_weights_must_sum_to_one(self, make_cloud):
        with pytest.raises(fs.OutOfRange):
            make_cloud([[0.0], [1.0]], weights=[0.6, 0.5])

    def test_weights_must_be_positive(self, make_cloud):
        with pytest.raises(fs.OutOfRange):
            make_cloud([[0.0], [1.0]], weights=[1.0, 0.0])

    def test_dimension_window_enforced(self, make_cloud):
        with pytest.raises(fs.OutOfRange):
            make_cloud([[0.0, 0.0], [1.0, 1.0]], s=0.9)
        with pytest.raises(fs.OutOfRange):
            make_cloud([[0.0, 0.0], [1.0, 1.0]], s=2.1)

    def test_points_are_read_only(self, dust3):
        with pytest.raises(ValueError):
            dust3.points[0, 0] = 99.0


class TestValuesOf:
    def test_function_of_another_cloud_is_refused(self, dust3, square3):
        # Both clouds hold 64 points, so only the function's cloud tells.
        gf = fs.GridFunction(square3, square3.points[:, 0] ** 2, name="x2")
        cube = fs.Cube(dust3.points[0], dust3.diam)
        for call in (
            lambda: fs.lp_norm(dust3, gf, 2.0),
            lambda: fs.sharp_maximal(dust3, gf, 0.5),
            lambda: fs.MatrixCache().matrices(dust3, [gf], 1, 2.0),
            lambda: fs.best_approx(dust3, cube, gf, 1, 2.0),
        ):
            with pytest.raises(fs.OutOfRange, match="sampled on"):
                call()

    def test_function_of_an_equal_cloud_is_accepted(self, dust3):
        twin = fs.build_cloud(fs.generator_spec("cantor4"), 3)
        assert twin is not dust3
        gf = fs.GridFunction(twin, twin.points[:, 0] ** 2, name="x2")
        assert fs.lp_norm(dust3, gf, 2.0) == fs.lp_norm(twin, gf, 2.0)


class TestGenerators:
    def test_builtin_names(self):
        assert set(fs.BUILTIN_GENERATORS) == {"cantor4", "carpet", "square", "interval"}

    def test_cantor_dust_ratio_window(self):
        with pytest.raises(fs.OutOfRange):
            fs.cantor_dust(0.25)
        with pytest.raises(fs.OutOfRange):
            fs.cantor_dust(0.51)
        spec = fs.cantor_dust(0.5)
        assert fs.moran_dimension(spec.ratios) == pytest.approx(2.0, abs=1e-10)

    def test_carpet_dimension(self):
        spec = fs.generator_spec("carpet")
        expected = math.log(8.0) / math.log(3.0)
        assert fs.moran_dimension(spec.ratios) == pytest.approx(expected, abs=1e-10)

    def test_square_and_interval_dimensions(self):
        assert fs.moran_dimension(fs.generator_spec("square").ratios) == pytest.approx(
            2.0, abs=1e-10
        )
        assert fs.moran_dimension(
            fs.generator_spec("interval").ratios
        ) == pytest.approx(1.0, abs=1e-10)

    def test_unknown_generator(self):
        with pytest.raises(fs.UnknownGenerator):
            fs.generator_spec("gasket")

    def test_json_roundtrip(self, tmp_path):
        spec = fs.cantor_dust(0.3)
        path = tmp_path / "dust.json"
        path.write_text(
            json.dumps(
                {
                    "name": "custom_dust",
                    "ambient_dim": spec.ambient_dim,
                    "maps": [
                        {"ratio": r, "translate": list(t)} for r, t in spec.maps
                    ],
                }
            )
        )
        loaded = fs.generator_spec(str(path))
        assert loaded.name == "custom_dust"
        assert loaded.ratios == spec.ratios
        cloud = fs.build_cloud(loaded, 2)
        assert cloud.size == 16


class TestAhlforsConstants:
    def test_full_diameter_scale_gives_exact_ratio(self, square3):
        # Every cube of half-side diam centered at a cloud point holds the
        # whole cloud, so the normalized mass is exactly diam**-s.
        report = fs.ahlfors_constants(square3, samples=5, scales=[square3.diam])
        expected = square3.diam**-square3.s
        assert report.c1_hat == pytest.approx(expected, rel=1e-12)
        assert report.c2_hat == pytest.approx(expected, rel=1e-12)
        assert report.ratio == pytest.approx(1.0, rel=1e-12)

    def test_interior_cell_masses_on_square_lattice(self, square3):
        # Depth-3 square lattice: an interior point with Chebyshev radius
        # r = (2j+1)/16 captures exactly (2j+1)**2 of the 64 points.
        pts = square3.points
        center = pts[np.argmin(np.abs(pts - 0.5).max(axis=1))]
        dx = np.abs(pts - center).max(axis=1)
        for j in (1, 2):
            r = (2 * j + 1) / 16.0
            mass = float(square3.weights[dx <= r].sum())
            assert mass == pytest.approx((2 * j + 1) ** 2 / 64.0, rel=1e-12)

    def test_ratio_moderate_across_depths(self):
        spec = fs.generator_spec("cantor4")
        for depth in (2, 3, 4):
            cloud = fs.build_cloud(spec, depth)
            lo = 4.0 * cloud.resolution_scale
            hi = max(cloud.diam / 4.0, 2.0 * lo)
            report = fs.ahlfors_constants(
                cloud, samples=32, scales=np.geomspace(lo, hi, 5)
            )
            assert 0 < report.c1_hat <= report.c2_hat
            assert report.ratio < 50.0

    def test_scale_below_resolution_rejected(self, dust3):
        with pytest.raises(fs.ScaleTooFine):
            fs.ahlfors_constants(
                dust3, samples=4, scales=[0.5 * dust3.resolution_scale]
            )

    def test_scale_above_diameter_rejected(self, dust3):
        with pytest.raises(fs.OutOfRange):
            fs.ahlfors_constants(dust3, samples=4, scales=[1.1 * dust3.diam])

    def test_deterministic_for_fixed_seed(self, dust3):
        scales = [dust3.diam / 2.0, dust3.diam / 4.0]
        r1 = fs.ahlfors_constants(dust3, samples=16, scales=scales, rng=3)
        r2 = fs.ahlfors_constants(dust3, samples=16, scales=scales, rng=3)
        assert (r1.c1_hat, r1.c2_hat) == (r2.c1_hat, r2.c2_hat)
