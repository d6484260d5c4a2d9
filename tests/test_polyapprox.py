import itertools
import math

import numpy as np
import pytest

import frakspace as fs
import oracles


def full_cube(cloud):
    lo, hi = cloud.bbox
    center = 0.5 * (lo + hi)
    half = float(np.max(hi - lo)) / 2.0 + 1e-9
    return fs.Cube(center, half)


def seeded_cloud(n_points=40, dim=2, seed=3):
    rng = np.random.default_rng(seed)
    pts = rng.random((n_points, dim))
    w = rng.uniform(0.5, 1.5, n_points)
    w /= w.sum()
    return fs.WeightedPointCloud(
        points=pts,
        weights=w,
        s=float(dim),
        depth=0,
        diam=float(np.linalg.norm(pts.max(0) - pts.min(0))),
        max_ratio=0.5,
        name="random",
    )


class TestBasisEnumeration:
    def test_multi_indices_degree_one_in_2d(self):
        assert fs.multi_indices(2, 1) == [(0, 0), (1, 0), (0, 1)]

    def test_multi_indices_counts_match_basis_size(self):
        for n in (1, 2, 3):
            for k in (0, 1, 2, 3, 4):
                assert len(fs.multi_indices(n, k - 1)) == fs.basis_size(n, k)

    def test_multi_indices_order_is_graded_decreasing_lexicographic(self):
        # Every exponent tuple of the box, by total degree, then largest
        # exponents of the first axes first.
        for n in (1, 2, 3, 4):
            for d in range(7):
                box = itertools.product(range(d + 1), repeat=n)
                want = sorted(
                    (e for e in box if sum(e) <= d),
                    key=lambda e: (sum(e), [-x for x in e]),
                )
                assert fs.multi_indices(n, d) == want, (n, d)

    def test_basis_size_values(self):
        assert fs.basis_size(2, 2) == 3
        assert fs.basis_size(2, 3) == 6
        assert fs.basis_size(1, 3) == 3
        assert fs.basis_size(3, 2) == 4
        assert fs.basis_size(2, 0) == 0

    def test_monomials_bounded_on_cube(self, dust3):
        cube = full_cube(dust3)
        V, exps = fs.monomial_matrix(dust3.points, cube, 3)
        assert V.shape == (64, 6)
        assert np.max(np.abs(V)) <= 1.0 + 1e-12
        assert len(exps) == 6


class TestPolynomial:
    def test_chart_evaluation(self):
        p = fs.Polynomial(
            ambient_dim=2,
            max_degree=2,
            exponents=[(2, 0)],
            coefficients=[1.0],
            origin=np.array([1.0, 1.0]),
            scale=2.0,
        )
        assert p(np.array([[3.0, 1.0]]))[0] == pytest.approx(1.0)
        assert p(np.array([[1.0, 5.0]]))[0] == pytest.approx(0.0)

    def test_coeff_map_roundtrip(self):
        mapping = {(0, 0): 1.5, (1, 1): -2.0}
        p = fs.Polynomial.from_coeff_map(2, mapping)
        assert p.coeff_map() == mapping

    def test_zero_and_constant(self):
        z = fs.Polynomial.zero(2)
        c = fs.Polynomial.constant(2, 4.5)
        pts = np.array([[0.3, 0.8]])
        assert z(pts)[0] == 0.0
        assert c(pts)[0] == 4.5


class TestFitInSpanOracles:
    def test_weighted_mean_oracle_u2(self, make_cloud):
        # Hand arithmetic: weights (1/2, 1/4, 1/4), values (1, 2, 4).
        # Minimizer is the weighted mean 2.0; the residual norm is
        # sqrt(0.5*1 + 0.25*0 + 0.25*4) = sqrt(1.5).
        cloud = make_cloud([[0.0], [0.5], [1.0]], weights=[0.5, 0.25, 0.25])
        res = fs.best_approx(cloud, full_cube(cloud), [1.0, 2.0, 4.0], 1, 2.0)
        assert res.value == pytest.approx(math.sqrt(1.5), rel=1e-12)
        assert res.minimizer(np.array([[0.3]]))[0] == pytest.approx(2.0, rel=1e-12)

    def test_weighted_median_oracle_u1(self, make_cloud):
        # Exhaustive scan over data values is exact for the best constant
        # in L^1: the optimum is attained at a data point.
        rng = np.random.default_rng(17)
        vals = rng.normal(size=15)
        w = rng.uniform(0.2, 1.0, 15)
        w /= w.sum()
        cloud = make_cloud(np.linspace(0.0, 1.0, 15)[:, None], weights=w)
        oracle = min(float(np.sum(w * np.abs(vals - c))) for c in vals)
        res = fs.best_approx(cloud, full_cube(cloud), vals, 1, 1.0)
        assert res.value == pytest.approx(oracle, rel=1e-12)

    def test_dense_grid_scan_cannot_beat_u1_fit(self, make_cloud):
        rng = np.random.default_rng(23)
        vals = rng.normal(size=12)
        cloud = make_cloud(np.linspace(0.0, 1.0, 12)[:, None])
        res = fs.best_approx(cloud, full_cube(cloud), vals, 1, 1.0)
        grid = np.arange(vals.min(), vals.max(), 1e-4 * np.ptp(vals))
        scan = min(
            float(np.mean(np.abs(vals - c))) for c in grid
        )
        assert res.value <= scan + 1e-9

    def test_ternary_search_oracle_u3(self, make_cloud):
        # Independent oracle: the best-constant objective in L^3 is convex;
        # locate its minimum by ternary search on the data range.
        rng = np.random.default_rng(29)
        vals = rng.normal(size=20)
        w = np.full(20, 1.0 / 20)
        cloud = make_cloud(np.linspace(0.0, 1.0, 20)[:, None])

        def objective(c):
            return float(np.sum(w * np.abs(vals - c) ** 3) ** (1.0 / 3.0))

        lo, hi = float(vals.min()), float(vals.max())
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if objective(m1) < objective(m2):
                hi = m2
            else:
                lo = m1
        oracle = objective(0.5 * (lo + hi))
        res = fs.best_approx(cloud, full_cube(cloud), vals, 1, 3.0)
        assert res.value == pytest.approx(oracle, rel=1e-6)

    def test_polynomials_fit_exactly(self):
        cloud = seeded_cloud()
        cube = full_cube(cloud)
        z = (cloud.points - cube.center) / cube.half_side
        for k, u in [(1, 1.0), (2, 1.5), (2, 2.0), (3, 3.0), (3, 1.0)]:
            if k == 1:
                f = np.full(cloud.size, -0.7)
            elif k == 2:
                f = 1.0 + 2.0 * z[:, 0] - 0.5 * z[:, 1]
            else:
                f = z[:, 0] ** 2 - z[:, 0] * z[:, 1] + 0.25
            res = fs.best_approx(cloud, cube, f, k, u)
            assert res.value <= 1e-9 * float(np.max(np.abs(f)))

    def test_rank_deficiency_detected(self, make_cloud):
        # Points on a line make the quadratic basis degenerate in 2D.
        t = np.linspace(0.0, 1.0, 12)
        cloud = make_cloud(np.column_stack([t, t]))
        with pytest.raises(fs.RankDeficient):
            fs.best_approx(
                cloud, full_cube(cloud), np.sin(t), 2, 2.0
            )

    def test_fewer_points_than_columns_is_rank_deficient(self):
        # A one-point net cell of the carpet: one design row, six columns.
        # Its one singular value must not pass the rank test against itself.
        cloud = fs.build_cloud(fs.generator_spec("carpet"), 3)
        net = fs.dyadic_net(6, cloud.bbox)
        cells = net.assign(cloud.points)
        sel = np.flatnonzero(cells == np.unique(cells)[0])
        assert sel.size == 1
        V, _ = fs.monomial_matrix(cloud.points[sel], net.cube(np.unique(cells)[0]), 3)
        assert V.shape == (1, 6)
        for u in (1.0, 2.0, 3.0, 4.0):
            with pytest.raises(fs.RankDeficient):
                fs.fit_in_span(V, cloud.weights[sel], np.ones(1), u)

    @pytest.mark.parametrize("u", [1.5, 3.0])
    def test_newton_stops_at_once_on_equal_values(self, u):
        # Equal values away from the start c = 0 leave a bracket of width 0.
        from frakspace.polyapprox import _newton_errors

        error, c, steps, converged = _newton_errors(
            np.full((1, 1, 30), 1e-17), np.full((1, 30), 1.0 / 30.0), u
        )
        assert steps[0, 0] == 0 and converged[0, 0]
        assert error[0, 0] == 0.0 and c[0, 0] == 1e-17

    def test_least_squares_exact_fits_settle_without_a_step(self):
        # A constant fitted by lines in L^3: least squares is exact, and the
        # fit stops there. Reweighting used to jitter on rounding for 50 steps.
        cloud = fs.build_cloud(fs.generator_spec("interval"), 8)
        cube = fs.Cube(np.array([0.474609375]), 0.16952473780135227)
        res = fs.best_approx(cloud, cube, battery_values(cloud, "const_minus"), 2, 3.0)
        assert res.converged and res.iterations == 0 and res.value == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_extreme_exponent_is_certified_or_unconverged(self, interval6, k):
        # At u = 200, |r|**u of a residual below 0.03 leaves the double range,
        # which summed in absolute units gives an error of 0.
        cube = fs.Cube(interval6.points[10], 0.1)
        idx = fs.restrict(interval6, cube)[0]
        V, _ = fs.monomial_matrix(interval6.points[idx], cube, k)
        x = interval6.points[:, 0]
        for vals in (np.sin(7.0 * x), 1.0 + 1e-3 * np.sin(7.0 * x)):
            res = fs.best_approx(interval6, cube, vals, k, 200.0)
            want = oracles.best_fit_lu(V, interval6.weights[idx], vals[idx], 200.0)
            assert res.value > 0.0
            if res.converged:
                assert res.value == pytest.approx(want, rel=1e-8)
            else:  # the error of its last iterate
                assert res.value >= want * (1.0 - 1e-12)

    def test_too_few_points(self, make_cloud):
        cloud = make_cloud([[0.1, 0.1], [0.9, 0.8], [0.4, 0.6]])
        with pytest.raises(fs.TooFewPoints):
            fs.best_approx(cloud, full_cube(cloud), [1.0, 2.0, 3.0], 2, 2.0)

    def test_exponent_range(self, dust3):
        with pytest.raises(fs.OutOfRange):
            fs.best_approx(dust3, full_cube(dust3), dust3.points[:, 0], 1, 0.5)
        with pytest.raises(fs.OutOfRange):
            fs.best_approx(dust3, full_cube(dust3), dust3.points[:, 0], 1, math.inf)

    @pytest.mark.parametrize("u", [1.5, 3.0, 4.0])
    def test_best_constants_are_exact_on_every_cube(self, cantor4_d4, u):
        # Every (point, scale) cube with two points or more, one per point set:
        # cubes holding the same points have the same best constant (1,280
        # cubes, 257 sets). sigmoid_steep has cells with errors far below
        # max|f|, where smoothed reweighting of constants overstates the
        # minimum, by up to 18.8% at u = 4.
        cloud = cantor4_d4
        cubes = {}
        for x in cloud.points:
            for t in fs.ScaleGrid.dyadic(cloud).scales:
                cube = fs.Cube(x, float(t))
                idx = fs.restrict(cloud, cube)[0]
                if idx.size >= 2:
                    cubes.setdefault(idx.tobytes(), (cube, idx))
        cubes = list(cubes.values())
        # The cubes' points side by side, padded with zero weight, for the oracle.
        width = max(idx.size for _, idx in cubes)
        pad = np.array([np.pad(idx, (0, width - idx.size)) for _, idx in cubes])
        inside = np.arange(width) < np.array([[idx.size] for _, idx in cubes])
        w = np.where(inside, cloud.weights[pad], 0.0)
        for tf in fs.battery(cloud):
            if tf.name not in ("sigmoid_steep", "cusp_beta060"):
                continue
            f = fs.sample(tf, cloud).values
            scale = np.max(np.abs(f))
            floor = 2.0 * fs.polyapprox.CLAMP_REL * scale
            want = oracles.best_constant_lu(f[pad], w, u)
            for (cube, idx), exact in zip(cubes, want):
                res = fs.best_approx(cloud, cube, f, 1, u)
                assert res.converged
                assert abs(res.value - exact) <= 1e-9 * exact + floor, tf.name
                # The minimizer's own residual gives the reported error: to
                # 1e-12 of max|f|, as some errors are themselves 1e-11 of it.
                resid = f[idx] - res.minimizer(cloud.points[idx])
                got = np.sum(cloud.weights[idx] * np.abs(resid) ** u) ** (1.0 / u)
                tol = floor if res.value == 0.0 else 1e-12 * scale
                assert abs(got - res.value) <= tol, tf.name

    def test_k_zero_is_plain_norm(self, make_cloud):
        cloud = make_cloud([[0.0], [1.0]], weights=[0.5, 0.5])
        res = fs.best_approx(cloud, full_cube(cloud), [3.0, -4.0], 0, 2.0)
        assert res.value == pytest.approx(math.sqrt(0.5 * 9 + 0.5 * 16), rel=1e-12)
        assert res.minimizer.max_degree == -1


class TestMonotonicity:
    def test_nested_cubes_over_seeded_pairs(self):
        cloud = seeded_cloud(n_points=120, seed=41)
        rng = np.random.default_rng(43)
        f = np.sin(4.0 * cloud.points[:, 0]) + cloud.points[:, 1] ** 2
        checked = 0
        while checked < 50:
            c = cloud.points[rng.integers(cloud.size)]
            r_out = rng.uniform(0.3, 0.7)
            r_in = r_out * rng.uniform(0.4, 0.9)
            u = [1.0, 2.0, 3.0][checked % 3]
            k = [1, 2][checked % 2]
            try:
                e_out = fs.best_approx(cloud, fs.Cube(c, r_out), f, k, u)
                e_in = fs.best_approx(cloud, fs.Cube(c, r_in), f, k, u)
            except (fs.TooFewPoints, fs.RankDeficient):
                continue
            checked += 1
            assert e_in.value <= e_out.value * (1.0 + 1e-6)
            # The value is the error of the minimizer returned with it.
            idx, _ = fs.restrict(cloud, fs.Cube(c, r_out))
            resid = f[idx] - e_out.minimizer(cloud.points[idx])
            got = np.sum(cloud.weights[idx] * np.abs(resid) ** u) ** (1.0 / u)
            assert got == pytest.approx(e_out.value, rel=1e-12)


class TestProjector:
    def test_reproduces_constants_to_1e10(self):
        cloud = seeded_cloud()
        cube = full_cube(cloud)
        for k in (1, 2, 3):
            proj = fs.make_projector(cloud, cube, k)
            for lam in (1.0, -3.25, 0.37):
                result = fs.apply_projector(proj, np.full(cloud.size, lam))
                vals = result(cloud.points)
                assert np.max(np.abs(vals - lam)) <= 1e-10 * max(1.0, abs(lam))

    def test_reproduces_low_degree_polynomials(self):
        cloud = seeded_cloud(seed=57)
        cube = full_cube(cloud)
        z = (cloud.points - cube.center) / cube.half_side
        f = 0.3 - 1.2 * z[:, 0] + 0.8 * z[:, 1]
        proj = fs.make_projector(cloud, cube, 2)
        vals = fs.apply_projector(proj, f)(cloud.points)
        assert np.max(np.abs(vals - f)) <= 1e-9 * float(np.max(np.abs(f)))

    def test_idempotent_to_1e8(self):
        cloud = seeded_cloud(seed=61)
        cube = full_cube(cloud)
        f = np.sin(7.0 * cloud.points[:, 0]) * np.exp(cloud.points[:, 1])
        proj = fs.make_projector(cloud, cube, 3)
        once = fs.apply_projector(proj, f)(cloud.points)
        twice = fs.apply_projector(proj, once)(cloud.points)
        scale = float(np.max(np.abs(f)))
        assert np.max(np.abs(twice - once)) <= 1e-8 * scale

    def test_basis_orthonormal(self):
        cloud = seeded_cloud(seed=67)
        proj = fs.make_projector(cloud, full_cube(cloud), 3)
        B = proj._basis_values
        w = proj._weights
        gram = B.T @ (B * w[:, None])
        assert np.max(np.abs(gram - np.eye(proj.dimension))) <= 1e-8

    def test_near_best_within_factor_ten(self):
        cloud = seeded_cloud(n_points=80, seed=71)
        cube = full_cube(cloud)
        f = np.abs(cloud.points[:, 0] - 0.4) ** 0.7
        for k in (1, 2):
            proj = fs.make_projector(cloud, cube, k)
            pf = fs.apply_projector(proj, f)(cloud.points)
            idx, mass = fs.restrict(cloud, cube)
            w = cloud.weights[idx]
            proj_err = float(np.sqrt(np.sum(w * (f[idx] - pf[idx]) ** 2)))
            best = fs.best_approx(cloud, cube, f, k, 2.0).value
            assert proj_err <= 10.0 * best + 1e-15

    def test_shrinking_cubes_localize(self):
        # On ever smaller cubes around a point, the projection of a smooth
        # function approaches the function value there.
        cloud = seeded_cloud(n_points=600, seed=73)
        x0 = np.array([0.5, 0.5])
        f = np.cos(3.0 * cloud.points[:, 0]) + cloud.points[:, 1]
        target = math.cos(1.5) + 0.5
        errors = []
        for half in (0.5, 0.25, 0.12):
            proj = fs.make_projector(cloud, fs.Cube(x0, half), 2)
            errors.append(abs(float(fs.apply_projector(proj, f)(x0[None])[0]) - target))
        assert errors[2] < errors[0]
        assert errors[2] < 0.05

    def test_too_few_points_for_projector(self, make_cloud):
        cloud = make_cloud([[0.1, 0.2], [0.8, 0.3], [0.5, 0.9]])
        with pytest.raises(fs.TooFewPoints):
            fs.make_projector(cloud, full_cube(cloud), 2)

    @pytest.mark.parametrize("count", [61, 71])
    def test_wrong_sample_count_rejected(self, dust3, count):
        proj = fs.make_projector(dust3, full_cube(dust3), 2)
        with pytest.raises(fs.OutOfRange):
            fs.apply_projector(proj, np.ones(count))
        with pytest.raises(fs.OutOfRange):
            fs.sup_bound_ratio(proj, np.ones(count))

    def test_degenerate_geometry_rejected(self, make_cloud):
        t = np.linspace(0.0, 1.0, 10)
        cloud = make_cloud(np.column_stack([t, 2.0 * t]))
        with pytest.raises(fs.RankDeficient):
            fs.make_projector(cloud, full_cube(cloud), 2)

    def test_k_zero_projects_to_zero(self):
        cloud = seeded_cloud(seed=79)
        proj = fs.make_projector(cloud, full_cube(cloud), 0)
        result = fs.apply_projector(proj, np.ones(cloud.size))
        assert result.max_degree == -1
        assert proj.dimension == 0
        assert proj.basis == ()
        assert proj.gram_cond == 1.0
        assert fs.sup_bound_ratio(proj, np.ones(cloud.size)) == 0.0
        assert fs.uniform_bound(proj, 2.0) == 0.0

    def test_uniform_bound_controls_sup(self):
        cloud = seeded_cloud(seed=83)
        cube = full_cube(cloud)
        proj = fs.make_projector(cloud, cube, 2)
        rng = np.random.default_rng(89)
        for _ in range(5):
            f = rng.normal(size=cloud.size)
            ratio = fs.sup_bound_ratio(proj, f)
            assert ratio <= fs.uniform_bound(proj, 1.0) + 1e-9

    def test_uniform_bound_at_infinity_pairs_sup_with_l1(self, interval6):
        # The conjugate of u = inf is 1, not inf / inf.
        proj = fs.make_projector(interval6, fs.Cube([0.5], 0.3), 2)
        x = interval6.points[proj.indices]
        w = interval6.weights[proj.indices]
        want = sum(
            np.max(np.abs(p(x))) * np.sum(w * np.abs(p(x))) for p in proj.basis
        )
        got = fs.uniform_bound(proj, math.inf)
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12)


class TestReverseHolder:
    def test_constant_polynomial_gives_one(self, dust3):
        poly = fs.Polynomial.constant(2, 3.0)
        ratio = fs.reverse_holder_ratio(dust3, full_cube(dust3), poly, 4.0, 1.0)
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_zero_polynomial_gives_one(self, dust3):
        poly = fs.Polynomial.zero(2)
        assert fs.reverse_holder_ratio(dust3, full_cube(dust3), poly, 2.0, 1.0) == 1.0

    def test_equal_exponents_give_one(self, dust3):
        cube = full_cube(dust3)
        poly = fs.Polynomial.from_coeff_map(
            2, {(1, 0): 1.0}, origin=cube.center, scale=cube.half_side
        )
        assert fs.reverse_holder_ratio(dust3, cube, poly, 2.0, 2.0) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_ratio_at_least_one(self, dust3, rng):
        cube = full_cube(dust3)
        exps = fs.multi_indices(2, 2)
        for _ in range(5):
            poly = fs.Polynomial(
                2, 2, np.array(exps), rng.normal(size=len(exps)),
                cube.center, cube.half_side,
            )
            ratio = fs.reverse_holder_ratio(dust3, cube, poly, 4.0, 2.0)
            assert ratio >= 1.0 - 1e-12

    def test_sup_average_at_q_infinite(self, interval6):
        # The L^inf average is max |p| over the cube's points, so the ratio is
        # max|p| / avg|p|: at least 1, and the same for p and 10 p.
        cube = fs.Cube(np.array([0.5]), 0.3)
        idx, mass = fs.restrict(interval6, cube)
        ratios = []
        for scale in (1.0, 10.0):
            poly = fs.Polynomial.from_coeff_map(1, {(0,): 0.2 * scale, (1,): scale})
            vals = np.abs(poly.evaluate(interval6.points[idx]))
            want = vals.max() / (np.sum(interval6.weights[idx] * vals) / mass)
            got = fs.reverse_holder_ratio(interval6, cube, poly, math.inf, 1.0)
            assert got == pytest.approx(want, rel=1e-12) and got >= 1.0
            assert fs.reverse_holder_ratio(interval6, cube, poly, math.inf, math.inf) == 1.0
            ratios.append(got)
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)

    def test_exponent_order_enforced(self, dust3):
        poly = fs.Polynomial.constant(2, 1.0)
        with pytest.raises(fs.OutOfRange):
            fs.reverse_holder_ratio(dust3, full_cube(dust3), poly, 1.0, 2.0)

    def test_empty_cube_rejected(self, dust3):
        poly = fs.Polynomial.constant(2, 1.0)
        with pytest.raises(fs.EmptyCube):
            fs.reverse_holder_ratio(
                dust3, fs.Cube(np.array([9.0, 9.0]), 0.1), poly, 2.0, 1.0
            )


def battery_values(cloud, name):
    return fs.sample(next(tf for tf in fs.battery(cloud, 1) if tf.name == name), cloud).values


def distinct_cubes(cloud, grid):
    """One (i, j) cell per distinct point set among the cubes Q(x_i, t_j)."""
    seen = {}
    for i, x in enumerate(cloud.points):
        dist = np.abs(cloud.points - x).max(axis=1)
        for j, t in enumerate(grid.scales):
            seen.setdefault(tuple(np.flatnonzero(dist <= t)), (i, j))
    return seen


class TestExactL1:
    """Exact u = 1 fits at k >= 2 against the benchmark's oracles.

    ``oracles.bench.cell`` brackets a normalized error between an exact
    minimum (vertex enumeration, k = 2 and at most 40 points) or a duality
    lower bound and the least-squares objective, with the clamp floor
    2e-11 max|f| as slack on both sides.
    """

    CLOUDS = ("cantor4_d4", "interval6", "square3", "carpet2")

    def oracle(self, cloud, vals, i, t, k):
        pts, wts = cloud.points, cloud.weights
        return oracles.bench.cell(pts, wts, vals, pts[i], float(t), k, 1.0)

    @pytest.mark.parametrize("name", CLOUDS)
    def test_small_cells_reach_the_vertex_minimum(self, request, name):
        cloud = request.getfixturevalue(name)
        grid = fs.ScaleGrid.dyadic(cloud)
        for fname in ("cusp_beta060", "ridge_abs"):
            vals = battery_values(cloud, fname)
            got = fs.approx_error_matrix(cloud, vals, 2, 1.0, grid)
            checked = 0
            for members, (i, j) in distinct_cubes(cloud, grid).items():
                if len(members) > oracles.bench.VERTEX_MAX_POINTS:
                    continue
                cell = self.oracle(cloud, vals, i, grid.scales[j], 2)
                if cell.status == "ambiguous":
                    continue
                value = got[i, j]
                assert cell.admits(value), (fname, i, j, value, cell.lo)
                if cell.status == "bracket":
                    assert value <= cell.lo * (1.0 + 1e-9) + cell.floor, (fname, i, j)
                    checked += 1
            assert checked > 0

    @pytest.mark.parametrize("name", CLOUDS)
    @pytest.mark.parametrize("k", [2, 3])
    def test_large_cells_lie_in_the_duality_bracket(self, request, name, k):
        cloud = request.getfixturevalue(name)
        grid = fs.ScaleGrid.dyadic(cloud)
        vals = battery_values(cloud, "lacunary_beta050")
        got = fs.approx_error_matrix(cloud, vals, k, 1.0, grid)
        cubes = [
            ij for members, ij in distinct_cubes(cloud, grid).items()
            if k == 3 or len(members) > oracles.bench.VERTEX_MAX_POINTS
        ]
        for i, j in cubes[:: max(1, len(cubes) // 40)]:
            cell = self.oracle(cloud, vals, i, grid.scales[j], k)
            assert cell.admits(got[i, j]), (i, j, got[i, j], cell.lo, cell.hi)

    @pytest.mark.parametrize("name", CLOUDS)
    def test_polynomial_data_fits_exactly(self, request, name, rng):
        cloud = request.getfixturevalue(name)
        grid = fs.ScaleGrid.dyadic(cloud)
        for k in (2, 3):
            exps = np.asarray(fs.multi_indices(cloud.ambient_dim, k - 1))
            coef = rng.standard_normal(len(exps))
            poly = fs.Polynomial(cloud.ambient_dim, k - 1, exps, coef, np.zeros(cloud.ambient_dim))
            got = fs.approx_error_matrix(cloud, poly(cloud.points), k, 1.0, grid)
            assert np.all(np.isnan(got) | (got == 0.0)), k

    @pytest.mark.parametrize("name", ["square3", "carpet2", "interval6"])
    def test_kinks_and_ties_converge(self, request, name):
        # ridge_abs is exactly linear on either side of its kink, and rounded
        # values repeat: both leave many residuals exactly zero.
        cloud = request.getfixturevalue(name)
        grid = fs.ScaleGrid.dyadic(cloud)
        ridge = battery_values(cloud, "ridge_abs")
        for vals in (ridge, np.round(4.0 * battery_values(cloud, "cusp_beta060")) / 4.0):
            for (i, j) in list(distinct_cubes(cloud, grid).values())[::3]:
                cube = fs.Cube(cloud.points[i], float(grid.scales[j]))
                for k in (2, 3):
                    try:
                        res = fs.best_approx(cloud, cube, vals, k, 1.0)
                    except (fs.TooFewPoints, fs.RankDeficient):
                        continue
                    assert res.converged, (i, j, k)
                    assert res.iterations < fs.polyapprox.EXCHANGE_MAX_PIVOTS

    def test_duplicated_points_converge_to_the_vertex_minimum(self, make_cloud, rng):
        x = rng.random((12, 2))
        cloud = make_cloud(np.vstack([x, x, x[:4]]))
        vals = np.sin(3.0 * cloud.points[:, 0]) + cloud.points[:, 1] ** 2
        cube = fs.Cube(np.full(2, 0.5), 0.5)
        res = fs.best_approx(cloud, cube, vals, 2, 1.0)
        assert res.converged
        V, _ = fs.monomial_matrix(cloud.points, cube, 2)
        want = oracles.bench.vertex_l1_error(V, cloud.weights, vals)
        assert res.value == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_padding_rows_never_enter(self, square3):
        # A padded batch of cells gives each cell the fit it gets alone,
        # however well its padding rows would fit the data.
        grid = fs.ScaleGrid.dyadic(square3)
        vals = battery_values(square3, "cusp_beta060")
        cubes = list(distinct_cubes(square3, grid).items())[5:40:5]
        width = max(len(members) for members, _ in cubes)
        V = np.zeros((len(cubes), width, 3))
        w = np.zeros((len(cubes), width))
        f = np.zeros((1, len(cubes), width))
        alone = []
        for l, (members, (i, j)) in enumerate(cubes):
            rows = np.asarray(members)
            cube = fs.Cube(square3.points[i], float(grid.scales[j]))
            Vl, _ = fs.monomial_matrix(square3.points[rows], cube, 2)
            V[l, : rows.size], w[l, : rows.size] = Vl, square3.weights[rows]
            f[0, l, : rows.size] = vals[rows]
            V[l, rows.size :] = Vl[0]  # padding on a data row, residual 0 there
            alone.append(fs.fit_in_span(Vl, square3.weights[rows], vals[rows], 1.0))
        value, _, _, converged = fs.polyapprox._local_errors(V, w, f, 1.0, w.sum(axis=1))
        assert converged.all()
        for l, (_, v, _, _) in enumerate(alone):
            assert value[0, l] == pytest.approx(v, rel=1e-9, abs=1e-14)

    def test_rank_deficient_cells_are_nan(self, make_cloud):
        # A line bent by 1e-9..1e-3: small cubes about the flat end hold
        # enough points for a planar fit but are rank deficient.
        x = np.linspace(0.0, 1.0, 48)
        y = 10.0 ** np.linspace(-9.0, -3.0, 48) * (-1.0) ** np.arange(48)
        cloud = make_cloud(np.column_stack([x, y]))
        levels = np.arange(6)
        grid = fs.ScaleGrid(
            scales=cloud.diam * 2.0**-levels, levels=levels, diam=cloud.diam
        )
        vals = np.sin(5.0 * x) + 1e3 * y
        least = fs.approx_error_matrix(cloud, vals, 2, 2.0, grid)
        got = fs.approx_error_matrix(cloud, vals, 2, 1.0, grid)
        assert np.isnan(got).any() and np.array_equal(np.isnan(got), np.isnan(least))
        flat = fs.Cube(np.zeros(2), 0.15)
        with pytest.raises(fs.RankDeficient):
            fs.best_approx(cloud, flat, vals, 2, 1.0)
        assert fs.best_approx(cloud, flat, np.zeros(48), 2, 1.0).value == 0.0

    @pytest.mark.parametrize("name", ["cantor4_d4", "carpet2"])
    def test_matrix_cells_match_best_approx(self, request, name):
        cloud = request.getfixturevalue(name)
        grid = fs.ScaleGrid.dyadic(cloud)
        vals = battery_values(cloud, "sigmoid_steep")
        floor = 2.0 * fs.polyapprox.CLAMP_REL * np.max(np.abs(vals))
        for k in (2, 3):
            got = fs.approx_error_matrix(cloud, vals, k, 1.0, grid)
            for i, j in list(distinct_cubes(cloud, grid).values())[::7]:
                if np.isnan(got[i, j]):
                    continue
                cube = fs.Cube(cloud.points[i], float(grid.scales[j]))
                res = fs.best_approx(cloud, cube, vals, k, 1.0)
                assert res.converged
                assert got[i, j] == pytest.approx(res.normalized, rel=1e-9, abs=floor)
