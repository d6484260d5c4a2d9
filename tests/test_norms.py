import math

import numpy as np
import pytest

import frakspace as fs
import reference_net


def cusp_sample(cloud, beta=0.6):
    anchor = cloud.points[cloud.size // 2]
    return np.max(np.abs(cloud.points - anchor), axis=1) ** beta


def battery_cusp(cloud):
    """The battery's cusp_beta060 (seed 1) sampled on the cloud."""
    (tf,) = (tf for tf in fs.battery(cloud, seed=1) if tf.name == "cusp_beta060")
    return fs.sample(tf, cloud).values


def net_cell_errors(cloud, vals, alpha, p, nu):
    """The net route's L^p error on each occupied level-nu cell, by cell label."""
    k = fs.degree_for_flat(alpha)
    budget, _, batch = fs.maximal._fit_batches(cloud, np.asarray(vals)[None], k)
    return fs.norms._net_errors(cloud, fs.dyadic_net(nu, cloud.bbox), budget, batch, p)


def lstsq_error(V, w, fv, p):
    """L^p norm of the weighted least-squares residual of fv in the span of V."""
    sw = np.sqrt(w)
    coef = np.linalg.lstsq(V * sw[:, None], sw * fv, rcond=None)[0]
    return np.sum(w * np.abs(fv - V @ coef) ** p) ** (1.0 / p)


class TestLpNorm:
    def test_hand_values(self, make_cloud):
        cloud = make_cloud([[0.0], [0.5], [1.0]], weights=[0.5, 0.25, 0.25])
        vals = [1.0, -2.0, 2.0]
        assert fs.lp_norm(cloud, vals, 2.0) == pytest.approx(
            math.sqrt(2.5), rel=1e-14
        )
        assert fs.lp_norm(cloud, vals, 1.0) == pytest.approx(1.5, rel=1e-14)
        assert fs.lp_norm(cloud, vals, math.inf) == 2.0

    def test_exponent_below_one_rejected(self, dust3):
        with pytest.raises(fs.OutOfRange):
            fs.lp_norm(dust3, np.ones(64), 0.5)

    def test_length_mismatch_rejected(self, dust3):
        with pytest.raises(fs.OutOfRange):
            fs.lp_norm(dust3, np.ones(63), 2.0)

    def test_grid_function_accepted(self, dust3):
        gf = fs.GridFunction(dust3, np.full(64, 3.0))
        assert fs.lp_norm(dust3, gf, 1.0) == pytest.approx(3.0, rel=1e-14)


class TestBesovNorm:
    def test_constant_has_zero_seminorm(self, dust3):
        rep = fs.besov_norm(dust3, np.full(64, 5.0), 0.5, 2.0, 2.0)
        assert rep.besov_seminorm == 0.0
        assert rep.besov == rep.lp

    def test_sup_over_scales_matches_accessor(self, dust3):
        rep = fs.besov_norm(dust3, cusp_sample(dust3), 0.5, 2.0, math.inf)
        weighted = [term for _, term in rep.weighted_per_scale()]
        assert rep.besov_seminorm == pytest.approx(max(weighted), rel=1e-14)

    def test_summed_dominates_sup(self, interval6):
        vals = cusp_sample(interval6)
        summed = fs.besov_norm(interval6, vals, 0.5, 2.0, 2.0)
        supped = fs.besov_norm(interval6, vals, 0.5, 2.0, math.inf)
        assert summed.besov_seminorm >= supped.besov_seminorm

    def test_quasi_triangle_inequality(self, dust3, rng):
        f = cusp_sample(dust3)
        g = np.sin(5.0 * dust3.points.sum(axis=1)) + rng.normal(
            scale=0.1, size=64
        )
        both = fs.besov_norm(dust3, f + g, 0.5, 2.0, 2.0).besov_seminorm
        split = (
            fs.besov_norm(dust3, f, 0.5, 2.0, 2.0).besov_seminorm
            + fs.besov_norm(dust3, g, 0.5, 2.0, 2.0).besov_seminorm
        )
        assert both <= split * (1.0 + 1e-9)

    def test_homogeneity_exact_for_binary_scalars(self, interval6):
        vals = cusp_sample(interval6)
        base = fs.besov_norm(interval6, vals, 0.5, 2.0, 2.0)
        doubled = fs.besov_norm(interval6, 2.0 * vals, 0.5, 2.0, 2.0)
        assert doubled.besov_seminorm == 2.0 * base.besov_seminorm
        assert doubled.besov == 2.0 * base.besov

    def test_per_scale_levels_and_report_fields(self, interval6):
        rep = fs.besov_norm(interval6, cusp_sample(interval6), 0.5, 2.0, 2.0)
        assert [nu for nu, _ in rep.per_scale] == [0, 1, 2, 3, 4]
        assert rep.nu_min == 0 and rep.nu_max == 4
        assert rep.diam == interval6.diam
        assert rep.params == {
            "alpha": 0.5, "p": 2.0, "q": 2.0, "u": 2.0, "variant": None,
        }
        assert rep.sharp_lp is None and rep.calderon is None

    def test_sup_norm_side_requires_inner_exponent(self, dust3):
        vals = cusp_sample(dust3)
        with pytest.raises(fs.OutOfRange):
            fs.besov_norm(dust3, vals, 0.5, math.inf, math.inf)
        rep = fs.besov_norm(dust3, vals, 0.5, math.inf, math.inf, u=2.0)
        assert rep.besov_seminorm > 0.0

    def test_parameter_validation(self, dust3):
        vals = cusp_sample(dust3)
        with pytest.raises(fs.NonpositiveAlpha):
            fs.besov_norm(dust3, vals, 0.0, 2.0, 2.0)
        with pytest.raises(fs.OutOfRange):
            fs.besov_norm(dust3, vals, 0.5, 0.9, 2.0)
        with pytest.raises(fs.OutOfRange):
            fs.besov_norm(dust3, vals, 0.5, 2.0, 0.9)


class TestCalderonNorm:
    def test_total_is_sum_of_parts(self, dust3):
        rep = fs.calderon_norm(dust3, cusp_sample(dust3), 0.5, 2.0)
        assert rep.calderon == rep.lp + rep.sharp_lp
        assert rep.besov is None and rep.besov_seminorm is None

    def test_matches_direct_composition(self, dust3):
        vals = cusp_sample(dust3)
        rep = fs.calderon_norm(dust3, vals, 0.5, 2.0, u=2.0)
        sharp = fs.sharp_maximal(dust3, vals, 0.5, u=2.0)
        assert rep.sharp_lp == fs.lp_norm(dust3, sharp, 2.0)
        assert rep.lp == fs.lp_norm(dust3, vals, 2.0)

    def test_needs_p_above_one(self, dust3):
        with pytest.raises(fs.OutOfRange):
            fs.calderon_norm(dust3, cusp_sample(dust3), 0.5, 1.0)

    def test_flat_variant_uses_larger_space_at_integers(self, interval6):
        vals = cusp_sample(interval6)
        sharp = fs.calderon_norm(interval6, vals, 1.0, 2.0, variant="sharp")
        flat = fs.calderon_norm(interval6, vals, 1.0, 2.0, variant="flat")
        assert flat.sharp_lp <= sharp.sharp_lp * (1.0 + 1e-9)


class TestNetBesovNorm:
    def test_cellwise_constant_vanishes_at_fine_levels(self, interval6):
        net2 = fs.dyadic_net(2, interval6.bbox)
        cells = net2.assign(interval6.points)
        lut = {c: 1.0 + 0.5 * i for i, c in enumerate(np.unique(cells))}
        vals = np.array([lut[c] for c in cells])
        res = fs.besov_net_norm(interval6, vals, 0.5, 2.0, 2.0, levels=[1, 2, 3])
        assert res.levels == (1, 2, 3)
        assert res.per_level[0] > 1e-3
        assert res.per_level[1] <= 1e-9
        assert res.per_level[2] <= 1e-9

    def test_cellwise_linear_vanishes_for_alpha_above_one(self, interval6):
        net2 = fs.dyadic_net(2, interval6.bbox)
        cells = net2.assign(interval6.points)
        x = interval6.points[:, 0]
        slopes = {c: (-1.0) ** i * (1.0 + i) for i, c in enumerate(np.unique(cells))}
        vals = np.array([slopes[c] for c in cells]) * x + 0.3
        for p in (1.0, 2.0, 3.0):
            res = fs.besov_net_norm(interval6, vals, 1.5, p, 2.0, levels=[2, 3])
            assert max(res.per_level) <= 1e-8

    def test_cells_on_a_line_are_fitted_in_every_p(self, cantor4_d4):
        # Some cells hold more than basis_size points, all on one line, so
        # the monomials are dependent there and fit_in_span refuses them.
        cloud = cantor4_d4
        x, y = cloud.points.T
        vals = np.sin(5.0 * x) + y**2
        refitted = 0
        for alpha in (1.5, 2.5):
            k = fs.degree_for_flat(alpha)
            for p in (1.0, 3.0):
                res = fs.besov_net_norm(cloud, vals, alpha, p, 2.0, levels=range(6))
                assert np.all(np.isfinite(res.per_level))
                for nu in range(6):
                    net = fs.dyadic_net(nu, cloud.bbox)
                    cells = net.assign(cloud.points)
                    errors = net_cell_errors(cloud, vals, alpha, p, nu)
                    for cell, err in zip(np.unique(cells), errors):
                        sel = np.flatnonzero(cells == cell)
                        if sel.size <= fs.basis_size(2, k):
                            continue
                        pts, w, fv = cloud.points[sel], cloud.weights[sel], vals[sel]
                        V, _ = fs.monomial_matrix(pts, net.cube(cell), k)
                        try:
                            fs.fit_in_span(V, w, fv, p)
                            continue
                        except fs.RankDeficient:
                            refitted += 1
                        assert err <= lstsq_error(V, w, fv, p) * (1.0 + 1e-12) + 1e-15
        assert refitted > 0

    def test_small_cells_are_fitted_in_lp_not_least_squares(self, square4):
        # Level 3 cells hold fewer points than the 6 quadratic monomials, yet
        # their points leave them dependent: the loop before the batched
        # route reported their least-squares residual at every p.
        vals = battery_cusp(square4)
        got = fs.besov_net_norm(square4, vals, 2.5, 1.0, 2.0, levels=[3]).per_level[0]
        want = reference_net.besov_net_norm(square4, vals, 2.5, 1.0, 2.0, levels=[3])
        assert got < 0.9 * want.per_level[0]
        net = fs.dyadic_net(3, square4.bbox)
        cells = net.assign(square4.points)
        errors = net_cell_errors(square4, vals, 2.5, 1.0, 3)
        for cell, err in zip(np.unique(cells), errors):
            sel = np.flatnonzero(cells == cell)
            w, fv = square4.weights[sel], vals[sel]
            V, _ = fs.monomial_matrix(square4.points[sel], net.cube(cell), 3)
            assert err <= lstsq_error(V, w, fv, 1.0) * (1.0 + 1e-12) + 1e-15

    def test_band_against_scale_sum_route(self, dust3):
        vals = cusp_sample(dust3)
        summed = fs.besov_norm(dust3, vals, 0.5, 2.0, 2.0).besov_seminorm
        net = fs.besov_net_norm(dust3, vals, 0.5, 2.0, 2.0, levels=[0, 1, 2])
        ratio = net.seminorm / summed
        assert 0.2 <= ratio <= 5.0

    def test_offset_changes_but_stays_comparable(self, dust3):
        vals = cusp_sample(dust3)
        base = fs.besov_net_norm(dust3, vals, 0.5, 2.0, 2.0, levels=[1, 2])
        moved = fs.besov_net_norm(
            dust3, vals, 0.5, 2.0, 2.0, levels=[1, 2], offset=[0.37, 0.11]
        )
        assert moved.seminorm != base.seminorm
        assert 0.2 <= moved.seminorm / base.seminorm <= 5.0

    def test_parameter_validation(self, dust3):
        vals = cusp_sample(dust3)
        with pytest.raises(fs.OutOfRange):
            fs.besov_net_norm(dust3, vals, 0.5, math.inf, 2.0, levels=[0])
        with pytest.raises(fs.OutOfRange):
            fs.besov_net_norm(dust3, vals, 0.5, 2.0, 2.0, levels=[])
        with pytest.raises(fs.OutOfRange):
            fs.besov_net_norm(dust3, vals, 0.5, 2.0, 2.0, levels=[-1])


class TestNetPinnedToCellLoop:
    """The batched net route against the per-cell loop it replaced.

    At p = 2 both fit the same least-squares problems, so each per-level
    term agrees to rtol 1e-9 plus the zero clamp's floor, 2 CLAMP_REL
    max|f| mesh**-alpha. At other p the loop reported a least-squares
    residual on cells of at most basis_size points, where the route fits
    them in L^p, so no term may exceed the loop's beyond IRLS rounding.
    """

    CLOUDS = ("interval6", "dust3", "cantor4_d4", "square3", "square4", "carpet2")

    @pytest.mark.parametrize("name", CLOUDS)
    def test_matches_reference(self, request, name):
        cloud = request.getfixturevalue(name)
        vals = battery_cusp(cloud)
        levels = range(6)
        mesh = 2.0 ** -np.arange(6)
        for alpha in (0.5, 1.5, 2.5):
            floor = 2.0 * fs.polyapprox.CLAMP_REL * np.max(np.abs(vals)) * mesh**-alpha
            for p in (1.0, 2.0, 3.0):
                got = np.array(fs.besov_net_norm(cloud, vals, alpha, p, 2.0, levels).per_level)
                want = reference_net.besov_net_norm(cloud, vals, alpha, p, 2.0, levels)
                want = np.array(want.per_level)
                if p == 2.0:
                    gap = np.abs(got - want) - 1e-9 * want
                    assert np.all(gap <= floor), (alpha, float(np.max(gap - floor)))
                else:
                    assert np.all(got <= want * (1.0 + 1e-7)), (alpha, p)


class TestScaleProfile:
    def test_matches_error_matrix_columns(self, interval6):
        vals = cusp_sample(interval6)
        grid = fs.ScaleGrid.dyadic(interval6)
        matrix = fs.approx_error_matrix(interval6, vals, 1, 2.0, grid)
        profile = fs.scale_profile(interval6, vals, 1, 2.0, 2.0, grid)
        want = np.sqrt(
            (interval6.weights[:, None] * matrix**2).sum(axis=0)
        )
        assert np.allclose(profile, want, rtol=1e-13)

    def test_sup_column_norm(self, interval6):
        vals = cusp_sample(interval6)
        grid = fs.ScaleGrid.dyadic(interval6)
        matrix = fs.approx_error_matrix(interval6, vals, 1, 2.0, grid)
        profile = fs.scale_profile(interval6, vals, 1, 2.0, math.inf, grid)
        assert np.allclose(profile, np.max(matrix, axis=0), rtol=1e-14)
