import tracemalloc

import numpy as np
import pytest

import frakspace as fs
import reference_checks
from conftest import synthetic_cloud
from frakspace import verify
from frakspace.polyapprox import CLAMP_REL
from test_maximal import GAPPED_IFS


SMALL_CONFIG = {
    "generators": [["cantor4", [2, 3]], ["interval", [5, 6]]],
    "mono_pairs": 24,
    "poincare_samples": 6,
    "revholder_trials": 4,
    "ahlfors_samples": 16,
    "sharp_functions": ["cusp_beta090"],
    "check_functions": ["linear_axis", "cusp_beta090"],
}

# run_all(SMALL_CONFIG) as computed by the run_all that kept one dict per
# check: worst constant and the (generator, depth, function) of its witness.
SMALL_RUN_FROZEN = {
    "ahlfors_ratio": (3.3580602112821993, ("cantor4", 2, "-")),
    "embedding_perscale": (1.0, ("cantor4", 2, "linear_axis")),
    "embedding_stability": (1.0186308332364404, ("interval", 6, "R1")),
    "monotonicity": (1.0, ("cantor4", 2, "const_one")),
    "monotonicity_regularity": (1.039757798806063, ("interval", 6, "regularity")),
    "poincare_stability": (1.1064958814084491, ("cantor4", 3, "poincare")),
    "reverse_holder_stability": (1.0164415572145618, ("cantor4", 3, "reverse_holder")),
    "sharp_equivalence_left": (0.9155785362841056, ("cantor4", 3, "cusp_beta090")),
    "sharp_equivalence_right_stability": (1.0328447823882358, ("cantor4", 3, "right")),
    "sobolev_stability": (1.3242452431548961, ("cantor4", 3, "sobolev")),
}


class TestExponentArithmetic:
    def test_averaging_exponent_hand_values(self):
        assert fs.poincare_sigma(2.0, 0.5, 1.0) == pytest.approx(1.0)
        assert fs.poincare_sigma(2.0, 1.0, 2.0) == pytest.approx(1.0)
        assert fs.poincare_sigma(4.0, 0.5, 2.0) == pytest.approx(2.0)

    def test_embedding_exponent_hand_values(self):
        assert fs.sobolev_exponent(1.5, 1.0, 1) == pytest.approx(3.0)
        assert fs.sobolev_exponent(2.0, 1.0, 1) == pytest.approx(2.0)

    def test_embedding_exponent_needs_room(self):
        with pytest.raises(fs.OutOfRange):
            fs.sobolev_exponent(1.0, 1.0, 1)
        with pytest.raises(fs.OutOfRange):
            fs.sobolev_exponent(1.0, 2.0, 1)


class TestBudgets:
    def test_default_budget_names(self):
        assert set(fs.DEFAULT_BUDGETS) == {
            "ahlfors_ratio",
            "embedding_perscale",
            "embedding_stability",
            "monotonicity",
            "monotonicity_regularity",
            "poincare_stability",
            "reverse_holder_stability",
            "sharp_equivalence_left",
            "sharp_equivalence_right_stability",
            "sobolev_stability",
        }

    def test_exact_ordering_budgets_pinned(self):
        assert fs.DEFAULT_BUDGETS["monotonicity"] == 1.0 + 1e-6
        assert fs.DEFAULT_BUDGETS["sharp_equivalence_left"] == 1.0 + 1e-8
        assert fs.DEFAULT_BUDGETS["embedding_perscale"] == 1.0 + 1e-6

    def test_override(self):
        cfg = fs.RunConfig(budget_overrides=(("ahlfors_ratio", 7.0),))
        budgets = cfg.budgets()
        assert budgets["ahlfors_ratio"] == 7.0
        assert budgets["monotonicity"] == fs.DEFAULT_BUDGETS["monotonicity"]

    def test_check_result_verdict(self):
        ok = fs.CheckResult("x", 1.5, 2.0, (), {})
        bad = fs.CheckResult("x", 2.5, 2.0, (), {})
        assert ok.passed and not bad.passed


class TestRunConfig:
    def test_from_dict_roundtrip(self):
        cfg = fs.RunConfig.from_dict(SMALL_CONFIG)
        assert cfg.generators == (("cantor4", (2, 3)), ("interval", (5, 6)))
        assert cfg.mono_pairs == 24
        assert cfg.seed == 0

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(fs.OutOfRange):
            fs.RunConfig.from_dict({"mono_paris": 10})

    def test_fields_are_what_a_run_may_change(self):
        assert list(fs.RunConfig.__dataclass_fields__) == [
            "generators",
            "seed",
            "mono_pairs",
            "poincare_samples",
            "revholder_trials",
            "ahlfors_samples",
            "check_functions",
            "sharp_functions",
            "budget_overrides",
        ]

    @pytest.mark.parametrize(
        "key",
        [
            "scale_factor",
            "mono_degrees",
            "mono_exponents",
            "poincare_alpha",
            "poincare_q",
            "sharp_alpha",
            "sharp_exponents",
            "sharp_norm_p",
            "embedding_alphas",
            "embedding_p",
            "sobolev_k",
            "sobolev_p",
            "revholder_degree",
            "revholder_pairs",
            "ahlfors_scales",
        ],
    )
    def test_check_parameters_are_not_config_keys(self, key):
        # The checks' parameters are module constants of verify.py.
        with pytest.raises(fs.OutOfRange, match="unknown config keys"):
            fs.RunConfig.from_dict({key: 1})

    def test_budget_overrides_from_mapping(self):
        cfg = fs.RunConfig.from_dict(
            {"budget_overrides": {"ahlfors_ratio": 9.0}}
        )
        assert cfg.budgets()["ahlfors_ratio"] == 9.0


class TestSingleChecks:
    def test_monotonicity_within_budget(self, dust3):
        funcs = [fs.sample(tf, dust3) for tf in fs.battery(dust3)[:6]]
        worst, regularity, wits, evaluated, entered = fs.check_monotonicity(
            dust3, funcs, np.random.default_rng(1), pairs=40
        )
        assert evaluated >= 40
        assert 0 < entered <= evaluated
        assert worst <= 1.0 + 1e-6
        assert regularity >= 1.0
        assert all(isinstance(w, fs.Witness) for w in wits)

    def test_sharp_equivalence_ordering(self, dust3):
        funcs = [
            fs.sample(tf, dust3)
            for tf in fs.battery(dust3)
            if tf.name in ("cusp_beta060", "sigmoid_steep")
        ]
        cache = fs.MatrixCache()
        left, right, wits = fs.check_sharp_equivalence(dust3, funcs, cache)
        assert left <= 1.0 + 1e-8
        assert right >= 1.0

    def test_embedding_chain_on_one_cloud(self, dust3):
        funcs = [
            fs.sample(tf, dust3)
            for tf in fs.battery(dust3)
            if tf.name in ("cusp_beta060", "ripple")
        ]
        perscale, r1, r2, wits = fs.check_embedding_chain(
            dust3, funcs, fs.MatrixCache(), alphas=(0.7,), p=2.0
        )
        assert perscale <= 1.0 + 1e-6
        # Both route-comparison constants divide a weaker norm by a
        # stronger one, so they sit in (0, 1] up to rounding.
        assert 0.0 < r1 <= 1.0 + 1e-9
        assert 0.0 < r2 <= 1.0 + 1e-9

    def test_matrix_cache_reuses_arrays(self, dust3):
        cache = fs.MatrixCache()
        gf = fs.sample(fs.battery(dust3)[10], dust3)
        first = cache.matrix(dust3, gf, 1, 2.0)
        again = cache.matrix(dust3, gf, 1, 2.0)
        assert first is again

    def test_matrix_cache_does_not_alias_dropped_clouds(self):
        cache = fs.MatrixCache()
        for depth in (3, 2, 4, 3, 2, 2, 3):
            cloud = fs.build_cloud(fs.generator_spec("cantor4"), depth)
            gf = fs.sample(fs.battery(cloud)[10], cloud)
            matrix = cache.matrix(cloud, gf, 1, 2.0)
            assert matrix.shape == (cloud.size, len(fs.ScaleGrid.dyadic(cloud)))
            del cloud, gf

    def test_batched_matrices_match_single_calls(self, dust3):
        cache = fs.MatrixCache()
        funcs = [fs.sample(tf, dust3) for tf in fs.battery(dust3)[::2]]
        grid = cache.grid(dust3)
        for k, u in ((1, 1.0), (1, 2.0), (2, 2.0), (1, 4.0), (2, 3.0)):
            for gf, batched in zip(funcs, cache.matrices(dust3, funcs, k, u)):
                single = fs.approx_error_matrix(dust3, gf, k, u, grid)
                np.testing.assert_allclose(batched, single, rtol=1e-12, atol=0.0)

    def test_poincare_without_functions_evaluates_nothing(self, dust3):
        out = fs.check_poincare(
            dust3, [], fs.MatrixCache(), np.random.default_rng(0), samples=5
        )
        assert out == (0.0, [], 0)

    def test_random_cubes_snap_in_bounded_memory(self):
        # Snapping 1,500 targets to 4,096 points once formed one
        # [draws, N, n] difference, 94 MB; each centre must stay the nearest
        # point by that formula, taken here one target at a time.
        cloud = fs.build_cloud(fs.generator_spec("interval"), 12)
        tracemalloc.start()
        try:
            centres, radii = verify._random_cubes(
                cloud, np.random.default_rng(3), 1500, 0.01, 0.1
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        rng = np.random.default_rng(3)
        lo, hi = cloud.bbox
        targets = lo + rng.random((1500, 1)) * (hi - lo)
        nearest = [np.argmin(((t - cloud.points) ** 2).sum(axis=1)) for t in targets]
        assert np.array_equal(centres, cloud.points[nearest])
        log_r = np.log(0.01) + rng.random(1500) * (np.log(0.1) - np.log(0.01))
        assert np.array_equal(radii, np.exp(log_r))


class TestRunAll:
    def test_small_run_passes_and_is_deterministic(self):
        cfg = fs.RunConfig.from_dict(SMALL_CONFIG)
        results = fs.run_all(cfg)
        names = [r.check_name for r in results]
        assert names == sorted(names)
        assert len(results) >= 8
        for res in results:
            assert res.passed, f"{res.check_name}: {res.worst_constant}"
        rerun = fs.run_all(cfg)
        for a, b in zip(results, rerun):
            assert a.check_name == b.check_name
            assert a.worst_constant == b.worst_constant
            assert a.witnesses == b.witnesses

    @pytest.mark.parametrize("field", ["check_functions", "sharp_functions"])
    def test_unknown_function_names_rejected(self, field):
        cfg = fs.RunConfig.from_dict(
            dict(SMALL_CONFIG, **{field: ["cusp_beta090", "nope", "cusp_beta03"]})
        )
        with pytest.raises(fs.OutOfRange, match=r"\['cusp_beta03', 'nope'\]"):
            fs.run_all(cfg)

    def test_small_run_values_pinned(self):
        results = fs.run_all(fs.RunConfig.from_dict(SMALL_CONFIG))
        assert [r.check_name for r in results] == sorted(SMALL_RUN_FROZEN)
        for res in results:
            value, witness = SMALL_RUN_FROZEN[res.check_name]
            # rtol 1e-12 leaves room for last-digit BLAS differences only.
            assert res.worst_constant == pytest.approx(value, rel=1e-12, abs=0.0)
            assert [
                (res.check_name, w.generator, w.depth, w.function)
                for w in res.witnesses
            ] == [(res.check_name, *witness)]

    def test_one_kernel_call_per_cloud_and_exponent(self, monkeypatch):
        calls = []
        kernel = verify.error_matrices

        def counting(cloud, values, k, u, grid, *args, **kwargs):
            calls.append((id(cloud), k, u))
            return kernel(cloud, values, k, u, grid, *args, **kwargs)

        monkeypatch.setattr(verify, "error_matrices", counting)
        fs.run_all(fs.RunConfig.from_dict(SMALL_CONFIG))
        # 4 clouds x (k, u) in {(1, 1), (1, 2), (1, 4), (2, 2)}.
        assert len(calls) == 16
        assert len(set(calls)) == 16

    def test_default_run_certifies_every_fit(self, monkeypatch):
        # Every fit of the default run, matrix cells included, is exact or
        # certified by its own stopping rule.
        counts = {"fits": 0, "unconverged": 0}
        kernel = fs.polyapprox._local_errors

        def counting(*args):
            out = kernel(*args)
            counts["fits"] += out[3].size
            counts["unconverged"] += int(np.count_nonzero(~out[3]))
            return out

        for module in (fs.polyapprox, fs.maximal, fs.norms, fs.verify):
            monkeypatch.setattr(module, "_local_errors", counting)
        fs.run_all(fs.RunConfig())
        assert counts["fits"] > 0 and counts["unconverged"] == 0

    def test_checks_fit_no_cube_one_at_a_time(self, monkeypatch):
        calls = []
        for name in ("best_approx", "restrict", "reverse_holder_ratio"):
            one = getattr(verify, name)
            monkeypatch.setattr(verify, name, lambda *a, one=one: calls.append(a) or one(*a))
        fs.run_all(fs.RunConfig.from_dict(SMALL_CONFIG))
        assert calls == []

    def test_regularity_on_no_draw_is_not_evaluated(self):
        # Each cloud's one draw falls on const_one, whose errors are 0, so no
        # draw enters the regularity maximum: no depth takes part, where its
        # constant 0.0 once failed the run as an infinite drift.
        cfg = fs.RunConfig.from_dict({"generators": [["interval", [8, 10]]], "mono_pairs": 2})
        results = {r.check_name: r for r in fs.run_all(cfg)}
        regularity = results["monotonicity_regularity"]
        assert regularity.evaluated == 0 and np.isnan(regularity.worst_constant)
        assert regularity.witnesses == ()
        assert results["monotonicity"].evaluated == 2
        assert all(r.passed for r in results.values() if r.evaluated)

    def test_single_depth_leaves_stability_not_evaluated(self):
        cfg = fs.RunConfig.from_dict(
            dict(SMALL_CONFIG, generators=[["interval", [5]], ["cantor4", [2]]])
        )
        results = {r.check_name: r for r in fs.run_all(cfg)}
        assert set(results) == set(fs.DEFAULT_BUDGETS)
        for name, res in results.items():
            if name in verify.DIRECT_CHECKS:
                assert res.evaluated > 0 and res.passed, name
            else:
                assert res.evaluated == 0, name
                assert np.isnan(res.worst_constant) and res.witnesses == ()
                assert res.metadata == {}

    def test_no_generators_gives_no_results(self):
        assert fs.run_all(fs.RunConfig(generators=())) == []

    def test_failure_reported_not_raised(self):
        cfg = fs.RunConfig.from_dict(
            dict(SMALL_CONFIG, budget_overrides={"ahlfors_ratio": 1e-4})
        )
        results = fs.run_all(cfg)
        by_name = {r.check_name: r for r in results}
        assert not by_name["ahlfors_ratio"].passed
        assert any(r.passed for r in results)


def line_and_block():
    """A 2-D cloud where small cubes hold too few points for k = 2 and cubes
    on its segment are rank deficient there."""
    line = np.stack([np.linspace(0.0, 1.0, 48), np.zeros(48)], axis=1)
    grid = np.linspace(0.0, 0.3, 6)
    block = np.stack(np.meshgrid(0.6 + grid, 0.5 + grid), axis=-1).reshape(-1, 2)
    return synthetic_cloud(np.vstack([line, block]), depth=6, name="line_and_block")


# The SMALL_CONFIG clouds, square d3 and the gapped IFS d4, each with its own
# window, and a cloud with a window where many draws cannot be fitted.
PINNED_CLOUDS = [
    *((name, depth, None) for name, depth in
      [("cantor4", 2), ("cantor4", 3), ("interval", 5), ("interval", 6), ("square", 3)]),
    ("gapped", 4, None),
    ("line_and_block", 0, (0.02, 0.3)),
]


def pinned_cloud(name, depth):
    if name == "line_and_block":
        return line_and_block()
    return fs.build_cloud(GAPPED_IFS if name == "gapped" else fs.generator_spec(name), depth)


def assert_same_outcome(got, want, scale):
    """Same witnesses and counts; constants within 1e-12 relative, plus the
    clamp floor of the functions' size."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, list):
            assert [(w.function, w.params) for w in a] == [(w.function, w.params) for w in b]
            assert all(type(w.value) is float for w in a)
        elif isinstance(b, int):
            assert a == b
        else:
            assert type(a) is float
            assert abs(a - b) <= 1e-12 * abs(b) + 2.0 * CLAMP_REL * scale, (a, b)


class TestBatchedChecksMatchLoops:
    """The batched checks against the per-cube loops they replaced."""

    @pytest.mark.parametrize("name,depth", [("interval", 5), ("square", 3), ("gapped", 4)])
    def test_cube_members_are_restricts(self, name, depth):
        # Half-sides equal to exact Chebyshev distances between cloud points
        # put points on the faces, where the closed test must admit them.
        cloud = pinned_cloud(name, depth)
        rng = np.random.default_rng(5)
        centres = cloud.points[rng.integers(cloud.size, size=40)]
        halves = np.abs(cloud.points[rng.integers(cloud.size, size=40)] - centres).max(axis=1)
        halves = np.where(halves > 0.0, halves, 0.1)
        index = np.arange(cloud.size, dtype=float)[None]
        seen = []
        for at, (_, w, f, mass) in fs.rankspace._cube_cells(cloud, index, 1, centres, halves):
            for c, row, m in zip(at, f[0], mass):
                idx, want = fs.restrict(cloud, fs.Cube(centres[c], float(halves[c])))
                assert np.array_equal(row[: idx.size], idx) and not row[idx.size :].any()
                assert m == pytest.approx(want, rel=1e-14)
                seen.append(c)
        assert sorted(seen) == list(range(40))

    @pytest.mark.parametrize("name,depth,window", PINNED_CLOUDS)
    def test_monotonicity(self, name, depth, window, monkeypatch):
        cloud = pinned_cloud(name, depth)
        funcs = [fs.sample(tf, cloud) for tf in fs.battery(cloud)]
        scale = max(float(np.abs(gf.values).max()) for gf in funcs)
        raised = []
        fit = reference_checks.best_approx

        def recording(*args):
            try:
                return fit(*args)
            except (fs.TooFewPoints, fs.RankDeficient) as exc:
                raised.append(type(exc))
                raise

        monkeypatch.setattr(reference_checks, "best_approx", recording)
        for seed in (0, 1):
            want = reference_checks.check_monotonicity(
                cloud, funcs, np.random.default_rng(seed), 24, window, name
            )
            got = fs.check_monotonicity(cloud, funcs, np.random.default_rng(seed), 24, window, name)
            assert_same_outcome(got[:4], want, scale)
            assert 0 <= got[4] <= got[3]
        if window is not None:  # some draws were skipped, and enough kept
            assert {fs.TooFewPoints, fs.RankDeficient} <= set(raised)
            assert got[3] == 24

    @pytest.mark.parametrize("name,depth,window", PINNED_CLOUDS)
    def test_poincare(self, name, depth, window):
        cloud = pinned_cloud(name, depth)
        funcs = [fs.sample(tf, cloud) for tf in fs.battery(cloud)][::3]
        scale = max(float(np.abs(gf.values).max()) for gf in funcs)
        cache = fs.MatrixCache()
        for seed in (0, 1):
            want = reference_checks.check_poincare(
                cloud, funcs, cache, np.random.default_rng(seed), 12, window, name
            )
            got = fs.check_poincare(cloud, funcs, cache, np.random.default_rng(seed), 12, window, name)
            assert_same_outcome(got, want, scale)

    @pytest.mark.parametrize("name,depth,window", PINNED_CLOUDS)
    def test_reverse_holder(self, name, depth, window):
        cloud = pinned_cloud(name, depth)
        for seed in (0, 1):
            want = reference_checks.check_reverse_holder(
                cloud, np.random.default_rng(seed), 24, window, name
            )
            got = fs.check_reverse_holder(cloud, np.random.default_rng(seed), 24, window, name)
            assert_same_outcome(got, want, 0.0)
