import numpy as np
import pytest

import frakspace as fs


SMALL_CONFIG = {
    "generators": [["cantor4", [2, 3]], ["interval", [5, 6]]],
    "mono_pairs": 24,
    "poincare_samples": 6,
    "revholder_trials": 4,
    "ahlfors_samples": 16,
    "sharp_functions": ["cusp_beta090"],
    "check_functions": ["linear_axis", "cusp_beta090"],
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

    def test_budget_overrides_from_mapping(self):
        cfg = fs.RunConfig.from_dict(
            {"budget_overrides": {"ahlfors_ratio": 9.0}}
        )
        assert cfg.budgets()["ahlfors_ratio"] == 9.0


class TestSingleChecks:
    def test_monotonicity_within_budget(self, dust3):
        funcs = [fs.sample(tf, dust3) for tf in fs.battery(dust3)[:6]]
        worst, regularity, wits, evaluated = fs.check_monotonicity(
            dust3, funcs, np.random.default_rng(1), pairs=40
        )
        assert evaluated >= 40
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
        left, right, wits = fs.check_sharp_equivalence(
            dust3, funcs, cache, alpha=0.5,
            exponents=(1.0, 2.0, 4.0), norm_p=4.0,
        )
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
            dust3, [], fs.MatrixCache(), np.random.default_rng(0),
            samples=5, alpha=0.5, q=2.0,
        )
        assert out == (0.0, [], 0)


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
