import csv
import json

import pytest

from frakspace.cli import main


SMALL_VERIFY = {
    "generators": [["cantor4", [2, 3]], ["interval", [5, 6]]],
    "mono_pairs": 12,
    "poincare_samples": 4,
    "revholder_trials": 2,
    "ahlfors_samples": 8,
    "sharp_functions": ["cusp_beta090"],
    "check_functions": ["linear_axis", "cusp_beta090"],
}


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestBuild:
    def test_reports_cloud_profile(self, capsys):
        assert main(["build", "cantor4", "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "16 points" in out
        assert "s=1.26186" in out  # log 4 / log 3
        assert "resolution" in out
        assert "ahlfors" in out

    def test_unknown_generator_fails_cleanly(self, capsys):
        assert main(["build", "gasket", "--depth", "2"]) == 2
        assert "gasket" in capsys.readouterr().err

    def test_budget_violation_fails_cleanly(self, capsys):
        assert main(["build", "cantor4", "--depth", "9"]) == 2
        assert capsys.readouterr().err

    def test_reads_ifs_from_json_file(self, tmp_path, capsys):
        spec = {
            "ambient_dim": 1,
            "name": "halves",
            "maps": [
                {"ratio": 0.5, "translate": [0.0]},
                {"ratio": 0.5, "translate": [0.5]},
            ],
        }
        path = tmp_path / "halves.json"
        path.write_text(json.dumps(spec))
        assert main(["build", str(path), "--depth", "3"]) == 0
        assert "8 points" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field,value",
        [
            ("ambient_dim", 1.5),
            ("ambient_dim", True),
            ("ambient_dim", "1"),
            ("translate", [True]),
            ("ratio", "0.5"),
            ("extra", 1),  # an unknown key
            ("translate", [float("nan")]),
        ],
    )
    def test_malformed_ifs_document_fails_cleanly(self, tmp_path, capsys, field, value):
        spec = {"ambient_dim": 1, "maps": [{"ratio": 0.5, "translate": [0.0]}, {"ratio": 0.5, "translate": [0.5]}]}
        if field in ("ratio", "translate"):
            spec["maps"][1][field] = value
        else:
            spec[field] = value
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(spec))
        assert main(["build", str(path), "--depth", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed IFS document: ") and err.count("\n") == 1
        assert field in err

    def test_unknown_generator_message_is_unquoted(self, capsys):
        assert main(["build", "nope", "--depth", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown generator 'nope'; known: [")

    def test_missing_ifs_document_message_is_unquoted(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["norms", str(path), "--depth", "2"]) == 2
        assert capsys.readouterr().err == f"error: no such IFS document: {path}\n"


class TestNorms:
    def test_writes_table_for_battery(self, tmp_path, capsys):
        out = tmp_path / "norms.csv"
        code = main([
            "norms", "interval", "--depth", "5",
            "--alpha", "0.5", "0.9", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# frakspace v1"
        rows = list(csv.DictReader(lines[1:]))
        names = {r["name"] for r in rows}
        assert "cusp_beta060" in names and "const_one" in names
        assert {r["alpha"] for r in rows} == {"0.5", "0.9"}
        sample = rows[0]
        assert sample["generator"] == "interval"
        assert float(sample["lp"]) >= 0.0

    def test_a_factor_at_the_resolution_scale_runs(self, tmp_path):
        # At factor 1 the finest scales of interval d5 hold no cube of the
        # point quota, so they are left NaN and never reach the tables.
        out = tmp_path / "norms.csv"
        assert main(["norms", "interval", "--depth", "5", "--factor", "1", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        assert rows and all(r["besov"] != "" for r in rows)

    def test_infinite_alpha_fails_cleanly(self, capsys):
        assert main(["norms", "interval", "--depth", "5", "--alpha", "inf"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err

    def test_calderon_blank_when_undefined(self, tmp_path):
        out = tmp_path / "n.csv"
        assert main([
            "norms", "interval", "--depth", "5",
            "--p", "1.0", "--out", str(out),
        ]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        assert all(r["calderon"] == "" for r in rows)
        assert all(r["besov"] != "" for r in rows)

    def test_calderon_computed_once_per_alpha_and_p(self, tmp_path, monkeypatch):
        import frakspace.cli

        calls = []
        real = frakspace.cli.calderon_norm

        def counted(*args, **kwargs):
            calls.append(args[2:4])
            return real(*args, **kwargs)

        monkeypatch.setattr(frakspace.cli, "calderon_norm", counted)
        many, one = tmp_path / "many.csv", tmp_path / "one.csv"
        base = ["norms", "interval", "--depth", "5", "--p", "1.0", "2.0"]
        assert main(base + ["--q", "1", "2", "inf", "--out", str(many)]) == 0
        rows = list(csv.DictReader(many.read_text().splitlines()[1:]))
        names = {r["name"] for r in rows}
        assert len(calls) == len(names) and set(calls) == {(0.7, 2.0)}
        assert len(rows) == 6 * len(names)
        # Its q = 2 rows read exactly as those of a run with that q alone.
        assert main(base + ["--q", "2", "--out", str(one)]) == 0
        alone = list(csv.DictReader(one.read_text().splitlines()[1:]))
        assert [r for r in rows if r["q"] == "2.0"] == alone


class TestVerify:
    def test_passing_run_and_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_VERIFY)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "verify.csv").read_bytes() == (
            out2 / "verify.csv"
        ).read_bytes()
        assert (out1 / "verdict.txt").read_bytes() == (
            out2 / "verdict.txt"
        ).read_bytes()
        verdict = (out1 / "verdict.txt").read_text()
        assert "FAIL" not in verdict
        assert "monotonicity:" in verdict
        assert capsys.readouterr().out.count("PASS") >= 8

    def test_forced_failure_exits_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            dict(SMALL_VERIFY, budget_overrides={"ahlfors_ratio": 1e-4}),
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
        text = (tmp_path / "verdict.txt").read_text()
        assert "ahlfors_ratio" in text and "FAIL" in text
        assert "FAIL" in capsys.readouterr().out

    def test_seed_flag_changes_draws(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_VERIFY)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["verify", "--config", cfg, "--out", str(a)]) == 0
        assert main([
            "verify", "--config", cfg, "--seed", "9", "--out", str(b),
        ]) == 0
        assert (a / "verify.csv").read_text() != (b / "verify.csv").read_text()

    @pytest.mark.parametrize(
        "generators,fault",
        [
            pytest.param([], "names no cloud", id="no-generator"),
            pytest.param([["interval", []]], "'interval' needs one entry", id="no-depth"),
            pytest.param(
                [["interval", [6]], ["interval", [8]]], "'interval' needs one entry",
                id="generator-twice",
            ),
            pytest.param([["interval", [6, 6]]], "'interval' needs one entry", id="depth-twice"),
        ],
    )
    def test_unusable_generators_fail_cleanly(self, tmp_path, capsys, generators, fault):
        # No cloud would print nothing and pass; a generator named twice would
        # compare depths drawn from two seed streams and radius windows; a
        # depth named twice would build one cloud twice.
        cfg = write_config(tmp_path, {"generators": generators})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "'generators'" in err and fault in err
        assert not (tmp_path / "verdict.txt").exists()

    def test_unknown_generator_in_config_is_unquoted(self, tmp_path, capsys):
        config = write_config(tmp_path, {"generators": [["nope", [3]]]})
        assert main(["verify", "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: unknown generator 'nope'; known: [")

    def test_misspelled_budget_name_fails_cleanly(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"generators": [["interval", [6]]], "budget_overrides": {"monotonicty": 0.5}},
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "['monotonicty']" in err and "'monotonicity'" in err
        assert not (tmp_path / "verdict.txt").exists()

    def test_negative_seed_flag_fails_cleanly(self, tmp_path, capsys):
        assert main(["verify", "--seed", "-1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "'seed'" in err and ">= 0" in err
        assert not (tmp_path / "verdict.txt").exists()

    def test_single_depth_stability_checks_not_evaluated(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"generators": [["interval", [6]], ["cantor4", [3]]]}
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "verdict.txt").read_text().splitlines()
        passed = [line for line in lines if line.endswith(" PASS")]
        skipped = [
            line
            for line in lines
            if line.endswith(": NOT EVALUATED (no generator with two evaluated depths)")
        ]
        assert len(lines) == 10 and len(passed) == 4 and len(skipped) == 6
        assert "sobolev_stability: NOT EVALUATED" in capsys.readouterr().out
        rows = list(csv.DictReader((tmp_path / "verify.csv").read_text().splitlines()[1:]))
        assert {r["check"] for r in rows} == {line.split(":")[0] for line in passed}

    def test_empty_sharp_function_list_not_evaluated(self, tmp_path):
        cfg = write_config(tmp_path, dict(SMALL_VERIFY, sharp_functions=[]))
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "verdict.txt").read_text().splitlines()
        assert "sharp_equivalence_left: NOT EVALUATED (nothing evaluated)" in lines
        assert (
            "sharp_equivalence_right_stability: NOT EVALUATED "
            "(no generator with two evaluated depths)"
        ) in lines
        assert sum(line.endswith(" PASS") for line in lines) == 8
        text = (tmp_path / "verify.csv").read_text()
        assert "sharp_equivalence" not in text

    def test_bad_config_key_fails_cleanly(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mono_paris": 3})
        assert main(["verify", "--config", cfg]) == 2
        assert "mono_paris" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,name", [("check_functions", "nope"), ("sharp_functions", "cusp_beta03")]
    )
    def test_unknown_function_name_fails_cleanly(self, tmp_path, capsys, field, name):
        cfg = write_config(tmp_path, {"generators": [["interval", [6]]], field: [name]})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert field in err and name in err
        assert not (tmp_path / "verdict.txt").exists()

    @pytest.mark.parametrize(
        "payload,field",
        [
            ({"generators": [["interval", 6]]}, "generators"),
            ({"mono_pairs": "many"}, "mono_pairs"),
            ({"generators": [["interval", [6.7]]]}, "generators"),
        ],
    )
    def test_malformed_config_value_fails_cleanly(self, tmp_path, capsys, payload, field):
        cfg = write_config(tmp_path, payload)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and field in err
        assert not (tmp_path / "verdict.txt").exists()

    @pytest.mark.parametrize(
        "field", ["mono_pairs", "poincare_samples", "revholder_trials", "ahlfors_samples"]
    )
    def test_negative_count_fails_cleanly(self, tmp_path, capsys, field):
        cfg = write_config(tmp_path, {"generators": [["interval", [6]]], field: -3})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and field in err and ">= 0" in err
        assert not (tmp_path / "verdict.txt").exists()

    def test_no_monotonicity_pairs_is_not_evaluated(self, tmp_path):
        cfg = write_config(tmp_path, dict(SMALL_VERIFY, mono_pairs=0))
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "verdict.txt").read_text().splitlines()
        assert "monotonicity: NOT EVALUATED (nothing evaluated)" in lines
        assert (
            "monotonicity_regularity: NOT EVALUATED "
            "(no generator with two evaluated depths)"
        ) in lines
        assert sum(line.endswith(" PASS") for line in lines) == 8
        assert "monotonicity" not in (tmp_path / "verify.csv").read_text()

    def test_default_run_writes_plain_floats(self, tmp_path):
        # numpy 2 writes repr(np.float64(x)) as np.float64(x); every value
        # reaching a witness must be a Python float.
        assert main(["verify", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "verify.csv").read_text()
        assert "np." not in text and "float64" not in text
        assert sum(line.endswith(" PASS") for line in (tmp_path / "verdict.txt").read_text().splitlines()) == 10

    def test_check_parameter_key_fails_at_once(self, tmp_path, capsys):
        # The checks' parameters are constants; a config naming one is refused
        # before any cloud is built.
        cfg = write_config(tmp_path, {"generators": [["interval", [6]]], "sharp_alpha": 1e6})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "unknown config keys: ['sharp_alpha']" in capsys.readouterr().err
        assert not (tmp_path / "verdict.txt").exists()

    @pytest.mark.parametrize(
        "payload,kind",
        [([["mono_pairs", 3]], "list"), (["seed"], "list"), (3, "int"), (None, "NoneType"), ("x", "str")],
    )
    def test_config_that_is_not_an_object_fails_cleanly(self, tmp_path, capsys, payload, kind):
        cfg = write_config(tmp_path, payload)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"JSON object, got {kind}" in err
        assert not (tmp_path / "verdict.txt").exists()

    def test_malformed_json_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify", "--config", str(path)]) == 2
        assert capsys.readouterr().err


class TestArgparse:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "build" in capsys.readouterr().out

    def test_missing_subcommand_usage_error(self, capsys):
        assert main([]) == 2

    def test_bad_flag_usage_error(self, capsys):
        assert main(["build", "cantor4", "--depht", "2"]) == 2
