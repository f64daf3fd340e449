"""Exit codes, artifact layout, and byte-determinism of the CLI."""
import csv
import json

from modal_market.cli import main


def read_csv(path):
    with path.open() as fh:
        return list(csv.reader(fh))


class TestSolveCommand:
    def test_builtin_solve_succeeds(self, tmp_path, capsys):
        code = main(["solve", "--scenario", "builtin:5node", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged" in out
        for name in ("solution.json", "mode_shares.csv", "prices.csv",
                     "drivers.csv", "run_manifest.json"):
            assert (tmp_path / name).exists(), name

    def test_solution_document_structure(self, tmp_path):
        main(["solve", "--scenario", "builtin:5node", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "solution.json").read_text())
        assert doc["converged"] is True
        assert doc["residual_inf_norm"] <= 1e-10
        assert set(doc["prices"]) == {
            "rho_direct", "rho_hub", "lambda", "eta_direct", "eta_hub"
        }
        assert set(doc["flows"]) == {"traveler", "driver", "signout", "stocks"}
        assert doc["flows"]["traveler"]["1-2"]["ride"] > 0

    def test_manifest_records_config_and_version(self, tmp_path):
        main(["solve", "--scenario", "builtin:5node", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["tool"] == "modal-market"
        assert manifest["command"] == "solve"
        assert manifest["config"]["scenario"] == "builtin:5node"
        assert "version" in manifest

    def test_byte_identical_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["solve", "--scenario", "builtin:sioux1", "--out", str(out)])
        for name in ("solution.json", "mode_shares.csv", "prices.csv", "drivers.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_json_format(self, tmp_path):
        main(["solve", "--scenario", "builtin:5node", "--out", str(tmp_path),
              "--format", "json"])
        assert (tmp_path / "metrics.json").exists()
        assert not (tmp_path / "mode_shares.csv").exists()

    def test_forced_nonconvergence_exits_3_with_artifacts(self, tmp_path):
        code = main(["solve", "--scenario", "builtin:5node", "--out",
                     str(tmp_path), "--max-iter", "1"])
        assert code == 3
        doc = json.loads((tmp_path / "solution.json").read_text())
        assert doc["converged"] is False

    def test_missing_file_exits_2(self, tmp_path):
        code = main(["solve", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == 2

    def test_schema_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        code = main(["solve", "--scenario", str(bad), "--out", str(tmp_path)])
        assert code == 2

    def test_validation_failure_exits_2(self, tmp_path):
        import json

        from modal_market.scenario import builtin_5node, to_document

        doc = to_document(builtin_5node())
        doc["ods"][0]["demand"] = 0.0  # loads fine, fails validation
        path = tmp_path / "zero_demand.json"
        path.write_text(json.dumps(doc))
        code = main(["solve", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 2

    def test_solve_from_saved_file(self, tmp_path):
        from modal_market.scenario import builtin_5node, save

        path = tmp_path / "sc.json"
        path.write_bytes(save(builtin_5node()))
        code = main(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 0


class TestValidateCommand:
    def test_5node_all_checks_pass(self, capsys):
        code = main(["validate", "--scenario", "builtin:5node", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        for check in ("market_clearing", "traveler_logit_replay",
                      "driver_logit_replay", "kkt_stationarity",
                      "convexity_probe", "uniqueness"):
            assert f"PASS {check}" in out

    def test_unreachable_tolerance_fails_clearly(self, capsys):
        code = main(["validate", "--scenario", "builtin:5node",
                     "--replay-tol", "1e-30", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL driver_logit_replay" in out

    def test_report_artifact(self, tmp_path):
        code = main(["validate", "--scenario", "builtin:5node", "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert report["checks"]["kkt_stationarity"]["passed"] is True
        assert report["kkt_stationarity"] <= 1e-6

    def test_env_seed_fallback(self, monkeypatch, capsys):
        monkeypatch.setenv("MODAL_MARKET_SEED", "77")
        code = main(["validate", "--scenario", "builtin:5node"])
        assert code == 0

    def test_probe_nonconvergence_still_reports(self, tmp_path, capsys):
        # a uniqueness-probe start of random_scenario(3) stalls (a known
        # far-start failure); the check table and the report still appear
        from modal_market.oracle import random_scenario
        from modal_market.scenario import save

        path = tmp_path / "random-3.json"
        path.write_bytes(save(random_scenario(3)))
        out_dir = tmp_path / "out"
        code = main(["validate", "--scenario", str(path), "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 3
        for check in ("scenario_valid", "market_clearing", "kkt_stationarity",
                      "convexity_probe"):
            assert f"PASS {check}" in out
        assert "FAIL uniqueness: line search stalled" in out
        report = json.loads((out_dir / "oracle_report.json").read_text())
        assert report["checks"]["uniqueness"]["passed"] is False
        assert report["kkt_stationarity"] <= 1e-6
        assert "uniqueness_max_deviation" not in report

    def test_solve_nonconvergence_is_a_fail_row(self, tmp_path, monkeypatch, capsys):
        import numpy as np

        from modal_market import cli
        from modal_market.equilibrium import NotConverged

        def stalled(sc, **_):
            raise NotConverged("line search stalled at inf-norm 1", np.zeros(9), [1.0])

        monkeypatch.setattr(cli, "solve", stalled)
        code = main(["validate", "--scenario", "builtin:5node", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 3
        assert out.splitlines() == [
            "PASS scenario_valid: 0 violations",
            "FAIL market_clearing: line search stalled at inf-norm 1",
        ]
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert set(report["checks"]) == {"scenario_valid", "market_clearing"}


class TestSweepCommand:
    def test_three_rows(self, tmp_path):
        code = main(["sweep", "--scenario", "builtin:5node", "--param",
                     "traveler_params.beta2", "--values", "0.1,1,10",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "sweep_beta2.csv")
        assert len(rows) == 1 + 3
        assert rows[0][0] == "value"

    def test_jobs_flag_gives_same_result(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--scenario", "builtin:5node", "--param",
              "traveler_params.beta2", "--values", "0.5,2", "--out", str(a)])
        main(["sweep", "--scenario", "builtin:5node", "--param",
              "traveler_params.beta2", "--values", "0.5,2", "--out", str(b),
              "--jobs", "2"])
        assert (a / "sweep_beta2.csv").read_bytes() == (b / "sweep_beta2.csv").read_bytes()

    def test_empty_values_exit_2(self, tmp_path):
        code = main(["sweep", "--scenario", "builtin:5node", "--param",
                     "traveler_params.beta2", "--values", "", "--out", str(tmp_path)])
        assert code == 2


class TestHubStudyCommand:
    def test_artifact_and_monotonicity(self, tmp_path, capsys):
        code = main(["hub-study", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "multi_strictly_increasing: True" in out
        rows = read_csv(tmp_path / "hub_study.csv")
        assert len(rows) == 1 + 21
        multi_total = {row[0]: float(row[10]) for row in rows[1:]}
        assert multi_total["1"] < multi_total["2"] < multi_total["3"]


class TestImportTntp:
    def test_sioux_skeleton(self, tmp_path, capsys):
        from importlib import resources

        src = resources.files("modal_market.data").joinpath("siouxfalls_net.tntp")
        net_file = tmp_path / "net.tntp"
        net_file.write_text(src.read_text())
        out = tmp_path / "skeleton.json"
        code = main(["import-tntp", "--net", str(net_file), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["network"]["nodes"]) == 24
        assert len(doc["network"]["links"]) == 76
        assert doc["ods"] == []
        assert "required" in capsys.readouterr().out

    def test_skeleton_loads_but_fails_validation(self, tmp_path):
        from modal_market.scenario import load, validate

        src = resources_text()
        net_file = tmp_path / "net.tntp"
        net_file.write_text(src)
        out = tmp_path / "skeleton.json"
        main(["import-tntp", "--net", str(net_file), "--out", str(out)])
        sc = load(out.read_text())
        violations = validate(sc)
        assert any("no OD pairs" in v for v in violations)

    def test_missing_net_exits_2(self, tmp_path):
        code = main(["import-tntp", "--net", str(tmp_path / "nope.tntp"),
                     "--out", str(tmp_path / "s.json")])
        assert code == 2


def resources_text():
    from importlib import resources

    return resources.files("modal_market.data").joinpath("siouxfalls_net.tntp").read_text()
