"""Exit codes, artifact layout, and byte-determinism of the CLI."""
import argparse
import contextlib
import csv
import io
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modal_market.choice import compile_scenario
from modal_market import __version__
from modal_market.cli import _write_csv, build_parser, main
from modal_market.equilibrium import solve
from modal_market.oracle import random_scenario
from modal_market.scenario import MODES, builtin, builtin_5node, load, save, to_document


def read_csv(path):
    with path.open() as fh:
        return list(csv.reader(fh))


SWEEP = ["--param", "traveler_params.beta2", "--values", "1", "--out", "out"]


def write_coefficient(path, block, field, value):
    """A 5node scenario document with one coefficient set, at path."""
    doc = to_document(builtin_5node())
    doc[block][field] = value
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("argv, stderr", [
    (["solve", "--scenario", "nope.json"], "error: scenario file not found: nope.json\n"),
    (["solve", "--scenario", "schema.json"], "error: /network: required key missing\n"),
    (["solve", "--scenario", "zero_demand.json"],
     "error: scenario failed validation:\n  /ods/0/demand: OD (1,2) demand 0.0 must be > 0\n"),
    (["validate", "--scenario", "nope.json"], "error: scenario file not found: nope.json\n"),
    (["validate", "--scenario", "schema.json"], "error: /network: required key missing\n"),
    (["sweep", "--scenario", "nope.json", *SWEEP], "error: scenario file not found: nope.json\n"),
    (["sweep", "--scenario", "schema.json", *SWEEP], "error: /network: required key missing\n"),
    (["import-tntp", "--net", "bad.tntp", "--out", "out/s.json"],
     "error: missing <NUMBER OF NODES>\n"),
    (["validate", "--scenario", "builtin:5node", "--uniqueness-starts", "1"],
     "error: argument --uniqueness-starts: must be >= 2, got 1\n"),
    (["solve", "--scenario", "adir"], "error: scenario file not found: adir\n"),
    (["solve", "--scenario", "latin1.json"],
     "error: invalid JSON: 'utf-8' codec can't decode byte 0xe9 in position 13: "
     "invalid continuation byte\n"),
    (["import-tntp", "--net", "adir", "--out", "out/s.json"],
     "error: network file not found: adir\n"),
    (["import-tntp", "--net", "latin1.tntp", "--out", "out/s.json"],
     "error: TNTP file is not UTF-8 text: invalid continuation byte at byte 5\n"),
    (["solve", "--scenario", "truncated.json"],
     "error: invalid JSON: Expecting ',' delimiter: line 1 column 13 (char 12)\n"),
    (["solve", "--scenario", "array.json"], "error: expected an object\n"),
    (["sweep", "--scenario", "builtin:5node", "--param", "traveler_params.beta2",
      "--values", "", "--out", "out"], "error: argument --values: no number in ''\n"),
    (["sweep", "--scenario", "builtin:5node", "--param", "traveler_params.beta2",
      "--values", "1,x", "--out", "out"], "error: argument --values: invalid float value: '1,x'\n"),
    (["solve", "--scenario", "builtin:5node", "--out", "afile"],
     "error: [Errno 17] File exists: 'afile'\n"),
    (["import-tntp", "--net", "net.tntp", "--out", "adir"],
     "error: --out is a directory: adir\n"),
    (["solve", "--scenario", "huge_demand.json"],
     "error: /ods/0/demand: number out of float range\n"),
    (["validate", "--scenario", "scalar_overrides.json"],
     "error: /relocation_times/overrides: expected an array\n"),
    (["solve", "--scenario", "nan_beta0_drive.json"],
     "error: scenario failed validation:\n  /traveler_params/beta0_drive: nan must be finite\n"),
    (["solve", "--scenario", "inf_beta1.json"],
     "error: scenario failed validation:\n  /driver_params/beta1: inf must be finite\n"),
    # stopping rules and checks that no value can meet, and unusable seeds
    (["solve", "--scenario", "builtin:5node", "--tol", "nan", "--out", "out"],
     "error: argument --tol: must be >= 0, got nan\n"),
    (["solve", "--scenario", "builtin:5node", "--tol", "-1", "--out", "out"],
     "error: argument --tol: must be >= 0, got -1.0\n"),
    (["solve", "--scenario", "builtin:5node", "--max-iter", "-3", "--out", "out"],
     "error: argument --max-iter: must be >= 0, got -3\n"),
    (["sweep", "--scenario", "builtin:5node", *SWEEP, "--max-iter", "-1"],
     "error: argument --max-iter: must be >= 0, got -1\n"),
    (["hub-study", "--tol", "nan", "--out", "out"],
     "error: argument --tol: must be >= 0, got nan\n"),
    (["validate", "--scenario", "builtin:5node", "--replay-tol", "nan", "--out", "out"],
     "error: argument --replay-tol: must be >= 0, got nan\n"),
    (["validate", "--scenario", "builtin:5node", "--kkt-tol", "-1", "--out", "out"],
     "error: argument --kkt-tol: must be >= 0, got -1.0\n"),
    (["validate", "--scenario", "builtin:5node", "--seed", "-1", "--out", "out"],
     "error: argument --seed: must be >= 0, got -1\n"),
    # a sweep parameter no value can set
    (["sweep", "--scenario", "builtin:5node", "--param", "traveler_params.beta9",
      "--values", "1,2", "--out", "out"],
     "error: --param: TravelerParams has no parameter 'beta9'\n"),
    (["sweep", "--scenario", "builtin:5node", "--param", "driver_params.beta0_r",
      "--values", "1", "--out", "out"],
     "error: --param: parameter 'driver_params.beta0_r' is not a scalar\n"),
])
def test_input_errors_exit_2_with_one_message(argv, stderr, tmp_path, monkeypatch, capsys):
    # every command reports a bad input file, option value or output path
    # as one `error: ...` line on stderr, exit 2
    monkeypatch.chdir(tmp_path)
    (tmp_path / "schema.json").write_text('{"name": "x"}')
    doc = to_document(builtin_5node())
    doc["ods"][0]["demand"] = 0.0  # loads fine, fails validation
    (tmp_path / "zero_demand.json").write_text(json.dumps(doc))
    doc["ods"][0]["demand"] = 10**400  # a JSON integer no float holds
    (tmp_path / "huge_demand.json").write_text(json.dumps(doc))
    doc["ods"][0]["demand"] = 100.0
    doc["relocation_times"]["overrides"] = 5
    (tmp_path / "scalar_overrides.json").write_text(json.dumps(doc))
    write_coefficient(tmp_path / "nan_beta0_drive.json", "traveler_params", "beta0_drive", math.nan)
    write_coefficient(tmp_path / "inf_beta1.json", "driver_params", "beta1", math.inf)
    (tmp_path / "bad.tntp").write_text("<END OF METADATA>\n")
    (tmp_path / "latin1.tntp").write_bytes("~ café\n".encode("latin-1"))
    (tmp_path / "latin1.json").write_bytes('{"name": "café"}'.encode("latin-1"))
    (tmp_path / "truncated.json").write_text('{"name": "x"')
    (tmp_path / "array.json").write_text("[]")
    (tmp_path / "net.tntp").write_text(resources_text())
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    assert main(argv) == 2
    assert capsys.readouterr().err == stderr
    assert not list(tmp_path.rglob("run_manifest.json"))


@pytest.mark.parametrize("argv, prefix", [
    (["validate", "--scenario", "builtin:5node", "--seed", "abc", "--out", "out"],
     "error: argument --seed: invalid int value: 'abc'"),
    (["solve", "--scenario", "builtin:5node", "--tol", "x", "--out", "out"],
     "error: argument --tol: invalid float value: 'x'"),
    (["solve", "--out", "out"], "error: the following arguments are required: --scenario"),
    ([], "error: the following arguments are required: command"),
    (["solve", "--scenario", "builtin:5node", "--format", "xml", "--out", "out"],
     "error: argument --format: invalid choice: 'xml'"),
    (["solve", "--scenario", "builtin:5node", "--bogus", "--out", "out"],
     "error: unrecognized arguments: --bogus"),
    (["nope"], "error: argument command: invalid choice: 'nope'"),
])
def test_parse_errors_exit_2_with_one_line(argv, prefix, tmp_path, monkeypatch, capsys):
    # argparse's own refusals are input errors too: `main` returns 2 and
    # prints one `error: ...` line, no usage block; how a choice list is
    # quoted differs between Python versions, so the line's start is checked
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([("validate", "--seed"), ("solve", "--tol"), ("solve", "--max-iter")]),
       st.text())
def test_any_option_text_is_one_error_line(option, text):
    # whatever a numeric option reads, `main` returns 2 with one line: the
    # option's refusal, or else the missing scenario's
    command, flag = option
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, flag, text, "--scenario", "nope.json"])
    assert code == 2
    assert err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["solve", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().err == ""


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

    def test_manifest_records_config_and_version(self, tmp_path, monkeypatch):
        # every command's config holds exactly its subparser's parsed options
        monkeypatch.chdir(tmp_path)
        (tmp_path / "net.tntp").write_text(resources_text())
        subparsers = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for argv in (
            ["solve", "--scenario", "builtin:5node", "--out", "solve"],
            ["validate", "--scenario", "builtin:5node", "--out", "validate"],
            ["sweep", "--scenario", "builtin:5node", "--param", "traveler_params.beta2",
             "--values", "0.5,2", "--out", "sweep"],
            ["hub-study", "--out", "hub-study"],
            ["import-tntp", "--net", "net.tntp", "--out", "import-tntp/skeleton.json"],
        ):
            assert main(argv) == 0
            manifest = json.loads((tmp_path / argv[0] / "run_manifest.json").read_text())
            assert manifest["tool"] == "modal-market"
            assert manifest["version"] == __version__
            assert manifest["command"] == argv[0]
            dests = {
                a.dest for a in subparsers.choices[argv[0]]._actions
                if not isinstance(a, argparse._HelpAction)
            }
            assert set(manifest["config"]) == dests
            assert manifest["config"][argv[1].lstrip("-").replace("-", "_")] == argv[2]

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

    @pytest.mark.parametrize("max_iter", ["0", "3"])
    def test_nonconvergence_prints_the_run_time(self, max_iter, tmp_path, capsys):
        # the diagnostic record carries the wall time of the run that gave up
        code = main(["solve", "--scenario", "builtin:5node", "--out", str(tmp_path),
                     "--max-iter", max_iter])
        assert code == 3
        (line, _) = capsys.readouterr().out.splitlines()
        assert line.startswith("5node: NOT CONVERGED ")
        assert float(line.split("wall_time=")[1].rstrip("s")) > 0

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

    def test_zero_total_signin_exits_2(self, tmp_path, capsys):
        # solve and validate both refuse it, each with one /signin line
        doc = to_document(random_scenario(14))
        doc["signin"] = {n: 0.0 for n in doc["signin"]}
        path = tmp_path / "zero-signin.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        for argv in (["solve", "--scenario", str(path), "--out", str(tmp_path / "solve")],
                     ["validate", "--scenario", str(path), "--out", str(tmp_path / "validate")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            (line,) = [line for line in err.splitlines() if "/signin" in line]
            assert "/signin: total sign-in rate 0.0 must be > 0" in line
            assert "Traceback" not in err

    def test_solve_from_saved_file(self, tmp_path):
        from modal_market.scenario import builtin_5node, save

        path = tmp_path / "sc.json"
        path.write_bytes(save(builtin_5node()))
        code = main(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 0


SCENARIO_REFS = [f"builtin:{b}" for b in ("5node", "sioux1", "sioux2", "sioux3")]
SCENARIO_REFS += [f"random:{s}" for s in range(10)]


@pytest.mark.parametrize("ref", SCENARIO_REFS)
def test_artifacts_agree_with_solution_arrays(ref, tmp_path):
    # every rendered cell reads back bit for bit as the array entry it
    # renders; the expected columns index the arrays by node id, not through
    # the compiled index arrays the writers use
    if ref.startswith("random:"):
        path = tmp_path / "sc.json"
        path.write_bytes(save(random_scenario(int(ref[7:]))))
        ref = str(path)
        sc = load(path.read_bytes())
    else:
        sc = builtin(ref)
    csv_dir, json_dir = tmp_path / "csv", tmp_path / "json"
    assert main(["solve", "--scenario", ref, "--out", str(csv_dir)]) == 0
    assert main(["solve", "--scenario", ref, "--out", str(json_dir), "--format", "json"]) == 0
    sol = solve(sc)
    cs = compile_scenario(sc)
    rho_d, rho_h, lam = cs.split(sol.y)
    at = {n: k for k, n in enumerate(cs.node_ids)}
    lam_s = lam[[at[od.s] for od in sc.ods]]
    lam_h = lam[[at[od.hub] for od in sc.ods]]
    eta_d, eta_h = rho_d + lam_s, rho_h + lam_h
    subsidized = (eta_d < 0) | (eta_h < 0) | (rho_d < 0) | (rho_h < 0)
    shares = sol.traveler.matrix / np.array([od.demand for od in sc.ods])[:, None]
    od_keys = [f"{r}-{s}" for r, s in sc.rs_pairs]

    def bits(values):
        return np.asarray(values, dtype=float).view(np.uint64)

    for name, keys, expected in [
        ("mode_shares.csv", od_keys, shares),
        ("prices.csv", od_keys,
         np.column_stack([eta_d, eta_h, rho_d, rho_h, lam_s, lam_h, subsidized])),
        ("drivers.csv", [str(n) for n in cs.node_ids],
         np.column_stack([sol.driver.stock, sol.driver.E_H, lam])),
    ]:
        rows = read_csv(csv_dir / name)[1:]
        assert [row[0] for row in rows] == keys, name
        cells = [[float(v) for v in row[1:]] for row in rows]
        np.testing.assert_array_equal(bits(cells), bits(expected), err_msg=name)

    solution = json.loads((json_dir / "solution.json").read_text())
    metrics_doc = json.loads((json_dir / "metrics.json").read_text())
    for block in ("rho_direct", "rho_hub", "lambda", "eta_direct", "eta_hub"):
        assert metrics_doc[block] == solution["prices"][block], block
    for block in ("stocks", "signout"):
        assert metrics_doc[block] == solution["flows"][block], block
    shares_doc = [[metrics_doc["mode_share"][key][m] for m in MODES] for key in od_keys]
    np.testing.assert_array_equal(bits(shares_doc), bits(shares))
    assert [metrics_doc["subsidy"][key] for key in od_keys] == subsidized.tolist()
    flows = solution["flows"]
    traveler_doc = [[flows["traveler"][key][m] for m in MODES] for key in od_keys]
    np.testing.assert_array_equal(bits(traveler_doc), bits(sol.traveler.matrix))
    # a driver pair that two columns share keeps the last one's flow
    last = {f"{r}-{s}": c for c, (r, s) in enumerate(cs.column_pairs)}
    assert all(set(flows["driver"][str(n)]) == set(last) for n in cs.node_ids)
    driver_doc = [[flows["driver"][str(n)][key] for key in last] for n in cs.node_ids]
    np.testing.assert_array_equal(bits(driver_doc), bits(sol.driver.E[:, list(last.values())]))


def test_json_artifacts_are_their_stdlib_encoding(tmp_path, monkeypatch):
    # every JSON artifact is json.dumps(..., indent=2, sort_keys=True) of
    # the document it reads back as, byte for byte
    monkeypatch.chdir(tmp_path)
    (tmp_path / "net.tntp").write_text(resources_text())
    (tmp_path / "random.json").write_bytes(save(random_scenario(7)))
    runs = {
        "solve-csv": ["solve", "--scenario", "builtin:sioux1"],
        "solve-json": ["solve", "--scenario", "random.json", "--format", "json"],
        "solve-stopped": ["solve", "--scenario", "builtin:5node", "--format", "json",
                          "--max-iter", "1"],
        "validate": ["validate", "--scenario", "builtin:sioux1"],
        "validate-random": ["validate", "--scenario", "random.json"],
        "sweep": ["sweep", "--scenario", "builtin:5node", "--param", "traveler_params.beta2",
                  "--values", "0.5,1,2"],
        "hub-study": ["hub-study"],
    }
    for out, argv in runs.items():
        main([*argv, "--out", out])
    main(["import-tntp", "--net", "net.tntp", "--out", "import-tntp/skeleton.json"])
    paths = sorted(tmp_path.glob("*/*.json"))
    assert {f"{path.parent.name}/{path.name}" for path in paths} == {
        *(f"{out}/run_manifest.json" for out in (*runs, "import-tntp")),
        "solve-csv/solution.json", "solve-json/solution.json", "solve-json/metrics.json",
        "solve-stopped/solution.json", "solve-stopped/metrics.json",
        "validate/oracle_report.json", "validate-random/oracle_report.json",
        "import-tntp/skeleton.json",
    }
    for path in paths:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path


def test_csv_cells_are_written_as_repr(tmp_path):
    # numpy's float64 too, which repr() writes as "np.float64(1.5)"
    path = tmp_path / "cells.csv"
    _write_csv(path, ["a", "b"], [[np.float64(1.5), 0.1, math.nan, -math.inf, -0.0, 3, True, ""]])
    assert path.read_bytes() == b"a,b\r\n1.5,0.1,nan,-inf,-0.0,3,True,\r\n"


class TestValidateCommand:
    def test_5node_all_checks_pass(self, capsys):
        code = main(["validate", "--scenario", "builtin:5node", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        # scenario_valid, then the check table in report order
        assert [line.partition(":")[0] for line in out.splitlines()] == [
            "PASS scenario_valid", "PASS market_clearing", "PASS traveler_logit_replay",
            "PASS driver_logit_replay", "PASS kkt_stationarity", "PASS convexity_probe",
            "PASS uniqueness",
        ]

    def test_scenario_is_validated_once(self, monkeypatch, capsys):
        # cmd_validate and solve_and_probe share one verdict
        from modal_market import scenario

        real = scenario.validate
        calls = []

        def counting(sc):
            calls.append(sc.name)
            return real(sc)

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "modal_market" and getattr(module, "validate", None) is real:
                monkeypatch.setattr(module, "validate", counting)
        assert main(["validate", "--scenario", "builtin:5node", "--seed", "1"]) == 0
        assert calls == ["5node"]

    def test_one_newton_run(self, monkeypatch, capsys):
        # the solve rides in the uniqueness probe's stack: one run of
        # 1 + --uniqueness-starts rows
        from modal_market import equilibrium

        newton = equilibrium._newton
        stacks = []

        def counted(cs, Y, *args):
            stacks.append(len(Y))
            return newton(cs, Y, *args)

        monkeypatch.setattr(equilibrium, "_newton", counted)
        assert main(["validate", "--scenario", "builtin:5node", "--seed", "1"]) == 0
        assert stacks == [6]

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
        assert report["schedules"] == {"kkt_fd_relative_step": 1e-6, "seed": 1}

    def test_probe_nonconvergence_still_reports(self, tmp_path, monkeypatch, capsys):
        # a uniqueness-probe start that does not converge: the check table
        # and the report still appear
        import numpy as np

        from modal_market import cli
        from modal_market.equilibrium import NotConverged
        from modal_market.oracle import random_scenario
        from modal_market.scenario import save

        def stalled(sc, **_):
            # the solve succeeds; the probe's failure comes back as a value
            stall = NotConverged("stall", "line search stalled at inf-norm 1", np.zeros(9), [1.0])
            return cli.solve(sc), stall

        monkeypatch.setattr(cli, "solve_and_probe", stalled)
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

    @pytest.mark.parametrize("check", ["kkt_stationarity", "convexity_probe"])
    def test_zero_flow_is_a_fail_row(self, check, tmp_path, monkeypatch, capsys):
        # a 5000-minute relocation underflows two driver flows to 0.0 at a
        # converged solve: the check that needs positive flows fails, and the
        # table and the report still appear. With the KKT audit stubbed to
        # pass, the probe meets the zero flows instead.
        from modal_market import cli
        from modal_market.oracle import KktReport

        doc = to_document(builtin_5node())
        for override in doc["relocation_times"]["overrides"]:
            if (override["n"], override["r"]) == (5, 1):
                override["minutes"] = 5000.0
        if check == "convexity_probe":
            monkeypatch.setattr(cli, "kkt_check", lambda sc, sol: KktReport(0.0, 0.0))
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        code = main(["validate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 1
        assert "PASS market_clearing" in out
        assert f"FAIL {check}: " in out and "strictly positive flows" in out
        report = json.loads((tmp_path / "out" / "oracle_report.json").read_text())
        finished = cli.CHECKS[: cli.CHECKS.index(check) + 1]
        assert set(report["checks"]) == {"scenario_valid", *finished}
        assert report["checks"][check]["passed"] is False
        # the figures of every check that finished before it, and no others
        figures = {"traveler_replay_rel_err", "driver_replay_rel_err"}
        if check == "convexity_probe":
            figures |= {"kkt_stationarity", "kkt_constraint_violation"}
        assert set(report) == {"checks", "schedules", *figures}
        # no --seed: the probes' seed is 0, in the report and the manifest
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["config"]["seed"] == report["schedules"]["seed"] == 0

    def test_replay_errors_match_loop_reference(self, solved_corpus):
        # the array comparison against the per-entry loop of the acceptance
        # gate: bit-identical
        from modal_market.cli import _replay_errors
        from test_acceptance import replay_errors

        for sc, sol in solved_corpus.values():
            assert _replay_errors(sc, sol) == replay_errors(sc, sol), sc.name

    def test_traveler_replay_audits_compiled_utilities(self, monkeypatch, capsys):
        # a sign error in the compiled traveler utilities reaches the solve;
        # the replay, built from the scenario data, must catch it
        from modal_market import choice

        compiled = choice.traveler_utility_matrix

        def drive_sign_flipped(cs, eta_direct, eta_hub):
            U = compiled(cs, eta_direct, eta_hub)
            U[..., 0] = -U[..., 0]
            return U

        monkeypatch.setattr(choice, "traveler_utility_matrix", drive_sign_flipped)
        code = main(["validate", "--scenario", "builtin:5node", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL traveler_logit_replay" in out

    def test_driver_replay_audits_compiled_utilities(self, monkeypatch, capsys):
        # a sign error in the relocation term of the compiled driver
        # exponents reaches the solve; the replay and the KKT check, both
        # built from the scenario data, must catch it
        import dataclasses

        from modal_market import choice

        compiled = choice._compile

        def relocation_sign_flipped(sc):
            cs = compiled(sc)
            return dataclasses.replace(cs, A=cs.A + 2 * sc.driver_params.beta1 * cs.reloc)

        monkeypatch.setattr(choice, "_compile", relocation_sign_flipped)
        code = main(["validate", "--scenario", "builtin:5node", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL driver_logit_replay" in out
        assert "FAIL kkt_stationarity" in out

    def test_traveler_replay_audits_compiled_coefficients(self, monkeypatch, capsys):
        # a wrong constant in the compiled multimodal utilities reaches the
        # solve; the replay and the KKT check, both built from the scenario
        # data, must catch it
        import dataclasses

        from modal_market import choice

        compiled = choice._compile

        def multimodal_shifted(sc):
            cs = compiled(sc)
            return dataclasses.replace(cs, u_multi=cs.u_multi + 0.5)

        monkeypatch.setattr(choice, "_compile", multimodal_shifted)
        code = main(["validate", "--scenario", "builtin:5node", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL traveler_logit_replay" in out
        assert "FAIL kkt_stationarity" in out

    def test_replay_reads_each_relocation_time_once(
        self, sioux_scenarios, sioux_solutions, monkeypatch
    ):
        # the driver replay reads the relocation table once per node and
        # origin, not once per node and driver column
        from modal_market.cli import _replay_errors
        from modal_market.scenario import Scenario

        sc, sol = sioux_scenarios[3], sioux_solutions[3]
        calls = []
        lookup = Scenario.relocation_time

        def counted(self, n, r):
            calls.append((n, r))
            return lookup(self, n, r)

        monkeypatch.setattr(Scenario, "relocation_time", counted)
        _replay_errors(sc, sol)
        assert 0 < len(calls) <= len(sc.network.nodes) * len(sc.origins)

    def test_solve_nonconvergence_is_a_fail_row(self, tmp_path, monkeypatch, capsys):
        import numpy as np

        from modal_market import cli
        from modal_market.equilibrium import NotConverged

        def stalled(sc, **_):
            raise NotConverged("stall", "line search stalled at inf-norm 1", np.zeros(9), [1.0])

        monkeypatch.setattr(cli, "solve_and_probe", stalled)
        code = main(["validate", "--scenario", "builtin:5node", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 3
        assert out.splitlines() == [
            "PASS scenario_valid: 0 violations",
            "FAIL market_clearing: line search stalled at inf-norm 1",
        ]
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert set(report["checks"]) == {"scenario_valid", "market_clearing"}


OVERFLOW = "initial dual vector overflows the driver flows"


def five_node_file(path, **driver_params):
    """A 5node scenario document with these driver parameters, at path."""
    doc = to_document(builtin_5node())
    doc["driver_params"].update(driver_params)
    path.write_text(json.dumps(doc))
    return str(path)


def huge_signin_file(path):
    """A 5node scenario document with a sign-in of 1e305 at node 1, at path:
    the driver stock there passes e^EXP_BOUND, so the driver flows overflow
    at every start."""
    doc = to_document(builtin_5node())
    doc["signin"]["1"] = 1e305
    path.write_text(json.dumps(doc))
    return str(path)


class TestOverflowingStart:
    """Driver flows that overflow at a start are a non-convergence."""

    def test_solve_exits_3_with_one_error_line(self, tmp_path, capsys):
        scenario = huge_signin_file(tmp_path / "s.json")
        assert main(["solve", "--scenario", scenario, "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {OVERFLOW}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_validate_records_a_market_clearing_fail_row(self, tmp_path, capsys):
        scenario = huge_signin_file(tmp_path / "s.json")
        assert main(["validate", "--scenario", scenario, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().out.splitlines() == [
            "PASS scenario_valid: 0 violations",
            f"FAIL market_clearing: {OVERFLOW}",
        ]
        report = json.loads((tmp_path / "out" / "oracle_report.json").read_text())
        assert report["checks"]["market_clearing"] == {"passed": False, "detail": OVERFLOW}

    def test_validate_records_a_uniqueness_fail_row(self, tmp_path, capsys):
        # beta3 = 80: the default start converges, but a probe start in
        # [-10, 10] puts a driver exponent beyond the bound
        scenario = five_node_file(tmp_path / "s.json", beta3=80.0)
        assert main(["validate", "--scenario", scenario]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("PASS market_clearing")
        assert lines[-1] == f"FAIL uniqueness: {OVERFLOW}"

    def test_sweep_cell_carries_the_message(self, tmp_path, capsys):
        # no swept scalar moves a stock, so every cell overflows
        scenario = huge_signin_file(tmp_path / "s.json")
        code = main(["sweep", "--scenario", scenario,
                     "--param", "driver_params.beta0_r_default", "--values", "0,800",
                     "--out", str(tmp_path)])
        assert code == 1
        rows = read_csv(tmp_path / "sweep_beta0_r_default.csv")
        assert [row[1] for row in rows[1:]] == ["0", "0"]
        assert rows[1][-1] == rows[2][-1] == OVERFLOW
        out = capsys.readouterr().out
        assert f"driver_params.beta0_r_default=800.0: FAILED ({OVERFLOW}) winner=-" in out


@pytest.mark.parametrize("block, field, value", [
    ("traveler_params", "beta0_drive", math.nan), ("driver_params", "beta1", math.inf),
])
def test_validate_reports_a_non_finite_coefficient(block, field, value, tmp_path, capsys):
    path = tmp_path / "s.json"
    write_coefficient(path, block, field, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "FAIL scenario_valid: 1 violations\n"
    assert captured.err == f"  violation: /{block}/{field}: {value} must be finite\n"


@pytest.mark.parametrize("block, field, what", [
    ("traveler_params", "beta1_drive", "utilities"),
    ("traveler_params", "beta1_ride", "utilities"),
    ("traveler_params", "beta1_multi", "utilities"),
    ("traveler_params", "beta1_wait", "utilities"),
    ("traveler_params", "beta2", "utilities"),
    ("driver_params", "beta1", "driver exponents"),
    ("driver_params", "beta3", "solver weights"),
])
def test_overflowing_coefficient_is_an_input_error(block, field, what, tmp_path, capsys):
    # a finite 1e308 that overflows what the solver forms from it is
    # reported by name, before anything is compiled or solved
    path = tmp_path / "s.json"
    write_coefficient(path, block, field, 1e308)
    violation = f"/{block}/{field}: 1e+308 overflows the {what}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: scenario failed validation:\n  {violation}\n"
        assert main(["validate", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "FAIL scenario_valid: 1 violations\n"
    assert captured.err == f"  violation: {violation}\n"


def test_stock_term_overflow_is_an_input_error(tmp_path, capsys):
    # 5node at beta3 = 1e-307 passes every range and finiteness test, but
    # phi's stock term, its 300 drivers over beta3, overflows at every point:
    # an input error (exit 2), not a solve that fails from its start (exit 3)
    path = tmp_path / "s.json"
    write_coefficient(path, "driver_params", "beta3", 1e-307)
    violation = "/driver_params/beta3: 1e-307 overflows the solver weights"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: scenario failed validation:\n  {violation}\n"
        assert main(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"  violation: {violation}\n"


def test_infinite_demand_is_an_input_error(tmp_path, capsys):
    # +inf passes the `> 0` demand test; it is reported, not solved
    doc = to_document(builtin_5node())
    doc["ods"][0]["demand"] = math.inf
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    violation = "/ods/0/demand: OD (1,2) demand inf must be finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: scenario failed validation:\n  {violation}\n"
        assert main(["validate", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "FAIL scenario_valid: 1 violations\n"
    assert captured.err == f"  violation: {violation}\n"


def test_own_origin_relocation_time_is_read(tmp_path, capsys):
    # t_11 = 50 in the table: the duals move, and the replays, which read
    # the table themselves, still agree with the solver
    doc = to_document(builtin_5node())
    for override in doc["relocation_times"]["overrides"]:
        if (override["n"], override["r"]) == (1, 1):
            override["minutes"] = 50.0
    path = tmp_path / "t11.json"
    path.write_text(json.dumps(doc))
    assert np.abs(solve(load(path.read_text())).y - solve(builtin_5node()).y).max() > 0.1
    assert main(["validate", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS traveler_logit_replay" in out and "PASS driver_logit_replay" in out


#: The artifacts' headers, written out: a reordered SweepCell, HubStudyRow
#: or HubStudyTotals field changes an artifact and fails here.
SWEEP_HEADER = ("value,converged,iterations,residual_inf,total_drive,total_ride,"
                "total_multi,winner,min_rho_direct,min_rho_hub,min_eta_direct,"
                "min_eta_hub,error")
HUB_STUDY_HEADER = ("scenario,n_hubs,od,drive,ride,multi,eta_hub,rho_hub,total_drive,"
                    "total_ride,total_multi,total_relocation_time")


class TestSweepCommand:
    def test_header(self, tmp_path):
        main(["sweep", "--scenario", "builtin:5node", "--param",
              "traveler_params.beta2", "--values", "1", "--out", str(tmp_path)])
        text = (tmp_path / "sweep_beta2.csv").read_text()
        assert text.startswith(SWEEP_HEADER + "\n")

    @pytest.mark.parametrize("values, max_iter", [("0.5,nan,2", 200), ("0.5,nan", 1)])
    def test_rows_are_the_cells(self, values, max_iter, tmp_path):
        # a nan cell fails validation; at --max-iter 1 every valid cell ends
        # NotConverged: both keep SweepCell's defaults and carry the message
        from modal_market.analytics import sweep

        code = main(["sweep", "--scenario", "builtin:5node", "--param",
                     "traveler_params.beta2", "--values", values,
                     "--max-iter", str(max_iter), "--out", str(tmp_path)])
        assert code == 1
        cells = sweep(builtin_5node(), "traveler_params.beta2",
                      [float(v) for v in values.split(",")], max_iter=max_iter)
        expected = [
            [str(c.value), str(int(c.converged)), str(c.iterations), str(c.residual_inf),
             str(c.total_drive), str(c.total_ride), str(c.total_multi), c.winner,
             str(c.min_rho_direct), str(c.min_rho_hub), str(c.min_eta_direct),
             str(c.min_eta_hub), c.error or ""]
            for c in cells
        ]
        assert read_csv(tmp_path / "sweep_beta2.csv")[1:] == expected
        assert cells[1].error.startswith("scenario failed validation")
        assert cells[0].converged == (max_iter == 200)

    def test_three_rows(self, tmp_path):
        code = main(["sweep", "--scenario", "builtin:5node", "--param",
                     "traveler_params.beta2", "--values", "0.1,1,10",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "sweep_beta2.csv")
        assert len(rows) == 1 + 3
        assert rows[0][0] == "value"

    def test_jobs_flag_gives_same_result(self, tmp_path):
        # --jobs is accepted and ignored: a sweep is one stacked solve
        a, b = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--scenario", "builtin:5node", "--param",
              "traveler_params.beta2", "--values", "0.5,2", "--out", str(a)])
        main(["sweep", "--scenario", "builtin:5node", "--param",
              "traveler_params.beta2", "--values", "0.5,2", "--out", str(b),
              "--jobs", "2"])
        assert (a / "sweep_beta2.csv").read_bytes() == (b / "sweep_beta2.csv").read_bytes()

    def test_negative_first_value_attached_with_equals(self, tmp_path):
        # argparse reads a separate "-10,0" as an option; "=" attaches it
        code = main(["sweep", "--scenario", "builtin:5node", "--param",
                     "driver_params.beta0_r_default", "--values=-10,0",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "sweep_beta0_r_default.csv")
        assert [row[:2] for row in rows[1:]] == [["-10.0", "1"], ["0.0", "1"]]

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

    def test_rows_join_the_study_to_its_totals(self, tmp_path):
        from modal_market.analytics import hub_study

        main(["hub-study", "--out", str(tmp_path)])
        assert (tmp_path / "hub_study.csv").read_text().startswith(HUB_STUDY_HEADER + "\n")
        study = hub_study()
        totals = {t.scenario: t for t in study.totals}
        expected = [
            [str(r.scenario), str(totals[r.scenario].n_hubs), f"{r.od[0]}-{r.od[1]}",
             str(r.drive), str(r.ride), str(r.multi), str(r.eta_hub), str(r.rho_hub),
             str(totals[r.scenario].total_drive), str(totals[r.scenario].total_ride),
             str(totals[r.scenario].total_multi),
             str(totals[r.scenario].total_relocation_time)]
            for r in study.rows
        ]
        assert read_csv(tmp_path / "hub_study.csv")[1:] == expected


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

    def test_directory_out_writes_nothing(self, tmp_path):
        # a directory as --out is refused before the manifest is written
        net_file = tmp_path / "net.tntp"
        net_file.write_text(resources_text())
        (tmp_path / "adir").mkdir()
        assert main(["import-tntp", "--net", str(net_file), "--out", str(tmp_path / "adir")]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "net.tntp"]


def resources_text():
    from importlib import resources

    return resources.files("modal_market.data").joinpath("siouxfalls_net.tntp").read_text()
