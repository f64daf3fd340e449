"""Command-line entry point: solve, validate, sweep, hub-study, import-tntp.

Exit codes: 0 success, 1 failed verification checks, 2 bad input (missing
files, schema or validation errors), 3 solver non-convergence. Artifacts are
deterministic: the same inputs and seed produce byte-identical files, so no
timestamps or wall times are ever written to disk.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any

from . import __version__
from .analytics import HubStudy, MetricsReport, SweepCell, hub_study, metrics, sweep_cell
from .equilibrium import (
    EquilibriumSolution,
    NotConverged,
    ValidationFailed,
    objective_value,
    solution_at,
    solve,
    uniqueness_probe,
)
from .netgraph import NetgraphError, parse_tntp
from .oracle import kkt_check, perturbation_probe
from .scenario import MODES, SIGN_OUT, ScenarioError, builtin, load, validate
from .choice import driver_flows_logit, traveler_flows

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_NOT_CONVERGED = 3


def _load_scenario(ref: str):
    if ref.startswith("builtin:"):
        return builtin(ref)
    path = Path(ref)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {ref}")
    return load(path.read_bytes())


def _od_key(rs: tuple[int, int]) -> str:
    return f"{rs[0]}-{rs[1]}"


def _write_json(path: Path, doc: Any) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list[Any]]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_manifest(out_dir: Path, command: str, config: dict[str, Any]) -> None:
    _write_json(
        out_dir / "run_manifest.json",
        {"tool": "modal-market", "version": __version__, "command": command,
         "config": config},
    )


def _solution_document(sc, sol: EquilibriumSolution) -> dict[str, Any]:
    return {
        "scenario": sc.name,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "residual_inf_norm": sol.residual.inf_norm,
        "prices": {
            "rho_direct": {_od_key(rs): v for rs, v in sol.prices.rho_direct.items()},
            "rho_hub": {_od_key(rs): v for rs, v in sol.prices.rho_hub.items()},
            "lambda": {str(n): v for n, v in sol.prices.lam.items()},
            "eta_direct": {_od_key(rs): v for rs, v in sol.prices.eta_direct.items()},
            "eta_hub": {_od_key(rs): v for rs, v in sol.prices.eta_hub.items()},
        },
        "flows": {
            "traveler": {
                _od_key(rs): dict(modes) for rs, modes in sol.traveler.q.items()
            },
            "driver": {
                str(n): {_od_key(pair): v for pair, v in row.items()}
                for n, row in sol.driver.q.items()
            },
            "signout": {str(n): v for n, v in sol.driver.q_H.items()},
            "stocks": {str(n): v for n, v in sol.driver.Q.items()},
        },
    }


def _write_metrics_csv(out_dir: Path, sc, rep: MetricsReport) -> None:
    _write_csv(
        out_dir / "mode_shares.csv",
        ["od", "drive", "ride", "multi"],
        [
            [_od_key(rs)] + [rep.mode_share[rs][m] for m in MODES]
            for rs in sc.rs_pairs
        ],
    )
    _write_csv(
        out_dir / "prices.csv",
        ["od", "eta_direct", "eta_hub", "rho_direct", "rho_hub",
         "lambda_s", "lambda_h", "subsidy_flag"],
        [
            [
                _od_key((od.r, od.s)),
                rep.eta_direct[(od.r, od.s)],
                rep.eta_hub[(od.r, od.s)],
                rep.rho_direct[(od.r, od.s)],
                rep.rho_hub[(od.r, od.s)],
                rep.lam[od.s],
                rep.lam[od.hub],
                int(rep.subsidy[(od.r, od.s)]),
            ]
            for od in sc.ods
        ],
    )
    _write_csv(
        out_dir / "drivers.csv",
        ["node", "Q", "signout", "lambda"],
        [
            [n, rep.stocks[n], rep.signout[n], rep.lam[n]]
            for n in sc.network.nodes
        ],
    )


def _write_metrics_json(out_dir: Path, sc, rep: MetricsReport) -> None:
    _write_json(
        out_dir / "metrics.json",
        {
            "mode_share": {_od_key(rs): dict(v) for rs, v in rep.mode_share.items()},
            "eta_direct": {_od_key(rs): v for rs, v in rep.eta_direct.items()},
            "eta_hub": {_od_key(rs): v for rs, v in rep.eta_hub.items()},
            "rho_direct": {_od_key(rs): v for rs, v in rep.rho_direct.items()},
            "rho_hub": {_od_key(rs): v for rs, v in rep.rho_hub.items()},
            "lambda": {str(n): v for n, v in rep.lam.items()},
            "stocks": {str(n): v for n, v in rep.stocks.items()},
            "signout": {str(n): v for n, v in rep.signout.items()},
            "total_relocation_time": rep.total_relocation_time,
            "subsidy": {_od_key(rs): v for rs, v in rep.subsidy.items()},
        },
    )


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        sc = _load_scenario(args.scenario)
    except (ScenarioError, NetgraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {
        "scenario": args.scenario, "tol": args.tol, "max_iter": args.max_iter,
        "format": args.format, "out": str(out_dir),
    }
    _write_manifest(out_dir, "solve", config)

    exit_code = EXIT_OK
    try:
        sol = solve(sc, tol=args.tol, max_iter=args.max_iter)
    except ValidationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotConverged as exc:
        # keep the best iterate for diagnosis, explicitly flagged
        sol = solution_at(sc, exc.best_y, exc.residual_history, converged=False)
        print(f"not converged: {exc}", file=sys.stderr)
        exit_code = EXIT_NOT_CONVERGED

    _write_json(out_dir / "solution.json", _solution_document(sc, sol))
    rep = metrics(sc, sol)
    if args.format == "csv":
        _write_metrics_csv(out_dir, sc, rep)
    else:
        _write_metrics_json(out_dir, sc, rep)
    flag = "converged" if sol.converged else "NOT CONVERGED"
    print(
        f"{sc.name}: {flag} residual={sol.residual.inf_norm:.3e} "
        f"iterations={sol.iterations} wall_time={sol.wall_time:.4f}s"
    )
    print(f"artifacts written to {out_dir}")
    return exit_code


def _replay_errors(sc, sol: EquilibriumSolution) -> tuple[float, float]:
    """Max relative error of the standalone logit replays of the solution."""
    tf = traveler_flows(sc, sol.prices)
    traveler_err = 0.0
    for rs in sc.rs_pairs:
        for mode in MODES:
            a, b = tf.q[rs][mode], sol.traveler.q[rs][mode]
            traveler_err = max(traveler_err, abs(a - b) / max(abs(a), abs(b), 1e-300))
    driver_err = 0.0
    for n in sc.network.nodes:
        flows = driver_flows_logit(sc, n, sol.driver.Q[n], sol.prices)
        for pair in sc.driver_pairs:
            a, b = flows[pair], sol.driver.q[n][pair]
            driver_err = max(driver_err, abs(a - b) / max(abs(a), abs(b), 1e-300))
        a, b = flows[SIGN_OUT], sol.driver.q_H[n]
        driver_err = max(driver_err, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return traveler_err, driver_err


def _audit(sc, args: argparse.Namespace, seed: int,
           checks: list[tuple[str, bool, str]], figures: dict[str, Any]) -> int:
    """Solve, then run the replay and oracle checks; append a row per check
    to `checks` and the measured figures to `figures`. A non-convergence is
    recorded as a FAIL row of the check it interrupted. Returns the exit
    code."""
    try:
        sol = solve(sc)
    except NotConverged as exc:
        checks.append(("market_clearing", False, str(exc)))
        return EXIT_NOT_CONVERGED
    checks.append(
        (
            "market_clearing",
            sol.residual.inf_norm <= 1e-10,
            f"residual {sol.residual.inf_norm:.3e} (tol 1e-10)",
        )
    )
    traveler_err, driver_err = _replay_errors(sc, sol)
    checks.append(
        (
            "traveler_logit_replay",
            traveler_err <= args.replay_tol,
            f"rel err {traveler_err:.3e} (tol {args.replay_tol:g})",
        )
    )
    checks.append(
        (
            "driver_logit_replay",
            driver_err <= args.replay_tol,
            f"rel err {driver_err:.3e} (tol {args.replay_tol:g})",
        )
    )
    kkt = kkt_check(sc, sol)
    checks.append(
        (
            "kkt_stationarity",
            kkt.stationarity <= args.kkt_tol,
            f"max |grad| {kkt.stationarity:.3e} (tol {args.kkt_tol:g})",
        )
    )
    gap = perturbation_probe(sc, sol, samples=100, seed=seed)
    checks.append(
        ("convexity_probe", gap > 0, f"min objective gap {gap:.3e}")
    )
    figures.update({
        "kkt_stationarity": kkt.stationarity,
        "kkt_constraint_violation": kkt.constraint_violation,
        "perturbation_min_gap": gap,
        "traveler_replay_rel_err": traveler_err,
        "driver_replay_rel_err": driver_err,
        "objective_combined": objective_value(
            "combined", sc, traveler=sol.traveler, driver=sol.driver
        ),
    })
    try:
        dev = uniqueness_probe(sc, k=args.uniqueness_starts, seed=seed)
    except NotConverged as exc:
        checks.append(("uniqueness", False, str(exc)))
        return EXIT_NOT_CONVERGED
    checks.append(
        (
            "uniqueness",
            dev <= 1e-6,
            f"max dual deviation {dev:.3e} over {args.uniqueness_starts} starts",
        )
    )
    figures["uniqueness_max_deviation"] = dev
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_CHECK_FAILED


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        sc = _load_scenario(args.scenario)
    except (ScenarioError, NetgraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("MODAL_MARKET_SEED", "0"))

    violations = validate(sc)
    checks: list[tuple[str, bool, str]] = [
        ("scenario_valid", not violations, f"{len(violations)} violations")
    ]
    figures: dict[str, Any] = {}
    if violations:
        for v in violations:
            print(f"  violation: {v}", file=sys.stderr)
        exit_code = EXIT_INPUT
    else:
        exit_code = _audit(sc, args, seed, checks, figures)

    if args.out is not None and not violations:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_manifest(out_dir, "validate", {
            "scenario": args.scenario, "replay_tol": args.replay_tol,
            "kkt_tol": args.kkt_tol, "uniqueness_starts": args.uniqueness_starts,
            "seed": seed, "out": str(out_dir),
        })
        from .oracle import (
            _FD_REL_STEP,
            _GRID_POINTS,
            _GRID_ROUNDS,
            _GRID_SHRINK,
            _GRID_SPAN,
        )

        _write_json(out_dir / "oracle_report.json", {
            "checks": {
                name: {"passed": ok, "detail": detail}
                for name, ok, detail in checks
            },
            "schedules": {
                "kkt_fd_relative_step": _FD_REL_STEP,
                "grid_points": _GRID_POINTS,
                "grid_initial_half_width": _GRID_SPAN,
                "grid_shrink_factor": _GRID_SHRINK,
                "grid_min_rounds": _GRID_ROUNDS,
                "seed": seed,
            },
            **figures,
        })

    _print_checks(checks)
    return exit_code


def _print_checks(checks: list[tuple[str, bool, str]]) -> None:
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def _sweep_one(payload: tuple) -> SweepCell:
    sc, param, value, tol, max_iter = payload
    return sweep_cell(sc, param, value, tol=tol, max_iter=max_iter)


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        sc = _load_scenario(args.scenario)
        values = [float(v) for v in args.values.split(",") if v]
    except (ScenarioError, NetgraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not values:
        print("error: --values is empty", file=sys.stderr)
        return EXIT_INPUT

    payloads = [(sc, args.param, v, args.tol, args.max_iter) for v in values]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            cells = list(pool.map(_sweep_one, payloads))
    else:
        cells = [_sweep_one(p) for p in payloads]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, "sweep", {
        "scenario": args.scenario, "param": args.param, "values": values,
        "tol": args.tol, "max_iter": args.max_iter, "jobs": args.jobs,
        "out": str(out_dir),
    })
    name = args.param.split(".")[-1]
    _write_csv(
        out_dir / f"sweep_{name}.csv",
        ["value", "converged", "iterations", "residual_inf", "total_drive",
         "total_ride", "total_multi", "winner", "min_rho_direct",
         "min_rho_hub", "min_eta_direct", "min_eta_hub", "error"],
        [
            [c.value, int(c.converged), c.iterations, c.residual_inf,
             c.total_drive, c.total_ride, c.total_multi, c.winner,
             c.min_rho_direct, c.min_rho_hub, c.min_eta_direct,
             c.min_eta_hub, c.error or ""]
            for c in cells
        ],
    )
    for c in cells:
        status = "ok" if c.converged else f"FAILED ({c.error})"
        print(f"{args.param}={c.value}: {status} winner={c.winner or '-'}")
    print(f"artifacts written to {out_dir}")
    return EXIT_OK if all(c.converged for c in cells) else EXIT_CHECK_FAILED


def cmd_hub_study(args: argparse.Namespace) -> int:
    study: HubStudy = hub_study(tol=args.tol, max_iter=args.max_iter)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, "hub-study", {
        "tol": args.tol, "max_iter": args.max_iter, "out": str(out_dir),
    })
    totals_by_scenario = {t.scenario: t for t in study.totals}
    _write_csv(
        out_dir / "hub_study.csv",
        ["scenario", "n_hubs", "od", "drive", "ride", "multi", "eta_hub",
         "rho_hub", "total_drive", "total_ride", "total_multi",
         "total_relocation_time"],
        [
            [
                row.scenario,
                totals_by_scenario[row.scenario].n_hubs,
                _od_key(row.od),
                row.drive, row.ride, row.multi, row.eta_hub, row.rho_hub,
                totals_by_scenario[row.scenario].total_drive,
                totals_by_scenario[row.scenario].total_ride,
                totals_by_scenario[row.scenario].total_multi,
                totals_by_scenario[row.scenario].total_relocation_time,
            ]
            for row in study.rows
        ],
    )
    for t in study.totals:
        print(
            f"scenario {t.scenario} ({t.n_hubs} hubs): drive={t.total_drive:.2f} "
            f"ride={t.total_ride:.2f} multi={t.total_multi:.2f} "
            f"relocation={t.total_relocation_time:.1f}"
        )
    for key, ok in study.summary.items():
        print(f"{key}: {ok}")
    print(f"artifacts written to {out_dir}")
    return EXIT_OK


def cmd_import_tntp(args: argparse.Namespace) -> int:
    path = Path(args.net)
    if not path.exists():
        print(f"error: network file not found: {args.net}", file=sys.stderr)
        return EXIT_INPUT
    try:
        net = parse_tntp(path.read_bytes(), name=path.stem)
    except NetgraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    skeleton = {
        "name": net.name,
        "network": {
            "nodes": list(net.nodes),
            "links": [
                {"from": l.frm, "to": l.to, "fftt": l.free_flow_time}
                for l in net.links
            ],
        },
        "ods": [],
        "relocation_times": {"auto_shortest_path": True, "overrides": []},
        "signin": {str(n): 0.0 for n in net.nodes},
        "traveler_params": {
            "beta0_drive": 4.0, "beta0_ride": 2.0, "beta0_multi": 1.0,
            "beta1_drive": 0.3, "beta1_ride": 0.2, "beta1_multi": 0.1,
            "beta1_wait": 0.2, "beta2": 1.0,
        },
        "driver_params": {"beta0_r": 0.0, "beta0_H": 2.0, "beta1": 0.3, "beta3": 1.0},
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, skeleton)
    _write_manifest(out.parent if out.parent != Path("") else Path("."),
                    "import-tntp", {"net": args.net, "out": args.out})
    print(
        f"skeleton with {len(net.nodes)} nodes / {len(net.links)} links "
        f"written to {out}"
    )
    print(
        "required before solving: fill 'ods' (r, s, demand, hub, times, "
        "costs) and set positive 'signin' rates"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modal-market",
        description="Equilibrium prices and flows for a multimodal mobility market.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario(p):
        p.add_argument(
            "--scenario", required=True,
            help="path to a scenario JSON or builtin:{5node,sioux1,sioux2,sioux3}",
        )

    def add_solver(p):
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--max-iter", type=int, default=200)

    p_solve = sub.add_parser("solve", help="solve one scenario and write artifacts")
    add_scenario(p_solve)
    add_solver(p_solve)
    p_solve.add_argument("--out", default=".", help="artifact directory")
    p_solve.add_argument("--format", choices=("csv", "json"), default="csv")
    p_solve.set_defaults(func=cmd_solve)

    p_val = sub.add_parser(
        "validate", help="solve, then run replay, KKT, convexity and uniqueness checks"
    )
    add_scenario(p_val)
    p_val.add_argument("--replay-tol", type=float, default=1e-9)
    p_val.add_argument("--kkt-tol", type=float, default=1e-6)
    p_val.add_argument("--uniqueness-starts", type=int, default=5)
    p_val.add_argument("--seed", type=int, default=None,
                       help="default: MODAL_MARKET_SEED or 0")
    p_val.add_argument("--out", default=None, help="optional report directory")
    p_val.set_defaults(func=cmd_validate)

    p_sweep = sub.add_parser("sweep", help="re-solve over a grid of one parameter")
    add_scenario(p_sweep)
    add_solver(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help="dotted path, e.g. traveler_params.beta2")
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers")
    p_sweep.add_argument("--out", default=".", help="artifact directory")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_hub = sub.add_parser("hub-study", help="compare the Sioux Falls hub scenarios")
    add_solver(p_hub)
    p_hub.add_argument("--out", default=".", help="artifact directory")
    p_hub.set_defaults(func=cmd_hub_study)

    p_imp = sub.add_parser("import-tntp", help="turn a TNTP net into a scenario skeleton")
    p_imp.add_argument("--net", required=True, help="TNTP network file")
    p_imp.add_argument("--out", default="scenario-skeleton.json")
    p_imp.set_defaults(func=cmd_import_tntp)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, NetgraphError, ValidationFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
