"""Command-line entry point: solve, validate, sweep, hub-study, import-tntp.

Exit codes: 0 success, 1 failed verification checks, 2 bad input (missing
files, schema or validation errors, unusable option values, unwritable
output paths), 3 solver non-convergence (`NotConverged`), a start whose
driver flows overflow included. Input errors are reported by `main` alone,
as one `error: ...` line, the parser's own included: `main` raises
`SystemExit` only for `--help` and `--version`. Each option's rule is its
`type=`. Artifacts are deterministic: the same inputs
and seed produce byte-identical files, so no timestamps or wall times are
ever written to disk.
"""
from __future__ import annotations

import argparse
import csv
import functools
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Any, Iterator, NoReturn

import numpy as np

from . import __version__
from .analytics import HubStudyRow, HubStudyTotals, MetricsReport, SweepCell
# `sweep_cell` stays importable here: bench/tracing.py wraps cli.sweep_cell
from .analytics import hub_study, metrics, sweep, sweep_cell  # noqa: F401
from .equilibrium import (
    MAX_ITER,
    TOL,
    EquilibriumSolution,
    NonPositiveFlow,
    NotConverged,
    ValidationFailed,
    objective_value,
    solution_at,
    solve,
    solve_and_probe,
    violations,
)
# `uniqueness_probe` stays importable here: bench/tracing.py wraps cli.uniqueness_probe
from .equilibrium import uniqueness_probe  # noqa: F401
from .netgraph import NetgraphError, parse_tntp
from .oracle import FD_REL_STEP, kkt_check, perturbation_probe
# `validate` stays importable here: bench/tracing.py wraps cli.validate
from .scenario import MODES, ScenarioError, builtin, load, validate  # noqa: F401
from .scenario import DriverParams, TravelerParams, network_document, params_document
from .scenario import canonical_json
from .choice import driver_flows_logit, traveler_flows_logit

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_NOT_CONVERGED = 3


class InputError(Exception):
    """A command line, or an option value, the command cannot use."""


class _Parser(argparse.ArgumentParser):
    """A parser whose errors raise InputError, for `main` to report; its
    subparsers are of this class too."""

    def error(self, message: str) -> NoReturn:
        raise InputError(message)


def _at_least(convert, least):
    """An option type: `convert`'s value, refused below `least`, and when
    NaN. A value `convert` refuses reads as argparse's own."""

    def parse(text: str):
        value = convert(text)
        if not value >= least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    parse.__name__ = convert.__name__
    return parse


def _numbers(text: str) -> list[float]:
    """An option type: a non-empty comma-separated list of numbers, empty
    items skipped. A list with an item that `float` refuses reads as
    argparse's own refusal of a float: `invalid float value: '1,x'`."""
    values = [float(v) for v in text.split(",") if v]
    if not values:
        raise argparse.ArgumentTypeError(f"no number in {text!r}")
    return values


_numbers.__name__ = float.__name__


def _load_scenario(ref: str):
    if ref.startswith("builtin:"):
        return builtin(ref)
    path = Path(ref)
    if not path.is_file():
        raise ScenarioError(f"scenario file not found: {ref}")
    return load(path.read_bytes())


def _od_key(rs: tuple[int, int]) -> str:
    return f"{rs[0]}-{rs[1]}"


def _write_json(path: Path, doc: Any) -> None:
    path.write_text(canonical_json(doc) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list[Any]]) -> None:
    """csv's writer writes each float as its shortest round-trip repr."""
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _values(row: Any) -> list[Any]:
    """The row's attributes, in field order."""
    return [getattr(row, f.name) for f in fields(row)]


def _write_manifest(out_dir: Path, args: argparse.Namespace) -> None:
    """Create `out_dir` and write its run manifest. The config records every
    parsed option."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(exc) from None
    _write_json(out_dir / "run_manifest.json", {
        "tool": "modal-market", "version": __version__, "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k not in ("command", "func")},
    })


def _solution_document(sc, sol: EquilibriumSolution) -> dict[str, Any]:
    """The solution's prices and flows, read from its arrays and keyed by
    OD, node and driver-pair strings."""
    cs = sol.prices.cs
    ods = [_od_key(rs) for rs in cs.rs_pairs]
    nodes = [str(n) for n in cs.node_ids]
    pairs = [_od_key(pair) for pair in cs.column_pairs]
    rho_d, rho_h, lam = cs.split(sol.y)
    eta_d, eta_h = cs.eta(sol.y)
    driver = sol.driver
    return {
        "scenario": sc.name,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "residual_inf_norm": sol.residual.inf_norm,
        "prices": {
            "rho_direct": dict(zip(ods, rho_d.tolist())),
            "rho_hub": dict(zip(ods, rho_h.tolist())),
            "lambda": dict(zip(nodes, lam.tolist())),
            "eta_direct": dict(zip(ods, eta_d.tolist())),
            "eta_hub": dict(zip(ods, eta_h.tolist())),
        },
        "flows": {
            "traveler": {
                od: dict(zip(MODES, row)) for od, row in zip(ods, sol.traveler.matrix.tolist())
            },
            "driver": {n: dict(zip(pairs, row)) for n, row in zip(nodes, driver.E.tolist())},
            "signout": dict(zip(nodes, driver.E_H.tolist())),
            "stocks": dict(zip(nodes, driver.stock.tolist())),
        },
    }


def _write_metrics_csv(out_dir: Path, sc, sol: EquilibriumSolution, rep: MetricsReport) -> None:
    cs = rep.cs
    od_keys = [_od_key(rs) for rs in sc.rs_pairs]
    _write_csv(
        out_dir / "mode_shares.csv",
        ["od", *MODES],
        [[key, *row] for key, row in zip(od_keys, rep.shares.tolist())],
    )
    rho_d, rho_h, lam = cs.split(sol.y)
    prices = np.column_stack([*cs.eta(sol.y), rho_d, rho_h, lam[cs.s_idx], lam[cs.h_idx]])
    _write_csv(
        out_dir / "prices.csv",
        ["od", "eta_direct", "eta_hub", "rho_direct", "rho_hub",
         "lambda_s", "lambda_h", "subsidy_flag"],
        [
            [key, *row, int(flag)]
            for key, row, flag in zip(od_keys, prices.tolist(), rep.subsidized.tolist())
        ],
    )
    drivers = np.column_stack([sol.driver.stock, sol.driver.E_H, lam])
    _write_csv(
        out_dir / "drivers.csv",
        ["node", "Q", "signout", "lambda"],
        [[n, *row] for n, row in zip(cs.node_ids, drivers.tolist())],
    )


def _write_metrics_json(out_dir: Path, sc, doc: dict[str, Any], rep: MetricsReport) -> None:
    """The solution document's price, stock and sign-out blocks, plus what
    the metrics add."""
    od_keys = [_od_key(rs) for rs in sc.rs_pairs]
    _write_json(
        out_dir / "metrics.json",
        {
            **doc["prices"],
            "stocks": doc["flows"]["stocks"],
            "signout": doc["flows"]["signout"],
            "mode_share": {
                key: dict(zip(MODES, row)) for key, row in zip(od_keys, rep.shares.tolist())
            },
            "total_relocation_time": rep.total_relocation_time,
            "subsidy": dict(zip(od_keys, rep.subsidized.tolist())),
        },
    )


def cmd_solve(args: argparse.Namespace) -> int:
    sc = _load_scenario(args.scenario)
    exit_code = EXIT_OK
    try:
        sol = solve(sc, tol=args.tol, max_iter=args.max_iter)
    except NotConverged as exc:
        if exc.kind == "overflow":  # no iterate to keep
            raise
        # keep the best iterate for diagnosis, explicitly flagged, with the
        # time of the run that gave it up
        sol = replace(solution_at(sc, exc.best_y, exc.residual_history, converged=False),
                      wall_time=exc.wall_time)
        print(f"not converged: {exc}", file=sys.stderr)
        exit_code = EXIT_NOT_CONVERGED

    # written after the solve, so a scenario that fails validation leaves
    # no manifest behind
    out_dir = Path(args.out)
    _write_manifest(out_dir, args)
    doc = _solution_document(sc, sol)
    _write_json(out_dir / "solution.json", doc)
    rep = metrics(sc, sol)
    if args.format == "csv":
        _write_metrics_csv(out_dir, sc, sol, rep)
    else:
        _write_metrics_json(out_dir, sc, doc, rep)
    flag = "converged" if sol.converged else "NOT CONVERGED"
    print(
        f"{sc.name}: {flag} residual={sol.residual.inf_norm:.3e} "
        f"iterations={sol.iterations} wall_time={sol.wall_time:.4f}s"
    )
    print(f"artifacts written to {out_dir}")
    return exit_code


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max over entries of |a - b| / max(|a|, |b|, 1e-300)."""
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return float((np.abs(a - b) / scale).max())


def _replay_errors(sc, sol: EquilibriumSolution) -> tuple[float, float]:
    """Max relative error of the standalone logit replays of the solution.

    Both replays take their utilities from the scenario data
    (`traveler_flows_logit`, `driver_flows_logit`), not from the compiled
    arrays the solver used.
    """
    traveler = traveler_flows_logit(sc, sol.prices)
    driver = driver_flows_logit(sc, sol.driver.stock, sol.prices)
    return (
        _rel_err(traveler, sol.traveler.matrix),
        _rel_err(driver, np.column_stack([sol.driver.E, sol.driver.E_H])),
    )


#: validate's checks after scenario_valid, in report order: `_check_rows`
#: yields one row per name, in this order
CHECKS = ("market_clearing", "traveler_logit_replay", "driver_logit_replay",
          "kkt_stationarity", "convexity_probe", "uniqueness")


def _check_rows(sc, args: argparse.Namespace) -> Iterator[tuple[bool, str, dict[str, Any]]]:
    """Solve, then yield `(passed, detail, figures)` for each check in
    CHECKS, in order. The solve and the uniqueness probe are one stacked
    Newton run (`solve_and_probe`); the probe's outcome is read only at its
    row. A check that cannot finish raises: NotConverged (an overflowing
    start included), or NonPositiveFlow where it needs strictly positive
    flows."""
    sol, dev = solve_and_probe(sc, k=args.uniqueness_starts, seed=args.seed)
    residual = sol.residual.inf_norm
    yield residual <= TOL, f"residual {residual:.3e} (tol {TOL:g})", {}
    for side, err in zip(("traveler", "driver"), _replay_errors(sc, sol)):
        yield (err <= args.replay_tol, f"rel err {err:.3e} (tol {args.replay_tol:g})",
               {f"{side}_replay_rel_err": err})
    kkt = kkt_check(sc, sol)
    yield (kkt.stationarity <= args.kkt_tol,
           f"max |grad| {kkt.stationarity:.3e} (tol {args.kkt_tol:g})",
           {"kkt_stationarity": kkt.stationarity,
            "kkt_constraint_violation": kkt.constraint_violation})
    gap = perturbation_probe(sc, sol, seed=args.seed)
    combined = objective_value("combined", sc, traveler=sol.traveler, driver=sol.driver)
    yield (gap > 0, f"min objective gap {gap:.3e}",
           {"perturbation_min_gap": gap, "objective_combined": combined})
    if isinstance(dev, NotConverged):
        raise dev
    yield (dev <= 1e-6, f"max dual deviation {dev:.3e} over {args.uniqueness_starts} starts",
           {"uniqueness_max_deviation": dev})


def _audit(sc, args: argparse.Namespace,
           checks: list[tuple[str, bool, str]], figures: dict[str, Any]) -> int:
    """Append a row to `checks` for each check in CHECKS, and its figures to
    `figures`. A check that cannot finish is a FAIL row, the last: exit 3
    for a NotConverged, 1 for a NonPositiveFlow. Returns the exit code."""
    rows = _check_rows(sc, args)
    try:
        for name in CHECKS:
            passed, detail, found = next(rows)
            checks.append((name, passed, detail))
            figures.update(found)
    except (NotConverged, NonPositiveFlow) as exc:
        checks.append((name, False, str(exc)))
        return EXIT_NOT_CONVERGED if isinstance(exc, NotConverged) else EXIT_CHECK_FAILED
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_CHECK_FAILED


def cmd_validate(args: argparse.Namespace) -> int:
    sc = _load_scenario(args.scenario)

    found = violations(sc)
    checks: list[tuple[str, bool, str]] = [
        ("scenario_valid", not found, f"{len(found)} violations")
    ]
    figures: dict[str, Any] = {}
    if found:
        for v in found:
            print(f"  violation: {v}", file=sys.stderr)
        exit_code = EXIT_INPUT
    else:
        exit_code = _audit(sc, args, checks, figures)

    if args.out is not None and not found:
        out_dir = Path(args.out)
        _write_manifest(out_dir, args)
        _write_json(out_dir / "oracle_report.json", {
            "checks": {
                name: {"passed": ok, "detail": detail}
                for name, ok, detail in checks
            },
            "schedules": {
                "kkt_fd_relative_step": FD_REL_STEP,
                "seed": args.seed,
            },
            **figures,
        })

    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return exit_code


def cmd_sweep(args: argparse.Namespace) -> int:
    sc = _load_scenario(args.scenario)
    try:
        cells = sweep(sc, args.param, args.values, tol=args.tol, max_iter=args.max_iter)
    except ValueError as exc:  # a --param that names no scalar
        raise InputError(f"--param: {exc}") from None

    out_dir = Path(args.out)
    _write_manifest(out_dir, args)
    name = args.param.split(".")[-1]
    # a CSV writes the flag as 0/1 and no error as ""
    rows = [_values(replace(c, converged=int(c.converged), error=c.error or "")) for c in cells]
    _write_csv(out_dir / f"sweep_{name}.csv", [f.name for f in fields(SweepCell)], rows)
    for c in cells:
        status = "ok" if c.converged else f"FAILED ({c.error})"
        print(f"{args.param}={c.value}: {status} winner={c.winner or '-'}")
    print(f"artifacts written to {out_dir}")
    return EXIT_OK if all(c.converged for c in cells) else EXIT_CHECK_FAILED


def cmd_hub_study(args: argparse.Namespace) -> int:
    study = hub_study(tol=args.tol, max_iter=args.max_iter)
    out_dir = Path(args.out)
    _write_manifest(out_dir, args)
    totals = {t.scenario: _values(t) for t in study.totals}
    table = [([f.name for f in fields(HubStudyRow)], [f.name for f in fields(HubStudyTotals)])]
    table += [(_values(replace(row, od=_od_key(row.od))), totals[row.scenario])
              for row in study.rows]
    # each row joins its scenario's totals: their scenario and n_hubs, the
    # row's fields after scenario, then the remaining totals
    joined = [[*t[:2], *r[1:], *t[2:]] for r, t in table]
    _write_csv(out_dir / "hub_study.csv", joined[0], joined[1:])
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
    if not path.is_file():
        raise NetgraphError(f"network file not found: {args.net}")
    net = parse_tntp(path.read_bytes(), name=path.stem)

    skeleton = {
        "name": net.name,
        "network": network_document(net),
        "ods": [],
        "relocation_times": {"auto_shortest_path": True, "overrides": []},
        "signin": {str(n): 0.0 for n in net.nodes},
        **params_document(TravelerParams(), DriverParams()),
    }
    out = Path(args.out)
    if out.is_dir():
        raise InputError(f"--out is a directory: {out}")
    _write_manifest(out.parent, args)
    _write_json(out, skeleton)
    print(
        f"skeleton with {len(net.nodes)} nodes / {len(net.links)} links "
        f"written to {out}"
    )
    print(
        "required before solving: fill 'ods' (r, s, demand, hub, times, "
        "costs) and set positive 'signin' rates"
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every `main` call reuses it."""
    parser = _Parser(
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

    def add_out(p, default=".", help="artifact directory"):
        p.add_argument("--out", type=lambda text: str(Path(text)), default=default, help=help)

    def add_solver(p):
        p.add_argument("--tol", type=_at_least(float, 0), default=TOL)
        p.add_argument("--max-iter", type=_at_least(int, 0), default=MAX_ITER)

    p_solve = sub.add_parser("solve", help="solve one scenario and write artifacts")
    add_scenario(p_solve)
    add_solver(p_solve)
    add_out(p_solve)
    p_solve.add_argument("--format", choices=("csv", "json"), default="csv")
    p_solve.set_defaults(func=cmd_solve)

    p_val = sub.add_parser(
        "validate", help="solve, then run replay, KKT, convexity and uniqueness checks"
    )
    add_scenario(p_val)
    p_val.add_argument("--replay-tol", type=_at_least(float, 0), default=1e-9)
    p_val.add_argument("--kkt-tol", type=_at_least(float, 0), default=1e-6)
    p_val.add_argument("--uniqueness-starts", type=_at_least(int, 2), default=5)
    p_val.add_argument("--seed", type=_at_least(int, 0), default=0,
                       help="seed of the convexity and uniqueness probes' draws")
    add_out(p_val, None, "optional report directory")
    p_val.set_defaults(func=cmd_validate)

    p_sweep = sub.add_parser("sweep", help="re-solve over a grid of one parameter")
    add_scenario(p_sweep)
    add_solver(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help="dotted path, e.g. traveler_params.beta2")
    p_sweep.add_argument("--values", type=_numbers, required=True,
                         help="comma-separated numbers; write --values=-10,0 if the first is < 0")
    add_out(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="accepted and ignored: a sweep is one stacked solve")
    p_sweep.set_defaults(func=cmd_sweep)

    p_hub = sub.add_parser("hub-study", help="compare the Sioux Falls hub scenarios")
    add_solver(p_hub)
    add_out(p_hub)
    p_hub.set_defaults(func=cmd_hub_study)

    p_imp = sub.add_parser("import-tntp", help="turn a TNTP net into a scenario skeleton")
    p_imp.add_argument("--net", required=True, help="TNTP network file")
    p_imp.add_argument("--out", default="scenario-skeleton.json")
    p_imp.set_defaults(func=cmd_import_tntp)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ScenarioError, NetgraphError, ValidationFailed, InputError, NotConverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED if isinstance(exc, NotConverged) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
