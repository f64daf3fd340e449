"""The benchmark's three workloads: seeded operation streams and their checks.

A workload is a deterministic stream: `op(i)` prepares the i-th operation
from the workload seed (writing any input files) and returns an `Op` whose
`run` is the timed call into modal-market and whose `check` inspects the
result afterwards. Preparation and checking are never timed.

* scaled-solve: `load(doc) -> solve -> metrics` on distinct m = 200 Sioux
  Falls documents (dual dimension 424), where the dense Jacobian and LU
  dominate. Judges the structured Newton step.
* cli-builtins: `cli.main` calls on the four builtins (dims 9 to 38) mixing
  `solve --format csv|json`, three-value `sweep` grids and `hub-study`,
  where per-call overhead dominates. Control for the Newton step, target
  for the array-form solution.
* audit-corpus: `cli.main(["validate", ...])` over a seeded corpus of
  AUDIT_CORPUS inputs, the builtins and `random_scenario` instances saved as
  JSON, where the oracle probes and far-start solves dominate. The corpus is
  cycled, so the inputs, and the count of those that fail, are fixed by the
  seed. Judges the globalization; its failures are kept, not filtered.

Op labels name the input, so an op with a label seen before is a repeat.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import modal_market as mm
from modal_market import cli
from modal_market.equilibrium import EquilibriumError

from scaled_sioux import scaled_document

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DUALS = BENCH_DIR / "reference_duals.json"
TOL = 1e-10
DUAL_TOL = 1e-6
BUILTINS = ("5node", "sioux1", "sioux2", "sioux3")
#: Sweep grids on which every builtin converges from the zero start.
SWEEP_GRIDS = {
    "traveler_params.beta2": (0.3, 0.5, 1.0, 2.0, 3.0),
    "driver_params.beta0_H": (0.5, 1.0, 2.0, 3.0, 4.0),
    "driver_params.beta3": (0.5, 0.75, 1.0, 1.5, 2.0),
}
#: One block of cli-builtins: every builtin solved in both formats, one
#: sweep per parameter and one hub study, shuffled per block. A fixed
#: composition keeps the latency mix the same for every seed.
CLI_BLOCK = (
    [("solve", b, fmt) for b in BUILTINS for fmt in ("csv", "json")]
    + [("sweep", param) for param in SWEEP_GRIDS]
    + [("hub-study",)]
)
#: audit-corpus validates one builtin (cycling) every this many inputs;
#: every other input is its own `random_scenario`.
AUDIT_BUILTIN_EVERY = 25
#: Inputs in one audit-corpus pass; a run makes at least one full pass.
AUDIT_CORPUS = 250
#: Seed stride between workload seeds, so streams of different seeds never
#: share generated instances.
SEED_STRIDE = 100_000
FAILURE_EXITS = (cli.EXIT_CHECK_FAILED, cli.EXIT_NOT_CONVERGED)


@dataclass
class Outcome:
    """Result of checking one operation.

    `failed` counts toward failed_share; `wrong` names an output that breaks
    the program's contract (the run is then reported as not correct).
    """

    failed: bool = False
    wrong: str | None = None
    bytes_written: int = 0


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


def _artifacts(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call the CLI entry point in-process; returns (exit code, captured text)."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        rc = cli.main(argv)
    return rc, text.getvalue()


def cli_op(label: str, argv: list[str], out_dir: Path,
           verify: Callable[[dict[str, bytes]], str | None],
           seen: dict[tuple[str, ...], str] | None = None) -> Op:
    """An Op running `cli.main(argv)` that writes into `out_dir`.

    Exits 1 (failed checks) and 3 (non-convergence) count as failed
    operations; any other non-zero exit, or an exception escaping `main`, is
    a wrong output.
    On success `verify` inspects the artifacts. When `seen` is given, a
    repeated command must reproduce its artifacts byte for byte.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for old in out_dir.iterdir():
        old.unlink()

    def check(result: Any) -> Outcome:
        if isinstance(result, Exception):
            return Outcome(failed=True, wrong=f"{label}: {type(result).__name__}: {result}")
        rc, text = result
        files = _artifacts(out_dir)
        written = sum(len(b) for b in files.values())
        if rc != cli.EXIT_OK:
            wrong = None if rc in FAILURE_EXITS else f"{label}: exit {rc}: {text.strip()[-200:]}"
            return Outcome(failed=True, wrong=wrong, bytes_written=written)
        try:
            problem = verify(files)
        except (KeyError, ValueError) as exc:
            problem = f"unreadable artifacts: {type(exc).__name__}: {exc}"
        if problem is None and seen is not None:
            digest = hashlib.sha256(b"".join(
                name.encode() + b"\0" + data for name, data in files.items()
            )).hexdigest()
            key = tuple(argv)
            if seen.setdefault(key, digest) != digest:
                problem = "artifacts differ from an earlier run of the same command"
        if problem is not None:
            return Outcome(failed=True, wrong=f"{label}: {problem}", bytes_written=written)
        return Outcome(bytes_written=written)

    return Op(label, lambda: run_cli(argv), check)


# ---------------------------------------------------------------------------
# scaled-solve


def solve_document(doc: bytes):
    sc = mm.load(doc)
    sol = mm.solve(sc)
    return sc, sol, mm.metrics(sc, sol)


def load_reference() -> tuple[int, np.ndarray]:
    ref = json.loads(REFERENCE_DUALS.read_text())
    return ref["generator_seed"], np.array(ref["y"], dtype=float)


def _check_solve(label: str, reference: np.ndarray | None = None) -> Callable[[Any], Outcome]:
    def check(result: Any) -> Outcome:
        if isinstance(result, EquilibriumError):
            return Outcome(failed=True)
        if isinstance(result, Exception):
            return Outcome(failed=True, wrong=f"{label}: {type(result).__name__}: {result}")
        sc, sol, _ = result
        res = mm.residual(sc, sol.y).inf_norm
        if not res <= TOL:
            return Outcome(failed=True, wrong=f"{label}: residual {res:.3e} > {TOL:g}")
        if reference is not None:
            gap = float(np.abs(sol.y - reference).max()) if sol.y.shape == reference.shape else np.inf
            if not gap <= DUAL_TOL:
                return Outcome(failed=True, wrong=f"{label}: duals off reference by {gap:.3e}")
        return Outcome()

    return check


class ScaledSolve:
    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def warmup(self) -> Op:
        """Solve the reference document and compare with the recorded duals."""
        gen_seed, y_ref = load_reference()
        doc = scaled_document(gen_seed)
        return Op("reference", lambda: solve_document(doc), _check_solve("reference", y_ref))

    def op(self, i: int) -> Op:
        gen_seed = self.seed * SEED_STRIDE + i
        doc = scaled_document(gen_seed)
        label = f"scaled-solve generator seed {gen_seed}"
        return Op(label, lambda: solve_document(doc), _check_solve(label))


# ---------------------------------------------------------------------------
# cli-builtins


def _verify_solution(files: dict[str, bytes]) -> str | None:
    doc = json.loads(files["solution.json"])
    if doc["converged"] is not True or not doc["residual_inf_norm"] <= TOL:
        return f"solution.json residual {doc['residual_inf_norm']:.3e}, converged={doc['converged']}"
    return None


def _verify_sweep(files: dict[str, bytes]) -> str | None:
    (name,) = [n for n in files if n.startswith("sweep_")]
    rows = list(csv.DictReader(io.StringIO(files[name].decode())))
    for row in rows:
        if row["converged"] != "1" or not float(row["residual_inf"]) <= TOL:
            return f"{name}: cell {row['value']} residual {row['residual_inf']}"
    return None if rows else f"{name}: no rows"


def _verify_hub_study(files: dict[str, bytes]) -> str | None:
    return None if files.get("hub_study.csv") else "hub_study.csv missing"


class CliBuiltins:
    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.dirs: dict[tuple[str, ...], Path] = {}
        self.seen: dict[tuple[str, ...], str] = {}

    def _op(self, label: str, argv: list[str], verify) -> Op:
        # one directory per distinct command: `--out` is part of the
        # command, and the manifest records it
        out = self.dirs.setdefault(tuple(argv), self.work / f"cli{len(self.dirs)}")
        return cli_op(label, argv + ["--out", str(out)], out, verify, seen=self.seen)

    def warmup(self) -> Op:
        return self._op("warmup", ["solve", "--scenario", "builtin:sioux3"], _verify_solution)

    def op(self, i: int) -> Op:
        block, pos = divmod(i, len(CLI_BLOCK))
        rng = np.random.default_rng([self.seed, block])
        kind = CLI_BLOCK[rng.permutation(len(CLI_BLOCK))[pos]]
        # per-position draws keep each op independent of the others in the block
        rng = np.random.default_rng([self.seed, block, pos])
        if kind[0] == "solve":
            _, b, fmt = kind
            return self._op(f"solve {b} {fmt}",
                            ["solve", "--scenario", f"builtin:{b}", "--format", fmt],
                            _verify_solution)
        if kind[0] == "sweep":
            param = kind[1]
            b = BUILTINS[int(rng.integers(len(BUILTINS)))]
            values = sorted(rng.choice(SWEEP_GRIDS[param], size=3, replace=False))
            return self._op(f"sweep {b} {param} {','.join(map(str, values))}",
                            ["sweep", "--scenario", f"builtin:{b}", "--param", param,
                             "--values", ",".join(repr(float(v)) for v in values),
                             "--jobs", "1"],
                            _verify_sweep)
        return self._op("hub-study", ["hub-study"], _verify_hub_study)


# ---------------------------------------------------------------------------
# audit-corpus


def _verify_report(files: dict[str, bytes]) -> str | None:
    checks = json.loads(files["oracle_report.json"])["checks"]
    bad = [name for name, c in checks.items() if c["passed"] is not True]
    return f"exit 0 with failed checks {bad}" if bad else None


class AuditCorpus:
    corpus_size = AUDIT_CORPUS

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.inputs = work / "corpus"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.out = work / "report"

    def _validate(self, label: str, scenario: str, probe_seed: int) -> Op:
        argv = ["validate", "--scenario", scenario, "--seed", str(probe_seed),
                "--out", str(self.out)]
        return cli_op(label, argv, self.out, _verify_report)

    def warmup(self) -> Op:
        # probe seed 0 passes on sioux3; the warm-up must not fail by chance
        return self._validate("warmup", "builtin:sioux3", 0)

    def op(self, i: int) -> Op:
        j = i % AUDIT_CORPUS
        # each input has its own probe seed, so probe failures are independent
        probe_seed = self.seed * SEED_STRIDE + j
        k, pos = divmod(j, AUDIT_BUILTIN_EVERY)
        if pos == 0:
            b = BUILTINS[k % len(BUILTINS)]
            return self._validate(f"validate {b} probe seed {probe_seed}", f"builtin:{b}",
                                  probe_seed)
        rs_seed = self.seed * SEED_STRIDE + k * (AUDIT_BUILTIN_EVERY - 1) + pos - 1
        path = self.inputs / f"random-{rs_seed}.json"
        if not path.exists():
            path.write_bytes(mm.save(mm.random_scenario(rs_seed)))
        return self._validate(f"validate random_scenario({rs_seed}) probe seed {probe_seed}",
                              str(path), probe_seed)


WORKLOADS = {
    "scaled-solve": ScaledSolve,
    "cli-builtins": CliBuiltins,
    "audit-corpus": AuditCorpus,
}


def make(name: str, seed: int, work: Path):
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, work)
