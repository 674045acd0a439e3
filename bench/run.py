"""Benchmark of ``taxcascade`` sessions: seeded CLI runs, checked against a reference.

Usage (from the repository root)::

    python3 bench/run.py --workload dense-1000 --seed 1 --seconds 20 --trace 0

Each workload generates its input bundles from the seed, then repeats a fixed
session of ``taxcascade`` commands (validate, a baseline compute, scenario
computes, one diff per scenario) in a closed loop: one command at a time, the
next one starting when the previous one has exited.  Whole sessions are run
until ``--seconds`` have passed, and at least two, so that the outputs of
identical commands can be compared byte for byte.  Every output is checked
against ``reference.py`` after each session, outside the timed region.

``--trace 0`` runs every command as its own process from ``src/`` and prints
the end-to-end metrics.  ``--trace 1`` runs the same sessions in this process
with spans around the program's public functions and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread here and in every child: the benchmark runs one command at
# a time and the solve is a negligible share of every workload, so extra
# threads would only add noise on a shared machine.  Set before numpy loads.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
REQUIRED = (
    ROOT / "src" / "taxcascade" / "cli.py",
    ROOT / "tests" / "brazil2015.py",
    ROOT / "tests" / "oracles.py",
)

#: After each session, input generation is repeated for SETUP_SHARE of the
#: session's wall time (once at the least), so that the samples of ``setup_s``
#: are spread over the whole run, as the machine's speed drifts.
SETUP_SHARE = 0.1
#: Sessions per run at the least; the determinism check needs two.
MIN_ROUNDS = 2
IMPORT_SAMPLES = 5
#: Pairs of traced and untraced in-process baseline computes for the overhead.
OVERHEAD_PAIRS = 3
TRUNCATED = ("--method", "truncated", "--tol", "1e-12", "--maxstages", "1000000")


@dataclass(frozen=True)
class Workload:
    economy: Callable  # (rng) -> inputs.Economy
    scenarios: int
    truncated: bool = False
    corrupted: bool = False  # also validate two corrupted copies of the bundle
    oracle: bool = False  # also compare the baseline with the stage oracle


def _workloads() -> dict[str, Workload]:
    import inputs

    return {
        # The paper's scale: per-process fixed costs (import, manifest,
        # digests, small writers) dominate; O(n^2) I/O and the solve do not.
        "brazil67-scenarios": Workload(
            lambda rng: inputs.brazil67(ROOT), scenarios=4, corrupted=True, oracle=True
        ),
        # Text I/O in accounts and reporting is about 90% of a compute.
        "dense-1000": Workload(
            lambda rng: inputs.structured(rng, 1000, density=0.03, margins=5), scenarios=2
        ),
        # The only workload on the truncated path: ~26k stages, so the stage
        # loop in engine dominates.
        "deep-chain-truncated": Workload(
            lambda rng: inputs.structured(rng, 500, density=0.05, margins=3, block=40),
            scenarios=2,
            truncated=True,
        ),
    }


# ---------------------------------------------------------------------------
# Inputs and the session plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    economy: object
    scenarios: list
    manifest: Path
    scenario_files: list[Path]
    corrupted: list[tuple[Path, str]]  # (manifest, activity validate must name)


def setup(workload: Workload, seed: int, directory: Path) -> Inputs:
    import numpy as np

    import inputs

    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    economy = workload.economy(rng)
    scenarios = inputs.scenarios(rng, economy.n, workload.scenarios)
    manifest = inputs.write_bundle(economy, directory / "bundle")
    files = [
        inputs.write_scenario(s, economy.codes, directory / f"scenario{k}.csv")
        for k, s in enumerate(scenarios)
    ]
    corrupted = []
    if workload.corrupted:
        # Fixed cells: the bundle does not depend on the seed, so these two
        # operations fail identically in every run while the fault stands.
        nan_code, inf_code = economy.codes[9], economy.codes[19]
        corrupted = [
            (inputs.corrupt_copy(manifest, directory / "nan_flows", "flows", nan_code, 11, "nan"), nan_code),
            (inputs.corrupt_copy(manifest, directory / "inf_supply", "supply", inf_code, 0, "inf"), inf_code),
        ]
    return Inputs(economy, scenarios, manifest, files, corrupted)


@dataclass(frozen=True)
class Op:
    kind: str  # "validate", "compute", "diff" or "corrupt"
    argv: tuple[str, ...]
    out: Path  # output directory of the command
    scenario: int | None = None  # None is the baseline
    code: str | None = None  # activity a corrupt validate must name


def session(workload: Workload, inp: Inputs, out: Path) -> list[Op]:
    def rel(path: Path) -> str:
        return str(path.relative_to(ROOT))

    manifest = rel(inp.manifest)
    extra = TRUNCATED if workload.truncated else ()
    base = out / "baseline"
    ops = [
        Op("validate", ("validate", "--manifest", manifest, "--out", rel(out / "validate")), out / "validate"),
        Op("compute", ("compute", "--manifest", manifest, "--out", rel(base), *extra), base),
    ]
    for k, path in enumerate(inp.scenario_files):
        target = out / f"scenario{k}"
        ops.append(
            Op("compute", ("compute", "--manifest", manifest, "--scenario", rel(path), "--out", rel(target), *extra), target, k)
        )
    for k in range(len(inp.scenario_files)):
        target = out / f"diff{k}"
        ops.append(
            Op("diff", ("diff", "--baseline", rel(base), "--scenario", rel(out / f"scenario{k}"), "--out", rel(target)), target, k)
        )
    for k, (bad, code) in enumerate(inp.corrupted):
        target = out / f"corrupt{k}"
        ops.append(Op("corrupt", ("validate", "--manifest", rel(bad), "--out", rel(target)), target, code=code))
    return ops


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    seconds: float
    exit_code: int
    text: str
    maxrss_kb: int = 0


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """The small process in ``launch.py`` that starts every timed command."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, op: Op, env: dict[str, str]) -> Outcome:
        """One ``python -m taxcascade`` process; peak RSS from ``wait4``."""
        log = op.out.parent / f"{op.out.name}.log"
        request = {"argv": [sys.executable, "-m", "taxcascade", *op.argv], "cwd": str(ROOT), "env": env, "log": str(log)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(reply)
        text = log.read_text(encoding="utf-8", errors="replace")
        return Outcome(reply["seconds"], reply["exit_code"], text, reply["maxrss_kb"])


def run_inprocess(op: Op, cli) -> Outcome:
    """``taxcascade.cli.main`` in this process, output captured."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, as in a process
            traceback.print_exc()
            code = 1
    return Outcome(time.perf_counter() - start, code, buf.getvalue())


# ---------------------------------------------------------------------------
# Sessions and checks
# ---------------------------------------------------------------------------


class Checker:
    """Checks each session's outputs against the reference and the first session."""

    def __init__(self, workload: Workload, inp: Inputs) -> None:
        import numpy as np

        import inputs
        import reference

        self.workload = workload
        self.inp = inp
        n = inp.economy.n
        self.refs = {None: reference.reference(inp.economy, np.ones(n))}
        for k, s in enumerate(inp.scenarios):
            self.refs[k] = reference.reference(inp.economy, s.scale)
        self.oracle = inputs.load_module(ROOT / "tests" / "oracles.py", "bench_oracles") if workload.oracle else None
        self.first: dict[str, dict[str, str]] | None = None

    @staticmethod
    def failed(ops: list[Op], outcomes: list[Outcome]) -> int:
        """Operations that exited non-zero, and corrupt-bundle validations that
        did not exit 1 naming the corrupted activity."""
        return sum(
            not (o.exit_code == 1 and op.code in o.text) if op.kind == "corrupt" else o.exit_code != 0
            for op, o in zip(ops, outcomes)
        )

    def check(self, ops: list[Op], outcomes: list[Outcome]) -> None:
        """Raise ``CheckError`` on a wrong output of an operation that succeeded."""
        import reference as r

        ok: dict[Op, bool] = {}
        finals = {}
        computed = {op.scenario: op.out for op in ops if op.kind == "compute"}
        for op, o in zip(ops, outcomes):
            if op.kind == "corrupt":
                continue
            ok[op] = o.exit_code == 0
            if not ok[op]:
                continue
            if op.kind == "validate":
                r.check_validate(op.out)
            elif op.kind == "compute":
                ref = self.refs[op.scenario]
                finals[op.scenario] = r.check_compute(op.out, self.inp.economy, ref, truncated=self.workload.truncated)
                if op.scenario is None and self.oracle is not None:
                    r.check_oracle(op.out, ref, finals[None], self.oracle)
            elif op.kind == "diff" and None in finals and op.scenario in finals:
                r.check_diff(
                    op.out,
                    self.inp.economy,
                    (computed[None], self.refs[None]),
                    (computed[op.scenario], self.refs[op.scenario]),
                )
        for k, s in enumerate(self.inp.scenarios):
            if s.uniform is not None and None in finals and k in finals:
                r.check_linearity(computed[k], finals[None], finals[k], s.uniform)

        digests = {str(op.out): r.tree_digest(op.out) for op in ops if ok.get(op)}
        if self.first is None:
            self.first = digests
        for key, files in digests.items():
            if key in self.first and files != self.first[key]:
                changed = sorted(f for f in files.keys() | self.first[key].keys() if files.get(f) != self.first[key].get(f))
                raise r.CheckError(f"{key}: identical commands wrote different files: {changed}")


@dataclass
class Rounds:
    outcomes: list[list[Outcome]] = field(default_factory=list)
    sessions: list[float] = field(default_factory=list)  # wall time, corrupt validations excluded
    attempted: int = 0
    failed: int = 0


def run_rounds(rounds: Rounds, ops: list[Op], run, checker: Checker, seconds: float, out: Path, after) -> None:
    """Whole sessions until ``seconds`` have passed (at least MIN_ROUNDS).

    ``after(session_seconds)`` runs after each session, before its outputs
    are checked.  The counts are in ``rounds`` when a check raises.
    """
    start = time.perf_counter()
    while len(rounds.outcomes) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        outcomes = []
        wall = None
        begin = time.perf_counter()
        for op in ops:
            if op.kind == "corrupt" and wall is None:
                wall = time.perf_counter() - begin
            outcomes.append(run(op))
        rounds.sessions.append(time.perf_counter() - begin if wall is None else wall)
        rounds.outcomes.append(outcomes)
        after(rounds.sessions[-1])
        rounds.attempted += len(ops)
        rounds.failed += checker.failed(ops, outcomes)
        checker.check(ops, outcomes)


# ---------------------------------------------------------------------------
# End-to-end metrics (--trace 0)
# ---------------------------------------------------------------------------


def measured(rounds: Rounds, ops: list[Op], checker: Checker, seconds: float, out: Path,
             launcher: Launcher, set_up: Callable[[float], None]) -> dict:
    import reference

    env = child_env()
    run_rounds(rounds, ops, lambda op: launcher.run(op, env), checker, seconds, out, after=set_up)
    samples: dict[str, list[Outcome]] = {"validate": [], "compute": [], "diff": []}
    for outcomes in rounds.outcomes:
        for op, o in zip(ops, outcomes):
            if op.kind in samples:
                samples[op.kind].append(o)
    metrics = {
        "validate_s": (statistics.median(o.seconds for o in samples["validate"]), "s"),
        "compute_s": (statistics.median(o.seconds for o in samples["compute"]), "s"),
        "diff_s": (statistics.median(o.seconds for o in samples["diff"]), "s"),
        "session_s": (statistics.median(rounds.sessions), "s"),
        "compute_peak_rss_mb": (max(o.maxrss_kb for o in samples["compute"]) / 1024.0, "MB"),
        "output_bytes": (reference.tree_bytes(ops[1].out), "bytes"),
    }
    return metrics


# ---------------------------------------------------------------------------
# Per-layer metrics (--trace 1)
# ---------------------------------------------------------------------------

#: Functions as ``taxcascade.cli`` resolves them; the span is named after the
#: module that defines each one.
CLI_FUNCTIONS = (
    "cmd_validate", "cmd_compute", "cmd_diff", "_read_scenario",
    "load_bundle", "validate", "save_bundle",
    "redistribute_margins",
    "apply_scenario", "build_system", "propagate_closed_form", "propagate_truncated",
    "effective_rates",
    "write_margin_audit", "write_system_digest", "write_first_stage_table",
    "write_final_incidence_table", "write_rates_table", "write_result_json", "bundle_digests",
)
TABLE_WRITERS = {
    "reporting.write_first_stage_table",
    "reporting.write_final_incidence_table",
    "reporting.write_rates_table",
}
TIMED = (
    "cli.cmd_validate", "cli.cmd_compute", "cli.cmd_diff",
    "accounts.load_bundle", "accounts.validate", "accounts.save_bundle",
    "margins.redistribute_margins",
    "engine.build_system", "engine.propagate_closed_form", "engine.propagate_truncated",
    "rates.effective_rates",
    "reporting.write_margin_audit", "reporting.write_result_json",
    "reporting.write_system_digest", "reporting.bundle_digests",
)


def _bundle_bytes(manifest) -> int:
    manifest = ROOT / manifest
    tables = json.loads(manifest.read_text(encoding="utf-8"))["tables"].values()
    return manifest.stat().st_size + sum((manifest.parent / t).stat().st_size for t in tables)


def _audit_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


#: Counts recorded at each span: (args, kwargs, result) -> attributes.
#: Callables are deferred until the session ends, outside every span.
MEASURES = {
    "load_bundle": lambda a, k, r: {"bytes_read": lambda: _bundle_bytes(a[0])},
    "save_bundle": lambda a, k, r: {"bytes": lambda: sum(p.stat().st_size for p in r.parent.iterdir())},
    "propagate_truncated": lambda a, k, r: {"stages": r.stages},
    "effective_rates": lambda a, k, r: {"masked": int(r.masked.sum())},
    "write_margin_audit": lambda a, k, r: {
        "bytes": lambda: r.stat().st_size,
        "rows": lambda: _audit_rows(r),
        "cells": len(a[0].activity_codes) * len(a[0].destination_labels),
    },
}


def import_seconds(env: dict[str, str]) -> list[float]:
    """Import time of ``taxcascade.cli`` in fresh processes."""
    code = "import time; t = time.perf_counter(); import taxcascade.cli; print(time.perf_counter() - t)"
    return [
        float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(IMPORT_SAMPLES)
    ]


def wrappers(tracer, cli, accounts) -> list[tuple[object, str, object]]:
    """Spans around every function ``taxcascade.cli`` resolves, named after the
    module that defines it, and around ``accounts.validate`` in ``load_bundle``."""
    targets = []
    for name in CLI_FUNCTIONS:
        fn = getattr(cli, name)
        span = f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"
        targets.append((cli, name, tracer.wrap(span, fn, MEASURES.get(name))))
    targets.append((accounts, "validate", tracer.wrap("accounts.validate", accounts.validate)))
    return targets


def overhead(op: Op, cli, accounts) -> tuple[list[float], list[Outcome]]:
    """Traced minus untraced seconds of ``op`` in pairs, alternating which runs first."""
    from spans import Tracer, patched

    targets = wrappers(Tracer(), cli, accounts)
    diffs, outcomes = [], []
    for k in range(OVERHEAD_PAIRS):
        seconds = {}
        for on in ((True, False) if k % 2 == 0 else (False, True)):
            with patched(targets if on else []):
                outcomes.append(run_inprocess(op, cli))
            seconds[on] = outcomes[-1].seconds
        diffs.append(seconds[True] - seconds[False])
    return diffs, outcomes


def traced(rounds: Rounds, ops: list[Op], checker: Checker, seconds: float, out: Path, work: Path) -> dict:
    import reference
    import taxcascade.accounts as accounts
    import taxcascade.cli as cli
    from spans import PeakProbe, Tracer, median_or_zero, patched

    tracer = Tracer()

    def run(op: Op) -> Outcome:
        # Corrupt-bundle validations stay out of every per-layer figure.
        tracer.paused = op.kind == "corrupt"
        return run_inprocess(op, cli)

    with patched(wrappers(tracer, cli, accounts)):
        run_rounds(rounds, ops, run, checker, seconds, out, after=lambda _: tracer.settle())
    tracer.write(work / "trace.json")

    baseline = ops[1]
    diffs, reruns = overhead(baseline, cli, accounts)
    # Not a metric: about 1 us per span and under 20 spans per compute, far
    # below the run-to-run noise of a whole compute that the pairs show.
    print(f"tracing overhead, traced minus untraced baseline compute: median {statistics.median(diffs):+.4f} s"
          f" over {OVERHEAD_PAIRS} pairs ({', '.join(f'{d:+.4f}' for d in diffs)})")

    probe = PeakProbe()
    with patched([(cli, "redistribute_margins", probe.wrap(cli.redistribute_margins))]):
        tracemalloc.start()
        try:
            floor = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            reruns.append(run_inprocess(baseline, cli))
            peak = max(probe.outer, tracemalloc.get_traced_memory()[1]) - floor
        finally:
            tracemalloc.stop()
    # The reruns rewrote the baseline: check it again, bytes included.
    if any(o.exit_code for o in reruns):
        raise reference.CheckError(f"{baseline.out}: an in-process rerun failed: {reruns[-1].text}")
    checker.check([baseline], reruns[-1:])

    cells = [r / c for r, c in zip(tracer.attrs("reporting.write_margin_audit", "rows"),
                                   tracer.attrs("reporting.write_margin_audit", "cells"))]
    metrics = {
        "cli.import_s": (statistics.median(import_seconds(child_env())), "s"),
        "cli.cmd_compute.self_s": (median_or_zero(tracer.self_times("cli.cmd_compute")), "s"),
        "cli.compute.peak_mb": (peak / 2**20, "MB"),
        "margins.redistribute_margins.peak_mb": (max(probe.inner, default=0) / 2**20, "MB"),
        "reporting.write_tables.s": (median_or_zero(tracer.child_totals("cli.cmd_compute", TABLE_WRITERS)), "s"),
        "accounts.load_bundle.bytes_read": (median_or_zero(tracer.attrs("accounts.load_bundle", "bytes_read")), "bytes"),
        "accounts.save_bundle.bytes": (median_or_zero(tracer.attrs("accounts.save_bundle", "bytes")), "bytes"),
        "engine.stages": (median_or_zero(tracer.attrs("engine.propagate_truncated", "stages")), "count"),
        "rates.masked_cells": (median_or_zero(tracer.attrs("rates.effective_rates", "masked")), "count"),
        "reporting.write_margin_audit.bytes": (median_or_zero(tracer.attrs("reporting.write_margin_audit", "bytes")), "bytes"),
        "reporting.write_margin_audit.rows_per_cell": (median_or_zero(cells), "ratio"),
    }
    for name in TIMED:
        metrics[f"{name}.s"] = (median_or_zero(tracer.durations(name)), "s")
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a taxcascade checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.chdir(ROOT)

    # The launcher starts before numpy loads; see launch.py.
    with contextlib.ExitStack() as stack:
        launcher = None if args.trace else stack.enter_context(Launcher())
        workloads = _workloads()
        if args.workload not in workloads:
            print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads)}", file=sys.stderr)
            return 2
        workload = workloads[args.workload]
        work = WORK / args.workload
        work.mkdir(parents=True, exist_ok=True)
        import reference
        import taxcascade  # noqa: F401  (imported once, before set-up is timed)

        setup_times: list[float] = []

        def timed_setup(directory: Path) -> Inputs:
            start = time.perf_counter()
            inp = setup(workload, args.seed, directory)
            setup_times.append(time.perf_counter() - start)
            return inp

        def set_up(session_seconds: float) -> None:
            start = time.perf_counter()
            timed_setup(work / "setup")
            while time.perf_counter() - start < SETUP_SHARE * session_seconds:
                timed_setup(work / "setup")

        inp = timed_setup(work / "inputs")
        checker = Checker(workload, inp)
        ops = session(workload, inp, work / "out")
        rounds = Rounds()
        try:
            if args.trace:
                metrics = traced(rounds, ops, checker, args.seconds, work / "out", work)
            else:
                metrics = measured(rounds, ops, checker, args.seconds, work / "out", launcher, set_up)
                metrics["setup_s"] = (statistics.median(setup_times), "s")
            correct = True
        except reference.CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            metrics, correct = {}, False

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:45s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
