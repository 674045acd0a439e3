"""Command-line interface: validate bundles, compute incidence, diff runs.

Exit codes: 0 on success, 1 when validation, computation, or convergence
fails, 2 on usage errors.  All outputs are deterministic: rerunning the same
command on the same bundle reproduces every output file byte for byte, with
the BLAS libraries on one thread unless the environment sets their count.
``validate`` and ``compute`` keep the parsed tables of each bundle in
:func:`cache_directory`, and ``compute`` the condition number of each share
system and the truncated loop's jump-ahead blocks, each as one checksummed entry
(see :func:`taxcascade.accounts.write_entry`); a rerun on unchanged input reads
them from there, and parses, solves or builds again where an entry is missing or
damaged.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .tables import (
    BLAS_THREADS,
    COMPONENT_ORDER,
    DEFAULT_REPORT_COMPONENTS,
    DISPLAY_THRESHOLD,
    diff_tables,
    read_result_json,
    write_json,
    write_rows,
)

if TYPE_CHECKING:
    import numpy as np

    from .accounts import IOAccounts

#: What validate and compute call, by the module that defines it.  These modules
#: load numpy, so :func:`_load_pipeline` binds the names of each as globals of this
#: module on first use: ``diff`` runs without them, and ``validate`` with
#: ``accounts`` alone.  The commands call each name through these globals:
#: ``bench/run.py --trace 1`` wraps every name it lists (``save_bundle`` too,
#: which nothing here calls) by setting it on this module.
_PIPELINE = {
    "accounts": (
        "BundleError", "load_bundle", "not_a_file", "read_table", "save_bundle", "validate",
    ),
    "engine": (
        "SingularSystemError", "apply_scenario", "build_system", "propagate_closed_form",
        "propagate_truncated",
    ),
    "margins": ("redistribute_margins",),
    "rates": ("effective_rates",),
    "reporting": (
        "audit_record", "bundle_digests", "result_record", "write_final_incidence_table",
        "write_first_stage_table", "write_margin_audit", "write_rates_table",
        "write_result_json", "write_system_digest",
    ),
}


def _load_pipeline(*modules: str) -> None:
    """Bind the :data:`_PIPELINE` names of ``modules`` (all of them by default) here,
    keeping any already set from outside."""
    for module in modules or _PIPELINE:
        path = f"{__package__}.{module}"
        # __import__, unlike importlib.import_module, shows in -X importtime
        __import__(path)
        for name in _PIPELINE[module]:
            globals().setdefault(name, getattr(sys.modules[path], name))


def __getattr__(name: str):
    for module, names in _PIPELINE.items():
        if name in names:
            _load_pipeline(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Environment variable giving the default output directory.
OUTPUT_DIR_ENV = "TAXCASCADE_OUT"


def _default_out() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, "taxcascade-out")


def cache_directory() -> Path | None:
    """Where ``validate`` and ``compute`` keep parsed tables (see
    :func:`taxcascade.accounts.load_bundle`), and ``compute`` the closed form's
    condition numbers and the truncated loop's blocks (see
    :func:`taxcascade.engine.propagate_closed_form` and
    :func:`~taxcascade.engine.propagate_truncated`):
    ``$XDG_CACHE_HOME/taxcascade``, or ``~/.cache/taxcascade``; None, and no
    cache, without an absolute home."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative, which XDG ignores
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base, "taxcascade") if os.path.isabs(base) else None


def _components_arg(text: str) -> tuple[str, ...]:
    chosen = tuple(name.strip().lower() for name in text.split(","))
    for name in chosen:
        if name not in COMPONENT_ORDER:
            raise argparse.ArgumentTypeError(
                f"unknown component {name!r}; choose from {', '.join(COMPONENT_ORDER)}"
            )
    return chosen


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxcascade",
        description="Final incidence of indirect taxes from input-output accounts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a bundle and write a validation report")
    p.add_argument("--manifest", required=True, help="path to the bundle manifest")
    p.add_argument("--out", default=_default_out(), help="output directory")

    p = sub.add_parser("compute", help="run the full incidence pipeline")
    p.add_argument("--manifest", required=True, help="path to the bundle manifest")
    p.add_argument(
        "--method",
        choices=("closed-form", "truncated"),
        default="closed-form",
        help="propagation method (default: closed-form)",
    )
    p.add_argument("--tol", type=float, help="truncation tolerance (truncated method)")
    p.add_argument(
        "--maxstages", type=int, help="stage limit (truncated method)"
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=DISPLAY_THRESHOLD,
        help="mask rates when expenditure is at or below this (default: %(default)s)",
    )
    p.add_argument(
        "--scenario",
        help="CSV of per-activity tax scale factors (code,scale); omitted codes keep 1.0",
    )
    p.add_argument(
        "--skip-margins",
        action="store_true",
        help="propagate without redistributing margin shares",
    )
    p.add_argument(
        "--allow-residual",
        action="store_true",
        help="exit 0 even if the truncated series did not converge",
    )
    p.add_argument(
        "--components",
        type=_components_arg,
        default=DEFAULT_REPORT_COMPONENTS,
        help="comma-separated component columns to show "
        "(default: exports,government,households,gfcf)",
    )
    p.add_argument("--out", default=_default_out(), help="output directory")

    p = sub.add_parser("diff", help="compare two compute runs")
    p.add_argument("--baseline", required=True, help="output directory of the baseline run")
    p.add_argument("--scenario", required=True, help="output directory of the scenario run")
    p.add_argument("--out", default=_default_out(), help="output directory")

    return parser


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    manifest = Path(args.manifest)
    if not manifest.is_file():
        print(f"usage error: manifest not found: {manifest}", file=sys.stderr)
        return 2
    _load_pipeline("accounts")  # margins arrives through accounts' own check
    try:
        report = validate(load_bundle(manifest, check=False, cache=cache_directory()))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = write_json(report.to_records(), out / "validation_report.json")
    except (BundleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for check in report.checks:
        status = "ok" if check.passed else "FAIL"
        print(f"{check.name}: {status}" + ("" if check.passed else f" ({check.count} failure(s))"))
        for failure in check.failures:
            print(f"  {failure}")
    print(f"wrote {path}")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def _read_scenario(path: Path, accounts: IOAccounts) -> tuple[np.ndarray, str]:
    """Scale factors by activity from a ``code,scale`` file, read and placed as bundle
    tables are, and the sha256 of the bytes read; an activity the file omits keeps 1.0."""
    import numpy as np

    if not path.is_file():
        raise ValueError(f"--scenario: {not_a_file(path)}: {path}")

    def place(header: list[str]):
        if [name.lower() for name in header] != ["code", "scale"]:
            raise ValueError(f"{path}: expected the header code,scale, got {header}")
        return [0], accounts.codes, np.ones((accounts.n, 1))

    _, scale, digest = read_table(path, ",", place)
    return scale[:, 0], digest


def cmd_compute(args: argparse.Namespace) -> int:
    manifest = Path(args.manifest)
    if not manifest.is_file():
        print(f"usage error: manifest not found: {manifest}", file=sys.stderr)
        return 2
    _load_pipeline()
    out = Path(args.out)
    cache = cache_directory()
    try:
        accounts = load_bundle(manifest, cache=cache)
        bundle = bundle_digests(accounts)
        print(f"loaded {accounts.n} activities from {manifest}")

        scenario = None
        if args.scenario:
            scale, digest = _read_scenario(Path(args.scenario), accounts)
            accounts = apply_scenario(accounts, scale)
            scenario = {"path": args.scenario, "sha256": digest}
            print(f"applied scenario scales from {args.scenario}")

        adjustment = None
        if args.skip_margins:
            engine_input = accounts
        else:
            engine_input, adjustment = redistribute_margins(accounts)
            print(
                f"margins: moved supply {adjustment.total_supply_moved:.2f}, "
                f"tax {adjustment.total_tax_moved:.2f}"
            )
        # Nothing reads the input accounts past the margin step; dropped here,
        # they are not held beside the coefficient system and the solve.
        del accounts

        system = build_system(engine_input, allow_unredistributed_margins=args.skip_margins)
        # The rates read only the final demand: copied, the full-size tables go before the solve.
        expenditure = engine_input.finaldemand.copy(order="K")
        del engine_input
        if args.method == "truncated":
            result = propagate_truncated(
                system, tol=args.tol, maxstages=args.maxstages, cache=cache
            )
        else:
            result = propagate_closed_form(system, cache=cache)
        report = effective_rates(result, expenditure, threshold=args.threshold)

        # Every check has passed; only now does anything reach --out.
        out.mkdir(parents=True, exist_ok=True)
        written = []
        if adjustment is not None:
            written.append(write_margin_audit(adjustment, out / "margin_adjustment.csv"))
        written.append(write_system_digest(system, out / "system_digest.json"))
        for stem, write, data in (
            ("first_stage", write_first_stage_table, result),
            ("final_incidence", write_final_incidence_table, result),
            ("effective_rates", write_rates_table, report),
        ):
            written.append(write(data, out / f"{stem}.csv", components=args.components))

        record = result_record(result, report, components=args.components)
        written.append(write_result_json(record, out / "result.json"))
        outputs = [path.relative_to(out).as_posix() for path in written] + ["audit.json"]
        audit = audit_record(
            result, report, adjustment, bundle=bundle,
            manifest=str(args.manifest), scenario=scenario, tol=args.tol,
            maxstages=args.maxstages, threshold=args.threshold, outputs=outputs,
        )
        write_json(audit, out / "audit.json")

        print(
            f"method {result.method}: final incidence {result.grand_total:.2f} "
            f"vs statutory {result.statutory_total:.2f} "
            f"(relative residual {result.conservation_relative:.2e})"
        )
        if not result.converged:
            print(
                f"warning: series did not converge in {result.stages} stages; "
                f"undelivered tax {result.series_residual:.6f}",
                file=sys.stderr,
            )
        print(f"wrote {len(outputs)} files to {out}")
        if not result.converged and not args.allow_residual:
            return 1
        return 0
    except (SingularSystemError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------


def cmd_diff(args: argparse.Namespace) -> int:
    runs = [Path(args.baseline), Path(args.scenario)]
    for directory in runs:
        if not directory.is_dir():
            print(f"usage error: not a directory: {directory}", file=sys.stderr)
            return 2
    try:
        tables = diff_tables(*(read_result_json(run / "result.json") for run in runs))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for stem, (header, rows) in tables.items():
            print(f"wrote {write_rows(out / f'{stem}_diff.csv', header, rows)}")
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:  # read when numpy loads its BLAS
        for name in BLAS_THREADS:
            os.environ.setdefault(name, "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compute":
        given = [args.tol is not None, args.maxstages is not None]
        if args.method == "truncated" and not all(given):
            parser.error("--method truncated requires --tol and --maxstages")
        if args.method != "truncated" and any(given + [args.allow_residual]):
            parser.error("--tol, --maxstages and --allow-residual require --method truncated")
    handlers = {"validate": cmd_validate, "compute": cmd_compute, "diff": cmd_diff}
    return handlers[args.command](args)

