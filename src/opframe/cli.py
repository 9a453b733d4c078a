"""Command-line scenario runner.

    opframe run <file> [--out <path>] [--seed <u64>]
    opframe reproduce <name> [--out <path>] [--seed <u64>]
    opframe list

Exit codes: 0 all checks pass, 1 a check failed, 2 parse/validation error,
3 internal error.  The report is always written when execution reaches the
checks; trajectories are additionally exported as CSV next to the report.
The environment variable OPFRAME_TOL_OVERRIDE (a finite float > 0) scales
every check tolerance and is ignored when unset.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .errors import InvalidScenario
from .scenarios import (
    CHECKS,
    CONSTRUCTIONS,
    OPERATORS,
    REPRODUCE_NAMES,
    ScenarioReport,
    load_bundled,
    run_scenario,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_INTERNAL = 3


def _tol_scale() -> float:
    raw = os.environ.get("OPFRAME_TOL_OVERRIDE")
    if raw is None:
        return 1.0
    try:
        scale = float(raw)
    except ValueError:
        scale = math.nan  # rejected below with every other invalid value
    if not (math.isfinite(scale) and scale > 0.0):
        raise InvalidScenario(
            f"OPFRAME_TOL_OVERRIDE must be a finite float > 0, got {raw!r}"
        )
    return scale


#: the largest seed, 2**64 - 1, as the scenario schema bounds it
_SEED_MAX = 2**64 - 1


def _seed(raw: str) -> int:
    """argparse type of --seed: an integer in [0, _SEED_MAX]."""
    if not raw.isdecimal() or int(raw) > _SEED_MAX:
        raise argparse.ArgumentTypeError(f"'seed' must be an integer in [0, {_SEED_MAX}], "
                                         f"got {raw!r}")
    return int(raw)


def _write_report(report: ScenarioReport, out: Path):
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report.to_json() + "\n")
    for name, rows in report.trajectories.items():
        csv_path = out.with_name(f"{out.stem}_{name}.csv")
        lines = ["N,value"] + [f"{n},{v!r}" for n, v in rows]
        csv_path.write_text("\n".join(lines) + "\n")


def _print_summary(report: ScenarioReport):
    sym = {"le": "<=", "ge": ">=", "lt": "<"}
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(
            f"[{status}] {report.scenario}: {c.name} = {c.value:.6e} "
            f"(required {sym[c.direction]} {c.tolerance:.6e})"
        )


def _execute(data: dict, out: Path, seed) -> int:
    report = run_scenario(data, seed=seed, tol_scale=_tol_scale())
    _write_report(report, out)
    _print_summary(report)
    print(f"report written to {out}")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="opframe", description="Run frame-inequality scenarios and emit reports."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("file", type=Path)
    p_run.add_argument("--out", type=Path, default=None)
    p_run.add_argument("--seed", type=_seed, default=None)

    p_rep = sub.add_parser("reproduce", help="run a bundled canonical example")
    p_rep.add_argument("name")
    p_rep.add_argument("--out", type=Path, default=None)
    p_rep.add_argument("--seed", type=_seed, default=None)

    sub.add_parser("list", help="list examples, constructions, operators, checks")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage already
        return EXIT_PARSE_ERROR if exc.code else EXIT_OK

    try:
        if args.command == "list":
            print("examples:      " + ", ".join(REPRODUCE_NAMES))
            print("constructions: " + ", ".join(sorted(CONSTRUCTIONS)))
            print("operators:     " + ", ".join(sorted(OPERATORS)))
            print("checks:        " + ", ".join(sorted(CHECKS)))
            return EXIT_OK
        if args.command == "run":
            try:
                data = json.loads(args.file.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                print(f"error: cannot parse scenario file: {exc}", file=sys.stderr)
                return EXIT_PARSE_ERROR
            if not isinstance(data, dict):
                print("error: scenario file must hold a JSON object, got "
                      f"{type(data).__name__}", file=sys.stderr)
                return EXIT_PARSE_ERROR
            out = args.out or Path(f"{data.get('name', args.file.stem)}.report.json")
            return _execute(data, out, args.seed)
        # reproduce
        try:
            data = load_bundled(args.name)
        except InvalidScenario as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
        out = args.out or Path(f"{data['name']}.report.json")
        return _execute(data, out, args.seed)
    except InvalidScenario as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary, OpframeError included
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
