"""Command-line front end.

Subcommands:

* ``run``     execute a search loop from a JSON config file
* ``replay``  re-run the shipped (or a given) trajectory fixture
* ``report``  render the trajectory/archive/slice report for a run
* ``pareto``  print the non-dominated archive of a run

``report`` and ``pareto`` only read the run directory.

Exit codes: 0 success, 2 config problems, 3 data problems.  Set
``MIXSEARCH_LOG`` (DEBUG/INFO/WARNING/ERROR) to control log verbosity.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, MixSearchError
from .fixtures import default_fixture_path, load_replay_fixture
from .orchestrator import LoopConfig, run
from .profiles import METRIC_KEYS
from .report import RunDirectory, report

log = logging.getLogger(__name__)


def _configure_logging() -> None:
    level_name = os.environ.get("MIXSEARCH_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixsearch",
        description="closed-loop data-mixture search over a fixed token budget",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a search loop from a config file")
    run_p.add_argument("--config", required=True, type=Path, help="JSON config file")
    run_p.add_argument("--out", required=True, type=Path, help="run output directory")
    run_p.add_argument("--rounds", type=int, default=None, help="override round count")
    run_p.add_argument("--seed", type=int, default=None, help="override master seed")

    replay_p = sub.add_parser("replay", help="re-run a recorded trajectory fixture")
    replay_p.add_argument(
        "--fixture", type=Path, default=None, help="fixture JSONL (default: shipped)"
    )
    replay_p.add_argument("--out", type=Path, default=None, help="run output directory")
    replay_p.add_argument(
        "--validate-only",
        action="store_true",
        help="check the fixture's integrity and exit",
    )

    report_p = sub.add_parser("report", help="render the report for a finished run")
    report_p.add_argument(
        "--in", "--run", dest="run_dir", required=True, type=Path, help="run directory"
    )
    report_p.add_argument("--format", choices=("text", "csv"), default="text")

    pareto_p = sub.add_parser("pareto", help="print a run's non-dominated archive")
    pareto_p.add_argument(
        "--in", "--run", dest="run_dir", required=True, type=Path, help="run directory"
    )
    pareto_p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    return parser


def _run_and_print(config: LoopConfig, out: Path, what: str) -> int:
    run_dir = run(config, out)
    print(f"{what} complete: {run_dir.path}")
    print((run_dir.path / "report.txt").read_text("utf-8"), end="")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = LoopConfig.from_file(args.config)
    overrides = {}
    if args.rounds is not None:
        overrides["rounds"] = args.rounds
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if overrides:
        config = replace(config, **overrides)
    return _run_and_print(config, args.out, "run")


def _cmd_replay(args: argparse.Namespace) -> int:
    fixture_path = args.fixture or default_fixture_path()
    if args.validate_only:
        fixture = load_replay_fixture(fixture_path)
        rows = 1 + len(fixture.rounds)  # the base row and one per round
        print(f"fixture ok: {rows} rows, frontier {{{', '.join(fixture.frontier)}}}")
        return 0
    if args.out is None:
        raise ConfigError("replay needs --out (or use --validate-only)")
    config = LoopConfig(
        backend_kind="replay",
        fixture_path=Path(os.path.abspath(fixture_path)),
    )
    return _run_and_print(config, args.out, "replay")


def _cmd_report(args: argparse.Namespace) -> int:
    name = "report.txt" if args.format == "text" else "trajectory.csv"
    print(report(RunDirectory(args.run_dir))[name], end="")
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    run_dir = RunDirectory(args.run_dir)
    frontier = run_dir.frontier()
    if args.json:
        payload = [
            {"label": label, "metric": metric.to_json()} for label, metric in frontier
        ]
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{'label':<12}" + "".join(f"{key:>9}" for key in METRIC_KEYS))
    for label, metric in frontier:
        print(f"{label:<12}" + "".join(f"{mean:>9.4f}" for mean in metric.as_tuple()))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "replay": _cmd_replay,
    "report": _cmd_report,
    "pareto": _cmd_pareto,
}


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except MixSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
