"""Command-line interface.

Parsing only: each command's report is built by its builder in `report`,
which also rejects bad flag combinations with ValueError.

Exit codes: 0 = analysis ran and certified (PASS), 1 = analysis ran but a
certification failed (FAIL), 2 = usage or parse error, or a file that
cannot be read or written.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Optional

from .errors import ProtocolError
from .report import (
    ReportDocument,
    build_check_document,
    build_run_document,
    from_verify,
    render_text,
)
from .scenarios import DEFAULT_TOLERANCE, MAX_SHOTS, MAX_TOLERANCE
from .verify import run_all_checks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relfacts",
        description=(
            "Simulate sequential agent measurements on a shared three-qubit "
            "state and certify the four record-product constraints that "
            "admit no joint +/-1 assignment."))
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run a measurement flow and certify its constraints")
    run_p.add_argument(
        "scenario", choices=("lmz", "cdr"),
        help="lmz: single-experiment flow with lifted observables; "
             "cdr: reversal flow, one experiment per constraint")
    run_p.add_argument(
        "--experiment", choices=("1", "2", "3", "4", "all"),
        help="which reversal experiment to run (cdr only)")
    run_p.add_argument(
        "--shots", type=int, default=0,
        help="sampled repetitions per target, at most "
             f"{MAX_SHOTS:g} (0 = exact certification only)")
    run_p.add_argument("--seed", type=int, default=0, help="master random seed")
    run_p.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="certification tolerance on exact expectations, "
             f"0 < T < {MAX_TOLERANCE:g} (default %(default)s)")
    _add_output_flags(run_p)

    chk = sub.add_parser(
        "check-assignments",
        help="parity analysis: do the +/-1 product constraints admit a "
             "joint assignment?")
    chk.add_argument(
        "--constraints", type=Path,
        help="constraint file: lines like 'B1*A2*A3 = -1', '#' comments")
    chk.add_argument(
        "--builtin", choices=("ghz",),
        help="analyze a built-in constraint system")
    _add_output_flags(chk)

    ver = sub.add_parser("verify", help="run every acceptance check")
    ver.add_argument(
        "--all", action="store_true", dest="all_checks",
        help="run the full sweep (default behavior)")
    _add_output_flags(ver)
    return parser


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format", choices=("json", "text"), default="text", dest="fmt",
        help="report format (default text)")
    sub.add_argument(
        "--out", type=Path, default=None,
        help="write the report to this path instead of stdout")


def _emit(doc: ReportDocument, fmt: str, out: Optional[Path]) -> int:
    rendered = doc.to_json() if fmt == "json" else render_text(doc)
    if out is not None:
        try:
            out.write_text(rendered)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if doc.verdict == "PASS" else 1


def _cmd_run(args) -> int:
    doc = build_run_document(
        args.scenario, args.experiment, args.shots, args.seed, args.tolerance)[1]
    return _emit(doc, args.fmt, args.out)


def _cmd_check(args) -> int:
    doc = build_check_document(args.builtin, args.constraints)[1]
    return _emit(doc, args.fmt, args.out)


def _cmd_verify(args) -> int:
    rows, elapsed, timings = run_all_checks()
    print(f"acceptance sweep took {elapsed:.2f} s", file=sys.stderr)
    claims = {f"check {row['id']:02d}": f"  {row['claim']}" for row in rows}
    for label, seconds in timings:
        print(f"  {label}: {seconds:.3f} s{claims.get(label, '')}",
              file=sys.stderr)
    doc = from_verify("verify --all", rows)
    return _emit(doc, args.fmt, args.out)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[list] = None) -> int:
    """Run one command and return its exit code.

    The parser is built on the first call and reused for every later call in
    the process, so in-process callers do not rebuild the argparse tree per
    command. Reuse is safe: parse_args makes a new Namespace on each call and
    never writes defaults back into the parser, and a rejected argv raises
    SystemExit(2) through parser.error without changing parser state.
    build_parser() still returns a new parser on every call.
    """
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check-assignments":
            return _cmd_check(args)
        return _cmd_verify(args)
    except ValueError as exc:  # ConstraintParseError and ResourceError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
