"""Command-line driver: check, run, diff and fuzz over `.lh` files.

Exit codes of `run`: 0 value, 1 blame, 3 stuck, 4 budget exceeded, 5 a term
nested too deeply to evaluate or print (Python's recursion limit).  `diff`
and `fuzz` exit 0 when every check passes and 1 when one fails.  Every
command exits 2 on an input error: a program or --axioms file that cannot be
read, parsed or typed (a program nested too deeply for the recursive parser
or typechecker included), an unwritable --out file, or an option value out
of range.  A standard output closed by its reader (as by `| head`) ends the
command quietly with exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Optional

from .harness import diff_modes, outcome_dict, run_fuzz
from .metering import Meter, series_json
from .semantics import (
    CHOOSE_POLICIES,
    DEFAULT_ORACLE,
    ImplicationOracle,
    Machine,
    OutcomeKind,
    axiom_oracle,
)
from .surface import ParseError, parse, parse_type, print_term, print_type
from .syntax import Mode, Refinement, Term, Type
from .typecheck import TypeCheckError, check_source

EXIT_VALUE = 0
EXIT_BLAME = 1
EXIT_INPUT_ERROR = 2
EXIT_STUCK = 3
EXIT_BUDGET = 4
EXIT_TOO_DEEP = 5


class InputError(Exception):
    """Command-line input (a program or axioms file) that cannot be read or has the wrong shape."""


def _non_negative(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _mode(text: str) -> Mode:
    try:
        return Mode.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _load_oracle(path: Optional[str]) -> ImplicationOracle:
    """The oracle of an --axioms file, or alpha-equality without one."""

    if path is None:
        return DEFAULT_ORACLE
    try:
        with open(path) as fh:
            raw_pairs = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read axioms {path}: {exc}") from exc
    if not isinstance(raw_pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(t, str) for t in p) for p in raw_pairs
    ):
        raise InputError(f"axioms {path}: expected a JSON list of [type, type] string pairs")
    pairs = []
    for lhs, rhs in raw_pairs:
        try:
            t1, t2 = parse_type(lhs), parse_type(rhs)
        except (ParseError, RecursionError) as exc:  # the parser recurses on nesting
            raise InputError(f"axioms {path}: {exc}") from exc
        if not (isinstance(t1, Refinement) and isinstance(t2, Refinement)):
            raise InputError(f"axioms {path}: a pair must relate two refinement types")
        pairs.append((t1, t2))
    return axiom_oracle(pairs)


def _read_program(path: str) -> tuple[Term, Type]:
    """The program in path, typed under the source discipline, and its type."""

    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        term = parse(text)
        return term, check_source(term)
    except RecursionError as exc:
        raise InputError(f"{path}: program nested too deeply ({exc})") from exc


_INPUT_ERRORS = (InputError, ParseError, TypeCheckError)


# each outcome kind's exit code and the line `lh run` prints for it
_OUTCOMES = {
    OutcomeKind.VALUE: (EXIT_VALUE, lambda out: print_term(out.term)),
    OutcomeKind.BLAME: (EXIT_BLAME, lambda out: f"blame {out.label}"),
    OutcomeKind.STUCK: (EXIT_STUCK, lambda out: f"stuck: {out.stuck_reason}"),
    OutcomeKind.BUDGET: (EXIT_BUDGET, lambda out: f"budget exceeded after {out.steps} steps"),
}


def cmd_check(args) -> int:
    try:
        _, ty = _read_program(args.file)
    except _INPUT_ERRORS as exc:
        if args.json:
            print(json.dumps({"ok": False, "error": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.json:
        print(json.dumps({"ok": True, "type": print_type(ty)}))
    else:
        print(print_type(ty))
    return EXIT_VALUE


def cmd_run(args) -> int:
    try:
        term, _ = _read_program(args.file)
        mach = Machine(args.mode, oracle=_load_oracle(args.axioms), choose_policy=args.choose)
        meter = Meter(series=args.json) if args.space else None  # only --json prints the series
        out = mach.eval(term, args.budget, trace=args.trace, observer=meter)
        if args.json:
            payload = {
                "mode": args.mode.value,
                "budget": args.budget,
                "result": outcome_dict(out),
            }
            if args.trace:
                payload["trace"] = [
                    {"step": i, "rule": s.rule, "term": print_term(s.term)} for i, s in enumerate(out.trace, 1)
                ]
            if meter is not None:
                payload["space"] = {"max": meter.max.as_dict(), "series": series_json(meter.series)}
            print(json.dumps(payload, indent=2))
        else:
            if args.trace:
                for i, s in enumerate(out.trace, 1):
                    print(f"{i:6d} {s.rule}")
            if meter is not None:
                print("max " + " ".join(f"{k}={v}" for k, v in meter.max.as_dict().items()))
            print(_OUTCOMES[out.kind][1](out))
    except (*_INPUT_ERRORS, RecursionError) as exc:
        # _read_program reports a program too deep to parse or type as an input error
        deep = isinstance(exc, RecursionError)
        message = f"term nested too deeply ({exc})" if deep else str(exc)
        if args.json:
            print(json.dumps({"error": message}))
        else:
            print(f"error: {message}", file=sys.stderr)
        return EXIT_TOO_DEEP if deep else EXIT_INPUT_ERROR
    return _OUTCOMES[out.kind][0]


def cmd_diff(args) -> int:
    try:
        term, _ = _read_program(args.file)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    report = diff_modes(term, args.budget)
    print(json.dumps(report.as_dict(), indent=2))
    return 1 if report.failed else 0


def cmd_fuzz(args) -> int:
    if not 1 <= args.min_size <= args.size:
        print(f"error: need 1 <= --min-size <= --size, got {args.min_size} and {args.size}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        # opened before the fuzz runs, so that an unwritable path costs no run
        report_file = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    with report_file as fh:
        report = run_fuzz(
            count=args.count,
            min_size=args.min_size,
            max_size=args.size,
            seed=args.seed,
            budget=args.budget,
            check_traces=args.check_traces,
        )
        print(report.to_json(), file=fh)
    if args.out:
        print(f"ok={report.ok} failures={len(report.failures)} report={args.out}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="lh", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="typecheck a source program in all four modes")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="evaluate a program under one mode")
    p.add_argument("file")
    p.add_argument("--mode", type=_mode, default="eidetic", help="classic|forgetful|heedful|eidetic (or c|f|h|e)")
    p.add_argument("--budget", type=_non_negative, default=100_000)
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--space", action="store_true")
    p.add_argument(
        "--choose",
        default="lex-min",
        choices=sorted(CHOOSE_POLICIES),
        help="the order in which heedful checks a type set: first to last (lex-min) or last to first (lex-max) "
        "in canonical alpha-normal order",
    )
    p.add_argument("--axioms", help="JSON file of [source-type, implied-type] pairs (default oracle: alpha-equality)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("diff", help="compare all four modes on one program")
    p.add_argument("file")
    p.add_argument("--budget", type=_non_negative, default=10_000)
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("fuzz", help="differential-test generated programs")
    p.add_argument("--count", type=_non_negative, default=1000)
    p.add_argument("--size", type=int, default=30, help="maximum program size")
    p.add_argument("--min-size", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_non_negative, default=10_000)
    p.add_argument("--check-traces", action="store_true")
    p.add_argument("--out", help="write the JSON report to a file")
    p.set_defaults(fn=cmd_fuzz)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
    except BrokenPipeError:
        # the reader left: send what Python still flushes at exit to
        # /dev/null, and exit 1 as Python does on an uncaught EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
