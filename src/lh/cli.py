"""Command-line driver: check, run, diff and fuzz over `.lh` files.

Exit codes: 0 value, 1 blame, 2 the input could not be read, parsed or typed
(a program file, or the --axioms file and its --oracle) or a number option is
out of range, 3 stuck, 4 budget exceeded.  A standard output closed by its reader (as by `| head`) ends the
command quietly with exit code 1.  The LH_BUDGET environment variable
overrides the default step budget when --budget is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .harness import diff_modes, run_fuzz
from .metering import Meter, series_json
from .semantics import (
    CHOOSE_POLICIES,
    DEFAULT_ORACLE,
    ImplicationOracle,
    Machine,
    Outcome,
    OutcomeKind,
    axiom_oracle,
)
from .surface import ParseError, parse, parse_type, print_term, print_type
from .syntax import Mode, Refinement, Term
from .typecheck import TypeCheckError, check_source

DEFAULT_BUDGET = 100_000

EXIT_VALUE = 0
EXIT_BLAME = 1
EXIT_INPUT_ERROR = 2
EXIT_STUCK = 3
EXIT_BUDGET = 4


class InputError(Exception):
    """Command-line input (a program, axioms or oracle) that cannot be read or has the wrong shape."""


@dataclass
class RunConfig:
    mode: Mode = Mode.EIDETIC
    budget: int = DEFAULT_BUDGET
    trace: bool = False
    space: bool = False
    json: bool = False
    choose_policy: str = "lex-min"
    oracle: str = "alpha-eq"
    axioms: Optional[str] = None


def _non_negative(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _load_oracle(config: RunConfig) -> ImplicationOracle:
    if config.oracle == "alpha-eq":
        return DEFAULT_ORACLE
    if config.oracle != "axioms":
        raise InputError(f"unknown oracle {config.oracle!r}")
    if not config.axioms:
        raise InputError("--oracle axioms requires --axioms FILE")
    try:
        with open(config.axioms) as fh:
            raw_pairs = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read axioms {config.axioms}: {exc}") from exc
    if not isinstance(raw_pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(t, str) for t in p) for p in raw_pairs
    ):
        raise InputError(f"axioms {config.axioms}: expected a JSON list of [type, type] string pairs")
    pairs = []
    for lhs, rhs in raw_pairs:
        try:
            t1, t2 = parse_type(lhs), parse_type(rhs)
        except ParseError as exc:
            raise InputError(f"axioms {config.axioms}: {exc}") from exc
        if not (isinstance(t1, Refinement) and isinstance(t2, Refinement)):
            raise InputError("axioms must relate refinement types")
        pairs.append((t1, t2))
    return axiom_oracle(pairs)


def _machine(config: RunConfig) -> Machine:
    return Machine(config.mode, oracle=_load_oracle(config), choose_policy=config.choose_policy)


def _read_program(path: str) -> Term:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse(text)


_INPUT_ERRORS = (InputError, ParseError, TypeCheckError)


def _outcome_dict(out: Outcome) -> dict:
    return {
        "kind": out.kind.name.lower(),
        "value": print_term(out.term) if out.term is not None else None,
        "label": out.label,
        "steps": out.steps,
        "stuck_reason": out.stuck_reason,
    }


def _outcome_exit(out: Outcome) -> int:
    return {
        OutcomeKind.VALUE: EXIT_VALUE,
        OutcomeKind.BLAME: EXIT_BLAME,
        OutcomeKind.STUCK: EXIT_STUCK,
        OutcomeKind.BUDGET: EXIT_BUDGET,
    }[out.kind]


def _print_outcome(out: Outcome) -> None:
    if out.kind is OutcomeKind.VALUE:
        print(print_term(out.term))
    elif out.kind is OutcomeKind.BLAME:
        print(f"blame {out.label}")
    elif out.kind is OutcomeKind.STUCK:
        print(f"stuck: {out.stuck_reason}")
    else:
        print(f"budget exceeded after {out.steps} steps")


def cmd_check(args) -> int:
    try:
        ty = check_source(_read_program(args.file))
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


def run_file(path: str, config: RunConfig, runtime_forms: bool = False) -> int:
    try:
        term = _read_program(path)
        if not runtime_forms:
            check_source(term)
        mach = _machine(config)
    except _INPUT_ERRORS as exc:
        if config.json:
            print(json.dumps({"error": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if config.space:
        meter = Meter(series=True)
        out = mach.eval(term, config.budget, trace=config.trace, observer=meter)
        stats, series = meter.max, meter.series
    else:
        out = mach.eval(term, config.budget, trace=config.trace)
        stats, series = None, None

    if config.json:
        payload = {
            "mode": config.mode.value,
            "budget": config.budget,
            "result": _outcome_dict(out),
        }
        if config.trace and out.trace is not None:
            payload["trace"] = [
                {"step": s.index, "rule": s.rule, "term": print_term(s.term)} for s in out.trace
            ]
        if stats is not None:
            payload["space"] = {"max": stats.as_dict(), "series": series_json(series)}
        print(json.dumps(payload, indent=2))
    else:
        if config.trace and out.trace is not None:
            for s in out.trace:
                print(f"{s.index:6d} {s.rule}")
        if stats is not None:
            print("max " + " ".join(f"{k}={v}" for k, v in stats.as_dict().items()))
        _print_outcome(out)
    return _outcome_exit(out)


def cmd_run(args) -> int:
    config = RunConfig(
        mode=Mode.parse(args.mode),
        budget=args.budget,
        trace=args.trace,
        space=args.space,
        json=args.json,
        choose_policy=args.choose,
        oracle=args.oracle,
        axioms=args.axioms,
    )
    return run_file(args.file, config, runtime_forms=args.runtime_forms)


def cmd_diff(args) -> int:
    try:
        term = _read_program(args.file)
        check_source(term)
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
    report = run_fuzz(
        count=args.count,
        min_size=args.min_size,
        max_size=args.size,
        seed=args.seed,
        budget=args.budget,
        check_traces=args.check_traces,
    )
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"ok={report.ok} failures={len(report.failures)} report={args.out}")
    else:
        print(text)
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
    p.add_argument("--mode", default="eidetic", help="classic|forgetful|heedful|eidetic (or c|f|h|e)")
    # argparse converts a string default only for the subcommand in use
    p.add_argument("--budget", type=_non_negative, default=os.environ.get("LH_BUDGET") or DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")
    p.add_argument("--runtime-forms", action="store_true", help="skip the source-program check")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--space", action="store_true")
    p.add_argument("--choose", default="lex-min", choices=sorted(CHOOSE_POLICIES))
    p.add_argument("--oracle", default="alpha-eq", choices=["alpha-eq", "axioms"])
    p.add_argument("--axioms", help="JSON file of [source-type, implied-type] pairs")
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
