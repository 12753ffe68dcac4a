"""The three workloads and the operations they run.

Every workload runs the same five kinds of operation, each on its own input
set, and each kind feeds one throughput metric:

- `plain`: `Machine.eval`, as `lh run` does (`run_steps_per_s`)
- `space`: `eval_metered`, as `lh run --space` does (`space_steps_per_s`)
- `trace`: a traced `Machine.eval` that reads each step's rule, which is all
  `lh run --trace` prints (`trace_steps_per_s`)
- `check`: a traced eval, `trace_terms()` and `check_trace`
  (`checked_steps_per_s`)
- `front`: print, parse, `check_source` and `diff_modes` on one program,
  plus `gen_source` where the workload generates (`programs_per_s`)

Only the time spent inside `lh` calls counts. Each operation belongs to a
class: its kind plus what it runs on, which is a loop, a depth and a mode,
or for generated programs just the mode. A kind's throughput is the work of
one typical operation of each class, summed, over the time of the same
operations (see `Run.rates`). How many operations of each class fit in a
run then does not change the mix.

Every operation checks its result against a reference the benchmark
computes itself: a closed form for the loops, and the plain run of the same
program for the metered and traced runs.

Why these workloads:

- `tail-loop` is the paper's own case: deep evaluation contexts, where
  `semantics` and `metering` dominate and the space signature shows.
- `fuzz-diff` is `lh fuzz` plus the front end: many short programs, so
  per-call overhead in `surface`, `typecheck` and `harness` dominates and
  deep contexts never occur.
- `trace-check` is the trace-invariant acceptance criterion, where
  `check_trace` dominates, plus the value loop at n = 100, whose re-check
  cost grows with term depth.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import random
import statistics
import traceback
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import jsonschema

from lh import ALL_MODES, Mode, alpha_eq, check_source, cli, eval_metered, parse, print_term
from lh.harness import check_trace, diff_modes, gen_source
from lh.semantics import IsBlame, Machine, OutcomeKind, Stepped, machine
from lh.syntax import Const, Term

from loops import CHECK_DEPTH, DEPTHS, METER_DEPTHS, TRACE_DEPTHS, VARIANTS, make_loops
from spans import Tracer

PLAIN, SPACE, TRACE, CHECK, FRONT = "plain", "space", "trace", "check", "front"
PHASES = (PLAIN, SPACE, TRACE, CHECK, FRONT)
LOOP_BUDGET = 100_000  # the `lh run` default
FUZZ_BUDGET = 10_000  # the `lh fuzz` default

# Marks the end of the counted prefix: the operations whose counts must
# repeat exactly on a given seed. The run always completes it.
PREFIX_END = object()


@dataclass(frozen=True)
class Op:
    cls: Optional[tuple[str, str]]  # (kind, what it runs on); None for a gate
    fn: Callable[["Run"], None]
    varied: bool = False  # the class's operations run on different programs


class Run:
    """Work and time per operation class, counts over the counted prefix, and
    gates."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        # one [class, varied, work, [(start, seconds) of each lh call]] per operation
        self.samples: list[list] = []
        self._sample: Optional[list] = None
        self.layer_work: dict[tuple[str, object], int] = defaultdict(int)
        self.counts: dict[str, int] = {}
        self.counting = True
        self.attempted = 0
        self.failures: list[str] = []
        self.refs: dict[tuple[str, Mode], tuple] = {}

    def execute(self, op: Op) -> None:
        """Run one operation in a span of its own. An `lh` call that raises
        fails the operation, and the run goes on."""

        tracer = self.tracer
        tracer.op += 1
        span = tracer.begin("bench.op") if tracer.enabled else None
        self._sample = None if op.cls is None else [op.cls, op.varied, 0, []]
        if self._sample is not None:
            self.samples.append(self._sample)
        try:
            op.fn(self)
        except Exception:  # recorded as a failed operation
            self.gate(False, traceback.format_exc(limit=4))
        finally:
            if span is not None:
                tracer.end(span)

    def call(self, name: str, mode, fn: Callable, *args, **kwargs):
        tracer = self.tracer
        span = tracer.begin(name, mode) if tracer.enabled else None
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            if span is not None:
                tracer.end(span)
            if self._sample is not None:
                self._sample[3].append((t0, dt))

    def done(self, work: int) -> None:
        self._sample[2] += work

    def rates(self, scale: Callable[[float], float]) -> dict[str, float]:
        """Work per second of each kind, timings scaled by `scale(instant)`.

        A class that repeats one operation counts its median time, which a
        burst of contention does not move. A class of varied operations
        counts their mean work and mean time."""

        by_cls: dict[tuple, list] = defaultdict(list)
        varied = {}
        for cls, is_varied, work, calls in self.samples:
            varied[cls] = is_varied
            by_cls[cls].append((work, sum(dt * scale(t0 + dt / 2) for t0, dt in calls)))
        work, secs = defaultdict(float), defaultdict(float)
        for cls, ops in by_cls.items():
            typical = statistics.mean if varied[cls] else statistics.median
            work[cls[0]] += typical(w for w, _ in ops)
            secs[cls[0]] += typical(t for _, t in ops)
        return {kind: work[kind] / secs[kind] if secs[kind] else 0.0 for kind in PHASES}

    def count(self, key: str, n: int = 1) -> None:
        if self.counting:
            self.counts[key] = self.counts.get(key, 0) + n

    def note(self, key: str, value: int) -> None:
        if self.counting:
            self.counts[key] = value

    def gate(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Program:
    key: str
    term: Optional[Term]
    budget: int
    expected: Optional[Callable[[Mode], tuple[str, object]]] = None


def _summary(out) -> tuple:
    value = out.term.value if isinstance(out.term, Const) else None
    return (out.kind.value, out.label, value, out.steps)


def _as_expected(prog: Program, mode: Mode, summary: tuple) -> bool:
    kind, label, value, _ = summary
    if prog.expected is None:
        return kind != OutcomeKind.STUCK.value
    want_kind, want = prog.expected(mode)
    return kind == want_kind and (value if kind == "value" else label) == want


def _matches(run: Run, prog: Program, mode: Mode, summary: tuple) -> bool:
    ref = run.refs.get((prog.key, mode))
    return _as_expected(prog, mode, summary) and (ref is None or ref == summary)


# ---------------------------------------------------------------------------
# Operations


def op_plain(run: Run, prog: Program, mode: Mode) -> None:
    out = run.call("semantics.eval", mode, machine(mode).eval, prog.term, prog.budget)
    run.done(out.steps)
    run.layer_work["semantics.eval", mode] += out.steps
    run.count(f"semantics.eval.steps.{mode.value}", out.steps)
    summary = _summary(out)
    run.gate(_matches(run, prog, mode, summary), f"plain {prog.key} {mode.value}: {summary}")
    run.refs[prog.key, mode] = summary


def op_metered(run: Run, prog: Program, mode: Mode, peak_key: Optional[str] = None) -> None:
    out, peak, _ = run.call("metering.eval_metered", mode, eval_metered, mode, prog.term, prog.budget)
    run.done(out.steps)
    run.layer_work["metering.eval_metered", mode] += out.steps
    if peak_key is not None:
        run.note(peak_key, peak.pending)
    summary = _summary(out)
    run.gate(_matches(run, prog, mode, summary), f"metered {prog.key} {mode.value}: {summary}")


def op_traced(run: Run, prog: Program, mode: Mode) -> None:
    out = run.call("semantics.eval_traced", mode, machine(mode).eval, prog.term, prog.budget, trace=True)
    rules = [step.rule for step in out.trace]
    run.done(out.steps)
    run.layer_work["semantics.eval_traced", mode] += out.steps
    summary = _summary(out)
    ok = len(rules) == out.steps and _matches(run, prog, mode, summary)
    run.gate(ok, f"traced {prog.key} {mode.value}: {summary}")


def op_checked(run: Run, prog: Program, mode: Mode) -> None:
    out = run.call("semantics.eval_traced", mode, machine(mode).eval, prog.term, prog.budget, trace=True)
    summary = _summary(out)
    if out.kind is OutcomeKind.BUDGET:
        # as in the acceptance suite: a cut-off trace is not re-checked
        run.count("harness.check_trace.budget_skipped")
        run.gate(_matches(run, prog, mode, summary), f"checked {prog.key} {mode.value}: {summary}")
        return
    terms = run.call("semantics.trace_terms", mode, out.trace_terms)
    findings = run.call("harness.check_trace", mode, check_trace, mode, terms)
    run.done(out.steps)
    run.layer_work["semantics.eval_traced", mode] += out.steps
    run.layer_work["harness.check_trace", mode] += len(terms)
    run.count("harness.check_trace.terms", len(terms))
    ok = not findings and _matches(run, prog, mode, summary)
    run.gate(ok, f"checked {prog.key} {mode.value}: {summary} {findings[:3]}")


def _parse(run: Run, text: str) -> Term:
    run.layer_work["surface.parse", None] += len(text)
    return run.call("surface.parse", None, parse, text)


def op_front(run: Run, prog: Program, gen: Optional[tuple[int, int]] = None) -> None:
    """One program through the front end and `diff_modes`; with `gen`
    (seed, size), generate it first, as `lh fuzz` does."""

    if gen is not None:
        prog.term = run.call("harness.gen_source", None, gen_source, *gen)
    text = run.call("surface.print_term", None, print_term, prog.term)
    back = _parse(run, text)
    run.call("typecheck.check_source", None, check_source, back)
    report = run.call("harness.diff_modes", None, diff_modes, back, FUZZ_BUDGET)
    run.done(1)
    statuses = {v.status for v in (report.forgetful_ok, report.heedful_ok, report.eidetic_ok)}
    run.count("harness.diff_modes.programs")
    run.count("harness.diff_modes.pass", int(statuses == {"pass"}))
    run.count("harness.diff_modes.skipped", int("skip" in statuses))
    run.count(
        "harness.diff_modes.budget_exceeded",
        int(any(o.kind is OutcomeKind.BUDGET for o in report.outcomes.values())),
    )
    ok = alpha_eq(back, prog.term) and not report.failed
    run.gate(ok, f"front {prog.key}: round trip or diff_modes verdict failed")


def op_cli(run: Run, prog: Program, path: Path, mode: Mode, space: bool, validator) -> None:
    """`lh run FILE --mode M --json [--space]`, in-process, output captured."""

    argv = ["run", str(path), "--mode", mode.value, "--json"] + (["--space"] if space else [])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.call("cli.main", mode, cli.main, argv)
    payload = json.loads(buf.getvalue())
    errors = [e.message for e in validator.iter_errors(payload)]
    res = payload["result"]
    value = int(res["value"]) if res["kind"] == "value" else None
    summary = (res["kind"], res["label"], value, res["steps"])
    run.done(res["steps"])
    want_code = 0 if res["kind"] == "value" else 1
    ok = not errors and code == want_code and _matches(run, prog, mode, summary) and (space == ("space" in payload))
    run.gate(ok, f"cli {' '.join(argv[2:])}: exit {code}, {summary}, schema {errors[:2]}")


def stepper_outcome(mach: Machine, term: Term, budget: int) -> tuple[str, object, int]:
    """Outcome by the reference stepper `Machine.step`."""

    for steps in range(budget + 1):
        out = mach.step(term)
        if not isinstance(out, Stepped):
            break
        term = out.term
    if isinstance(out, IsBlame):
        return "blame", out.label, steps
    return "value", term.value if isinstance(term, Const) else None, steps


def _collect(run: Run) -> None:
    """Metered and traced runs of the loops build large heaps, so their time
    depends on when the collector runs. Each starts from a collected heap, as
    `lh run` starts from a fresh process."""

    gc.collect()


def _on(prog: Program, mode: Optional[Mode] = None) -> str:
    return prog.key if mode is None else f"{prog.key}/{mode.value}"


# ---------------------------------------------------------------------------
# Workloads


class TailLoop:
    """Seeded `fact`-shaped loops at fixed depths, plain, metered and traced,
    plus `lh run --json [--space]` through `cli.main`."""

    REPEAT = 3  # traced, checked and front-end runs are short; repeat them for steadier figures

    def __init__(self, seed: int, out_dir: Path, root: Path, run: Run):
        self.loops = make_loops(seed)
        self.depths = sorted(set(DEPTHS + METER_DEPTHS + TRACE_DEPTHS + (CHECK_DEPTH,)))
        self.progs: dict[tuple[str, int], Program] = {}
        for variant, loop in self.loops.items():
            for n in self.depths:
                term = _parse(run, loop.source(n))
                run.call("typecheck.check_source", None, check_source, term)
                self.progs[variant, n] = Program(f"{variant}/n{n}", term, LOOP_BUDGET, partial(loop.expected, n=n))
        self.files = {}
        for variant, loop in self.loops.items():
            path = out_dir / f"tail-loop-seed{seed}-{variant}.lh"
            path.write_text(loop.source(DEPTHS[0]))
            self.files[variant] = path
        with open(root / "docs" / "schema.json") as fh:
            self.validator = jsonschema.Draft202012Validator(json.load(fh))

    def _block(self, variant: str, mode: Mode):
        """Every operation on one variant in one mode."""

        progs = self.progs
        # plain runs go first: they are the reference for the other ways
        for n in self.depths:
            prog = progs[variant, n]
            yield Op((PLAIN, _on(prog, mode)), partial(op_plain, prog=prog, mode=mode))
        # the blame variant is metered at the smallest depth only, to keep a
        # cycle short
        for n in METER_DEPTHS if variant == "value" else METER_DEPTHS[:1]:
            prog = progs[variant, n]
            key = f"metering.pending_peak.{mode.value}.n{n}" if variant == "value" else None
            yield Op(None, _collect)
            yield Op((SPACE, _on(prog, mode)), partial(op_metered, prog=prog, mode=mode, peak_key=key))
        small = progs[variant, DEPTHS[0]]
        for space in (False, True):
            fn = partial(op_cli, prog=small, path=self.files[variant], mode=mode, space=space, validator=self.validator)
            yield Op((SPACE if space else PLAIN, "cli/" + _on(small, mode)), fn)
        for _ in range(self.REPEAT):
            for n in TRACE_DEPTHS:
                prog = progs[variant, n]
                yield Op(None, _collect)
                yield Op((TRACE, _on(prog, mode)), partial(op_traced, prog=prog, mode=mode))
            prog = progs[variant, CHECK_DEPTH]
            yield Op(None, _collect)
            yield Op((CHECK, _on(prog, mode)), partial(op_checked, prog=prog, mode=mode))
            for n in self.depths:
                prog = progs[variant, n]
                yield Op((FRONT, _on(prog)), partial(op_front, prog=prog))

    def _cycle(self):
        for variant in VARIANTS:
            for mode in ALL_MODES:
                yield from self._block(variant, mode)

    def _space_signature(self, run: Run) -> None:
        """Pending peaks: constant in n for the space-efficient modes, growing
        in classic."""

        for mode in ALL_MODES:
            peaks = [run.counts.get(f"metering.pending_peak.{mode.value}.n{n}") for n in METER_DEPTHS]
            if mode is Mode.CLASSIC:
                ok = None not in peaks and all(a < b for a, b in zip(peaks, peaks[1:]))
            else:
                ok = None not in peaks and len(set(peaks)) == 1
            run.gate(ok, f"space signature {mode.value}: pending peaks {peaks} at n={METER_DEPTHS}")

    def _stepper_labels(self, run: Run) -> None:
        """Blame labels by the reference stepper at the smallest depth."""

        prog = self.progs["blame", DEPTHS[0]]
        for mode in ALL_MODES:
            kind, label, _ = run.call("semantics.step", mode, stepper_outcome, machine(mode), prog.term, prog.budget)
            want = prog.expected(mode)
            run.gate((kind, label) == want, f"stepper {prog.key} {mode.value}: {kind} {label}, want {want}")

    def ops(self):
        yield from self._cycle()
        yield Op(None, self._space_signature)
        yield Op(None, self._stepper_labels)
        yield PREFIX_END
        while True:
            yield from self._cycle()


class FuzzDiff:
    """`lh fuzz` plus the front end on a stream of generated programs; every
    fourth program is also evaluated plain, metered and traced, and every
    eighth has its traces checked."""

    PREFIX_PROGRAMS = 64

    def __init__(self, seed: int, out_dir: Path, root: Path, run: Run):
        self.seed = seed

    def ops(self):
        rng = random.Random(self.seed)
        for i in itertools.count():
            gen = (self.seed * 1_000_003 + i, rng.randint(5, 30))
            prog = Program(f"g{i}", None, FUZZ_BUDGET)
            yield Op((FRONT, "generated"), partial(op_front, prog=prog, gen=gen), varied=True)
            if i % 4 == 0:
                for mode in ALL_MODES:
                    yield Op((PLAIN, mode.value), partial(op_plain, prog=prog, mode=mode), varied=True)
                    yield Op((SPACE, mode.value), partial(op_metered, prog=prog, mode=mode), varied=True)
                    yield Op((TRACE, mode.value), partial(op_traced, prog=prog, mode=mode), varied=True)
            if i % 8 == 0:
                for mode in ALL_MODES:
                    yield Op((CHECK, mode.value), partial(op_checked, prog=prog, mode=mode), varied=True)
            if i == self.PREFIX_PROGRAMS - 1:
                yield PREFIX_END


class TraceCheck:
    """Traced eval and `check_trace` in all four modes over a seeded corpus
    generated in set-up, plus the value loop at n = 100."""

    CORPUS = 320

    def __init__(self, seed: int, out_dir: Path, root: Path, run: Run):
        loop = make_loops(seed)["value"]
        n = DEPTHS[0]
        term = _parse(run, loop.source(n))
        run.call("typecheck.check_source", None, check_source, term)
        self.progs = [Program(f"value/n{n}", term, LOOP_BUDGET, partial(loop.expected, n=n))]
        rng = random.Random(seed)
        for i in range(self.CORPUS):
            term = run.call("harness.gen_source", None, gen_source, seed * 1_000_003 + i, rng.randint(5, 30))
            self.progs.append(Program(f"g{i}", term, FUZZ_BUDGET))

    def _cycle(self):
        # one class per program and mode, so that the throughputs weigh the
        # programs as one pass over the corpus does
        for prog in self.progs:
            for mode in ALL_MODES:
                on = _on(prog, mode)
                yield Op((PLAIN, on), partial(op_plain, prog=prog, mode=mode))
                for kind, op in ((CHECK, op_checked), (SPACE, op_metered), (TRACE, op_traced)):
                    if prog.expected is not None:
                        yield Op(None, _collect)
                    yield Op((kind, on), partial(op, prog=prog, mode=mode))
            yield Op((FRONT, prog.key), partial(op_front, prog=prog))

    def ops(self):
        yield from self._cycle()
        yield PREFIX_END
        while True:
            yield from self._cycle()


WORKLOADS = {"tail-loop": TailLoop, "fuzz-diff": FuzzDiff, "trace-check": TraceCheck}
