"""Differential testing: generate well-typed source programs, run them under
all four modes, and check the cross-mode relationships plus per-trace
invariants (preservation and type monotonicity).

Merge priority, that a cast over a cast merges before anything else happens
to it, is a property of one local rule, `Machine._cast`; the tests check it
against the machine directly rather than along traces.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import semantics
from .semantics import Frame, Outcome, OutcomeKind, TraceTerms, plug
from .surface import parse_type, print_term
from .syntax import (
    ALL_MODES,
    Abs,
    App,
    BaseType,
    Cast,
    Cond,
    Const,
    EMPTY_ANN,
    Fix,
    Fun,
    LEAVES,
    Mode,
    Op,
    Refinement,
    Term,
    Type,
    Var,
    alpha_eq,
    children,
    held_mask,
    is_raw,
    raw,
    rebuilt_at,
    subterms,
)
from .typecheck import REPLAYING, Checker, Memo, TypeCheckError, check_source

# ---------------------------------------------------------------------------
# Named types used throughout generation

ANY = raw(BaseType.INT)
RAW_BOOL = raw(BaseType.BOOL)


NAT = parse_type("{x:Int|x >= 0}")
EVEN = parse_type("{x:Int|x mod 2 = 0}")
NZ = parse_type("{x:Int|x <> 0}")
POS = parse_type("{x:Int|x > 0}")

INT_POOL: tuple[Refinement, ...] = (ANY, NAT, EVEN, NZ, POS)
BOOL_POOL: tuple[Refinement, ...] = (RAW_BOOL,)


# ---------------------------------------------------------------------------
# Source program generation


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.labels = 0

    def label(self) -> str:
        self.labels += 1
        return f"l{self.labels}"

    def pick_ref(self, base: BaseType) -> Refinement:
        pool = INT_POOL if base is BaseType.INT else BOOL_POOL
        return self.rng.choice(pool)

    def const(self, base: BaseType) -> Const:
        if base is BaseType.BOOL:
            return Const(self.rng.random() < 0.5)
        return Const(self.rng.randint(-4, 6))

    def term(self, ty: Type, fuel: int, env: list[tuple[str, Type]]) -> Term:
        rng = self.rng
        candidates = [(n, t) for n, t in env if alpha_eq(t, ty)]
        if candidates and rng.random() < 0.3:
            return Var(rng.choice(candidates)[0])
        assert isinstance(ty, Refinement)
        if fuel <= 1:
            return self.leaf(ty, env)
        choice = rng.random()
        if choice < 0.30:
            return self.cast_into(ty, fuel, env)
        if choice < 0.45:
            return self.cast_chain(ty, fuel, env)
        if choice < 0.60 and ty.base is BaseType.INT:
            # ops synthesize raw results, so refined targets go through a cast
            body = self.op_int(fuel, env)
            if alpha_eq(ty, ANY):
                return body
            return Cast(ANY, EMPTY_ANN, ty, self.label(), body)
        if choice < 0.72:
            guard = self.term(RAW_BOOL, fuel // 3 + 1, env)
            left = self.term(ty, fuel // 2, env)
            right = self.term(ty, fuel // 2, env)
            return Cond(guard, left, right)
        if choice < 0.86:
            return self.apply_lambda(ty, fuel, env)
        if ty.base is BaseType.INT:
            return self.apply_proxy(ty, fuel, env)
        return self.bool_op(fuel, env)

    def leaf(self, ty: Refinement, env: list[tuple[str, Type]]) -> Term:
        if is_raw(ty):
            return self.const(ty.base)
        return Cast(raw(ty.base), EMPTY_ANN, ty, self.label(), self.const(ty.base))

    def cast_into(self, ty: Refinement, fuel: int, env) -> Term:
        src = self.pick_ref(ty.base)
        return Cast(src, EMPTY_ANN, ty, self.label(), self.term(src, fuel - 1, env))

    def cast_chain(self, ty: Refinement, fuel: int, env) -> Term:
        mid = self.pick_ref(ty.base)
        src = self.pick_ref(ty.base)
        inner = Cast(src, EMPTY_ANN, mid, self.label(), self.term(src, fuel - 2, env))
        return Cast(mid, EMPTY_ANN, ty, self.label(), inner)

    def op_int(self, fuel: int, env) -> Term:
        name = self.rng.choice(("+", "-", "*"))
        return Op(name, (self.term(ANY, fuel // 2, env), self.term(ANY, fuel // 2, env)))

    def bool_op(self, fuel: int, env) -> Term:
        kind = self.rng.random()
        if kind < 0.5:
            name = self.rng.choice(("=", "<>", "<", "<=", ">", ">="))
            return Op(name, (self.term(ANY, fuel // 2, env), self.term(ANY, fuel // 2, env)))
        if kind < 0.8:
            name = self.rng.choice(("&&", "||"))
            return Op(name, (self.term(RAW_BOOL, fuel // 2, env), self.term(RAW_BOOL, fuel // 2, env)))
        return Op("not", (self.term(RAW_BOOL, fuel - 1, env),))

    def apply_lambda(self, ty: Refinement, fuel: int, env) -> Term:
        dom = self.pick_ref(self.rng.choice((BaseType.INT, BaseType.BOOL)))
        x = f"x{len(env)}"
        body = self.term(ty, fuel // 2, env + [(x, dom)])
        arg = self.term(dom, fuel // 2, env)
        return App(Abs(x, dom, body), arg)

    def apply_proxy(self, ty: Refinement, fuel: int, env) -> Term:
        """Apply a cast-wrapped lambda, exercising function-proxy unwrapping."""

        d_src = self.pick_ref(BaseType.INT)
        d_tgt = self.pick_ref(BaseType.INT)
        c_src = self.pick_ref(ty.base)
        x = f"x{len(env)}"
        body = self.term(c_src, fuel // 2, env + [(x, d_src)])
        fn = Cast(Fun(d_src, c_src), EMPTY_ANN, Fun(d_tgt, ty), self.label(), Abs(x, d_src, body))
        arg = self.term(d_tgt, fuel // 3 + 1, env)
        return App(fn, arg)


def gen_source(seed: int, size: int) -> Term:
    """Deterministically generate a closed, well-typed source program whose
    result type is a refined base type.  It is typechecked: a program the
    generator builds ill-typed raises `TypeCheckError`."""

    if size < 1:
        raise ValueError("size must be at least 1")
    rng = random.Random(f"{seed}:{size}:0")
    gen = _Gen(rng)
    base = BaseType.INT if rng.random() < 0.8 else BaseType.BOOL
    term = gen.term(gen.pick_ref(base), size, [])
    check_source(term)
    return term


# ---------------------------------------------------------------------------
# Differential checking


@dataclass(frozen=True)
class Verdict:
    status: str  # "pass" | "fail" | "skip"
    reason: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def verdict(holds: bool, claim: str) -> Verdict:
    """A pass if holds, else a failure of the claim."""

    return Verdict("pass") if holds else Verdict("fail", claim)


def outcome_dict(out: Outcome) -> dict:
    """An outcome's JSON form, in `lh run --json` and in diff and fuzz reports."""

    return {
        "kind": out.kind.name.lower(),
        "value": print_term(out.term) if out.term is not None else None,
        "label": out.label,
        "steps": out.steps,
        "stuck_reason": out.stuck_reason,
    }


@dataclass
class DiffReport:
    term: Term
    outcomes: dict[Mode, Outcome]
    forgetful_ok: Verdict
    heedful_ok: Verdict
    eidetic_ok: Verdict
    findings: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(v.failed for v in (self.forgetful_ok, self.heedful_ok, self.eidetic_ok)) or bool(self.findings)

    def as_dict(self) -> dict:
        return {
            "term": print_term(self.term),
            "outcomes": {m.value: outcome_dict(out) for m, out in self.outcomes.items()},
            "forgetful_ok": vars(self.forgetful_ok),
            "heedful_ok": vars(self.heedful_ok),
            "eidetic_ok": vars(self.eidetic_ok),
            "findings": self.findings,
        }


def _same_const(a: Optional[Term], b: Optional[Term]) -> bool:
    return isinstance(a, Const) and isinstance(b, Const) and a.value == b.value and a.base is b.base


def _skipped(e: Term, outcomes: dict[Mode, Outcome], reason: str, findings: list[str]) -> DiffReport:
    skip = Verdict("skip", reason)
    return DiffReport(e, outcomes, skip, skip, skip, findings)


def diff_modes(e: Term, budget: int = 10_000) -> DiffReport:
    """`judge` e's outcomes in every mode; a program holding a `Fix` is
    skipped without running it."""

    if any(isinstance(s, Fix) for s in subterms(e)):
        return _skipped(e, {}, "recursive programs are outside the cross-mode lemmas", [])
    return judge(e, {m: semantics.eval_term(m, e, budget) for m in ALL_MODES})


def judge(e: Term, outcomes: dict[Mode, Outcome]) -> DiffReport:
    """The cross-mode claims on e's outcomes in every mode: forgetful gives
    classic's value, heedful co-terminates with classic, and eidetic gives
    classic's outcome, blame label included.  Each mode that got stuck is a
    finding.  The claims are lemmas about programs without `Fix`, which
    `diff_modes` skips and `gen_source` never emits."""

    findings = [
        f"{m.value}: stuck ({out.stuck_reason})" for m, out in outcomes.items() if out.kind is OutcomeKind.STUCK
    ]
    if any(out.kind is OutcomeKind.BUDGET for out in outcomes.values()):
        return _skipped(e, outcomes, "budget exceeded", findings)
    c, f, h, ed = (outcomes[m] for m in ALL_MODES)
    value = c.kind is OutcomeKind.VALUE
    if value and not isinstance(c.term, Const):
        return _skipped(e, outcomes, "function-typed result is not comparable", findings)

    def gives_value(out: Outcome) -> bool:
        return out.kind is OutcomeKind.VALUE and _same_const(c.term, out.term)

    def blames(out: Outcome) -> bool:
        return out.kind is OutcomeKind.BLAME

    return DiffReport(
        e,
        outcomes,
        verdict(not value or gives_value(f), "classic produced a value but forgetful diverged from it"),
        verdict(blames(c) == blames(h) and (not value or gives_value(h)), "classic and heedful outcomes do not coterminate"),
        verdict(
            gives_value(ed) if value else blames(c) and blames(ed) and c.label == ed.label,
            "eidetic outcome differs from classic (kind, label, or value)",
        ),
        findings,
    )


# ---------------------------------------------------------------------------
# Trace invariants


def check_trace(mode: Mode, terms: Iterable[Term]) -> list[str]:
    """Findings for preservation and type monotonicity along an evaluation
    trace (first element is the initial term): those of checking each term
    whole against the initial term's type and comparing its type keys with
    the previous term's.

    Each term is a step, frames (`semantics.Frame`) around a focus: the
    machine's own for `Outcome.trace_terms()` (`TraceTerms.contexts`), else
    none.  Below the frames two steps share, by identity, their parts are
    walked down together with `rebuilt_at` to the deepest pair that differs.
    After an accepted term, by replacement, only that pair's new part is
    checked, where `_checks_in_place` says; else, or if it fails, the whole
    term, so every failure is the whole-term check's.  Each frame kept from
    the previous step, and each position on the walked-down spine, carries
    one flag: whether a replaying form (`typecheck.REPLAYING`), whose rule
    replays what lies below it instead of typing it, sits at or above it.
    Types grew only if the new part, when not a child of the old one, has a
    key the old part lacks and the whole terms compare so (`key_mask` bits).
    A step costs time in proportion to the frames it popped and pushed and
    the nodes it made, not to its depth."""

    steps = terms.contexts() if isinstance(terms, TraceTerms) else ((None, t) for t in terms)
    first = next(steps, None)
    if first is None:
        return []
    checker = Checker(mode)
    try:
        ty = checker.infer({}, first[1])
    except TypeCheckError as exc:
        return [f"step 0: initial term does not typecheck: {exc}"]
    findings: list[str] = []
    masks = Memo()  # term node -> the mask of its type keys
    replays: dict[Frame, bool] = {}  # the previous step's frames: is a replaying form at or above?
    last, focus = first  # no frames
    accepted = False
    for i, (ctx, now) in enumerate(itertools.chain((first,), steps)):
        pushed, kept = [], ctx
        while kept is not None and kept not in replays:
            pushed.append(kept)
            kept = kept.rest
        old_top, new_top = plug(last, focus, kept), plug(ctx, now, kept)
        while last is not kept:
            del replays[last]
            last = last.rest
        for frame in reversed(pushed):
            replays[frame] = type(frame.orig) in REPLAYING or replays.get(frame.rest, False)
        last, focus = ctx, now

        spine = []  # (node, i, replayed) per new node rebuilt at its i-th child, from the top
        old, new = old_top, new_top
        replayed = replays.get(kept, False)
        while (moved := rebuilt_at(old, new)) is not None:
            replayed = replayed or type(new) in REPLAYING
            spine.append((new, moved[0], replayed))
            old, new = children(old)[moved[0]], moved[1]

        if not (accepted and _checks_in_place(checker, spine, new, kept, replays)):
            try:
                checker.check({}, plug(kept, new_top), ty)
                accepted = True
            except TypeCheckError as exc:
                findings.append(f"step {i}: preservation failure: {exc}")
                accepted = False
        if (
            new not in children(old)
            and (grown := _type_keys(masks, new))
            and grown & ~_type_keys(masks, old)
            and _type_keys(masks, plug(kept, new_top)) & ~_type_keys(masks, plug(kept, old_top))
        ):
            findings.append(f"step {i}: types grew along the trace")
    return findings


def _checks_in_place(checker: Checker, spine: list, kid: Term, frame: Optional[Frame], replays: dict) -> bool:
    """Whether the new term checks, by its changed child kid at the nearest
    position above it (on the spine, then in the kept frames from frame out)
    whose rule checks that child against one type (`Checker._child_type`)
    and that is not flagged as replayed (in the spine's entries, in replays
    for the frames); False if none is or kid fails there."""

    try:
        for node, i, replayed in reversed(spine):
            if not replayed and (t := checker._child_type(node, i)) is not None:
                checker.check({}, kid, t)
                return True
            kid = node
        while frame is not None:
            if not replays[frame] and (t := checker._child_type(frame.orig, frame.index)) is not None:
                checker.check({}, kid, t)
                return True
            kid, frame = frame.rebuild(kid), frame.rest
    except TypeCheckError:
        pass
    return False


def _type_keys(memo: Memo, node: Term) -> int:
    """`type_keys` of a term as a `key_mask`, kept in memo (never on the
    nodes) for every node it walks but leaves, on an explicit stack."""

    if type(node) in LEAVES:
        return 0
    if (mask := memo.get(node)) is not None:
        return mask
    found: dict[Term, int] = {}
    todo = [node]
    while todo:
        n = todo[-1]
        if n in found:
            todo.pop()
            continue
        mask = 0
        for kid in children(n):
            if (part := found.get(kid)) is None and (part := 0 if type(kid) in LEAVES else memo.get(kid)) is None:
                todo.append(kid)
            else:
                mask |= part
        if todo[-1] is not n:
            continue  # n's missing children first
        todo.pop()
        mask |= held_mask(n)
        found[n] = mask
        memo.put(n, mask)
    return found[node]


# ---------------------------------------------------------------------------
# Corpus driver


@dataclass
class FuzzReport:
    count: int
    seed: int
    failures: list[dict]
    budget_exceeded: int
    stuck: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "seed": self.seed,
            "ok": self.ok,
            "budget_exceeded": self.budget_exceeded,
            "stuck": self.stuck,
            "failures": self.failures,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


def run_fuzz(
    count: int = 1000,
    min_size: int = 5,
    max_size: int = 30,
    seed: int = 0,
    budget: int = 10_000,
    check_traces: bool = False,
) -> FuzzReport:
    rng = random.Random(seed)
    failures: list[dict] = []
    exceeded = 0
    stuck = 0
    for i in range(count):
        size = rng.randint(min_size, max_size)
        term = gen_source(seed * 1_000_003 + i, size)
        runs = {m: semantics.eval_term(m, term, budget, trace=check_traces) for m in ALL_MODES}
        report = judge(term, runs)
        kinds = {out.kind for out in runs.values()}
        exceeded += OutcomeKind.BUDGET in kinds
        stuck += OutcomeKind.STUCK in kinds
        if report.failed:
            failures.append({"index": i, "size": size, **report.as_dict()})
            continue
        if check_traces:
            for mode, out in runs.items():
                if out.kind is not OutcomeKind.BUDGET and (found := check_trace(mode, out.trace_terms())):
                    failures.append({"index": i, "size": size, "mode": mode.value, "trace_findings": found})
    return FuzzReport(count, seed, failures, exceeded, stuck)
