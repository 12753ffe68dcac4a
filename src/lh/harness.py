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
from .semantics import Frame, Outcome, OutcomeKind, TraceTerms
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
    Mode,
    Op,
    Refinement,
    Term,
    Type,
    Var,
    alpha_eq,
    canon,
    children,
    held_types,
    is_raw,
    raw,
    rebuilt_at,
    subterms,
    type_keys,
)
from .typecheck import REPLAYING, Checker, TypeCheckError, check_source

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
    trace (first element is the initial term).

    Each term is a step, frames (`semantics.Frame`) around a focus: the
    machine's own for `Outcome.trace_terms()` (`TraceTerms.contexts`), so a
    step costs time in proportion to the frames it popped and pushed and the
    nodes it made, not to its depth; for any other iterable, no frames.
    `_LiveNodes` counts the type keys of two steps' nodes, so types grew when
    a step raised a key's count from zero, and carries judgments along."""

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
    live = _LiveNodes(checker)
    for i, (ctx, focus) in enumerate(itertools.chain((first,), steps)):
        grew = live.step(ctx, focus)
        if (failure := live.check(ty)) is not None:
            findings.append(f"step {i}: preservation failure: {failure}")
        if i and grew:
            findings.append(f"step {i}: types grew along the trace")
    checker.forget([level.node for level in live.levels])
    return findings


class _Level:
    """A frame of the current step, as the node it holds: that node's
    children and held types, a built copy of it whose judgments hold for it
    (the copy's child may be older), and whether a level above replays it."""

    __slots__ = ("frame", "node", "kids", "held", "replayed")

    def __init__(self, frame: Frame, node: Term):
        self.frame, self.node = frame, node


class _LiveNodes:
    """The nodes of at most two steps: the current step's frames as `levels`
    (`at` gives a frame's position), and every other node in `table`, by
    identity, as `[count, children, held types]`, counting its parent edges
    from live nodes and levels plus the steps focused on it.  `holders`
    counts the nodes and levels holding each type object, and `keys` the
    type objects and refinement-list entries per type key."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.table: dict[Term, list] = {}
        self.holders: dict[Type, int] = {}
        self.keys: dict[str, int] = {}
        self.levels: list[_Level] = []
        self.at: dict[Frame, int] = {}
        self.focus: Optional[Term] = None
        self.carried = False  # the judgments reached the root

    def step(self, ctx, focus: Term) -> bool:
        """Move on to the step ctx around focus; True if a type key that the
        previous step's nodes lacked appeared.  Frames that stay cost nothing.
        Below them, the two steps are built as reading them back would build
        them and walked down together: a node that is its counterpart rebuilt
        at one child (`rebuilt_at`) takes over its kids, held types and
        judgments; the rest are read with `children` and `held_types`."""

        levels, at, table = self.levels, self.at, self.table
        frames = []
        while ctx is not None and ctx not in at:
            frames.append(ctx)
            ctx = ctx.rest
        keep = 0 if ctx is None else at[ctx] + 1
        popped, prev = levels[keep:], self.focus
        del levels[keep:]
        old, sources = prev, {}
        for level in reversed(popped):
            old = level.frame.rebuild(old)
            sources[old] = level
        new, fresh = focus, {}
        for frame in frames:
            new = frame.rebuild(new)
            fresh[new] = _Level(frame, new)

        spine = []  # (old, new, i) per node rebuilt at one child, from the top
        while prev is not None and new is not old and new not in table:
            moved = rebuilt_at(old, new)
            if moved is None:
                break
            i, kid = moved
            source = sources.get(old)
            kids, held = (children(old), source.held) if source else table[old][1:]
            self.hold(held)  # the counterpart holds them: no key is new
            for k, sibling in enumerate(kids):
                if k != i:
                    table[sibling][0] += 1
            if (level := fresh.get(new)) is not None:
                level.kids, level.held = kids, held
            else:
                table[new] = [1, kids[:i] + (kid,) + kids[i + 1 :], held]
            spine.append((source.node if source else old, new, i))
            old, new = kids[i], kid

        grew, todo = False, [new]
        while todo:
            node = todo.pop()
            if (entry := table.get(node)) is not None:
                entry[0] += 1
                continue
            kids, held = children(node), held_types(node)
            todo += kids
            if held[0]:
                grew = self.hold(held) or grew
            if (level := fresh.get(node)) is not None:
                level.kids, level.held = kids, held
            else:
                table[node] = [1, kids, held]

        for level in reversed(fresh.values()):
            up = levels[-1] if levels else None
            level.replayed = up is not None and (up.replayed or type(up.frame.orig) in REPLAYING)
            at[level.frame] = len(levels)
            levels.append(level)
        self.focus = focus
        try:
            self.carried = self._carry(spine, new, keep)
        except TypeCheckError:
            self.carried = False
        if prev is not None:
            self._leave(popped, prev)
        return grew

    def _carry(self, spine: list, kid: Term, keep: int) -> bool:
        """Carry judgments up the rebuilt nodes, then up the first keep levels
        until one keeps its judgments and no level above replays it.  A node
        whose counterpart has none gets none: only a rule that replays it
        reads it, or the carry above types it anew."""

        checker, levels = self.checker, self.levels
        for old, new, i in reversed(spine):
            checker.carry(old, i, kid, new)
            kid = new
        for k in range(keep - 1, -1, -1):
            level = levels[k]
            old, i = level.node, level.frame.index
            if (same := checker.carry(old, i, kid)) and not level.replayed:
                return True
            node = level.frame.rebuild(kid)
            if same is not None:
                same = checker.carry(old, i, kid, node)
            checker.forget((old,))
            level.node = kid = node
            if same and not level.replayed:
                return True
        return True

    def check(self, ty: Type) -> Optional[TypeCheckError]:
        """The error the whole-term check raises, if any.  Unless the carry
        put ty at the root, the term is built and checked top down, and its
        nodes become the levels' nodes."""

        levels, checker = self.levels, self.checker
        if self.carried and checker.knows(levels[0].node if levels else self.focus, ty):
            return None
        node = self.focus
        for level in reversed(levels):
            checker.forget((level.node,))
            node = level.node = level.frame.rebuild(node)
        try:
            checker.check({}, node, ty)
        except TypeCheckError as exc:
            return exc
        return None

    def _leave(self, popped: list[_Level], prev: Term) -> None:
        """Count the previous step less, and forget every node that no live
        node or level refers to any more."""

        todo, dropped, table = [prev], [level.node for level in popped], self.table
        for level in popped:
            del self.at[level.frame]
            self.release(level.held)
            i = level.frame.index
            todo += level.kids[:i] + level.kids[i + 1 :]
        while todo:
            entry = table[node := todo.pop()]
            entry[0] -= 1
            if not entry[0]:
                del table[node]
                dropped.append(node)
                todo += entry[1]
                if entry[2][0]:
                    self.release(entry[2])
        self.checker.forget(dropped)

    def hold(self, held: tuple) -> bool:
        """Count held types once more; True if a type key had no count."""

        grew = False
        for t in held[0]:
            self.holders[t] = n = self.holders.get(t, 0) + 1
            if n == 1:
                for key in type_keys(t):
                    grew = _acquire(self.keys, key) or grew
        for ref in held[1]:
            grew = _acquire(self.keys, canon(ref)) or grew
        return grew

    def release(self, held: tuple) -> None:
        for t in held[0]:
            if n := self.holders.pop(t) - 1:
                self.holders[t] = n
            else:
                for key in type_keys(t):
                    _release(self.keys, key)
        for ref in held[1]:
            _release(self.keys, canon(ref))


def _acquire(counts: dict, key) -> bool:
    """Count key once more; True if it had no count."""

    n = counts.get(key, 0)
    counts[key] = n + 1
    return not n


def _release(counts: dict, key) -> None:
    n = counts[key] - 1
    if n:
        counts[key] = n
    else:
        del counts[key]


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
