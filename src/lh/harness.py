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
from .semantics import Outcome, OutcomeKind
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
from .typecheck import Checker, TypeCheckError, check_source

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
        if isinstance(ty, Fun):
            x = f"x{len(env)}"
            body = self.term(ty.cod, max(fuel - 1, 1), env + [(x, ty.dom)])
            return Abs(x, ty.dom, body)
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
    result type is a refined base type."""

    if size < 1:
        raise ValueError("size must be at least 1")
    for attempt in range(100):
        rng = random.Random(f"{seed}:{size}:{attempt}")
        gen = _Gen(rng)
        base = BaseType.INT if rng.random() < 0.8 else BaseType.BOOL
        result_ty = gen.pick_ref(base)
        term = gen.term(result_ty, size, [])
        try:
            check_source(term)
        except TypeCheckError:
            continue
        return term
    raise AssertionError(f"generation failed to type for seed={seed} size={size}")


# ---------------------------------------------------------------------------
# Differential checking


@dataclass(frozen=True)
class Verdict:
    status: str  # "pass" | "fail" | "skip"
    reason: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"


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
        return (
            self.forgetful_ok.failed
            or self.heedful_ok.failed
            or self.eidetic_ok.failed
            or bool(self.findings)
        )

    def as_dict(self) -> dict:
        return {
            "term": print_term(self.term),
            "outcomes": {
                m.value: {
                    "kind": out.kind.name.lower(),
                    "label": out.label,
                    "value": print_term(out.term) if out.term is not None else None,
                    "steps": out.steps,
                }
                for m, out in self.outcomes.items()
            },
            "forgetful_ok": vars(self.forgetful_ok),
            "heedful_ok": vars(self.heedful_ok),
            "eidetic_ok": vars(self.eidetic_ok),
            "findings": self.findings,
        }


def _same_const(a: Optional[Term], b: Optional[Term]) -> bool:
    return isinstance(a, Const) and isinstance(b, Const) and a.value == b.value and a.base is b.base


def diff_modes(e: Term, budget: int = 10_000) -> DiffReport:
    if any(isinstance(s, Fix) for s in subterms(e)):
        skip = Verdict("skip", "recursive programs are outside the cross-mode lemmas")
        return DiffReport(e, {}, skip, skip, skip)

    outcomes = {m: semantics.eval_term(m, e, budget) for m in ALL_MODES}
    findings = [
        f"{m.value}: stuck ({out.stuck_reason})"
        for m, out in outcomes.items()
        if out.kind is OutcomeKind.STUCK
    ]
    if any(out.kind is OutcomeKind.BUDGET for out in outcomes.values()):
        skip = Verdict("skip", "budget exceeded")
        return DiffReport(e, outcomes, skip, skip, skip, findings)

    c, f, h, ed = (outcomes[m] for m in ALL_MODES)

    def value_like(out: Outcome) -> bool:
        return out.kind is OutcomeKind.VALUE

    if value_like(c) and not isinstance(c.term, Const):
        skip = Verdict("skip", "function-typed result is not comparable")
        return DiffReport(e, outcomes, skip, skip, skip, findings)

    if value_like(c):
        forgetful = (
            Verdict("pass")
            if value_like(f) and _same_const(c.term, f.term)
            else Verdict("fail", "classic produced a value but forgetful diverged from it")
        )
    else:
        forgetful = Verdict("pass")

    heedful_blame_ok = (c.kind is OutcomeKind.BLAME) == (h.kind is OutcomeKind.BLAME)
    heedful_value_ok = not value_like(c) or (value_like(h) and _same_const(c.term, h.term))
    heedful = (
        Verdict("pass")
        if heedful_blame_ok and heedful_value_ok
        else Verdict("fail", "classic and heedful outcomes do not coterminate")
    )

    if c.kind is ed.kind and (
        (c.kind is OutcomeKind.BLAME and c.label == ed.label)
        or (c.kind is OutcomeKind.VALUE and _same_const(c.term, ed.term))
    ):
        eidetic = Verdict("pass")
    else:
        eidetic = Verdict("fail", "eidetic outcome differs from classic (kind, label, or value)")

    return DiffReport(e, outcomes, forgetful, heedful, eidetic, findings)


# ---------------------------------------------------------------------------
# Trace invariants


def check_trace(mode: Mode, terms: Iterable[Term]) -> list[str]:
    """Findings for preservation and type monotonicity along an evaluation
    trace (first element is the initial term).

    `terms` may be any iterable, such as a generator over a trace's steps;
    only the current and the previous term are held.  Their nodes live in
    one table (`_LiveNodes`), which visits a node when it first appears and
    again when it leaves, so a term costs time in proportion to the nodes
    the step rebuilt.  The table keeps the type keys of the live nodes
    counted, so that types grew exactly when entering a term raised a key's
    count from zero.  One checker serves the whole trace; a node's judgments
    are forgotten when the node leaves the table, so a node that a step did
    not rebuild is checked only once; one that a step rebuilt at one child
    takes over its counterpart's (`Checker.carry`)."""

    terms = iter(terms)
    first = next(terms, None)
    if first is None:
        return []
    checker = Checker(mode)
    try:
        ty = checker.infer({}, first)
    except TypeCheckError as exc:
        return [f"step 0: initial term does not typecheck: {exc}"]

    findings: list[str] = []
    live = _LiveNodes()
    prev = None
    for i, term in enumerate(itertools.chain((first,), terms)):
        grew, spine = live.enter(term, prev)
        checker.carry(spine)
        try:
            checker.check({}, term, ty)
        except TypeCheckError as exc:
            findings.append(f"step {i}: preservation failure: {exc}")
        if prev is not None:
            if grew:
                findings.append(f"step {i}: types grew along the trace")
            checker.forget(live.leave(prev))
        prev = term
    return findings


class _LiveNodes:
    """The term nodes of at most two trace terms, keyed by identity.

    `table` maps each live node to `[count, children, held types]`, where
    count is the number of its parent edges from live nodes plus the terms
    rooted at it.  `holders` counts the live nodes holding each type object
    whole.  `keys` counts, per type key, the type objects in `holders` that
    carry it plus the refinement-list entries with that key that live nodes
    hold, so the keys with a count are `type_keys` of the live terms.

    A node that a step rebuilt at one child takes over its counterpart's
    children and held types (`enter`), so only the nodes the step created
    anew are read with `children` and `held_types`."""

    def __init__(self):
        self.table: dict[Term, list] = {}
        self.holders: dict[Type, int] = {}
        self.keys: dict[str, int] = {}

    def enter(self, root: Term, prev: Optional[Term]) -> tuple[bool, list]:
        """Count one more term rooted at root, adding the nodes that are not
        live yet; from the root down, a node that is its counterpart in prev
        (a live term) rebuilt at one child takes over its kids and held
        types.  Returns whether a type key no live node had appeared, and
        (counterpart, node, i, new child) per rebuilt node."""

        table, holders, keys = self.table, self.holders, self.keys
        spine = []
        node = root
        while prev is not None and node is not prev and node not in table:
            at = rebuilt_at(prev, node)
            if at is None:
                break
            i, kid = at
            _, kids, held = table[prev]
            if len(kids) > 1:
                for k in kids[:i] + kids[i + 1 :]:
                    table[k][0] += 1
            table[node] = [1, kids[:i] + (kid,) + kids[i + 1 :] if len(kids) > 1 else (kid,), held]
            for t in held[0]:
                holders[t] += 1
            for ref in held[1]:
                keys[canon(ref)] += 1
            spine.append((prev, node, i, kid))
            node, prev = kid, kids[i]

        grew = False
        todo = [node]
        while todo:
            node = todo.pop()
            entry = table.get(node)
            if entry is not None:
                entry[0] += 1
                continue
            kids = children(node)
            held = held_types(node)
            table[node] = [1, kids, held]
            todo += kids
            whole, alone = held
            if not whole:
                continue
            for t in whole:
                n = holders.get(t, 0)
                holders[t] = n + 1
                if not n:
                    for key in type_keys(t):
                        grew = _acquire(keys, key) or grew
            for ref in alone:
                grew = _acquire(keys, canon(ref)) or grew
        return grew, spine

    def leave(self, root: Term) -> list[Term]:
        """Count one term rooted at root less; drop and return every node
        that no live node or term refers to any more."""

        table, holders, keys = self.table, self.holders, self.keys
        entry = table[root]
        entry[0] -= 1
        if entry[0]:
            return []
        dropped = [root]
        for node in dropped:  # grows while it is read
            _, kids, (whole, alone) = table.pop(node)
            for kid in kids:
                entry = table[kid]
                entry[0] -= 1
                if not entry[0]:
                    dropped.append(kid)
            if not whole:
                continue
            for t in whole:
                n = holders[t] - 1
                if n:
                    holders[t] = n
                    continue
                del holders[t]
                for key in type_keys(t):
                    _release(keys, key)
            for ref in alone:
                _release(keys, canon(ref))
        return dropped


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
        report = diff_modes(term, budget)
        if report.outcomes and any(o.kind is OutcomeKind.BUDGET for o in report.outcomes.values()):
            exceeded += 1
        if report.outcomes and any(o.kind is OutcomeKind.STUCK for o in report.outcomes.values()):
            stuck += 1
        if report.failed:
            failures.append({"index": i, "size": size, **report.as_dict()})
            continue
        if check_traces:
            for mode in ALL_MODES:
                out = semantics.eval_term(mode, term, budget, trace=True)
                if out.kind is OutcomeKind.BUDGET:
                    continue
                terms = itertools.chain((out.initial,), (s.term for s in out.trace))
                found = check_trace(mode, terms)
                if found:
                    failures.append(
                        {"index": i, "size": size, "mode": mode.value, "trace_findings": found}
                    )
    return FuzzReport(count, seed, failures, exceeded, stuck)
