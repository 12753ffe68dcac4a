"""Mode-indexed type system.

Bidirectional: `infer` synthesizes where the syntax determines the type and
`check` pushes expected types down to the places where typing is not
syntax-directed (constants against refinements, blame, branches).  The
runtime rules for active checks and coercion stacks replay predicate
evaluation with a step budget, so re-typechecking whole traces is decidable.

A `Checker` has one discipline, runtime or `source`, read by every rule; a
source checker types refinement predicates with a runtime twin, since the
predicate `x mod 2 = 0` checks `2` against `mod`'s nonzero divisor by replay.

Memoization.  Nodes keep their fields (see `syntax`) and are compared by
identity, so a verdict about a node holds for as long as the node exists.
`infer` and `check` are the memoised entry points: each `Checker` keeps its
successful judgments in one `Memo` it owns (never in node attributes), from
a node, by identity, to the judgments about it, which are

- for a type node: `wf_type` succeeded on it;
- for a closed term (one checked under the empty environment): the type
  `infer` gave it; for each expected type object it was checked against,
  that `check` succeeded.

Failures are never stored, so every error is raised again, with the same
kind, path and message, by the same rules.  The memo is a plain `dict`,
read with `dict.get`, that `Memo.put` empties when it holds `2 * MEMO_LIMIT`
nodes, so it holds no more (and the terms below them) however long a trace
`harness.check_trace` checks; what was dropped and is asked about again is
judged again.  A chain of casts whose types were dropped is inferred again
deepest first (`_infer_below`), so a classic proxy chain is typed without
recursing.

One replay answers both runtime questions about predicates: does a
predicate instance step to `true` (a premise), and does an active check's
state follow from its predicate.  It takes at most `budget` steps of the
reference stepper, as `Machine.eval` would.  Its verdicts are shared by all
checkers in a process, keyed by (mode, oracle, budget, canonical terms), and
the cache holds at most `VERDICT_CACHE_LIMIT` of them, evicting the oldest
first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from .semantics import (
    ANNOTATIONS, DEFAULT_ORACLE, FOREIGN_ANNOTATION, OPS, ImplicationOracle, IsBlame, Machine, Stepped, implies
)
from .syntax import (
    ALL_MODES,
    Abs,
    ActiveCheck,
    App,
    BaseType,
    Blame,
    Cast,
    Coercion,
    CoercionStack,
    Cond,
    Const,
    EmptyAnn,
    Fix,
    Fun,
    Mode,
    Op,
    RefEntry,
    Refinement,
    Refs,
    Status,
    Term,
    Type,
    Types,
    Var,
    alpha_eq,
    canon,
    is_raw,
    raw,
    subst,
)

PREDICATE_BUDGET = 10_000

ErrorKind = str  # one of the kinds below

NOT_SIMILAR = "NotSimilar"
ILL_FORMED_TYPE = "IllFormedType"
ILL_FORMED_ANNOTATION = "IllFormedAnnotation"
UNBOUND_VAR = "UnboundVar"
NOT_A_FUNCTION = "NotAFunction"
OP_ARITY = "OpArity"
PREDICATE_NOT_BOOL = "PredicateNotBool"
SOURCE_VIOLATION = "SourceViolation"


class TypeCheckError(Exception):
    def __init__(self, kind: ErrorKind, path: str, detail: str):
        super().__init__(f"{kind} at {path or '<top>'}: {detail}")
        self.kind = kind
        self.path = path
        self.detail = detail


# ---------------------------------------------------------------------------
# Operation signatures


def op_signature(name: str) -> tuple[tuple[Refinement, ...], Refinement]:
    op = OPS.get(name)
    if op is None:
        raise TypeCheckError(OP_ARITY, "", f"unknown operation {name!r}")
    return op[0], op[1]


# ---------------------------------------------------------------------------
# Similarity


def similar(t1: Type, t2: Type) -> bool:
    """Same simple-type skeleton: the precondition for casting."""

    if isinstance(t1, Refinement) and isinstance(t2, Refinement):
        return t1.base is t2.base
    if isinstance(t1, Fun) and isinstance(t2, Fun):
        return similar(t1.dom, t2.dom) and similar(t1.cod, t2.cod)
    return False


# ---------------------------------------------------------------------------
# Checker

# Shared by every checker, so that traces reuse each other's premises.  A
# verdict depends on the mode, the oracle and the budget, and all three are
# part of the key.
VERDICT_CACHE_LIMIT = 4096
_REPLAY_CACHE: dict[tuple[Mode, ImplicationOracle, int, str, str], Union[bool, str]] = {}

_TRUE = Const(True)  # the goal of a premise, one node so that its canon is cached


# judgment keys in the checker memo, besides expected type objects
_WELL_FORMED = "wf"
_INFERRED = "type"

# the forms with checking rules of their own; every other form is checked
# by inferring its type and comparing
_CHECKING_FORMS = (Const, Blame, Abs, Cond, App)

# the runtime forms whose rules replay a child instead of typing it, so that
# what they judge depends on the shape of everything below it
REPLAYING = (ActiveCheck, CoercionStack)


# a `Memo` is emptied at `2 * MEMO_LIMIT` nodes: checking the classic value
# loop at n = 2000 peaks at 0.52 MB of tracemalloc with it, and no loop
# iteration of the examples judges as many nodes
MEMO_LIMIT = 256


class Memo(dict):
    """A map from nodes, by identity, to values, emptied when full (see Memoization)."""

    __slots__ = ()

    def put(self, node, value) -> None:
        if len(self) >= 2 * MEMO_LIMIT:
            self.clear()
        self[node] = value


def _remember(cache: dict, key: tuple, verdict: Union[bool, str]) -> None:
    if len(cache) >= VERDICT_CACHE_LIMIT:
        del cache[next(iter(cache))]  # dicts keep insertion order: oldest first
    cache[key] = verdict


@dataclass
class Checker:
    mode: Mode
    source: bool = False
    oracle: ImplicationOracle = DEFAULT_ORACLE
    budget: int = PREDICATE_BUDGET
    # node -> {judgment key: result}, for the successful judgments only
    _memo: Memo = field(default_factory=Memo, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # types refinement predicates: self, or a source checker's runtime twin
        self._runtime = Checker(self.mode, False, self.oracle, self.budget) if self.source else self

    def _note(self, node, key, result) -> None:
        facts = self._memo.get(node)
        if facts is None:
            self._memo.put(node, {key: result})
        else:
            facts[key] = result

    # -- predicate replay

    def _reaches(self, start: Term, goal: Term, path: str) -> bool:
        """Whether start steps to goal (up to alpha) in at most `budget`
        steps, as `Machine.eval` would run it; a premise is `_reaches(instance,
        _TRUE, path)`."""

        key = (self.mode, self.oracle, self.budget, canon(start), canon(goal))
        hit = _REPLAY_CACHE.get(key)
        if hit is None:
            hit = self._replay(start, goal)
            _remember(_REPLAY_CACHE, key, hit)
        if hit == "budget":
            raise TypeCheckError(NOT_SIMILAR, path, "predicate evaluation exceeded the step budget")
        return bool(hit)

    def _replay(self, start: Term, goal: Term) -> Union[bool, str]:
        mach = Machine(self.mode, self.oracle)
        term, steps = start, 0
        while not alpha_eq(term, goal):
            out = mach.step(term)
            if not isinstance(out, Stepped):
                return isinstance(out, IsBlame) and isinstance(goal, Blame) and goal.label == out.label
            if steps == self.budget:
                return "budget"
            term, steps = out.term, steps + 1
        return True

    # -- well-formedness

    def wf_type(self, t: Type, path: str = "") -> None:
        facts = self._memo.get(t)
        if facts is None or _WELL_FORMED not in facts:
            self._wf_type(t, path)
            self._note(t, _WELL_FORMED, True)

    def _wf_type(self, t: Type, path: str) -> None:
        if isinstance(t, Refinement):
            if is_raw(t):
                return  # WF-Base: raw types are axiomatically well formed
            pred_t = self._runtime.infer({t.binder: raw(t.base)}, t.predicate, path + "/pred")
            if not (isinstance(pred_t, Refinement) and pred_t.base is BaseType.BOOL):
                raise TypeCheckError(PREDICATE_NOT_BOOL, path, "refinement predicate is not boolean")
            return
        self.wf_type(t.dom, path + "/dom")
        self.wf_type(t.cod, path + "/cod")

    def wf_annotation(self, ann, t1: Type, t2: Type, path: str = "") -> None:
        self.wf_type(t1, path + "/src")
        self.wf_type(t2, path + "/tgt")
        if not similar(t1, t2):
            raise TypeCheckError(NOT_SIMILAR, path, "cast between dissimilar types")
        kind = type(ann)
        if kind is EmptyAnn:
            return
        if kind not in ANNOTATIONS[self.mode]:
            raise TypeCheckError(ILL_FORMED_ANNOTATION, path, FOREIGN_ANNOTATION[kind])
        if kind is Types:
            for t in ann.members:
                self.wf_type(t, path + "/set")
                if not similar(t, t1):
                    raise TypeCheckError(ILL_FORMED_ANNOTATION, path, "type-set member dissimilar to the cast")
            return
        self._wf_coercion(ann, t1, t2, path)

    def _wf_coercion(self, c: Coercion, t1: Type, t2: Type, path: str) -> None:
        if isinstance(c, Refs):
            if not (isinstance(t1, Refinement) and isinstance(t2, Refinement)):
                raise TypeCheckError(ILL_FORMED_ANNOTATION, path, "refinement list on a function cast")
            self._wf_reflist(c.entries, t2.base, path, "refinement list")
            if not any(implies(self.oracle, entry.ref, t2) for entry in c.entries):
                raise TypeCheckError(ILL_FORMED_ANNOTATION, path, "no entry implies the target refinement")
            return
        if not (isinstance(t1, Fun) and isinstance(t2, Fun)):
            raise TypeCheckError(ILL_FORMED_ANNOTATION, path, "function coercion on a refinement cast")
        self._wf_coercion(c.dom, t2.dom, t1.dom, path + "/dom")
        self._wf_coercion(c.cod, t1.cod, t2.cod, path + "/cod")

    def _wf_reflist(self, entries: tuple[RefEntry, ...], base: BaseType, path: str, what: str) -> None:
        """Each entry a well-formed refinement at base, none twice."""

        seen: set[str] = set()
        for entry in entries:
            if not (isinstance(entry.ref, Refinement) and entry.ref.base is base):
                raise TypeCheckError(ILL_FORMED_ANNOTATION, path, f"{what} entry at the wrong base type")
            self.wf_type(entry.ref, path + "/entry")
            key = canon(entry.ref)
            if key in seen:
                raise TypeCheckError(ILL_FORMED_ANNOTATION, path, f"duplicate refinement in {what}")
            seen.add(key)

    # -- typing

    def infer(self, env: Mapping[str, Type], e: Term, path: str = "") -> Type:
        if env:
            return self._infer_rule(env, e, path)
        facts = self._memo.get(e)
        if facts is not None:
            t = facts.get(_INFERRED)
            if t is not None:
                return t
        if type(e) is Cast:
            self._infer_below(e)
        t = self._infer_rule(env, e, path)
        self._note(e, _INFERRED, t)
        return t

    def _infer_rule(self, env: Mapping[str, Type], e: Term, path: str) -> Type:
        # casts first: they are the most frequent form in trace terms, and
        # each branch takes one form, so the order decides speed only
        if isinstance(e, Cast):
            if self.source:
                if not isinstance(e.ann, EmptyAnn):
                    raise TypeCheckError(SOURCE_VIOLATION, path, "source casts carry empty annotations")
                if e.label is None:
                    raise TypeCheckError(SOURCE_VIOLATION, path, "source casts carry named blame labels")
            self.wf_annotation(e.ann, e.src, e.tgt, path)
            self.check(env, e.subject, e.src, path + "/subject")
            return e.tgt
        if isinstance(e, Var):
            if e.name not in env:
                raise TypeCheckError(UNBOUND_VAR, path, f"unbound variable {e.name!r}")
            return env[e.name]
        if isinstance(e, Const):
            return raw(e.base)
        if isinstance(e, Abs):
            self.wf_type(e.annot, path + "/annot")
            body_t = self.infer({**env, e.binder: e.annot}, e.body, path + "/body")
            return Fun(e.annot, body_t)
        if isinstance(e, Fix):
            self.wf_type(e.annot, path + "/annot")
            self.check({**env, e.binder: e.annot}, e.body, e.annot, path + "/body")
            return e.annot
        if isinstance(e, App):
            fn_t = self.infer(env, e.fn, path + "/fn")
            if not isinstance(fn_t, Fun):
                raise TypeCheckError(NOT_A_FUNCTION, path, "application of a non-function")
            self.check(env, e.arg, fn_t.dom, path + "/arg")
            return fn_t.cod
        if isinstance(e, Op):
            doms, cod = op_signature(e.name)
            if len(doms) != len(e.args):
                raise TypeCheckError(OP_ARITY, path, f"{e.name!r} expects {len(doms)} arguments")
            for i, (arg, dom) in enumerate(zip(e.args, doms)):
                self.check(env, arg, dom, f"{path}/arg{i}")
            return cod
        if isinstance(e, Cond):
            self._check_guard(env, e.guard, path + "/guard")
            try:
                t = self.infer(env, e.then, path + "/then")
            except TypeCheckError:
                t = self.infer(env, e.orelse, path + "/else")
                self.check(env, e.then, t, path + "/then")
                return t
            self.check(env, e.orelse, t, path + "/else")
            return t
        if isinstance(e, Blame):
            if self.source:
                raise TypeCheckError(SOURCE_VIOLATION, path, "blame is a runtime-only form")
            raise TypeCheckError(ILL_FORMED_TYPE, path, "cannot infer a type for blame")
        if isinstance(e, ActiveCheck):
            if self.source:
                raise TypeCheckError(SOURCE_VIOLATION, path, "active checks are runtime-only forms")
            return self._infer_check_form(e, path)
        if isinstance(e, CoercionStack):
            if self.source:
                raise TypeCheckError(SOURCE_VIOLATION, path, "coercion stacks are runtime-only forms")
            return self._infer_stack(e, path)
        raise TypeCheckError(ILL_FORMED_TYPE, path, f"unknown term {type(e).__name__}")

    def _infer_below(self, e: Cast) -> None:
        """Infer the casts below e whose types are not in the memo, deepest first,
        without recursing; an error is left for e's own rule to raise, with its path."""

        chain = []
        while type(e := e.subject) is Cast and _INFERRED not in (self._memo.get(e) or ()):
            chain.append(e)
        try:
            for cast in reversed(chain):
                self.infer({}, cast)
        except TypeCheckError:
            pass

    def _check_guard(self, env: Mapping[str, Type], guard: Term, path: str) -> None:
        if isinstance(guard, Blame) and not self.source:
            return
        t = self.infer(env, guard, path)
        if not (isinstance(t, Refinement) and t.base is BaseType.BOOL):
            raise TypeCheckError(PREDICATE_NOT_BOOL, path, "conditional guard is not boolean")

    def check(self, env: Mapping[str, Type], e: Term, t: Type, path: str = "") -> None:
        if env:
            self._check_rule(env, e, t, path)
            return
        facts = self._memo.get(e)
        if facts is None or t not in facts:
            self._check_rule(env, e, t, path)
            self._note(e, t, True)

    def _check_rule(self, env: Mapping[str, Type], e: Term, t: Type, path: str) -> None:
        if isinstance(e, _CHECKING_FORMS):
            if isinstance(e, Const):
                if not isinstance(t, Refinement):
                    raise TypeCheckError(NOT_SIMILAR, path, "constant checked against a function type")
                if e.base is not t.base:
                    raise TypeCheckError(NOT_SIMILAR, path, "constant at the wrong base type")
                if is_raw(t):
                    return
                if self.source:
                    raise TypeCheckError(SOURCE_VIOLATION, path, "source constants have raw types")
                self.wf_type(t, path)
                if not self._reaches(subst(t.predicate, t.binder, e), _TRUE, path):
                    raise TypeCheckError(NOT_SIMILAR, path, "constant does not satisfy the refinement")
                return
            if isinstance(e, Blame):
                if self.source:
                    raise TypeCheckError(SOURCE_VIOLATION, path, "blame is a runtime-only form")
                self.wf_type(t, path)
                return
            if isinstance(e, Abs) and isinstance(t, Fun):
                if not alpha_eq(e.annot, t.dom):
                    raise TypeCheckError(NOT_SIMILAR, path, "lambda annotation differs from the expected domain")
                self.wf_type(e.annot, path + "/annot")
                self.check({**env, e.binder: e.annot}, e.body, t.cod, path + "/body")
                return
            if isinstance(e, Cond):
                self._check_guard(env, e.guard, path + "/guard")
                self.check(env, e.then, t, path + "/then")
                self.check(env, e.orelse, t, path + "/else")
                return
            if isinstance(e, App) and isinstance(e.fn, Abs):
                # push the expected type through the redex so substituted
                # constants can be checked against refined codomains
                self.check(env, e.fn, Fun(e.fn.annot, t), path + "/fn")
                self.check(env, e.arg, e.fn.annot, path + "/arg")
                return
            if isinstance(e, App) and isinstance(e.fn, Blame) and not self.source:
                # blame stands at any type, including function types
                self.wf_type(t, path)
                if not isinstance(e.arg, Blame):
                    self.infer(env, e.arg, path + "/arg")
                return
        inferred = self.infer(env, e, path)
        if not alpha_eq(inferred, t):
            raise TypeCheckError(NOT_SIMILAR, path, "inferred type differs from the expected type")

    def _child_type(self, e: Term, i: int) -> Optional[Type]:
        """The type every rule checks e's i-th child against, where that is
        all they read of it; None where they infer or replay it."""

        kind = type(e)
        if kind is Cast:
            return e.src
        if kind is Op:
            return op_signature(e.name)[0][i]
        if kind is not App or i == 0 or type(e.fn) is Blame:
            return None
        if type(e.fn) is Abs:
            return e.fn.annot
        fn_t = self.infer({}, e.fn)
        return fn_t.dom if type(fn_t) is Fun else None

    # -- runtime forms

    def _infer_check_form(self, e: ActiveCheck, path: str) -> Type:
        self.wf_type(e.tgt, path + "/tgt")
        if type(e.scrutinee) is not Const:
            raise TypeCheckError(NOT_SIMILAR, path, "active-check scrutinee is not a constant")
        if e.scrutinee.base is not e.tgt.base:
            raise TypeCheckError(NOT_SIMILAR, path, "active-check scrutinee at the wrong base type")
        start = subst(e.tgt.predicate, e.tgt.binder, e.scrutinee)
        if not self._reaches(start, e.current, path):
            raise TypeCheckError(NOT_SIMILAR, path, "active-check state unreachable from the predicate")
        return e.tgt

    def _infer_stack(self, e: CoercionStack, path: str) -> Type:
        self.wf_type(e.tgt, path + "/tgt")
        if type(e.scrutinee) is not Const:
            raise TypeCheckError(NOT_SIMILAR, path, "stack scrutinee is not a constant")
        if e.scrutinee.base is not e.tgt.base:
            raise TypeCheckError(NOT_SIMILAR, path, "stack scrutinee at the wrong base type")
        self._wf_reflist(e.pending, e.tgt.base, path, "stack")
        if isinstance(e.current, Blame):
            pass  # a failed inner check raises out of the stack on the next step
        elif isinstance(e.current, ActiveCheck):
            if type(e.current.scrutinee) is not Const or e.current.scrutinee.value != e.scrutinee.value:
                raise TypeCheckError(NOT_SIMILAR, path, "stack check on a different scrutinee")
            self._infer_check_form(e.current, path + "/current")
        elif not (isinstance(e.current, Const) and e.current.value == e.scrutinee.value):
            raise TypeCheckError(NOT_SIMILAR, path, "stack term is neither the scrutinee nor a check on it")
        if e.status is Status.UNCHECKED:
            if not any(implies(self.oracle, entry.ref, e.tgt) for entry in e.pending):
                raise TypeCheckError(ILL_FORMED_ANNOTATION, path, "unchecked target not covered by the pending list")
        else:
            # no premise while the target's own check is running or has raised
            in_flight = isinstance(e.current, Blame) or (
                isinstance(e.current, ActiveCheck) and alpha_eq(e.current.tgt, e.tgt)
            )
            if not in_flight and not self._reaches(subst(e.tgt.predicate, e.tgt.binder, e.scrutinee), _TRUE, path):
                raise TypeCheckError(NOT_SIMILAR, path, "checked status but the target predicate fails")
        return e.tgt


# ---------------------------------------------------------------------------
# Entry points


def type_of(mode: Mode, env: Mapping[str, Type], e: Term) -> Type:
    return Checker(mode).infer(env, e)


def check_source(e: Term) -> Type:
    """Type e in all four modes under the source discipline; the results agree."""

    result: Optional[Type] = None
    for mode in ALL_MODES:
        t = Checker(mode, source=True).infer({}, e)
        if result is None:
            result = t
        elif not alpha_eq(result, t):
            raise TypeCheckError(NOT_SIMILAR, "", f"modes disagree on the program type ({mode.value})")
    assert result is not None
    return result
