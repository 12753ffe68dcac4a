"""Mode-indexed small-step machine.

One shared syntax, four semantics: classic checks everything and merges
nothing, forgetful drops intermediate casts, heedful accumulates type sets,
eidetic compiles casts to coercions and drains them on a stack.

`Machine.step` is the reference stepper: it finds the unique redex by recursion
from the root and reports the rule that fired.  `Machine.eval` runs the same
rules over an explicit evaluation context, so a step costs work proportional to
the local change instead of a root-to-redex walk.  A context is its innermost
`Frame`, or None when empty: a frame is a node with a hole at one child and
the frames around it (`rest`), and it rebuilds the node through the shape
table of `syntax` (`with_child`).

Both find a node's local rule in one table per mode, keyed by the node's
class (`_RULES`).  Only the cast rule differs between modes; it, the proxy
judgment (`_PROXIES`) and the merge of a cast over a cast (`_MERGES`) are
picked when the `Machine` is made, so no rule tests the mode again.  Classes
are compared with `is`, since no term, type, annotation or coercion class has
a subclass.  An eidetic cast is annotated with its coercion itself.

Heedful's E-CheckSet checks a type set one member at a time, in the order
`choose` takes them: first to last (`lex-min`) or last to first (`lex-max`)
in the `canon` order that `syntax.Types` keeps.  So a heedful run, like every
other, depends on the term only up to alpha-equivalence.

`E-Fix` unrolls a `Fix` once (`syntax.unroll`): the body is cached on the
node, and each iteration of a loop steps to the same body.  Substitution is a
function of its arguments, so the body depends on the node alone, not on the
mode, and what the meter caches on its nodes depends on those nodes alone.
`E-Beta` of a constant runs the lambda's plan from that body
(`syntax.unroll`), if any.

A traced run records one `TraceStep` per step, holding the rule, and the
context and focus just after the step: O(1) work and memory per step, as
contexts share their tails.  A step's number is its position in the trace.
`TraceStep.term` plugs the focus back into the context when it is read, in
O(depth), and gives the same term, with the same shared nodes, as rebuilding
it at the step would.
`Outcome.trace_terms()` is a read-only sequence over those terms that builds
one only when it is read; `harness.check_trace` reads its contexts and foci
(`TraceTerms.contexts`) instead, and builds only what a step changed.

An observer passed to `Machine.eval` sees every transition as four events:
`start(root)` once; `push(frame, child)` after descending from the frame's
node to its child; `step(rule, ctx, old, new)` when the focus `old` steps to
`new` under context `ctx`; and `pop(frame, child, rebuilt)` when the focus
`child` is plugged back into the frame, giving `rebuilt`.  Pushes and pops
nest, and a run that ends in a value or blame pops every frame it pushed.
`metering.Meter` is one such observer.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .syntax import (
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
    EMPTY_ANN,
    EMPTY_TYPES,
    Fix,
    Fun,
    FunC,
    Label,
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
    raw,
    subst,
    unroll,
    with_child,
)

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# Implication oracle


# A decidable pre-order on refinements; adequacy is assumed, not checked.
ImplicationOracle = Callable[[Refinement, Refinement], bool]

DEFAULT_ORACLE: ImplicationOracle = alpha_eq


def axiom_oracle(axioms: list[tuple[Refinement, Refinement]]) -> ImplicationOracle:
    """Close a finite axiom list under reflexivity and transitivity."""

    edges: dict[str, set[str]] = {}
    for lhs, rhs in axioms:
        edges.setdefault(canon(lhs), set()).add(canon(rhs))
    # transitive closure over the finitely many mentioned types
    changed = True
    while changed:
        changed = False
        for src, outs in edges.items():
            extra = set().union(*(edges.get(t, set()) for t in outs)) - outs
            if extra:
                outs |= extra
                changed = True

    def decide(t1: Refinement, t2: Refinement) -> bool:
        if alpha_eq(t1, t2):
            return True
        return canon(t2) in edges.get(canon(t1), ())

    return decide


def implies(oracle: ImplicationOracle, t1: Refinement, t2: Refinement) -> bool:
    if t1.base is not t2.base:
        raise ValueError("implication is only defined at a single base type")
    return oracle(t1, t2)


# ---------------------------------------------------------------------------
# choose


# a policy splits a type set's members, in `canon` order, into the one chosen
# and the rest; under lex-max the rest is every member but the last
CHOOSE_POLICIES: dict[str, Callable] = {
    "lex-min": lambda m: (m[0], m[1:]),
    "lex-max": lambda m: (m[-1], m[:-1]),
}


def choose(s: Types, policy: str = "lex-min") -> tuple[Type, Types]:
    """The member of s first (lex-min) or last (lex-max) in `canon` order, as
    policy says, and the other members."""

    if not s.members:
        raise ValueError("choose: empty type set")
    chosen, rest = CHOOSE_POLICIES[policy](s.members)
    return chosen, Types(rest)


# ---------------------------------------------------------------------------
# Annotation algebra


def split_annotation(ann) -> tuple:
    """dom/cod of a cast annotation, for unwrapping function proxies."""

    if isinstance(ann, EmptyAnn):
        return EMPTY_ANN, EMPTY_ANN
    if isinstance(ann, Types):
        doms, cods = [], []
        for t in ann.members:
            if type(t) is not Fun:
                raise ValueError("split_annotation: type-set member is not a function type")
            doms.append(t.dom)
            cods.append(t.cod)
        return Types.of(doms), Types.of(cods)
    assert isinstance(ann, FunC), "split_annotation: coercion is not a function coercion"
    return ann.dom, ann.cod


def coerce(t1: Type, t2: Type, label: str) -> Coercion:
    """Compile the cast <t1 => t2>^label to the coercion doing the same checks."""

    if isinstance(t1, Refinement) and isinstance(t2, Refinement):
        return Refs((RefEntry(t2, label),))
    if isinstance(t1, Fun) and isinstance(t2, Fun):
        return FunC(coerce(t2.dom, t1.dom, label), coerce(t1.cod, t2.cod, label))
    raise ValueError("coerce: dissimilar types")


def ref_drop(entries: tuple[RefEntry, ...], t: Refinement, oracle: ImplicationOracle = DEFAULT_ORACLE) -> tuple[RefEntry, ...]:
    """r \\ t: remove every entry whose refinement is implied by t."""

    return tuple(e for e in entries if not implies(oracle, t, e.ref))


def merge_refs(
    r1: tuple[RefEntry, ...], r2: tuple[RefEntry, ...], oracle: ImplicationOracle = DEFAULT_ORACLE
) -> tuple[RefEntry, ...]:
    if not r1:
        return r2
    head, rest = r1[0], r1[1:]
    return (head,) + ref_drop(merge_refs(rest, r2, oracle), head.ref, oracle)


def coercion_merge(c1: Coercion, c2: Coercion, oracle: ImplicationOracle = DEFAULT_ORACLE) -> Coercion:
    """c1 |> c2: compose checking plans, keeping the leftmost label on collisions."""

    if isinstance(c1, Refs) and isinstance(c2, Refs):
        return Refs(merge_refs(c1.entries, c2.entries, oracle))
    if isinstance(c1, FunC) and isinstance(c2, FunC):
        return FunC(coercion_merge(c2.dom, c1.dom, oracle), coercion_merge(c1.cod, c2.cod, oracle))
    raise ValueError("coercion_merge: mismatched coercion shapes")


def merge(mode: Mode, a1, t2: Type, a2, oracle: ImplicationOracle = DEFAULT_ORACLE):
    """Merge the annotations a1 and a2 of two adjacent casts that meet at t2,
    or None where undefined."""

    return _MERGES[mode](a1, t2, a2, oracle)


def status_join(s: Status, e_target: Term, e_popped: Term) -> Status:
    if s is Status.CHECKED:
        return Status.CHECKED
    return Status.CHECKED if alpha_eq(e_target, e_popped) else Status.UNCHECKED


# ---------------------------------------------------------------------------
# Operations


class OpUndefined(Exception):
    """The denotation excludes these arguments (e.g. division by zero)."""


class OverflowFault(Exception):
    """64-bit signed overflow; a runtime fault distinct from blame."""


def _want_int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise OpUndefined("integer argument expected")
    return v


def _want_bool(v) -> bool:
    if not isinstance(v, bool):
        raise OpUndefined("boolean argument expected")
    return v


def _clamp(n: int) -> int:
    if n < INT_MIN or n > INT_MAX:
        raise OverflowFault(str(n))
    return n


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise OpUndefined("mod by zero")
    return a % b


def _div(a: int, b: int) -> int:
    if b == 0:
        raise OpUndefined("division by zero")
    return _clamp(a // b)


_INT = raw(BaseType.INT)
_BOOL = raw(BaseType.BOOL)
_NONZERO = Refinement("y", BaseType.INT, Op("<>", (Var("y"), Const(0))))

# Each operator's domain types, codomain type and denotation; the
# typechecker reads the types and the machine the denotation.  The domains
# guard the denotations' partiality: `div` and `mod` demand a nonzero
# divisor, so a well-typed term never divides by zero.  Each denotation
# still tests its arguments' base types, as the machine also runs untyped
# terms: a generic check against the domains took 2.7 us per `apply_op`
# against 1.4 us (Python 3.11).
OPS: dict[str, tuple[tuple[Refinement, ...], Refinement, Callable]] = {
    "not": ((_BOOL,), _BOOL, lambda a: not _want_bool(a)),
    "&&": ((_BOOL, _BOOL), _BOOL, lambda a, b: _want_bool(a) and _want_bool(b)),
    "||": ((_BOOL, _BOOL), _BOOL, lambda a, b: _want_bool(a) or _want_bool(b)),
    "=": ((_INT, _INT), _BOOL, lambda a, b: _want_int(a) == _want_int(b)),
    "<>": ((_INT, _INT), _BOOL, lambda a, b: _want_int(a) != _want_int(b)),
    "<": ((_INT, _INT), _BOOL, lambda a, b: _want_int(a) < _want_int(b)),
    "<=": ((_INT, _INT), _BOOL, lambda a, b: _want_int(a) <= _want_int(b)),
    ">": ((_INT, _INT), _BOOL, lambda a, b: _want_int(a) > _want_int(b)),
    ">=": ((_INT, _INT), _BOOL, lambda a, b: _want_int(a) >= _want_int(b)),
    "+": ((_INT, _INT), _INT, lambda a, b: _clamp(_want_int(a) + _want_int(b))),
    "-": ((_INT, _INT), _INT, lambda a, b: _clamp(_want_int(a) - _want_int(b))),
    "*": ((_INT, _INT), _INT, lambda a, b: _clamp(_want_int(a) * _want_int(b))),
    "mod": ((_INT, _NONZERO), _INT, lambda a, b: _mod(_want_int(a), _want_int(b))),
    "div": ((_INT, _NONZERO), _INT, lambda a, b: _div(_want_int(a), _want_int(b))),
}


def apply_op(name: str, args: list[Const]) -> Const:
    """The mathematical denotation; partial exactly where the signature says so."""

    op = OPS.get(name)
    if op is None:
        raise OpUndefined(f"unknown operation {name!r}")
    if len(args) != len(op[0]):
        raise OpUndefined(f"{name!r} expects {len(op[0])} arguments")
    return Const(op[2](*(a.value for a in args)))


# ---------------------------------------------------------------------------
# Step outcomes


@dataclass(frozen=True)
class Stepped:
    term: Term
    rule: str


@dataclass(frozen=True)
class IsValue:
    pass


@dataclass(frozen=True)
class IsBlame:
    label: Label


@dataclass(frozen=True)
class Stuck:
    reason: str


StepOutcome = Union[Stepped, IsValue, IsBlame, Stuck]


class OutcomeKind(enum.Enum):
    VALUE = "value"
    BLAME = "blame"
    BUDGET = "budget-exceeded"
    STUCK = "stuck"


class TraceStep:
    """One machine step: the rule that fired, and the context and focus just
    after it.  `term` plugs the focus back into the context, so recording a
    step is O(1) and reading `term` is O(depth)."""

    __slots__ = ("rule", "_ctx", "_focus")

    def __init__(self, rule: str, ctx: Context, focus: Term):
        self.rule = rule
        self._ctx = ctx
        self._focus = focus

    @property
    def term(self) -> Term:
        return plug(self._ctx, self._focus)

    def __repr__(self) -> str:
        return f"TraceStep(rule={self.rule!r}, term={self.term!r})"


@dataclass(frozen=True)
class Outcome:
    kind: OutcomeKind
    term: Optional[Term] = None
    label: Label = None
    steps: int = 0
    stuck_reason: Optional[str] = None
    trace: Optional[tuple[TraceStep, ...]] = None
    initial: Optional[Term] = None

    def trace_terms(self) -> TraceTerms:
        assert self.trace is not None and self.initial is not None
        return TraceTerms(self.initial, self.trace)


class TraceTerms(Sequence):
    """The initial term, then the term after each step: a read-only sequence
    that builds a term (`TraceStep.term`) each time one is read."""

    def __init__(self, initial: Term, trace: tuple[TraceStep, ...]):
        self.initial, self.trace = initial, trace

    def __len__(self) -> int:
        return len(self.trace) + 1

    def __getitem__(self, i):
        i = range(len(self))[i]  # IndexError out of range; negative from the end
        if isinstance(i, range):
            return [self[j] for j in i]
        return self.trace[i - 1].term if i else self.initial

    def contexts(self) -> Iterator[tuple[Context, Term]]:
        """(context, focus) of each term, as the machine recorded them."""

        yield None, self.initial
        for s in self.trace:
            yield s._ctx, s._focus


# ---------------------------------------------------------------------------
# Evaluation frames


class Frame:
    """A node with a hole at its `index`-th child (in `children` order),
    inside the frames `rest`: a frame is the context it is innermost in."""

    __slots__ = ("orig", "index", "rest")

    def __init__(self, orig: Term, index: int, rest: Context):
        self.orig = orig
        self.index = index
        self.rest = rest

    def rebuild(self, child: Term) -> Term:
        return with_child(self.orig, self.index, child)


# An evaluation context: None when empty, else its innermost frame.  Nothing
# is updated in place, so a context recorded in a trace stays valid while the
# machine runs on.
Context = Optional[Frame]


def plug(ctx: Context, focus: Term, upto: Context = None) -> Term:
    """focus rebuilt through the frames of ctx, innermost first, up to upto."""

    while ctx is not upto:
        focus = ctx.rebuild(focus)
        ctx = ctx.rest
    return focus


# Local decisions, shared by the reference stepper and the machine.  A
# descent is (_DESCEND, node, index, child): step the node's index-th child.

_DESCEND = "descend"
_STEP = "step"
_VALUE = "value"
_BLAME = "blame"
_STUCK = "stuck"


class Machine:
    """One evaluator: a mode plus its implication oracle and choose policy."""

    def __init__(self, mode: Mode, oracle: ImplicationOracle = DEFAULT_ORACLE, choose_policy: str = "lex-min"):
        self.mode = mode
        self.oracle = oracle
        self.choose_policy = choose_policy
        # the mode's local rules by node class, proxy judgment, merge and the
        # annotation classes its casts carry once annotated (see _RULES below)
        self._rules = _RULES[mode]
        self._proxy = _PROXIES[mode]
        self._merge = _MERGES[mode]
        self._ann = ANNOTATIONS[mode]
        self._judged = f"_value_{mode.value}"  # where a proxy keeps its value judgment

    # -- value judgment

    def is_value(self, e: Term) -> bool:
        if type(e) is not Cast or type(e.src) is not Fun:
            return type(e) is Const or type(e) is Abs
        # a chain of proxies, as long as a classic loop runs: each keeps its
        # judgment, named for the mode, as modes share terms
        chain = ()
        while type(e) is Cast and type(e.src) is Fun and type(e.tgt) is Fun and self._proxy(self, e):
            if (value := e.__dict__.get(self._judged)) is not None:
                break
            chain += (e,)
            e = e.subject
        else:
            value = type(e) is Const or type(e) is Abs
        for proxy in chain:
            proxy.__dict__[self._judged] = value
        return value

    # -- local rules: what happens at a node of each class, ignoring its context

    def _local(self, e: Term):
        return self._rules.get(type(e), Machine._unknown)(self, e)

    def _unknown(self, e: Term):
        return (_STUCK, f"unknown term {type(e).__name__}")

    def _app(self, e: App):
        fn, arg = e.fn, e.arg
        if type(fn) is Blame:
            return (_STEP, Blame(fn.label), "E-AppRaiseL")
        if not self.is_value(fn):
            return (_DESCEND, e, 0, fn)
        if type(arg) is Blame:
            return (_STEP, Blame(arg.label), "E-AppRaiseR")
        if not self.is_value(arg):
            return (_DESCEND, e, 1, arg)
        if type(fn) is Abs:
            plan = type(arg) is Const and getattr(fn, "_plan", None)
            return (_STEP, plan(fn.body, arg) if plan else subst(fn.body, fn.binder, arg), "E-Beta")
        if type(fn) is Cast:
            try:
                return (_STEP, self._unwrap(fn, arg), "E-Unwrap")
            except ValueError:  # a heedful type set with a member of another shape
                return (_STUCK, "type-set member dissimilar to the cast")
        return (_STUCK, "application of a non-function value")

    def _op(self, e: Op):
        for i, arg in enumerate(e.args):
            if type(arg) is Blame:
                return (_STEP, Blame(arg.label), "E-OpRaise")
            if not self.is_value(arg):
                return (_DESCEND, e, i, arg)
        if not all(type(a) is Const for a in e.args):
            return (_STUCK, f"operation {e.name!r} applied to a non-constant")
        try:
            return (_STEP, apply_op(e.name, list(e.args)), "E-Op")
        except OpUndefined as exc:
            return (_STUCK, f"operation {e.name!r} undefined: {exc}")
        except OverflowFault:
            return (_STUCK, f"integer overflow in {e.name!r}")

    def _cond(self, e: Cond):
        guard = e.guard
        if type(guard) is Blame:
            return (_STEP, Blame(guard.label), "E-IfRaise")
        if not self.is_value(guard):
            return (_DESCEND, e, 0, guard)
        if type(guard) is Const and type(guard.value) is bool:
            return (_STEP, e.then, "E-IfTrue") if guard.value else (_STEP, e.orelse, "E-IfFalse")
        return (_STUCK, "conditional guard is not a boolean")

    def _check(self, e: ActiveCheck):
        cur = e.current
        if type(cur) is Const and type(cur.value) is bool:
            return (_STEP, e.scrutinee, "E-CheckOK") if cur.value else (_STEP, Blame(e.label), "E-CheckFail")
        if type(cur) is Blame:
            return (_STEP, Blame(cur.label), "E-CheckRaise")
        if not self.is_value(cur):
            return (_DESCEND, e, 0, cur)
        return (_STUCK, "active check reduced to a non-boolean value")

    def _stack(self, e: CoercionStack):
        cur = e.current
        if type(cur) is Blame:
            return (_STEP, Blame(cur.label), "E-StackRaise")
        if type(cur) is Const:
            if e.pending:
                return (_STEP, self._stack_pop(e), "E-StackPop")
            return (_STEP, cur, "E-StackDone")
        if not self.is_value(cur):
            return (_DESCEND, e, 0, cur)
        return (_STUCK, "coercion stack reduced to a non-constant value")

    def _cast_heedful(self, e: Cast):
        if type(e.ann) is EmptyAnn:  # annotate source casts first
            return (_STEP, Cast(e.src, EMPTY_TYPES, e.tgt, e.label, e.subject), "E-TypeSet")
        return self._cast(e)

    def _cast_eidetic(self, e: Cast):
        if type(e.ann) is EmptyAnn:  # annotate source casts first
            if e.label is None:
                return (_STUCK, "eidetic cast with empty annotation and empty label")
            try:
                return (_STEP, Cast(e.src, coerce(e.src, e.tgt, e.label), e.tgt, None, e.subject), "E-Coerce")
            except ValueError:
                return (_STUCK, "cast between dissimilar types")
        return self._cast(e)

    def _cast(self, e: Cast):
        subject = e.subject
        # 1. raise blame out of the subject
        if type(subject) is Blame:
            return (_STEP, Blame(subject.label), "E-CastRaise")
        # 2. merge adjacent casts whenever the mode can
        if type(subject) is Cast:
            try:
                merged = self._merge(subject.ann, subject.tgt, e.ann, self.oracle)
            except ValueError as exc:  # eidetic coercions that do not compose
                return (_STUCK, f"cast over a cast whose coercions do not compose: {exc}")
            if merged is not None:
                return (_STEP, Cast(subject.src, merged, e.tgt, e.label, subject.subject), "E-CastMergeE")
        # 3. otherwise step the subject
        if not self.is_value(subject):
            return (_DESCEND, e, 0, subject)
        # 4. subject is a value: check, stack, or stand as a proxy
        return self._cast_on_value(e)

    def _cast_on_value(self, e: Cast):
        src, tgt, ann = e.src, e.tgt, type(e.ann)
        if type(src) is Refinement and type(tgt) is Refinement:
            k = e.subject
            if type(k) is not Const:
                return (_STUCK, "refinement cast over a non-constant value")
            if ann not in self._ann:
                return (_STUCK, FOREIGN_ANNOTATION[ann])
            if ann is EmptyAnn:
                return (_STEP, self._start_check(tgt, k, e.label), "E-CheckNoneC")
            if ann is Types:
                if not e.ann.members:
                    return (_STEP, self._start_check(tgt, k, e.label), "E-CheckEmpty")
                chosen, rest = choose(e.ann, self.choose_policy)
                if type(chosen) is not Refinement:
                    return (_STUCK, "type-set member dissimilar to the cast")
                return (_STEP, Cast(chosen, rest, tgt, e.label, self._start_check(chosen, k, e.label)), "E-CheckSet")
            if ann is not Refs:
                return (_STUCK, "function coercion on a refinement cast")
            stack = CoercionStack(tgt, Status.UNCHECKED, e.ann.entries, k, k)
            return (_STEP, stack, "E-CoerceStack")
        if type(src) is Fun and type(tgt) is Fun:
            if self.is_value(e):
                return (_VALUE,)
            return (_STUCK, "function cast over an inadmissible value")
        return (_STUCK, "cast between dissimilar types")

    @staticmethod
    def _start_check(tgt: Refinement, k: Const, label: Label) -> ActiveCheck:
        return ActiveCheck(tgt, subst(tgt.predicate, tgt.binder, k), k, label)

    def _stack_pop(self, e: CoercionStack) -> CoercionStack:
        head, rest = e.pending[0], e.pending[1:]
        popped_pred = head.ref.predicate
        if head.ref.binder != e.tgt.binder:
            popped_pred = subst(popped_pred, head.ref.binder, Var(e.tgt.binder))
        status = status_join(e.status, e.tgt.predicate, popped_pred)
        check = self._start_check(head.ref, e.scrutinee, head.label)
        return CoercionStack(e.tgt, status, rest, e.scrutinee, check)

    def _unwrap(self, proxy: Cast, arg: Term) -> Term:
        assert isinstance(proxy.src, Fun) and isinstance(proxy.tgt, Fun)
        dom_ann, cod_ann = split_annotation(proxy.ann)
        inner = Cast(proxy.tgt.dom, dom_ann, proxy.src.dom, proxy.label, arg)
        return Cast(proxy.src.cod, cod_ann, proxy.tgt.cod, proxy.label, App(proxy.subject, inner))

    # -- reference stepper

    def step(self, e: Term) -> StepOutcome:
        act = self._local(e)
        tag = act[0]
        if tag == _VALUE:
            return IsValue()
        if tag == _BLAME:
            return IsBlame(act[1])
        if tag == _STUCK:
            return Stuck(act[1])
        if tag == _STEP:
            return Stepped(act[1], act[2])
        # descend: step the child and plug the result back in.  The child is
        # never blame: each node raises blame out of a child itself.
        _, node, i, child = act
        inner = self.step(child)
        if isinstance(inner, Stepped):
            return Stepped(with_child(node, i, inner.term), inner.rule)
        if isinstance(inner, Stuck):
            return inner
        raise AssertionError("descend target was a value or blame")

    # -- machine evaluation

    def eval(self, e: Term, budget: int, trace: bool = False, observer=None) -> Outcome:
        """Run e for at most `budget` steps.  `trace` records a `TraceStep`
        per step; `observer`, if given, sees every transition (see the
        module docstring)."""

        ctx: Context = None
        focus = e
        steps = 0
        recorded: Optional[list[TraceStep]] = [] if trace else None
        rules, unknown = self._rules, Machine._unknown
        if observer is not None:
            observer.start(focus)
        while True:
            act = rules.get(type(focus), unknown)(self, focus)  # as self._local(focus)
            tag = act[0]
            if tag == _DESCEND:
                ctx = Frame(act[1], act[2], ctx)
                focus = act[3]
                if observer is not None:
                    observer.push(ctx, focus)
                continue
            if tag == _STEP:
                if steps >= budget:
                    break
                new, rule = act[1], act[2]
                if observer is not None:
                    observer.step(rule, ctx, focus, new)
                focus = new
                steps += 1
                if recorded is not None:
                    recorded.append(TraceStep(rule, ctx, focus))
                if ctx is None or type(ctx.orig) is not Cast:
                    continue
                # the parent cast may now be able to merge or raise: pop it
            elif tag == _STUCK or ctx is None:
                break  # stuck, or a value or blame with no context left
            frame, ctx = ctx, ctx.rest  # pop: plug the focus back into its frame
            rebuilt = frame.rebuild(focus)
            if observer is not None:
                observer.pop(frame, focus, rebuilt)
            focus = rebuilt

        common = dict(steps=steps, initial=e, trace=None if recorded is None else tuple(recorded))
        if tag == _STEP:
            return Outcome(OutcomeKind.BUDGET, **common)
        if tag == _VALUE:
            return Outcome(OutcomeKind.VALUE, term=focus, **common)
        if tag == _BLAME:
            return Outcome(OutcomeKind.BLAME, label=act[1], **common)
        return Outcome(OutcomeKind.STUCK, stuck_reason=act[1], **common)


# A mode's local rules, by the class of the node they apply to.  Only the
# cast rule differs between modes: heedful and eidetic annotate a source cast
# before anything else.
_RULES: dict[Mode, dict[type, Callable]] = {
    mode: {
        Const: lambda m, e: (_VALUE,),
        Abs: lambda m, e: (_VALUE,),
        Blame: lambda m, e: (_BLAME, e.label),
        Var: lambda m, e: (_STUCK, f"free variable {e.name!r}"),
        Fix: lambda m, e: (_STEP, unroll(e), "E-Fix"),
        App: Machine._app,
        Op: Machine._op,
        Cond: Machine._cond,
        Cast: {Mode.HEEDFUL: Machine._cast_heedful, Mode.EIDETIC: Machine._cast_eidetic}.get(mode, Machine._cast),
        ActiveCheck: Machine._check,
        CoercionStack: Machine._stack,
    }
    for mode in Mode
}

# Whether a cast between function types may stand as a proxy around its
# subject, if the subject is a value: outside classic, only around a lambda.
_PROXIES: dict[Mode, Callable[[Machine, Cast], bool]] = {
    Mode.CLASSIC: lambda m, e: type(e.ann) is EmptyAnn,
    Mode.FORGETFUL: lambda m, e: type(e.ann) is EmptyAnn and type(e.subject) is Abs,
    Mode.HEEDFUL: lambda m, e: type(e.ann) is Types and type(e.subject) is Abs,
    Mode.EIDETIC: lambda m, e: type(e.ann) is FunC and e.label is None and type(e.subject) is Abs,
}

# How a mode merges the annotations of a cast over a cast (`merge`), None
# where it does not.
_COERCIONS = (Refs, FunC)
_MERGES: dict[Mode, Callable] = {
    Mode.CLASSIC: lambda a1, t2, a2, oracle: None,
    Mode.FORGETFUL: lambda a1, t2, a2, oracle: EMPTY_ANN if type(a1) is type(a2) is EmptyAnn else None,
    Mode.HEEDFUL: lambda a1, t2, a2, oracle: (
        Types.of(a1.members + a2.members + (t2,)) if type(a1) is type(a2) is Types else None
    ),
    Mode.EIDETIC: lambda a1, t2, a2, oracle: (
        coercion_merge(a1, a2, oracle) if type(a1) in _COERCIONS and type(a2) in _COERCIONS else None
    ),
}

# The annotation classes a mode's casts carry once annotated, and why a cast
# carrying another class is out of place; the typechecker reads both.
ANNOTATIONS = {Mode.CLASSIC: (EmptyAnn,), Mode.FORGETFUL: (EmptyAnn,), Mode.HEEDFUL: (Types,), Mode.EIDETIC: _COERCIONS}
FOREIGN_ANNOTATION = {
    Types: "type-set annotation outside heedful mode",
    **dict.fromkeys(_COERCIONS, "coercion annotation outside eidetic mode"),
}

_DEFAULT_MACHINES: dict[Mode, Machine] = {}


def machine(mode: Mode) -> Machine:
    if mode not in _DEFAULT_MACHINES:
        _DEFAULT_MACHINES[mode] = Machine(mode)
    return _DEFAULT_MACHINES[mode]


def eval_term(mode: Mode, e: Term, budget: int = 100_000, trace: bool = False) -> Outcome:
    return machine(mode).eval(e, budget, trace=trace)
