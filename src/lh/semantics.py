"""Mode-indexed small-step machine.

One shared syntax, four semantics: classic checks everything and merges
nothing, forgetful drops intermediate casts, heedful accumulates type sets,
eidetic compiles casts to coercions and drains them on a stack.

`Machine.step` is the reference stepper: it finds the unique redex by recursion
from the root and reports the rule that fired.  `Machine.eval` runs the same
rules over an explicit evaluation context, so a step costs work proportional to
the local change instead of a root-to-redex walk.  The context is a persistent
stack of frames, `(innermost frame, rest)` pairs ending in None.  A `Frame` is
a node with a hole at one child; it reads and rebuilds the node through the
shape table of `syntax` (`children`, `with_child`).

A traced run records one `TraceStep` per step, holding the step index, the
rule, and the context and focus just after the step: O(1) work and memory per
step, as contexts share their tails.  `TraceStep.term` plugs the focus back
into the context when it is read, in O(depth), and gives the same term, with
the same shared nodes, as rebuilding it at the step would.

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
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .surface import print_type
from .syntax import (
    Abs,
    ActiveCheck,
    App,
    Blame,
    Cast,
    Coerce,
    Coercion,
    CoercionStack,
    Cond,
    Const,
    EmptyAnn,
    EMPTY_ANN,
    EMPTY_SET,
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
    TypeSet,
    Types,
    Var,
    alpha_eq,
    canon,
    subst,
    with_child,
)

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# Implication oracle


@dataclass(frozen=True)
class ImplicationOracle:
    """Decidable pre-order on refinements; adequacy is assumed, not checked."""

    name: str
    decide: Callable[[Refinement, Refinement], bool]


DEFAULT_ORACLE = ImplicationOracle("alpha-eq", alpha_eq)


def axiom_oracle(axioms: list[tuple[Refinement, Refinement]], name: str = "axioms") -> ImplicationOracle:
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

    return ImplicationOracle(name, decide)


def implies(oracle: ImplicationOracle, t1: Refinement, t2: Refinement) -> bool:
    assert t1.base is t2.base, "implication is only defined at a single base type"
    return oracle.decide(t1, t2)


# ---------------------------------------------------------------------------
# choose


def choose_lex_min(s: TypeSet) -> Type:
    if not len(s):
        raise ValueError("choose: empty type set")
    return min(s.members, key=print_type)


def choose_lex_max(s: TypeSet) -> Type:
    if not len(s):
        raise ValueError("choose: empty type set")
    return max(s.members, key=print_type)


CHOOSE_POLICIES: dict[str, Callable[[TypeSet], Type]] = {
    "lex-min": choose_lex_min,
    "lex-max": choose_lex_max,
}


def choose(s: TypeSet, policy: str = "lex-min") -> Type:
    return CHOOSE_POLICIES[policy](s)


# ---------------------------------------------------------------------------
# Annotation algebra


def split_annotation(ann) -> tuple:
    """dom/cod of a cast annotation, for unwrapping function proxies."""

    if isinstance(ann, EmptyAnn):
        return EMPTY_ANN, EMPTY_ANN
    if isinstance(ann, Types):
        doms, cods = [], []
        for t in ann.types:
            assert isinstance(t, Fun), "split_annotation: type-set member is not a function type"
            doms.append(t.dom)
            cods.append(t.cod)
        return Types(TypeSet.of(doms)), Types(TypeSet.of(cods))
    assert isinstance(ann.coercion, FunC), "split_annotation: coercion is not a function coercion"
    return Coerce(ann.coercion.dom), Coerce(ann.coercion.cod)


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


def merge(mode: Mode, t1: Type, a1, t2: Type, a2, t3: Type, oracle: ImplicationOracle = DEFAULT_ORACLE):
    """Merge the annotations of two adjacent casts, or None where undefined."""

    if mode is Mode.FORGETFUL and isinstance(a1, EmptyAnn) and isinstance(a2, EmptyAnn):
        return EMPTY_ANN
    if mode is Mode.HEEDFUL and isinstance(a1, Types) and isinstance(a2, Types):
        return Types(a1.types.union(a2.types).add(t2))
    if mode is Mode.EIDETIC and isinstance(a1, Coerce) and isinstance(a2, Coerce):
        return Coerce(coercion_merge(a1.coercion, a2.coercion, oracle))
    return None


def status_join(s: Status, e_target: Term, e_popped: Term) -> Status:
    if s is Status.CHECKED:
        return Status.CHECKED
    return Status.CHECKED if alpha_eq(e_target, e_popped) else Status.UNCHECKED


# ---------------------------------------------------------------------------
# Operation denotations


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


_DENOTATIONS: dict[str, Callable] = {
    "not": lambda a: not _want_bool(a),
    "&&": lambda a, b: _want_bool(a) and _want_bool(b),
    "||": lambda a, b: _want_bool(a) or _want_bool(b),
    "=": lambda a, b: _want_int(a) == _want_int(b),
    "<>": lambda a, b: _want_int(a) != _want_int(b),
    "<": lambda a, b: _want_int(a) < _want_int(b),
    "<=": lambda a, b: _want_int(a) <= _want_int(b),
    ">": lambda a, b: _want_int(a) > _want_int(b),
    ">=": lambda a, b: _want_int(a) >= _want_int(b),
    "+": lambda a, b: _clamp(_want_int(a) + _want_int(b)),
    "-": lambda a, b: _clamp(_want_int(a) - _want_int(b)),
    "*": lambda a, b: _clamp(_want_int(a) * _want_int(b)),
    "mod": lambda a, b: _mod(_want_int(a), _want_int(b)),
    "div": lambda a, b: _div(_want_int(a), _want_int(b)),
}


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise OpUndefined("mod by zero")
    return a % b


def _div(a: int, b: int) -> int:
    if b == 0:
        raise OpUndefined("division by zero")
    return _clamp(a // b)


def apply_op(name: str, args: list[Const]) -> Const:
    """The mathematical denotation; partial exactly where the signature says so."""

    fn = _DENOTATIONS.get(name)
    if fn is None:
        raise OpUndefined(f"unknown operation {name!r}")
    return Const(fn(*(a.value for a in args)))


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
    """One machine step: its 1-based index, the rule that fired, and the
    context and focus just after it.  `term` plugs the focus back into the
    context, so recording a step is O(1) and reading `term` is O(depth)."""

    __slots__ = ("index", "rule", "_ctx", "_focus")

    def __init__(self, index: int, rule: str, ctx: Context, focus: Term):
        self.index = index
        self.rule = rule
        self._ctx = ctx
        self._focus = focus

    @property
    def term(self) -> Term:
        whole, ctx = self._focus, self._ctx
        while ctx is not None:
            frame, ctx = ctx
            whole = frame.rebuild(whole)
        return whole

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceStep):
            return NotImplemented
        return (self.index, self.rule, self.term) == (other.index, other.rule, other.term)

    def __hash__(self) -> int:
        return hash((self.index, self.rule, self.term))

    def __repr__(self) -> str:
        return f"TraceStep(index={self.index!r}, rule={self.rule!r}, term={self.term!r})"


@dataclass(frozen=True)
class Outcome:
    kind: OutcomeKind
    term: Optional[Term] = None
    label: Label = None
    steps: int = 0
    stuck_reason: Optional[str] = None
    trace: Optional[tuple[TraceStep, ...]] = None
    initial: Optional[Term] = None

    def trace_terms(self) -> list[Term]:
        assert self.trace is not None and self.initial is not None
        return [self.initial] + [s.term for s in self.trace]


# ---------------------------------------------------------------------------
# Evaluation frames


class Frame:
    """A node with a hole at its `index`-th child (in `children` order), which
    held `hole` when the machine descended into it."""

    __slots__ = ("orig", "index", "hole")

    def __init__(self, orig: Term, index: int, hole: Term):
        self.orig = orig
        self.index = index
        self.hole = hole

    def rebuild(self, child: Term) -> Term:
        return self.orig if child is self.hole else with_child(self.orig, self.index, child)


# An evaluation context as a persistent stack: None is the empty context and
# (frame, rest) has `frame` innermost.  Nothing is updated in place, so a
# context recorded in a trace stays valid while the machine runs on.
Context = Optional[tuple[Frame, "Context"]]


# Local decisions, shared by the reference stepper and the machine.

_DESCEND = "descend"
_STEP = "step"
_VALUE = "value"
_BLAME = "blame"
_STUCK = "stuck"


class Machine:
    """One evaluator: a mode plus its implication oracle and choose policy."""

    def __init__(
        self,
        mode: Mode,
        oracle: ImplicationOracle = DEFAULT_ORACLE,
        choose_policy: str = "lex-min",
    ):
        self.mode = mode
        self.oracle = oracle
        self.choose_policy = choose_policy

    # -- value judgment

    def is_value(self, e: Term) -> bool:
        if isinstance(e, (Const, Abs)):
            return True
        if not isinstance(e, Cast):
            return False
        if not (isinstance(e.src, Fun) and isinstance(e.tgt, Fun)):
            return False
        m = self.mode
        if m is Mode.CLASSIC:
            return isinstance(e.ann, EmptyAnn) and (isinstance(e.subject, Abs) or self.is_value(e.subject))
        if m is Mode.FORGETFUL:
            return isinstance(e.ann, EmptyAnn) and isinstance(e.subject, Abs)
        if m is Mode.HEEDFUL:
            return isinstance(e.ann, Types) and isinstance(e.subject, Abs)
        return (
            isinstance(e.ann, Coerce)
            and isinstance(e.ann.coercion, FunC)
            and e.label is None
            and isinstance(e.subject, Abs)
        )

    # -- local dispatch: what happens at this node, ignoring its context

    def _local(self, e: Term):
        if isinstance(e, Const) or isinstance(e, Abs):
            return (_VALUE,)
        if isinstance(e, Blame):
            return (_BLAME, e.label)
        if isinstance(e, Var):
            return (_STUCK, f"free variable {e.name!r}")
        if isinstance(e, Fix):
            return (_STEP, subst(e.body, e.binder, e), "E-Fix")
        if isinstance(e, App):
            if isinstance(e.fn, Blame):
                return (_STEP, Blame(e.fn.label), "E-AppRaiseL")
            if not self.is_value(e.fn):
                return (_DESCEND, Frame(e, 0, e.fn))
            if isinstance(e.arg, Blame):
                return (_STEP, Blame(e.arg.label), "E-AppRaiseR")
            if not self.is_value(e.arg):
                return (_DESCEND, Frame(e, 1, e.arg))
            if isinstance(e.fn, Abs):
                return (_STEP, subst(e.fn.body, e.fn.binder, e.arg), "E-Beta")
            if isinstance(e.fn, Cast):
                return (_STEP, self._unwrap(e.fn, e.arg), "E-Unwrap")
            return (_STUCK, "application of a non-function value")
        if isinstance(e, Op):
            for i, arg in enumerate(e.args):
                if isinstance(arg, Blame):
                    return (_STEP, Blame(arg.label), "E-OpRaise")
                if not self.is_value(arg):
                    return (_DESCEND, Frame(e, i, arg))
            if not all(isinstance(a, Const) for a in e.args):
                return (_STUCK, f"operation {e.name!r} applied to a non-constant")
            try:
                return (_STEP, apply_op(e.name, list(e.args)), "E-Op")
            except OpUndefined as exc:
                return (_STUCK, f"operation {e.name!r} undefined: {exc}")
            except OverflowFault:
                return (_STUCK, f"integer overflow in {e.name!r}")
        if isinstance(e, Cond):
            if isinstance(e.guard, Blame):
                return (_STEP, Blame(e.guard.label), "E-IfRaise")
            if not self.is_value(e.guard):
                return (_DESCEND, Frame(e, 0, e.guard))
            if isinstance(e.guard, Const) and e.guard.value is True:
                return (_STEP, e.then, "E-IfTrue")
            if isinstance(e.guard, Const) and e.guard.value is False:
                return (_STEP, e.orelse, "E-IfFalse")
            return (_STUCK, "conditional guard is not a boolean")
        if isinstance(e, Cast):
            return self._local_cast(e)
        if isinstance(e, ActiveCheck):
            cur = e.current
            if isinstance(cur, Const) and cur.value is True:
                return (_STEP, e.scrutinee, "E-CheckOK")
            if isinstance(cur, Const) and cur.value is False:
                return (_STEP, Blame(e.label), "E-CheckFail")
            if isinstance(cur, Blame):
                return (_STEP, Blame(cur.label), "E-CheckRaise")
            if not self.is_value(cur):
                return (_DESCEND, Frame(e, 0, cur))
            return (_STUCK, "active check reduced to a non-boolean value")
        if isinstance(e, CoercionStack):
            cur = e.current
            if isinstance(cur, Blame):
                return (_STEP, Blame(cur.label), "E-StackRaise")
            if isinstance(cur, Const):
                if e.pending:
                    return (_STEP, self._stack_pop(e), "E-StackPop")
                return (_STEP, cur, "E-StackDone")
            if not self.is_value(cur):
                return (_DESCEND, Frame(e, 0, cur))
            return (_STUCK, "coercion stack reduced to a non-constant value")
        return (_STUCK, f"unknown term {type(e).__name__}")

    def _local_cast(self, e: Cast):
        m = self.mode
        # 1. annotate source casts first
        if isinstance(e.ann, EmptyAnn):
            if m is Mode.HEEDFUL:
                return (_STEP, Cast(e.src, Types(EMPTY_SET), e.tgt, e.label, e.subject), "E-TypeSet")
            if m is Mode.EIDETIC:
                if e.label is None:
                    return (_STUCK, "eidetic cast with empty annotation and empty label")
                ann = Coerce(coerce(e.src, e.tgt, e.label))
                return (_STEP, Cast(e.src, ann, e.tgt, None, e.subject), "E-Coerce")
        # 2. raise blame out of the subject
        if isinstance(e.subject, Blame):
            return (_STEP, Blame(e.subject.label), "E-CastRaise")
        # 3. merge adjacent casts whenever the mode can
        if isinstance(e.subject, Cast):
            inner = e.subject
            merged = merge(m, inner.src, inner.ann, inner.tgt, e.ann, e.tgt, self.oracle)
            if merged is not None:
                return (_STEP, Cast(inner.src, merged, e.tgt, e.label, inner.subject), "E-CastMergeE")
        # 4. otherwise step the subject
        if not self.is_value(e.subject):
            return (_DESCEND, Frame(e, 0, e.subject))
        # 5. subject is a value: check, stack, or stand as a proxy
        return self._cast_on_value(e)

    def _cast_on_value(self, e: Cast):
        m = self.mode
        if isinstance(e.src, Refinement) and isinstance(e.tgt, Refinement):
            if not isinstance(e.subject, Const):
                return (_STUCK, "refinement cast over a non-constant value")
            k = e.subject
            if isinstance(e.ann, EmptyAnn):
                if m in (Mode.CLASSIC, Mode.FORGETFUL):
                    return (_STEP, self._start_check(e.tgt, k, e.label), "E-CheckNoneC")
                return (_STUCK, "unannotated refinement cast in an annotating mode")
            if isinstance(e.ann, Types):
                if m is not Mode.HEEDFUL:
                    return (_STUCK, "type-set annotation outside heedful mode")
                if not len(e.ann.types):
                    return (_STEP, self._start_check(e.tgt, k, e.label), "E-CheckEmpty")
                chosen = choose(e.ann.types, self.choose_policy)
                assert isinstance(chosen, Refinement)
                rest = e.ann.types.remove(chosen)
                check = self._start_check(chosen, k, e.label)
                return (_STEP, Cast(chosen, Types(rest), e.tgt, e.label, check), "E-CheckSet")
            if m is not Mode.EIDETIC:
                return (_STUCK, "coercion annotation outside eidetic mode")
            if not isinstance(e.ann.coercion, Refs):
                return (_STUCK, "function coercion on a refinement cast")
            stack = CoercionStack(e.tgt, Status.UNCHECKED, e.ann.coercion.entries, k, k)
            return (_STEP, stack, "E-CoerceStack")
        if isinstance(e.src, Fun) and isinstance(e.tgt, Fun):
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
        frame = act[1]
        inner = self.step(frame.hole)
        if isinstance(inner, Stepped):
            return Stepped(frame.rebuild(inner.term), inner.rule)
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
        if observer is not None:
            observer.start(focus)
        while True:
            act = self._local(focus)
            tag = act[0]
            if tag == _DESCEND:
                frame = act[1]
                focus = frame.hole
                ctx = (frame, ctx)
                if observer is not None:
                    observer.push(frame, focus)
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
                    recorded.append(TraceStep(steps, rule, ctx, focus))
                if ctx is None or not isinstance(ctx[0].orig, Cast):
                    continue
                # the parent cast may now be able to merge or raise: pop it
            elif tag == _STUCK or ctx is None:
                break  # stuck, or a value or blame with no context left
            frame, ctx = ctx  # pop: plug the focus back into its frame
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


_DEFAULT_MACHINES: dict[Mode, Machine] = {}


def machine(mode: Mode) -> Machine:
    if mode not in _DEFAULT_MACHINES:
        _DEFAULT_MACHINES[mode] = Machine(mode)
    return _DEFAULT_MACHINES[mode]


def eval_term(mode: Mode, e: Term, budget: int = 100_000, trace: bool = False) -> Outcome:
    return machine(mode).eval(e, budget, trace=trace)
