"""Abstract syntax shared by every other module.

Terms, types, cast annotations, coercions and the structural measures
(substitution, alpha-equivalence, type extraction).  Nodes are dataclasses
equal by identity, and no code assigns a field after construction: the only
attributes set later are caches, each a function of the fields (`_fv`,
`_canon`, `_tkeys`, `_tmask`, `_unrolled`, `_plan`, `_sm`, `_value_<mode>`);
`test_syntax` checks.

Term shape is written down once, here: `children(e)` lists a term node's
immediate subterms, `with_child(e, i, c)` rebuilds e with c as its i-th
child (`rebuilt_at` inverts it, from `children` and the parts each class
keeps), `subterms(e)` walks them all, and `held_types(e)` lists the types
the node holds itself, split into those that count with their structural
parts and refinement-list entries that count alone; `LEAVES` are the
classes with neither.  That split decides `types(e)`, the set of types no
reduction step may grow.  `semantics`, `metering` and `harness` read the
term shape only through these.

The part map is the other half: `map_parts(node, f, last)` copies a term or
type node with f applied to every term and type directly inside it,
annotation types, heedful type-set members, eidetic coercion refinements and
a coercion stack's pending refinements included.  `Abs`, `Fix` and
`Refinement` bind their binder in their last part only, which `last` maps.
`subst` is built on the part map, and `free_vars` is a fold over `children`
and `held_types`.  `children` and `with_child` stay, as the indexed,
term-only view that the machine, the meter and the trace checker walk on
every step; the part map rebuilds whole nodes.  `canon` keeps its own walk,
since its strings fix the order of a heedful type set (`Types`), the order
`semantics.choose` reads: alpha-equivalent programs check their sets alike.

`free_vars` and `canon` cache their result on every node they visit;
`type_keys` only on the node it is asked about, that is on shared type nodes
and on the root of a term.  Keys cached on every term node of every trace
raised the peak memory of the trace-check benchmark from 39 MB to 55-70 MB
(10 s runs, Python 3.11).  `harness.check_trace` keeps the keys of the term
nodes it walks in a bounded memo of its own, and reads the masks of the types
they hold.

A set of type keys is also an `int` (`key_mask`): one bit per canonical key,
numbered as the process first meets them; no result depends on the numbering.
`type_mask` caches a type's mask on it (`_tmask`), and a type set's or a
coercion's on the annotation; `held_mask(e)` is a term node's.  The numbering
grows by one entry per distinct type in the programs run, as evaluation makes
no type that a program with closed types lacks (31 after 1,500 programs).

`subst` is textbook capture-avoiding substitution on the part map: it
rebuilds the nodes on the paths to x, renames a binder free in v apart with
names numbered from a counter made for the call, and keeps no other state, so
its result depends on its arguments alone.

`unroll(e)` is the body of a `Fix` with the `Fix` put in for its binder, one
`E-Fix` step, kept on the `Fix` (`_unrolled`): the body is the same for every
mode and every iteration of a loop.  Each lambda in that body, outside any
`Fix` in it, gets a substitution plan (`_plan`) for its `E-Beta` with a
constant, compiled once into a tree of closures (Feeley & Lapalme, *Using
Closures for Code Generation*, 1987).  A plan rebuilds only the nodes on the
paths to the binder x and reads every other part from the node it is given,
without `subst`'s free-variable tests and part-map dispatch.  Each node it
rebuilds gets fv(node) - {x}, the node's measures (`_sm`, which `metering`
caches; metered loops ran at 0.71x without that copy) and, for a lambda, its
source's plan, so a plan also runs on the copy an earlier plan made.  Only a
`Fix` body gets plans: each iteration of its loop runs them again, while a
lambda elsewhere is mostly applied once, for less than a plan costs to
compile; a nested `Fix` plans its own body when it is unrolled.  A plan
declines a type with x free on a path and any class it does not rebuild;
`subst` handles those, and stays the reference.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union


class Mode(enum.Enum):
    """Which semantics evaluates the shared syntax."""

    CLASSIC = "classic"
    FORGETFUL = "forgetful"
    HEEDFUL = "heedful"
    EIDETIC = "eidetic"

    @property
    def short(self) -> str:
        return {"classic": "C", "forgetful": "F", "heedful": "H", "eidetic": "E"}[self.value]

    @classmethod
    def parse(cls, name: str) -> "Mode":
        name = name.strip().lower()
        for m in cls:
            if name in (m.value, m.short.lower()):
                return m
        raise ValueError(f"unknown mode: {name!r}")


ALL_MODES = (Mode.CLASSIC, Mode.FORGETFUL, Mode.HEEDFUL, Mode.EIDETIC)


# A label is either a named blame label (a string) or the empty label (None),
# which only shows up on eidetic casts after coercion translation.
Label = Optional[str]


class BaseType(enum.Enum):
    BOOL = "Bool"
    INT = "Int"


class Status(enum.Enum):
    """Whether a coercion stack's target type has been (or is being) checked."""

    CHECKED = "ok"
    UNCHECKED = "pending"


# ---------------------------------------------------------------------------
# Types


@dataclass(eq=False)
class Refinement:
    """{binder : base | predicate} -- constants of `base` satisfying the predicate."""

    binder: str
    base: BaseType
    predicate: "Term"


@dataclass(eq=False)
class Fun:
    dom: "Type"
    cod: "Type"


Type = Union[Refinement, Fun]


def raw(base: BaseType) -> Refinement:
    binder = "b" if base is BaseType.BOOL else "x"
    return Refinement(binder, base, Const(True))


def is_raw(t: Type) -> bool:
    return isinstance(t, Refinement) and isinstance(t.predicate, Const) and t.predicate.value is True


# ---------------------------------------------------------------------------
# Annotations and coercions


@dataclass(eq=False)
class EmptyAnn:
    """The bullet annotation carried by every source-program cast."""


EMPTY_ANN = EmptyAnn()


@dataclass(eq=False)
class RefEntry:
    """One labeled refinement in a refinement list."""

    ref: Refinement
    label: str


@dataclass(eq=False)
class Refs:
    entries: tuple[RefEntry, ...]


@dataclass(eq=False)
class FunC:
    dom: "Coercion"
    cod: "Coercion"


Coercion = Union[Refs, FunC]


@dataclass(eq=False)
class Types:
    """Heedful annotation: the set of intermediate types a cast remembers,
    one member per alpha-equivalence class, in `canon` order."""

    members: tuple[Type, ...]

    @staticmethod
    def of(types: Iterable[Type]) -> "Types":
        seen: dict[str, Type] = {}
        for t in types:
            seen.setdefault(canon(t), t)
        return Types(tuple([seen[k] for k in sorted(seen)]))


EMPTY_TYPES = Types(())

# an eidetic cast is annotated with its coercion, the cast's full checking plan
Annotation = Union[EmptyAnn, Types, Refs, FunC]


# ---------------------------------------------------------------------------
# Terms


@dataclass(eq=False)
class Var:
    name: str


@dataclass(eq=False)
class Const:
    value: Union[bool, int]

    @property
    def base(self) -> BaseType:
        return BaseType.BOOL if isinstance(self.value, bool) else BaseType.INT


@dataclass(eq=False)
class Abs:
    binder: str
    annot: Type
    body: "Term"


@dataclass(eq=False)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(eq=False)
class Op:
    name: str
    args: tuple["Term", ...]


@dataclass(eq=False)
class Cast:
    src: Type
    ann: Annotation
    tgt: Type
    label: Label
    subject: "Term"


@dataclass(eq=False)
class ActiveCheck:
    """In-flight predicate evaluation: <target, current, scrutinee>^label."""

    tgt: Refinement
    current: "Term"
    scrutinee: Const
    label: Label


@dataclass(eq=False)
class Blame:
    label: Label


@dataclass(eq=False)
class CoercionStack:
    """Eidetic runtime form draining a refinement list against a constant."""

    tgt: Refinement
    status: Status
    pending: tuple[RefEntry, ...]
    scrutinee: Const
    current: "Term"


@dataclass(eq=False)
class Cond:
    guard: "Term"
    then: "Term"
    orelse: "Term"


@dataclass(eq=False)
class Fix:
    binder: str
    annot: Type
    body: "Term"


Term = Union[Var, Const, Abs, App, Op, Cast, ActiveCheck, Blame, CoercionStack, Cond, Fix]

Node = Union[Term, Type]


# ---------------------------------------------------------------------------
# Term shape: what a term node contains

# every variable, constant and blame: no children and no held types
LEAVES = frozenset((Var, Const, Blame))

_CHILDREN = {
    **dict.fromkeys(LEAVES, lambda e: ()),
    **dict.fromkeys((Abs, Fix), lambda e: (e.body,)),
    App: lambda e: (e.fn, e.arg),
    Op: lambda e: e.args,
    Cast: lambda e: (e.subject,),
    **dict.fromkeys((ActiveCheck, CoercionStack), lambda e: (e.current, e.scrutinee)),
    Cond: lambda e: (e.guard, e.then, e.orelse),
}


def children(e: Term) -> tuple[Term, ...]:
    """The immediate subterms of a term node; its types and annotations are not terms."""

    kids = _CHILDREN.get(type(e))
    if kids is None:
        raise TypeError(f"children: not a term: {e!r}")
    return kids(e)


def _swapped(kids: tuple, i: int, child: Term) -> tuple:
    return kids[:i] + (child,) + kids[i + 1 :]


_WITH_CHILD = {
    Cast: lambda e, i, c: Cast(e.src, e.ann, e.tgt, e.label, c),
    App: lambda e, i, c: App(c, e.arg) if i == 0 else App(e.fn, c),
    Op: lambda e, i, c: Op(e.name, _swapped(e.args, i, c)),
    Cond: lambda e, i, c: Cond(*_swapped((e.guard, e.then, e.orelse), i, c)),
    ActiveCheck: lambda e, i, c: (
        ActiveCheck(e.tgt, c, e.scrutinee, e.label) if i == 0 else ActiveCheck(e.tgt, e.current, c, e.label)
    ),
    CoercionStack: lambda e, i, c: (
        CoercionStack(e.tgt, e.status, e.pending, e.scrutinee, c)
        if i == 0
        else CoercionStack(e.tgt, e.status, e.pending, c, e.current)
    ),
    Abs: lambda e, i, c: Abs(e.binder, e.annot, c),
    Fix: lambda e, i, c: Fix(e.binder, e.annot, c),
}


def with_child(e: Term, i: int, child: Term) -> Term:
    """A copy of e whose i-th child, in `children` order, is child."""

    rebuild = _WITH_CHILD.get(type(e))
    if rebuild is None:
        raise TypeError(f"with_child: {type(e).__name__} has no child {i}")
    return rebuild(e, i, child)


# the parts besides its children that a node keeps when rebuilt at a child
_KEPT = {
    Cast: ("src", "ann", "tgt", "label"),
    **dict.fromkeys((App, Cond), ()),
    Op: ("name",),
    ActiveCheck: ("tgt", "label"),
    CoercionStack: ("tgt", "status", "pending"),
    **dict.fromkeys((Abs, Fix), ("binder", "annot")),
}


def rebuilt_at(old: Term, new: Term) -> Optional[tuple[int, Term]]:
    """The inverse of `with_child`: (i, c) if new is old with c, a different
    object, for its i-th child and every other part the same; else None."""

    kept = _KEPT.get(type(new))
    if kept is None or type(old) is not type(new):
        return None
    for part in kept:
        if getattr(new, part) is not getattr(old, part):
            return None
    kids, new_kids = children(old), children(new)
    if len(kids) == len(new_kids) == 1:  # Cast, Abs, Fix, a unary Op
        return None if new_kids[0] is kids[0] else (0, new_kids[0])
    changed = [i for i, kid in enumerate(new_kids) if kid is not kids[i]] if len(kids) == len(new_kids) else ()
    return (changed[0], new_kids[changed[0]]) if len(changed) == 1 else None


def subterms(e: Term) -> Iterator[Term]:
    """Every term node of e, e first, in pre-order on an explicit stack."""

    todo = [e]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(children(node))


_HOLDS_NONE: tuple[tuple[Type, ...], tuple[Refinement, ...]] = ((), ())
_HELD = {
    **dict.fromkeys((Abs, Fix), lambda e: ((e.annot,), ())),
    Cast: lambda e: (
        ((e.src, e.tgt, *e.ann.members), ()) if type(e.ann) is Types else ((e.src, e.tgt), _coercion_refs(e.ann))
    ),
    ActiveCheck: lambda e: ((e.tgt,), ()),
    CoercionStack: lambda e: ((e.tgt,), tuple([x.ref for x in e.pending])),
}


def held_types(e: Term) -> tuple[tuple[Type, ...], tuple[Refinement, ...]]:
    """The types a term node holds itself, in two groups: those that count with
    their structural parts (a function type's domain and codomain, the types in
    a refinement's predicate), and refinement-list entries, which count alone."""

    held = _HELD.get(type(e))
    return _HOLDS_NONE if held is None else held(e)


def _coercion_refs(c: Union[EmptyAnn, Coercion]) -> tuple[Refinement, ...]:
    refs: list[Refinement] = []
    todo = [c]
    while todo:
        c = todo.pop()
        if isinstance(c, Refs):
            refs.extend(x.ref for x in c.entries)
        elif isinstance(c, FunC):
            todo += (c.cod, c.dom)
    return tuple(refs)


# ---------------------------------------------------------------------------
# Part map: every term and type directly inside a node


def _map_ann(ann: Annotation, f) -> Annotation:
    if isinstance(ann, Types):
        return Types.of(map(f, ann.members))
    if isinstance(ann, Refs):
        return Refs(tuple([RefEntry(f(x.ref), x.label) for x in ann.entries]))
    if isinstance(ann, FunC):
        return FunC(_map_ann(ann.dom, f), _map_ann(ann.cod, f))
    return ann


def _map_refinement(n: Refinement, f, last) -> Refinement:
    binder, pred = last(n.binder, n.predicate)
    return Refinement(binder, n.base, pred)


def _map_abs(n, f, last):
    annot = f(n.annot)  # outside the binder's scope, so mapped first
    binder, body = last(n.binder, n.body)
    return type(n)(binder, annot, body)


_PARTS = {
    **dict.fromkeys(LEAVES, lambda n, f, last: n),
    Refinement: _map_refinement,
    Fun: lambda n, f, last: Fun(f(n.dom), f(n.cod)),
    Abs: _map_abs,
    Fix: _map_abs,
    App: lambda n, f, last: App(f(n.fn), f(n.arg)),
    Op: lambda n, f, last: Op(n.name, tuple([f(a) for a in n.args])),
    Cast: lambda n, f, last: Cast(f(n.src), _map_ann(n.ann, f), f(n.tgt), n.label, f(n.subject)),
    ActiveCheck: lambda n, f, last: ActiveCheck(f(n.tgt), f(n.current), f(n.scrutinee), n.label),
    CoercionStack: lambda n, f, last: CoercionStack(
        f(n.tgt), n.status, tuple([RefEntry(f(x.ref), x.label) for x in n.pending]), f(n.scrutinee), f(n.current)
    ),
    Cond: lambda n, f, last: Cond(f(n.guard), f(n.then), f(n.orelse)),
}


def map_parts(node: Node, f, last) -> Node:
    """A copy of node with f applied, in field order, to every term and type
    directly inside it.  At a binder node, `last(binder, part)` maps the
    binder's scope (the last part, after the others) instead, and returns the
    copy's binder and last part.  Leaves are returned as is."""

    return _PARTS[type(node)](node, f, last)


# ---------------------------------------------------------------------------
# Free variables


_NO_VARS: frozenset[str] = frozenset()


def free_vars(node: Node) -> frozenset[str]:
    cached = getattr(node, "_fv", None)
    if cached is not None:
        return cached
    kind = type(node)
    if kind is Var:
        fv = frozenset((node.name,))
    elif kind is Refinement:
        fv = free_vars(node.predicate) - {node.binder}
    elif kind is Fun:
        fv = free_vars(node.dom) | free_vars(node.cod)
    else:
        # most parts are closed: share their empty set, and a lone nonempty one
        fv = _NO_VARS
        for part in children(node):
            part_fv = free_vars(part)
            if part_fv:
                fv = fv | part_fv if fv else part_fv
        if (kind is Abs or kind is Fix) and node.binder in fv:
            fv = fv - {node.binder}
        whole, alone = held_types(node)
        for part in whole + alone:
            part_fv = free_vars(part)
            if part_fv:
                fv = fv | part_fv if fv else part_fv
    node._fv = fv
    return fv


def fresh_name(base: str, avoid: frozenset[str], counter: Iterator[int]) -> str:
    root = base.rstrip("0123456789_") or "v"
    while True:
        candidate = f"{root}_{next(counter)}"
        if candidate not in avoid:
            return candidate


# ---------------------------------------------------------------------------
# Substitution


def subst(e: Node, x: str, v: Term) -> Node:
    """Capture-avoiding substitution of v for free occurrences of x in a term
    or type.  A binder free in v is renamed apart, numbered from 1 per call."""

    if x not in free_vars(e):
        return e
    counter = itertools.count(1)

    def go(e):
        if x not in free_vars(e):
            return e
        if type(e) is Var:
            return v
        return map_parts(e, go, scope)

    def scope(binder, part):
        if binder == x:
            return binder, part
        if binder in free_vars(v):
            renamed = fresh_name(binder, free_vars(v) | free_vars(part), counter)
            part = subst(part, binder, Var(renamed))
            binder = renamed
        return binder, go(part)

    out = go(e)
    go = scope = None  # they refer to each other: let refcounting free them, not the collector
    return out


def unroll(e: Fix) -> Term:
    """The body of e with e put in for its binder, as one E-Fix step makes it,
    kept on e with a plan for each lambda of the body outside a `Fix`."""

    cached = getattr(e, "_unrolled", None)
    if cached is not None:
        return cached
    body = e._unrolled = subst(e.body, e.binder, e)
    lambdas, todo = [], [body]
    while todo:  # pre-order, not into a Fix: the one put in, or one that plans its own body
        node = todo.pop()
        if type(node) is not Fix:
            if type(node) is Abs:
                lambdas.append(node)
            todo.extend(children(node))
    for node in reversed(lambdas):  # inner lambdas first: a plan hands theirs on
        if not hasattr(node, "_plan"):
            node._plan = _planned(node.body, node.binder)
    return body


def _keep(n, v):
    return n


# how a plan rebuilds a node of each class from its children's plans
_PLAN_BUILDS = {
    Abs: lambda p: lambda n, v: Abs(n.binder, n.annot, p[0](n.body, v)),
    App: lambda p: lambda n, v: App(p[0](n.fn, v), p[1](n.arg, v)),
    Op: lambda p: (lambda n, v: Op(n.name, (p[0](n.args[0], v), p[1](n.args[1], v))))
    if len(p) == 2
    else (lambda n, v: Op(n.name, tuple([f(a, v) for f, a in zip(p, n.args)]))),
    Cast: lambda p: lambda n, v: Cast(n.src, n.ann, n.tgt, n.label, p[0](n.subject, v)),
    Cond: lambda p: lambda n, v: Cond(p[0](n.guard, v), p[1](n.then, v), p[2](n.orelse, v)),
}


def _planned(e: Term, x: str):
    """The plan `(n, c) -> subst(n, x, c)` for a constant c and a node n that is
    e or a copy a plan made of it; None for a shape it leaves to `subst`."""

    if x not in free_vars(e):
        return _keep
    if type(e) is Var:
        return lambda n, v: v
    parts = [_planned(c, x) for c in children(e)]
    if type(e) not in _PLAN_BUILDS or None in parts or any(x in free_vars(t) for t in sum(held_types(e), ())):
        return None
    build, inner, gone = _PLAN_BUILDS[type(e)](parts), getattr(e, "_plan", None), {x}

    def run(n, v):
        out = build(n, v)
        fv, sm = n._fv, getattr(n, "_sm", None)
        out._fv = fv - gone if len(fv) > 1 else _NO_VARS
        if sm is not None:
            out._sm = sm
        if inner is not None:
            out._plan = inner
        return out

    return run


# ---------------------------------------------------------------------------
# Alpha-equivalence via a canonical de-Bruijn rendering


def canon(node: Node) -> str:
    """Canonical string: identical for alpha-equivalent terms/types."""

    cached = getattr(node, "_canon", None)
    if cached is not None:
        return cached
    out: list[str] = []
    _canon_into(node, {}, 0, out)
    key = node._canon = "".join(out)
    return key


def _canon_into(node: Node, env: dict[str, int], depth: int, out: list[str]) -> None:
    if isinstance(node, Var):
        if node.name in env:
            out.append(f"#{depth - env[node.name]}")
        else:
            out.append(f"${node.name}")
    elif isinstance(node, Const):
        out.append(repr(node.value) if isinstance(node.value, bool) else str(node.value))
    elif isinstance(node, Blame):
        out.append(f"(blame {node.label or ''})")
    elif isinstance(node, Refinement):
        out.append("{" + node.base.value + "|")
        _canon_into(node.predicate, {**env, node.binder: depth + 1}, depth + 1, out)
        out.append("}")
    elif isinstance(node, Fun):
        out.append("(")
        _canon_into(node.dom, env, depth, out)
        out.append("->")
        _canon_into(node.cod, env, depth, out)
        out.append(")")
    elif isinstance(node, (Abs, Fix)):
        out.append("(fix " if isinstance(node, Fix) else "(lam ")
        _canon_into(node.annot, env, depth, out)
        out.append(".")
        _canon_into(node.body, {**env, node.binder: depth + 1}, depth + 1, out)
        out.append(")")
    elif isinstance(node, App):
        out.append("(app ")
        _canon_into(node.fn, env, depth, out)
        out.append(" ")
        _canon_into(node.arg, env, depth, out)
        out.append(")")
    elif isinstance(node, Op):
        out.append(f"(op {node.name}")
        for a in node.args:
            out.append(" ")
            _canon_into(a, env, depth, out)
        out.append(")")
    elif isinstance(node, Cast):
        out.append("(cast ")
        _canon_into(node.src, env, depth, out)
        out.append("=>")
        _canon_into(node.tgt, env, depth, out)
        out.append(f"@{node.label or ''}^")
        _canon_ann(node.ann, env, depth, out)
        out.append(" ")
        _canon_into(node.subject, env, depth, out)
        out.append(")")
    elif isinstance(node, ActiveCheck):
        out.append("(check ")
        _canon_into(node.tgt, env, depth, out)
        out.append(",")
        _canon_into(node.current, env, depth, out)
        out.append(",")
        _canon_into(node.scrutinee, env, depth, out)
        out.append(f"@{node.label or ''})")
    elif isinstance(node, CoercionStack):
        out.append("(stack ")
        _canon_into(node.tgt, env, depth, out)
        out.append("," + node.status.name + ",[")
        for entry in node.pending:
            _canon_into(entry.ref, env, depth, out)
            out.append(f"^{entry.label},")
        out.append("],")
        _canon_into(node.scrutinee, env, depth, out)
        out.append(",")
        _canon_into(node.current, env, depth, out)
        out.append(")")
    elif isinstance(node, Cond):
        out.append("(if ")
        _canon_into(node.guard, env, depth, out)
        out.append(" ")
        _canon_into(node.then, env, depth, out)
        out.append(" ")
        _canon_into(node.orelse, env, depth, out)
        out.append(")")
    else:
        raise TypeError(f"canon: not a term or type: {node!r}")


def _canon_ann(ann: Annotation, env: dict[str, int], depth: int, out: list[str]) -> None:
    if isinstance(ann, EmptyAnn):
        out.append("*")
    elif isinstance(ann, Types):
        out.append("{")
        for t in ann.members:
            _canon_into(t, env, depth, out)
            out.append(",")
        out.append("}")
    elif isinstance(ann, Refs):
        out.append("[")
        for entry in ann.entries:
            _canon_into(entry.ref, env, depth, out)
            out.append(f"^{entry.label},")
        out.append("]")
    else:
        out.append("(")
        _canon_ann(ann.dom, env, depth, out)
        out.append("|->")
        _canon_ann(ann.cod, env, depth, out)
        out.append(")")


def alpha_eq(a: Node, b: Node) -> bool:
    """True iff a and b are equal up to consistent bound-variable renaming."""

    if a is b:
        return True
    return canon(a) == canon(b)


# ---------------------------------------------------------------------------
# Type extraction


def type_keys(node: Node) -> frozenset[str]:
    """Canonical keys of every type (with its structural parts) occurring in
    node, on an explicit stack; a term's are the union of its held types'
    keys.  Cached on node, and read from any type node that has them."""

    cached = getattr(node, "_tkeys", None)
    if cached is not None:
        return cached
    found: set[str] = set()
    todo: list[Node] = [node]
    while todo:
        n = todo.pop()
        if isinstance(n, (Refinement, Fun)):
            known = getattr(n, "_tkeys", None)
            if known is not None:
                found |= known
                continue
            found.add(canon(n))
            todo += (n.cod, n.dom) if isinstance(n, Fun) else (n.predicate,)
        else:
            for e in subterms(n):
                whole, alone = held_types(e)
                todo += whole
                found.update(map(canon, alone))
    keys = node._tkeys = frozenset(found)
    return keys


_KEY_BITS: dict[str, int] = {}  # canonical type key -> its bit, the next free one when first met


def key_mask(keys: Iterable[str]) -> int:
    """Canonical type keys as an `int`: one bit per key, in one numbering for the process."""

    mask = 0
    for key in keys:
        mask |= _KEY_BITS.get(key) or _KEY_BITS.setdefault(key, 1 << len(_KEY_BITS))
    return mask


def type_mask(node: Union[Type, Annotation]) -> int:
    """`key_mask` of a type's `type_keys`, or of the keys an annotation holds
    (`held_types`), cached on node (`_tmask`)."""

    mask = getattr(node, "_tmask", None)
    if mask is None:
        kind = type(node)
        if kind is Types:
            keys = [k for t in node.members for k in type_keys(t)]
        elif kind is Refinement or kind is Fun:
            keys = type_keys(node)
        else:
            keys = map(canon, _coercion_refs(node))  # none for the empty annotation
        mask = node._tmask = key_mask(keys)
    return mask


def held_mask(e: Term) -> int:
    """`key_mask` of the keys of the types a term node holds itself
    (`held_types`), read from the masks cached on them and on a cast's annotation."""

    if type(e) is Cast:
        try:
            return e.src._tmask | e.tgt._tmask | e.ann._tmask
        except AttributeError:  # one not cached yet
            return type_mask(e.src) | type_mask(e.tgt) | type_mask(e.ann)
    if type(e) not in _HELD:
        return 0
    whole, alone = _HELD[type(e)](e)
    mask = key_mask(map(canon, alone)) if alone else 0
    for t in whole:
        mask |= type_mask(t)
    return mask
