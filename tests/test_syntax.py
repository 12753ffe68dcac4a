import dataclasses
import typing

import pytest

from conftest import EXAMPLES, load_example, uncached
from lh import syntax
from lh.harness import check_trace, diff_modes, gen_source
from lh.metering import eval_metered, measures, space_stats
from lh.semantics import OutcomeKind, machine
from lh.surface import parse, parse_type, print_term
from lh.syntax import (
    ALL_MODES,
    Abs,
    App,
    BaseType,
    Cast,
    CoercionStack,
    Const,
    EMPTY_ANN,
    Fix,
    Op,
    Refinement,
    Types,
    Var,
    alpha_eq,
    canon,
    children,
    free_vars,
    held_types,
    is_raw,
    map_parts,
    Mode,
    rebuilt_at,
    Node,
    raw,
    subst,
    subterms,
    type_keys,
    unroll,
    with_child,
)
from lh.typecheck import check_source

RAW_INT = raw(BaseType.INT)
NODE_CLASSES = typing.get_args(Node)


def test_alpha_eq_renamed_binders():
    a = parse("\\x:{x:Int|true}. x + 1")
    b = parse("\\y:{z:Int|true}. y + 1")
    assert alpha_eq(a, b)
    assert canon(a) == canon(b)


def test_alpha_eq_distinguishes_free_vars():
    assert not alpha_eq(Var("a"), Var("b"))
    assert alpha_eq(Var("a"), Var("a"))


def test_free_vars():
    e = App(Abs("x", RAW_INT, Op("+", (Var("x"), Var("y")))), Var("z"))
    assert free_vars(e) == {"y", "z"}


def test_subst_capture_avoiding():
    # (\y. x + y)[x := y]  must rename the binder, not capture
    inner = Abs("y", RAW_INT, Op("+", (Var("x"), Var("y"))))
    out = subst(inner, "x", Var("y"))
    assert isinstance(out, Abs)
    assert out.binder != "y"
    assert alpha_eq(out, Abs("w", RAW_INT, Op("+", (Var("y"), Var("w")))))


def test_subst_skips_bound_occurrences():
    e = Abs("x", RAW_INT, Var("x"))
    assert subst(e, "x", Const(1)) is e


def test_raw_types():
    assert is_raw(RAW_INT)
    assert is_raw(raw(BaseType.BOOL))
    assert not is_raw(parse("<{x:Int|x > 0} => {x:Int|x > 0} @ l> 0").src)


def test_typeset_dedups_modulo_alpha():
    t1 = parse("<{x:Int|x > 0} => {x:Int|true} @ l> 0").src
    t2 = parse("<{y:Int|y > 0} => {y:Int|true} @ l> 0").src
    s = Types.of([t1, t2, RAW_INT])
    assert len(s.members) == 2
    assert [canon(t) for t in s.members] == sorted({canon(t1), canon(RAW_INT)})
    assert [canon(t) for t in Types.of([RAW_INT, t2, t1]).members] == [canon(t) for t in s.members]


def test_types_of_e3(e3):
    srcs = ["{x:Int|true}", "{x:Int|x >= 0}", "{x:Int|x mod 2 = 0}", "{x:Int|x <> 0}"]
    assert type_keys(e3) == {canon(parse(f"<{s} => {s} @ l> 0").src) for s in srcs}


def test_types_of_includes_predicate_subterm_types():
    # a refinement whose predicate itself applies a cast contributes both types
    e = parse("<{x:Int|(\\y:{z:Int|z > 0}. true) 1} => {x:Int|true} @ l> 2")
    assert len(type_keys(e)) >= 3


def test_structural_folds_handle_deep_terms():
    # 5,000 levels of `<Int => Nat> (...) + 1`, built directly: far deeper than
    # the interpreter's recursion limit, so every fold here must be iterative
    nat = parse_type("{x:Int|x >= 0}")
    e = Const(0)
    for i in range(5_000):
        e = Op("+", (Cast(RAW_INT, EMPTY_ANN, nat, f"l{i}", e), Const(1)))
    assert type_keys(e) == {canon(RAW_INT), canon(nat)}
    stats = space_stats(e)
    assert stats.pending == 5_000 and stats.live_types == 2


def test_with_child_replaces_one_child_and_keeps_the_rest():
    fact = load_example("fact.lh")
    roots = [fact] + [gen_source(seed, 20) for seed in range(20)]
    # runtime forms (active checks, coercion stacks) occur only in traces
    roots += machine(Mode.EIDETIC).eval(fact, 100_000, trace=True).trace_terms()
    roots += machine(Mode.HEEDFUL).eval(fact, 100_000, trace=True).trace_terms()
    nodes = {id(n): n for root in roots for n in subterms(root) if children(n)}
    kinds = set()
    for e in nodes.values():
        kids = children(e)
        own = [f.name for f in dataclasses.fields(e) if f.name != "args" and getattr(e, f.name) not in kids]
        for i in range(len(kids)):
            c = Const(7)
            new = with_child(e, i, c)
            assert type(new) is type(e)
            new_kids = children(new)
            assert new_kids[i] is c
            assert all(new_kids[j] is k for j, k in enumerate(kids) if j != i)
            assert all(getattr(new, f) is getattr(e, f) for f in own)
            assert rebuilt_at(e, new) == (i, c)
            for f in own:  # a node that differs in any other part is not rebuilt at a child
                assert rebuilt_at(e, dataclasses.replace(new, **{f: object()})) is None
        kinds.add(type(e).__name__)
    assert kinds == {"Abs", "App", "Op", "Cast", "Cond", "Fix", "ActiveCheck", "CoercionStack"}


def _direct_parts(node) -> list:
    """The terms and types directly inside node, found through the dataclass
    fields of the node and of its annotation, coercion and refinement lists."""

    found = []

    def visit(value):
        if isinstance(value, NODE_CLASSES):
            found.append(value)
        elif isinstance(value, tuple):
            for item in value:
                visit(item)
        elif dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                visit(getattr(value, f.name))

    for f in dataclasses.fields(node):
        visit(getattr(node, f.name))
    return found


def test_map_parts_visits_every_direct_part_once():
    fact = load_example("fact.lh")
    roots = [fact] + [gen_source(seed, 14) for seed in range(4)]
    roots += machine(Mode.EIDETIC).eval(fact, 100_000, trace=True).trace_terms()
    roots += machine(Mode.HEEDFUL).eval(fact, 100_000, trace=True).trace_terms()
    roots += machine(Mode.CLASSIC).eval(load_example("triple.lh"), 1_000, trace=True).trace_terms()  # blame
    nodes = {id(n): n for root in roots for n in _all_nodes(root).values() if isinstance(n, NODE_CLASSES)}
    kinds = set()
    for node in nodes.values():
        seen = []

        def visit(part):
            seen.append(part)
            return part

        copy = map_parts(node, visit, lambda binder, part: (binder, visit(part)))
        assert sorted(map(id, seen)) == sorted(map(id, _direct_parts(node))), type(node).__name__
        assert type(copy) is type(node) and canon(copy) == canon(node)
        kinds.add(type(node))
    assert kinds == set(NODE_CLASSES)


def _rebuild(node, leaf):
    """node with `leaf` applied to every Const in it, found through the
    dataclass fields of every node, annotation and coercion: a walk that does
    not share the part map it checks."""

    if isinstance(node, Const):
        return leaf(node)
    if isinstance(node, tuple):
        return tuple(_rebuild(n, leaf) for n in node)
    if not dataclasses.is_dataclass(node):
        return node
    old = {f.name: getattr(node, f.name) for f in dataclasses.fields(node)}
    new = {name: _rebuild(value, leaf) for name, value in old.items()}
    if all(new[name] is old[name] for name in old):
        return node
    return dataclasses.replace(node, **new)


def _reference_free_vars(node, memo: dict) -> frozenset:
    """Free variables by their definition, over the dataclass fields of node;
    memo holds the answers by node id while those nodes are alive."""

    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, tuple):
        return frozenset().union(*(_reference_free_vars(n, memo) for n in node))
    if not dataclasses.is_dataclass(node):
        return frozenset()
    if id(node) not in memo:
        parts = tuple(getattr(node, f.name) for f in dataclasses.fields(node))
        if isinstance(node, (Abs, Fix, Refinement)):
            # the binder scopes over the last field only
            inner = _reference_free_vars(parts[-1], memo) - {node.binder}
            memo[id(node)] = _reference_free_vars(parts[:-1], memo) | inner
        else:
            memo[id(node)] = _reference_free_vars(parts, memo)
    return memo[id(node)]


def _all_nodes(node) -> dict:
    """Every node, annotation and coercion reachable from node through its fields, by id."""

    found, todo = {}, [node]
    while todo:
        n = todo.pop()
        if isinstance(n, tuple):
            todo.extend(n)
        elif dataclasses.is_dataclass(n) and id(n) not in found:
            found[id(n)] = n
            todo.extend(getattr(n, f.name) for f in dataclasses.fields(n))
    return found


def _substitution_corpus():
    fact = load_example("fact.lh")
    terms = [fact] + [gen_source(seed, 14) for seed in range(4)]
    for root in list(terms):
        for mode in (Mode.HEEDFUL, Mode.EIDETIC):
            trace = machine(mode).eval(root, 100_000, trace=True).trace_terms()
            terms += trace[:: max(1, len(trace) // 12)]
    return terms


def test_subst_reaches_every_part():
    # each constant, wherever it sits (a term position, or a refinement
    # predicate held by a cast, a heedful type set, an eidetic coercion or a
    # coercion stack's pending list), is replaced by z and substituted back
    z = Var("z")
    places = set()
    for term in _substitution_corpus():
        consts, term_nodes = set(), _all_nodes(term)
        _rebuild(term, lambda n: consts.add((type(n.value), n.value)) or n)
        for kind, value in consts:
            hits = []

            def plant(n):
                if (type(n.value), n.value) == (kind, value):
                    hits.append(n)
                    return z
                return n

            planted = _rebuild(term, plant)
            assert hits and free_vars(planted) == {"z"}
            back = subst(planted, "z", Const(value))
            assert canon(back) == canon(term)
            memo = {}
            for key, node in _all_nodes(back).items():
                if key not in term_nodes and "_fv" in vars(node):
                    assert node._fv == _reference_free_vars(node, memo), canon(node)
        for e in subterms(term):
            whole, alone = held_types(e)
            if isinstance(e, Cast) and len(whole) > 2:
                places.add("type set")
            elif isinstance(e, Cast) and alone:
                places.add("coercion")
            elif isinstance(e, CoercionStack) and alone:
                places.add("pending list")
            places.add(type(e).__name__)
    assert {"type set", "coercion", "pending list", "ActiveCheck", "Fix", "Cond"} <= places


def test_subst_renames_a_capturing_refinement_binder():
    # {y:Int | y > x}[x := y] must rename the predicate's binder
    ref = Refinement("y", BaseType.INT, Op(">", (Var("y"), Var("x"))))
    out = subst(ref, "x", Var("y"))
    assert out.binder != "y"
    assert alpha_eq(out, Refinement("w", BaseType.INT, Op(">", (Var("w"), Var("y")))))
    # the same, held by a lambda's annotation and by a cast's target
    lam = Abs("a", ref, Var("x"))
    out = subst(lam, "x", Var("y"))
    assert alpha_eq(out, Abs("a", Refinement("w", BaseType.INT, Op(">", (Var("w"), Var("y")))), Var("y")))
    cast = Cast(RAW_INT, EMPTY_ANN, ref, "l", Var("x"))
    out = subst(cast, "x", Var("y"))
    assert free_vars(out) == {"y"} and out.tgt.binder != "y"


# the benchmark's loop shape in its value and blame variants, and the
# recursive examples: every lambda in their unrolled bodies gets a plan
PLANNED_SOURCES = [
    r"""
let rec loop : {x:Int|true} -> {x:Int|true} -> {x:Int|x > -2} =
  \n:{x:Int|true}. \acc:{x:Int|true}.
    if n = 0 then <{x:Int|true} => {x:Int|x > -2} @ b7> acc
    else <{x:Int|x > -2} => {x:Int|x > -2} @ r3> (loop (n - 1) (acc + n));
loop 20 (%s)
"""
    % acc
    for acc in (17, -1000)
] + [(EXAMPLES / name).read_text() for name in ("fact.lh", "evenodd.lh")]
PLAN_CONSTS = (Const(0), Const(1), Const(-7), Const(1000003))


def _plan_findings() -> tuple[int, list[str]]:
    """Run the plan of every lambda in the unrolled body of each closed Fix of
    PLANNED_SOURCES on the lambda's body, and the plan each result's rebuilt
    lambdas carry on their copied bodies.  A finding is a result that prints
    differently from `subst`, or a rebuilt node whose cached free variables or
    measures differ from those of an uncached copy.  Returns (runs, findings)."""

    todo = []
    for text in PLANNED_SOURCES:
        for fix in [n for n in subterms(parse(text)) if isinstance(n, Fix) and not free_vars(n)]:
            body = unroll(fix)
            measures(body)  # measured, so that plans have measures to copy
            todo += [(n, 0) for n in subterms(body) if isinstance(n, Abs) and getattr(n, "_plan", None)]
    runs, findings = 0, []
    while todo:
        lam, depth = todo.pop()
        before = {id(n) for n in subterms(lam.body)}
        for c in PLAN_CONSTS:
            got, want = lam._plan(lam.body, c), subst(lam.body, lam.binder, c)
            runs += 1
            where = f"{print_term(lam)} [{c.value}]"
            if print_term(got) != print_term(want):
                findings.append(f"{where}: {print_term(got)} != {print_term(want)}")
            for n in subterms(got):
                if id(n) in before or n is c:
                    continue  # read from the body or put in, not rebuilt
                if n._fv != free_vars(uncached(n)):
                    findings.append(f"{where}: _fv {sorted(n._fv)} at {print_term(n)}")
                if n._sm != measures(uncached(n)):
                    findings.append(f"{where}: _sm at {print_term(n)}")
                if isinstance(n, Abs) and getattr(n, "_plan", None) and depth == 0:
                    todo.append((n, 1))  # a copy an earlier plan made
    return runs, findings


def test_plans_agree_with_subst():
    # Machine.step and Machine.eval both reach Machine._app, which runs the
    # plans: this comparison is what checks them against subst, the reference
    runs, findings = _plan_findings()
    assert findings == []
    # seven planned lambdas, and the copies of the inner lambda that three of them rebuild
    assert runs >= len(PLAN_CONSTS) * (7 + 3 * len(PLAN_CONSTS))


def test_unroll_plans_no_lambda_of_the_fix_it_puts_in():
    # the two lambdas of proxy_loop.lh's unrolled body get plans; those of the
    # source body, under the Fix put in for the binder, are never applied
    fix = next(n for n in subterms(load_example("proxy_loop.lh")) if isinstance(n, Fix))
    body = unroll(fix)
    planned = {n for n in (*subterms(fix), *subterms(body)) if isinstance(n, Abs) and hasattr(n, "_plan")}
    assert len(planned) == 2 and all(n._plan is not None for n in planned)


def test_a_plan_that_skips_an_occurrence_fails_the_plan_check(monkeypatch):
    real, skipped = syntax._planned, []

    def skipping(e, x):
        if isinstance(e, Var) and e.name == x and not skipped:
            skipped.append(e)
            return syntax._keep
        return real(e, x)

    monkeypatch.setattr(syntax, "_planned", skipping)
    _, findings = _plan_findings()
    assert skipped and findings


# ---------------------------------------------------------------------------
# Node classes are plain dataclasses: only the convention checked here keeps a
# node's fields fixed, and the memos keyed by node rely on identity equality

SYNTAX_CLASSES = [c for c in vars(syntax).values() if isinstance(c, type) and dataclasses.is_dataclass(c)]


def test_no_node_field_is_assigned_after_construction(monkeypatch):
    # the guard fails a write to a field already set; caches (`_fv`, `_sm`,
    # `_plan`, ...) are not fields.  It runs over the examples, the two tail
    # loops at n = 20 and 20 generated programs, through every front end and
    # every way the machine runs, in all four modes
    writes = []

    def guarded(node, name, value):
        if name in node.__dataclass_fields__ and name in node.__dict__:
            writes.append(f"{type(node).__name__}.{name}")
            raise AttributeError(f"{writes[-1]} assigned after construction")
        object.__setattr__(node, name, value)

    for cls in SYNTAX_CLASSES:
        monkeypatch.setattr(cls, "__setattr__", guarded)
    with pytest.raises(AttributeError):
        Const(1).value = 2
    assert writes == ["Const.value"]
    writes.clear()

    examples = {path.name: parse(path.read_text()) for path in sorted(EXAMPLES.glob("*.lh"))}
    loop = examples["proxy_loop.lh"]  # 20 iterations, like the tail loops, not its 1000 (2 s)
    examples["proxy_loop.lh"] = App(App(loop.fn.fn, Const(20)), loop.arg)
    programs = [*examples.values(), *map(parse, PLANNED_SOURCES[:2])] + [gen_source(s, 5 + s % 26) for s in range(20)]
    for e in programs:
        check_source(e)
        canon(e)
        print_term(e)
        for mode in ALL_MODES:
            machine(mode).eval(e, 100_000)
            eval_metered(mode, e, 100_000, series=True)
            out = machine(mode).eval(e, 100_000, trace=True)
            assert out.kind is not OutcomeKind.BUDGET
            assert check_trace(mode, out.trace_terms()) == []
        diff_modes(e)
    assert writes == []


def test_nodes_compare_and_hash_by_identity():
    # typecheck.Checker._memo and harness._LiveNodes.table key nodes by
    # object: value equality would merge the entries of equal nodes
    for cls in SYNTAX_CLASSES:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls.__name__
    a, b = Const(1), Const(1)
    assert alpha_eq(a, b) and len({a: "a", b: "b"}) == 2
