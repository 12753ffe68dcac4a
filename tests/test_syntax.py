import dataclasses

from conftest import load_example
from lh.harness import gen_source
from lh.metering import space_stats
from lh.semantics import machine
from lh.surface import parse, parse_type, print_term
from lh.syntax import (
    Abs,
    App,
    BaseType,
    Cast,
    Const,
    EMPTY_ANN,
    Op,
    Refinement,
    TypeSet,
    Var,
    alpha_eq,
    canon,
    children,
    free_vars,
    height,
    is_raw,
    Mode,
    raw,
    subst,
    subterms,
    term_size,
    type_keys,
    types_of,
    with_child,
)

RAW_INT = raw(BaseType.INT)


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
    s = TypeSet.of([t1, t2, RAW_INT])
    assert len(s) == 2
    assert t1 in s and t2 in s
    assert len(s.remove(t2)) == 1
    assert len(s.add(t1)) == 2


def test_types_of_e3(e3):
    names = {canon(t) for t in types_of(e3)}
    srcs = ["{x:Int|true}", "{x:Int|x >= 0}", "{x:Int|x mod 2 = 0}", "{x:Int|x <> 0}"]
    expected = {canon(parse(f"<{s} => {s} @ l> 0").src) for s in srcs}
    assert names == expected


def test_types_of_includes_predicate_subterm_types():
    # a refinement whose predicate itself applies a cast contributes both types
    e = parse("<{x:Int|(\\y:{z:Int|z > 0}. true) 1} => {x:Int|true} @ l> 2")
    assert len(types_of(e)) >= 3


def test_height_and_term_size(e3):
    assert height(RAW_INT) == 1
    fun = parse("<{x:Int|true} -> {x:Int|true} => {x:Int|true} -> {x:Int|true} @ l> (\\x:{x:Int|true}. x)").src
    assert height(fun) == 2
    assert term_size(Const(5)) == 1
    # cast(cast(cast(-1))) plus three predicates of sizes 1, 4, 4 inside types is
    # not counted: term_size counts term nodes only
    assert term_size(e3) == 4


def test_structural_folds_handle_deep_terms():
    # 5,000 levels of `<Int => Nat> (...) + 1`, built directly: far deeper than
    # the interpreter's recursion limit, so every fold here must be iterative
    nat = parse_type("{x:Int|x >= 0}")
    e = Const(0)
    for i in range(5_000):
        e = Op("+", (Cast(RAW_INT, EMPTY_ANN, nat, f"l{i}", e), Const(1)))
    assert type_keys(e) == {canon(RAW_INT), canon(nat)}
    assert {canon(t) for t in types_of(e)} == {canon(RAW_INT), canon(nat)}
    assert term_size(e) == 3 * 5_000 + 1
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
        kinds.add(type(e).__name__)
    assert kinds == {"Abs", "App", "Op", "Cast", "Cond", "Fix", "ActiveCheck", "CoercionStack"}
