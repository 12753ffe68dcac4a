import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_example
from lh import eval_term, semantics
from lh.harness import check_trace, gen_source
from lh.metering import eval_metered
from lh.semantics import (
    IsBlame,
    IsValue,
    Machine,
    OpUndefined,
    OutcomeKind,
    OverflowFault,
    Stepped,
    Stuck,
    apply_op,
    axiom_oracle,
    choose,
    coerce,
    machine,
    merge,
    merge_refs,
    ref_drop,
    split_annotation,
    status_join,
)
from lh.surface import parse, parse_type, print_term
from lh.syntax import (
    ALL_MODES,
    Abs,
    App,
    Cast,
    CoercionStack,
    Const,
    EMPTY_ANN,
    EMPTY_TYPES,
    Fix,
    Fun,
    FunC,
    Mode,
    Op,
    RefEntry,
    Refs,
    Status,
    Types,
    Var,
    alpha_eq,
    canon,
    children,
    free_vars,
    subst,
    subterms,
    unroll,
)
from lh.typecheck import Checker, TypeCheckError, check_source

ANY = parse_type("{x:Int|true}")
NAT = parse_type("{x:Int|x >= 0}")
EVEN = parse_type("{x:Int|x mod 2 = 0}")
NZ = parse_type("{x:Int|x <> 0}")


# -- operations


def test_apply_op_basics():
    assert apply_op("+", [Const(2), Const(3)]).value == 5
    assert apply_op("mod", [Const(-1), Const(2)]).value == 1
    assert apply_op("div", [Const(7), Const(2)]).value == 3
    assert apply_op("div", [Const(-7), Const(2)]).value == -4
    assert apply_op("<=", [Const(1), Const(1)]).value is True
    assert apply_op("not", [Const(False)]).value is True


def test_apply_op_partiality():
    with pytest.raises(OpUndefined):
        apply_op("div", [Const(1), Const(0)])
    with pytest.raises(OpUndefined):
        apply_op("mod", [Const(1), Const(0)])
    with pytest.raises(OverflowFault):
        apply_op("*", [Const(2**62), Const(4)])
    with pytest.raises(OpUndefined):
        apply_op("+", [Const(True), Const(1)])


def test_division_by_zero_is_stuck():
    out = eval_term(Mode.CLASSIC, parse("1 div 0"), 100)
    assert out.kind is OutcomeKind.STUCK


@pytest.mark.parametrize("e", [Op("+", (Const(1),)), Op("not", (Const(True), Const(False)))])
def test_an_operation_with_the_wrong_number_of_arguments_is_stuck(e):
    # the arity is the length of the operator's domain tuple, as the typechecker reads it
    want = f"operation {e.name!r} undefined: {e.name!r} expects {len(semantics.OPS[e.name][0])} arguments"
    for mode in ALL_MODES:
        out = eval_term(mode, e, 100)
        assert out.kind is OutcomeKind.STUCK and out.stuck_reason == want
        assert machine(mode).step(e) == Stuck(want)


# -- annotation algebra


def test_coerce_refinements_and_functions():
    c = coerce(ANY, NAT, "l")
    assert isinstance(c, Refs)
    assert len(c.entries) == 1 and alpha_eq(c.entries[0].ref, NAT) and c.entries[0].label == "l"
    # identity coercion still records the check
    c2 = coerce(ANY, ANY, "l")
    assert isinstance(c2, Refs) and len(c2.entries) == 1 and alpha_eq(c2.entries[0].ref, ANY)
    fc = coerce(parse_type("{x:Int|true} -> {x:Int|x >= 0}"), parse_type("{x:Int|x <> 0} -> {x:Int|true}"), "l")
    assert isinstance(fc, FunC)
    assert alpha_eq(fc.dom.entries[0].ref, ANY)  # contravariant: target dom -> source dom
    assert alpha_eq(fc.cod.entries[0].ref, ANY)


def test_merge_refs_keeps_leftmost_label():
    r1 = (RefEntry(NAT, "a"),)
    r2 = (RefEntry(NAT, "b"), RefEntry(EVEN, "c"))
    merged = merge_refs(r1, r2)
    assert [(print_term(e.ref.predicate), e.label) for e in merged] == [
        (print_term(NAT.predicate), "a"),
        (print_term(EVEN.predicate), "c"),
    ]


def test_ref_drop_is_a_subsequence():
    entries = (RefEntry(NAT, "a"), RefEntry(EVEN, "b"), RefEntry(NAT, "c"))
    dropped = ref_drop(entries, NAT)
    assert dropped == (entries[1],)


def test_merge_modes():
    assert merge(Mode.CLASSIC, EMPTY_ANN, NAT, EMPTY_ANN) is None
    assert isinstance(merge(Mode.FORGETFUL, EMPTY_ANN, NAT, EMPTY_ANN), type(EMPTY_ANN))
    h = merge(Mode.HEEDFUL, EMPTY_TYPES, NAT, EMPTY_TYPES)
    assert isinstance(h, Types) and len(h.members) == 1 and alpha_eq(h.members[0], NAT)
    e = merge(Mode.EIDETIC, coerce(ANY, NAT, "l1"), NAT, coerce(NAT, NZ, "l2"))
    assert isinstance(e, Refs) and len(e.entries) == 2
    assert merge(Mode.FORGETFUL, EMPTY_TYPES, NAT, EMPTY_ANN) is None


def test_choose_policies():
    # canon order: NZ's "(op <> ..." sorts before EVEN's "(op = ..." and NAT's "(op >= ..."
    s = Types.of([NAT, EVEN, NZ])
    cast = parse("<{x:Int|true} => {x:Int|x > 0} @ l> 4")
    cast = Cast(cast.src, s, cast.tgt, cast.label, cast.subject)
    for policy, order in (("lex-min", [NZ, EVEN, NAT]), ("lex-max", [NAT, EVEN, NZ])):
        chosen, rest = choose(s, policy)
        assert alpha_eq(chosen, order[0])
        assert [canon(t) for t in rest.members] == sorted(canon(t) for t in order[1:])
        # the machine checks the members in that order, the chosen one as the new source
        out = Machine(Mode.HEEDFUL, choose_policy=policy).eval(cast, 100, trace=True)
        checked = [step.term.src for step in out.trace if step.rule == "E-CheckSet"]
        assert [canon(t) for t in checked] == [canon(t) for t in order]
        assert out.kind is OutcomeKind.VALUE and out.term.value == 4
    with pytest.raises(ValueError):
        choose(EMPTY_TYPES)


def test_status_join():
    p, q = NAT.predicate, NZ.predicate
    assert status_join(Status.CHECKED, p, q) is Status.CHECKED
    assert status_join(Status.UNCHECKED, p, p) is Status.CHECKED
    assert status_join(Status.UNCHECKED, p, q) is Status.UNCHECKED


_TYPE_SET = Types.of([NAT])
_REF_LIST = coerce(ANY, NAT, "l")
_FUN_COERCION = coerce(Fun(ANY, ANY), Fun(ANY, NAT), "l")
_OUTSIDE_HEEDFUL = "type-set annotation outside heedful mode"
_OUTSIDE_EIDETIC = "coercion annotation outside eidetic mode"


@pytest.mark.parametrize(
    "mode, ann, reason",
    [pytest.param(m, _TYPE_SET, _OUTSIDE_HEEDFUL, id=f"types-{m.value}") for m in ALL_MODES if m is not Mode.HEEDFUL]
    + [pytest.param(m, _REF_LIST, _OUTSIDE_EIDETIC, id=f"refs-{m.value}") for m in ALL_MODES if m is not Mode.EIDETIC]
    + [pytest.param(m, _FUN_COERCION, _OUTSIDE_EIDETIC, id=f"func-{m.value}") for m in ALL_MODES if m is not Mode.EIDETIC]
    + [pytest.param(Mode.EIDETIC, _FUN_COERCION, "function coercion on a refinement cast", id="func-on-refinement")],
)
def test_a_foreign_annotation_is_stuck_and_ill_formed(mode, ann, reason):
    e = parse("<{x:Int|true} => {x:Int|x >= 0} @ l> 4")
    e = Cast(e.src, ann, e.tgt, e.label, e.subject)
    out = Machine(mode).eval(e, 100)
    assert (out.kind, out.stuck_reason, out.steps) == (OutcomeKind.STUCK, reason, 0)
    assert Machine(mode).step(e) == Stuck(reason)
    with pytest.raises(TypeCheckError) as exc:
        Checker(mode).wf_annotation(e.ann, e.src, e.tgt)
    assert (exc.value.kind, exc.value.detail) == ("IllFormedAnnotation", reason)


_BOOL = parse_type("{b:Bool|true}")


@pytest.mark.parametrize(
    "inner, why",
    [
        pytest.param(
            Cast(Fun(ANY, ANY), _FUN_COERCION, Fun(ANY, NAT), None, parse("\\x:{x:Int|true}. x")),
            "coercion_merge: mismatched coercion shapes",
            id="refs-over-func",
        ),
        pytest.param(
            Cast(_BOOL, coerce(_BOOL, _BOOL, "lb"), _BOOL, None, Const(True)),
            "implication is only defined at a single base type",
            id="int-over-bool",
        ),
    ],
)
def test_an_eidetic_cast_over_a_cast_whose_coercions_do_not_compose_is_stuck(inner, why):
    e = Cast(ANY, _REF_LIST, NAT, None, inner)  # an annotated eidetic cast over inner
    reason = f"cast over a cast whose coercions do not compose: {why}"
    for out in (Machine(Mode.EIDETIC).eval(e, 100), eval_metered(Mode.EIDETIC, e, 100)[0]):
        assert (out.kind, out.stuck_reason, out.steps) == (OutcomeKind.STUCK, reason, 0)
    assert Machine(Mode.EIDETIC).step(e) == Stuck(reason)


_ANY_TO_ANY = Fun(ANY, ANY)
_MEMBER = "type-set member dissimilar to the cast"
_LAMBDA = parse("\\y:{x:Int|true}. y")


@pytest.mark.parametrize(
    "mode, e, reason",
    [
        # a cast at types of two shapes: E-Coerce raised coerce's ValueError,
        # and E-CheckSet and E-Unwrap an AssertionError, out of the machine
        (Mode.EIDETIC, Cast(ANY, EMPTY_ANN, _ANY_TO_ANY, "l", Const(3)), "cast between dissimilar types"),
        (Mode.HEEDFUL, Cast(ANY, Types((_ANY_TO_ANY,)), NAT, "l", Const(3)), _MEMBER),
        (Mode.HEEDFUL, App(Cast(_ANY_TO_ANY, Types((ANY,)), _ANY_TO_ANY, "l", _LAMBDA), Const(1)), _MEMBER),
        (Mode.CLASSIC, Op("nope", (Const(1),)), "operation 'nope' undefined: unknown operation 'nope'"),
        (Mode.CLASSIC, NAT, "unknown term Refinement"),
        (Mode.CLASSIC, parse("9223372036854775807 + 1"), "integer overflow in '+'"),
        (
            Mode.EIDETIC,
            CoercionStack(NAT, Status.CHECKED, (), Const(1), _LAMBDA),
            "coercion stack reduced to a non-constant value",
        ),
        (Mode.EIDETIC, Cast(ANY, EMPTY_ANN, NAT, None, Const(1)), "eidetic cast with empty annotation and empty label"),
    ],
    ids=["coerce", "check-set", "unwrap", "unknown-op", "unknown-term", "overflow", "stack-on-lambda", "empty-label"],
)
def test_stuck_texts(mode, e, reason):
    outs = [Machine(mode).eval(e, 100)]
    if e is not NAT:  # the meter measures terms only
        outs.append(eval_metered(mode, e, 100)[0])
    for out in outs:
        assert (out.kind, out.stuck_reason, out.steps) == (OutcomeKind.STUCK, reason, 0)
    assert Machine(mode).step(e) == Stuck(reason)


def test_split_annotation():
    d, c = split_annotation(EMPTY_ANN)
    assert isinstance(d, type(EMPTY_ANN)) and isinstance(c, type(EMPTY_ANN))
    fc = FunC(Refs((RefEntry(NAT, "l"),)), Refs((RefEntry(NZ, "l"),)))
    d, c = split_annotation(fc)
    assert d is fc.dom and c is fc.cod


def test_axiom_oracle_closure():
    oracle = axiom_oracle([(EVEN, NAT), (NAT, ANY)])
    assert oracle(EVEN, NAT)
    assert oracle(EVEN, ANY)  # transitivity
    assert oracle(NZ, NZ)  # reflexivity
    assert not oracle(NAT, EVEN)


# -- the running example


E3_EXPECTED = {
    Mode.CLASSIC: (OutcomeKind.BLAME, "l1"),
    Mode.FORGETFUL: (OutcomeKind.VALUE, -1),
    Mode.HEEDFUL: (OutcomeKind.BLAME, "l3"),
    Mode.EIDETIC: (OutcomeKind.BLAME, "l1"),
}


@pytest.mark.parametrize("mode", ALL_MODES, ids=[m.value for m in ALL_MODES])
def test_e3_outcomes(e3, mode):
    out = eval_term(mode, e3, 10_000)
    kind, payload = E3_EXPECTED[mode]
    assert out.kind is kind
    if kind is OutcomeKind.BLAME:
        assert out.label == payload
    else:
        assert out.term.value == payload


def test_e3_rule_traces(e3):
    rules = lambda m: [s.rule for s in eval_term(m, e3, 10_000, trace=True).trace]
    assert rules(Mode.CLASSIC) == ["E-CheckNoneC", "E-Op", "E-CheckFail", "E-CastRaise", "E-CastRaise"]
    assert rules(Mode.FORGETFUL) == ["E-CastMergeE", "E-CastMergeE", "E-CheckNoneC", "E-Op", "E-CheckOK"]
    assert rules(Mode.EIDETIC)[:5] == ["E-Coerce", "E-Coerce", "E-CastMergeE", "E-Coerce", "E-CastMergeE"]
    assert rules(Mode.EIDETIC)[5:] == ["E-CoerceStack", "E-StackPop", "E-Op", "E-CheckFail", "E-StackRaise"]


def test_forgetful_merge_keeps_outer_label():
    # both inner checks are skipped; only the outermost target is checked,
    # and a failure blames the outer cast
    e = parse(
        "<{x:Int|x >= 0} => {x:Int|x < 0} @ louter> (<{x:Int|true} => {x:Int|x >= 0} @ linner> 5)"
    )
    out = eval_term(Mode.FORGETFUL, e, 100)
    assert out.kind is OutcomeKind.BLAME and out.label == "louter"


def test_function_proxy_unwrap():
    e = parse(
        "(<{x:Int|true} -> {x:Int|true} => {x:Int|true} -> {x:Int|x > 0} @ lp> (\\x:{x:Int|true}. x)) 0"
    )
    for mode in ALL_MODES:
        out = eval_term(mode, e, 1_000)
        assert out.kind is OutcomeKind.BLAME and out.label == "lp", mode


def test_classic_proxies_can_stack_but_others_annotate():
    proxy_src = (
        "<{x:Int|true} -> {x:Int|true} => {x:Int|true} -> {x:Int|true} @ l2>"
        " (<{x:Int|true} -> {x:Int|true} => {x:Int|true} -> {x:Int|true} @ l1> (\\x:{x:Int|true}. x))"
    )
    e = parse(proxy_src)
    out = eval_term(Mode.CLASSIC, e, 100)
    assert out.kind is OutcomeKind.VALUE
    assert isinstance(out.term, Cast) and isinstance(out.term.subject, Cast)
    out = eval_term(Mode.FORGETFUL, e, 100)
    assert out.kind is OutcomeKind.VALUE
    assert isinstance(out.term, Cast) and not isinstance(out.term.subject, Cast)


def test_budget_exceeded():
    e = parse("let rec f : {x:Int|true} -> {x:Int|true} = \\x:{x:Int|true}. f x; f 1")
    out = eval_term(Mode.CLASSIC, e, 50)
    assert out.kind is OutcomeKind.BUDGET


def test_blame_propagation_through_contexts():
    checks = [
        ("(\\x:{x:Int|true}. x) (<{x:Int|true} => {x:Int|x <> 0} @ l> 0)", "l"),
        ("1 + (<{x:Int|true} => {x:Int|x <> 0} @ l> 0)", "l"),
        ("if <{b:Bool|true} => {b:Bool|b} @ l> false then 1 else 2", "l"),
    ]
    for src, label in checks:
        for mode in ALL_MODES:
            out = eval_term(mode, parse(src), 1_000)
            assert out.kind is OutcomeKind.BLAME and out.label == label, (src, mode)


# -- reference stepper vs machine


def _naive_trace(mode, e, limit=10_000):
    mach = machine(mode)
    terms, rules = [e], []
    for _ in range(limit):
        out = mach.step(terms[-1])
        if isinstance(out, Stepped):
            terms.append(out.term)
            rules.append(out.rule)
            continue
        return terms, rules, out
    raise AssertionError("limit hit")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 5_000), size=st.integers(1, 20))
def test_machine_agrees_with_reference_stepper(seed, size):
    e = gen_source(seed, size)
    for mode in ALL_MODES:
        out = eval_term(mode, e, 10_000, trace=True)
        terms, rules, final = _naive_trace(mode, e)
        assert [s.rule for s in out.trace] == rules
        machine_terms = out.trace_terms()
        assert len(machine_terms) == len(terms)
        for a, b in zip(machine_terms, terms):
            assert alpha_eq(a, b)
        if out.kind is OutcomeKind.VALUE:
            assert isinstance(final, IsValue)
        elif out.kind is OutcomeKind.BLAME:
            assert isinstance(final, IsBlame) and final.label == out.label


def _fact(n):
    return App(App(load_example("fact.lh").fn.fn, Const(n)), Const(1))


# a tail loop whose base-case cast blames: classic and eidetic blame the
# innermost cast, forgetful and heedful keep only the outer one
BLAMING_LOOP = r"""
let rec loop : {x:Int|true} -> {x:Int|true} -> {x:Int|x >= 0} =
  \n:{x:Int|true}. \acc:{x:Int|true}.
    if n = 0 then <{x:Int|true} => {x:Int|x >= 0} @ lbase> acc
    else <{x:Int|x >= 0} => {x:Int|x >= 0} @ lrec> (loop (n - 1) (acc + n));
loop 8 (-100)
"""


def _assert_agrees_with_reference(mode, e):
    """Recursive programs reach deep contexts and long runs of cast-frame
    pops, which gen_source never builds."""

    out = eval_term(mode, e, 100_000, trace=True)
    terms, rules, final = _naive_trace(mode, e, limit=100_000)
    assert [s.rule for s in out.trace] == rules
    machine_terms = out.trace_terms()
    assert len(machine_terms) == len(terms)
    for a, b in zip(machine_terms, terms):
        assert alpha_eq(a, b)
    for i, s in enumerate(out.trace):
        assert alpha_eq(s.term, machine_terms[i + 1])
    if out.kind is OutcomeKind.VALUE:
        assert isinstance(final, IsValue)
    else:
        assert isinstance(final, IsBlame) and final.label == out.label
    return out


# blame raised out of an application's function (E-AppRaiseL) and out of an
# active check's predicate (E-CheckRaise) by a cast chain through {x:Int|x > 0}
# over 0: classic and eidetic blame its inner cast and heedful its outer one;
# forgetful merges it into a cast that passes, so the guard and the check fail
RAISING = {
    "E-AppRaiseL": (
        r"(if (<{x:Int|x > 0} => {x:Int|true} @ l2> (<{x:Int|true} => {x:Int|x > 0} @ l1> 0)) > 0"
        r" then \y:{x:Int|true}. y else \y:{x:Int|true}. y) 1",
        {Mode.CLASSIC: "l1", Mode.FORGETFUL: 1, Mode.HEEDFUL: "l2", Mode.EIDETIC: "l1"},
    ),
    "E-CheckRaise": (
        r"<{x:Int|true} => {x:Int| (<{x:Int|x > 0} => {x:Int|true} @ l2>"
        r" (<{x:Int|true} => {x:Int|x > 0} @ l1> x)) > 0} @ l> 0",
        {Mode.CLASSIC: "l1", Mode.FORGETFUL: "l", Mode.HEEDFUL: "l2", Mode.EIDETIC: "l1"},
    ),
}


@pytest.mark.parametrize("rule", sorted(RAISING))
def test_blame_raised_out_of_a_function_or_a_check(rule):
    src, expected = RAISING[rule]
    e = parse(src)
    check_source(e)
    fired = set()
    for mode in ALL_MODES:
        out = _assert_agrees_with_reference(mode, e)
        assert (out.label if out.kind is OutcomeKind.BLAME else out.term.value) == expected[mode]
        assert check_trace(mode, out.trace_terms()) == []
        if rule in (s.rule for s in out.trace):
            fired.add(mode)
    assert fired == {Mode.CLASSIC, Mode.HEEDFUL, Mode.EIDETIC}


@pytest.mark.parametrize("n", [5, 12])
def test_machine_agrees_with_reference_stepper_on_fact(n):
    for mode in ALL_MODES:
        assert _assert_agrees_with_reference(mode, _fact(n)).kind is OutcomeKind.VALUE


def test_machine_agrees_with_reference_stepper_on_blaming_loop():
    labels = {Mode.CLASSIC: "lbase", Mode.FORGETFUL: "lrec", Mode.HEEDFUL: "lrec", Mode.EIDETIC: "lbase"}
    for mode in ALL_MODES:
        out = _assert_agrees_with_reference(mode, parse(BLAMING_LOOP))
        assert out.kind is OutcomeKind.BLAME and out.label == labels[mode]


# the benchmark's loop shape: a cast on the recursive call and on the base case
TAIL_LOOP = r"""
let rec loop : {x:Int|true} -> {x:Int|true} -> {x:Int|x > -2} =
  \n:{x:Int|true}. \acc:{x:Int|true}.
    if n = 0 then <{x:Int|true} => {x:Int|x > -2} @ b7> acc
    else <{x:Int|x > -2} => {x:Int|x > -2} @ r3> (loop (n - 1) (acc + n));
loop 20 ({acc})
"""


@pytest.mark.parametrize("mode", ALL_MODES)
def test_machine_agrees_with_reference_stepper_on_both_tail_loops(mode):
    value = _assert_agrees_with_reference(mode, parse(TAIL_LOOP.replace("{acc}", "17")))
    assert value.kind is OutcomeKind.VALUE and value.term.value == 17 + 20 * 21 // 2
    blame = _assert_agrees_with_reference(mode, parse(TAIL_LOOP.replace("{acc}", "-1000")))
    assert blame.kind is OutcomeKind.BLAME
    assert blame.label == ("b7" if mode in (Mode.CLASSIC, Mode.EIDETIC) else "r3")


def test_a_tail_loop_puts_its_constants_in_by_plan(monkeypatch):
    # each iteration's E-Beta steps run the plans of the cached body, not
    # subst; subst still gives each active check its constant (binder x)
    calls = []
    real = semantics.subst
    monkeypatch.setattr(semantics, "subst", lambda e, x, v: calls.append(x) or real(e, x, v))
    for mode in ALL_MODES:
        out = eval_term(mode, parse(TAIL_LOOP.replace("loop 20", "loop 50").replace("{acc}", "17")))
        assert out.kind is OutcomeKind.VALUE and out.term.value == 17 + 50 * 51 // 2
    assert calls.count("x") >= 50  # the patch sees the machine's calls
    assert calls.count("n") + calls.count("acc") <= 2 * len(ALL_MODES)


NESTED_LOOP = r"""
let rec loop : {x:Int|true} -> {x:Int|true} -> {x:Int|true} =
  \n:{x:Int|true}. \acc:{x:Int|true}.
    if n = 0 then acc
    else (let rec add : {x:Int|true} -> {x:Int|true} = \k:{x:Int|true}. k + n; loop (n - 1) (add acc));
loop 20 0
"""


def test_a_loop_whose_body_opens_a_fix_over_its_binder_runs_without_a_plan_there():
    # n is free in the inner fix, which no plan rebuilds: n's lambda gets none
    # and falls back to subst, while acc's lambda, whose fix holds no acc, gets one
    e = parse(NESTED_LOOP)
    lam_n = unroll(next(n for n in subterms(e) if isinstance(n, Fix)))
    lam_acc = lam_n.body
    assert (lam_n.binder, lam_acc.binder) == ("n", "acc")
    assert lam_n._plan is None and lam_acc._plan is not None
    for mode in ALL_MODES:
        out = _assert_agrees_with_reference(mode, e)
        assert out.kind is OutcomeKind.VALUE and out.term.value == 210


def test_e_fix_unrolls_a_closed_fix_once():
    fix = parse(BLAMING_LOOP).fn.fn
    assert isinstance(fix, Fix) and not free_vars(fix)
    first = machine(Mode.CLASSIC).step(fix)
    assert first.rule == "E-Fix" and alpha_eq(first.term, subst(fix.body, fix.binder, fix))
    for mode in ALL_MODES:
        again = machine(mode).step(fix)
        assert again.rule == "E-Fix" and again.term is first.term


def test_e_fix_unrolls_an_open_fix_once():
    # fix f. (\y. f y) y: y is free in the fix, so unrolling renames the inner
    # y, numbered per substitution whatever ran before
    fix = Fix("f", Fun(ANY, ANY), App(Abs("y", ANY, App(Var("f"), Var("y"))), Var("y")))
    for _ in range(3):
        subst(Abs("y", ANY, Var("x")), "x", Var("y"))  # renames a y too
    first, second = machine(Mode.CLASSIC).step(fix), machine(Mode.EIDETIC).step(fix)
    assert first.rule == second.rule == "E-Fix" and first.term is second.term
    assert first.term.fn.binder == "y_1"


def test_a_trace_step_equals_itself():
    out = eval_term(Mode.CLASSIC, load_example("fact.lh"), 10_000, trace=True)
    s = out.trace[50]
    assert s == s and hash(s) == hash(s)
    assert len(set(out.trace)) == out.steps


def test_tracing_rebuilds_no_more_than_plain_eval(monkeypatch):
    # recording a step must not plug the focus back into the whole context:
    # each read of a step's term does that, not the machine
    calls = [0]

    def counted(self, child, _rebuild=semantics.Frame.rebuild):
        calls[0] += 1
        return _rebuild(self, child)

    monkeypatch.setattr(semantics.Frame, "rebuild", counted)
    e = _fact(200)
    plain = eval_term(Mode.CLASSIC, e, 100_000)
    plain_calls, calls[0] = calls[0], 0
    traced = eval_term(Mode.CLASSIC, e, 100_000, trace=True)
    assert traced.steps == plain.steps > 2_000 and len(traced.trace) == traced.steps
    assert plain_calls > 0 and calls[0] <= plain_calls


def _mergeable_pairs(programs):
    """(mode, node) for each cast over a cast whose annotations merge, in the
    clean traces of programs in the three merging modes."""

    pairs = []
    for mode in (Mode.FORGETFUL, Mode.HEEDFUL, Mode.EIDETIC):
        seen = set()
        for e in programs:
            for term in eval_term(mode, e, 10_000, trace=True).trace_terms():
                for node in subterms(term):
                    if node in seen or type(node) is not Cast or type(node.subject) is not Cast:
                        continue
                    seen.add(node)
                    inner = node.subject
                    if merge(mode, inner.ann, inner.tgt, node.ann) is not None:
                        pairs.append((mode, node))
    return pairs


def _merges_first(mode, node):
    act = machine(mode)._local(node)
    return act[0] == "step" and act[2] == "E-CastMergeE"


def test_a_mergeable_cast_pair_merges_before_anything_else(monkeypatch):
    # merge priority: wherever it stands, a cast over a cast whose
    # annotations merge has E-CastMergeE for its local rule
    pairs = _mergeable_pairs([gen_source(seed, 4 + seed % 22) for seed in range(100)] + [_fact(6)])
    assert {mode for mode, _ in pairs} == {Mode.FORGETFUL, Mode.HEEDFUL, Mode.EIDETIC}
    assert len(pairs) >= 100
    assert all(_merges_first(mode, node) for mode, node in pairs)
    # a cast rule that steps the subject first breaks it (heedful and
    # eidetic reach Machine._cast through their own cast rules)
    cast = Machine._cast

    def subject_first(self, e):
        if self.is_value(e.subject):
            return cast(self, e)
        return ("descend", e, 0, e.subject)

    monkeypatch.setattr(Machine, "_cast", subject_first)
    assert not all(_merges_first(mode, node) for mode, node in pairs if mode is not Mode.FORGETFUL)


class _CountingObserver:
    def __init__(self):
        self.root = None
        self.frames = []
        self.pushes = self.pops = 0
        self.rules = []

    def start(self, root):
        self.root = root

    def push(self, frame, child):
        assert child is children(frame.orig)[frame.index]
        self.frames.append(frame)
        self.pushes += 1

    def pop(self, frame, child, rebuilt):
        assert self.frames.pop() is frame
        assert (rebuilt is frame.orig) == (child is children(frame.orig)[frame.index])
        self.pops += 1

    def step(self, rule, ctx, old, new):
        self.rules.append(rule)


def test_observer_sees_every_transition():
    programs = [load_example("triple.lh"), load_example("fact.lh")]
    programs += [gen_source(seed, 4 + seed % 20) for seed in range(20)]
    for e in programs:
        for mode in ALL_MODES:
            obs = _CountingObserver()
            out = machine(mode).eval(e, 100_000, trace=True, observer=obs)
            assert obs.root is e
            assert len(obs.rules) == out.steps
            assert obs.rules == [s.rule for s in out.trace]
            if out.kind in (OutcomeKind.VALUE, OutcomeKind.BLAME):
                assert obs.pushes == obs.pops and not obs.frames


def test_determinism_rerun_identical(e3):
    for mode in ALL_MODES:
        a = eval_term(mode, e3, 10_000, trace=True)
        b = eval_term(mode, e3, 10_000, trace=True)
        assert [s.rule for s in a.trace] == [s.rule for s in b.trace]
        for x, y in zip(a.trace_terms(), b.trace_terms()):
            assert alpha_eq(x, y)


# -- eidetic cast congruence


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2_000))
def test_eidetic_cast_congruence_single_step(seed):
    e = gen_source(seed, 12)
    out = eval_term(Mode.EIDETIC, e, 10_000, trace=True)
    terms = out.trace_terms()
    if len(terms) < 2:
        return
    before, after = terms[0], terms[1]
    from lh.typecheck import type_of

    ty = type_of(Mode.EIDETIC, {}, before)
    if not alpha_eq(ty, type_of(Mode.EIDETIC, {}, after)):
        return
    from lh.syntax import Refinement

    if not isinstance(ty, Refinement):
        return
    from lh.syntax import raw

    tgt = raw(ty.base)
    wrap = lambda t: Cast(ty, coerce(ty, tgt, "lw"), tgt, None, t)
    a = eval_term(Mode.EIDETIC, wrap(before), 20_000)
    b = eval_term(Mode.EIDETIC, wrap(after), 20_000)
    assert a.kind is b.kind and a.label == b.label
    if a.kind is OutcomeKind.VALUE:
        assert alpha_eq(a.term, b.term)


def _proxy_loop(name: str, n: int):
    prog = load_example(name)
    return App(App(prog.fn.fn, Const(n)), prog.arg)


def _walked_value(mach: Machine, e) -> bool:
    """The value judgment without the cache: walk the whole proxy chain."""

    while type(e) is Cast:
        if type(e.src) is not Fun or type(e.tgt) is not Fun or not mach._proxy(mach, e):
            return False
        e = e.subject
    return type(e) is Const or type(e) is Abs


def test_cached_value_judgment_matches_the_walk_in_every_mode():
    # one term runs in all four modes first, so every mode's judgments sit
    # on the nodes the modes share before any is compared (each mode keeps
    # its own, so none can leak into another)
    term = _proxy_loop("proxy_loop.lh", 10)
    traces = {mode: machine(mode).eval(term, 100_000, trace=True).trace_terms() for mode in ALL_MODES}
    proxies = 0
    for mode, terms in traces.items():
        mach = machine(mode)
        for t in terms:
            for node in subterms(t):
                assert mach.is_value(node) == _walked_value(mach, node), (mode, print_term(node))
                proxies += type(node) is Cast and type(node.src) is Fun and _walked_value(mach, node)
    assert proxies  # some proxies were judged


def test_proxy_loop_blame_labels_agree_in_classic_and_eidetic():
    # the first iteration's inner cast blames: lb at even n, ld at odd n
    for n in range(1, 51):
        term = _proxy_loop("proxy_loop_blame.lh", n)
        labels = [machine(mode).eval(term, 100_000).label for mode in (Mode.CLASSIC, Mode.EIDETIC)]
        assert labels == ["lb" if n % 2 == 0 else "ld"] * 2, n

