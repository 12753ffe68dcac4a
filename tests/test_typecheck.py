import pytest

from conftest import load_example
from lh.harness import check_trace
from lh.surface import parse, parse_type
from lh.syntax import (
    ALL_MODES,
    ActiveCheck,
    BaseType,
    Blame,
    Cast,
    CoercionStack,
    Cond,
    Const,
    EMPTY_ANN,
    Fun,
    Mode,
    Status,
    alpha_eq,
    raw,
)
from lh.typecheck import (
    NOT_SIMILAR,
    Checker,
    TypeCheckError,
    check_source,
    op_signature,
    similar,
    type_of,
)

ANY = parse_type("{x:Int|true}")
NAT = parse_type("{x:Int|x >= 0}")
EVEN = parse_type("{x:Int|x mod 2 = 0}")
NZ = parse_type("{x:Int|x <> 0}")
RAW_BOOL = raw(BaseType.BOOL)


def test_signatures():
    assert alpha_eq(type_of(Mode.CLASSIC, {}, Const(True)), RAW_BOOL)
    assert alpha_eq(type_of(Mode.CLASSIC, {}, Const(3)), ANY)
    doms, cod = op_signature("+")
    assert len(doms) == 2 and alpha_eq(cod, ANY)
    doms, cod = op_signature("div")
    assert alpha_eq(doms[1], NZ)
    with pytest.raises(TypeCheckError):
        op_signature("nope")


def test_similar():
    assert similar(ANY, NAT)
    assert not similar(ANY, RAW_BOOL)
    assert similar(Fun(ANY, NAT), Fun(NZ, EVEN))
    assert not similar(Fun(ANY, NAT), ANY)


def test_wf_type():
    Checker(Mode.CLASSIC).wf_type(NAT)
    bad = parse_type("{x:Int| x + 1 }")
    with pytest.raises(TypeCheckError) as exc:
        Checker(Mode.CLASSIC).wf_type(bad)
    assert exc.value.kind == "PredicateNotBool"


def test_wf_annotation_mode_discipline():
    from lh.semantics import coerce
    from lh.syntax import EMPTY_ANN, Types

    Checker(Mode.CLASSIC).wf_annotation(EMPTY_ANN, ANY, NAT)
    ts = Types.of([EVEN])
    Checker(Mode.HEEDFUL).wf_annotation(ts, ANY, NAT)
    with pytest.raises(TypeCheckError):
        Checker(Mode.CLASSIC).wf_annotation(ts, ANY, NAT)
    co = coerce(ANY, NAT, "l")
    Checker(Mode.EIDETIC).wf_annotation(co, ANY, NAT)
    with pytest.raises(TypeCheckError):
        Checker(Mode.HEEDFUL).wf_annotation(co, ANY, NAT)
    with pytest.raises(TypeCheckError):
        Checker(Mode.CLASSIC).wf_annotation(EMPTY_ANN, ANY, RAW_BOOL)  # dissimilar


def test_const_against_refinement_runs_the_predicate():
    Checker(Mode.CLASSIC).check({}, Const(4), EVEN)
    with pytest.raises(TypeCheckError):
        Checker(Mode.CLASSIC).check({}, Const(3), EVEN)


def test_source_discipline_rejects_refined_constants():
    chk = Checker(Mode.CLASSIC, source=True)
    with pytest.raises(TypeCheckError) as exc:
        chk.check({}, Const(4), EVEN)
    assert exc.value.kind == "SourceViolation"


def test_source_discipline_rejects_runtime_forms():
    chk = Checker(Mode.CLASSIC, source=True)
    with pytest.raises(TypeCheckError):
        chk.infer({}, Blame("l"))
    with pytest.raises(TypeCheckError):  # empty label
        chk.infer({}, Cast(ANY, EMPTY_ANN, NAT, None, Const(1)))


def test_blame_checks_at_any_type_at_runtime():
    Checker(Mode.CLASSIC).check({}, Blame("l"), NAT)
    Checker(Mode.CLASSIC).check({}, Blame("l"), Fun(ANY, NAT))


def test_a_conditional_whose_then_branch_infers_nothing_takes_the_else_type():
    # at runtime blame infers no type, so the else branch's type is checked
    # against the then branch; the source discipline rejects the blame
    e = Cond(Const(True), Blame("l"), Const(1))
    assert alpha_eq(Checker(Mode.CLASSIC).infer({}, e), ANY)
    with pytest.raises(TypeCheckError) as exc:
        Checker(Mode.CLASSIC, source=True).infer({}, e)
    assert str(exc.value) == "SourceViolation at /then: blame is a runtime-only form"


def test_unbound_variable():
    with pytest.raises(TypeCheckError) as exc:
        type_of(Mode.CLASSIC, {}, parse("x + 1"))
    assert exc.value.kind == "UnboundVar"


def test_div_needs_nonzero_argument():
    good = parse("4 div (<{x:Int|true} => {y:Int|y <> 0} @ l> 2)")
    assert alpha_eq(check_source(good), ANY)
    with pytest.raises(TypeCheckError):
        check_source(parse("4 div 2"))  # raw constant at the NZ domain


def test_cond_branch_types_must_agree():
    with pytest.raises(TypeCheckError):
        check_source(parse("if true then 1 else false"))


def test_application_of_non_function():
    with pytest.raises(TypeCheckError) as exc:
        check_source(parse("1 2"))
    assert exc.value.kind == "NotAFunction"


def test_e3_types_the_same_in_all_modes(e3):
    ty = check_source(e3)
    assert alpha_eq(ty, NZ)
    for mode in ALL_MODES:
        assert alpha_eq(type_of(mode, {}, e3), NZ)


def test_examples_type_in_all_modes():
    for name, expected in (("triple.lh", NZ), ("fact.lh", NAT), ("evenodd.lh", RAW_BOOL)):
        ty = check_source(load_example(name))
        assert similar(ty, expected)


def test_runtime_active_check_typing(e3):
    from lh import eval_term

    out = eval_term(Mode.CLASSIC, e3, 100, trace=True)
    for term in out.trace_terms():
        Checker(Mode.CLASSIC).check({}, term, NZ)


def test_runtime_stack_typing(e3):
    from lh import eval_term

    out = eval_term(Mode.EIDETIC, e3, 100, trace=True)
    for term in out.trace_terms():
        Checker(Mode.EIDETIC).check({}, term, NZ)


def test_corrupted_stack_rejected(e3):
    from lh import eval_term
    from lh.syntax import CoercionStack

    out = eval_term(Mode.EIDETIC, e3, 100, trace=True)
    stack = next(t for t in out.trace_terms() if isinstance(t, CoercionStack))
    # an unchecked stack whose pending list no longer covers the target
    wrong = CoercionStack(stack.tgt, stack.status, (), stack.scrutinee, stack.scrutinee)
    with pytest.raises(TypeCheckError):
        Checker(Mode.EIDETIC).check({}, wrong, NZ)
    # a checked stack whose scrutinee fails the target predicate
    from lh.syntax import Status

    wrong2 = CoercionStack(stack.tgt, Status.CHECKED, (), Const(0), Const(0))
    with pytest.raises(TypeCheckError):
        Checker(Mode.EIDETIC).check({}, wrong2, NZ)


def test_a_blame_scrutinee_is_not_similar():
    # the rules of the runtime forms read a scrutinee as a constant: blame
    # there raised AttributeError out of the checker and out of check_trace
    def check_of(scrutinee):
        return ActiveCheck(NZ, parse("3 <> 0"), scrutinee, "l13")

    stack = CoercionStack(NZ, Status.CHECKED, (), Blame("lz"), check_of(Const(3)))
    cases = (
        (check_of(Blame("lz")), "active-check scrutinee is not a constant"),
        (stack, "stack scrutinee is not a constant"),
        (
            CoercionStack(NZ, Status.CHECKED, (), Const(3), check_of(Blame("lz"))),
            "stack check on a different scrutinee",
        ),
    )
    for term, detail in cases:
        for mode in ALL_MODES:
            with pytest.raises(TypeCheckError) as info:
                Checker(mode).infer({}, term)
            assert (info.value.kind, info.value.detail) == (NOT_SIMILAR, detail)
    cast = parse("<{x:Int|true} => {x:Int|x <> 0} @ l13> 3")
    assert check_trace(Mode.EIDETIC, [cast, stack]) == [
        "step 1: preservation failure: NotSimilar at <top>: stack scrutinee is not a constant"
    ]


def test_budget_order_does_not_change_the_verdict():
    # the premise on 5 takes three steps, (5 + 1) - 1 >= 0 to 5 - 1 >= 0 to
    # 5 >= 0 to true, and so does the active check in that last state: both
    # pass with a budget of three and fail with two, and a verdict reached
    # under one budget is never reused under another
    ty = parse_type("{x:Int|(x + 1) - 1 >= 0}")
    done = ActiveCheck(ty, Const(True), Const(5), "l")
    for budgets in ((2, 3, 10_000), (10_000, 3, 2)):
        for budget in budgets:
            checker = Checker(Mode.CLASSIC, budget=budget)
            if budget == 2:
                with pytest.raises(TypeCheckError, match="exceeded the step budget"):
                    checker.check({}, Const(5), ty)
                with pytest.raises(TypeCheckError, match="exceeded the step budget"):
                    checker.infer({}, done)
            else:
                checker.check({}, Const(5), ty)
                assert checker.infer({}, done) is ty
