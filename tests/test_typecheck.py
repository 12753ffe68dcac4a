import inspect
import random
import textwrap
from functools import partial

import pytest

from conftest import EXAMPLES, load_example
from lh import eval_term, typecheck
from lh.harness import check_trace, gen_source
from lh.semantics import Machine, coerce
from lh.surface import parse, parse_type, print_term, print_type
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
    Op,
    RefEntry,
    Refs,
    Status,
    Types,
    alpha_eq,
    children,
    raw,
    with_child,
)
from lh.typecheck import (
    ILL_FORMED_ANNOTATION,
    ILL_FORMED_TYPE,
    NOT_SIMILAR,
    OP_ARITY,
    SOURCE_VIOLATION,
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


def _source_verdict(judge, e):
    try:
        return "type", print_type(judge(e))
    except TypeCheckError as exc:
        return "error", str(exc)


def test_check_source_types_once_as_each_mode_would():
    # a source checker reads its mode only in a premise's replay, so one
    # check gives every mode's type or error text, on generated programs
    # and on mutants with one child replaced by 0, true, -3 or its first child
    rng = random.Random(31)
    terms = []
    for seed in range(200):
        e = gen_source(seed, 5 + seed % 16)
        positions = _positions(e)
        terms.append(e)
        for new in (Const(0), Const(True), Const(-3)):
            terms.append(_replaced(e, rng.choice(positions)[0], new))
        path, kid = rng.choice([(path, kid) for path, kid in positions if children(kid)])
        terms.append(_replaced(e, path, children(kid)[0]))
    rejected = 0
    for e in terms:
        want = _source_verdict(check_source, e)
        for mode in ALL_MODES:
            assert _source_verdict(partial(Checker(mode, source=True).infer, {}), e) == want, (mode, print_term(e))
        rejected += want[0] == "error"
    assert 400 < rejected < 700  # both verdicts are compared, not only acceptance


def test_a_source_premise_replays_under_classic():
    # the runtime twin replays a premise in the checker's mode: this one's
    # nested casts blame in classic, heedful and eidetic, and forgetful drops
    # the inner cast and reaches true
    e = parse(
        "<{x:Int|true} => {x:Int| (\\y:{z:Int| (<{w:Int|w > 3} => {w:Int|true} @l>"
        " (<{w:Int|true} => {w:Int|w > 3} @m> z)) > 0}. true) 1} @k> 5"
    )
    rejected = "error", "NotSimilar at /tgt/pred/arg: constant does not satisfy the refinement"
    verdicts = {mode: _source_verdict(partial(Checker(mode, source=True).infer, {}), e) for mode in ALL_MODES}
    assert verdicts == {
        Mode.CLASSIC: rejected,
        Mode.FORGETFUL: ("type", print_type(e.tgt)),
        Mode.HEEDFUL: rejected,
        Mode.EIDETIC: rejected,
    }
    assert _source_verdict(check_source, e) == rejected


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


_CHECK = ActiveCheck(NZ, parse("3 <> 0"), Const(3), "l")
_STACK = CoercionStack(NZ, Status.UNCHECKED, (RefEntry(NZ, "l"),), Const(3), Const(3))


@pytest.mark.parametrize(
    "judge, kind, detail",
    [
        pytest.param(
            lambda: Checker(Mode.HEEDFUL).wf_annotation(Types((Fun(ANY, ANY),)), ANY, NAT),
            ILL_FORMED_ANNOTATION,
            "type-set member dissimilar to the cast",
            id="set-member",
        ),
        pytest.param(
            lambda: Checker(Mode.EIDETIC).wf_annotation(coerce(ANY, NAT, "l"), Fun(ANY, ANY), Fun(ANY, NAT)),
            ILL_FORMED_ANNOTATION,
            "refinement list on a function cast",
            id="list-on-function",
        ),
        pytest.param(
            lambda: Checker(Mode.EIDETIC).wf_annotation(Refs((RefEntry(RAW_BOOL, "l"),)), ANY, NAT),
            ILL_FORMED_ANNOTATION,
            "refinement list entry at the wrong base type",
            id="entry-base",
        ),
        pytest.param(
            lambda: Checker(Mode.EIDETIC).wf_annotation(Refs((RefEntry(NAT, "l"), RefEntry(NAT, "m"))), ANY, NAT),
            ILL_FORMED_ANNOTATION,
            "duplicate refinement in refinement list",
            id="entry-twice",
        ),
        pytest.param(
            lambda: Checker(Mode.HEEDFUL, source=True).infer({}, Cast(ANY, Types.of([NAT]), NAT, "l", Const(1))),
            SOURCE_VIOLATION,
            "source casts carry empty annotations",
            id="source-annotation",
        ),
        pytest.param(
            lambda: Checker(Mode.CLASSIC).infer({}, Op("+", (Const(1),))), OP_ARITY, "'+' expects 2 arguments", id="arity"
        ),
        pytest.param(
            lambda: Checker(Mode.CLASSIC, source=True).infer({}, _CHECK),
            SOURCE_VIOLATION,
            "active checks are runtime-only forms",
            id="source-check",
        ),
        pytest.param(
            lambda: Checker(Mode.EIDETIC, source=True).infer({}, _STACK),
            SOURCE_VIOLATION,
            "coercion stacks are runtime-only forms",
            id="source-stack",
        ),
        pytest.param(
            lambda: Checker(Mode.CLASSIC).infer({}, NAT), ILL_FORMED_TYPE, "unknown term Refinement", id="not-a-term"
        ),
    ],
)
def test_type_error_texts(judge, kind, detail):
    with pytest.raises(TypeCheckError) as info:
        judge()
    assert (info.value.kind, info.value.detail) == (kind, detail)


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


_STAND_INS = (Const(0), Const(-3), Const(True), Const(False), Blame("lz"))


def _positions(term):
    """(index path, node) of every node below term."""

    positions, todo = [], [((), term)]
    while todo:
        path, node = todo.pop()
        for i, kid in enumerate(children(node)):
            positions.append((path + (i,), kid))
            todo.append((path + (i,), kid))
    return positions


def _replaced(term, path, new):
    """term with the child at the index path replaced by new, the nodes above rebuilt."""

    nodes = [term]
    for i in path[:-1]:
        nodes.append(children(nodes[-1])[i])
    for node, i in zip(reversed(nodes), reversed(path)):
        new = with_child(node, i, new)
    return new


def _ill_formed_mutants():
    """(mode, term) for each trace term of the examples but proxy_loop.lh
    (its classic chain is 2000 casts long) and of 30 generated programs, with
    one child, picked at random, replaced by a constant, blame or its own
    first child; and, where the term holds a cast, with one cast's target
    replaced by a type of the other shape, a base type for a function type
    and a function type for a base type."""

    rng, shapes = random.Random(12), random.Random(13)
    programs = [load_example(p.name) for p in sorted(EXAMPLES.glob("*.lh")) if p.name != "proxy_loop.lh"]
    programs += [gen_source(700 + i, 12) for i in range(30)]
    for term in programs:
        for mode in ALL_MODES:
            for now in eval_term(mode, term, 10_000, trace=True).trace_terms():
                positions = _positions(now)
                if positions:
                    path, kid = rng.choice(positions)
                    yield mode, _replaced(now, path, rng.choice(_STAND_INS + children(kid)[:1]))
                casts = [(path, node) for path, node in [((), now), *positions] if type(node) is Cast]
                if casts:
                    path, cast = shapes.choice(casts)
                    tgt = ANY if type(cast.tgt) is Fun else Fun(cast.tgt, cast.tgt)
                    yield mode, _replaced(now, path, Cast(cast.src, cast.ann, tgt, cast.label, cast.subject))


def _checker_crashes(mutants):
    crashes = []
    for mode, term in mutants:
        try:
            Checker(mode).infer({}, term)
        except TypeCheckError:
            pass
        except Exception as exc:
            crashes.append(exc)
    return crashes


def test_ill_formed_runtime_terms_fail_cleanly(monkeypatch):
    # the checker raises nothing but TypeCheckError on an ill-formed term,
    # and the machine steps or stops on it without raising
    mutants = list(_ill_formed_mutants())
    assert len(mutants) > 8000
    assert _checker_crashes(mutants) == []
    for mode, term in mutants:
        machine = Machine(mode)
        machine.step(term)
        machine.eval(term, 100)
    # control: without the guard on a stack's scrutinee, the stack rule reads
    # a blame scrutinee's base type, and the test sees the crash
    lines = textwrap.dedent(inspect.getsource(Checker._infer_stack)).splitlines(keepends=True)
    j = next(j for j, line in enumerate(lines) if "stack scrutinee is not a constant" in line)
    del lines[j - 1 : j + 1]
    unguarded = {}
    exec("".join(lines), vars(typecheck), unguarded)
    monkeypatch.setattr(Checker, "_infer_stack", unguarded["_infer_stack"])
    crashes = _checker_crashes(mutants)
    assert crashes and all(isinstance(exc, AttributeError) for exc in crashes)
