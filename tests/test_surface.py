import itertools

import pytest
from hypothesis import given, settings, strategies as st

from lh.harness import gen_source
from lh.semantics import OPS, IsValue, Machine, OutcomeKind, Stepped
from lh.surface import _BINOP_LEVEL, ParseError, _tokenize, parse, parse_type, print_term, print_type
from lh.syntax import ALL_MODES, Abs, App, Cond, Const, Fix, Op, Var, alpha_eq, map_parts


def test_precedence():
    assert alpha_eq(parse("1 + 2 * 3"), Op("+", (Const(1), Op("*", (Const(2), Const(3))))))
    assert alpha_eq(parse("(1 + 2) * 3"), Op("*", (Op("+", (Const(1), Const(2))), Const(3))))
    assert alpha_eq(
        parse("true && false || true"),
        Op("||", (Op("&&", (Const(True), Const(False))), Const(True))),
    )


def test_comparison_non_associative():
    with pytest.raises(ParseError):
        parse("1 < 2 < 3")


def test_binop_table_names_every_binary_operator():
    assert set(_BINOP_LEVEL) == {name for name, (doms, _, _) in OPS.items() if len(doms) == 2}


def _assert_roundtrips(t):
    text = print_term(t)
    back = parse(text)
    assert alpha_eq(back, t), text
    assert print_term(back) == text


def test_every_operator_pair_roundtrips():
    # the parser and the printer read precedence from one table; every
    # ordered pair of binary operators, nested either way, must agree on it
    x, y, z = Var("x"), Var("y"), Var("z")
    for outer, inner in itertools.product(sorted(_BINOP_LEVEL), repeat=2):
        _assert_roundtrips(Op(outer, (Op(inner, (x, y)), z)))
        _assert_roundtrips(Op(outer, (x, Op(inner, (y, z)))))
    for op in sorted(_BINOP_LEVEL):
        _assert_roundtrips(Op("not", (Op(op, (x, y)),)))
        _assert_roundtrips(Op(op, (Op("not", (x,)), Op("not", (y,)))))
        _assert_roundtrips(Op(op, (Const(-1), Const(-2))))
        _assert_roundtrips(Op(op, (Op("-", (Const(0), Const(-3))), App(x, Const(-4)))))
        _assert_roundtrips(Op("not", (Op(op, (Const(-5), y)),)))


def test_negative_literals():
    assert alpha_eq(parse("-7"), Const(-7))
    assert alpha_eq(parse("0 - 7"), Op("-", (Const(0), Const(7))))
    assert alpha_eq(parse("1 - 2"), Op("-", (Const(1), Const(2))))


def test_let_and_let_rec():
    e = parse("let two = 2; two + two")
    assert alpha_eq(e, Op("+", (Const(2), Const(2))))
    e = parse("let rec f : {x:Int|true} -> {x:Int|true} = \\x:{x:Int|true}. f x; f 1")
    assert isinstance(e, App) and isinstance(e.fn, Fix)


def test_duplicate_declaration_rejected():
    with pytest.raises(ParseError):
        parse("let a = 1; let a = 2; a")
    # reported at 1:1, naming the first-declared name that occurs twice
    with pytest.raises(ParseError, match=r"^1:1: duplicate declaration 'a'$"):
        parse("let a = 1; let a = 2; a")
    with pytest.raises(ParseError, match=r"^1:1: duplicate declaration 'a'$"):
        parse("let a = 1; let b = 2; let b = 3; let a = 4; a")
    # only once the whole program has parsed: a syntax error comes first
    with pytest.raises(ParseError, match=r"^1:26: expected an expression"):
        parse("let a = 1; let a = 2; a +")
    with pytest.raises(ParseError, match=r"^1:24: expected eof \(found '\)'\)$"):
        parse("let a = 1; let a = 2; a)")


def test_a_chain_inside_an_expression_may_shadow():
    for text in ("(let a = 1; let a = 2; a)", "let a = 1; (let a = 2; a)"):
        assert alpha_eq(parse(text), Const(2)), text


def test_comments_and_whitespace():
    assert alpha_eq(parse("-- hello\n 1 -- trailing\n"), Const(1))


def test_conditional():
    e = parse("if true then 1 else 2")
    assert isinstance(e, Cond)


def test_parse_type_roundtrip():
    for src in ("{x:Int | x >= 0}", "{b:Bool | true}", "{x:Int | true} -> {x:Int | x <> 0}"):
        t = parse_type(src)
        assert print_type(t) == src
        assert alpha_eq(parse_type(print_type(t)), t)


def test_a_shadowed_binder_is_the_inner_one_in_every_mode():
    # binders keep their written names: substituting 1 for the outer x stops
    # at the inner \x, so the program gives its second argument
    e = parse("(\\x:{x:Int|true}. \\x:{x:Int|true}. x) 1 2")
    assert e.fn.fn.binder == e.fn.fn.body.binder == "x"
    for mode in ALL_MODES:
        out = Machine(mode).eval(e, 100)
        assert out.kind is OutcomeKind.VALUE and alpha_eq(out.term, Const(2)), mode
        term, stepper = e, Machine(mode)
        while isinstance(step := stepper.step(term), Stepped):
            term = step.term
        assert isinstance(step, IsValue) and alpha_eq(term, Const(2)), mode


def test_runtime_sigils_do_not_reparse():
    from lh import eval_term
    from lh.syntax import Mode

    e = parse("<{x:Int|true} => {x:Int|x <> 0} @ l1> 0")
    out = eval_term(Mode.EIDETIC, e, 100, trace=True)
    mid = out.trace_terms()[2]  # a coercion stack
    with pytest.raises(ParseError):
        parse(print_term(mid))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(1, 25))
def test_roundtrip_generated_programs(seed, size):
    e = gen_source(seed, size)
    assert alpha_eq(parse(print_term(e)), e)


def test_roundtrip_examples(examples_dir):
    paths = sorted(examples_dir.glob("*.lh"))
    # the corpus the other suites load must be there, or this test checks nothing
    assert {"triple.lh", "fact.lh", "evenodd.lh"} <= {p.name for p in paths}
    for path in paths:
        e = parse(path.read_text())
        assert alpha_eq(parse(print_term(e)), e)


def _shadows(node, bound=frozenset()) -> bool:
    """Whether a binder in node has the name of a binder whose scope it is in."""

    found = []

    def part(p):
        found.append(_shadows(p, bound))
        return p

    def scope(binder, p):
        found.append(binder in bound or _shadows(p, bound | {binder}))
        return binder, p

    map_parts(node, part, scope)
    return any(found)


def test_printed_names_do_not_depend_on_earlier_parses():
    # a shadowed binder keeps its name, whatever was parsed before; the
    # generated program binds x1 again under the outer \x1
    text = print_term(App(Abs("x1", parse_type("{x:Int | true}"), gen_source(5, 30)), Const(0)))
    assert _shadows(parse(text))
    assert print_term(parse(text)) == text
    for seed in range(20):
        parse(print_term(gen_source(seed, 30)))
    assert print_term(parse(text)) == text


def test_names_renamed_by_a_let_do_not_depend_on_earlier_parses():
    # putting f in under \k renames that k apart from f's free k
    text = "let k = 1; let f = \\n:{x:Int|true}. n + k; (\\k:{x:Int|true}. f k) 5"
    first = print_term(parse(text))
    assert first.startswith("(\\k_1:")
    for i in range(20):
        parse(text.replace("k", f"k{i}"))  # each renames a k{i} to a k_<n>
    assert print_term(parse(text)) == first


def test_every_token_is_where_its_position_says(examples_dir):
    texts = [p.read_text() for p in sorted(examples_dir.glob("*.lh"))]
    texts += [print_term(gen_source(seed, 5 + seed % 26)) for seed in range(200)]
    for text in texts:
        lines = text.split("\n")
        tokens = _tokenize(text)
        assert [tok.kind for tok in tokens].count("eof") == 1 and tokens[-1].kind == "eof"
        for tok in tokens:
            assert lines[tok.line - 1][tok.column - 1 :].startswith(tok.text), tok


@pytest.mark.parametrize(
    "parser, text, message",
    [
        (parse, "-- first line\n1 + $", "2:5: unexpected character '$'"),
        (parse, "let a = 1;", "1:11: expected an expression (at end of input)"),
        (parse, "1 + 2 )", "1:7: expected eof (found ')')"),
        # the base type is judged where it stands, here the eof itself
        (parse_type, "{x:", "1:4: expected Int or Bool (at end of input)"),
        (parse, "<{x:Int|true} => {x:Foo|true} @ l> 1", "1:21: expected Int or Bool (found 'Foo')"),
    ],
)
def test_parse_error_texts(parser, text, message):
    with pytest.raises(ParseError) as err:
        parser(text)
    assert str(err.value) == message


def test_every_token_prefix_of_an_example_parses_or_raises_parse_error(examples_dir):
    # the parser reads the token list by index: no prefix may run it off the end
    for path in sorted(examples_dir.glob("*.lh")):
        tokens = _tokenize(path.read_text())[:-1]
        for end in range(len(tokens)):
            try:
                parse(" ".join(t.text for t in tokens[:end]))
            except ParseError:
                pass
