"""Concrete syntax: parser and pretty-printer, round-trip stable.

Grammar sketch (comments run `--` to end of line)::

    program  ::= expr
    expr     ::= decl expr
               | "\\" IDENT ":" type "." expr
               | "if" expr "then" expr "else" expr
               | binary
    decl     ::= "let" ["rec"] IDENT [":" type] "=" expr ";"
    binary   ::= binary BINOP binary | unary
    unary    ::= "not" unary | "-" INT | "-" unary | appexpr
    appexpr  ::= ("<" type "=>" type "@" IDENT ">" appexpr | atom) atom*
    atom     ::= INT | "true" | "false" | IDENT | "(" expr ")"
    type     ::= atomtype ["->" type]
    atomtype ::= "{" IDENT ":" ("Int"|"Bool") "|" expr "}" | "(" type ")"

`BINOP`'s precedence and associativity are `_BINOP_LEVEL`, the one table that
both the parser and the printer read: `||` binds loosest, then `&&`, the
comparisons, `+ -` and `* mod div`; each level associates to the left, and a
comparison takes at most one operator (`1 < 2 < 3` is an error).

`let` is elaborated by substitution, `let rec` (annotation required) by Fix.
The declarations a program opens with are one chain whose names must differ;
a chain inside an expression may shadow a name.  Binders keep their written
names, shadowed or not: only `subst` renames a binder, when it would capture a
free variable of the term put in.  Runtime-only forms print with sigils
(`blame l`, `check<...>`, `stack<...>`) that parse rejects.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .semantics import INT_MAX, INT_MIN
from .syntax import (
    Abs,
    ActiveCheck,
    App,
    BaseType,
    Blame,
    Cast,
    CoercionStack,
    Cond,
    Const,
    EmptyAnn,
    Fix,
    Fun,
    Op,
    Refinement,
    Refs,
    Term,
    Type,
    Types,
    Var,
    subst,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


KEYWORDS = {"if", "then", "else", "let", "rec", "true", "false", "not", "mod", "div", "Int", "Bool"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|--[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_']*)
  | (?P<punct>->|=>|<=|>=|<>|&&|\|\||[{}()<>|:.\\;@=+\-*])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "int" | "ident" | "punct" | "kw" | "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    """The tokens of text, line by line, then one `eof` token: the parser
    judges a token before it consumes it and looks at most one token past the
    current one, which is then not `eof`, so it never reads past the end."""

    tokens: list[Token] = []
    lines = text.split("\n")
    for line, chars in enumerate(lines, 1):
        for m in _TOKEN_RE.finditer(chars):
            kind = m.lastgroup
            if kind == "ws":
                continue
            word = m.group()
            if kind == "bad":
                raise ParseError(f"unexpected character {word!r}", line, m.start() + 1)
            if kind == "ident" and word in KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, word, line, m.start() + 1))
    eof = Token("eof", "", len(lines), len(lines[-1]) + 1)
    tokens.append(eof)
    return tokens


_LEVEL_OR, _LEVEL_AND, _LEVEL_CMP, _LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_APP, _LEVEL_ATOM = range(1, 9)
_LEVEL_LOW = 0

_BINOP_LEVEL = {
    "||": _LEVEL_OR,
    "&&": _LEVEL_AND,
    "=": _LEVEL_CMP,
    "<>": _LEVEL_CMP,
    "<": _LEVEL_CMP,
    "<=": _LEVEL_CMP,
    ">": _LEVEL_CMP,
    ">=": _LEVEL_CMP,
    "+": _LEVEL_ADD,
    "-": _LEVEL_ADD,
    "*": _LEVEL_MUL,
    "mod": _LEVEL_MUL,
    "div": _LEVEL_MUL,
}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        # the names of the declarations the text opens with, and the token
        # where the next one of that chain would start
        self.chain: list[str] = []
        self.chain_end = 0

    # -- token plumbing

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.tokens[self.pos]
        return ParseError(message + (f" (found {tok.text!r})" if tok.text else " (at end of input)"), tok.line, tok.column)

    def eat(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            raise self.error(f"expected {text or kind}")
        self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None, ahead: int = 0) -> bool:
        tok = self.tokens[self.pos + ahead]
        return tok.kind == kind and (text is None or tok.text == text)

    # -- expressions

    def parse_expr(self) -> Term:
        if self.at("punct", "\\"):
            self.next()
            binder = self.eat("ident").text
            self.eat("punct", ":")
            annot = self.parse_type()
            self.eat("punct", ".")
            return Abs(binder, annot, self.parse_expr())
        if self.at("kw", "if"):
            self.next()
            guard = self.parse_expr()
            self.eat("kw", "then")
            then = self.parse_expr()
            self.eat("kw", "else")
            return Cond(guard, then, self.parse_expr())
        if self.at("kw", "let"):
            in_chain = self.pos == self.chain_end
            self.next()
            recursive = self.at("kw", "rec")
            if recursive:
                self.next()
            name = self.eat("ident").text
            annot = None
            if self.at("punct", ":"):
                self.next()
                annot = self.parse_type()
            if recursive and annot is None:
                raise self.error("let rec requires a type annotation")
            self.eat("punct", "=")
            value = self.parse_expr()
            self.eat("punct", ";")
            if in_chain:
                self.chain.append(name)
                self.chain_end = self.pos
            rest = self.parse_expr()
            return subst(rest, name, Fix(name, annot, value) if recursive else value)
        return self.parse_binary(_LEVEL_OR)

    def parse_binary(self, level: int) -> Term:
        """Operators of `level` or tighter, by precedence climbing over
        `_BINOP_LEVEL` (Pratt, 1973).  An operand's own call takes the
        tighter operators, so only operators of its level or looser can
        follow it here: those of its level associate to the left, and after
        a comparison only looser ones may follow."""

        e = self.parse_unary()
        ceiling = _LEVEL_MUL
        while level <= _BINOP_LEVEL.get(self.tokens[self.pos].text, _LEVEL_LOW) <= ceiling:
            op = self.next().text
            op_level = _BINOP_LEVEL[op]
            e = Op(op, (e, self.parse_binary(op_level + 1)))
            ceiling = op_level - 1 if op_level == _LEVEL_CMP else op_level
        return e

    def parse_unary(self) -> Term:
        if self.at("kw", "not"):
            self.next()
            return Op("not", (self.parse_unary(),))
        if self.at("punct", "-"):
            self.next()
            if self.at("int"):
                return self.parse_int(-1)
            return Op("-", (Const(0), self.parse_unary()))
        return self.parse_app()

    def parse_app(self) -> Term:
        e = self.parse_cast() if self._at_cast() else self.parse_atom()
        while self._at_atom():
            e = App(e, self.parse_atom())
        return e

    def _at_cast(self) -> bool:
        # A cast's "<" is always followed by a type opener.
        return self.at("punct", "<") and (self.at("punct", "{", ahead=1) or self.at("punct", "(", ahead=1))

    def parse_cast(self) -> Term:
        self.eat("punct", "<")
        src = self.parse_type()
        self.eat("punct", "=>")
        tgt = self.parse_type()
        self.eat("punct", "@")
        label = self.eat("ident").text
        self.eat("punct", ">")
        return Cast(src, EmptyAnn(), tgt, label, self.parse_app())

    def _at_atom(self) -> bool:
        return self.at("int") or self.at("ident") or self.at("kw", "true") or self.at("kw", "false") or self.at("punct", "(")

    def parse_int(self, sign: int = 1) -> Const:
        """The next token's integer literal times sign, if 64 bits hold it."""

        digits = self.tokens[self.pos].text.lstrip("0") or "0"
        # no 64-bit value has 20 digits, so longer ones are never converted
        if len(digits) > 19 or not INT_MIN <= (value := sign * int(digits)) <= INT_MAX:
            raise self.error("integer literal out of the 64-bit range")
        self.pos += 1
        return Const(value)

    def parse_atom(self) -> Term:
        if self.at("int"):
            return self.parse_int()
        if self.at("kw", "true") or self.at("kw", "false"):
            return Const(self.next().text == "true")
        if self.at("ident"):
            return Var(self.next().text)
        if self.at("punct", "("):
            self.next()
            e = self.parse_expr()
            self.eat("punct", ")")
            return e
        raise self.error("expected an expression")

    # -- types

    def parse_type(self) -> Type:
        t = self.parse_atom_type()
        if self.at("punct", "->"):
            self.next()
            return Fun(t, self.parse_type())
        return t

    def parse_atom_type(self) -> Type:
        if self.at("punct", "("):
            self.next()
            t = self.parse_type()
            self.eat("punct", ")")
            return t
        self.eat("punct", "{")
        binder = self.eat("ident").text
        self.eat("punct", ":")
        if not (self.at("kw", "Int") or self.at("kw", "Bool")):
            raise self.error("expected Int or Bool")
        base = BaseType(self.next().text)
        self.eat("punct", "|")
        predicate = self.parse_expr()
        self.eat("punct", "}")
        return Refinement(binder, base, predicate)


def parse(text: str) -> Term:
    """Parse a program, a chain of declarations then an expression, to one
    elaborated term."""

    parser = _Parser(text)
    term = parser.parse_expr()
    parser.eat("eof")
    names = parser.chain
    dup = next((n for n in names if names.count(n) > 1), None)
    if dup is not None:
        raise ParseError(f"duplicate declaration {dup!r}", 1, 1)
    return term


def parse_type(text: str) -> Type:
    """Parse a standalone type."""

    parser = _Parser(text)
    t = parser.parse_type()
    parser.eat("eof")
    return t


# ---------------------------------------------------------------------------
# Printing


def print_term(e: Term) -> str:
    return _show(e, _LEVEL_LOW)


def print_type(t: Type) -> str:
    if isinstance(t, Refinement):
        return "{" + t.binder + ":" + t.base.value + " | " + print_term(t.predicate) + "}"
    dom = print_type(t.dom)
    if isinstance(t.dom, Fun):
        dom = "(" + dom + ")"
    return dom + " -> " + print_type(t.cod)


def _paren(s: str, level: int, minimum: int) -> str:
    return "(" + s + ")" if level < minimum else s


def _show_label(label) -> str:
    return label if label is not None else "•"


def _show_ann(ann, sep: str = " ! ") -> str:
    """A cast annotation as it follows the label; a coercion's parts without sep."""

    if isinstance(ann, EmptyAnn):
        return ""
    if isinstance(ann, Types):
        return sep + "{" + ", ".join(print_type(t) for t in ann.members) + "}"
    if isinstance(ann, Refs):
        return sep + "[" + ", ".join(print_type(x.ref) + "^" + x.label for x in ann.entries) + "]"
    return sep + "(" + _show_ann(ann.dom, "") + " |-> " + _show_ann(ann.cod, "") + ")"


def _show(e: Term, minimum: int) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        if isinstance(e.value, bool):
            return "true" if e.value else "false"
        if e.value < 0:
            return _paren(str(e.value), _LEVEL_UNARY, minimum)
        return str(e.value)
    if isinstance(e, Abs):
        s = "\\" + e.binder + ":" + print_type(e.annot) + ". " + _show(e.body, _LEVEL_LOW)
        return _paren(s, _LEVEL_LOW, minimum)
    if isinstance(e, Fix):
        # `let rec` is the only source syntax for Fix; standalone prints as a decl.
        s = "let rec " + e.binder + " : " + print_type(e.annot) + " = " + _show(e.body, _LEVEL_LOW) + "; " + e.binder
        return _paren(s, _LEVEL_LOW, minimum)
    if isinstance(e, App):
        s = _show(e.fn, _LEVEL_APP) + " " + _show(e.arg, _LEVEL_ATOM)
        return _paren(s, _LEVEL_APP, minimum)
    if isinstance(e, Op):
        if e.name == "not":
            return _paren("not " + _show(e.args[0], _LEVEL_UNARY), _LEVEL_UNARY, minimum)
        level = _BINOP_LEVEL[e.name]
        # cmp is non-associative (parenthesize both sides); add/mul associate left
        left = _show(e.args[0], level + 1 if level == _LEVEL_CMP else level)
        right = _show(e.args[1], level + 1)
        return _paren(left + " " + e.name + " " + right, level, minimum)
    if isinstance(e, Cast):
        head = "<" + print_type(e.src) + " => " + print_type(e.tgt) + " @ " + _show_label(e.label) + _show_ann(e.ann) + ">"
        return _paren(head + " " + _show(e.subject, _LEVEL_ATOM), _LEVEL_LOW, minimum)
    if isinstance(e, Blame):
        return _paren("blame " + _show_label(e.label), _LEVEL_LOW, minimum)
    if isinstance(e, ActiveCheck):
        s = (
            "check<"
            + print_type(e.tgt)
            + ", "
            + _show(e.current, _LEVEL_LOW)
            + ", "
            + _show(e.scrutinee, _LEVEL_LOW)
            + ">@"
            + _show_label(e.label)
        )
        return _paren(s, _LEVEL_LOW, minimum)
    if isinstance(e, CoercionStack):
        s = (
            "stack<"
            + print_type(e.tgt)
            + ", "
            + ("ok" if e.status.name == "CHECKED" else "?")
            + ", ["
            + ", ".join(print_type(x.ref) + "^" + x.label for x in e.pending)
            + "], "
            + _show(e.scrutinee, _LEVEL_LOW)
            + ", "
            + _show(e.current, _LEVEL_LOW)
            + ">"
        )
        return _paren(s, _LEVEL_LOW, minimum)
    if isinstance(e, Cond):
        s = "if " + _show(e.guard, _LEVEL_LOW) + " then " + _show(e.then, _LEVEL_LOW) + " else " + _show(e.orelse, _LEVEL_LOW)
        return _paren(s, _LEVEL_LOW, minimum)
    raise TypeError(f"print: not a term: {e!r}")
