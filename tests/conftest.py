import dataclasses
import pathlib

import pytest

from lh.surface import parse
from lh.syntax import Blame, Const, Fun, Refinement, Var, canon, held_types, map_parts, subterms

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

E3_SRC = """
<{x:Int|x mod 2 = 0} => {x:Int|x <> 0} @ l3>
  (<{x:Int|x >= 0} => {x:Int|x mod 2 = 0} @ l2>
    (<{x:Int|true} => {x:Int|x >= 0} @ l1> (-1)))
"""


@pytest.fixture(scope="session")
def e3():
    return parse(E3_SRC)


@pytest.fixture(scope="session")
def examples_dir():
    return EXAMPLES


def load_example(name: str):
    return parse((EXAMPLES / name).read_text())


def uncached(node):
    """A copy of a term or type that shares no node with it, so nothing is cached on it."""

    if isinstance(node, (Var, Const, Blame)):
        return dataclasses.replace(node)
    return map_parts(node, uncached, lambda binder, part: (binder, uncached(part)))


def type_keys(node) -> frozenset[str]:
    """The canonical keys of every type, with its structural parts, in a term
    or type; a term's are those of the types its nodes hold (`held_types`).
    Built from strings alone, uncached: the reference the library's key masks
    are compared with."""

    found: set[str] = set()
    todo = [node]
    while todo:
        n = todo.pop()
        if isinstance(n, (Refinement, Fun)):
            found.add(canon(n))
            todo += (n.cod, n.dom) if isinstance(n, Fun) else (n.predicate,)
        else:
            for e in subterms(n):
                whole, alone = held_types(e)
                todo += whole
                found.update(map(canon, alone))
    return frozenset(found)
