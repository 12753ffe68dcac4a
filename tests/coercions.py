"""Random coercions for the coercion-algebra property tests and the probe of
whether coercion merge is associative."""

import random

from lh.harness import INT_POOL
from lh.semantics import DEFAULT_ORACLE, coercion_merge
from lh.syntax import Coercion, FunC, RefEntry, Refs, alpha_eq


def gen_reflist(rng: random.Random, max_len: int = 4) -> tuple[RefEntry, ...]:
    refs = list(INT_POOL)
    rng.shuffle(refs)
    n = rng.randint(0, min(max_len, len(refs)))
    return tuple(RefEntry(r, f"l{rng.randint(1, 99)}") for r in refs[:n])


def gen_coercion(rng: random.Random, depth: int = 0) -> Coercion:
    if depth < 2 and rng.random() < 0.3:
        return FunC(gen_coercion(rng, depth + 1), gen_coercion(rng, depth + 1))
    return Refs(gen_reflist(rng))


def _coercion_shape(c: Coercion) -> str:
    if isinstance(c, Refs):
        return "r"
    return "(" + _coercion_shape(c.dom) + "->" + _coercion_shape(c.cod) + ")"


def coercion_eq(c1: Coercion, c2: Coercion) -> bool:
    if isinstance(c1, Refs) and isinstance(c2, Refs):
        return len(c1.entries) == len(c2.entries) and all(
            a.label == b.label and alpha_eq(a.ref, b.ref) for a, b in zip(c1.entries, c2.entries)
        )
    if isinstance(c1, FunC) and isinstance(c2, FunC):
        return coercion_eq(c1.dom, c2.dom) and coercion_eq(c1.cod, c2.cod)
    return False


def assoc_counterexamples(seed: int, count: int, oracle=DEFAULT_ORACLE) -> list[tuple[Coercion, Coercion, Coercion]]:
    """Empirically probe whether coercion merge is associative."""

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        c1 = gen_coercion(rng)
        c2, c3 = c1, c1
        # regenerate until all three share a composable shape
        for _ in range(50):
            c2 = gen_coercion(rng)
            if _coercion_shape(c2) == _coercion_shape(c1):
                break
        for _ in range(50):
            c3 = gen_coercion(rng)
            if _coercion_shape(c3) == _coercion_shape(c1):
                break
        if _coercion_shape(c2) != _coercion_shape(c1) or _coercion_shape(c3) != _coercion_shape(c1):
            continue
        left = coercion_merge(coercion_merge(c1, c2, oracle), c3, oracle)
        right = coercion_merge(c1, coercion_merge(c2, c3, oracle), oracle)
        if not coercion_eq(left, right):
            out.append((c1, c2, c3))
    return out
