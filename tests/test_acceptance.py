"""Acceptance gate: each test prints exactly one pass/fail line and enforces
the stated tolerance and time bound."""

import random
import time

from coercions import gen_reflist
from conftest import load_example
from lh import eval_term
from lh.harness import (
    ANY,
    INT_POOL,
    diff_modes,
    gen_source,
)
from lh.metering import eval_metered
from lh.semantics import OutcomeKind, coercion_merge, ref_drop
from lh.surface import parse_type, print_term
from lh.syntax import (
    ALL_MODES,
    App,
    Cast,
    Const,
    EMPTY_ANN,
    Fix,
    Mode,
    RefEntry,
    Refs,
    Types,
    alpha_eq,
    canon,
)

NAT = parse_type("{x:Int|x >= 0}")
EVEN = parse_type("{x:Int|x mod 2 = 0}")
NZ = parse_type("{x:Int|x <> 0}")


def report(n: int, ok: bool, detail: str):
    print(f"\nacceptance criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n} failed: {detail}"


# corpus shared by criteria 4, 5, and 7: deterministic in (seed, index)
_CORPUS = None


def corpus():
    global _CORPUS
    if _CORPUS is None:
        rng = random.Random(0)
        _CORPUS = [gen_source(i, rng.randint(5, 30)) for i in range(1000)]
    return _CORPUS


def test_criterion_1_running_example_four_modes(e3):
    t0 = time.monotonic()
    expected = {
        Mode.CLASSIC: ("blame", "l1"),
        Mode.FORGETFUL: ("value", -1),
        Mode.HEEDFUL: ("blame", "l3"),
        Mode.EIDETIC: ("blame", "l1"),
    }
    got = {}
    for mode in ALL_MODES:
        out = eval_term(mode, e3, 10_000)
        got[mode] = (
            ("blame", out.label) if out.kind is OutcomeKind.BLAME else ("value", out.term.value)
        )
    elapsed = time.monotonic() - t0
    ok = got == expected and elapsed < 1.0
    report(1, ok, f"outcomes {dict((m.value, v) for m, v in got.items())} in {elapsed:.3f}s")


def test_criterion_2_eidetic_trace_shape(e3):
    out = eval_term(Mode.EIDETIC, e3, 10_000, trace=True)
    rules = [s.rule for s in out.trace]
    starts_ok = rules[0] == "E-Coerce" and rules[1] == "E-Coerce" and rules[2] == "E-CastMergeE"
    merged = None
    for term in reversed(out.trace_terms()):
        if isinstance(term, Cast) and isinstance(term.ann, Refs):
            if len(term.ann.entries) == 3:
                merged = term.ann.entries
                break
    expected = [(NAT, "l1"), (EVEN, "l2"), (NZ, "l3")]
    list_ok = merged is not None and all(
        alpha_eq(e.ref, t) and e.label == l for e, (t, l) in zip(merged, expected)
    )
    shown = [print_term(e.ref.predicate) + "^" + e.label for e in merged] if merged else None
    report(2, starts_ok and list_ok, f"rules {rules[:3]}, merged list {shown}")


def test_criterion_3_factorial_space_bound():
    t0 = time.monotonic()
    prog = load_example("fact.lh")
    fix = prog.fn.fn
    assert isinstance(fix, Fix)
    eidetic, classic = {}, {}
    for n in (10, 100, 1000):
        e = App(App(fix, Const(n)), Const(1))
        out_e, mx_e, _ = eval_metered(Mode.EIDETIC, e, 1_000_000)
        out_c, mx_c, _ = eval_metered(Mode.CLASSIC, e, 1_000_000)
        assert out_e.kind is OutcomeKind.VALUE and out_c.kind is OutcomeKind.VALUE
        eidetic[n], classic[n] = mx_e.pending, mx_c.pending
    elapsed = time.monotonic() - t0
    constant = eidetic[10] == eidetic[100] == eidetic[1000]
    linear = classic[1000] >= 5 * classic[100] and classic[100] >= 5 * classic[10]
    ok = constant and linear and elapsed < 10.0
    report(3, ok, f"eidetic pending {eidetic}, classic pending {classic}, {elapsed:.2f}s")


def test_criterion_4_differential_soundness():
    t0 = time.monotonic()
    budget = 10_000
    verdict_failures = 0
    stuck = 0
    exceeded = 0
    reports = []
    for term in corpus():
        r = diff_modes(term, budget)
        reports.append(r)
        if any(v.failed for v in (r.forgetful_ok, r.heedful_ok, r.eidetic_ok)) or r.findings:
            verdict_failures += 1
        if r.outcomes and any(o.kind is OutcomeKind.STUCK for o in r.outcomes.values()):
            stuck += 1
        if r.outcomes and any(o.kind is OutcomeKind.BUDGET for o in r.outcomes.values()):
            exceeded += 1
    elapsed = time.monotonic() - t0
    within = 1 - exceeded / len(reports)
    ok = verdict_failures == 0 and stuck == 0 and within > 0.99 and elapsed < 120.0
    report(
        4,
        ok,
        f"{len(reports)} programs, {verdict_failures} verdict failures, {stuck} stuck, "
        f"{within:.1%} within budget, {elapsed:.1f}s",
    )


def test_criterion_5_trace_invariants():
    from lh.harness import check_trace

    t0 = time.monotonic()
    violations = 0
    checked = 0
    for term in corpus():
        for mode in ALL_MODES:
            out = eval_term(mode, term, 10_000, trace=True)
            if out.kind is OutcomeKind.BUDGET:
                continue
            # read from the machine's frames: no trace term is built
            findings = check_trace(mode, out.trace_terms())
            checked += 1
            if findings:
                violations += 1
    elapsed = time.monotonic() - t0
    report(5, violations == 0, f"{checked} traces re-typechecked, {violations} violations, {elapsed:.1f}s")


def test_criterion_6_algebra_properties():
    t0 = time.monotonic()
    rng = random.Random(42)
    violations = 0

    for _ in range(10_000):
        r1, r2 = gen_reflist(rng), gen_reflist(rng)
        merged = coercion_merge(Refs(r1), Refs(r2)).entries
        keys = [canon(e.ref) for e in merged]
        if len(keys) != len(set(keys)):
            violations += 1
            continue
        for entry in merged:
            first = next(e for e in r1 + r2 if alpha_eq(e.ref, entry.ref))
            if entry.label != first.label:
                violations += 1
                break
        t = rng.choice(INT_POOL)
        dropped = ref_drop(r1, t)
        it = iter(r1)
        if not all(any(d is orig for orig in it) for d in dropped):  # subsequence
            violations += 1

    # idempotence on (constant, cast) pairs
    def conforming_const(t):
        for _ in range(50):
            k = Const(rng.randint(-4, 6))
            out = eval_term(Mode.CLASSIC, Cast(ANY, EMPTY_ANN, t, "lk", k), 1_000)
            if out.kind is OutcomeKind.VALUE:
                return k
        return None

    def outcomes_equal(a, b):
        return a.kind is b.kind and a.label == b.label and (
            a.kind is not OutcomeKind.VALUE or alpha_eq(a.term, b.term)
        )

    for _ in range(1_000):
        tgt = rng.choice(INT_POOL)
        k = conforming_const(tgt)
        if k is None:
            continue
        # heedful: the type-set may or may not contain the target itself
        others = [t for t in INT_POOL if rng.random() < 0.5]
        with_t = Types.of(others + [tgt])
        without_t = Types.of(t for t in others if not alpha_eq(t, tgt))
        a = eval_term(Mode.HEEDFUL, Cast(ANY, with_t, tgt, "lh", k), 5_000)
        b = eval_term(Mode.HEEDFUL, Cast(ANY, without_t, tgt, "lh", k), 5_000)
        if not outcomes_equal(a, b):
            violations += 1
        # eidetic: dropping the source refinement from the right operand of |>
        src = rng.choice(INT_POOL)
        ks = conforming_const(src)
        if ks is None:
            continue
        r2 = gen_reflist(rng) + (RefEntry(tgt, "lt"),)
        full = coercion_merge(Refs((RefEntry(src, "ls"),)), Refs(r2))
        pre = coercion_merge(Refs((RefEntry(src, "ls"),)), Refs(ref_drop(r2, src)))
        if eval_term(Mode.CLASSIC, Cast(ANY, EMPTY_ANN, src, "l", ks), 1_000).kind is not OutcomeKind.VALUE:
            continue
        a = eval_term(Mode.EIDETIC, Cast(src, full, tgt, None, ks), 5_000)
        b = eval_term(Mode.EIDETIC, Cast(src, pre, tgt, None, ks), 5_000)
        if not outcomes_equal(a, b):
            violations += 1

    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 30.0
    report(6, ok, f"10,000 merges + 1,000 idempotence pairs, {violations} violations, {elapsed:.1f}s")


def test_criterion_7_source_typing_agreement():
    from lh.typecheck import type_of

    disagreements = 0
    programs = list(corpus()) + [load_example(n) for n in ("triple.lh", "fact.lh", "evenodd.lh")]
    for term in programs:
        types = [type_of(mode, {}, term) for mode in ALL_MODES]
        if not all(alpha_eq(types[0], t) for t in types[1:]):
            disagreements += 1
    report(7, disagreements == 0, f"{len(programs)} programs, {disagreements} mode disagreements")
