import dataclasses
import itertools
import random

import pytest

from coercions import assoc_counterexamples, coercion_eq, gen_coercion, gen_reflist
from conftest import load_example, type_keys
from lh import eval_term, harness, typecheck
from lh.harness import (
    ANY,
    NAT,
    check_trace,
    diff_modes,
    gen_source,
    judge,
    run_fuzz,
)
from lh.semantics import Frame, Machine, Outcome, OutcomeKind, TraceStep, TraceTerms, coercion_merge
from lh.surface import parse, parse_type, print_term, print_type
from lh.syntax import (
    ALL_MODES,
    App,
    Cast,
    Const,
    EMPTY_ANN,
    Fun,
    Mode,
    Refinement,
    Refs,
    alpha_eq,
    canon,
    children,
    is_raw,
    raw,
    rebuilt_at,
    subterms,
    with_child,
)
from lh.typecheck import MEMO_LIMIT, Checker, Memo, TypeCheckError, check_source


def test_pool_types_read_as_they_do_inside_a_cast():
    pool = harness.INT_POOL + harness.BOOL_POOL
    assert [print_type(t) for t in pool] == [
        "{x:Int | true}",
        "{x:Int | x >= 0}",
        "{x:Int | x mod 2 = 0}",
        "{x:Int | x <> 0}",
        "{x:Int | x > 0}",
        "{b:Bool | true}",
    ]
    for t in pool:
        in_cast = parse(f"<{print_type(t)} => {print_type(t)} @ l> 0").src
        assert (canon(in_cast), print_type(in_cast)) == (canon(t), print_type(t))


def test_gen_source_is_well_typed_and_deterministic():
    for seed in range(30):
        a = gen_source(seed, 12)
        b = gen_source(seed, 12)
        assert alpha_eq(a, b)
        check_source(a)


def test_gen_source_needs_a_positive_size():
    with pytest.raises(ValueError, match="size must be at least 1"):
        gen_source(3, 0)


def test_gen_source_roundtrips():
    for seed in range(30):
        e = gen_source(seed, 15)
        assert alpha_eq(parse(print_term(e)), e)


def test_gen_source_nested_cast_ratio():
    def nested(e):
        return any(isinstance(s, Cast) and isinstance(s.subject, Cast) for s in subterms(e))

    n = sum(nested(gen_source(i, 20)) for i in range(200))
    assert n / 200 >= 0.9  # measured 0.99 over 1,000 samples; pinned floor


def test_diff_modes_e3(e3):
    report = diff_modes(e3)
    assert not report.failed
    assert report.forgetful_ok.status == "pass"
    assert report.heedful_ok.status == "pass"
    assert report.eidetic_ok.status == "pass"
    assert report.outcomes[Mode.CLASSIC].label == "l1"
    assert report.outcomes[Mode.HEEDFUL].label == "l3"


def test_diff_modes_passing_cast():
    report = diff_modes(parse("<{x:Int|true} => {x:Int|x >= 0} @ l1> 5"))
    assert not report.failed
    for out in report.outcomes.values():
        assert out.kind is OutcomeKind.VALUE and out.term.value == 5


def test_judge_fails_each_claim_with_its_own_text():
    one, two = (Outcome(OutcomeKind.VALUE, term=Const(k)) for k in (1, 2))
    l1, l2 = (Outcome(OutcomeKind.BLAME, label=label) for label in ("l1", "l2"))
    stuck, budget = Outcome(OutcomeKind.STUCK, stuck_reason="r"), Outcome(OutcomeKind.BUDGET)
    fn = Outcome(OutcomeKind.VALUE, term=parse("\\x:{x:Int|true}. x"))

    def reasons(*outs):
        report = judge(Const(1), dict(zip(ALL_MODES, outs)))
        return [v.reason for v in (report.forgetful_ok, report.heedful_ok, report.eidetic_ok)], report.findings

    forgetful = "classic produced a value but forgetful diverged from it"
    heedful = "classic and heedful outcomes do not coterminate"
    eidetic = "eidetic outcome differs from classic (kind, label, or value)"
    assert reasons(one, one, one, one) == (["", "", ""], [])
    assert reasons(one, two, one, one) == ([forgetful, "", ""], [])
    assert reasons(l1, one, one, l1) == (["", heedful, ""], [])
    assert reasons(l1, l1, l2, l2) == (["", "", eidetic], [])
    assert reasons(stuck, stuck, stuck, stuck) == (["", "", eidetic], [f"{m.value}: stuck (r)" for m in ALL_MODES])
    # a budget skip comes before a function result's
    assert reasons(fn, budget, fn, fn)[0] == ["budget exceeded"] * 3
    assert reasons(fn, one, two, l1)[0] == ["function-typed result is not comparable"] * 3


def test_diff_modes_skips_fix():
    e = parse("let rec f : {x:Int|true} -> {x:Int|true} = \\x:{x:Int|true}. f x; f 1")
    report = diff_modes(e)
    assert report.forgetful_ok.status == "skip"
    assert not report.outcomes


def test_check_trace_clean(e3):
    for mode in ALL_MODES:
        out = eval_term(mode, e3, 1_000, trace=True)
        assert check_trace(mode, out.trace_terms()) == []


def test_check_trace_detects_corruption(e3):
    out = eval_term(Mode.CLASSIC, e3, 1_000, trace=True)
    terms = list(out.trace_terms())  # a copy: the trace's own sequence is read-only
    terms[2] = Const(True)  # swap in an ill-typed term
    findings = check_trace(Mode.CLASSIC, terms)
    assert findings and "step 2" in findings[0]


def _reference_check_trace(mode, terms):
    """check_trace with a fresh checker for every term: the whole-term
    checker that the memoized one must agree with."""

    try:
        ty = Checker(mode).infer({}, terms[0])
    except TypeCheckError as exc:
        return [f"step 0: initial term does not typecheck: {exc}"]
    findings = []
    prev_keys = None
    for i, term in enumerate(terms):
        try:
            Checker(mode).check({}, term, ty)
        except TypeCheckError as exc:
            findings.append(f"step {i}: preservation failure: {exc}")
        keys = type_keys(term)
        if prev_keys is not None and not keys <= prev_keys:
            findings.append(f"step {i}: types grew along the trace")
        prev_keys = keys
    return findings


def _swap_deepest(term, swap):
    """term with its deepest node for which swap gives a replacement replaced,
    rebuilding only the nodes on the path to it; None if swap gives none."""

    best = None
    todo = [(term, ())]
    while todo:
        node, path = todo.pop()
        new = swap(node)
        if new is not None and (best is None or len(path) > len(best[1])):
            best = new, path
        todo += [(kid, path + ((node, i),)) for i, kid in enumerate(children(node))]
    if best is None:
        return None
    new, path = best
    for parent, i in reversed(path):
        new = with_child(parent, i, new)
    return new


def _other_const(node):
    if isinstance(node, Const):
        return Const(0) if isinstance(node.value, bool) else Const(True)
    return None


def _other_label(node):
    return dataclasses.replace(node, label="swapped") if isinstance(node, Cast) else None


def _rebuilt_spine(prev, term):
    """(node, i) for each node of term that is its counterpart in prev
    rebuilt at its i-th child, from the root down, as `check_trace` walks
    them."""

    spine = []
    while (at := rebuilt_at(prev, term)) is not None:
        spine.append((term, at[0]))
        prev, term = children(prev)[at[0]], at[1]
    return spine


def _other_type(t):
    if isinstance(t, Fun):
        return Fun(t.dom, _other_type(t.cod))
    return Refinement(t.binder, t.base, Const(False)) if is_raw(t) else raw(t.base)


def _recast_shallowest(prev, term, change):
    """term with the shallowest cast on its spine rebuilt from prev (see
    `_rebuilt_spine`) rebuilt by change, with the same subject, and the nodes
    above it rebuilt around it; None if the spine holds no cast."""

    spine = _rebuilt_spine(prev, term)
    k = next((k for k, (node, _) in enumerate(spine) if isinstance(node, Cast)), None)
    if k is None:
        return None
    new = change(spine[k][0])
    for node, i in reversed(spine[:k]):
        new = with_child(node, i, new)
    return new


def _oracle_traces():
    """Clean traces of generated programs and of a short fact loop in every
    mode, each with corrupted copies: one step replaced by `Const(True)`, by
    the previous term or by the initial term, which share all or none of
    their nodes with their neighbours; one step rebuilt with its deepest
    constant or cast label swapped, which shares every node off the path to
    the swapped one; and the first step from there on whose spine holds a
    cast, with that cast's target or label changed but its subject kept, so
    that the nodes above it are still rebuilt at one child."""

    fix = load_example("fact.lh").fn.fn
    programs = [gen_source(500 + i, 5 + i % 26) for i in range(24)]
    programs.append(App(App(fix, Const(4)), Const(1)))
    rng = random.Random(9)
    for term in programs:
        for mode in ALL_MODES:
            out = eval_term(mode, term, 10_000, trace=True)
            if out.kind is OutcomeKind.BUDGET:
                continue
            yield mode, out.trace_terms()  # checked from the machine's frames
            terms = list(out.trace_terms())  # a copy to corrupt: the trace's own is read-only
            if len(terms) < 2:
                continue
            j = rng.randrange(1, len(terms))
            swapped = (_swap_deepest(terms[j], swap) for swap in (_other_const, _other_label))
            for bad in (Const(True), terms[j - 1], terms[0], *swapped):
                if bad is not None:
                    yield mode, terms[:j] + [bad] + terms[j + 1 :]
            changes = (
                lambda cast: dataclasses.replace(cast, tgt=_other_type(cast.tgt)),
                lambda cast: dataclasses.replace(cast, label="changed"),
            )
            for k in range(j, len(terms)):
                recast = [_recast_shallowest(terms[k - 1], terms[k], change) for change in changes]
                if recast[0] is not None:
                    for bad in recast:
                        yield mode, terms[:k] + [bad] + terms[k + 1 :]
                    break


def test_check_trace_matches_whole_term_reference():
    traces = with_findings = 0
    for mode, terms in _oracle_traces():
        expected = _reference_check_trace(mode, terms)
        assert check_trace(mode, terms) == expected, (mode, print_term(terms[0]))
        traces += 1
        with_findings += bool(expected)
    assert with_findings >= traces // 4  # the corrupted copies are caught


_LOOP_SRC = """
let rec loop : {x:Int|true} -> {x:Int|true} -> {x:Int|x >= 0} =
  \\n:{x:Int|true}. \\acc:{x:Int|true}.
    if n = 0 then <{x:Int|true} => {x:Int|x >= 0} @ lbase> acc
    else <{x:Int|x >= 0} => {x:Int|x >= 0} @ lrec> (loop (n - 1) (acc + n));
"""


def _loop_trace(mode, n):
    """The trace terms of the value loop from n down, as a stream."""

    out = eval_term(mode, parse(_LOOP_SRC + f"loop {n} 0"), 1_000_000, trace=True)
    assert out.kind is OutcomeKind.VALUE and out.term.value == n * (n + 1) // 2
    return itertools.chain((out.initial,), (s.term for s in out.trace))


def test_check_trace_memos_stay_bounded(monkeypatch):
    # the checker's judgments and the type-key masks live in two memos, each
    # emptied when full, however long and deep the trace
    memos, emptied = [], set()
    init = Memo.__init__
    monkeypatch.setattr(Memo, "__init__", lambda self: memos.append(self) or init(self))
    monkeypatch.setattr(Memo, "clear", lambda self: emptied.add(id(self)) or dict.clear(self))
    assert check_trace(Mode.CLASSIC, _loop_trace(Mode.CLASSIC, 300)) == []
    assert len(memos) == 2
    for memo in memos:
        assert id(memo) in emptied and len(memo) <= 2 * MEMO_LIMIT


def test_check_trace_findings_do_not_depend_on_memo_aging(monkeypatch):
    # with the memos emptied at four entries, judgments and type-key masks are
    # dropped at nearly every step, and what is checked again must come out
    # the same
    traces = [(mode, terms, _reference_check_trace(mode, terms)) for mode, terms in _oracle_traces()]
    monkeypatch.setattr(typecheck, "MEMO_LIMIT", 2)
    for mode, terms, expected in traces:
        assert check_trace(mode, terms) == expected, (mode, print_term(terms[0]))


def test_check_trace_findings_do_not_depend_on_verdict_eviction(monkeypatch):
    # with room for two replay verdicts, nearly every premise is replayed
    # again after its verdict was evicted, and must come out the same
    traces = [(mode, terms, check_trace(mode, terms)) for mode, terms in _oracle_traces()]
    sizes = []
    remember = typecheck._remember

    def remember_and_measure(cache, key, verdict):
        remember(cache, key, verdict)
        sizes.append(len(cache))

    monkeypatch.setattr(typecheck, "VERDICT_CACHE_LIMIT", 2)
    monkeypatch.setattr(typecheck, "_REPLAY_CACHE", {})
    monkeypatch.setattr(typecheck, "_remember", remember_and_measure)
    for mode, terms, expected in traces:
        assert check_trace(mode, terms) == expected, (mode, print_term(terms[0]))
    assert len(sizes) > 2 and max(sizes) == 2  # the cache filled up, and evicted from then on


def test_check_trace_of_a_classic_proxy_chain_does_not_recurse():
    # each call through the chain of 600 proxies peels one off, and the rest
    # of the chain, whose judgments aged out of the memo long before, is
    # typed again: recursively, that overflowed the default recursion limit
    loop = load_example("proxy_loop.lh")
    out = eval_term(Mode.CLASSIC, App(App(loop.fn.fn, Const(300)), loop.arg), 1_000_000, trace=True)
    assert out.kind is OutcomeKind.VALUE
    assert check_trace(Mode.CLASSIC, out.trace_terms()) == []


def test_check_trace_of_a_deep_classic_loop_does_not_recurse():
    # 300 pending casts around the redex: re-typing them top-down at every
    # step overflowed the default recursion limit
    assert check_trace(Mode.CLASSIC, _loop_trace(Mode.CLASSIC, 300)) == []


def test_check_trace_rules_per_term_do_not_grow_with_depth(monkeypatch):
    # a count of typing rules, not a timing: classic re-typed every pending
    # cast at every step, 39 rules per term at n = 25 and 64 at n = 50
    rules = []
    for name in ("_infer_rule", "_check_rule"):
        rule = getattr(Checker, name)
        monkeypatch.setattr(Checker, name, lambda self, *a, rule=rule: rules.append(name) or rule(self, *a))
    per_term = []
    for n in (25, 50):
        rules.clear()
        terms = list(_loop_trace(Mode.CLASSIC, n))
        assert check_trace(Mode.CLASSIC, terms) == []
        per_term.append(len(rules) / len(terms))
    assert abs(per_term[1] - per_term[0]) <= 1, per_term


def test_check_trace_work_per_step_does_not_grow_with_depth(monkeypatch):
    # counts, not timings, on the machine's own traces of the classic loop,
    # whose context grows by one pending cast per iteration: frames rebuilt,
    # pairs compared, positions asked for a child type, typing rules run and
    # nodes whose held types' key mask the type-key walk reads
    outs = [eval_term(Mode.CLASSIC, parse(_LOOP_SRC + f"loop {n} 0"), 1_000_000, trace=True) for n in (25, 50)]
    counted = (
        (Frame, "rebuild"),
        (harness, "rebuilt_at"),
        (Checker, "_child_type"),
        (Checker, "_infer_rule"),
        (Checker, "_check_rule"),
        (harness, "held_mask"),
    )
    calls = {name: [] for _, name in counted}
    for owner, name in counted:
        call = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, call=call, seen=calls[name]: seen.append(1) or call(*a))
    per_term = []
    for out in outs:
        for seen in calls.values():
            seen.clear()
        terms = out.trace_terms()
        assert check_trace(Mode.CLASSIC, terms) == []
        per_term.append({name: len(seen) / len(terms) for name, seen in calls.items()})
    assert all(abs(per_term[1][name] - per_term[0][name]) <= 1 for name in calls), per_term


def test_check_trace_catches_a_machine_that_rebuilds_wrongly(monkeypatch):
    # the machine puts a boolean in where a popped cast's subject belongs;
    # reading the recorded steps back, the frame path must see the bad term
    rebuild = Frame.rebuild
    broken = []

    def rebuild_wrongly(frame, child):
        if child is not children(frame.orig)[frame.index] and isinstance(frame.orig, Cast) and not broken:
            broken.append(frame)
            child = Const(True)
        return rebuild(frame, child)

    monkeypatch.setattr(Frame, "rebuild", rebuild_wrongly)
    out = eval_term(Mode.CLASSIC, parse(_LOOP_SRC + "loop 5 0"), 10_000, trace=True)
    monkeypatch.undo()
    assert broken
    findings = check_trace(Mode.CLASSIC, out.trace_terms())
    assert any("preservation failure" in f for f in findings), findings
    assert findings == check_trace(Mode.CLASSIC, list(out.trace_terms()))


def test_check_trace_checks_above_a_form_that_replays_the_change():
    # a predicate's sum stepped to the wrong number inside the active check,
    # under frames pushed by the step (4) or kept from the one before (5):
    # the number checks against the Int that + or <> expects, but the check's
    # replay of (3 + 1) + 1 <> 0 never reaches it, so the step is checked
    # above the active check.  In the second predicate the step to 4 rebuilds
    # the product below the sum's frame, kept from the step before, so the
    # product's position is replayed too
    cases = (
        ("<{x:Int|true} => {x:Int|(x + 1) + 1 <> 0} @ l> 3", (4, 5)),
        ("<{x:Int|true} => {x:Int|(if x > 0 then (x + 1) * 2 else 0) + 1 <> 0} @ l> 3", (4,)),
    )
    for (source, values), mode in itertools.product(cases, ALL_MODES):
        out = eval_term(mode, parse(source), 100, trace=True)
        for value in values:
            trace = list(out.trace)
            j = next(j for j, step in enumerate(trace) if step.rule == "E-Op" and step._focus.value == value)
            trace[j] = TraceStep(trace[j].rule, trace[j]._ctx, Const(value + 10))
            terms = TraceTerms(out.initial, tuple(trace))
            expected = _reference_check_trace(mode, list(terms))
            assert f"step {j + 1}: preservation failure" in expected[0], (mode, expected)
            assert check_trace(mode, terms) == check_trace(mode, list(terms)) == expected, (mode, value)


def test_check_trace_checks_the_whole_term_below_frames_that_stay():
    # step 7 of the classic loop at n = 5 is an E-Op at depth 3; with a
    # boolean for its result the check in place fails, so the frames path
    # rebuilds the term through the frames above it and checks it whole
    out = eval_term(Mode.CLASSIC, parse(_LOOP_SRC + "loop 5 0"), 10_000, trace=True)
    trace = list(out.trace)
    step = trace[6]
    assert step.rule == "E-Op"
    trace[6] = TraceStep(step.rule, step._ctx, Const(True))
    terms = TraceTerms(out.initial, tuple(trace))
    expected = ["step 7: preservation failure: NotSimilar at /subject/fn/arg: constant at the wrong base type"]
    assert check_trace(Mode.CLASSIC, terms) == expected
    assert check_trace(Mode.CLASSIC, list(terms)) == expected
    assert _reference_check_trace(Mode.CLASSIC, terms) == expected


def test_check_trace_finds_types_that_grew_on_the_frame_path():
    # step 7's number comes back through a cast to a type the trace never
    # held and back: still well typed, but the step's part holds a key that
    # the part it replaced lacks, and so does its whole term
    out = eval_term(Mode.CLASSIC, parse(_LOOP_SRC + "loop 5 0"), 10_000, trace=True)
    trace = list(out.trace)
    step = trace[6]
    new = parse_type("{x:Int|x > 77}")
    there_and_back = Cast(new, EMPTY_ANN, ANY, "lg", Cast(ANY, EMPTY_ANN, new, "lg", step._focus))
    trace[6] = TraceStep(step.rule, step._ctx, there_and_back)
    terms = TraceTerms(out.initial, tuple(trace))
    expected = ["step 7: types grew along the trace"]
    assert check_trace(Mode.CLASSIC, terms) == expected
    assert check_trace(Mode.CLASSIC, list(terms)) == expected
    assert _reference_check_trace(Mode.CLASSIC, terms) == expected


def test_checker_memo_keeps_expected_types_apart():
    checker = Checker(Mode.CLASSIC)
    five = Const(5)
    negative = parse_type("{x:Int|x < 0}")
    for _ in range(2):
        checker.check({}, five, NAT)
        with pytest.raises(TypeCheckError, match="does not satisfy the refinement"):
            checker.check({}, five, negative)
    cast = parse("<{x:Int|true} => {x:Int|x >= 0} @ l1> 5")
    assert alpha_eq(checker.infer({}, cast), NAT)
    checker.check({}, cast, cast.tgt)
    with pytest.raises(TypeCheckError, match="differs from the expected type"):
        checker.check({}, cast, ANY)
    # an open node's judgment depends on the environment: never memoized
    x = parse("x")
    checker.check({"x": NAT}, x, NAT)
    with pytest.raises(TypeCheckError, match="differs from the expected type"):
        checker.check({"x": ANY}, x, NAT)


def test_check_trace_of_an_empty_trace_finds_nothing():
    assert check_trace(Mode.CLASSIC, []) == []


def test_check_trace_rejects_untyped_start():
    assert check_trace(Mode.CLASSIC, [parse("x + 1")])


def test_reflist_and_coercion_generators():
    rng = random.Random(7)
    for _ in range(50):
        entries = gen_reflist(rng)
        keys = [print_term(e.ref.predicate) for e in entries]
        assert len(keys) == len(set(keys))
        gen_coercion(rng)


def test_coercion_merge_properties():
    rng = random.Random(3)
    for _ in range(500):
        r1, r2 = gen_reflist(rng), gen_reflist(rng)
        merged = coercion_merge(Refs(r1), Refs(r2)).entries
        keys = [print_term(e.ref.predicate) for e in merged]
        assert len(keys) == len(set(keys))  # duplicate-free
        # every surviving entry keeps the label of its leftmost occurrence
        for entry in merged:
            first = next(e for e in r1 + r2 if alpha_eq(e.ref, entry.ref))
            assert entry.label == first.label


def test_associativity_probe():
    assert assoc_counterexamples(seed=11, count=300) == []


def test_coercion_eq():
    rng = random.Random(1)
    for _ in range(20):
        c = gen_coercion(rng)
        assert coercion_eq(c, c)
        if isinstance(c, Refs) and c.entries:
            assert not coercion_eq(c, Refs(()))


def test_run_fuzz_runs_each_mode_once_per_program(monkeypatch):
    # the traces it checks are those of the runs it judged
    calls = []
    real = Machine.eval
    monkeypatch.setattr(Machine, "eval", lambda self, *a, **kw: calls.append(kw) or real(self, *a, **kw))
    report = run_fuzz(count=50, seed=5, check_traces=True)
    assert report.ok and len(calls) == 50 * len(ALL_MODES)
    assert all(kw.get("trace") for kw in calls)


def test_run_fuzz_small():
    report = run_fuzz(count=40, seed=5, check_traces=True)
    assert report.ok, report.failures[:2]
    assert report.stuck == 0
    data = report.as_dict()
    assert data["count"] == 40 and data["ok"] is True
    report.to_json()
