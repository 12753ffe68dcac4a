import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_example, uncached
from lh import eval_term
from lh.harness import gen_source
from lh.metering import (
    SpaceStats,
    ZERO_STATS,
    eval_metered,
    measures,
    series_json,
    space_stats,
)
from lh.semantics import OutcomeKind
from lh.surface import parse, parse_type
from lh.syntax import (
    ALL_MODES,
    EMPTY_ANN,
    Abs,
    App,
    Cast,
    Const,
    Fix,
    Mode,
    Op,
    Var,
    _planned,
    alpha_eq,
    subst,
    subterms,
    type_keys,
)


def test_space_stats_constant():
    assert space_stats(Const(5)) == ZERO_STATS


def test_space_stats_e3(e3):
    s = space_stats(e3)
    assert s.pending == 3 and s.chain == 3
    assert s.max_reflist == 0 and s.proxy_wrap == 0
    assert s.live_types == 4


def test_space_stats_eidetic_merged_e3(e3):
    out = eval_term(Mode.EIDETIC, e3, 100, trace=True)
    merged = out.trace_terms()[5]  # after both merges, before stacking
    s = space_stats(merged)
    assert s.pending == 1 and s.chain == 1 and s.max_reflist == 3


def test_space_stats_proxy_wrap():
    e = parse(
        "<{x:Int|true} -> {x:Int|true} => {x:Int|true} -> {x:Int|true} @ l2>"
        " (<{x:Int|true} -> {x:Int|true} => {x:Int|true} -> {x:Int|true} @ l1> (\\x:{x:Int|true}. x))"
    )
    assert space_stats(e).proxy_wrap == 2


def test_join_is_pointwise_max():
    a = SpaceStats(1, 5, 0, 2, 3)
    b = SpaceStats(4, 1, 6, 0, 3)
    assert a.join(b) == SpaceStats(4, 5, 6, 2, 3)


def assert_meter_matches_trace(mode, e, budget):
    """Each series entry is the stats of the trace term after its step, and
    the peak is their join with the initial term's.  Its live types are also
    counted from `type_keys`, which uses no key masks."""

    out, mx, series = eval_metered(mode, e, budget, series=True)
    traced = eval_term(mode, e, budget, trace=True)
    terms = traced.trace_terms()
    assert len(series) == len(terms) - 1
    acc = space_stats(terms[0])
    for i, ((rule, stats), term, step) in enumerate(zip(series, terms[1:], traced.trace), 1):
        assert rule == step.rule
        assert stats == space_stats(term), (i, rule)
        assert stats.live_types == len(type_keys(term)), (i, rule)
        acc = acc.join(stats)
    assert mx == acc
    return out


@pytest.mark.parametrize("mode", ALL_MODES, ids=[m.value for m in ALL_MODES])
def test_meter_matches_direct_stats_on_e3(e3, mode):
    assert_meter_matches_trace(mode, e3, 10_000)


def _tail_loop(n, acc):
    """A tail-recursive loop with a cast on the recursive call; the base-case
    cast blames `lbase` when acc + n (n + 1) / 2 is negative."""

    raw, nat = "{x:Int|true}", "{x:Int|x >= 0}"
    return parse(
        f"let rec loop : {raw} -> {raw} -> {nat} = \\n:{raw}. \\acc:{raw}."
        f" if n = 0 then <{raw} => {nat} @ lbase> acc"
        f" else <{nat} => {nat} @ lrec> (loop (n - 1) (acc + n));"
        f" loop {n} ({acc})"
    )


def _fact(n):
    return App(App(load_example("fact.lh").fn.fn, Const(n)), Const(1))


# (program, budget, outcome kind): recursive runs deepen and unwind the
# context many times, and a run cut off by its budget ends with frames pushed
RECURSIVE_RUNS = {
    "fact6": (lambda: _fact(6), 100_000, OutcomeKind.VALUE),
    "evenodd": (lambda: load_example("evenodd.lh"), 100_000, OutcomeKind.VALUE),
    "loop-value": (lambda: _tail_loop(8, 3), 100_000, OutcomeKind.VALUE),
    "loop-blame": (lambda: _tail_loop(8, -100), 100_000, OutcomeKind.BLAME),
    "fact6-cut": (lambda: _fact(6), 60, OutcomeKind.BUDGET),
}


@pytest.mark.parametrize("mode", ALL_MODES, ids=[m.value for m in ALL_MODES])
@pytest.mark.parametrize("name", RECURSIVE_RUNS)
def test_meter_matches_direct_stats_on_recursive_runs(name, mode):
    build, budget, kind = RECURSIVE_RUNS[name]
    assert assert_meter_matches_trace(mode, build(), budget).kind is kind


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 3_000), size=st.integers(1, 18))
def test_meter_matches_direct_stats_generated(seed, size):
    e = gen_source(seed, size)
    for mode in ALL_MODES:
        out, mx, series = eval_metered(mode, e, 10_000, series=True)
        traced = eval_term(mode, e, 10_000, trace=True)
        terms = traced.trace_terms()
        acc = space_stats(terms[0])
        for (rule, stats), term in zip(series, terms[1:]):
            assert stats == space_stats(term), (mode, rule)
            assert stats.live_types == len(type_keys(term)), (mode, rule)
            acc = acc.join(stats)
        assert mx == acc, mode


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 3_000), size=st.integers(1, 18))
def test_metering_is_observation_only(seed, size):
    e = gen_source(seed, size)
    for mode in ALL_MODES:
        plain = eval_term(mode, e, 10_000)
        metered, _, _ = eval_metered(mode, e, 10_000)
        assert plain.kind is metered.kind and plain.label == metered.label
        if plain.kind is OutcomeKind.VALUE:
            assert alpha_eq(plain.term, metered.term)


def test_live_types_monotone_on_examples():
    for name in ("triple.lh", "fact.lh", "evenodd.lh"):
        e = load_example(name)
        for mode in ALL_MODES:
            out = eval_term(mode, e, 100_000, trace=True)
            values = [space_stats(t).live_types for t in out.trace_terms()]
            assert all(a >= b for a, b in zip(values, values[1:])), (name, mode)


def test_proxy_bound_after_annotation():
    e = load_example("evenodd.lh")
    for mode in (Mode.FORGETFUL, Mode.HEEDFUL, Mode.EIDETIC):
        out = eval_term(mode, e, 100_000, trace=True)
        terms = out.trace_terms()
        # skip the initial annotation pass
        tail = terms[len(terms) // 4 :]
        assert all(space_stats(t).proxy_wrap <= 1 for t in tail), mode


def test_factorial_space_signature():
    prog = load_example("fact.lh")
    fix = prog.fn.fn
    assert isinstance(fix, Fix)
    eidetic = []
    classic = []
    for n in (10, 50):
        e = App(App(fix, Const(n)), Const(1))
        _, mx_e, _ = eval_metered(Mode.EIDETIC, e, 100_000)
        _, mx_c, _ = eval_metered(Mode.CLASSIC, e, 100_000)
        eidetic.append(mx_e.pending)
        classic.append(mx_c.pending)
    assert eidetic[0] == eidetic[1]
    assert classic[1] > classic[0]


def test_proxy_loop_space_is_flat_except_in_classic():
    # f goes through two function casts per iteration: classic keeps every
    # proxy, the other modes merge them into one
    prog = load_example("proxy_loop.lh")
    fix, f = prog.fn.fn, prog.arg
    assert isinstance(fix, Fix)
    peaks = {mode: [] for mode in ALL_MODES}
    for n in (10, 100, 1000):
        for mode in ALL_MODES:
            out, mx, _ = eval_metered(mode, App(App(fix, Const(n)), f), 100_000)
            assert out.kind is OutcomeKind.VALUE and out.term.value == 6, (mode, n)
            peaks[mode].append((mx.pending, mx.proxy_wrap))
    for mode in (Mode.FORGETFUL, Mode.HEEDFUL, Mode.EIDETIC):
        assert peaks[mode] == [peaks[mode][0]] * 3, mode
    assert peaks[Mode.CLASSIC] == [(4 * n + 4, 2 * n + 2) for n in (10, 100, 1000)]


def test_series_json(e3):
    _, _, series = eval_metered(Mode.EIDETIC, e3, 100, series=True)
    data = series_json(series)
    assert data[0]["step"] == 1 and "pending" in data[0]
    json.dumps(data)  # serializable


def test_measures_of_a_deep_fresh_cast_chain_do_not_recurse():
    # no node of the chain is measured yet: each cast's function names its
    # subject, and measures works down the chain on an explicit stack
    nat = parse_type("{x:Int|x >= 0}")
    e = Const(1)
    for i in range(50_000):
        e = Cast(nat, EMPTY_ANN, nat, f"l{i % 7}", e)
    m = measures(e)
    assert (m.pending, m.top_chain, m.max_chain, m.max_reflist) == (50_000, 50_000, 50_000, 0)
    assert space_stats(e).live_types == 1


def test_measures_cache_consistency(e3):
    m1 = measures(e3)
    m2 = measures(e3)
    assert m1 is m2


def _assert_measures_node_by_node(e):
    for node, fresh in zip(subterms(e), subterms(uncached(e)), strict=True):
        assert measures(node) == measures(fresh)


def test_subst_of_a_constant_measures_like_a_fresh_term():
    # beta-reduce each lambda of the loop and of generated programs with a
    # constant: the measures of the nodes it shares and of those it rebuilds are exact
    roots = [_tail_loop(8, 3)] + [gen_source(seed, 20) for seed in range(20)]
    lambdas = [n for root in roots for n in subterms(root) if isinstance(n, Abs)]
    rebuilt = 0
    for lam in lambdas:
        measures(lam)
        out = subst(lam.body, lam.binder, Const(7))
        rebuilt += out is not lam.body
        _assert_measures_node_by_node(out)
    assert rebuilt  # the check above is not vacuous


def test_subst_carries_no_measures_past_a_type_with_the_variable_free():
    # types in programs are closed; this one is built directly around a free
    # x, so no plan may copy its measures: _planned declines it, and subst,
    # which copies none, gives what a fresh term measures
    raw = parse_type("{x:Int|true}")
    open_ref = parse_type("{y:Int|y < x}")
    e = Op("+", (Cast(open_ref, EMPTY_ANN, raw, "l", Var("x")), Var("x")))
    assert _planned(e, "x") is None
    before = measures(e)
    out = subst(e, "x", Const(1))
    assert measures(out).tkeys != before.tkeys
    _assert_measures_node_by_node(out)
