"""Every run is a function of the term up to alpha-equivalence: a program and a
copy with its binders renamed run alike in every mode, under both choose
policies, down to the rule of each step and the space it meters."""

import itertools
import random

from conftest import EXAMPLES, load_example
from lh.harness import check_trace, gen_source, judge
from lh.metering import Meter
from lh.semantics import CHOOSE_POLICIES, Machine, OutcomeKind, eval_term
from lh.surface import print_term
from lh.syntax import ALL_MODES, Node, Var, alpha_eq, free_vars, map_parts, subst

POOL = ("x", "y", "x0")


def renamed(node: Node, rng: random.Random) -> Node:
    """A copy of node with every lambda, `fix` and refinement binder renamed
    to a name from `POOL` that is not free in its scope, so that most copies
    bind a name again inside its own scope."""

    def go(n):
        return map_parts(n, go, scope)

    def scope(binder, part):
        free = free_vars(part) - {binder}
        names = [n for n in POOL if n not in free]
        name = rng.choice(names) if names else next(f"z{i}" for i in itertools.count() if f"z{i}" not in free)
        return name, go(subst(part, binder, Var(name)))

    return go(node)


def shadows(node: Node, bound: frozenset = frozenset()) -> bool:
    """Whether node binds a name inside the scope of that same name."""

    found = False

    def part(n):
        nonlocal found
        found = found or shadows(n, bound)
        return n

    def scope(binder, body):
        nonlocal found
        found = found or binder in bound or shadows(body, bound | {binder})
        return binder, body

    map_parts(node, part, scope)
    return found


def observe(mode, policy, e):
    """What a run shows but its value: the outcome, and each step's rule with
    the five space counters after it; and the value, if any."""

    meter = Meter(series=True)
    out = Machine(mode, choose_policy=policy).eval(e, 20_000, observer=meter)
    return (out.kind, out.label, out.steps, out.stuck_reason, meter.series), out.term


def _programs():
    for path in sorted(EXAMPLES.glob("*.lh")):
        yield load_example(path.name)
    for seed in range(9100, 9600):
        yield gen_source(seed, 5 + seed % 26)


def test_renamed_copies_run_alike_in_every_mode_and_policy():
    rng = random.Random(22)
    count = shadowing = 0
    for e in _programs():  # one at a time: what runs cache on a program goes with it
        c = renamed(e, rng)
        assert alpha_eq(e, c)
        count += 1
        shadowing += shadows(c)
        for mode, policy in itertools.product(ALL_MODES, CHOOSE_POLICIES):
            (a, a_value), (b, b_value) = observe(mode, policy, e), observe(mode, policy, c)
            assert a == b and (a_value is b_value is None or alpha_eq(a_value, b_value)), (mode, policy, print_term(e))
    # most copies bind a name inside its own scope, which `gen_source` never does
    assert shadowing >= count // 2


def test_renamed_copies_pass_judge_and_check_trace():
    rng = random.Random(23)
    for seed in range(9100, 9300):
        copy = renamed(gen_source(seed, 5 + seed % 26), rng)
        runs = {m: eval_term(m, copy, 10_000, trace=True) for m in ALL_MODES}
        report = judge(copy, runs)
        assert not report.failed, report.as_dict()
        for mode, out in runs.items():
            if out.kind is not OutcomeKind.BUDGET:
                assert check_trace(mode, out.trace_terms()) == [], (mode, seed)
