"""Space accounting: structural counters per evaluation step.

`space_stats` measures a term in one traversal.  `eval_metered` keeps the
same five counters up to date incrementally while the machine runs, so the
per-step cost stays proportional to the local change, not the term size.

A set of type keys is an `int` (`syntax.key_mask`, `syntax.held_mask`): a
union is `|`, and `live_types` is the number of bits set.  `measures(e)` caches
a `Measures` on every node it visits, and a substitution plan (`syntax.unroll`)
carries it over when it puts a constant in, so a loop's beta step does not
measure the body again.  Each node class has one function (`_MEASURES`) that
builds the node's measures from its children's.  A node whose children are
measured, as most new foci are, costs one call of it; else the function names
a child that is not, and `measures` measures that first, on an explicit stack.

A `Meter` keeps one summary per frame of the machine's context, covering the
term outside that frame's hole: its type-key mask, pending checks, longest
cast chain, cast chain ending at the hole, deepest proxy and longest
refinement list.  A push extends the parent's summary by the frame's node and
its other children, in straight-line code for a cast and an application.
Nothing outside a hole changes while the machine works inside it, so a pop
only drops the top summary.  A step unpacks the top summary and the new
focus's measures (a leaf focus adds nothing), compares a few integers and
counts the bits of one mask; it rebuilds the peak only when some counter goes
above it, and builds a `SpaceStats` only for the series.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple, Optional

from .semantics import Context, Frame, Outcome, machine
from .syntax import (
    Abs,
    ActiveCheck,
    App,
    Cast,
    CoercionStack,
    Cond,
    Fix,
    FunC,
    LEAVES,
    Mode,
    Op,
    Refs,
    Term,
    children,
    held_mask,
)


class SpaceStats(NamedTuple):
    """Five structural counters; `pending` is the space-efficiency headline."""

    pending: int
    chain: int
    max_reflist: int
    proxy_wrap: int
    live_types: int

    def join(self, other: "SpaceStats") -> "SpaceStats":
        return SpaceStats(*map(max, self, other))

    def as_dict(self) -> dict:
        return self._asdict()


ZERO_STATS = SpaceStats(0, 0, 0, 0, 0)
Series = list[tuple[str, SpaceStats]]  # (rule, stats after its step) for each step


class Measures(NamedTuple):
    """Per-node cached aggregate; `top_proxy` is -1 unless the node's root is a cast chain ending on a lambda."""

    pending: int
    top_chain: int
    max_chain: int
    top_proxy: int
    max_proxy: int
    max_reflist: int
    tkeys: int  # a `syntax.key_mask`


_LEAF = Measures(0, 0, 0, -1, 0, 0, 0)


def _reflen(ann) -> int:
    if type(ann) is Refs:
        return len(ann.entries)
    return max(_reflen(ann.dom), _reflen(ann.cod)) if type(ann) is FunC else 0


def measures(e: Term) -> Measures:
    """Cached structural measures of a term: its class's function if its
    children are measured, else the same bottom-up on an explicit stack."""

    cached = getattr(e, "_sm", None)
    if cached is not None:
        return cached
    todo: list[Term] = [e]
    while todo:
        node = todo[-1]
        m = _MEASURES[type(node)](node)
        if type(m) is Measures:
            node._sm = m
            todo.pop()
        else:  # a child without `_sm`, to measure first
            todo.append(m)
    return e._sm


# One function per node class: the node's measures from its children's `_sm`
# (none needed from a leaf), or else a child that has none yet
_measures = partial(tuple.__new__, Measures)  # without the named tuple's Python-level constructor


def _joined(kids, pending: int, reflist: int, holder: Optional[Term] = None, top_proxy: int = -1):
    """The measures of a node that adds pending, reflist and holder's types to its kids'."""

    chain = proxy = tkeys = 0
    for c in kids:
        if type(c) in LEAVES:
            continue
        m = getattr(c, "_sm", None)
        if m is None:
            return c
        c_pending, _, c_chain, _, c_proxy, c_reflist, c_keys = m
        pending += c_pending
        if c_chain > chain:
            chain = c_chain
        if c_proxy > proxy:
            proxy = c_proxy
        if c_reflist > reflist:
            reflist = c_reflist
        tkeys |= c_keys
    if holder is not None:
        tkeys |= held_mask(holder)
    return _measures((pending, 0, chain, top_proxy, proxy, reflist, tkeys))


def _cast(e: Cast):
    sub = e.subject
    m = _LEAF if type(sub) in LEAVES else getattr(sub, "_sm", None)
    if m is None:
        return sub
    pending, top_chain, chain, top_proxy, proxy, reflist, tkeys = m
    top_chain += 1
    chain = max(chain, top_chain)
    if top_proxy >= 0:
        top_proxy += 1
        proxy = max(proxy, top_proxy)
    reflist = max(reflist, _reflen(e.ann))
    return _measures((pending + 1, top_chain, chain, top_proxy, proxy, reflist, tkeys | held_mask(e)))


_MEASURES = {
    **dict.fromkeys(LEAVES, lambda e: _LEAF),
    Abs: lambda e: _joined((e.body,), 0, 0, e, 0),
    Fix: lambda e: _joined((e.body,), 0, 0, e),
    App: lambda e: _joined((e.fn, e.arg), 0, 0),
    Op: lambda e: _joined(e.args, 0, 0),
    Cond: lambda e: _joined((e.guard, e.then, e.orelse), 0, 0),
    Cast: _cast,
    ActiveCheck: lambda e: _joined((e.current, e.scrutinee), 1, 0, e),
    CoercionStack: lambda e: _joined((e.current, e.scrutinee), 1, len(e.pending), e),
}


def space_stats(e: Term) -> SpaceStats:
    m = measures(e)
    return SpaceStats(m.pending, m.max_chain, m.max_reflist, m.max_proxy, m.tkeys.bit_count())


# ---------------------------------------------------------------------------
# Incremental meter


class Meter:
    """Observes machine transitions; keeps whole-term SpaceStats current.

    Its per-frame data lives on its own stack, parallel to the machine's
    context, so it writes nothing onto frames that a trace may share."""

    def __init__(self, series: bool = False):
        self._frames: list[tuple] = [(0, 0, 0, 0, 0, 0)]  # the empty context around the root
        self._peak = (0, 0, 0, 0, 0)  # a plain tuple, which indexes faster than a named one
        self.series: Optional[Series] = [] if series else None

    @property
    def max(self) -> SpaceStats:
        """The pointwise maximum of the stats of every term seen so far."""

        return SpaceStats._make(self._peak)

    # observer events

    def start(self, root: Term) -> None:
        self.step(None, None, root, root)

    def push(self, frame: Frame, child: Term) -> None:
        keys, pending, chain, suffix, proxy, reflist = self._frames[-1]
        orig = frame.orig
        kind = type(orig)
        if kind is Cast:  # its one child, the subject, is the hole
            reflist = max(reflist, _reflen(orig.ann))
            self._frames.append((keys | held_mask(orig), pending + 1, chain, suffix + 1, proxy, reflist))
            return
        if suffix > chain:
            chain = suffix
        if kind is App:
            siblings = (orig.arg,) if frame.index == 0 else (orig.fn,)
        else:
            kids, i = children(orig), frame.index
            siblings = kids[:i] + kids[i + 1 :]
            if kind is ActiveCheck or kind is CoercionStack:  # a pending check, and a stack's list
                keys, pending = keys | held_mask(orig), pending + 1
                reflist = max(reflist, len(orig.pending) if kind is CoercionStack else 0)
        for s in siblings:
            if type(s) in LEAVES:
                continue
            s_pending, _, s_chain, _, s_proxy, s_reflist, s_keys = getattr(s, "_sm", None) or measures(s)
            keys |= s_keys
            pending += s_pending
            if s_chain > chain:
                chain = s_chain
            if s_proxy > proxy:
                proxy = s_proxy
            if s_reflist > reflist:
                reflist = s_reflist
        self._frames.append((keys, pending, chain, 0, proxy, reflist))

    def pop(self, frame: Frame, child: Term, rebuilt: Term) -> None:
        self._frames.pop()

    def step(self, rule: Optional[str], ctx: Context, old: Term, new: Term) -> None:
        """Combine the top summary with the new focus's measures; `start`
        passes no rule, and its root adds no series entry."""

        keys, pending, chain, suffix, proxy, reflist = self._frames[-1]
        if suffix > chain:
            chain = suffix
        if type(new) not in LEAVES:  # a leaf adds nothing
            m_pending, top_chain, max_chain, top_proxy, max_proxy, max_reflist, m_keys = (
                getattr(new, "_sm", None) or measures(new)
            )
            pending += m_pending
            keys |= m_keys
            if suffix + top_chain > chain:
                chain = suffix + top_chain
            if max_chain > chain:
                chain = max_chain
            if max_reflist > reflist:
                reflist = max_reflist
            if max_proxy > proxy:
                proxy = max_proxy
            if top_proxy >= 0 and suffix + top_proxy > proxy:
                proxy = suffix + top_proxy
        live = keys.bit_count()
        peak = self._peak
        if pending > peak[0] or chain > peak[1] or reflist > peak[2] or proxy > peak[3] or live > peak[4]:
            self._peak = tuple(map(max, peak, (pending, chain, reflist, proxy, live)))
        if self.series is not None and rule is not None:
            self.series.append((rule, SpaceStats(pending, chain, reflist, proxy, live)))


def eval_metered(
    mode: Mode, e: Term, budget: int = 100_000, series: bool = False
) -> tuple[Outcome, SpaceStats, Optional[Series]]:
    """Run the machine with metering; the outcome is identical to plain eval."""

    meter = Meter(series=series)
    outcome = machine(mode).eval(e, budget, observer=meter)
    return outcome, meter.max, meter.series


def series_json(series: Series) -> list[dict]:
    return [{"step": i, "rule": rule, **stats.as_dict()} for i, (rule, stats) in enumerate(series, start=1)]
