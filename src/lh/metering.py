"""Space accounting: structural counters per evaluation step.

`space_stats` measures a term in one traversal.  `eval_metered` keeps the
same five counters up to date incrementally while the machine runs, so the
per-step cost stays proportional to the local change, not the term size.

`measures(e)` caches a `Measures` on every node it visits, and a substitution
plan (`syntax.unroll`) carries it over when it puts a constant in, so a loop's
beta step does not measure the body again.

A `Meter` keeps one summary per frame of the machine's context, covering the
term outside that frame's hole: its type keys, as a set, pending checks,
longest cast chain, cast chain ending at the hole, deepest proxy and longest
refinement list.  A push extends the parent's summary by the frame's node and
its other children.  Nothing outside a hole changes while the machine works
inside it, so a pop only drops the top summary, and a step's stats combine the
top summary with the new focus's measures.  `live_types` counts distinct
keys, so the union of the two key sets gives it exactly; a frame that adds no
key shares its parent's set, as `_with_keys` returns a set that already holds
the other one.

A step is straight-line code: it unpacks the top summary and the focus's
measures (a constant, variable or blame focus is `_LEAF`, without a walk),
compares a few integers and tests one key set against another.  It rebuilds
the peak only when some counter goes above it, and builds a `SpaceStats` only
for the series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .semantics import Context, Frame, Outcome, machine
from .syntax import (
    Abs,
    ActiveCheck,
    Blame,
    Cast,
    CoercionStack,
    Const,
    FunC,
    Mode,
    Refs,
    HOLDERS,
    Term,
    Var,
    canon,
    children,
    held_types,
    type_keys,
)


@dataclass(frozen=True)
class SpaceStats:
    """Five structural counters; `pending` is the space-efficiency headline."""

    pending: int
    chain: int
    max_reflist: int
    proxy_wrap: int
    live_types: int

    def join(self, other: "SpaceStats") -> "SpaceStats":
        return SpaceStats(*map(max, vars(self).values(), vars(other).values()))

    def as_dict(self) -> dict:
        return dict(vars(self))


ZERO_STATS = SpaceStats(0, 0, 0, 0, 0)


class Measures(NamedTuple):
    """Per-node cached aggregate; `top_proxy` is -1 when the node's root is not
    a cast chain ending on a lambda."""

    pending: int
    top_chain: int
    max_chain: int
    top_proxy: int
    max_proxy: int
    max_reflist: int
    tkeys: frozenset


_NO_KEYS: frozenset = frozenset()
# every variable, constant and blame: no children and no held types
_LEAF = Measures(0, 0, 0, -1, 0, 0, _NO_KEYS)


def _own(e: Term, keys: frozenset) -> tuple[frozenset, int, int]:
    """(keys extended by a `HOLDERS` node's own type keys, pending, reflist
    length): what the node adds to its subterms' or to its context's."""

    whole, alone = held_types(e)
    for t in whole:
        keys = _with_keys(keys, type_keys(t))
    if alone:
        keys = _with_keys(keys, frozenset(map(canon, alone)))
    if isinstance(e, Cast):
        return keys, 1, _reflen(e.ann)
    if isinstance(e, CoercionStack):
        return keys, 1, len(e.pending)
    return keys, int(isinstance(e, ActiveCheck)), 0  # Abs and Fix hold no pending check


def _reflen(ann) -> int:
    if isinstance(ann, Refs):
        return len(ann.entries)
    return max(_reflen(ann.dom), _reflen(ann.cod)) if isinstance(ann, FunC) else 0


def _with_keys(keys: frozenset, more: frozenset) -> frozenset:
    """keys | more, reusing either set object when it already holds the other."""

    if more <= keys:
        return keys
    return more if keys <= more else keys | more


def measures(e: Term) -> Measures:
    """Cached structural measures of a term, computed without deep recursion."""

    cached = getattr(e, "_sm", None)
    if cached is not None:
        return cached
    todo: list[Term] = [e]
    while todo:
        node = todo[-1]
        if getattr(node, "_sm", None) is not None:
            todo.pop()
            continue
        missing = [c for c in children(node) if getattr(c, "_sm", None) is None]
        if missing:
            todo.extend(missing)
            continue
        todo.pop()
        node._sm = _combine(node)
    return e._sm


def _combine(e: Term) -> Measures:
    kids = children(e)
    if isinstance(e, HOLDERS):
        tkeys, pending, max_reflist = _own(e, _NO_KEYS)
    elif kids:
        tkeys, pending, max_reflist = _NO_KEYS, 0, 0
    else:
        return _LEAF
    max_chain = max_proxy = 0
    for c in kids:
        m = c._sm
        pending += m.pending
        if m.max_chain > max_chain:
            max_chain = m.max_chain
        if m.max_proxy > max_proxy:
            max_proxy = m.max_proxy
        if m.max_reflist > max_reflist:
            max_reflist = m.max_reflist
        tkeys = _with_keys(tkeys, m.tkeys)
    top_chain = 0
    top_proxy = -1

    if isinstance(e, Abs):
        top_proxy = 0
    elif isinstance(e, Cast):
        sub = e.subject._sm
        top_chain = 1 + sub.top_chain
        max_chain = max(max_chain, top_chain)
        if sub.top_proxy >= 0:
            top_proxy = sub.top_proxy + 1
            max_proxy = max(max_proxy, top_proxy)

    return Measures(pending, top_chain, max_chain, top_proxy, max_proxy, max_reflist, tkeys)


def space_stats(e: Term) -> SpaceStats:
    m = measures(e)
    return SpaceStats(m.pending, m.max_chain, m.max_reflist, m.max_proxy, len(m.tkeys))


# ---------------------------------------------------------------------------
# Incremental meter


# the bottom of the stack: the empty context around the root
_NO_FRAME: tuple = (_NO_KEYS, 0, 0, 0, 0, 0)
# the classes `_combine` gives `_LEAF`
_LEAVES = frozenset((Var, Const, Blame))


class Meter:
    """Observes machine transitions; keeps whole-term SpaceStats current.

    Its per-frame data lives on its own stack, parallel to the machine's
    context, so it writes nothing onto frames that a trace may share."""

    def __init__(self, series: bool = False):
        self._frames: list[tuple] = [_NO_FRAME]
        self._peak = (0, 0, 0, 0, 0)
        self.series: Optional[list[tuple[str, SpaceStats]]] = [] if series else None

    @property
    def max(self) -> SpaceStats:
        """The pointwise maximum of the stats of every term seen so far."""

        return SpaceStats(*self._peak)

    # observer events

    def start(self, root: Term) -> None:
        self.step(None, None, root, root)

    def push(self, frame: Frame, child: Term) -> None:
        keys, pending, chain, suffix, proxy, reflist = self._frames[-1]
        orig = frame.orig
        if isinstance(orig, HOLDERS):
            keys, own_pending, own_reflist = _own(orig, keys)
            pending += own_pending
            if own_reflist > reflist:
                reflist = own_reflist
        if type(orig) is Cast:  # its one child, the subject, is the hole
            self._frames.append((keys, pending, chain, suffix + 1, proxy, reflist))
            return
        if suffix > chain:
            chain = suffix
        for i, s in enumerate(children(orig)):
            if i == frame.index:
                continue
            s_pending, _, s_chain, _, s_proxy, s_reflist, s_keys = measures(s)
            keys = _with_keys(keys, s_keys)
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
        m = _LEAF if type(new) in _LEAVES else measures(new)
        m_pending, top_chain, max_chain, top_proxy, max_proxy, max_reflist, m_keys = m
        pending += m_pending
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
        live = len(keys if m_keys <= keys else keys | m_keys)
        peak = self._peak
        if pending > peak[0] or chain > peak[1] or reflist > peak[2] or proxy > peak[3] or live > peak[4]:
            self._peak = tuple(map(max, peak, (pending, chain, reflist, proxy, live)))
        if self.series is not None and rule is not None:
            self.series.append((rule, SpaceStats(pending, chain, reflist, proxy, live)))


def eval_metered(
    mode: Mode,
    e: Term,
    budget: int = 100_000,
    series: bool = False,
) -> tuple[Outcome, SpaceStats, Optional[list[tuple[str, SpaceStats]]]]:
    """Run the machine with metering; the outcome is identical to plain eval."""

    meter = Meter(series=series)
    outcome = machine(mode).eval(e, budget, observer=meter)
    return outcome, meter.max, meter.series


def series_json(series: list[tuple[str, SpaceStats]]) -> list[dict]:
    return [{"step": i, "rule": rule, **stats.as_dict()} for i, (rule, stats) in enumerate(series, start=1)]
