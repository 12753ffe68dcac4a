"""Space accounting: structural counters per evaluation step.

`space_stats` measures a term in one traversal.  `eval_metered` keeps the
same five counters up to date incrementally while the machine runs, so the
per-step cost stays proportional to the local change, not the term size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .semantics import Context, Frame, Outcome, machine
from .syntax import (
    Abs,
    ActiveCheck,
    Cast,
    Coerce,
    CoercionStack,
    Mode,
    Refs,
    Term,
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
        return SpaceStats(
            max(self.pending, other.pending),
            max(self.chain, other.chain),
            max(self.max_reflist, other.max_reflist),
            max(self.proxy_wrap, other.proxy_wrap),
            max(self.live_types, other.live_types),
        )

    def as_dict(self) -> dict:
        return {
            "pending": self.pending,
            "chain": self.chain,
            "max_reflist": self.max_reflist,
            "proxy_wrap": self.proxy_wrap,
            "live_types": self.live_types,
        }


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


_OWN_NONE = (frozenset(), 0, 0)


def _own(e: Term) -> tuple[frozenset, int, int]:
    """(type keys, pending, reflist length) contributed by the node itself, apart from its subterms."""

    whole, alone = held_types(e)
    if not whole:
        return _OWN_NONE
    # a node holding one type reuses that type's cached keys
    keys = type_keys(whole[0]) if len(whole) == 1 else frozenset().union(*map(type_keys, whole))
    if alone:
        keys = keys.union(map(canon, alone))
    if isinstance(e, Cast):
        return keys, 1, _coercion_reflen(e.ann.coercion) if isinstance(e.ann, Coerce) else 0
    if isinstance(e, CoercionStack):
        return keys, 1, len(e.pending)
    return keys, int(isinstance(e, ActiveCheck)), 0  # Abs and Fix hold no pending check


def _coercion_reflen(c) -> int:
    if isinstance(c, Refs):
        return len(c.entries)
    return max(_coercion_reflen(c.dom), _coercion_reflen(c.cod))


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
        object.__setattr__(node, "_sm", _combine(node))
    return getattr(e, "_sm")


_NO_KIDS = ((),) * len(Measures._fields)


def _combine(e: Term) -> Measures:
    kids = [getattr(c, "_sm") for c in children(e)]
    own_keys, own_pending, own_reflist = _own(e)
    # one column per field: cheaper than a generator per field
    pendings, _, chains, _, proxies, reflists, keys = zip(*kids) if kids else _NO_KIDS
    pending = own_pending + sum(pendings)
    max_chain = max(chains, default=0)
    max_proxy = max(proxies, default=0)
    max_reflist = max((own_reflist, *reflists))
    tkeys = own_keys.union(*keys)
    top_chain = 0
    top_proxy = -1

    if isinstance(e, Abs):
        top_proxy = 0
    elif isinstance(e, Cast):
        sub = kids[0]
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


# A meter frame: the type keys the frame's node holds outside the hole, then
# totals over the context down to the hole: pending checks, the longest cast
# chain, the length of the cast chain that ends at the hole, the deepest proxy
# and the longest refinement list.
_NO_FRAME: tuple = ((), 0, 0, 0, 0, 0)


class Meter:
    """Observes machine transitions; keeps whole-term SpaceStats current.

    Its per-frame data lives on its own stack, parallel to the machine's
    context, so it writes nothing onto frames that a trace may share."""

    def __init__(self, series: bool = False):
        self._counts: dict = {}
        self._frames: list[tuple] = []
        self.max = ZERO_STATS
        self.series: Optional[list[tuple[str, SpaceStats]]] = [] if series else None

    # counter plumbing

    def _add(self, keys: frozenset) -> None:
        counts = self._counts
        for k in keys:
            counts[k] = counts.get(k, 0) + 1

    def _sub(self, keys: frozenset) -> None:
        counts = self._counts
        for k in keys:
            n = counts[k] - 1
            if n == 0:
                del counts[k]
            else:
                counts[k] = n

    # observer events

    def start(self, root: Term) -> None:
        self._add(measures(root).tkeys)
        self.max = self._snapshot(root)

    def push(self, frame: Frame, child: Term) -> None:
        own_keys, own_pending, own_reflist = _own(frame.orig)
        sibs = [measures(s) for s in frame.siblings()]
        self._sub(measures(frame.orig).tkeys)
        stored = [own_keys] + [s.tkeys for s in sibs]
        for keys in stored:
            self._add(keys)
        self._add(measures(child).tkeys)

        _, pending, chain, suffix, proxy, reflist = self._frames[-1] if self._frames else _NO_FRAME
        if isinstance(frame.orig, Cast):
            suffix += 1
        else:
            chain, suffix = max(chain, suffix), 0
        pending += own_pending
        reflist = max(reflist, own_reflist)
        for s in sibs:
            pending += s.pending
            chain = max(chain, s.max_chain)
            proxy = max(proxy, s.max_proxy)
            reflist = max(reflist, s.max_reflist)
        self._frames.append((stored, pending, chain, suffix, proxy, reflist))

    def pop(self, frame: Frame, child: Term, rebuilt: Term) -> None:
        for keys in self._frames.pop()[0]:
            self._sub(keys)
        self._sub(measures(child).tkeys)
        self._add(measures(rebuilt).tkeys)

    def step(self, rule: str, ctx: Context, old: Term, new: Term) -> None:
        self._sub(measures(old).tkeys)
        self._add(measures(new).tkeys)
        stats = self._snapshot(new)
        self.max = self.max.join(stats)
        if self.series is not None:
            self.series.append((rule, stats))

    def _snapshot(self, focus: Term) -> SpaceStats:
        _, pending, chain, suffix, proxy, reflist = self._frames[-1] if self._frames else _NO_FRAME
        m = measures(focus)
        return SpaceStats(
            pending + m.pending,
            max(chain, suffix + m.top_chain, m.max_chain),
            max(reflist, m.max_reflist),
            max(proxy, m.max_proxy, (suffix + m.top_proxy) if m.top_proxy >= 0 else 0),
            len(self._counts),
        )


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
