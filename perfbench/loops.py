"""Seeded tail-recursive loops: the paper's space-efficiency case.

Each program is a `fact`-shaped loop that elaborates to
`App(App(Fix ..., n), acc)`. The recursive call sits under a cast
`<R => R @ rec>`, and the base case returns `<Int => R @ base> acc`. The
accumulator grows by `n` per iteration (not by a factor, so the 64-bit
arithmetic never overflows), which gives the closed form
`acc + n (n + 1) / 2` for the result.

The value variant starts from a small non-negative accumulator, so every
check passes. The blame variant starts below `-n (n + 1) / 2`, so the
base-case cast fails and blame travels up through one frame per iteration.
Classic and eidetic check the innermost cast first and blame the base label;
forgetful and heedful keep only the outer contract and blame the recursive
label.

The seed picks the starting accumulator, the refinement `R` from a pool of
one-comparison predicates and the two labels. Every predicate in the pool
takes the same number of machine steps to check, so the step count of a
run depends on the mode, depth and variant only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from lh import Mode

# Plain runs go to the paper's depths. The other ways stop where one run
# takes about half a second or less, so that the calibration kernel that
# scales timings (see calib.py) runs often enough to follow the host's speed.
DEPTHS = (100, 1000, 3000)
METER_DEPTHS = (100, 300, 1000)
TRACE_DEPTHS = (100, 200)
CHECK_DEPTH = 50
VARIANTS = ("value", "blame")

# Every predicate rejects the blame variant's final accumulator (below
# -5_000_000) and accepts the value variant's (at least n (n + 1) / 2).
_PRED_OPS = (">=", ">")
_PRED_BOUNDS = (-3, -2, -1, 0)


@dataclass(frozen=True)
class Loop:
    variant: str
    pred: str
    rec_label: str
    base_label: str
    acc: int

    def source(self, n: int) -> str:
        r = "{x:Int|" + self.pred + "}"
        raw = "{x:Int|true}"
        return (
            f"let rec loop : {raw} -> {raw} -> {r} =\n"
            f"  \\n:{raw}. \\acc:{raw}.\n"
            f"    if n = 0 then <{raw} => {r} @ {self.base_label}> acc\n"
            f"    else <{r} => {r} @ {self.rec_label}> (loop (n - 1) (acc + n));\n"
            f"loop {n} ({self.acc})\n"
        )

    def expected(self, mode: Mode, n: int) -> tuple[str, object]:
        """(kind, value or label) fixed by construction."""

        if self.variant == "value":
            return "value", self.acc + n * (n + 1) // 2
        if mode in (Mode.CLASSIC, Mode.EIDETIC):
            return "blame", self.base_label
        return "blame", self.rec_label


def make_loops(seed: int) -> dict[str, Loop]:
    rng = random.Random(f"tail-loop:{seed}")
    pred = f"x {rng.choice(_PRED_OPS)} {rng.choice(_PRED_BOUNDS)}"
    rec, base = rng.sample(range(1, 1000), 2)
    labels = {"rec_label": f"r{rec}", "base_label": f"b{base}"}
    return {
        "value": Loop("value", pred, acc=rng.randint(0, 999), **labels),
        "blame": Loop("blame", pred, acc=-rng.randint(10_000_000, 20_000_000), **labels),
    }
