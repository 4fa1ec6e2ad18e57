"""The frontier planner shared by the crossing-at-a-time contractions.

A contraction takes a diagram's crossings one at a time.  The arcs with
one end in the contracted region are open; they depend on the step only,
so `layout` fixes one order of them per step before any state exists:
the kept arcs in their old order, then the arcs the crossing opens, in
leg order.  `contraction_order` picks the steps so that few arcs are open
at once.  `plan` is both.

Both engines pack a state's polynomial coefficient into one Python int
of signed fixed-width digits (Kronecker substitution).  `fits` is the
check, made before every step, that no digit can overflow in it, and
`contract` runs the steps, shifts out the zero digits all states share
after each, and doubles the digit width when they are too narrow.
"""

from __future__ import annotations

import heapq
from functools import reduce
from operator import itemgetter, or_
from typing import NamedTuple

from .budget import Budget
from .laurent import LaurentPoly


class Step(NamedTuple):
    """One crossing's step: where its arcs sit before and after it.

    `kept` lists the old positions that stay open, which become positions
    0.. in that order; `consumed` maps each old position the crossing
    closes to its leg.  `new` maps each leg whose arc the crossing opens
    to its new position, and `joined` each leg whose arc runs to another
    leg of the same crossing to that leg.
    """

    kept: list[int]
    consumed: dict[int, int]
    new: dict[int, int]
    joined: dict[int, int]


def getter(positions: list[int]) -> itemgetter:
    """Function returning the tuple of P[i] for i in `positions`."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(*positions, positions[0] + 1) if positions
                      else slice(0))


def layout(crossings, order: list[int]) -> list[Step]:
    """The step of each crossing in `order`, in that order."""
    open_arcs: list[int] = []
    steps = []
    for idx in order:
        x = crossings[idx]
        where = {a: i for i, a in enumerate(open_arcs)}
        consumed = {where[a]: leg for leg, a in enumerate(x) if a in where}
        kept = [i for i in range(len(open_arcs)) if i not in consumed]
        open_arcs = [open_arcs[i] for i in kept]
        new, joined = {}, {}
        for leg, a in enumerate(x):
            if x.count(a) == 2:
                joined[leg] = sum(j for j, b in enumerate(x) if b == a) - leg
            elif a not in where:
                new[leg] = len(open_arcs)
                open_arcs.append(a)
        steps.append(Step(kept, consumed, new, joined))
    return steps


def plan(crossings: tuple) -> tuple[list[int], list[Step]]:
    """`contraction_order` of `crossings` and its `layout`."""
    order = contraction_order(crossings)
    return order, layout(crossings, order)


def fits(values, width: int, terms: int) -> bool:
    """Whether a step that sums `terms` times the digits of `values` keeps
    every signed `width`-bit digit in range.

    True when every digit of every value lies in [-T, T), where T = 2^h
    and 2^(width-1-h) is the least power of two above `terms`: a new
    digit is then below terms * T < 2^(width-1) in absolute value.
    """
    h = width - 1 - terms.bit_length()   # T = 2^h
    if h <= 0:
        return False
    # every digit in [-T, T): adding T to each leaves [0, 2T), no carry
    n = max(map(int.bit_length, values)) // width + 2
    ones = ((1 << n * width) - 1) // ((1 << width) - 1)
    bias, mask = ones << h, ones * ((1 << width) - (2 << h))
    return not reduce(or_, map(mask.__and__, map(bias.__add__, values)))


def contract(plan: list, width: int, var: str, step) -> LaurentPoly:
    """The polynomial in `var` left when `step` has taken every entry of
    `plan`, with `width`-bit digits doubled until they are wide enough, all
    under the deadline of the enclosing `time_limit`.

    A coefficient var^off * sum(c_i var^(2i)) is the int
    sum(c_i 2^(width*i)) with signed digits c_i; `off` is shared by all
    states of a step, whose exponents all have one parity.
    `step(entry, states, width)` maps the states, {open arcs' state:
    packed coefficient}, to the next ones and returns them with the lowest
    exponent the step adds to `off`, or None when `fits` finds the digits
    too narrow.  It shifts only left, by whole digits; after each step the
    zero digits all states share are shifted out here and counted in `off`.

    No digit wraps.  Each int is its polynomial at 2^width exactly, and
    reads back right while every coefficient is in [-2^(width-1),
    2^(width-1)).  Before each step `fits` checks every digit against the
    step's bound on the terms summed into a state, so every new digit is in
    range, by induction from the single state 1.
    """
    while True:
        states: dict[tuple, int] = {(): 1}
        off = 0
        budget = Budget(unit=f"of {len(plan)} crossing steps",
                        progress=lambda: f"{len(states)} states")
        for entry in plan:
            budget.tick()
            if (out := step(entry, states, width)) is None:
                break
            states, low = out
            bits = reduce(or_, states.values(), 0)
            drop = ((bits & -bits).bit_length() - 1) // width if bits else 0
            if drop:
                states = {k: c >> drop * width for k, c in states.items()}
            off += low + 2 * drop
        else:
            break   # every step fit
        width *= 2
    if list(states) != [()]:
        raise AssertionError("open ends remain after full contraction")
    return LaurentPoly.unpack(var, states[()], width, off, 2)


def contraction_order(crossings) -> list[int]:
    """Greedy order keeping the set of open arcs small: each pick opens the
    fewest arcs net of those it closes, the lowest index among ties.  A heap
    holds (score, index); a pick rescores only the crossings sharing an arc
    with it, and stale entries are skipped."""
    at: dict[int, list[int]] = {}   # the crossing of each end of an arc
    for i, x in enumerate(crossings):
        for a in x:
            at.setdefault(a, []).append(i)
    left = {a: len(ends) for a, ends in at.items()}   # ends not yet picked

    def score(x) -> int:
        # +1 per arc x leaves open, -1 per open arc whose last ends x picks
        return sum(1 if left[a] > x.count(a) else -(left[a] < len(at[a]))
                   for a in set(x))

    scores: list = [score(x) for x in crossings]
    heap = sorted(zip(scores, range(len(crossings))))   # sorted is a heap
    order = []
    while heap:
        s, i = heapq.heappop(heap)
        if s != scores[i]:
            continue
        order.append(i)
        scores[i] = None   # picked
        for a in crossings[i]:
            left[a] -= 1
        for j in {j for a in crossings[i] for j in at[a]}:
            if scores[j] is not None and (s := score(crossings[j])) != scores[j]:
                scores[j] = s
                heapq.heappush(heap, (s, j))
    return order
