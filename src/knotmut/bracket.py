"""Kauffman bracket and Jones polynomial.

Conventions: bracket values live in Z[A, A^-1]; each crossing expands as
A * (join legs 0-1 and 2-3) + A^-1 * (join legs 0-3 and 1-2), a closed
loop contributes delta = -A^2 - A^-2, and the bracket of the empty
diagram is 1 (so an unknot diagram evaluates to delta).

The Jones polynomial of an oriented diagram D with writhe w is
(-A^3)^(-w) <D> / delta, rewritten in t = A^-4.  `jones` is the `jones`
command's engine and the independent check on the HOMFLY reading
`skein2.jones_from_homfly`, which a report uses; a report runs `jones`
only when its HOMFLY is resource-limited.

`kauffman_bracket` contracts one crossing at a time, in the order and
with the per-step layout of the open arcs that `knotmut.frontier` plans
and runs.  A state is a tuple P with P[i] the position of the open arc
joined to position i through the region.  A step reads and rewires only
the at most four positions its crossing consumes, so the loops and
rewirings of each smoothing are memoized per step, keyed by the
partners of those positions.
"""

from __future__ import annotations

from functools import cache
from math import comb

from .diagram import PlanarDiagram, _other_ends
from .frontier import contract, fits, getter, plan
from .laurent import LaurentPoly

DELTA = LaurentPoly("A", {2: -1, -2: -1})


def _plan(crossings) -> list[tuple]:
    """Per step of `frontier.plan`: (take, remap, key, consumed, ends,
    links, pad).

    `take` gathers a state's kept positions, `remap` sends an old position
    to its new one; `key` gathers the consumed positions, `consumed` maps
    each to its leg.  `ends[leg]` is the position of a leg's new arc;
    `links[leg]` is ~j for an arc to leg j of the crossing, else the leg;
    `pad` holds places for the new arcs.
    """
    steps = []
    for kept, consumed, new, joined in plan(crossings)[1]:
        size = len(kept) + len(consumed)
        remap = [-1] * size
        for i, old in enumerate(kept):
            remap[old] = i
        ends = [new.get(leg) for leg in range(4)]
        links = [~joined[leg] if leg in joined else leg for leg in range(4)]
        steps.append((getter(kept), remap, getter(list(consumed)), consumed,
                      ends, links, [0] * len(new)))
    return steps


def _rewire(partners, remap, consumed, ends, links, width, delta):
    """Per smoothing: [(position, partner), ...] to set, shift, multiplier."""
    ends, links = ends.copy(), links.copy()
    for leg, q in zip(consumed.values(), partners):
        if q in consumed:
            links[leg] = ~consumed[q]
        else:
            ends[leg] = remap[q]
    return [([(ends[u], ends[v]) for a, b in pairs for u, v in ((a, b), (b, a))],
             width * (3 - loops - sm), delta[loops])
            for sm, (loops, pairs) in enumerate(_paths(tuple(links)))]


@cache
def _paths(links: tuple[int, ...]) -> tuple:
    """Per smoothing: the loops closed and the pairs of legs a path joins.

    `links[leg]` is ~j when the leg's arc runs outside the crossing to leg
    j, else the leg (its arc ends at a boundary position), so there are at
    most 8^4 keys.  A loop uses one or both smoothing edges: two loops iff
    every link is to the mate."""
    out = []
    for mate in ((1, 0, 3, 2), (3, 2, 1, 0)):   # each leg's mate: A, A^-1
        on_path: set[int] = set()
        pairs = []
        for leg in range(4):
            if links[leg] >= 0 and leg not in on_path:
                path = [leg, mate[leg]]
                while links[path[-1]] < 0:
                    path += (~links[path[-1]], mate[~links[path[-1]]])
                on_path.update(path)
                pairs.append((leg, path[-1]))
        free = on_path.symmetric_difference(range(4))
        both = all(links[leg] == ~mate[leg] for leg in free)
        out.append((len(free) // 2 if both else 1, tuple(pairs)))
    return tuple(out)


def _digit_width(plan: list[tuple]) -> int:
    """Bits per digit to try first: headroom for the check at up to about
    2^f states on f open arcs, and 16 bits for coefficients."""
    return max((len(step[1]) for step in plan), default=0) + 21


def kauffman_bracket(d: PlanarDiagram) -> LaurentPoly:
    """Bracket by crossing-at-a-time contraction, run by `contract`."""
    steps = _plan(d.crossings)
    bracket = contract(steps, _digit_width(steps), "A", _step)
    return bracket * DELTA ** d.free_loops


def _step(entry: tuple, states: dict[tuple, int], width: int):
    """One crossing's step on states packed in A, None if `width` is too
    narrow, as `frontier.contract` runs it.

    The A^-1 smoothing closing two loops, delta^2 = A^-4 (1 + A^4)^2, adds
    the lowest exponent, -5; the other terms shift left by 1 to 3 whole
    digits, and k loops multiply by the packed (-1 - A^4)^k.  The step
    sums at most 2S terms into a state, for S old states, one per state
    and smoothing, and a term's digits are below 4T when the old ones are
    below T, since the binomials of (1 + A^4)^2 add up to 4; so `fits`
    checks for 8S terms.
    """
    if not fits(states.values(), width, 8 * len(states)):
        return None
    take, remap, key, consumed, ends, links, pad = entry
    delta = [1, -(1 + (1 << 2 * width)), (1 + (1 << 2 * width)) ** 2]
    rget, memo, new_states = remap.__getitem__, {}, {}
    for p, coeff in states.items():
        base = [*map(rget, take(p)), *pad]
        todo = memo.get(k := key(p))
        if todo is None:
            todo = memo[k] = _rewire(k, remap, consumed, ends, links,
                                     width, delta)
        for sets, shift, mult in todo:
            q = base.copy()
            for i, v in sets:
                q[i] = v
            c = coeff << shift
            if mult != 1:
                c *= mult
            t = tuple(q)
            new_states[t] = new_states.get(t, 0) + c
    return new_states, -5


def bracket_state_sum(d: PlanarDiagram) -> LaurentPoly:
    """Independent 2^c state-sum bracket for cross-checking.

    Enumerates all smoothing states.  State `mask` joins legs 0-3 and
    1-2 of crossing i when bit i is set, else legs 0-1 and 2-3, so a
    position p = 4i + leg crosses to p ^ 3 or p ^ 1; its loops are
    walked alternately across crossings and along the arcs of the
    `_other_ends` table.  The states are binned by (A-exponent, loops),
    and each bin adds A^e delta^loops, expanded by the binomial theorem.
    """
    other = _other_ends(d.crossings)
    n = len(d.crossings)
    bins: dict[tuple[int, int], int] = {}
    for mask in range(1 << n):
        seen = [False] * (4 * n)
        loops = d.free_loops
        for start in range(4 * n):
            if not seen[start]:
                loops += 1
                p = start
                while not seen[p]:
                    q = p ^ (3 if mask >> (p >> 2) & 1 else 1)
                    seen[p] = seen[q] = True
                    p = other[q]
        key = (n - 2 * mask.bit_count(), loops)
        bins[key] = bins.get(key, 0) + 1
    coeffs: dict[int, int] = {}
    for (e, k), count in bins.items():
        # delta^k = (-1)^k sum_j C(k, j) A^(4j - 2k)
        for j in range(k + 1):
            a = e + 4 * j - 2 * k
            coeffs[a] = coeffs.get(a, 0) + (-1) ** k * comb(k, j) * count
    return LaurentPoly("A", coeffs)


def jones(d: PlanarDiagram) -> LaurentPoly:
    """Jones polynomial in t, of a link with an odd number of components.

    With an even number the polynomial has half-integer powers of t, and
    ValueError is raised.
    """
    k = d.component_count()
    if k % 2 == 0:
        raise ValueError(f"{d.name or 'the link'} has {k} components, so its "
                         "Jones polynomial has half-integer powers of t")
    w = d.writhe()
    br = kauffman_bracket(d).exact_div(DELTA)
    # multiply by (-A^3)^(-w)
    sign = 1 if w % 2 == 0 else -1
    shifted = LaurentPoly("A", {e - 3 * w: sign * c for e, c in br.coeffs.items()})
    # t = A^-4
    return shifted.invert_var().shrink(4, "t")
