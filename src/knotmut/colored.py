"""Colored Jones polynomials by the R-matrix state sum.

The N-colored Jones polynomial of a knot is the quantum invariant of the
N-dimensional representation V of U_q(sl2) (Turaev, Invent. Math. 92,
1988; Kirby & Melvin, Invent. Math. 105, 1991), computed as a vertex
model on the knot's own diagram.  V has the basis e_0..e_{N-1} with
H e_i = (N-1-2i) e_i, E e_i = [i] e_{i-1} and F e_i = [N-1-i] e_{i+1},
where [n] = (q^(n/2) - q^(-n/2)) / (q^(1/2) - q^(-1/2)).

Every crossing is stood upright, both strands running up: the legs
0..3 of a positive crossing sit at its bottom right, top right, top left
and bottom left corners, those of a negative crossing at bottom left,
bottom right, top right and top left.  A crossing then maps the weights
of its bottom legs (BL, BR) to those of its top legs (TL, TR) by
P o R when it is positive and R^-1 o P when it is negative, where P
swaps the factors and

    R = q^(H(x)H/4) sum_n q^(n(n-1)/4) (q^(1/2) - q^(-1/2))^n E^n/[n]! (x) F^n.

Between two upright crossings an arc turns a whole number r of times,
which `rotations` reads off the diagram's faces; the arc contributes
q^(-m r/2) when its weight has H-eigenvalue m.  The sum over all weight
states, times q^(-w(N^2-1)/4) for the writhe w, is [N] J_K(N): the
writhe factor returns the blackboard framing to the zero framing.

`colored_jones` contracts one crossing at a time, in the order and with
the layout of the open arcs that `knotmut.frontier` plans.  A state is
the tuple of the open arcs' weights; its coefficient is a polynomial in
v = q^(1/4), packed into one int as the bracket packs its own.

A report reads J_K(2) off its Jones item and J_K(3) off its Kauffman
item (`skein2.cjones3_from_kauffman`), so it runs the state sum only for
colors 4 and up, or for color 3 when the Kauffman tree is limited; the
state sum stays the independent check on both readings.

Cabling stays as the independent oracle: the bracket of the companion
cabled by (-1)^(N-1) e_{N-1}, where e_n is the Chebyshev basis of the
solid-torus skein module (e_0 = 1, e_1 = z, e_i = z e_{i-1} - e_{i-2}),
with one twist-eigenvalue factor (-1)^n A^(n^2+2n) per full twist
(Lickorish, GTM 175, ch. 13) for the zero framing.
"""

from __future__ import annotations

from functools import cache, lru_cache

from .bracket import kauffman_bracket
from .diagram import PlanarDiagram, _other_ends, faces
from .frontier import contract, fits, getter, plan
from .laurent import InexactDivision, LaurentPoly, qint
from .satellites import cable

MIN_WIDTH = 32   # bits per packed digit, at the least


def _check_color(d: PlanarDiagram, N: int):
    if N < 1:
        raise ValueError("N must be at least 1")
    if N > 1 and d.component_count() != 1:
        # the framing correction needs the writhe of a single component;
        # color 1 is 1 on every link
        raise ValueError("colored Jones for N > 1 needs a knot diagram")


def colored_jones(d: PlanarDiagram, N: int) -> LaurentPoly:
    """J_K(N) in q, normalized so the unknot gives 1."""
    _check_color(d, N)
    if N == 1 or not d.crossings:
        return LaurentPoly.one("q")
    return state_sum(d, N, rotations(d))


def rotations(d: PlanarDiagram, outer: int = 0) -> dict[int, int]:
    """The whole turns of each arc between upright crossings, with face
    `outer` of `diagram.faces` as the unbounded one.

    A face walked with it on the left turns by +1 (bounded) or -1 (outer)
    whole turns.  At a crossing it turns by a half at its top and bottom
    corners, and not at all at its side corners; along an arc, by the
    arc's turns, negated when walked against its direction.  One equation
    per face; the turns are solved along a spanning tree of the dual graph,
    leaves first, and are 0 on arcs off the tree.  Other solutions differ
    by whole turns of crossings, which leave the state sum unchanged, since
    R conserves weight.
    """
    fs = faces(d.crossings)
    face_of = {p: f for f, face in enumerate(fs) for p in face}
    # corner 4i + k starts the walk along the arc of leg k of crossing i,
    # with the arc's direction when that leg is a top leg (sign), and is a
    # top or bottom corner of the crossing when `half` holds
    arc = [a for x in d.crossings for a in x]
    sign = [1 if leg in ((1, 2) if pos else (2, 3)) else -1
            for pos in d.positive for leg in range(4)]
    half = [(leg & 1) == pos for pos in d.positive for leg in range(4)]
    other = _other_ends(d.crossings)   # walks the same arc the other way
    parent = {outer: None}   # face -> its corner on the arc to its parent
    tree = [outer]
    for f in tree:
        for p in fs[f]:
            if (g := face_of[other[p]]) not in parent:
                parent[g] = other[p]
                tree.append(g)
    turns = dict.fromkeys(arc, 0)
    for f in reversed(tree[1:]):
        twice = (2 if f != outer else -2) - sum(half[p] for p in fs[f])
        rest = sum(sign[p] * turns[arc[p]] for p in fs[f] if p != parent[f])
        turns[arc[parent[f]]] = sign[parent[f]] * (twice // 2 - rest)
    return turns


def _bracket_v(n: int) -> LaurentPoly:
    """[n] in v = q^(1/4)."""
    return qint(n).stretch(2, "v")


@cache
def _r_table(N: int, positive: bool) -> tuple:
    """The nonzero entries of the crossing's map: (weights at legs 0..3,
    lowest exponent of v, coefficients of v^lowest, v^(lowest+2), ...)."""
    v = LaurentPoly.monomial
    step = LaurentPoly("v", {2: 1, -2: -1})   # q^(1/2) - q^(-1/2)
    m = [N - 1 - 2 * i for i in range(N)]   # H-eigenvalues

    def falling(top: int, n: int) -> LaurentPoly:
        """[top][top-1]...[top-n+1]."""
        out = v("v", 0)
        for k in range(n):
            out = out * _bracket_v(top - k)
        return out

    out = []
    for i in range(N):
        for j in range(N):
            # P o R sends e_i (x) e_j to terms in e_(j+n) (x) e_(i-n);
            # R^-1 o P sends it to terms in e_(j-n) (x) e_(i+n)
            src, dst = (i, j) if positive else (j, i)
            for n in range(min(src, N - 1 - dst) + 1):
                binom = falling(src, n).exact_div(falling(n, n))
                c = binom * falling(N - 1 - dst, n) * step ** n
                if positive:
                    c = c * v("v", m[i - n] * m[j + n] + n * (n - 1))
                    legs = (j, i - n, j + n, i)     # BR, TR, TL, BL
                else:
                    c = c * v("v", -m[i] * m[j] - n * (n - 1), (-1) ** n)
                    legs = (i, j, i + n, j - n)     # BL, BR, TR, TL
                low, high = min(c.coeffs), max(c.coeffs)
                out.append((legs, low, tuple(c.coeffs.get(e, 0)
                                             for e in range(low, high + 1, 2))))
    return tuple(out)


@lru_cache(maxsize=4096)
def _moves(width: int, N: int, positive: bool, old: tuple, fresh: tuple,
           joined: tuple, heads: tuple) -> tuple:
    """A crossing's map by the shape of its step, packed into `width`-bit
    digits: ({weights at `old`: [(weights at `fresh`, shift, multiplier),
    ...]}, the lowest exponent of v, M).

    `old` lists the legs of the consumed positions, `fresh` the legs of
    the new ones, `joined` pairs the legs of an arc that runs from the
    crossing back to it, and `heads` pairs each head (bottom) leg with
    the turns of its arc.  A joined arc's weights are summed over.  A
    multiplier's digits start at the lowest exponent plus `shift` whole
    digits, and M is the largest absolute sum of their coefficients.
    """
    terms: dict[tuple, list] = {}
    for legs, low, cs in _r_table(N, positive):
        if any(legs[a] != legs[b] for a, b in joined):
            continue
        e = low - 2 * sum(r * (N - 1 - 2 * legs[leg]) for leg, r in heads)
        key = (tuple(legs[leg] for leg in old),
               tuple(legs[leg] for leg in fresh))
        terms.setdefault(key, []).append((e, cs))
    base = min(e for ts in terms.values() for e, _ in ts)
    bound = max(sum(sum(map(abs, cs)) for _, cs in ts)
                for ts in terms.values())
    moves: dict[tuple, list] = {}
    for (k, w), ts in terms.items():
        total = sum(c << ((e - base) // 2 + i) * width
                    for e, cs in ts for i, c in enumerate(cs))
        if total:
            zeros = ((total & -total).bit_length() - 1) // width * width
            moves.setdefault(k, []).append((w, zeros, total >> zeros))
    return moves, base, bound


def state_sum(d: PlanarDiagram, N: int, turns: dict[int, int]) -> LaurentPoly:
    """J_K(N) from the state sum with the arcs' `turns`, by crossing-at-a-
    time contraction, run by `contract`."""
    entries = []
    widest = 0
    for idx, step in zip(*plan(d.crossings)):
        widest = max(widest, len(step.kept) + len(step.consumed))
        x, positive = d.crossings[idx], d.positive[idx]
        heads = tuple((leg, turns[x[leg]])
                      for leg in ((0, 3) if positive else (0, 1)))
        shape = (N, positive, tuple(step.consumed.values()), tuple(step.new),
                 tuple(step.joined.items()), heads)
        entries.append((getter(step.kept), getter(list(step.consumed)), shape))
    total = contract(entries, _digit_width(N, widest), "v", _step)
    framed = total * LaurentPoly.monomial("v", -d.writhe() * (N * N - 1))
    try:
        return framed.exact_div(_bracket_v(N)).shrink(4, "q")
    except InexactDivision:
        raise ArithmeticError("colored state sum not divisible by [N]")


def _digit_width(N: int, f: int) -> int:
    """Bits per digit to try first, with at most f arcs open at a step:
    headroom for the check at up to N^f states, each multiplied by an
    entry whose coefficients add up to at most M, and (f - 1)(N - 1) bits
    for the coefficients, at least `MIN_WIDTH`.  The allowance is
    measured, not proved: it covers the pretzel knots of 11-15 crossings
    up to N = 7, where the widest step has 6 open arcs."""
    M = max(sum(map(abs, cs)) for positive in (True, False)
            for _, _, cs in _r_table(N, positive))
    return max(MIN_WIDTH, (M * N ** f).bit_length() + (f - 1) * (N - 1))


def _step(entry: tuple, states: dict[tuple, int], width: int):
    """One crossing's step on states packed in v, None if `width` is too
    narrow, as `frontier.contract` runs it.

    A step multiplies by a packed entry of `_moves`, shifted left by whole
    digits, and adds the lowest exponent of v among its entries.  A state's
    coefficient receives at most one term from each old state, and a
    term's digits are below M T when the old digits are below T and the
    multiplier's coefficients add up to M in absolute value; so `fits`
    checks for M S terms, for S old states.
    """
    take, key, shape = entry
    moves, base, bound = _moves(width, *shape)
    if not fits(states.values(), width, bound * len(states)):
        return None
    new_states: dict[tuple, int] = {}
    for p, coeff in states.items():
        kept = take(p)
        for w, shift, mult in moves.get(key(p), ()):
            c = coeff << shift
            if mult != 1:
                c *= mult
            t = kept + w
            new_states[t] = new_states.get(t, 0) + c
    return new_states, base


# -- the cabling oracle -------------------------------------------------


def chebyshev_basis(n: int) -> dict[int, int]:
    """Coefficients {k: c_k} of e_n = sum c_k z^k."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev = {0: 1}
    if n == 0:
        return prev
    cur = {1: 1}
    for _ in range(n - 1):
        nxt: dict[int, int] = {}
        for k, c in cur.items():
            nxt[k + 1] = nxt.get(k + 1, 0) + c
        for k, c in prev.items():
            nxt[k] = nxt.get(k, 0) - c
        prev, cur = cur, {k: c for k, c in nxt.items() if c}
    return cur


def colored_jones_unnormalized(d: PlanarDiagram, N: int) -> LaurentPoly:
    """J'_K(N) in the variable a: bracket of the e_{N-1} cable, 0-framed."""
    _check_color(d, N)
    n = N - 1
    total = LaurentPoly.zero("A")
    for k, c in chebyshev_basis(n).items():
        if k == 0:
            br = LaurentPoly.one("A")  # the 0-parallel is the empty diagram
        else:
            br = kauffman_bracket(cable(d, k, 0))
        total = total + c * br
    # (-1)^n, times ((-1)^n A^(n^2+2n))^(-w) to undo the w full twists that
    # the blackboard framing puts on the e_n-colored band
    w = d.writhe()
    sign = -1 if n * (w + 1) % 2 else 1
    total = total * LaurentPoly.monomial("A", -w * (n * n + 2 * n), sign)
    # rewrite in a = A^2; the framing-corrected bracket of a knot's e_n
    # cable lies in the image of Z[a, a^-1]
    return total.shrink(2, "a")


def colored_jones_cabled(d: PlanarDiagram, N: int) -> LaurentPoly:
    """J_K(N) in q = a^2 by cabling, normalized so the unknot gives 1."""
    jp = colored_jones_unnormalized(d, N)
    try:
        val = jp.exact_div(qint(N))   # J'_unknot(N) = [N]
    except InexactDivision:
        raise ArithmeticError("colored bracket not divisible by [N]")
    return val.shrink(2, "q")
