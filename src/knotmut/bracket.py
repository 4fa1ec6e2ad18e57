"""Kauffman bracket and Jones polynomial.

Conventions: bracket values live in Z[A, A^-1]; each crossing expands as
A * (join legs 0-1 and 2-3) + A^-1 * (join legs 0-3 and 1-2), a closed
loop contributes delta = -A^2 - A^-2, and the bracket of the empty
diagram is 1 (so an unknot diagram evaluates to delta).

The Jones polynomial of an oriented diagram D with writhe w is
(-A^3)^(-w) <D> / delta, rewritten in t = A^-4.
"""

from __future__ import annotations

from .budget import Budget
from .diagram import PlanarDiagram, UnionFind
from .laurent import LaurentPoly

DELTA = LaurentPoly("A", {2: -1, -2: -1})


def _merge(pairing: dict[int, int], a: int, b: int) -> int:
    """Join endpoints a and b in an open-end pairing; return loops closed.

    `pairing` maps each open end to its partner along already-contracted
    strands.  Ends absent from the map are fresh.
    """
    pa = pairing.pop(a, None)
    pb = pairing.pop(b, None)
    if pa is None and pb is None:
        pairing[a] = b
        pairing[b] = a
        return 0
    if pa is None:
        pairing[a] = pb
        pairing[pb] = a
        return 0
    if pb is None:
        pairing[b] = pa
        pairing[pa] = b
        return 0
    if pa == b:
        # a and b were already partners: closing the loop
        return 1
    pairing[pa] = pb
    pairing[pb] = pa
    return 0


def kauffman_bracket(d: PlanarDiagram,
                     budget_seconds: float | None = None) -> LaurentPoly:
    """Bracket by crossing-at-a-time contraction with state merging.

    States are partial pairings of open arc-ends, keyed canonically so
    that equal boundary patterns share one accumulated coefficient.  The
    k-th endpoint (k = 0, 1) of an arc is the int 2*arc + k; a state's key
    is the flat tuple of its pairs (u, v), u < v, sorted by u, and its
    coefficient a {exponent: int} dict accumulated in place.  The deadline
    is checked once per crossing step.
    """
    crossings = list(d.crossings)
    # order crossings greedily to keep the open boundary small
    order = _contraction_order(crossings)

    # track how many endpoints of each arc remain unprocessed
    remaining: dict[int, int] = {}
    for x in crossings:
        for a in x:
            remaining[a] = remaining.get(a, 0) + 1
    seen: dict[int, int] = {}

    # delta^k for every loop count one crossing can close: two joins plus
    # one closed arc per leg
    delta_pow = [(DELTA**k).coeffs for k in range(7)]

    states: dict[tuple, dict[int, int]] = {(): {0: 1}}
    budget = Budget(budget_seconds, unit=f"of {len(order)} crossing steps",
                    progress=lambda: f"{len(states)} states")
    for idx in order:
        budget.tick()
        x = crossings[idx]
        toks = []
        for a in x:
            k = seen.get(a, 0)
            seen[a] = k + 1
            toks.append(2 * a + k)
        t0, t1, t2, t3 = toks
        closing = [2 * a for a in set(x) if seen[a] == remaining[a]]
        smoothings = ((1, t0, t1, t2, t3), (-1, t0, t3, t1, t2))
        new_states: dict[tuple, dict[int, int]] = {}
        for state, coeff in states.items():
            pairing = dict(zip(state[::2], state[1::2]))
            pairing.update(zip(state[1::2], state[::2]))
            for shift, i, j, k, l in smoothings:
                p = dict(pairing)
                loops = _merge(p, i, j) + _merge(p, k, l)
                # both endpoints of a finished arc exist now; the arc
                # itself joins them
                for end in closing:
                    loops += _merge(p, end, end + 1)
                flat = []
                for u in sorted(p):
                    v = p[u]
                    if u < v:
                        flat.append(u)
                        flat.append(v)
                key = tuple(flat)
                acc = new_states.get(key)
                if acc is None:
                    acc = new_states[key] = {}
                if loops:
                    dp = delta_pow[loops]
                    for e, c in coeff.items():
                        e += shift
                        for de, dc in dp.items():
                            acc[e + de] = acc.get(e + de, 0) + c * dc
                else:
                    for e, c in coeff.items():
                        e += shift
                        acc[e] = acc.get(e, 0) + c
        states = new_states

    total = states.pop((), None)
    if states or total is None:
        raise AssertionError("open ends remain after full contraction")
    return LaurentPoly("A", total) * DELTA ** d.free_loops


def _contraction_order(crossings: list) -> list[int]:
    """Greedy order keeping the set of open arcs small."""
    n = len(crossings)
    todo = set(range(n))
    open_arcs: set[int] = set()
    counts: dict[int, int] = {}
    for x in crossings:
        for a in x:
            counts[a] = counts.get(a, 0) + 1
    used: dict[int, int] = {a: 0 for a in counts}
    order = []
    while todo:
        best = None
        for i in todo:
            x = crossings[i]
            opens = 0
            closes = 0
            for a in set(x):
                mult = x.count(a)
                if used[a] + mult == counts[a]:
                    if a in open_arcs:
                        closes += 1
                else:
                    opens += 1
            score = opens - closes
            if best is None or score < best[0]:
                best = (score, i)
        _, i = best
        order.append(i)
        todo.discard(i)
        x = crossings[i]
        for a in set(x):
            used[a] += x.count(a)
            if used[a] == counts[a]:
                open_arcs.discard(a)
            else:
                open_arcs.add(a)
    return order


def bracket_state_sum(d: PlanarDiagram) -> LaurentPoly:
    """Independent 2^c state-sum bracket for cross-checking.

    Enumerates all smoothing states, counts loops with union-find, and
    sums A^(a-b) delta^loops.
    """
    crossings = list(d.crossings)
    n = len(crossings)
    total = LaurentPoly.zero("A")
    for mask in range(1 << n):
        uf = UnionFind()
        ends = []
        seen: dict[int, int] = {}
        for x in crossings:
            toks = []
            for a in x:
                k = seen.get(a, 0)
                seen[a] = k + 1
                toks.append((a, k))
            ends.append(toks)
        # arc interiors connect endpoint 0 to endpoint 1
        for a, cnt in seen.items():
            if cnt == 2:
                uf.union((a, 0), (a, 1))
            elif cnt != 2:
                raise ValueError(f"arc {a} has {cnt} endpoints")
        apow = 0
        for i in range(n):
            toks = ends[i]
            if mask & (1 << i):
                apow -= 1
                uf.union(toks[0], toks[3])
                uf.union(toks[1], toks[2])
            else:
                apow += 1
                uf.union(toks[0], toks[1])
                uf.union(toks[2], toks[3])
        roots = {uf.find(t) for toks in ends for t in toks}
        loops = len(roots)
        term = LaurentPoly.monomial("A", apow)
        for _ in range(loops):
            term = term * DELTA
        total = total + term
    if n == 0:
        total = LaurentPoly.one("A")
    for _ in range(d.free_loops):
        total = total * DELTA
    return total


def jones(d: PlanarDiagram, budget_seconds: float | None = None) -> LaurentPoly:
    """Jones polynomial in t (integer powers only for knots)."""
    w = d.writhe()
    br = kauffman_bracket(d, budget_seconds).exact_div(DELTA)
    # multiply by (-A^3)^(-w)
    sign = 1 if w % 2 == 0 else -1
    shifted = LaurentPoly("A", {e - 3 * w: sign * c for e, c in br.coeffs.items()})
    # t = A^-4
    return shifted.invert_var().shrink(4, "t")
