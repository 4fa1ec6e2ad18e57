"""Satellite diagrams: parallel cables and Whitehead doubles.

Cabling replaces every arc by n parallel copies in the blackboard
framing and every crossing by an n-by-n grid of crossings.  Copy 0 of an
arc is the leftmost copy when facing along the arc's direction; this
convention is intrinsic to the arc and therefore globally consistent.

Extra half-twists (and the Whitehead clasp) are spliced into the cable
of one chosen arc of the companion.
"""

from __future__ import annotations

import itertools

from .diagram import (BraidWord, Crossing, PlanarDiagram, _braid_crossings,
                      _carry, _reroute_heads, braid_closure, orient_raw,
                      relabel)


def _half_twists(n: int, t: int) -> tuple[int, ...]:
    """t signed half twists on n strands, each (s1)(s2 s1)...(s_{n-1}..s1)."""
    half = [k for m in range(1, n) for k in range(m, 0, -1)]
    return tuple(k if t > 0 else -k for _ in range(abs(t)) for k in half)


def cable(d: PlanarDiagram, n: int, extra_half_twists: int = 0) -> PlanarDiagram:
    """Blackboard-framed n-parallel of d with spliced half-twists."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return _carry(d.crossings, d, d.name, d.positive, d.braid)
    word = _half_twists(n, extra_half_twists)
    name = f"{d.name}-cable{n}" if d.name else ""
    if not d.crossings:
        # crossingless companion: the cable is a twisted braid closure
        if d.free_loops < 1:
            raise ValueError("empty diagram")
        out = braid_closure(BraidWord(n, word))
        return PlanarDiagram(out.crossings,
                             out.free_loops + (d.free_loops - 1) * n, name)

    fresh = itertools.count().__next__
    copy_id: dict[tuple[int, int], int] = {}
    for a in sorted(d.arcs):
        for i in range(n):
            copy_id[(a, i)] = fresh()

    out: list[Crossing] = []
    for (a, b, c, dd), pos in zip(d.crossings, d.positive):
        # local frame: under vertical northbound (a=S in, c=N out),
        # b=E, d=W; under copy i runs along the vertical line x=i
        v = [[None] * (n + 1) for _ in range(n)]
        h = [[None] * (n + 1) for _ in range(n)]
        for i in range(n):
            v[i][0] = copy_id[(a, i)]
            v[i][n] = copy_id[(c, i)]
            for k in range(1, n):
                v[i][k] = fresh()
        for k in range(n):
            # over copy j is leftmost facing along the over direction
            j = n - 1 - k if pos else k
            h[k][0] = copy_id[(dd, j)]
            h[k][n] = copy_id[(b, j)]
            for i in range(1, n):
                h[k][i] = fresh()
        for i in range(n):
            for k in range(n):
                out.append((v[i][k], h[k][i + 1], v[i][k + 1], h[k][i]))

    cabled = PlanarDiagram(out, d.free_loops * n, name)
    if not word:
        return cabled
    # splice the braid into the copies of the lowest companion arc: strand
    # position i is copy i, and the braid reads along the arc; its tops
    # run into the old heads of those copies
    bundle = [copy_id[(min(d.arcs), i)] for i in range(n)]
    cur = list(bundle)
    braid = _braid_crossings(word, cur, cabled.fresh_arc_start())
    return PlanarDiagram(_reroute_heads(cabled, dict(zip(bundle, cur))) + braid,
                         cabled.free_loops, name)


def whitehead_double(d: PlanarDiagram, framing: int | None = None,
                     clasp: int = 1) -> PlanarDiagram:
    """Doubled knot: 2-parallel with twists and a clasped turnback.

    `framing` counts signed full twists added between the two strands;
    the default, None, is -w for a diagram of writhe w, which gives the
    0-framed double.  `clasp` (+1 or -1) is the sign of the two clasp
    crossings.

    The 2-cable is cut at the heads of copies 0 and 1 of one companion
    arc, leaving ends b1, b2 below and t1, t2 above.  The splice stacks,
    bottom to top: 2|framing| half twists on b1, b2, then a turnback arch
    from the left twist-top over to the right one, hooked through the
    continuation t1 -> t2 by two crossings (the clasp).  Each new
    crossing's under-strand is picked by the requested sign.
    """
    if clasp not in (1, -1):
        raise ValueError("clasp must be +1 or -1")
    if d.component_count() != 1:
        raise ValueError("companion must be a knot")
    if framing is None:
        framing = -d.writhe()
    b1, b2 = 0, 1  # cable() numbers the copies of the lowest arc first
    if d.crossings:
        base = cable(d, 2, 0)
        t1, t2 = base.fresh_arc_start(), base.fresh_arc_start() + 1
        raw = _reroute_heads(base, {b1: t1, b2: t2})
    else:
        # crossingless companion: the bundle closes on itself, so the top
        # ends are the bottom ends
        t1, t2 = b1, b2
        raw = []
    # the arch runs left -> u -> right, the continuation t1 -> n -> t2
    u, n = t2 + 1, t2 + 2
    # twist region: the doubled strands are antiparallel, so a
    # right-handed band twist appears as two negative crossings
    cur = [b1, b2]
    raw += _braid_crossings(_half_twists(2, 2 * framing), cur, t2 + 3)
    # clasp: X1 on the left legs, X2 on the right legs
    left, right = cur
    if clasp > 0:
        raw += [(n, u, t1, left), (right, t2, u, n)]  # continuation under at X1
    else:
        raw += [(u, t1, left, n), (t2, u, n, right)]  # arch under at X1
    out = relabel(orient_raw(raw, 0, f"{d.name}-double" if d.name else ""))
    signs = (framing < 0,) * 2 * abs(framing) + (clasp > 0,) * 2
    if out.positive[-len(signs):] != signs:
        raise AssertionError("could not realize requested twist/clasp signs")
    return out
