"""Satellite diagrams: parallel cables and Whitehead doubles.

Cabling replaces every arc by n parallel copies in the blackboard
framing and every crossing by an n-by-n grid of crossings.  Copy 0 of an
arc is the leftmost copy when facing along the arc's direction; this
convention is intrinsic to the arc and therefore globally consistent.

Extra half-twists (and the Whitehead clasp) are spliced into the cable
of one chosen arc of the companion.
"""

from __future__ import annotations

from .diagram import (BraidWord, Crossing, PlanarDiagram, _braid_crossings,
                      _head_position, braid_closure, orient_raw, relabel)


def _half_twists(n: int, t: int) -> tuple[int, ...]:
    """t signed half twists on n strands, each (s1)(s2 s1)...(s_{n-1}..s1)."""
    half = [k for m in range(1, n) for k in range(m, 0, -1)]
    return tuple(k if t > 0 else -k for _ in range(abs(t)) for k in half)


def cable(d: PlanarDiagram, n: int, extra_half_twists: int = 0) -> PlanarDiagram:
    """Blackboard-framed n-parallel of d with spliced half-twists."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return d
    word = _half_twists(n, extra_half_twists)
    name = f"{d.name}-cable{n}" if d.name else ""
    if not d.crossings:
        # crossingless companion: the cable is a twisted braid closure
        if d.free_loops < 1:
            raise ValueError("empty diagram")
        out = braid_closure(BraidWord(n, word))
        return PlanarDiagram(out.crossings,
                             out.free_loops + (d.free_loops - 1) * n, name)

    next_id = 0

    def fresh() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

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
    bundle = min(d.arcs)
    return _splice_braid(cabled, [copy_id[(bundle, i)] for i in range(n)], word)


def _splice_braid(d: PlanarDiagram, bundle: list[int],
                  word: tuple[int, ...]) -> PlanarDiagram:
    """Cut the parallel arcs `bundle` and splice in a braid on them.

    Strand position i of the braid is copy i of the bundle (leftmost
    facing along the bundle direction); the braid reads bottom-up along
    that direction.
    """
    if not word:
        return d
    heads = {a: _head_position(d, a) for a in bundle}
    cur = list(bundle)
    crossings = list(d.crossings) + _braid_crossings(word, cur,
                                                     d.fresh_arc_start())
    # reconnect braid tops to the original heads of the bundle arcs
    for i, a in enumerate(bundle):
        if cur[i] == a:
            continue
        ci, leg = heads[a]
        x = list(crossings[ci])
        x[leg] = cur[i]
        crossings[ci] = tuple(x)
    return PlanarDiagram(crossings, d.free_loops, d.name)


def whitehead_double(d: PlanarDiagram, framing: int = 0,
                     clasp: int = 1) -> PlanarDiagram:
    """Doubled knot: 2-parallel with twists and a clasped turnback.

    `framing` counts signed full twists added between the two strands;
    `clasp` (+1 or -1) is the sign of the two clasp crossings.  The
    0-framed double of a diagram with writhe w needs framing = -w.
    """
    if clasp not in (1, -1):
        raise ValueError("clasp must be +1 or -1")
    if d.component_count() != 1:
        raise ValueError("companion must be a knot")
    if not d.crossings:
        base = None  # doubled unknot: build the tangle closed on itself
    else:
        base = cable(d, 2, 0)

    for twist_flip in (False, True):
        for clasp_flip in (False, True):
            cand = _build_double(base, framing, twist_flip, clasp_flip, d.name)
            tw_ok = True
            if framing:
                # the doubled strands are antiparallel, so a right-handed
                # band twist appears as two negative crossings
                tw_ok = cand.positive[-2 * abs(framing) - 2] != (framing > 0)
            if tw_ok and cand.positive[-1] == (clasp > 0):
                return cand
    raise AssertionError("could not realize requested twist/clasp signs")


def _build_double(base: PlanarDiagram | None, framing: int, twist_flip: bool,
                  clasp_flip: bool, name: str) -> PlanarDiagram:
    """Assemble one sign-candidate of the double and orient it.

    The cut bundle has ends b1 (copy 0) and b2 (copy 1) below and t1, t2
    above.  The splice stacks, bottom to top: 2|framing| half-twist
    crossings, then a turnback arch u from the left twist-top over to
    the right twist-top, hooked through the continuing strands n with
    two alternating crossings (the clasp).
    """
    nxt = 0
    raw: list[Crossing] = []
    loops = 0
    if base is None:
        # 0-crossing unknot companion: the bundle closes on itself, so
        # the top ends are the bottom ends
        b1, b2 = 0, 1
        t1, t2 = b1, b2
        nxt = 2
    else:
        nxt = base.fresh_arc_start()
        b1, b2 = 0, 1  # cable() numbers the copies of companion arc 0 first
        h1 = _head_position(base, b1)
        h2 = _head_position(base, b2)
        t1, t2 = nxt, nxt + 1
        nxt += 2
        for i, x in enumerate(base.crossings):
            y = list(x)
            if i == h1[0]:
                y[h1[1]] = t1
            if i == h2[0]:
                y[h2[1]] = t2
            raw.append(tuple(y))
        loops = base.free_loops

    def fresh() -> int:
        nonlocal nxt
        nxt += 1
        return nxt - 1

    # twist region: 2|framing| half-twist crossings on the two strands
    curL, curR = b1, b2
    for _ in range(2 * abs(framing)):
        newL, newR = fresh(), fresh()
        # legs: SW=curL, SE=curR, NE=newR, NW=newL; CCW = (SW, SE, NE, NW)
        if twist_flip:
            raw.append((curR, newR, newL, curL))  # under on the SE-NW diagonal
        else:
            raw.append((curL, curR, newR, newL))  # under on the SW-NE diagonal
        curL, curR = newL, newR

    # clasp: X1 on the left legs, X2 on the right legs; the arch runs
    # curL -> u2 -> curR, the continuation runs t1 -> n2 -> t2
    u2, n2 = fresh(), fresh()
    if clasp_flip:
        x1 = (u2, t1, curL, n2)    # arch under at X1
        x2 = (t2, u2, n2, curR)    # continuation under at X2
    else:
        x1 = (n2, u2, t1, curL)    # continuation under at X1
        x2 = (curR, t2, u2, n2)    # arch under at X2
    raw.append(x1)
    raw.append(x2)
    out = orient_raw(raw, loops, f"{name}-double" if name else "")
    return relabel(out)
