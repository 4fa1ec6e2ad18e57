"""Two-string tangles and Conway mutation.

A tangle is a diagram fragment with four boundary ends labeled by the
corners NW, NE, SW, SE.  Crossings are stored as raw tuples (legs
counterclockwise, under-strand on the (0, 2) diagonal, directions not
yet chosen); orientations are solved globally only after gluing, since
mutation may reverse the strings of the inner tangle.

Mutation rotates the inner tangle by pi about one of three axes:

  * perpendicular (axis through the plane): corners NW<->SE, NE<->SW;
    the rotation is orientation-preserving on the plane, so crossing
    tuples are unchanged.
  * horizontal (axis in the plane, west-east): corners NW<->SW, NE<->SE;
    the tangle is also reflected, which reverses the counterclockwise
    leg order and swaps over and under.  Both effects together reverse
    each raw tuple.
  * vertical (axis in the plane, south-north): corners NW<->NE, SW<->SE;
    same reversal of each raw tuple.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .diagram import (Crossing, PlanarDiagram, UnionFind, _other_ends,
                      orient_raw, relabel)

CORNERS = ("NW", "NE", "SW", "SE")

AXES = ("horizontal", "vertical", "perpendicular")

_CORNER_MAPS = {
    "perpendicular": {"NW": "SE", "SE": "NW", "NE": "SW", "SW": "NE"},
    "horizontal": {"NW": "SW", "SW": "NW", "NE": "SE", "SE": "NE"},
    "vertical": {"NW": "NE", "NE": "NW", "SW": "SE", "SE": "SW"},
}


@dataclass(frozen=True)
class Tangle:
    """Raw crossings plus the four boundary arc labels (two strings)."""

    crossings: tuple[Crossing, ...]
    boundary: dict[str, int] = field(hash=False)

    def __post_init__(self):
        if set(self.boundary) != set(CORNERS):
            raise ValueError("boundary must label exactly NW, NE, SW, SE")
        # the four boundary ends count as the legs of one more crossing
        _other_ends((*self.crossings,
                     tuple(self.boundary[c] for c in CORNERS)))

    @property
    def arcs(self) -> set[int]:
        out = {a for x in self.crossings for a in x}
        out.update(self.boundary.values())
        return out


def rotate_tangle(t: Tangle, axis: str) -> Tangle:
    """Rotate a tangle by pi about the given axis."""
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}")
    cmap = _CORNER_MAPS[axis]
    boundary = {cmap[c]: t.boundary[c] for c in CORNERS}
    if axis == "perpendicular":
        crossings = t.crossings
    else:
        # reflection reverses the CCW leg order; the over/under swap that
        # comes with flipping through the plane rotates the diagonal back,
        # so the combined effect is plain tuple reversal
        crossings = tuple(tuple(reversed(x)) for x in t.crossings)
    return Tangle(crossings, boundary)


# seen from the complementary disk, the boundary circle is traversed the
# other way round, so gluing mirrors the corner labels left-to-right
_GLUE_FLIP = {"NW": "NE", "NE": "NW", "SW": "SE", "SE": "SW"}


@dataclass(frozen=True)
class TangleDecomposition:
    """An outer and an inner tangle glued corner-to-corner."""

    outer: Tangle
    inner: Tangle

    def glue(self, name: str = "") -> PlanarDiagram:
        # the inner tangle's arcs are renamed past the outer's
        shift = max(self.outer.arcs) + 1
        uf = UnionFind()
        for c in CORNERS:
            uf.union(self.inner.boundary[c] + shift,
                     self.outer.boundary[_GLUE_FLIP[c]])
        raw = [tuple(map(uf.find, x)) for x in self.outer.crossings]
        raw += [tuple(uf.find(a + shift) for a in x)
                for x in self.inner.crossings]
        used = {a for x in raw for a in x}
        loop_classes = {uf.find(self.outer.boundary[c]) for c in CORNERS}
        free_loops = sum(1 for r in loop_classes if r not in used)
        return relabel(orient_raw(raw, free_loops, name))


def mutate(td: TangleDecomposition, axis: str) -> PlanarDiagram:
    """The mutant of `td`'s glued diagram about `axis`.

    It has as many components as the original (Conway, 1970): each
    rotation maps each corner pairing, {NW-NE, SW-SE}, {NW-SW, NE-SE}
    and {NW-SE, NE-SW}, to itself, so the rotated inner strings join the
    same pairs of corners as before, and a closed loop inside the tangle
    turns with it.
    """
    return TangleDecomposition(td.outer, rotate_tangle(td.inner, axis)).glue()


# -- generators for property tests --------------------------------------


def rational_tangle(twists: list[int]) -> Tangle:
    """Build a tangle from an alternating twist sequence.

    Entries act alternately on the bottom pair (SW, SE) and the right
    pair (NE, SE) of ends, |k| crossings each, sign giving the diagonal
    choice.  Starts from the 0-tangle (two horizontal strings).
    """
    nxt = 0

    def fresh() -> int:
        nonlocal nxt
        nxt += 1
        return nxt - 1

    top, bot = fresh(), fresh()
    b = {"NW": top, "NE": top, "SW": bot, "SE": bot}
    crossings: list[Crossing] = []
    for pos, k in enumerate(twists):
        for _ in range(abs(k)):
            if pos % 2 == 0:
                # twist the bottom ends: crossing legs NW=old SW,
                # NE=old SE, SE/SW=new ends; CCW from the new SW leg
                nsw, nse = fresh(), fresh()
                if k > 0:
                    crossings.append((nsw, nse, b["SE"], b["SW"]))
                else:
                    crossings.append((nse, b["SE"], b["SW"], nsw))
                b["SW"], b["SE"] = nsw, nse
            else:
                # twist the right ends: crossing legs NW=old NE,
                # SW=old SE, NE/SE=new ends; CCW from the SW leg
                nne, nse = fresh(), fresh()
                if k > 0:
                    crossings.append((b["SE"], nse, nne, b["NE"]))
                else:
                    crossings.append((nse, nne, b["NE"], b["SE"]))
                b["NE"], b["SE"] = nne, nse
    return Tangle(tuple(crossings), b)


def tangle_sum(t1: Tangle, t2: Tangle) -> Tangle:
    """Horizontal sum: t1's east ends join t2's west ends."""
    # t2's arcs are renamed past t1's, and its west ends become t1's east
    shift = max(t1.arcs) + 1
    ident = {t2.boundary["NW"] + shift: t1.boundary["NE"],
             t2.boundary["SW"] + shift: t1.boundary["SE"]}

    def rename(a: int) -> int:
        return ident.get(a + shift, a + shift)

    crossings = t1.crossings + tuple(tuple(map(rename, x))
                                     for x in t2.crossings)
    boundary = {"NW": t1.boundary["NW"], "SW": t1.boundary["SW"],
                "NE": rename(t2.boundary["NE"]),
                "SE": rename(t2.boundary["SE"])}
    return Tangle(crossings, boundary)


def random_decomposition(rng: random.Random, max_crossings: int = 12,
                         require_knot: bool = True) -> TangleDecomposition:
    """Random decomposition whose glued diagram is a knot."""
    for _ in range(200):
        budget = rng.randint(3, max_crossings)
        n_inner = rng.randint(2, max(2, budget - 1))
        n_outer = budget - n_inner

        def rand_twists(total: int) -> list[int]:
            out = []
            while total > 0:
                k = rng.randint(1, total)
                out.append(k if rng.random() < 0.5 else -k)
                total -= k
            return out

        if n_inner >= 2 and rng.random() < 0.6:
            a = n_inner // 2
            inner = tangle_sum(rational_tangle(rand_twists(a)),
                               rational_tangle(rand_twists(n_inner - a)))
        else:
            inner = rational_tangle(rand_twists(n_inner))
        outer_raw = rational_tangle(rand_twists(n_outer))
        # close the outer tangle around the inner one: the outer's ends
        # are the complement's ends seen from outside
        td = TangleDecomposition(outer_raw, inner)
        d = td.glue()
        if not require_knot or d.component_count() == 1:
            if d.crossings:
                return td
    raise RuntimeError("failed to generate a knot decomposition")
