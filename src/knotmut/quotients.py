"""Epimorphisms onto finite groups and their kernel abelianizations.

Epimorphisms G -> Gamma are counted up to equality of kernels (two
surjections have the same kernel exactly when they differ by an
automorphism of Gamma, so this matches counting up to Aut(Gamma)).
The count for a fixed target is written delta_Gamma.

The search assigns generator images one generator at a time (Holt, Eick
and O'Brien, Handbook of Computational Group Theory, 2005, ch. 9):

  * Order.  Generators are searched in an order that closes relators
    early: the open relator that needs the fewest generators not yet
    placed (the shortest among ties) has those placed next, and so on.
    A relator is checked as soon as its last generator has an image, by
    tracing every point of the permutation degree through its letters;
    no product is built.
  * Symmetry.  Images are taken up to simultaneous conjugation by the
    target together with its normalizing permutations (Sym(n) for
    Alt(n), PGL(2, q) for PSL(2, q)), which preserves kernels: the first
    image ranges over the classes under that conjugation, the second
    over one representative per orbit of the first image's centralizer,
    and the rest over all of Gamma.
  * Lanes.  At a level whose candidates are all of Gamma and at which a
    relator closes, every candidate is traced at once, one byte lane per
    element of Gamma in a Python int (targets of more than 16 elements
    on at most 256 points).  The relators closing there are traced
    shortest first, from one start point after another, until at most
    `_FEW_LANES` lanes survive; a run of known images only reindexes the
    per-point columns of images (`PermGroup.lane_columns`), and the
    level's own letter is a multiplexer over the bits of each lane's
    point.  The survivors, in sorted order, go through the same
    per-candidate check as every other candidate, so the accepted images
    and their order do not depend on the lanes.
  * Acceptance.  At each complete assignment the images must act
    transitively on the points, and when the target declares
    `automorphisms_induced` they are keyed by that action alone: the
    least breadth-first relabelling of the points over every start
    point (n^2 k steps for n points and k generators).  Two surjections
    have the same kernel exactly when they differ by an automorphism of
    the target, which for such a target is conjugation by a point
    permutation, and so exactly when their keys agree.  The readings
    start only at the points of one class of the images above the last
    level (`_key_starts`: equal cycle lengths under each), which
    conjugation carries onto the class of a conjugate tuple, so the key
    stays complete.  A key met before is skipped, whether it was
    accepted or rejected; a new one is tested for surjectivity on a
    `StabilizerChain`.  The candidates of the last level share the
    images above it, whose chain is built once, for the first of them
    to be tested, and stops as soon as the product of its orbit lengths,
    a lower bound on the order, reaches the target's order: then every
    new key under it is accepted with no test; otherwise each test
    extends a copy of it by the last image.  Any other target (Alt(6),
    Sym(6), dihedral groups of even degree) falls back to one
    breadth-first search of the regular action per assignment.

Before any search, a presentation whose H1 is finite of an order that
|Gamma^ab| does not divide has no epimorphism onto Gamma, since an
epimorphism induces one of abelianizations: this settles every target
with an even-order abelianization (Sym(n), odd dihedral, even cyclic) on
the double branched cover of a knot, whose H1 has odd order.

The order of the returned homomorphisms is not part of the contract.

The kernel of an epimorphism is the stabilizer of the identity in the
action of G on Gamma by right translation.  The breadth-first regular
table that the fallback acceptance builds is that action's coset table
in the one format of `presentations` (row i lists the image of element
i under each generator), so it goes straight to
`abelianized_schreier_rows`, whose exponent sums are counted in one
walk of the relators: no rewritten word is built.

`Cover` holds one knot's double branched cover and runs the searches on
it that `report` and the CLI's `cover` commands read.
"""

from __future__ import annotations

import math
from functools import cached_property

from .budget import MAX_IMAGES, Budget
from .diagram import PlanarDiagram
from .frontier import getter
from .matrices import abelian_invariants
from .permgroups import Perm, PermGroup, StabilizerChain, identity
from .presentations import (GroupPresentation, abelianized_schreier_rows,
                            branched_cover_from_meridians, knot_group,
                            low_index_subgroups, subgroup_abelianization,
                            tietze_simplify, wirtinger_presentation)

# the lane pass hands at most this many survivors to the per-candidate
# check, and a target of at most this many elements is left to that check
_FEW_LANES = 16


def _search_order(g: GroupPresentation) -> list[int]:
    """The generators in search order, so that relators close early.

    Repeatedly the open relator that needs the fewest generators not yet
    placed, the shortest among ties, has its missing generators placed
    in increasing order; generators in no relator come last.
    """
    needs = [{abs(x) for x in r} for r in sorted(g.relators, key=len)]
    order: list[int] = []
    while needs:
        missing = min((s.difference(order) for s in needs), key=len)
        order.extend(sorted(missing))
        needs = [s for s in needs if not s.issubset(order)]
    return order + [x for x in range(1, g.ngens + 1) if x not in order]


def _holds(perms: list[Perm], points: range) -> bool:
    """Whether the product of `perms` fixes every point."""
    for x in points:
        y = x
        for p in perms:
            y = p[y]
        if y != x:
            return False
    return True


def _lane_plan(code: list[int], k: int) -> list[tuple[bool, list[int]]]:
    """A relator closing at level k, as the lane pass traces it.

    The slot code is rotated to start at the level's first letter and
    cut at each of the level's letters: one (inverse, run) pair per such
    letter, the run being the slots of known images that follow it.
    """
    start = next(i for i, s in enumerate(code) if s >> 1 == k)
    code = code[start:] + code[:start]
    plan: list[tuple[bool, list[int]]] = []
    for s in code:
        if s >> 1 == k:
            plan.append((bool(s & 1), []))
        else:
            plan[-1][1].append(s)
    return plan


def _lane_filter(columns: tuple[list[int], list[int]], npoints: int,
                 width: int):
    """The lane pass over every element of a target on `npoints` points,
    `width` elements in all, with `columns` its `lane_columns`.

    Returns `survivors(plans, slots)`: the indices of the elements that,
    as the image at the planned level, pass the planned relators at
    every start point traced.  Byte lane i of an int carries the point
    reached under the i-th element, read before the run of known images
    that follows its letter.  The next letter gathers, lane by lane, the
    image of that point under the run and then under the lane's element:
    a multiplexer over the bits of the points picks from the columns,
    reindexed by the run.  The relators are traced shortest first, each
    from one start point after another, until at most `_FEW_LANES` lanes
    survive or every relator is traced from every point.
    """
    ones = int.from_bytes(b"\x01" * width, "little")
    low7 = 0x7F * ones
    value = [v * ones for v in range(npoints)]
    bits = (npoints - 1).bit_length()
    pad = [0] * ((1 << bits) - npoints)

    def gather(lanes: int, column: list[int]) -> int:
        for j in range(bits):
            mask = ((lanes >> j) & ones) * 0xFF
            column = [lo ^ ((lo ^ hi) & mask)
                      for lo, hi in zip(column[0::2], column[1::2])]
        return column[0]

    def survivors(plans: list[list[tuple[bool, list[int]]]],
                  slots: list[Perm]) -> list[int]:
        alive = 0x80 * ones
        for plan in plans:
            runs = []
            for _, run in plan:
                ys = range(npoints)
                for s in run:
                    ys = tuple(map(slots[s].__getitem__, ys))
                runs.append(ys)
            gathers = [[columns[inverse][y] for y in run] + pad
                       for (inverse, _), run in zip(plan[1:], runs)]
            first = columns[plan[0][0]]
            back = [0] * npoints
            for u, y in enumerate(runs[-1]):
                back[y] = u
            for x in range(npoints):
                lanes = first[x]
                for column in gathers:
                    lanes = gather(lanes, column)
                # clear bit 7 of each lane not back at x
                d = lanes ^ value[back[x]]
                alive &= ~(((d & low7) + low7) | d)
                if alive.bit_count() <= _FEW_LANES:
                    return _live_lanes(alive, width)
        return _live_lanes(alive, width)

    return survivors


def _live_lanes(alive: int, width: int) -> list[int]:
    """The indices of the lanes of `alive` with bit 7 set, in order."""
    lanes = alive.to_bytes(width, "little")
    out = []
    i = lanes.find(0x80)
    while i >= 0:
        out.append(i)
        i = lanes.find(0x80, i + 1)
    return out


def _point_key(images: list[Perm], points: range,
               starts: list[int] | None = None) -> tuple[int, ...] | None:
    """The least BFS relabelling of the images' action on the points.

    Each start point labels the points in breadth-first order along the
    images and reads the action off row by row; the key is the least of
    these readings, so two tuples of images share it exactly when they
    are conjugate in Sym(n).  None when the action is not transitive.
    The readings start at every point, or only at `starts` when given:
    the key stays complete as long as conjugating the images by a point
    permutation carries the starts onto those chosen for the conjugate
    tuple, as for `_key_starts` of the same leading images.
    """
    best = None
    for start in points if starts is None else starts:
        label = [-1] * len(points)
        label[start] = 0
        order = [start]
        key = []
        for c in order:
            for p in images:
                d = p[c]
                if label[d] < 0:
                    label[d] = len(order)
                    order.append(d)
                key.append(label[d])
        if len(order) < len(points):
            return None
        key = tuple(key)
        if best is None or key < best:
            best = key
    return best


def _key_starts(images: list[Perm], points: range) -> list[int]:
    """Of the classes of points with the same cycle length under each of
    `images`, the one with fewest points, the least lengths among ties.

    Conjugating the images by a point permutation carries each class
    onto the class of the same lengths, so it carries this one onto the
    conjugate tuple's.
    """
    lengths: list[tuple[int, ...]] = [()] * len(points)
    for p in images:
        cycle_length = [0] * len(points)
        for x in points:
            if not cycle_length[x]:
                cycle = [x]
                y = p[x]
                while y != x:
                    cycle.append(y)
                    y = p[y]
                for y in cycle:
                    cycle_length[y] = len(cycle)
        lengths = [t + (c,) for t, c in zip(lengths, cycle_length)]
    classes: dict[tuple[int, ...], list[int]] = {}
    for x in points:
        classes.setdefault(lengths[x], []).append(x)
    return min(classes.items(), key=lambda c: (len(c[1]), c[0]))[1]


def _regular_table(images: list[Perm], e: Perm) -> tuple[tuple[int, ...], ...]:
    """Coset table of the image's regular action, labelled in BFS order.

    Row i lists where each image sends element i under right
    multiplication; the identity is row 0.  Its length is the order of
    the image, and two homomorphisms from the same presentation have
    equal kernels exactly when the tables agree: this is the acceptance
    test for targets that do not declare `automorphisms_induced`, and
    the coset table of the kernel in `kernel_abelianization`.  It costs
    a search over every element of the image.
    """
    label = {e: 0}
    order = [e]
    rows = []
    for h in order:
        row = []
        compose = getter(h)  # p -> the tuple of p[h[x]]
        for q in map(compose, images):
            i = label.get(q)
            if i is None:
                i = label[q] = len(order)
                order.append(q)
            row.append(i)
        rows.append(tuple(row))
    return tuple(rows)


def epimorphisms(g: GroupPresentation, group: PermGroup,
                 simplify: bool = True, max_nodes: int = MAX_IMAGES
                 ) -> list[list[Perm]]:
    """One representative hom per kernel of a surjection onto `group`.

    Each hom is the list of its generator images.  With `simplify=True`
    the search runs on `tietze_simplify(g)`, and the images are on that
    presentation's generators, not on `g`'s.  The order of the returned
    homs is not specified.  Raises `ResourceLimitExceeded` once
    `max_nodes` candidate images are tried or the enclosing `time_limit`
    has run out.  A lane pass counts all |Gamma| candidate images of its
    level as one batch, which raises before it starts if it would pass
    `max_nodes`; so a finished search counts as many as one image at a
    time would, and a stopped one may stop up to |Gamma| images early.  A presentation whose finite H1 rules the
    target out returns [] with no candidate tried.
    """
    pres = tietze_simplify(g) if simplify else g
    if pres.ngens == 0:
        return [] if group.order > 1 else [[]]
    found: dict[tuple, list[Perm]] = {}
    budget = Budget(max_nodes, "candidate images",
                    lambda: f"{len(found)} kernels found")
    # an epimorphism maps H1 onto the target's abelianization
    if group.abelianization_order > 1:
        h1 = pres.abelian_invariants()
        if 0 not in h1 and math.prod(h1) % group.abelianization_order:
            return []
    elems, inv = group.sorted_elements, group.inverse
    e = identity(group.degree)
    points = range(group.degree)
    ngens = pres.ngens
    # generator x is searched at level[x]; slot 2k holds the image of the
    # generator at level k and slot 2k+1 its inverse.  A relator is
    # checked as soon as its last generator has an image.
    level = {x: k for k, x in enumerate(_search_order(pres))}
    checks: list[list[list[int]]] = [[] for _ in range(ngens)]
    for r in sorted(pres.relators, key=len):
        if r:
            checks[max(level[abs(x)] for x in r)].append(
                [2 * level[abs(x)] + (x < 0) for x in r])
    # from level 2 on every element is a candidate: where relators close
    # they filter them all at once in byte lanes
    columns = group.lane_columns \
        if ngens > 2 and len(elems) > _FEW_LANES else None
    plans = [[_lane_plan(code, k) for code in rels] if columns and k >= 2
             else [] for k, rels in enumerate(checks)]
    survivors = _lane_filter(columns, group.degree, len(elems)) \
        if any(plans) else None
    image_slots = [2 * level[x] for x in range(1, ngens + 1)]
    slots: list[Perm] = [e] * (2 * ngens)
    rejected: set[tuple] = set()
    keyed = group.automorphisms_induced
    # the images above the last level are shared by its candidates: the
    # start points of their keys and the chain of the group they
    # generate are found for the first leaf under them that needs them
    prefix_starts: list[int] | None = None
    prefix_chain: StabilizerChain | None = None

    def choices(k: int) -> list[Perm]:
        # images up to simultaneous conjugation by the target and its
        # normalizing permutations, which keeps the kernel
        if k == 0:
            return group.conjugation_orbit_reps()
        if k == 1:
            return group.conjugation_orbit_reps(slots[0])
        return elems

    def assign(k: int) -> None:
        nonlocal prefix_starts, prefix_chain
        if k == ngens:
            images = slots[0::2]
            if not keyed:
                table = _regular_table(images, e)
                if len(table) == group.order and table not in found:
                    found[table] = [slots[s] for s in image_slots]
                return
            if prefix_starts is None:
                prefix_starts = _key_starts(images[:-1], points)
            key = _point_key(images, points, prefix_starts)
            if key is None or key in found or key in rejected:
                return
            if prefix_chain is None:
                prefix_chain = StabilizerChain(group.degree)
                for p in images[:-1]:
                    prefix_chain.extend(p, group.order)
            chain = prefix_chain
            if chain.order() < group.order:
                chain = chain.copy()
                chain.extend(images[-1], group.order)
            if chain.order() >= group.order:
                found[key] = [slots[s] for s in image_slots]
            else:
                rejected.add(key)
            return
        if k == ngens - 1:
            prefix_starts = prefix_chain = None
        rels = checks[k]
        lane_plans = plans[k]
        if lane_plans:
            budget.tick_batch(len(elems))
            candidates = [elems[i] for i in survivors(lane_plans, slots)]
        else:
            candidates = choices(k)
        for p in candidates:
            if not lane_plans:
                budget.tick()
            slots[2 * k] = p
            slots[2 * k + 1] = inv[p]
            for code in rels:
                if not _holds([slots[s] for s in code], points):
                    break
            else:
                assign(k + 1)

    assign(0)
    return list(found.values())


def kernel_abelianization(g: GroupPresentation, images: list[Perm],
                          group: PermGroup) -> list[int]:
    """Abelian invariants of the kernel of the hom sending x_i to images[i].

    The hom must be given on the generators of `g` itself (no Tietze
    simplification is applied here), one image in `group` per generator,
    must satisfy the relators of `g` and must be onto `group`: raises
    ValueError otherwise.
    """
    if len(images) != g.ngens:
        raise ValueError(f"{len(images)} images given for a presentation "
                         f"on {g.ngens} generators")
    if not group.elements().issuperset(images):
        raise ValueError(f"the images are not all in {group.name}")
    regular = _regular_table(images, identity(group.degree))
    if len(regular) != group.order:
        raise ValueError(f"the images do not generate {group.name}")
    return abelian_invariants(*abelianized_schreier_rows(g, regular))


class Cover:
    """A knot's double branched cover, built on first use, and the
    searches on its group, each with its results sorted.  Mutants have
    homeomorphic double branched covers (Viro, 1976), so every result is
    a mutation invariant."""

    def __init__(self, d: PlanarDiagram):
        self.knot = d

    @cached_property
    def presentation(self) -> GroupPresentation:
        """The cover's group, Tietze-simplified: from the knot group of
        the diagram's braid when it carries one, else from its Wirtinger
        presentation.  Raises ValueError for a link, since the relator
        x_1^2 defines the cover only when every meridian is conjugate to
        x_1."""
        d = self.knot
        if d.component_count() != 1:
            raise ValueError("diagram must be a knot")
        base = wirtinger_presentation(d) if d.braid is None \
            else knot_group(d.braid)
        return tietze_simplify(branched_cover_from_meridians(base))

    def quotients(self, targets: list[PermGroup]) -> dict[str, int]:
        """delta_Gamma by the name of each target."""
        return {t.name: len(epimorphisms(self.presentation, t, simplify=False))
                for t in targets}

    def kernel_abelianizations(self, group: PermGroup) -> list[list[int]]:
        """The kernels' abelian invariants onto `group`; the time limit
        is checked between kernels too."""
        pres = self.presentation
        kernels = Budget(unit="kernels")
        invs = []
        for hom in epimorphisms(pres, group, simplify=False):
            kernels.tick()
            invs.append(kernel_abelianization(pres, hom, group))
        return sorted(invs)

    def lowindex(self, max_index: int) -> list[tuple[int, list[int]]]:
        """(index, abelian invariants) of one subgroup per conjugacy class
        of index at most `max_index`."""
        pres = self.presentation
        return sorted((len(t), subgroup_abelianization(pres, t))
                      for t in low_index_subgroups(pres, max_index))
