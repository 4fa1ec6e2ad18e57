"""Finite permutation groups used as epimorphism targets.

Elements are tuples giving the image of each point 0..degree-1.  Groups
are stored by generators; the full element list is computed by closure
and cached.  So are the tables an epimorphism search needs of its
target, built on its first search: sorted elements, their inverses,
conjugation orbits (walked along a few generators of a centralizer),
the per-point image columns of its byte lanes (on at most 256 points)
and the order of its abelianization.
Built-in targets: cyclic, dihedral, alternating, symmetric, and
PSL(2, q) acting on the projective line (q an odd prime); each
constructor raises ValueError outside the range it builds correctly and
builds a new group on every call, while `builtin_targets` and `target`
(by the printed name) build each built-in group once per process.
`group_order` finds the order of the group that permutations generate
by Schreier-Sims, without listing the elements; a group's `order` comes
from it, so reading the order builds no closure.

A group may also carry normalizing permutations: point permutations
outside it that conjugate it onto itself, so that conjugation by the
group they generate together with it is a group of automorphisms.
Alt(n) carries a transposition and PSL(2, q) the map x -> wx with w a
non-square mod q, which give Sym(n) and PGL(2, q).

A group may also declare `automorphisms_induced`: it is transitive, and
every automorphism of it is conjugation by a point permutation that
normalizes it.  Two generating tuples then differ by an automorphism
exactly when they are conjugate in Sym(degree), which lets an
epimorphism search tell kernels apart by the tuples' action on the
points alone.  The built-in groups that declare it:

  * Alt(n) and Sym(n) with n != 6 (Aut is Sym(n); Alt(6) and Sym(6) have
    an outer automorphism that moves transpositions or 3-cycles onto
    fixed-point-free elements, so no point permutation induces it);
  * PSL(2, p), p prime (Aut is PGL(2, p): there are no field
    automorphisms);
  * the cyclic group of order n on n points: x -> ux + b mod n, u a unit,
    normalizes it and induces every automorphism r -> r^u;
  * the dihedral group of order 2n on the n-gon, n odd: every
    automorphism is r -> r^u, s -> r^b s, induced by x -> ux + b.  For n
    even the reflections through two vertices and those through two edge
    midpoints (two fixed points against none) form two classes that an
    automorphism swaps, which no point permutation does.
"""

from __future__ import annotations

import re
from functools import cache, cached_property
from math import inf, isqrt

Perm = tuple[int, ...]


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Composition acting on the right: point x goes to q[p[x]]."""
    return tuple(map(q.__getitem__, p))


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def conjugate(p: Perm, h: Perm, h_inv: Perm) -> Perm:
    """h^-1 p h, given h's inverse."""
    return tuple(map(h.__getitem__, map(p.__getitem__, h_inv)))


class PermGroup:
    def __init__(self, degree: int, generators: list[Perm], name: str = "",
                 normalizing: tuple[Perm, ...] = (),
                 automorphisms_induced: bool = False):
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        self.name = name
        self.normalizing = [tuple(t) for t in normalizing]
        self.automorphisms_induced = automorphisms_induced
        self._elements: frozenset[Perm] | None = None
        self._orbit_reps: dict[Perm | None, list[Perm]] = {}

    def elements(self) -> frozenset[Perm]:
        if self._elements is None:
            self._elements = frozenset(
                closure(self.generators, self.degree))
        return self._elements

    @cached_property
    def sorted_elements(self) -> list[Perm]:
        return sorted(self.elements())

    @cached_property
    def inverse(self) -> dict[Perm, Perm]:
        return {p: perm_inv(p) for p in self.sorted_elements}

    @cached_property
    def _conjugating_generators(self) -> list[tuple[Perm, Perm]]:
        """The generators of this group and its normalizing permutations,
        each paired with its inverse.

        Raises ValueError if a normalizing permutation conjugates a
        generator out of the group.
        """
        elems = self.elements()
        for t in self.normalizing:
            t_inv = perm_inv(t)
            if any(conjugate(g, t, t_inv) not in elems
                   for g in self.generators):
                raise ValueError(f"{t} does not normalize {self.name}")
        return [(h, perm_inv(h)) for h in self.generators + self.normalizing]

    def _centralizer_generators(self, x: Perm) -> list[tuple[Perm, Perm]]:
        """A few generators of the centralizer of `x` in K, the group that
        `_conjugating_generators` generate, each paired with its inverse.

        The centralizer is the stabilizer of `x` under conjugation by K,
        so the Schreier generators of x's class under K generate it; they
        are taken in turn, each kept only if it enlarges the group the
        kept ones generate, until that group has the centralizer's order,
        |K| over the size of the class.
        """
        gens = self._conjugating_generators
        e = identity(self.degree)
        # y -> (u, u^-1) with y = u^-1 x u
        trans = {x: (e, e)}
        queue = [x]
        for y in queue:
            u, u_inv = trans[y]
            for h, h_inv in gens:
                z = conjugate(y, h, h_inv)
                if z not in trans:
                    trans[z] = (perm_mul(u, h), perm_mul(h_inv, u_inv))
                    queue.append(z)
        size = group_order([h for h, _ in gens], self.degree) // len(trans)
        schreier = (perm_mul(perm_mul(u, h), trans[conjugate(y, h, h_inv)][1])
                    for y, (u, _) in trans.items() for h, h_inv in gens)
        kept: list[Perm] = []
        reached = 1
        for c in schreier:
            if reached == size:
                break
            if c != e and (n := group_order(kept + [c], self.degree,
                                            size)) > reached:
                kept.append(c)
                reached = n
        # each generator costs a conjugation per element of an orbit walk
        for c in kept[:-1]:
            rest = [d for d in kept if d is not c]
            if group_order(rest, self.degree, size) == size:
                kept = rest
        return [(c, perm_inv(c)) for c in kept]

    def conjugation_orbit_reps(self, x: Perm | None = None) -> list[Perm]:
        """The least element of each orbit of the group under conjugation by
        the centralizer of `x` in the group generated by it and its
        normalizing permutations (by all of that group when `x` is None,
        which gives the classes up to those automorphisms); kept once
        computed.  Each orbit is walked along generators of the
        centralizer."""
        reps = self._orbit_reps.get(x)
        if reps is None:
            gens = self._conjugating_generators if x is None else \
                self._centralizer_generators(x)
            seen: set[Perm] = set()
            reps = self._orbit_reps[x] = []
            for e in self.sorted_elements:
                if e in seen:
                    continue
                reps.append(e)
                seen.add(e)
                orbit = [e]
                for y in orbit:
                    for h, h_inv in gens:
                        z = conjugate(y, h, h_inv)
                        if z not in seen:
                            seen.add(z)
                            orbit.append(z)
        return reps

    @cached_property
    def abelianization_order(self) -> int:
        """The order of the group's abelianization, |G| / |G'|.

        The derived subgroup G' is the normal closure of the commutators
        of the generators: their conjugates by the generators are added
        while they enlarge it, each test one Schreier-Sims.
        """
        e = identity(self.degree)
        gens = self.generators
        derived = [c for a in gens for b in gens
                   if (c := perm_mul(perm_mul(perm_inv(a), perm_inv(b)),
                                     perm_mul(a, b))) != e]
        size = group_order(derived, self.degree)
        for c in derived:   # conjugates added here are conjugated in turn
            for g in gens:
                d = conjugate(c, g, perm_inv(g))
                n = group_order(derived + [d], self.degree)
                if n > size:
                    derived.append(d)
                    size = n
        return self.order // size

    @cached_property
    def lane_columns(self) -> tuple[list[int], list[int]] | None:
        """Per point v, the images of v under the sorted elements and
        under their inverses, one byte per element in their order, read
        as little-endian ints; None on more than 256 points, which do not
        fit in a byte."""
        if self.degree > 256:
            return None
        elems = self.sorted_elements
        inv = self.inverse
        return ([int.from_bytes(bytes(p[v] for p in elems), "little")
                 for v in range(self.degree)],
                [int.from_bytes(bytes(inv[p][v] for p in elems), "little")
                 for v in range(self.degree)])

    @cached_property
    def order(self) -> int:
        return group_order(self.generators, self.degree)

    def __repr__(self):
        return f"PermGroup({self.name or self.degree}, order={self.order})"


def closure(gens: list[Perm], degree: int) -> set[Perm]:
    e = identity(degree)
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = perm_mul(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def group_order(gens: list[Perm], degree: int,
                enough: float = inf) -> int:
    """The order of the group generated by `gens`, or, once it is known to
    be at least `enough`, a lower bound on it that is.

    Deterministic Schreier-Sims (Holt, Eick and O'Brien, sec. 4.4.2):
    level i keeps the generators found so far that fix the first i base
    points and the orbit of the i-th base point under them, with a
    transversal.  The product of the orbit lengths never exceeds the
    group's order, so the search stops as soon as it reaches `enough`.
    """
    e = identity(degree)
    base: list[int] = []
    levels: list[list[Perm]] = []
    trans: list[dict[int, tuple[Perm, Perm]]] = []   # point -> (u, u^-1)

    def orbit(i: int) -> None:
        t = trans[i] = {base[i]: (e, e)}
        queue = [base[i]]
        for x in queue:
            u = t[x][0]
            for g in levels[i]:
                y = g[x]
                if y not in t:
                    v = perm_mul(u, g)
                    t[y] = (v, perm_inv(v))
                    queue.append(y)

    def add(h: Perm, lo: int) -> int | None:
        """Strip `h` through the levels from `lo` on.  Unless that leaves
        the identity, add the rest to the levels from `lo` to the first
        whose base point it moves (a new one if it fixes them all), and
        return that level."""
        i = lo
        while i < len(base):
            step = trans[i].get(h[base[i]])
            if step is None:
                break
            h = perm_mul(h, step[1])
            i += 1
        if h == e:
            return None
        if i == len(base):
            base.append(next(x for x, y in enumerate(h) if x != y))
            levels.append([])
            trans.append({})
        for level in range(lo, i + 1):
            levels[level].append(h)
            orbit(level)
        return i

    def size() -> int:
        out = 1
        for t in trans:
            out *= len(t)
        return out

    def add_schreier_generator(i: int) -> int | None:
        """Add the first Schreier generator of level i that does not strip
        to the identity, and return the level it went to."""
        for x, (u, _) in trans[i].items():
            for g in levels[i]:
                j = add(perm_mul(perm_mul(u, g), trans[i][g[x]][1]), i + 1)
                if j is not None:
                    return j
        return None

    for g in gens:
        if add(g, 0) is not None and size() >= enough:
            return size()
    i = len(base) - 1
    while i >= 0:
        j = add_schreier_generator(i)
        if j is None:
            i -= 1
        elif size() >= enough:
            return size()
        else:
            i = j
    return size()


def _refuse_below(prefix: str, n: int, low: int) -> None:
    if n < low:
        raise ValueError(f"{prefix}{n}: n must be at least {low}")


def cyclic(n: int) -> PermGroup:
    _refuse_below("C", n, 1)
    if n == 1:
        return PermGroup(1, [], "C1", automorphisms_induced=True)
    shift = tuple((i + 1) % n for i in range(n))
    return PermGroup(n, [shift], f"C{n}", automorphisms_induced=True)


def dihedral(n: int) -> PermGroup:
    """Symmetries of the n-gon, order 2n (n >= 3)."""
    _refuse_below("D", n, 3)
    rot = tuple((i + 1) % n for i in range(n))
    flip = tuple((-i) % n for i in range(n))
    return PermGroup(n, [rot, flip], f"D{n}", automorphisms_induced=n % 2 == 1)


def symmetric(n: int) -> PermGroup:
    _refuse_below("S", n, 1)
    if n == 1:
        return PermGroup(1, [], "S1", automorphisms_induced=True)
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return PermGroup(n, gens, f"S{n}", automorphisms_induced=n != 6)


def alternating(n: int) -> PermGroup:
    _refuse_below("A", n, 1)
    if n < 3:
        return PermGroup(1, [], f"A{n}", automorphisms_induced=True)
    three = tuple([1, 2, 0] + list(range(3, n)))
    if n % 2 == 1:
        cyc = tuple(list(range(1, n)) + [0])
    else:
        cyc = tuple([0] + list(range(2, n)) + [1])
    swap = tuple([1, 0] + list(range(2, n)))
    return PermGroup(n, [three, cyc], f"A{n}", normalizing=(swap,),
                     automorphisms_induced=n != 6)


def psl2(q: int) -> PermGroup:
    """PSL(2, q) on the projective line {0..q-1, infinity}, q an odd prime."""
    if q < 3 or any(q % d == 0 for d in range(2, isqrt(q) + 1)):
        raise ValueError(f"PSL(2,{q}): q must be an odd prime")
    inf = q  # point index for infinity
    shift = tuple((x + 1) % q for x in range(q)) + (inf,)
    # x -> -1/x, with 0 <-> infinity
    neg_inv = [0] * (q + 1)
    neg_inv[0] = inf
    neg_inv[inf] = 0
    for x in range(1, q):
        neg_inv[x] = (-pow(x, q - 2, q)) % q
    # x -> wx for the least non-square w: diag(w, 1) lies in PGL(2, q)
    w = next(a for a in range(2, q) if pow(a, (q - 1) // 2, q) == q - 1)
    scale = tuple(w * x % q for x in range(q)) + (inf,)
    return PermGroup(q + 1, [shift, tuple(neg_inv)], f"PSL(2,{q})",
                     normalizing=(scale,), automorphisms_induced=True)


def target(name: str) -> PermGroup:
    """A target group by the name knotmut prints (C5, D3, A5, S4, PSL(2,7))
    or by the long forms Alt(5) and Sym(4), built once per process."""
    text = name.replace(" ", "")
    m = (re.fullmatch(r"([CDAS])(\d+)", text)
         or re.fullmatch(r"(Alt|Sym)\((\d+)\)", text)
         or re.fullmatch(r"(PSL)\(2,(\d+)\)", text))
    if m is None:
        raise ValueError(f"unknown target group {name!r}")
    return _built(m[1][0], int(m[2]))


@cache
def _built(family: str, n: int) -> PermGroup:
    return {"C": cyclic, "D": dihedral, "A": alternating, "S": symmetric,
            "P": psl2}[family](n)


def builtin_targets(max_order: int = 700) -> list[PermGroup]:
    """The default epimorphism targets, smallest order first, each built
    once per process."""
    out = [_built("C", n) for n in range(2, 16)]
    out.extend(_built("D", n) for n in range(3, 13))
    out.extend(_built("A", n) for n in range(4, 8))
    out.extend(_built("S", n) for n in range(3, 8))
    out.extend(_built("P", q) for q in (7, 11, 13))
    out = [g for g in out if g.order <= max_order]
    out.sort(key=lambda g: (g.order, g.name))
    return out
