"""Finite permutation groups used as epimorphism targets.

Elements are tuples giving the image of each point 0..degree-1.  Groups
are stored by generators; the full element list is computed by closure
and cached, as are the tables an epimorphism search needs of its target
(sorted elements, their indices and inverses, conjugation orbits).
Built-in targets: cyclic, dihedral, alternating, symmetric, and
PSL(2, q) acting on the projective line (q prime).
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations

Perm = tuple[int, ...]


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Composition acting on the right: point x goes to q[p[x]]."""
    return tuple(q[i] for i in p)


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def identity(degree: int) -> Perm:
    return tuple(range(degree))


class PermGroup:
    def __init__(self, degree: int, generators: list[Perm], name: str = ""):
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        self.name = name
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
    def index(self) -> dict[Perm, int]:
        """Each element's position in `sorted_elements`."""
        return {p: i for i, p in enumerate(self.sorted_elements)}

    @cached_property
    def inverse(self) -> dict[Perm, Perm]:
        return {p: perm_inv(p) for p in self.sorted_elements}

    def conjugation_orbit_reps(self, x: Perm | None = None) -> list[Perm]:
        """The least element of each orbit of the group under conjugation by
        the centralizer of `x` (by the whole group when `x` is None, which
        gives the conjugacy class representatives); kept once computed."""
        reps = self._orbit_reps.get(x)
        if reps is None:
            elems, inv = self.sorted_elements, self.inverse
            acting = elems if x is None else [
                h for h in elems if perm_mul(x, h) == perm_mul(h, x)]
            seen: set[Perm] = set()
            reps = self._orbit_reps[x] = []
            for e in elems:
                if e in seen:
                    continue
                reps.append(e)
                for h in acting:
                    seen.add(perm_mul(perm_mul(inv[h], e), h))
        return reps

    @property
    def order(self) -> int:
        return len(self.elements())

    def __contains__(self, p: Perm) -> bool:
        return p in self.elements()

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


def cyclic(n: int) -> PermGroup:
    if n == 1:
        return PermGroup(1, [], "C1")
    shift = tuple((i + 1) % n for i in range(n))
    return PermGroup(n, [shift], f"C{n}")


def dihedral(n: int) -> PermGroup:
    """Symmetries of the n-gon, order 2n (n >= 3)."""
    rot = tuple((i + 1) % n for i in range(n))
    flip = tuple((-i) % n for i in range(n))
    return PermGroup(n, [rot, flip], f"D{n}")


def symmetric(n: int) -> PermGroup:
    if n < 2:
        return PermGroup(max(n, 1), [], f"S{n}")
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return PermGroup(n, gens, f"S{n}")


def alternating(n: int) -> PermGroup:
    if n < 3:
        return PermGroup(max(n, 1), [], f"A{n}")
    three = tuple([1, 2, 0] + list(range(3, n)))
    if n % 2 == 1:
        cyc = tuple(list(range(1, n)) + [0])
    else:
        cyc = tuple([0] + list(range(2, n)) + [1])
    return PermGroup(n, [three, cyc], f"A{n}")


def psl2(q: int) -> PermGroup:
    """PSL(2, q) on the projective line {0..q-1, infinity}, q an odd prime."""
    inf = q  # point index for infinity
    shift = tuple((x + 1) % q for x in range(q)) + (inf,)
    # x -> -1/x, with 0 <-> infinity
    neg_inv = [0] * (q + 1)
    neg_inv[0] = inf
    neg_inv[inf] = 0
    for x in range(1, q):
        neg_inv[x] = (-pow(x, q - 2, q)) % q
    return PermGroup(q + 1, [shift, tuple(neg_inv)], f"PSL(2,{q})")


def builtin_targets(max_order: int = 700) -> list[PermGroup]:
    """The default epimorphism targets, smallest order first."""
    out: list[PermGroup] = []
    out.extend(cyclic(n) for n in range(2, 16))
    out.extend(dihedral(n) for n in range(3, 13))
    out.extend(alternating(n) for n in range(4, 8))
    out.extend(symmetric(n) for n in range(3, 8))
    out.extend(psl2(q) for q in (7, 11, 13))
    out = [g for g in out if g.order <= max_order]
    out.sort(key=lambda g: (g.order, g.name))
    return out
