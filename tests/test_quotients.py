"""Permutation groups and epimorphism search onto finite targets."""

import hashlib
import itertools
import random

import pytest

from conftest import nontrivial_knot_braid, pretzel, random_knot_braid
from knotmut.diagram import braid_closure, named_knot, parse_braid
from knotmut.permgroups import (PermGroup, StabilizerChain, alternating,
                                closure, cyclic, dihedral, group_order,
                                identity, perm_inv, perm_mul, psl2, symmetric,
                                builtin_targets, target)
from knotmut.presentations import (GroupPresentation,
                                   abelianized_schreier_rows,
                                   branched_cover_from_meridians,
                                   knot_group, low_index_subgroups,
                                   reidemeister_schreier,
                                   subgroup_abelianization, tietze_simplify)
from knotmut import presentations, quotients
from knotmut.quotients import (_holds, _key_starts, _point_key,
                               _regular_table, _search_order, epimorphisms,
                               kernel_abelianization)
from knotmut.skein2 import ResourceLimitExceeded
from test_skein2 import MUTANT_SLATE


# the cover of P(5,3,-2,-3) as generator elimination alone leaves it,
# before Tietze had substring moves (the simplified cover has 3 generators)
P5_3_M2_M3_FOUR_GENERATORS = (
    (3, 1, 3, 4, 3, -4, 3, 4, 3, -1, -3, -4, -3, -1),
    (1, 3, 4, 3, 1, 3, 4, 3, 1, -2, -3, -4, -3, -1, 3, 3, 4, 3, -2, -3, -4,
     -3, -1, 3),
    (-3, -4, -3, 1, 3, 4, 3, 2, -1, -3, -4, -3, -1, 2, -3, -4, -3, 1, 3, 4, 3,
     2, -1, -3, -4, -3, -3, -4, -3),
    (1, 3, 4, 3, 1, -2, -3, -4, -3, -1, 3, 4, 3, 4, 1, 3, 4, 3, 1, -2, -3, -4,
     -3, -1, 3, 1, 3, 4, 3),
    (-3, -4, -3, -1, -3, 1, 3, 4, 3, 2, -1, -3, -4, -3, -1, -3, -4, -3, -1, -3,
     1, 3, 4, 3, 1, 3, 4, 3, 1, -2, -3, -4, -3, -1, 3, 4, 3, -2),
)

# the 3-generator, 48-letter cover of the closure of SLOW_COVER_BRAID (the
# time budget tests' SLOW_COVER), as Tietze left it while the Schreier
# transversal was the breadth-first tree (the cover now has 2 generators)
SLOW_COVER_BRAID = "5 | -4 1 -2 3 -1 -1 2 -3 -1 -1 -1 2 3 3"
SLOW_COVER_THREE_GENERATORS = (
    (3, -1, 2, -1, 3, 2, 3, 2),
    (-3, -1, -1, -3, -2, -3, -2, 1, -2, -3, -2),
    (-1, 2, 3, 2, 3, 2, -1, -1, 2, 3, 2, 3, 2, -1, -1, 2, 3, 2, 3, 2, -1, -1,
     2, 3, 2, 3, 2, -1, -3),
)


class TestPermGroups:
    def test_mul_convention(self):
        # (p * q)(i) = q(p(i)): left-to-right composition
        p, q = (1, 0, 2), (0, 2, 1)
        assert perm_mul(p, q) == (2, 0, 1)
        assert perm_mul(p, perm_inv(p)) == identity(3)

    @pytest.mark.parametrize("group,order", [
        (cyclic(7), 7), (dihedral(5), 10), (symmetric(4), 24),
        (alternating(4), 12), (alternating(5), 60),
        (psl2(7), 168), (psl2(11), 660), (psl2(13), 1092),
        (dihedral(3), 6), (psl2(3), 12),
    ])
    def test_orders(self, group, order):
        assert group.order == order

    def test_closure(self):
        gens = [(1, 0, 2), (0, 2, 1)]
        assert len(closure(gens, 3)) == 6

    def test_order_builds_no_closure(self):
        # the order comes from Schreier-Sims; the element set stays unbuilt
        for group, order in ((symmetric(7), 5040), (alternating(7), 2520)):
            assert group.order == order
            assert group._elements is None

    @pytest.mark.parametrize("group", builtin_targets(5040),
                             ids=lambda g: g.name)
    def test_order_is_closure_size(self, group):
        assert group.order == len(group.elements())

    def test_builtin_targets_sorted(self):
        targets = builtin_targets(60)
        orders = [t.order for t in targets]
        assert orders == sorted(orders)
        assert all(o <= 60 for o in orders)
        # D3 is S3 on the same 3 points, so only S3 is listed
        assert [t.name for t in builtin_targets(6)] == \
            ["C2", "C3", "C4", "C5", "C6", "S3"]
        assert set(target("D3").elements()) == set(target("S3").elements())

    @pytest.mark.parametrize("group", builtin_targets(3000),
                             ids=lambda g: g.name)
    def test_normalizing_permutations(self, group):
        # Alt(n) and PSL(2,q) carry one outside the group; the rest none
        assert len(group.normalizing) == \
            group.name.startswith(("A", "PSL"))
        elems = group.elements()
        for t in group.normalizing:
            assert t not in elems
            for g in group.generators:
                assert perm_mul(perm_mul(perm_inv(t), g), t) in elems

    @pytest.mark.parametrize("group", builtin_targets() + [symmetric(6)],
                             ids=lambda g: g.name)
    def test_automorphisms_induced(self, group):
        # declared for cyclic groups, dihedral groups of odd degree,
        # Alt(n) and Sym(n) with n != 6 and PSL(2, p); Alt(6), Sym(6) and
        # dihedral groups of even degree have automorphisms that no point
        # permutation induces
        if group.name.startswith("PSL"):
            expected = True
        else:
            kind, n = group.name[0], int(group.name[1:])
            expected = {"C": True, "D": n % 2 == 1,
                        "A": n != 6, "S": n != 6}[kind]
        assert group.automorphisms_induced == expected

    def test_group_order_against_closure(self):
        # the early stop of `epimorphisms`' surjectivity test: an order of
        # at least `enough` is reached exactly when the closure is as large
        rng = random.Random(11)
        for group in (alternating(5), symmetric(5), psl2(7), dihedral(6),
                      alternating(6)):
            for _ in range(25):
                gens = rng.sample(group.sorted_elements, rng.randint(1, 3))
                size = len(closure(gens, group.degree))
                assert group_order(gens, group.degree, size) >= size
                assert group_order(gens, group.degree, size + 1) == size

    @pytest.mark.parametrize("group", builtin_targets(2520),
                             ids=lambda g: g.name)
    def test_chain_against_closure(self, group):
        # generators of the group and of two of its point stabilizers,
        # added one at a time: after each, the order and membership are
        # those of the closure, and a chain stopped at `enough` reaches it
        # and is finished by the next generator
        rng = random.Random(group.order)
        elems = group.sorted_elements
        pools = [elems, [p for p in elems if p[0] == 0],
                 [p for p in elems if p[:2] == (0, 1)]]
        for pool in pools:
            for _ in range(3):
                gens = rng.choices(pool, k=rng.randint(1, 4))
                chain = StabilizerChain(group.degree)
                stopped = StabilizerChain(group.degree)
                for i, g in enumerate(gens):
                    before = chain.copy()
                    chain.extend(g)
                    reached = closure(gens[:i + 1], group.degree)
                    size = len(reached)
                    assert chain.order() == size
                    assert before.order() == len(closure(gens[:i],
                                                         group.degree))
                    for p in rng.sample(elems, min(len(elems), 40)):
                        assert (p in chain) == (p in reached)
                    assert group_order(gens[:i + 1], group.degree,
                                       size) >= size
                    assert group_order(gens[:i + 1], group.degree,
                                       size + 1) == size
                    stopped.extend(g, 2)
                    assert stopped.order() >= min(2, size)
                finished = stopped.copy()
                finished.extend(identity(group.degree))
                assert finished.order() == chain.order()

    def test_point_key(self):
        a, b = (1, 2, 0, 3), (0, 1, 3, 2)
        t = (2, 1, 0, 3)   # a tuple conjugated by t shares the key
        assert _point_key([a, b], range(4)) == _point_key(
            [perm_mul(perm_mul(t, p), t) for p in (a, b)], range(4))
        assert _point_key([a, b], range(4)) != _point_key([b, a], range(4))
        assert _point_key([a], range(4)) is None   # not transitive

    @pytest.mark.parametrize("group", [alternating(5), psl2(7), psl2(11)],
                             ids=lambda g: g.name)
    def test_point_key_from_starts(self, group):
        # keys read only from `_key_starts` of the leading images are
        # shared by conjugate tuples and by no others
        rng = random.Random(3)
        points = range(group.degree)
        keys: dict[tuple, tuple] = {}
        for _ in range(300):
            images = rng.choices(group.sorted_elements, k=3)
            t = tuple(rng.sample(points, group.degree))
            conjugated = [perm_mul(perm_mul(perm_inv(t), p), t)
                          for p in images]
            short = _point_key(images, points, _key_starts(images[:-1], points))
            assert short == _point_key(conjugated, points, _key_starts(
                conjugated[:-1], points))
            full = _point_key(images, points)
            assert (short is None) == (full is None)
            assert keys.setdefault(full, short) == short
        assert len(set(keys.values())) == len(keys)

    @pytest.mark.parametrize("group", [alternating(5), symmetric(5), psl2(7),
                                       alternating(7)],
                             ids=lambda g: g.name)
    def test_orbit_reps_against_every_conjugator(self, group):
        # the definition: filter the whole conjugating group for the
        # centralizer and conjugate each new representative by all of it
        conjugators = closure(group.generators + group.normalizing,
                              group.degree)

        def reference(x):
            acting = [h for h in conjugators
                      if x is None or perm_mul(x, h) == perm_mul(h, x)]
            seen, reps = set(), []
            for e in group.sorted_elements:
                if e not in seen:
                    reps.append(e)
                    seen.update(perm_mul(perm_mul(perm_inv(h), e), h)
                                for h in acting)
            return reps

        classes = group.conjugation_orbit_reps()
        assert classes == reference(None)
        rng = random.Random(5)
        for x in classes[:4] + rng.sample(group.sorted_elements, 2):
            assert group.conjugation_orbit_reps(x) == reference(x)

    @pytest.mark.parametrize("group", builtin_targets(2520) + [symmetric(2)],
                             ids=lambda g: g.name)
    def test_abelianization_order(self, group):
        if group.name.startswith("PSL"):
            expected = 1
        else:
            kind, n = group.name[0], int(group.name[1:])
            expected = {"C": n, "D": 2 if n % 2 else 4,
                        "A": 3 if n in (3, 4) else 1,
                        "S": 2 if n > 1 else 1}[kind]
        assert group.abelianization_order == expected

    def test_non_normalizing_permutation_rejected(self):
        c4 = cyclic(4)
        bad = PermGroup(4, c4.generators, "C4", normalizing=((1, 0, 2, 3),))
        with pytest.raises(ValueError, match="does not normalize"):
            bad.conjugation_orbit_reps()


def evaluate_word(word, images: list[tuple], degree: int) -> tuple:
    """The image of a word under x_i -> images[i-1], as one permutation."""
    out = identity(degree)
    for g in word:
        p = images[abs(g) - 1]
        out = perm_mul(out, p if g > 0 else perm_inv(p))
    return out


def brute_force_epi_count(g: GroupPresentation, group: PermGroup) -> int:
    """Exhaustive surjection count up to kernel equality."""
    return len(brute_force_epi_reps(g, group))


def _same_kernel(h, k, group: PermGroup) -> bool:
    """Whether x_i -> h[i] and x_i -> k[i] have the same kernel.

    They do exactly when the pairs (h[i], k[i]) generate the graph of an
    automorphism, a subgroup of the direct square no larger than `group`;
    the closure stops as soon as it is larger.
    """
    deg = group.degree
    pairs = [a + tuple(x + deg for x in b) for a, b in zip(h, k)]
    e = identity(2 * deg)
    seen = {e}
    frontier = [e]
    while frontier and len(seen) <= group.order:
        nxt = []
        for p in frontier:
            for q in pairs:
                pq = perm_mul(p, q)
                if pq not in seen:
                    seen.add(pq)
                    nxt.append(pq)
        frontier = nxt
    return len(seen) == group.order


def brute_force_epi_reps(g: GroupPresentation,
                         group: PermGroup) -> list[list[tuple]]:
    """One surjection per kernel, by trying every tuple of images."""
    elems = sorted(group.elements())
    deg = group.degree
    full = frozenset(elems)
    reps: list[list[tuple]] = []
    for images in itertools.product(elems, repeat=g.ngens):
        images = list(images)
        if any(evaluate_word(r, images, deg) != identity(deg)
               for r in g.relators):
            continue
        if frozenset(closure(images, deg)) != full:
            continue
        if not any(_same_kernel(images, rep, group) for rep in reps):
            reps.append(images)
    return reps


def _kernels(g: GroupPresentation, homs, group: PermGroup) -> list[list[int]]:
    return sorted(kernel_abelianization(g, h, group) for h in homs)


def _presentation_route(g: GroupPresentation, hom, group: PermGroup) -> list[int]:
    """The kernel's abelianization from its Reidemeister-Schreier
    presentation, on the coset table of the regular action."""
    index = {p: i for i, p in enumerate(group.sorted_elements)}
    table = [[index[perm_mul(e, p)] for p in hom] for e in index]
    return reidemeister_schreier(g, table).abelian_invariants()


# 3-generator presentations with several kernels of different types
THREE_GENERATOR = {
    # (Z/6 x Z) * Z/2
    "z6xz_z2": GroupPresentation(3, ((1,) * 6, (1, 2, -1, -2), (3, 3))),
    # group of the 2-component closure, not Tietze-simplified
    "link_3_11222": knot_group(parse_braid("3 | 1 1 2 2 2")),
}
# 2-generator knot groups, for targets too large to brute-force on three:
# the figure-eight group has 4 kernels onto PSL(2,7), of 2 types, and the
# (5,2) torus knot group 2 onto Alt(5)
TWO_GENERATOR = {
    "figure8": tietze_simplify(knot_group(parse_braid("3 | 1 -2 1 -2"))),
    "torus_5_2": tietze_simplify(knot_group(parse_braid("2 | 1 1 1 1 1"))),
}
KERNEL_CASES = [
    pytest.param(name, factory, n, id=f"{factory.__name__}-{n}-{name}")
    for presentations, targets in (
        (THREE_GENERATOR, ((alternating, 4), (symmetric, 4), (dihedral, 5),
                           (cyclic, 6))),
        (TWO_GENERATOR, ((alternating, 4), (alternating, 5), (dihedral, 5),
                         (psl2, 7))))
    for factory, n in targets for name in sorted(presentations)]


class TestEpimorphisms:
    def test_cyclic_targets(self):
        # Z/3 surjects onto C3 with a unique (trivial) kernel
        g = GroupPresentation(1, ((1, 1, 1),))
        assert len(epimorphisms(g, cyclic(3))) == 1
        assert len(epimorphisms(g, cyclic(2))) == 0

    @pytest.mark.parametrize("knot,target,expected", [
        ("2 | 1 1 1", "C3", 1),      # cover group Z/3
        ("2 | 1 1 1", "C5", 0),
        ("3 | 1 -2 1 -2", "C5", 1),  # cover group Z/5
        ("3 | 1 -2 1 -2", "D5", 0),  # abelian group, no nonabelian quotient
    ])
    def test_cover_quotients(self, knot, target, expected):
        g = branched_cover_from_meridians(
            knot_group(parse_braid(knot)))
        grp = cyclic(int(target[1])) if target[0] == "C" else \
            dihedral(int(target[1]))
        assert len(epimorphisms(g, grp, simplify=False)) == expected

    @pytest.mark.parametrize("group", [
        cyclic(1), alternating(1), alternating(2), symmetric(1)],
        ids=lambda grp: grp.name)
    def test_trivial_targets(self, group):
        # every group has exactly one kernel onto the trivial group, the
        # group itself; on one point the regular table composes through
        # a one-position getter
        for g in (GroupPresentation(1, ((1, 1, 1),)), GroupPresentation(2, ()),
                  quotients.Cover(pretzel(3, 3, -2, -3)).presentation):
            homs = epimorphisms(g, group, simplify=False)
            assert len(homs) == 1
            assert kernel_abelianization(g, homs[0], group) == \
                g.abelian_invariants()

    def test_trivial_cover_group(self):
        # the unknot's double branched cover is S^3: the trivial group,
        # onto which only C1 has a hom, the empty one
        g = quotients.Cover(named_knot("unknot")).presentation
        assert g.ngens == 0
        assert epimorphisms(g, alternating(5)) == []
        assert epimorphisms(g, cyclic(1)) == [[]]

    @pytest.mark.parametrize("braid", ["2 | 1 1 1", "3 | 1 -2 1 -2"])
    @pytest.mark.parametrize("factory,n", [
        (cyclic, 3), (cyclic, 4), (dihedral, 3), (dihedral, 5),
        (alternating, 4), (symmetric, 3), (alternating, 5), (psl2, 7),
    ])
    def test_against_brute_force(self, braid, factory, n):
        g = tietze_simplify(knot_group(parse_braid(braid)))
        grp = factory(n)
        assert len(epimorphisms(g, grp, simplify=False)) == \
            brute_force_epi_count(g, grp)

    @pytest.mark.parametrize("name,factory,n", KERNEL_CASES)
    def test_kernels_against_brute_force(self, name, factory, n):
        g = {**THREE_GENERATOR, **TWO_GENERATOR}[name]
        grp = factory(n)
        homs = epimorphisms(g, grp, simplify=False)
        # the images come back in the presentation's own generator order
        for hom in homs:
            assert all(evaluate_word(r, hom, grp.degree) == identity(grp.degree)
                       for r in g.relators)
        assert _kernels(g, homs, grp) == \
            _kernels(g, brute_force_epi_reps(g, grp), grp)

    @pytest.mark.parametrize("n", [4, 6])
    def test_even_dihedral_targets_keep_regular_table(self, n):
        # F2 has 3 kernels onto D4 and onto D6.  Point permutations induce
        # only half of Aut(D_n) for n even, so a key of the point action
        # would count each kernel twice
        free = GroupPresentation(2, ())
        group = dihedral(n)
        assert len(epimorphisms(free, group, simplify=False)) == \
            brute_force_epi_count(free, group) == 3
        keyed = PermGroup(group.degree, group.generators, group.name,
                          automorphisms_induced=True)
        assert len(epimorphisms(free, keyed, simplify=False)) == 6

    def test_budget(self):
        g = THREE_GENERATOR["z6xz_z2"]
        with pytest.raises(ResourceLimitExceeded,
                           match="after 1 candidate images, 0 kernels"):
            epimorphisms(g, symmetric(4), simplify=False, max_nodes=1)

    def test_search_order_closes_relators_early(self):
        # a 4-generator presentation of the cover of P(5,3,-2,-3), as
        # greedy generator elimination left it, in which only the shortest
        # relator misses a generator (x2).  Searched in the given order it
        # is checked at the last level only, and PSL(2,7) takes 5.6 million
        # candidate images; placing x1, x3, x4 first closes it at the third.
        g = GroupPresentation(4, P5_3_M2_M3_FOUR_GENERATORS)
        assert g.abelian_invariants() == [27]
        assert g.ngens == 4
        assert _search_order(g) == [1, 3, 4, 2]
        assert epimorphisms(g, psl2(7), simplify=False,
                            max_nodes=200_000) == []


def _random_presentation(seed: int, ngens: int = 3) -> GroupPresentation:
    """Two random relators of 4-8 letters: H1 is infinite, so no target is
    ruled out before the search."""
    rng = random.Random(seed)
    return GroupPresentation(ngens, tuple(
        tuple(rng.choice((1, -1)) * rng.randint(1, ngens)
              for _ in range(rng.randint(4, 8)))
        for _ in range(2)))


LANE_PRESENTATIONS = {
    "P(3,3,-2,-3)": quotients.Cover(pretzel(3, 3, -2, -3)).presentation,
    "four_generators": GroupPresentation(4, P5_3_M2_M3_FOUR_GENERATORS),
    **{f"random-{seed}": _random_presentation(seed) for seed in range(6)},
}


@pytest.fixture
def budget_spy(monkeypatch):
    """Every `Budget` that `epimorphisms` makes, and its batch sizes."""
    made, batches = [], []

    class Spy(quotients.Budget):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

        def tick_batch(self, n):
            batches.append(n)
            super().tick_batch(n)

    monkeypatch.setattr(quotients, "Budget", Spy)
    return made, batches


def _without_lanes(monkeypatch, g, group, **kwargs):
    """The search as it runs without the lane pass: every candidate goes
    through the per-candidate check alone."""
    with monkeypatch.context() as m:
        m.setattr(quotients, "_FEW_LANES", group.order)
        return epimorphisms(g, group, simplify=False, **kwargs)


def _far_apart_s4() -> PermGroup:
    """Sym(4) on points 0, 128, 1, 129 of 256: lanes at 0 and 128 differ
    in bit 7 alone, and point 255 still fits in a byte."""
    where = (0, 128, 1, 129)

    def spread(p):
        out = list(range(256))
        for i, j in enumerate(p):
            out[where[i]] = where[j]
        return tuple(out)

    return PermGroup(256, [spread(p) for p in symmetric(4).generators],
                     "S4 on 256 points")


class TestLanePass:
    @pytest.mark.parametrize("name", sorted(LANE_PRESENTATIONS))
    @pytest.mark.parametrize("factory,n", [
        (alternating, 4), (symmetric, 4), (dihedral, 5), (cyclic, 6)])
    def test_against_brute_force(self, name, factory, n, monkeypatch):
        g, group = LANE_PRESENTATIONS[name], factory(n)
        homs = epimorphisms(g, group, simplify=False)
        assert homs == _without_lanes(monkeypatch, g, group)
        # 4 generators onto S4 is 331,776 tuples: H1 = Z/27 rules it out
        if g.ngens == 3 or group.order < 24:
            assert _kernels(g, homs, group) == \
                _kernels(g, brute_force_epi_reps(g, group), group)

    @pytest.mark.parametrize("name", sorted(LANE_PRESENTATIONS))
    @pytest.mark.parametrize("factory,n", [
        (symmetric, 4), (alternating, 5), (psl2, 7), (alternating, 6)])
    def test_same_list_and_count(self, name, factory, n, budget_spy,
                                 monkeypatch):
        # Alt(6) is accepted through its regular table, the rest by keys;
        # the lists must agree in their order too
        made, batches = budget_spy
        g, group = LANE_PRESENTATIONS[name], factory(n)
        homs = epimorphisms(g, group, simplify=False)
        assert homs == _without_lanes(monkeypatch, g, group)
        assert made[0].nodes == made[1].nodes
        # each lane pass counts every element as a candidate image
        assert set(batches) <= {group.order}

    def test_lane_pass_runs(self, budget_spy):
        made, batches = budget_spy
        g = LANE_PRESENTATIONS["P(3,3,-2,-3)"]
        for group, count in ((alternating(5), 12), (psl2(7), 60),
                             (alternating(6), 30)):
            batches.clear()
            assert len(epimorphisms(g, group, simplify=False)) == count
            assert batches and set(batches) == {group.order}

    def test_no_lanes_on_small_targets(self, budget_spy):
        # at most _FEW_LANES elements: the per-candidate check alone
        made, batches = budget_spy
        g = LANE_PRESENTATIONS["random-1"]
        for group in (alternating(4), dihedral(5), cyclic(6)):
            assert group.order <= quotients._FEW_LANES
            assert epimorphisms(g, group, simplify=False)
        assert batches == []

    def test_batch_stops_before_the_cap(self):
        # the cover's first lane pass comes after 1 image at level 0 and
        # 1 at level 1; a cap below its 60 more stops before it starts
        g = LANE_PRESENTATIONS["P(3,3,-2,-3)"]
        with pytest.raises(ResourceLimitExceeded,
                           match="after 2 candidate images, 0 kernels"):
            epimorphisms(g, alternating(5), simplify=False, max_nodes=61)
        # at 62 the pass runs, and the next image at level 1 stops
        with pytest.raises(ResourceLimitExceeded,
                           match="after 62 candidate images"):
            epimorphisms(g, alternating(5), simplify=False, max_nodes=62)

    def test_more_than_256_points(self, budget_spy, monkeypatch):
        # a point does not fit in a byte lane: Sym(4) moving 4 of 300
        # points is searched by the per-candidate check alone, and finds
        # the kernels of Sym(4) on 4 points, which takes the lane pass
        made, batches = budget_spy
        g = LANE_PRESENTATIONS["random-2"]
        s4 = PermGroup(4, symmetric(4).generators, "S4")
        wide = PermGroup(300, [p + tuple(range(4, 300))
                               for p in s4.generators], "S4 on 300 points")
        assert wide.lane_columns is None
        assert wide.order > quotients._FEW_LANES
        homs = epimorphisms(g, wide, simplify=False)
        assert batches == []
        narrow = epimorphisms(g, s4, simplify=False)
        assert batches
        assert homs == [[p + tuple(range(4, 300)) for p in h] for h in narrow]
        assert len(homs) == brute_force_epi_count(g, s4) == 2
        assert made[0].nodes == made[1].nodes

    def test_points_far_apart_in_a_byte(self, budget_spy, monkeypatch):
        made, batches = budget_spy
        g = LANE_PRESENTATIONS["random-2"]
        wide = _far_apart_s4()
        homs = epimorphisms(g, wide, simplify=False)
        assert batches
        assert homs == _without_lanes(monkeypatch, g, wide)
        assert len(homs) == brute_force_epi_count(g, symmetric(4)) == 2

    def test_filter_is_exact_when_traced_through(self, monkeypatch):
        # traced from every point, the relators leave exactly the
        # elements that satisfy them all, as the image at level 2 (slots
        # 4 and 5) after random images at levels 0 and 1
        monkeypatch.setattr(quotients, "_FEW_LANES", 0)
        codes = [[0, 4, 2, 5, 1], [4, 4, 4], [5, 0, 0, 4, 3, 4, 2, 2],
                 [3, 4, 1, 5]]
        rng = random.Random(7)
        kept = 0
        for group in (alternating(5), psl2(7), _far_apart_s4()):
            elems, inv = group.sorted_elements, group.inverse
            survivors = quotients._lane_filter(
                group.lane_columns, group.degree, len(elems))
            for _ in range(4):
                a, b = rng.choice(elems), rng.choice(elems)
                slots = [a, inv[a], b, inv[b], None, None]
                chosen = rng.sample(codes, rng.randint(1, 3))
                want = [i for i, p in enumerate(elems)
                        if all(_holds([(slots[:4] + [p, inv[p]])[s]
                                       for s in code],
                                      range(group.degree))
                               for code in chosen)]
                plans = [quotients._lane_plan(code, 2) for code in chosen]
                assert survivors(plans, slots) == want
                kept += len(want)
        assert kept >= 10


class TestAbelianObstruction:
    """An epimorphism onto Gamma maps H1 onto Gamma's abelianization."""

    @pytest.mark.parametrize("group", [symmetric(5), dihedral(5), cyclic(2)],
                             ids=lambda g: g.name)
    def test_ruled_out_before_any_candidate(self, group, budget_spy):
        made, _ = budget_spy
        g = LANE_PRESENTATIONS["P(3,3,-2,-3)"]
        assert g.abelian_invariants() == [3, 3]
        assert group.abelianization_order == 2
        # a node budget of 0 raises at the first candidate tried
        assert epimorphisms(g, group, simplify=False, max_nodes=0) == []
        assert made[-1].nodes == 0

    def test_no_knot_cover_maps_onto_an_even_abelianization(self):
        # H1 of a knot's double branched cover has odd order, so the
        # report's group rows skip every target whose abelianization has
        # even order; the brute-force count, which has no H1 check,
        # finds no epimorphism onto six of them
        groups = [cyclic(2), cyclic(4), symmetric(3), dihedral(4),
                  dihedral(5), symmetric(4)]
        assert all(g.abelianization_order % 2 == 0 for g in groups)
        knots = [pretzel(*p) for p in MUTANT_SLATE] + \
            [braid_closure(nontrivial_knot_braid(random.Random(seed), 5, 14))
             for seed in range(12)]
        for d in knots:
            g = quotients.Cover(d).presentation
            assert [brute_force_epi_count(g, group) for group in groups] \
                == [0] * len(groups), d.name

    def test_budget_arguments_checked_first(self):
        g = LANE_PRESENTATIONS["P(3,3,-2,-3)"]
        with pytest.raises(ValueError, match="node budget must be"):
            epimorphisms(g, symmetric(5), simplify=False, max_nodes=-1)

    def test_infinite_h1_still_searched(self):
        # the trefoil group has H1 = Z, and Sym(3) as a quotient
        g = tietze_simplify(knot_group(parse_braid("2 | 1 1 1")))
        assert g.abelian_invariants() == [0]
        assert len(epimorphisms(g, symmetric(3), simplify=False)) == 1

    @pytest.mark.parametrize("group,count",
                             [(cyclic(3), 4), (alternating(4), 8)],
                             ids=["C3", "A4"])
    def test_dividing_order_still_searched(self, group, count, budget_spy):
        # |H1| = 9 and |Gamma^ab| = 3
        made, _ = budget_spy
        g = LANE_PRESENTATIONS["P(3,3,-2,-3)"]
        assert group.abelianization_order == 3
        homs = epimorphisms(g, group, simplify=False)
        assert len(homs) == brute_force_epi_count(g, group) == count
        assert made[-1].nodes > 0


class TestKernelAbelianization:
    def test_kernel_in_Z(self):
        # Z -> C3 has kernel Z
        g = GroupPresentation(1, ())
        grp = cyclic(3)
        hom = [(1, 2, 0)]
        assert kernel_abelianization(g, hom, grp) == [0]

    def test_kernel_in_Z6(self):
        # Z/6 -> C3 has kernel Z/2
        g = GroupPresentation(1, ((1,) * 6,))
        grp = cyclic(3)
        hom = [(1, 2, 0)]
        assert kernel_abelianization(g, hom, grp) == [2]

    @pytest.mark.parametrize("name", sorted(THREE_GENERATOR))
    def test_schreier_rows_match_rewritten_presentation(self, name):
        g = THREE_GENERATOR[name]
        checked = 0
        for grp in (alternating(4), symmetric(4), dihedral(5), cyclic(6)):
            for hom in epimorphisms(g, grp, simplify=False):
                assert kernel_abelianization(g, hom, grp) == \
                    _presentation_route(g, hom, grp)
                checked += 1
        assert checked >= 5

    def test_not_onto_target(self):
        # x1, x2 -> two 3-cycles generate Alt(3), not Sym(3)
        free = GroupPresentation(2, ())
        with pytest.raises(ValueError, match="do not generate S3"):
            kernel_abelianization(free, [(1, 2, 0), (2, 0, 1)], symmetric(3))

    def test_images_outside_target(self):
        # a 3-cycle of degree 4 is no element of C3
        with pytest.raises(ValueError, match="not all in C3"):
            kernel_abelianization(GroupPresentation(1, ()), [(1, 2, 0, 3)],
                                  cyclic(3))

    def test_images_break_a_relator(self):
        # a 6-cycle generates C6 but is no image of x in Z/3
        g = GroupPresentation(1, ((1, 1, 1),))
        with pytest.raises(ValueError, match="does not stabilize"):
            kernel_abelianization(g, [(1, 2, 3, 4, 5, 0)], cyclic(6))

    def test_rows_need_a_transitive_action(self):
        with pytest.raises(ValueError, match="not transitive"):
            abelianized_schreier_rows(GroupPresentation(1, ()),
                                      [[1], [0], [2]])

    def test_images_for_another_presentation(self):
        # epimorphisms simplifies by default, so its images are on the
        # simplified group's generators, not on the 3 of the braid's
        # knot group
        g = knot_group(parse_braid("3 | 1 -2 1 -2"))
        assert g.ngens == 3
        homs = epimorphisms(g, cyclic(5))
        assert homs and len(homs[0]) < 3
        with pytest.raises(ValueError,
                           match=f"{len(homs[0])} images given for a "
                                 "presentation on 3 generators"):
            kernel_abelianization(g, homs[0], cyclic(5))

    def test_trefoil_group_onto_S3(self):
        # kernel = center x rank-2 free group (the center x^2 = y^3 dies
        # in S3, and central extensions of free groups split), so Z^3
        g = tietze_simplify(knot_group(parse_braid("2 | 1 1 1")))
        eps = epimorphisms(g, symmetric(3), simplify=False)
        assert len(eps) == 1
        assert kernel_abelianization(g, eps[0], symmetric(3)) == [0, 0, 0]


def _reversed_generators(g: GroupPresentation) -> GroupPresentation:
    n = g.ngens
    return GroupPresentation(n, tuple(
        tuple(n + 1 - x if x > 0 else -(n + 1 + x) for x in r)
        for r in g.relators))


class TestMutantCovers:
    """Mutants have homeomorphic double branched covers."""

    @pytest.fixture(scope="class")
    def covers(self):
        out = [quotients.Cover(pretzel(3, 3, -2, -3)).presentation,
               quotients.Cover(pretzel(3, 3, -3, -2)).presentation]
        assert [c.ngens for c in out] == [3, 3]
        return out

    @pytest.mark.parametrize("group,count", [
        (alternating(5), 12), (symmetric(5), 0), (psl2(7), 60),
    ], ids=["Alt(5)", "Sym(5)", "PSL(2,7)"])
    def test_counts(self, covers, group, count):
        assert [len(epimorphisms(c, group, simplify=False))
                for c in covers] == [count, count]

    @pytest.mark.parametrize("group", [alternating(5), psl2(7), symmetric(5)],
                             ids=["Alt(5)", "PSL(2,7)", "Sym(5)"])
    def test_key_matches_regular_table(self, covers, group):
        # each kernel accepted by its point-action key has exactly one
        # regular table among the kernels the regular tables accept
        e, points = identity(group.degree), range(group.degree)
        tabled_group = PermGroup(group.degree, group.generators, group.name,
                                 group.normalizing)
        for c in covers:
            keyed = epimorphisms(c, group, simplify=False)
            tabled = epimorphisms(c, tabled_group, simplify=False)
            assert len(keyed) == len(tabled)
            assert sorted(_regular_table(h, e) for h in keyed) == \
                sorted(_regular_table(h, e) for h in tabled)
            assert sorted(_point_key(h, points) for h in keyed) == \
                sorted(_point_key(h, points) for h in tabled)
            assert len({_point_key(h, points) for h in keyed}) == len(keyed)

    # digests of the ordered lists of homs `epimorphisms` returns, taken
    # while each candidate had its own Schreier-Sims and its key read from
    # every point: a cheaper acceptance must not move the search's order
    # or its decisions
    FROZEN_SEARCHES = {
        "Alt(5)": (12, ["50d4f42ab1f5191c", "650a5d0086ff479b"]),
        "PSL(2,7)": (60, ["0df0d2b576b9db1a", "82aeeca5b30bfa3d"]),
        "Alt(7)": (145, ["2047c2793ea85762", "c06bbdfd2d718277"]),
        "PSL(2,11)": (50, ["781a0eb12e097fc0", "c03c03c1c5364a61"]),
    }

    @pytest.mark.parametrize("name", FROZEN_SEARCHES)
    def test_frozen_search_output(self, covers, name):
        count, digests = self.FROZEN_SEARCHES[name]
        group = target(name)
        homs = [epimorphisms(c, group, simplify=False) for c in covers]
        assert [len(h) for h in homs] == [count, count]
        assert [hashlib.sha256(repr(h).encode()).hexdigest()[:16]
                for h in homs] == digests

    def test_images_outside_target(self, covers):
        # conjugating by the point swap (0 1), which is not in PGL(2,7),
        # keeps the relators and the order of the image but leaves PSL(2,7)
        g = psl2(7)
        swap = (1, 0) + tuple(range(2, g.degree))
        h = [perm_mul(perm_mul(swap, p), swap)
             for p in epimorphisms(covers[0], g, simplify=False)[0]]
        assert not g.elements().issuperset(h)
        with pytest.raises(ValueError, match="not all in PSL"):
            kernel_abelianization(covers[0], h, g)

    def test_kernels_against_presentation_route(self, covers):
        # Alt(6) is the target searched by regular tables, not by keys
        c = covers[0]
        for group, total, checked in ((alternating(5), 12, 12),
                                      (psl2(7), 60, 3),
                                      (alternating(6), 30, 3)):
            homs = epimorphisms(c, group, simplify=False)
            assert len(homs) == total
            for h in homs[:checked]:
                assert kernel_abelianization(c, h, group) == \
                    _presentation_route(c, h, group)

    def test_alt5_kernels(self, covers):
        a5 = alternating(5)
        left, right = (_kernels(c, epimorphisms(c, a5, simplify=False), a5)
                       for c in covers)
        assert len(left) == 12
        assert left == right
        flipped = _reversed_generators(covers[0])
        assert _kernels(flipped, epimorphisms(flipped, a5, simplify=False),
                        a5) == left


@pytest.mark.parametrize("seed", [None, 3, 29],
                         ids=["P(3,3,-2,-3)", "braid-3", "braid-29"])
def test_subgroup_abelianization_against_presentation_route(seed):
    if seed is None:
        g = quotients.Cover(pretzel(3, 3, -2, -3)).presentation
    else:
        b = random_knot_braid(random.Random(seed), 5, 18)
        g = quotients.Cover(braid_closure(b)).presentation
    tables = low_index_subgroups(g, 4)
    assert len(tables) > 1
    for t in tables:
        assert subgroup_abelianization(g, t) == \
            reidemeister_schreier(g, t).abelian_invariants()


@pytest.fixture
def tables_tried(monkeypatch):
    """A one-item list: the calls of `Budget.tick` made by the searches of
    `presentations`, one per coset table `low_index_subgroups` tries."""
    calls = [0]

    class Spy(presentations.Budget):
        def tick(self):
            calls[0] += 1
            super().tick()

    monkeypatch.setattr(presentations, "Budget", Spy)
    return calls


class TestLowIndexSearch:
    def test_frozen_cover_is_the_cover(self):
        live = quotients.Cover(braid_closure(parse_braid(SLOW_COVER_BRAID)))
        frozen = GroupPresentation(3, SLOW_COVER_THREE_GENERATORS)
        assert frozen.abelian_invariants() == \
            live.presentation.abelian_invariants()
        a5 = alternating(5)
        assert len(epimorphisms(frozen, a5, simplify=False)) == \
            len(epimorphisms(live.presentation, a5, simplify=False))

    # tables tried and classes found, measured while each relator scan
    # read every table entry twice: the scan must make the same
    # deductions in the same order
    @pytest.mark.parametrize("ngens, relators, max_index, tried, classes", [
        (4, P5_3_M2_M3_FOUR_GENERATORS, 3, 1296, 2),
        (4, P5_3_M2_M3_FOUR_GENERATORS, 4, 44835, 3),
        (3, SLOW_COVER_THREE_GENERATORS, 5, 4635, 2),
    ], ids=("four_generators-3", "four_generators-4", "slow_cover-5"))
    def test_tables_tried(self, tables_tried, ngens, relators, max_index,
                          tried, classes):
        g = GroupPresentation(ngens, relators)
        tables = low_index_subgroups(g, max_index, max_tables=None)
        assert (tables_tried[0], len(tables)) == (tried, classes)
