"""Free-group calculus, presentations, coset tables, and covers."""

import ast
import inspect
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (PACKAGE, nontrivial_knot_braid, pretzel,
                      public_callables, random_knot_braid, table_key)
from knotmut import quotients
from knotmut.alexander import alexander_braid, h1_double_cover
from knotmut.diagram import braid_closure, named_knot, parse_braid
from knotmut.freegroup import (artin_action, fox_derivative_abelian,
                               freely_reduce, inverse_word, substitute)
from knotmut.laurent import LaurentPoly
from knotmut.permgroups import alternating, identity, psl2
from knotmut.presentations import (GroupPresentation, _cyclic_reduce,
                                   _schreier_steps, _substring_move,
                                   abelianized_schreier_rows,
                                   branched_cover_from_meridians,
                                   knot_group, low_index_subgroups,
                                   reidemeister_schreier,
                                   subgroup_abelianization, tietze_simplify,
                                   wirtinger_presentation)
from knotmut.quotients import epimorphisms
from knotmut.skein2 import ResourceLimitExceeded

words = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]),
                 max_size=8).map(tuple)


class TestFreeGroup:
    def test_freely_reduce(self):
        assert freely_reduce((1, -1, 2)) == (2,)
        assert freely_reduce((1, 2, -2, -1)) == ()
        assert freely_reduce((2, 1, -1, -1)) == (2, -1)

    @given(words)
    def test_inverse(self, w):
        assert freely_reduce(w + inverse_word(w)) == ()

    def test_substitute(self):
        images = {1: (2,), 2: (1, 1)}
        assert substitute((1, 2, -1), images) == (2, 1, 1, -2)
        # a generator without an image stays, and cancels like any letter
        assert substitute((1, 3, -1), {1: (2,)}) == (2, 3, -2)
        assert substitute((3, 1, -3), {1: (-3,)}) == (-3,)


class TestArtinAction:
    def test_braid_relation(self):
        a = artin_action(parse_braid("3 | 1 2 1"))
        b = artin_action(parse_braid("3 | 2 1 2"))
        assert a == b

    def test_inverse_composes_to_identity(self):
        b = parse_braid("3 | 1 -2 1")
        fwd = artin_action(b)
        back = artin_action(b.inverse())
        images = {k + 1: fwd[k] for k in range(3)}
        for k in range(3):
            assert substitute(back[k], images) == (k + 1,)

    @given(st.integers(0, 2**30))
    @settings(max_examples=25, deadline=None)
    def test_preserves_full_twist_word(self, seed):
        # the product x1 x2 ... xn is fixed by every braid
        b = random_knot_braid(random.Random(seed), max_letters=8)
        images = {k + 1: img for k, img in enumerate(artin_action(b))}
        full = tuple(range(1, b.strands + 1))
        assert substitute(full, images) == full


class TestFoxCalculus:
    def test_single_letters(self):
        one = LaurentPoly.one("t")
        assert fox_derivative_abelian((1,), 1) == one
        assert fox_derivative_abelian((-1,), 1) == \
            LaurentPoly("t", {-1: -1})
        assert fox_derivative_abelian((2,), 1).is_zero()

    @given(words, words)
    def test_product_rule(self, u, v):
        # d(uv) = du + t^|u| dv with |u| the abelianized exponent sum
        for gen in (1, 2):
            lhs = fox_derivative_abelian(u + v, gen)
            exponent = sum(1 if g > 0 else -1 for g in u)
            shift = LaurentPoly("t", {exponent: 1})
            rhs = fox_derivative_abelian(u, gen) + \
                shift * fox_derivative_abelian(v, gen)
            assert lhs == rhs

    def test_alexander_via_fox(self):
        assert alexander_braid(parse_braid("2 | 1 1 1")) == \
            LaurentPoly("t", {-1: 1, 0: -1, 1: 1})


class TestKnotGroups:
    def test_abelianization_is_Z(self):
        from knotmut.diagram import KNOT_BRAIDS
        for name in ("trefoil", "figure8", "5_2"):
            g = knot_group(parse_braid(KNOT_BRAIDS[name]))
            assert g.abelian_invariants() == [0]

    def test_wirtinger_matches(self):
        for name in ("trefoil", "figure8", "5_2"):
            d = named_knot(name)
            g = wirtinger_presentation(d)
            assert g.abelian_invariants() == [0]

    def test_meridian_square_quotient(self):
        # the cover rewrites the quotient by x_1^2 itself: the unknot's
        # group Z gives the trivial group of the 3-sphere
        g = branched_cover_from_meridians(knot_group(parse_braid("1 |")))
        assert g == GroupPresentation(1, ((1,),))


class TestBranchedCover:
    H1 = {"trefoil": [3], "figure8": [5], "5_1": [5], "5_2": [7],
          "6_1": [9], "6_2": [11], "6_3": [13]}

    @pytest.mark.parametrize("name", sorted(H1))
    def test_h1_known(self, name):
        from knotmut.diagram import KNOT_BRAIDS
        g = branched_cover_from_meridians(
            knot_group(parse_braid(KNOT_BRAIDS[name])))
        assert tietze_simplify(g).abelian_invariants() == self.H1[name]

    @pytest.mark.parametrize("name", ("trefoil", "figure8", "6_2"))
    def test_pd_route_matches(self, name):
        g = branched_cover_from_meridians(
            wirtinger_presentation(named_knot(name)))
        assert tietze_simplify(g).abelian_invariants() == self.H1[name]

    @given(st.integers(0, 2**30))
    @settings(max_examples=10, deadline=None)
    def test_order_matches_determinant(self, seed):
        b = nontrivial_knot_braid(random.Random(seed), max_letters=8)
        g = branched_cover_from_meridians(knot_group(b))
        inv = tietze_simplify(g).abelian_invariants()
        p = alexander_braid(b)
        det = abs(sum(c if e % 2 == 0 else -c for e, c in p.coeffs.items()))
        order = 1
        for x in inv:
            order *= x
        assert order == det  # det != 0 for knots, so H1 is finite


# the generators' permutations of an action of F_k (k <= 3) on n <= 6 points
free_actions = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3))


class TestCosetTables:
    @pytest.fixture(scope="class")
    def cover_tables(self):
        g = quotients.Cover(pretzel(3, 3, -2, -3)).presentation
        return g, low_index_subgroups(g, 4)

    def test_subgroup_of_Z(self):
        # index-3 subgroup of Z is Z
        g = GroupPresentation(1, ())
        sub = reidemeister_schreier(g, [[1], [2], [0]])
        assert sub.abelian_invariants() == [0]

    def test_subgroup_of_order_two(self):
        g = GroupPresentation(1, ((1, 1),))
        sub = reidemeister_schreier(g, [[1], [0]])
        assert sub.abelian_invariants() == []

    @given(free_actions)
    @example([[1, 2, 0], [0, 1, 2]])
    @settings(max_examples=60, deadline=None)
    def test_index_preserves_euler(self, cover_tables, perms):
        # Schreier's index formula: an index-n subgroup of a group on k
        # generators has n(k - 1) + 1 Schreier generators, whichever
        # spanning tree picks them, and one of F_k is free on them
        table = list(zip(*perms))
        assume(table_key(table) is not None)  # transitive
        free = GroupPresentation(len(perms), ())
        rank = len(table) * (free.ngens - 1) + 1
        sub = reidemeister_schreier(free, table)
        assert (sub.ngens, sub.relators) == (rank, ())
        assert sub.abelian_invariants() == [0] * rank
        assert abelianized_schreier_rows(free, table) == ([], rank)
        g, tables = cover_tables
        for t in tables:
            rank = len(t) * (g.ngens - 1) + 1
            assert reidemeister_schreier(g, t).ngens == rank
            assert abelianized_schreier_rows(g, t)[1] == rank

    def test_refuses_two_sided_table(self, cover_tables):
        # a row of the images of x_1, x_1^-1, x_2, ... would be read as
        # another action, its second entry as the image of x_2
        g, tables = cover_tables
        t = next(t for t in tables if len(t) == 3)
        backs = [sorted(range(3), key=p.__getitem__) for p in zip(*t)]
        two_sided = [[d for x, back in zip(row, backs) for d in (x, back[c])]
                     for c, row in enumerate(t)]
        for route in (reidemeister_schreier, abelianized_schreier_rows,
                      subgroup_abelianization):
            with pytest.raises(ValueError, match="rows must have 3 entries"):
                route(g, two_sided)


def _tree(g, table) -> set[tuple[int, int]]:
    """The edges (coset, generator index) of `_schreier_steps`' tree."""
    steps, _ = _schreier_steps(g, table)
    return {(c, k) for k, ((cols, _, _), _) in enumerate(steps)
            for c, j in enumerate(cols) if j < 0}


def _bfs_tree(table) -> set[tuple[int, int]]:
    """The edges of the breadth-first tree from coset 0 along forward
    edges, generators in their own order."""
    seen, order, tree = {0}, [0], set()
    for c in order:
        for k, d in enumerate(table[c]):
            if d not in seen:
                seen.add(d)
                order.append(d)
                tree.add((c, k))
    return tree


def _row_entries(g, table, tree) -> int:
    """Entries of the abelianized Schreier rows over a spanning tree: each
    row of (relator, coset) holds every non-tree edge the walk crosses."""
    back = [{d: c for c, d in enumerate(p)} for p in zip(*table)]
    total = 0
    for r in g.relators:
        for c in range(len(table)):
            crossed, cur = set(), c
            for x in r:
                k = abs(x) - 1
                start = cur if x > 0 else back[k][cur]
                if (start, k) not in tree:
                    crossed.add((start, k))
                cur = table[cur][k] if x > 0 else start
            total += len(crossed)
    return total


def _seeded_low_index_tables():
    """Low-index tables to index 5 of the knot groups of eight seeded
    non-trivial knot braids, on their own 2-3 generators."""
    for seed in range(8):
        g = knot_group(nontrivial_knot_braid(random.Random(seed)))
        for t in low_index_subgroups(g, 5):
            yield g, t


class TestSchreierTree:
    """The transversal is the depth-first tree that walks each cycle of
    the most-used generator whole."""

    @pytest.fixture(scope="class")
    def kernel_tables(self):
        g = quotients.Cover(pretzel(3, 3, -2, -3)).presentation
        out = {}
        for group in (alternating(5), psl2(7)):
            e = identity(group.degree)
            out[group.name] = group, [
                (h, quotients._regular_table(h, e))
                for h in epimorphisms(g, group, simplify=False)]
        return g, out

    @staticmethod
    def check_tree(g, table):
        n = len(table)
        tree = _tree(g, table)
        assert len(tree) == n - 1
        # every coset but 0 is entered by one tree edge, and the tree
        # edges lead back to coset 0 from every coset
        parent = {table[c][k]: c for c, k in tree}
        assert len(parent) == n - 1 and 0 not in parent
        for c in range(n):
            for _ in range(n):
                if c == 0:
                    break
                c = parent[c]
            assert c == 0
        # all but one edge of each cycle of the most-used generator
        uses = Counter(abs(x) for r in g.relators for x in r)
        a = max(range(g.ngens), key=lambda k: (uses[k + 1], -k))
        p = [row[a] for row in table]
        todo = set(range(n))
        while todo:
            c = start = todo.pop()
            off_tree = (c, a) not in tree
            while (c := p[c]) != start:
                todo.remove(c)
                off_tree += (c, a) not in tree
            assert off_tree == 1
        assert _row_entries(g, table, tree) == \
            sum(map(len, abelianized_schreier_rows(g, table)[0]))

    @pytest.mark.parametrize("name, count", [("A5", 12), ("PSL(2,7)", 60)])
    def test_kernel_tables(self, kernel_tables, name, count):
        g, tables = kernel_tables
        group, homs = tables[name]
        assert len(homs) == count
        for h, regular in homs:
            self.check_tree(g, regular)
            # the same invariants as the route that rewrites words
            assert quotients.kernel_abelianization(g, h, group) == \
                reidemeister_schreier(g, regular).abelian_invariants()

    def test_fewer_entries_than_breadth_first(self, kernel_tables):
        g, tables = kernel_tables
        _, a5 = tables["A5"]
        dfs = sum(_row_entries(g, t, _tree(g, t)) for _, t in a5)
        bfs = sum(_row_entries(g, t, _bfs_tree(t)) for _, t in a5)
        assert dfs < bfs

    def test_low_index_tables(self):
        tables = list(_seeded_low_index_tables())
        assert {len(t) for _, t in tables} == {1, 2, 3, 4, 5}
        assert {g.ngens for g, _ in tables} == {2, 3}
        for g, t in tables:
            self.check_tree(g, t)
            assert subgroup_abelianization(g, t) == \
                reidemeister_schreier(g, t).abelian_invariants()


class TestTietze:
    def test_preserves_abelianization(self):
        g = branched_cover_from_meridians(
            knot_group(parse_braid("3 | 1 1 1 2 -1 2")))
        assert tietze_simplify(g).abelian_invariants() == \
            g.abelian_invariants()

    @pytest.mark.parametrize("g,ngens", [
        (GroupPresentation(2, ()), 2),
        (GroupPresentation(3, ((1, 1),)), 3),
        (GroupPresentation(3, ((1, 2, -3), (1, 1))), 2),
    ])
    def test_keeps_free_generators(self, g, ngens):
        # a generator in no relator is a free factor, not a trivial one
        h = tietze_simplify(g)
        assert h.ngens == ngens
        assert h.abelian_invariants() == g.abelian_invariants()

    def test_cyclic_cover_of_trefoil(self):
        g = tietze_simplify(branched_cover_from_meridians(
            knot_group(parse_braid("2 | 1 1 1"))))
        assert g.ngens == 1
        assert sorted(len(r) for r in g.relators) == [3]


# The first 40 braids of random.Random(5) that close to knots, each
# drawn as: n strands from (5, 6), then 14 letters, each a random sign
# times randint(1, n - 1).  None has 6 strands: a 6-cycle is an odd
# permutation, and 14 letters give an even one.  Generator elimination
# without substring moves left 74 generators in all on the braid route,
# 59 on the Wirtinger route, and 48 taking the smaller of the two.
ROUTE_SAMPLE = (
    "5 | -4 -2 -1 2 -1 1 -4 4 -1 1 1 3 -2 2",
    "5 | -1 3 -2 3 -4 2 3 1 1 -2 -4 -3 1 -1",
    "5 | -2 1 -2 4 -2 -3 -4 -2 -3 -3 2 4 1 1",
    "5 | 3 -1 1 -4 -1 -2 1 3 -2 -1 2 -4 -1 -4",
    "5 | 3 -3 3 1 3 -3 2 4 2 4 -2 -4 3 -3",
    "5 | 3 4 -2 -2 4 -2 1 3 1 -4 -1 2 4 4",
    "5 | -4 1 4 -1 1 -4 -4 2 -2 -2 -1 -2 -4 3",
    "5 | -3 -1 2 -1 4 4 2 4 -4 4 1 -1 2 -1",
    "5 | -3 -2 -3 4 2 -1 1 3 3 -3 -4 1 -3 3",
    "5 | 3 -3 -4 1 3 1 -2 4 3 -1 -3 3 3 -4",
    "5 | 4 4 -3 2 4 2 2 4 4 -2 -1 2 3 -3",
    "5 | 3 -1 -1 4 4 2 1 4 -4 -3 1 -2 4 1",
    "5 | -4 3 -1 -1 1 4 -2 -3 4 -4 2 -1 -1 -3",
    "5 | 1 3 -3 -2 -3 4 2 -1 -4 1 4 3 -1 -1",
    "5 | -3 1 -4 -1 3 -1 1 -3 -2 3 -3 4 -1 -4",
    "5 | 1 -2 3 -1 3 -1 2 -3 4 2 -3 -4 -3 -3",
    "5 | -2 -2 -2 3 -2 -1 3 -4 3 1 -3 3 -4 -1",
    "5 | -2 4 1 -4 3 -2 4 3 4 4 -3 3 2 2",
    "5 | -4 -1 3 2 1 3 -4 2 -4 -1 -4 -3 4 2",
    "5 | -3 4 -2 -1 -2 -4 -2 3 -2 4 3 -3 3 -3",
    "5 | -1 3 -3 3 3 -2 3 4 1 -4 -4 -2 -2 2",
    "5 | 4 -1 -1 -2 2 1 -1 3 2 -3 1 1 -1 2",
    "5 | 3 3 -2 -3 4 -3 3 2 -3 -4 -1 3 -3 2",
    "5 | -4 1 -2 3 -1 -1 2 -3 -1 -1 -1 2 3 3",
    "5 | -3 -1 4 2 1 1 -2 4 2 1 -4 3 -2 -1",
    "5 | 4 -4 -3 -3 3 -1 -2 -3 2 -2 -4 -2 3 3",
    "5 | -3 4 -2 1 -2 4 4 3 1 4 -2 -3 -2 -3",
    "5 | -4 4 -1 -4 -1 -3 4 3 -2 -1 3 -4 3 -3",
    "5 | 1 1 -1 -2 3 -3 -3 3 1 4 -3 3 -1 3",
    "5 | 2 -3 1 2 -2 2 1 -1 3 4 -3 -1 4 1",
    "5 | -2 1 4 -4 4 3 4 -3 2 4 -3 -4 -1 -1",
    "5 | 1 1 -3 -2 -4 -3 -4 2 -4 2 1 -3 -2 -1",
    "5 | 4 -1 1 -3 -4 -2 3 -4 -1 -2 4 3 -1 -1",
    "5 | -1 3 1 1 4 -2 -2 -2 -1 1 -1 -2 -2 -1",
    "5 | -3 4 4 -3 4 -3 -2 2 -4 2 3 -4 -4 1",
    "5 | -4 4 -3 -1 -3 -3 3 -1 -2 -4 3 -3 -3 1",
    "5 | 1 -1 -1 1 2 3 2 4 4 -4 3 1 2 2",
    "5 | -1 1 -1 3 4 2 -4 1 2 2 -4 -4 4 2",
    "5 | -4 -4 -1 -3 -1 4 2 1 3 -2 3 4 -4 4",
    "5 | -2 -2 4 -2 -3 -4 2 1 -4 1 3 3 1 3",
)

# the braids of the benchmark's cover-groups workload
BENCHMARK_BRAIDS = (
    "5 | 1 3 -3 3 -3 -3 1 4 4 -1 1 1 -2 4",
    "5 | -3 3 -2 -2 -4 1 4 -2 -4 1 -2 3 -2 -1",
    "5 | 4 2 -1 -1 -1 -4 -4 -2 2 -2 -1 3 -2 -2",
)


def both_routes(spec):
    """The simplified double branched cover of a braid's closure, built
    from the braid's knot group and from the closure's Wirtinger
    presentation."""
    b = parse_braid(spec)
    return [tietze_simplify(branched_cover_from_meridians(g))
            for g in (knot_group(b), wirtinger_presentation(braid_closure(b)))]


def letters(g):
    return sum(len(_cyclic_reduce(r)) for r in g.relators)


small_presentations = st.integers(1, 4).flatmap(lambda n: st.builds(
    GroupPresentation, st.just(n), st.lists(st.lists(
        st.sampled_from([x for g in range(1, n + 1) for x in (g, -g)]),
        min_size=1, max_size=10).map(tuple), max_size=5).map(tuple)))


class TestTietzeRoutes:
    """Covers with the fewest generators whichever route built them."""

    def test_sample_keeps_at_most_three_generators(self):
        totals = [0, 0]
        for spec in ROUTE_SAMPLE:
            h1 = h1_double_cover(braid_closure(parse_braid(spec)))
            for k, g in enumerate(both_routes(spec)):
                assert g.ngens <= 3, (spec, k, str(g))
                assert g.abelian_invariants() == h1, (spec, k)
                totals[k] += g.ngens
        # each route alone does better than the better of the two did
        assert max(totals) <= 48

    @pytest.mark.parametrize("spec", BENCHMARK_BRAIDS)
    def test_alt5_counts_agree(self, spec):
        a5 = alternating(5)
        counts = {len(epimorphisms(g, a5, simplify=False))
                  for g in both_routes(spec)}
        assert len(counts) == 1

    @given(small_presentations)
    @settings(max_examples=200, deadline=None)
    def test_random_presentations(self, g):
        h = tietze_simplify(g)
        assert h.abelian_invariants() == g.abelian_invariants()
        assert h.ngens <= g.ngens
        # the letter count grows only where a generator is eliminated
        if h.ngens == g.ngens:
            assert letters(h) <= letters(g)

    @given(small_presentations)
    @settings(max_examples=200, deadline=None)
    def test_substring_move_shortens(self, g):
        rels = [r for r in map(_cyclic_reduce, g.relators) if r]
        shorter = _substring_move(rels)
        if shorter is not None:
            h = GroupPresentation(g.ngens, tuple(shorter))
            assert letters(h) < letters(g)
            assert h.abelian_invariants() == g.abelian_invariants()

    def test_substring_move(self):
        # the longer relator holds all of the shorter: x3 = 1
        rels = [(1, 2, 1, 3, 3), (1, 2, 1, 3)]
        assert _substring_move(rels) == [(3,), (1, 2, 1, 3)]
        # x1 x2 x3 is 3 letters of the 5 of x1 x2 x3 x6^-2, a rotation
        # of the second relator's inverse
        rels = [(1, 2, 3, 4, 5), (-3, -2, -1, 6, 6)]
        assert _substring_move(rels) == [(6, 6, 4, 5), (-3, -2, -1, 6, 6)]
        # the common subword may wrap around the end of a relator
        rels = [(2, -4, -4, 3, 1), (5, 5, 5, 4, 4, -2, -1, -3)]
        assert _substring_move(rels) == [(2, -4, -4, 3, 1), (5, 5, 5)]
        assert _substring_move([(1, 2, 3, 4), (1, 2, 5, 5)]) is None


class TestLowIndex:
    def test_trefoil_group_census(self):
        g = tietze_simplify(knot_group(parse_braid("2 | 1 1 1")))
        tables = low_index_subgroups(g, 5)
        counts = {}
        for t in tables:
            counts[len(t)] = counts.get(len(t), 0) + 1
        assert counts == {1: 1, 2: 1, 3: 2, 4: 3, 5: 2}

    def test_cyclic_three(self):
        g = GroupPresentation(1, ((1, 1, 1),))
        tables = low_index_subgroups(g, 4)
        got = sorted((len(t), subgroup_abelianization(g, t)) for t in tables)
        assert got == [(1, [3]), (3, [])]

    @pytest.mark.parametrize("max_index", [0, -3])
    def test_index_below_one_refused(self, max_index):
        # no subgroup has index below 1, not even the whole group
        with pytest.raises(ValueError, match="at least 1"):
            low_index_subgroups(GroupPresentation(1, ((1, 1, 1),)), max_index)

    def test_budget_exhausted(self):
        g = tietze_simplify(knot_group(parse_braid("2 | 1 1 1")))
        with pytest.raises(ResourceLimitExceeded):
            low_index_subgroups(g, 3, max_tables=1)

    def test_budget_message_says_how_far(self):
        g = tietze_simplify(knot_group(parse_braid("2 | 1 1 1")))
        # the whole group is complete on the third table tried
        with pytest.raises(ResourceLimitExceeded, match=(
                r"^node budget exhausted after 3 tables tried, "
                r"1 subgroups found$")):
            low_index_subgroups(g, 3, max_tables=3)

    def test_mutant_cover_each_class_once(self):
        # partial tables that a BFS relabelling from another basepoint
        # makes smaller are dropped: 4,225 tables tried here, against
        # 8,696 when every class is built once per basepoint
        g = quotients.Cover(pretzel(3, 3, -2, -3)).presentation
        assert g.ngens == 3
        tables = low_index_subgroups(g, 5, max_tables=6000)
        assert len(tables) == 25
        assert len({table_key(t) for t in tables}) == 25

    def test_abelianization_of_index2(self):
        # the trefoil group has a single index-2 subgroup; H1 = Z + Z/3
        g = tietze_simplify(knot_group(parse_braid("2 | 1 1 1")))
        twos = [t for t in low_index_subgroups(g, 2) if len(t) == 2]
        assert len(twos) == 1
        assert subgroup_abelianization(g, twos[0]) == [0, 3]


def _takes_a_diagram(p: inspect.Parameter) -> bool:
    return p.name == "d" or "PlanarDiagram" in str(p.annotation)


def _calls(path, name: str) -> bool:
    """Whether the module at `path` calls `name`, plain or as an attribute."""
    return any(isinstance(n, ast.Call) and name in (
        getattr(n.func, "id", None), getattr(n.func, "attr", None))
        for n in ast.walk(ast.parse(path.read_text())))


class TestOneCoverDoor:
    """A knot's cover is built by `quotients.Cover` alone, from the braid
    that its diagram carries, so no diagram is paired with a braid; and
    its searches run only as report items."""

    def test_no_diagram_beside_a_braid(self):
        found = []
        for name, fn in public_callables(init=True):
            params = inspect.signature(fn).parameters
            if "braid" in params and any(map(_takes_a_diagram,
                                             params.values())):
                found.append(name)
        assert found == []
        assert "knotmut.quotients.Cover.__init__" in dict(
            public_callables(init=True))

    def test_only_the_cover_rewrites_meridians(self):
        callers = [p.name for p in sorted(PACKAGE.glob("*.py"))
                   if _calls(p, "branched_cover_from_meridians")]
        assert callers == ["quotients.py"]

    @pytest.mark.parametrize("search", ("quotients", "kernel_abelianizations",
                                        "lowindex"))
    def test_only_the_report_searches_the_cover(self, search):
        # a second caller would be a second front door to a report row
        callers = [p.name for p in sorted(PACKAGE.glob("*.py"))
                   if _calls(p, search)]
        assert callers == ["report.py"]
