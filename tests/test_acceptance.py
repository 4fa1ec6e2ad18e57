"""End-to-end acceptance checks for every subsystem.

Criteria that need externally supplied diagrams read them from
data/paper_knots.txt and skip when an entry is absent.
"""

import os
import random

import pytest

from test_quotients import brute_force_epi_count, evaluate_word
from knotmut.alexander import alexander_braid, alexander_pd, h1_double_cover
from knotmut.bracket import bracket_state_sum, jones, kauffman_bracket
from knotmut.budget import time_limit
from knotmut.colored import colored_jones
from knotmut.diagram import (PlanarDiagram, braid_closure, connected_sum,
                             load_knot_file, mirror, named_knot, parse_braid)
from knotmut.laurent import LaurentPoly, LaurentPoly2, parse_poly
from knotmut.permgroups import (alternating, builtin_targets, identity, psl2,
                                symmetric)
from knotmut.presentations import (GroupPresentation,
                                   branched_cover_from_meridians, knot_group,
                                   low_index_subgroups, reidemeister_schreier,
                                   subgroup_abelianization, tietze_simplify)
from knotmut.quotients import (Cover, _point_key, epimorphisms,
                               kernel_abelianization)
from knotmut.skein2 import (ResourceLimitExceeded, homfly, kauffman_f,
                            p_whitehead_plus)
from knotmut.tangles import AXES, mutate, random_decomposition
from conftest import (homfly_mirror, random_braid, random_knot_braid,
                      random_knot_diagram, table_key)

DATA_FILE = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                         "paper_knots.txt")


def external_knot(name):
    """The diagram of a table knot, or skip."""
    if os.path.exists(DATA_FILE):
        for d in load_knot_file(DATA_FILE):
            if d.name == name:
                return d
    pytest.skip(f"no diagram available for {name}")


def cover_group(name):
    return Cover(external_knot(name)).presentation


class TestBracketOracle:
    """Criterion 1: fast bracket agrees with the brute-force state sum."""

    def test_random_diagrams(self):
        rng = random.Random(101)
        for _ in range(200):
            d = braid_closure(random_braid(rng, max_letters=10))
            assert kauffman_bracket(d) == bracket_state_sum(d)


class TestJonesRegression:
    """Criterion 2: known values and mirror symmetry."""

    def test_unknot(self):
        assert jones(PlanarDiagram([], 1, "unknot")) == LaurentPoly.one("t")

    def test_right_trefoil(self):
        d = braid_closure(parse_braid("2 | -1 -1 -1"))
        assert jones(d) == parse_poly("-t^-4 + t^-3 + t^-1", "t")

    def test_figure8(self):
        assert jones(named_knot("figure8")) == \
            parse_poly("t^-2 - t^-1 + 1 - t + t^2", "t")

    def test_mirror_symmetry(self):
        rng = random.Random(102)
        for _ in range(100):
            d = random_knot_diagram(rng, max_letters=10)
            assert jones(mirror(d)) == jones(d).invert_var()


class TestMutationInvariance:
    """Criterion 3: V, Alexander, HOMFLY, F, small colors and H1 of the
    double branched cover survive mutation of a two-tangle decomposition
    along all three axes."""

    def test_polynomials_on_random_decompositions(self):
        rng = random.Random(103)
        for _ in range(50):
            td = random_decomposition(rng, max_crossings=12)
            d = td.glue("base")
            base = (jones(d), alexander_pd(d), homfly(d), kauffman_f(d),
                    colored_jones(d, 2), colored_jones(d, 3),
                    h1_double_cover(d))
            for axis in AXES:
                m = mutate(td, axis)
                got = (jones(m), alexander_pd(m), homfly(m), kauffman_f(m),
                       colored_jones(m, 2), colored_jones(m, 3),
                       h1_double_cover(m))
                assert got == base


class TestColoredStructure:
    """Criterion 4: structural identities of the colored invariant."""

    def test_color_one_is_trivial(self):
        rng = random.Random(104)
        diagrams = [named_knot(n) for n in
                    ("unknot", "trefoil", "figure8", "hopf_plus", "6_2")]
        diagrams += [braid_closure(random_braid(rng)) for _ in range(10)]
        for d in diagrams:
            assert colored_jones(d, 1) == LaurentPoly.one("q")

    def test_color_two_is_jones(self):
        rng = random.Random(105)
        for _ in range(50):
            d = random_knot_diagram(rng, max_letters=10)
            assert colored_jones(d, 2) == jones(d).invert_var("q")

    @pytest.mark.parametrize("n", (2, 3))
    def test_connected_sum_multiplicative(self, n):
        a, b = named_knot("trefoil"), named_knot("figure8")
        assert colored_jones(connected_sum(a, b), n) == \
            colored_jones(a, n) * colored_jones(b, n)


class TestDoubleCoverHomology:
    """Criterion 6: first homology of the double branched cover."""

    def test_known_values(self):
        from knotmut.diagram import KNOT_BRAIDS
        for name, h1 in (("trefoil", [3]), ("figure8", [5])):
            g = tietze_simplify(branched_cover_from_meridians(
                knot_group(parse_braid(KNOT_BRAIDS[name]))))
            assert g.abelian_invariants() == h1

    def test_order_is_determinant(self):
        rng = random.Random(106)
        for _ in range(50):
            b = random_knot_braid(rng, max_letters=10)
            g = tietze_simplify(branched_cover_from_meridians(knot_group(b)))
            inv = g.abelian_invariants()
            p = alexander_braid(b)
            det = abs(sum(c if e % 2 == 0 else -c
                          for e, c in p.coeffs.items()))
            order = 1
            for x in inv:
                order *= x
            assert order == det


def cycle_type_reps(n: int) -> list[tuple[int, ...]]:
    """One permutation per cycle type of S_n: the points 0..n-1 cut, in
    order, into consecutive cycles with the lengths of a partition of n."""
    def partitions(m, largest):
        if m == 0:
            yield ()
        for k in range(min(m, largest), 0, -1):
            for rest in partitions(m - k, k):
                yield (k,) + rest

    reps = []
    for parts in partitions(n, n):
        p, start = [], 0
        for k in parts:
            p.extend(range(start + 1, start + k))
            p.append(start)
            start += k
        reps.append(tuple(p))
    return reps


def representation_signatures(g: GroupPresentation, max_index: int) -> set:
    """Oracle for the low-index search: enumerate, generator by generator,
    all transitive permutation representations of degree <= max_index and
    key each by its point action up to relabelling (`_point_key`, None
    for an intransitive one).

    Conjugating every image by one permutation relabels the points, which
    leaves the key unchanged, so the first generator ranges over one
    permutation per cycle type only."""
    out = set()
    for n in range(1, max_index + 1):
        elems = sorted(symmetric(n).elements())
        firsts = cycle_type_reps(n)
        by_max = {}
        for r in g.relators:
            if r:
                by_max.setdefault(max(abs(x) for x in r), []).append(r)
        ident = identity(n)
        images = []

        def assign(k):
            if k > g.ngens:
                key = _point_key(images, range(n))
                if key is not None:
                    out.add((n, key))
                return
            for p in (firsts if k == 1 else elems):
                images.append(p)
                # relators are checked as soon as every generator they
                # mention has an image, pruning the remaining levels
                if all(evaluate_word(r, images, n) == ident
                       for r in by_max.get(k, [])):
                    assign(k + 1)
                images.pop()

        assign(1)
    return out


def random_presentation(rng: random.Random) -> GroupPresentation:
    # as many relators as generators keeps the subgroup counts small
    ngens = rng.choice([2, 3])
    letters = [g for s in (1, -1) for g in range(s, s * (ngens + 1), s)]
    rels = tuple(tuple(rng.choice(letters)
                       for _ in range(rng.randint(3, 6)))
                 for _ in range(ngens))
    return GroupPresentation(ngens, rels)


class TestSubgroupSearch:
    """Criterion 7: low-index search and epimorphism search vs brute force."""

    def test_low_index_vs_enumeration(self):
        rng = random.Random(107)
        for _ in range(20):
            g = random_presentation(rng)
            tables = low_index_subgroups(g, 5)
            got = {(len(t), table_key(t)) for t in tables}
            assert len(got) == len(tables)   # one table per class
            assert got == representation_signatures(g, 5)

    def test_schreier_rows_vs_rewritten_presentation(self):
        rng = random.Random(109)
        checked = 0
        for _ in range(20):
            g = random_presentation(rng)
            for t in low_index_subgroups(g, 4):
                assert subgroup_abelianization(g, t) == \
                    reidemeister_schreier(g, t).abelian_invariants()
                checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("braid", ("2 | 1 1 1", "3 | 1 -2 1 -2"))
    def test_epimorphisms_vs_enumeration(self, braid):
        g = tietze_simplify(knot_group(parse_braid(braid)))
        for grp in builtin_targets(60):
            assert len(epimorphisms(g, grp, simplify=False)) == \
                brute_force_epi_count(g, grp)

    def test_epimorphisms_on_random_presentations(self):
        rng = random.Random(108)
        targets = [t for t in builtin_targets(24)]
        for _ in range(5):
            g = random_presentation(rng)
            for grp in targets:
                assert len(epimorphisms(g, grp, simplify=False)) == \
                    brute_force_epi_count(g, grp)


def has_3_torsion(invariants: list[int]) -> bool:
    return any(x != 0 and x % 3 == 0 for x in invariants)


class TestCoverGroupDistinctions:
    """Criterion 8: quotient counts and subgroup homology separating
    specific pairs whose polynomial invariants agree.  Each check skips
    when the diagrams are not provided in data/paper_knots.txt."""

    def test_alt7_quotient_counts(self):
        g1, g2 = cover_group("14_41763"), cover_group("14_42021")
        grp = alternating(7)
        assert len(epimorphisms(g1, grp)) == 2
        assert len(epimorphisms(g2, grp)) == 0

    def test_psl2_13_quotient_counts(self):
        g1, g2 = cover_group("15_219244"), cover_group("15_228905")
        grp = psl2(13)
        assert len(epimorphisms(g1, grp)) == 1
        assert len(epimorphisms(g2, grp)) == 0

    def test_psl2_7_quotient_counts(self):
        g1, g2 = cover_group("15_220504"), cover_group("15_234873")
        grp = psl2(7)
        assert len(epimorphisms(g1, grp)) == 2
        assert len(epimorphisms(g2, grp)) == 1

    def test_index6_abelianizations(self):
        g1, g2 = cover_group("14_41739"), cover_group("14_42126")

        def index6(g):
            tables = [t for t in low_index_subgroups(g, 6) if len(t) == 6]
            return sorted(subgroup_abelianization(g, t) for t in tables)

        assert index6(g1) == sorted([[9, 9], [3, 5, 9], [2, 2, 16]])
        assert index6(g2) == sorted([[0, 4, 9], [3, 5, 9], [2, 2, 16]])

    def test_kernel_3_torsion(self):
        g1, g2 = cover_group("14_41721"), cover_group("14_42125")
        grp = psl2(7)
        eps1 = epimorphisms(g1, grp, simplify=False)
        eps2 = epimorphisms(g2, grp, simplify=False)
        assert len(eps1) == 1 and len(eps2) == 1
        a1 = kernel_abelianization(g1, eps1[0], grp)
        a2 = kernel_abelianization(g2, eps2[0], grp)
        assert has_3_torsion(a1)
        assert not has_3_torsion(a2)

    def test_kernel_free_rank(self):
        g1, g2 = cover_group("15_148731"), cover_group("15_156433")
        grp = alternating(6)
        eps1 = epimorphisms(g1, grp, simplify=False)
        eps2 = epimorphisms(g2, grp, simplify=False)
        assert len(eps1) == 1 and len(eps2) == 1
        a1 = kernel_abelianization(g1, eps1[0], grp)
        a2 = kernel_abelianization(g2, eps2[0], grp)
        assert a1.count(0) == 0          # entirely torsion
        assert a2.count(0) == 10         # free part of rank 10


# color-3 invariant of the 14-crossing pair member, coefficients of
# q^-31 .. q^31 in order
CJ3_14_29709 = [
    1, -2, -1, 0, 8, 5, -18, -21, 16, 64, 3, -108, -76, 140, 194, -105,
    -353, -5, 483, 217, -569, -468, 560, 734, -480, -957, 346, 1116,
    -187, -1208, 24, 1240, 132, -1208, -290, 1119, 442, -967, -571, 754,
    649, -493, -661, 240, 575, -17, -437, -110, 262, 158, -121, -129,
    24, 82, 9, -31, -17, 8, 9, -1, -1, -2, 1,
]


class TestColoredJonesTableValue:
    """Criterion 9: frozen color-3 value for 14_29709."""

    def test_value_and_mirror(self):
        d = external_knot("14_29709")
        frozen = LaurentPoly("q", {e - 31: c
                                   for e, c in enumerate(CJ3_14_29709)})
        got = {str(colored_jones(d, 3)), str(colored_jones(mirror(d), 3))}
        # the externally supplied diagram may be either chirality
        assert got == {str(frozen), str(frozen.invert_var())}


# Whitehead-double skein polynomials of the 14-crossing ribbon pair,
# one grid per knot: first line gives the even m-degree range, each
# further line an l-degree range followed by the coefficients.
PW_14_41721 = """
0 22
-10 8 9 57 142 174 98 3 -26 -10 1 1
-12 8 18 -40 -496 -1284 -1588 -984 -122 246 132 -10 -16
-12 8 -138 105 2229 5257 5895 3693 613 -1207 -843 0 92
-12 8 449 -253 -6064 -12412 -11763 -7097 -1346 3258 2546 88 -238
-12 8 -744 449 10297 18323 13979 7797 1633 -5010 -4098 -182 310
-12 8 680 -470 -11184 -17574 -10362 -5112 -1181 4587 3846 156 -212
-12 8 -354 277 7919 11167 4871 2016 516 -2576 -2210 -65 77
-12 8 104 -90 -3680 -4724 -1440 -466 -132 892 787 13 -14
-12 8 -16 15 1109 1313 257 58 18 -185 -169 -1 1
-12 4 1 -1 -208 -230 -25 -3 -1 21 20
-8 4 22 23 1 0 0 -1 -1
-8 -6 -1 -1
"""

PW_14_42125 = """
0 22
-10 8 9 57 142 174 98 3 -26 -10 1 1
-12 8 16 -56 -550 -1380 -1672 -984 -38 342 186 6 -14
-12 8 -136 149 2451 5745 6371 3693 137 -1695 -1065 -44 90
-12 8 449 -295 -6414 -13392 -12841 -7097 -268 4238 2896 130 -238
-12 8 -744 465 10571 19331 15237 7797 375 -6018 -4372 -198 310
-12 8 680 -472 -11298 -18148 -11176 -5112 -367 5161 3960 158 -212
-12 8 -354 277 7943 11349 5163 2016 224 -2758 -2234 -65 77
-12 8 104 -90 -3682 -4754 -1494 -466 -78 922 789 13 -14
-12 8 -16 15 1109 1315 261 58 14 -187 -169 -1 1
-12 4 1 -1 -208 -230 -25 -3 -1 21 20
-8 4 22 23 1 0 0 -1 -1
-8 -6 -1 -1
"""


def parse_pw_grid(text: str) -> LaurentPoly2:
    lines = [ln.split() for ln in text.strip().splitlines()]
    m_min, m_max = int(lines[0][0]), int(lines[0][1])
    coeffs = {}
    for i, row in enumerate(lines[1:]):
        m = m_min + 2 * i
        assert m <= m_max
        l_min = int(row[0])
        for j, c in enumerate(int(x) for x in row[2:]):
            if c:
                coeffs[(l_min + 2 * j, m)] = c
    return LaurentPoly2(coeffs)


class TestWhiteheadSkein:
    """Criterion 10: Whitehead-double skein polynomials."""

    def test_frozen_grids_differ(self):
        p1, p2 = parse_pw_grid(PW_14_41721), parse_pw_grid(PW_14_42125)
        assert p1 != p2
        # the grids only differ in coefficients, not in degree spans
        assert set(p1.coeffs) - set(p2.coeffs) == set()

    GRIDS = {"14_41721": PW_14_41721, "14_42125": PW_14_42125}

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_table_values(self, name):
        d = external_knot(name)
        expected = parse_pw_grid(self.GRIDS[name])
        try:
            with time_limit(600):
                got = p_whitehead_plus(d)
        except ResourceLimitExceeded:
            pytest.skip("Whitehead skein polynomial over budget")
        # the supplied diagram may be either chirality
        assert got in (expected, homfly_mirror(expected))

    @pytest.mark.parametrize("seed", (1, 3, 4))
    def test_mutation_invariance_small(self, seed):
        # small decompositions keep the doubled diagrams tractable
        td = random_decomposition(random.Random(seed), max_crossings=8)
        try:
            with time_limit(300):
                base = p_whitehead_plus(td.glue("base"))
            for axis in AXES:
                with time_limit(300):
                    assert p_whitehead_plus(mutate(td, axis)) == base
        except ResourceLimitExceeded:
            pytest.skip("Whitehead skein polynomial over budget")
