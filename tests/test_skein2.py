"""HOMFLY and Kauffman F via resolution trees."""

import gc
import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (homfly_mirror, pretzel, random_braid,
                      random_knot_diagram)
from knotmut import skein2
from knotmut.bracket import (DELTA, bracket_state_sum, jones,
                             kauffman_bracket)
from knotmut.budget import Budget
from knotmut.diagram import (KNOT_BRAIDS, BraidWord, PlanarDiagram,
                             UnionFind, add_kink, braid_closure,
                             connected_sum, mirror, named_knot, parse_braid,
                             parse_pd)
from knotmut.laurent import LaurentPoly, LaurentPoly2, parse_poly, parse_poly2
from knotmut.satellites import cable, whitehead_double
from knotmut.skein2 import (ResourceLimitExceeded, alexander_from_homfly,
                            homfly, homfly_2cable, jones_from_homfly,
                            kauffman_f, p_whitehead_plus)
from knotmut.tangles import TangleDecomposition, rational_tangle

UNKNOT = PlanarDiagram([], 1, "unknot")

# Pretzel knots P(p1, p2, p3, p4) of 11, 13 and 15 crossings.  Each has
# exactly one even twist and |p_i| >= 2, so P(p1, p2, p4, p3), its mutant
# by a rotation of the tangle p3 + p4, is a different knot unless the two
# tuples agree up to rotation and reversal.
MUTANT_SLATE = ((3, 2, 3, -3), (-3, 2, -3, 3), (5, 3, -2, -3),
                (-5, 3, -2, 3), (7, 3, 3, -2), (7, -3, -2, -3))
NAMED_KNOTS = tuple(n for n in KNOT_BRAIDS
                    if named_knot(n).component_count() == 1)


def dihedral_orbit(p: tuple) -> set:
    turns = [p[r:] + p[:r] for r in range(len(p))]
    return set(turns) | {q[::-1] for q in turns}


def dubrovnik_mirror(f: LaurentPoly2) -> LaurentPoly2:
    """F of the mirror image: a is inverted and z negated."""
    return LaurentPoly2({(-e1, e2): (c if e2 % 2 == 0 else -c)
                         for (e1, e2), c in f.coeffs.items()}, f.vars)


def bracket_from_kauffman(f: LaurentPoly2, writhe: int):
    """(F(a=-A^3, z=A-A^-1) (-A^3)^w delta (A-A^-1)^s, s).

    s >= 0 is the least power of z that clears F's z^-1 terms, which
    links carry from the loop value; the first entry is <L> (A-A^-1)^s.
    """
    a_val = LaurentPoly("A", {3: -1})
    a_inv = LaurentPoly("A", {-3: -1})
    z_val = LaurentPoly("A", {1: 1, -1: -1})
    shift = max(0, -min(e2 for (_, e2) in f.coeffs))
    total = LaurentPoly.zero("A")
    for (e1, e2), c in f.coeffs.items():
        term = (a_val if e1 >= 0 else a_inv) ** abs(e1) * z_val ** (e2 + shift)
        total = total + c * term
    aw = (a_val if writhe >= 0 else a_inv) ** abs(writhe)
    return total * aw * DELTA, shift


def recorded(monkeypatch) -> list:
    """The list of the budgets that skein2 makes from now on."""
    made = []

    class Recording(Budget):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            made.append(self)

    monkeypatch.setattr(skein2, "Budget", Recording)
    return made


def counted(monkeypatch, engine, d: PlanarDiagram):
    """engine(d) and the number of nodes its tree expanded."""
    made = recorded(monkeypatch)
    value = engine(d)
    (budget,) = made
    return value, budget.nodes


def fewest_nodes(engine, d: PlanarDiagram) -> int:
    """The smallest node budget under which `engine` finishes on d."""
    for n in itertools.count(1):
        try:
            engine(d, max_nodes=n)
            return n
        except ResourceLimitExceeded:
            pass


class TestHomfly:
    def test_unknot(self):
        assert homfly(UNKNOT).is_one()
        assert homfly(braid_closure(parse_braid("2 | 1"))).is_one()

    def test_trefoil_frozen(self):
        # positive-braid chirality: P = -2l^-2 - l^-4 + l^-2 m^2
        p = homfly(named_knot("trefoil"))
        assert p == parse_poly2("-l^-4 - 2*l^-2 + l^-2*m^2")

    def test_figure8_frozen(self):
        p = homfly(named_knot("figure8"))
        assert p == parse_poly2("-l^-2 - 1 - l^2 + m^2")
        assert p == homfly_mirror(p)  # amphichiral

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_mirror_rule(self, seed):
        d = random_knot_diagram(random.Random(seed), max_letters=8)
        assert homfly(mirror(d)) == homfly_mirror(homfly(d))

    def test_connected_sum_multiplicative(self):
        a, b = named_knot("trefoil"), named_knot("5_2")
        assert homfly(connected_sum(a, b)) == homfly(a) * homfly(b)

    def test_skein_relation(self):
        # l P+ + l^-1 P- + m P0 = 0 on a crossing of the trefoil braid
        l = LaurentPoly2.monomial(1, 0)
        linv = LaurentPoly2.monomial(-1, 0)
        m = LaurentPoly2.monomial(0, 1)
        p_plus = homfly(braid_closure(parse_braid("2 | 1 1 1")))
        p_minus = homfly(braid_closure(parse_braid("2 | 1 1 -1")))
        p_zero = homfly(braid_closure(parse_braid("2 | 1 1")))
        assert (l * p_plus + linv * p_minus + m * p_zero).is_zero()

    def test_budget(self):
        d = named_knot("6_2")
        with pytest.raises(ResourceLimitExceeded,
                           match=r"after 3 nodes expanded, \d+ memo entries"):
            homfly(d, max_nodes=3)


class TestKauffmanF:
    def test_unknot(self):
        assert kauffman_f(UNKNOT).is_one()
        assert kauffman_f(braid_closure(parse_braid("2 | -1"))).is_one()

    def test_trefoil_frozen(self):
        f = kauffman_f(named_knot("trefoil"))
        assert f == parse_poly2(
            "-a^-5*z - a^-4 - a^-4*z^2 + a^-3*z + 2*a^-2 + a^-2*z^2",
            variables=("a", "z"))

    def test_mirror_rule_named(self):
        # Dubrovnik form: mirroring inverts a and negates z
        f = kauffman_f(named_knot("trefoil"))
        fm = kauffman_f(named_knot("trefoil_mirror"))
        assert fm == dubrovnik_mirror(f)

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_bracket_specialization(self, seed):
        # F(a=-A^3, z=A-A^-1) * (-A^3)^w * delta = <L> for any diagram
        b = random_braid(random.Random(seed), max_letters=8)
        d = braid_closure(b)
        value, shift = bracket_from_kauffman(kauffman_f(d), d.writhe())
        z_val = LaurentPoly("A", {1: 1, -1: -1})
        assert value == kauffman_bracket(d) * z_val ** shift

    def test_whitehead_double_bracket(self):
        # the skein tree against the bracket's contraction on the 20- and
        # 18-crossing satellites of trefoil and figure8 (712 and 6,169
        # nodes); the trees close only with bigon reduction
        for name in ("trefoil", "figure8"):
            d = named_knot(name)
            double = whitehead_double(d, -d.writhe(), 1)
            value, shift = bracket_from_kauffman(kauffman_f(double),
                                                 double.writhe())
            assert shift == 0
            assert value == kauffman_bracket(double)

    def test_connected_sum_multiplicative(self):
        a, b = named_knot("trefoil"), named_knot("figure8")
        assert kauffman_f(connected_sum(a, b)) == \
            kauffman_f(a) * kauffman_f(b)


class TestOrientationFree:
    """The Kauffman trees read no orientation: reversing a component
    changes F only by the writhe factor a^-w."""

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_reversed_knot(self, seed):
        d = random_knot_diagram(random.Random(seed), max_letters=10)
        # every crossing's legs turned by two: leg 0 becomes the other end
        # of the under-strand, so the knot runs backwards
        r = PlanarDiagram(tuple(x[2:] + x[:2] for x in d.crossings),
                          d.free_loops)
        assert r.positive == d.positive
        assert kauffman_f(r) == kauffman_f(d)

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_reversed_component(self, seed):
        rng = random.Random(seed)
        while True:
            d = braid_closure(random_braid(rng, max_letters=10))
            if d.component_count() != 2:
                continue
            # the component through the under-strand of crossing 0: the
            # arcs that strands through crossings join to its first arc
            uf = UnionFind()
            for a, b, c, e in d.crossings:
                uf.union(a, c)
                uf.union(b, e)
            root = uf.find(d.crossings[0][0])
            comp = {a for a in d.arcs if uf.find(a) == root}
            # a component over at all its crossings has no direction in
            # the tuples: both must pass under somewhere
            if not all(x[0] in comp for x in d.crossings):
                break
        # reverse it: its under passages turn by two legs, its over
        # passages keep their legs and change direction
        r = PlanarDiagram(tuple(x[2:] + x[:2] if x[0] in comp else x
                                for x in d.crossings), d.free_loops)
        mixed = [(x[0] in comp) != (x[1] in comp) for x in d.crossings]
        assert [p != q for p, q in zip(d.positive, r.positive)] == mixed
        shift = LaurentPoly2({(d.writhe() - r.writhe(), 0): 1}, ("a", "z"))
        assert kauffman_f(r) == kauffman_f(d) * shift


class TestAlexanderFromHomfly:
    def test_trefoil(self):
        assert alexander_from_homfly(homfly(named_knot("trefoil"))) == \
            parse_poly("t^-1 - 1 + t", "t")

    def test_figure8(self):
        assert alexander_from_homfly(homfly(named_knot("figure8"))) == \
            parse_poly("-t^-1 + 3 - t", "t")


class TestHomflyReadings:
    """A report reads V(t) and Delta(t) off its homfly item, and
    test_report's TestRoutes checks them against the bracket and the
    arc-coloring determinant; a link's HOMFLY has neither reading."""

    @pytest.mark.parametrize("d", (named_knot("hopf_plus"),
                                   PlanarDiagram([], 3)), ids=("hopf", "unlink"))
    def test_link_is_refused(self, d):
        p = homfly(d)
        for reading in (jones_from_homfly, alexander_from_homfly):
            with pytest.raises(ValueError, match="^negative m-degree: a "
                               "link's HOMFLY polynomial$"):
                reading(p)


class TestSatelliteHomfly:
    def test_whitehead_unknot(self):
        # untwisted double of the unknot is the unknot
        assert p_whitehead_plus(braid_closure(parse_braid("2 | 1"))).is_one()

    def test_whitehead_trefoil_nontrivial(self):
        p = p_whitehead_plus(named_knot("trefoil"))
        assert not p.is_one()
        # a knot: the HOMFLY has only even m-degrees
        assert all(e2 % 2 == 0 for (_, e2) in p.coeffs)

    def test_whitehead_mutant_pair(self):
        # 11-crossing mutants, neither an unknot: the doubles have 56
        # crossings and take about 3 s each
        d, e = pretzel(3, 2, 3, -3), pretzel(3, 2, -3, 3)
        assert not jones(d).is_one()
        p = p_whitehead_plus(d)
        assert p == p_whitehead_plus(e)
        assert not p.is_one()
        assert alexander_from_homfly(p).is_one()

    def test_2cable_vs_plain(self):
        p = homfly_2cable(named_knot("trefoil"))
        assert all(e2 % 2 == 0 for (_, e2) in p.coeffs)
        assert p != homfly(named_knot("trefoil"))


class TestMutantPairs:
    """Both polynomials on genuine pretzel mutant pairs, 11-15 crossings."""

    @pytest.mark.parametrize("p", MUTANT_SLATE)
    def test_mutants_agree(self, p):
        mutant = (p[0], p[1], p[3], p[2])
        assert mutant not in dihedral_orbit(p)
        d, e = pretzel(*p), pretzel(*mutant)
        for k in (d, e):
            assert k.component_count() == 1
            assert 11 <= len(k.crossings) <= 15
            assert not jones(k).is_one()
        assert homfly(d) == homfly(e)
        assert kauffman_f(d) == kauffman_f(e)

    @pytest.mark.parametrize("p", MUTANT_SLATE)
    def test_mirror_rule(self, p):
        d = pretzel(*p)
        assert homfly(mirror(d)) == homfly_mirror(homfly(d))
        assert kauffman_f(mirror(d)) == dubrovnik_mirror(kauffman_f(d))


class TestReduction:
    """Reidemeister-I/II reduction keeps the resolution trees small."""

    def test_pretzel_kauffman_budget(self):
        kauffman_f(pretzel(7, 3, 3, -2), max_nodes=1000)

    def test_pretzel_homfly_budget(self):
        homfly(pretzel(7, 3, 3, -2), max_nodes=200)

    def test_whitehead_homfly_budget(self):
        # needs 223 nodes (235 resolving its twist regions a crossing at a
        # time), and 695 if the tree also took the first bad crossing with
        # an alternating bigon instead of the last
        p_whitehead_plus(named_knot("5_1"), max_nodes=240)

    def test_cable_homfly_budget(self):
        # needs 193 nodes; 209 if the tree took the first bad crossing with
        # an alternating bigon instead of the last, and 353 if it resolved
        # its first bad crossing
        homfly_2cable(named_knot("figure8"), max_nodes=200)

    def test_whitehead_homfly_node_guard(self, monkeypatch):
        # needs 969 nodes, 981 resolving its twist regions a crossing at a
        # time.  At a crossing at a time it needed 997 if a join through
        # deleted legs left its new arc out of the next reduction, 1,359
        # if the tree took the first bad crossing with an alternating
        # bigon instead of the last, and 6,543 if it resolved its first
        # bad crossing
        _, nodes = counted(monkeypatch, p_whitehead_plus, named_knot("6_1"))
        assert nodes <= 990

    def test_pretzel_whitehead_homfly_node_guard(self, monkeypatch):
        # the paper's scale, pinned as `TestTreeShapes` pins the small
        # trees: (nodes, memo entries, memo hits).  It needed 40,045 nodes
        # resolving its twist regions a crossing at a time, and 71,481 if
        # the tree also took the first bad crossing with an alternating
        # bigon
        got = tree_shape(monkeypatch, p_whitehead_plus, pretzel(3, 2, 3, -3),
                         None)
        assert got == (39_257, 20_531, 15_453)

    def test_whitehead_kauffman_node_guard(self, monkeypatch):
        # needs 712 nodes, 856 resolving its twist regions a crossing at a
        # time.  At a crossing at a time it needed 1,510 if the tree took
        # the first bad crossing with an alternating bigon instead of the
        # last, 2,023 if it resolved its first bad crossing, and 3,097 on
        # an oriented state whose smoothings reverse strands
        d = named_knot("trefoil")
        double = whitehead_double(d, -d.writhe(), 1)
        _, nodes = counted(monkeypatch, kauffman_f, double)
        assert nodes <= 900

    @pytest.mark.parametrize("engine", (homfly, kauffman_f))
    @pytest.mark.parametrize("name", ("trefoil", "5_2"))
    def test_bigon_padding(self, name, engine):
        # sigma_g sigma_g^-1 inserted anywhere is removed at the root, and
        # on trefoil and 5_2 the padded word needs no more nodes than the
        # plain one.  That is not so in general: the root reduction may
        # delete a pad crossing together with the crossing across the
        # closure's seam, which leaves the crossings in another order, so
        # some padded 6_1, 6_2 and 6_3 need more nodes than their plain word
        b = parse_braid(KNOT_BRAIDS[name])
        plain = braid_closure(b)
        want = engine(plain)
        need = fewest_nodes(engine, plain)
        for k in range(len(b.letters) + 1):
            for g in range(1, b.strands):
                for pad in ((g, -g), (-g, g)):
                    letters = b.letters[:k] + pad + b.letters[k:]
                    padded = braid_closure(BraidWord(b.strands, letters))
                    assert engine(padded, max_nodes=need) == want

    def test_bigon_closes_into_loops(self):
        d = braid_closure(parse_braid("2 | 1 -1"))  # the 2-component unlink
        assert homfly(d, max_nodes=1) == parse_poly2("-l*m^-1 - l^-1*m^-1")
        assert kauffman_f(d, max_nodes=1) == parse_poly2(
            "a*z^-1 - a^-1*z^-1 + 1", variables=("a", "z"))


def torus_2(n: int) -> PlanarDiagram:
    """T(2, n), the closure of sigma_1^n: a closed chain of |n| bigons."""
    return braid_closure(BraidWord(2, (1 if n > 0 else -1,) * abs(n)))


def reversed_component(d: PlanarDiagram) -> PlanarDiagram:
    """d with the component through crossing 0's under-strand reversed:
    its under passages turn by two legs, and its over passages keep their
    legs and change direction, as the under passages orient them."""
    uf = UnionFind()
    for a, b, c, e in d.crossings:
        uf.union(a, c)
        uf.union(b, e)
    root = uf.find(d.crossings[0][0])
    return PlanarDiagram(tuple(x[2:] + x[:2] if uf.find(x[0]) == root else x
                               for x in d.crossings), d.free_loops)


def twist_forms(monkeypatch) -> set:
    """The closed forms that the twist steps run from now on, as (tree,
    form): 'parallel' or 'antiparallel' for HOMFLY, 'dubrovnik' for
    Kauffman, and (tree, 'closed') for a region whose four outer legs run
    to one crossing, the one a closed chain leaves out."""
    seen = set()
    for cls in (skein2._RDiagram, skein2._UDiagram):
        def spy(rd, value, w, forms, resolve=cls.resolve_twist):
            (_, positive, odd), children = rd.twist
            _, la, lb, ra, rb = children[1]
            tree = "homfly" if rd.signed else "kauffman"
            if not rd.signed:
                seen.add((tree, "dubrovnik"))
            else:
                seen.add((tree, "parallel" if positive == odd
                          else "antiparallel"))
            if len({rd.o[p] >> 2 for p in (la, lb, ra, rb)}) == 1:
                seen.add((tree, "closed"))
            return resolve(rd, value, w, forms)
        monkeypatch.setattr(cls, "resolve_twist", spy)
    return seen


def jones_reading_check(d: PlanarDiagram) -> None:
    """V(L) read off homfly(d) at l = i x^2, m = i(x - x^-1), x = A^2,
    against the state-sum bracket: V = (-A^3)^-w <D> / delta.  Both sides
    are multiplied by (x - x^-1)^s, which clears a link's m^-s terms; the
    powers of i cancel, since l- and m-degrees have equal parity."""
    p = homfly(d)
    s = max(0, -min(e2 for _, e2 in p.coeffs))
    y = LaurentPoly("A", {2: 1, -2: -1})
    read = LaurentPoly.zero("A")
    for (e1, e2), c in p.coeffs.items():
        assert (e1 + e2) % 2 == 0
        sign = -1 if (e1 + e2) % 4 else 1
        read = read + LaurentPoly("A", {4 * e1: sign * c}) * y ** (e2 + s)
    w = d.writhe()
    want = bracket_state_sum(d) * LaurentPoly("A", {-3 * w: (-1) ** w})
    assert read * DELTA == want * y ** s


def kauffman_bracket_check(d: PlanarDiagram) -> None:
    value, shift = bracket_from_kauffman(kauffman_f(d), d.writhe())
    z_val = LaurentPoly("A", {1: 1, -1: -1})
    assert value == kauffman_bracket(d) * z_val ** shift


# Pretzel knots whose long twists the trees resolve in one step, and the
# same with every twist reversed: their mirrors.
LONG_TWIST_PRETZELS = ((11, 3, 3, -2), (9, -7, 3, -2), (13, 3, -3, 2),
                       (5, 5, 5, -4))


class TestTwistRegions:
    """A run of k >= 3 bigon-linked crossings is resolved in one node by
    its 2-strand closed form: the values against the state-sum bracket,
    the bracket contraction and the mirror rules."""

    @pytest.mark.parametrize("n", [n for k in range(2, 14) for n in (k, -k)])
    def test_torus_closed_chains(self, n):
        # the links with parallel strands, and with one component reversed
        # antiparallel ones
        d = torus_2(n)
        for e in (d, reversed_component(d)) if n % 2 == 0 else (d,):
            jones_reading_check(e)
            kauffman_bracket_check(e)
            assert homfly(mirror(e)) == homfly_mirror(homfly(e))
            assert kauffman_f(mirror(e)) == dubrovnik_mirror(kauffman_f(e))

    @pytest.mark.parametrize("p", LONG_TWIST_PRETZELS, ids=str)
    def test_long_twist_pretzels(self, p):
        # 19-21 crossings: 2^19-2^21 states are too many for the state
        # sum, so the Jones reading meets the bracket contraction, which
        # `test_bracket` checks against the state sum
        for d in (pretzel(*p), pretzel(*(-q for q in p))):
            assert jones_from_homfly(homfly(d)) == jones(d)
            kauffman_bracket_check(d)
            assert homfly(mirror(d)) == homfly_mirror(homfly(d))
            assert kauffman_f(mirror(d)) == dubrovnik_mirror(kauffman_f(d))

    def test_every_closed_form_runs(self, monkeypatch):
        seen = twist_forms(monkeypatch)
        for d in (torus_2(5), torus_2(-6), reversed_component(torus_2(8))):
            homfly(d)
            kauffman_f(d)
        for p in LONG_TWIST_PRETZELS:
            homfly(pretzel(*p))
            kauffman_f(pretzel(*p))
        assert seen == {("homfly", "parallel"), ("homfly", "antiparallel"),
                        ("kauffman", "dubrovnik"), ("homfly", "closed"),
                        ("kauffman", "closed")}

    @pytest.mark.parametrize("engine", (homfly, kauffman_f))
    def test_long_twist_one_node(self, monkeypatch, engine):
        # the twist of P(k, 3, 3, -2) costs one node whatever its length;
        # resolved a crossing at a time it cost 6 HOMFLY nodes per two
        # crossings
        counts = {counted(monkeypatch, engine, pretzel(k, 3, 3, -2))[1]
                  for k in (5, 7, 9, 11)}
        assert len(counts) == 1


def bad_crossings(rd) -> list[int]:
    """The crossings of a compacted state that the basepoint walks meet
    first on their under-strand, in walk order.  Each walk enters the
    first crossing not yet passed on its incoming over-leg (3 when the
    crossing is positive, 1 when negative), and leg 0 is the incoming
    under-strand."""
    passed, bad = set(), []
    for k in range(len(rd.dirs)):
        if k in passed:
            continue
        p = start = 4 * k + (3 if rd.dirs[k] else 1)
        while True:
            if p // 4 not in passed:
                passed.add(p // 4)
                if p % 4 == 0:
                    bad.append(p // 4)
            p = rd.o[p ^ 2]   # out through the opposite leg, to the next
            if p == start:
                break
    return bad


def reduced(rd):
    rd.reduce()
    rd.key()
    return rd


class TestResolutionRule:
    """The crossing each node resolves, on random knots and their
    Whitehead doubles, down a random path of the tree."""

    @given(st.integers(0, 2**30), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_rule_and_termination(self, seed, double):
        rng = random.Random(seed)
        d = random_knot_diagram(rng, max_letters=8)
        if double:
            d = whitehead_double(d, -d.writhe(), 1)
        rd = reduced(skein2._RDiagram.from_diagram(d))
        while rd.dirs:
            bad = bad_crossings(rd)
            i = rd.first_bad()
            if not bad:
                assert i is None
                break
            # the last bad crossing whose switch lets the reduction delete
            # a bigon, else the first bad crossing
            freeing = [b for b in bad
                       if len(reduced(rd.switched(b)).dirs) < len(rd.dirs)]
            assert i == (freeing[-1] if freeing else bad[0])
            # a switch keeps every walk: one bad crossing fewer
            assert bad_crossings(rd.switched(i)) == [b for b in bad if b != i]
            rd = reduced(rng.choice((rd.switched(i),
                                     rd.smoothed(i, not rd.dirs[i]))))


def unoriented_walks(rd) -> list[list[int]]:
    """The basepoint walks of a compacted unoriented state, as the
    positions at which they enter crossings.  Each walk enters the first
    crossing not yet passed at slot 3."""
    passed, walks = set(), []
    for k in range(len(rd.dirs)):
        if k in passed:
            continue
        p = start = 4 * k + 3
        walk = []
        while True:
            walk.append(p)
            passed.add(p // 4)
            p = rd.o[p ^ 2]   # out through the opposite leg, to the next
            if p == start:
                break
        walks.append(walk)
    return walks


def entered_under_first(walks) -> list[int]:
    """The crossings that the walks enter first at slot 0 or 2, on their
    under-strand, in walk order."""
    seen, bad = set(), []
    for walk in walks:
        for p in walk:
            if p // 4 not in seen:
                seen.add(p // 4)
                if p % 2 == 0:
                    bad.append(p // 4)
    return bad


class TestUnorientedRule:
    """The crossing each node of a Kauffman tree resolves, on random knots
    and their Whitehead doubles, down a random path of the tree."""

    @given(st.integers(0, 2**30), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_rule_and_termination(self, seed, double):
        rng = random.Random(seed)
        d = random_knot_diagram(rng, max_letters=8)
        if double:
            d = whitehead_double(d, -d.writhe(), 1)
        rd = reduced(skein2._UDiagram.from_diagram(d))
        while rd.dirs:
            walks = unoriented_walks(rd)
            bad = entered_under_first(walks)
            i = rd.first_bad()
            if not bad:
                assert i is None
                break
            # the last bad crossing whose switch lets the reduction delete
            # a bigon, else the first bad crossing
            freeing = [b for b in bad
                       if len(reduced(rd.switched(b)).dirs) < len(rd.dirs)]
            assert i == (freeing[-1] if freeing else bad[0])
            # a switch turns crossing i by one slot and keeps every walk:
            # one bad crossing fewer
            sw = rd.switched(i)
            turned = [[p + 1 - 4 * (p % 4 == 3) if p // 4 == i else p
                       for p in walk] for walk in walks]
            assert unoriented_walks(sw) == turned
            assert entered_under_first(turned) == [b for b in bad if b != i]
            # a smoothing lowers the crossing count
            smoothings = [reduced(rd.smoothed(i, across))
                          for across in (False, True)]
            assert all(len(sm.dirs) < len(rd.dirs) for sm in smoothings)
            rd = rng.choice([reduced(sw), *smoothings])


class TestLabelFree:
    """The trees see leg positions only: arc labels change nothing."""

    @pytest.mark.parametrize("engine", (homfly, kauffman_f))
    @pytest.mark.parametrize("d", (named_knot("trefoil"), named_knot("5_2"),
                                   pretzel(7, 3, 3, -2)),
                             ids=lambda d: d.name)
    def test_renumbered_arcs(self, monkeypatch, d, engine):
        arcs = sorted(d.arcs)
        labels = arcs[:]
        random.Random(20261018).shuffle(labels)
        m = dict(zip(arcs, labels))
        renumbered = PlanarDiagram(tuple(tuple(m[a] for a in x)
                                         for x in d.crossings), d.free_loops)
        assert renumbered.crossings != d.crossings
        assert renumbered.positive == d.positive
        assert counted(monkeypatch, engine, renumbered) == \
            counted(monkeypatch, engine, d)

    @pytest.mark.parametrize("engine", (homfly, kauffman_f))
    def test_crossing_closed_by_two_curls(self, engine):
        # both curls of the one crossing go at the root, leaving one loop
        assert engine(parse_pd("X(0,0,1,1)"), max_nodes=1).is_one()

    def test_bigons_closing_into_three_loops(self):
        # the 3-component unlink: each engine's 2-component value squared
        d = braid_closure(parse_braid("3 | 1 -1 2 -2"))
        two = braid_closure(parse_braid("2 | 1 -1"))
        for engine in (homfly, kauffman_f):
            assert engine(d, max_nodes=1) == engine(two) ** 2


# (nodes expanded, memo entries, memo hits) of each satellite tree of the
# benchmark's satellites companions, in the order whitehead_homfly,
# cable_homfly, whitehead_kauffman, under its node caps: 40,000 for the
# HOMFLY trees of trefoil and figure8, 2,000 otherwise.  A tree that
# reaches its cap ends limited.
SATELLITE_SHAPES = {
    "trefoil": ((45, 22, 8), (97, 58, 22), (712, 278, 189)),
    "figure8": ((107, 54, 32), (193, 113, 49), (2000, 799, 621)),
    "5_1": ((223, 111, 71), (1519, 911, 500), (2000, 780, 578)),
    "5_2": ((231, 118, 67), (2000, 1370, 388), (2000, 849, 474)),
    "6_1": ((969, 519, 280), (2000, 1315, 409), (2000, 910, 433)),
    "6_2": ((599, 306, 198), (2000, 1169, 633), (2000, 805, 586)),
    "6_3": ((989, 513, 318), (2000, 1212, 572), (2000, 808, 604)),
    ((0, -4), (0, -3)): ((1843, 921, 779), (2000, 1123, 747),
                         (2000, 708, 763)),
    ((0, -4), (0, -1, -2)): ((1473, 745, 555), (2000, 1143, 702),
                             (2000, 746, 686)),
}
# The same for the HOMFLY and Kauffman trees of each MUTANT_SLATE knot and
# its mutant, unbudgeted.
PRETZEL_SHAPES = {
    (3, 2, 3, -3): ((25, 12, 4), (52, 17, 14)),
    (3, 2, -3, 3): ((27, 13, 5), (52, 17, 14)),
    (-3, 2, -3, 3): ((17, 8, 2), (40, 13, 10)),
    (-3, 2, 3, -3): ((17, 8, 2), (43, 14, 9)),
    (5, 3, -2, -3): ((25, 12, 4), (52, 17, 14)),
    (5, 3, -3, -2): ((21, 10, 2), (52, 17, 14)),
    (-5, 3, -2, 3): ((23, 11, 2), (52, 17, 10)),
    (-5, 3, 3, -2): ((27, 13, 4), (61, 20, 13)),
    (7, 3, 3, -2): ((23, 11, 3), (55, 18, 14)),
    (7, 3, -2, 3): ((27, 13, 4), (55, 18, 14)),
    (7, -3, -2, -3): ((25, 12, 3), (58, 19, 18)),
    (7, -3, -3, -2): ((23, 11, 3), (58, 19, 18)),
}


def companion_diagram(companion) -> PlanarDiagram:
    """A named knot, or a 2-bridge knot by its two tangle vectors."""
    if isinstance(companion, str):
        return named_knot(companion)
    a, b = companion
    return TangleDecomposition(rational_tangle(list(a)),
                               rational_tangle(list(b))).glue("2b")


def tree_shape(monkeypatch, engine, d, max_nodes):
    """(nodes expanded, memo entries, memo hits) of engine's tree on d,
    finished or stopped by max_nodes."""
    made = recorded(monkeypatch)
    try:
        engine(d, max_nodes=max_nodes)
    except ResourceLimitExceeded as exc:
        (budget,) = made
        assert budget.nodes == max_nodes
        assert str(exc) == (f"node budget exhausted after {max_nodes} "
                            f"nodes expanded, {budget.progress()}")
    (budget,) = made
    m = re.fullmatch(r"(\d+) memo entries, (\d+) memo hits",
                     budget.progress())
    assert m, budget.progress()
    return budget.nodes, int(m[1]), int(m[2])


class TestTreeShapes:
    """Every tree expands the same nodes and fills the same memo: a change
    to the node kernel must leave these counts as they are.  The counts
    changed by design when the Kauffman trees moved to an unoriented state
    that takes the last bad crossing with an alternating bigon, and the
    HOMFLY counts again when the HOMFLY trees took the same rule.  Both
    changed by design again when a twist region of k >= 3 crossings came
    to be resolved in one node by its closed form, which no tree here
    resolves in more nodes than before; the values did not change."""

    @pytest.mark.parametrize("companion", SATELLITE_SHAPES, ids=str)
    def test_satellite_trees(self, monkeypatch, companion):
        d = companion_diagram(companion)
        cap = 40_000 if companion in ("trefoil", "figure8") else 2000
        double = whitehead_double(d, -d.writhe(), 1)
        got = (tree_shape(monkeypatch, homfly, double, cap),
               tree_shape(monkeypatch, homfly, cable(d, 2, -1), cap),
               tree_shape(monkeypatch, kauffman_f, double, 2000))
        assert got == SATELLITE_SHAPES[companion]

    @pytest.mark.parametrize("p", PRETZEL_SHAPES, ids=str)
    def test_mutant_slate_trees(self, monkeypatch, p):
        d = pretzel(*p)
        got = tuple(tree_shape(monkeypatch, engine, d, None)
                    for engine in (homfly, kauffman_f))
        assert got == PRETZEL_SHAPES[p]


class TestNoMemoryKept:
    """A tree's memo lives only while the tree runs, and a stopped tree's
    exception carries its counts but not its frames.  With the cyclic
    collector off, what a tree leaves live is a small part of its traced
    peak: the interpreter's free lists of small tuples, which a collection
    would also free.  A memo held by the closure's cycle, or by the frames
    of a kept exception, would leave almost all of it."""

    @pytest.fixture
    def traced(self):
        """The memory live at the end of a call, and the call's peak, both
        above what was live at its start, with the collector off."""
        def measure(call):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            kept = call()
            live, peak = tracemalloc.get_traced_memory()
            return kept, live - base, peak - base

        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            yield measure
        finally:
            tracemalloc.stop()
            gc.enable()

    def test_finished_tree(self, monkeypatch, traced):
        made = recorded(monkeypatch)
        d = cable(named_knot("6_3"), 2, -1)
        _, live, peak = traced(lambda: homfly(d))
        assert live < peak / 4, (live, peak)
        (budget,) = made
        assert (budget.nodes, budget.progress()) == \
            (6919, "4450 memo entries, 1872 memo hits")

    def test_stopped_tree(self, monkeypatch, traced):
        made = recorded(monkeypatch)
        double = whitehead_double(named_knot("5_2"))

        def call():
            with pytest.raises(ResourceLimitExceeded) as info:
                kauffman_f(double, max_nodes=3000)
            return info  # kept as a caller might, traceback and all

        info, live, peak = traced(call)
        assert live < peak / 4, (live, peak)
        (budget,) = made
        assert budget.progress() == "1284 memo entries, 699 memo hits"
        assert str(info.value) == ("node budget exhausted after 3000 nodes "
                                   "expanded, 1284 memo entries, "
                                   "699 memo hits")


class TestNoSelfArc:
    """`_RDiagram._rotate` moves arcs with no case for one that runs from
    the switched crossing back to itself: every crossing that either tree
    switches has none."""

    @pytest.fixture
    def switched(self, monkeypatch) -> list:
        rotate = skein2._RDiagram._rotate
        seen = []

        def spy(rd, k, r):
            assert all(p >> 2 != k for p in rd.o[4 * k:4 * k + 4])
            seen.append(type(rd))
            rotate(rd, k, r)

        monkeypatch.setattr(skein2._RDiagram, "_rotate", spy)
        return seen

    @pytest.mark.parametrize("engine", (homfly, kauffman_f),
                             ids=("homfly", "kauffman"))
    def test_random_closures(self, switched, engine):
        # closures (links too), their mirrors and copies with both kinks
        rng = random.Random(61)
        for _ in range(30):
            d = braid_closure(random_braid(rng, max_strands=5))
            for e in (d, mirror(d), add_kink(add_kink(d, 1), -1),
                      add_kink(mirror(d), 1)):
                try:
                    engine(e, max_nodes=5000)
                except ResourceLimitExceeded:
                    pass
        assert switched

    @pytest.mark.parametrize("companion", SATELLITE_SHAPES, ids=str)
    def test_satellites(self, switched, companion):
        d = companion_diagram(companion)
        double = whitehead_double(d, -d.writhe(), 1)
        for e in (double, cable(d, 2, -1)):
            for engine in (homfly, kauffman_f):
                try:
                    engine(e, max_nodes=2000)
                except ResourceLimitExceeded:
                    pass
        assert set(switched) == {skein2._RDiagram, skein2._UDiagram}
