"""HOMFLY and Kauffman F via resolution trees."""

import gc
import hashlib
import itertools
import random
import re
import sys
import threading
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (homfly_mirror, nontrivial_knot_braid, pretzel,
                      random_braid, random_knot_diagram)
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
                            cjones3_from_kauffman, homfly, homfly_2cable,
                            jones_from_homfly, kauffman_f, p_whitehead_plus)
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
        # 6_2's tree finishes in 3 nodes; 6_3's needs more
        d = named_knot("6_3")
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
        # 18-crossing satellites of trefoil and figure8 (652 and 6,007
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


def rows_specialize(p: LaurentPoly2, stretch: int, imaginary: bool) -> dict:
    """The coefficients {e: c} in x of p(X, Y) at X = x^stretch and
    Y = x - x^-1, each Y^e2 expanded by the binomial theorem: the readings
    as they were before Horner's rule, kept as their oracle.  With
    `imaginary`, c X^e1 Y^e2 gains the sign of i^(e1 + e2); the refusals
    are `skein2._specialize`'s, term by term in the same order."""
    out: dict = {}
    for (e1, e2), c in p.coeffs.items():
        if imaginary:
            if (e1 + e2) & 1:
                raise ValueError("unexpected parity in HOMFLY of a knot")
            if (e1 + e2) & 2:
                c = -c
        if e2 < 0:
            raise ValueError(
                f"negative {p.vars[1]}-degree: a link's "
                f"{'HOMFLY' if imaginary else 'Kauffman'} polynomial")
        for k in range(e2 + 1):
            e = stretch * e1 + e2 - 2 * k
            out[e] = out.get(e, 0) + c * (-1) ** k * comb(e2, k)
    return out


def random_two_poly(rng: random.Random, even: bool) -> LaurentPoly2:
    """Up to 30 terms with coefficients up to 2^100 in size, X-exponents
    of both signs and Y-degrees up to 40; with `even`, e1 + e2 is even."""
    coeffs = {}
    for _ in range(rng.randint(1, 30)):
        e1, e2 = rng.randint(-25, 25), rng.randint(0, 40)
        if even and (e1 + e2) & 1:
            e1 += 1
        coeffs[e1, e2] = rng.randint(-2**100, 2**100)
    return LaurentPoly2(coeffs, ("l", "m"))


class TestReadings:
    """`_specialize` evaluates by Horner's rule in x^2 - 1 on one packed
    integer, with digits as wide as a proved bound on the coefficients:
    against the binomial expansion it replaced."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("stretch", (0, 2))
    @pytest.mark.parametrize("imaginary", (False, True))
    def test_against_rows(self, seed, stretch, imaginary):
        rng = random.Random(seed)
        for _ in range(25):
            p = random_two_poly(rng, imaginary)
            assert skein2._specialize(p, stretch, imaginary, "x") == \
                LaurentPoly("x", rows_specialize(p, stretch, imaginary))

    @pytest.mark.parametrize("c", (2**100, -2**100, 2**64 - 1, -1, 1))
    def test_coefficient_at_the_bound(self, c):
        # at stretch 0 every term of Y-degree 0 lands on x^0, so five like
        # ones sum to the bound, sum |c| 2^e2, itself
        p = LaurentPoly2({(e1, 0): c for e1 in range(-2, 3)}, ("a", "z"))
        assert skein2._specialize(p, 0, False, "q") == \
            LaurentPoly("q", {0: 5 * c})
        # and beside the digits of a term of Y-degree 3
        p = LaurentPoly2({**p.coeffs, (1, 3): -c}, ("a", "z"))
        for stretch in (0, 2):
            assert skein2._specialize(p, stretch, False, "q") == \
                LaurentPoly("q", rows_specialize(p, stretch, False))

    def test_refusals(self):
        # parity is checked before degree, term by term, with the
        # messages of the oracle, which the link tests match in full
        rng = random.Random(5)
        for imaginary in (False, True):
            for _ in range(60):
                coeffs = {(rng.randint(-4, 4), rng.randint(-2, 6)):
                          rng.choice((-3, -1, 1, 2)) for _ in range(6)}
                p = LaurentPoly2(coeffs, ("a", "z"))
                try:
                    want = LaurentPoly("q", rows_specialize(p, 2, imaginary))
                except ValueError as exc:
                    with pytest.raises(ValueError) as info:
                        skein2._specialize(p, 2, imaginary, "q")
                    assert str(info.value) == str(exc)
                else:
                    assert skein2._specialize(p, 2, imaginary, "q") == want
        with pytest.raises(ValueError, match="^unexpected parity"):
            skein2._specialize(LaurentPoly2({(0, -1): 1}), 2, True, "x")
        with pytest.raises(ValueError, match="^negative z-degree: a link's "
                           "Kauffman polynomial$"):
            skein2._specialize(LaurentPoly2({(0, -1): 1}, ("a", "z")), 2,
                               False, "q")

    def test_zero(self):
        assert skein2._specialize(LaurentPoly2(), 2, True, "x").is_zero()

    def test_named_readings(self):
        # the three readings of every named knot against the oracle
        for name in NAMED_KNOTS:
            d = named_knot(name)
            p, f = homfly(d), kauffman_f(d)
            assert alexander_from_homfly(p) == \
                LaurentPoly("s", rows_specialize(p, 0, True)).shrink(2, "t")
            assert jones_from_homfly(p) == \
                LaurentPoly("x", rows_specialize(p, 2, True)).shrink(-2, "t")
            assert cjones3_from_kauffman(f) == \
                LaurentPoly("q", rows_specialize(f, 2, False))


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
        # needs 197 nodes (207 with its free loops in the memo key, 223 with
        # no closed-chain leaf, 235 resolving its twist regions a crossing
        # at a time), and 695 if the tree also took the first bad crossing
        # with an alternating bigon instead of the last
        p_whitehead_plus(named_knot("5_1"), max_nodes=240)

    def test_cable_homfly_budget(self):
        # needs 181 nodes (193 with no closed-chain leaf); 209 if the tree
        # took the first bad crossing with
        # an alternating bigon instead of the last, and 353 if it resolved
        # its first bad crossing
        homfly_2cable(named_knot("figure8"), max_nodes=200)

    def test_whitehead_homfly_node_guard(self, monkeypatch):
        # needs 933 nodes, 939 with its free loops in the memo key, 969
        # with no closed-chain leaf and 981 resolving its twist regions a
        # crossing at a time.  At a crossing at a time it needed 997 if a
        # join through deleted legs left its new arc out of the next
        # reduction, 1,359 if the tree took the first bad crossing with an
        # alternating bigon instead of the last, and 6,543 if it resolved
        # its first bad crossing
        _, nodes = counted(monkeypatch, p_whitehead_plus, named_knot("6_1"))
        assert nodes <= 935

    def test_pretzel_whitehead_homfly_node_guard(self, monkeypatch):
        # the paper's scale, pinned as `TestTreeShapes` pins the small
        # trees: (nodes, memo entries, memo hits).  It needed 39,131 nodes
        # and 20,531 memo entries with its free loops in the memo key,
        # 39,257 nodes with no closed-chain leaf, 40,045 resolving its
        # twist regions a crossing at a time, and 71,481 if the tree also
        # took the first bad crossing with an alternating bigon
        got = tree_shape(monkeypatch, p_whitehead_plus, pretzel(3, 2, 3, -3),
                         None)
        assert got == (32_851, 17_244, 12_932)

    def test_whitehead_kauffman_node_guard(self, monkeypatch):
        # needs 652 nodes, 664 with its free loops in the memo key, 712
        # with no closed-chain leaf and 856 resolving its twist regions a
        # crossing at a time.  At a crossing at a time it needed 1,510 if
        # the tree took the first bad crossing with an alternating bigon
        # instead of the last, 2,023 if it resolved its first bad crossing,
        # and 3,097 on an oriented state whose smoothings reverse strands
        d = named_knot("trefoil")
        double = whitehead_double(d, -d.writhe(), 1)
        _, nodes = counted(monkeypatch, kauffman_f, double)
        assert nodes <= 660

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
    Kauffman; and as (tree, form, 'leaf', corner parity) for a state that
    is one closed chain through all its crossings, which builds no
    child."""
    seen = set()
    resolve = skein2._RDiagram.resolve_twist  # both state classes' own

    def spy(rd, value, *args):
        (n, positive, odd), children = rd.twist
        tree = "homfly" if rd.signed else "kauffman"
        form = ("dubrovnik" if not rd.signed else
                "parallel" if positive == odd else "antiparallel")
        if children is None:
            assert n == len(rd.dirs)
            seen.add((tree, form, "leaf", "odd" if odd else "even"))

            def value(child):
                raise AssertionError("a leaf built a child")
        else:
            seen.add((tree, form))
        return resolve(rd, value, *args)

    monkeypatch.setattr(skein2._RDiagram, "resolve_twist", spy)
    return seen


def jones_reading_check(d: PlanarDiagram, bracket: LaurentPoly) -> None:
    """V(L) read off homfly(d) at l = i x^2, m = i(x - x^-1), x = A^2,
    against the bracket <D>: V = (-A^3)^-w <D> / delta.  Both sides are
    multiplied by (x - x^-1)^s, which clears a link's m^-s terms; the
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
    want = bracket * LaurentPoly("A", {-3 * w: (-1) ** w})
    assert read * DELTA == want * y ** s


def kauffman_bracket_check(d: PlanarDiagram, bracket: LaurentPoly) -> None:
    """F(d) specialized to the bracket (`bracket_from_kauffman`) against
    the bracket <D>."""
    value, shift = bracket_from_kauffman(kauffman_f(d), d.writhe())
    z_val = LaurentPoly("A", {1: 1, -1: -1})
    assert value == bracket * z_val ** shift


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
            jones_reading_check(e, bracket_state_sum(e))
            kauffman_bracket_check(e, kauffman_bracket(e))
            assert homfly(mirror(e)) == homfly_mirror(homfly(e))
            assert kauffman_f(mirror(e)) == dubrovnik_mirror(kauffman_f(e))

    @pytest.mark.parametrize("p", LONG_TWIST_PRETZELS, ids=str)
    def test_long_twist_pretzels(self, p):
        # 19-21 crossings: 2^19-2^21 states are too many for the state
        # sum, so the Jones reading meets the bracket contraction, which
        # `test_bracket` checks against the state sum
        for d in (pretzel(*p), pretzel(*(-q for q in p))):
            assert jones_from_homfly(homfly(d)) == jones(d)
            kauffman_bracket_check(d, kauffman_bracket(d))
            assert homfly(mirror(d)) == homfly_mirror(homfly(d))
            assert kauffman_f(mirror(d)) == dubrovnik_mirror(kauffman_f(d))

    def test_every_closed_form_runs(self, monkeypatch):
        # the twist steps of the pretzels and of trefoil's Whitehead double,
        # whose strands are antiparallel, and the leaves of closed chains
        # with parallel and antiparallel strands at both corner parities
        seen = twist_forms(monkeypatch)
        for d in (torus_2(5), torus_2(-6), reversed_component(torus_2(8)),
                  reversed_component(torus_2(-8))):
            homfly(d)
            kauffman_f(d)
        for p in LONG_TWIST_PRETZELS:
            homfly(pretzel(*p))
            kauffman_f(pretzel(*p))
        homfly(whitehead_double(named_knot("trefoil")))
        assert seen == {("homfly", "parallel"), ("homfly", "antiparallel"),
                        ("kauffman", "dubrovnik")} | {
            (tree, form, "leaf", parity)
            for tree, form in (("homfly", "parallel"),
                               ("homfly", "antiparallel"),
                               ("kauffman", "dubrovnik"))
            for parity in ("odd", "even")}

    @pytest.mark.parametrize("engine", (homfly, kauffman_f))
    def test_long_twist_one_node(self, monkeypatch, engine):
        # the twist of P(k, 3, 3, -2) costs one node whatever its length;
        # resolved a crossing at a time it cost 6 HOMFLY nodes per two
        # crossings
        counts = {counted(monkeypatch, engine, pretzel(k, 3, 3, -2))[1]
                  for k in (5, 7, 9, 11)}
        assert len(counts) == 1


def closed_chain_family(n: int, reverse: bool) -> list[PlanarDiagram]:
    """T(2, n), with the component through crossing 0's under-strand
    reversed if `reverse`: plain, with a kink of each sign and with one
    and with two more free loops, each followed by its mirror."""
    d = torus_2(n)
    if reverse:
        d = reversed_component(d)
    family = []
    for e in (d, add_kink(d, 1), add_kink(d, -1),
              PlanarDiagram(d.crossings, d.free_loops + 1),
              PlanarDiagram(d.crossings, d.free_loops + 2)):
        family += (e, mirror(e))
    return family


def values_digest(ds) -> str:
    """A digest of the HOMFLY and Kauffman polynomials of the diagrams."""
    text = "\n".join(f"{homfly(e)}|{kauffman_f(e)}" for e in ds)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# n: values_digest(closed_chain_family(n, reverse)) without and with
# reverse (None for odd n), taken before a whole closed chain became a
# leaf, when the trees resolved it a crossing or a twist region at a time
CLOSED_CHAIN_DIGESTS = {
    2: ("cdda6fa29ed8b80e", "89f4d12f6b87c070"),
    -2: ("89f4d12f6b87c070", "cdda6fa29ed8b80e"),
    3: ("ed8b707aa859f150", None),
    -3: ("fab55f62066d9a8a", None),
    4: ("5d0895ec6b3285ec", "c8aac9cffad0af96"),
    -4: ("44877d5ee5c96594", "43ff55301c2d908f"),
    5: ("a55c0d2876674505", None),
    -5: ("b22624e26f0f7a2a", None),
    6: ("944a1fb2f8e49beb", "1fd95e8ed60ca6cf"),
    -6: ("180cfc05460d9a4e", "9cfdcd7ac4952397"),
    7: ("87400271409e17ed", None),
    -7: ("0bc7b261cbb88684", None),
    8: ("d527adda91aeb674", "16c05b232cc8d8d0"),
    -8: ("e91e2a5c93088757", "f8c079dceaffc39b"),
    9: ("26550ed82b048321", None),
    -9: ("4d76fdd77ec3df88", None),
    10: ("148d1e8c0f576286", "19f085fcc705fa70"),
    -10: ("6201c3487f9d7f9a", "b071d975db4106c0"),
    11: ("4cf3439819b5fcfc", None),
    -11: ("1768de0b73d604e9", None),
    12: ("d171d068716fd577", "0ab98e26f0e7c765"),
    -12: ("00416c25eea93495", "01469483ffd1464b"),
}

# Split links of a closed chain and another component, as (braid, braids
# of the components, values_digest of the closure and its mirror taken
# before a whole closed chain became a leaf)
SPLIT_CLOSED_CHAINS = (
    ("4 | 1 1 1 3 3 3", ("2 | 1 1 1", "2 | 1 1 1"), "ce67724c400bfb4c"),
    ("5 | 1 1 3 -4 3 -4", ("2 | 1 1", "3 | 1 -2 1 -2"), "4bd2ecf1fec0501e"),
    ("4 | 1 1 1 1 1 -3 -3 -3 -3", ("2 | 1 1 1 1 1", "2 | -1 -1 -1 -1"),
     "c7fa50837bdea932"),
)


class TestClosedChainLeaf:
    """A state that is one closed chain of bigons through all its
    crossings, a whole T(2, n), is a leaf: one node, no child, valued by
    the closed form of its twist region.  The values against the
    state-sum bracket and against the trees' values before the leaf."""

    @pytest.mark.parametrize("n", [n for k in range(2, 13) for n in (k, -k)])
    def test_values(self, n):
        for reverse in (False, True) if n % 2 == 0 else (False,):
            family = closed_chain_family(n, reverse)
            for e in family:
                bracket = bracket_state_sum(e)
                jones_reading_check(e, bracket)
                kauffman_bracket_check(e, bracket)
            assert values_digest(family) == CLOSED_CHAIN_DIGESTS[n][reverse]

    @pytest.mark.parametrize("engine", (homfly, kauffman_f))
    def test_one_node(self, monkeypatch, engine):
        seen = twist_forms(monkeypatch)
        for n in (2, -2, 3, -3, 8, -9):
            for e in closed_chain_family(n, n % 2 == 0):
                assert counted(monkeypatch, engine, e)[1] == 1
        assert {s[2:] for s in seen} == {("leaf", "odd"), ("leaf", "even")}

    @pytest.mark.parametrize("word, parts, digest", SPLIT_CLOSED_CHAINS,
                             ids=[w for w, _, _ in SPLIT_CLOSED_CHAINS])
    def test_split_component_is_no_leaf(self, word, parts, digest):
        # a closed chain that is one split component of the state is
        # resolved, and the link's values are the product of its
        # components' values times delta, the 2-component unlink's
        d = braid_closure(parse_braid(word))
        split = [braid_closure(parse_braid(p)) for p in parts]
        for e, es in ((d, split), (mirror(d), [mirror(p) for p in split])):
            for engine in (homfly, kauffman_f):
                want = engine(PlanarDiagram([], 2))
                for p in es:
                    want = want * engine(p)
                assert engine(e) == want
        assert values_digest([d, mirror(d)]) == digest


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
    "trefoil": ((35, 19, 9), (89, 56, 23), (652, 268, 179)),
    "figure8": ((91, 49, 31), (181, 111, 49), (2000, 826, 634)),
    "5_1": ((197, 101, 70), (1483, 893, 498), (2000, 799, 592)),
    "5_2": ((201, 108, 65), (2000, 1378, 394), (2000, 868, 474)),
    "6_1": ((933, 510, 274), (2000, 1324, 420), (2000, 920, 442)),
    "6_2": ((515, 274, 173), (2000, 1177, 650), (2000, 831, 601)),
    "6_3": ((919, 495, 300), (2000, 1227, 576), (2000, 829, 611)),
    ((0, -4), (0, -3)): ((1487, 751, 649), (2000, 1137, 746),
                         (2000, 738, 766)),
    ((0, -4), (0, -1, -2)): ((1155, 597, 453), (2000, 1154, 710),
                             (2000, 772, 681)),
}
# The same for the HOMFLY and Kauffman trees of each MUTANT_SLATE knot and
# its mutant, unbudgeted.
PRETZEL_SHAPES = {
    (3, 2, 3, -3): ((13, 8, 4), (25, 12, 11)),
    (3, 2, -3, 3): ((17, 10, 6), (25, 12, 11)),
    (-3, 2, -3, 3): ((9, 5, 3), (25, 10, 9)),
    (-3, 2, 3, -3): ((9, 5, 3), (25, 11, 8)),
    (5, 3, -2, -3): ((11, 7, 4), (25, 11, 12)),
    (5, 3, -3, -2): ((9, 6, 3), (25, 11, 12)),
    (-5, 3, -2, 3): ((9, 5, 3), (28, 12, 9)),
    (-5, 3, 3, -2): ((11, 7, 4), (31, 14, 12)),
    (7, 3, 3, -2): ((11, 7, 4), (25, 12, 11)),
    (7, 3, -2, 3): ((11, 7, 4), (25, 12, 11)),
    (7, -3, -2, -3): ((9, 6, 3), (31, 13, 16)),
    (7, -3, -3, -2): ((11, 7, 4), (31, 13, 16)),
}


def companion_diagram(companion) -> PlanarDiagram:
    """A named knot, or a 2-bridge knot by its two tangle vectors."""
    if isinstance(companion, str):
        return named_knot(companion)
    a, b = companion
    return TangleDecomposition(rational_tangle(list(a)),
                               rational_tangle(list(b))).glue("2b")


def satellite_trees(companion) -> list:
    """(engine, diagram, node cap) of the companion's three satellite
    trees, in the order and under the caps of `SATELLITE_SHAPES`."""
    d = companion_diagram(companion)
    cap = 40_000 if companion in ("trefoil", "figure8") else 2000
    double = whitehead_double(d, -d.writhe(), 1)
    return [(homfly, double, cap), (homfly, cable(d, 2, -1), cap),
            (kauffman_f, double, 2000)]


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
    resolves in more nodes than before; the values did not change.  They
    changed by design, and no tree here grew, once more when a state that
    is one closed chain of bigons, a whole T(2, n), became a leaf, and
    again when the memo came to be keyed on a state with its free loops
    taken out."""

    @pytest.mark.parametrize("companion", SATELLITE_SHAPES, ids=str)
    def test_satellite_trees(self, monkeypatch, companion):
        got = tuple(tree_shape(monkeypatch, *tree)
                    for tree in satellite_trees(companion))
        assert got == SATELLITE_SHAPES[companion]

    @pytest.mark.parametrize("p", PRETZEL_SHAPES, ids=str)
    def test_mutant_slate_trees(self, monkeypatch, p):
        d = pretzel(*p)
        got = tuple(tree_shape(monkeypatch, engine, d, None)
                    for engine in (homfly, kauffman_f))
        assert got == PRETZEL_SHAPES[p]


class TestNoMemoryKept:
    """A tree's memo lives only while the tree runs, and a stopped tree's
    exception carries its counts but not its frames; the twist
    coefficients and the powers of delta, which depend only on the
    relation and the width, live for the process.  With the cyclic
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
            (6705, "4319 memo entries, 1844 memo hits")

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
        assert budget.progress() == "1303 memo entries, 702 memo hits"
        assert str(info.value) == ("node budget exhausted after 3000 nodes "
                                   "expanded, 1303 memo entries, "
                                   "702 memo hits")


def recurrence_coeffs(k: int, a: tuple, b: tuple | None,
                      c: tuple | None) -> tuple:
    """(alpha_k, beta_k, gamma_k) of `skein2._twist_coeffs`, step by step:
    x_j = a x_(j-2) + b x_(j-1) from (x_0, x_1) = (0, 1), (1, 0) and, with
    c_j = x^(c[0] + (j - 1) c[1]) times c[2] added, (0, 0)."""
    def times(p: dict, m: tuple | None) -> dict:
        if m is None:
            return {}
        return {e + m[0]: v * m[1] for e, v in p.items()}

    def plus(*ps: dict) -> dict:
        out: dict = {}
        for p in ps:
            for e, v in p.items():
                out[e] = out.get(e, 0) + v
        return {e: v for e, v in out.items() if v}

    def run(x0: dict, x1: dict, with_c: bool) -> dict:
        xs = [x0, x1]
        for j in range(2, k + 1):
            cj = {c[0] + (j - 1) * c[1]: c[2]} if with_c and c else {}
            xs.append(plus(times(xs[j - 2], a), times(xs[j - 1], b), cj))
        return xs[k]

    return run({}, {0: 1}, False), run({0: 1}, {}, False), run({}, {}, True)


def table_snapshot() -> tuple:
    """Copies of the twist-coefficient and delta-power tables' values."""
    return ({key: tuple(dict(p) for p in triple)
             for key, triple in skein2._COEFFS.items()},
            {key: [dict(p) for p in powers]
             for key, powers in skein2._POWERS.items()})


class TestSharedTables:
    """The twist coefficients and the powers of delta are built once per
    process, for each relation and packing width, and shared by every
    tree: the values against their recurrences, and no tree mutates
    them."""

    @pytest.mark.parametrize("w", (32, 128))
    def test_twist_coeffs_recurrence(self, w):
        terms = [skein2._RDiagram._twist_terms(positive, odd, w)
                 for positive in (True, False) for odd in (True, False)]
        terms += [skein2._UDiagram._twist_terms(True, odd, w)
                  for odd in (True, False)]
        # HOMFLY parallel and antiparallel at both signs, Kauffman at both
        # parities
        assert {(b is None, c is None) for b, c in
                (t[1:] for t in terms)} == {(False, True), (True, False),
                                            (False, False)}
        for k in range(2, 15):
            for t in terms:
                got = tuple({e: v for e, v in p.items() if v}
                            for p in skein2._twist_coeffs(k, *t))
                assert got == recurrence_coeffs(k, *t), (k, t)

    @staticmethod
    def delta_powers(delta: dict, w: int, n: int) -> list:
        """[delta^0, ..., delta^n], packed with width w, one product at a
        time."""
        packed = {e1 * w + e2: c for (e1, e2), c in delta.items()}
        out = [{0: 1}]
        for _ in range(n):
            out.append({e: v for e, v in skein2._product(
                out[-1], 0, 1, packed).items() if v})
        return out

    def test_power_table(self):
        for delta, w in ((skein2._DELTA_P, 32), (skein2._DELTA_F, 64)):
            power = skein2._power_table(delta, w)
            assert power(0) is skein2._ONE
            assert [power(k) for k in range(8)] == \
                self.delta_powers(delta, w, 7)
            assert skein2._power_table(delta, w)(7) is power(7)

    def test_power_table_threads(self):
        # more threads than cores grow one new list at once, switching
        # every microsecond: no power is appended twice or out of turn
        w = 1 << 21  # wider than any tree's, so the list starts new
        key = (tuple(skein2._DELTA_F.items()), w)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(
                target=lambda k=k: skein2._power_table(skein2._DELTA_F, w)(k))
                for k in (30, 10, 30, 20, 30, 25, 30, 30)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert skein2._POWERS[key] == \
                self.delta_powers(skein2._DELTA_F, w, 30)
        finally:
            sys.setswitchinterval(interval)
            skein2._POWERS.pop(key, None)

    def test_trees_leave_tables_unchanged(self):
        # the slate and the satellites' trees, then again: the second
        # pass adds no entry, and no value stored by either pass moves
        def run():
            for p in PRETZEL_SHAPES:
                homfly(pretzel(*p))
                kauffman_f(pretzel(*p))
            for companion in SATELLITE_SHAPES:
                for tree in satellite_trees(companion):
                    capped_value(*tree)

        before = table_snapshot()
        run()
        first = table_snapshot()
        for old, new in zip(before, first):
            assert all(new[key] == value for key, value in old.items())
        run()
        assert table_snapshot() == first
        assert first[0] and first[1]
        # every stored triple is the one that its key names
        for ((k, positive, odd), w, signed), triple in first[0].items():
            state = skein2._RDiagram if signed else skein2._UDiagram
            assert triple == skein2._twist_coeffs(
                k, *state._twist_terms(positive, odd, w))


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


DELTA_P = parse_poly2("-l*m^-1 - l^-1*m^-1")
DELTA_F = parse_poly2("a*z^-1 - a^-1*z^-1 + 1", variables=("a", "z"))


def loop_family(rng: random.Random) -> list[PlanarDiagram]:
    """A closure of `nontrivial_knot_braid` and one of `random_braid` (a
    link or a knot), each with its mirror and a kink of each sign."""
    family = []
    for b in (nontrivial_knot_braid(rng, max_strands=5, max_letters=10),
              random_braid(rng, max_strands=5, max_letters=10)):
        d = braid_closure(b)
        family += (d, mirror(d), add_kink(d, 1), add_kink(mirror(d), -1))
    return family


def capped_value(engine, d: PlanarDiagram, cap: int) -> str:
    """engine(d) under a cap of `cap` nodes, or 'limited'."""
    try:
        return str(engine(d, max_nodes=cap))
    except ResourceLimitExceeded:
        return "limited"


def capped_digest(trees) -> str:
    """A digest of `capped_value` over (engine, diagram, cap) triples."""
    text = "\n".join(capped_value(*t) for t in trees)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def random_closure_trees(seed: int) -> list:
    """Both trees of 10 closures of `random_braid` (links too), each
    plain, mirrored and kinked both ways, under a 20,000-node cap."""
    rng = random.Random(seed)
    trees = []
    for _ in range(10):
        d = braid_closure(random_braid(rng, max_strands=5, max_letters=40))
        for e in (d, mirror(d), add_kink(add_kink(d, 1), -1)):
            trees += ((homfly, e, 20_000), (kauffman_f, e, 20_000))
    return trees


# Digests of the values of trees in which free loops arise part way down,
# taken before the memo came to be keyed on the loop-free state
SLATE_DIGEST = "8f9884451e458624"
SATELLITE_DIGESTS = {
    "trefoil": "1f494431789cdc20",
    "figure8": "c1f3cf1fcce2f789",
    "5_1": "3fd9f8d02f0d4954",
    "5_2": "d8fec8a5fb7b5707",
    "6_1": "c9ece9d1edd48822",
    "6_2": "ca30da499350945b",
    "6_3": "7063191d02608338",
    ((0, -4), (0, -3)): "5a1ac246a7570ee7",
    ((0, -4), (0, -1, -2)): "d923d3c00ddede1f",
}
RANDOM_CLOSURE_DIGESTS = {0: "84c9580bedd764a9", 1: "acf547ca983e03bb",
                          2: "d376e5d2ddb0d623", 3: "be3c14a826f5372f"}


class TestFreeLoops:
    """A free loop is a factor: P(D + O) = delta_P P(D) and F(D + O) =
    delta_F F(D).  The trees take a state's free loops out before its
    memo key and multiply them back as they combine its value, so the
    values must not move: the identity on seeded diagrams, and digests of
    trees in which loops arise part way down, frozen before the change."""

    @pytest.mark.parametrize("seed", range(6))
    def test_loop_is_delta(self, seed):
        for d in loop_family(random.Random(seed)):
            for engine, delta in ((homfly, DELTA_P), (kauffman_f, DELTA_F)):
                want = engine(d)
                for k in (1, 2):
                    want = want * delta
                    assert engine(PlanarDiagram(d.crossings,
                                                d.free_loops + k)) == want

    def test_slate_values(self):
        ds = [pretzel(*p) for p in PRETZEL_SHAPES]
        assert values_digest(ds) == SLATE_DIGEST

    @pytest.mark.parametrize("companion", SATELLITE_SHAPES, ids=str)
    def test_satellite_values(self, companion):
        assert capped_digest(satellite_trees(companion)) == \
            SATELLITE_DIGESTS[companion]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_closure_values(self, seed):
        assert capped_digest(random_closure_trees(seed)) == \
            RANDOM_CLOSURE_DIGESTS[seed]
