"""Colored Jones polynomials by the R-matrix state sum, against cabling and
closed forms."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import lowest_digit_spy, pretzel, random_knot_diagram
from knotmut import colored
from knotmut.bracket import jones, kauffman_bracket
from knotmut.budget import ResourceLimitExceeded, time_limit
from knotmut.colored import (chebyshev_basis, colored_jones,
                             colored_jones_cabled, colored_jones_unnormalized,
                             rotations, state_sum)
from knotmut.diagram import (PlanarDiagram, add_kink, braid_closure,
                             connected_sum, faces, mirror, named_knot,
                             parse_braid, parse_pd)
from knotmut.laurent import LaurentPoly, LaurentPoly2, qint
from knotmut.satellites import cable
from knotmut.skein2 import cjones3_from_kauffman, kauffman_f
from test_skein2 import MUTANT_SLATE

UNKNOT = PlanarDiagram([], 1, "unknot")


class TestChebyshev:
    def test_small(self):
        assert chebyshev_basis(0) == {0: 1}
        assert chebyshev_basis(1) == {1: 1}
        assert chebyshev_basis(2) == {2: 1, 0: -1}
        assert chebyshev_basis(3) == {3: 1, 1: -2}

    def test_recursion(self):
        # e_n(2) = n+1 (Chebyshev at z = 2)
        for n in range(8):
            assert sum(c * 2**k for k, c in chebyshev_basis(n).items()) == n + 1


class TestVertexCalculus:
    """The closed e_n-colored loop, the base case of the trivalent calculus,
    read off the bracket of parallels of the unknot."""

    def test_loop_colors(self):
        # <e_n-colored unknot> = (-1)^n [n+1] with a = A^2
        for n in range(6):
            loop = LaurentPoly.zero("A")
            for k, c in chebyshev_basis(n).items():
                br = (kauffman_bracket(cable(UNKNOT, k, 0)) if k
                      else LaurentPoly.one("A"))
                loop = loop + c * br
            expect = qint(n + 1)
            if n % 2:
                expect = -expect
            assert loop.shrink(2, "a") == expect


class TestColoredJones:
    def test_unknot_all_colors(self):
        for n in range(1, 5):
            assert colored_jones(UNKNOT, n).is_one()

    def test_color_one_trivial(self):
        for name in ("trefoil", "figure8", "5_2"):
            assert colored_jones(named_knot(name), 1).is_one()

    def test_color_two_is_jones(self):
        for name in ("trefoil", "trefoil_mirror", "figure8", "5_2"):
            d = named_knot(name)
            # J(2; q) recovers V under t = 1/q
            assert colored_jones(d, 2) == jones(d).invert_var("q")

    @given(st.integers(0, 2**30))
    @settings(max_examples=10, deadline=None)
    def test_color_two_random(self, seed):
        d = random_knot_diagram(random.Random(seed), max_letters=8)
        assert colored_jones(d, 2) == jones(d).invert_var("q")

    @pytest.mark.parametrize("N", (2, 3))
    def test_connected_sum_multiplicative(self, N):
        a = braid_closure(parse_braid("2 | 1 1 1"))
        b = named_knot("figure8")
        s = connected_sum(a, b)
        assert colored_jones(s, N) == \
            colored_jones(a, N) * colored_jones(b, N)

    def test_trefoil_color3_mirror(self):
        d = named_knot("trefoil")
        m = named_knot("trefoil_mirror")
        j3 = colored_jones(d, 3)
        assert colored_jones(m, 3) == j3.invert_var()
        assert not j3.is_one()

    def test_link_rejected(self):
        hopf = named_knot("hopf_plus")
        with pytest.raises(ValueError):
            colored_jones(hopf, 2)
        with pytest.raises(ValueError):
            colored_jones_unnormalized(hopf, 3)


def kink_route(d, N):
    """Reference colored Jones: cable a zero-framed diagram, made by adding
    writhe-cancelling kinks, so no framing factor is needed afterwards."""
    base = d
    for _ in range(abs(d.writhe())):
        base = add_kink(base, -1 if d.writhe() > 0 else 1)
    assert base.writhe() == 0
    total = LaurentPoly.zero("A")
    for k, c in chebyshev_basis(N - 1).items():
        br = LaurentPoly.one("A") if k == 0 else \
            kauffman_bracket(cable(base, k, 0))
        total = total + c * br
    if (N - 1) % 2:
        total = -total
    return total.shrink(2, "a").exact_div(qint(N)).shrink(2, "q")


class TestFramingCorrection:
    """The twist-eigenvalue framing factor against cabling a kinked,
    zero-framed diagram."""

    @pytest.mark.parametrize("N", (2, 3, 4))
    @pytest.mark.parametrize("name", ("trefoil", "5_1", "5_2"))
    def test_kink_route(self, name, N):
        for d in (named_knot(name), mirror(named_knot(name))):
            assert abs(d.writhe()) >= 3
            assert colored_jones(d, N) == kink_route(d, N)

    def test_glued_pretzel(self):
        d = pretzel(3, 2, 3, -3)
        assert d.component_count() == 1
        assert d.writhe() == -5
        assert colored_jones(d, 3) == kink_route(d, 3)


def habiro_figure8(N):
    """J_N(4_1) = sum_{n<N} prod_{k=1..n} (q^N + q^-N - q^k - q^-k)."""
    total, term = LaurentPoly.zero("q"), LaurentPoly.one("q")
    for n in range(N):
        if n:
            term = term * LaurentPoly("q", {N: 1, -N: 1, n: -1, -n: -1})
        total = total + term
    return total


def masbaum_trefoil(N):
    """J_N(3_1) = q^(1-N) sum_{n<N} q^(-nN) prod_{k=1..n} (1 - q^(k-N))."""
    total, term = LaurentPoly.zero("q"), LaurentPoly.one("q")
    for n in range(N):
        if n:
            term = term * LaurentPoly("q", {0: 1, n - N: -1})
        total = total + LaurentPoly.monomial("q", 1 - N - n * N) * term
    return total


class TestClosedForms:
    """The state sum against the cyclotomic closed forms of Habiro and
    Masbaum (Masbaum, AGT 3, 2003), which use neither the R-matrix, the
    bracket nor a cable."""

    @pytest.mark.parametrize("N", range(1, 9))
    def test_figure8(self, N):
        assert colored_jones(named_knot("figure8"), N) == habiro_figure8(N)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_trefoil_and_mirror(self, N):
        # the mirror takes q to 1/q, which pins the chirality convention
        j = masbaum_trefoil(N)
        assert colored_jones(named_knot("trefoil"), N) == j
        assert colored_jones(named_knot("trefoil_mirror"), N) == \
            j.invert_var()


class TestCablingOracle:
    """The state sum against cabling, which brackets the (N-1)-parallel."""

    @pytest.mark.parametrize("p", MUTANT_SLATE)
    @pytest.mark.parametrize("N", (2, 3))
    def test_mutant_slate(self, p, N):
        for q in (p, (p[0], p[1], p[3], p[2])):
            d = pretzel(*q)
            assert colored_jones(d, N) == colored_jones_cabled(d, N)

    @pytest.mark.parametrize("p", ((3, 2, 3, -3), (5, 3, -2, -3)))
    def test_color_four(self, p):
        d = pretzel(*p)
        assert colored_jones(d, 4) == colored_jones_cabled(d, 4)

    @given(st.integers(0, 2**30))
    @settings(max_examples=15, deadline=None)
    def test_random_closures(self, seed):
        d = random_knot_diagram(random.Random(seed), max_letters=10)
        for N in (3, 4):
            assert colored_jones(d, N) == colored_jones_cabled(d, N)

    def test_kinked(self):
        # arcs joining two legs of one crossing are summed within its step
        d = named_knot("5_2")
        for N in (2, 3, 4):
            assert colored_jones(d, N) == colored_jones_cabled(d, N) == \
                colored_jones(add_kink(add_kink(d, 1), -1, 2), N)


class TestKauffmanSpecialization:
    """A report reads J_K(3) = F_K(a = q^2, z = q - q^-1) off its
    kauffman item, and test_report's TestRoutes checks it against the
    N = 3 state sum; a link's F has no such reading."""

    @pytest.mark.parametrize("f", (
        LaurentPoly2({(1, -1): 1, (-1, -1): -1, (0, 0): 1}, ("a", "z")),
        kauffman_f(named_knot("hopf_plus"))), ids=("unlink", "hopf"))
    def test_link_is_refused(self, f):
        with pytest.raises(ValueError, match="negative z-degree"):
            cjones3_from_kauffman(f)


class TestPaperScale:
    """Color 5 on the 13-15-crossing pretzels, where cabling took 72 s on
    P(7,3,3,-2) and ran out of 120 s on the other two."""

    @pytest.mark.parametrize("p", ((7, 3, 3, -2), (5, 3, -2, -3),
                                   (5, 5, -2, -3)))
    def test_color_five_in_budget(self, p):
        with time_limit(5):
            assert colored_jones(pretzel(*p), 5)

    def test_mutants_agree_at_color_five(self):
        assert colored_jones(pretzel(5, 3, -2, -3), 5) == \
            colored_jones(pretzel(5, 3, -3, -2), 5)

    def test_budget_counts_crossing_steps(self):
        with pytest.raises(ResourceLimitExceeded, match=(
                r"^time budget exhausted after \d+ of 15 crossing steps, "
                r"\d+ states$")), time_limit(0.0):
            colored_jones(pretzel(7, 3, 3, -2), 5)


class TestRotations:
    @pytest.mark.parametrize("d", (named_knot("figure8"), named_knot("6_2"),
                                   pretzel(3, 2, 3, -3)),
                             ids=lambda d: d.name)
    @pytest.mark.parametrize("N", (2, 3))
    def test_any_face_outer(self, d, N):
        values = {state_sum(d, N, rotations(d, outer))
                  for outer in range(len(faces(d.crossings)))}
        assert values == {colored_jones(d, N)}

    @pytest.mark.parametrize("d", (named_knot("figure8"), named_knot("6_2"),
                                   pretzel(3, 2, 3, -3)),
                             ids=lambda d: d.name)
    def test_whitney_index(self, d):
        # upright crossings turn by nothing, so the arcs' turns add up to
        # the rotation number of the knot's shadow, which by Whitney's
        # formula is c + 1 mod 2 for c double points, and at most the
        # number of Seifert circles, c + 1; moving the outer face across an
        # arc changes it by 2
        c = len(d.crossings)
        totals = {sum(rotations(d, outer).values())
                  for outer in range(c + 2)}
        assert {t % 2 for t in totals} == {(c + 1) % 2}
        assert len(totals) > 1 and max(map(abs, totals)) <= c + 1

    def test_crossingless_unknot(self):
        for N in range(1, 9):
            assert colored_jones(UNKNOT, N).is_one()

    @pytest.mark.parametrize("pd", ("X(0,0,1,1)", "X(0,1,1,0)"))
    def test_one_crossing_unknot(self, pd):
        # a curl: both arcs run from the crossing back to it
        for N in range(1, 6):
            assert colored_jones(parse_pd(pd), N).is_one()


def width_spy(monkeypatch) -> list[int]:
    """The digit width of every contraction that follows, read at its
    first step, the only one from the state of no open arcs."""
    widths = []
    step = colored._step

    def spy(entry, states, width):
        if () in states:
            widths.append(width)
        return step(entry, states, width)

    monkeypatch.setattr(colored, "_step", spy)
    return widths


def test_too_narrow_width_is_widened(monkeypatch):
    d = pretzel(3, 2, 3, -3)
    expected = colored_jones(d, 4)
    widths = width_spy(monkeypatch)
    monkeypatch.setattr(colored, "_digit_width", lambda N, f: 4)
    assert colored_jones(d, 4) == expected
    assert widths[:3] == [4, 8, 16]


@pytest.mark.parametrize("N", (2, 3, 4, 5))
def test_steps_see_no_shared_zero_digit(monkeypatch, N):
    seen = lowest_digit_spy(monkeypatch, colored)
    for p in MUTANT_SLATE:
        colored_jones(pretzel(*p), N)
    assert seen and all(seen)


class TestFirstWidth:
    """The first digit width fits the pretzels at N = 5, 6, and stays at
    32 bits where that fits."""

    @pytest.mark.parametrize("N", (5, 6))
    @pytest.mark.parametrize("p", ((5, 5, -2, -3), (7, 3, 3, -2),
                                   (3, 2, 3, -3)))
    def test_one_contraction(self, monkeypatch, p, N):
        d = pretzel(*p)
        widths = width_spy(monkeypatch)
        value = colored_jones(d, N)
        assert len(widths) == 1
        # the same value from 64-bit digits, which every one of these fits
        monkeypatch.setattr(colored, "_digit_width", lambda N, f: 64)
        assert colored_jones(d, N) == value
        assert widths[1:] == [64]

    @pytest.mark.parametrize("N", (2, 3))
    def test_slate_keeps_32_bits(self, monkeypatch, N):
        widths = width_spy(monkeypatch)
        for p in MUTANT_SLATE:
            colored_jones(pretzel(*p), N)
        assert widths == [32] * len(MUTANT_SLATE)

    @pytest.mark.parametrize("N", (4, 5))
    def test_companions_keep_32_bits(self, monkeypatch, N):
        names = ("trefoil", "figure8", "5_1", "5_2", "6_1", "6_2", "6_3")
        widths = width_spy(monkeypatch)
        for name in names:
            colored_jones(named_knot(name), N)
        assert widths == [32] * len(names)
