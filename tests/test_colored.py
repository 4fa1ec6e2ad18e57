"""Colored Jones polynomials by Chebyshev cabling, against independent routes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import pretzel, random_knot_diagram
from knotmut.bracket import jones, kauffman_bracket
from knotmut.colored import (chebyshev_basis, colored_jones,
                             colored_jones_unnormalized)
from knotmut.diagram import (PlanarDiagram, connected_sum, mirror, named_knot,
                             parse_braid, braid_closure, zero_framed)
from knotmut.laurent import LaurentPoly, qint
from knotmut.satellites import cable

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
    base = zero_framed(d)
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
    """The cabling engine against the cyclotomic closed forms of Habiro and
    Masbaum (Masbaum, AGT 3, 2003), which use neither the bracket nor a
    cable."""

    @pytest.mark.parametrize("N", range(1, 6))
    def test_figure8(self, N):
        assert colored_jones(named_knot("figure8"), N) == habiro_figure8(N)

    @pytest.mark.parametrize("N", range(1, 6))
    def test_trefoil_and_mirror(self, N):
        # the mirror takes q to 1/q, which pins the chirality convention
        j = masbaum_trefoil(N)
        assert colored_jones(named_knot("trefoil"), N) == j
        assert colored_jones(named_knot("trefoil_mirror"), N) == \
            j.invert_var()
