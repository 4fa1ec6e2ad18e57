"""Kauffman bracket and Jones polynomial."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_braid, random_knot_diagram
from knotmut.bracket import DELTA, bracket_state_sum, jones, kauffman_bracket
from knotmut.diagram import (PlanarDiagram, add_kink, braid_closure,
                             connected_sum, mirror, named_knot, parse_braid)
from knotmut.laurent import LaurentPoly, parse_poly
from knotmut.satellites import cable

UNKNOT = PlanarDiagram([], 1, "unknot")


def poly(text, var="t"):
    return parse_poly(text, var)


class TestBracket:
    def test_unknot(self):
        assert kauffman_bracket(UNKNOT) == DELTA

    def test_positive_kink(self):
        # R1: a positive curl contributes -A^3
        d = braid_closure(parse_braid("2 | 1"))
        assert kauffman_bracket(d) == LaurentPoly("A", {3: -1}) * DELTA

    def test_negative_kink(self):
        d = braid_closure(parse_braid("2 | -1"))
        assert kauffman_bracket(d) == LaurentPoly("A", {-3: -1}) * DELTA

    def test_trefoil_frozen(self):
        # the classic 3-crossing bracket, positive-writhe diagram
        d = braid_closure(parse_braid("2 | 1 1 1"))
        assert kauffman_bracket(d) == \
            LaurentPoly("A", {7: 1, 3: 1, -1: 1, -9: -1})

    @given(st.integers(0, 2**30))
    @settings(max_examples=60, deadline=None)
    def test_state_sum_oracle(self, seed):
        b = random_braid(random.Random(seed))
        d = braid_closure(b)
        assert kauffman_bracket(d) == bracket_state_sum(d)

    @pytest.mark.parametrize("twists", (-1, 0, 1))
    def test_state_sum_on_cable(self, twists):
        d = cable(named_knot("trefoil"), 2, twists)
        assert kauffman_bracket(d) == bracket_state_sum(d)

    def test_mirror_inverts_A(self):
        d = named_knot("figure8")
        assert kauffman_bracket(mirror(d)) == kauffman_bracket(d).invert_var()


class TestJones:
    def test_unknot(self):
        assert jones(UNKNOT).is_one()

    def test_trefoil_pair(self):
        # with t = A^-4, this chirality carries the negative exponents
        assert jones(braid_closure(parse_braid("2 | -1 -1 -1"))) == \
            poly("-t^-4 + t^-3 + t^-1")
        assert jones(braid_closure(parse_braid("2 | 1 1 1"))) == \
            poly("t + t^3 - t^4")

    def test_figure8(self):
        assert jones(named_knot("figure8")) == \
            poly("t^-2 - t^-1 + 1 - t + t^2")

    def test_kink_invariance(self):
        d = named_knot("5_2")
        v = jones(d)
        assert jones(add_kink(d, 1)) == v
        assert jones(add_kink(add_kink(d, -1), -1)) == v

    @given(st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_mirror_symmetry(self, seed):
        d = random_knot_diagram(random.Random(seed))
        assert jones(mirror(d)) == jones(d).invert_var()

    def test_connected_sum_multiplicative(self):
        a, b = named_knot("trefoil"), named_knot("figure8")
        assert jones(connected_sum(a, b)) == jones(a) * jones(b)
