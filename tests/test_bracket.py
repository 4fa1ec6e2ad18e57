"""Kauffman bracket and Jones polynomial."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (lowest_digit_spy, pretzel, pretzel_decomposition,
                      random_braid, random_knot_diagram)
from knotmut import bracket
from knotmut.bracket import DELTA, bracket_state_sum, jones, kauffman_bracket
from knotmut.budget import ResourceLimitExceeded, time_limit
from knotmut.diagram import (BraidWord, PlanarDiagram, add_kink, braid_closure,
                             connected_sum, mirror, named_knot, parse_braid)
from knotmut.frontier import contraction_order
from knotmut.laurent import LaurentPoly, parse_poly
from knotmut.satellites import cable
from knotmut.tangles import mutate
from test_skein2 import MUTANT_SLATE

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

    @pytest.mark.parametrize("p", ((3, 3, -2, -3), (5, 3, -2, -3)), ids=str)
    def test_state_sum_on_pretzel_mutants(self, p):
        td = pretzel_decomposition(*p)
        for d in (td.glue(), mutate(td, "vertical")):
            assert kauffman_bracket(d) == bracket_state_sum(d)

    def test_state_sum_with_kinks_and_free_loops(self):
        # each kink's arc runs between two legs of its one crossing
        d = add_kink(add_kink(PlanarDiagram(named_knot("trefoil").crossings,
                                            2), 1), -1)
        assert d.free_loops == 2
        assert any(len(set(x)) < 4 for x in d.crossings)
        assert kauffman_bracket(d) == bracket_state_sum(d)

    def test_mirror_inverts_A(self):
        d = named_knot("figure8")
        assert kauffman_bracket(mirror(d)) == kauffman_bracket(d).invert_var()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_state_sum_oracle_on_links(self, data):
        # up to 6 strands: unused gaps split the closure, and most
        # permutations leave several components
        n = data.draw(st.integers(2, 6))
        letters = data.draw(st.lists(
            st.integers(1, n - 1).flatmap(lambda g: st.sampled_from((g, -g))),
            max_size=12))
        d = braid_closure(BraidWord(n, tuple(letters)))
        assert kauffman_bracket(d) == bracket_state_sum(d)

    def test_split_union_of_trefoils(self):
        # every loop weighs delta here (<unknot> = delta), so a split union
        # multiplies brackets with no extra factor of delta
        d = braid_closure(parse_braid("4 | 1 1 1 3 3 3"))
        trefoil = braid_closure(parse_braid("2 | 1 1 1"))
        assert kauffman_bracket(d) == kauffman_bracket(trefoil) ** 2
        assert kauffman_bracket(d) == bracket_state_sum(d)

    def test_mirror_inverts_A_on_60_crossing_parallel(self):
        d = cable(pretzel(7, 3, 3, -2), 2, 0)
        assert len(d.crossings) == 60
        assert kauffman_bracket(mirror(d)) == kauffman_bracket(d).invert_var()

    def test_too_narrow_width_is_widened(self, monkeypatch):
        # a coefficient of 3 wraps in 2-bit digits, and the overflow check
        # wants more headroom than 9 bits here, so every width must grow
        d = pretzel(3, 2, 3, -3)
        expected = bracket_state_sum(d)
        assert max(map(abs, expected.coeffs.values())) == 3
        step = bracket._step
        for width in (2, 5, 9):
            widths = []

            def spy(entry, states, w):
                if () in states:   # the first step of a contraction
                    widths.append(w)
                return step(entry, states, w)

            monkeypatch.setattr(bracket, "_digit_width", lambda plan: width)
            monkeypatch.setattr(bracket, "_step", spy)
            assert kauffman_bracket(d) == expected
            assert widths[0] == width and len(widths) > 1

    def test_time_budget_counts_crossing_steps(self):
        d = cable(named_knot("6_2"), 4, 0)
        with pytest.raises(ResourceLimitExceeded, match=(
                r"^time budget exhausted after \d+ of \d+ crossing steps, "
                r"\d+ states$")), time_limit(0.0):
            kauffman_bracket(d)


@pytest.mark.parametrize("d", [pretzel(*p) for p in MUTANT_SLATE]
                         + [cable(named_knot("6_2"), 2, 0)],
                         ids=lambda d: d.name)
def test_steps_see_no_shared_zero_digit(monkeypatch, d):
    expected = kauffman_bracket(d)
    seen = lowest_digit_spy(monkeypatch, bracket)
    assert kauffman_bracket(d) == expected
    assert len(seen) == len(d.crossings) - 1 and all(seen)


def quadratic_contraction_order(crossings: list) -> list[int]:
    """The greedy order as first written: a full rescan per pick."""
    n = len(crossings)
    todo = set(range(n))
    open_arcs: set[int] = set()
    counts: dict[int, int] = {}
    for x in crossings:
        for a in x:
            counts[a] = counts.get(a, 0) + 1
    used: dict[int, int] = {a: 0 for a in counts}
    order = []
    while todo:
        best = None
        for i in todo:
            x = crossings[i]
            opens = 0
            closes = 0
            for a in set(x):
                mult = x.count(a)
                if used[a] + mult == counts[a]:
                    if a in open_arcs:
                        closes += 1
                else:
                    opens += 1
            score = opens - closes
            if best is None or score < best[0]:
                best = (score, i)
        _, i = best
        order.append(i)
        todo.discard(i)
        x = crossings[i]
        for a in set(x):
            used[a] += x.count(a)
            if used[a] == counts[a]:
                open_arcs.discard(a)
            else:
                open_arcs.add(a)
    return order


class TestContractionOrder:
    @pytest.mark.parametrize("p", ((3, 2, 3, -3), (-3, 2, -3, 3),
                                   (5, 3, -2, -3), (-5, 3, -2, 3),
                                   (7, 3, 3, -2), (7, -3, -2, -3)))
    @pytest.mark.parametrize("k", (1, 2))
    def test_matches_rescan_on_pretzel_parallels(self, p, k):
        d = cable(pretzel(*p), k, 0) if k > 1 else pretzel(*p)
        assert contraction_order(d.crossings) == \
            quadratic_contraction_order(list(d.crossings))

    def test_matches_rescan_on_random_closures(self):
        rng = random.Random(8)
        for _ in range(200):
            d = braid_closure(random_braid(rng, 6, 12))
            assert contraction_order(d.crossings) == \
                quadratic_contraction_order(list(d.crossings))


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

    def test_even_link_refused(self):
        with pytest.raises(ValueError, match="2 components, so its Jones "
                                             "polynomial has half-integer"):
            jones(braid_closure(parse_braid("2 | 1 1")))
