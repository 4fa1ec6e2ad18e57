"""Cables and Whitehead doubles."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_knot_diagram
from knotmut.bracket import jones
from knotmut.diagram import PlanarDiagram, named_knot, parse_braid, braid_closure
from knotmut.satellites import cable, whitehead_double


class TestCable:
    def test_one_cable_is_identity_up_to_jones(self):
        d = named_knot("figure8")
        c = cable(d, 1, 0)
        c.validate()
        assert jones(c) == jones(d)

    def test_one_strand_is_the_companion(self):
        # half twists on a single strand are empty words; the cable is a
        # copy, so renaming it leaves the companion's name
        for d in (named_knot("figure8"), PlanarDiagram([], 1, "unknot")):
            for t in (0, 1, -1):
                c = cable(d, 1, t)
                assert (c.crossings, c.positive, c.free_loops, c.name,
                        c.component_count()) == \
                    (d.crossings, d.positive, d.free_loops, d.name,
                     d.component_count())
                c.name = "copy"
                assert d.name != "copy"

    def test_two_cable_structure(self):
        d = named_knot("trefoil")
        c = cable(d, 2, 0)
        c.validate()
        # n-cable: n^2 crossings per crossing, no extra twists
        assert len(c.crossings) == 4 * len(d.crossings)
        assert c.component_count() == 2
        assert c.writhe() == 4 * d.writhe()

    def test_half_twist_merges_components(self):
        d = named_knot("trefoil")
        c = cable(d, 2, -1)
        c.validate()
        assert len(c.crossings) == 4 * len(d.crossings) + 1
        assert c.component_count() == 1

    @given(st.integers(0, 2**30))
    @settings(max_examples=10, deadline=None)
    def test_random_cables_valid(self, seed):
        rng = random.Random(seed)
        d = random_knot_diagram(rng, max_letters=6)
        c = cable(d, 2, rng.choice([0, 1, -1]))
        c.validate()

    def test_three_cable(self):
        d = braid_closure(parse_braid("2 | 1 1 1"))
        c = cable(d, 3, 0)
        c.validate()
        assert len(c.crossings) == 9 * len(d.crossings)
        assert c.component_count() == 3


class TestWhiteheadDouble:
    def test_structure(self):
        d = named_knot("trefoil")
        for clasp in (1, -1):
            w = whitehead_double(d, -d.writhe(), clasp)
            w.validate()
            assert w.component_count() == 1

    @pytest.mark.parametrize("name", ("trefoil", "figure8", "5_2"))
    def test_default_framing_is_zero(self, name):
        # the default compensates the writhe: the 0-framed double
        d = named_knot(name)
        assert whitehead_double(d) == whitehead_double(d, -d.writhe())

    def test_framing_twists(self):
        d = named_knot("figure8")
        w0 = whitehead_double(d, 0, 1)
        w2 = whitehead_double(d, 2, 1)
        w0.validate()
        w2.validate()
        # each full twist adds two crossings
        assert len(w2.crossings) == len(w0.crossings) + 4

    def test_double_of_unknot_diagram(self):
        # doubling an unknotted closure gives an unknot (twist knot of 0 twists)
        d = braid_closure(parse_braid("2 | 1"))
        w = whitehead_double(d, -1, 1)
        w.validate()
        assert w.component_count() == 1
