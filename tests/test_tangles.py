"""Tangle decompositions and mutation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import walked_components
from knotmut.alexander import alexander_pd
from knotmut.bracket import jones
from knotmut.tangles import (AXES, Tangle, TangleDecomposition, mutate,
                             random_decomposition, rational_tangle,
                             rotate_tangle, tangle_sum)


class TestRationalTangle:
    def test_zero_tangle(self):
        t = rational_tangle([])
        assert t.crossings == ()
        assert t.boundary["NW"] == t.boundary["NE"]
        assert t.boundary["SW"] == t.boundary["SE"]

    def test_crossing_count(self):
        assert len(rational_tangle([2, -3, 1]).crossings) == 6

    def test_glues_to_knot(self):
        # gluing two rational tangles yields a 2-bridge link diagram
        td = TangleDecomposition(rational_tangle([2]),
                                 rational_tangle([1, 1]))
        d = td.glue()
        d.validate()
        assert len(d.crossings) == 4


class TestRotation:
    @pytest.mark.parametrize("axis", AXES)
    def test_involution(self, axis):
        t = rational_tangle([2, 1, -1])
        r = rotate_tangle(rotate_tangle(t, axis), axis)
        assert r.crossings == t.crossings
        assert r.boundary == t.boundary

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            rotate_tangle(rational_tangle([1]), "diagonal")


class TestMutation:
    def test_component_count_guard(self):
        rng = random.Random(7)
        td = random_decomposition(rng, max_crossings=8)
        for axis in AXES:
            m = mutate(td, axis)
            m.validate()
            assert m.component_count() == 1

    @given(st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_mutants_keep_component_count(self, seed):
        # every rotation keeps the corner pairing, so links stay links
        # with as many components
        td = random_decomposition(random.Random(seed), 10, require_knot=False)
        n = walked_components(td.glue())
        for axis in AXES:
            m = mutate(td, axis)
            assert m.component_count() == walked_components(m) == n

    @given(st.integers(0, 2**30))
    @settings(max_examples=15, deadline=None)
    def test_mutants_share_jones_and_alexander(self, seed):
        rng = random.Random(seed)
        td = random_decomposition(rng, max_crossings=10)
        d = td.glue()
        v, a = jones(d), alexander_pd(d)
        for axis in AXES:
            m = mutate(td, axis)
            assert jones(m) == v
            assert alexander_pd(m) == a


class TestTangleSum:
    def test_crossings_add(self):
        a, b = rational_tangle([2]), rational_tangle([3])
        s = tangle_sum(a, b)
        assert len(s.crossings) == 5
        # still a valid tangle (constructor checks endpoint counts)
        assert isinstance(s, Tangle)


class TestRandomDecomposition:
    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_generates_knots(self, seed):
        td = random_decomposition(random.Random(seed), max_crossings=12)
        d = td.glue()
        d.validate()
        assert d.component_count() == 1
        assert 0 < len(d.crossings) <= 12
