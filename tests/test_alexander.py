"""Alexander polynomial: Fox calculus, arc coloring, and HOMFLY routes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import nontrivial_knot_braid, pretzel
from knotmut import alexander
from knotmut.alexander import (_coloring_rows, _det_bareiss, alexander_braid,
                               alexander_pd, normalize_alexander)
from knotmut.diagram import (add_kink, braid_closure, connected_sum, mirror,
                             named_knot, parse_braid)
from knotmut.laurent import LaurentPoly, parse_poly
from knotmut.satellites import cable, whitehead_double
from knotmut.skein2 import alexander_from_homfly, homfly
from test_skein2 import MUTANT_SLATE

ROLFSEN = {
    "trefoil": "t^-1 - 1 + t",
    "figure8": "-t^-1 + 3 - t",
    "5_1": "t^-2 - t^-1 + 1 - t + t^2",
    "5_2": "2t^-1 - 3 + 2t",
    "6_1": "-2t^-1 + 5 - 2t",
    "6_2": "-t^-2 + 3t^-1 - 3 + 3t - t^2",
    "6_3": "t^-2 - 3t^-1 + 5 - 3t + t^2",
}


class TestKnownValues:
    @pytest.mark.parametrize("name", sorted(ROLFSEN))
    def test_pd_route(self, name):
        assert alexander_pd(named_knot(name)) == parse_poly(ROLFSEN[name], "t")

    @pytest.mark.parametrize("name", sorted(ROLFSEN))
    def test_braid_route(self, name):
        from knotmut.diagram import KNOT_BRAIDS
        b = parse_braid(KNOT_BRAIDS[name])
        assert alexander_braid(b) == parse_poly(ROLFSEN[name], "t")


class TestNormalization:
    def test_at_one(self):
        for name in ROLFSEN:
            assert alexander_pd(named_knot(name))(1) == 1

    def test_symmetric(self):
        for name in ROLFSEN:
            p = alexander_pd(named_knot(name))
            assert p == p.invert_var()

    def test_normalize_centers(self):
        p = normalize_alexander(LaurentPoly("t", {2: -1, 3: 1, 4: -1}))
        assert p == LaurentPoly("t", {-1: 1, 0: -1, 1: 1})


class TestRouteAgreement:
    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_three_routes(self, seed):
        b = nontrivial_knot_braid(random.Random(seed), max_letters=8)
        d = braid_closure(b)
        via_pd = alexander_pd(d)
        assert alexander_braid(b) == via_pd
        assert alexander_from_homfly(homfly(d)) == via_pd


class TestProperties:
    def test_mirror_invariant(self):
        d = named_knot("trefoil")
        assert alexander_pd(mirror(d)) == alexander_pd(d)

    def test_connected_sum_multiplicative(self):
        a, b = named_knot("trefoil"), named_knot("figure8")
        got = alexander_pd(connected_sum(a, b))
        assert got == normalize_alexander(alexander_pd(a) * alexander_pd(b))

    def test_determinant(self):
        # |Delta(-1)| is the knot determinant
        dets = {"trefoil": 3, "figure8": 5, "5_1": 5, "5_2": 7,
                "6_1": 9, "6_2": 11, "6_3": 13}
        for name, det in dets.items():
            p = alexander_pd(named_knot(name))
            val = sum(c if e % 2 == 0 else -c for e, c in p.coeffs.items())
            assert abs(val) == det


def laurent_minor(d):
    """The coloring minor `alexander_pd` packs, with entries in Z[t].

    Every entry is affine in t, so the rows at t = 0 and t = 1 fix it."""
    n = len(d.crossings)
    t = LaurentPoly("t", {1: 1})
    return [[LaurentPoly("t", {0: r0.get(j, 0)})
             + t * (r1.get(j, 0) - r0.get(j, 0)) for j in range(n - 1)]
            for r0, r1 in zip(_coloring_rows(d, 0)[:-1],
                              _coloring_rows(d, 1)[:-1])]


class TestPackedDeterminant:
    """The determinant at t = 2^B, read off the Smith diagonal, against
    Bareiss over Z[t] on the same minor."""

    @given(st.integers(0, 2**30), st.sampled_from(("plain", "mirror", "kink")))
    @settings(max_examples=40, deadline=None)
    def test_matches_laurent_bareiss(self, seed, variant):
        rng = random.Random(seed)
        d = braid_closure(nontrivial_knot_braid(rng, max_strands=6,
                                                max_letters=16))
        if variant == "mirror":
            d = mirror(d)
        elif variant == "kink":
            # a kink puts two of a row's three arcs on one column
            d = add_kink(d, rng.choice((1, -1)), rng.choice(sorted(d.arcs)))
        want = normalize_alexander(_det_bareiss(laurent_minor(d)))
        assert alexander_pd(d) == want

    @pytest.mark.parametrize("rows, det", [
        ([[0, 1], [2, 3]], -2),               # a zero pivot, swapped
        ([[0, 1], [0, 2]], 0),                # a zero first pivot column
        ([[1, 2, 0], [1, 2, 1], [0, 0, 2]], 0),   # a zero later one
    ])
    def test_zero_pivots(self, rows, det):
        # row i times t^i: the determinant times t^(0 + 1 + ...)
        laurent = [[LaurentPoly("t", {i: x}) for x in row]
                   for i, row in enumerate(rows)]
        shift = len(rows) * (len(rows) - 1) // 2
        assert _det_bareiss(laurent) == LaurentPoly("t", {shift: det})

    @pytest.mark.parametrize("name", ("figure8", "6_3"))
    def test_wide_coefficients(self, name):
        # four summands: coefficients in the hundreds, far past what the
        # few bits a digit would need for any single factor
        factor = alexander_pd(named_knot(name))
        d = named_knot(name)
        for _ in range(3):
            d = connected_sum(d, named_knot(name))
        got = alexander_pd(d)
        assert got == normalize_alexander(factor ** 4)
        assert max(map(abs, got.coeffs.values())) >= 150

    def test_never_factors_the_diagonal(self, monkeypatch):
        # the packed determinant has about 2n(n - 1) bits, too many for
        # the trial division that abelian_invariants runs on each entry
        d = pretzel(*MUTANT_SLATE[2])
        want = alexander_pd(d)

        def refused(rows, ngens):
            raise AssertionError("alexander_pd factored its diagonal")
        monkeypatch.setattr(alexander, "abelian_invariants", refused)
        assert alexander_pd(d) == want


def companions():
    """The named knots, each with its mirror and a kink of either sign,
    and the slate pretzels: 34 (id, diagram) pairs of 3-15 crossings."""
    for name in ROLFSEN:
        d = named_knot(name)
        yield name, d
        yield f"{name}-mirror", mirror(d)
        for sign in (1, -1):
            yield f"{name}-kink{sign:+d}", add_kink(d, sign)
    for p in MUTANT_SLATE:
        d = pretzel(*p)
        yield d.name, d


COMPANIONS = dict(companions())


def torus_2(q: int) -> LaurentPoly:
    """Alexander polynomial of the (2, q) torus knot, q odd."""
    return normalize_alexander(
        LaurentPoly("t", {k: (-1) ** k for k in range(abs(q))}))


class TestSatellites:
    """Literature values for the diagram route on satellites of 13-84
    crossings, past the closures that the Bareiss oracle reaches."""

    @pytest.mark.parametrize("d", COMPANIONS.values(), ids=COMPANIONS)
    def test_whitehead_double_is_trivial(self, d):
        assert alexander_pd(whitehead_double(d)).is_one()

    @pytest.mark.parametrize("d", COMPANIONS.values(), ids=COMPANIONS)
    def test_cabling_formula(self, d):
        # Seifert: the blackboard 2-cable with one negative half-twist is
        # the (2, 2w - 1) cable, Delta_d(t^2) Delta_T(2, 2w - 1)(t)
        squared = LaurentPoly("t", {2 * e: c for e, c in
                                    alexander_pd(d).coeffs.items()})
        want = normalize_alexander(squared * torus_2(2 * d.writhe() - 1))
        assert alexander_pd(cable(d, 2, -1)) == want
