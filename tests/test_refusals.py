"""Refusals of outside input that no other test reaches, one case each."""

import pytest

from knotmut.alexander import alexander_braid, normalize_alexander
from knotmut.colored import chebyshev_basis, colored_jones
from knotmut.diagram import (PlanarDiagram, add_kink, connected_sum,
                             named_knot, parse_braid, parse_pd)
from knotmut.laurent import LaurentPoly, parse_poly, qint
from knotmut.presentations import (GroupPresentation, reidemeister_schreier,
                                   wirtinger_presentation)
from knotmut.report import ReportOptions
from knotmut.satellites import cable, whitehead_double
from knotmut.tangles import Tangle

TREFOIL = named_knot("trefoil")

REFUSALS = {
    "braid letter": (lambda: parse_braid("2 | 2"),
                     ValueError, "letter 2 invalid for 2 strands"),
    "sum with loops": (
        lambda: connected_sum(PlanarDiagram(TREFOIL.crossings, 1), TREFOIL),
        ValueError, "connected sum of diagrams with free loops unsupported"),
    "kink on loops": (lambda: add_kink(PlanarDiagram([], 1), 1),
                      ValueError, "cannot kink a crossingless diagram"),
    "no crossings": (lambda: parse_pd("O*0"),
                     ValueError, "no crossings found in 'O*0'"),
    "cable strands": (lambda: cable(TREFOIL, 0),
                      ValueError, "n must be at least 1"),
    "clasp": (lambda: whitehead_double(TREFOIL, clasp=2),
              ValueError, "clasp must be +1 or -1"),
    "tangle boundary": (
        lambda: Tangle((), {"NW": 0, "NE": 0, "SW": 1}),
        ValueError, "boundary must label exactly NW, NE, SW, SE"),
    "tangle arc ends": (
        lambda: Tangle(((0, 1, 2, 3),),
                       {"NW": 0, "NE": 1, "SW": 2, "SE": 2}),
        ValueError, "arc 2 has 3 endpoints, expected 2"),
    "diagram arc ends": (lambda: PlanarDiagram([(0, 1, 2, 3), (2, 1, 0, 2)]),
                         ValueError, "arc 2 has 3 endpoints, expected 2"),
    "qint": (lambda: qint(-1), ValueError, "qint requires n >= 0"),
    "poly variable": (lambda: parse_poly("x", "t"),
                      ValueError, "unexpected variable 'x' in 'x'"),
    "relator generator": (lambda: GroupPresentation(1, ((2,),)),
                          ValueError, "bad generator 2 in relator"),
    "color": (lambda: colored_jones(TREFOIL, 0),
              ValueError, "N must be at least 1"),
    "report colors": (lambda: ReportOptions(colors=1),
                      ValueError, "colors must be at least 2, got 1"),
    "chebyshev": (lambda: chebyshev_basis(-1),
                  ValueError, "n must be nonnegative"),
    "alexander of a link": (lambda: alexander_braid(parse_braid("2 | 1 1")),
                            ValueError, "closure must be a knot"),
    "alexander span": (lambda: normalize_alexander(parse_poly("1 + t", "t")),
                       ValueError, "exponent span cannot be centered"),
    "alexander unit": (lambda: normalize_alexander(parse_poly("3", "t")),
                       ValueError, "determinant is not a unit at t=1 (got 3)"),
    "alexander symmetry": (
        lambda: normalize_alexander(parse_poly("t^-1 + 1 - t", "t")),
        ValueError, "normalized polynomial is not symmetric"),
    "schreier coset": (
        lambda: reidemeister_schreier(GroupPresentation(1, ((1,),)),
                                      [(1,), (0,)]),
        ValueError, "relator does not stabilize the coset"),
    "empty cable": (lambda: cable(PlanarDiagram([]), 2),
                    ValueError, "empty diagram"),
    "wirtinger of a link": (
        lambda: wirtinger_presentation(named_knot("hopf_plus")),
        ValueError, "diagram must be a knot"),
    "division by zero": (
        lambda: LaurentPoly("t", {1: 1}).exact_div(LaurentPoly.zero("t")),
        ZeroDivisionError, "division by zero polynomial"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refused(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
