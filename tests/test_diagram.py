"""Planar diagrams, braid closures, and knot-spec parsing."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_braid, vertical_twist, walked_components
from knotmut.diagram import (KNOT_BRAIDS, BraidWord, PlanarDiagram, add_kink,
                             braid_closure, connected_sum, faces, mirror,
                             named_knot, parse_braid, parse_knot_spec,
                             parse_pd, relabel)
from knotmut.satellites import cable, whitehead_double
from knotmut.tangles import (TangleDecomposition, mutate, random_decomposition,
                             tangle_sum)


class TestBraidWord:
    def test_parse(self):
        b = parse_braid("3 | 1 -2 1 -2")
        assert b.strands == 3
        assert b.letters == (1, -2, 1, -2)

    def test_writhe(self):
        assert parse_braid("3 | 1 -2 1 -2").writhe() == 0
        assert parse_braid("2 | 1 1 1").writhe() == 3

    def test_permutation_and_components(self):
        assert parse_braid("2 | 1").permutation() == [1, 0]
        assert parse_braid("2 | 1 1").permutation() == [0, 1]
        assert parse_braid("2 | 1 1").component_count() == 2
        assert parse_braid("2 | 1 1 1").component_count() == 1

    def test_inverse(self):
        b = parse_braid("3 | 1 -2 2")
        assert b.inverse().letters == (-2, 2, -1)

    @pytest.mark.parametrize("strands", [0, -1])
    def test_needs_a_strand(self, strands):
        # no strand is an empty diagram, not a knot
        with pytest.raises(ValueError, match="at least 1 strand"):
            BraidWord(strands, ())
        with pytest.raises(ValueError, match="at least 1 strand"):
            parse_braid(f"{strands} |")
        assert parse_braid("1 |").component_count() == 1  # the unknot


braids = st.integers(0, 2**30).map(lambda s: random_braid(random.Random(s)))


class TestBraidClosure:
    def test_trefoil(self):
        d = braid_closure(parse_braid("2 | 1 1 1"))
        d.validate()
        assert len(d.crossings) == 3
        assert d.writhe() == 3
        assert d.component_count() == 1

    @given(braids)
    @settings(max_examples=50)
    def test_closure_consistent(self, b):
        d = braid_closure(b)
        d.validate()
        assert d.writhe() == b.writhe()
        assert d.component_count() == b.component_count()


class TestDiagramOps:
    def test_mirror(self):
        d = braid_closure(parse_braid("2 | 1 1 1"))
        m = mirror(d)
        m.validate()
        assert m.writhe() == -d.writhe()
        assert mirror(m).writhe() == d.writhe()

    def test_connected_sum(self):
        t = braid_closure(parse_braid("2 | 1 1 1"))
        s = connected_sum(t, mirror(t))
        s.validate()
        assert len(s.crossings) == 6
        assert s.component_count() == 1
        assert s.writhe() == 0

    def test_missing_head_named(self):
        # an arc that no crossing absorbs cannot be cut
        t = named_knot("trefoil")
        with pytest.raises(ValueError, match=r"^arc 1000000 head not found$"):
            add_kink(t, 1, 10**6)
        with pytest.raises(ValueError, match=r"^arc 1000000 head not found$"):
            connected_sum(t, mirror(t), arc1=10**6)

    def test_connected_sum_arcs_from_their_own_diagram(self):
        # d2's arcs are renamed past d1's, so arc 6 of the joined list
        # would be an arc of the second trefoil
        t = named_knot("trefoil")
        assert t.arcs == set(range(6))
        with pytest.raises(ValueError, match=r"^arc 6 head not found$"):
            connected_sum(t, t, arc1=6)
        with pytest.raises(ValueError, match=r"^arc 9 head not found$"):
            connected_sum(t, t, arc2=9)
        s = connected_sum(t, t, arc1=5, arc2=5)
        assert len(s.crossings) == 6 and s.component_count() == 1

    def test_add_kink(self):
        d = braid_closure(parse_braid("2 | 1 1 1"))
        for sign in (1, -1):
            k = add_kink(d, sign)
            k.validate()
            assert k.writhe() == d.writhe() + sign
            assert k.component_count() == d.component_count()

    def test_relabel(self):
        d = relabel(braid_closure(parse_braid("3 | 1 -2 1 -2")))
        d.validate()
        assert d.arcs == set(range(len(d.arcs)))

    @given(st.integers(0, 2**30), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_component_count_is_arc_walk(self, seed, loops):
        # the count kept from the orientation solve, against a walk along
        # the arcs: braid closures (links too) and glued decompositions,
        # their mirrors and relabellings, and PD codes with free loops
        rng = random.Random(seed)
        b = braid_closure(random_braid(rng, max_strands=5))
        g = random_decomposition(rng, 10, require_knot=False).glue()
        ds = [b, mirror(b), relabel(mirror(b)), g, mirror(g),
              relabel(mirror(g)), parse_pd(f"O*{loops}")]
        for d in (b, g):
            try:
                faces(d.crossings)
            except ValueError:   # split: no PD code
                continue
            ds.append(parse_pd(str(PlanarDiagram(d.crossings, loops))))
        for d in ds:
            assert d.component_count() == walked_components(d)


class TestNamedKnots:
    @pytest.mark.parametrize("name", sorted(KNOT_BRAIDS))
    def test_valid(self, name):
        d = named_knot(name)
        d.validate()
        braid = parse_braid(KNOT_BRAIDS[name])
        assert d.component_count() == braid.component_count()

    def test_unknown(self):
        with pytest.raises(KeyError):
            named_knot("not-a-knot")


class TestKnotSpec:
    def test_bare_name(self):
        name, d, braid = parse_knot_spec("trefoil")
        assert name == "trefoil"
        assert braid is not None
        assert len(d.crossings) == len(braid.letters)

    def test_labelled_name(self):
        name, d, braid = parse_knot_spec("name=c 5_1")
        assert (name, d.name) == ("c", "c")
        assert len(braid.letters) == 5

    def test_braid_spec(self):
        name, d, braid = parse_knot_spec("name=k braid: 2 | 1 1 1")
        assert name == "k"
        assert braid.strands == 2
        assert d.component_count() == 1

    def test_named_braid_spec(self):
        # a built-in name after `braid:` stands for its braid word
        name, d, braid = parse_knot_spec("braid: trefoil")
        assert braid == parse_braid(KNOT_BRAIDS["trefoil"])
        assert (name, str(d)) == ("", str(named_knot("trefoil")))

    def test_pd_spec(self):
        src = braid_closure(parse_braid("2 | 1 1 1"))
        body = " ".join(f"X({a},{b},{c},{e})" for a, b, c, e in src.crossings)
        name, d, braid = parse_knot_spec(f"name=t pd: {body}")
        assert name == "t"
        assert braid is None
        assert len(d.crossings) == 3
        d.validate()

    def test_pd_parse_direct(self):
        src = braid_closure(parse_braid("3 | 1 -2 1 -2"))
        body = " ".join(f"X({a},{b},{c},{e})" for a, b, c, e in src.crossings)
        d = parse_pd(body)
        d.validate()
        assert d.component_count() == 1
        assert len(d.crossings) == 4


class TestFaces:
    @pytest.mark.parametrize("name", ("trefoil", "figure8", "6_2",
                                      "hopf_plus"))
    def test_euler(self, name):
        d = named_knot(name)
        fs = faces(d.crossings)
        assert len(fs) == len(d.crossings) + 2
        assert sorted(p for f in fs for p in f) == \
            list(range(4 * len(d.crossings)))

    def test_virtual_trefoil_refused(self):
        # a 2-crossing code whose faces do not close up in the plane
        with pytest.raises(ValueError, match=r"^the diagram has 2 faces, "
                           r"where a planar diagram with 2 crossings has 4$"):
            parse_pd("X(2,1,3,0) X(3,2,0,1)")
        with pytest.raises(ValueError, match="2 faces"):
            parse_knot_spec("pd: X(2,1,3,0) X(3,2,0,1)")

    def test_virtual_tuples_refused_at_construction(self):
        # a curl whose arc joins opposite legs has no planar drawing
        with pytest.raises(ValueError, match=r"^the diagram has 1 faces, "
                           r"where a planar diagram with 1 crossings has 3$"):
            PlanarDiagram([(0, 1, 0, 1)])
        # a split diagram is valid, and each of its pieces is checked
        split = braid_closure(parse_braid("4 | 1 3"))
        assert len(split.crossings) == 2
        with pytest.raises(ValueError, match=r"^the diagram has 7 faces, "
                           r"where a planar diagram with 3 crossings in 3 "
                           r"pieces has 9$"):
            PlanarDiagram(split.crossings + ((10, 11, 10, 11),))

    def test_split_code_round_trips(self):
        two = " ".join(f"X({a},{b},{c},{e})" for a, b, c, e in
                       connected_sum(named_knot("trefoil"),
                                     named_knot("figure8")).crossings)
        parse_pd(two)
        # a split link that knotmut builds reads back from its printed code
        split = braid_closure(parse_braid("4 | 1 3"))
        back = parse_pd(str(split))
        assert (back.crossings, back.positive, back.component_count()) == \
            (split.crossings, split.positive, 2)
        hopf = named_knot("hopf_plus").crossings
        side_by_side = " ".join(f"X({a + s},{b + s},{c + s},{e + s})"
                                for s in (0, 10) for a, b, c, e in hopf)
        # two Hopf diagrams side by side: each piece is checked on its own
        assert parse_pd(side_by_side).component_count() == 4
        with pytest.raises(ValueError, match=r"^the diagram has 5 faces, "
                           r"where a planar diagram with 3 crossings in 2 "
                           r"pieces has 7$"):
            parse_pd(" ".join(f"X({a},{b},{c},{e})" for a, b, c, e in hopf)
                     + " X(10,11,10,11)")


class TestOrientationContract:
    def test_arc_three_times_rejected(self):
        xs = list(named_knot("trefoil").crossings)
        xs[0] = (xs[1][0],) + xs[0][1:]
        with pytest.raises(ValueError,
                           match=r"^arc \d+ has 3 endpoints, expected 2$"):
            PlanarDiagram(xs)

    def test_arc_absorbed_twice_rejected(self):
        # arc 0 enters both crossings on leg 0
        with pytest.raises(ValueError, match="absorbed twice"):
            PlanarDiagram([(0, 1, 2, 3), (0, 3, 2, 1)])

    def test_immutable_except_name(self):
        d = named_knot("trefoil")
        assert isinstance(d.crossings, tuple)
        with pytest.raises(AttributeError):
            d.crossings = ()
        with pytest.raises(AttributeError):
            d.free_loops = 1
        d.name = "relabelled"
        assert d.name == "relabelled"

    @given(braids)
    @settings(max_examples=50)
    def test_mirror_involution(self, b):
        d = braid_closure(b)
        m = mirror(d)
        m.validate()
        assert m.positive == tuple(not p for p in d.positive)
        mm = mirror(m)
        assert mm.crossings == d.crossings
        assert mm.positive == d.positive


def _frozen_constructions() -> dict:
    tre, f8 = named_knot("trefoil"), named_knot("figure8")
    out = {}
    for d in (tre, f8):
        for clasp in (1, -1):
            out[f"double {d.name} {clasp:+d}"] = whitehead_double(d, -d.writhe(), clasp)
    # right-handed twists and a negative clasp, and a crossingless companion
    out["double trefoil 2 -1"] = whitehead_double(tre, 2, -1)
    out["double unknot 1 +1"] = whitehead_double(named_knot("unknot"), 1, 1)
    for sign in (1, -1):
        out[f"kink figure8 {sign:+d}"] = add_kink(f8, sign)
    td = TangleDecomposition(tangle_sum(vertical_twist(3), vertical_twist(3)),
                             tangle_sum(vertical_twist(-2), vertical_twist(-3)))
    out["P(3,3,-2,-3) vertical mutant"] = mutate(td, "vertical")
    out["mirror 5_2"] = mirror(named_knot("5_2"))
    out["cable trefoil 3 -1"] = cable(tre, 3, -1)
    out["trefoil # mirror"] = connected_sum(tre, mirror(tre))
    # a two-component link glued from raw tangles: the solver orients each
    # component by a free choice
    out["random link seed 9"] = random_decomposition(
        random.Random(9), 8, require_knot=False).glue()
    return out


# PD codes and crossing signs of the constructors' output, recorded before
# diagrams solved their own orientation; any change here is a change of
# diagram, not of bookkeeping.
FROZEN = {
    "double trefoil +1": (
        "X(0,1,2,3) X(2,4,5,6) X(7,1,8,9) X(10,4,7,11) X(11,12,13,10) X(13,14,15,5) X(16,12,9,17) X(18,14,16,19) X(19,20,21,18) X(21,22,6,15) X(23,20,17,24) X(3,22,23,25) X(25,24,26,27) X(28,29,27,26) X(29,28,30,31) X(32,33,31,30) X(33,32,34,35) X(36,37,35,34) X(38,39,0,37) X(39,38,36,8)",
        "-++--++--++-++++++++"),
    "double trefoil -1": (
        "X(0,1,2,3) X(2,4,5,6) X(7,1,8,9) X(10,4,7,11) X(11,12,13,10) X(13,14,15,5) X(16,12,9,17) X(18,14,16,19) X(19,20,21,18) X(21,22,6,15) X(23,20,17,24) X(3,22,23,25) X(25,24,26,27) X(28,29,27,26) X(29,28,30,31) X(32,33,31,30) X(33,32,34,35) X(36,37,35,34) X(37,38,39,0) X(8,39,38,36)",
        "-++--++--++-++++++--"),
    "double figure8 +1": (
        "X(0,1,2,3) X(2,4,5,6) X(7,1,8,9) X(10,4,7,11) X(11,12,13,14) X(13,15,16,17) X(18,12,9,19) X(20,15,18,21) X(14,22,23,10) X(23,24,6,5) X(25,22,17,26) X(3,24,25,27) X(27,28,29,30) X(29,31,19,32) X(33,28,26,16) X(21,31,33,20) X(34,35,0,30) X(35,34,32,8)",
        "-++--++--++--++-++"),
    "double figure8 -1": (
        "X(0,1,2,3) X(2,4,5,6) X(7,1,8,9) X(10,4,7,11) X(11,12,13,14) X(13,15,16,17) X(18,12,9,19) X(20,15,18,21) X(14,22,23,10) X(23,24,6,5) X(25,22,17,26) X(3,24,25,27) X(27,28,29,30) X(29,31,19,32) X(33,28,26,16) X(21,31,33,20) X(30,34,35,0) X(8,35,34,32)",
        "-++--++--++--++---"),
    "double trefoil 2 -1": (
        "X(0,1,2,3) X(2,4,5,6) X(7,1,8,9) X(10,4,7,11) X(11,12,13,10) X(13,14,15,5) X(16,12,9,17) X(18,14,16,19) X(19,20,21,18) X(21,22,6,15) X(23,20,17,24) X(3,22,23,25) X(26,25,24,27) X(27,28,29,26) X(30,29,28,31) X(31,32,33,30) X(33,34,35,0) X(8,35,34,32)",
        "-++--++--++-------"),
    "double unknot 1 +1": (
        "X(0,1,2,3) X(4,2,1,5) X(3,4,6,7) X(5,0,7,6)",
        "--++"),
    "kink figure8 +1": (
        "X(9,1,2,3) X(1,4,5,6) X(6,7,3,2) X(7,5,4,0) X(0,9,8,8)",
        "+-+-+"),
    "kink figure8 -1": (
        "X(9,1,2,3) X(1,4,5,6) X(6,7,3,2) X(7,5,4,0) X(0,8,8,9)",
        "+-+--"),
    "P(3,3,-2,-3) vertical mutant": (
        "X(0,1,2,3) X(4,5,1,0) X(6,7,5,4) X(8,2,9,10) X(10,9,11,12) X(12,11,7,13) X(14,15,16,3) X(15,17,6,16) X(18,14,8,19) X(20,18,19,21) X(17,20,21,13)",
        "------+++++"),
    "mirror 5_2": (
        "X(3,0,1,2) X(2,1,4,5) X(5,4,6,7) X(6,8,9,10) X(10,11,3,7) X(11,9,8,0)",
        "----+-"),
    "cable trefoil 3 -1": (
        "X(59,24,18,11) X(18,26,19,10) X(19,28,6,9) X(58,25,20,24) X(20,27,21,26) X(21,29,7,28) X(56,5,22,25) X(22,4,23,27) X(23,3,8,29) X(3,36,30,8) X(30,38,31,7) X(31,40,15,6) X(4,37,32,36) X(32,39,33,38) X(33,41,16,40) X(5,14,34,37) X(34,13,35,39) X(35,12,17,41) X(12,48,42,17) X(42,50,43,16) X(43,52,9,15) X(13,49,44,48) X(44,51,45,50) X(45,53,10,52) X(14,2,46,49) X(46,1,47,51) X(47,0,11,53) X(0,1,54,55) X(54,2,56,57) X(55,57,58,59)",
        "+++++++++++++++++++++++++++---"),
    "trefoil # mirror": (
        "X(0,1,2,3) X(1,4,5,2) X(4,6,3,5) X(7,6,8,9) X(9,8,10,11) X(11,10,0,7)",
        "+++---"),
    "random link seed 9": (
        "X(0,1,2,2) X(3,4,5,1) X(6,7,7,3) X(5,4,6,8) X(9,10,10,11) X(11,8,0,9)",
        "++----"),
}


class TestFrozenConstructions:
    @pytest.fixture(scope="class")
    def built(self):
        return _frozen_constructions()

    @pytest.mark.parametrize("key", sorted(FROZEN))
    def test_unchanged(self, built, key):
        d = built[key]
        pd, signs = FROZEN[key]
        assert str(d) == pd
        assert "".join("+" if p else "-" for p in d.positive) == signs
