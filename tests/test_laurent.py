"""Laurent polynomial arithmetic, parsing, and q-integer helpers."""

import itertools

import pytest
from hypothesis import given, strategies as st

from knotmut.laurent import (InexactDivision, LaurentPoly, LaurentPoly2,
                             VariableMismatch, parse_poly, parse_poly2, qint)


def poly(coeffs, var="t"):
    return LaurentPoly(var, coeffs)


small_polys = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9),
                              max_size=5).map(lambda d: poly(d))


class TestLaurentPoly:
    def test_zero_terms_dropped(self):
        assert poly({0: 0, 2: 3}) == poly({2: 3})
        assert poly({}).is_zero()

    def test_arithmetic(self):
        a, b = poly({-1: 2, 0: 1}), poly({0: -1, 3: 4})
        assert a + b == poly({-1: 2, 3: 4})
        assert a - a == poly({})
        assert a * b == poly({-1: -2, 0: -1, 2: 8, 3: 4})
        assert 2 * a == a + a
        assert a**0 == LaurentPoly.one("t")

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch):
            poly({0: 1}, "t") + poly({0: 1}, "q")

    @given(small_polys, small_polys)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(small_polys, small_polys, small_polys)
    def test_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(small_polys, small_polys)
    def test_exact_div_roundtrip(self, a, b):
        if b.is_zero():
            return
        assert (a * b).exact_div(b) == a

    def test_inexact_div(self):
        with pytest.raises(InexactDivision):
            poly({0: 1, 1: 1}).exact_div(poly({0: 2}))

    def test_stretch_shrink(self):
        p = poly({-1: 2, 2: 3})
        assert p.stretch(2, "q").shrink(2, "t") == p
        with pytest.raises(InexactDivision):
            poly({1: 1}).shrink(2, "q")

    def test_invert_var(self):
        p = poly({-1: 2, 2: 3})
        assert p.invert_var() == poly({1: 2, -2: 3})
        assert p.invert_var().invert_var() == p

    def test_call(self):
        p = poly({-1: 2, 2: 3})
        assert p(1) == 5

    @given(small_polys)
    def test_str_parse_roundtrip(self, p):
        assert parse_poly(str(p), "t") == p

    def test_parse_examples(self):
        assert parse_poly("-t^-4 + t^-3 + t^-1", "t") == \
            poly({-4: -1, -3: 1, -1: 1})
        assert parse_poly("1", "t") == LaurentPoly.one("t")
        assert parse_poly("0", "t") == LaurentPoly.zero("t")
        assert parse_poly("2 t", "t") == poly({1: 2})

    @pytest.mark.parametrize("parse,text", [
        (lambda s: parse_poly(s, "t"), "1 2t"),
        (lambda s: parse_poly(s, "t"), "t^1 2"),
        (parse_poly2, "1 2l"),
    ], ids=("coefficient", "exponent", "two-variable"))
    def test_space_between_digits_refused(self, parse, text):
        with pytest.raises(ValueError, match="bad polynomial term"):
            parse(text)

    def test_no_negative_powers(self):
        with pytest.raises(ValueError):
            LaurentPoly.monomial("t", 3) ** -1


class TestUnpack:
    """`LaurentPoly.unpack` reads signed `width`-bit digits back exactly
    when each lies in [-2^(width-1), 2^(width-1)); the readings of the
    skein polynomials and `alexander_pd` rely on it."""

    @staticmethod
    def packed(digits, width: int) -> int:
        return sum(c << (width * i) for i, c in enumerate(digits))

    @pytest.mark.parametrize("width", (2, 3, 8, 61))
    def test_round_trip_at_both_ends(self, width):
        top = 1 << (width - 1)
        ends = (-top, -top + 1, -1, 0, 1, top - 2, top - 1)
        for digits in itertools.product(ends, repeat=3):
            for off, step in ((0, 1), (-5, 1), (7, -1), (3, 2)):
                want = LaurentPoly("t", {off + step * i: c
                                         for i, c in enumerate(digits)})
                assert LaurentPoly.unpack("t", self.packed(digits, width),
                                          width, off, step) == want

    def test_two_bit_digits(self):
        # -2, 1, -1, 0, 1: each end of [-2, 2), read from 2-bit digits
        digits = (-2, 1, -1, 0, 1)
        assert LaurentPoly.unpack("q", self.packed(digits, 2), 2, -1) == \
            LaurentPoly("q", {-1: -2, 0: 1, 1: -1, 3: 1})
        assert LaurentPoly.unpack("q", self.packed(digits, 2), 2, 4, -1) == \
            LaurentPoly("q", {4: -2, 3: 1, 2: -1, 0: 1})

    @pytest.mark.parametrize("width", (2, 16))
    def test_zero(self, width):
        assert LaurentPoly.unpack("t", 0, width, 3, -1).is_zero()


two_polys = st.dictionaries(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                            st.integers(-9, 9), max_size=5).map(LaurentPoly2)


class TestLaurentPoly2:
    def test_arithmetic(self):
        a = LaurentPoly2.monomial(1, 0) + LaurentPoly2.monomial(0, 1)
        sq = a * a
        assert sq == (LaurentPoly2.monomial(2, 0) +
                      2 * LaurentPoly2.monomial(1, 1) +
                      LaurentPoly2.monomial(0, 2))

    @given(two_polys, two_polys)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(two_polys)
    def test_str_parse_roundtrip(self, p):
        assert parse_poly2(str(p)) == p


class TestTextForm:
    """The canonical text form, frozen.  The round trips above would pass
    under any format; the benchmark digests report values by their str."""

    ONE_VARIABLE = [
        ("t", {}, "0"),
        ("t", {0: 7}, "7"),
        ("t", {0: -1}, "-1"),
        ("t", {1: 1}, "t"),
        ("t", {1: -1}, "-t"),
        ("t", {-4: -1, -3: 1, -1: 1}, "-t^-4 + t^-3 + t^-1"),
        ("q", {-2: 3, 0: -5, 1: -1, 3: 12}, "3q^-2 - 5 - q + 12q^3"),
        ("A", {-7: 1, 5: -1}, "A^-7 - A^5"),
    ]
    TWO_VARIABLES = [
        (("l", "m"), {}, "0"),
        (("l", "m"), {(0, 0): -3}, "-3"),
        (("l", "m"), {(1, 0): 1}, "l"),
        (("l", "m"), {(0, 1): -1}, "-m"),
        (("l", "m"), {(-1, 0): -1, (0, -2): 2, (1, 1): 1, (2, -1): -4},
         "-l^-1 + 2*m^-2 + l*m - 4*l^2*m^-1"),
        (("a", "z"), {(-1, 1): 1, (0, 0): 1, (3, 0): -2},
         "a^-1*z + 1 - 2*a^3"),
    ]

    @pytest.mark.parametrize("var,coeffs,text", ONE_VARIABLE)
    def test_one_variable(self, var, coeffs, text):
        p = LaurentPoly(var, coeffs)
        assert str(p) == text
        assert repr(p) == f"LaurentPoly({var!r}, {text})"
        assert parse_poly(text, var) == p

    @pytest.mark.parametrize("variables,coeffs,text", TWO_VARIABLES)
    def test_two_variables(self, variables, coeffs, text):
        p = LaurentPoly2(coeffs, variables)
        assert str(p) == text
        assert repr(p) == f"LaurentPoly2({text})"
        assert parse_poly2(text, variables) == p


class TestQuantumIntegers:
    def test_qint_values(self):
        # balanced form: [n] = a^(n-1) + a^(n-3) + ... + a^(1-n)
        assert qint(0).is_zero()
        assert qint(1) == LaurentPoly.one("a")
        assert qint(2) == LaurentPoly("a", {-1: 1, 1: 1})
        assert qint(3) == LaurentPoly("a", {-2: 1, 0: 1, 2: 1})

    def test_qbrace(self):
        # [n] (a - a^-1) telescopes to a^n - a^-n
        brace_1 = LaurentPoly("a", {1: 1, -1: -1})
        for n in range(1, 7):
            assert qint(n) * brace_1 == LaurentPoly("a", {n: 1, -n: -1})
