"""Exact Laurent polynomial arithmetic over the integers.

Single-variable Laurent polynomials carry a variable tag so that values
living in different rings (bracket variable A, its square a, q = a^2,
t = 1/q, the annulus variable z, ...) cannot be mixed silently.
Two-variable polynomials cover the (l, m) skein ring.  Both classes
share the ring code of the private base `_Laurent`: tests, equality,
hashing, sums, negation, non-negative powers and the text form.
`LaurentPoly` adds its product, exact division, substitutions,
evaluation and unpacking; `LaurentPoly2` adds its product on exponent
pairs.

The one canonical text form lists terms by ascending exponent with
" + "/" - " between them and `*` between the factors of a term in two
variables (`-2t^-1 + 3`, `l^-1*m - 2*m^2`); `parse_poly` and
`parse_poly2` read it back.  All coefficients are Python ints, so
nothing ever overflows.
"""

from __future__ import annotations

import re
from typing import Mapping


class VariableMismatch(TypeError):
    """Arithmetic between polynomials tagged with different variables."""


class InexactDivision(ArithmeticError):
    """Division that was required to be exact left a remainder."""


class _Laurent:
    """Ring code shared by `LaurentPoly` and `LaurentPoly2`.

    `_tag` is the variable tag, `_CONST` the exponent key of the constant
    term.  A subclass supplies `__mul__`.
    """

    __slots__ = ("_tag", "coeffs")
    _CONST = 0

    def __init__(self, tag, coeffs: Mapping | None):
        self._tag = tag
        self.coeffs = {k: c for k, c in (coeffs or {}).items() if c != 0}

    def _like(self, coeffs: Mapping) -> "_Laurent":
        """A polynomial of this class and tag with the given coefficients."""
        out = object.__new__(type(self))
        _Laurent.__init__(out, self._tag, coeffs)
        return out

    def _lift(self, other):
        """`other` as a polynomial: an int becomes a constant."""
        return self._like({self._CONST: other}) if isinstance(other, int) else other

    def _check(self, other: "_Laurent"):
        if self._tag != other._tag:
            raise VariableMismatch(f"cannot mix variables {self._tag!r} and {other._tag!r}")

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == {self._CONST: 1}

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if not isinstance(other, _Laurent):
            return NotImplemented
        return self._tag == other._tag and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self._tag, tuple(sorted(self.coeffs.items()))))

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported")
        out = self._like({self._CONST: 1})
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self) -> str:
        return _format(self._tag, sorted(self.coeffs.items()))


def _format(tag, terms) -> str:
    """The canonical text form of `terms`, (exponent, coefficient) pairs in
    ascending order; `tag` is one variable name or a tuple of names."""
    one = isinstance(tag, str)
    names, sep = ((tag,), "") if one else (tag, "*")
    out = ""
    for key, c in terms:
        body = [v if e == 1 else f"{v}^{e}"
                for v, e in zip(names, (key,) if one else key) if e]
        if abs(c) != 1 or not body:
            body.insert(0, str(abs(c)))
        out += f" {'-' if c < 0 else '+'} " if out else ("-" if c < 0 else "")
        out += sep.join(body)
    return out or "0"


class LaurentPoly(_Laurent):
    """Sparse Laurent polynomial sum_e coeffs[e] * var^e."""

    __slots__ = ()
    var = property(lambda self: self._tag, doc="The variable's name.")

    def __init__(self, var: str, coeffs: Mapping[int, int] | None = None):
        _Laurent.__init__(self, var, coeffs)

    @classmethod
    def zero(cls, var: str) -> "LaurentPoly":
        return cls(var)

    @classmethod
    def one(cls, var: str) -> "LaurentPoly":
        return cls(var, {0: 1})

    @classmethod
    def monomial(cls, var: str, exp: int, c: int = 1) -> "LaurentPoly":
        return cls(var, {exp: c})

    @classmethod
    def unpack(cls, var: str, packed: int, width: int, off: int = 0,
               step: int = 1) -> "LaurentPoly":
        """The polynomial sum c_i var^(off + step*i) whose coefficients are
        the signed `width`-bit digits c_i of `packed`, lowest first.

        `packed` is sum c_i 2^(width*i); this reads it back exactly when
        every c_i lies in [-2^(width-1), 2^(width-1)).  `width` is at least
        2: in 1-bit signed digits a positive int has no finite expansion.
        """
        coeffs = {}
        while packed:
            c = packed & ((1 << width) - 1)
            coeffs[off] = c = c - (c >> (width - 1) << width)
            packed = (packed - c) >> width
            off += step
        return cls(var, coeffs)

    def min_exp(self) -> int:
        return min(self.coeffs)

    # the benchmark tracer patches each class's own operators, so the
    # shared addition is bound here as well as in LaurentPoly2
    __add__ = __radd__ = _Laurent.__add__

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.var, {e: c * other for e, c in self.coeffs.items()})
        self._check(other)
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(self.var, out)

    __rmul__ = __mul__

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Divide by `other`, raising InexactDivision on any remainder."""
        other = self._lift(other)
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.var)
        # shift both to ordinary polynomials so the division terminates
        ns, ds = self.min_exp(), other.min_exp()
        rem = {e - ns: c for e, c in self.coeffs.items()}
        div = {e - ds: c for e, c in other.coeffs.items()}
        lead_e = max(div)
        lead_c = div[lead_e]
        quot: dict[int, int] = {}
        while rem:
            e = max(rem)
            c = rem[e]
            if e < lead_e or c % lead_c != 0:
                raise InexactDivision(f"{self} is not divisible by {other}")
            qe, qc = e - lead_e, c // lead_c
            quot[qe] = quot.get(qe, 0) + qc
            for oe, oc in div.items():
                ne = oe + qe
                nc = rem.get(ne, 0) - oc * qc
                if nc:
                    rem[ne] = nc
                else:
                    rem.pop(ne, None)
        return LaurentPoly(self.var, {e + ns - ds: c for e, c in quot.items()})

    # -- substitutions ------------------------------------------------

    def stretch(self, k: int, new_var: str) -> "LaurentPoly":
        """Substitute var = new_var^k (exponents multiply by k)."""
        return LaurentPoly(new_var, {e * k: c for e, c in self.coeffs.items()})

    def shrink(self, k: int, new_var: str) -> "LaurentPoly":
        """Substitute var^k = new_var; all exponents must be multiples of k."""
        out = {}
        for e, c in self.coeffs.items():
            if e % k != 0:
                raise InexactDivision(f"exponent {e} not a multiple of {k}")
            out[e // k] = c
        return LaurentPoly(new_var, out)

    def invert_var(self, new_var: str | None = None) -> "LaurentPoly":
        """Substitute var = 1/var (optionally renaming the variable)."""
        return LaurentPoly(new_var or self.var, {-e: c for e, c in self.coeffs.items()})

    def __call__(self, x):
        """Evaluate at a nonzero rational point; returns a Fraction."""
        from fractions import Fraction

        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * Fraction(x) ** e
        return total

    def __repr__(self) -> str:
        return f"LaurentPoly({self.var!r}, {self!s})"


class LaurentPoly2(_Laurent):
    """Sparse two-variable Laurent polynomial (default variables l, m)."""

    __slots__ = ()
    _CONST = (0, 0)
    vars = property(lambda self: self._tag, doc="The two variables' names.")

    def __init__(self, coeffs: Mapping[tuple[int, int], int] | None = None,
                 variables: tuple[str, str] = ("l", "m")):
        _Laurent.__init__(self, variables, coeffs)

    @classmethod
    def monomial(cls, e1: int, e2: int, c: int = 1, variables=("l", "m")) -> "LaurentPoly2":
        return cls({(e1, e2): c}, variables)

    # bound in the class itself for the benchmark tracer, as in LaurentPoly
    __add__ = __radd__ = _Laurent.__add__

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly2({k: c * other for k, c in self.coeffs.items()}, self.vars)
        self._check(other)
        out: dict[tuple[int, int], int] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = (k1[0] + k2[0], k1[1] + k2[1])
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly2(out, self.vars)

    __rmul__ = __mul__

    def __repr__(self):
        return f"LaurentPoly2({self!s})"


# -- text form --------------------------------------------------------

_TERM_RE = re.compile(r"(\d*)((?:\*?[A-Za-z]+(?:\^-?\d+)?)*)")
_FACTOR_RE = re.compile(r"\*?([A-Za-z]+)(?:\^(-?\d+))?")


def _parse(text: str, names: tuple[str, ...]) -> dict[tuple[int, ...], int]:
    """The coefficients of a polynomial in the canonical text form, keyed by
    exponent tuples over `names`.  Terms are separated by " + " or " - ";
    a term is an optional coefficient and factors var or var^e, with
    optional `*` between them and whitespace anywhere but between two
    digits."""
    text = text.strip()
    coeffs: dict[tuple[int, ...], int] = {}
    if text in ("0", ""):
        return coeffs
    lead, text = (text[0], text[1:]) if text[0] in "+-" else ("+", text)
    # exponent signs (t^-4) survive: term separators are space-delimited
    parts = re.split(r" ([+-]) ", text)
    for sign, term in [(lead, parts[0])] + list(zip(parts[1::2], parts[2::2])):
        m = _TERM_RE.fullmatch("".join(term.split()))
        if not m or not any(m.groups()) or re.search(r"\d\s+\d", term):
            raise ValueError(f"bad polynomial term {term!r}")
        exps = [0] * len(names)
        for v, e in _FACTOR_RE.findall(m[2]):
            if v not in names:
                raise ValueError(f"unexpected variable {v!r} in {term!r}")
            exps[names.index(v)] += int(e or 1)
        key = tuple(exps)
        c = int(m[1] or 1)
        coeffs[key] = coeffs.get(key, 0) + (-c if sign == "-" else c)
    return coeffs


def parse_poly(text: str, var: str) -> LaurentPoly:
    """Parse the canonical text form back into a polynomial."""
    return LaurentPoly(var, {e: c for (e,), c in _parse(text, (var,)).items()})


def parse_poly2(text: str, variables: tuple[str, str] = ("l", "m")) -> LaurentPoly2:
    """Parse the canonical two-variable text form back into a polynomial."""
    return LaurentPoly2(_parse(text, variables), variables)


# -- quantum integers -------------------------------------------------

def qint(n: int) -> LaurentPoly:
    """[n] = (a^n - a^-n)/(a - a^-1), the balanced quantum integer; [0]=0."""
    if n < 0:
        raise ValueError("qint requires n >= 0")
    if n == 0:
        return LaurentPoly.zero("a")
    # a^(n-1) + a^(n-3) + ... + a^(1-n)
    return LaurentPoly("a", {n - 1 - 2 * i: 1 for i in range(n)})
