"""Exact Laurent polynomial arithmetic over the integers.

Single-variable Laurent polynomials carry a variable tag so that values
living in different rings (bracket variable A, its square a, q = a^2,
t = 1/q, the annulus variable z, ...) cannot be mixed silently.
Two-variable polynomials cover the (l, m) skein ring.

All coefficients are Python ints, so nothing ever overflows.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping


class VariableMismatch(TypeError):
    """Arithmetic between polynomials tagged with different variables."""


class InexactDivision(ArithmeticError):
    """Division that was required to be exact left a remainder."""


class LaurentPoly:
    """Sparse Laurent polynomial sum_e coeffs[e] * var^e."""

    __slots__ = ("var", "coeffs", "_hash")

    def __init__(self, var: str, coeffs: Mapping[int, int] | None = None):
        self.var = var
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, var: str) -> "LaurentPoly":
        return cls(var)

    @classmethod
    def const(cls, var: str, c: int) -> "LaurentPoly":
        return cls(var, {0: c})

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

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == {0: 1}

    def min_exp(self) -> int:
        return min(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(self.var, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.var, tuple(sorted(self.coeffs.items()))))
        return self._hash

    def _check(self, other: "LaurentPoly"):
        if self.var != other.var:
            raise VariableMismatch(f"cannot mix variables {self.var!r} and {other.var!r}")

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(self.var, other)
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(self.var, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.var, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(self.var, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

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

    def __pow__(self, n: int):
        if n < 0:
            if len(self.coeffs) == 1:
                (e, c), = self.coeffs.items()
                if c in (1, -1):
                    return LaurentPoly(self.var, {e * n: c ** (n & 1)})
            raise ValueError("negative powers only supported for unit monomials")
        out = LaurentPoly.one(self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Divide by `other`, raising InexactDivision on any remainder."""
        if isinstance(other, int):
            other = LaurentPoly.const(self.var, other)
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

    # -- text form ------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self.var, sorted(self.coeffs.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({self.var!r}, {self!s})"


def format_poly(var: str, terms: Iterable[tuple[object, int]]) -> str:
    """Canonical text form: ascending exponents, explicit signs."""
    terms = list(terms)
    if not terms:
        return "0"
    parts = []
    for i, (e, c) in enumerate(terms):
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            pw = var if e == 1 else f"{var}^{e}"
            body = pw if mag == 1 else f"{mag}{pw}"
        if i == 0:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


_TERM_RE = re.compile(
    r"^\s*(?P<coef>\d+)?\s*(?:(?P<var>[A-Za-z]+)\s*(?:\^\s*(?P<exp>-?\d+))?)?\s*$"
)


def _split_terms(text: str) -> list[tuple[str, str]]:
    """Split "a - b + c" into signed terms; exponent signs (t^-4) survive
    because term separators are always space-delimited."""
    text = text.strip()
    lead = "+"
    if text.startswith("-"):
        lead, text = "-", text[1:].lstrip()
    elif text.startswith("+"):
        text = text[1:].lstrip()
    parts = re.split(r" ([+-]) ", text)
    out = [(lead, parts[0])]
    out.extend(zip(parts[1::2], parts[2::2]))
    return out


def parse_poly(text: str, var: str) -> LaurentPoly:
    """Parse the canonical text form back into a polynomial."""
    text = text.strip()
    if text in ("0", ""):
        return LaurentPoly.zero(var)
    coeffs: dict[int, int] = {}
    for sign, term in _split_terms(text):
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise ValueError(f"bad polynomial term {term!r}")
        if m.group("var") is not None and m.group("var") != var:
            raise ValueError(f"expected variable {var!r}, found {m.group('var')!r}")
        c = int(m.group("coef") or 1)
        e = 0 if m.group("var") is None else int(m.group("exp") or 1)
        s = -1 if sign == "-" else 1
        coeffs[e] = coeffs.get(e, 0) + s * c
    return LaurentPoly(var, coeffs)


class LaurentPoly2:
    """Sparse two-variable Laurent polynomial (default variables l, m)."""

    __slots__ = ("vars", "coeffs", "_hash")

    def __init__(self, coeffs: Mapping[tuple[int, int], int] | None = None,
                 variables: tuple[str, str] = ("l", "m")):
        self.vars = variables
        self.coeffs = {k: c for k, c in (coeffs or {}).items() if c != 0}
        self._hash = None

    @classmethod
    def zero(cls, variables=("l", "m")) -> "LaurentPoly2":
        return cls({}, variables)

    @classmethod
    def one(cls, variables=("l", "m")) -> "LaurentPoly2":
        return cls({(0, 0): 1}, variables)

    @classmethod
    def monomial(cls, e1: int, e2: int, c: int = 1, variables=("l", "m")) -> "LaurentPoly2":
        return cls({(e1, e2): c}, variables)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == {(0, 0): 1}

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly2({(0, 0): other}, self.vars)
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self.vars == other.vars and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, tuple(sorted(self.coeffs.items()))))
        return self._hash

    def _check(self, other):
        if self.vars != other.vars:
            raise VariableMismatch(f"cannot mix variables {self.vars} and {other.vars}")

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly2({(0, 0): other}, self.vars)
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return LaurentPoly2(out, self.vars)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly2({k: -c for k, c in self.coeffs.items()}, self.vars)

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly2({(0, 0): other}, self.vars)
        return self + (-other)

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

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported")
        out = LaurentPoly2.one(self.vars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self):
        if not self.coeffs:
            return "0"
        l, m = self.vars
        parts = []
        for i, ((e1, e2), c) in enumerate(sorted(self.coeffs.items())):
            body = []
            if e1:
                body.append(l if e1 == 1 else f"{l}^{e1}")
            if e2:
                body.append(m if e2 == 1 else f"{m}^{e2}")
            mag = abs(c)
            if mag != 1 or not body:
                body.insert(0, str(mag))
            s = "*".join(body)
            if i == 0:
                parts.append(("-" if c < 0 else "") + s)
            else:
                parts.append((" - " if c < 0 else " + ") + s)
        return "".join(parts)

    def __repr__(self):
        return f"LaurentPoly2({self!s})"


_TERM2_RE = re.compile(
    r"^(?P<coef>\d+)?"
    r"(?:\*?(?P<v1>[A-Za-z]+)(?:\^(?P<e1>-?\d+))?)?"
    r"(?:\*?(?P<v2>[A-Za-z]+)(?:\^(?P<e2>-?\d+))?)?$"
)


def parse_poly2(text: str, variables: tuple[str, str] = ("l", "m")) -> LaurentPoly2:
    """Parse the canonical two-variable text form back into a polynomial."""
    text = text.strip()
    if text in ("0", ""):
        return LaurentPoly2.zero(variables)
    coeffs: dict[tuple[int, int], int] = {}
    for sign, term in _split_terms(text):
        m = _TERM2_RE.match(term.replace(" ", ""))
        if not m or (m.group("coef") is None and m.group("v1") is None):
            raise ValueError(f"bad polynomial term {term!r}")
        c = int(m.group("coef") or 1)
        e1 = e2 = 0
        for vkey, ekey in (("v1", "e1"), ("v2", "e2")):
            v = m.group(vkey)
            if v is None:
                continue
            e = int(m.group(ekey) or 1)
            if v == variables[0]:
                e1 += e
            elif v == variables[1]:
                e2 += e
            else:
                raise ValueError(f"unexpected variable {v!r} in {term!r}")
        s = -1 if sign == "-" else 1
        key = (e1, e2)
        coeffs[key] = coeffs.get(key, 0) + s * c
    return LaurentPoly2(coeffs, variables)


# -- quantum integers -------------------------------------------------

def qint(n: int) -> LaurentPoly:
    """[n] = (a^n - a^-n)/(a - a^-1), the balanced quantum integer; [0]=0."""
    if n < 0:
        raise ValueError("qint requires n >= 0")
    if n == 0:
        return LaurentPoly.zero("a")
    # a^(n-1) + a^(n-3) + ... + a^(1-n)
    return LaurentPoly("a", {n - 1 - 2 * i: 1 for i in range(n)})
