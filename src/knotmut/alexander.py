"""Alexander polynomials by two independent routes, and H1 of the double
branched cover.

`alexander_braid` applies Fox calculus to the braid-closure presentation
< x_1..x_n | beta(x_i) x_i^-1 >: the Jacobian of Fox derivatives is
abelianized (every meridian goes to t), one row and one column are
deleted, and the minor determinant over Laurent polynomials is the
Alexander polynomial up to a unit.

The other route evaluates the Wirtinger arc-coloring matrix of a planar
diagram (relation c = t a + (1 - t) o across each crossing, one row per
crossing, one column per arc) at two integers:

  * `alexander_pd` substitutes t = 2^B (Kronecker substitution) and
    reads |det| of the codimension-one minor off its Smith diagonal
    (`matrices.smith_diagonal`): the product of the n - 1 entries, or 0
    when there are fewer.  The signed base-2^B digits of that integer
    are the coefficients of +-Delta(t), a polynomial in t of degree
    below n for n arcs, and `normalize_alexander` fixes the sign.
    B = 2n never wraps a digit.  The entries of a row are -1, t and
    1 - t, so the absolute values of a row's coefficients sum to at
    most 4.  The determinant is a sum over permutations of products of
    one entry per row, so the absolute values of its coefficients sum
    to at most the product of the row sums, 4^(n-1) = 2^(B-2) < 2^(B-1).
  * `h1_double_cover` substitutes t = -1 in the same minor: that matrix
    presents H1 of the double branched cover (Lickorish, An
    Introduction to Knot Theory, ch. 9), so its Smith normal form gives
    the abelian invariants.  Both routes eliminate with `smith_diagonal`.

Both polynomials are normalized so that D(t) = D(1/t) and D(1) = 1.
A third route, `skein2.alexander_from_homfly`, specializes HOMFLY; a
report reads its `alexander` item that way and runs `alexander_pd` only
when its HOMFLY is resource-limited.
"""

from __future__ import annotations

from math import prod

from .diagram import BraidWord, PlanarDiagram, wirtinger_arcs
from .freegroup import artin_action, fox_derivative_abelian, inverse_word
from .laurent import LaurentPoly
from .matrices import abelian_invariants, smith_diagonal


def _det_bareiss(m: list[list[LaurentPoly]]) -> LaurentPoly:
    """Fraction-free determinant over Laurent polynomials."""
    n = len(m)
    if n == 0:
        return LaurentPoly.one("t")
    m = [row[:] for row in m]
    prev = LaurentPoly.one("t")
    sign = 1
    for k in range(n - 1):
        if m[k][k].is_zero():
            for r in range(k + 1, n):
                if not m[r][k].is_zero():
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero("t")
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def normalize_alexander(p: LaurentPoly) -> LaurentPoly:
    """Unit-normalize: symmetric exponents, value 1 at t = 1."""
    if p.is_zero():
        return p
    exps = sorted(p.coeffs)
    lo, hi = exps[0], exps[-1]
    if (lo + hi) % 2 != 0:
        raise ValueError("exponent span cannot be centered")
    shift = -(lo + hi) // 2
    out = LaurentPoly("t", {e + shift: c for e, c in p.coeffs.items()})
    at_one = sum(out.coeffs.values())
    if at_one == -1:
        out = -out
    elif at_one != 1:
        raise ValueError(f"determinant is not a unit at t=1 (got {at_one})")
    if out != out.invert_var():
        raise ValueError("normalized polynomial is not symmetric")
    return out


def alexander_braid(braid: BraidWord) -> LaurentPoly:
    """Alexander polynomial of the closure of a one-component braid."""
    if braid.component_count() != 1:
        raise ValueError("closure must be a knot")
    n = braid.strands
    images = artin_action(braid)
    rows = []
    for i in range(1, n + 1):
        relator = images[i - 1] + inverse_word((i,))
        rows.append([fox_derivative_abelian(relator, j) for j in range(1, n + 1)])
    minor = [row[: n - 1] for row in rows[: n - 1]]
    return normalize_alexander(_det_bareiss(minor))


def _coloring_rows(d: PlanarDiagram, t: int) -> list[dict[int, int]]:
    """The arc-coloring matrix of a knot diagram at the integer t.

    One sparse `{arc column: entry}` row per crossing: -1 at the outgoing
    under-arc, t at the incoming one and 1 - t at the over-arc, summed
    where arcs coincide (as at a kink).  A knot diagram with crossings has
    as many arcs as crossings, and any one row is a consequence of the
    others with unit coefficients.
    """
    arc_of = wirtinger_arcs(d)
    col = {a: i for i, a in enumerate(sorted(set(arc_of.values())))}
    rows = []
    for (a, _, c, over), pos in zip(d.crossings, d.positive):
        # positive: c = t a + (1 - t) over; negative: a = t c + (1 - t) over
        out, into = (c, a) if pos else (a, c)
        row: dict[int, int] = {}
        for arc, v in ((out, -1), (into, t), (over, 1 - t)):
            j = col[arc_of[arc]]
            row[j] = row.get(j, 0) + v
        rows.append(row)
    return rows


def _check_knot(d: PlanarDiagram) -> None:
    if d.component_count() != 1:
        raise ValueError("diagram must be a knot")


def _coloring_minor(d: PlanarDiagram, t: int) -> list[dict[int, int]]:
    """The arc-coloring matrix at t without its last row and last column,
    as sparse rows; n - 1 rows and n - 1 columns for n crossings."""
    last = len(d.crossings) - 1
    return [{j: v for j, v in row.items() if j < last}
            for row in _coloring_rows(d, t)[:-1]]


def alexander_pd(d: PlanarDiagram) -> LaurentPoly:
    """Alexander polynomial of a knot diagram via arc colorings at t = 2^B."""
    _check_knot(d)
    n = len(d.crossings)
    if not n:
        return LaurentPoly.one("t")
    width = 2 * n   # B: see the module docstring for why no digit wraps
    diagonal = smith_diagonal(_coloring_minor(d, 1 << width))
    packed = prod(diagonal) if len(diagonal) == n - 1 else 0
    return normalize_alexander(LaurentPoly.unpack("t", packed, width))


def h1_double_cover(d: PlanarDiagram) -> list[int]:
    """Abelian invariants of H1 of the double branched cover of a knot.

    The arc-coloring matrix at t = -1 with one row and one column deleted
    presents the group; the invariants are those of
    `matrices.abelian_invariants`, e.g. [3] for the trefoil.
    """
    _check_knot(d)
    n = len(d.crossings)
    if not n:
        return []
    return abelian_invariants(_coloring_minor(d, -1), n - 1)
