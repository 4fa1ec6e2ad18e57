"""Alexander polynomials by two independent routes.

`alexander_braid` applies Fox calculus to the braid-closure presentation
< x_1..x_n | beta(x_i) x_i^-1 >: the Jacobian of Fox derivatives is
abelianized (every meridian goes to t), one row and one column are
deleted, and the minor determinant is the Alexander polynomial up to a
unit.  `alexander_pd` builds the Wirtinger arc-coloring matrix of a
planar diagram (relation c = t a + (1 - t) o across each crossing) and
takes a codimension-one minor.

Both results are normalized so that D(t) = D(1/t) and D(1) = 1.
"""

from __future__ import annotations

from .diagram import BraidWord, PlanarDiagram, wirtinger_arcs
from .freegroup import artin_action, fox_derivative_abelian, inverse_word
from .laurent import LaurentPoly


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


def alexander_pd(d: PlanarDiagram) -> LaurentPoly:
    """Alexander polynomial of a knot diagram via arc colorings."""
    if d.component_count() != 1:
        raise ValueError("diagram must be a knot")
    if not d.crossings:
        return LaurentPoly.one("t")
    arc_of = wirtinger_arcs(d)
    labels = sorted(set(arc_of.values()))
    col = {a: i for i, a in enumerate(labels)}
    t = LaurentPoly("t", {1: 1})
    one = LaurentPoly.one("t")
    rows = []
    for (a, b, c, dd), pos in zip(d.crossings, d.positive):
        over = arc_of[dd]
        row = [LaurentPoly.zero("t") for _ in labels]
        if pos:
            # positive: outgoing under-arc c = t a + (1 - t) over
            row[col[arc_of[c]]] = row[col[arc_of[c]]] - one
            row[col[arc_of[a]]] = row[col[arc_of[a]]] + t
            row[col[over]] = row[col[over]] + (one - t)
        else:
            # negative: incoming under-arc a = t c + (1 - t) over
            row[col[arc_of[a]]] = row[col[arc_of[a]]] - one
            row[col[arc_of[c]]] = row[col[arc_of[c]]] + t
            row[col[over]] = row[col[over]] + (one - t)
        rows.append(row)
    minor = [row[: len(labels) - 1] for row in rows[:-1]]
    return normalize_alexander(_det_bareiss(minor))
