"""Colored Jones polynomials by Chebyshev cabling.

The N-colored Jones polynomial of a knot is the bracket of the companion
cabled by (-1)^(N-1) e_{N-1}, where e_n is the Chebyshev basis of the
solid-torus skein module (e_0 = 1, e_1 = z, e_i = z e_{i-1} - e_{i-2}).
Expanding e_{N-1} in powers of z reduces the computation to plain
brackets of k-parallels of the diagram as drawn.  A full twist acts on
e_n as the scalar (-1)^n A^(n^2+2n) (Lickorish, GTM 175, ch. 13), so one
monomial factor in the writhe returns the sum to the zero framing.  The
result is normalized by the unknot value [N] and written in q = a^2 = A^4.
"""

from __future__ import annotations

from .bracket import kauffman_bracket
from .budget import Budget
from .diagram import PlanarDiagram
from .laurent import InexactDivision, LaurentPoly, qint
from .satellites import cable


def chebyshev_basis(n: int) -> dict[int, int]:
    """Coefficients {k: c_k} of e_n = sum c_k z^k."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev = {0: 1}
    if n == 0:
        return prev
    cur = {1: 1}
    for _ in range(n - 1):
        nxt: dict[int, int] = {}
        for k, c in cur.items():
            nxt[k + 1] = nxt.get(k + 1, 0) + c
        for k, c in prev.items():
            nxt[k] = nxt.get(k, 0) - c
        prev, cur = cur, {k: c for k, c in nxt.items() if c}
    return cur


def colored_jones_unnormalized(d: PlanarDiagram, N: int,
                               budget_seconds: float | None = None
                               ) -> LaurentPoly:
    """J'_K(N) in the variable a: bracket of the e_{N-1} cable, 0-framed."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if N > 1 and d.component_count() != 1:
        # the framing correction below needs the writhe of a single
        # component; color 1 cables nothing and is 1 on every link
        raise ValueError("colored Jones for N > 1 needs a knot diagram")
    n = N - 1
    budget = Budget(budget_seconds)  # one deadline for every parallel
    total = LaurentPoly.zero("A")
    for k, c in chebyshev_basis(n).items():
        if k == 0:
            br = LaurentPoly.one("A")  # the 0-parallel is the empty diagram
        else:
            br = kauffman_bracket(cable(d, k, 0), budget.remaining())
        total = total + c * br
    # (-1)^n, times ((-1)^n A^(n^2+2n))^(-w) to undo the w full twists that
    # the blackboard framing puts on the e_n-colored band
    w = d.writhe()
    sign = -1 if n * (w + 1) % 2 else 1
    total = total * LaurentPoly.monomial("A", -w * (n * n + 2 * n), sign)
    # rewrite in a = A^2; the framing-corrected bracket of a knot's e_n
    # cable lies in the image of Z[a, a^-1]
    return total.shrink(2, "a")


def colored_jones(d: PlanarDiagram, N: int,
                  budget_seconds: float | None = None) -> LaurentPoly:
    """J_K(N) in q = a^2, normalized so the unknot gives 1."""
    jp = colored_jones_unnormalized(d, N, budget_seconds)
    norm = qint(N)  # J'_unknot(N) = [N]
    try:
        val = jp.exact_div(norm)
    except InexactDivision:
        raise ArithmeticError("colored bracket not divisible by [N]")
    return val.shrink(2, "q")
