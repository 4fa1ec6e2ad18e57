"""Free group words and the Artin action of braids.

Words in the free group on generators x_1, ..., x_n are tuples of
nonzero integers: k stands for x_k and -k for its inverse.  The Artin
generator s_k acts by

    x_k     -> x_k x_{k+1} x_k^-1
    x_{k+1} -> x_k

and its inverse by x_k -> x_{k+1}, x_{k+1} -> x_{k+1}^-1 x_k x_{k+1}.
"""

from __future__ import annotations

from .diagram import BraidWord
from .laurent import LaurentPoly

Word = tuple[int, ...]


def freely_reduce(word) -> Word:
    out: list[int] = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def inverse_word(word) -> Word:
    return tuple(-g for g in reversed(word))


def substitute(word, images: dict[int, Word]) -> Word:
    """Apply x_k -> images[k] to a word; generators without one stay."""
    out: list[int] = []
    for g in word:
        img = images.get(abs(g))
        if img is None:
            if out and out[-1] == -g:
                out.pop()
            else:
                out.append(g)
            continue
        for h in (img if g > 0 else inverse_word(img)):
            if out and out[-1] == -h:
                out.pop()
            else:
                out.append(h)
    return tuple(out)


def _letter_images(k: int) -> dict[int, Word]:
    """Images of the two generators the Artin letter s_k moves."""
    j = abs(k)
    if k > 0:
        return {j: (j, j + 1, -j), j + 1: (j,)}
    return {j: (j + 1,), j + 1: (-(j + 1), j, j + 1)}


def artin_action(braid: BraidWord) -> list[Word]:
    """Images of x_1, ..., x_n under the braid automorphism."""
    n = braid.strands
    images = {i: (i,) for i in range(1, n + 1)}
    for k in braid.letters:
        step = _letter_images(k)
        images = {i: substitute(w, step) for i, w in images.items()}
    return [images[i] for i in range(1, n + 1)]


def fox_derivative_abelian(word, gen: int) -> LaurentPoly:
    """Fox derivative d(word)/d(x_gen) with every generator sent to t.

    Uses d(uv) = du + u dv, d(x) = 1, d(x^-1) = -x^-1; after
    abelianizing, the prefix contributes a power of t.
    """
    coeffs: dict[int, int] = {}
    e = 0
    for g in word:
        if g == gen:
            coeffs[e] = coeffs.get(e, 0) + 1
            e += 1
        elif g == -gen:
            coeffs[e - 1] = coeffs.get(e - 1, 0) - 1
            e -= 1
        else:
            e += 1 if g > 0 else -1
    return LaurentPoly("t", coeffs)
