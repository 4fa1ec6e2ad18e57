"""Free group words and the Artin action of braids.

Words in the free group on generators x_1, ..., x_n are tuples of
nonzero integers: k stands for x_k and -k for its inverse.  The Artin
generator s_k acts by

    x_k     -> x_k x_{k+1} x_k^-1
    x_{k+1} -> x_k

and its inverse by x_k -> x_{k+1}, x_{k+1} -> x_{k+1}^-1 x_k x_{k+1}.
"""

from __future__ import annotations

from operator import neg

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
    return tuple(map(neg, reversed(word)))


def substitute(word, images: dict[int, Word]) -> Word:
    """Apply x_k -> images[k] to a word; generators without one stay.
    Each image's inverse is formed once per call."""
    table: dict[int, Word] = {}
    for k, img in images.items():
        table[k] = img
        table[-k] = inverse_word(img)
    out: list[int] = []
    for g in word:
        img = table.get(g)
        if img is None:
            if out and out[-1] == -g:
                out.pop()
            else:
                out.append(g)
            continue
        for h in img:
            if out and out[-1] == -h:
                out.pop()
            else:
                out.append(h)
    return tuple(out)


def _join(u: Word, v: Word) -> Word:
    """The free reduction of u v, for freely reduced u and v: only the
    letters where they meet can cancel."""
    t, top = 0, min(len(u), len(v))
    while t < top and u[-1 - t] == -v[t]:
        t += 1
    return u[:len(u) - t] + v[t:]


def artin_action(braid: BraidWord) -> list[Word]:
    """Images of x_1, ..., x_n under the braid automorphism, freely
    reduced.

    The automorphism of s_{k_1} ... s_{k_m} is the composite that
    applies s_{k_1}'s substitution first.  It is built on the right:
    from the identity, reading the letters last to first, each letter
    rewrites only the two images it moves, in terms of the images so
    far, so s_j takes (img_j, img_{j+1}) to (img_j img_{j+1} img_j^-1,
    img_j) and s_j^-1 to (img_{j+1}, img_{j+1}^-1 img_j img_{j+1}).
    Freely reduced words are unique, so this gives the same words as
    substituting each letter into all n images in turn.
    """
    images = [(i,) for i in range(1, braid.strands + 1)]
    for k in reversed(braid.letters):
        j = abs(k) - 1
        a, b = images[j], images[j + 1]
        if k > 0:
            images[j], images[j + 1] = _join(_join(a, b), inverse_word(a)), a
        else:
            images[j], images[j + 1] = b, _join(
                _join(inverse_word(b), a), b)
    return images


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
