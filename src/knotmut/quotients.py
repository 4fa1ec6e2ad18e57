"""Epimorphisms onto finite groups and their kernel abelianizations.

Epimorphisms G -> Gamma are counted up to equality of kernels (two
surjections have the same kernel exactly when they differ by an
automorphism of Gamma, so this matches counting up to Aut(Gamma)).
The count for a fixed target is written delta_Gamma.

The kernel of an epimorphism is the stabilizer of the identity in the
action of G on Gamma by right translation; its abelianization comes
from Reidemeister-Schreier rewriting on that coset table.
"""

from __future__ import annotations

from .matrices import abelian_invariants
from .permgroups import Perm, PermGroup, closure, identity, perm_inv, perm_mul
from .presentations import (GroupPresentation, coset_table_from_images,
                            reidemeister_schreier, tietze_simplify)

Word = tuple[int, ...]


def evaluate_word(word: Word, images: list[Perm], degree: int) -> Perm:
    out = identity(degree)
    for g in word:
        p = images[abs(g) - 1]
        out = perm_mul(out, p if g > 0 else perm_inv(p))
    return out


def _conjugacy_class_reps(group: PermGroup) -> list[Perm]:
    elems = group.elements()
    seen: set[Perm] = set()
    reps = []
    for e in sorted(elems):
        if e in seen:
            continue
        reps.append(e)
        for h in elems:
            seen.add(perm_mul(perm_mul(perm_inv(h), e), h))
    return reps


def _kernel_signature(images: list[Perm], group: PermGroup) -> tuple:
    """Canonical coset table of the image's regular action.

    Two homomorphisms from the same presentation have equal kernels
    exactly when these tables agree.
    """
    e = identity(group.degree)
    label = {e: 0}
    order = [e]
    qi = 0
    while qi < len(order):
        h = order[qi]
        qi += 1
        for p in images:
            q = perm_mul(h, p)
            if q not in label:
                label[q] = len(label)
                order.append(q)
    return tuple(tuple(label[perm_mul(h, p)] for p in images) for h in order)


def epimorphisms(g: GroupPresentation, group: PermGroup,
                 simplify: bool = True) -> list[list[Perm]]:
    """One representative hom per kernel of a surjection onto `group`."""
    pres = tietze_simplify(g) if simplify else g
    if pres.ngens == 0:
        return [] if group.order > 1 else [[]]
    elems = sorted(group.elements())
    degree = group.degree
    # the kernel is unchanged by conjugating the hom, so the first
    # generator only needs to range over conjugacy class representatives
    first_choices = _conjugacy_class_reps(group)
    by_gen: dict[int, list[Word]] = {}
    for r in pres.relators:
        hi = max(abs(x) for x in r)
        by_gen.setdefault(hi, []).append(r)

    found: dict[tuple, list[Perm]] = {}
    images: list[Perm] = []

    def assign(k: int):
        if k == pres.ngens:
            if len(closure(images, degree)) != group.order:
                return
            sig = _kernel_signature(images, group)
            if sig not in found:
                found[sig] = images[:]
            return
        choices = first_choices if k == 0 else elems
        for p in choices:
            images.append(p)
            ok = all(evaluate_word(r, images, degree) == identity(degree)
                     for r in by_gen.get(k + 1, []))
            if ok:
                assign(k + 1)
            images.pop()

    assign(0)
    return list(found.values())


def kernel_abelianization(g: GroupPresentation, images: list[Perm],
                          group: PermGroup) -> list[int]:
    """Abelian invariants of the kernel of the hom sending x_i to images[i].

    The hom must be given on the generators of `g` itself (no Tietze
    simplification is applied here).
    """
    elems = sorted(group.elements())
    index = {e: i for i, e in enumerate(elems)}
    perms = []
    for p in images:
        perms.append({index[e]: index[perm_mul(e, p)] for e in elems})
    table = coset_table_from_images(g.ngens, perms, len(elems))
    sub = reidemeister_schreier(g, table)
    return sub.abelian_invariants()
