"""Tietze moves and the Artin action against the code they replaced.

`tietze_simplify` keeps per-word results for the length of a call, and
`artin_action` composes on the right.  The references below are the
earlier forms: every Tietze round recomputed from scratch, and every
braid letter substituted into all n images.  Both must give the same
words, letter for letter.  The hypothesis presentations of
`test_groups.TestTietzeRoutes` are checked against the same references.
"""

import random
from collections import Counter
from itertools import chain
from types import SimpleNamespace

import pytest

from conftest import nontrivial_knot_braid, pretzel, pretzel_decomposition
from knotmut import budget, presentations
from knotmut.budget import ResourceLimitExceeded, time_limit
from knotmut.diagram import braid_closure, parse_knot_spec
from knotmut.freegroup import artin_action
from knotmut.presentations import (MAX_RELATOR_LENGTH, GroupPresentation,
                                   _substring_move,
                                   branched_cover_from_meridians, knot_group,
                                   tietze_simplify, wirtinger_presentation)
from knotmut.quotients import Cover
from knotmut.report import LIMITED, ReportOptions, compute_report
from knotmut.tangles import mutate
from test_skein2 import MUTANT_SLATE

# the braid whose knot group has relators of 386, 146, 514 and 274
# letters: the 286th braid of nontrivial_knot_braid(random.Random(1), 6, 20)
LONG_ARTIN_IMAGES = "braid: 4 | 1 3 3 -3 -2 1 1 -2 -3 -1 -3 -1 -3 2 -1 -1 3 -1 -1"


# -- the references ------------------------------------------------------


def ref_freely_reduce(word):
    out = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def ref_inverse_word(word):
    return tuple(-g for g in reversed(word))


def ref_substitute(word, images):
    out = []
    for g in word:
        img = images.get(abs(g))
        if img is None:
            if out and out[-1] == -g:
                out.pop()
            else:
                out.append(g)
            continue
        for h in (img if g > 0 else ref_inverse_word(img)):
            if out and out[-1] == -h:
                out.pop()
            else:
                out.append(h)
    return tuple(out)


def ref_artin_action(braid):
    """Each letter substituted into all n images, first letter first."""
    n = braid.strands
    images = {i: (i,) for i in range(1, n + 1)}
    for k in braid.letters:
        j = abs(k)
        step = ({j: (j, j + 1, -j), j + 1: (j,)} if k > 0
                else {j: (j + 1,), j + 1: (-(j + 1), j, j + 1)})
        images = {i: ref_substitute(w, step) for i, w in images.items()}
    return [images[i] for i in range(1, n + 1)]


def ref_cyclic_reduce(word):
    w = ref_freely_reduce(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def ref_cyclic_key(r):
    best = r
    for w in (r, ref_inverse_word(r)):
        m = min(w)
        for i, x in enumerate(w):
            if x == m:
                rot = w[i:] + w[:i]
                if rot < best:
                    best = rot
    return best


def ref_dedupe(rels, keys):
    def key(w):
        if w not in keys:
            keys[w] = ref_cyclic_key(w)
        return keys[w]

    kept = {}
    out = []
    for r in rels:
        group = kept.setdefault(tuple(sorted(map(abs, r))), [])
        if group and key(r) in map(key, group):
            continue
        group.append(r)
        out.append(r)
    return out


def ref_eliminate(rels):
    occ = Counter(map(abs, chain.from_iterable(rels)))
    for ri in sorted(range(len(rels)), key=lambda i: len(rels[i])):
        r = rels[ri]
        gen = next((x for x, c in Counter(map(abs, r)).items()
                    if c == 1 and (len(r) - 1) * (occ[x] - 1)
                    <= MAX_RELATOR_LENGTH), None)
        if gen is not None:
            break
    else:
        return None
    pos = next(i for i, letter in enumerate(r) if abs(letter) == gen)
    u, v = r[:pos], r[pos + 1:]
    image = {gen: ref_freely_reduce(ref_inverse_word(u) + ref_inverse_word(v)
                                    if r[pos] > 0 else v + u)}
    out = []
    for i, s in enumerate(rels):
        if i != ri:
            if gen in s or -gen in s:
                s = ref_cyclic_reduce(ref_substitute(s, image))
            if s:
                out.append(s)
    return gen, out


def ref_substring_move(rels):
    """A fresh scan: s by s, window length by window length (in order of
    first occurrence), position by position, over one index of every
    relator's windows per length; the first of the most saving wins."""
    windows = {}
    for ri, r in enumerate(rels):
        n = len(r)
        k = n // 2 + 1
        index = windows.setdefault(k, {})
        for w in (r, ref_inverse_word(r)):
            ww = w + w
            for i in range(n):
                index.setdefault(ww[i:i + k], []).append((ri, ww, i, n))
    best = None
    for si, s in enumerate(rels):
        ns = len(s)
        ss = s + s
        for k, index in windows.items():
            if k > ns:
                continue
            for j in range(ns):
                hits = index.get(ss[j:j + k])
                if hits is None:
                    continue
                for ri, ww, i, n in hits:
                    if ri == si:
                        continue
                    m, top = k, min(ns, n)
                    while m < top and ss[j + m] == ww[i + m]:
                        m += 1
                    saved = 2 * m - n
                    if best is None or saved > best[0]:
                        best = (saved, si, j, m, ww[i + m:i + n])
    if best is None:
        return None
    _, si, j, m, u = best
    s = rels[si]
    rest = (s + s)[j + m:j + len(s)]
    new = ref_cyclic_reduce(ref_inverse_word(u) + rest)
    out = rels[:si] + rels[si + 1:]
    if new:
        out.insert(si, new)
    return out


def ref_tietze_simplify(g):
    rels = [r for r in map(ref_cyclic_reduce, g.relators) if r]
    eliminated = set()
    keys = {}
    while True:
        rels = ref_dedupe(rels, keys)
        step = ref_eliminate(rels)
        if step is not None:
            gen, rels = step
            eliminated.add(gen)
            continue
        shorter = ref_substring_move(rels)
        if shorter is None:
            break
        rels = shorter
    used = [x for x in range(1, g.ngens + 1) if x not in eliminated]
    remap = {old: i + 1 for i, old in enumerate(used)}
    out = tuple(tuple((1 if letter > 0 else -1) * remap[abs(letter)]
                      for letter in r)
                for r in sorted(rels, key=lambda r: (len(r), r)))
    return GroupPresentation(len(used), out)


@pytest.fixture
def reference(monkeypatch):
    """Calls a function with the references in place of `tietze_simplify`
    and `artin_action` wherever `presentations` calls them."""
    def call(f, *args):
        with monkeypatch.context() as m:
            m.setattr(presentations, "tietze_simplify", ref_tietze_simplify)
            m.setattr(presentations, "artin_action", ref_artin_action)
            return f(*args)
    return call


@pytest.fixture(scope="module")
def braids():
    rng = random.Random(1)
    return [nontrivial_knot_braid(rng, 6, 20) for _ in range(200)]


def cover(d):
    return Cover(d).presentation


# -- the same output -----------------------------------------------------


class TestSameOutput:
    def test_artin_action_and_knot_groups(self, braids, reference):
        for b in braids:
            assert artin_action(b) == ref_artin_action(b), b
            assert knot_group(b) == reference(knot_group, b), b

    def test_braid_route_covers(self, braids, reference):
        for b in braids:
            d = braid_closure(b)
            assert cover(d) == reference(cover, d), b

    def test_wirtinger_route_covers(self, braids, reference):
        for b in braids[:60]:
            g = wirtinger_presentation(braid_closure(b))
            assert branched_cover_from_meridians(g) == \
                reference(branched_cover_from_meridians, g), b

    @pytest.mark.parametrize("p", MUTANT_SLATE)
    def test_mutant_slate_covers(self, p, reference):
        for d in (pretzel(*p), mutate(pretzel_decomposition(*p), "vertical")):
            assert d.braid is None
            assert cover(d) == reference(cover, d)

    def test_long_artin_images(self, reference):
        d = parse_knot_spec(LONG_ARTIN_IMAGES)
        g = knot_group(d.braid)
        assert sorted(map(len, g.relators)) == [146, 274, 386, 514]
        assert g == reference(knot_group, d.braid)
        assert cover(d) == reference(cover, d)


# -- the tie order of the substring move ---------------------------------


def all_moves(rels):
    """Every substring move, as (rank, relators after it), least rank
    first: the rank is (-letters saved, s, window-length group, j, r,
    orientation, offset i), each move extended from its window as far as
    the words agree."""
    group = {}
    for r in rels:
        group.setdefault(len(r) // 2 + 1, len(group))
    moves = []
    for si, s in enumerate(rels):
        ns, ss = len(s), s + s
        for ri, r in enumerate(rels):
            n = len(r)
            k = n // 2 + 1
            if ri == si or k > ns:
                continue
            for o, w in enumerate((r, ref_inverse_word(r))):
                ww = w + w
                for j in range(ns):
                    for i in range(n):
                        if ss[j:j + k] != ww[i:i + k]:
                            continue
                        m = k
                        while m < min(ns, n) and ss[j + m] == ww[i + m]:
                            m += 1
                        new = ref_cyclic_reduce(ref_inverse_word(
                            ww[i + m:i + n]) + ss[j + m:j + ns])
                        after = rels[:si] + [new] * bool(new) + rels[si + 1:]
                        moves.append(((2 * m - n, si, group[k], j, ri, o, i),
                                      after))
    return sorted(moves, key=lambda mv: (-mv[0][0],) + mv[0][1:])


KEYS = ("saved", "s", "window length", "j", "r", "orientation", "i")


@pytest.mark.parametrize("key, rels", [
    # s1 and s2 each hold all of x1 x2 x3
    ("s", [(1, 2, 3, 4, 4), (1, 2, 3, 5, 5), (1, 2, 3)]),
    # both readers save 3 letters at j = 0; the later one's window
    # length, 3, occurs first, as that of s
    ("window length", [(1, 2, 3, 4, 6), (1, 2, 3), (1, 2, 3, 4, 5)]),
    ("j", [(1, 2, 3, 7, 1, 2, 3, 8), (1, 2, 3)]),
    ("r", [(1, 2, 3, 6, 6), (1, 2, 3, 4), (1, 2, 3, 5)]),
    # a window of more than half of r is never one of r^-1 too when r is
    # cyclically reduced (the two would overlap in r and cancel), so this
    # tie is planted on words that are not, which the move takes as given
    ("orientation", [(-2, 2, 1), (-2, 2, -2)]),
    ("i", [(1, 2, 2, 2, 3), (-2, -2, -2, 3, -2)]),
])
def test_substring_move_tie_order(key, rels):
    (first, after), (second, other) = all_moves(rels)[:2]
    # the two best moves save as much, and the first differs from the
    # second first in `key`, with another outcome
    assert first[0] == second[0]
    assert KEYS[next(n for n, (a, b) in enumerate(zip(first, second))
                     if a != b)] == key
    assert after != other
    assert _substring_move(rels, {}, {}) == ref_substring_move(rels) == after


# -- the time limit --------------------------------------------------------


class TestTimeLimit:
    def test_cover_stops_in_tietze(self):
        d = parse_knot_spec(LONG_ARTIN_IMAGES)
        # a deadline a second past
        with pytest.raises(ResourceLimitExceeded, match=(
                r"^time budget exhausted after 0 Tietze moves$")), \
                time_limit(-1.0):
            cover(d)

    def test_report_item_stops_in_tietze(self):
        d = parse_knot_spec(LONG_ARTIN_IMAGES)
        with time_limit(-1.0):
            item = compute_report(d.name, d, ReportOptions(quotients=60)
                                  ).items["quotients"]
        assert item.status == LIMITED
        assert item.detail == "time budget exhausted after 0 Tietze moves"

    def test_moves_are_counted(self, monkeypatch):
        # the clock reads 0 when the limit is set and at the first two
        # moves' ticks, then 2, past the deadline at 1
        now = iter([0.0, 0.0, 0.0, 2.0])
        monkeypatch.setattr(budget, "time", SimpleNamespace(
            monotonic=lambda: next(now, 2.0)))
        d = parse_knot_spec(LONG_ARTIN_IMAGES)
        with pytest.raises(ResourceLimitExceeded, match=(
                r"^time budget exhausted after 2 Tietze moves$")), \
                time_limit(1.0):
            tietze_simplify(knot_group(d.braid))
