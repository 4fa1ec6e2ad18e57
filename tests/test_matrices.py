"""Smith normal form and abelian invariants."""

import copy
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from knotmut.alexander import alexander_pd, h1_double_cover
from knotmut.diagram import KNOT_BRAIDS, braid_closure, named_knot
from knotmut.matrices import abelian_invariants, smith_diagonal
from knotmut.permgroups import perm_mul, psl2
from knotmut.presentations import reidemeister_schreier
from knotmut.quotients import Cover, epimorphisms

from conftest import pd_copy, pretzel, random_knot_braid
from test_skein2 import MUTANT_SLATE


def sparse(m):
    """Dense rows as the {column: entry} rows `smith_diagonal` takes."""
    return [{j: v for j, v in enumerate(row) if v} for row in m]


def det(m):
    """Fraction-free enough for small test matrices."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    for i in range(n):
        piv = next((r for r in range(i, n) if a[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            sign = -sign
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            for c in range(i, n):
                a[r][c] -= f * a[i][c]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    return int(out)


small_matrices = st.lists(
    st.lists(st.integers(-6, 6), min_size=3, max_size=3),
    min_size=3, max_size=3)


@st.composite
def unit_heavy_matrices(draw):
    """Up to 7 x 6, mostly +-1 entries with some +-2, +-3 and zeros."""
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(1, 6))
    entry = st.sampled_from([1, -1] * 4 + [2, -2, 3, -3] + [0] * 4)
    return [draw(st.lists(entry, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]


def determinantal_diagonal(m):
    """Invariant factors d_k / d_(k-1), d_k the gcd of all k x k minors."""
    nrows, ncols = len(m), len(m[0])
    out, prev = [], 1
    for k in range(1, min(nrows, ncols) + 1):
        dk = 0
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                dk = gcd(dk, det([[m[i][j] for j in cols] for i in rows]))
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return out


class TestSmithDiagonal:
    def test_identity(self):
        assert smith_diagonal(sparse([[1, 0], [0, 1]])) == [1, 1]

    def test_divisibility_chain(self):
        d = smith_diagonal(sparse([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
        for a, b in zip(d, d[1:]):
            if b != 0:
                assert b % a == 0

    def test_known_example(self):
        # invariant factors via gcds of k x k minors: 2, 4/2, 624/4
        d = smith_diagonal(sparse([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
        assert [abs(x) for x in d] == [2, 2, 156]

    @given(small_matrices)
    @settings(max_examples=60)
    def test_det_preserved(self, m):
        d = smith_diagonal(sparse(m))
        prod = 1
        for x in (d + [0, 0, 0])[:3]:
            prod *= x
        assert abs(prod) == abs(det(m))

    @given(small_matrices, st.integers(0, 2**30))
    @settings(max_examples=60)
    def test_unimodular_invariance(self, m, seed):
        rng = random.Random(seed)
        m2 = [list(r) for r in m]
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            k = rng.randint(-3, 3)
            if rng.random() < 0.5:
                for c in range(3):
                    m2[i][c] += k * m2[j][c]
            else:
                for r in range(3):
                    m2[r][i] += k * m2[r][j]
        assert abelian_invariants(sparse(m2), 3) == abelian_invariants(
            sparse(m), 3)

    # [[1, 1], [2, 3]]: the second row gains a unit only once the first
    # is eliminated; [[1, 1, 0], [1, -1, 0], [0, 0, 2]] leaves a non-unit
    # remainder for the dense phase; [[1, 1, 1], [1, 2, 2], [2, 1, 3]]
    # fills in entries that were zero.  The pivot queue's edge cases:
    # in [[1, 1, 1, 0, 0], [1, 0, 0, 2, 2], [0, 2, 0, 0, 4]] the first
    # row grows to length 4, longer than every row as built; in
    # [[1, 2, 1, 0], [0, 3, 0, 2], [1, 2, 1, 1]], read at length 3, the
    # last row drops to its unit entry at length 1 and the queue steps
    # back to take it; in [[1, 2, 0], [-1, -2, 0], [0, 2, 4]] the second
    # row cancels to empty; [[2, 2, 3], [3, -2, 2], [0, 2, 4]] has no
    # unit entry, so the dense phase alone runs, and its diagonal still
    # opens with 1s
    @given(unit_heavy_matrices())
    @example([[1, 1], [2, 3]])
    @example([[1, 1, 0], [1, -1, 0], [0, 0, 2]])
    @example([[1, 1, 1], [1, 2, 2], [2, 1, 3]])
    @example([[1, 1, 1, 0, 0], [1, 0, 0, 2, 2], [0, 2, 0, 0, 4]])
    @example([[1, 2, 1, 0], [0, 3, 0, 2], [1, 2, 1, 1]])
    @example([[1, 2, 0], [-1, -2, 0], [0, 2, 4]])
    @example([[2, 2, 3], [3, -2, 2], [0, 2, 4]])
    @settings(max_examples=150, deadline=None)
    def test_determinantal_divisors(self, m):
        assert smith_diagonal(sparse(m)) == determinantal_diagonal(m)

    @given(unit_heavy_matrices())
    @settings(max_examples=60, deadline=None)
    def test_input_unchanged(self, m):
        # zero entries included: they too must survive
        rows = [dict(enumerate(row)) for row in m]
        before = copy.deepcopy(rows)
        smith_diagonal(rows)
        abelian_invariants(rows, len(m[0]))
        assert rows == before


class TestAbelianInvariants:
    def test_free_part(self):
        # no relations: free of the full rank
        assert abelian_invariants([], 2) == [0, 0]

    def test_trivial_group(self):
        assert abelian_invariants(sparse([[1, 0], [0, 1]]), 2) == []

    def test_torsion(self):
        # Z/6 splits into prime powers 2 and 3
        assert abelian_invariants(sparse([[6]]), 1) == [2, 3]
        assert abelian_invariants(sparse([[12]]), 1) == [3, 4]

    def test_mixed(self):
        got = abelian_invariants(sparse([[2, 0], [0, 0]]), 2)
        assert got == [0, 2]

    def test_rectangular(self):
        # more relations than generators
        assert abelian_invariants(sparse([[3], [5]]), 1) == []
        assert abelian_invariants(sparse([[4], [6]]), 1) == [2]


class TestKernelMatrix:
    """An index-168 kernel of the P(3,3,-2,-3) cover onto PSL(2,7)."""

    # the same for all 60 kernels, so independent of the search order
    H1 = [0] * 86 + [4, 7]

    @pytest.fixture(scope="class")
    def kernel_rows(self):
        pres = Cover(pretzel(3, 3, -2, -3)).presentation
        group = psl2(7)
        images = epimorphisms(pres, group, simplify=False)[0]
        elems = sorted(group.elements())
        index = {e: i for i, e in enumerate(elems)}
        table = [[index[perm_mul(e, p)] for p in images] for e in elems]
        sub = reidemeister_schreier(pres, table)
        rows = []
        for r in sub.relators:
            row = {}
            for g in r:
                row[abs(g) - 1] = row.get(abs(g) - 1, 0) + (1 if g > 0 else -1)
            rows.append(row)
        assert len(table) == 168
        return rows, sub.ngens

    def test_value(self, kernel_rows):
        rows, ncols = kernel_rows
        assert abelian_invariants(rows, ncols) == self.H1

    def test_input_unchanged(self, kernel_rows):
        # elimination fills in entries of this matrix; none may reach it
        rows, ncols = kernel_rows
        before = copy.deepcopy(rows)
        smith_diagonal(rows)
        abelian_invariants(rows, ncols)
        assert rows == before

    def test_permutations(self, kernel_rows):
        rows, ncols = kernel_rows
        rng = random.Random(5)
        for _ in range(3):
            relabel = list(range(ncols))
            rng.shuffle(relabel)
            shuffled = [{relabel[j]: v for j, v in r.items()} for r in rows]
            rng.shuffle(shuffled)
            assert abelian_invariants(shuffled, ncols) == self.H1

    def test_unimodular_operations(self, kernel_rows):
        rows, ncols = kernel_rows
        rng = random.Random(7)
        for _ in range(3):
            m = [dict(r) for r in rows]
            for _ in range(20):
                k = rng.choice([-2, -1, 1, 2])
                if rng.random() < 0.5:
                    # row a += k * row b
                    a, b = rng.sample(range(len(m)), 2)
                    for j, v in m[b].items():
                        m[a][j] = m[a].get(j, 0) + k * v
                else:
                    # column a += k * column b
                    a, b = rng.sample(range(ncols), 2)
                    for r in m:
                        if b in r:
                            r[a] = r.get(a, 0) + k * r[b]
            assert abelian_invariants(m, ncols) == self.H1


def determinant(d):
    """|Delta(-1)|."""
    return abs(alexander_pd(d)(-1))


class TestDoubleCoverH1:
    """H1 of the double branched cover from the coloring matrix at t = -1,
    against the abelianized cover presentation."""

    @pytest.mark.parametrize("name", sorted(
        n for n in KNOT_BRAIDS if not n.startswith("hopf")))
    def test_named_knots(self, name):
        d = named_knot(name)
        got = h1_double_cover(d)
        assert got == Cover(d).presentation.abelian_invariants()
        assert got == Cover(pd_copy(d)).presentation.abelian_invariants()
        assert prod(got) == determinant(d)

    @pytest.mark.parametrize("p", MUTANT_SLATE)
    def test_pretzel_mutant_pairs(self, p):
        for q in (p, (p[0], p[1], p[3], p[2])):
            d = pretzel(*q)
            got = h1_double_cover(d)
            assert got == Cover(d).presentation.abelian_invariants()
            assert prod(got) == determinant(d)

    @given(st.integers(0, 2**30))
    @settings(max_examples=25, deadline=None)
    def test_closures(self, seed):
        b = random_knot_braid(random.Random(seed), max_strands=5,
                              max_letters=12)
        d = braid_closure(b)
        got = h1_double_cover(d)
        assert got == Cover(d).presentation.abelian_invariants()
        assert got == Cover(pd_copy(d)).presentation.abelian_invariants()
        assert prod(got) == determinant(d)

    def test_link_raises(self):
        with pytest.raises(ValueError):
            h1_double_cover(named_knot("hopf_plus"))
