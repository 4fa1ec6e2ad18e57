"""Integer matrix normal forms for abelianization computations.

Relation matrices arrive as sparse rows, one `{column: entry}` dict per
relator.  The Smith normal form runs in two phases.  Phase 1 eliminates
with +-1 pivots only: no coefficient division, and on
Reidemeister-Schreier relation matrices it removes almost everything.
A column -> live-rows index means that clearing a pivot's column visits
only the rows that hold it.  The pivot comes from the shortest live row
with a unit entry, in that row's unit column with the fewest live rows;
rows without a unit entry are set aside until an elimination changes
them.  Phase 2 is a dense gcd-based reduction of whatever remains.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush


def _has_unit(row: dict[int, int]) -> bool:
    values = row.values()
    return 1 in values or -1 in values


def smith_diagonal(rows: list[dict[int, int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    `rows` holds one `{column: entry}` dict per row; the input is not
    modified.  Returns the nonzero diagonal entries d1 | d2 | ... (all
    positive).  They come out as this chain without sorting: phase 1
    gives a 1 per unit pivot, and `_dense_snf` keeps a pivot only once
    it divides the rest of its block, so each later pivot is a multiple
    of the one before.
    """
    sparse: list[dict[int, int] | None] = []
    col_rows: dict[int, set[int]] = {}
    for r in rows:
        row = {j: v for j, v in r.items() if v}
        if row:
            for j in row:
                col_rows.setdefault(j, set()).add(len(sparse))
            sparse.append(row)

    # phase 1: eliminate with unit pivots only.  The heap holds (length,
    # row) for every live row with a unit entry; an entry whose row has
    # since been used or changed length is stale and skipped.
    units = 0
    heap = [(len(r), i) for i, r in enumerate(sparse) if _has_unit(r)]
    heapify(heap)
    while heap:
        n, pi = heappop(heap)
        pr = sparse[pi]
        if pr is None or len(pr) != n:
            continue
        cands = [j for j, v in pr.items() if v == 1 or v == -1]
        if not cands:
            continue  # set aside until an elimination changes it
        pj = min(cands, key=lambda j: len(col_rows[j]))
        sparse[pi] = None
        units += 1
        for j in pr:
            col_rows[j].discard(pi)
        pv = pr[pj]
        for i in list(col_rows[pj]):
            r = sparse[i]
            f = r[pj] * pv  # r[pj] / pv, since pv is a unit
            for j, pvj in pr.items():
                d = f * pvj
                v = r.get(j)
                if v is None:  # fill-in
                    r[j] = -d
                    col_rows[j].add(i)
                elif v != d:
                    r[j] = v - d
                else:
                    del r[j]
                    col_rows[j].discard(i)
            if not r:
                sparse[i] = None
            elif _has_unit(r):
                heappush(heap, (len(r), i))
    diag = [1] * units

    # phase 2: dense SNF on the remainder
    rem_rows = [r for r in sparse if r]
    if rem_rows:
        cols = sorted({j for r in rem_rows for j in r})
        cmap = {j: k for k, j in enumerate(cols)}
        m = [[0] * len(cols) for _ in rem_rows]
        for i, r in enumerate(rem_rows):
            for j, v in r.items():
                m[i][cmap[j]] = v
        diag.extend(_dense_snf(m))
    return diag


def _dense_snf(m: list[list[int]]) -> list[int]:
    """Diagonal entries of the SNF of a small dense matrix (destructive)."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    out = []
    t = 0
    while t < nr and t < nc:
        # find pivot with smallest absolute value
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                v = m[i][j]
                if v and (piv is None or abs(v) < abs(m[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        m[t], m[i0] = m[i0], m[t]
        for row in m:
            row[t], row[j0] = row[j0], row[t]
        p = m[t][t]
        done = True
        for i in range(t + 1, nr):
            if m[i][t]:
                q = m[i][t] // p
                for j in range(t, nc):
                    m[i][j] -= q * m[t][j]
                if m[i][t]:
                    done = False
        for j in range(t + 1, nc):
            if m[t][j]:
                q = m[t][j] // p
                for i in range(t, nr):
                    m[i][j] -= q * m[i][t]
                if m[t][j]:
                    done = False
        if not done:
            continue
        # ensure pivot divides the rest of the block
        bad = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if m[i][j] % p != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(t, nc):
                m[t][j] += m[bad][j]
            continue
        out.append(abs(p))
        t += 1
    return out


def abelian_invariants(rows: list[dict[int, int]], ngens: int) -> list[int]:
    """Primary decomposition of Z^ngens modulo the row lattice.

    `rows` are sparse rows as for `smith_diagonal`, with columns
    0..ngens-1.

    Returns zeros for each free factor followed by prime powers in
    increasing order, e.g. Z + Z/6 -> [0, 2, 3].
    """
    diag = smith_diagonal(rows)
    rank = ngens - len(diag)
    primary: list[int] = []
    for d in diag:
        if d == 1:
            continue
        primary.extend(_prime_power_factors(d))
    return [0] * rank + sorted(primary)


def _prime_power_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            pk = 1
            while n % p == 0:
                pk *= p
                n //= p
            out.append(pk)
        p += 1
    if n > 1:
        out.append(n)
    return out
