"""Integer matrix normal forms for abelianization computations.

Relation matrices arrive as sparse rows, one `{column: entry}` dict per
relator.  The Smith normal form runs in two phases.  Phase 1 eliminates
with +-1 pivots only: no coefficient division, and on
Reidemeister-Schreier relation matrices it removes almost everything.
A column -> live-rows index means that clearing a pivot's column visits
only the rows that hold it, once each, and the pivot entry leaves each
of them before its update.  Rows wait in a bucket queue indexed by
length.  The pivot comes from the shortest live row with a unit entry,
the one queued last among rows of equal length, in that row's unit
column with the fewest live rows, the first among ties; a row is looked
at again only once an elimination changes it.  Phase 2 is a dense
gcd-based reduction of what remains.
"""

from __future__ import annotations

from collections import defaultdict


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
    col_rows: defaultdict[int, set[int]] = defaultdict(set)
    for r in rows:
        row = dict(r)
        if 0 in row.values():
            row = {j: v for j, v in row.items() if v}
        if row:
            for j in row:
                col_rows[j].add(len(sparse))
            sparse.append(row)

    # phase 1: eliminate with unit pivots only.  buckets[n] holds every
    # row queued at length n, as built and as each elimination leaves it;
    # fill-in only reaches columns already in use, so no row outgrows
    # them.  The shortest non-empty bucket is read from its end, so the
    # row queued last goes first, and an entry whose row has since been
    # used or changed length is skipped.  An update that shortens a row
    # below the bucket being read steps the reading back to it.
    units = 0
    buckets: list[list[int]] = [[] for _ in range(len(col_rows) + 1)]
    for i, r in enumerate(sparse):
        buckets[len(r)].append(i)
    n = 1
    while n < len(buckets):
        bucket = buckets[n]
        if not bucket:
            n += 1
            continue
        pi = bucket.pop()
        pr = sparse[pi]
        if pr is None or len(pr) != n:
            continue
        pj, least = None, 0
        for j, v in pr.items():
            if v == 1 or v == -1:
                k = len(col_rows[j])
                if pj is None or k < least:
                    pj, least = j, k
        if pj is None:
            continue  # set aside until an elimination changes it
        sparse[pi] = None
        units += 1
        pv = pr.pop(pj)
        items = [(j, v, col_rows[j]) for j, v in pr.items()]
        for _, _, js in items:
            js.discard(pi)
        hits = col_rows.pop(pj)
        hits.discard(pi)
        for i in hits:
            r = sparse[i]
            f = r.pop(pj) * pv  # r[pj] / pv, since pv is a unit
            for j, pvj, js in items:
                d = f * pvj
                v = r.get(j)
                if v is None:  # fill-in
                    r[j] = -d
                    js.add(i)
                elif v != d:
                    r[j] = v - d
                else:
                    del r[j]
                    js.discard(i)
            k = len(r)
            if k:
                buckets[k].append(i)
                if k < n:
                    n = k
            else:
                sparse[i] = None
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
