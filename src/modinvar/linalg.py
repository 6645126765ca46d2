"""Exact Gaussian elimination over GF(q).

Prime fields go through numpy integer arithmetic mod p (vectorized, still
exact); GF(2) additionally packs rows into uint64 words. Extension fields use
a plain table-driven elimination. No floating point anywhere.
"""

from __future__ import annotations

import numpy as np


def rank_gf2(A):
    """Rank over GF(2) of a 0/1 numpy matrix."""
    A = np.asarray(A, dtype=np.uint8)
    rows, cols = A.shape
    if rows == 0 or cols == 0:
        return 0
    packed = np.packbits(A, axis=1)
    words = np.zeros((rows, (packed.shape[1] + 7) // 8 * 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    W = words.view(np.uint64)
    rank = 0
    for col in range(cols):
        word, bit = divmod(col, 8)
        byte_col = word  # packbits is big-endian within bytes
        colbits = (words[rank:, byte_col] >> (7 - bit)) & 1
        hits = np.nonzero(colbits)[0]
        if hits.size == 0:
            continue
        piv = rank + hits[0]
        if piv != rank:
            W[[rank, piv]] = W[[piv, rank]]
        colbits = (words[rank + 1:, byte_col] >> (7 - bit)) & 1
        sel = np.nonzero(colbits)[0]
        if sel.size:
            W[rank + 1 + sel] ^= W[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def rank_modp(A, p):
    """Rank over GF(p), p prime, of an integer numpy matrix."""
    if p == 2:
        return rank_gf2(np.asarray(A) % 2)
    # entries and pivot products stay below p^2 <= 81, so int16 is exact and
    # keeps the stacked action matrices (up to ~9000 x 3000) small
    dtype = np.int16 if p * p < 2 ** 14 else np.int64
    A = np.array(A, dtype=dtype) % p
    rows, cols = A.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        hits = np.nonzero(A[rank:, col])[0]
        if hits.size == 0:
            continue
        piv = rank + hits[0]
        if piv != rank:
            A[[rank, piv]] = A[[piv, rank]]
        inv = pow(int(A[rank, col]), -1, p)
        A[rank] = (A[rank] * inv) % p
        sel = rank + 1 + np.nonzero(A[rank + 1:, col])[0]
        if sel.size:
            A[sel] = (A[sel] - np.outer(A[sel, col], A[rank])) % p
        rank += 1
    return rank


def solve_modp(A, b, p):
    """One exact solution of A x = b over GF(p), or None if inconsistent.

    Free variables are set to 0, so the solution is canonical for a fixed
    column order.
    """
    A = np.array(A, dtype=np.int64) % p
    b = np.array(b, dtype=np.int64) % p
    rows, cols = A.shape
    aug = np.concatenate([A, b.reshape(rows, 1)], axis=1)
    pivots = []
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        hits = np.nonzero(aug[rank:, col])[0]
        if hits.size == 0:
            continue
        piv = rank + hits[0]
        if piv != rank:
            aug[[rank, piv]] = aug[[piv, rank]]
        inv = pow(int(aug[rank, col]), -1, p)
        aug[rank] = (aug[rank] * inv) % p
        others = np.nonzero(aug[:, col])[0]
        others = others[others != rank]
        if others.size:
            aug[others] = (aug[others]
                           - np.outer(aug[others, col], aug[rank])) % p
        pivots.append(col)
        rank += 1
    x = np.zeros(cols, dtype=np.int64)
    for r, col in enumerate(pivots):
        x[col] = aug[r, cols]
    # free variables are 0; verification doubles as the consistency check
    if np.any((A @ x - b) % p):
        return None
    return x % p


def rank_field(rows, field):
    """Rank over any FieldParams; extension fields go through the regular
    representation over the prime field, so numpy still does the work."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    if field.s == 1:
        return rank_modp(rows, field.p)
    p, s = field.p, field.s
    # multiplication-by-element matrices on the basis 1, t, ..., t^(s-1);
    # indices encode coefficient vectors in base p, so t^k has index p^k
    def digits(e):
        out = []
        for _ in range(s):
            out.append(e % p)
            e //= p
        return out

    reg = []
    for idx in range(field.q):
        cols = []
        for k in range(s):
            e = field.mul_i(idx, p ** k)
            cols.append(digits(e))
        reg.append(cols)  # reg[idx][k][r] = coeff of t^r in idx * t^k
    nrows, ncols = len(rows), len(rows[0])
    big = np.zeros((nrows * s, ncols * s), dtype=np.int16)
    for i, row in enumerate(rows):
        for j, idx in enumerate(row):
            if not idx:
                continue
            cols = reg[idx]
            for k in range(s):
                col = cols[k]
                for r in range(s):
                    if col[r]:
                        big[i * s + r, j * s + k] = col[r]
    return rank_modp(big, p) // s


def solve_generic(rows, rhs, field):
    """Exact solve over an arbitrary FieldParams; returns list or None."""
    m = [list(r) + [v] for r, v in zip(rows, rhs)]
    nrows = len(m)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = field.inv_i(m[rank][col])
        m[rank] = [field.mul_i(inv, v) for v in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                c = field.neg_i(m[r][col])
                prow = m[rank]
                m[r] = [field.add_i(v, field.mul_i(c, w))
                        for v, w in zip(m[r], prow)]
        pivots.append(col)
        rank += 1
    for r in range(nrows):
        if m[r][ncols] and not any(m[r][:ncols]):
            return None
    x = [0] * ncols
    for r, col in enumerate(pivots):
        x[col] = m[r][ncols]
    return x
