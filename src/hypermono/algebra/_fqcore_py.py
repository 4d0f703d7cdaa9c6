"""Finite-field matrix kernel: the inner loops behind ``fq.FqMatrix``
(product, Gauss-Jordan, matrix-vector).

Matrices are flat row-major sequences (bytes, tuples or lists) of field
elements encoded as ints in [0, q); ``mat_mul`` and ``mat_vec`` return the
list they fill.  Arithmetic goes through flat lookup tables (mul[a*q+b],
add[a*q+b], neg[a], inv[a]).  ``rref`` is the one Gauss-Jordan over F_q,
behind ``FqMatrix.rank``, ``FqMatrix.inverse`` and ``fq.nullspace``.
"""

from __future__ import annotations


def mat_mul(a, b, n, q, mul, add):
    out = [0] * (n * n)
    for i in range(n):
        row = i * n
        for k in range(n):
            aik = a[row + k]
            if aik:
                kn = k * n
                base = aik * q
                for j in range(n):
                    bkj = b[kn + j]
                    if bkj:
                        out[row + j] = add[out[row + j] * q + mul[base + bkj]]
    return out


def rref(rows, ncols, q, mul, add, neg, inv):
    """Gauss-Jordan over F_q, in place: reduce the rows (lists of equal
    length) to reduced row echelon form, pivoting in the first ncols columns
    (later columns ride along, as in an augmented matrix).  Returns the
    pivot columns."""
    pivots, nrows, width = [], len(rows), len(rows[0]) if rows else 0
    for col in range(ncols):
        rank, piv = len(pivots), -1
        for r in range(rank, nrows):
            if rows[r][col]:
                piv = r
                break
        if piv < 0:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivinv = inv[rows[rank][col]]
        if pivinv != 1:
            rows[rank] = [mul[pivinv * q + v] for v in rows[rank]]
        mk = rows[rank]
        for r in range(nrows):
            mr = rows[r]
            if r != rank and mr[col]:
                f = neg[mr[col]] * q
                for j in range(col, width):
                    if mk[j]:
                        mr[j] = add[mr[j] * q + mul[f + mk[j]]]
        pivots.append(col)
        if rank + 1 == nrows:
            break
    return pivots


def mat_rank(a, n, q, mul, add, neg, inv):
    return len(rref([list(a[i * n : (i + 1) * n]) for i in range(n)], n, q, mul, add, neg, inv))


def mat_vec(a, v, n, q, mul, add):
    out = [0] * n
    for i in range(n):
        acc = 0
        row = i * n
        for j in range(n):
            aij = a[row + j]
            if aij and v[j]:
                acc = add[acc * q + mul[aij * q + v[j]]]
        out[i] = acc
    return out
