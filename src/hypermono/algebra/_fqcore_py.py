"""Finite-field matrix kernel: the inner loops behind ``fq.FqMatrix``.

Matrices are flat row-major tuples of field elements encoded as ints in
[0, q); arithmetic goes through flat lookup tables (mul[a*q+b], add[a*q+b],
neg[a], inv[a]).
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
    return tuple(out)


def mat_rank(a, n, q, mul, add, neg, inv):
    m = [list(a[i * n : (i + 1) * n]) for i in range(n)]
    rank = 0
    for col in range(n):
        piv = -1
        for r in range(rank, n):
            if m[r][col]:
                piv = r
                break
        if piv < 0:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivinv = inv[m[rank][col]]
        if pivinv != 1:
            m[rank] = [mul[pivinv * q + v] for v in m[rank]]
        for r in range(n):
            if r != rank and m[r][col]:
                f = neg[m[r][col]]
                mr, mk = m[r], m[rank]
                for j in range(col, n):
                    if mk[j]:
                        mr[j] = add[mr[j] * q + mul[f * q + mk[j]]]
        rank += 1
        if rank == n:
            break
    return rank


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
    return tuple(out)
