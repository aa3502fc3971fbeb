"""Exact integer matrix helpers.

Everything here works on tuples of tuples with Python integers (vectors
may also hold ``fractions.Fraction`` entries), so results are exact for
arbitrarily large values.  Nothing here solves a linear system: an
inverse power of an integer matrix is carried as the integer pair
adj(A)^k, det(A)^k, with the adjugate taken from the characteristic
polynomial recursion.  Matrices are small (desk scale, n <= 4 or so);
clarity wins over asymptotics.
"""

from __future__ import annotations

import operator
from typing import Sequence

IntMatrix = tuple[tuple[int, ...], ...]


def as_matrix(rows) -> IntMatrix:
    """Validate a square integer matrix given as nested sequences."""
    if any(isinstance(x, bool) for row in rows for x in row):
        raise TypeError("matrix entries must be integers, not booleans")
    mat = tuple(tuple(operator.index(x) for x in row) for row in rows)
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise ValueError("matrix must be square and non-empty")
    return mat


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: IntMatrix) -> IntMatrix:
    return tuple(zip(*a))


def mat_mul(a, b):
    return transpose(tuple(mat_vec(a, col) for col in transpose(b)))


def mat_vec(a, v):
    """a v summed left to right from 0 on every Python (from 3.12, ``sum`` compensates floats)."""
    out = []
    for row in a:
        acc = 0
        for x, y in zip(row, v):
            acc += x * y
        out.append(acc)
    return tuple(out)


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    """a**k for k >= 0 by repeated squaring."""
    if k < 0:
        raise ValueError("negative power on integer matrix")
    result = identity(len(a))
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def char_poly(a: IntMatrix) -> tuple[tuple[int, ...], IntMatrix]:
    """Coefficients of det(x*I - a), ascending: (c0, c1, ..., 1), and adj(a).

    Faddeev-LeVerrier recursion M_1 = I, M_{k+1} = a M_k + c_{n-k} I with
    c_{n-k} = -tr(a M_k) / k; all divisions are exact.  Cayley-Hamilton
    gives a M_n = -c0 I, so the adjugate comes for free as
    adj(a) = (-1)^(n+1) M_n and satisfies adj(a) a = det(a) I.
    """
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = identity(n)
    for k in range(1, n + 1):
        adj = m
        am = mat_mul(a, m)
        tr = sum(am[i][i] for i in range(n))
        c = -tr // k
        assert c * k == -tr
        coeffs[n - k] = c
        m = tuple(
            tuple(am[i][j] + (c if i == j else 0) for j in range(n)) for i in range(n)
        )
    sign = 1 if n % 2 else -1
    return tuple(coeffs), tuple(tuple(sign * x for x in row) for row in adj)


def schur_stable(coeffs: Sequence[int]) -> tuple[bool, int]:
    """Exact test that every root of the polynomial lies in |z| < 1.

    ``coeffs`` ascending (a0, a1, ..., an), an != 0.  Returns
    (stable, stage) where stage is the first failing reduction step
    (== degree steps completed when stable).  The reduction
    q(z) -> (an*q(z) - a0*q*(z)) / z keeps all roots inside the disk
    iff an^2 - a0^2 > 0 at every step; coefficients stay integers.
    """
    cur = list(coeffs)
    while cur and cur[-1] == 0:
        cur.pop()
    if not cur:
        raise ValueError("zero polynomial")
    stage = 0
    while len(cur) > 1:
        a0, an = cur[0], cur[-1]
        delta = an * an - a0 * a0
        if delta <= 0:
            return False, stage
        m = len(cur) - 1
        cur = [an * cur[i + 1] - a0 * cur[m - 1 - i] for i in range(m)]
        stage += 1
    return True, stage
