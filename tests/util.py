"""Shared random generators for the test suite (seeded, deterministic)."""

from __future__ import annotations

import random
from fractions import Fraction

from waverep.boxes import Box, BoxSet
from waverep.funcs import ModulatedBoxSum
from waverep.groups import AdicVector, DilationMatrix, GroupElement, RealPoint
from waverep.linalg import mat_pow, mat_vec, transpose


def random_adic(rng: random.Random, A: DilationMatrix, vmax: int = 9, jmax: int = 3):
    return AdicVector.of(
        A, [rng.randint(-vmax, vmax) for _ in range(A.n)], rng.randint(0, jmax)
    )


def random_element(rng: random.Random, A: DilationMatrix, mmax: int = 3):
    return GroupElement(random_adic(rng, A), rng.randint(-mmax, mmax))


def random_point_in(rng: random.Random, E: BoxSet, den: int = 16) -> RealPoint:
    """Exact rational-pi point strictly inside a random box of the set."""
    box = rng.choice(E.boxes)
    coords = []
    for a, b in zip(box.lo, box.hi):
        t = Fraction(rng.randint(1, den - 1), den)
        coords.append(a + (b - a) * t)
    return RealPoint.from_pi(coords)


def random_subbox(rng: random.Random, box: Box, den: int = 8) -> Box:
    lo, hi = [], []
    for a, b in zip(box.lo, box.hi):
        c1 = rng.randint(0, den - 2)
        c2 = rng.randint(c1 + 1, den - 1)
        lo.append(a + (b - a) * Fraction(c1, den))
        hi.append(a + (b - a) * Fraction(c2, den))
    return Box(tuple(lo), tuple(hi))


def random_coef(rng: random.Random) -> complex:
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


def random_subordinate(
    rng: random.Random,
    E: BoxSet,
    A: DilationMatrix,
    k_lo: int = -3,
    k_hi: int = 3,
    n_terms: int = 4,
    modulated: bool = True,
) -> ModulatedBoxSum:
    """Random function supported in the dilates of E within [k_lo, k_hi]."""
    terms = []
    for _ in range(n_terms):
        k = rng.randint(k_lo, k_hi)
        dil = E.dilate(A, k)
        box = random_subbox(rng, rng.choice(dil.boxes))
        beta = random_adic(rng, A) if modulated else AdicVector.zero(A)
        terms.append((random_coef(rng), beta, box))
    return ModulatedBoxSum.of(A, terms)


def random_disjoint_subordinate(
    rng: random.Random,
    E: BoxSet,
    A: DilationMatrix,
    k_lo: int = -3,
    k_hi: int = 3,
) -> ModulatedBoxSum:
    """Piecewise-constant function on disjoint cells inside distinct dilates."""
    ks = rng.sample(range(k_lo, k_hi + 1), k=min(4, k_hi - k_lo + 1))
    pieces = []
    for k in ks:
        dil = E.dilate(A, k)
        pieces.append((random_subbox(rng, rng.choice(dil.boxes)), random_coef(rng)))
    return ModulatedBoxSum.piecewise(A, pieces)


# --- reference A-adic arithmetic by Fraction Gaussian elimination ----------


def ref_solve(a, b) -> tuple[Fraction, ...]:
    """Exact solution of a x = b over the rationals (Gaussian elimination)."""
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(row[n] for row in aug)


def ref_canonical(A: DilationMatrix, v, j: int) -> tuple[tuple[int, ...], int]:
    """Canonical (v, j) of A^{-j} v: divide by A while the quotient stays integral."""
    v = tuple(v)
    if all(x == 0 for x in v):
        return v, 0
    while j > 0:
        w = ref_solve(A.entries, v)
        if any(x.denominator != 1 for x in w):
            break
        v, j = tuple(int(x) for x in w), j - 1
    return v, j


def ref_values(A: DilationMatrix, v, j: int) -> tuple[Fraction, ...]:
    """A^{-j} v as exact rationals."""
    return ref_solve(mat_pow(A.entries, j), v)


def ref_b_transform(A: DilationMatrix, x, k: int) -> tuple[Fraction, ...]:
    """B^k x exactly, B the transpose of A, for a rational vector x."""
    b = transpose(A.entries)
    if k >= 0:
        return tuple(Fraction(c) for c in mat_vec(mat_pow(b, k), x))
    return ref_solve(mat_pow(b, -k), x)
