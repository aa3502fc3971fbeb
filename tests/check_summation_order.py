"""Check that float images and characters sum left to right, as the sampled tiling pass does.

    PYTHONPATH=src python tests/check_summation_order.py

For a 3-D matrix whose powers mix every coordinate, compares bit for
bit, zero signs included, with plain left-to-right sums started at
integer 0:

* seeded float points mapped by B^k, |k| <= 6, with ``b_transform``;
* seeded float characters e^{-i<x, beta>} from ``character_value``;
* seeded float phase tables of ``operators.fiber_operator``, |k| <= K,
  against the per-k table of ``beta.twist(-k)``.

From Python 3.12 the builtin ``sum`` compensates float additions, so a
product built on it rounds differently from ``tiling._map_rows``, and a
sampled witness could disagree with the block that found it.  Besides
the standard library, only ``waverep.groups`` and ``waverep.operators``
are imported, and they load no numpy, so the check runs on a bare
interpreter.  Exits 1 when any value differs.
"""

from __future__ import annotations

import cmath
import random
import sys

from waverep.groups import (
    AdicVector,
    DilationMatrix,
    GroupElement,
    RealPoint,
    b_transform,
    character_value,
    validate_dilation,
)
from waverep.operators import fiber_operator

MATRIX = ((2, 1, 0), (0, 2, 1), (1, 0, 2))
TRIALS = 20000
TABLES = 200


def left_to_right(A: DilationMatrix, x: tuple[float, ...], k: int) -> tuple[float, ...]:
    """B^k x with coordinate i = (((0 + P_0i x_0) + P_1i x_1) + ...) / d."""
    p, d = A.power(k)
    out = []
    for i in range(A.n):
        acc = 0
        for j in range(A.n):
            acc = acc + p[j][i] * x[j]
        out.append(acc if d == 1 else acc / d)
    return tuple(out)


def ref_character(x: tuple[float, ...], beta: AdicVector) -> complex:
    """e^{-i<x, beta>} with <x, beta> = ((0 + x_0 float(beta_0)) + x_1 float(beta_1)) + ..."""
    dot = 0
    for xc, bf in zip(x, beta.values()):
        dot = dot + xc * float(bf)
    return cmath.exp(-1j * dot)


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _element(A: DilationMatrix, rng: random.Random) -> AdicVector:
    return AdicVector.of(A, [rng.randint(-9, 9) for _ in range(A.n)], rng.randint(0, 4))


def _point(A: DilationMatrix, rng: random.Random) -> tuple[float, ...]:
    return tuple(rng.uniform(-8.0, 8.0) for _ in range(A.n))


def mismatches(trials: int = TRIALS, seed: int = 0) -> int:
    """How many of ``trials`` seeded images differ from the left-to-right sum."""
    A = validate_dilation(MATRIX)
    rng = random.Random(seed)
    bad = 0
    for _ in range(trials):
        x = _point(A, rng)
        k = rng.randint(-6, 6)
        got = b_transform(A, RealPoint.from_floats(x), k).coords
        if [c.hex() for c in got] != [c.hex() for c in left_to_right(A, x, k)]:
            bad += 1
    return bad


def character_mismatches(trials: int = TRIALS, seed: int = 1) -> int:
    """How many of ``trials`` seeded float characters differ from the left-to-right sum."""
    A = validate_dilation(MATRIX)
    rng = random.Random(seed)
    bad = 0
    for _ in range(trials):
        x, beta = _point(A, rng), _element(A, rng)
        if _bits(character_value(RealPoint.from_floats(x), beta)) != _bits(ref_character(x, beta)):
            bad += 1
    return bad


def ref_fiber_table(x: tuple[float, ...], beta: AdicVector, K: int) -> dict[int, complex]:
    """The per-k table: the left-to-right character of beta.twist(-k), k = -K, ..., K."""
    return {k: ref_character(x, beta.twist(-k)) for k in range(-K, K + 1)}


def fiber_mismatches(count: int = TABLES, seed: int = 2) -> int:
    """How many of ``count`` seeded fiber tables differ from the per-k table in any phase."""
    A = validate_dilation(MATRIX)
    rng = random.Random(seed)
    bad = 0
    for _ in range(count):
        x, beta, K = _point(A, rng), _element(A, rng), rng.randint(0, 24)
        got = fiber_operator(RealPoint.from_floats(x), GroupElement(beta, 0), K).phases
        want = ref_fiber_table(x, beta, K)
        if [(k, _bits(p)) for k, p in got.items()] != [(k, _bits(p)) for k, p in want.items()]:
            bad += 1
    return bad


if __name__ == "__main__":
    py = f"Python {sys.version.split()[0]}"
    images, characters, tables = mismatches(), character_mismatches(), fiber_mismatches()
    print(f"{py}: {images} of {TRIALS} images differ from the left-to-right sum")
    print(f"{py}: {characters} of {TRIALS} characters differ from the left-to-right sum")
    print(f"{py}: {tables} of {TABLES} fiber tables differ from the per-k table")
    sys.exit(1 if images or characters or tables else 0)
