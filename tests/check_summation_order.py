"""Check that b_transform sums left to right, as the sampled tiling pass does.

    PYTHONPATH=src python tests/check_summation_order.py

Maps seeded float points by B^k, |k| <= 6, for a 3-D matrix whose powers
mix every coordinate, and compares each image bit for bit, zero signs
included, with a plain left-to-right sum started at integer 0.  From
Python 3.12 the builtin ``sum`` compensates float additions, so a
product built on it rounds differently from ``tiling._map_rows``, and a
sampled witness could disagree with the block that found it.  Only the
standard library and ``waverep.groups`` are imported (no numpy), so the
check runs on a bare interpreter.  Exits 1 when any image differs.
"""

from __future__ import annotations

import random
import sys

from waverep.groups import DilationMatrix, RealPoint, b_transform, validate_dilation

MATRIX = ((2, 1, 0), (0, 2, 1), (1, 0, 2))
TRIALS = 20000


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


def mismatches(trials: int = TRIALS, seed: int = 0) -> int:
    """How many of ``trials`` seeded images differ from the left-to-right sum."""
    A = validate_dilation(MATRIX)
    rng = random.Random(seed)
    bad = 0
    for _ in range(trials):
        x = tuple(rng.uniform(-8.0, 8.0) for _ in range(A.n))
        k = rng.randint(-6, 6)
        got = b_transform(A, RealPoint.from_floats(x), k).coords
        if [c.hex() for c in got] != [c.hex() for c in left_to_right(A, x, k)]:
            bad += 1
    return bad


if __name__ == "__main__":
    bad = mismatches()
    version = sys.version.split()[0]
    print(f"Python {version}: {bad} of {TRIALS} images differ from the left-to-right sum")
    sys.exit(1 if bad else 0)
