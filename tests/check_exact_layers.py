"""Check that exact library work on the Shannon set loads no numpy.

    PYTHONPATH=src python tests/check_exact_layers.py

Runs an exact ``fiber_operator``, ``to_layers`` and ``isometry_defect``,
``approx_character`` with the Shannon set, and ``mean_coefficient``,
checks their exact values, and then that ``numpy`` is not in
``sys.modules``: of the package, only ``cli``, ``gram`` and ``tiling``
import numpy at module level, and ``boxes`` imports it only inside its
float mask ``BoxSet.contains_rows``.  Run it in a fresh interpreter,
since an earlier import of numpy would make the check pass vacuously.
Exits 1 with the failing check otherwise.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from waverep import jsonio
from waverep.boxes import interval_set
from waverep.density import CharacterTarget, approx_character, mean_coefficient
from waverep.funcs import ModulatedBoxSum
from waverep.groups import AdicVector, GroupElement, validate_dilation
from waverep.operators import fiber_operator
from waverep.spectral import isometry_defect, to_layers


def main() -> None:
    A = validate_dilation([[2]])
    shannon = interval_set([(-2, -1), (1, 2)])
    half = AdicVector.of(A, [1], 1)
    # at x = pi the phase of A^k (1/2) is e^{-i pi 2^(k-1)}: -i at k = 0, then -1, then 1
    phases = fiber_operator(jsonio.parse_point("pi", A), GroupElement(half, 1), 4).phases
    assert [phases[k] for k in (0, 1, 2)] == [-1j, -1, 1], phases
    f = ModulatedBoxSum.indicator(A, interval_set([(1, Fraction(3, 2))]))
    assert to_layers(f, shannon, A).truncation_mass == 0.0
    assert isometry_defect(f, shannon, A) == 0.0
    target = CharacterTarget.from_phase_map(A, {half: Fraction(-1, 2)})
    res = approx_character(target, [half, AdicVector.of(A, [1], 0)], E=shannon)
    assert res.error == 0.0 and res.membership == {"level": 1, "representative": ["-2"]}, res
    assert mean_coefficient(AdicVector.of(A, [1], 0), 0) == 0
    assert "numpy" not in sys.modules, "exact library work imported numpy"


if __name__ == "__main__":
    try:
        main()
    except AssertionError as exc:
        sys.exit(f"check_exact_layers: {exc}")
    print(f"Python {sys.version.split()[0]}: exact layers ran without numpy")
