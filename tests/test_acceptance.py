"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
from scipy.integrate import simpson

from waverep.boxes import interval_set
from waverep.cli import run as cli_run
from waverep.density import CharacterTarget, approx_character, mean_coefficient
from waverep.gram import GramSpec, gram_matrix
from waverep.groups import AdicVector, GroupElement, RealPoint, b_transform, validate_dilation
from waverep.operators import (
    commutator_with_dilation,
    commutator_with_modulation,
    conjugation_defect,
    fiber_operator,
    find_noninvariant_witness,
    interior_deviation,
    invariant_step_extension,
    orbit_shift_defect,
)
from waverep.spectral import isometry_defect, to_layers
from waverep.operators import apply_layer_rep
from waverep.tiling import shannon_set, verify_wavelet_set

from util import (
    find_orbit_shift,
    product_set,
    random_adic,
    random_disjoint_subordinate,
    random_element,
    random_point_in,
    random_subordinate,
)

A2 = validate_dilation([[2]])
A23 = validate_dilation([[2, 0], [0, 3]])
E = shannon_set()
E23 = product_set(shannon_set(), interval_set([(-3, -1)]))


def report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_prototype_certification():
    start = time.perf_counter()
    rep = verify_wavelet_set(E, A2)
    elapsed = time.perf_counter() - start
    assert rep.disjoint.passed and rep.disjoint.mode == "exact"
    assert rep.cover.passed and rep.cover.mode == "exact"
    assert rep.congruent.passed and rep.congruent.mode == "exact"
    assert rep.verdict
    assert rep.measure_pi_units == Fraction(2)
    assert elapsed < 1.0
    report(1, f"prototype certified exact, measure 2*pi, {elapsed:.3f}s")


def test_criterion_2_counterexample_discrimination(tmp_path, capsys):
    start = time.perf_counter()
    c = Fraction(1, 8)

    def run_set(boxes):
        f = tmp_path / "case.json"
        f.write_text(json.dumps({"dim": 1, "boxes": boxes}))
        code = cli_run(["verify-set", "--set", str(f), "--dilation", "[[2]]"])
        out = json.loads(capsys.readouterr().out)
        return code, out

    # shifted prototype: uncovered gap with exact witness
    code, out = run_set(
        [
            {"lo": [str(1 + c)], "hi": [str(2 + c)]},
            {"lo": [str(-2 + c)], "hi": [str(-1 + c)]},
        ]
    )
    assert code == 1
    cover = out["conditions"]["dilation_cover"]
    assert not cover["passed"]
    gap = cover["witness"]["uncovered"]["boxes"]
    assert any(
        Fraction(b["lo"][0]) <= 2 + c and Fraction(b["hi"][0]) >= 2 + 2 * c for b in gap
    )

    # [0, 2pi): dilates overlap
    code, out = run_set([{"lo": ["0"], "hi": ["2"]}])
    assert code == 1
    assert not out["conditions"]["dilation_disjoint"]["passed"]
    assert out["conditions"]["dilation_disjoint"]["witness"]["intersection"]["boxes"]

    # [0, 3pi): not translation congruent
    code, out = run_set([{"lo": ["0"], "hi": ["3"]}])
    assert code == 1
    congruent = out["conditions"]["translation_congruent"]
    assert not congruent["passed"]
    w = congruent["witness"]
    assert w["overlap"]["boxes"] or w["deficit"]["boxes"]

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"three counterexamples rejected with witnesses, {elapsed:.3f}s")


def test_criterion_3_orthonormality():
    start = time.perf_counter()
    res = gram_matrix(GramSpec(E, A2, m_max=2, v_max=8))
    assert res.mode == "closed-form"
    assert res.max_deviation < 1e-12

    # independent quadrature oracle: same-scale entries reduce to
    # (1/mu) * integral over E of e^{-i w xi}, evaluated by Simpson on 10^4 points
    grids = [
        np.linspace(-2 * math.pi, -math.pi, 5001),
        np.linspace(math.pi, 2 * math.pi, 5001),
    ]

    def oracle(w):
        total = 0j
        for g in grids:
            total += simpson(np.exp(-1j * w * g), x=g)
        return total / (2 * math.pi)

    idx = {lab: i for i, lab in enumerate(res.labels)}
    worst = 0.0
    for m in range(-2, 3):
        for v in range(-8, 9):
            for vp in range(-8, 9):
                i, j = idx[(m, (v,))], idx[(m, (vp,))]
                worst = max(worst, abs(res.matrix[i, j] - oracle(v - vp)))
    assert worst < 1e-6
    # cross-scale entries vanish because the supports are disjoint
    for (m, v), i in idx.items():
        for (mp, vp), j in idx.items():
            if m != mp:
                assert res.matrix[i, j] == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        3,
        f"gram identity dev {res.max_deviation:.2e}, oracle gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_conjugation():
    rng = random.Random(100)
    worst = 0.0
    for _ in range(60):
        f = random_subordinate(rng, E, A2)
        g = random_element(rng, A2)
        worst = max(worst, conjugation_defect(g, f, E, A2))
    for _ in range(40):
        f = random_subordinate(rng, E23, A23, k_lo=-2, k_hi=2)
        g = random_element(rng, A23, mmax=2)
        worst = max(worst, conjugation_defect(g, f, E23, A23))
    assert worst < 1e-10

    # the layered action at a fixed point coincides with the fiber operator
    fiber_worst = 0.0
    for _ in range(20):
        f = random_subordinate(rng, E, A2)
        g = random_element(rng, A2)
        F = to_layers(f, E, A2, -8, 8)
        G = apply_layer_rep(g, F)
        x = random_point_in(rng, E)
        vec = {k: F.eval(x, k) for k in range(-8, 9)}
        out = fiber_operator(x, g, 8).apply(vec)
        for k, val in out.items():
            fiber_worst = max(fiber_worst, abs(val - G.eval(x, k)))
    assert fiber_worst < 1e-12
    report(
        4,
        f"conjugation dev {worst:.2e} over 100 pairs, fiberwise gap {fiber_worst:.2e}",
    )


def test_criterion_5_monomial_suite():
    rng = random.Random(200)
    worst_orbit = 0.0
    for _ in range(25):
        x = random_point_in(rng, E)
        g = GroupElement(random_adic(rng, A2), rng.randint(-2, 2))
        m = rng.randint(-4, 4)
        worst_orbit = max(worst_orbit, orbit_shift_defect(x, m, g, 32, A2))
    assert worst_orbit < 1e-12
    # oracle orientation: the best offset over the whole window equals the step
    x = random_point_in(rng, E)
    g = GroupElement.of(A2, [1], 0, 0)
    offset, dev = find_orbit_shift(x, 3, g, 16, A2)
    assert offset == 3 and dev < 1e-12

    # aperiodicity: no point of E returns under B^m, 1 <= |m| <= 16; the origin does at once
    for _ in range(100):
        x = random_point_in(rng, E)
        assert all(b_transform(A2, x, m) != x for m in range(-16, 17) if m)
    origin = RealPoint.from_pi([0])
    assert b_transform(A2, origin, 1) == origin
    report(
        5,
        f"orbit dev {worst_orbit:.2e}, "
        "aperiodicity 100/100 with the origin returning at m=1",
    )


def test_criterion_6_representation_property():
    rng = random.Random(300)
    worst = 0.0
    for _ in range(500):
        x = random_point_in(rng, E)
        g1, g2 = random_element(rng, A2), random_element(rng, A2)
        lhs = fiber_operator(x, g1 * g2, 32)
        rhs = fiber_operator(x, g1, 32).compose(fiber_operator(x, g2, 32))
        worst = max(worst, interior_deviation(lhs, rhs))
    assert worst < 1e-12
    report(6, f"homomorphism interior dev {worst:.2e} over 500 pairs")


def test_criterion_7_commutant():
    rng = random.Random(400)
    from waverep.boxes import Box

    step = [
        (Box((Fraction(1),), (Fraction(2),)), complex(1.0)),
        (Box((Fraction(-2),), (Fraction(-1),)), complex(5.0)),
    ]
    pieces = invariant_step_extension(step, A2, 7)
    worst = 0.0
    for _ in range(50):
        f = random_subordinate(rng, E, A2, k_lo=-3, k_hi=3)
        worst = max(worst, commutator_with_dilation(pieces, f))
        v = AdicVector.of(A2, [rng.randint(-6, 6)])
        worst = max(worst, commutator_with_modulation(pieces, v, f))
    assert worst < 1e-10

    bare = [(Box((Fraction(1),), (Fraction(2),)), complex(1.0))]
    found = find_noninvariant_witness(bare, A2)
    assert found is not None
    witness, norm = found
    assert norm > 0.1
    assert commutator_with_dilation(bare, witness) == norm
    report(
        7,
        f"invariant multipliers commute to {worst:.2e}; "
        f"non-invariant witness norm {norm:.3f}",
    )


def test_criterion_8_density_consequences():
    rng = random.Random(500)
    worst = 0.0
    for A in (A2, A23):
        for _ in range(25):
            level = rng.randint(0, 8)
            t = CharacterTarget(
                A,
                level,
                tuple(
                    Fraction(rng.randint(-16, 16), rng.randint(1, 16))
                    for _ in range(A.n)
                ),
            )
            F = [
                AdicVector.of(
                    A,
                    [rng.randint(-20, 20) for _ in range(A.n)],
                    rng.randint(0, level),
                )
                for _ in range(6)
            ]
            res = approx_character(t, F)
            worst = max(worst, res.error)
    assert worst <= 1e-10

    for _ in range(20):
        v = rng.randint(1, 40) * rng.choice([1, -1])
        assert mean_coefficient(AdicVector.of(A2, [v]), 0) == 0.0

    for _ in range(20):
        beta = AdicVector.of(A2, [rng.randint(1, 15) * rng.choice([1, -1])], rng.randint(1, 3))
        assert abs(mean_coefficient(beta, 8)) < 0.05
    report(
        8,
        f"character match error {worst:.2e} over 50 targets; "
        "lattice coefficients exactly 0; decay below 0.05 by level 8",
    )


def test_criterion_9_isometry():
    rng = random.Random(600)
    for _ in range(100):
        f = random_disjoint_subordinate(rng, E, A2)
        assert isometry_defect(f, E, A2) == 0.0
    report(9, "exact defect 0.0 on 100 functions")
