"""Seeded op generator for the three benchmark workloads.

A workload is a fixed cycle of op slots.  The slot fixes what sets an
op's cost (subcommand, set family, matrix shape, label count, sample
count, window); the seed only picks the details inside the slot (the
set parameters, signs, points, group elements, phases).  So every seed
gives the same cost profile and the same mix of known verdicts, and a
run that ends on a cycle boundary has the same error mix on every seed.

An op is a dict::

    {"id": str, "kind": str,
     "calls": [argv, ...],        # each argv is one fresh CLI process
     "files": {name: text},       # written to the work directory first
     "refs": [ref, ...]}          # one reference per call, for reference.py checks

Argv paths are bare file names: the op runs with the work directory as
its current directory.  The costly parts of a reference (expected
verdicts) are built as ``later(fn, ...)`` and only computed when
``make_cycle`` is asked for references, so the timed set-up generates
inputs alone.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction as F
from functools import partial as later

import reference as ref

SWAP2 = ((0, 2), (2, 0))
ROT2 = ((0, -2), (2, 0))
TWIST = ((1, 1), (-1, 1))
TWIST_T = ((1, -1), (1, 1))


def _m(a) -> str:
    return json.dumps([list(r) for r in a], separators=(",", ""))


# --- set families (pi units) ----------------------------------------------------


def shannon_like(a: F) -> list:
    """[a, 2a) + [-2(2-a), -(2-a)): a wavelet set for dilation 2, any 0 < a < 2."""
    b = 2 - a
    return [((a,), (2 * a,)), ((-2 * b,), (-b,))]


def journe_like(j: int) -> list:
    """P + (-P), P = [x, 1) + [2^j, 2^(j+1) x), x = 2^j / (2^(j+1) - 1).

    j = 2 is Journe's set.  P folds onto [0, 1) mod 2 and onto [1, 2)
    under dilation by 2, so the symmetric union is a wavelet set for +-2.
    """
    x = F(2**j, 2 ** (j + 1) - 1)
    pos = [((x,), (F(1),)), ((F(2**j),), (2 ** (j + 1) * x,))]
    return pos + [((-hi[0],), (-lo[0],)) for lo, hi in pos]


def product(s: list, t: list) -> list:
    return [(a[0] + b[0], a[1] + b[1]) for a in s for b in t]


def shell(inner: int, outer: int) -> list:
    """[-outer, outer)^2 minus [-inner, inner)^2 as four boxes."""
    o, i = F(outer), F(inner)
    return [
        ((-o, -o), (o, -i)),
        ((-o, i), (o, o)),
        ((-o, -i), (-i, i)),
        ((i, -i), (o, i)),
    ]


def _a(rng: random.Random, q: int) -> F:
    """A random p/q in (1/2, 3/2): the parameter of a shannon_like set."""
    return F(rng.randint(q // 2 + 1, 3 * q // 2 - 1), q)


# --- op builders ----------------------------------------------------------------


def _annulus(k: int) -> tuple[F, F]:
    return F(1, 2**k), F(2**k)


def _flags_exact(boxes, diag, j_max, annulus, cover=None):
    """Expected (disjoint, cover, congruent) for the exact check of a diagonal matrix.

    Cover is computed exactly in 1-D and given by construction in 2-D.
    """
    disjoint = ref.disjoint_diag(boxes, diag, j_max)
    if cover is None:
        cover = ref.cover_1d(boxes, diag[0], j_max, *annulus)
    return {"dilation_disjoint": disjoint, "dilation_cover": cover, "translation_congruent": ref.congruent(boxes)}


def _gram_expect(boxes, diag, m_max, v_max, tol=1e-12) -> bool:
    """Closed-form family orthonormal: disjoint scales and identity same-scale block."""
    if not ref.disjoint_diag(boxes, diag, m_max):
        return False
    n = len(diag)
    for d in itertools.product(range(-2 * v_max, 2 * v_max + 1), repeat=n):
        want = 1.0 if not any(d) else 0.0
        if abs(ref.same_scale_entry(boxes, d) - want) > tol:
            return False
    return True


def _certify_exact(op_id, rng, boxes, A, j_max, m_max, v_max, cover=None):
    diag = tuple(A[i][i] for i in range(len(A)))
    k = min(j_max - 2, 12)
    annulus = _annulus(k)
    name = f"{op_id}-set.json"
    verify = [
        "verify-set", "--set", name, "--dilation", _m(A), "--j-max", str(j_max),
        "--annulus", f"{annulus[0]},{annulus[1]}", "--mode", "exact",
    ]
    gram = ["gram", "--set", name, "--dilation", _m(A), "--m", str(m_max), "--v", str(v_max)]
    refs = [
        {
            "check": "verify", "set": ref.set_json(boxes), "A": A, "j_max": j_max,
            "annulus": [str(annulus[0]), str(annulus[1])], "mode": "exact",
            "expect": later(_flags_exact, boxes, diag, j_max, annulus, cover),
        },
        {
            "check": "gram", "set": ref.set_json(boxes), "A": A, "m_max": m_max, "v_max": v_max,
            "mode": "closed-form", "tol": 1e-12,
            "orthonormal": later(_gram_expect, boxes, diag, m_max, v_max),
            "sample_seed": rng.randrange(1 << 30),
        },
    ]
    return {"calls": [verify, gram], "files": {name: json.dumps(ref.set_json(boxes))}, "refs": refs}


def _flags_sampled(boxes, A, j_max, annulus, flags):
    """Expected verdicts of a sampled check: given, or computed exactly in 1-D when None."""
    if flags is None:
        flags = {
            "dilation_disjoint": ref.disjoint_diag(boxes, (A[0][0],), j_max),
            "dilation_cover": ref.cover_1d(boxes, A[0][0], j_max, *annulus),
        }
    return dict(flags, translation_congruent=ref.congruent(boxes))


def _certify_sampled(op_id, rng, boxes, A, samples, j_max, annulus, flags=None, gram=None, mode="auto"):
    name = f"{op_id}-set.json"
    seed = rng.randrange(1 << 20)
    ann = f"{annulus[0]},{annulus[1]}"
    verify = [
        "verify-set", "--set", name, "--dilation", _m(A), "--j-max", str(j_max),
        "--annulus", ann, "--samples", str(samples), "--seed", str(seed), "--mode", mode,
    ]
    calls = [verify]
    refs = [
        {
            "check": "verify", "set": ref.set_json(boxes), "A": A, "j_max": j_max,
            "annulus": [str(annulus[0]), str(annulus[1])], "mode": "sampled",
            "samples": samples, "seed": seed, "expect": later(_flags_sampled, boxes, A, j_max, annulus, flags),
        }
    ]
    if gram is not None:
        m_max, v_max = gram
        calls.append(
            ["gram", "--set", name, "--dilation", _m(A), "--m", str(m_max), "--v", str(v_max), "--tol", "1e-9"]
        )
        refs.append(
            {
                "check": "gram", "set": ref.set_json(boxes), "A": A, "m_max": m_max, "v_max": v_max,
                "mode": "quadrature", "tol": 1e-9, "orthonormal": True,
                "sample_seed": rng.randrange(1 << 30),
            }
        )
    return {"calls": calls, "files": {name: json.dumps(ref.set_json(boxes))}, "refs": refs}


def _exact_point(rng, n):
    return [F(rng.choice([-1, 1]) * rng.randint(1, 47), rng.choice([3, 5, 7, 9, 16])) for _ in range(n)]


def _decimal_point(rng, n, whole: int):
    # |x| >= 0.1 and a last digit of 3 or 7: never dyadic, so float(x) is never exact
    return [
        rng.choice(["", "-"]) + f"{rng.randint(0, whole)}.{rng.randint(1, 9)}{rng.randint(0, 9)}{rng.choice([3, 7])}"
        for _ in range(n)
    ]


def _element(rng, n, vmax, jmax, mmax=3):
    v = [rng.randint(-vmax, vmax) for _ in range(n)]
    if not any(v):
        v[0] = 1
    return {"v": v, "j": rng.randint(0, jmax), "m": rng.randint(-mmax, mmax)}


def _rep(op_id, rng, A, K, exact, vmax=9, jmax=3, whole=2):
    n = len(A)
    el = _element(rng, n, vmax, jmax)
    if exact:
        x = _exact_point(rng, n)
        xs = ",".join(f"{c} pi" for c in x)
    else:
        x = _decimal_point(rng, n, whole)
        xs = ",".join(x)
    argv = ["rep", "--dilation", _m(A), f"--x={xs}", "--element", json.dumps(el), "--K", str(K)]
    r = {"check": "rep", "A": A, "x": [str(c) for c in x], "exact": exact, "element": el, "K": K}
    return {"calls": [argv], "files": {}, "refs": [r]}


def _subordinate(rng, boxes, A, modulated: bool):
    """Disjoint cells, each strictly inside one dilate B^k E, k in [-3, 3]."""
    n = len(A)
    diag = tuple(A[i][i] for i in range(n))
    ks = rng.sample(range(-3, 4), 4)
    terms = []
    for k in ks:
        lo, hi = rng.choice(ref.dilate_diag(boxes, diag, k))
        a, b = [], []
        for x, y in zip(lo, hi):
            c1 = rng.randint(0, 6)
            c2 = rng.randint(c1 + 1, 7)
            a.append(x + (y - x) * F(c1, 8))
            b.append(x + (y - x) * F(c2, 8))
        term = {
            "re": round(rng.uniform(-2, 2), 6),
            "im": round(rng.uniform(-2, 2), 6),
            "box": {"lo": [str(c) for c in a], "hi": [str(c) for c in b]},
        }
        if modulated:
            el = _element(rng, n, 9, 3)
            term["beta"] = {"v": el["v"], "j": el["j"]}
        terms.append(term)
    return {"terms": terms}, sorted(ks)


def _decompose(op_id, rng, boxes, A, modulated):
    fn, ks = _subordinate(rng, boxes, A, modulated)
    sname, fname = f"{op_id}-set.json", f"{op_id}-f.json"
    argv = ["decompose", "--set", sname, "--dilation", _m(A), "--function", fname]
    r = {
        "check": "decompose", "set": ref.set_json(boxes), "A": A, "function": fn,
        "ks": ks, "path": "closed-form" if modulated else "exact",
    }
    files = {sname: json.dumps(ref.set_json(boxes)), fname: json.dumps(fn)}
    return {"calls": [argv], "files": files, "refs": [r]}


def _mean_coef(op_id, rng, A, j_max):
    n = len(A)
    v = [rng.randint(-9, 9) for _ in range(n)]
    beta = {"v": v, "j": rng.randint(1, 5)}
    argv = ["mean-coef", "--dilation", _m(A), "--beta", json.dumps(beta), "--j-max", str(j_max)]
    return {"calls": [argv], "files": {}, "refs": [{"check": "mean-coef", "A": A, "beta": beta, "j_max": j_max}]}


def _density(op_id, rng, A, with_set: bool, consistent: bool = True):
    n = len(A)
    targets = []
    for _ in range(rng.randint(2, 4)):
        level = rng.randint(1, 3)
        gens = [F(rng.randint(-23, 23), rng.choice([2, 3, 4, 5, 8])) for _ in range(n)]
        phases = [
            {"v": [int(i == k) for i in range(n)], "j": level, "t": str(t)} for k, t in enumerate(gens)
        ]
        # a shallower constraint with the phase the generators force on it
        cv, cj = [rng.randint(-5, 5) for _ in range(n)], rng.randint(0, level - 1)
        if any(cv):
            forced = ref.forced_phase(A, level, gens, cv, cj)
            phases.append({"v": cv, "j": cj, "t": str(forced)})
        tests = [{"v": [rng.randint(-9, 9) for _ in range(n)], "j": rng.randint(0, level)} for _ in range(4)]
        targets.append({"phases": phases, "test_set": tests})
    if not consistent:
        t0 = targets[0]
        level = t0["phases"][0]["j"]
        gens = [F(p["t"]) for p in t0["phases"][:n]]
        forced = ref.forced_phase(A, level, gens, [1] * n, 0)
        t0["phases"].append({"v": [1] * n, "j": 0, "t": str(forced + F(1, 2))})
    name = f"{op_id}-targets.json"
    argv = ["density", "--dilation", _m(A), "--targets", name]
    if with_set:
        argv += ["--set", "shannon"]
    r = {"check": "density", "A": A, "targets": targets, "consistent": consistent, "with_set": with_set}
    return {"calls": [argv], "files": {name: json.dumps(targets)}, "refs": [r]}


# --- cycles -----------------------------------------------------------------------


def _shifted(rng, base):
    c = F(rng.randint(1, 3), 8)
    return [((lo[0] + c,), (hi[0] + c,)) if lo[0] > 0 else ((lo[0] - c,), (hi[0] - c,)) for lo, hi in base]


def _stretched(rng, base):
    (lo, hi), rest = base[0], base[1:]
    return [(lo, (hi[0] + F(rng.randint(1, 4), 8),))] + rest


def _cycle_exact(rng, new):
    # Slots are listed by rising cost.  An odd slot count puts the median op in the
    # middle of one slot's group, and the two costliest slots share one cost profile,
    # so the tail percentile always falls inside that group.
    def a(q):
        return _a(rng, q)

    def sgn():
        return rng.choice([2, -2])

    S = shannon_like(F(1))
    new("E_a", _certify_exact, shannon_like(a(4)), ((2,),), 8, 1, 4)
    new("fat-shell", _certify_exact, shell(1, 3), ((2, 0), (0, sgn())), 8, 0, 2, True)
    new("journe", _certify_exact, journe_like(2), ((sgn(),),), 12, 1, 6)
    new("shifted", _certify_exact, _shifted(rng, shannon_like(a(4))), ((2,),), 10, 1, 12)
    new("E_a", _certify_exact, shannon_like(a(6)), ((2,),), 16, 2, 8)
    new("shell", _certify_exact, shell(1, 2), ((sgn(), 0), (0, sgn())), 12, 1, 1, True)
    new("journe", _certify_exact, journe_like(3), ((2,),), 20, 1, 8)
    new("product", _certify_exact, product(shannon_like(a(4)), S), ((2, 0), (0, sgn())), 8, 1, 1, False)
    new("stretched", _certify_exact, _stretched(rng, shannon_like(a(4))), ((2,),), 24, 2, 10)
    new("E_a", _certify_exact, shannon_like(a(8)), ((2,),), 18, 2, 12)
    new("E_a", _certify_exact, shannon_like(a(8)), ((2,),), 22, 2, 12)


def _cycle_sampled(rng, new):
    # Odd slot count and a matched costliest pair, as above.  Sample counts grade the
    # slot costs around the median slot (E_a, about 0.4 s) in steps of about a quarter,
    # so op times form a dense band there: when the machine's speed changes during a
    # run, the median moves with it smoothly instead of jumping across a gap.
    # thin-shell (annulus ratio 0.99) and SxS-scales (quadrature at m = -1) hit known defects.
    def a(q):
        return _a(rng, q)

    S = shannon_like(F(1))
    SS = product(S, S)
    no_cover = {"dilation_disjoint": True, "dilation_cover": False}
    tiles = {"dilation_disjoint": True, "dilation_cover": True}
    overlaps = {"dilation_disjoint": False, "dilation_cover": True}

    E, ann = shannon_like(a(4)), (F(99, 100), F(1))
    new("thin-shell", _certify_sampled, E, ((2,),), 200, 8, ann, mode="sampled")
    ann = (F(1, 16), F(4))
    new("fat-shell", _certify_sampled, shell(1, 3), SWAP2, 300, 6, ann, overlaps)
    ann = (F(1, 2), F(1))
    new("SxS-scales", _certify_sampled, SS, rng.choice([SWAP2, ROT2]), 450, 6, ann, no_cover, (1, 1))
    E, ann = _shifted(rng, shannon_like(a(4))), (F(1, 4), F(4))
    new("shifted", _certify_sampled, E, ((2,),), 300, 8, ann, mode="sampled")
    E, ann = product(shannon_like(a(4)), S), (F(1, 8), F(8))
    new("product", _certify_sampled, E, ((2, 0), (0, 2)), 250, 6, ann, no_cover, mode="sampled")
    ann = (F(9, 10), F(1))
    new("shell", _certify_sampled, shell(1, 2), rng.choice([SWAP2, ROT2]), 350, 8, ann, tiles, (0, 1))
    ann = (F(1, 4), F(1))
    new("SxS-twist", _certify_sampled, SS, rng.choice([TWIST, TWIST_T]), 430, 8, ann, no_cover, (0, 1))
    E, A, ann = journe_like(2), ((rng.choice([2, -2]),),), (F(1, 64), F(64))
    new("journe", _certify_sampled, E, A, 500, 10, ann, mode="sampled")
    E, ann = shannon_like(a(6)), (F(1, 16), F(16))
    new("E_a", _certify_sampled, E, ((2,),), 700, 6, ann, mode="sampled")
    ann = (F(1, 64), F(64))
    new("SxS", _certify_sampled, SS, SWAP2, 900, 8, ann, no_cover, (0, 2))
    new("SxS", _certify_sampled, SS, ROT2, 900, 8, ann, no_cover, (0, 2))


def _cycle_operators(rng, new):
    a = _a(rng, 6)
    # Six ops of 5-12 ms sit below the median, which falls in a band of rep and
    # decompose ops of 25-60 ms with graded costs: fork and cache effects disturb
    # those less than a few-millisecond op, and the median follows a change of
    # machine speed smoothly.  The two costliest slots share one cost profile (about
    # 85 ms, 1.4 times the next slot) and vary little with the seed's elements, so
    # the tail percentile falls inside their group; the non-diagonal rep slots, whose
    # cost varies with the element, stay below it.
    new("rep-exact", _rep, ((2,),), 40, True)
    new("rep-exact", _rep, TWIST_T, 32, True)
    new("rep-exact", _rep, ((2, 0), (0, 3)), 64, True)
    new("rep-exact", _rep, ((2, 0), (0, 3)), 64, True)
    # |x| < 1, |v| <= 2, j <= 2: the float phase error stays below 3e-11 at K = 16
    new("rep-decimal", _rep, ((2,),), 16, False, 2, 2, 0)
    new("rep-decimal", _rep, ((2,),), 64, False)
    new("rep-decimal", _rep, TWIST_T, 48, False)
    new("decompose-exact", _decompose, shannon_like(a), ((2,),), False)
    new("decompose-modulated", _decompose, journe_like(rng.randint(1, 3)), ((2,),), True)
    E23 = product(shannon_like(F(1)), [((F(-3),), (F(-1),))])
    new("decompose-exact", _decompose, E23, ((2, 0), (0, 3)), False)
    new("mean-coef", _mean_coef, ((2,),), 12)
    new("mean-coef", _mean_coef, TWIST_T, 16)
    new("density", _density, ((2,),), True)
    new("density", _density, ((2, 0), (0, 3)), False)
    new("density-inconsistent", _density, TWIST_T, False, False)


_CYCLES = {"certify-exact": _cycle_exact, "certify-sampled": _cycle_sampled, "operators": _cycle_operators}
WORKLOADS = tuple(_CYCLES)


def _resolve(x):
    if isinstance(x, later):
        return x()
    if isinstance(x, dict):
        return {k: _resolve(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_resolve(v) for v in x]
    return x


def make_cycle(workload: str, seed: int, cycle: int, refs: bool = True) -> list[dict]:
    """The ops of one cycle; the same (workload, seed, cycle) gives identical ops.

    With ``refs=False`` the ops carry no references, and none is computed.
    """
    rng = random.Random(f"{workload}/{seed}/{cycle}")
    ops: list[dict] = []

    def new(kind, build, *args, **kwargs):
        op_id = f"c{cycle}s{len(ops)}"
        op = build(op_id, rng, *args, **kwargs)
        op["refs"] = _resolve(op["refs"]) if refs else None
        ops.append({"id": op_id, "kind": f"{workload}/{kind}", **op})

    _CYCLES[workload](rng, new)
    return ops
