"""Per-call output checks against the references carried by each op.

``check_call`` returns ``None`` for a correct call and otherwise a
failure label.  Labels starting with ``known:`` name the three defects
present at the seed; any other label is an unexplained failure:

* ``known:quadrature-negative-scale``: quadrature ``gram`` uses
  B^{-|m|} for both signs of m, so an orthonormal family reads
  |det|^{2|m|} on the diagonal at m < 0;
* ``known:rep-decimal-precision``: ``rep`` on a decimal point exits 0
  with phases further than its own 1e-10 from the exact phases, each
  still a unit number within the float rounding of its angle
  (a few units of 2^-53 times |<x, beta>|, so 2^K 2^-53 at window K);
* ``known:thin-shell-sampling``: sampled ``verify-set`` on a thin
  annulus lets ``RuntimeError("annulus sampling failed")`` escape.
"""

from __future__ import annotations

import itertools
import json
import math
import random

import mpmath
import numpy as np

import reference as ref
from reference import F

PHASE_TOL = 1e-10
# relative roundings in a float phase angle x.w (n <= 2): x and w rounded, products, sum;
# doubled for margin, in units of 2^-53
DOT_ROUNDINGS = 8


class Fail(Exception):
    pass


def _require(cond: bool, label: str) -> None:
    if not cond:
        raise Fail(label)


def check_call(r: dict, code: int, stdout: str, stderr: str, crashed: bool) -> str | None:
    if crashed:
        if r["check"] == "verify" and r["mode"] == "sampled" and "annulus sampling failed" in stderr:
            return "known:thin-shell-sampling"
        return "traceback"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout-not-json"
    try:
        _CHECKS[r["check"]](r, code, report)
    except Fail as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"report-shape: {type(exc).__name__}: {exc}"
    return None


# --- verify-set -------------------------------------------------------------------


def _in_set_real(q, boxes) -> bool:
    """Membership of a rational point given in real units, against pi-unit boxes."""
    with mpmath.workdps(60):
        pi = mpmath.pi
        return any(
            all(a * pi <= _mpq(c) < b * pi for a, b, c in zip(lo, hi, q))
            for lo, hi in ((tuple(map(_mpq, lo)), tuple(map(_mpq, hi))) for lo, hi in boxes)
        )


def _mpq(x: F):
    return mpmath.mpf(x.numerator) / x.denominator


def _freq_pow(A, j: int):
    return ref.mat_pow(ref.transpose(A), j)


def _check_verify(r, code, rep):
    E = ref.parse_set(r["set"])
    A = r["A"]
    J = r["j_max"]
    r_in, r_out = (F(x) for x in r["annulus"])
    expect = r["expect"]
    conds = rep["conditions"]
    for name, want in expect.items():
        c = conds[name]
        mode = "exact" if name == "translation_congruent" else r["mode"]
        _require(c["mode"] == mode, f"verify:{name}:mode")
        _require(c["passed"] is want, f"verify:{name}:verdict")
        if want:
            continue
        w = c["witness"]
        if name == "translation_congruent":
            overlap, deficit = w["overlap"]["boxes"], w["deficit"]["boxes"]
            _require(bool(overlap or deficit), "verify:congruent:empty-witness")
            if overlap:
                p = ref.center(ref.parse_set(w["overlap"])[0])
                _require(ref.lattice_cover_count(p, E) >= 2, "verify:congruent:overlap-witness")
            if deficit:
                p = ref.center(ref.parse_set(w["deficit"])[0])
                _require(ref.lattice_cover_count(p, E) == 0, "verify:congruent:deficit-witness")
        elif r["mode"] == "exact":
            diag = tuple(A[i][i] for i in range(len(A)))
            if name == "dilation_disjoint":
                j, k = w["j"], w["k"]
                p = ref.center(ref.parse_set(w["intersection"])[0])
                _require(j != k and max(abs(j), abs(k)) <= J, "verify:disjoint:levels")
                for s in (j, k):
                    _require(ref.in_set(p, ref.dilate_diag(E, diag, s)), "verify:disjoint:witness")
            else:
                p = ref.center(ref.parse_set(w["uncovered"])[0])
                _require(r_in <= max(abs(c) for c in p) < r_out, "verify:cover:witness-outside")
                for s in range(-J, J + 1):
                    _require(not ref.in_set(p, ref.dilate_diag(E, diag, s)), "verify:cover:witness")
        else:
            p = tuple(F(c) for c in w["point"])
            with mpmath.workdps(30):
                norm = max(abs(_mpq(c)) for c in p) / mpmath.pi
                _require(_mpq(r_in) <= norm <= _mpq(r_out), "verify:sampled-witness-outside")
            if name == "dilation_disjoint":
                levels = w["levels"]
                _require(len(set(levels)) >= 2, "verify:disjoint:levels")
                for s in levels:
                    q = ref.mat_vec(_freq_pow(A, -s), p)
                    _require(_in_set_real(q, E), "verify:disjoint:witness")
            else:
                for s in range(-J, J + 1):
                    q = ref.mat_vec(_freq_pow(A, -s), p)
                    _require(not _in_set_real(q, E), "verify:cover:witness")
    passed = all(expect.values())
    _require(rep["all_passed"] is passed and code == (0 if passed else 1), "verify:exit-code")
    _require(F(rep["measure_pi_units"]) == ref.measure(E), "verify:measure")
    _require(rep["params"]["j_max"] == J, "verify:params")


# --- gram ------------------------------------------------------------------------


def _check_gram(r, code, rep):
    E = ref.parse_set(r["set"])
    A = r["A"]
    n, M, V, tol = len(A), r["m_max"], r["v_max"], r["tol"]
    labels = ref.gram_labels(n, M, V)
    _require(rep["labels"] == labels, "gram:labels")
    _require(rep["mode"] == r["mode"], "gram:mode")
    G = np.array(rep["matrix_real"], dtype=float) + 1j * np.array(rep["matrix_imag"], dtype=float)
    k = len(labels)
    _require(G.shape == (k, k), "gram:shape")
    # closed form fills the lower triangle by conjugation; quadrature sums each entry on its own
    asym = float(np.max(np.abs(G - G.conj().T)))
    _require(asym == 0 if r["mode"] == "closed-form" else asym <= 1e-12, "gram:hermitian")
    dev = float(np.max(np.abs(G - np.eye(k))))
    _require(abs(dev - rep["max_deviation"]) <= 1e-12 * max(1.0, dev), "gram:max-deviation")
    ms = np.array([lab[0] for lab in labels])
    vs = np.array([lab[1] for lab in labels])
    if r["mode"] == "closed-form":
        _require(np.all(np.diag(G) == 1.0), "gram:diagonal")
        _check_closed_form(r, E, A, G, ms, vs)
    if r["orthonormal"]:
        if code != 0 or dev > tol:
            if _quadrature_scale_defect(r, A, G, ms):
                raise Fail("known:quadrature-negative-scale")
            raise Fail("gram:verdict")
        return
    _require(code == 1 and dev > tol and "warning" in rep, "gram:verdict")
    w = rep["witness"]
    i, j = labels.index(w["row"]), labels.index(w["col"])
    entry = complex(*w["entry"])
    _require(abs(entry - G[i, j]) <= 1e-15 and abs(abs(G[i, j] - (i == j)) - dev) <= 1e-12, "gram:witness")
    if r["mode"] == "closed-form":
        diag = tuple(A[a][a] for a in range(n))
        want = ref.gram_entry(E, diag, labels[i][0], labels[i][1], labels[j][0], labels[j][1])
        _require(abs(entry - want) <= 1e-12, "gram:witness-value")


def _check_closed_form(r, E, A, G, ms, vs):
    """Same-scale entries against the analytic values, exact zeros across disjoint scales."""
    n, M, V = len(A), r["m_max"], r["v_max"]
    diag = tuple(A[a][a] for a in range(n))
    side = 4 * V + 1
    table = np.empty(side**n, dtype=complex)
    # first coordinate fastest, as in `flat` below
    for idx, d in enumerate(itertools.product(range(-2 * V, 2 * V + 1), repeat=n)):
        table[idx] = ref.same_scale_entry(E, d[::-1])
    d = vs[:, None, :] - vs[None, :, :] + 2 * V
    flat = sum(d[..., a] * side**a for a in range(n))
    same = ms[:, None] == ms[None, :]
    _require(np.all(np.abs(G - table[flat])[same] <= 1e-12), "gram:same-scale")
    meeting = ref.meeting_scales(E, diag, M)
    lo, hi = np.minimum.outer(ms, ms), np.maximum.outer(ms, ms)
    apart = ~same
    for j, k in meeting:
        apart &= ~((lo == j) & (hi == k))
    _require(np.all(G[apart] == 0), "gram:cross-scale-zero")
    if meeting:
        rng = random.Random(r["sample_seed"])
        rows, cols = np.nonzero(~same & ~apart)
        for t in rng.sample(range(len(rows)), min(16, len(rows))):
            i, j = int(rows[t]), int(cols[t])
            want = ref.gram_entry(E, diag, int(ms[i]), vs[i].tolist(), int(ms[j]), vs[j].tolist())
            _require(abs(G[i, j] - want) <= 1e-12, "gram:cross-scale")


def _quadrature_scale_defect(r, A, G, ms) -> bool:
    """The worst entry is a diagonal entry at negative scale reading about |det|^(2|m|)."""
    if r["mode"] != "quadrature" or r["m_max"] < 1:
        return False
    i = int(np.argmax(np.abs(np.diag(G) - 1)))
    det = abs(ref.det(A))
    return ms[i] < 0 and abs(G[i, i].real - det ** (2 * abs(int(ms[i])))) <= 0.25 * det


# --- operators ----------------------------------------------------------------------


def _powers(A, v, lo: int, hi: int) -> dict:
    """A^e v for e in [lo, hi]."""
    w = ref.mat_vec(ref.mat_pow(A, lo), v)
    out = {lo: w}
    Af = tuple(tuple(F(x) for x in row) for row in A)
    for e in range(lo + 1, hi + 1):
        w = ref.mat_vec(Af, w)
        out[e] = w
    return out


def _check_rep(r, code, rep):
    A, K, el = r["A"], r["K"], r["element"]
    v, j, m = el["v"], el["j"], el["m"]
    if not r["exact"] and code == 2:
        return
    _require(code == 0 and rep["fiber"]["shift"] == m and rep["induced"]["shift"] == -m, "rep:shape")
    pw = _powers(A, v, -K - j, K - j)
    x = [F(c) for c in r["x"]]
    char = ref.character_pi if r["exact"] else ref.character_real
    values = {e: char(x, w) for e, w in pw.items()}
    # float rounding bound of the program's phase angle sum(x_i w_i): inputs, products, sum
    slack = {e: DOT_ROUNDINGS * float(sum(abs(a * b) for a, b in zip(x, w))) * 2.0**-53 for e, w in pw.items()}
    in_tol, in_envelope = True, True
    for key, sign in (("fiber", 1), ("induced", -1)):
        got = rep[key]["phases"]
        _require(len(got) == 2 * K + 1, "rep:window")
        for idx, k in enumerate(range(-K, K + 1)):
            z, e = complex(*got[idx]), sign * k - j
            err = abs(z - values[e])
            in_tol &= err <= (1e-12 if r["exact"] else PHASE_TOL)
            in_envelope &= abs(abs(z) - 1) <= 1e-12 and err <= PHASE_TOL + slack[e]
    _require(rep["reflection_intertwiner_deviation"] < PHASE_TOL, "rep:intertwiner")
    if not in_tol:
        # the known defect: every phase a unit number within float rounding of the true one
        raise Fail("known:rep-decimal-precision" if not r["exact"] and in_envelope else "rep:phases")


def _check_decompose(r, code, rep):
    E = ref.parse_set(r["set"])
    n = len(r["A"])
    _require(code == 0, "decompose:exit-code")
    ks = r["ks"]
    _require(rep["window"] == [ks[0], ks[-1]], "decompose:window")
    _require(sorted(int(k) for k in rep["layers"]) == ks, "decompose:layers")
    pin = math.pi**n
    norms = []
    for term in r["function"]["terms"]:
        box = (tuple(F(c) for c in term["box"]["lo"]), tuple(F(c) for c in term["box"]["hi"]))
        norms.append((term["re"] ** 2 + term["im"] ** 2) * float(ref.measure([box])) * pin)
    total = sum(norms)
    _require(abs(rep["norm_sq"] - total) <= 1e-12 * total, "decompose:norm")
    _require(rep["truncation_mass"] <= 1e-10 * total, "decompose:truncation")
    _require(rep["path"] == r["path"], "decompose:path")
    if r["path"] == "exact":
        _require(rep["isometry_defect"] == 0.0, "decompose:isometry-defect")
    else:
        _require(rep["isometry_defect"] <= 1e-12, "decompose:isometry-defect")
    for layer in rep["layers"].values():
        mass = 0.0
        for t in layer["terms"]:
            box = (tuple(F(c) for c in t["box"]["lo"]), tuple(F(c) for c in t["box"]["hi"]))
            _require(
                any(all(a <= c for a, c in zip(b[0], box[0])) and all(c <= d for d, c in zip(b[1], box[1])) for b in E),
                "decompose:layer-outside-set",
            )
            mass += (t["re"] ** 2 + t["im"] ** 2) * float(ref.measure([box])) * pin
        # one cell per dilate: layer k carries the mass of the cell placed in B^k E
        _require(any(abs(mass - nm) <= 1e-12 * total for nm in norms), "decompose:layer-mass")


def _check_mean_coef(r, code, rep):
    A, beta = r["A"], r["beta"]
    _require(code == 0 and len(rep["table"]) == r["j_max"] + 1, "mean-coef:shape")
    got = rep["beta"]
    _require(ref.adic_values(A, got["v"], got["j"]) == ref.adic_values(A, beta["v"], beta["j"]), "mean-coef:beta")
    for row in rep["table"]:
        want = ref.mean_coefficient(A, beta["v"], beta["j"], row["J"])
        val = complex(*row["value"])
        if want == 0.0:
            _require(val == 0, "mean-coef:exact-zero")
        _require(abs(val - want) <= 1e-12 and abs(row["abs"] - abs(val)) <= 1e-15, "mean-coef:value")


def _check_density(r, code, rep):
    A = r["A"]
    n = len(A)
    if not r["consistent"]:
        _require(code == 1 and rep.get("kind") == "InconsistentTarget", "density:inconsistent")
        return
    _require(code == 0 and len(rep["targets"]) == len(r["targets"]), "density:exit-code")
    worst = 0.0
    for target, res in zip(r["targets"], rep["targets"]):
        y = [F(c[: -len("pi")].strip() or "1") for c in res["y"]]
        level = max(p["j"] for p in target["phases"])
        gens = [F(p["t"]) for p in target["phases"][:n]]
        for p in target["phases"]:
            want = F(p["t"])
            got = sum((a * b for a, b in zip(y, ref.adic_values(A, p["v"], p["j"]))), F(0))
            _require((got - want) % 2 == 0, "density:prescribed-phase")
        for t in target["test_set"]:
            got = sum((a * b for a, b in zip(y, ref.adic_values(A, t["v"], t["j"]))), F(0))
            _require((got - ref.forced_phase(A, level, gens, t["v"], t["j"])) % 2 == 0, "density:test-phase")
        _require(res["error"] <= rep["eps"], "density:error")
        worst = max(worst, res["error"])
        if r["with_set"]:
            mem = res["membership"]
            if mem.get("located") is False:
                _require(not any(y), "density:not-located")
            else:
                rep_pt = ref.mat_vec(_freq_pow(A, mem["level"]), y)
                _require(rep_pt == tuple(F(c) for c in mem["representative"]), "density:representative")
                _require(ref.in_set(rep_pt, [((F(-2),), (F(-1),)), ((F(1),), (F(2),))]), "density:membership")
    _require(rep["max_error"] == worst, "density:max-error")


_CHECKS = {
    "verify": _check_verify,
    "gram": _check_gram,
    "rep": _check_rep,
    "decompose": _check_decompose,
    "mean-coef": _check_mean_coef,
    "density": _check_density,
}
