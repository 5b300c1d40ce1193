"""Outcome classes and output checks for one problem's report.

A problem is *failed* when `cli.run` raised, ran over its budget, or exited
with 1 or 2; *wrong* when it exited 3, when its verdict contradicts the
generator's label, or when an output check fails; *solved* otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

SOLVED, FAILED, WRONG = "solved", "failed", "wrong"

NO_COMMON, COINCIDE = "NoCommonZeros", "ZeroSetsCoincide"

#: Refinement ratios of an order-2 method: 2^2 = 4 per halving, within
#: the band the package's own CLI tests accept.
ORDER2_BAND = (3.2, 4.8)


def classify(entry: dict, spec: dict, report, code, error):
    """Return (class, reason) for one run of `cli.run`."""
    if error is not None:
        return FAILED, error
    if code == 3:
        return WRONG, "exit 3: symbolic/numeric conflict"
    if code != 0:
        return FAILED, f"exit {code}"
    reasons = verdict_problems(entry, report)
    if "zeros" in spec["tasks"]:
        reasons += zeros_problems(entry, spec, report)
    if "kernel" in spec["tasks"]:
        reasons += kernel_problems(entry, spec, report)
    if "operator-check" in spec["tasks"]:
        reasons += operator_problems(report)
    return (WRONG, "; ".join(reasons)) if reasons else (SOLVED, "")


def verdict_problems(entry, report):
    outcome = report["verdict"]["outcome"]
    label = entry["label"]
    if label == "generic" and outcome != NO_COMMON:
        return [f"generic pair decided {outcome}"]
    if label == "scaled-coincident" and outcome != COINCIDE:
        return [f"scaled-coincident pair decided {outcome}"]
    if label == "shared-zero" and outcome in (NO_COMMON, COINCIDE):
        return [f"shared-zero pair decided {outcome}"]
    return []


def _points(zero_set):
    return [complex(z["re"], z["im"]) for z in zero_set["zeros"]]


def zeros_problems(entry, spec, report):
    out = []
    sets = report["zero_sets"]
    for name in ("F1", "F21"):
        zs = sets[name]
        if sum(z["multiplicity"] for z in zs["zeros"]) != zs["total_count"]:
            out.append(f"{name} multiplicities do not sum to total_count")
    delta = float(spec["delta"])
    if entry["label"] == "shared-zero":
        z0 = complex(0.0, 1.0 / float(Fraction(entry["s0"])))
        for name in ("F1", "F21"):
            if not any(abs(z - z0) <= delta for z in _points(sets[name])):
                out.append(f"shared zero {z0} missing from {name}")
    elif entry["label"] == "generic":
        d = min((abs(u - v) for u in _points(sets["F1"]) for v in _points(sets["F21"])),
                default=math.inf)
        if d <= delta:
            out.append(f"located zero sets meet within {d:.3g}")
    return out


def operator_problems(report):
    op = report["operator"]
    lo, hi = ORDER2_BAND
    bad = [r for r in op["ratios"] if not lo <= r <= hi]
    return [f"refinement ratios {bad} outside the order-2 band"] if bad else []


def _gr(obj):
    if isinstance(obj, dict):
        return Fraction(obj.get("re", "0")), Fraction(obj.get("im", "0"))
    return Fraction(obj), Fraction(0)


def reported_u(kernel_json, x: Fraction, t: Fraction):
    """U(x, t) from the report's exact pieces, as (re, im) Fractions."""
    piece = kernel_json["u_lower"] if x < t else kernel_json["u_upper"]
    re = im = Fraction(0)
    for term in piece:
        i, j = term["exp"]
        cr, ci = _gr(term["coeff"])
        w = x ** i * t ** j
        re += cr * w
        im += ci * w
    return re, im


def sympy_u(spec, x: Fraction, t: Fraction):
    """U(x, t) by sympy integration of the kernel's defining integral.

    With unit-mass densities P_k = psi_k / int_0^a psi_k,
    U(x, t) = int [P2(a-s) conj(P1)(a-s-x+t) - P2(s+x-t) conj(P1)(s)] ds
    over s in [t, a] when x < t and over [t, a+t-x] when x > t.
    """
    import sympy as sp

    s = sp.Symbol("s")
    a = sp.Rational(str(spec["a"]))
    X, T = sp.Rational(str(x)), sp.Rational(str(t))

    def poly(coeffs):  # ascending coefficients
        return sp.Poly(list(reversed(coeffs)), s, domain="QQ_I")

    def density(key, conj):
        out = []
        for c in spec[key]:
            re, im = _gr(c)
            out.append(sp.Rational(str(re)) + (-1 if conj else 1) * sp.I * sp.Rational(str(im)))
        return poly(out)

    def integral(p, lo, hi):
        q = p.integrate()
        return q.eval(hi) - q.eval(lo)

    p1c, p2 = density("psi1", conj=True), density("psi2", conj=False)
    integrand = (p2.compose(poly([a, -1])) * p1c.compose(poly([a - X + T, -1]))
                 - p2.compose(poly([X - T, 1])) * p1c)
    hi = a if X < T else a + T - X
    val = sp.expand(integral(integrand, T, hi) / (integral(p1c, 0, a) * integral(p2, 0, a)))
    re, im = val.as_real_imag()
    return Fraction(str(re)), Fraction(str(im))


def kernel_problems(entry, spec, report):
    x, t = (Fraction(v) for v in entry["u_point"])
    got = reported_u(report["kernel"], x, t)
    want = sympy_u(spec, x, t)
    if got != want:
        return [f"U({x}, {t}) = {got} but sympy integration gives {want}"]
    return []
