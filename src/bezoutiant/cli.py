"""Batch front end: problem files in, JSON reports out.

Problem files are JSON with exact rational coefficient strings:

    {
      "a": "1",
      "psi1": ["1"],                       // ascending powers; entries are
      "psi2": ["0", "2"],                  // "p/q" or {"re": .., "im": ..}
      "coeff_class": "rational",
      "rect": {"re_min": -40, "re_max": 40, "im_min": -5, "im_max": 5},
      "grid_n": 64,
      "tol": 1e-10,
      "delta": 1e-3,
      "tasks": ["decide", "zeros"]
    }

Exact literals (`a` and the coefficient parts) are integers, "p/q" or plain
decimals; an exponent ("1e5") is an input error.

Exit codes: 0 success (CommonZeros included), 1 input error (also an exact
result too long to write as a decimal string: the report's `error` names
`verdict` or `kernel`), 2 inconclusive verdict, 3 conflict between the
symbolic verdict and the numerical zero comparison, 4 numeric refusal: the
zero locator declined to answer (an evaluation would overflow, a winding
number did not certify, a cluster stayed unresolved or the boundary could
not be moved off a zero), or an exact value that the zero locator or the
operator check reads (a, the transforms' Laurent coefficients and
moments, the Phi/M_2 coefficients, the kernel's float tables) has no float
image (`FloatRangeError`, from `exact.to_floats`).  A kernel or operator
check of a zero-mass density is skipped (`skipped`), as they need
unit-mass densities.  A refusal still
writes the report, with its verdict and an `error` block naming the stage,
the transform (zeros only), the exception type and its message
(`emit-grid`: one stderr line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .exact import DigitLimitError, FloatRangeError, Poly, parse_rational
from .kernel import ZeroMassError, build_kernel, build_m_functions, normalize_pair
from .operator_lab import convergence_study
from .symbol import (
    COEFF_RATIONAL,
    OUTCOME_COINCIDE,
    OUTCOME_COMMON,
    OUTCOME_INCONCLUSIVE,
    OUTCOME_NO_COMMON,
    decide,
)
from .transform import EvaluationOverflow, closed_form, reflected_transform
from .zeros import (
    BoundaryZeroError,
    ClusterUnresolvedError,
    NonIntegerWindingError,
    SearchRect,
    compare_zero_sets,
    locate_zeros,
)

ALL_TASKS = ("decide", "zeros", "kernel", "operator-check")

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_CONFLICT = 3
EXIT_NUMERIC_REFUSAL = 4

#: Errors by which the zero locator or the operator check refuses to answer (exit 4).
NUMERIC_REFUSALS = (EvaluationOverflow, NonIntegerWindingError,
                    ClusterUnresolvedError, BoundaryZeroError, FloatRangeError)


class SpecError(ValueError):
    """Problem-file validation error, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class ProblemSpec:
    a: Fraction
    psi1: Poly
    psi2: Poly
    rect: SearchRect = field(default_factory=lambda: SearchRect(-30, 30, -5, 5))
    grid_n: int = 64
    tol: float = 1e-10
    delta: float = 1e-3
    tasks: tuple = ("decide", "zeros")

    @classmethod
    def from_json(cls, obj: dict) -> "ProblemSpec":
        if not isinstance(obj, dict):
            raise SpecError("$", "problem spec must be a JSON object")

        def fail(path, msg):
            raise SpecError(path, msg)

        if "a" not in obj:
            fail("a", "missing")
        try:
            a = parse_rational(str(obj["a"]))
        except ValueError as exc:
            fail("a", str(exc))
        if a <= 0:
            fail("a", "must be positive")

        polys = []
        for key in ("psi1", "psi2"):
            items = obj.get(key)
            if not isinstance(items, list) or not items:
                fail(key, "must be a nonempty coefficient list")
            try:
                polys.append(Poly.from_json(items))
            except ValueError as exc:
                fail(key, str(exc))
            if polys[-1].is_zero:
                fail(key, "identically zero density: every z would be a common zero")

        coeff_class = obj.get("coeff_class", COEFF_RATIONAL)
        if coeff_class != COEFF_RATIONAL:
            fail("coeff_class", f"unknown value {coeff_class!r} (only {COEFF_RATIONAL!r})")

        rect_obj = obj.get("rect", {})
        if not isinstance(rect_obj, dict):
            fail("rect", "must be an object")
        rect = _search_rect(rect_obj.get("re_min", -30.0), rect_obj.get("re_max", 30.0),
                            rect_obj.get("im_min", -5.0), rect_obj.get("im_max", 5.0),
                            rect_obj.get("boundary_margin", 0.05))

        grid_n = _grid_size(obj.get("grid_n", 64))
        tol = _positive_float("tol", obj.get("tol", 1e-10))
        delta = _positive_float("delta", obj.get("delta", 1e-3))

        tasks = obj.get("tasks", ["decide", "zeros"])
        if not isinstance(tasks, list) or not all(isinstance(t, str) for t in tasks):
            fail("tasks", f"must be a list of task names, got {tasks!r}")
        tasks = tuple(tasks)
        for t in tasks:
            if t not in ALL_TASKS:
                fail("tasks", f"unknown task {t!r} (known: {ALL_TASKS})")

        return cls(a, polys[0], polys[1], rect, grid_n, tol, delta, tasks)


def _grid_size(value) -> int:
    """value as a grid size (an integer in [16, 4096]), else a SpecError at
    grid_n.  Memory does not bind: the operator check holds O(n) generators
    and (n, 32) blocks, never an n x n array.  The cap stays because the
    residual's accuracy is measured against a reference only up to n = 256."""
    if not isinstance(value, int) or not 16 <= value <= 4096:
        raise SpecError("grid_n", "must be an integer in [16, 4096]")
    return value


def _search_rect(*bounds) -> SearchRect:
    """SearchRect(*bounds) as floats (finite, margin >= 0, no boolean), else a
    SpecError at rect."""
    if any(isinstance(b, bool) for b in bounds):
        raise SpecError("rect", f"bounds must be numbers, not booleans: {bounds!r}")
    try:
        return SearchRect(*map(float, bounds))
    except (TypeError, ValueError) as exc:
        raise SpecError("rect", str(exc)) from None


def _positive_float(path: str, value) -> float:
    """value as a finite float > 0 (not a boolean), else a SpecError at `path`."""
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise SpecError(path, str(exc)) from None
    if isinstance(value, bool) or not (math.isfinite(x) and x > 0):
        raise SpecError(path, f"must be a finite number > 0, got {value!r}")
    return x


def _load_spec(spec_path) -> tuple[ProblemSpec, str]:
    """(spec, sha256 hex digest of the file's bytes), from one read of the file."""
    with open(spec_path, "rb") as fh:
        data = fh.read()
    try:
        obj = json.loads(data)
    except ValueError as exc:  # malformed JSON or text that is not UTF-8/16/32
        raise SpecError("$", f"invalid JSON: {exc}") from None
    return ProblemSpec.from_json(obj), hashlib.sha256(data).hexdigest()


def _refinement_sizes(grid_n: int) -> list:
    """Halving ladder ending at grid_n, ascending: grid_n, grid_n // 2, ...
    while >= 32, at most four sizes; [grid_n // 2, grid_n] if fewer qualify."""
    sizes = [grid_n >> i for i in range(4) if grid_n >> i >= 32]
    return sizes[::-1] if len(sizes) > 1 else [grid_n // 2, grid_n]


def run(spec_path, out_path, tasks=None, rect=None, tol=None, grid_n=None):
    """Execute the requested pipeline; returns (report_dict, exit_code).

    `rect` overrides the spec's rectangle with (re_min, re_max, im_min,
    im_max) and the default margin.
    """
    started = time.monotonic()
    try:
        spec, spec_sha256 = _load_spec(spec_path)
        if tol is not None:
            spec.tol = _positive_float("tol", tol)
        if grid_n is not None:
            spec.grid_n = _grid_size(grid_n)
        if rect is not None:
            spec.rect = _search_rect(*rect)
    except (SpecError, OSError) as exc:
        report = {"error": str(exc)}
        _write_report(report, out_path)
        return report, EXIT_INPUT_ERROR

    if tasks is not None:
        spec.tasks = tuple(tasks)

    report: dict = {"tasks": list(spec.tasks)}
    exit_code = EXIT_OK

    try:
        verdict = decide(spec.psi1, spec.psi2, spec.a)
    except DigitLimitError as exc:  # the masses and the gcd are written exactly
        report["error"] = f"verdict: {exc}"
        return _finish(report, EXIT_INPUT_ERROR, spec_sha256, out_path, started)
    report["verdict"] = verdict.to_json()
    if verdict.outcome == OUTCOME_INCONCLUSIVE:
        exit_code = EXIT_INCONCLUSIVE

    needs_pair = {"kernel", "operator-check"} & set(spec.tasks)
    if needs_pair and verdict.outcome != OUTCOME_INCONCLUSIVE:
        try:
            pair = normalize_pair(spec.psi1, spec.psi2, spec.a)
        except ZeroMassError as exc:  # the kernel needs unit-mass densities
            report["skipped"] = {"tasks": sorted(needs_pair), "reason": str(exc)}
        else:
            mf = build_m_functions(pair)
            kern = build_kernel(pair)
            if "kernel" in spec.tasks:
                try:
                    report["kernel"] = kern.to_json()
                except DigitLimitError as exc:
                    report["error"] = f"kernel: {exc}"
                    return _finish(report, EXIT_INPUT_ERROR, spec_sha256, out_path, started)
            if "operator-check" in spec.tasks:
                try:
                    report["operator"] = convergence_study(
                        pair, kern, mf, sizes=_refinement_sizes(spec.grid_n))
                except NUMERIC_REFUSALS as exc:
                    report["error"] = {"stage": "operator-check",
                                       "type": type(exc).__name__, "message": str(exc)}
                    return _finish(report, EXIT_NUMERIC_REFUSAL, spec_sha256, out_path, started)

    if "zeros" in spec.tasks and verdict.outcome != OUTCOME_INCONCLUSIVE:
        located = []
        for name, F in zip(("F1", "F21"), verdict.transforms):
            try:
                located.append(locate_zeros(F, spec.rect, spec.tol))
            except NUMERIC_REFUSALS as exc:
                report["error"] = {"stage": "zeros", "transform": name,
                                   "type": type(exc).__name__, "message": str(exc)}
                return _finish(report, EXIT_NUMERIC_REFUSAL, spec_sha256, out_path, started)
        z1, z21 = located
        comparison = compare_zero_sets(z1, z21, spec.delta)
        report["zero_sets"] = {"F1": z1.to_json(), "F21": z21.to_json()}
        report["comparison"] = comparison.to_json()

        conflict = verdict.outcome == OUTCOME_NO_COMMON and comparison.has_common
        if verdict.outcome == OUTCOME_COMMON:
            # the common pairs located are the verdict's zeros in the rectangle
            r, near = spec.rect, lambda u, vs: any(abs(u - v) <= spec.delta for v in vs)
            want = [complex(z["re"], z["im"]) for z in verdict.diagnostics["common_zeros"]
                    if r.re_min <= z["re"] <= r.re_max and r.im_min <= z["im"] <= r.im_max]
            got = [z for z, _, _ in comparison.common]
            conflict = not (all(near(u, want) for u in got) and all(near(v, got) for v in want))
        if verdict.outcome == OUTCOME_COINCIDE:
            conflict = len(z1.zeros) != len(z21.zeros) or any(
                abs(u.z - v.z) > spec.delta for u, v in zip(z1.zeros, z21.zeros))
        report["conflict"] = conflict
        if conflict:
            exit_code = EXIT_CONFLICT

    return _finish(report, exit_code, spec_sha256, out_path, started)


def _finish(report, exit_code, spec_sha256, out_path, started):
    """Add the provenance block, write the report; returns (report, exit_code)."""
    report["provenance"] = {
        "tool": f"bezoutiant {__version__}",
        "spec_sha256": spec_sha256,
        "timing_s": round(time.monotonic() - started, 6),
    }
    _write_report(report, out_path)
    return report, exit_code


def _write_report(report: dict, out_path) -> None:
    if out_path is None:
        return
    with open(out_path, "w") as fh:  # one write: json.dump writes chunk by chunk
        fh.write(_json_text(report) + "\n")


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for str keys.

    With an indent, Python's json module encodes in pure Python; this
    writes the same text directly, strings through the C string encoder.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                 for k, v in sorted(value.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def emit_grid(spec_path, csv_path):
    """|F1| and |F21| over a grid_n x grid_n grid of the search rectangle; every
    row is evaluated before the CSV is opened, so a refusal leaves no file."""
    spec, _ = _load_spec(spec_path)
    f1 = closed_form(spec.psi1, spec.a)
    f21 = reflected_transform(spec.psi2, spec.a)
    res = np.linspace(spec.rect.re_min, spec.rect.re_max, spec.grid_n)
    ims = np.linspace(spec.rect.im_min, spec.rect.im_max, spec.grid_n)
    rows = [(im, *(np.abs(F.eval_many(res + 1j * im)) for F in (f1, f21))) for im in ims]
    with open(csv_path, "w") as fh:
        fh.write("re,im,absF1,absF21\n")
        for im, a1, a2 in rows:
            for r, v1, v2 in zip(res, a1, a2):
                fh.write(f"{float(r)!r},{float(im)!r},{float(v1)!r},{float(v2)!r}\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bezoutiant",
        description="Common-zero analysis of exponential transforms of "
                    "polynomial densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser("decide", help="symbolic verdict only")
    p_decide.add_argument("--input", required=True)
    p_decide.add_argument("--output", required=True)

    p_verify = sub.add_parser("verify", help="verdict plus numerical checks")
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument("--output", required=True)
    p_verify.add_argument("--rect", nargs=4, type=float, metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"))
    p_verify.add_argument("--tol", type=float)
    p_verify.add_argument("--grid", type=int)

    p_grid = sub.add_parser("emit-grid", help="CSV of |F1|, |F21| over the rect")
    p_grid.add_argument("--input", required=True)
    p_grid.add_argument("--csv", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "decide":
            _, code = run(args.input, args.output, tasks=("decide",))
            return code
        if args.command == "verify":
            _, code = run(args.input, args.output,
                          tasks=("decide", "zeros", "operator-check"),
                          rect=args.rect, tol=args.tol, grid_n=args.grid)
            return code
        if args.command == "emit-grid":
            return emit_grid(args.input, args.csv)
    except (SpecError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NUMERIC_REFUSALS as exc:
        print(f"numeric refusal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_REFUSAL
    return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
