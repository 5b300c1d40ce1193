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

A report is one line, `json.dumps(report, sort_keys=True)` and a newline:
ASCII, keys sorted, written by the standard library's C encoder
(`python -m json.tool report.json` indents it).

Exit codes: 0 success (CommonZeros included), 1 input error (a field the
spec does not know, such as "grid" for grid_n, included; also an exact
result too long to write as a decimal string: the report's `error` names
`verdict` or `kernel`), 2 inconclusive verdict, 3 conflict between the
symbolic verdict and the numerical zero comparison: a located common pair
(zeros of F1 and F21 within `delta`) has a member farther than `delta`
from every zero the verdict makes common for its transform, or a zero the
verdict requires has no pair member within `delta`.  NoCommonZeros makes
and requires none; CommonZeros makes its `common_zeros` common and
requires those in the rectangle; ZeroSetsCoincide makes and requires every
located zero of each transform.  4 numeric refusal: the zero locator
declined to answer (an evaluation would overflow, a winding number did not
certify, a cluster stayed unresolved or the boundary could not be moved
off a zero), or an exact value that the verdict, the zero locator or the
operator check reads as a float (the common zeros, a, the transforms'
Laurent coefficients and moments, the Phi/M_2 coefficients, the kernel's
float tables) has none (`FloatRangeError`), or the operator check finds a
residual of exactly 0.0 for a pair that does not coincide
(`FloatRangeError` too: the pair differs by less than float resolution on
[0, a]).  A kernel or operator check of a zero-mass density is skipped
(`skipped`), as they need unit-mass densities; after an inconclusive
verdict the zeros, kernel and operator-check tasks are skipped, and
`skipped` gives the verdict's reason.  A refusal still writes the report,
with its verdict (if one was reached) and an `error` block naming the
stage, the transform (zeros only), the exception type and its message
(`emit-grid`: one stderr line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .exact import DigitLimitError, FloatRangeError, Poly, rational_from_json
from .kernel import ZeroMassError, build_kernel, build_m_functions, normalize_pair
from .operator_lab import convergence_study
from .symbol import (
    OUTCOME_COINCIDE,
    OUTCOME_INCONCLUSIVE,
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

#: The one coefficient class a spec may name: exact Gaussian rationals.
COEFF_RATIONAL = "rational"

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
    rect: SearchRect = SearchRect(-30.0, 30.0, -5.0, 5.0)  # frozen, so one shared default
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

        for key in obj:  # a misspelt field would otherwise run at its default
            if key != "coeff_class" and key not in cls.__dataclass_fields__:
                fail(key, "unknown field")
        if "a" not in obj:
            fail("a", "missing")
        try:
            a = rational_from_json(obj["a"])
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
        for key in rect_obj:
            if key not in vars(cls.rect):
                fail("rect", f"unknown field {key!r}")
        # a field the file leaves out takes the class default (the margin: SearchRect's)
        rect = _search_rect(*(rect_obj.get(k, v) for k, v in vars(cls.rect).items()))

        grid_n = _grid_size(obj.get("grid_n", cls.grid_n))
        tol = _positive_float("tol", obj.get("tol", cls.tol))
        delta = _positive_float("delta", obj.get("delta", cls.delta))

        tasks = obj.get("tasks", list(cls.tasks))
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
    """SearchRect(*bounds) as floats (finite, margin >= 0, no boolean or
    string), else a SpecError at rect."""
    if any(isinstance(b, (bool, str)) for b in bounds):
        raise SpecError("rect", f"bounds must be numbers, not booleans or strings: {bounds!r}")
    try:
        return SearchRect(*map(float, bounds))
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past float range
        raise SpecError("rect", str(exc)) from None


def _positive_float(path: str, value) -> float:
    """value as a finite float > 0 (a number: not a boolean or a string),
    else a SpecError at `path`."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and (
            0 < value <= sys.float_info.max):
        return float(value)
    raise SpecError(path, f"must be a finite number > 0, got {value!r}")


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
    at = {"stage": "verdict"}
    try:
        exit_code = _run_stages(spec, report, at)
    except DigitLimitError as exc:  # an exact result too long for a decimal string
        report["error"], exit_code = f"{at['stage']}: {exc}", EXIT_INPUT_ERROR
    except NUMERIC_REFUSALS as exc:
        report["error"] = {**at, "type": type(exc).__name__, "message": str(exc)}
        exit_code = EXIT_NUMERIC_REFUSAL
    report["provenance"] = {"tool": f"bezoutiant {__version__}", "spec_sha256": spec_sha256,
                            "timing_s": round(time.monotonic() - started, 6)}
    _write_report(report, out_path)
    return report, exit_code


def _run_stages(spec: ProblemSpec, report: dict, at: dict) -> int:
    """Run the spec's tasks into `report`; returns the exit code.  `at` names the
    stage that runs (`zeros` with its `transform`), for `run` to report a refusal."""
    verdict = decide(spec.psi1, spec.psi2, spec.a)
    report["verdict"] = verdict.to_json()
    if verdict.outcome == OUTCOME_INCONCLUSIVE:
        skipped = sorted(set(spec.tasks) - {"decide"})
        if skipped:
            report["skipped"] = {"tasks": skipped, "reason": "verdict "
                                 f"{OUTCOME_INCONCLUSIVE}: {verdict.diagnostics['reason']}"}
        return EXIT_INCONCLUSIVE

    needs_pair = {"kernel", "operator-check"} & set(spec.tasks)
    if needs_pair:
        at["stage"] = "kernel"
        try:
            pair = normalize_pair(spec.psi1, spec.psi2, spec.a)
        except ZeroMassError as exc:  # the kernel needs unit-mass densities
            report["skipped"] = {"tasks": sorted(needs_pair), "reason": str(exc)}
        else:
            kern = build_kernel(pair)
            if "kernel" in spec.tasks:
                report["kernel"] = kern.to_json()
            if "operator-check" in spec.tasks:
                at["stage"] = "operator-check"
                operator = convergence_study(pair, kern, build_m_functions(pair),
                                             sizes=_refinement_sizes(spec.grid_n))
                if verdict.outcome != OUTCOME_COINCIDE and 0.0 in operator["residuals"]:
                    # only a coincidence pair satisfies the identity exactly
                    raise FloatRangeError("identity residual of a pair that does not "
                                          "coincide is 0.0: below float resolution")
                report["operator"] = operator

    if "zeros" not in spec.tasks:
        return EXIT_OK
    located = []
    for name, F in zip(("F1", "F21"), verdict.transforms):
        at.update(stage="zeros", transform=name)
        located.append(locate_zeros(F, spec.rect, spec.tol))
    z1, z21 = located
    comparison = compare_zero_sets(z1, z21, spec.delta)
    report["zero_sets"] = {"F1": z1.to_json(), "F21": z21.to_json()}
    report["comparison"] = comparison.to_json()

    # the zeros the verdict makes common and those it requires, per transform
    if verdict.outcome == OUTCOME_COINCIDE:
        made = required = (z1.points(), z21.points())
    else:  # CommonZeros lists them; NoCommonZeros has none
        r = spec.rect
        common = [complex(z["re"], z["im"]) for z in verdict.diagnostics.get("common_zeros", ())]
        inside = [z for z in common
                  if r.re_min <= z.real <= r.re_max and r.im_min <= z.imag <= r.im_max]
        made, required = (common, common), (inside, inside)
    near = lambda u, vs: any(abs(u - v) <= spec.delta for v in vs)
    members = [[c[i] for c in comparison.common] for i in (0, 1)]  # the pairs' F1, F21 zeros
    report["conflict"] = conflict = not all(
        all(near(u, ms) for u in ps) and all(near(v, ps) for v in rs)
        for ms, rs, ps in zip(made, required, members))
    return EXIT_CONFLICT if conflict else EXIT_OK


def _write_report(report: dict, out_path) -> None:
    if out_path is None:
        return
    with open(out_path, "w") as fh:  # json.dump would encode in pure Python, chunk by chunk
        fh.write(json.dumps(report, sort_keys=True) + "\n")


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
            return run(args.input, args.output, tasks=("decide",))[1]
        if args.command == "verify":
            return run(args.input, args.output, tasks=("decide", "zeros", "operator-check"),
                       rect=args.rect, tol=args.tol, grid_n=args.grid)[1]
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
