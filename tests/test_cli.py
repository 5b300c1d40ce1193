import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ, QQ_I

from bezoutiant.cli import (
    ALL_TASKS,
    EXIT_CONFLICT,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_NUMERIC_REFUSAL,
    EXIT_OK,
    NUMERIC_REFUSALS,
    ProblemSpec,
    SpecError,
    main,
    run,
)
import bezoutiant
from bezoutiant import cli, kernel, symbol
from bezoutiant.exact import Poly
from bezoutiant.kernel import build_kernel, normalize_pair
from bezoutiant.symbol import OUTCOME_COINCIDE, OUTCOME_NO_COMMON, decide
from bezoutiant.transform import ClosedTransform

FIXTURES = Path(__file__).parent / "fixtures"


def _run_fixture(name, tmp_path, subcommand="decide", extra=()):
    out = tmp_path / f"{name}.report.json"
    code = main([subcommand, "--input", str(FIXTURES / name), "--output", str(out), *extra])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_decide_subcommand_ok(tmp_path):
    code, report = _run_fixture("const_vs_linear.json", tmp_path)
    assert code == EXIT_OK
    assert report["verdict"]["outcome"] == "NoCommonZeros"
    assert report["tasks"] == ["decide"]
    assert "zero_sets" not in report
    assert report["provenance"]["tool"].startswith("bezoutiant ")


def test_verify_subcommand_no_common(tmp_path):
    code, report = _run_fixture("const_vs_linear.json", tmp_path, "verify")
    assert code == EXIT_OK
    assert report["conflict"] is False
    assert report["comparison"]["common"] == []
    assert report["comparison"]["min_distance"] > 1e-3
    assert report["zero_sets"]["F1"]["total_count"] > 0
    for ratio in report["operator"]["ratios"]:
        assert 3.2 <= ratio <= 4.8


def test_verify_coincidence(tmp_path):
    code, report = _run_fixture("coincidence.json", tmp_path, "verify")
    assert code == EXIT_OK
    assert report["verdict"]["outcome"] == "ZeroSetsCoincide"
    assert report["conflict"] is False
    z1 = report["zero_sets"]["F1"]["zeros"]
    z2 = report["zero_sets"]["F21"]["zeros"]
    assert len(z1) == len(z2) == 8  # 2 pi k, |k| <= 4


def test_scaled_gaussian_pair_coincides(tmp_path):
    # psi2 = c conj(psi1(a - x)), so F21 = c F1 and the zero sets coincide
    a, c = F(7, 3), (-6, 5, 4)  # -3/2 + (5/4) i
    psi1 = Poly.of((1, 2), 3, (F(-1, 2), F(1, 3)), (0, -2))
    spec = tmp_path / "scaled.json"
    spec.write_text(json.dumps({
        "a": "7/3", "psi1": psi1.to_json(), "psi2": (psi1.reflect(a) * c).to_json(),
        "rect": {"re_min": -20, "re_max": 20, "im_min": -5, "im_max": 5},
        "tasks": ["decide", "zeros"]}))
    report, code = run(spec, tmp_path / "o.json")
    assert code == EXIT_OK
    assert report["verdict"]["outcome"] == "ZeroSetsCoincide"
    assert report["conflict"] is False
    assert report["zero_sets"]["F1"]["total_count"] > 0


def test_full_task_list_via_run(tmp_path):
    out = tmp_path / "full.json"
    report, code = run(FIXTURES / "const_vs_linear.json", out)
    assert code == EXIT_OK
    assert set(report) >= {"verdict", "zero_sets", "comparison", "kernel",
                           "operator", "conflict", "provenance"}
    assert report["kernel"]["c"] == "-1"


def test_kernel_of_swapped_pair_keeps_spec_order(tmp_path):
    # decide orders the pair by degree; the kernel is built on the spec's order
    psi1 = Poly.of((1, 2), F(-1, 3))
    psi2 = Poly.of(3, (0, -1), (F(1, 2), 1), 2)
    spec = tmp_path / "swapped.json"
    spec.write_text(json.dumps({"a": "7/3", "psi1": psi1.to_json(),
                                "psi2": psi2.to_json()}))
    report, code = run(spec, None, tasks=("decide", "kernel"))
    assert code == EXIT_OK and report["verdict"]["diagnostics"]["swapped"]
    want = build_kernel(normalize_pair(psi1, psi2, F(7, 3))).to_json()
    assert want != build_kernel(normalize_pair(psi2, psi1, F(7, 3))).to_json()
    assert json.loads(json.dumps(report["kernel"])) == json.loads(json.dumps(want))


def test_cubic_pair(tmp_path):
    code, report = _run_fixture("cubic_vs_quadratic.json", tmp_path, "verify")
    assert code == EXIT_OK
    assert report["verdict"]["outcome"] == "NoCommonZeros"
    assert report["comparison"]["common"] == []


@pytest.mark.parametrize("grid_n, sizes", [
    (16, [8, 16]), (20, [10, 20]), (48, [24, 48]), (100, [50, 100]),
    (256, [32, 64, 128, 256])])
def test_operator_check_grid_ladder(grid_n, sizes):
    # every step halves the grid, so each ratio is a refinement ratio (4 at order 2)
    report, code = run(FIXTURES / "cubic_vs_quadratic.json", None,
                       tasks=("decide", "operator-check"), grid_n=grid_n)
    assert code == EXIT_OK
    assert report["operator"]["sizes"] == sizes
    for ratio in report["operator"]["ratios"]:
        assert 3.2 <= ratio <= 4.8


def test_zero_mass_exit_code(tmp_path):
    # psi1 = x - 1/2 has mass 0: the verdict needs no normalization, the
    # kernel and the operator check do, and are skipped
    code, report = _run_fixture("zero_mass.json", tmp_path, "verify")
    assert code == EXIT_OK
    assert report["verdict"]["outcome"] == "NoCommonZeros"
    assert report["skipped"] == {"tasks": ["operator-check"],
                                 "reason": "a density has zero mass on [0, a]"}
    assert "operator" not in report
    assert report["conflict"] is False
    assert report["comparison"]["min_distance"] > 2.7


def test_shared_zero_fixture(tmp_path):
    # F_1 and F_{2,1} share z = i: G = w + i, and the locator finds that
    # common pair and no other in the rectangle
    code, report = _run_fixture("shared_zero.json", tmp_path, "verify")
    assert code == EXIT_OK
    verdict = report["verdict"]
    assert verdict["outcome"] == "CommonZeros"
    assert verdict["diagnostics"]["gcd"] == [{"re": "0", "im": "1"}, "1"]
    assert verdict["diagnostics"]["certificate"] is None
    (pair,) = report["comparison"]["common"]
    assert abs(complex(pair["z1_re"], pair["z1_im"]) - 1j) < 1e-9
    assert report["conflict"] is False


def test_rational_factor_fixture_inconclusive(tmp_path):
    # F_{2,1} = (1 - iz) F_1: D = 0 without coincidence
    code, report = _run_fixture("rational_factor.json", tmp_path)
    assert code == EXIT_INCONCLUSIVE
    assert report["verdict"]["outcome"] == "Inconclusive"
    assert report["verdict"]["diagnostics"]["l_order"] is None


def test_inconclusive_verdict_names_the_tasks_it_skips(tmp_path):
    # after an Inconclusive verdict the zeros, kernel and operator-check
    # tasks do not run, and the report says so under `skipped`
    report, code = run(FIXTURES / "rational_factor.json", tmp_path / "o.json", tasks=ALL_TASKS)
    assert code == EXIT_INCONCLUSIVE
    assert report["skipped"] == {
        "tasks": ["kernel", "operator-check", "zeros"],
        "reason": "verdict Inconclusive: D \u2261 0 without coincidence (ROADMAP 1b)"}
    assert not {"kernel", "operator", "zero_sets", "comparison", "conflict"} & report.keys()
    assert json.loads((tmp_path / "o.json").read_text())["skipped"] == report["skipped"]
    report, code = run(FIXTURES / "rational_factor.json", None, tasks=("decide",))
    assert code == EXIT_INCONCLUSIVE and "skipped" not in report


def _qq_i(re, im, den):
    """The exact scalar (re + i im) / den in sympy's QQ_I."""
    return QQ_I(QQ(re, den), QQ(im, den))


def _horner(coeffs, x):
    acc = QQ_I(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
_polys = st.lists(st.one_of(_rationals, st.tuples(_rationals, _rationals)),
                  min_size=1, max_size=7).map(lambda cs: Poly.of(*cs))


def test_exact_values_are_integer_triples():
    # one exact scalar from the spec to the JSON: no module has a second
    # scalar type, and every exact value handed out is an integer triple
    # (re, im, den) in lowest terms, equal to sympy's QQ_I arithmetic
    for info in pkgutil.iter_modules(bezoutiant.__path__):
        module = importlib.import_module(f"bezoutiant.{info.name}")
        assert not hasattr(module, "GaussianRational") and not hasattr(module, "GR"), info.name
    assert not hasattr(Poly.of(1), "coeffs")
    assert symbol.monomial_order(1, 1, 0, 0, F(7, 3)) == (0, F(14, 3))  # the tie: 2a

    def same(value, want):
        re, im, den = value
        return den > 0 and math.gcd(re, im, den) == 1 and _qq_i(re, im, den) == want

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_polys, _polys, _rationals, _rationals, st.sampled_from([F(1), F(7, 3), F(1, 2)]))
    def check(p, q, x, t, a):
        cs = [_qq_i(r, m, p.triple[2]) for r, m in zip(*p.triple[:2])]
        anti = [QQ_I(0)] + [c * QQ(1, k) for k, c in enumerate(cs, 1)]
        X, T, A = (QQ_I(QQ(v.numerator, v.denominator)) for v in (x, t, a))
        assert same(p(x), _horner(cs, X))
        assert same(p.integral(x, t), _horner(anti, T) - _horner(anti, X))
        masses = [_horner([QQ_I(0)] + [_qq_i(r, m, f.triple[2] * k) for k, (r, m)
                                       in enumerate(zip(*f.triple[:2]), 1)], A) for f in (p, q)]
        if QQ_I(0) in masses:
            return
        pair = normalize_pair(p, q, a)
        assert same(pair.r1, masses[0]) and same(pair.r2, masses[1])
        k = build_kernel(pair)
        piece = k.u_lower if x < t else k.u_upper
        den = piece.table[2]
        assert same(k.u_at(x, t), sum((_qq_i(r, m, den) * X ** i * T ** j
                                       for i, j, r, m in piece.terms), QQ_I(0)))

    check()


def test_high_degree_density_near_the_origin_writes_a_report(tmp_path):
    # degree 140: near z = 0 every density sample of the Gauss-Legendre rule
    # is computed on the integers, and no n! is formed, so `verify` on
    # [-0.3, 0.3]^2 ends with a report, not a traceback
    rng = random.Random(140)
    spec = tmp_path / "deg140.json"
    spec.write_text(json.dumps({
        "a": "1", "psi1": [str(rng.randint(-6, 6)) for _ in range(140)] + ["1"],
        "psi2": ["1", "2"],
        "rect": {"re_min": -0.3, "re_max": 0.3, "im_min": -0.3, "im_max": 0.3}}))
    out = tmp_path / "deg140.report.json"
    code = main(["verify", "--input", str(spec), "--output", str(out)])
    report = json.loads(out.read_text(), parse_constant=pytest.fail)
    assert code in (EXIT_OK, EXIT_NUMERIC_REFUSAL) and "verdict" in report
    assert code == EXIT_NUMERIC_REFUSAL or "zero_sets" in report


def test_frozen_tracer_targets_resolve():
    # perfbench/spans.py wraps package attributes where it looks them up,
    # `owner.__dict__[attr]`, and counts a kernel's terms with `len`
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).parents[1] / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets()
    for owner, attr, name, _ in targets:
        assert attr in vars(owner), name
    (kernel_terms,) = [work for _, _, name, work in targets if name == "kernel.build_kernel"]
    for name in ("cubic_vs_quadratic.json", "gaussian_quartic_cubic.json"):
        report, _ = run(FIXTURES / name, None, tasks=("decide", "kernel"))
        p = ProblemSpec.from_json(json.loads((FIXTURES / name).read_text()))
        count = kernel_terms(None, build_kernel(normalize_pair(p.psi1, p.psi2, p.a)))
        assert count == len(report["kernel"]["u_lower"]) + len(report["kernel"]["u_upper"]) > 0


def test_nonalgebraic_mode_inconclusive(tmp_path):
    # the nonalgebraic-float mode is gone: its spec is an input error at
    # coeff_class, not an Inconclusive verdict
    spec = tmp_path / "nonalgebraic_mode.json"
    spec.write_text(json.dumps({"a": "1", "psi1": ["0", "2"], "psi2": ["1"],
                                "coeff_class": "nonalgebraic-float", "tasks": ["decide"]}))
    out = tmp_path / "out.json"
    assert main(["decide", "--input", str(spec), "--output", str(out)]) == EXIT_INPUT_ERROR
    assert json.loads(out.read_text())["error"].startswith("coeff_class:")


def test_malformed_rational_exit_code(tmp_path):
    code, report = _run_fixture("bad_rational.json", tmp_path)
    assert code == EXIT_INPUT_ERROR
    assert "psi1" in report["error"]


@pytest.mark.parametrize("literal", [{"re": 1.5}, {"re": "1", "im": None}, None, 1.5,
                                     True, ["1"]])
def test_bad_coefficient_literal_exit_code(tmp_path, literal):
    # a part that is not a rational string or an integer is an input error
    bad = tmp_path / "bad_literal.json"
    bad.write_text(json.dumps({"a": "1", "psi1": ["1", literal], "psi2": ["1"]}))
    out = tmp_path / "out.json"
    assert main(["verify", "--input", str(bad), "--output", str(out)]) == EXIT_INPUT_ERROR
    assert json.loads(out.read_text())["error"].startswith("psi1:")


@pytest.mark.parametrize("key", ["psi1", "psi2"])
@pytest.mark.parametrize("literal, named", [({"re": "1", "imag": "2"}, "'imag'"),
                                            ({"real": "1"}, "'real'"), ({}, "no key")],
                         ids=["imag", "real", "empty"])
def test_unknown_coefficient_key_is_an_input_error(tmp_path, key, literal, named):
    # the keys of a coefficient object are one or both of "re" and "im":
    # {"re": "1", "imag": "2"} is not read as 1, nor {} as 0
    fields = {"a": "1", "psi1": ["1", "2"], "psi2": ["1"]}
    fields[key] = fields[key] + [literal]
    bad = tmp_path / "bad_key.json"
    bad.write_text(json.dumps(fields))
    out = tmp_path / "out.json"
    assert main(["decide", "--input", str(bad), "--output", str(out)]) == EXIT_INPUT_ERROR
    error = json.loads(out.read_text())["error"]
    assert error.startswith(f"{key}:") and named in error


@pytest.mark.parametrize("a, reason", [(True, "True"), (None, "None"), ("seven", "seven"),
                                       (0.1, "0.1"), ([1], "[1]")],
                         ids=["true", "null", "word", "float", "list"])
def test_a_is_read_as_one_coefficient_part(tmp_path, a, reason):
    # no str() on the way: a boolean, null or a float is refused by type, and
    # only a numeric literal with an exponent gets the exponent message
    bad = tmp_path / "bad_a.json"
    bad.write_text(json.dumps({"a": a, "psi1": ["1", "2"], "psi2": ["1"]}))
    out = tmp_path / "out.json"
    assert main(["decide", "--input", str(bad), "--output", str(out)]) == EXIT_INPUT_ERROR
    error = json.loads(out.read_text())["error"]
    assert error.startswith("a:") and reason in error and "exponent" not in error
    for good, value in ((7, F(7)), ("7/3", F(7, 3)), (" 2.5 ", F(5, 2))):
        assert ProblemSpec.from_json({"a": good, "psi1": ["1"], "psi2": ["1"]}).a == value


def test_missing_file_exit_code(tmp_path):
    out = tmp_path / "out.json"
    code = main(["decide", "--input", str(tmp_path / "nope.json"),
                 "--output", str(out)])
    assert code == EXIT_INPUT_ERROR


def test_spec_file_read_once(tmp_path, monkeypatch):
    # the provenance hash comes from the bytes the spec was parsed from
    path = FIXTURES / "cubic_vs_quadratic.json"
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(Path(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    report, code = run(path, None, tasks=("decide",))
    assert code == EXIT_OK
    assert opened == [path]
    assert report["provenance"]["spec_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_each_transform_built_once_and_decide_normalizes_nothing(monkeypatch):
    # decide builds the spec's two transforms, and the zero locator reads
    # the same two; no mass division runs on the verdict path
    raw = ClosedTransform.__dict__["from_density"].__func__
    built = []

    def counted(cls, g, a):
        built.append(g)
        return raw(cls, g, a)

    monkeypatch.setattr(ClosedTransform, "from_density", classmethod(counted))
    for tasks in (("decide",), ("decide", "zeros")):
        built.clear()
        report, code = run(FIXTURES / "cubic_vs_quadratic.json", None, tasks=tasks)
        assert code == EXIT_OK and ("zero_sets" in report) == ("zeros" in tasks)
        assert len(built) == 2

    def refuse(*args):
        raise AssertionError("normalization on the verdict path")

    for owner, attr in ((Poly, "__truediv__"), (kernel, "normalize_pair"),
                        (symbol, "normalize_pair")):
        monkeypatch.setattr(owner, attr, refuse)
    scaled = (Poly.of((1, 2), 3), Poly.of((4, 8), (0, -6)), 1)  # Psi_2 = 2i conj Psi_1(1-x)
    for psi1, psi2, a in ((Poly.of(1, 1, -1), Poly.of(1), 1), (Poly.of(1), Poly.of(0, 2), 1),
                          scaled, (Poly.of(F(-1, 2), 1), Poly.of(1), 1)):
        decide(psi1, psi2, a)
    assert decide(*scaled).outcome == OUTCOME_COINCIDE


@pytest.mark.parametrize("content", [None, b"\xff\xfe\x00{"])
def test_unreadable_spec_writes_report(tmp_path, content):
    # a directory cannot be read; bytes that decode to no JSON text are no spec
    spec = tmp_path / "spec"
    if content is None:
        spec.mkdir()
    else:
        spec.write_bytes(content)
    out = tmp_path / "out.json"
    assert main(["verify", "--input", str(spec), "--output", str(out)]) == EXIT_INPUT_ERROR
    assert json.loads(out.read_text())["error"]


def test_spec_validation_paths(tmp_path):
    with pytest.raises(SpecError, match=r"^\$: problem spec must be a JSON object"):
        ProblemSpec.from_json([])
    with pytest.raises(SpecError, match="^a: missing"):
        ProblemSpec.from_json({"psi1": ["1"], "psi2": ["1"]})
    bad, out = tmp_path / "no_a.json", tmp_path / "out.json"
    bad.write_text(json.dumps({"psi1": ["1"], "psi2": ["1"]}))
    assert main(["verify", "--input", str(bad), "--output", str(out)]) == EXIT_INPUT_ERROR
    assert json.loads(out.read_text())["error"].startswith("a: missing")
    for a in ("-1", "0"):
        with pytest.raises(SpecError, match="^a: must be positive"):
            ProblemSpec.from_json({"a": a, "psi1": ["1"], "psi2": ["1"]})
    with pytest.raises(SpecError, match="^psi2:"):
        ProblemSpec.from_json({"a": "1", "psi1": ["1"], "psi2": []})
    for grid_n in (4, 4097):
        with pytest.raises(SpecError, match="^grid_n:"):
            ProblemSpec.from_json({"a": "1", "psi1": ["1"], "psi2": ["1"],
                                   "grid_n": grid_n})
    for coeff_class in ("float32", "nonalgebraic-float"):
        with pytest.raises(SpecError, match="^coeff_class:"):
            ProblemSpec.from_json({"a": "1", "psi1": ["1"], "psi2": ["1"],
                                   "coeff_class": coeff_class})
    for key in ("tol", "delta"):
        for bad in (0, -1, float("nan"), float("inf"), "1e-3x", None, 10 ** 400):
            with pytest.raises(SpecError, match=f"^{key}:"):
                ProblemSpec.from_json({"a": "1", "psi1": ["1"], "psi2": ["1"],
                                       key: bad})


@pytest.mark.parametrize("field", [
    {"tasks": ["frobnicate"]}, {"tasks": None}, {"tasks": 5}, {"tasks": "decide"},
    {"tasks": ["decide", 5]}, {"tol": True}, {"delta": False},
    {"rect": {"re_min": True}}, {"rect": {"boundary_margin": False}},
    {"psi1": ["0"]}, {"psi2": ["0", "0"]},
    {"tol": "1e-3"}, {"delta": " 0.5 "}, {"rect": {"re_min": "-3"}},
    {"grid": 128}, {"rect": {"re_min": -10, "re_max": 10, "im_mn": -1, "im_max": 1}},
], ids=["unknown-task", "tasks-null", "tasks-int", "tasks-string", "tasks-non-string",
        "tol-true", "delta-false", "rect-re_min-true", "rect-margin-false",
        "psi1-zero", "psi2-zero", "tol-string", "delta-string", "rect-re_min-string",
        "unknown-field", "rect-unknown-field"])
def test_malformed_field_exit_code(tmp_path, field):
    # refused at the field's own path, and the CLI exits 1 with an error report
    (key,) = field
    with pytest.raises(SpecError, match=f"^{key}:"):
        ProblemSpec.from_json({"a": "1", "psi1": ["1"], "psi2": ["1"], **field})
    spec = json.loads((FIXTURES / "cubic_vs_quadratic.json").read_text())
    bad = tmp_path / "bad_field.json"
    bad.write_text(json.dumps({**spec, **field}))
    out = tmp_path / "out.json"
    assert main(["verify", "--input", str(bad), "--output", str(out)]) == EXIT_INPUT_ERROR
    assert json.loads(out.read_text())["error"].startswith(f"{key}:")


@pytest.mark.parametrize("tol", [0, -1, float("nan")])
def test_bad_tolerance_exit_code(tmp_path, tol):
    # in the problem file, and as the verify --tol override
    spec = json.loads((FIXTURES / "cubic_vs_quadratic.json").read_text())
    bad = tmp_path / "bad_tol.json"
    bad.write_text(json.dumps({**spec, "tol": tol}))
    out = tmp_path / "out.json"
    for argv in (["verify", "--input", str(bad)],
                 ["verify", "--input", str(FIXTURES / "cubic_vs_quadratic.json"),
                  "--tol", str(tol)]):
        out.unlink(missing_ok=True)
        assert main([*argv, "--output", str(out)]) == EXIT_INPUT_ERROR
        assert json.loads(out.read_text())["error"].startswith("tol:")


@pytest.mark.parametrize("grid", [0, 4, 15, 4097, 1000000])
def test_bad_grid_override_exit_code(tmp_path, grid):
    # verify --grid follows the problem file's grid_n rule; a grid too large
    # for T in memory is refused before anything is allocated
    code, report = _run_fixture("const_vs_linear.json", tmp_path, "verify", ("--grid", str(grid)))
    assert code == EXIT_INPUT_ERROR
    assert report["error"].startswith("grid_n:")


@pytest.mark.parametrize("key, literal", [
    ("re_max", "1e400"), ("re_min", "-1e400"), ("im_min", "NaN"), ("im_max", "Infinity"),
    ("boundary_margin", "-1"), ("boundary_margin", "NaN"), ("boundary_margin", "1e400"),
    ("re_min", "-1" + "0" * 400),
], ids=["re_max-overflow", "re_min-overflow", "im_min-nan", "im_max-inf",
        "margin-negative", "margin-nan", "margin-overflow", "re_min-int-overflow"])
def test_bad_rect_exit_code(tmp_path, key, literal):
    # non-finite bounds and a negative or non-finite margin are refused at
    # rect, before any evaluation; the CLI exits 1 with an error report
    rect = {"re_min": "-10", "re_max": "10", "im_min": "-5", "im_max": "5", key: literal}
    text = ('{"a": "1", "psi1": ["0", "0", "0", "1"], "psi2": ["0", "0", "1"], "rect": {'
            + ", ".join(f'"{k}": {v}' for k, v in rect.items()) + "}}")
    with pytest.raises(SpecError, match="^rect:"):
        ProblemSpec.from_json(json.loads(text))
    bad = tmp_path / "bad_rect.json"
    bad.write_text(text)
    out = tmp_path / "out.json"
    assert main(["verify", "--input", str(bad), "--output", str(out)]) == EXIT_INPUT_ERROR
    assert json.loads(out.read_text())["error"].startswith("rect:")


@pytest.mark.parametrize("rect", [{"re_min": -1e308, "re_max": 1e308, "im_min": -1, "im_max": 1},
                                  {"re_min": -1, "re_max": 1, "im_min": -1e308, "im_max": 1e308},
                                  {"re_min": -1, "re_max": 1, "im_min": -1, "im_max": 1,
                                   "boundary_margin": 1e308},
                                  {"re_min": -1e300, "re_max": 1e300, "im_min": -1, "im_max": 1}],
                         ids=["width", "height", "margin", "far"])
def test_rect_span_beyond_float_range_exit_code(tmp_path, rect):
    # finite bounds and margin whose nudged box overflows, or reaches so far
    # that 1/z does (|z|^2 past float range): the boundary samples would be
    # NaN, so the rectangle is refused at rect before any evaluation
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"a": "1", "psi1": ["-1"], "psi2": ["-1"], "rect": rect}))
    report, code = run(spec, tmp_path / "out.json")
    assert code == EXIT_INPUT_ERROR
    assert report["error"].startswith("rect: search rectangle, moved out by every boundary nudge")


@pytest.mark.parametrize("bounds", [("10", "-10", "-5", "5"), ("-10", "inf", "-5", "5")],
                         ids=["empty", "infinite"])
def test_bad_rect_override_exit_code(tmp_path, bounds):
    # verify --rect follows the problem file's rect rule
    code, report = _run_fixture("cubic_vs_quadratic.json", tmp_path, "verify", ("--rect", *bounds))
    assert code == EXIT_INPUT_ERROR
    assert report["error"].startswith("rect:")


@pytest.mark.parametrize("tasks", [
    ("decide",), ("decide", "zeros"), ("decide", "kernel"), ("decide", "operator-check"),
    ("decide", "zeros", "kernel", "operator-check"),
])
def test_report_bytes_match_json_dump(tmp_path, tasks):
    # the report is one line, json.dumps of the returned dict with its keys sorted
    out = tmp_path / "o.json"
    report, _ = run(FIXTURES / "cubic_vs_quadratic.json", out, tasks=tasks, grid_n=32)
    assert out.read_bytes() == (json.dumps(report, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_verify_report_bytes_match_json_dumps(tmp_path, name):
    out = tmp_path / "o.json"
    main(["verify", "--input", str(FIXTURES / name), "--output", str(out), "--grid", "32"])
    report = json.loads(out.read_text())
    assert out.read_bytes() == (json.dumps(report, sort_keys=True) + "\n").encode()


_NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from bezoutiant.cli import main
spec, out = sys.argv[1:]
sys.exit(main(["decide", "--input", spec, "--output", out + "/decide.json"])
         or main(["verify", "--input", spec, "--output", out + "/verify.json"])
         or main(["emit-grid", "--input", spec, "--csv", out + "/grid.csv"]))
"""


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test extra (the Bessel oracle): no subcommand imports it
    src = str(Path(bezoutiant.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    spec = str(FIXTURES / "cubic_vs_quadratic.json")
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY, spec, str(tmp_path)], env=env)
    assert done.returncode == 0
    assert {p.name for p in tmp_path.iterdir()} == {"decide.json", "verify.json", "grid.csv"}


def test_module_entry_point(tmp_path):
    # `python -m bezoutiant.cli`, the console script's target: one sorted-key
    # line per report, and an overflow refused by the evaluation's own flags;
    # far up the plane (Im z 750 to 800) F is small and finite, not refused
    src = str(Path(bezoutiant.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    spec, far, out = str(FIXTURES / "cubic_vs_quadratic.json"), tmp_path / "far.json", tmp_path / "o.json"
    far.write_text(json.dumps({"psi1": ["1"], "psi2": ["1", "1"], "a": "1", "rect": {
        "re_min": -10, "re_max": 10, "im_min": 750, "im_max": 800}}))

    def entry(*argv):
        out.unlink(missing_ok=True)
        done = subprocess.run([sys.executable, "-m", "bezoutiant.cli", *argv, "--output", str(out)],
                              env=env)
        return done.returncode, out.read_text()

    code, text = entry("decide", "--input", spec)
    assert code == EXIT_OK and text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    code, text = entry("verify", "--input", spec, "--rect", "-10", "10", "-800", "800")
    assert code == EXIT_NUMERIC_REFUSAL
    assert json.loads(text)["error"]["type"] == "EvaluationOverflow"
    code, text = entry("verify", "--input", str(far))
    report = json.loads(text)
    assert code == EXIT_OK and not report["conflict"]
    assert [report["zero_sets"][F]["total_count"] for F in ("F1", "F21")] == [0, 0]


@pytest.mark.parametrize("a, prefix, reason", [(10 ** 400, "verdict:", "digit limit"),
                                              ("1e2000", "a:", "exponent")],
                         ids=["integer", "exponent"])
def test_exact_value_past_the_digit_limit_is_an_input_error(tmp_path, a, prefix, reason):
    # a = 10^400 gives masses of ~6800 digits, past int-to-str's 4300;
    # "1e2000" is refused as an exponent before any integer is built
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps({"a": a, "psi1": [str(k) for k in range(1, 18)],
                                "psi2": ["1", "1"], "tasks": ["decide"]}))
    out = tmp_path / "out.json"
    assert main(["decide", "--input", str(spec), "--output", str(out)]) == EXIT_INPUT_ERROR
    error = json.loads(out.read_text())["error"]
    assert error.startswith(prefix) and reason in error


def test_kernel_past_the_digit_limit_is_an_input_error(tmp_path):
    # with a = 10^300 the verdict's masses fit in 4300 digits, the kernel's do not
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"a": 10 ** 300, "psi1": [str(k) for k in range(1, 14)],
                                "psi2": ["1", "2"], "tasks": ["decide", "kernel"]}))
    out = tmp_path / "out.json"
    report, code = run(spec, out)
    assert code == EXIT_INPUT_ERROR and report["error"].startswith("kernel:")
    assert "verdict" in report and "kernel" not in report
    assert json.loads(out.read_text()) == report


@pytest.mark.parametrize("a, reason", [("1" + "0" * 320, "beyond float range"),
                                       ("1/1" + "0" * 400, "rounds to 0.0"),
                                       ("1/1" + "0" * 300, "below float resolution")],
                         ids=["a=10^320", "a=10^-400", "a=10^-300"])
def test_operator_check_outside_float_range_is_a_refusal(tmp_path, a, reason):
    # the verdict is exact and stands; the operator check has no float a, or
    # (at a = 10^-300) finds residuals of exactly 0.0, which only a
    # coincidence pair may have
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"a": a, "psi1": ["1"], "psi2": ["1", "1"],
                                "tasks": ["decide", "kernel", "operator-check"]}))
    out = tmp_path / "out.json"
    report, code = run(spec, out)
    assert code == EXIT_NUMERIC_REFUSAL
    assert json.loads(out.read_text()) == report
    assert report["verdict"]["outcome"] == "NoCommonZeros" and "kernel" in report
    assert "operator" not in report
    error = report["error"]
    assert error["stage"] == "operator-check" and error["type"] == "FloatRangeError"
    assert reason in error["message"]


#: Specs whose zero locator has no float image: Laurent coefficients of F_1
#: past 1.8e308, an a past float range, and an a that rounds to 0.0.
ZEROS_OUT_OF_FLOAT_RANGE = {
    "laurent-overflow": ({"a": "1", "psi1": ["1", "1" + "0" * 400], "psi2": ["1"]},
                         "a Laurent coefficient is beyond float range"),
    "a=10^400": ({"a": "1" + "0" * 400, "psi1": ["1"], "psi2": ["1", "1"]},
                 "the interval end a is beyond float range"),
    "a=10^-400": ({"a": "1/1" + "0" * 400, "psi1": ["1"], "psi2": ["1", "1"]},
                  "the interval end a rounds to 0.0 as a float"),
}


def test_zero_locator_overflow_with_coefficients_in_float_range(tmp_path):
    # every Laurent coefficient is a float, but p_1 = 1.48e202 i times
    # e^{a |Im z|} on the nudged boundary is not: EvaluationOverflow, with no
    # overflow warning (an error here), where a NaN boundary once gave
    # BoundaryZeroError
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"a": "148", "psi1": ["-1", "-1" + "0" * 200], "psi2": ["-1"],
                                "rect": {"re_min": -3, "re_max": 3, "im_min": -1, "im_max": 1},
                                "tasks": ["decide", "zeros"]}))
    report, code = run(spec, tmp_path / "out.json")
    assert code == EXIT_NUMERIC_REFUSAL and "verdict" in report
    assert report["error"]["stage"] == "zeros" and report["error"]["type"] == "EvaluationOverflow"


@pytest.mark.parametrize("case", sorted(ZEROS_OUT_OF_FLOAT_RANGE))
def test_zero_locator_outside_float_range_is_a_refusal(tmp_path, case):
    # each used to end in a traceback (OverflowError, ZeroDivisionError)
    # with no report; the exact verdict stands
    fields, message = ZEROS_OUT_OF_FLOAT_RANGE[case]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**fields, "tasks": ["decide", "zeros"]}))
    out = tmp_path / "out.json"
    report, code = run(spec, out)
    assert code == EXIT_NUMERIC_REFUSAL
    assert json.loads(out.read_text()) == report and "verdict" in report
    assert report["error"] == {"stage": "zeros", "transform": "F1",
                               "type": "FloatRangeError", "message": message}


def test_emit_grid_outside_float_range_is_a_refusal(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(ZEROS_OUT_OF_FLOAT_RANGE["laurent-overflow"][0]))
    csv = tmp_path / "grid.csv"
    assert main(["emit-grid", "--input", str(spec), "--csv", str(csv)]) == EXIT_NUMERIC_REFUSAL
    err = capsys.readouterr().err
    assert err.startswith("numeric refusal: FloatRangeError:") and err.count("\n") == 1
    assert not csv.exists()


@pytest.mark.parametrize("literal", ["1e5", "1E-3", "-7e+2"])
@pytest.mark.parametrize("key", ["a", "psi1", "psi2"])
def test_exponent_literal_is_an_input_error(tmp_path, key, literal):
    fields = {"a": "1", "psi1": ["1", "2"], "psi2": ["1"]}
    fields[key] = literal if key == "a" else ["1", {"re": "0", "im": literal}]
    bad = tmp_path / "exp.json"
    bad.write_text(json.dumps(fields))
    out = tmp_path / "out.json"
    assert main(["decide", "--input", str(bad), "--output", str(out)]) == EXIT_INPUT_ERROR
    error = json.loads(out.read_text())["error"]
    assert error.startswith(f"{key}:") and "exponent" in error


def test_decimal_literals_are_accepted():
    spec = ProblemSpec.from_json({"a": "2.5", "psi1": ["0.25", "1"], "psi2": [" -1.5 "]})
    assert spec.a == F(5, 2) and spec.psi1 == Poly.of(F(1, 4), 1) and spec.psi2 == Poly.of(F(-3, 2))


def test_grid_override_runs(tmp_path):
    code, report = _run_fixture("const_vs_linear.json", tmp_path, "verify", ("--grid", "16"))
    assert code == EXIT_OK
    assert report["operator"]["sizes"] == [8, 16]


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_verify_reports_are_strict_json(tmp_path, name):
    # no Infinity or NaN: empty zero sets and 0/0 residual ratios are null
    _, report = _run_fixture(name, tmp_path, "verify")
    json.dumps(report, allow_nan=False)


def test_numeric_refusal_exit_code(tmp_path):
    # Im z up to 800 with a = 1: e^{iaz} would overflow on the boundary
    code, report = _run_fixture("cubic_vs_quadratic.json", tmp_path, "verify",
                                ("--rect", "-10", "10", "-800", "800"))
    assert code == EXIT_NUMERIC_REFUSAL
    json.dumps(report, allow_nan=False)
    assert report["verdict"]["outcome"] == "NoCommonZeros"
    assert "zero_sets" not in report and "provenance" in report
    assert report["error"]["stage"] == "zeros"
    assert report["error"]["transform"] == "F1"
    assert report["error"]["type"] == "EvaluationOverflow"
    assert "overflow" in report["error"]["message"]


@pytest.mark.parametrize("exc_type", NUMERIC_REFUSALS, ids=lambda e: e.__name__)
def test_every_numeric_refusal_writes_a_report(tmp_path, monkeypatch, exc_type):
    real, calls = cli.locate_zeros, []

    def refuse_second(F, rect, tol):  # F1 is located, F21 refused
        calls.append(F)
        if len(calls) == 2:
            raise exc_type("refused")
        return real(F, rect, tol)

    monkeypatch.setattr(cli, "locate_zeros", refuse_second)
    out = tmp_path / "r.json"
    report, code = run(FIXTURES / "const_vs_linear.json", out, tasks=("decide", "zeros"))
    assert code == EXIT_NUMERIC_REFUSAL
    assert json.loads(out.read_text()) == report
    assert report["error"] == {"stage": "zeros", "transform": "F21",
                               "type": exc_type.__name__, "message": "refused"}


def test_rect_override(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify", "--input", str(FIXTURES / "coincidence.json"),
                 "--output", str(out), "--rect", "-7", "7", "-1", "1"])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["zero_sets"]["F1"]["total_count"] == 2


def test_report_determinism(tmp_path):
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    run(FIXTURES / "const_vs_linear.json", o1, tasks=("decide", "zeros"))
    run(FIXTURES / "const_vs_linear.json", o2, tasks=("decide", "zeros"))
    r1, r2 = json.loads(o1.read_text()), json.loads(o2.read_text())
    r1["provenance"].pop("timing_s")
    r2["provenance"].pop("timing_s")
    assert r1 == r2
    assert o1.read_text().startswith("{")  # sorted, indented JSON


def test_emit_grid(tmp_path):
    csv = tmp_path / "grid.csv"
    code = main(["emit-grid", "--input", str(FIXTURES / "grid_demo.json"),
                 "--csv", str(csv)])
    assert code == EXIT_OK
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "re,im,absF1,absF21"
    assert len(lines) == 1 + 17 * 17
    # grid center is z = 0 where the unit-mass transform has |F1| = 1
    center = lines[1 + 8 * 17 + 8].split(",")
    assert float(center[0]) == 0.0 and float(center[1]) == 0.0
    assert abs(float(center[2]) - 1.0) < 1e-12


def test_emit_grid_missing_input(tmp_path, capsys):
    code = main(["emit-grid", "--input", str(tmp_path / "nope.json"),
                 "--csv", str(tmp_path / "grid.csv")])
    assert code == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_emit_grid_numeric_refusal(tmp_path, capsys):
    # Im z up to 800 with a = 1: e^{iaz} would overflow on the grid
    spec = json.loads((FIXTURES / "grid_demo.json").read_text())
    spec["rect"] = {"re_min": -10, "re_max": 10, "im_min": -800, "im_max": 800}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(spec))
    csv = tmp_path / "grid.csv"
    code = main(["emit-grid", "--input", str(path), "--csv", str(csv)])
    assert code == EXIT_NUMERIC_REFUSAL
    err = capsys.readouterr().err
    assert err.startswith("numeric refusal: EvaluationOverflow:") and err.count("\n") == 1
    assert not csv.exists()  # every row is evaluated before the file is opened


def test_conflict_gate_never_fires_on_corpus(tmp_path):
    for name in ("const_vs_linear.json", "coincidence.json",
                 "cubic_vs_quadratic.json"):
        report, code = run(FIXTURES / name, tmp_path / "o.json",
                           tasks=("decide", "zeros"))
        assert report["conflict"] is False
        assert code != EXIT_CONFLICT


def _force_outcome(monkeypatch, outcome):
    """Make `cli.decide` report `outcome` and keep the rest of its verdict."""
    real = cli.decide

    def forced(*args):
        return dataclasses.replace(real(*args), outcome=outcome)

    monkeypatch.setattr(cli, "decide", forced)


def test_conflict_gate_no_common_zeros_with_common_pairs(tmp_path, monkeypatch):
    # F1 = F21 here: every located zero is common to both transforms
    _force_outcome(monkeypatch, OUTCOME_NO_COMMON)
    out = tmp_path / "o.json"
    report, code = run(FIXTURES / "coincidence.json", out, tasks=("decide", "zeros"))
    assert code == EXIT_CONFLICT
    assert report["verdict"]["outcome"] == "NoCommonZeros"
    assert report["conflict"] is True
    assert len(report["comparison"]["common"]) == 8
    assert json.loads(out.read_text()) == report


def test_conflict_gate_coincidence_with_unmatched_zeros(tmp_path, monkeypatch):
    # F1 has no zero in the rectangle and F21 has 4: the sets cannot coincide
    _force_outcome(monkeypatch, OUTCOME_COINCIDE)
    out = tmp_path / "o.json"
    report, code = run(FIXTURES / "cubic_vs_quadratic.json", out, tasks=("decide", "zeros"))
    assert code == EXIT_CONFLICT
    assert report["conflict"] is True
    assert report["zero_sets"]["F1"]["zeros"] == []
    assert len(report["zero_sets"]["F21"]["zeros"]) == 4
    assert json.loads(out.read_text()) == report


@pytest.mark.parametrize("moved", [0, 2], ids=["reordered", "one-moved"])
def test_conflict_gate_coincidence_matches_zeros_by_distance(tmp_path, monkeypatch, moved):
    # F21's zeros are F1's listed in reverse order, the first moved by
    # `moved` * delta: the sets coincide whatever their order, and a zero
    # 2 * delta from every zero of the other set is a conflict
    _force_outcome(monkeypatch, OUTCOME_COINCIDE)
    real, located = cli.locate_zeros, []

    def reversed_f21(F, rect, tol):
        if not located:
            located.append(real(F, rect, tol))
            return located[0]
        first, *rest = located[0].zeros[::-1]
        first = dataclasses.replace(first, z=first.z + moved * 1e-3)
        return dataclasses.replace(located[0], zeros=(first, *rest))

    monkeypatch.setattr(cli, "locate_zeros", reversed_f21)
    report, code = run(FIXTURES / "coincidence.json", None, tasks=("decide", "zeros"))
    assert report["comparison"]["delta"] == 1e-3
    assert len(report["zero_sets"]["F21"]["zeros"]) == 8
    assert report["conflict"] is bool(moved)
    assert code == (EXIT_CONFLICT if moved else EXIT_OK)


@pytest.mark.parametrize("zeros", [[], [1j, 2 - 1j], [1j, 50j]], ids=["missing", "extra", "outside"])
def test_conflict_gate_common_zeros(tmp_path, monkeypatch, zeros):
    # the located common pair at z = i must be the verdict's common zeros
    # in the rectangle [-10, 10] x [-3, 3]: one missing or one extra
    # inside is a conflict, one outside is not
    real = cli.decide

    def forced(*args):
        v = real(*args)
        listed = [{"re": z.real, "im": z.imag} for z in zeros]
        return dataclasses.replace(v, diagnostics={**v.diagnostics, "common_zeros": listed})

    monkeypatch.setattr(cli, "decide", forced)
    report, code = run(FIXTURES / "shared_zero.json", None)
    assert report["verdict"]["outcome"] == "CommonZeros"
    assert report["conflict"] is (zeros != [1j, 50j])
    assert code == (EXIT_OK if zeros == [1j, 50j] else EXIT_CONFLICT)


def test_boundary_zero_exit_code(tmp_path):
    # the bottom edge of [-4 pi, 4 pi] x [0, 1] runs through zeros of F1,
    # and a boundary margin of 0 leaves the guard no room to move it
    spec = tmp_path / "pinned.json"
    spec.write_text(json.dumps({
        "a": "1", "psi1": ["1"], "psi2": ["0", "1"],
        "rect": {"re_min": -4 * math.pi, "re_max": 4 * math.pi, "im_min": 0, "im_max": 1,
                 "boundary_margin": 0}}))
    out = tmp_path / "o.json"
    report, code = run(spec, out)
    assert code == EXIT_NUMERIC_REFUSAL
    assert json.loads(out.read_text()) == report
    assert report["error"]["type"] == "BoundaryZeroError"
    assert report["error"]["transform"] == "F1"
