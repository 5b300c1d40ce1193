import dataclasses
import hashlib
import io
import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bezoutiant.cli import (
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
from bezoutiant import cli, kernel, symbol
from bezoutiant.exact import GR, Poly
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
    a, c = F(7, 3), GR(F(-3, 2), F(5, 4))
    psi1 = Poly.of(GR(1, 2), 3, GR(F(-1, 2), F(1, 3)), GR(0, -2))
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
    psi1 = Poly.of(GR(1, 2), F(-1, 3))
    psi2 = Poly.of(3, GR(0, -1), GR(F(1, 2), 1), 2)
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
    scaled = (Poly.of(GR(1, 2), 3), Poly.of(GR(4, 8), GR(0, -6)), 1)  # Psi_2 = 2i conj Psi_1(1-x)
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


def test_spec_validation_paths():
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
        for bad in (0, -1, float("nan"), float("inf"), "1e-3x", None):
            with pytest.raises(SpecError, match=f"^{key}:"):
                ProblemSpec.from_json({"a": "1", "psi1": ["1"], "psi2": ["1"],
                                       key: bad})


@pytest.mark.parametrize("field", [
    {"tasks": ["frobnicate"]}, {"tasks": None}, {"tasks": 5}, {"tasks": "decide"},
    {"tasks": ["decide", 5]}, {"tol": True}, {"delta": False},
    {"rect": {"re_min": True}}, {"rect": {"boundary_margin": False}},
    {"psi1": ["0"]}, {"psi2": ["0", "0"]},
], ids=["unknown-task", "tasks-null", "tasks-int", "tasks-string", "tasks-non-string",
        "tol-true", "delta-false", "rect-re_min-true", "rect-margin-false",
        "psi1-zero", "psi2-zero"])
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
], ids=["re_max-overflow", "re_min-overflow", "im_min-nan", "im_max-inf",
        "margin-negative", "margin-nan", "margin-overflow"])
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
                                   "boundary_margin": 1e308}],
                         ids=["width", "height", "margin"])
def test_rect_span_beyond_float_range_exit_code(tmp_path, rect):
    # finite bounds and margin whose nudged box overflows: the boundary
    # samples would be NaN, so the rectangle is refused at rect before any
    # evaluation
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
    # the report is written in one piece, byte for byte what json.dump wrote
    out = tmp_path / "o.json"
    report, _ = run(FIXTURES / "cubic_vs_quadratic.json", out, tasks=tasks, grid_n=32)
    chunked = io.StringIO()
    json.dump(report, chunked, indent=2, sort_keys=True)
    chunked.write("\n")
    assert out.read_bytes() == chunked.getvalue().encode()


_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2 ** 80, 2 ** 80)
                 | st.floats(allow_nan=True, allow_infinity=True) | st.text())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.recursive(_JSON_SCALARS, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4)), max_leaves=20))
@example({"q\"uote": ["back\\slash", "\x00\x1f\n\t", "\u00e9\u2603\U0001f600"],
          "": [[], {}, ()], "ints": [2 ** 64, -(2 ** 64) - 1, 0]})
@example([-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf, True, False, None])
def test_report_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_verify_report_bytes_match_json_dumps(tmp_path, name):
    out = tmp_path / "o.json"
    main(["verify", "--input", str(FIXTURES / name), "--output", str(out), "--grid", "32"])
    report = json.loads(out.read_text())
    assert out.read_bytes() == (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


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
                                       ("1/1" + "0" * 400, "rounds to 0.0")],
                         ids=["a=10^320", "a=10^-400"])
def test_operator_check_outside_float_range_is_a_refusal(tmp_path, a, reason):
    # the verdict is exact and stands; the operator check has no float a
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
