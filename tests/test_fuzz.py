"""Every spec gets a report: a fuzzer over problem-file JSON.

Specs are drawn with exact entries and a from 10^-400 to 10^400, written
as integers, p/q and plain decimals (some Gaussian, some zero), every
nonempty task set, and extremes of `rect`, `tol`, `delta` and `grid_n`,
valid and invalid.  Whatever the spec, `cli.run` must raise nothing,
return an exit code in {0, 1, 2, 3, 4} and write a report that is strict
JSON (no NaN or Infinity).

Degrees stay at most 5, a valid `grid_n` at most 33 and a valid rectangle
small, so the tier-1 run stays within a few seconds.  For a longer run set
BEZOUTIANT_FUZZ_EXAMPLES, for example

    BEZOUTIANT_FUZZ_EXAMPLES=500 PYTHONPATH=src python -m pytest -q tests/test_fuzz.py
"""

import json
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bezoutiant.cli import ALL_TASKS, run

EXAMPLES = int(os.environ.get("BEZOUTIANT_FUZZ_EXAMPLES", "100"))


@st.composite
def literals(draw, positive=False):
    """An exact literal of size 10^e, e in [-400, 400]: an integer (e >= 0),
    "p/q" or a plain decimal."""
    e = draw(st.integers(-400, 400))
    m = draw(st.integers(1, 999))
    sign = "" if positive or draw(st.booleans()) else "-"
    kind = draw(st.sampled_from(["int", "ratio", "decimal"]))
    if kind == "int" and e >= 0:
        return f"{sign}{m * 10 ** e}"
    if kind == "decimal":
        return f"{sign}{m}{'0' * e}.5" if e >= 0 else f"{sign}0.{'0' * -e}{m}"
    return f"{sign}{m * 10 ** max(e, 0)}/{draw(st.integers(1, 9)) * 10 ** max(-e, 0)}"


gaussians = st.builds(lambda re, im: {"re": re, "im": im}, literals(), literals())
entries = st.one_of(literals(), literals(), literals(), gaussians, gaussians, st.just("0"))
densities = st.lists(entries, min_size=1, max_size=6)  # degree <= 5

small_rects = st.fixed_dictionaries({
    "re_min": st.sampled_from([-10, -3, -0.5]), "re_max": st.sampled_from([0.5, 3, 10]),
    "im_min": st.sampled_from([-5, -1, -1e-3]), "im_max": st.sampled_from([1e-3, 1, 5])},
    optional={"boundary_margin": st.sampled_from([0, 1e-300, 0.05, 0.4])})
extreme_rects = st.sampled_from([
    {"re_min": -1, "re_max": 1, "im_min": -1e308, "im_max": 1e308},  # e^{iaz} overflows
    {"re_min": -1, "re_max": 1, "im_min": -800, "im_max": 800},
    {"re_min": 1, "re_max": -1},  # empty
    {"re_min": 0, "re_max": 0},
    {"re_min": "nan"}, {"im_max": None}, {"re_max": True},
    {"boundary_margin": -1}, {"boundary_margin": 1e308},
    [],
])
positives = st.sampled_from([1e-300, 1e-12, 1e-3, 0.5, 1, 1e300,  # valid
                             0, -1, "1e-3x", None, True, 1e309])  # input errors
grid_sizes = st.sampled_from([16, 17, 32, 33, 15, 0, -64, 4097, 10 ** 400, 32.0, "32", True])


@st.composite
def specs(draw):
    spec = {"a": draw(literals(positive=draw(st.integers(0, 9)) > 0)),
            "psi1": draw(densities), "psi2": draw(densities),
            "tasks": draw(st.lists(st.sampled_from(ALL_TASKS), min_size=1, unique=True))}
    if draw(st.booleans()):
        spec["rect"] = draw(st.one_of(small_rects, small_rects, extreme_rects))
    for key, values in (("tol", positives), ("delta", positives), ("grid_n", grid_sizes)):
        if draw(st.integers(0, 3)) == 0:
            spec[key] = draw(values)
    if "rect" not in spec:  # the default rectangle is wide; keep the run short
        spec["rect"] = {"re_min": -3, "re_max": 3, "im_min": -1, "im_max": 1}
    if "grid_n" not in spec and draw(st.booleans()):
        spec["grid_n"] = 32
    return spec


def _strict(constant):
    raise ValueError(f"{constant} is not strict JSON")


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(specs())
def test_every_spec_gets_a_strict_json_report(tmp_path_factory, spec):
    folder = tmp_path_factory.mktemp("fuzz")
    path, out = folder / "spec.json", folder / "out.json"
    path.write_text(json.dumps(spec))
    report, code = run(path, out)
    assert code in (0, 1, 2, 3, 4)
    assert json.loads(out.read_text(), parse_constant=_strict) == report
    if code == 4:
        assert report["error"]["type"] and "verdict" in report
