"""Outputs on the fixture corpus, compared with recorded golden files.

Each file in `golden/` holds the `decide`+`kernel` report (without its
provenance block) and the Laurent coefficients of F_1 and F_{2,1}.  Every
entry is an exact rational string, so equality here means bit-identical
exact output.

Each file in `golden_zeros/` holds the exit code and the `zero_sets`,
`comparison` and `conflict` entries of the `decide`+`zeros` report, the
numeric half of `bezoutiant verify`.  Floats go through JSON as their
shortest round-trip repr, so equality here means the same zeros, float
for float.

To record the files again (only after a deliberate change of a recorded
output), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from bezoutiant.cli import ProblemSpec, run
from bezoutiant.exact import _json_value
from bezoutiant.transform import closed_form, reflected_transform

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
GOLDEN_ZEROS = FIXTURES / "golden_zeros"
GOLDEN_HIGHDEG = FIXTURES / "golden_highdeg"
CASES = sorted(p.stem for p in FIXTURES.glob("*.json") if p.stem != "bad_rational")
HIGHDEG_CASES = sorted(p.stem for p in (FIXTURES / "highdeg").glob("*.json"))


def _values_json(triple):
    re, im, den = triple
    return [_json_value(r, m, den) for r, m in zip(re, im)]


def _transform_json(F):
    return {"osc": _values_json(F.p), "plain": _values_json(F.q)}


def record(name: str, folder: Path = FIXTURES) -> dict:
    path = folder / f"{name}.json"
    report, code = run(path, None, tasks=("decide", "kernel"))
    report.pop("provenance")
    spec = ProblemSpec.from_json(json.loads(path.read_text()))
    return {
        "exit_code": code,
        "report": report,
        "F1": _transform_json(closed_form(spec.psi1, spec.a)),
        "F21": _transform_json(reflected_transform(spec.psi2, spec.a)),
    }


def record_highdeg(name: str) -> dict:
    out = record(name, FIXTURES / "highdeg")
    kernel = out["report"]["kernel"]
    canonical = json.dumps(kernel, sort_keys=True, separators=(",", ":"))
    out["report"]["kernel"] = {
        "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "terms": [len(kernel["u_lower"]), len(kernel["u_upper"])],
    }
    return out


def record_zeros(name: str) -> dict:
    report, code = run(FIXTURES / f"{name}.json", None, tasks=("decide", "zeros"))
    return {"exit_code": code,
            **{k: report.get(k) for k in ("zero_sets", "comparison", "conflict")}}


@pytest.mark.parametrize("name", CASES)
def test_golden_exact_outputs(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    # round-trip through JSON so tuples and lists compare alike
    got = json.loads(json.dumps(record(name)))
    assert got == want


@pytest.mark.parametrize("name", HIGHDEG_CASES)
def test_golden_highdeg_exact_outputs(name):
    want = json.loads((GOLDEN_HIGHDEG / f"{name}.json").read_text())
    got = json.loads(json.dumps(record_highdeg(name)))
    assert got == want


@pytest.mark.parametrize("name", CASES)
def test_golden_zero_sets(name):
    want = json.loads((GOLDEN_ZEROS / f"{name}.json").read_text())
    got = json.loads(json.dumps(record_zeros(name)))
    assert got == want


if __name__ == "__main__":
    for folder, recorder, cases in ((GOLDEN, record, CASES),
                                    (GOLDEN_ZEROS, record_zeros, CASES),
                                    (GOLDEN_HIGHDEG, record_highdeg, HIGHDEG_CASES)):
        folder.mkdir(exist_ok=True)
        for case in cases:
            with open(folder / f"{case}.json", "w") as fh:
                json.dump(recorder(case), fh, indent=1, sort_keys=True)
                fh.write("\n")
