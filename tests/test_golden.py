"""Exact outputs on the fixture corpus, compared with recorded golden files.

Each golden file holds the `decide`+`kernel` report (without its
provenance block) and the Laurent coefficients and moments of F_1 and
F_{2,1}.  Every entry is an exact rational string, so equality here means
bit-identical exact output.

To record the files again (only after a deliberate change of an exact
output), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from bezoutiant.cli import ProblemSpec, run
from bezoutiant.transform import closed_form, reflected_transform

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
CASES = sorted(p.stem for p in FIXTURES.glob("*.json") if p.stem != "bad_rational")


def _transform_json(F):
    return {
        "osc": [c.to_json() for c in F.osc],
        "plain": [c.to_json() for c in F.plain],
        "moments": [c.to_json() for c in F.moments],
    }


def record(name: str) -> dict:
    path = FIXTURES / f"{name}.json"
    report, code = run(path, None, tasks=("decide", "kernel"))
    report.pop("provenance")
    spec = ProblemSpec.from_json(json.loads(path.read_text()))
    return {
        "exit_code": code,
        "report": report,
        "F1": _transform_json(closed_form(spec.psi1, spec.a)),
        "F21": _transform_json(reflected_transform(spec.psi2, spec.a)),
    }


@pytest.mark.parametrize("name", CASES)
def test_golden_exact_outputs(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    # round-trip through JSON so tuples and lists compare alike
    got = json.loads(json.dumps(record(name)))
    assert got == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        with open(GOLDEN / f"{case}.json", "w") as fh:
            json.dump(record(case), fh, indent=1, sort_keys=True)
            fh.write("\n")
