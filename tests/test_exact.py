import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from bezoutiant.exact import (
    FloatRangeError,
    MPoly,
    Poly,
    _json_value,
    float_endpoint,
    parse_rational,
    to_floats,
)
from conftest import as_fractions, random_poly


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == F(-2)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("abc")


def test_gaussian_rational_lowest_terms():
    # an exact value is the integer triple (re, im, den), reduced once:
    # 2/4 + (6/8) i is (2 + 3i) / 4
    assert Poly.of((F(2, 4), F(6, 8)))(0) == (2, 3, 4)
    assert Poly.of(0, 4).integral(0, 1) == (2, 0, 1)
    assert Poly.of().integral(0, 1) == Poly.of()(5) == (0, 0, 1)


def test_json_roundtrip():
    q = Poly.of((F(1, 3), F(-2, 7)))
    assert q.to_json() == [{"re": "1/3", "im": "-2/7"}] == [_json_value(*q(0))]
    assert Poly.from_json(q.to_json()) == q
    assert Poly.from_json(["5/9"]) == Poly.of(F(5, 9))
    assert Poly.from_json([{"im": -3}]) == Poly.of((0, -3))
    for bad in (1.5, None, True, {"re": 0.5}, {"re": "1", "im": None}, {"im": [1]},
                {"re": "1", "imag": "2"}, {"real": "1"}, {}):
        with pytest.raises(ValueError, match="bad Gaussian rational literal"):
            Poly.from_json([bad])


def test_poly_eval_examples():
    assert Poly.of(0, 2)(F(1, 2)) == (1, 0, 1)
    assert Poly.of(0, -1, 1)(0) == (0, 0, 1)
    p = Poly.of(0, (0, 1), 3)  # 3t^2 + i t
    assert p(F(1, 3)) == (1, 1, 3)
    assert p((0, 1, 1)) == (-4, 0, 1)  # at t = i: 3 i^2 + i i = -4


def test_poly_definite_integral_examples():
    assert Poly.of(1).integral(0, 1) == (1, 0, 1)
    assert Poly.of(0, 1).integral(0, 1) == (1, 0, 2)
    assert Poly.of(0, 2, -1).integral(0, 2) == (4, 0, 3)
    assert Poly.of((0, 3)).integral(F(1, 2), 1) == (0, 3, 2)


def test_poly_derivative_examples():
    assert Poly.of(0, 0, 0, 1).derivative().derivative() == Poly.of(0, 6)
    assert Poly.of(5).derivative().is_zero
    assert Poly.of(0, 1, 2).derivative() == Poly.of(1, 4)


def test_poly_reflect_conj_examples():
    assert Poly.of(1).reflect(1) == Poly.of(1)
    assert Poly.of(0, 2).reflect(1) == Poly.of(2, -2)
    # p = i t, a = 2: conj(i(2 - t)) = -2i + i t
    assert Poly.of(0, (0, 1)).reflect(2) == Poly.of((0, -2), (0, 1))
    # without the conjugation, p(a - t) = 2i - i t
    assert Poly.of(0, (0, 1)).reflect(2).conjugate() == Poly.of((0, 2), (0, -1))


def test_compose_affine_examples():
    # the affine substitutions left on Poly are real: t -> a - t through
    # reflect, and t -> (a - b) + t through two reflections
    p = Poly.of(1, 2, 3)  # 1 + 2t + 3t^2
    assert p.reflect(1) == Poly.of(6, -8, 3)
    assert p.reflect(F(1, 2)) == Poly.of(F(11, 4), -5, 3)
    assert p.reflect(1).reflect(0) == Poly.of(6, 8, 3)  # p(1 + t)
    assert p.reflect(F(1, 2)).reflect(F(3, 2)) == Poly.of(2, -4, 3)  # p(t - 1)
    assert Poly.of().reflect(3).is_zero


def test_jet_examples():
    p = Poly.of(1, 2, 3)
    assert p.jet_numerators(1) == ([6, 8, 6], [0, 0, 0], 1)
    # at 1/2: 11/4, 5, 6 over the denominator 4 (k! and 2^k folded in)
    assert p.jet_numerators(F(1, 2)) == ([11, 5 * 4, 6 * 4], [0, 0, 0], 4)
    assert Poly.of().jet_numerators(2) == ([], [], 1)


def test_integral_additivity(rng):
    for _ in range(25):
        p = random_poly(rng, rng.randint(0, 6))
        lo, mid, hi = (F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        whole, left, right = (as_fractions(p.integral(*b)) for b in ((lo, hi), (lo, mid), (mid, hi)))
        assert whole == (left[0] + right[0], left[1] + right[1])


def test_reflect_involution(rng):
    for _ in range(25):
        p = random_poly(rng, rng.randint(0, 6))
        a = F(rng.randint(1, 5), rng.randint(1, 3))
        assert p.reflect(a).reflect(a) == p


def test_derivative_of_integral_is_integrand(rng):
    for _ in range(25):
        p = random_poly(rng, rng.randint(0, 6))
        assert p.antiderivative().derivative() == p


def test_zero_trimming_and_degree():
    assert Poly.of(0, 0).is_zero
    assert Poly.of(1, 0, 0).degree == 0
    assert Poly.of().degree == -1


def real_mpoly(rows, den=1):
    """The MPoly with real integer table `rows` over `den`."""
    return MPoly(rows, [[0] * len(row) for row in rows], den)


def test_mpoly_roundtrip():
    # 3x^2 + x t - 1/2 over den 2, with a zero column t^3 and a zero row x^3
    p = real_mpoly([[-1, 0, 0, 0], [0, 2, 0, 0], [6, 0, 0, 0], [0, 0, 0, 0]], 2)
    assert p.terms == [(0, 0, -1, 0), (1, 1, 2, 0), (2, 0, 6, 0)]
    assert p.eval(F(1, 2), 2) == (5, 0, 4)  # 3/4 + 1 - 1/2
    assert p.eval((0, 1, 1), 1) == (-7, 2, 2)  # -3 + i - 1/2
    # the same polynomial over another denominator, without the zero row and column
    assert p == real_mpoly([[-2, 0], [0, 4], [12, 0]], 4) and p != p * 2
    assert (p * (0, 1, 1)).eval(1, 1) == (0, 7, 2)
    assert (p * (0, 1, 1)).table == ([[0] * 4] * 4, [[-1, 0, 0, 0], [0, 2, 0, 0], [6, 0, 0, 0],
                                                    [0, 0, 0, 0]], 2)
    assert real_mpoly([[0]]).is_zero and real_mpoly([]).is_zero and not p.is_zero
    assert p.to_json()[0] == {"exp": [0, 0], "coeff": "-1/2"}
    assert p.to_json()[2] == {"exp": [2, 0], "coeff": "3"}


def test_mpoly_definite_integral():
    # int_0^t 2s ds = t^2;  int_t^3 2s t ds = 9t - t^3;  int_1^2 s t^2 ds = 3/2 t^2
    assert real_mpoly([[0], [2]]).definite_integral(0, "t") == Poly.of(0, 0, 1)
    assert real_mpoly([[0, 0], [0, 2]]).definite_integral("t", 3) == Poly.of(0, 9, 0, -1)
    assert real_mpoly([[0, 0, 0], [0, 0, 1]]).definite_integral(1, F(2)) == Poly.of(0, 0, F(3, 2))
    assert real_mpoly([]).definite_integral(0, "t").is_zero
    # int_0^1 (x/3 + i t) ds = 1/6 + i t, over den 3
    assert MPoly([[0, 0], [1, 0]], [[0, 3], [0, 0]], 3).definite_integral(0, 1) == Poly.of(
        F(1, 6), (0, 1))


def test_exact_core_imports_no_numpy():
    # the package re-exports nothing, so importing `bezoutiant.exact`
    # loads the standard library only
    import bezoutiant.exact
    src = str(Path(bezoutiant.exact.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, bezoutiant.exact; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_float_boundary_refuses_values_out_of_range():
    # a coefficient past 1.8e308 has no float; an endpoint a that rounds to
    # 0.0 would be divided by; tiny coefficients just round
    with pytest.raises(FloatRangeError, match="^a coefficient is beyond float range"):
        to_floats([1, 10 ** 400], 1, "a coefficient")
    assert to_floats([1, -1], 10 ** 400, "a coefficient") == [0.0, -0.0]
    with pytest.raises(FloatRangeError, match="rounds to 0.0"):
        float_endpoint(F(1, 10 ** 400))
    assert float_endpoint(F(7, 3)) == 7 / 3 and float_endpoint(F(5e-324)) == 5e-324
