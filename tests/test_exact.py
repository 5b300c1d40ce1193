from fractions import Fraction as F

import pytest

from bezoutiant.exact import (
    GR,
    FloatRangeError,
    MPoly,
    Poly,
    float_endpoint,
    from_numerators,
    parse_rational,
    to_floats,
)
from conftest import random_gr, random_poly


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == F(-2)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("abc")


def test_gaussian_rational_field_ops():
    q = GR(F(1, 2), F(-3, 4))
    assert q.conjugate().conjugate() == q
    assert q * (1 / q) == GR(1)
    r = GR(F(2, 3), F(5))
    assert q * r == r * q
    assert (q * r) * q == q * (r * q)
    assert (q + r) - r == q


def test_gaussian_rational_lowest_terms():
    q = GR(F(2, 4), F(6, 8))
    assert q.re.denominator == 2 and q.re.numerator == 1
    assert q.im == F(3, 4)
    assert (q / q) == GR(1)


def test_json_roundtrip():
    from bezoutiant.exact import GaussianRational
    q = GR(F(1, 3), F(-2, 7))
    assert GaussianRational.from_json(q.to_json()) == q
    assert GaussianRational.from_json("5/9") == GR(F(5, 9))
    assert GaussianRational.from_json({"im": -3}) == GR(0, -3)
    for bad in (1.5, None, True, {"re": 0.5}, {"re": "1", "im": None}, {"im": [1]}):
        with pytest.raises(ValueError, match="bad Gaussian rational literal"):
            GaussianRational.from_json(bad)


def test_poly_eval_examples():
    assert Poly.of(0, 2)(F(1, 2)) == GR(1)
    assert Poly.of(0, -1, 1)(0) == GR(0)
    p = Poly.of(0, GR(0, 1), 3)  # 3t^2 + i t
    assert p(F(1, 3)) == GR(F(1, 3), F(1, 3))


def test_poly_definite_integral_examples():
    assert Poly.of(1).integral(0, 1) == GR(1)
    assert Poly.of(0, 1).integral(0, 1) == GR(F(1, 2))
    assert Poly.of(0, 2, -1).integral(0, 2) == GR(F(4, 3))


def test_poly_derivative_examples():
    assert Poly.of(0, 0, 0, 1).derivative().derivative() == Poly.of(0, 6)
    assert Poly.of(5).derivative().is_zero
    assert Poly.of(0, 1, 2).derivative() == Poly.of(1, 4)


def test_poly_reflect_conj_examples():
    assert Poly.of(1).reflect(1) == Poly.of(1)
    assert Poly.of(0, 2).reflect(1) == Poly.of(2, -2)
    # p = i t, a = 2: conj(i(2 - t)) = -2i + i t
    assert Poly.of(0, GR(0, 1)).reflect(2) == Poly.of(GR(0, -2), GR(0, 1))
    # without the conjugation, p(a - t) = 2i - i t
    assert Poly.of(0, GR(0, 1)).compose_affine(2, -1) == Poly.of(GR(0, 2), GR(0, -1))


def test_compose_affine_examples():
    p = Poly.of(1, 2, 3)  # 1 + 2t + 3t^2
    assert p.compose_affine(1, 1) == Poly.of(6, 8, 3)
    assert p.compose_affine(0, 2) == Poly.of(1, 4, 12)
    # p(i + (1/2) t) = -2 + 2i + (1 + 3i) t + (3/4) t^2
    assert p.compose_affine(GR(0, 1), F(1, 2)) == Poly.of(GR(-2, 2), GR(1, 3), F(3, 4))
    assert Poly.of().compose_affine(3, 5).is_zero


def test_jet_examples():
    p = Poly.of(1, 2, 3)
    assert from_numerators(*p.jet_numerators(1)) == (GR(6), GR(8), GR(6))
    assert Poly.of().jet_numerators(2) == ([], [], 1)


def test_integral_additivity(rng):
    for _ in range(25):
        p = random_poly(rng, rng.randint(0, 6))
        lo, mid, hi = (GR(F(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(3))
        assert p.integral(lo, hi) == p.integral(lo, mid) + p.integral(mid, hi)


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


def test_mpoly_roundtrip(rng):
    # 3x^2 + x t - 1/2, with zero terms dropped
    p = MPoly({(2, 0): 3, (1, 1): 1, (0, 0): GR(F(-1, 2)), (0, 3): 0})
    assert p.terms.keys() == {(2, 0), (1, 1), (0, 0)}
    assert p.eval(F(1, 2), 2) == GR(F(3, 4) + 1 - F(1, 2))
    assert p.eval(GR(0, 1), 1) == GR(-3, 1) + GR(F(-1, 2))
    assert p == MPoly(dict(p.terms)) and p != p * 2
    assert (p * GR(0, 1)).eval(1, 1) == GR(0, F(7, 2))
    assert MPoly({(0, 0): 0}).is_zero
    assert p.to_json()[0] == {"exp": [0, 0], "coeff": "-1/2"}


def test_mpoly_definite_integral():
    # int_0^t 2s ds = t^2;  int_t^3 2s t ds = 9t - t^3;  int_1^2 s t^2 ds = 3/2 t^2
    assert MPoly({(1, 0): 2}).definite_integral(0, "t") == Poly.of(0, 0, 1)
    assert MPoly({(1, 1): 2}).definite_integral("t", 3) == Poly.of(0, 9, 0, -1)
    assert MPoly({(1, 2): 1}).definite_integral(1, F(2)) == Poly.of(0, 0, F(3, 2))
    assert MPoly({}).definite_integral(0, "t").is_zero


def test_float_boundary_refuses_values_out_of_range():
    # a coefficient past 1.8e308 has no float; an endpoint a that rounds to
    # 0.0 would be divided by; tiny coefficients just round
    with pytest.raises(FloatRangeError, match="^a coefficient is beyond float range"):
        to_floats([1, 10 ** 400], 1, "a coefficient")
    assert to_floats([1, -1], 10 ** 400, "a coefficient") == [0.0, -0.0]
    with pytest.raises(FloatRangeError, match="rounds to 0.0"):
        float_endpoint(F(1, 10 ** 400))
    assert float_endpoint(F(7, 3)) == 7 / 3 and float_endpoint(F(5e-324)) == 5e-324
