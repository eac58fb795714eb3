import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscgeo.exact import (
    ExactScalar,
    PI,
    as_exact,
    exact_from_json,
    exact_to_json,
    parse_exact,
    pi_poly_sign,
)

rationals = st.fractions(max_denominator=50)


def test_zero_iff_both_components_zero():
    assert ExactScalar(0, 0).is_zero()
    assert not ExactScalar(0, Fraction(1, 10**9)).is_zero()
    assert not ExactScalar(Fraction(1, 10**9), 0).is_zero()


def test_arithmetic_basics():
    a = ExactScalar(Fraction(1, 2), Fraction(3, 4))
    b = ExactScalar(Fraction(1, 3), Fraction(-1, 4))
    assert a + b == ExactScalar(Fraction(5, 6), Fraction(1, 2))
    assert a - a == ExactScalar(0, 0)
    assert 2 * a == ExactScalar(1, Fraction(3, 2))
    assert a / 2 == ExactScalar(Fraction(1, 4), Fraction(3, 8))
    assert float(a) == pytest.approx(0.5 + 0.75 * math.pi)


def test_pi_times_pi_rejected():
    with pytest.raises(ValueError):
        PI * PI


def test_pi_over_pi_is_rational():
    assert (2 * PI) / PI == ExactScalar(2, 0)


@given(q1=rationals, q2=rationals)
def test_sign_matches_float(q1, q2):
    x = ExactScalar(q1, q2)
    val = float(q1) + float(q2) * math.pi
    if abs(val) > 1e-9:
        assert x.sign() == (1 if val > 0 else -1)
    if q1 == 0 and q2 == 0:
        assert x.sign() == 0


def test_ordering():
    assert ExactScalar(3, 0) < PI < ExactScalar(Fraction(22, 7), 0)
    assert ExactScalar(0, 1) > 0
    assert -PI < 0


@given(coeffs=st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=12),
                       min_size=1, max_size=4))
def test_pi_poly_sign_matches_mpmath(coeffs):
    with mpmath.workdps(200):
        val = sum(mpmath.mpf(c.numerator) / c.denominator * mpmath.pi**k
                  for k, c in enumerate(coeffs))
        expected = 0 if val == 0 else 1 if val > 0 else -1
    assert pi_poly_sign(coeffs) == expected


def test_pi_poly_sign():
    # pi^2 is between 9.8 and 9.9
    assert pi_poly_sign([Fraction(-98, 10), 0, 1]) == 1
    assert pi_poly_sign([Fraction(-99, 10), 0, 1]) == -1
    assert pi_poly_sign([0, 0, 0]) == 0
    assert pi_poly_sign([0, Fraction(-1, 7)]) == -1


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3/2", ExactScalar(Fraction(3, 2), 0)),
        ("1/2 + 3/4 pi", ExactScalar(Fraction(1, 2), Fraction(3, 4))),
        ("2pi", ExactScalar(0, 2)),
        ("pi", ExactScalar(0, 1)),
        ("-pi", ExactScalar(0, -1)),
        ("pi/2", ExactScalar(0, Fraction(1, 2))),
        ("-3 - 1/2 pi", ExactScalar(-3, Fraction(-1, 2))),
        ("0", ExactScalar(0, 0)),
        ("1/2pi", ExactScalar(0, Fraction(1, 2))),
    ],
)
def test_parse(text, expected):
    assert parse_exact(text) == expected


@given(q1=rationals, q2=rationals)
def test_str_roundtrip(q1, q2):
    x = ExactScalar(q1, q2)
    assert parse_exact(str(x)) == x


def test_parse_rejects_garbage():
    for bad in ("", "pi pi", "1 +", "2x", "2e3", "1.5"):
        with pytest.raises(ValueError):
            parse_exact(bad)


def test_json_roundtrip():
    for x in (ExactScalar(2, 0), ExactScalar(Fraction(1, 2), 0), ExactScalar(0, 2)):
        assert exact_from_json(exact_to_json(x)) == x
    assert exact_to_json(ExactScalar(2, 0)) == 2


def test_as_exact_rejects_float():
    with pytest.raises(TypeError):
        as_exact(0.5)
