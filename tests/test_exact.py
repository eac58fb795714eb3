import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscgeo import exact
from oscgeo.exact import (
    ExactScalar,
    PI,
    as_exact,
    exact_to_json,
    parse_exact,
    pi_bounds,
    pi_poly_sign,
)

rationals = st.fractions(max_denominator=50)


@pytest.mark.parametrize("read", [exact.rat, as_exact])
def test_booleans_are_not_numbers(read):
    # rat(True) and as_exact(True) were read as 1
    for b in (True, False):
        with pytest.raises(TypeError):
            read(b)


def test_zero_iff_both_components_zero():
    assert ExactScalar(0, 0).is_zero()
    assert ExactScalar(0, 0, 0).is_zero() and ExactScalar().is_zero()
    assert not ExactScalar(0, Fraction(1, 10**9)).is_zero()
    assert not ExactScalar(Fraction(1, 10**9), 0).is_zero()
    assert not ExactScalar(0, 0, Fraction(1, 10**9)).is_zero()


def test_arithmetic_basics():
    a = ExactScalar(Fraction(1, 2), Fraction(3, 4))
    b = ExactScalar(Fraction(1, 3), Fraction(-1, 4))
    assert a + b == ExactScalar(Fraction(5, 6), Fraction(1, 2))
    assert a - a == ExactScalar(0, 0)
    assert 2 * a == ExactScalar(1, Fraction(3, 2))
    assert a / 2 == ExactScalar(Fraction(1, 4), Fraction(3, 8))
    assert float(a) == pytest.approx(0.5 + 0.75 * math.pi)


def test_pi_times_pi_is_pi_squared():
    assert PI * PI == ExactScalar(0, 0, 1)
    assert (PI * PI).degree() == 2 and str(PI * PI) == "pi^2"
    assert (PI * PI) / PI == PI


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
        ("pi^2", ExactScalar(0, 0, 1)),
        ("1/2 + 2 pi^2", ExactScalar(Fraction(1, 2), 0, 2)),
        ("-3/4 pi^3 + pi - 1", ExactScalar(-1, 1, 0, Fraction(-3, 4))),
        ("pi^2/2", ExactScalar(0, 0, Fraction(1, 2))),
        ("pi^10", ExactScalar(*[0] * 10, 1)),
    ],
)
def test_parse(text, expected):
    assert parse_exact(text) == expected


@given(coeffs=st.lists(rationals, max_size=4))
def test_str_roundtrip(coeffs):
    x = ExactScalar(*coeffs)
    assert parse_exact(str(x)) == x


@pytest.mark.parametrize(
    "x,text",
    [
        (ExactScalar(), "0"),
        (ExactScalar(Fraction(-3, 2)), "-3/2"),
        (ExactScalar(0, 1), "pi"),
        (ExactScalar(0, -1), "-pi"),
        (ExactScalar(0, Fraction(-3, 4)), "-3/4 pi"),
        (ExactScalar(Fraction(1, 2), 1), "1/2 + pi"),
        (ExactScalar(Fraction(1, 2), -1), "1/2 - pi"),
        (ExactScalar(-3, Fraction(-1, 2)), "-3 - 1/2 pi"),
        (ExactScalar(Fraction(1, 2), 0, 2), "1/2 + 2 pi^2"),
        (ExactScalar(0, 0, -1), "-pi^2"),
        (ExactScalar(1, -2, 0, Fraction(1, 3)), "1 - 2 pi + 1/3 pi^3"),
    ],
)
def test_str_forms(x, text):
    # degree <= 1 prints as the q1 + q2*pi form always did
    assert str(x) == text


def test_parse_rejects_garbage():
    for bad in ("", "pi pi", "1 +", "2x", "2e3", "1.5"):
        with pytest.raises(ValueError):
            parse_exact(bad)


@given(coeffs=st.lists(rationals, max_size=4))
def test_json_roundtrip(coeffs):
    for x in (ExactScalar(2, 0), ExactScalar(Fraction(1, 2), 0), ExactScalar(0, 2),
              ExactScalar(*coeffs)):
        assert as_exact(exact_to_json(x)) == x
    assert exact_to_json(ExactScalar(2, 0)) == 2
    assert exact_to_json(ExactScalar(0, 0, 2)) == "2 pi^2"


def test_as_exact_rejects_float():
    with pytest.raises(TypeError):
        as_exact(0.5)


# -- ExactScalar against a Fraction evaluation of its coefficient lists --------

poly_coeffs = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=30), max_size=5
)
nonzero_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)


def _trim(coeffs) -> tuple:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b) -> tuple:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _ref_mul(a, b) -> tuple:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _assert_canonical(p: ExactScalar) -> None:
    """The one stored form: int numerators over one int den > 0, lowest
    terms, no trailing zero numerator."""
    assert type(p.num) is tuple and all(type(x) is int for x in p.num)
    assert type(p.den) is int and p.den > 0
    assert math.gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0
    assert all(type(c) is Fraction for c in p.coeffs)


@given(a=poly_coeffs, b=poly_coeffs)
def test_pi_poly_ring_ops_match_fraction_lists(a, b):
    p, q = ExactScalar(*a), ExactScalar(*b)
    assert p.coeffs == _trim(a)
    assert (p + q).coeffs == _ref_add(a, b)
    assert (p - q).coeffs == _ref_add(a, [-c for c in b])
    assert (-p).coeffs == _trim([-c for c in a])
    assert (p * q).coeffs == _ref_mul(a, b)
    assert (q * p).coeffs == _ref_mul(a, b)


@given(a=poly_coeffs, q1=rationals, q2=rationals, k=st.integers(-50, 50))
def test_pi_poly_mixed_operands_match_fraction_lists(a, q1, q2, k):
    # degree <= 1, ints, Fractions and rational strings, on either side
    p, e = ExactScalar(*a), ExactScalar(q1, q2)
    neg_a = [-c for c in a]
    assert (p + e).coeffs == (e + p).coeffs == _ref_add(a, [q1, q2])
    assert (p - e).coeffs == _ref_add(a, [-q1, -q2])
    assert (e - p).coeffs == _ref_add([q1, q2], neg_a)
    assert (p * e).coeffs == (e * p).coeffs == _ref_mul(a, [q1, q2])
    assert (p * k).coeffs == (k * p).coeffs == _trim([c * k for c in a])
    assert (p + k).coeffs == (k + p).coeffs == (k - (-p)).coeffs == _ref_add(a, [k])
    assert (p - k).coeffs == _ref_add(a, [-k])
    assert (p * q1).coeffs == (q1 * p).coeffs == _trim([c * q1 for c in a])
    assert (p + q1).coeffs == (q1 + p).coeffs == _ref_add(a, [q1])
    assert (q1 - p).coeffs == _ref_add([q1], neg_a)
    text = str(q1)
    assert (p + text).coeffs == (text + p).coeffs == _ref_add(a, [q1])
    assert (text - p).coeffs == _ref_add([q1], neg_a)


@given(a=poly_coeffs, c=nonzero_rationals, k=st.integers(0, 3))
def test_pi_poly_monomial_division(a, c, k):
    divisor = ExactScalar(*[0] * k, c)
    cs = _trim(a)
    if any(cs[:k]):
        with pytest.raises(ValueError, match=rf"division by pi\^{k} is not exact"):
            ExactScalar(*a) / divisor
    else:
        assert (ExactScalar(*a) / divisor).coeffs == _trim([x / c for x in cs[k:]])
        if k == 0:
            assert ExactScalar(*a) / divisor == ExactScalar(*a) / c == ExactScalar(*a) / str(c)


@given(a=poly_coeffs, b=st.lists(nonzero_rationals, min_size=2, max_size=3))
def test_pi_poly_division_needs_a_monomial(a, b):
    for divisor in (ExactScalar(*b), ExactScalar(), 0):
        with pytest.raises(ValueError, match="needs a monomial divisor"):
            ExactScalar(*a) / divisor


@given(a=poly_coeffs, b=poly_coeffs, zeros=st.integers(0, 3))
def test_pi_poly_equality_and_hash(a, b, zeros):
    p = ExactScalar(*a)
    padded = ExactScalar(*a, *[0] * zeros)
    assert p == padded and hash(p) == hash(padded)
    assert (p == ExactScalar(*b)) == (_trim(a) == _trim(b))
    assert p.degree() == len(_trim(a)) - 1
    assert p.is_zero() == (not _trim(a))


@given(a=poly_coeffs)
def test_to_fraction_and_float(a):
    cs, p = _trim(a), ExactScalar(*a)
    assert ExactScalar(*p.coeffs) == p
    if len(cs) <= 2:
        # float keeps the order of the q1 + q2*pi form
        q1, q2 = (*cs, Fraction(0), Fraction(0))[:2]
        assert float(p) == float(q1) + float(q2) * math.pi
    if len(cs) <= 1:
        x = p.to_fraction()
        assert type(x) is Fraction and x == (cs[0] if cs else 0)
    else:
        with pytest.raises(ValueError, match="not rational"):
            p.to_fraction()
    assert float(p) == pytest.approx(sum(float(c) * math.pi**i for i, c in enumerate(cs)))


@given(a=poly_coeffs, b=poly_coeffs, q1=rationals, q2=rationals, c=nonzero_rationals,
       k=st.integers(-50, 50))
def test_pi_poly_results_are_canonical(a, b, q1, q2, c, k):
    p, q, e = ExactScalar(*a), ExactScalar(*b), ExactScalar(q1, q2)
    results = [p, q, e, p + q, p - q, -p, p * q, p * k, p * c, e + p, c - p, c * p,
               as_exact(q1), as_exact(k), p / c, (p * ExactScalar(0, c)) / ExactScalar(0, c)]
    for r in results:
        _assert_canonical(r)


# -- pi_poly_sign against the Fraction-enclosure loop ----------------------------


def _reference_sign(coeffs) -> tuple[int, int | None]:
    """The Fraction loop pi_poly_sign ran before its int enclosure: the sign,
    and the precision of the enclosure that decided it (None if none did)."""
    cs = _trim(coeffs)
    if not cs:
        return 0, None
    if len(cs) == 1:
        return (-1 if cs[0] < 0 else 1), None
    prec = 64
    while True:
        lo, hi = pi_bounds(prec)
        val_lo, val_hi = cs[0], cs[0]
        p_lo, p_hi = Fraction(1), Fraction(1)
        for c in cs[1:]:
            p_lo, p_hi = p_lo * lo, p_hi * hi
            if c >= 0:
                val_lo += c * p_lo
                val_hi += c * p_hi
            else:
                val_lo += c * p_hi
                val_hi += c * p_lo
        if val_lo > 0:
            return 1, prec
        if val_hi < 0:
            return -1, prec
        prec *= 2


def _pi_convergent(min_bits: int) -> tuple[int, int]:
    """The first continued-fraction convergent p/q of pi with q >= 2**min_bits."""
    with mpmath.workprec(4 * min_bits + 64):
        x = +mpmath.pi
        h_prev, h, k_prev, k = 0, 1, 1, 0
        while k.bit_length() <= min_bits:
            a = int(mpmath.floor(x))
            h_prev, h, k_prev, k = h, a * h + h_prev, k, a * k + k_prev
            x = 1 / (x - a)
    return h, k


@given(coeffs=poly_coeffs)
def test_pi_poly_sign_matches_the_fraction_loop(coeffs):
    expected, _ = _reference_sign(coeffs)
    assert pi_poly_sign(coeffs) == expected
    assert ExactScalar(*coeffs).sign() == expected


# (bits of the convergent's denominator, precision the enclosure reaches)
ESCALATIONS = [(40, 128), (64, 256), (128, 512)]


@pytest.mark.parametrize("bits,prec", ESCALATIONS)
def test_pi_poly_sign_escalates_past_64_bits(bits, prec):
    p, q = _pi_convergent(bits)
    cases = [[-p, q], [p, -q], [p * p, 0, -q * q], [Fraction(-p, 7), Fraction(q, 7), 0]]
    for coeffs in cases:
        expected, reached = _reference_sign(coeffs)
        assert reached == prec
        assert pi_poly_sign(coeffs) == expected
        assert ExactScalar(*coeffs).sign() == expected


@pytest.mark.parametrize("bits,prec", ESCALATIONS)
def test_pi_poly_sign_asks_for_the_enclosures_of_the_fraction_loop(monkeypatch, bits, prec):
    p, q = _pi_convergent(bits)
    asked = []
    real = exact.pi_bounds
    monkeypatch.setattr(exact, "pi_bounds", lambda n: asked.append(n) or real(n))
    exact._pi_scaled.cache_clear()
    try:
        pi_poly_sign([-p, q])
    finally:
        exact._pi_scaled.cache_clear()
    expected = [64]
    while expected[-1] < prec:
        expected.append(2 * expected[-1])
    assert asked == expected


def test_int_enclosure_is_pi_bounds():
    for prec in (64, 128, 256, 512, 1024):
        lo, hi, den = exact._pi_scaled(prec)
        assert (Fraction(lo, den), Fraction(hi, den)) == pi_bounds(prec)
