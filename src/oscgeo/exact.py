"""Exact scalars: polynomials in pi with rational coefficients, Q[pi].

Lattice z-components live in rational lattices while t-components live in
pi-rational lattices; twists and closed-form geodesics multiply the two, so
z-components reach pi^2 and beyond.  One type, `ExactScalar`, holds every
exact coordinate.  Because pi is transcendental, a polynomial in pi is zero
only when every coefficient is, so equality is equality of coefficients and
signs are decidable: `pi_poly_sign` bounds the value over shrinking rational
enclosures of pi, which separates the sign of every nonzero polynomial.

An ExactScalar holds int numerators over one int denominator, and
`pi_poly_sign` compares int sums against an int form of each enclosure,
built once per precision.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from itertools import zip_longest

_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def rat(x) -> Fraction:
    """Coerce int / Fraction / rational string ('3/2') to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        if not _RAT_RE.match(s):
            raise ValueError(f"not a rational literal: {x!r}")
        return Fraction(s)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def pi_bounds(prec: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure lo < pi < hi with width about 2**(2-prec).  mpmath
    is imported here, its one user, so importing oscgeo does not load it."""
    import mpmath

    with mpmath.workprec(prec):
        _, man, exp, _ = (+mpmath.pi)._mpf_  # sign bit 0: pi > 0
    apx = Fraction(man) * (Fraction(2) ** exp)
    eps = Fraction(1, 2 ** (prec - 2))
    return apx - eps, apx + eps


_PRECISIONS = tuple(64 << k for k in range(11))  # the pi enclosures tried, in order


@functools.cache  # one entry per precision reached
def _pi_scaled(prec: int) -> tuple[int, int, int]:
    """pi_bounds(prec) as ints (lo, hi, den): lo / den < pi < hi / den."""
    lo, hi = pi_bounds(prec)
    den = math.lcm(lo.denominator, hi.denominator)
    return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den


def _enclose(num, prec: int) -> tuple[int, int]:
    """(lo, hi) with lo <= den**degree * sum(num[k] pi**k) <= hi over the int
    enclosure _pi_scaled(prec) = (.., .., den); pi > 0 keeps powers ordered."""
    lo, hi, den = _pi_scaled(prec)
    val_lo = val_hi = num[0]
    p_lo = p_hi = 1
    for c in num[1:]:
        p_lo, p_hi = p_lo * lo, p_hi * hi
        if c >= 0:
            val_lo = val_lo * den + c * p_lo
            val_hi = val_hi * den + c * p_hi
        else:
            val_lo = val_lo * den + c * p_hi
            val_hi = val_hi * den + c * p_lo
    return val_lo, val_hi


def pi_poly_sign(coeffs) -> int:
    """Sign of sum(coeffs[k] * pi**k), for an ExactScalar or a sequence of rationals.

    Decidable because pi is transcendental: the value is zero only when
    every coefficient is zero.  The sum is bounded over the enclosure
    pi_bounds(prec), prec in _PRECISIONS, until the bounds share a sign;
    `_enclose` scales both by den**degree > 0, so they stay ints.
    """
    num = (coeffs if isinstance(coeffs, ExactScalar) else ExactScalar(*coeffs)).num
    if not num:
        return 0
    if len(num) == 1:
        return -1 if num[0] < 0 else 1
    for prec in _PRECISIONS:
        val_lo, val_hi = _enclose(num, prec)
        if val_lo > 0:
            return 1
        if val_hi < 0:
            return -1
    raise RuntimeError("pi enclosure failed to separate sign")  # never for a nonzero value


def poly_mul(p, q) -> list:
    """The coefficients of the product of two polynomials in pi, each given
    by a sequence of int coefficients, lowest degree first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _scalar(num: list, den: int) -> "ExactScalar":
    """The ExactScalar with numerators num over den, for a list of ints and
    an int den > 0; trimmed and reduced to lowest terms here."""
    while num and not num[-1]:
        num.pop()
    common = math.gcd(den, *num)
    if common != 1:
        num, den = [x // common for x in num], den // common
    x = object.__new__(ExactScalar)
    x.num, x.den = tuple(num), den
    return x


class ExactScalar:
    """The number c0 + c1 pi + c2 pi^2 + ..., built as ExactScalar(c0, c1, ...)
    from ints, Fractions or rational strings.

    Coefficient k is num[k] / den, for a tuple of ints over one int den > 0
    with gcd(den, *num) == 1 and no trailing zero, so equal numbers have
    equal fields (zero is num == ()).  Arithmetic runs on the ints, one gcd
    per result; ints, Fractions and rational strings mix in on either side.
    Division needs a monomial divisor c pi^k.  `coeffs` is a Fraction view
    built when read.
    """

    __slots__ = ("num", "den")

    def __init__(self, *coeffs):
        cs = [rat(c) for c in coeffs]
        den = math.lcm(*[c.denominator for c in cs])
        x = _scalar([c.numerator * (den // c.denominator) for c in cs], den)
        self.num, self.den = x.num, x.den

    _of = staticmethod(_scalar)  # internal constructor from ints

    # -- queries ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, lowest degree first."""
        return tuple([Fraction(x, self.den) for x in self.num])

    def degree(self) -> int:
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def sign(self) -> int:
        return pi_poly_sign(self)

    def to_fraction(self) -> Fraction:
        if len(self.num) > 1:
            raise ValueError("pi-polynomial is not rational")
        return Fraction(self.num[0], self.den) if self.num else Fraction(0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is ExactScalar else as_exact(other)
        if not o.num:
            return self
        if not self.num:
            return o
        d1, d2 = self.den, o.den
        if d1 == d2:
            return _scalar([x + y for x, y in zip_longest(self.num, o.num, fillvalue=0)], d1)
        out = [x * d2 + y * d1 for x, y in zip_longest(self.num, o.num, fillvalue=0)]
        return _scalar(out, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        x = object.__new__(ExactScalar)
        x.num, x.den = tuple([-c for c in self.num]), self.den
        return x

    def __sub__(self, other):
        o = other if type(other) is ExactScalar else as_exact(other)
        return self + -o

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is int:
            return _scalar([x * other for x in self.num], self.den)
        o = other if type(other) is ExactScalar else as_exact(other)
        return _scalar(poly_mul(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact division by a monomial c * pi^k."""
        o = other if type(other) is ExactScalar else as_exact(other)
        nz = [i for i, c in enumerate(o.num) if c]
        if len(nz) != 1:
            raise ValueError("pi-polynomial division needs a monomial divisor")
        k = nz[0]
        if any(self.num[:k]):
            raise ValueError(f"division by pi^{k} is not exact here")
        c = o.num[k]  # the divisor is (c / o.den) pi^k
        scale = o.den if c > 0 else -o.den
        return _scalar([x * scale for x in self.num[k:]], abs(c) * self.den)

    def __eq__(self, other):
        if type(other) is not ExactScalar:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        """The float sum of the terms, unless two or more cancel to within
        2^-40 of their size: then the value rounded from pi enclosures."""
        num, den = self.num, self.den
        total = num[0] / den if num else 0.0
        size = abs(total)
        for k in range(1, len(num)):
            term = num[k] / den * math.pi**k
            total, size = total + term, size + abs(term)
        if not abs(total) <= 2.0**-40 * size < math.inf or sum(map(bool, num)) < 2:
            return total  # no cancellation, an overflow, or one term
        for prec in _PRECISIONS:  # the value is irrational: its bounds round alike at last
            lo, hi = _enclose(num, prec)
            scale = _pi_scaled(prec)[2] ** (len(num) - 1) * den
            if lo / scale == hi / scale:
                return lo / scale
        raise RuntimeError("pi enclosure failed to round the value")

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        out = ""
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                term = str(c)
            else:
                power = "pi" if k == 1 else f"pi^{k}"
                term = power if c == 1 else f"-{power}" if c == -1 else f"{c} {power}"
            if not out:
                out = term
            else:
                out += f" + {term}" if c > 0 else f" - {term.lstrip('-')}"
        return out or "0"

    def __repr__(self) -> str:
        cs = (*self.coeffs, Fraction(0), Fraction(0))[: max(2, len(self.num))]
        return f"ExactScalar({', '.join(map(repr, cs))})"


ZERO = ExactScalar()
PI = ExactScalar(0, 1)


def as_exact(x) -> ExactScalar:
    """Lift int / Fraction / string / ExactScalar to ExactScalar."""
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return _scalar([x.numerator], x.denominator)
    if isinstance(x, str):
        return parse_exact(x)
    raise TypeError(f"cannot lift {type(x).__name__} to ExactScalar")


def pi_coefficient(x: ExactScalar) -> tuple[int, int] | None:
    """(n, d) with x == (n / d) pi in lowest terms and d > 0, or None when x
    is not a rational multiple of pi."""
    num = x.num
    if not num:
        return 0, 1
    if len(num) == 2 and not num[0]:
        return num[1], x.den
    return None


def rational_ratio(x: ExactScalar, y: ExactScalar) -> tuple[int, int] | None:
    """(n, d) with x == (n / d) y in lowest terms and d > 0, for a nonzero y,
    or None when x / y is not rational: x and y must be proportional
    coefficient by coefficient."""
    if not x.num:
        return 0, 1
    if len(x.num) != len(y.num):
        return None
    k = next(i for i, c in enumerate(y.num) if c)
    p, q = x.num[k], y.num[k]
    if any(a * q != b * p for a, b in zip(x.num, y.num)):
        return None
    n, d = p * y.den, q * x.den
    g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
    return n // g, d // g


# Accepted token forms: "3/2", "3/2 + 1/4 pi", "2pi", "-pi/2", "1/2 - pi", "2 pi^2".
_PI_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?\s*(?P<coef>\d+(?:/\d+)?)?\s*\*?\s*pi"
    r"(?:\s*\^\s*(?P<power>\d+))?(?:\s*/\s*(?P<den>\d+))?$"
)


def _parse_term(term: str) -> ExactScalar:
    term = term.strip()
    if "pi" in term:
        m = _PI_TERM_RE.match(term)
        if not m:
            raise ValueError(f"bad pi term: {term!r}")
        c = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("sign") == "-":
            c = -c
        if m.group("den"):
            c /= int(m.group("den"))
        return ExactScalar(*[0] * int(m.group("power") or 1), c)
    return as_exact(rat(term))


def parse_exact(text: str) -> ExactScalar:
    """Parse a sum of terms  Q  and  Q pi^k  (k defaults to 1), and natural variants."""
    s = text.strip().replace("π", "pi")
    if not s:
        raise ValueError("empty exact scalar")
    # split on +/- while keeping signs attached to the following term
    parts = re.split(r"(?<=[0-9a-z\s])\s*([+-])\s*", s)
    terms: list[str] = []
    current = parts[0]
    for i in range(1, len(parts), 2):
        terms.append(current)
        current = parts[i] + parts[i + 1]
    terms.append(current)
    total = ZERO
    for term in terms:
        if term.strip() in ("", "+", "-"):
            raise ValueError(f"bad exact scalar: {text!r}")
        total = total + _parse_term(term)
    return total


def exact_to_json(x: ExactScalar):
    """JSON form: plain number for integers, string otherwise."""
    if len(x.num) <= 1 and x.den == 1:
        return x.num[0] if x.num else 0
    return str(x)

