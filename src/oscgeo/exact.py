"""Exact scalars of the form q1 + q2*pi with rational q1, q2.

Lattice z-components live in rational lattices while t-components live in
pi-rational lattices, so membership questions reduce to componentwise
rational arithmetic once numbers are kept in this split form.  Linear
independence of {1, pi} over the rationals makes equality and sign
decidable; signs are settled with shrinking rational enclosures of pi
(pi is transcendental, so any rational comparison terminates).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import mpmath

Rational = Fraction

_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_Q0 = Fraction(0)


def rat_add(a: Fraction, b: Fraction) -> Fraction:
    """a + b for two Fractions, building no new Fraction when one is zero."""
    return a + b if a and b else a or b


def rat(x) -> Fraction:
    """Coerce int / Fraction / rational string ('3/2') to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        if not _RAT_RE.match(s):
            raise ValueError(f"not a rational literal: {x!r}")
        return Fraction(s)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    val = Fraction(man) * (Fraction(2) ** exp)
    return -val if sign else val


def pi_bounds(prec: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure lo < pi < hi with width about 2**(2-prec)."""
    with mpmath.workprec(prec):
        apx = _mpf_to_fraction(+mpmath.pi)
    eps = Fraction(1, 2 ** (prec - 2))
    return apx - eps, apx + eps


def pi_poly_sign(coeffs) -> int:
    """Sign of sum(coeffs[k] * pi**k).

    Decidable because pi is transcendental: the value is zero only when
    every coefficient is zero.
    """
    cs = [rat(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return 0
    if len(cs) == 1:
        return -1 if cs[0] < 0 else 1
    prec = 64
    while True:
        lo, hi = pi_bounds(prec)
        val_lo, val_hi = cs[0], cs[0]
        p_lo, p_hi = Fraction(1), Fraction(1)
        for c in cs[1:]:
            p_lo, p_hi = p_lo * lo, p_hi * hi  # pi > 0 keeps powers ordered
            if c >= 0:
                val_lo += c * p_lo
                val_hi += c * p_hi
            else:
                val_lo += c * p_hi
                val_hi += c * p_lo
        if val_lo > 0:
            return 1
        if val_hi < 0:
            return -1
        prec *= 2
        if prec > 1 << 16:  # unreachable for nonzero polynomials
            raise RuntimeError("pi enclosure failed to separate sign")


@dataclass(frozen=True)
class ExactScalar:
    """The number q1 + q2*pi, componentwise exact."""

    q1: Fraction
    q2: Fraction

    def __init__(self, q1=0, q2=0):
        object.__setattr__(self, "q1", rat(q1))
        object.__setattr__(self, "q2", rat(q2))

    @classmethod
    def _of(cls, q1: Fraction, q2: Fraction) -> "ExactScalar":
        """Internal constructor for components that are already Fractions."""
        x = object.__new__(cls)
        object.__setattr__(x, "q1", q1)
        object.__setattr__(x, "q2", q2)
        return x

    # -- queries ----------------------------------------------------------

    def is_rational(self) -> bool:
        return self.q2 == 0

    def is_pi_multiple(self) -> bool:
        return self.q1 == 0

    def is_zero(self) -> bool:
        return self.q1 == 0 and self.q2 == 0

    def sign(self) -> int:
        return pi_poly_sign([self.q1, self.q2])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_exact(other)
        return ExactScalar._of(rat_add(self.q1, other.q1), rat_add(self.q2, other.q2))

    __radd__ = __add__

    def __sub__(self, other):
        other = as_exact(other)
        return ExactScalar._of(self.q1 - other.q1, self.q2 - other.q2)

    def __rsub__(self, other):
        return as_exact(other) - self

    def __neg__(self):
        return ExactScalar._of(-self.q1, -self.q2)

    def __mul__(self, other):
        other = as_exact(other)
        if self.is_rational():
            return ExactScalar._of(self.q1 * other.q1, self.q1 * other.q2)
        if other.is_rational():
            return ExactScalar._of(self.q1 * other.q1, self.q2 * other.q1)
        raise ValueError(
            "product of two irrational exact scalars leaves the q1 + q2*pi form"
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_exact(other)
        if other.is_zero():
            raise ZeroDivisionError("exact scalar division by zero")
        if other.is_rational():
            return ExactScalar._of(self.q1 / other.q1, self.q2 / other.q1)
        if other.is_pi_multiple() and self.is_pi_multiple():
            # (a*pi) / (b*pi) is rational
            return ExactScalar._of(self.q2 / other.q2, _Q0)
        raise ValueError("quotient leaves the q1 + q2*pi form")

    def __lt__(self, other):
        return (self - as_exact(other)).sign() < 0

    def __le__(self, other):
        return (self - as_exact(other)).sign() <= 0

    def __gt__(self, other):
        return (self - as_exact(other)).sign() > 0

    def __ge__(self, other):
        return (self - as_exact(other)).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        return float(self.q1) + float(self.q2) * math.pi

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        if self.q2 == 0:
            return str(self.q1)
        pi_part = "pi" if self.q2 == 1 else f"{self.q2} pi" if self.q2 != -1 else "-pi"
        if self.q1 == 0:
            return pi_part
        if self.q2 > 0:
            return f"{self.q1} + {pi_part}"
        return f"{self.q1} - {pi_part.lstrip('-')}"

    def __repr__(self) -> str:
        return f"ExactScalar({self.q1!r}, {self.q2!r})"


ZERO = ExactScalar(0, 0)
PI = ExactScalar(0, 1)


def as_exact(x) -> ExactScalar:
    """Lift int / Fraction / string / ExactScalar to ExactScalar."""
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactScalar._of(rat(x), _Q0)
    if isinstance(x, str):
        return parse_exact(x)
    raise TypeError(f"cannot lift {type(x).__name__} to ExactScalar")


# Accepted token forms: "3/2", "3/2 + 1/4 pi", "2pi", "-pi/2", "1/2 - pi".
_PI_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?\s*(?P<coef>\d+(?:/\d+)?)?\s*\*?\s*pi(?:\s*/\s*(?P<den>\d+))?$"
)


def _parse_term(term: str) -> ExactScalar:
    term = term.strip()
    if "pi" in term:
        m = _PI_TERM_RE.match(term)
        if not m:
            raise ValueError(f"bad pi term: {term!r}")
        q2 = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("sign") == "-":
            q2 = -q2
        if m.group("den"):
            q2 /= int(m.group("den"))
        return ExactScalar(0, q2)
    return ExactScalar(rat(term), 0)


def parse_exact(text: str) -> ExactScalar:
    """Parse the grammar  Q ( '+' Q 'pi' )?  and natural variants."""
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


class PiPoly:
    """Polynomial in pi with rational coefficients.

    Intermediate geodesic quantities (squares of pi-valued velocities and
    the like) leave the q1 + q2*pi form; carrying them as polynomials keeps
    every step exact.  Conversion back to ExactScalar requires degree <= 1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def lift(cls, x) -> "PiPoly":
        if isinstance(x, PiPoly):
            return x
        e = as_exact(x)
        return cls((e.q1, e.q2))

    def __add__(self, other):
        o = PiPoly.lift(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return PiPoly(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (o.coeffs[i] if i < len(o.coeffs) else 0)
                for i in range(n)
            ]
        )

    __radd__ = __add__

    def __neg__(self):
        return PiPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-PiPoly.lift(other))

    def __rsub__(self, other):
        return PiPoly.lift(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return PiPoly([c * other for c in self.coeffs])
        o = PiPoly.lift(other)
        if not self.coeffs or not o.coeffs:
            return PiPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return PiPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact division by a monomial c * pi^k."""
        o = PiPoly.lift(other)
        nz = [i for i, c in enumerate(o.coeffs) if c != 0]
        if len(nz) != 1:
            raise ValueError("pi-polynomial division needs a monomial divisor")
        k, c = nz[0], o.coeffs[nz[0]]
        if any(self.coeffs[i] != 0 for i in range(min(k, len(self.coeffs)))):
            raise ValueError(f"division by pi^{k} is not exact here")
        return PiPoly([x / c for x in self.coeffs[k:]])

    def __eq__(self, other):
        return self.coeffs == PiPoly.lift(other).coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def sign(self) -> int:
        return pi_poly_sign(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_exact(self) -> ExactScalar:
        if len(self.coeffs) > 2:
            raise ValueError(f"degree {self.degree()} exceeds the q1 + q2*pi form")
        c = self.coeffs + (Fraction(0),) * (2 - len(self.coeffs))
        return ExactScalar(c[0], c[1])

    def to_fraction(self) -> Fraction:
        if len(self.coeffs) > 1:
            raise ValueError("pi-polynomial is not rational")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __float__(self):
        return float(sum(float(c) * math.pi**i for i, c in enumerate(self.coeffs)))

    def __repr__(self):
        return f"PiPoly({list(self.coeffs)!r})"


def exact_to_json(x: ExactScalar):
    """JSON form: plain number for integers, string otherwise."""
    if x.is_rational() and x.q1.denominator == 1:
        return int(x.q1)
    return str(x)


def exact_from_json(obj) -> ExactScalar:
    if isinstance(obj, bool):
        raise TypeError("boolean is not a scalar")
    if isinstance(obj, int):
        return ExactScalar(obj, 0)
    if isinstance(obj, str):
        return parse_exact(obj)
    raise TypeError(f"cannot read exact scalar from {type(obj).__name__}")
