"""The oscillator group on R x R^2n x R: product, inversion, conjugation.

Product law:
    (z1, v1, t1) . (z2, v2, t2)
        = (z1 + z2 + (1/2) v1^T J R(t1) v2,  v1 + R(t1) v2,  t1 + t2)

with R(t) the block rotation by angles lambda_i * t and J the block matrix
with 2x2 blocks [[0, 1], [-1, 0]].  This sign of J is forced by the
requirement that the closed-form geodesics are one-parameter subgroups
(tested in the geodesics suite).

A rotation R(t) is held as one (cos, sin) pair per block and applied pair
by pair; no dense 2n x 2n matrix is built.

Exact mode keeps z and t as ExactScalar, polynomials in pi held as int
numerators over one int denominator, and v as `num / den`: a tuple of ints
over one int den > 0 with gcd(den, *num) == 1, so equal elements have equal
fields; `v` is a Fraction view built on first read.  Exact rotations need
every lambda_i * t in (pi/2)Z (`is_quarter_turn`), that is t a whole
multiple m of the unit in the frequency list's one quarter-turn table
(`FrequencyList.quarter_turns`); `rotation` reads R(t) off that table as a
signed quarter turn per block, with cos and sin in {0, 1, -1}, so
`rotate_pairs` maps int vectors to int vectors.  The exact product is int
arithmetic: the pairing v1^T J R(t1) v2 is one int sum added to z as
pair / (2 d1 d2), z and t are summed on their ints, and v1 + R(t1) v2 is
n1 d2 + n2 d1 over d1 d2 (n1 + n2 over d when d1 == d2), reduced by one
gcd.  Floats take two one-pass kernels on tuples, `_product` and `_inverse`:
per block R(t1) v2 = (c x - s y, s x + c y) with c, s of lambda_i t1 from
`math`, the pairing summed as (pair + x1 ry) - y1 rx, z = (z1 + z2) + pair / 2.

Conjugation has the closed form, for h = (a, u, s) and g = (z, v, t),

    h g h^(-1) = (z + (1/2) u^T J R(s) v - (1/2) (u + R(s) v)^T J R(t) u,
                  u + R(s) v - R(t) u,  t),

which exact `conjugate` evaluates in one int pass: with u = un / du,
v = vn / dv, rv = R(s) vn and ru = R(t) un, the int
du <un, rv> - dv <un, ru> - du <rv, ru> (<x, y> = x^T J y) is added to z
over 2 du^2 dv, and v is un dv + rv du - ru dv over du dv, reduced by one
gcd.  Floats keep the composed form (h g) h^(-1), formed on the kernels'
tuples; `conjugation(h, freqs)` is conjugation by one h, which forms a
float h^(-1) once for every g it is applied to.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError
from fractions import Fraction
from typing import Sequence

from .algebra import FrequencyList
from .exact import (
    ExactScalar,
    as_exact,
    exact_to_json,
    pi_coefficient,
    rat,
)


class ExactModeUnsupportedAngle(ValueError):
    """Rotation angle is not an integer multiple of pi/2 for some block."""


def quarter_turn_count(t: ExactScalar, freqs: FrequencyList) -> int | None:
    """m with t = m (pi/2) L / G, the unit of `FrequencyList.quarter_turns`,
    or None when some block angle lambda_i * t is not a multiple of pi/2."""
    pc = pi_coefficient(t)
    if pc is None:
        return None
    lcm, two_gcd, _ = freqs.quarter_turns
    m, rest = divmod(pc[0] * two_gcd, pc[1] * lcm)
    return None if rest else m


def is_quarter_turn(t: ExactScalar, freqs: FrequencyList) -> bool:
    """Whether every block angle lambda_i * t is an integer multiple of pi/2."""
    return quarter_turn_count(t, freqs) is not None


def rotate_pairs(cos_sin: Sequence, v: Sequence) -> tuple:
    """Apply [[c, -s], [s, c]] to each pair (v[2i], v[2i+1]), one (c, s) per pair."""
    out = []
    for (c, s), x, y in zip(cos_sin, v[0::2], v[1::2], strict=True):
        out.extend((c * x - s * y, s * x + c * y))
    return tuple(out)


def rotation(t, freqs: FrequencyList) -> tuple:
    """R(t) = exp(t N_lambda) as one (cos, sin) per block: signed quarter
    turns, ints, for an ExactScalar t, whose every lambda_i*t must then lie
    in (pi/2)Z; floats otherwise."""
    if isinstance(t, ExactScalar):
        m = quarter_turn_count(t, freqs)
        if m is not None:
            _, _, rows = freqs.quarter_turns
            return rows[m % 4]
        pc = pi_coefficient(t)
        if pc is None:
            part = "a nonzero rational part" if t.num[0] else "a power of pi above 1"
            raise ExactModeUnsupportedAngle(
                f"angle {t} has {part}; rotation entries would be irrational"
            )
        angle = next(a for a in (lam * Fraction(*pc) for lam in freqs.lambdas)
                     if (2 * a).denominator != 1)
        raise ExactModeUnsupportedAngle(f"angle {angle}*pi is not a multiple of pi/2")
    tf = float(t)
    return tuple([(math.cos(lam * tf), math.sin(lam * tf)) for lam in freqs.floats])


def _product(z1: float, v1: tuple, t1: float, z2: float, v2: tuple, t2: float,
             lams: tuple) -> tuple:
    """(z, v, t) of (z1, v1, t1)(z2, v2, t2) on floats, one pass over the blocks."""
    pair, v = -0.0, []  # -0.0 + x is x, signed zeros too
    for lam, x1, y1, x, y in zip(lams, v1[0::2], v1[1::2], v2[0::2], v2[1::2]):
        angle = lam * t1
        c, s = math.cos(angle), math.sin(angle)
        rx, ry = c * x - s * y, s * x + c * y
        pair = (pair + x1 * ry) - y1 * rx
        v += (x1 + rx, y1 + ry)
    return (z1 + z2) + pair / 2, tuple(v), t1 + t2


def _inverse(z: float, v: tuple, t: float, lams: tuple) -> tuple:
    """(z, v, t)^(-1) = (-z, -R(-t) v, -t) on floats, one pass over the blocks."""
    t = -t
    out = []
    for lam, x, y in zip(lams, v[0::2], v[1::2]):
        angle = lam * t
        c, s = math.cos(angle), math.sin(angle)
        out += (-(c * x - s * y), -(s * x + c * y))
    return -z, tuple(out), t


def int_pairing(u: Sequence[int], w: Sequence[int]) -> int:
    """u^T J w for int vectors, as one exact sum."""
    return sum([a * d - b * c for a, b, c, d in zip(u[0::2], u[1::2], w[0::2], w[1::2])])


class GroupElement:
    """Element (z, v, t); z and t share the mode of the v entries.

    Exact elements hold v = num / den in lowest terms (module docstring);
    float elements hold v as floats, with num and den None.
    """

    __slots__ = ("z", "num", "den", "t", "_v")

    def __init__(self, z, v: Sequence, t):
        v = tuple(v)
        if len(v) % 2 != 0:
            raise ValueError("v must have even length 2n")
        if (
            isinstance(z, _EXACT_SCALARS)
            and isinstance(t, _EXACT_SCALARS)
            and all(isinstance(x, _EXACT_ENTRIES) for x in v)
        ):
            # ints and Fractions are in lowest terms, so scaling them to
            # their least common denominator leaves gcd(den, *num) == 1
            v = [rat(x) if isinstance(x, str) else x for x in v]
            den = math.lcm(*[x.denominator for x in v])
            num = tuple([x.numerator * (den // x.denominator) for x in v])
            _init(self, as_exact(z), num, den, as_exact(t), None)
        else:
            _init(self, float(z), None, None, float(t), tuple(float(x) for x in v))

    @classmethod
    def _exact(cls, z: ExactScalar, num: tuple, den: int, t: ExactScalar) -> "GroupElement":
        """Internal constructor: v = num / den for a tuple of ints over an
        int den > 0, reduced here to lowest terms."""
        common = math.gcd(den, *num)
        if common != 1:
            num, den = tuple([x // common for x in num]), den // common
        g = object.__new__(cls)
        _init(g, z, num, den, t, None)
        return g

    @classmethod
    def _of(cls, z: float, v: tuple, t: float) -> "GroupElement":
        """Internal constructor of a float element, without coercion."""
        g = object.__new__(cls)
        _SET_Z(g, z)
        _SET_NUM(g, None)
        _SET_DEN(g, None)
        _SET_T(g, t)
        _SET_V(g, v)
        return g

    @property
    def v(self) -> tuple:
        """The v coordinates: floats, or Fractions read from num / den."""
        v = self._v
        if v is None:
            den = self.den
            v = tuple([Fraction(x, den) for x in self.num])
            _SET_V(self, v)
        return v

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        if self.num is None:
            return (self.z, self._v, self.t)
        return (self.z, self.num, self.den, self.t)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return f"GroupElement(z={self.z!r}, v={self.v!r}, t={self.t!r})"

    @property
    def n(self) -> int:
        return len(self._v if self.num is None else self.num) // 2

    @property
    def mode(self) -> str:
        return "float" if self.num is None else "exact"

    def is_exact(self) -> bool:
        return self.num is not None

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        return cls(0, (0,) * (2 * n), 0)

    def to_floats(self) -> "GroupElement":
        """The float element; an exact v entry is num / den on the ints,
        the float that float(Fraction(num, den)) gives."""
        if self.num is None:
            return GroupElement._of(self.z, self._v, self.t)
        den = self.den
        return GroupElement._of(float(self.z), tuple([x / den for x in self.num]), float(self.t))

    def coords(self) -> list:
        v = self._v  # None until an exact element's v is first read
        return [self.z, *(self.v if v is None else v), self.t]

    def is_identity(self) -> bool:
        if self.is_exact():
            return self.z.is_zero() and self.t.is_zero() and not any(self.num)
        return all(c == 0 for c in self.coords())

    def to_json(self) -> dict:
        """JSON form; an exact v entry is an int, or "num/den" in lowest
        terms read off num and den by one gcd, as str(Fraction) writes it."""
        if self.num is None:
            return {"z": self.z, "v": list(self._v), "t": self.t}
        den, v = self.den, []
        for x in self.num:
            g = math.gcd(x, den)
            v.append(x // g if g == den else f"{x // g}/{den // g}")
        return {"z": exact_to_json(self.z), "v": v, "t": exact_to_json(self.t)}

    @classmethod
    def from_json(cls, obj: dict) -> "GroupElement":
        try:
            z, v, t = obj["z"], obj["v"], obj["t"]
        except KeyError as exc:  # bad input; the message quotes the missing key
            raise ValueError(str(exc)) from None
        if isinstance(z, float) or isinstance(t, float) or any(
            isinstance(x, float) for x in v
        ):
            return cls(float(z), [float(x) for x in v], float(t))
        return cls(as_exact(z), [rat(x) for x in v], as_exact(t))


_EXACT_SCALARS = (ExactScalar, int, Fraction, str)
_EXACT_ENTRIES = (int, Fraction, str)


# the slots' own setters, which bypass the frozen __setattr__
_SET_Z, _SET_NUM, _SET_DEN, _SET_T, _SET_V = (
    GroupElement.__dict__[name].__set__ for name in GroupElement.__slots__
)


def _init(g: GroupElement, z, num, den, t, v) -> None:
    _SET_Z(g, z)
    _SET_NUM(g, num)
    _SET_DEN(g, den)
    _SET_T(g, t)
    _SET_V(g, v)


def _check_pair(g1: GroupElement, g2: GroupElement, freqs: FrequencyList) -> None:
    # the lengths of v against 2n, read without the `n` properties: every
    # multiply and conjugate passes here
    n2 = 2 * len(freqs.lambdas)
    if (len(g1._v if g1.num is None else g1.num) != n2
            or len(g2._v if g2.num is None else g2.num) != n2):
        raise ValueError("group element dimension does not match frequencies")
    if (g1.num is None) != (g2.num is None):
        raise ValueError(f"mixed modes: {g1.mode} vs {g2.mode}")


def multiply(g1: GroupElement, g2: GroupElement, freqs: FrequencyList) -> GroupElement:
    _check_pair(g1, g2, freqs)
    if g1.num is None:
        return GroupElement._of(*_product(g1.z, g1._v, g1.t, g2.z, g2._v, g2.t, freqs.floats))
    z = g1.z + g2.z
    n1, d1, d2 = g1.num, g1.den, g2.den
    rn2 = rotate_pairs(rotation(g1.t, freqs), g2.num)
    pair = int_pairing(n1, rn2)
    if pair:  # (1/2) v1^T J R v2 = pair / (2 d1 d2)
        z = z + ExactScalar._of([pair], 2 * d1 * d2)
    if d1 == d2:
        num, den = tuple([a + b for a, b in zip(n1, rn2)]), d1
    else:
        num, den = tuple([a * d2 + b * d1 for a, b in zip(n1, rn2)]), d1 * d2
    return GroupElement._exact(z, num, den, g1.t + g2.t)


def invert(g: GroupElement, freqs: FrequencyList) -> GroupElement:
    """(z, v, t)^(-1) = (-z, -R(-t) v, -t)."""
    if g.n != freqs.n:
        raise ValueError("group element dimension does not match frequencies")
    if g.num is None:
        return GroupElement._of(*_inverse(g.z, g._v, g.t, freqs.floats))
    r = rotation(-g.t, freqs)
    return GroupElement._exact(-g.z, tuple([-x for x in rotate_pairs(r, g.num)]), g.den, -g.t)


def conjugate(h: GroupElement, g: GroupElement, freqs: FrequencyList) -> GroupElement:
    """h g h^(-1): one int pass on exact elements (module docstring), the
    composed product on floats."""
    _check_pair(h, g, freqs)
    if h.num is None:
        lams = freqs.floats
        hg = _product(h.z, h._v, h.t, g.z, g._v, g.t, lams)
        return GroupElement._of(*_product(*hg, *_inverse(h.z, h._v, h.t, lams), lams))
    un, du, vn, dv = h.num, h.den, g.num, g.den
    rv = rotate_pairs(rotation(h.t, freqs), vn)
    ru = rotate_pairs(rotation(g.t, freqs), un)
    z = g.z
    pair = du * int_pairing(un, rv) - dv * int_pairing(un, ru) - du * int_pairing(rv, ru)
    if pair:
        z = z + ExactScalar._of([pair], 2 * du * du * dv)
    num = tuple([a * dv + b * du - c * dv for a, b, c in zip(un, rv, ru)])
    return GroupElement._exact(z, num, du * dv, g.t)


def conjugation(h: GroupElement, freqs: FrequencyList):
    """The map g -> conjugate(h, g, freqs), bit for bit; on floats h^(-1)
    is formed once, here, and not again per g."""
    if h.num is not None:
        return lambda g: conjugate(h, g, freqs)
    lams, hz, hv, ht = freqs.floats, h.z, h._v, h.t
    h_inv = _inverse(hz, hv, ht, lams)

    def conj(g: GroupElement) -> GroupElement:
        _check_pair(h, g, freqs)
        return GroupElement._of(*_product(*_product(hz, hv, ht, g.z, g._v, g.t, lams), *h_inv, lams))

    return conj


def max_coord_dist(g1: GroupElement, g2: GroupElement) -> float:
    """Largest coordinate distance; nan when any distance is nan, which
    max() would keep only in first place."""
    dists = [abs(float(a) - float(b)) for a, b in zip(g1.coords(), g2.coords())]
    return math.nan if any(map(math.isnan, dists)) else max(dists)
