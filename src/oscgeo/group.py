"""The oscillator group on R x R^2n x R: product, inversion, conjugation.

Product law:
    (z1, v1, t1) . (z2, v2, t2)
        = (z1 + z2 + (1/2) v1^T J R(t1) v2,  v1 + R(t1) v2,  t1 + t2)

with R(t) the block rotation by angles lambda_i * t and J the block matrix
with 2x2 blocks [[0, 1], [-1, 0]].  This sign of J is forced by the
requirement that the closed-form geodesics are one-parameter subgroups
(tested in the geodesics suite).

A rotation R(t) is held as one (cos, sin) pair per block and applied pair
by pair; no dense 2n x 2n matrix is built.  Exact mode keeps z, t as
ExactScalar and v as rationals; rotations are then restricted to angles
where every lambda_i * t is an integer multiple of pi/2 (`is_quarter_turn`),
so each block's (cos, sin) is a signed quarter turn, ints in {-1, 0, 1}.
`rotation` is the only place an exact angle becomes (cos, sin); an exact
rotation is applied as a signed swap per block.  `multiply` and `invert`
build results without re-coercing their typed entries, and in exact mode
skip zero terms; float arithmetic keeps its operation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import FrequencyList
from .exact import ExactScalar, as_exact, exact_from_json, exact_to_json, rat, rat_add


class ExactModeUnsupportedAngle(ValueError):
    """Rotation angle is not an integer multiple of pi/2 for some block."""


# quarter-turn table: (cos, sin) for angle k * pi/2
_QUARTER = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _half_turns(t: ExactScalar, freqs: FrequencyList) -> list | None:
    """Each block angle lambda_i * t in units of pi/2, as an unreduced
    (numerator, denominator) int pair; None if t has a rational part."""
    if t.q1 != 0:
        return None
    num, den = 2 * t.q2.numerator, t.q2.denominator
    return [(lam.numerator * num, lam.denominator * den) for lam in freqs.lambdas]


def is_quarter_turn(t: ExactScalar, freqs: FrequencyList) -> bool:
    """Whether every block angle lambda_i * t is an integer multiple of pi/2."""
    half_turns = _half_turns(t, freqs)
    return half_turns is not None and all(num % den == 0 for num, den in half_turns)


def rotate_pairs(cos_sin: Sequence, v: Sequence) -> tuple:
    """Apply [[c, -s], [s, c]] to each pair (v[2i], v[2i+1]), one (c, s) per pair."""
    out = []
    for (c, s), x, y in zip(cos_sin, v[0::2], v[1::2], strict=True):
        out.extend((c * x - s * y, s * x + c * y))
    return tuple(out)


@dataclass(frozen=True)
class RotationMatrix:
    """Block-diagonal rotation by angles lambda_i * t, one (cos, sin) per block.

    Exact rotations hold signed quarter turns, ints in {-1, 0, 1}; float
    rotations hold floats.
    """

    cos_sin: tuple

    def block(self, i: int) -> tuple:
        c, s = self.cos_sin[i]
        return ((c, -s), (s, c))

    def apply(self, v: Sequence) -> tuple:
        if type(self.cos_sin[0][0]) is not int:
            return rotate_pairs(self.cos_sin, v)
        out = []  # exact: a signed swap per pair, no products by 0 or 1
        for (c, s), x, y in zip(self.cos_sin, v[0::2], v[1::2], strict=True):
            if c == 1:
                out.extend((x, y))
            elif c == -1:
                out.extend((-x, -y))
            elif s == 1:
                out.extend((-y, x))
            else:
                out.extend((y, -x))
        return tuple(out)

    def as_array(self) -> np.ndarray:
        n2 = 2 * len(self.cos_sin)
        out = np.zeros((n2, n2))
        for i in range(len(self.cos_sin)):
            out[2 * i: 2 * i + 2, 2 * i: 2 * i + 2] = self.block(i)
        return out


def rotation(t, freqs: FrequencyList) -> RotationMatrix:
    """R(t) = exp(t N_lambda); exact for an ExactScalar t, whose every
    lambda_i*t must then lie in (pi/2)Z."""
    if isinstance(t, ExactScalar):
        half_turns = _half_turns(t, freqs)
        if half_turns is None:
            raise ExactModeUnsupportedAngle(
                f"angle {t} has a nonzero rational part; rotation entries would be irrational"
            )
        cos_sin = []
        for num, den in half_turns:
            if num % den:
                raise ExactModeUnsupportedAngle(
                    f"angle {Fraction(num, 2 * den)}*pi is not a multiple of pi/2"
                )
            cos_sin.append(_QUARTER[num // den % 4])
        return RotationMatrix(tuple(cos_sin))
    tf = float(t)
    return RotationMatrix(
        tuple((math.cos(th), math.sin(th)) for th in (lam * tf for lam in freqs.floats))
    )


def apply_j(v: Sequence) -> tuple:
    """Apply J (blocks [[0,1],[-1,0]]): (x, y) -> (y, -x) per pair."""
    out = []
    for i in range(len(v) // 2):
        out.extend((v[2 * i + 1], -v[2 * i]))
    return tuple(out)


def _symplectic_pairing(u: Sequence, w: Sequence):
    """u^T J w."""
    jw = apply_j(w)
    total = u[0] * jw[0]
    for a, b in zip(u[1:], jw[1:]):
        total = total + a * b
    return total


@dataclass(frozen=True)
class GroupElement:
    """Element (z, v, t); z and t share the mode of the v entries."""

    z: object
    v: tuple
    t: object

    def __init__(self, z, v: Sequence, t):
        v = tuple(v)
        if len(v) % 2 != 0:
            raise ValueError("v must have even length 2n")
        exact_zt = isinstance(z, (ExactScalar, int, Fraction, str)) and isinstance(
            t, (ExactScalar, int, Fraction, str)
        )
        exact_v = all(isinstance(x, (int, Fraction, str)) for x in v)
        if exact_zt and exact_v:
            z, t = as_exact(z), as_exact(t)
            v = tuple(rat(x) for x in v)
        else:
            z, t = float(z), float(t)
            v = tuple(float(x) for x in v)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "t", t)

    @classmethod
    def _of(cls, z, v: tuple, t) -> "GroupElement":
        """Internal constructor without coercion: z and t ExactScalars with a
        tuple v of Fractions, or all floats."""
        g = object.__new__(cls)
        object.__setattr__(g, "z", z)
        object.__setattr__(g, "v", v)
        object.__setattr__(g, "t", t)
        return g

    @property
    def n(self) -> int:
        return len(self.v) // 2

    @property
    def mode(self) -> str:
        return "exact" if isinstance(self.z, ExactScalar) else "float"

    def is_exact(self) -> bool:
        return self.mode == "exact"

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        return cls(0, (0,) * (2 * n), 0)

    def to_floats(self) -> "GroupElement":
        return GroupElement(float(self.z), [float(x) for x in self.v], float(self.t))

    def coords(self) -> list:
        return [self.z, *self.v, self.t]

    def is_identity(self, tol: float = 0.0) -> bool:
        if self.is_exact():
            return self.z.is_zero() and self.t.is_zero() and all(x == 0 for x in self.v)
        return all(abs(c) <= tol for c in self.coords())

    def to_json(self) -> dict:
        if self.is_exact():
            return {
                "z": exact_to_json(self.z),
                "v": [str(x) if x.denominator != 1 else int(x) for x in self.v],
                "t": exact_to_json(self.t),
            }
        return {"z": self.z, "v": list(self.v), "t": self.t}

    @classmethod
    def from_json(cls, obj: dict) -> "GroupElement":
        z, v, t = obj["z"], obj["v"], obj["t"]
        if isinstance(z, float) or isinstance(t, float) or any(
            isinstance(x, float) for x in v
        ):
            return cls(float(z), [float(x) for x in v], float(t))
        return cls(exact_from_json(z), [rat(x) for x in v], exact_from_json(t))


def _check_pair(g1: GroupElement, g2: GroupElement, freqs: FrequencyList) -> None:
    if g1.n != freqs.n or g2.n != freqs.n:
        raise ValueError("group element dimension does not match frequencies")
    if g1.mode != g2.mode:
        raise ValueError(f"mixed modes: {g1.mode} vs {g2.mode}")


def multiply(g1: GroupElement, g2: GroupElement, freqs: FrequencyList) -> GroupElement:
    _check_pair(g1, g2, freqs)
    rv2 = rotation(g1.t, freqs).apply(g2.v)
    z = g1.z + g2.z
    if g1.is_exact():
        terms = [a * b for a, b in zip(g1.v, apply_j(rv2)) if a and b]
        if terms:
            z = z + sum(terms[1:], terms[0]) / 2
        v = tuple(rat_add(a, b) for a, b in zip(g1.v, rv2))
    else:
        z = z + _symplectic_pairing(g1.v, rv2) / 2
        v = tuple(a + b for a, b in zip(g1.v, rv2))
    return GroupElement._of(z, v, g1.t + g2.t)


def invert(g: GroupElement, freqs: FrequencyList) -> GroupElement:
    """(z, v, t)^(-1) = (-z, -R(-t) v, -t)."""
    if g.n != freqs.n:
        raise ValueError("group element dimension does not match frequencies")
    r = rotation(-g.t, freqs)
    return GroupElement._of(-g.z, tuple(-x for x in r.apply(g.v)), -g.t)


def conjugate(h: GroupElement, g: GroupElement, freqs: FrequencyList) -> GroupElement:
    """h g h^(-1)."""
    return multiply(multiply(h, g, freqs), invert(h, freqs), freqs)


def max_coord_dist(g1: GroupElement, g2: GroupElement) -> float:
    return max(
        abs(float(a) - float(b)) for a, b in zip(g1.coords(), g2.coords())
    )
