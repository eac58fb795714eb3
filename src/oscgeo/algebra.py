"""Oscillator Lie algebra: bracket, ad-invariant form, causal classification.

Basis order is fixed as (Z, X_1, Y_1, ..., X_n, Y_n, T); a vector is stored
by its coefficients (d, (b_1, c_1), ..., (b_n, c_n), a) in that basis.
Coefficients may be exact (rationals or ExactScalar polynomials in pi) or
floats; operations preserve the type.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .exact import ExactScalar, as_exact, rat

# float-mode tolerance for sign decisions of the causal quantity; inputs in
# the shipped tests are exact, so only representation noise needs absorbing
CAUSAL_TOL = 1e-12

# (cos, sin) of the angle k * pi/2, by k
_QUARTER = ((1, 0), (0, 1), (-1, 0), (0, -1))


class CausalClass(enum.Enum):
    LIGHTLIKE = "lightlike"
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"

    @classmethod
    def of_sign(cls, sign: int) -> "CausalClass":
        """The class of a vector whose <x, x> has this sign."""
        if sign == 0:
            return cls.LIGHTLIKE
        return cls.TIMELIKE if sign < 0 else cls.SPACELIKE


@dataclass(frozen=True)
class FrequencyList:
    """Strictly positive frequencies lambda_1..lambda_n, order preserved."""

    lambdas: tuple[Fraction, ...]

    def __init__(self, lambdas: Sequence):
        lams = tuple(rat(l) for l in lambdas)
        if not lams:
            raise ValueError("need at least one frequency")
        if any(l <= 0 for l in lams):
            raise ValueError("frequencies must be strictly positive")
        object.__setattr__(self, "lambdas", lams)

    @property
    def n(self) -> int:
        return len(self.lambdas)

    @property
    def dim(self) -> int:
        return 2 * self.n + 2

    @cached_property
    def floats(self) -> tuple[float, ...]:
        """The frequencies as floats, for the float kernels."""
        return tuple(float(l) for l in self.lambdas)

    @cached_property
    def quarter_turns(self) -> tuple[int, int, tuple]:
        """The exact angles, as ints (L, 2G, rows).

        With lambda_i = p_i / q_i, L = lcm(q_i) and G = gcd(p_i), every block
        angle lambda_i t is a whole quarter turn iff t = m (pi/2) L / G for an
        integer m; block i then turns by m k_i quarter turns, with
        k_i = (L / q_i)(p_i / G).  rows[m % 4] holds R(m (pi/2) L / G) as one
        (cos, sin) per block.  The k_i are coprime, so only rows[0] is Id.
        """
        lcm = math.lcm(*(lam.denominator for lam in self.lambdas))
        gcd = math.gcd(*(lam.numerator for lam in self.lambdas))
        ks = [lcm // lam.denominator * (lam.numerator // gcd) for lam in self.lambdas]
        rows = tuple(tuple(_QUARTER[m * k % 4] for k in ks) for m in range(4))
        return lcm, 2 * gcd, rows

    def runs(self) -> list[tuple[Fraction, int]]:
        """Consecutive equal-value runs (value, multiplicity) in given order."""
        out: list[tuple[Fraction, int]] = []
        for lam in self.lambdas:
            if out and out[-1][0] == lam:
                out[-1] = (lam, out[-1][1] + 1)
            else:
                out.append((lam, 1))
        return out

    def grouped(self) -> "FrequencyList":
        """Canonical form with equal values gathered into consecutive runs.

        Block-structured operations assume consecutive runs; unsorted input
        is supported by canonicalizing through this method first.
        """
        return FrequencyList(sorted(self.lambdas))

    def is_run_consecutive(self) -> bool:
        return len(self.runs()) == len(set(self.lambdas))

    @classmethod
    def from_json(cls, text_or_obj) -> "FrequencyList":
        obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
        if not isinstance(obj, list):
            raise ValueError("frequency list JSON must be an array")
        return cls([rat(x) for x in obj])

    def to_json(self) -> list:
        return [str(l) if l.denominator != 1 else int(l) for l in self.lambdas]


@dataclass(frozen=True, slots=True)
class AlgebraVector:
    """Initial-velocity vector d*Z + sum(b_j X_j + c_j Y_j) + a*T."""

    d: object
    bc: tuple[tuple[object, object], ...]
    a: object

    def __init__(self, d, bc: Sequence, a):
        _SET_D(self, d)
        _SET_BC(self, tuple((b, c) for b, c in bc))
        _SET_A(self, a)

    @classmethod
    def _of(cls, d, bc: tuple, a) -> "AlgebraVector":
        """Internal constructor from a tuple of (b, c) tuples, without coercion."""
        x = object.__new__(cls)
        _SET_D(x, d)
        _SET_BC(x, bc)
        _SET_A(x, a)
        return x

    @property
    def n(self) -> int:
        return len(self.bc)

    def coords(self) -> list:
        """Coordinates in basis order (Z, X_1, Y_1, ..., X_n, Y_n, T)."""
        out = [self.d]
        for b, c in self.bc:
            out.extend((b, c))
        out.append(self.a)
        return out

    @classmethod
    def from_coords(cls, coords: Sequence) -> "AlgebraVector":
        if len(coords) < 4 or len(coords) % 2 != 0:
            raise ValueError(f"coordinate length {len(coords)} is not 2n+2")
        return cls._of(coords[0], tuple(zip(coords[1:-1:2], coords[2:-1:2])), coords[-1])

    @classmethod
    def Z(cls, n: int) -> "AlgebraVector":
        return cls(1, [(0, 0)] * n, 0)

    @classmethod
    def T(cls, n: int) -> "AlgebraVector":
        return cls(0, [(0, 0)] * n, 1)

    @classmethod
    def X(cls, i: int, n: int) -> "AlgebraVector":
        bc = [(1, 0) if j == i - 1 else (0, 0) for j in range(n)]
        return cls(0, bc, 0)

    @classmethod
    def Y(cls, i: int, n: int) -> "AlgebraVector":
        bc = [(0, 1) if j == i - 1 else (0, 0) for j in range(n)]
        return cls(0, bc, 0)

    @classmethod
    def basis(cls, n: int) -> list["AlgebraVector"]:
        out = [cls.Z(n)]
        for i in range(1, n + 1):
            out.extend((cls.X(i, n), cls.Y(i, n)))
        out.append(cls.T(n))
        return out

    def __add__(self, other: "AlgebraVector") -> "AlgebraVector":
        _check_same_n(self, other)
        bc = [
            (b1 + b2, c1 + c2) for (b1, c1), (b2, c2) in zip(self.bc, other.bc)
        ]
        return AlgebraVector(self.d + other.d, bc, self.a + other.a)

    def __sub__(self, other: "AlgebraVector") -> "AlgebraVector":
        return self + (-1) * other

    def __rmul__(self, s) -> "AlgebraVector":
        return AlgebraVector(s * self.d, [(s * b, s * c) for b, c in self.bc], s * self.a)

    def is_exact(self) -> bool:
        """Whether every coefficient is an int, a Fraction or an ExactScalar."""
        return all(isinstance(c, (int, Fraction, ExactScalar)) for c in self.coords())

    def to_floats(self) -> "AlgebraVector":
        bc = tuple([(float(b), float(c)) for b, c in self.bc])
        return AlgebraVector._of(float(self.d), bc, float(self.a))


# the slots' own setters, which bypass the frozen __setattr__
_SET_D, _SET_BC, _SET_A = (AlgebraVector.__dict__[name].__set__ for name in ("d", "bc", "a"))


def _check_same_n(x: AlgebraVector, y) -> None:
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: n={x.n} vs n={y.n}")


def _check_dim(x: AlgebraVector, freqs: FrequencyList) -> None:
    if x.n != freqs.n:
        raise ValueError(
            f"vector has n={x.n} oscillator pairs, frequencies have n={freqs.n}"
        )


def bracket(x: AlgebraVector, y: AlgebraVector, freqs: FrequencyList) -> AlgebraVector:
    """Lie bracket [x, y].

    Structure: [X_i, Y_i] = Z, [T, X_i] = lambda_i Y_i, [T, Y_i] = -lambda_i X_i.
    """
    _check_dim(x, freqs)
    _check_dim(y, freqs)
    d = sum(bx * cy - cx * by for (bx, cx), (by, cy) in zip(x.bc, y.bc))
    bc = []
    for lam, (bx, cx), (by, cy) in zip(freqs.lambdas, x.bc, y.bc):
        b = -lam * (x.a * cy - y.a * cx)
        c = lam * (x.a * by - y.a * bx)
        bc.append((b, c))
    return AlgebraVector(d, bc, 0 * x.a)


def inner(x: AlgebraVector, y: AlgebraVector, freqs: FrequencyList):
    """Ad-invariant form: <Z,T> = 1, <X_i,X_i> = <Y_i,Y_i> = 1/lambda_i."""
    _check_dim(x, freqs)
    _check_dim(y, freqs)
    total = x.a * y.d + x.d * y.a
    for lam, (bx, cx), (by, cy) in zip(freqs.lambdas, x.bc, y.bc):
        total = total + (bx * by + cx * cy) / lam
    return total


def causal_quantity(x: AlgebraVector, freqs: FrequencyList):
    """<x, x> = 2ad + sum((b_k^2 + c_k^2)/lambda_k)."""
    return inner(x, x, freqs)


def causal_class(x: AlgebraVector, freqs: FrequencyList) -> CausalClass:
    """Causal type of x: the exact sign of <x, x> for an exact x (entries
    polynomials in pi included), the float sign up to CAUSAL_TOL otherwise."""
    if x.is_exact():
        sign = as_exact(causal_quantity(x, freqs)).sign()
    else:
        q = causal_quantity(x.to_floats(), freqs)
        sign = 0 if abs(q) <= CAUSAL_TOL else -1 if q < 0 else 1
    return CausalClass.of_sign(sign)


def gram_matrix(freqs: FrequencyList) -> list[list[Fraction]]:
    """Gram matrix of the form in basis order; signature (1, 2n+1)."""
    dim = freqs.dim
    g = [[Fraction(0)] * dim for _ in range(dim)]
    g[0][dim - 1] = g[dim - 1][0] = Fraction(1)
    for i, lam in enumerate(freqs.lambdas):
        g[1 + 2 * i][1 + 2 * i] = 1 / lam
        g[2 + 2 * i][2 + 2 * i] = 1 / lam
    return g
