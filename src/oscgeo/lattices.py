"""Cocompact lattice families, exact membership, and structural profiles.

Product-form families are lattices Z_lat x Z^{2n} x t_step*Z written in
group coordinates; twisting by the automorphism (z, v, t) -> (z + m t, v, t)
and the product with a line (for the product-group analysis) build on them.
Membership is decided exactly on polynomials in pi (`ExactScalar`); a
generator-list spec only supports a bounded word search and refuses rather
than guessing.  A `LatticeProfile` (t0, K0, central step w, total twist) is
all the quotient code reads of a lattice; product forms and their twists
have one, and their generators, sampled members and pure-t step are read
off it: the members are (twist t + w u, v, t).

Lattices exist only when the frequencies generate a discrete subgroup of
the reals, which forces them rational after normalization; the frequency
type enforces that at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .algebra import FrequencyList
from .exact import ExactScalar, as_exact, pi_coefficient, rational_ratio
from .group import GroupElement, invert, multiply, quarter_turn_count, rotation


class MembershipUndecidable(Exception):
    """The bounded decision procedure cannot settle membership."""


class UnsupportedSpec(ValueError):
    """Operation is not defined for this lattice family."""


# products a generator-list word search may form before it refuses
MAX_WORDS = 20_000


def _require_positive_int(name: str, val) -> None:
    if type(val) is not int or val < 1:
        raise ValueError(f"{name} must be a positive integer, got {val!r}")


@dataclass(frozen=True)
class LatticeProfile:
    """The lattice as the quotient code reads it: the members are exactly
    (twist * t + central_w * u, v, t) with t in t0 Z, v integral, u in Z."""

    t0: ExactScalar          # positive generator of the t-component subgroup
    k0: int                  # minimal K >= 1 with R(K * t0) = Id
    central_w: ExactScalar   # minimal w > 0 with (w, 0, 0) in the lattice
    twist: ExactScalar       # the sum of the nested twists; 0 for a product form

    @cached_property
    def pure_t(self) -> ExactScalar | None:
        """Least t > 0 with (0, 0, t) a member, if any.  (0, 0, j t0) is a
        member iff twist j t0 lies in central_w Z: the least j is the
        denominator of twist t0 / central_w, when rational (1 for twist 0)."""
        ratio = rational_ratio(self.twist * self.t0, self.central_w)
        return None if ratio is None else self.t0 * ratio[1]

    @property
    def has_pure_t(self) -> bool:
        return self.pure_t is not None


class LatticeSpec:
    """Base interface for lattice descriptions.  A spec with a profile
    (`_profile`) gets its generators and sampled members from it."""

    freqs: FrequencyList

    def contains(self, g: GroupElement) -> bool:
        raise NotImplementedError

    def profile(self) -> LatticeProfile:  # stays a method: perfbench patches it by name
        return self._profile

    @property
    def _profile(self) -> LatticeProfile:
        raise UnsupportedSpec(
            f"{type(self).__name__} does not support profile-based classification"
        )

    def generators(self) -> list[GroupElement]:
        """(w, 0, 0), the unit v's, then (twist t0, 0, t0)."""
        return list(self._generators)

    @cached_property  # normalizer_oracle reads the generators for every element
    def _generators(self) -> tuple[GroupElement, ...]:
        prof, n2 = self._profile, 2 * self.freqs.n
        units = [GroupElement(0, [int(i == j) for j in range(n2)], 0) for i in range(n2)]
        return (GroupElement(prof.central_w, (0,) * n2, 0), *units,
                GroupElement(prof.twist * prof.t0, (0,) * n2, prof.t0))

    def sample_member(self, rng) -> GroupElement:
        """(w i + twist t, v, t), drawing i, then v, then t = t0 j, from rng."""
        prof = self._profile
        i = rng.randint(-8, 8)
        v = [rng.randint(-4, 4) for _ in range(2 * self.freqs.n)]
        t = prof.t0 * rng.randint(-4, 4)
        return GroupElement(prof.central_w * i + prof.twist * t, v, t)

    def to_json(self) -> dict:
        raise NotImplementedError

    def _require_exact(self, g: GroupElement) -> None:
        if not isinstance(g, GroupElement):
            raise TypeError("membership needs a GroupElement")
        if g.num is None:
            raise TypeError("membership is decided in exact mode only")
        if len(g.num) != 2 * self.freqs.n:
            raise ValueError("element dimension does not match the lattice")


class _ProductFormFamily(LatticeSpec):
    """Common machinery for Z_lat x Z^{2n} x t_step*Z families."""

    k: int

    @property
    def t0_pi_coeff(self) -> Fraction:
        raise NotImplementedError

    def z_step(self) -> Fraction:
        return Fraction(1, 2 * self.k)

    def contains(self, g: GroupElement) -> bool:
        """v in Z^{2n}, z in z_step()*Z = (1/2k)Z and t in t0*Z, as
        divisibility tests on numerators and denominators."""
        self._require_exact(g)
        pc, t0 = pi_coefficient(g.t), self.t0_pi_coeff
        return (
            g.den == 1
            and len(g.z.num) <= 1
            and 2 * self.k % g.z.den == 0
            and pc is not None
            and pc[0] * t0.denominator % (pc[1] * t0.numerator) == 0
        )

    @cached_property
    def _profile(self) -> LatticeProfile:
        t0 = ExactScalar(0, self.t0_pi_coeff)
        # t0 is m0 quarter-turn units, and R(m units) = Id iff 4 divides m
        return LatticeProfile(
            t0=t0,
            k0=4 // math.gcd(4, quarter_turn_count(t0, self.freqs)),
            central_w=ExactScalar(self.z_step(), 0),
            twist=ExactScalar(0),
        )

    @cached_property
    def period_rotations(self) -> tuple:
        """R(c * t0) for c = 0..K0-1, the rotations of the t-steps."""
        prof = self.profile()
        return tuple(rotation(prof.t0 * c, self.freqs) for c in range(prof.k0))


@dataclass(frozen=True)
class Dim4Family(_ProductFormFamily):
    """(1/2k)Z x Z^2 x angle*Z in the four-dimensional group (lambda = 1)."""

    k: int
    angle: ExactScalar

    _ANGLES = (Fraction(2), Fraction(1), Fraction(1, 2))

    def __init__(self, k: int, angle):
        _require_positive_int("k", k)
        angle = as_exact(angle)
        pc = pi_coefficient(angle)
        if pc is None or Fraction(*pc) not in self._ANGLES:
            raise ValueError("angle must be one of 2pi, pi, pi/2")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "angle", angle)

    @cached_property
    def freqs(self) -> FrequencyList:
        return FrequencyList([1])

    @cached_property
    def t0_pi_coeff(self) -> Fraction:
        return Fraction(*pi_coefficient(self.angle))

    def to_json(self) -> dict:
        return {"family": "dim4", "k": self.k, "angle": str(self.angle)}


@dataclass(frozen=True)
class Dim6Family(_ProductFormFamily):
    """(1/2k)Z x Z^4 x (2 pi q / M)Z in the six-dimensional group (1, p/q)."""

    k: int
    p: int
    q: int
    m_div: int

    def __init__(self, k: int, p: int, q: int, m_div: int):
        for name, val in (("k", k), ("p", p), ("q", q), ("M", m_div)):
            _require_positive_int(name, val)
        if m_div not in (1, 2, 4):
            raise ValueError("M must be 1, 2 or 4")
        if math.gcd(p, q) != 1:
            raise ValueError("p and q must be coprime")
        if m_div > 1 and q % 2 == 0:
            raise ValueError("q must be odd when M > 1")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m_div", m_div)

    @cached_property
    def freqs(self) -> FrequencyList:
        return FrequencyList([1, Fraction(self.p, self.q)])

    @cached_property
    def t0_pi_coeff(self) -> Fraction:
        return Fraction(2 * self.q, self.m_div)

    def to_json(self) -> dict:
        return {
            "family": "dim6",
            "k": self.k,
            "p": self.p,
            "q": self.q,
            "M": self.m_div,
        }


@dataclass(frozen=True)
class Twisted(LatticeSpec):
    """Image of a base lattice under (z, v, t) -> (z + m t, v, t)."""

    base: LatticeSpec
    m: ExactScalar

    def __init__(self, base: LatticeSpec, m):
        if isinstance(base, ProductWithLine):
            raise UnsupportedSpec("cannot twist a product-with-line lattice")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "m", as_exact(m))

    @property
    def freqs(self) -> FrequencyList:
        return self.base.freqs

    def contains(self, g: GroupElement) -> bool:
        self._require_exact(g)
        pre = GroupElement._exact(g.z - self.m * g.t, g.num, g.den, g.t)
        return self.base.contains(pre)

    @cached_property
    def _profile(self) -> LatticeProfile:
        base = self.base.profile()
        return replace(base, twist=base.twist + self.m)

    def to_json(self) -> dict:
        return {"family": "twisted", "m": str(self.m), "base": self.base.to_json()}


@dataclass(frozen=True)
class ProductWithLine(LatticeSpec):
    """Base lattice times w*Z in the product of the group with a line.

    Only w^2 matters for the lightlike analysis, so the spec stores w^2 as
    an exact polynomial in pi when available (w=1 gives 1; w with w^2 = 2pi
    gives 2pi; a pure-pi w gives a pi^2 term) and None when w^2 is flagged
    as lying outside polynomial-in-pi form (for instance w = e).
    """

    base: LatticeSpec
    w_squared: ExactScalar | None
    w: ExactScalar | None

    def __init__(self, base: LatticeSpec, w_squared=None, w=None):
        if w is not None:
            w = as_exact(w)
            if w.sign() <= 0:
                raise ValueError("line step w must be positive")
        if isinstance(w_squared, str) and w_squared.strip() == "irrational":
            w_squared = None
        elif w_squared is not None:
            w_squared = as_exact(w_squared)
        elif w is not None:
            w_squared = w * w
        else:
            raise ValueError("need w or w^2 (or the 'irrational' flag)")
        if w is not None and w_squared != w * w:
            w2 = "irrational" if w_squared is None else w_squared
            raise ValueError(f"w^2 = {w2} disagrees with w = {w}")
        if w_squared is not None and w_squared.sign() <= 0:
            raise ValueError("w^2 must be positive")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "w_squared", w_squared)
        object.__setattr__(self, "w", w)

    @property
    def freqs(self) -> FrequencyList:
        return self.base.freqs

    def contains(self, g) -> bool:
        """Membership of a pair (group element, line coordinate)."""
        if not (isinstance(g, tuple) and len(g) == 2):
            raise TypeError("product-with-line membership takes (element, line) pairs")
        el, r = g
        if self.w is None:
            raise MembershipUndecidable(
                "line coordinate lattice is only known through w^2"
            )
        try:
            ratio = as_exact(r) / self.w
        except ValueError:
            return False  # r/w is not even rational-in-pi, so never an integer
        if ratio.degree() > 0:
            return False
        return ratio.to_fraction().denominator == 1 and self.base.contains(el)

    def to_json(self) -> dict:
        out: dict = {"family": "product_line", "base": self.base.to_json()}
        if self.w_squared is None:
            out["w2"] = "irrational"
        elif self.w_squared.degree() <= 1:
            out["w2"] = str(self.w_squared)
        else:
            out["w2"] = {"pi_coeffs": [str(c) for c in self.w_squared.coeffs]}
        if self.w is not None:
            out["w"] = str(self.w)
        return out


@dataclass(frozen=True)
class GeneratorList(LatticeSpec):
    """Subgroup described by explicit generators; bounded word search only."""

    freqs: FrequencyList
    elements: tuple[GroupElement, ...]
    depth: int = 6

    def __init__(self, freqs: FrequencyList, elements, depth: int = 6):
        elements = tuple(elements)
        if not elements:
            raise ValueError("need at least one generator")
        for el in elements:
            if not el.is_exact():
                raise ValueError("generators must be exact")
            if el.n != freqs.n:
                raise ValueError("generator dimension mismatch")
        _require_positive_int("depth", depth)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "depth", depth)

    def generators(self) -> list[GroupElement]:
        return list(self.elements)

    def contains(self, g: GroupElement) -> bool:
        self._require_exact(g)
        if g.is_identity():
            return True
        steps = []
        for el in self.elements:
            steps.append(el)
            steps.append(invert(el, self.freqs))
        frontier = {GroupElement.identity(self.freqs.n)}
        seen = set(frontier)
        words = 0
        for _ in range(self.depth):
            nxt = set()
            for word in frontier:
                words += len(steps)
                if words > MAX_WORDS:
                    raise MembershipUndecidable(f"not reached within a budget of {MAX_WORDS} words")
                for step in steps:
                    new = multiply(word, step, self.freqs)
                    if new == g:
                        return True
                    if new not in seen:
                        seen.add(new)
                        nxt.add(new)
            frontier = nxt
            if not frontier:
                return False  # the subgroup was exhausted
        raise MembershipUndecidable(
            f"not reached within word length {self.depth}; increase depth to certify"
        )

    def to_json(self) -> dict:
        return {
            "family": "generators",
            "freqs": self.freqs.to_json(),
            "elements": [el.to_json() for el in self.elements],
            "depth": self.depth,
        }


# -- profile-level queries ----------------------------------------------------


# perfbench/tracing.py patches `contains` and `profile` by name: keep both.
def contains(spec: LatticeSpec, g) -> bool:
    return spec.contains(g)


def profile(spec: LatticeSpec) -> LatticeProfile:
    return spec.profile()


def central_element(spec: LatticeSpec) -> GroupElement:
    prof = spec.profile()
    n2 = 2 * spec.freqs.n
    return GroupElement(prof.central_w, (0,) * n2, 0)


def pure_t_element(spec: LatticeSpec) -> GroupElement | None:
    prof = spec.profile()
    if not prof.has_pure_t:
        return None
    return GroupElement(0, (0,) * (2 * spec.freqs.n), prof.pure_t)


def from_json(obj: dict) -> LatticeSpec:
    """The spec of a lattice JSON object; the constructors validate each value."""
    if not isinstance(obj, dict):
        raise ValueError(f"a lattice must be a JSON object, got {obj!r}")
    family = obj.get("family")
    if family == "dim4":
        return Dim4Family(obj["k"], as_exact(obj["angle"]))
    if family == "dim6":
        return Dim6Family(obj["k"], obj["p"], obj["q"], obj["M"])
    if family == "twisted":
        return Twisted(from_json(obj["base"]), obj["m"])
    if family == "product_line":
        w2 = obj.get("w2")
        if isinstance(w2, dict):
            coeffs = w2.get("pi_coeffs")
            if not isinstance(coeffs, list):
                raise ValueError(f'"pi_coeffs" must be a list of rationals, got {coeffs!r}')
            w2 = ExactScalar(*coeffs)
        return ProductWithLine(from_json(obj["base"]), w_squared=w2, w=obj.get("w"))
    if family == "generators":
        return GeneratorList(
            FrequencyList.from_json(obj["freqs"]),
            [GroupElement.from_json(e) for e in obj["elements"]],
            obj.get("depth", 6),
        )
    raise ValueError(f"unknown lattice family: {family!r}")
