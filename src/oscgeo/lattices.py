"""Cocompact lattice families, exact membership, and structural profiles.

One class, `ProductForm(freqs, k, t0)`, is the lattice (1/2k)Z x Z^{2n} x t0 Z
in group coordinates, for any frequency list and any positive quarter turn
t0 of it; the paper's dim-4 and dim-6 families are its named constructors
`Dim4Family` and `Dim6Family`, which keep their own checks, parameters and
JSON.  Twisting by the automorphism (z, v, t) -> (z + m t, v, t) and the
product with a line (for the product-group analysis) build on them.
A `LatticeProfile` (t0, K0, central step w, total twist) is all the quotient
code reads of a lattice.  Product forms and their twists (whose base needs a
profile) have one, and its rule is their membership: the members are exactly
(twist t + w u, v, t) with t in t0 Z, v integral, u in Z.  `LatticeSpec.contains`
decides it on ints and `LatticeProfile.member` builds every member; one
table of the t-step rotations R(c t0), c = 0..K0-1 (`period_rotations`),
serves the normalizer conditions, the closure decision and the certificates.
A generator-list spec only supports a bounded word search and refuses
rather than guessing.

Lattices exist only when the frequencies generate a discrete subgroup of
the reals, which forces them rational after normalization; the frequency
type enforces that at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, cached_property

from .algebra import FrequencyList
from .exact import PI, ExactScalar, as_exact, pi_coefficient, rational_ratio
from .group import GroupElement, invert, multiply, quarter_turn_count


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

    def member(self, u: int, v, j: int) -> GroupElement:
        """(twist t + w u, v, t) with t = j t0, for ints u and j and a
        sequence v of ints."""
        t = self.t0 * j
        return GroupElement._exact(self.twist * t + self.central_w * u, tuple(v), 1, t)


class LatticeSpec:
    """Base interface for lattice descriptions.  A spec with a profile
    (`_profile`) gets its membership, generators and samples from it."""

    freqs: FrequencyList

    def contains(self, g: GroupElement) -> bool:
        """The profile's rule on ints: v integral, t = (p / q) pi in
        t0 Z = (c / d) pi Z, and z - twist t rational and in w Z."""
        self._require_exact(g)
        prof = self._profile
        pc = pi_coefficient(g.t)
        if g.den != 1 or pc is None:
            return False
        (_, c), d = prof.t0.num, prof.t0.den  # t0 = (c / d) pi
        if pc[0] * d % (pc[1] * c):
            return False
        z = g.z - prof.twist * g.t if prof.twist.num else g.z
        (w_num,), w_den = prof.central_w.num, prof.central_w.den  # w is rational
        return not z.num or len(z.num) == 1 and z.num[0] * w_den % (z.den * w_num) == 0

    def profile(self) -> LatticeProfile:  # stays a method: perfbench patches it by name
        return self._profile

    @property
    def _profile(self) -> LatticeProfile:
        raise UnsupportedSpec(
            f"{type(self).__name__} does not support profile-based classification"
        )

    @cached_property
    def period_rotations(self) -> tuple:
        """R(c t0), c = 0..K0-1, as rows of the quarter-turn table."""
        prof, rows = self._profile, self.freqs.quarter_turns[2]
        m0 = quarter_turn_count(prof.t0, self.freqs)
        return tuple(rows[c * m0 % 4] for c in range(prof.k0))

    def generators(self) -> list[GroupElement]:
        """(w, 0, 0), the unit v's, then (twist t0, 0, t0)."""
        return list(self._generators)

    @cached_property  # normalizer_oracle reads the generators for every element
    def _generators(self) -> tuple[GroupElement, ...]:
        member, n2 = self._profile.member, 2 * self.freqs.n
        units = [member(0, [int(i == j) for j in range(n2)], 0) for i in range(n2)]
        return (member(1, (0,) * n2, 0), *units, member(0, (0,) * n2, 1))

    def sample_member(self, rng) -> GroupElement:
        """(w i + twist t, v, t), drawing i, then v, then t = t0 j, from rng."""
        i = rng.randint(-8, 8)
        v = [rng.randint(-4, 4) for _ in range(2 * self.freqs.n)]
        return self._profile.member(i, v, rng.randint(-4, 4))

    def to_json(self) -> dict:
        raise NotImplementedError

    def _require_exact(self, g: GroupElement) -> None:
        if not isinstance(g, GroupElement):
            raise TypeError("membership needs a GroupElement")
        if g.num is None:
            raise TypeError("membership is decided in exact mode only")
        if len(g.num) != 2 * self.freqs.n:
            raise ValueError("element dimension does not match the lattice")


@cache  # one per parameter set, so its quarter-turn table and float view are built once
def _frequencies(*lambdas) -> FrequencyList:
    return FrequencyList(lambdas)


@dataclass(frozen=True)
class ProductForm(LatticeSpec):
    """(1/2k)Z x Z^{2n} x t0 Z for any frequencies and any positive quarter
    turn t0 of them; a subgroup, as R(t0) keeps Z^{2n} and every
    (1/2) v^T J R(t) v' lies in (1/2)Z."""

    freqs: FrequencyList
    k: int
    t0: ExactScalar

    def __post_init__(self):
        _require_positive_int("k", self.k)
        object.__setattr__(self, "t0", as_exact(self.t0))
        m0 = quarter_turn_count(self.t0, self.freqs)
        if m0 is None or m0 < 1:
            raise ValueError(f"t0 must be a positive quarter turn of the frequencies, got {self.t0}")

    @cached_property
    def _profile(self) -> LatticeProfile:
        # t0 is m0 quarter-turn units, and R(m units) = Id iff 4 divides m
        m0 = quarter_turn_count(self.t0, self.freqs)
        return LatticeProfile(t0=self.t0, k0=4 // math.gcd(4, m0),
                              central_w=ExactScalar(Fraction(1, 2 * self.k)), twist=ExactScalar(0))


@dataclass(frozen=True)
class Dim4Family(ProductForm):
    """(1/2k)Z x Z^2 x angle*Z in the four-dimensional group (lambda = 1): a
    named constructor of ProductForm whose repr, == and hash read k and angle."""

    freqs: FrequencyList = field(repr=False, compare=False)
    t0: ExactScalar = field(repr=False, compare=False)
    angle: ExactScalar

    def __init__(self, k: int, angle):
        _require_positive_int("k", k)
        angle = as_exact(angle)
        if angle not in (2 * PI, PI, PI / 2):
            raise ValueError("angle must be one of 2pi, pi, pi/2")
        object.__setattr__(self, "angle", angle)
        super().__init__(_frequencies(1), k, angle)

    def to_json(self) -> dict:
        return {"family": "dim4", "k": self.k, "angle": str(self.angle)}


@dataclass(frozen=True)
class Dim6Family(ProductForm):
    """(1/2k)Z x Z^4 x (2 pi q / M)Z in the six-dimensional group (1, p/q): a
    named constructor of ProductForm whose repr, == and hash read k, p, q and M."""

    freqs: FrequencyList = field(repr=False, compare=False)
    t0: ExactScalar = field(repr=False, compare=False)
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
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m_div", m_div)
        super().__init__(_frequencies(1, Fraction(p, q)), k, ExactScalar(0, Fraction(2 * q, m_div)))

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
        base.profile()  # refuses a base without a profile
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "m", as_exact(m))

    @property
    def freqs(self) -> FrequencyList:
        return self.base.freqs

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
        """Membership of a pair (group element, line coordinate r).

        r lies in w Z iff r = 0 or r^2 / w^2 is the square of an integer,
        since w > 0 (`rational_ratio`, for any w^2 in Q[pi]; a given w sets
        w^2 = w * w).  Only a nonzero r on a line whose w^2 is flagged
        irrational stays undecided.
        """
        if not (isinstance(g, tuple) and len(g) == 2):
            raise TypeError("product-with-line membership takes (element, line) pairs")
        el, r = g
        r = as_exact(r)
        if r.is_zero():
            on_line = True
        elif self.w_squared is not None:
            ratio = rational_ratio(r * r, self.w_squared)
            on_line = ratio is not None and ratio[1] == 1 and math.isqrt(ratio[0]) ** 2 == ratio[0]
        else:
            raise MembershipUndecidable("line coordinate lattice is only known through w^2")
        return on_line and self.base.contains(el)

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
    return spec.profile().member(1, (0,) * (2 * spec.freqs.n), 0)


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
