"""Cocompact lattice families, exact membership, and structural profiles.

Product-form families are lattices Z_lat x Z^{2n} x t_step*Z written in
group coordinates; twisting by the automorphism (z, v, t) -> (z + m t, v, t)
and the product with a line (for the product-group analysis) build on them.
Membership is decided exactly through the split q1 + q2*pi arithmetic; a
generator-list spec only supports a bounded word search and refuses rather
than guessing.

Lattices exist only when the frequencies generate a discrete subgroup of
the reals, which forces them rational after normalization; the frequency
type enforces that at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import FrequencyList
from .exact import ExactScalar, PiPoly, as_exact, exact_from_json, rat
from .group import GroupElement, invert, multiply, rotation


class MembershipUndecidable(Exception):
    """The bounded decision procedure cannot settle membership."""


class UnsupportedSpec(ValueError):
    """Operation is not defined for this lattice family."""


@dataclass(frozen=True)
class LatticeProfile:
    t0: ExactScalar          # positive generator of the t-component subgroup
    k0: int                  # minimal K >= 1 with R(K * t0) = Id
    central_w: ExactScalar   # minimal w > 0 with (w, 0, 0) in the lattice
    has_pure_t: bool         # whether some (0, 0, t), t != 0, is a member


def _in_step_lattice(value: ExactScalar, step_rational: Fraction) -> bool:
    """value in step*Z for a rational step > 0."""
    if not value.is_rational():
        return False
    return (value.q1 / step_rational).denominator == 1


def _in_pi_step_lattice(value: ExactScalar, step_pi_coeff: Fraction) -> bool:
    """value in (step_pi_coeff * pi)*Z."""
    if value.q1 != 0:
        return value.is_zero()
    return (value.q2 / step_pi_coeff).denominator == 1


def _minimal_rotation_period(freqs: FrequencyList, t0_pi_coeff: Fraction) -> int:
    """Smallest K >= 1 with every lambda_i * K * t0 in 2*pi*Z."""
    k = 1
    for lam in freqs.lambdas:
        k = math.lcm(k, (lam * t0_pi_coeff / 2).denominator)
    return k


class LatticeSpec:
    """Base interface for lattice descriptions."""

    freqs: FrequencyList

    def contains(self, g: GroupElement) -> bool:
        raise NotImplementedError

    def profile(self) -> LatticeProfile:
        raise UnsupportedSpec(f"profile is not defined for {type(self).__name__}")

    def generators(self) -> list[GroupElement]:
        raise UnsupportedSpec(f"no generator list for {type(self).__name__}")

    def z_step(self) -> Fraction:
        raise UnsupportedSpec(f"no z-step for {type(self).__name__}")

    def sample_member(self, rng) -> GroupElement:
        raise UnsupportedSpec(f"no member sampler for {type(self).__name__}")

    def to_json(self) -> dict:
        raise NotImplementedError

    def _require_exact(self, g: GroupElement) -> None:
        if not isinstance(g, GroupElement):
            raise TypeError("membership needs a GroupElement")
        if not g.is_exact():
            raise TypeError("membership is decided in exact mode only")
        if g.n != self.freqs.n:
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
        self._require_exact(g)
        if not _in_step_lattice(g.z, self.z_step()):
            return False
        if any(x.denominator != 1 for x in g.v):
            return False
        return _in_pi_step_lattice(g.t, self.t0_pi_coeff)

    def profile(self) -> LatticeProfile:  # stays a method: perfbench patches it by name
        return self._profile

    @cached_property
    def _profile(self) -> LatticeProfile:
        return LatticeProfile(
            t0=ExactScalar(0, self.t0_pi_coeff),
            k0=_minimal_rotation_period(self.freqs, self.t0_pi_coeff),
            central_w=ExactScalar(self.z_step(), 0),
            has_pure_t=True,
        )

    @cached_property
    def period_rotations(self) -> tuple:
        """R(c * t0) for c = 0..K0-1, the rotations of the t-steps."""
        prof = self.profile()
        return tuple(rotation(prof.t0 * c, self.freqs) for c in range(prof.k0))

    def generators(self) -> list[GroupElement]:
        return list(self._generators)

    @cached_property
    def _generators(self) -> tuple[GroupElement, ...]:
        n2 = 2 * self.freqs.n
        zeros = (0,) * n2
        gens = [GroupElement(self.z_step(), zeros, 0)]
        for i in range(n2):
            v = [0] * n2
            v[i] = 1
            gens.append(GroupElement(0, v, 0))
        gens.append(GroupElement(0, zeros, ExactScalar(0, self.t0_pi_coeff)))
        return tuple(gens)

    def sample_member(self, rng) -> GroupElement:
        n2 = 2 * self.freqs.n
        z = ExactScalar(self.z_step() * rng.randint(-8, 8), 0)
        v = [Fraction(rng.randint(-4, 4)) for _ in range(n2)]
        t = ExactScalar(0, self.t0_pi_coeff * rng.randint(-4, 4))
        return GroupElement(z, v, t)


@dataclass(frozen=True)
class Dim4Family(_ProductFormFamily):
    """(1/2k)Z x Z^2 x angle*Z in the four-dimensional group (lambda = 1)."""

    k: int
    angle: ExactScalar

    _ANGLES = (Fraction(2), Fraction(1), Fraction(1, 2))

    def __init__(self, k: int, angle):
        if not isinstance(k, int) or k < 1:
            raise ValueError("k must be a positive integer")
        angle = as_exact(angle)
        if angle.q1 != 0 or angle.q2 not in self._ANGLES:
            raise ValueError("angle must be one of 2pi, pi, pi/2")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "angle", angle)

    @cached_property
    def freqs(self) -> FrequencyList:
        return FrequencyList([1])

    @property
    def t0_pi_coeff(self) -> Fraction:
        return self.angle.q2

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
        for name, val in (("k", k), ("p", p), ("q", q)):
            if not isinstance(val, int) or val < 1:
                raise ValueError(f"{name} must be a positive integer")
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

    @property
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

    def z_step(self) -> Fraction:
        return self.base.z_step()

    def twist_forward(self, g: GroupElement) -> GroupElement:
        shift = (PiPoly.lift(self.m) * PiPoly.lift(g.t) + PiPoly.lift(g.z)).to_exact()
        return GroupElement(shift, g.v, g.t)

    def contains(self, g: GroupElement) -> bool:
        self._require_exact(g)
        z_back = PiPoly.lift(g.z) - PiPoly.lift(self.m) * PiPoly.lift(g.t)
        if z_back.degree() > 1:
            # a pi^2 component can never land in the base z-lattice
            if isinstance(self.base, (_ProductFormFamily, Twisted)):
                return False
            raise MembershipUndecidable("untwisted z-component leaves exact form")
        pre = GroupElement(z_back.to_exact(), g.v, g.t)
        return self.base.contains(pre)

    def profile(self) -> LatticeProfile:  # stays a method: perfbench patches it by name
        return self._profile

    @cached_property
    def _profile(self) -> LatticeProfile:
        base_prof = self.base.profile()
        return LatticeProfile(
            t0=base_prof.t0,
            k0=base_prof.k0,
            central_w=base_prof.central_w,
            has_pure_t=self._pure_t_multiple(base_prof) is not None,
        )

    def _pure_t_multiple(self, base_prof: LatticeProfile) -> int | None:
        """Minimal j >= 1 with (0, 0, j*t0) a member, if any.

        (0,0,t) is a member iff (-m t, 0, t) lies in the base, i.e. m*j*t0
        falls in the base z-lattice; any pi-power in m*t0 rules that out.
        """
        shift = PiPoly.lift(self.m) * PiPoly.lift(base_prof.t0)
        if shift.degree() > 0:
            return None
        r = shift.to_fraction()
        # minimal j with j*r in z_step*Z
        return (r / self.z_step()).denominator

    def pure_t_multiple(self) -> int | None:
        return self._pure_t_multiple(self.base.profile())

    def generators(self) -> list[GroupElement]:
        return list(self._generators)

    @cached_property
    def _generators(self) -> tuple[GroupElement, ...]:
        return tuple(self.twist_forward(g) for g in self.base.generators())

    def sample_member(self, rng) -> GroupElement:
        return self.twist_forward(self.base.sample_member(rng))

    def to_json(self) -> dict:
        return {"family": "twisted", "m": str(self.m), "base": self.base.to_json()}


@dataclass(frozen=True)
class ProductWithLine(LatticeSpec):
    """Base lattice times w*Z in the product of the group with a line.

    Only w^2 matters for the lightlike analysis, so the spec stores w^2 as
    a pi-polynomial when available (w=1 gives 1; w with w^2 = 2pi gives
    2pi; a pure-pi w gives a pi^2 term) and None when w^2 is flagged as
    lying outside polynomial-in-pi form (for instance w = e).
    """

    base: LatticeSpec
    w_squared: PiPoly | None
    w: ExactScalar | None

    def __init__(self, base: LatticeSpec, w_squared=None, w=None):
        if w is not None:
            w = as_exact(w)
            if w.sign() <= 0:
                raise ValueError("line step w must be positive")
        if isinstance(w_squared, str) and w_squared.strip() == "irrational":
            w_squared = None
        elif w_squared is not None:
            if not isinstance(w_squared, PiPoly):
                w_squared = PiPoly.lift(as_exact(w_squared))
        elif w is not None:
            w_squared = PiPoly.lift(w) * PiPoly.lift(w)
        else:
            raise ValueError("need w or w^2 (or the 'irrational' flag)")
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
        r = as_exact(r)
        try:
            ratio = PiPoly.lift(r) / PiPoly.lift(self.w)
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
            out["w2"] = str(self.w_squared.to_exact())
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
        for _ in range(self.depth):
            nxt = set()
            for word in frontier:
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
    n2 = 2 * spec.freqs.n
    if isinstance(spec, Twisted):
        j = spec.pure_t_multiple()
        return GroupElement(0, (0,) * n2, prof.t0 * j)
    return GroupElement(0, (0,) * n2, prof.t0)


def rotation_step_matrix(spec: LatticeSpec):
    """R(t0); integer signed-permutation blocks for the shipped families."""
    return rotation(spec.profile().t0, spec.freqs)


def from_json(obj: dict) -> LatticeSpec:
    family = obj.get("family")
    if family == "dim4":
        return Dim4Family(int(obj["k"]), as_exact(obj["angle"]))
    if family == "dim6":
        return Dim6Family(int(obj["k"]), int(obj["p"]), int(obj["q"]), int(obj["M"]))
    if family == "twisted":
        return Twisted(from_json(obj["base"]), exact_from_json(obj["m"]))
    if family == "product_line":
        w2 = obj.get("w2")
        if isinstance(w2, dict):
            w2 = PiPoly([rat(c) for c in w2["pi_coeffs"]])
        w = obj.get("w")
        return ProductWithLine(
            from_json(obj["base"]),
            w_squared=w2,
            w=exact_from_json(w) if w is not None else None,
        )
    if family == "generators":
        return GeneratorList(
            FrequencyList.from_json(obj["freqs"]),
            [GroupElement.from_json(e) for e in obj["elements"]],
            int(obj.get("depth", 6)),
        )
    raise ValueError(f"unknown lattice family: {family!r}")
