"""Lattice normalizers: exact membership, brute-force oracle, table diffs.

For a product-form lattice Z_lat x Z^{2n} x t0*Z, conjugating the generator
set reduces g = (z, v, t) in N(lattice) to four exact conditions, with
R_c = R(t0 * c) ranging over the rotation period c = 0..K0-1:

    (A) R(t) has integer entries (every lambda_i t in (pi/2)Z);
    (B) (Id - R_c) v in Z^{2n};
    (C) v^T J R_c v in (1/k)Z;
    (D) (Id + R_c) v in (1/k)Z^{2n}.

`in_normalizer` evaluates these conditions; `normalizer_oracle` conjugates
the generators directly (both directions) and is the arbiter.  The two are
provably equivalent and the test suite checks them against each other on
full grids.

`NormalizerTable` carries the commonly tabulated closed-form answers.  The
tabulated dim-4 quarter-turn row and the dim-6 rows with p = 2 mod 4 are
too permissive for some parities of k (the derived conditions admit the
half-odd square I2 = Z^2 u F^2 for even k in dimension four, and force the
second pair into (1/2)Z^2 in the p = 2 mod 4 rows); `normalizer_table_report`
surfaces every grid point where the table and the conditions disagree
instead of reconciling them silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .exact import ExactScalar, PI
from .group import (
    GroupElement,
    apply_j,
    invert,
    is_quarter_turn,
    multiply,
)
from .lattices import Dim4Family, Dim6Family, LatticeSpec, UnsupportedSpec


def in_normalizer(g: GroupElement, spec: LatticeSpec) -> bool:
    """Exact normalizer membership from the reduced closure conditions."""
    if not isinstance(spec, (Dim4Family, Dim6Family)):
        raise UnsupportedSpec("normalizer conditions cover the dim-4/dim-6 families")
    if not g.is_exact():
        raise TypeError("normalizer membership is decided in exact mode")
    if g.n != spec.freqs.n:
        raise ValueError("element dimension does not match the lattice")
    if not is_quarter_turn(g.t, spec.freqs):
        return False  # (A)
    v = g.v
    inv_k = Fraction(1, spec.k)
    for rc in spec.period_rotations:
        rv = rc.apply(v)
        if any((x - y).denominator != 1 for x, y in zip(v, rv)):
            return False  # (B)
        pair = sum(x * jy for x, jy in zip(v, apply_j(rv)))
        if (pair / inv_k).denominator != 1:
            return False  # (C)
        if any(((x + y) / inv_k).denominator != 1 for x, y in zip(v, rv)):
            return False  # (D)
    return True


def normalizer_oracle(g: GroupElement, spec: LatticeSpec) -> bool:
    """Ground truth: conjugation by g maps every generator into the lattice,
    in both directions."""
    if not g.is_exact():
        raise TypeError("the oracle works on exact elements")
    if not is_quarter_turn(g.t, spec.freqs):
        # a nonzero rational part q1 of t leaves cos and sin of every block
        # angle not both rational: exp(i lambda_i q1) is transcendental by
        # Lindemann-Weierstrass and exp(i lambda_i q2 pi) is algebraic.  A
        # pi-rational non-quarter turn cannot have both rational either.
        # Either way R(t) e_i leaves Z^{2n}, so conjugating a v-generator
        # leaves the integer lattice
        return False
    freqs = spec.freqs
    g_inv = invert(g, freqs)
    for gen in spec.generators():
        moved = multiply(multiply(g, gen, freqs), g_inv, freqs)
        if not spec.contains(moved):
            return False
        moved_back = multiply(multiply(g_inv, gen, freqs), g, freqs)
        if not spec.contains(moved_back):
            return False
    return True


# -- tabulated closed forms ------------------------------------------------------


def _is_int(x: Fraction) -> bool:
    return x.denominator == 1


def _in_scaled_int(x: Fraction, denom: int) -> bool:
    return (x * denom).denominator == 1


def in_half_odd(x: Fraction) -> bool:
    """Membership in F = (1/2) * {odd integers}."""
    return x.denominator == 2


def in_i2(pair) -> bool:
    """I2 = Z^2 u F^2: both integer or both half-odd."""
    a, b = pair
    return (_is_int(a) and _is_int(b)) or (in_half_odd(a) and in_half_odd(b))


def in_i4(quad) -> bool:
    """I4 = Z^4 u F^4."""
    return all(_is_int(x) for x in quad) or all(in_half_odd(x) for x in quad)


@dataclass(frozen=True)
class NormalizerTable:
    """Tabulated product-set description of a normalizer.

    factors are set descriptors over (z, v-pairs, t); membership is exact.
    """

    params: dict
    factors: tuple[str, ...]

    @classmethod
    def for_spec(cls, spec: LatticeSpec) -> "NormalizerTable":
        if isinstance(spec, Dim4Family):
            k = spec.k
            v_factor = {
                Fraction(2): f"Z^2/{2 * k}",
                Fraction(1): "Z^2/2",
                Fraction(1, 2): "Z^2",
            }[spec.angle.q2]
            return cls(
                params={"family": "dim4", "k": k, "angle": str(spec.angle)},
                factors=("R", v_factor, "(pi/2) Z"),
            )
        if isinstance(spec, Dim6Family):
            k, p, q, m_div = spec.k, spec.p, spec.q, spec.m_div
            if m_div == 1:
                mid: tuple[str, ...] = (f"Z^4/{2 * k}",)
            elif m_div == 2:
                mid = ("Z^4/2",) if p % 2 else ("Z^2/2", f"Z^2/{2 * k}")
            else:
                if p % 2 == 0:
                    first = "Z^2" if k % 2 else "I2"
                    mid = (first, f"Z^2/{2 * k}")
                else:
                    mid = ("I4",) if k % 2 else ("I2", "I2")
            t_factor = "(pi/2) Z" if q == 1 else f"({q} pi/2) Z"
            return cls(
                params={"family": "dim6", "k": k, "p": p, "q": q, "M": m_div},
                factors=("R", *mid, t_factor),
            )
        raise UnsupportedSpec("no tabulated normalizer for this family")

    def contains(self, g: GroupElement) -> bool:
        if not g.is_exact():
            raise TypeError("table membership is decided in exact mode")
        q = self.params.get("q", 1)
        if g.t.q1 != 0:
            return g.t.is_zero()
        if (g.t.q2 / Fraction(q, 2)).denominator != 1:
            return False
        pairs = [(g.v[2 * i], g.v[2 * i + 1]) for i in range(g.n)]
        sets = self.factors[1:-1]
        if len(sets) == 1 and len(pairs) == 2:
            return self._pair_set(sets[0], pairs[0] + pairs[1])
        return all(self._pair_set(s, pair) for s, pair in zip(sets, pairs))

    @staticmethod
    def _pair_set(descriptor: str, values) -> bool:
        if descriptor == "I2":
            return in_i2(values)
        if descriptor == "I4":
            return in_i4(values)
        denom = int(descriptor.split("/")[1]) if "/" in descriptor else 1
        return all(_in_scaled_int(x, denom) for x in values)

    def to_json(self) -> dict:
        return {"params": self.params, "normalizer": " x ".join(self.factors)}


def printed_table_membership(g: GroupElement, spec: LatticeSpec) -> bool:
    return NormalizerTable.for_spec(spec).contains(g)


# -- verification grids -----------------------------------------------------------


def verification_grid(
    spec: LatticeSpec, min_points: int = 500, max_points: int | None = None
) -> list[GroupElement]:
    """Exact grid stressing the step, half-odd, and off-lattice cases."""
    if isinstance(spec, Dim4Family):
        q = 1
    elif isinstance(spec, Dim6Family):
        q = spec.q
    else:
        raise UnsupportedSpec("grids are built for the dim-4/dim-6 families")
    n2 = 2 * spec.freqs.n
    v_values = [
        Fraction(0),
        Fraction(1, 4),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(1),
        Fraction(3, 2),
        Fraction(1, 2 * spec.k),
    ]
    v_values = sorted(set(v_values))
    t_values = [
        ExactScalar(0),
        PI / 4,
        PI / 2,
        PI * q / 2,
        PI * q,
        2 * PI * q,
        -PI * q / 2,
    ]
    z_values = [ExactScalar(0), ExactScalar(Fraction(1, 3))]
    combos = list(product(v_values, repeat=n2))
    if max_points is not None and len(combos) > max_points:
        stride = len(combos) / max_points
        combos = [combos[int(i * stride)] for i in range(max_points)]
    grid = []
    for idx, vs in enumerate(combos):
        t = t_values[idx % len(t_values)]
        z = z_values[idx % len(z_values)]
        grid.append(GroupElement(z, vs, t))
    # pad with sign variations until the requested size
    idx = 0
    while len(grid) < min_points:
        vs = tuple(-v for v in combos[idx % len(combos)])
        grid.append(GroupElement(z_values[0], vs, t_values[idx % len(t_values)]))
        idx += 1
    return grid


def normalizer_table_report(
    spec: LatticeSpec, grid: list[GroupElement] | None = None
) -> list[dict]:
    """Grid points where the tabulated set disagrees with the conditions."""
    if grid is None:
        grid = verification_grid(spec)
    table = NormalizerTable.for_spec(spec)
    out = []
    for g in grid:
        derived = in_normalizer(g, spec)
        printed = table.contains(g)
        if derived != printed:
            out.append(
                {"element": g.to_json(), "conditions": derived, "table": printed}
            )
    return out
