"""Lattice normalizers: exact membership, brute-force oracle, table diffs.

For a product-form lattice Z_lat x Z^{2n} x t0*Z, conjugating the generator
set reduces g = (z, v, t) in N(lattice) to four exact conditions, with
R_c = R(t0 * c) ranging over the rotation period c = 0..K0-1:

    (A) R(t) has integer entries (every lambda_i t in (pi/2)Z);
    (B) (Id - R_c) v in Z^{2n};
    (C) v^T J R_c v in (1/k)Z;
    (D) (Id + R_c) v in (1/k)Z^{2n}.

`in_normalizer` evaluates these conditions; `normalizer_oracle` conjugates
the generators directly (both directions, through the one-pass
`group.conjugate`) and is the arbiter.  The two are provably equivalent and
the test suite checks them against each other on full grids.  A
verification grid reads only n, k and the t-step multiple q off the spec,
so each is built once per (n, k, q) and size, and shared.  Only a process
that asks for one grid more than once gains from this: the criterion-7
sweep (60 specs, 12 builds) and repeated in-process CLI calls; a one-shot
`isometry normalizer` command builds its one grid as before.

`NormalizerTable` carries the commonly tabulated closed-form answers.  The
tabulated dim-4 quarter-turn row and the dim-6 rows with p = 2 mod 4 are
too permissive for some parities of k (the derived conditions admit the
half-odd square I2 = Z^2 u F^2 for even k in dimension four, and force the
second pair into (1/2)Z^2 in the p = 2 mod 4 rows).  `normalizer_table_report`
walks a grid once and surfaces every point where the oracle or the table
disagrees with the conditions instead of reconciling them silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .exact import PI, ExactScalar, pi_coefficient
from .group import GroupElement, conjugate, int_pairing, invert, is_quarter_turn, swap_pairs
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
    num, den, k = g.num, g.den, spec.k  # v = num / den
    for rc in spec.period_rotations:
        rn = swap_pairs(rc, num)
        if any((x - y) % den for x, y in zip(num, rn)):
            return False  # (B)
        if k * int_pairing(num, rn) % (den * den):
            return False  # (C)
        if any(k * (x + y) % den for x, y in zip(num, rn)):
            return False  # (D)
    return True


def normalizer_oracle(g: GroupElement, spec: LatticeSpec) -> bool:
    """Ground truth: conjugation by g maps every generator into the lattice,
    in both directions."""
    if not g.is_exact():
        raise TypeError("the oracle works on exact elements")
    if not is_quarter_turn(g.t, spec.freqs):
        # a nonzero rational part q1 of t = q1 + q2 pi leaves cos and sin of
        # every block angle not both rational: exp(i lambda_i q1) is
        # transcendental by Lindemann-Weierstrass and exp(i lambda_i q2 pi)
        # is algebraic.  A pi-rational non-quarter turn cannot have both
        # rational either.
        # Either way R(t) e_i leaves Z^{2n}, so conjugating a v-generator
        # leaves the integer lattice
        return False
    freqs = spec.freqs
    g_inv = invert(g, freqs)
    for gen in spec.generators():
        if not spec.contains(conjugate(g, gen, freqs)):
            return False
        if not spec.contains(conjugate(g_inv, gen, freqs)):
            return False
    return True


# -- tabulated closed forms ------------------------------------------------------


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
            }[spec.t0_pi_coeff]
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
        """Exact membership, decided on the ints of v = num / den: each v
        factor reads an equal slice of num."""
        if not g.is_exact():
            raise TypeError("table membership is decided in exact mode")
        if len(g.num) != {"dim4": 2, "dim6": 4}[self.params["family"]]:
            raise ValueError("element dimension does not match the lattice")
        q = self.params.get("q", 1)
        pc = pi_coefficient(g.t)  # t = (n / d) pi must lie in (q pi / 2) Z
        if pc is None or 2 * pc[0] % (pc[1] * q):
            return False
        num, den, sets = g.num, g.den, self.factors[1:-1]
        size = len(num) // len(sets)
        for i, factor in enumerate(sets):
            part = num[i * size:(i + 1) * size]
            if factor in ("I2", "I4"):  # Z^m u F^m, F = (1/2)(odd integers)
                if not (all(x % den == 0 for x in part)
                        or all(2 * x % den == 0 and x % den for x in part)):
                    return False
            else:  # "Z^m" or "Z^m/d"
                d = int(factor.split("/")[1]) if "/" in factor else 1
                if any(x * d % den for x in part):
                    return False
        return True

    def to_json(self) -> dict:
        return {"params": self.params, "normalizer": " x ".join(self.factors)}


# -- verification grids -----------------------------------------------------------


def verification_grid(
    spec: LatticeSpec, min_points: int = 500, max_points: int | None = None
) -> list[GroupElement]:
    """Exact grid stressing the step, half-odd, and off-lattice cases: a fresh
    list of immutable elements, built once per (n, k, q) and size."""
    if isinstance(spec, Dim4Family):
        q = 1
    elif isinstance(spec, Dim6Family):
        q = spec.q
    else:
        raise UnsupportedSpec("grids are built for the dim-4/dim-6 families")
    return list(_grid(spec.freqs.n, spec.k, q, min_points, max_points))


# bounded: max_points comes from `--grid-points`; 16 holds the 12 (n, k, q)
# classes of the criterion-7 sweep at one size
@lru_cache(maxsize=16)
def _grid(n: int, k: int, q: int, min_points: int, max_points: int | None) -> tuple:
    v_values = [
        Fraction(0),
        Fraction(1, 4),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(1),
        Fraction(3, 2),
        Fraction(1, 2 * k),
    ]
    v_values = sorted(set(v_values))
    den = math.lcm(*(x.denominator for x in v_values))
    v_scaled = [x.numerator * (den // x.denominator) for x in v_values]  # v = scaled / den
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
    combos = list(product(v_scaled, repeat=2 * n))
    if max_points is not None and len(combos) > max_points:
        stride = len(combos) / max_points
        combos = [combos[int(i * stride)] for i in range(max_points)]
    grid = []
    for idx, vs in enumerate(combos):
        t = t_values[idx % len(t_values)]
        z = z_values[idx % len(z_values)]
        grid.append(GroupElement._exact(z, vs, den, t))
    # pad with sign variations until the requested size
    idx = 0
    while len(grid) < min_points:
        vs = tuple(-v for v in combos[idx % len(combos)])
        grid.append(GroupElement._exact(z_values[0], vs, den, t_values[idx % len(t_values)]))
        idx += 1
    return tuple(grid)


def normalizer_table_report(
    spec: LatticeSpec, grid: list[GroupElement] | None = None
) -> list[dict]:
    """Grid points where the conditions disagree with the oracle or with the
    tabulated set, each with all three answers: one walk of the grid."""
    if grid is None:
        grid = verification_grid(spec)
    table = NormalizerTable.for_spec(spec)
    out = []
    for g in grid:
        derived = in_normalizer(g, spec)
        oracle = normalizer_oracle(g, spec)
        printed = table.contains(g)
        if derived != oracle or derived != printed:
            out.append({"element": g.to_json(), "conditions": derived,
                        "oracle": oracle, "table": printed})
    return out
