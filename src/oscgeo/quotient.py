"""Closed-geodesic analysis on the compact quotients.

A geodesic through the identity descends to a closed curve on the quotient
by a lattice exactly when it meets the lattice at a positive parameter.
This module decides the lightlike dichotomy (either every lightlike
geodesic closes, or only the central direction does), constructs closed
timelike and spacelike geodesics hitting explicit lattice points, runs a
bounded closure search for arbitrary initial velocities, and settles the
product-with-a-line variant where lightlike closure depends on whether the
squared line step is a rational multiple of 2*pi.

The closure search tries the candidate times r * t0 / a.  Its setup is done
once per search: the exact candidates repeat their rotation part with
r mod K0 (`geodesics.exact_orbit`), so each one costs a few integer
multiples of exact scalars, and the float candidates share one float
geodesic and the lattice constants of the snap.

Certificates are verified before being returned: the target lattice point
is checked by exact membership, the closed-form evaluation is re-run in
float mode against it, and -- whenever the initial data is exact -- the
evaluation is also replayed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraVector, CausalClass, FrequencyList, causal_class
from .exact import PI, ExactScalar, as_exact, pi_coefficient
from .geodesics import Geodesic, eval_geodesic, eval_geodesic_exact, exact_orbit
from .group import GroupElement, max_coord_dist, rotate_pairs, rotation
from .lattices import (
    Dim4Family,
    Dim6Family,
    LatticeSpec,
    ProductWithLine,
    Twisted,
    UnsupportedSpec,
    pure_t_element,
)

FLOAT_VERIFY_TOL = 1e-9
M_SCAN_CAP = 10**6


class CertificateVerificationFailed(Exception):
    """A constructed closed geodesic failed re-verification; never swallowed."""


@dataclass(frozen=True)
class LightlikeVerdict:
    kind: str  # "all_closed" | "only_central_direction"
    witness: GroupElement | None = None

    @property
    def all_closed(self) -> bool:
        return self.kind == "all_closed"

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


@dataclass(frozen=True)
class ClosedGeodesicCertificate:
    initial: AlgebraVector          # float form, for closed-form evaluation
    s_star: object                  # positive parameter; exact where possible
    lattice_point: GroupElement     # exact member hit at s_star
    causal: CausalClass
    initial_exact: AlgebraVector | None = None  # exact entries when available

    def verify(self, spec: LatticeSpec, tol: float = FLOAT_VERIFY_TOL) -> None:
        if not spec.contains(self.lattice_point):
            raise CertificateVerificationFailed(
                f"target {self.lattice_point} is not a lattice member"
            )
        s = float(self.s_star) if not isinstance(self.s_star, float) else self.s_star
        if s <= 0:
            raise CertificateVerificationFailed("closure parameter must be positive")
        approached = eval_geodesic(Geodesic(self.initial.to_floats(), spec.freqs), s)
        err = max_coord_dist(approached, self.lattice_point.to_floats())
        if err > tol:
            raise CertificateVerificationFailed(
                f"float re-evaluation misses the lattice point by {err:.3e}"
            )
        if self.initial_exact is not None:
            replay = eval_geodesic_exact(self.initial_exact, self.s_star, spec.freqs)
            if replay != self.lattice_point:
                raise CertificateVerificationFailed(
                    "exact replay disagrees with the certified lattice point"
                )

    def to_json(self) -> dict:
        init = self.initial.to_floats()
        return {
            "initial": {
                "d": init.d,
                "bc": [list(p) for p in init.bc],
                "a": init.a,
            },
            "s_star": _scalar_to_json(self.s_star),
            "lattice_point": self.lattice_point.to_json(),
            "causal": self.causal.value,
            "exact_initial_data": self.initial_exact is not None,
        }


def _scalar_to_json(s):
    if isinstance(s, float):
        return s
    if isinstance(s, Fraction):
        return str(s)
    return str(as_exact(s))


def _require_profiled(spec: LatticeSpec) -> None:
    if not isinstance(spec, (Dim4Family, Dim6Family, Twisted)):
        raise UnsupportedSpec(
            f"{type(spec).__name__} does not support profile-based classification"
        )


def classify_lightlike(spec: LatticeSpec) -> LightlikeVerdict:
    """Either every lightlike geodesic on the quotient closes, or only the
    central direction does; decided by the pure-t membership question."""
    _require_profiled(spec)
    if spec.profile().has_pure_t:
        return LightlikeVerdict("all_closed", witness=pure_t_element(spec))
    return LightlikeVerdict("only_central_direction")


# -- constructive closed timelike / spacelike geodesics ----------------------


def _twist_total(spec: LatticeSpec) -> tuple[LatticeSpec, ExactScalar]:
    """Unwrap nested twists down to the product-form core."""
    twist = ExactScalar(0)
    while isinstance(spec, Twisted):
        twist = twist + spec.m
        spec = spec.base
    return spec, twist


def _certificate_k0_one(spec, prof, sign_wanted: int) -> ClosedGeodesicCertificate:
    """Velocity a = t0, b = c = 0, d = mu*w + z over members (z, 0, t0)."""
    core, twist = _twist_total(spec)
    w = prof.central_w.to_fraction()
    t_hat = prof.t0
    z_base = twist * t_hat  # twisted shift
    for mu in _alternating_scan():
        d = z_base + mu * w
        # causal quantity 2 a d with a = t_hat
        sign = (2 * t_hat * d).sign()
        if sign != sign_wanted:
            continue
        target = GroupElement(d, (0,) * (2 * spec.freqs.n), t_hat)
        initial_exact = AlgebraVector(d, [(0, 0)] * spec.freqs.n, t_hat)
        initial = AlgebraVector(
            float(d), [(0.0, 0.0)] * spec.freqs.n, float(t_hat)
        )
        causal = CausalClass.TIMELIKE if sign < 0 else CausalClass.SPACELIKE
        cert = ClosedGeodesicCertificate(
            initial, ExactScalar(1), target, causal, initial_exact
        )
        cert.verify(spec)
        return cert
    raise CertificateVerificationFailed("sign scan exhausted")  # pragma: no cover


def _certificate_k0_many(spec, prof, sign_wanted: int) -> ClosedGeodesicCertificate:
    """Solve the per-block linear systems for a member (x, u, (K0-1) t0)."""
    core, twist = _twist_total(spec)
    freqs = spec.freqs
    w = prof.central_w.to_fraction()
    t_hat = prof.t0 * (prof.k0 - 1)
    tau = t_hat.coeffs[1]  # t_hat = tau pi
    blocks = []  # (u_j, beta_j, gamma_j, sin_j) with velocities beta*pi, gamma*pi
    for lam, (kos, sin) in zip(freqs.lambdas, rotation(t_hat, freqs).cos_sin):
        if kos == 1:  # singular block: stays at the origin, target 0 there
            blocks.append(((Fraction(0), Fraction(0)), Fraction(0), Fraction(0), sin))
            continue
        u_j = (Fraction(1), Fraction(0))
        det = Fraction(sin * sin + (1 - kos) * (1 - kos))
        rhs = (lam * tau * u_j[0], lam * tau * u_j[1])
        # inverse of the rotation shape [[sin, kos-1], [1-kos, sin]]: transpose / det
        beta, gamma = (x / det for x in rotate_pairs([(sin, kos - 1)], rhs))
        blocks.append((u_j, beta, gamma, sin))
    u_flat = []
    for (u_j, _, _, _) in blocks:
        u_flat.extend(u_j)
    # constants for the z-equation and the causal sign
    sum_bc_over_lam = sum(
        (b * b + g * g) / lam for (_, b, g, _), lam in zip(blocks, freqs.lambdas)
    )
    sum_bc_sin_over_lam2 = sum(
        (b * b + g * g) * s / (lam * lam)
        for (_, b, g, s), lam in zip(blocks, freqs.lambdas)
    )
    z_twist = twist * t_hat
    for mu in _alternating_scan():
        z_hat = z_twist + mu * w
        # Q = 2 a z_hat + (1/a) sum sin_k (b_k^2+c_k^2)/lam_k^2 with a = tau pi
        # and (b_k, c_k) = (beta_k, gamma_k) pi
        sign = (2 * t_hat * z_hat + sum_bc_sin_over_lam2 / tau * PI).sign()
        if sign != sign_wanted:
            continue
        d = (
            z_hat
            + sum_bc_sin_over_lam2 / (2 * tau * tau)
            - sum_bc_over_lam / (2 * tau) * PI
        )
        bc_exact = [
            (ExactScalar(0, b), ExactScalar(0, g)) for (_, b, g, _) in blocks
        ]
        initial_exact = AlgebraVector(d, bc_exact, t_hat)
        initial = AlgebraVector(
            float(d),
            [(float(b), float(c)) for b, c in bc_exact],
            float(t_hat),
        )
        target = GroupElement(z_hat, u_flat, t_hat)
        causal = CausalClass.TIMELIKE if sign < 0 else CausalClass.SPACELIKE
        cert = ClosedGeodesicCertificate(
            initial, ExactScalar(1), target, causal, initial_exact
        )
        cert.verify(spec)
        return cert
    raise CertificateVerificationFailed("sign scan exhausted")  # pragma: no cover


def _alternating_scan():
    yield 0
    for m in range(1, M_SCAN_CAP):
        yield m
        yield -m


def closed_timelike_and_spacelike(
    spec: LatticeSpec,
) -> tuple[ClosedGeodesicCertificate, ClosedGeodesicCertificate]:
    """A verified closed timelike and closed spacelike geodesic certificate."""
    _require_profiled(spec)
    core, twist = _twist_total(spec)
    if (twist * core.profile().t0).degree() > 1:
        raise UnsupportedSpec(
            "twist times t-step has a pi^2 term; certificates for pi-twisted lattices "
            "are not built yet"
        )
    prof = spec.profile()
    builder = _certificate_k0_one if prof.k0 == 1 else _certificate_k0_many
    return builder(spec, prof, -1), builder(spec, prof, +1)


# -- bounded closure search ----------------------------------------------------


def _rational_lcm(values: list[Fraction]) -> Fraction:
    """Positive generator of the intersection of the groups value_i * Z."""
    num, den = 1, 0
    for v in values:
        v = abs(v)
        num = math.lcm(num, v.numerator)
        den = math.gcd(den, v.denominator)
    return Fraction(num, den)


def _search_line_case(
    x: AlgebraVector, spec: LatticeSpec, freqs: FrequencyList
) -> ClosedGeodesicCertificate | None:
    """Lattice hits of the straight line (d s, (b_j s, c_j s), 0)."""
    d = as_exact(x.d).to_fraction()
    bcs = [as_exact(c).to_fraction() for pair in x.bc for c in pair]
    steps: list[Fraction] = []
    if d != 0:
        steps.append(spec.z_step() / abs(d))
    steps.extend(1 / abs(b) for b in bcs if b != 0)
    if not steps:
        return None  # zero velocity: the constant curve closes trivially
    s_star = _rational_lcm(steps)
    point = eval_geodesic_exact(x, s_star, freqs)
    if not spec.contains(point):
        return None
    cert = ClosedGeodesicCertificate(
        x.to_floats(),
        s_star,
        point,
        CausalClass.LIGHTLIKE if all(b == 0 for b in bcs) else CausalClass.SPACELIKE,
        x,
    )
    cert.verify(spec)
    return cert


def search_closed(
    x: AlgebraVector,
    spec: LatticeSpec,
    r_max: int = 1000,
    float_tol: float = FLOAT_VERIFY_TOL,
) -> ClosedGeodesicCertificate | None:
    """First verified lattice hit at candidate times r * t0 / a, r <= r_max.

    Set up once per search; the exact candidates repeat with r mod K0, and
    a candidate the closed form cannot evaluate exactly takes the float
    snap.  None means "no closure within the bound", never a proof of
    openness.
    """
    _require_profiled(spec)
    if x.n != spec.freqs.n:
        raise ValueError("velocity does not match the lattice dimension")
    if r_max < 0:
        raise ValueError(f"r_max must be non-negative, got {r_max}")
    freqs = spec.freqs
    prof = spec.profile()
    exact_input = x.is_exact()
    if exact_input and as_exact(x.a).is_zero():
        return _search_line_case(x, spec, freqs)
    if not exact_input and float(x.a) == 0.0:
        return None  # line search needs exact data
    a_sign = 1 if float(x.a) > 0 else -1  # keep candidate times positive
    try:
        orbit = exact_orbit(x, prof.t0 * a_sign, prof.k0, freqs) if exact_input else None
    except ValueError:
        orbit = None  # no candidate stays exact: every one takes the float snap
    initial = x.to_floats()
    geo = Geodesic(initial, freqs)
    t0_f, a_f = float(prof.t0), float(x.a)
    snap = _lattice_snap(spec, prof.t0, float_tol)
    for r in range(1, r_max + 1):
        if orbit is not None:
            try:
                s_exact, point = orbit(r)
            except ValueError:
                pass
            else:
                if spec.contains(point):
                    cert = ClosedGeodesicCertificate(
                        initial, s_exact, point, causal_class(x, freqs), x
                    )
                    cert.verify(spec)
                    return cert
                continue
        # float fallback: snap to the lattice at float_tol, then decide
        # membership of the snapped candidate exactly
        s = r * a_sign * t0_f / a_f
        snapped = snap(eval_geodesic(geo, s))
        if snapped is not None:
            cert = ClosedGeodesicCertificate(initial, s, snapped, causal_class(x, freqs))
            cert.verify(spec, tol=float_tol)
            return cert
    return None


def _lattice_snap(spec: LatticeSpec, t0: ExactScalar, tol: float):
    """point -> the nearest exact member of spec within tol per coordinate,
    or None; t0 is the spec's t-step, and the constants are read once."""
    core, twist = _twist_total(spec)
    tw = float(twist)
    t_step = float(t0)
    z_step = core.z_step()
    z_step_f = float(z_step)
    t0_num, t0_den = pi_coefficient(t0)  # t0 = (t0_num / t0_den) pi

    def snap(point: GroupElement) -> GroupElement | None:
        # a coordinate that is not finite (round raises) or whose float
        # spacing exceeds tol (it places no member within tol) is refused;
        # the spacing is read only once the proximity test has passed
        try:
            j = round(point.t / t_step)
            if abs(point.t - j * t_step) > tol or math.ulp(point.t) > tol:
                return None
            v_exact = []
            for c in point.v:
                vi = round(c)
                if abs(c - vi) > tol or math.ulp(c) > tol:
                    return None
                v_exact.append(vi)
            # float(t0 * j) from ints; the exact t is built only for a member
            t_f = t0_num * j / t0_den * math.pi
            z_core = point.z - tw * t_f
            u = round(z_core / z_step_f)
        except (OverflowError, ValueError):
            return None
        if abs(z_core - u * z_step_f) > tol or math.ulp(z_core) > tol:
            return None
        t_exact = t0 * j
        z_exact = twist * t_exact + z_step * u
        candidate = GroupElement(z_exact, v_exact, t_exact)
        return candidate if spec.contains(candidate) else None

    return snap


# -- the product-with-a-line variant ------------------------------------------


@dataclass(frozen=True)
class ProductLineVerdict:
    kind: str  # "never_closed" | "some_closed_possible"
    residue: dict | None = None

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.residue is not None:
            out["residue"] = self.residue
        return out


def product_line_lightlike(spec: ProductWithLine) -> ProductLineVerdict:
    """Lightlike closure on (group x line)/lattice.

    Closure of a lightlike curve forces w^2 = -2 pi k m / z^2 with integers
    k, m, z, so w^2 outside 2*pi*Q (rational part present, pi^2 component,
    or flagged irrational) rules out every closed lightlike geodesic.
    """
    if not isinstance(spec, ProductWithLine):
        raise UnsupportedSpec("product-line analysis needs a ProductWithLine spec")
    w2 = spec.w_squared
    if w2 is None:
        return ProductLineVerdict("never_closed")
    coeffs = w2.coeffs
    in_two_pi_q = len(coeffs) == 2 and coeffs[0] == 0 and coeffs[1] != 0
    if not in_two_pi_q:
        return ProductLineVerdict("never_closed")
    rho = coeffs[1] / 2  # w^2 = 2 pi rho
    k = rho.numerator * rho.denominator
    residue = {
        "relation": "w^2 = -2 pi k m / z^2",
        "k": k,
        "m": -1,
        "z": rho.denominator,
    }
    return ProductLineVerdict("some_closed_possible", residue)
