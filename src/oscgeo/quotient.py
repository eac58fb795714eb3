"""Closed-geodesic analysis on the compact quotients.

A geodesic through the identity descends to a closed curve on the quotient
by a lattice exactly when it meets the lattice at a positive parameter.
This module decides the lightlike dichotomy (either every lightlike
geodesic closes, or only the central direction does), constructs closed
timelike and spacelike geodesics hitting explicit lattice points, decides
closure for exact initial velocities, runs a bounded closure search, and
settles the product-with-a-line variant where lightlike closure depends on
whether the squared line step is a rational multiple of 2*pi.

The candidate times are r * t0 / a.  For an exact velocity the point at r
repeats its rotation part with r mod K0, and membership, read off the
closed form cleared of a, is linear in r within each residue class.  Where
a class's v is rational its z-offset is a rational multiple of the z-step,
so one test on the velocity (is its drift, in pi, proportional to the
z-step?) and one int congruence per class decide it: `decide_closed` finds
the least closing r, or proves there is none, from K0 classes, for every
a != 0.  The bounded search is that decision capped at r_max.  Float data
alone takes the float snap: one numpy screen over every candidate, then
the scalar snap on the few that pass.  Only its miss is never a proof of
openness.

The lattice is read only through its `LatticeProfile`, membership, and
the spec's one table of R(c t0), `period_rotations`, which gives the
rotation of each residue class and of each certificate's member.  The
closed timelike and spacelike certificates come from one construction: the
velocity that `exp_preimage` reads off a lattice member, which the geodesic
meets at s = 1.  Every certificate is built and verified in one place
(`_certify`) before being returned: the target lattice point is checked by
exact membership, the closed-form evaluation is re-run in float mode
against it, and -- whenever the parameter is exact, which it is only for
exact initial data -- the evaluation is also replayed exactly.  The replay
evaluates afresh the `_Cleared` form the decision was made with: R(t), the
form at R(t), the division by a^2 and the comparison with the lattice point
all run again; only the lift of x to ints is shared, the lift a fresh
replay would make from the same x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from .algebra import AlgebraVector, CausalClass, FrequencyList, causal_class
from .exact import ExactScalar, as_exact, pi_coefficient, poly_mul, rational_ratio
from .geodesics import (
    Geodesic, _Cleared, eval_geodesic, eval_geodesic_exact, exp_preimage, flow_coords,
)
from .group import GroupElement, max_coord_dist
from .lattices import LatticeSpec, ProductWithLine, UnsupportedSpec, pure_t_element

FLOAT_VERIFY_TOL = 1e-9  # per coordinate: the float snap and each certificate's check


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
    s_star: object                  # positive; exact when x and t0 / a are exact
    lattice_point: GroupElement     # exact member hit at s_star
    causal: CausalClass
    initial_exact: AlgebraVector | None = None  # exact entries when available
    # the `_Cleared` form of initial_exact the closure was decided with; not
    # part of the certificate's value, and rebuilt by the replay when absent
    # or built from another x
    form: _Cleared | None = field(default=None, compare=False, repr=False)

    def verify(self, spec: LatticeSpec, tol: float = FLOAT_VERIFY_TOL):
        """The certificate itself, once it has passed every check.  The exact
        replay evaluates the carried `form` afresh at s_star."""
        if not spec.contains(self.lattice_point):
            raise CertificateVerificationFailed(
                f"target {self.lattice_point} is not a lattice member"
            )
        s = float(self.s_star)
        if s <= 0:
            raise CertificateVerificationFailed("closure parameter must be positive")
        approached = eval_geodesic(Geodesic(self.initial, spec.freqs), s)
        err = max_coord_dist(approached, self.lattice_point.to_floats())
        if not err <= tol:  # a nan err misses too
            raise CertificateVerificationFailed(
                f"float re-evaluation misses the lattice point by {err:.3e}"
            )
        if self.initial_exact is not None:
            replay = eval_geodesic_exact(self.initial_exact, self.s_star, spec.freqs,
                                         self.form)
            if replay != self.lattice_point:
                raise CertificateVerificationFailed(
                    "exact replay disagrees with the certified lattice point"
                )
        return self

    def to_json(self) -> dict:
        x = self.initial
        return {
            "initial": {
                "d": float(x.d),
                "bc": [[float(b), float(c)] for b, c in x.bc],
                "a": float(x.a),
            },
            "s_star": self.s_star if isinstance(self.s_star, float) else str(self.s_star),
            "lattice_point": self.lattice_point.to_json(),
            "causal": self.causal.value,
            "exact_initial_data": self.initial_exact is not None,
        }


def _certify(x: AlgebraVector, s, point: GroupElement, causal: CausalClass,
             spec: LatticeSpec, form: _Cleared | None) -> ClosedGeodesicCertificate:
    """The certificate that x meets point at s, verified within
    FLOAT_VERIFY_TOL; replayed exactly iff s is not a float (an exact s
    comes only with an exact x).  `form` is x's `_Cleared`, the one the hit
    was decided with, which the replay evaluates afresh; None for a float s
    or a line (a = 0)."""
    exact = None if isinstance(s, float) else x
    cert = ClosedGeodesicCertificate(x.to_floats(), s, point, causal, exact, form)
    return cert.verify(spec, FLOAT_VERIFY_TOL)


def classify_lightlike(spec: LatticeSpec) -> LightlikeVerdict:
    """Either every lightlike geodesic on the quotient closes, or only the
    central direction does; decided by the pure-t membership question."""
    if spec.profile().has_pure_t:
        return LightlikeVerdict("all_closed", witness=pure_t_element(spec))
    return LightlikeVerdict("only_central_direction")


# -- constructive closed timelike / spacelike geodesics ----------------------


def _first_mu(e0: ExactScalar, slope: ExactScalar, sign_wanted: int) -> int:
    """First mu of 0, 1, -1, 2, -2, ... with sign(e0 + mu slope) == sign_wanted.

    With slope > 0 the wanted sign holds on the half-line beyond the root
    -e0 / slope, so the answer is 0 or the integer of that half-line nearest
    0.  A float guess at it only seeds the search: exact sign checks gallop
    from the guess to a bracket and bisect it, in O(log) checks however far
    off the guess is (past 2^53, or past the float range).
    """
    step = sign_wanted  # the side of 0 the half-line lies on

    def wanted(j: int) -> bool:  # j >= 0 steps to that side
        return (e0 + slope * (step * j)).sign() == sign_wanted

    if wanted(0):
        return 0
    try:
        guess = max(1, math.floor(-step * float(e0) / float(slope)) + 1)
    except (ArithmeticError, ValueError):
        guess = 1
    lo, hi, gap = guess - 1, guess, 1  # j = 0 is unwanted
    while lo > 0 and wanted(lo):  # gallop down to an unwanted lo
        hi, lo, gap = lo, max(0, lo - gap), 2 * gap
    while not wanted(hi):  # gallop up to a wanted hi
        lo, hi, gap = hi, hi + gap, 2 * gap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if wanted(mid) else (mid, hi)
    return step * hi


def closed_timelike_and_spacelike(
    spec: LatticeSpec,
) -> tuple[ClosedGeodesicCertificate, ClosedGeodesicCertificate]:
    """A verified closed timelike and closed spacelike geodesic certificate.

    Both meet a member (twist t + mu w, u, t) at s = 1: t = t0 when K0 = 1
    and (K0 - 1) t0 otherwise, and u_j = (1, 0) on each block that R(t)
    turns, 0 on the others.  The velocity and <x, x> are read off the
    member (twist t, u, t) by `exp_preimage`; mu w adds to d as to z, and
    2 t w mu to <x, x>, so for each causal sign mu is the first of 0, 1,
    -1, ... giving it.  A pi twist stays refused, since the benchmark's
    answers pin the refusal (`exp_preimage` itself would serve it).
    """
    prof, freqs = spec.profile(), spec.freqs
    if (prof.twist * prof.t0).degree() > 1:
        raise UnsupportedSpec("twist times t-step has a pi^2 term; certificates for "
                              "pi-twisted lattices are not built yet")
    j = max(1, prof.k0 - 1)
    t, w = prof.t0 * j, prof.central_w
    u = [e for kos, _ in spec.period_rotations[j % prof.k0]
         for e in ((0, 0) if kos == 1 else (1, 0))]
    x, e0 = exp_preimage(prof.member(0, u, j), freqs)
    certs = []
    for sign_wanted, causal in ((-1, CausalClass.TIMELIKE), (1, CausalClass.SPACELIKE)):
        mu = _first_mu(e0, 2 * t * w, sign_wanted)
        x_mu = AlgebraVector(x.d + mu * w, x.bc, t)
        certs.append(_certify(x_mu, ExactScalar(1), prof.member(mu, u, j), causal, spec,
                              _Cleared(x_mu, freqs)))
    return tuple(certs)


# -- the line case: velocities with a = 0 --------------------------------------


def _search_line_case(x: AlgebraVector, spec: LatticeSpec) -> ClosedGeodesicCertificate | None:
    """Lattice hits of the straight line (d s, (b_j s, c_j s), 0).

    The point at s is a member iff every entry of (d / w, b_j, c_j) times s
    is an integer.  So every nonzero entry is a rational multiple q of one
    positive entry e, or the line never closes; then it first meets the
    member q sigma at s = sigma / e, sigma the least positive rational with
    every q sigma an integer.  s is exact when e is rational; otherwise it
    is a float and the certificate replays in float only.
    """
    prof = spec.profile()
    entries = [as_exact(x.d) / prof.central_w] + [as_exact(c) for pair in x.bc for c in pair]
    e = next(y for y in entries if not y.is_zero())  # the zero velocity is refused
    e = e if e.sign() > 0 else -e
    ratios = [rational_ratio(y, e) for y in entries]
    if None in ratios:
        return None
    qs = [Fraction(*q) for q in ratios]
    sigma = Fraction(math.lcm(*[q.denominator for q in qs]), math.gcd(*[q.numerator for q in qs]))
    s = sigma / e.to_fraction() if e.degree() == 0 else float(sigma) / float(e)
    point = prof.member(int(qs[0] * sigma), [int(q * sigma) for q in qs[1:]], 0)
    return _certify(x, s, point, causal_class(x, spec.freqs), spec, None)


# -- the closure decision for exact velocities ------------------------------------

# the reasons a residue class r = c (mod K0) holds no closing r
V_NOT_INTEGRAL = "v is not integral"
PI_POWER = "the pi^{k} coefficient of {z} vanishes at no r of the class"
CONGRUENCE = "z misses the z-lattice at every r of the class"


@dataclass(frozen=True)
class ClosureDecision:
    """Whether the geodesic closes: the least closing r with its verified
    certificate, or, when it never closes, the obstruction of each residue
    class of r mod K0.  r is None for a line (a = 0)."""

    certificate: ClosedGeodesicCertificate | None
    r: int | None = None
    obstructions: tuple = ()  # (residue, reason) pairs

    @property
    def closes(self) -> bool:
        return self.certificate is not None

    def to_json(self) -> dict:
        if not self.closes:
            return {
                "kind": "never",
                "obstructions": [{"residue": c, "reason": why} for c, why in self.obstructions],
            }
        return {"kind": "closes"} if self.r is None else {"kind": "closes", "r": self.r}


def _least_r(a: int, b: int, g: int, c: int, k0: int):
    """Least r >= 1 with r = c (mod k0) and a r + b in g Z, g != 0; or
    CONGRUENCE when the class holds none.  a r = -b (mod |g|) is solved by a
    modular inverse, and then with r = c (mod k0)."""
    mod = abs(g)
    h = math.gcd(a, mod)
    if b % h:
        return CONGRUENCE
    m = mod // h
    r0 = -b // h * pow(a // h, -1, m) % m  # r = r0 (mod m)
    h = math.gcd(m, k0)
    if (c - r0) % h:
        return CONGRUENCE
    period = m // h * k0
    r = (r0 + m * ((c - r0) // h * pow(m // h, -1, k0 // h))) % period
    return r or period


def _decide(x: AlgebraVector, spec: LatticeSpec, limit: int | None, form: _Cleared):
    """(least closing r, the member met there, {residue: obstruction}); r
    and the member are None when no r up to `limit` closes.  `form` is x's
    `_Cleared`.

    With c = r mod K0 and t_step = +-t0, R(K0 t_step) = Id splits the point
    at r into (r L + P(c), V(c), r t_step): V(c) and a^2 P(c) are
    `_Cleared.at` R(c t_step), which is period_rotations[sign c % K0], and
    a^2 L is t_step times its drift.  Cleared of a, the point is a member
    iff V(c) is integral and r alpha + a^2 P(c) lies in gamma Z, with
    alpha = a^2 (L - twist t_step) and gamma = a^2 w, polynomials in pi.

    Where V(c) is rational, (b_j, c_j) is a rational multiple of a on each
    block that R(c t_step) turns (that 2x2 map is invertible), and only
    turned blocks feed a^2 P(c); so a^2 P(c) is a rational multiple of
    a^2, hence of gamma, as w is rational.  Then r alpha + a^2 P(c) =
    u gamma has a solution only if alpha is proportional to gamma: one
    test on x, whose first failing power of pi obstructs every class with
    an integral V(c) (in z when gamma has one nonzero row, else in a^2 z).
    Past it, the row k of gamma's first nonzero coefficient is the one
    congruence of each class (`_least_r`), and gives u.  The classes are
    taken in the order of their least member, r = 1, ..., K0, and the
    scan stops once no class can beat the best r found or `limit`.
    """
    prof = spec.profile()
    sign, k0, rotations = as_exact(x.a).sign(), prof.k0, spec.period_rotations
    # alpha, gamma and lift a^2 P(c) over one denominator: the drift's times
    # tw.den w.den t0d, with t_step = sign (t0n / t0d) pi
    tw, w, ((_, t0n), t0d) = prof.twist, prof.central_w, (prof.t0.num, prof.t0.den)
    alpha = [0] + [sign * t0n * w.den * (u * tw.den - q) for u, q in
                   zip_longest(form.drift, poly_mul(form.a2, tw.num), fillvalue=0)]
    gamma = [u * tw.den * t0d for u in poly_mul(form.a2, w.num)]
    lift = tw.den * w.den * t0d
    k = next(k for k, g in enumerate(gamma) if g)  # row k gives u
    a_k, g_k = alpha[k], gamma[k]
    off = next((j for j, (a_j, g_j) in enumerate(zip_longest(alpha, gamma, fillvalue=0))
                if a_j * g_k != g_j * a_k), None)  # alpha is not proportional to gamma
    shift, z = (k, "z") if sum(map(bool, gamma)) == 1 else (0, "a^2 z")
    pi_power = None if off is None else PI_POWER.format(k=off - shift, z=z)
    best, obstructions, residues = None, {}, {}  # residues: c -> (V(c), row k of a^2 P(c))
    for r_min in range(1, k0 + 1):
        if (best is not None and r_min >= best) or (limit is not None and r_min > limit):
            break
        c = r_min % k0
        v, p = form.at(rotations[sign * c % k0])
        if v is None or v[1] != 1:
            obstructions[c] = V_NOT_INTEGRAL
        elif pi_power:
            obstructions[c] = pi_power
        else:
            residues[c] = v[0], p[k] * lift
            found = _least_r(a_k, residues[c][1], g_k, c, k0)
            if found == CONGRUENCE:
                obstructions[c] = found
            elif best is None or found < best:
                best = found
    if best is None or (limit is not None and best > limit):
        return None, None, obstructions
    v, p_k = residues[best % k0]
    return best, prof.member((a_k * best + p_k) // g_k, v, sign * best), obstructions


def _closure(x: AlgebraVector, spec: LatticeSpec, limit: int | None = None) -> ClosureDecision:
    """The closure decision for an exact x, capped at `limit`.  A hit at r
    is met at s = r t0 / |a| = t / a: exact, and replayed exactly on the
    decision's `_Cleared`, when t0 / a is in Q[pi]; otherwise a float.  The
    causal class is read off the drift of that `_Cleared`.  A certificate
    whose float copies of x or s overflow raises OverflowError naming r."""
    a = as_exact(x.a)
    if a.is_zero():
        return ClosureDecision(_search_line_case(x, spec))
    form = _Cleared(x, spec.freqs)
    r, point, obstructions = _decide(x, spec, limit, form)
    if r is None:
        return ClosureDecision(None, obstructions=tuple(sorted(obstructions.items())))
    causal = form.causal()
    try:
        try:
            s = point.t / a
        except ValueError:  # t0 / a is not in Q[pi]: no exact replay
            s, form = r * float(spec.profile().t0) / abs(float(a)), None
        cert = _certify(x, s, point, causal, spec, form)
    except OverflowError as exc:  # the exact decision stands, but cannot be re-checked
        raise OverflowError(f"closes at r = {r}, but the certificate's float "
                            f"re-evaluation is out of range ({exc})") from exc
    return ClosureDecision(cert, r)


def _check_search_input(x: AlgebraVector, spec: LatticeSpec) -> None:
    spec.profile()  # refuses a lattice the decision cannot read
    if x.n != spec.freqs.n:
        raise ValueError("velocity does not match the lattice dimension")
    # ExactScalar(0) == 0 is False, so zero is read per type
    if all(c.is_zero() if isinstance(c, ExactScalar) else c == 0 for c in x.coords()):
        raise ValueError("the zero velocity gives the constant curve, closed at every s")


def decide_closed(x: AlgebraVector, spec: LatticeSpec) -> ClosureDecision:
    """Decide whether the geodesic with exact initial velocity x closes.

    For a != 0 the candidate times r t0 / a, r >= 1, are all the times at
    which t lies in t0 Z, and membership there is, per residue class of r
    mod K0, conditions linear in r (`_decide`).  Since pi is transcendental,
    a class whose v is irrational holds no member.  So a `never` verdict
    proves the geodesic open.  A line (a = 0) closes at its least common
    lattice step, or never when its entries are incommensurable
    (`_search_line_case`).
    """
    _check_search_input(x, spec)
    if not x.is_exact():
        raise ValueError("the closure decision needs exact initial data; "
                         "closed-search snaps float data")
    return _closure(x, spec)


# -- bounded closure search ----------------------------------------------------


def search_closed(x: AlgebraVector, spec: LatticeSpec,
                  r_max: int = 1000) -> ClosedGeodesicCertificate | None:
    """First verified lattice hit at candidate times r * t0 / a, r <= r_max.

    Exact input is decided in closed form (`_closure`), capped at r_max, so
    None proves that no candidate up to r_max closes.  Float input takes
    the float snap, run only on the r that pass its screen; there None is
    never a proof of openness.
    """
    _check_search_input(x, spec)
    if r_max < 0:
        raise ValueError(f"r_max must be non-negative, got {r_max}")
    if x.is_exact():
        return _closure(x, spec, r_max).certificate
    return None if float(x.a) == 0.0 else _float_search(x, spec, r_max)


SCREEN_CHUNK = 1024  # candidates screened per numpy pass
# np.sin may differ from math.sin by a few ulps of 1, and each later rounding
# by one ulp of its result: a coordinate whose terms are all below M in size
# differs between the two evaluations by far less than SCREEN_SLACK * M
SCREEN_SLACK = 2.0**-46  # 64 ulps of 1


def _float_search(x, spec, r_end: int):
    """First verified float-snap hit at r * |t0 / a|, 1 <= r <= r_end.  The
    scalar snap runs only on the r that pass the screen, in increasing
    order."""
    prof, freqs = spec.profile(), spec.freqs
    initial = x.to_floats()
    geo = Geodesic(initial, freqs)
    t0_f, a_f = float(prof.t0), abs(float(x.a))
    snap = _LatticeSnap(spec)
    for start in range(1, r_end + 1, SCREEN_CHUNK):
        rs = np.arange(start, min(start + SCREEN_CHUNK, r_end + 1))
        with np.errstate(all="ignore"):
            s = rs * t0_f / a_f
        for r in rs[snap.screen(initial, freqs, s)].tolist():
            s = r * t0_f / a_f
            snapped = snap(eval_geodesic(geo, s))
            if snapped is not None:
                return _certify(x, s, snapped, causal_class(x, freqs), spec, None)
    return None


class _LatticeSnap:
    """point -> the nearest exact member of spec within tol = FLOAT_VERIFY_TOL
    per coordinate, or None; tol and the constants of the spec's profile are
    read once."""

    def __init__(self, spec: LatticeSpec):
        prof = spec.profile()
        self.spec, self.prof, self.tol = spec, prof, FLOAT_VERIFY_TOL
        self.tw, self.t_step, self.w_step = map(float, (prof.twist, prof.t0, prof.central_w))
        self.t0_num, self.t0_den = pi_coefficient(prof.t0)  # t0 = (t0_num / t0_den) pi

    def __call__(self, point: GroupElement) -> GroupElement | None:
        # a coordinate that is not finite (round raises) or whose float
        # spacing exceeds tol (it places no member within tol) is refused;
        # the spacing is read only once the proximity test has passed
        tol = self.tol
        try:
            j = round(point.t / self.t_step)
            if abs(point.t - j * self.t_step) > tol or math.ulp(point.t) > tol:
                return None
            v_exact = []
            for c in point.v:
                vi = round(c)
                if abs(c - vi) > tol or math.ulp(c) > tol:
                    return None
                v_exact.append(vi)
            # float(t0 * j) from ints; the exact t is built only for a member
            t_f = self.t0_num * j / self.t0_den * math.pi
            z_core = point.z - self.tw * t_f
            u = round(z_core / self.w_step)
        except (OverflowError, ValueError):
            return None
        if abs(z_core - u * self.w_step) > tol or math.ulp(z_core) > tol:
            return None
        candidate = self.prof.member(u, v_exact, j)
        return candidate if self.spec.contains(candidate) else None

    def screen(self, x: AlgebraVector, freqs: FrequencyList, s: np.ndarray) -> np.ndarray:
        """Mask of the parameters s at which the scalar snap of the float
        closed form may return a member, or raise.

        The points are the closed form's (`flow_coords`) with np.sin, and each
        coordinate must lie within tol + SCREEN_SLACK * M of its lattice value,
        M bounding its terms.  A point the scalar snap accepts differs from
        this one by less than the slack, so it always passes; t and the
        lattice index j take no sine and agree exactly.  A parameter whose
        scalar evaluation raises (math.sin of an infinite angle, a division
        by a zero a lambda) passes too, so that it still raises.
        """
        a, tol = float(x.a), self.tol
        if any(a * lam == 0.0 or 2.0 * lam * lam * a * a == 0.0 for lam in freqs.floats):
            return np.ones(s.shape, dtype=bool)
        with np.errstate(all="ignore"):  # a non-finite coordinate fails the test
            z, v, t = flow_coords(x, s, freqs, sin=np.sin)
            j = np.round(t / self.t_step)
            ok = np.abs(t - j * self.t_step) <= tol + SCREEN_SLACK * np.abs(t)
            raises = np.zeros(s.shape, dtype=bool)
            z_size = np.abs(float(x.d) * s)
            for k, (lam, (b, c)) in enumerate(zip(freqs.floats, x.bc)):
                b, c = abs(float(b)), abs(float(c))
                v_slack = tol + SCREEN_SLACK * 3 * (b + c) / abs(a * lam)
                for vi in v[2 * k: 2 * k + 2]:
                    ok &= np.abs(vi - np.round(vi)) <= v_slack
                th = lam * a * s
                raises |= np.isinf(th)
                z_size += (b * b + c * c) * (np.abs(th) + 2) / (2 * lam * lam * a * a)
            shift = self.tw * (self.t0_num * j / self.t0_den * math.pi)
            z_core = z - shift
            z_off = z_core - np.round(z_core / self.w_step) * self.w_step
            ok &= np.abs(z_off) <= tol + SCREEN_SLACK * (z_size + np.abs(shift) + np.abs(z_core))
        return ok | raises


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
