import dataclasses
import json
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscgeo import geodesics, quotient
from oscgeo.algebra import AlgebraVector, CausalClass, causal_class, causal_quantity
from oscgeo.exact import ExactScalar, PI, as_exact, rational_ratio
from oscgeo.geodesics import Geodesic, _Cleared, eval_geodesic, eval_geodesic_exact, exp_preimage
from oscgeo.group import (
    GroupElement, conjugate, max_coord_dist, multiply, rotate_pairs, rotation,
)
from oscgeo.lattices import (
    Dim4Family,
    Dim6Family,
    ProductWithLine,
    Twisted,
    UnsupportedSpec,
    pure_t_element,
)
from oscgeo.quotient import (
    FLOAT_VERIFY_TOL,
    ClosedGeodesicCertificate,
    CertificateVerificationFailed,
    _LatticeSnap,
    _first_mu,
    _least_r,
    classify_lightlike,
    closed_timelike_and_spacelike,
    decide_closed,
    product_line_lightlike,
    search_closed,
)

from lattice_specs import CRITERION_7_SPECS, product_forms
from test_geodesics import reference_blocks, reference_drift, reference_oscillation

TWO_PI = 2 * PI
HALF_PI = PI / 2


def _forward_certificates(spec):
    """The reference certificates, built forwards: (b, c) solved per turned
    block, z(1) evaluated at d = 0, and <x, x> of the result."""
    prof, freqs = spec.profile(), spec.freqs
    t = prof.t0 * max(1, prof.k0 - 1)
    tau = t.coeffs[1]  # t = tau pi
    bc = []
    for lam, (kos, sin) in zip(freqs.lambdas, rotation(t, freqs)):
        if kos == 1:
            bc.append((ExactScalar(0), ExactScalar(0)))
            continue
        det = Fraction(sin * sin + (1 - kos) * (1 - kos))
        beta, gamma = (x / det for x in rotate_pairs([(sin, kos - 1)], (lam * tau, 0)))
        bc.append((ExactScalar(0, beta), ExactScalar(0, gamma)))
    reached = eval_geodesic_exact(AlgebraVector(0, bc, t), 1, freqs)
    d0 = prof.twist * t - reached.z
    e0, slope = causal_quantity(AlgebraVector(d0, bc, t), freqs), 2 * t * prof.central_w
    certs = []
    for sign_wanted, causal in ((-1, CausalClass.TIMELIKE), (1, CausalClass.SPACELIKE)):
        x = AlgebraVector(d0 + _first_mu(e0, slope, sign_wanted) * prof.central_w, bc, t)
        target = GroupElement._exact(reached.z + x.d, reached.num, reached.den, t)
        certs.append(quotient._certify(x, ExactScalar(1), target, causal, spec, None))
    return certs


def _outcome(build, spec):
    """The certificates' JSON, or the type and message of what the build raised."""
    try:
        return [cert.to_json() for cert in build(spec)]
    except (UnsupportedSpec, CertificateVerificationFailed) as exc:
        return type(exc).__name__, str(exc)


def rand_lightlike(rng, n, lams):
    """Rational lightlike velocity with a != 0."""
    a = Fraction(rng.randint(1, 3), rng.randint(1, 2)) * rng.choice((1, -1))
    bc = [
        (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        for _ in range(n)
    ]
    q = sum((b * b + c * c) / lam for (b, c), lam in zip(bc, lams))
    d = -q / (2 * a)
    return AlgebraVector(d, bc, a)


class TestClassifyLightlike:
    @pytest.mark.parametrize("angle", [TWO_PI, PI, HALF_PI])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_product_families_all_closed(self, angle, n):
        verdict = classify_lightlike(Dim4Family(n, angle))
        assert verdict.all_closed
        assert verdict.witness is not None
        assert Dim4Family(n, angle).contains(verdict.witness)
        assert not verdict.witness.t.is_zero()

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_twisted_families_only_central(self, p, n):
        verdict = classify_lightlike(Twisted(Dim4Family(n, TWO_PI), p))
        assert verdict.kind == "only_central_direction"
        assert verdict.witness is None

    @pytest.mark.parametrize("m_div", [1, 2, 4])
    def test_dim6_all_closed(self, m_div):
        spec = Dim6Family(1, 2, 3, m_div)
        verdict = classify_lightlike(spec)
        assert verdict.all_closed
        # the witness and the full period 2 pi q are both members
        assert spec.contains(verdict.witness)
        assert spec.contains(GroupElement(0, (0,) * 4, TWO_PI * 3))


class TestSearchClosed:
    def test_central_direction_hits_central_element(self):
        spec = Dim4Family(3, TWO_PI)  # z-lattice step 1/6
        cert = search_closed(AlgebraVector.Z(1), spec)
        assert cert is not None
        assert cert.s_star == Fraction(1, 6)
        assert cert.lattice_point == GroupElement(Fraction(1, 6), (0, 0), 0)
        assert cert.causal == CausalClass.LIGHTLIKE

    def test_t_direction(self):
        spec = Dim4Family(1, TWO_PI)
        cert = search_closed(AlgebraVector.T(1), spec)
        assert cert is not None
        assert cert.s_star == TWO_PI
        assert cert.lattice_point == GroupElement(0, (0, 0), TWO_PI)

    def test_lightlike_closes_at_k0_t0_over_a(self):
        spec = Dim4Family(1, TWO_PI)
        x = AlgebraVector(Fraction(-1, 4), [(1, 0)], 2)  # lightlike, a = 2
        cert = search_closed(x, spec)
        assert cert is not None
        assert cert.s_star == PI  # K0 t0 / a = 2 pi / 2
        assert cert.lattice_point == GroupElement(0, (0, 0), TWO_PI)
        assert cert.causal == CausalClass.LIGHTLIKE

    @pytest.mark.parametrize("spec, x", [
        # s = t0 / a near 1e162 carries z past the float range: OverflowError
        (Dim4Family(1, TWO_PI), AlgebraVector(Fraction(0), [(0.0, 1.0)], 3.920691809501315e-162)),
        # float spacing near |z| = 1e258 is far coarser than the tolerance: the
        # snapped certificate fails verify
        (Twisted(Dim4Family(3, TWO_PI), -1),
         AlgebraVector(8.011244602412807e257, [(0.0, 0.0)], 1.95)),
        # t and v snap, but z = d s is past the float range: round(inf) raises
        (Dim4Family(1, TWO_PI), AlgebraVector(1e308, [(0.0, 0.0)], 1.0)),
    ])
    def test_float_candidates_too_coarse_to_snap_are_skipped(self, spec, x):
        assert search_closed(x, spec, r_max=3) is None

    @pytest.mark.parametrize("z, v, t", [
        # float spacings of 2e-4 to 1e-3, far above the tolerance
        (2.0**40, (0.0, 0.0), 2 * math.pi),
        (0.0, (2.0**40, 0.0), 2 * math.pi),
        (0.0, (0.0, 0.0), 2 * math.pi * 2**40),
    ])
    def test_snap_refuses_a_coordinate_coarser_than_the_tolerance(self, z, v, t):
        # each point is a member, and sits exactly on its lattice coordinates
        spec = Dim4Family(1, TWO_PI)
        snap = _LatticeSnap(spec)
        assert snap(GroupElement(0.0, (1.0, 0.0), 2 * math.pi)) == GroupElement(0, (1, 0), TWO_PI)
        assert snap(GroupElement(z, v, t)) is None

    def test_negative_a_still_finds_positive_time(self):
        spec = Dim4Family(1, TWO_PI)
        x = AlgebraVector(Fraction(1, 4), [(1, 0)], -2)
        cert = search_closed(x, spec)
        assert cert is not None
        assert float(cert.s_star) > 0

    def test_randomized_lightlike_certificates(self):
        rng = random.Random(12)
        for spec in (Dim4Family(1, HALF_PI), Dim6Family(2, 1, 3, 2)):
            prof = spec.profile()
            lams = spec.freqs.lambdas
            for _ in range(25):
                x = rand_lightlike(rng, spec.freqs.n, lams)
                cert = search_closed(x, spec, r_max=prof.k0 * 8)
                assert cert is not None, f"no certificate for {x}"
                cert.verify(spec)

    def test_periodicity_of_certified_hits(self):
        # powers of the certified point are hits of the same curve
        spec = Dim4Family(1, TWO_PI)
        x = AlgebraVector(Fraction(-1, 4), [(1, 0)], 2)
        cert = search_closed(x, spec)
        fl = spec.freqs
        gamma_k = cert.lattice_point
        for k in range(2, 5):
            gamma_k = multiply(gamma_k, cert.lattice_point, fl)
            s_k = cert.s_star * k
            assert eval_geodesic_exact(x, s_k, fl) == gamma_k
            assert spec.contains(gamma_k)

    def test_open_direction_reports_none(self):
        # twisted lattice: a generic lightlike direction never closes
        spec = Twisted(Dim4Family(1, TWO_PI), 1)
        x = AlgebraVector(Fraction(-1, 4), [(1, 0)], 2)
        assert search_closed(x, spec, r_max=100) is None

    def test_float_input_falls_back_to_snapping(self):
        spec = Dim4Family(1, TWO_PI)
        x = AlgebraVector(-0.25, [(1.0, 0.0)], 2.0)
        cert = search_closed(x, spec)
        assert cert is not None
        assert cert.lattice_point.is_exact()
        assert spec.contains(cert.lattice_point)

    def test_non_monomial_a_takes_the_float_snap(self):
        # a = 1 + pi: no candidate time r t0 / a is an exact scalar; the closure
        # is decided exactly, and the certificate carries the float time that
        # the float snap of its float copy writes
        spec = Dim4Family(1, TWO_PI)
        x = AlgebraVector(0, [(0, 0)], ExactScalar(1, 1))
        cert = search_closed(x, spec, r_max=5)
        assert cert is not None
        assert cert.lattice_point == GroupElement(0, (0, 0), TWO_PI)
        assert cert.initial_exact is None
        assert cert.s_star == search_closed(x.to_floats(), spec, r_max=5).s_star
        cert.verify(spec)
        y = AlgebraVector(Fraction(-1, 4), [(1, 0)], ExactScalar(1, 1))
        assert search_closed(y.to_floats(), spec, r_max=5) is None
        assert search_closed(y, spec, r_max=5) is None

    def test_spacelike_line_closes(self):
        spec = Dim4Family(2, TWO_PI)
        x = AlgebraVector(Fraction(1, 3), [(Fraction(2), Fraction(-1, 2))], 0)
        cert = search_closed(x, spec)
        assert cert is not None
        assert cert.causal == CausalClass.SPACELIKE
        cert.verify(spec)

    def test_pi_twist_float_search_is_certified(self):
        # the geodesic meets (2 pi^2, 0, 2pi), a member of the pi twist, at s = 2pi
        spec = Twisted(Dim4Family(1, TWO_PI), PI)
        x = AlgebraVector(math.pi, [(0.0, 0.0)], 1.0)
        cert = search_closed(x, spec, r_max=3)
        assert cert is not None
        cert.verify(spec)


# -- the search against its per-candidate definition ---------------------------

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero = small.filter(bool)
pi_multiples = small.map(lambda q: ExactScalar(0, q))
dim4_specs = st.builds(Dim4Family, st.integers(1, 3), st.sampled_from([TWO_PI, PI, HALF_PI]))
dim6_specs = st.tuples(
    st.integers(1, 3), st.integers(1, 4), st.integers(1, 3), st.sampled_from([1, 2, 4])
).filter(lambda a: math.gcd(a[1], a[2]) == 1 and (a[3] == 1 or a[2] % 2)).map(
    lambda a: Dim6Family(*a)
)
product_specs = dim4_specs | dim6_specs | product_forms()
twists = st.integers(-3, 3) | small | st.sampled_from([PI, PI / 2, -2 * PI])
twisted_specs = st.builds(Twisted, product_specs, twists)
# nested twists, among them twists that cancel
search_specs = (
    product_specs
    | twisted_specs
    | st.builds(Twisted, twisted_specs, twists)
    | twisted_specs.map(lambda spec: Twisted(spec, -spec.m))
)


@st.composite
def exact_velocities(draw, freqs, twist=0):
    """Exact velocities with rational, pi-multiple or mixed q1 + q2 pi entries
    and a of either sign (rational, a pi multiple, or neither).

    The exact points stay exact for rational a with rational b, c, and for
    pi-multiple a with pi-multiple b, c; optionally d then cancels the
    drift's pi part up to the twist, so that the curve may close."""
    kind = draw(st.sampled_from(["rational", "pi", "mixed"]))
    mixed = small | pi_multiples | st.builds(ExactScalar, small, small)
    entries = {"rational": small, "pi": pi_multiples, "mixed": mixed}[kind]
    a = draw(
        {
            "rational": nonzero,
            "pi": nonzero.map(lambda q: ExactScalar(0, q)),
            "mixed": nonzero | st.builds(ExactScalar, nonzero, nonzero),
        }[kind]
    )
    bc = [(draw(entries), draw(entries)) for _ in range(freqs.n)]
    d = as_exact(draw(mixed))
    if kind != "mixed" and draw(st.booleans()):
        drift = sum(
            ((b * b + c * c) / lam for (b, c), lam in zip(bc, freqs.lambdas)), ExactScalar()
        ) / (2 * a)
        d = (draw(small) if kind == "pi" else 0) - drift + a * twist
    return AlgebraVector(d, bc, a)


@settings(max_examples=100, deadline=None)
@given(spec=search_specs, u=st.integers(-5, 5), j=st.integers(-5, 5), data=st.data())
def test_the_profile_describes_the_lattice(spec, u, j, data):
    # members are (twist t + w u, v, t) with t in t0 Z and v integral
    prof, n2 = spec.profile(), 2 * spec.freqs.n
    v = data.draw(st.lists(st.integers(-5, 5), min_size=n2, max_size=n2))
    t, w = prof.t0 * j, prof.central_w
    z = prof.twist * t + w * u
    assert spec.contains(GroupElement(z, v, t))
    i = data.draw(st.integers(0, n2 - 1))
    for non_member in (
        GroupElement(z + w / 2, v, t),
        GroupElement(z, v[:i] + [Fraction(1, 2)] + v[i + 1:], t),
        GroupElement(z, v, t + prof.t0 / 2),
    ):
        assert not spec.contains(non_member)
    # pure_t is the least t > 0 with (0, 0, t) a member
    pure = pure_t_element(spec)
    if prof.pure_t is None:
        assert pure is None and not prof.has_pure_t
        steps = 12
    else:
        assert pure == GroupElement(0, (0,) * n2, prof.pure_t) and spec.contains(pure)
        multiple = (prof.pure_t / prof.t0).to_fraction()
        assert multiple.denominator == 1
        steps = multiple.numerator
    assert not any(spec.contains(GroupElement(0, (0,) * n2, prof.t0 * k)) for k in range(1, steps))


def _reference_snap(point, spec, tol):
    core, twist = spec, ExactScalar(0)
    while isinstance(core, Twisted):
        core, twist = core.base, twist + core.m
    t_step = float(core.profile().t0)
    j = round(point.t / t_step)
    t_exact = core.profile().t0 * j
    if abs(point.t - j * t_step) > tol:
        return None
    v_exact = []
    for c in point.v:
        if abs(c - round(c)) > tol:
            return None
        v_exact.append(Fraction(round(c)))
    z_step = Fraction(1, 2 * core.k)
    z_core = point.z - float(twist) * float(t_exact)
    u = round(z_core / float(z_step))
    if abs(z_core - u * float(z_step)) > tol:
        return None
    z_exact = twist * t_exact + z_step * u
    candidate = GroupElement(z_exact, v_exact, t_exact)
    return candidate if spec.contains(candidate) else None


def _reference_search(x, spec, r_max, tol=FLOAT_VERIFY_TOL):
    """search_closed as a loop evaluating each candidate from scratch;
    (s_star, lattice_point, causal) of the first hit."""
    freqs, prof = spec.freqs, spec.profile()
    a_sign = 1 if float(x.a) > 0 else -1
    for r in range(1, r_max + 1):
        if x.is_exact():
            try:
                s = prof.t0 * (r * a_sign) / x.a
                point = eval_geodesic_exact(x, s, freqs)
            except ValueError:
                point = None
            if point is not None:
                if spec.contains(point):
                    return s, point, causal_class(x, freqs)
                continue
        s = r * a_sign * float(prof.t0) / float(x.a)
        approached = eval_geodesic(Geodesic(x.to_floats(), freqs), s)
        snapped = _reference_snap(approached, spec, tol)
        if snapped is not None:
            return s, snapped, causal_class(x, freqs)
    return None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_search_closed_matches_the_per_candidate_loop(data):
    spec = data.draw(search_specs)
    x = data.draw(exact_velocities(spec.freqs, spec.profile().twist))
    if data.draw(st.booleans()):
        x = x.to_floats()
    r_max = data.draw(st.integers(0, 2 * spec.profile().k0 + 1))
    cert = search_closed(x, spec, r_max=r_max)
    expected = _reference_search(x, spec, r_max)
    if expected is None:
        assert cert is None
    else:
        assert cert is not None
        assert (cert.s_star, cert.lattice_point, cert.causal) == expected


# -- the closure decision ---------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_decide_closed_matches_the_per_candidate_loop(data):
    # the loop runs up to the decided r, however far beyond a search bound
    spec = data.draw(search_specs)
    x = data.draw(exact_velocities(spec.freqs, spec.profile().twist))
    decision = decide_closed(x, spec)
    if decision.closes:
        cert = decision.certificate
        expected = _reference_search(x, spec, decision.r)
        assert (cert.s_star, cert.lattice_point, cert.causal) == expected
        if cert.initial_exact is not None:  # t0 / a is in Q[pi]
            assert cert.s_star == spec.profile().t0 * decision.r / abs(as_exact(x.a))
    else:
        assert decision.obstructions
        assert _reference_search(x, spec, 4 * spec.profile().k0 + 40) is None


def _reference_decide(x, spec, limit=None):
    """`quotient._decide` on the ExactScalar form of the closed form."""
    prof, freqs, a = spec.profile(), spec.freqs, as_exact(x.a)
    sign, k0 = a.sign(), prof.k0
    t_step = prof.t0 * sign
    bcs, bc2s = reference_blocks(x)
    a2 = a * a
    alpha = t_step * (reference_drift(a, x.d, bc2s, freqs) - a2 * prof.twist)
    gamma = a2 * prof.central_w
    best, obstructions, residues = None, {}, {}
    for r_min in range(1, k0 + 1):
        if (best is not None and r_min >= best) or (limit is not None and r_min > limit):
            break
        c = r_min % k0
        rot = rotation(t_step * c, freqs)
        v, p = residues[c] = reference_oscillation(a, bcs, bc2s, rot, freqs)
        integral = v is not None and v[1] == 1
        found = (_least_r(*_over_one_den(alpha, p, gamma), c, k0) if integral
                 else quotient.V_NOT_INTEGRAL)
        if isinstance(found, str):
            obstructions[c] = found
        elif best is None or found < best:
            best = found
    if best is None or (limit is not None and best > limit):
        return None, None, obstructions
    (v_num, _), p = residues[best % k0]
    u, _ = rational_ratio(alpha * best + p, gamma)
    return best, prof.member(u, v_num, sign * best), obstructions


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_decision_matches_the_exact_scalar_reference(data):
    spec = data.draw(search_specs)
    x = data.draw(exact_velocities(spec.freqs, spec.profile().twist))
    limit = data.draw(st.none() | st.integers(0, 2 * spec.profile().k0 + 1))
    r, member, obstructions = _reference_decide(x, spec, limit)
    assert quotient._decide(x, spec, limit, _Cleared(x, spec.freqs)) == (r, member, obstructions)
    if limit is None:
        decision = decide_closed(x, spec)
        assert decision.r == r
        if r is None:
            assert decision.obstructions == tuple(sorted(obstructions.items()))
        else:
            assert decision.certificate.lattice_point == member


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_lightlike_closure_depends_only_on_the_lattice(data):
    # the lightlike dichotomy: every lightlike geodesic with a != 0 closes on
    # an all_closed lattice, and none closes on an only_central_direction one
    spec = data.draw(search_specs)
    freqs = spec.freqs
    scale = data.draw(st.sampled_from([ExactScalar(1), PI, 1 + PI]))
    a0 = data.draw(nonzero)
    bc0 = [(data.draw(small), data.draw(small)) for _ in range(freqs.n)]
    q = sum((b * b + c * c) / lam for (b, c), lam in zip(bc0, freqs.lambdas))
    # d = -scale^2 q / (2 scale a0), with no division by scale
    x = AlgebraVector(scale * (-q / (2 * a0)), [(scale * b, scale * c) for b, c in bc0], scale * a0)
    assert causal_class(x, freqs) == CausalClass.LIGHTLIKE
    decision = decide_closed(x, spec)
    assert decision.closes == classify_lightlike(spec).all_closed
    if decision.closes:
        decision.certificate.verify(spec)
        assert decision.certificate.causal == CausalClass.LIGHTLIKE


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_input_never_takes_the_float_search(data):
    # every exact velocity with a != 0 is decided in closed form
    spec = data.draw(search_specs)
    x = data.draw(exact_velocities(spec.freqs, spec.profile().twist))
    r_max = data.draw(st.integers(0, 2 * spec.profile().k0 + 1))
    with mock.patch.object(quotient, "_float_search", side_effect=AssertionError("float path")):
        search_closed(x, spec, r_max=r_max)
        decide_closed(x, spec)


@settings(max_examples=100, deadline=None)
@given(
    slope=st.builds(ExactScalar, small, small), p=st.builds(ExactScalar, small, small),
    z_step=st.fractions(min_value=Fraction(1, 6), max_value=2, max_denominator=6),
    k0=st.integers(1, 4), data=st.data(),
)
def test_least_r_is_the_first_r_of_the_class(slope, p, z_step, k0, data):
    c = data.draw(st.integers(0, k0 - 1))
    _assert_least_r_by_brute_force(slope, p, z_step, c, k0)


def _over_one_den(*scalars):
    """The int coefficients of each ExactScalar over their common denominator."""
    den = math.lcm(*[x.den for x in scalars])
    return [[c * (den // x.den) for c in x.num] for x in scalars]


def _assert_least_r_by_brute_force(slope, p, z_step, c, k0):
    def member(r):
        z = slope * r + p
        return z.degree() <= 0 and (z.to_fraction() / z_step).denominator == 1

    found = _least_r(*_over_one_den(slope, p, as_exact(z_step)), c, k0)
    bound = found if isinstance(found, int) else 2000
    hits = [r for r in range(1, bound + 1) if r % k0 == c and member(r)]
    assert hits[:1] == ([found] if isinstance(found, int) else [])
    return found


@settings(max_examples=100, deadline=None)
@given(e0=st.builds(ExactScalar, small, small, small), w=small.filter(lambda q: q > 0),
       sign_wanted=st.sampled_from([-1, 1]))
def test_first_mu_is_the_first_of_the_alternating_order(e0, w, sign_wanted):
    _assert_first_mu_by_brute_force(e0, as_exact(w) * PI, sign_wanted)


def _assert_first_mu_by_brute_force(e0, slope, sign_wanted):
    order = (m for k in range(10**4) for m in ((0,) if k == 0 else (k, -k)))
    first = next(m for m in order if (e0 + slope * m).sign() == sign_wanted)
    assert _first_mu(e0, slope, sign_wanted) == first
    return first


@pytest.mark.parametrize("e0, slope, sign_wanted, expected", [
    # the root 10^30 - 1/(3 pi) lies about 10^14 steps from the float guess
    (ExactScalar(Fraction(1, 3), -10**30), PI, 1, 10**30),
    (ExactScalar(Fraction(-1, 3), 10**30), PI, -1, -10**30),
    (ExactScalar(0, -10**30), 2 * PI, 1, 5 * 10**29 + 1),
    # past the float range there is no guess: the gallop alone brackets the root
    (ExactScalar(0, -10**400), PI, 1, 10**400 + 1),
    (ExactScalar(1), ExactScalar(0, Fraction(1, 10**400)), -1, None),
])
def test_first_mu_far_from_zero_takes_logarithmically_many_sign_checks(
    e0, slope, sign_wanted, expected, monkeypatch
):
    checks = []
    sign = ExactScalar.sign
    monkeypatch.setattr(ExactScalar, "sign", lambda x: checks.append(x) or sign(x))
    mu = _first_mu(e0, slope, sign_wanted)
    assert len(checks) <= 4 * abs(mu).bit_length()
    if expected is not None:
        assert mu == expected
    # mu is the first integer of the half-line on its side of 0
    assert (e0 + slope * mu).sign() == sign_wanted
    assert (e0 + slope * (mu - sign_wanted)).sign() != sign_wanted


@pytest.mark.parametrize("case, expected", [
    # 2r + 1 lies in 4Z for no r: the congruence has no solution
    (("least_r", 1, Fraction(1, 2), 2, 0, 1), quotient.CONGRUENCE),
    # the class r = 1 (mod 2) holds no r with r in 2Z
    (("least_r", 1, 0, 2, 1, 2), quotient.CONGRUENCE),
    # the float guess 10.999999999999998 is corrected up by one
    (("first_mu", -11 * PI, PI, 1), 12),
    (("first_mu", 11 * PI, PI, -1), -12),
    # the float guess 4 is corrected down by one
    (("first_mu", -6 * PI + ExactScalar(Fraction(1, 10**30)), 2 * PI, 1), 3),
])
def test_decision_branches_match_brute_force(case, expected):
    name, *args = case
    if name == "least_r":
        slope, p, z_step, c, k0 = args
        got = _assert_least_r_by_brute_force(as_exact(slope), as_exact(p), Fraction(z_step), c, k0)
    else:
        got = _assert_first_mu_by_brute_force(*args)
    assert got == expected


class TestDecideClosed:
    def test_closure_beyond_the_search_bound(self):
        # z = s / 2002 meets (1/2)Z only at s = 2002 = 1001 * 2pi / pi
        spec = Dim4Family(1, TWO_PI)
        x = AlgebraVector(Fraction(1, 2002), [(0, 0)], PI)
        assert search_closed(x, spec, r_max=1000) is None
        decision = decide_closed(x, spec)
        assert decision.r == 1001
        assert decision.certificate.s_star == ExactScalar(2002)
        assert decision.certificate.lattice_point == GroupElement(1, (0, 0), 2002 * PI)
        assert search_closed(x, spec, r_max=1001).lattice_point == decision.certificate.lattice_point

    def test_open_direction_names_its_obstruction(self):
        spec = Twisted(Dim4Family(1, TWO_PI), 1)
        decision = decide_closed(AlgebraVector(Fraction(-1, 4), [(1, 0)], 2), spec)
        assert not decision.closes and decision.r is None
        assert decision.to_json() == {"kind": "never", "obstructions": [
            {"residue": 0, "reason": "the pi^1 coefficient of z vanishes at no r of the class"}]}

    def test_every_residue_class_is_named(self):
        # K0 = 4; x = X1/2 + T: v is not integral at r = 1, 3 (mod 4), and z has
        # the pi part r pi/16 at r = 0, 2 (mod 4)
        spec = Dim4Family(1, HALF_PI)
        decision = decide_closed(AlgebraVector(0, [(Fraction(1, 2), 0)], 1), spec)
        reasons = dict(decision.obstructions)
        assert sorted(reasons) == [0, 1, 2, 3]
        assert reasons[1] == reasons[3] == "v is not integral"

    def test_line_closes_without_r(self):
        spec = Dim4Family(2, TWO_PI)
        decision = decide_closed(AlgebraVector(Fraction(1, 3), [(2, Fraction(-1, 2))], 0), spec)
        assert decision.closes and decision.r is None
        assert decision.to_json() == {"kind": "closes"}

    @pytest.mark.parametrize("d, bc, z, v, s", [
        (PI, (0, 0), Fraction(1, 2), (0, 0), 1 / (2 * math.pi)),
        (PI, (TWO_PI, 0), Fraction(1, 2), (1, 0), 1 / (2 * math.pi)),
        (-PI, (0, TWO_PI), Fraction(-1, 2), (0, 1), 1 / (2 * math.pi)),
        (ExactScalar(1, 1), (ExactScalar(2, 2), 0), Fraction(1, 2), (1, 0), 1 / (2 + 2 * math.pi)),
    ])
    def test_line_with_pi_entries_closes(self, d, bc, z, v, s):
        # every entry of (d / w, b, c) is a rational multiple of one e in
        # Q[pi]: the line meets its member at s = 1 / e, which is not in Q[pi]
        spec = Dim4Family(1, TWO_PI)  # z-lattice step w = 1/2
        x = AlgebraVector(d, [bc], 0)
        decision = decide_closed(x, spec)
        assert decision.to_json() == {"kind": "closes"}
        for cert in (decision.certificate, search_closed(x, spec)):
            assert cert.lattice_point == GroupElement(z, v, 0)
            assert cert.initial_exact is None
            assert cert.s_star == pytest.approx(s, rel=1e-15)

    @pytest.mark.parametrize("d, bc", [
        (1, (PI, 0)),
        (PI, (PI * PI, 0)),
        (0, (PI, 1)),
    ])
    def test_line_with_incommensurable_entries_never_closes(self, d, bc):
        spec = Dim4Family(1, TWO_PI)
        x = AlgebraVector(d, [bc], 0)
        assert decide_closed(x, spec).to_json() == {"kind": "never", "obstructions": []}
        assert search_closed(x, spec) is None

    @pytest.mark.parametrize("x", [
        AlgebraVector(0.0, [(0.0, 0.0)], 1.0),                  # float data
        AlgebraVector(0, [(0, 0), (0, 0)], 1),                  # n = 2 on an n = 1 lattice
        AlgebraVector(0, [(0, 0)], 0),                          # the zero velocity
    ])
    def test_undecided_input_raises(self, x):
        with pytest.raises(ValueError):
            decide_closed(x, Dim4Family(1, TWO_PI))

    @pytest.mark.parametrize("x", [
        AlgebraVector(0, [(0, 0)], 0),
        AlgebraVector(ExactScalar(0), [(Fraction(0), ExactScalar(0))], ExactScalar()),
        AlgebraVector(0.0, [(0.0, -0.0)], 0.0),
        AlgebraVector(0, [(0.0, 0)], ExactScalar(0)),                # mixed, so float
    ])
    def test_zero_velocity_is_refused_by_the_search_and_the_decision(self, x):
        # the constant curve closes at every s, so no verdict describes it
        spec = Dim4Family(1, TWO_PI)
        for run in (decide_closed, search_closed):
            with pytest.raises(ValueError, match="^the zero velocity gives the constant curve"):
                run(x, spec)

    def test_non_monomial_a_is_decided(self):
        # a = 1 + pi: t0 / a is not in Q[pi], so the certificate carries the
        # float time the snap writes and replays in float only
        spec = Dim4Family(1, TWO_PI)
        decision = decide_closed(AlgebraVector(0, [(0, 0)], ExactScalar(1, 1)), spec)
        assert decision.r == 1
        cert = decision.certificate
        assert cert.lattice_point == GroupElement(0, (0, 0), TWO_PI)
        assert cert.initial_exact is None
        assert cert.s_star == 1 * 1 * (2 * math.pi) / (1 + math.pi)
        y = AlgebraVector(Fraction(-1, 4), [(1, 0)], ExactScalar(1, 1))
        assert not decide_closed(y, spec).closes

    def test_near_miss_of_an_irrational_v_is_no_closure(self):
        # a = pi and b = 103993/33102, a convergent of pi: at s = 1/2, v = (b/pi, b/pi)
        # is irrational, yet its float lies within 1e-9 of (1, 1), and the float
        # snap certified the member (-1/2, (1, 1), pi/2) there
        spec = Dim4Family(1, HALF_PI)
        b = Fraction(103993, 33102)
        x = AlgebraVector(-b / 2, [(b, 0)], PI)
        assert search_closed(x, spec, r_max=10) is None
        assert decide_closed(x, spec).to_json()["kind"] == "never"

    @pytest.mark.parametrize("a_sign", [1, -1])
    def test_sign_of_an_a_below_the_float_range_is_exact(self, a_sign):
        # a = +-1/10^400 reads as a float zero; the candidate times stay
        # positive, so the member met first has t = 2pi sign(a)
        x = AlgebraVector(0, [(0, 0)], Fraction(a_sign, 10**400))
        spec = Dim4Family(1, TWO_PI)
        r, point, _ = quotient._decide(x, spec, None, _Cleared(x, spec.freqs))
        assert r == 1
        assert point == GroupElement(0, (0, 0), a_sign * TWO_PI)

    @pytest.mark.parametrize("a", [Fraction(1, 10**400), Fraction(-1, 10**400), 10**400])
    def test_certificate_out_of_the_float_range_names_the_decided_r(self, a):
        # s = 2pi / |a| or a itself has no float: the re-check cannot run
        x = AlgebraVector(0, [(0, 0)], a)
        with pytest.raises(OverflowError, match=r"^closes at r = 1, but the certificate's "
                                                r"float re-evaluation is out of range"):
            decide_closed(x, Dim4Family(1, TWO_PI))


# twists that cancel: both are the untwisted lattice, where (0, 0, 2pi) is a member
CANCELLING_TWISTS = [
    Twisted(Twisted(Dim4Family(1, TWO_PI), 1), -1),
    Twisted(Twisted(Dim4Family(1, TWO_PI), PI), -PI),
]


@pytest.mark.parametrize("spec", CANCELLING_TWISTS)
def test_cancelling_nested_twists_close_every_lightlike_geodesic(spec):
    verdict = classify_lightlike(spec)
    assert verdict.kind == "all_closed"
    assert verdict.witness == GroupElement(0, (0, 0), TWO_PI)
    decision = decide_closed(AlgebraVector.T(1), spec)
    assert decision.r == 1
    assert decision.certificate.lattice_point == verdict.witness


def _preimage(g, freqs):
    """exp_preimage(g), or None when g is not in the image of exp."""
    try:
        return exp_preimage(g, freqs)
    except ValueError:
        return None


@settings(max_examples=1500, deadline=None)
@given(base=st.sampled_from(CRITERION_7_SPECS) | product_forms(),
       twist=st.sampled_from([None, 2, Fraction(-2, 3), PI]), seed=st.integers(0, 2**32))
def test_exp_preimage_is_conjugation_invariant_and_dual_to_decide_closed(base, twist, seed):
    spec = base if twist is None else Twisted(base, twist)
    rng, freqs = random.Random(seed), spec.freqs
    g, h = spec.sample_member(rng), spec.sample_member(rng)
    found, conj = _preimage(g, freqs), _preimage(conjugate(h, g, freqs), freqs)
    # being in the image of exp, and <x, x>, are invariants of the class of g
    assert (found is None) == (conj is None)
    if found is None or g.is_identity():
        return
    (x, norm), (_, conj_norm) = found, conj
    assert norm == conj_norm
    # the geodesic of x meets g at s = 1, so the decision closes it by then,
    # at a member whose own preimage is s x
    cert = decide_closed(x, spec).certificate
    s = cert.s_star
    assert 0 < s <= 1
    y, _ = exp_preimage(cert.lattice_point, freqs)
    assert [as_exact(c) for c in y.coords()] == [as_exact(s * c) for c in x.coords()]


class TestFloatScreen:
    SPEC = Dim4Family(1, TWO_PI)

    def test_hit_at_the_edge_of_the_tolerance_is_found(self, monkeypatch):
        # at r = 3 (s = 6pi) z lands about 6e-10 above the member (1/2, 0, 6pi)
        x = AlgebraVector((0.5 + 6e-10) / (6 * math.pi) - 0.045, [(0.3, 0.0)], 1.0)
        point = eval_geodesic(Geodesic(x, self.SPEC.freqs), 6 * math.pi)
        edge = abs(point.z - 0.5)
        monkeypatch.setattr(quotient, "FLOAT_VERIFY_TOL", edge)
        cert = search_closed(x, self.SPEC, r_max=5)
        assert cert is not None
        assert cert.lattice_point == GroupElement(Fraction(1, 2), (0, 0), 6 * PI)
        assert (cert.s_star, cert.lattice_point, cert.causal) == _reference_search(
            x, self.SPEC, 5, tol=edge)
        monkeypatch.setattr(quotient, "FLOAT_VERIFY_TOL", edge * (1 - 1e-6))
        assert search_closed(x, self.SPEC, r_max=5) is None

    def test_coordinate_too_coarse_to_snap_passes_the_screen_and_is_skipped(self):
        # z = 2^40 r exactly at every candidate s = 2pi r, a member whose float
        # spacing (2e-4) is far coarser than the tolerance
        d = 2.0**40 / (2 * math.pi)
        while d * (2 * math.pi) != 2.0**40:
            d = math.nextafter(d, math.inf if d * (2 * math.pi) < 2.0**40 else -math.inf)
        x = AlgebraVector(d, [(0.0, 0.0)], 1.0)
        snap = _LatticeSnap(self.SPEC)
        s = np.arange(1, 4) * (2 * math.pi)
        assert snap.screen(x, self.SPEC.freqs, s).all()
        assert search_closed(x, self.SPEC, r_max=3) is None


@settings(max_examples=60, deadline=None)
@given(base=product_forms(), twist=st.none() | st.integers(-3, 3) | small)
def test_certificates_of_drawn_product_forms_verify(base, twist):
    spec = base if twist is None else Twisted(base, twist)
    certs = closed_timelike_and_spacelike(spec)
    assert [cert.to_json() for cert in certs] == _outcome(_forward_certificates, spec)
    for cert, causal in zip(certs, (CausalClass.TIMELIKE, CausalClass.SPACELIKE)):
        assert cert.verify(spec) is cert and spec.contains(cert.lattice_point)
        assert cert.causal == causal == causal_class(cert.initial_exact, spec.freqs)


class TestClosedCausalCertificates:
    @pytest.mark.parametrize(
        "spec",
        [
            Dim4Family(1, TWO_PI),     # K0 = 1
            Dim4Family(2, TWO_PI),
            Dim4Family(1, PI),         # K0 = 2
            Dim4Family(1, HALF_PI),    # K0 = 4
            Dim4Family(3, HALF_PI),
            Dim6Family(1, 1, 1, 1),    # K0 = 1
            Dim6Family(2, 2, 1, 2),    # K0 = 2, singular second block
            Dim6Family(1, 1, 3, 2),    # K0 = 2
            Dim6Family(2, 2, 3, 4),    # K0 = 4
            Dim6Family(3, 4, 1, 4),
            Twisted(Dim4Family(1, TWO_PI), 2),
            Twisted(Dim4Family(1, HALF_PI), 1),
        ],
    )
    def test_both_causal_signs_produced(self, spec):
        time_cert, space_cert = closed_timelike_and_spacelike(spec)
        assert time_cert.causal == CausalClass.TIMELIKE
        assert space_cert.causal == CausalClass.SPACELIKE
        for cert in (time_cert, space_cert):
            cert.verify(spec)
            assert spec.contains(cert.lattice_point)

    def test_k0_one_certificates_have_zero_oscillator_part(self):
        t_cert, s_cert = closed_timelike_and_spacelike(Dim4Family(1, TWO_PI))
        for cert in (t_cert, s_cert):
            assert all(b == 0 and c == 0 for b, c in cert.initial.bc)
        # timelike needs negative d/t ratio, spacelike positive
        assert t_cert.initial.d < 0 < s_cert.initial.d

    def test_k0_four_uses_nonsingular_solve(self):
        t_cert, s_cert = closed_timelike_and_spacelike(Dim4Family(1, HALF_PI))
        for cert in (t_cert, s_cert):
            assert cert.initial_exact is not None
            (b, c), = cert.initial_exact.bc
            assert b == ExactScalar(0, Fraction(-3, 4))
            assert c == ExactScalar(0, Fraction(-3, 4))
            assert cert.lattice_point.t == 3 * HALF_PI
            # float re-evaluation agrees to 1e-9 (checked in verify); replay
            # the float evaluation explicitly here
            approached = eval_geodesic(
                Geodesic(cert.initial, Dim4Family(1, HALF_PI).freqs),
                float(cert.s_star),
            )
            assert (
                max_coord_dist(approached, cert.lattice_point.to_floats()) < 1e-9
            )

    def test_certificate_causal_matches_float_classification(self):
        for spec in (Dim4Family(1, HALF_PI), Dim6Family(1, 2, 3, 4)):
            for cert in closed_timelike_and_spacelike(spec):
                assert causal_class(cert.initial, spec.freqs) == cert.causal

    def test_unsupported_spec(self):
        with pytest.raises(UnsupportedSpec):
            closed_timelike_and_spacelike(
                ProductWithLine(Dim4Family(1, TWO_PI), w=1)
            )

    @pytest.mark.parametrize("twist", [None, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), 10**30])
    def test_certificates_equal_the_forward_construction(self, twist):
        for base in CRITERION_7_SPECS:
            spec = base if twist is None else Twisted(base, twist)
            assert _outcome(closed_timelike_and_spacelike, spec) == _outcome(
                _forward_certificates, spec), spec.to_json()

    def test_twist_of_ten_to_the_thirty_certifies_every_base(self):
        # d = -3141592653589793238462643383280 + 7999999999999999999999999999999/8 pi
        # on dim4:k=1:angle=pi: float(d) read 0.0 and verify missed by 0.39 on
        # the 36 bases with K0 > 1
        for base in CRITERION_7_SPECS:
            spec = Twisted(base, 10**30)
            time_cert, space_cert = closed_timelike_and_spacelike(spec)
            assert (time_cert.causal, space_cert.causal) == (CausalClass.TIMELIKE,
                                                             CausalClass.SPACELIKE)

    def test_pi_twists_stay_refused(self):
        for base in CRITERION_7_SPECS:
            with pytest.raises(UnsupportedSpec, match="pi-twisted"):
                closed_timelike_and_spacelike(Twisted(base, PI))

    @pytest.mark.parametrize("spec", [Dim4Family(1, HALF_PI), Dim6Family(1, 2, 1, 2)])
    def test_only_the_two_replays_evaluate_exactly(self, spec):
        with mock.patch.object(quotient, "eval_geodesic_exact",
                               wraps=eval_geodesic_exact) as replay:
            closed_timelike_and_spacelike(spec)
        assert replay.call_count == 2


class TestCertificateVerification:
    def test_bad_certificate_raises(self):
        spec = Dim4Family(1, TWO_PI)
        bad = ClosedGeodesicCertificate(
            AlgebraVector(1.0, [(0.0, 0.0)], 1.0),
            1.0,
            GroupElement(Fraction(1, 2), (0, 0), TWO_PI),
            CausalClass.SPACELIKE,
        )
        with pytest.raises(CertificateVerificationFailed):
            bad.verify(spec)

    @pytest.mark.parametrize("d, bc", [(math.nan, (0.0, 0.0)), (0.0, (math.nan, 0.0))])
    def test_nan_re_evaluation_raises(self, d, bc):
        # t alone misses 2 pi by 5.28, but nan compared False with the tolerance
        spec = Dim4Family(1, TWO_PI)
        bad = ClosedGeodesicCertificate(
            AlgebraVector(d, [bc], 1.0),
            1.0,
            GroupElement(0, (0, 0), TWO_PI),
            CausalClass.SPACELIKE,
        )
        with pytest.raises(CertificateVerificationFailed):
            bad.verify(spec)

    @pytest.mark.parametrize("make, exact", [
        (lambda spec: closed_timelike_and_spacelike(spec)[0], True),
        (lambda spec: closed_timelike_and_spacelike(spec)[1], True),
        # t0 / a in Q[pi]: a rational, a pi multiple
        (lambda spec: decide_closed(AlgebraVector(0, [(0, 0)], -2), spec).certificate, True),
        (lambda spec: decide_closed(AlgebraVector(Fraction(1, 2002), [(0, 0)], PI), spec)
         .certificate, True),
        (lambda spec: decide_closed(AlgebraVector(Fraction(1, 3), [(2, 0)], 0), spec)
         .certificate, True),
        # t0 / a outside Q[pi], and float data
        (lambda spec: decide_closed(AlgebraVector(0, [(0, 0)], ExactScalar(1, 1)), spec)
         .certificate, False),
        (lambda spec: decide_closed(AlgebraVector(PI, [(0, 0)], 0), spec).certificate, False),
        (lambda spec: search_closed(AlgebraVector(0.0, [(0.0, 0.0)], 1.0), spec), False),
    ])
    def test_replayed_exactly_iff_s_star_is_exact(self, make, exact):
        cert = make(Dim4Family(1, TWO_PI))
        assert cert.to_json()["exact_initial_data"] is exact
        assert isinstance(cert.s_star, float) is not exact
        assert (cert.initial_exact is not None) is exact

    def test_initial_data_reports_floats_whatever_the_entry_type(self):
        cert = ClosedGeodesicCertificate(
            AlgebraVector(0, [(Fraction(1, 4), -3), (2, Fraction(0))], Fraction(-5, 2)),
            1.0,
            GroupElement(0, (0, 0, 0, 0), TWO_PI),
            CausalClass.SPACELIKE,
        )
        # json.dumps tells 0.0 from 0, which == does not
        assert json.dumps(cert.to_json()["initial"]) == (
            '{"d": 0.0, "bc": [[0.25, -3.0], [2.0, 0.0]], "a": -2.5}'
        )

    def test_max_coord_dist_keeps_a_later_nan(self):
        far = max_coord_dist(GroupElement(0.0, [math.nan, 0.0], 0.0), GroupElement(0.0, [0.0, 0.0], 0.0))
        assert math.isnan(far)

    def test_nonmember_target_raises(self):
        spec = Dim4Family(1, TWO_PI)
        bad = ClosedGeodesicCertificate(
            AlgebraVector(1.0, [(0.0, 0.0)], 0.0),
            1.0,
            GroupElement(Fraction(1, 3), (0, 0), 0),
            CausalClass.LIGHTLIKE,
        )
        with pytest.raises(CertificateVerificationFailed):
            bad.verify(spec)


class TestCarriedForm:
    """A certificate carries the `_Cleared` form its closure was decided with,
    and the replay evaluates that form afresh."""

    @staticmethod
    def _nudged():
        spec = Dim4Family(1, TWO_PI)
        cert = closed_timelike_and_spacelike(spec)[0]
        x = cert.initial_exact
        return spec, cert, AlgebraVector(x.d + Fraction(1, 10**15), x.bc, x.a)

    @pytest.mark.parametrize("form", ["its own", None, "the decided velocity's"])
    def test_a_nudged_velocity_fails_the_exact_replay(self, form):
        spec, cert, x = self._nudged()
        form = {"its own": _Cleared(x, spec.freqs), None: None,
                "the decided velocity's": cert.form}[form]
        bad = ClosedGeodesicCertificate(x.to_floats(), cert.s_star, cert.lattice_point,
                                        cert.causal, x, form)
        # 10^-15 in d moves z(1) by 10^-15: only the exact replay can tell
        float_only = dataclasses.replace(bad, initial_exact=None)
        assert float_only.verify(spec) is float_only
        with pytest.raises(CertificateVerificationFailed, match="exact replay disagrees"):
            bad.verify(spec)

    def test_the_form_is_not_part_of_the_certificate(self):
        cert = closed_timelike_and_spacelike(Dim4Family(1, TWO_PI))[1]
        bare = dataclasses.replace(cert, form=None)
        assert cert.form is not None and bare == cert and hash(bare) == hash(cert)
        assert repr(bare) == repr(cert) and bare.to_json() == cert.to_json()

    def test_one_cleared_form_per_certificate_velocity(self):
        spec = Dim4Family(1, TWO_PI)

        def builds(run):
            """run's result and the `_Cleared` forms built in quotient and geodesics."""
            with mock.patch.object(quotient, "_Cleared", wraps=_Cleared) as decided, \
                 mock.patch.object(geodesics, "_Cleared", wraps=_Cleared) as replayed:
                out = run()
            return out, decided.call_count + replayed.call_count

        certs, built = builds(lambda: closed_timelike_and_spacelike(spec))
        assert built == 2
        decision, built = builds(lambda: decide_closed(certs[0].initial_exact, spec))
        assert decision.closes and built == 1
        _, built = builds(lambda: [cert.verify(spec) for cert in (*certs, decision.certificate)])
        assert built == 0


@settings(max_examples=40, deadline=None)
@given(spec=product_forms())
def test_the_replay_on_the_carried_form_equals_a_fresh_one(spec):
    replays = []

    def replay(*args):
        replays.append((args, eval_geodesic_exact(*args)))
        return replays[-1][1]

    for cert in closed_timelike_and_spacelike(spec):
        decided = decide_closed(cert.initial_exact, spec).certificate
        for carrier in (cert, decided):
            replays.clear()
            with mock.patch.object(quotient, "eval_geodesic_exact", replay):
                carrier.verify(spec)
            [(args, point)] = replays
            assert args[3] is carrier.form is not None
            assert point == eval_geodesic_exact(carrier.initial_exact, carrier.s_star, spec.freqs)


class TestProductLine:
    def base(self):
        return Dim4Family(1, TWO_PI)

    def test_rational_w2_never_closed(self):
        spec = ProductWithLine(self.base(), w_squared=ExactScalar(1))
        assert product_line_lightlike(spec).kind == "never_closed"

    def test_two_pi_w2_some_closed(self):
        spec = ProductWithLine(self.base(), w_squared=TWO_PI)
        verdict = product_line_lightlike(spec)
        assert verdict.kind == "some_closed_possible"
        k, m, z = verdict.residue["k"], verdict.residue["m"], verdict.residue["z"]
        # the reported residues satisfy w^2 = -2 pi k m / z^2
        assert Fraction(-2 * k * m, z * z) == spec.w_squared.coeffs[1]

    def test_flagged_irrational_never_closed(self):
        spec = ProductWithLine(self.base(), w_squared="irrational")
        assert product_line_lightlike(spec).kind == "never_closed"

    def test_pure_pi_step_never_closed(self):
        # w = pi has w^2 = pi^2, which is outside 2 pi Q
        spec = ProductWithLine(self.base(), w=PI)
        assert product_line_lightlike(spec).kind == "never_closed"

    def test_mixed_w2_never_closed(self):
        spec = ProductWithLine(self.base(), w_squared=ExactScalar(1, 2))
        assert product_line_lightlike(spec).kind == "never_closed"
