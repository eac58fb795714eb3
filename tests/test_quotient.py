import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscgeo.algebra import AlgebraVector, CausalClass, causal_class
from oscgeo.exact import ExactScalar, PI, PiPoly
from oscgeo.geodesics import Geodesic, eval_geodesic, eval_geodesic_exact, exact_orbit
from oscgeo.group import GroupElement, max_coord_dist, multiply
from oscgeo.lattices import (
    Dim4Family,
    Dim6Family,
    ProductWithLine,
    Twisted,
    UnsupportedSpec,
)
from oscgeo.quotient import (
    FLOAT_VERIFY_TOL,
    ClosedGeodesicCertificate,
    CertificateVerificationFailed,
    classify_lightlike,
    closed_timelike_and_spacelike,
    product_line_lightlike,
    search_closed,
)

TWO_PI = 2 * PI
HALF_PI = PI / 2


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
        # a = 1 + pi: no candidate time r t0 / a is an exact scalar, so every
        # candidate is snapped in float mode, as its float copy's are
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
product_specs = dim4_specs | dim6_specs
# pi twists left out: a snapped member with t != 0 would need a pi^2 z-part
search_specs = product_specs | st.builds(
    Twisted, product_specs, st.integers(-3, 3) | small
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
    d = PiPoly.lift(draw(mixed))
    if kind != "mixed" and draw(st.booleans()):
        drift = sum(
            ((PiPoly.lift(b) * PiPoly.lift(b) + PiPoly.lift(c) * PiPoly.lift(c)) / lam
             for (b, c), lam in zip(bc, freqs.lambdas)),
            PiPoly(),
        ) / (2 * PiPoly.lift(a))
        d = PiPoly([draw(small) if kind == "pi" else 0]) - drift + PiPoly.lift(a) * twist
    return AlgebraVector(d.to_exact(), bc, a)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_exact_orbit_matches_eval_geodesic_exact(data):
    spec = data.draw(product_specs)
    freqs, prof = spec.freqs, spec.profile()
    x = data.draw(exact_velocities(freqs))
    a_sign = 1 if float(x.a) > 0 else -1
    # a fraction of the lattice step: then some residues are no quarter turns
    m = data.draw(st.integers(1, 3))
    t_step, period = prof.t0 * a_sign / m, prof.k0 * m

    def expected(r):
        try:
            s = ((PiPoly.lift(t_step) * r) / PiPoly.lift(x.a)).to_exact()
            return s, eval_geodesic_exact(x, s, freqs)
        except ValueError:
            return None

    try:
        orbit = exact_orbit(x, t_step, period, freqs)
    except ValueError:
        orbit = None
    for r in range(1, 2 * period + 2):
        if orbit is None:
            assert expected(r) is None
            continue
        try:
            got = orbit(r)
        except ValueError:
            got = None
        assert got == expected(r)


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
    z_step = core.z_step()
    z_core = point.z - float(twist) * float(t_exact)
    u = round(z_core / float(z_step))
    if abs(z_core - u * float(z_step)) > tol:
        return None
    z_exact = (
        PiPoly.lift(ExactScalar(z_step * u)) + PiPoly.lift(twist) * PiPoly.lift(t_exact)
    ).to_exact()
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
                s = ((PiPoly.lift(prof.t0) * (r * a_sign)) / PiPoly.lift(x.a)).to_exact()
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
    x = data.draw(exact_velocities(spec.freqs, spec.m if isinstance(spec, Twisted) else 0))
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
