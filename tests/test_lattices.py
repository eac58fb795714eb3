import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscgeo.algebra import FrequencyList
from oscgeo.exact import ExactScalar, PI
from oscgeo.group import GroupElement, invert, multiply, rotation, swap_pairs
from oscgeo.lattices import (
    Dim4Family,
    Dim6Family,
    GeneratorList,
    MembershipUndecidable,
    ProductWithLine,
    Twisted,
    UnsupportedSpec,
    central_element,
    from_json,
    pure_t_element,
)

TWO_PI = 2 * PI
HALF_PI = PI / 2


class TestConstruction:
    def test_dim4_rejects_bad_angle(self):
        with pytest.raises(ValueError):
            Dim4Family(1, PI / 3)
        with pytest.raises(ValueError):
            Dim4Family(0, TWO_PI)

    def test_dim6_constraints(self):
        with pytest.raises(ValueError):
            Dim6Family(1, 2, 4, 1)  # gcd(p, q) != 1
        with pytest.raises(ValueError):
            Dim6Family(1, 1, 2, 2)  # q even with M > 1
        with pytest.raises(ValueError):
            Dim6Family(1, 1, 1, 3)  # bad M
        spec = Dim6Family(2, 3, 1, 4)
        assert spec.freqs.lambdas == (Fraction(1), Fraction(3))

    def test_json_roundtrip(self):
        specs = [
            Dim4Family(2, HALF_PI),
            Dim6Family(1, 2, 3, 1),
            Twisted(Dim4Family(1, TWO_PI), 2),
            ProductWithLine(Dim4Family(1, TWO_PI), w_squared=TWO_PI),
            ProductWithLine(Dim4Family(1, TWO_PI), w_squared="irrational"),
            ProductWithLine(Dim4Family(1, TWO_PI), w=Fraction(1, 2)),
        ]
        for spec in specs:
            j = spec.to_json()
            assert from_json(j).to_json() == j

    def test_shorthand_irrational_flag(self):
        spec = ProductWithLine(Dim4Family(1, TWO_PI), w_squared="irrational")
        assert spec.w_squared is None


class TestMembershipDim4:
    def test_documented_member(self):
        spec = Dim4Family(2, TWO_PI)
        g = GroupElement(Fraction(1, 4), (3, -1), TWO_PI)
        assert spec.contains(g)

    def test_identity_member(self):
        assert Dim4Family(3, PI).contains(GroupElement.identity(1))

    def test_rejections(self):
        spec = Dim4Family(2, TWO_PI)
        assert not spec.contains(GroupElement(Fraction(1, 5), (0, 0), 0))
        assert not spec.contains(GroupElement(0, (Fraction(1, 2), 0), 0))
        assert not spec.contains(GroupElement(0, (0, 0), PI))
        assert not spec.contains(GroupElement(PI, (0, 0), 0))
        assert not spec.contains(GroupElement(0, (0, 0), ExactScalar(1)))

    def test_requires_exact_mode(self):
        with pytest.raises(TypeError):
            Dim4Family(1, TWO_PI).contains(GroupElement(0.0, (0.0, 0.0), 0.0))


class TestMembershipTwisted:
    def test_twist_moves_pure_t_out(self):
        spec = Twisted(Dim4Family(1, TWO_PI), 1)
        assert not spec.contains(GroupElement(0, (0, 0), TWO_PI))
        # the twisted image of (0, 0, 2pi) is a member
        assert spec.contains(GroupElement(TWO_PI, (0, 0), TWO_PI))

    def test_rational_twist(self):
        spec = Twisted(Dim4Family(1, TWO_PI), Fraction(1, 2))
        assert spec.contains(GroupElement(PI + Fraction(1, 2), (1, 0), TWO_PI))

    def test_pi_twist_members_have_pi_squared_z(self):
        spec = Twisted(Dim4Family(1, TWO_PI), PI)
        assert not spec.contains(GroupElement(0, (0, 0), TWO_PI))
        assert spec.contains(GroupElement(Fraction(1, 2), (1, 1), 0))
        # the twisted image of (0, 0, 2pi)
        assert spec.contains(GroupElement(2 * PI * PI, (0, 0), TWO_PI))
        assert not spec.contains(GroupElement(PI * PI, (0, 0), TWO_PI))

    def test_nested_twists_compose(self):
        inner = Twisted(Dim4Family(1, TWO_PI), 1)
        outer = Twisted(inner, -1)
        assert outer.contains(GroupElement(0, (0, 0), TWO_PI))


class TestProfiles:
    def test_dim4_profiles(self):
        prof = Dim4Family(3, TWO_PI).profile()
        assert prof.t0 == TWO_PI
        assert prof.k0 == 1
        assert prof.central_w == ExactScalar(Fraction(1, 6))
        assert prof.has_pure_t
        assert Dim4Family(1, PI).profile().k0 == 2
        assert Dim4Family(1, HALF_PI).profile().k0 == 4

    def test_dim6_profiles(self):
        prof = Dim6Family(1, 1, 1, 1).profile()
        assert prof.t0 == TWO_PI and prof.k0 == 1
        prof = Dim6Family(1, 1, 3, 2).profile()
        assert prof.t0 == 3 * PI and prof.k0 == 2
        prof = Dim6Family(2, 2, 3, 4).profile()
        assert prof.t0 == ExactScalar(0, Fraction(3, 2)) and prof.k0 == 4

    def test_eq9_relation(self):
        # t0 = 2 pi k_i / (K0 lambda_i) needs integer k_i for every i
        for spec in (
            Dim4Family(1, HALF_PI),
            Dim6Family(1, 2, 3, 4),
            Dim6Family(3, 3, 1, 2),
        ):
            prof = spec.profile()
            for lam in spec.freqs.lambdas:
                k_i = lam * prof.k0 * (prof.t0 / PI).to_fraction() / 2
                assert k_i.denominator == 1

    def test_twisted_profile(self):
        base = Dim4Family(1, TWO_PI)
        assert Twisted(base, 0).profile().has_pure_t
        for m in (1, 2, 3, Fraction(1, 3), PI):
            assert not Twisted(base, m).profile().has_pure_t

    def test_unsupported(self):
        with pytest.raises(UnsupportedSpec):
            ProductWithLine(Dim4Family(1, TWO_PI), w=1).profile()

    @pytest.mark.parametrize(
        "spec", [Dim4Family(1, HALF_PI), Dim6Family(2, 2, 3, 4), Twisted(Dim4Family(2, PI), 3)]
    )
    def test_per_spec_constants_are_built_once(self, spec):
        assert spec.profile() is spec.profile()
        gens = spec.generators()
        gens.append(gens[0])  # a caller's list is its own
        assert spec.generators() == gens[:-1]
        assert spec.generators() is not spec.generators()
        assert spec == from_json(spec.to_json())  # equality ignores the caches
        if not isinstance(spec, Twisted):
            prof = spec.profile()
            assert spec.period_rotations == tuple(
                rotation(prof.t0 * c, spec.freqs) for c in range(prof.k0)
            )


class TestDistinguishedElements:
    def test_central_element(self):
        assert central_element(Dim4Family(3, TWO_PI)) == GroupElement(
            Fraction(1, 6), (0, 0), 0
        )

    def test_pure_t_dim6(self):
        el = pure_t_element(Dim6Family(1, 1, 1, 1))
        assert el == GroupElement(0, (0, 0, 0, 0), TWO_PI)
        assert Dim6Family(1, 1, 1, 1).contains(el)
        # (0, 0, 2 pi q) is a member for every M
        for m_div in (1, 2, 4):
            spec = Dim6Family(1, 1, 3, m_div)
            assert spec.contains(GroupElement(0, (0,) * 4, 6 * PI))
            assert spec.contains(pure_t_element(spec))

    def test_pure_t_twisted(self):
        assert pure_t_element(Twisted(Dim4Family(1, TWO_PI), 2)) is None
        el = pure_t_element(Twisted(Dim4Family(1, TWO_PI), 0))
        assert el == GroupElement(0, (0, 0), TWO_PI)

    def test_membership_consistency(self):
        for spec in (Dim4Family(2, HALF_PI), Dim6Family(2, 1, 3, 4)):
            assert spec.contains(central_element(spec))
            assert spec.contains(pure_t_element(spec))


dim4_specs = st.builds(Dim4Family, st.integers(1, 6), st.sampled_from([TWO_PI, PI, HALF_PI]))
dim6_specs = st.tuples(
    st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.sampled_from([1, 2, 4])
).filter(lambda a: math.gcd(a[1], a[2]) == 1 and (a[3] == 1 or a[2] % 2)).map(
    lambda a: Dim6Family(*a)
)
twists = (
    st.integers(-4, 4)
    | st.fractions(min_value=-3, max_value=3, max_denominator=5)
    | st.sampled_from([PI, PI / 2, -2 * PI])
)
closure_specs = st.one_of(
    dim4_specs,
    dim6_specs,
    st.builds(Twisted, dim4_specs | dim6_specs, twists),
)


@settings(max_examples=60, deadline=None)
@given(base=dim4_specs | dim6_specs, ms=st.lists(twists, max_size=3), seed=st.integers(0, 2**16))
@example(base=Dim4Family(1, TWO_PI), ms=[1, -1], seed=0)
@example(base=Dim6Family(1, 1, 3, 4), ms=[PI, Fraction(1, 2), -PI - Fraction(1, 2)], seed=0)
def test_the_profile_generates_the_lattice(base, ms, seed):
    spec = base
    for m in ms:
        spec = Twisted(spec, m)
    n2, t0 = 2 * spec.freqs.n, ExactScalar(0, base.t0_pi_coeff)
    twist = sum(ms, ExactScalar(0))
    # (w, 0, 0), the unit v's, (twist t0, 0, t0); each a member
    units = [GroupElement(0, [int(i == j) for j in range(n2)], 0) for i in range(n2)]
    expected = [GroupElement(base.z_step(), (0,) * n2, 0), *units,
                GroupElement(twist * t0, (0,) * n2, t0)]
    assert spec.generators() == expected
    assert all(spec.contains(g) for g in expected)
    # the same draws as the base sampler followed by z + m t at each twist level
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(3):
        z = ExactScalar(base.z_step() * ref.randint(-8, 8), 0)
        v = [ref.randint(-4, 4) for _ in range(n2)]
        t = ExactScalar(0, base.t0_pi_coeff * ref.randint(-4, 4))
        for m in ms:
            z = z + m * t
        assert spec.sample_member(rng) == GroupElement(z, v, t)
    # twist t0 has no constant term, so it lies in w Z only when the twist is 0
    assert spec.profile().pure_t == (t0 if twist.is_zero() else None)


class TestClosureAndDiscreteness:
    @pytest.mark.parametrize(
        "spec",
        [
            Dim4Family(1, TWO_PI),
            Dim4Family(2, HALF_PI),
            Dim6Family(1, 1, 1, 1),
            Dim6Family(2, 2, 1, 4),
            Dim6Family(1, 3, 1, 2),
            Twisted(Dim4Family(2, PI), 3),
        ],
    )
    def test_closure_under_product_and_inverse(self, spec):
        rng = random.Random(99)
        for _ in range(25):
            g = spec.sample_member(rng)
            h = spec.sample_member(rng)
            assert spec.contains(multiply(g, invert(h, spec.freqs), spec.freqs))

    @settings(max_examples=40, deadline=None)
    @given(spec=closure_specs, seed=st.integers(0, 2**16))
    def test_closure_property(self, spec, seed):
        rng = random.Random(seed)
        freqs = spec.freqs
        for _ in range(3):
            g, h = spec.sample_member(rng), spec.sample_member(rng)
            assert spec.contains(multiply(g, h, freqs))
            assert spec.contains(invert(g, freqs))
            assert spec.contains(multiply(g, invert(h, freqs), freqs))

    def test_discreteness_proxy(self):
        spec = Dim4Family(2, HALF_PI)
        step = min(Fraction(1, 4), Fraction(1), (spec.profile().t0 / PI).to_fraction())
        rng = random.Random(5)
        for _ in range(40):
            g = spec.sample_member(rng)
            norm = max(abs(float(c)) for c in g.coords())
            if norm > 0:
                assert norm >= float(step) - 1e-12

    def test_t_components_are_t0_multiples(self):
        spec = Dim6Family(1, 2, 3, 2)
        t0 = spec.profile().t0
        rng = random.Random(8)
        seen_exact_t0 = False
        for _ in range(40):
            g = spec.sample_member(rng)
            ratio = (g.t / t0).to_fraction()
            assert ratio.denominator == 1
            seen_exact_t0 |= ratio == 1
        assert spec.contains(GroupElement(0, (0,) * 4, t0))

    def test_rotation_step_preserves_integer_lattice(self):
        for spec in (Dim4Family(1, HALF_PI), Dim6Family(1, 2, 3, 4)):
            r = rotation(spec.profile().t0, spec.freqs)  # R(t0)
            for c, s in r:
                rows = ((c, -s), (s, c))
                assert all(x.denominator == 1 for row in rows for x in row)
                # signed permutation: one unit entry per row
                for row in rows:
                    assert sorted(abs(x) for x in row)[-1] == 1
                    assert sum(x * x for x in row) == 1
            # so R(t0) maps Z^{2n} onto itself
            v = tuple(range(1, 2 * spec.freqs.n + 1))
            assert sorted(abs(x) for x in swap_pairs(r, v)) == list(v)


class TestGeneratorList:
    def spec(self):
        gens = [
            GroupElement(Fraction(1, 2), (0, 0), 0),
            GroupElement(0, (1, 0), 0),
            GroupElement(0, (0, 1), 0),
            GroupElement(0, (0, 0), TWO_PI),
        ]
        return GeneratorList(FrequencyList([1]), gens, depth=4)

    def test_identity(self):
        assert self.spec().contains(GroupElement.identity(1))

    def test_short_word(self):
        spec = self.spec()
        g = multiply(spec.elements[1], spec.elements[3], spec.freqs)
        assert spec.contains(g)

    def test_out_of_reach_raises(self):
        spec = self.spec()
        with pytest.raises(MembershipUndecidable):
            spec.contains(GroupElement(Fraction(9, 2), (7, -7), 20 * PI))

    def test_cross_checks_product_family(self):
        spec = self.spec()
        family = Dim4Family(1, TWO_PI)
        rng = random.Random(1)
        for word_len in range(1, 3):
            els = list(spec.elements)
            g = els[0]
            for _ in range(word_len):
                g = multiply(g, els[rng.randrange(len(els))], spec.freqs)
            assert family.contains(g)


class TestProductWithLine:
    def test_pair_membership_with_exact_w(self):
        spec = ProductWithLine(Dim4Family(1, TWO_PI), w=Fraction(1, 2))
        g = GroupElement(Fraction(1, 2), (1, 0), TWO_PI)
        assert spec.contains((g, ExactScalar(Fraction(3, 2))))
        assert not spec.contains((g, ExactScalar(Fraction(1, 3))))
        assert not spec.contains((GroupElement(Fraction(1, 3), (0, 0), 0), ExactScalar(1)))

    def test_pi_step_line(self):
        spec = ProductWithLine(Dim4Family(1, TWO_PI), w=PI)
        g = GroupElement.identity(1)
        assert spec.contains((g, 2 * PI))
        assert not spec.contains((g, ExactScalar(1)))

    def test_w2_only_membership_undecidable(self):
        spec = ProductWithLine(Dim4Family(1, TWO_PI), w_squared=TWO_PI)
        with pytest.raises(MembershipUndecidable):
            spec.contains((GroupElement.identity(1), ExactScalar(1)))
