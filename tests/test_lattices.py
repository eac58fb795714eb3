import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscgeo import lattices
from oscgeo.algebra import FrequencyList
from oscgeo.exact import ExactScalar, PI, rational_ratio
from oscgeo.group import GroupElement, invert, multiply, rotate_pairs, rotation
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

from lattice_specs import CRITERION_7_SPECS, product_forms

TWO_PI = 2 * PI
HALF_PI = PI / 2


class TestConstruction:
    def test_dim6_frequencies(self):
        spec = Dim6Family(2, 3, 1, 4)
        assert spec.freqs.lambdas == (Fraction(1), Fraction(3))

    def test_specs_with_equal_parameters_share_their_frequencies(self):
        a, b = Dim6Family(1, 1, 3, 4), Dim6Family(2, 1, 3, 2)
        assert a.freqs is b.freqs is Twisted(a, 1).freqs
        assert Dim4Family(1, TWO_PI).freqs is Dim4Family(3, HALF_PI).freqs
        assert Dim6Family(1, 1, 2, 1).freqs.lambdas == (1, Fraction(1, 2))
        # the shared list answers as a fresh one does
        fresh = FrequencyList([1, Fraction(1, 3)])
        assert (a.freqs, a.freqs.quarter_turns, a.freqs.floats) == (
            fresh, fresh.quarter_turns, fresh.floats)
        assert (a.profile().k0, b.profile().k0) == (4, 2)
        g = GroupElement(Fraction(1, 2), (1, 0, 0, 1), 3 * PI / 2)
        assert a.contains(g) and not b.contains(g)

    @pytest.mark.parametrize("family, args, message", [
        (Dim4Family, (0, TWO_PI), "k must be a positive integer, got 0"),
        (Dim4Family, (-1, PI), "k must be a positive integer, got -1"),
        (Dim4Family, (True, PI), "k must be a positive integer, got True"),
        (Dim4Family, (1.0, PI), "k must be a positive integer, got 1.0"),
        (Dim4Family, ("1", PI), "k must be a positive integer, got '1'"),
        (Dim4Family, (0, PI / 3), "k must be a positive integer, got 0"),  # k is checked first
        (Dim4Family, (1, PI / 3), "angle must be one of 2pi, pi, pi/2"),
        (Dim4Family, (1, 3 * PI), "angle must be one of 2pi, pi, pi/2"),
        (Dim4Family, (1, -2 * PI), "angle must be one of 2pi, pi, pi/2"),
        (Dim4Family, (1, ExactScalar(1)), "angle must be one of 2pi, pi, pi/2"),
        (Dim4Family, (1, 1 + PI), "angle must be one of 2pi, pi, pi/2"),
        (Dim4Family, (1, "x"), "not a rational literal: 'x'"),
        (Dim6Family, (0, 1, 1, 1), "k must be a positive integer, got 0"),
        (Dim6Family, (True, 1, 1, 1), "k must be a positive integer, got True"),
        (Dim6Family, (1.5, 1, 1, 1), "k must be a positive integer, got 1.5"),
        (Dim6Family, (1, 0, 1, 1), "p must be a positive integer, got 0"),
        (Dim6Family, (1, 1, False, 1), "q must be a positive integer, got False"),
        (Dim6Family, (1, 1, 1, 0), "M must be a positive integer, got 0"),
        (Dim6Family, (1, 1, 1, True), "M must be a positive integer, got True"),
        (Dim6Family, (1, 1, 1, 3), "M must be 1, 2 or 4"),
        (Dim6Family, (1, 2, 4, 3), "M must be 1, 2 or 4"),  # M is checked before gcd
        (Dim6Family, (1, 2, 4, 1), "p and q must be coprime"),
        (Dim6Family, (1, 3, 6, 2), "p and q must be coprime"),
        (Dim6Family, (1, 1, 2, 2), "q must be odd when M > 1"),
        (Dim6Family, (1, 1, 2, 4), "q must be odd when M > 1"),
    ])
    def test_invalid_family_arguments_name_their_fault(self, family, args, message):
        with pytest.raises(ValueError) as info:
            family(*args)
        assert type(info.value) is ValueError and str(info.value) == message

    def test_criterion_7_specs_keep_their_repr_equality_hash_and_json(self):
        for spec in CRITERION_7_SPECS:
            if isinstance(spec, Dim4Family):
                params = (spec.k, spec.angle)
                assert repr(spec) == f"Dim4Family(k={spec.k}, angle={spec.angle!r})"
                assert spec.to_json() == {"family": "dim4", "k": spec.k, "angle": str(spec.angle)}
                twin = Dim4Family(*params)
            else:
                params = (spec.k, spec.p, spec.q, spec.m_div)
                assert repr(spec) == "Dim6Family(k={}, p={}, q={}, m_div={})".format(*params)
                assert spec.to_json() == dict(zip(("family", "k", "p", "q", "M"), ("dim6", *params)))
                twin = Dim6Family(*params)
            assert twin == spec and hash(twin) == hash(spec) == hash(params)
        assert len(set(CRITERION_7_SPECS)) == len(CRITERION_7_SPECS) == 60

    @pytest.mark.parametrize("base", [
        ProductWithLine(Dim4Family(1, TWO_PI), w=1),
        GeneratorList(FrequencyList([1]), [GroupElement(0, (1, 0), 0)]),
    ])
    def test_a_twist_needs_a_base_with_a_profile(self, base):
        # membership of a twist is its profile's rule, so the base must have one
        with pytest.raises(UnsupportedSpec, match="does not support profile"):
            Twisted(base, 1)

    def test_json_roundtrip(self):
        specs = [
            Dim4Family(2, HALF_PI),
            Dim6Family(1, 2, 3, 1),
            Twisted(Dim4Family(1, TWO_PI), 2),
            ProductWithLine(Dim4Family(1, TWO_PI), w_squared=TWO_PI),
            ProductWithLine(Dim4Family(1, TWO_PI), w_squared="irrational"),
            ProductWithLine(Dim4Family(1, TWO_PI), w=Fraction(1, 2)),
            TestGeneratorList().spec(),  # depth=4 round-trips too
        ]
        for spec in specs:
            j = spec.to_json()
            assert from_json(j).to_json() == j

    @pytest.mark.parametrize("base", [None, 0, "x", [], True])
    @pytest.mark.parametrize("family", ["twisted", "product_line"])
    def test_base_that_is_not_an_object_is_refused(self, family, base):
        # it escaped as an AttributeError from obj.get
        with pytest.raises(ValueError, match="object"):
            from_json({"family": family, "m": "1", "w2": "1", "base": base})

    @pytest.mark.parametrize("obj", [
        # each was coerced by int(...): 1.5 and true became 1
        {"family": "dim4", "k": 1.5, "angle": "2pi"},
        {"family": "dim4", "k": True, "angle": "2pi"},
        {"family": "dim4", "k": "2", "angle": "2pi"},  # a digit string is refused too
        {"family": "dim6", "k": 1, "p": 1.0, "q": 1, "M": 1},
        {"family": "dim6", "k": 1, "p": 1, "q": True, "M": 1},
        {"family": "dim6", "k": 1, "p": 1, "q": 1, "M": True},
        {"family": "dim6", "k": 1, "p": 1, "q": 1, "M": 4.0},
        *({"family": "generators", "freqs": [1], "depth": d,
           "elements": [{"z": 0, "v": [1, 0], "t": 0}]} for d in (0, -3, True, 1.5, "4")),
    ])
    def test_parameters_that_are_not_positive_integers_are_refused(self, obj):
        with pytest.raises(ValueError, match="integer"):
            from_json(obj)

    def test_generator_lists_refuse_a_boolean_depth(self):
        with pytest.raises(ValueError):
            GeneratorList(FrequencyList([1]), [GroupElement(0, (1, 0), 0)], depth=True)

    @pytest.mark.parametrize("w, w2", [(None, True), ("1", True), ("3", "2"), ("3", "irrational")])
    def test_line_steps_that_are_booleans_or_disagree_are_refused(self, w, w2):
        obj = {"family": "product_line", "base": Dim4Family(1, TWO_PI).to_json(), "w2": w2}
        if w is not None:
            obj["w"] = w
        with pytest.raises((TypeError, ValueError)):
            from_json(obj)

    def test_line_steps_that_agree_are_read(self):
        base = Dim4Family(1, TWO_PI).to_json()
        spec = from_json({"family": "product_line", "base": base, "w": "3", "w2": "9"})
        assert spec.w_squared == ExactScalar(9)
        spec = from_json({"family": "product_line", "base": base, "w": "pi", "w2": "pi^2"})
        assert spec.w_squared == PI * PI

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
        prof = spec.profile()
        assert spec.period_rotations is spec.period_rotations
        assert spec.period_rotations == tuple(
            rotation(prof.t0 * c, spec.freqs) for c in range(prof.k0)
        )

    def test_period_rotations_are_one_table(self):
        # defined once, on LatticeSpec; quotient reads it with no rotation helper of its own
        src = Path(lattices.__file__).parent
        trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
        defs = [name for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "period_rotations"]
        assert defs == ["lattices.py"]
        imported = {alias.name for node in ast.walk(trees["quotient.py"])
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not imported & {"quarter_turn_count", "rotation"}

    @pytest.mark.parametrize("spec", [
        ProductWithLine(Dim4Family(1, TWO_PI), w=1),
        GeneratorList(FrequencyList([1]), [GroupElement(0, (1, 0), 0)]),
    ])
    def test_period_rotations_need_a_profile(self, spec):
        with pytest.raises(UnsupportedSpec):
            spec.period_rotations


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
base_specs = dim4_specs | dim6_specs | product_forms()
closure_specs = base_specs | st.builds(Twisted, base_specs, twists)


@settings(max_examples=60, deadline=None)
@given(base=base_specs, ms=st.lists(twists, max_size=3), seed=st.integers(0, 2**16))
@example(base=Dim4Family(1, TWO_PI), ms=[1, -1], seed=0)
@example(base=Dim6Family(1, 1, 3, 4), ms=[PI, Fraction(1, 2), -PI - Fraction(1, 2)], seed=0)
def test_the_profile_generates_the_lattice(base, ms, seed):
    spec = base
    for m in ms:
        spec = Twisted(spec, m)
    n2, t0 = 2 * spec.freqs.n, base.t0
    twist = sum(ms, ExactScalar(0))
    # (w, 0, 0), the unit v's, (twist t0, 0, t0); each a member
    units = [GroupElement(0, [int(i == j) for j in range(n2)], 0) for i in range(n2)]
    expected = [GroupElement(Fraction(1, 2 * base.k), (0,) * n2, 0), *units,
                GroupElement(twist * t0, (0,) * n2, t0)]
    assert spec.generators() == expected
    assert all(spec.contains(g) for g in expected)
    # the same draws as the base sampler followed by z + m t at each twist level
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(3):
        z = ExactScalar(Fraction(ref.randint(-8, 8), 2 * base.k))
        v = [ref.randint(-4, 4) for _ in range(n2)]
        t = base.t0 * ref.randint(-4, 4)
        for m in ms:
            z = z + m * t
        assert spec.sample_member(rng) == GroupElement(z, v, t)
    # twist t0 has no constant term, so it lies in w Z only when the twist is 0
    assert spec.profile().pure_t == (t0 if twist.is_zero() else None)


def _family_rule(base, ms, g):
    """The family's rule, twisted by ms, as an independent reference for
    `contains`: v integral, t in t0 Z and z - (sum of ms) t in (1/2k)Z."""
    t0, twist = base.t0, sum(ms, ExactScalar(0))
    j, z = rational_ratio(g.t, t0), g.z - twist * g.t
    return (g.den == 1 and j is not None and j[1] == 1 and z.degree() <= 0
            and (z.to_fraction() * 2 * base.k).denominator == 1)


# offsets in units of a lattice step: whole or fractional, times 1, pi or q + pi
step_counts = st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(-3, 4), 1, -2])
offsets = (step_counts | step_counts.map(lambda q: ExactScalar(0, q))
           | step_counts.map(lambda q: ExactScalar(q, 1)))


@settings(max_examples=150, deadline=None)
@given(base=base_specs, ms=st.lists(twists, max_size=3), seed=st.integers(0, 2**16),
       data=st.data())
def test_contains_agrees_with_the_profile(base, ms, seed, data):
    spec = base
    for m in ms:
        spec = Twisted(spec, m)
    rng = random.Random(seed)
    w, t0 = Fraction(1, 2 * base.k), base.t0
    twist = sum(ms, ExactScalar(0))
    for _ in range(4):
        g = spec.sample_member(rng)
        assert spec.contains(g) and _family_rule(base, ms, g)
        i = data.draw(st.integers(0, len(g.v) - 1))
        dz, dv, dt = data.draw(offsets), data.draw(step_counts), data.draw(offsets)
        v = list(g.v)
        v[i] += dv
        for other in (
            GroupElement(g.z + dz * w, g.v, g.t),
            GroupElement(g.z, v, g.t),
            GroupElement(g.z, g.v, g.t + dt * t0),
            GroupElement(g.z + twist * t0 * dt, g.v, g.t + dt * t0),
        ):
            assert spec.contains(other) == _family_rule(base, ms, other)


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
            assert sorted(abs(x) for x in rotate_pairs(r, v)) == list(v)


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

    def test_word_search_stops_at_its_budget(self):
        # (0, (1, 1), 0) is no member: depth 32 ran for more than 20 s
        spec = GeneratorList(
            FrequencyList([1]), [GroupElement(0, (1, 0), 0), GroupElement(0, (0, 1), 0)], depth=32
        )
        with pytest.raises(MembershipUndecidable, match=f"{lattices.MAX_WORDS} words"):
            spec.contains(GroupElement(0, (1, 1), 0))

    def test_an_exhausted_subgroup_decides_non_membership(self):
        # the identity generates {e}: the first word length adds nothing new,
        # so every other element is decided outside, at any depth
        spec = GeneratorList(FrequencyList([1]), [GroupElement.identity(1)], depth=64)
        assert spec.contains(GroupElement.identity(1))
        for g in (GroupElement(0, (1, 0), 0), GroupElement(Fraction(1, 2), (0, 0), TWO_PI)):
            assert spec.contains(g) is False

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


COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
PI_POLYS = st.lists(COEFFS, max_size=3).map(lambda cs: ExactScalar(*cs))


def _line_rule_by_ratio(r: ExactScalar, w: ExactScalar) -> bool:
    """The former rule for a given w: r in w Z iff r = 0 or r / w is an integer."""
    if r.is_zero():
        return True
    ratio = rational_ratio(r, w)
    return ratio is not None and ratio[1] == 1


class TestProductWithLine:
    @settings(max_examples=400, deadline=None)
    @given(w=PI_POLYS.filter(lambda w: w.sign() > 0), m=st.one_of(st.integers(-6, 6), COEFFS),
           noise=PI_POLYS, noisy=st.booleans())
    def test_the_w2_rule_agrees_with_the_ratio_to_w(self, w, m, noise, noisy):
        # r^2 / w^2 = m^2 with m an integer iff r / w = +-m, since r and w are real
        r = m * w + noise if noisy else m * w
        g = GroupElement.identity(1)
        expected = _line_rule_by_ratio(r, w)
        assert ProductWithLine(Dim4Family(1, TWO_PI), w=w).contains((g, r)) is expected
        assert ProductWithLine(Dim4Family(1, TWO_PI), w_squared=w * w).contains((g, r)) is expected

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

    def test_non_monomial_step_decides_the_line_coordinate(self):
        # r / (1 + pi) is read by proportion, not by dividing by a monomial
        spec = ProductWithLine(Dim4Family(1, TWO_PI), w=1 + PI)
        g = GroupElement.identity(1)
        for r in (ExactScalar(0), 1 + PI, 2 + 2 * PI, -3 - 3 * PI):
            assert spec.contains((g, r))
        for r in (ExactScalar(1), PI, (1 + PI) / 2, 2 + PI):
            assert not spec.contains((g, r))
        assert not spec.contains((GroupElement(Fraction(1, 3), (0, 0), 0), 1 + PI))

    @pytest.mark.parametrize("w2, inside, outside", [
        # w^2 = 2 pi: w is not in Q[pi], so only r = 0 lies in w Z
        (TWO_PI, [0], [1, PI, TWO_PI]),
        (ExactScalar(4), [0, 2, -2, 6], [1, 3, Fraction(1, 2), PI]),
        (ExactScalar(2), [0], [2, 4]),  # r^2 / w^2 = 2, 8: no squares
        (PI * PI, [0, PI, -3 * PI], [1, PI / 2]),
        ((1 + PI) * (1 + PI), [0, 2 + 2 * PI, -1 - PI], [1 + 2 * PI, ExactScalar(1)]),
    ])
    def test_w2_only_membership_is_decided(self, w2, inside, outside):
        # r in w Z iff r = 0, or r^2 / w^2 is the square of an integer
        spec = ProductWithLine(Dim4Family(1, TWO_PI), w_squared=w2)
        g = GroupElement.identity(1)
        for r in inside:
            assert spec.contains((g, r))
            assert not spec.contains((GroupElement(0, (Fraction(1, 2), 0), 0), r))
        for r in outside:
            assert not spec.contains((g, r))

    def test_irrational_w2_membership_undecidable_off_zero(self):
        spec = ProductWithLine(Dim4Family(1, TWO_PI), w_squared="irrational")
        with pytest.raises(MembershipUndecidable):
            spec.contains((GroupElement.identity(1), ExactScalar(1)))
        assert spec.contains((GroupElement.identity(1), ExactScalar(0)))
        assert not spec.contains((GroupElement(Fraction(1, 3), (0, 0), 0), ExactScalar(0)))
