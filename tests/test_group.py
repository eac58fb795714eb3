import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscgeo.algebra import FrequencyList
from oscgeo.exact import ExactScalar, PI
from oscgeo.group import (
    ExactModeUnsupportedAngle,
    GroupElement,
    conjugate,
    invert,
    is_quarter_turn,
    max_coord_dist,
    multiply,
    rotation,
)

F1 = FrequencyList([1])
HALF_PI = PI / 2


def g_exact(z, v, t):
    return GroupElement(z, v, t)


class TestRotation:
    def test_identity_at_zero(self):
        r = rotation(ExactScalar(0), F1)
        assert r.cos_sin == ((1, 0),)
        assert r.block(0) == ((1, 0), (0, 1))
        assert r.apply((Fraction(2, 3), Fraction(-5))) == (Fraction(2, 3), Fraction(-5))

    def test_half_turn(self):
        r = rotation(PI, F1)
        assert r.cos_sin == ((-1, 0),)
        assert r.block(0) == ((-1, 0), (0, -1))
        assert r.apply((Fraction(2, 3), Fraction(-5))) == (Fraction(-2, 3), Fraction(5))

    def test_per_block_angles(self):
        fl = FrequencyList([1, Fraction(1, 2)])
        r = rotation(2 * PI, fl)
        assert r.block(0) == ((1, 0), (0, 1))
        assert r.block(1) == ((-1, 0), (0, -1))

    def test_exact_requires_quarter_turns(self):
        with pytest.raises(ExactModeUnsupportedAngle):
            rotation(PI / 3, F1)
        with pytest.raises(ExactModeUnsupportedAngle):
            rotation(ExactScalar(1), F1)
        # fine for the float path
        rotation(1.0, F1)

    def test_apply_rejects_wrong_dimension(self):
        r = rotation(PI, F1)
        with pytest.raises(ValueError):
            r.apply((Fraction(1), Fraction(2), Fraction(3), Fraction(4)))
        with pytest.raises(ValueError):
            r.apply(())

    def test_orthogonal_and_homomorphism_float(self):
        fl = FrequencyList([1, 3])
        rng = random.Random(0)
        for _ in range(20):
            s, t = rng.uniform(-5, 5), rng.uniform(-5, 5)
            rs, rt = rotation(s, fl), rotation(t, fl)
            a = rs.as_array()
            assert np.allclose(a.T @ a, np.eye(4), atol=1e-12)
            assert np.allclose(
                rotation(s + t, fl).as_array(), a @ rt.as_array(), atol=1e-12
            )

    def test_exact_blocks_are_signed_permutations(self):
        fl = FrequencyList([1, Fraction(3, 2)])
        r = rotation(2 * PI, fl)  # angles 2pi and 3pi
        assert r.cos_sin == ((1, 0), (-1, 0))
        for i in range(fl.n):
            for row in r.block(i):
                assert all(type(x) is int and x in (-1, 0, 1) for x in row)
                assert sum(x * x for x in row) == 1  # one unit entry per row
        assert np.array_equal(r.as_array(), np.diag([1.0, 1.0, -1.0, -1.0]))


class TestGroupElement:
    def test_mode_inference(self):
        assert g_exact(Fraction(1, 2), (1, 0), PI).mode == "exact"
        assert GroupElement(0.5, (1.0, 0.0), 3.1).mode == "float"

    def test_json_roundtrip_exact(self):
        g = g_exact("1/2 + 3/4 pi", ("2", 3), "2pi")
        assert GroupElement.from_json(g.to_json()) == g

    def test_json_roundtrip_float(self):
        g = GroupElement(0.25, (1.5, -0.5), 2.0)
        assert GroupElement.from_json(g.to_json()) == g


class TestProduct:
    def test_identity(self):
        e = GroupElement.identity(1)
        g = g_exact(Fraction(1, 3), (2, -1), HALF_PI)
        assert multiply(e, g, F1) == g
        assert multiply(g, e, F1) == g

    def test_inverse_law(self):
        g = g_exact(Fraction(1, 3), (2, -1), HALF_PI)
        assert multiply(g, invert(g, F1), F1).is_identity()
        assert multiply(invert(g, F1), g, F1).is_identity()

    def test_quarter_turn_product(self):
        # (0,(1,0),pi/2) . (0,(1,0),0): rotation sends (1,0) to (0,1) and the
        # central correction is +1/2 (pinned by the one-parameter subgroup
        # law; see the geodesic suite)
        g1 = g_exact(0, (1, 0), HALF_PI)
        g2 = g_exact(0, (1, 0), 0)
        out = multiply(g1, g2, F1)
        assert out == g_exact(Fraction(1, 2), (1, 1), HALF_PI)

    def test_invert_formula(self):
        g = g_exact(0, (1, 0), HALF_PI)
        gi = invert(g, F1)
        assert gi == g_exact(0, (0, 1), -HALF_PI)
        assert multiply(g, gi, F1).is_identity()

    def test_invert_central(self):
        g = g_exact(Fraction(2, 7), (0, 0), 3 * PI)
        assert invert(g, F1) == g_exact(Fraction(-2, 7), (0, 0), -3 * PI)

    def test_exact_mode_needs_quarter_turn_angle(self):
        g1 = g_exact(0, (1, 0), PI / 3)
        g2 = g_exact(0, (1, 0), 0)
        with pytest.raises(ExactModeUnsupportedAngle):
            multiply(g1, g2, F1)
        # switching to float mode works
        multiply(g1.to_floats(), g2.to_floats(), F1)

    def test_mixed_modes_rejected(self):
        g1 = g_exact(0, (1, 0), 0)
        with pytest.raises(ValueError):
            multiply(g1, g1.to_floats(), F1)

    def test_associativity_random_float(self):
        fl = FrequencyList([1, Fraction(5, 2)])
        rng = random.Random(42)
        for _ in range(50):
            a, b, c = (
                GroupElement(
                    rng.uniform(-2, 2),
                    [rng.uniform(-2, 2) for _ in range(4)],
                    rng.uniform(-4, 4),
                )
                for _ in range(3)
            )
            lhs = multiply(multiply(a, b, fl), c, fl)
            rhs = multiply(a, multiply(b, c, fl), fl)
            assert max_coord_dist(lhs, rhs) < 1e-10

    def test_associativity_random_exact(self):
        fl = FrequencyList([1, 2])
        rng = random.Random(3)
        for _ in range(20):
            def r():
                return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            def el():
                return GroupElement(
                    ExactScalar(r(), r()),
                    [r() for _ in range(4)],
                    HALF_PI * rng.randint(-3, 3),
                )
            a, b, c = el(), el(), el()
            assert multiply(multiply(a, b, fl), c, fl) == multiply(
                a, multiply(b, c, fl), fl
            )

    def test_exact_float_agreement(self):
        fl = FrequencyList([1, 2])
        rng = random.Random(11)
        for _ in range(30):
            def r():
                return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            a = GroupElement(ExactScalar(r(), r()), [r() for _ in range(4)],
                             HALF_PI * rng.randint(-3, 3))
            b = GroupElement(ExactScalar(r(), r()), [r() for _ in range(4)],
                             HALF_PI * rng.randint(-3, 3))
            exact = multiply(a, b, fl)
            floated = multiply(a.to_floats(), b.to_floats(), fl)
            assert max_coord_dist(exact.to_floats(), floated) < 1e-12


class TestConjugation:
    def test_fixes_identity(self):
        h = g_exact(Fraction(1, 2), (1, 1), PI)
        assert conjugate(h, GroupElement.identity(1), F1).is_identity()

    def test_central_acts_trivially(self):
        h = g_exact(Fraction(5, 3), (0, 0), 0)
        g = g_exact(Fraction(1, 7), (2, 3), HALF_PI)
        assert conjugate(h, g, F1) == g

    def test_half_turn_example(self):
        h = g_exact(0, (1, 0), 0)
        g = g_exact(0, (0, 0), PI)
        assert conjugate(h, g, F1) == g_exact(0, (2, 0), PI)

    def test_depends_only_on_v_t(self):
        fl = FrequencyList([1])
        g = g_exact(Fraction(1, 5), (1, -2), PI)
        h1 = g_exact(0, (1, 1), HALF_PI)
        h2 = g_exact(Fraction(9, 2), (1, 1), HALF_PI)
        assert conjugate(h1, g, fl) == conjugate(h2, g, fl)

    def test_is_homomorphism_sampled(self):
        fl = FrequencyList([1])
        rng = random.Random(5)
        for _ in range(20):
            def r():
                return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            h = GroupElement(r(), (r(), r()), HALF_PI * rng.randint(-2, 2))
            a = GroupElement(r(), (r(), r()), HALF_PI * rng.randint(-2, 2))
            b = GroupElement(r(), (r(), r()), HALF_PI * rng.randint(-2, 2))
            assert conjugate(h, multiply(a, b, fl), fl) == multiply(
                conjugate(h, a, fl), conjugate(h, b, fl), fl
            )


# -- generated exact quarter-turn elements ------------------------------------

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
freq_lists = st.lists(
    st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
    min_size=1,
    max_size=2,
).map(FrequencyList)


def quarter_turn_unit(fl):
    """pi/2 times the lcm of the frequency denominators: every lambda_i times
    a multiple of it is a multiple of pi/2."""
    return PI * Fraction(math.lcm(*(lam.denominator for lam in fl.lambdas)), 2)


def quarter_turns(fl):
    return st.integers(-4, 4).map(lambda k: quarter_turn_unit(fl) * k)


def exact_vectors(fl):
    return st.lists(small_rationals, min_size=2 * fl.n, max_size=2 * fl.n)


def exact_elements(fl):
    return st.builds(
        GroupElement,
        st.builds(ExactScalar, small_rationals, small_rationals),
        exact_vectors(fl),
        quarter_turns(fl),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_associativity_and_inverses(data):
    fl = data.draw(freq_lists)
    a, b, c = (data.draw(exact_elements(fl)) for _ in range(3))
    assert multiply(multiply(a, b, fl), c, fl) == multiply(a, multiply(b, c, fl), fl)
    assert multiply(a, invert(a, fl), fl).is_identity()
    assert multiply(invert(a, fl), a, fl).is_identity()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_rotation_is_homomorphism(data):
    fl = data.draw(freq_lists)
    s, t = data.draw(quarter_turns(fl)), data.draw(quarter_turns(fl))
    v = tuple(data.draw(exact_vectors(fl)))
    assert rotation(s + t, fl).apply(v) == rotation(s, fl).apply(rotation(t, fl).apply(v))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_is_quarter_turn_iff_rotation_is_exact(data):
    fl = data.draw(freq_lists)
    t = data.draw(
        quarter_turns(fl)
        | st.builds(ExactScalar, st.just(0) | small_rationals, small_rationals)
    )
    try:
        rotation(t, fl)
        exact = True
    except ExactModeUnsupportedAngle:
        exact = False
    assert is_quarter_turn(t, fl) == exact


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_multiply_matches_float(data):
    fl = data.draw(freq_lists)
    a, b = data.draw(exact_elements(fl)), data.draw(exact_elements(fl))
    floated = multiply(a.to_floats(), b.to_floats(), fl)
    assert max_coord_dist(multiply(a, b, fl).to_floats(), floated) < 1e-12
