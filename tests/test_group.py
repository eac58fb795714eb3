import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscgeo.algebra import FrequencyList
from oscgeo.exact import ExactScalar, PI, exact_to_json
from oscgeo.group import (
    ExactModeUnsupportedAngle,
    GroupElement,
    conjugate,
    invert,
    is_quarter_turn,
    max_coord_dist,
    multiply,
    rotate_pairs,
    rotation,
)
from oscgeo.lattices import Dim4Family, Dim6Family

F1 = FrequencyList([1])
HALF_PI = PI / 2


def g_exact(z, v, t):
    return GroupElement(z, v, t)


def _blocks(r):
    """The 2x2 blocks [[c, -s], [s, c]] of R, one per (cos, sin) pair."""
    return [((c, -s), (s, c)) for c, s in r]


def _dense(r):
    out = np.zeros((2 * len(r), 2 * len(r)))
    for i, block in enumerate(_blocks(r)):
        out[2 * i: 2 * i + 2, 2 * i: 2 * i + 2] = block
    return out


class TestRotation:
    def test_identity_at_zero(self):
        r = rotation(ExactScalar(0), F1)
        assert r == ((1, 0),)
        assert _blocks(r) == [((1, 0), (0, 1))]
        assert rotate_pairs(r, (Fraction(2, 3), Fraction(-5))) == (Fraction(2, 3), Fraction(-5))

    def test_half_turn(self):
        r = rotation(PI, F1)
        assert r == ((-1, 0),)
        assert _blocks(r) == [((-1, 0), (0, -1))]
        assert rotate_pairs(r, (Fraction(2, 3), Fraction(-5))) == (Fraction(-2, 3), Fraction(5))

    def test_per_block_angles(self):
        fl = FrequencyList([1, Fraction(1, 2)])
        r = rotation(2 * PI, fl)
        assert _blocks(r) == [((1, 0), (0, 1)), ((-1, 0), (0, -1))]

    def test_exact_requires_quarter_turns(self):
        with pytest.raises(ExactModeUnsupportedAngle):
            rotation(PI / 3, F1)
        with pytest.raises(ExactModeUnsupportedAngle):
            rotation(ExactScalar(1), F1)
        # the message names the first block that is no quarter turn
        with pytest.raises(ExactModeUnsupportedAngle, match=r"^angle 1/6\*pi is not a multiple"):
            rotation(HALF_PI, FrequencyList([1, Fraction(1, 3)]))
        # fine for the float path
        rotation(1.0, F1)

    def test_apply_rejects_wrong_dimension(self):
        r = rotation(PI, F1)
        with pytest.raises(ValueError):
            rotate_pairs(r, (Fraction(1), Fraction(2), Fraction(3), Fraction(4)))
        with pytest.raises(ValueError):
            rotate_pairs(r, ())

    def test_orthogonal_and_homomorphism_float(self):
        fl = FrequencyList([1, 3])
        rng = random.Random(0)
        for _ in range(20):
            s, t = rng.uniform(-5, 5), rng.uniform(-5, 5)
            a = _dense(rotation(s, fl))
            assert np.allclose(a.T @ a, np.eye(4), atol=1e-12)
            assert np.allclose(
                _dense(rotation(s + t, fl)), a @ _dense(rotation(t, fl)), atol=1e-12
            )

    def test_exact_blocks_are_signed_permutations(self):
        fl = FrequencyList([1, Fraction(3, 2)])
        r = rotation(2 * PI, fl)  # angles 2pi and 3pi
        assert r == ((1, 0), (-1, 0))
        for block in _blocks(r):
            for row in block:
                assert all(type(x) is int and x in (-1, 0, 1) for x in row)
                assert sum(x * x for x in row) == 1  # one unit entry per row
        assert np.array_equal(_dense(r), np.diag([1.0, 1.0, -1.0, -1.0]))


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
    rotated = rotate_pairs(rotation(s, fl), rotate_pairs(rotation(t, fl), v))
    assert rotate_pairs(rotation(s + t, fl), v) == rotated


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_json_formats_v_as_its_fraction_view(data):
    fl = data.draw(freq_lists)
    g = data.draw(exact_elements(fl))
    fresh = GroupElement._exact(g.z, g.num, g.den, g.t)  # no Fraction view built yet
    ref = {"z": exact_to_json(g.z), "v": [str(x) if x.denominator != 1 else int(x) for x in g.v],
           "t": exact_to_json(g.t)}
    # json.dumps compares the entry types and the key order too
    assert json.dumps(fresh.to_json()) == json.dumps(ref)


# numerators above 1 with a common factor, so that G = gcd(p_i) > 1 is drawn
table_freq_lists = st.builds(
    lambda common, lams: FrequencyList([common * lam for lam in lams]),
    st.integers(1, 3),
    st.lists(
        st.builds(Fraction, st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=3
    ),
)


def _reference_quarters(t, fl):
    """Each lambda_i * t in quarter turns, as Fractions, or None when t is no
    rational multiple of pi."""
    if t.degree() > 1 or (t.num and t.num[0]):
        return None
    return [2 * lam * (t / PI).to_fraction() for lam in fl.lambdas]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_quarter_turn_table_matches_fraction_arithmetic(data):
    fl = data.draw(table_freq_lists)
    p = [lam.numerator for lam in fl.lambdas]
    q = [lam.denominator for lam in fl.lambdas]
    unit = PI * Fraction(math.lcm(*q), 2 * math.gcd(*p))  # (pi/2) L / G
    t = data.draw(
        st.builds(lambda j, d: unit * Fraction(j, d), st.integers(-12, 12), st.integers(1, 4))
        | st.builds(ExactScalar, small_rationals.filter(bool), small_rationals)
        | st.builds(ExactScalar, small_rationals, small_rationals, small_rationals.filter(bool))
    )
    quarters = _reference_quarters(t, fl)
    exact = quarters is not None and all(x.denominator == 1 for x in quarters)
    assert is_quarter_turn(t, fl) == exact
    if exact:
        turns = tuple(((1, 0), (0, 1), (-1, 0), (0, -1))[int(x) % 4] for x in quarters)
        assert rotation(t, fl) == turns
        return
    if quarters is None:
        part = "a nonzero rational part" if t.num[0] else "a power of pi above 1"
        message = f"angle {t} has {part}; rotation entries would be irrational"
    else:
        angle = next(x / 2 for x in quarters if x.denominator != 1)
        message = f"angle {angle}*pi is not a multiple of pi/2"
    with pytest.raises(ExactModeUnsupportedAngle) as info:
        rotation(t, fl)
    assert str(info.value) == message


dim6_args = st.tuples(
    st.integers(1, 3), st.integers(1, 12), st.integers(1, 12), st.sampled_from([1, 2, 4])
).filter(lambda args: math.gcd(args[1], args[2]) == 1)
product_families = st.builds(
    Dim4Family, st.integers(1, 3), st.sampled_from([2 * PI, PI, HALF_PI])
) | dim6_args.map(lambda a: Dim6Family(a[0], a[1], a[2], a[3] if a[2] % 2 else 1))


@settings(max_examples=60, deadline=None)
@given(spec=product_families)
def test_k0_is_the_order_of_the_rotation_step(spec):
    prof = spec.profile()
    # K0 is the least K >= 1 with every block of R(K t0) a whole turn
    order = next(
        k for k in range(1, 9)
        if all(x % 4 == 0 for x in _reference_quarters(prof.t0 * k, spec.freqs))
    )
    assert prof.k0 == order


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_multiply_matches_float(data):
    fl = data.draw(freq_lists)
    a, b = data.draw(exact_elements(fl)), data.draw(exact_elements(fl))
    floated = multiply(a.to_floats(), b.to_floats(), fl)
    assert max_coord_dist(multiply(a, b, fl).to_floats(), floated) < 1e-12


# -- the exact kernel against its reference arithmetic ----------------------------


@settings(max_examples=60, deadline=None)
@given(v=st.lists(small_rationals, min_size=2, max_size=2).map(tuple))
def test_exact_quarter_turns_match_the_general_product(v):
    # the general product by a quarter turn is the signed swap, and keeps the type
    (x, y) = v
    for k in range(4):
        r = rotation(HALF_PI * k, F1)
        assert r == (((1, 0), (0, 1), (-1, 0), (0, -1))[k],)
        rotated = rotate_pairs(r, v)
        assert rotated == ((x, y), (-y, x), (-x, -y), (y, -x))[k]
        assert all(type(c) is Fraction for c in rotated)


@settings(max_examples=30, deadline=None)
@given(v=st.lists(small_rationals, min_size=2, max_size=2).map(tuple))
def test_rotate_pairs_keeps_the_general_product(v):
    # int pairs that are not quarter turns, like isometries' (sin, cos - 1)
    x, y = v
    assert rotate_pairs([(0, -2)], v) == (2 * y, -2 * x)
    assert rotate_pairs([(1, -1)], v) == (x + y, y - x)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_products_and_inverses_match_the_coercing_constructor(data):
    fl = data.draw(freq_lists)
    a, b = data.draw(exact_elements(fl)), data.draw(exact_elements(fl))
    for g in (multiply(a, b, fl), invert(a, fl), conjugate(a, b, fl)):
        rebuilt = GroupElement(g.z, g.v, g.t)
        assert g == rebuilt and hash(g) == hash(rebuilt)
        assert type(g.v) is tuple and all(type(x) is Fraction for x in g.v)
        assert type(g.z) is ExactScalar and type(g.t) is ExactScalar
        assert all(type(x) is int for x in (*g.z.num, g.z.den, *g.t.num, g.t.den))
        assert GroupElement.from_json(g.to_json()) == g


# -- the one-pass exact conjugation ---------------------------------------------

conjugation_freq_lists = st.lists(
    st.builds(Fraction, st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=3
).map(FrequencyList)
mixed_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)


def table_turns(fl):
    """m times the unit of the quarter-turn table, m in -8..8."""
    lcm, two_gcd, _ = fl.quarter_turns
    return st.integers(-8, 8).map(lambda m: PI * Fraction(m * lcm, two_gcd))


def conjugation_elements(fl):
    return st.builds(
        GroupElement,
        st.builds(ExactScalar, mixed_rationals, mixed_rationals),
        st.lists(mixed_rationals, min_size=2 * fl.n, max_size=2 * fl.n),
        table_turns(fl),
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_exact_conjugation_is_the_composed_product(data):
    fl = data.draw(conjugation_freq_lists)
    h, g = data.draw(conjugation_elements(fl)), data.draw(conjugation_elements(fl))
    composed = multiply(multiply(h, g, fl), invert(h, fl), fl)
    conjugated = conjugate(h, g, fl)
    assert conjugated == composed
    assert_canonical(conjugated)


def test_float_conjugation_is_bitwise_the_composed_product():
    fl = FrequencyList([1, Fraction(3, 2)])
    h = GroupElement(0.3, (0.1, -1.7, 2.2, 0.45), 0.9)
    g = GroupElement(-1.25, (1.3, 0.7, -0.2, 3.1), -2.4)
    composed = multiply(multiply(h, g, fl), invert(h, fl), fl)
    conjugated = conjugate(h, g, fl)
    assert not conjugated.is_exact()
    assert conjugated.coords() == composed.coords()


# -- the float group law, operation by operation ---------------------------------------


def _float_rotation(t, fl):
    return tuple((math.cos(th), math.sin(th)) for th in (lam * t for lam in fl.floats))


def _float_rotate(cos_sin, v):
    out = []
    for (c, s), x, y in zip(cos_sin, v[0::2], v[1::2]):
        out.extend((c * x - s * y, s * x + c * y))
    return tuple(out)


def _float_pairing(u, w):
    jw = [c for x, y in zip(w[0::2], w[1::2]) for c in (y, -x)]
    total = u[0] * jw[0]
    for a, b in zip(u[1:], jw[1:]):
        total = total + a * b
    return total


def _float_product(g1, g2, fl):
    """(z, v, t) of g1 g2, each float operation in the group law's order."""
    (z1, v1, t1), (z2, v2, t2) = g1, g2
    rv2 = _float_rotate(_float_rotation(t1, fl), v2)
    z = z1 + z2
    z = z + _float_pairing(v1, rv2) / 2
    return z, tuple(a + b for a, b in zip(v1, rv2)), t1 + t2


def _float_inverse(g, fl):
    z, v, t = g
    return -z, tuple(-x for x in _float_rotate(_float_rotation(-t, fl), v)), -t


signed_coords = (
    st.floats(-1e6, 1e6) | st.floats(-1e-300, 1e-300) | st.sampled_from([0.0, -0.0])
)


def float_elements(fl):
    return st.tuples(
        signed_coords,
        st.lists(signed_coords, min_size=2 * fl.n, max_size=2 * fl.n).map(tuple),
        signed_coords | st.sampled_from([math.pi, -math.pi / 2, 2 * math.pi]),
    )


def _coord_hexes(g):
    z, v, t = (g.z, g.v, g.t) if isinstance(g, GroupElement) else g
    return [x.hex() for x in (z, *v, t)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_float_law_is_bitwise_the_reference_formulas(data):
    fl = data.draw(conjugation_freq_lists)
    h, g = data.draw(float_elements(fl)), data.draw(float_elements(fl))
    gh, gg = GroupElement(*h), GroupElement(*g)
    assert _coord_hexes(multiply(gh, gg, fl)) == _coord_hexes(_float_product(h, g, fl))
    assert _coord_hexes(invert(gh, fl)) == _coord_hexes(_float_inverse(h, fl))
    composed = _float_product(_float_product(h, g, fl), _float_inverse(h, fl), fl)
    assert _coord_hexes(conjugate(gh, gg, fl)) == _coord_hexes(composed)


# -- the int-scaled exact v ---------------------------------------------------------

# rationals as (numerator, denominator) pairs, with a common factor kept in
unreduced = st.tuples(st.integers(-12, 12), st.integers(1, 12), st.integers(1, 4))


def v_entries(n2):
    """2n exact entries of mixed input types: ints, Fractions, rational strings."""
    entry = st.one_of(
        st.integers(-6, 6),
        small_rationals,
        unreduced.map(lambda p: f"{p[0] * p[2]}/{p[1] * p[2]}"),
    )
    return st.lists(entry, min_size=n2, max_size=n2)


def assert_canonical(g):
    assert type(g.den) is int and g.den > 0
    assert all(type(x) is int for x in g.num)
    assert math.gcd(g.den, *g.num) == 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stored_v_is_canonical_and_reads_back_as_built(data):
    fl = data.draw(freq_lists)
    entries = data.draw(v_entries(2 * fl.n))
    g = GroupElement(data.draw(small_rationals), entries, data.draw(quarter_turns(fl)))
    assert_canonical(g)
    assert g.v == tuple(Fraction(x) for x in entries)
    assert all(type(x) is Fraction for x in g.v)
    a = data.draw(exact_elements(fl))
    for h in (multiply(a, g, fl), multiply(g, a, fl), invert(g, fl)):
        assert_canonical(h)


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(unreduced, min_size=2, max_size=4).filter(lambda p: len(p) % 2 == 0))
def test_equal_values_from_every_constructor_are_equal_and_hash_equal(pairs):
    z, t = ExactScalar(Fraction(1, 3)), HALF_PI
    from_strings = GroupElement(z, [f"{n * m}/{d * m}" for n, d, m in pairs], t)
    from_fractions = GroupElement(z, [Fraction(n, d) for n, d, _ in pairs], t)
    # ints over a common denominator that is not in lowest terms
    den = math.prod(d * m for _, d, m in pairs)
    internal = GroupElement._exact(z, tuple(n * (den // d) for n, d, _ in pairs), den, t)
    assert from_strings == from_fractions == internal
    assert hash(from_strings) == hash(from_fractions) == hash(internal)
    assert len({from_strings, from_fractions, internal}) == 1


def test_half_from_every_constructor():
    built = [
        GroupElement(0, ("2/4", 1), PI),
        GroupElement(0, (Fraction(1, 2), "3/3"), PI),
        GroupElement._exact(ExactScalar(0), (1, 2), 2, PI),
        GroupElement._exact(ExactScalar(0), (3, 6), 6, PI),
    ]
    assert all(g == built[0] and hash(g) == hash(built[0]) for g in built)
    assert all((g.num, g.den) == ((1, 2), 2) for g in built)
    assert built[0].v == (Fraction(1, 2), Fraction(1))


def _reference_rotation(t, fl, v):
    """R(t) v in Fractions, each block's quarter turn read off lambda_i t."""
    out = []
    for quarters, x, y in zip(_reference_quarters(t, fl), v[0::2], v[1::2]):
        assert quarters.denominator == 1
        c, s = ((1, 0), (0, 1), (-1, 0), (0, -1))[int(quarters) % 4]
        out.extend((c * x - s * y, s * x + c * y))
    return out


def _reference_product(g1, g2, fl):
    """(z1 + z2 + (1/2) v1^T J R(t1) v2,  v1 + R(t1) v2,  t1 + t2)."""
    w = _reference_rotation(g1.t, fl, list(g2.v))
    pairing = sum(
        (x1 * wy - y1 * wx for x1, y1, wx, wy in zip(g1.v[0::2], g1.v[1::2], w[0::2], w[1::2])),
        Fraction(0),
    )
    z = g1.z + g2.z + ExactScalar(pairing / 2)
    return z, [a + b for a, b in zip(g1.v, w)], g1.t + g2.t


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_multiply_and_invert_match_a_fraction_evaluation_of_the_law(data):
    fl = data.draw(freq_lists)  # one block (dimension 4) or two (dimension 6)
    a, b = data.draw(exact_elements(fl)), data.draw(exact_elements(fl))
    z, v, t = _reference_product(a, b, fl)
    product = multiply(a, b, fl)
    assert (product.z, product.v, product.t) == (z, tuple(v), t)
    assert product == GroupElement(z, v, t)
    inverse = invert(a, fl)
    v_inv = [-x for x in _reference_rotation(-a.t, fl, list(a.v))]
    assert (inverse.z, inverse.v, inverse.t) == (-a.z, tuple(v_inv), -a.t)
    assert inverse == GroupElement(-a.z, v_inv, -a.t)


# ints of up to 400 digits: a quotient past 1.8e308 overflows a float
huge_ints = st.integers(-10**400, 10**400) | st.integers(-10**20, 10**20)


@settings(max_examples=200, deadline=None)
@given(num=st.lists(huge_ints, min_size=2, max_size=6).filter(lambda v: len(v) % 2 == 0),
       den=st.integers(1, 10**400) | st.integers(1, 10**6))
def test_to_floats_on_the_ints_is_the_fraction_route(num, den):
    g = GroupElement._exact(ExactScalar(Fraction(-7, 3), 2), tuple(num), den, HALF_PI)
    try:
        expected = [float(Fraction(x, den)) for x in num]
    except OverflowError:
        with pytest.raises(OverflowError):
            g.to_floats()
        return
    got = g.to_floats()
    assert [x.hex() for x in got.v] == [x.hex() for x in expected]
    assert (got.z, got.t) == (float(g.z), float(g.t)) and not got.is_exact()
    assert got.to_floats() == got


def test_to_floats_overflows_on_both_routes():
    g = GroupElement._exact(ExactScalar(0), (10**400, 1), 3, ExactScalar(0))
    with pytest.raises(OverflowError):
        float(Fraction(10**400, 3))
    with pytest.raises(OverflowError):
        g.to_floats()
    # a tiny quotient rounds to 0.0 on both routes
    tiny = GroupElement._exact(ExactScalar(0), (1, -1), 10**400, ExactScalar(0)).to_floats()
    assert [x.hex() for x in tiny.v] == [float(Fraction(x, 10**400)).hex() for x in (1, -1)]
