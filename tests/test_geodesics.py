import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oscgeo.algebra import (
    AlgebraVector, CausalClass, FrequencyList, causal_class, causal_quantity, inner,
)
from oscgeo import geodesics
from oscgeo.exact import ExactScalar, PI, as_exact, pi_poly_sign, rational_ratio
from oscgeo.geodesics import (
    MAX_RK4_STEPS,
    PAIRWISE_TERMS,
    Geodesic,
    _Cleared,
    _inverse_metric_rows,
    _metric_rows,
    acceleration_from_christoffel,
    christoffel,
    christoffel_table_report,
    christoffel_tabulated,
    eval_geodesic,
    eval_geodesic_exact,
    eval_geodesic_velocity,
    exp_preimage,
    geodesic_rhs,
    integrate_geodesic,
    integrate_geodesic_batch,
    metric_at,
    multiply,
)
from oscgeo.group import GroupElement, max_coord_dist, rotation
from oscgeo.lattices import Dim4Family, Twisted

from lattice_specs import CRITERION_7_SPECS

F1 = FrequencyList([1])


def rand_velocity(rng, n, a_nonzero=False):
    def u():
        return rng.uniform(-2, 2)
    a = u()
    while a_nonzero and abs(a) < 1e-3:
        a = u()
    return AlgebraVector(u(), [(u(), u()) for _ in range(n)], a)


class TestEval:
    def test_central_direction(self):
        geo = Geodesic(AlgebraVector(Fraction(3, 2), [(0, 0)], 0), F1)
        p = eval_geodesic(geo, 2.0)
        assert p.coords() == [3.0, 0.0, 0.0, 0.0]

    def test_t_direction(self):
        geo = Geodesic(AlgebraVector.T(1), F1)
        p = eval_geodesic(geo, 1.75)
        assert p.coords() == [0.0, 0.0, 0.0, 1.75]

    def test_circle_closes_at_2pi(self):
        # a=1, b=1, c=0, d=0 returns to the fiber after one rotation period
        geo = Geodesic(AlgebraVector(0, [(1, 0)], 1), F1)
        p = eval_geodesic(geo, 2 * math.pi)
        assert max_coord_dist(p, GroupElement(math.pi, (0.0, 0.0), 2 * math.pi)) < 1e-12


class TestExactEval:
    def test_matches_float(self):
        fl = FrequencyList([1, Fraction(1, 2)])
        x = AlgebraVector(
            Fraction(1, 3), [(1, Fraction(-1, 2)), (2, 1)], Fraction(1, 2)
        )
        s = 2 * PI  # angles: 1*(1/2)*2pi = pi, (1/2)*(1/2)*2pi = pi/2
        exact = eval_geodesic_exact(x, s, fl)
        assert exact.is_exact()
        floated = eval_geodesic(Geodesic(x.to_floats(), fl), float(s))
        assert max_coord_dist(exact.to_floats(), floated) < 1e-12

    def test_pi_valued_velocity(self):
        # velocities with pi-valued entries appear in certificate building
        x = AlgebraVector(
            ExactScalar(0, Fraction(-3, 8)),
            [(ExactScalar(0, Fraction(-3, 4)), ExactScalar(0, Fraction(-3, 4)))],
            ExactScalar(0, Fraction(3, 2)),
        )
        out = eval_geodesic_exact(x, 1, F1)
        assert out.t == ExactScalar(0, Fraction(3, 2))
        floated = eval_geodesic(Geodesic(x.to_floats(), F1), 1.0)
        assert max_coord_dist(out.to_floats(), floated) < 1e-12

    def test_rejects_unsupported_angle(self):
        x = AlgebraVector(0, [(1, 0)], Fraction(1, 3))
        with pytest.raises(ValueError):
            eval_geodesic_exact(x, PI, F1)

    def test_line_case(self):
        x = AlgebraVector(Fraction(2), [(1, 3)], 0)
        out = eval_geodesic_exact(x, Fraction(1, 2), F1)
        assert out == GroupElement(1, (Fraction(1, 2), Fraction(3, 2)), 0)


# -- the closed form cleared of a in ExactScalar arithmetic: the reference ----


def reference_blocks(x: AlgebraVector) -> tuple[list, list]:
    """The (b_j, c_j) of x as exact values, and their b_j^2 + c_j^2."""
    bcs = [(as_exact(b), as_exact(c)) for b, c in x.bc]
    return bcs, [b * b + c * c for b, c in bcs]


def reference_drift(a: ExactScalar, d, bc2s, freqs: FrequencyList) -> ExactScalar:
    """a d + sum_j (b_j^2+c_j^2) / (2 lambda_j); a^2 z is t times this, plus a^2 P."""
    return a * d + sum((bc2 / lam for bc2, lam in zip(bc2s, freqs.lambdas)), ExactScalar()) / 2


def reference_oscillation(a: ExactScalar, bcs, bc2s, rot, freqs: FrequencyList):
    """v at the block rotations rot, as ints (num, den) in lowest terms, or
    None when an entry is irrational; and a^2 P = -sum_j (b_j^2+c_j^2) sin / (2 lambda_j^2)."""
    ratios, p = [], ExactScalar()
    for lam, (b, c), bc2, (kos, sin) in zip(freqs.lambdas, bcs, bc2s, rot):
        a_lam = a * lam
        ratios.append(rational_ratio(b * sin + c * (kos - 1), a_lam))
        ratios.append(rational_ratio(b * (1 - kos) + c * sin, a_lam))
        if sin:  # -sin / (2 lambda^2) as ints
            p = p + bc2 * ExactScalar._of([-sin * lam.denominator**2], 2 * lam.numerator**2)
    if None in ratios:
        return None, p
    den = math.lcm(*[d for _, d in ratios])
    return (tuple([n * (den // d) for n, d in ratios]), den), p


def reference_eval_exact(x: AlgebraVector, s, freqs: FrequencyList) -> GroupElement:
    """`eval_geodesic_exact` in ExactScalar arithmetic."""
    if x.n != freqs.n:
        raise ValueError("initial velocity does not match frequencies")
    s = as_exact(s)
    a = as_exact(x.a)
    if a.is_zero():
        v = [(as_exact(e) * s).to_fraction() for pair in x.bc for e in pair]
        return GroupElement(x.d * s, v, ExactScalar(0))
    t_out = a * s
    bcs, bc2s = reference_blocks(x)
    v, p = reference_oscillation(a, bcs, bc2s, rotation(t_out, freqs), freqs)
    if v is None:
        raise ValueError("v of the point is not rational")
    z = t_out * reference_drift(a, x.d, bc2s, freqs) + p  # a^2 z
    return GroupElement._exact(z / (a * a) if z.num else z, *v, t_out)


def outcome(f, *args):
    """f's result, or the type and message of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=4)
q_pi = st.lists(coefficient, min_size=1, max_size=3).map(lambda cs: ExactScalar(*cs))  # degree <= 2
frequencies = st.lists(st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(1, 3), Fraction(3, 2)]),
                       min_size=1, max_size=3).map(FrequencyList)


@st.composite
def exact_flow_inputs(draw):
    """(x, s, freqs): entries in Q[pi] up to degree 2, a rational, a pi
    multiple, c pi^2 or not a monomial (0 at times), and b, c often
    rational multiples of a so that v may be rational.  s puts a s on a
    quarter turn when a is c or c pi, and is any rational or rational
    multiple of pi otherwise."""
    freqs = draw(frequencies)
    power = draw(st.sampled_from([0, 1, 2, None]))
    c = draw(coefficient.filter(bool))
    a = (draw(q_pi) if power is None else ExactScalar(*[0] * power, c)) if draw(
        st.integers(0, 9)) else ExactScalar()
    entry = q_pi | coefficient | coefficient.map(lambda q: a * q)
    x = AlgebraVector(draw(q_pi | coefficient), [(draw(entry), draw(entry)) for _ in range(freqs.n)],
                      draw(st.sampled_from([a, a.to_fraction()])) if a.degree() <= 0 else a)
    lcm, two_gcd, _ = freqs.quarter_turns
    m = draw(st.integers(-9, 9))
    if power in (0, 1) and not a.is_zero() and draw(st.integers(0, 3)):
        s = ExactScalar(0, Fraction(m * lcm, two_gcd)) / ExactScalar(*[0] * power, c)  # a s = m units
    else:
        s = draw(coefficient | coefficient.map(lambda q: q * PI))
    return x, s, freqs


@settings(max_examples=500, deadline=None)
@given(exact_flow_inputs())
def test_exact_evaluation_matches_the_exact_scalar_reference(args):
    assert outcome(eval_geodesic_exact, *args) == outcome(reference_eval_exact, *args)


@settings(max_examples=200, deadline=None)
@given(exact_flow_inputs())
@example((AlgebraVector(Fraction(-1, 2), [(1, 0)], 1), 0, FrequencyList([1])))  # lightlike
@example((AlgebraVector(-PI / 4, [(PI, 0)], 2 * PI), 0, FrequencyList([1])))  # lightlike, in pi
@example((AlgebraVector(-PI, [(PI, 0)], PI), 0, FrequencyList([1])))  # timelike: -pi^2
def test_the_drift_carries_the_causal_class(args):
    # drift = lcm^2 scale^2 <x, x>: the closure decision reads x's class off it
    x, _, freqs = args
    assume(not as_exact(x.a).is_zero())
    form = _Cleared(x, freqs)
    sign = as_exact(causal_quantity(x, freqs)).sign()
    assert pi_poly_sign(form.drift) == sign
    assert form.causal() == causal_class(x, freqs) == CausalClass.of_sign(sign)


def _fixed_blocks_with_v(g: GroupElement, freqs: FrequencyList) -> list[int]:
    """The blocks (from 1) that R(t) fixes and where v is not 0; none for a line."""
    if g.t.is_zero():
        return []
    pairs = zip(rotation(g.t, freqs), g.v[0::2], g.v[1::2])
    return [j for j, ((kos, _), p, r) in enumerate(pairs, 1) if kos == 1 and (p or r)]


class TestExpPreimage:
    @settings(max_examples=400, deadline=None)
    @given(
        spec=st.sampled_from(CRITERION_7_SPECS),
        twist=st.sampled_from([None, 1, -2, Fraction(1, 2), Fraction(-2, 3), PI, -PI / 2]),
        seed=st.integers(0, 2**32),
    )
    def test_inverts_the_closed_form_on_lattice_members(self, spec, twist, seed):
        spec = spec if twist is None else Twisted(spec, twist)
        g, freqs = spec.sample_member(random.Random(seed)), spec.freqs
        fixed = _fixed_blocks_with_v(g, freqs)
        if fixed:
            with pytest.raises(ValueError, match=f"fixes block {fixed[0]},"):
                exp_preimage(g, freqs)
            return
        x, norm = exp_preimage(g, freqs)
        assert eval_geodesic_exact(x, 1, freqs) == g
        assert norm == as_exact(causal_quantity(x, freqs))

    def test_member_outside_the_image_names_its_fixed_block(self):
        # R(2 pi) fixes the one block, where v = (1, 0): exp never reaches it
        spec = Dim4Family(1, 2 * PI)
        g = GroupElement(0, (1, 0), 2 * PI)
        assert spec.contains(g)
        with pytest.raises(ValueError, match="fixes block 1,"):
            exp_preimage(g, spec.freqs)

    def test_turned_block_reads_the_quarter_turn_table(self):
        # R(3 pi / 2) turns the block by three quarters: cot(3 pi / 4) = -1
        x, norm = exp_preimage(GroupElement(0, (1, 0), 3 * PI / 2), F1)
        assert x == AlgebraVector(ExactScalar(Fraction(-1, 4), Fraction(-3, 8)),
                                  [(ExactScalar(0, Fraction(-3, 4)),) * 2], 3 * PI / 2)
        assert norm == ExactScalar(0, Fraction(-3, 4))

    def test_t_zero_gives_the_line(self):
        g = GroupElement(Fraction(1, 2), (1, -2, 0, Fraction(1, 3)), 0)
        freqs = FrequencyList([1, Fraction(1, 2)])
        x, norm = exp_preimage(g, freqs)
        assert (x.d, x.bc, x.a) == (as_exact(Fraction(1, 2)), ((1, -2), (0, Fraction(1, 3))),
                                    ExactScalar())
        assert eval_geodesic_exact(x, 1, freqs) == g
        assert norm == as_exact(5 + Fraction(2, 9))  # |v_j|^2 / lambda_j

    def test_refuses_float_elements_and_other_dimensions(self):
        with pytest.raises(ValueError, match="exact element"):
            exp_preimage(GroupElement(0.0, (1.0, 0.0), math.pi), F1)
        with pytest.raises(ValueError, match="exact element"):
            exp_preimage(GroupElement(0, (1, 0, 0, 0), PI), F1)


class TestRhs:
    def test_zero_velocity(self):
        state = np.zeros(8)
        state[:4] = [1.0, 2.0, 3.0, 4.0]
        assert np.allclose(geodesic_rhs(state, F1), 0.0)

    def test_pure_t_velocity(self):
        state = np.zeros(8)
        state[-1] = 5.0  # t' = 5
        out = geodesic_rhs(state, F1)
        assert np.allclose(out[4:], 0.0)
        assert np.allclose(out[:4], [0, 0, 0, 5.0])

    def test_pointwise_values(self):
        # x=1, y=0, x'=0, y'=1, t'=1: z''=0, x''=-1, y''=0
        state = np.array([0, 1, 0, 0, 0, 0, 1, 1], dtype=float)
        out = geodesic_rhs(state, F1)
        assert out[4] == pytest.approx(0.0)  # z''
        assert out[5] == pytest.approx(-1.0)  # x''
        assert out[6] == pytest.approx(0.0)  # y''
        assert out[7] == 0.0

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            geodesic_rhs(np.zeros(6), F1)

    def test_scalar_state_is_refused(self):
        with pytest.raises(ValueError, match="state must have length 8"):
            geodesic_rhs(np.float64(1.0), F1)


class TestIntegrator:
    def test_linear_solutions_exact(self):
        out = integrate_geodesic(AlgebraVector.T(1), 4.0, 1e-2, F1)
        assert max_coord_dist(out, GroupElement(0.0, (0, 0), 4.0)) < 1e-12
        out = integrate_geodesic(AlgebraVector.Z(1), 3.0, 1e-2, F1)
        assert max_coord_dist(out, GroupElement(3.0, (0, 0), 0.0)) < 1e-12

    def test_matches_closed_form(self):
        rng = random.Random(2024)
        for fl in (F1, FrequencyList([2, 3])):
            xs = [rand_velocity(rng, fl.n) for _ in range(10)]
            coords = np.array([[float(c) for c in x.coords()] for x in xs])
            for s in (0.7, 3.9):
                final = integrate_geodesic_batch(coords, s, 1e-3, fl)
                for x, f in zip(xs, final):
                    closed = eval_geodesic(Geodesic(x, fl), s)
                    assert max_coord_dist(GroupElement(f[0], f[1:-1], f[-1]), closed) < 1e-6

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            integrate_geodesic(AlgebraVector.T(1), 1.0, -0.1, F1)

    def test_rejects_more_than_two_axes(self):
        with pytest.raises(ValueError, match="initial velocities must have shape"):
            integrate_geodesic_batch(np.zeros((2, 4, 4)), 0.1, 0.01, F1)

    @pytest.mark.parametrize("s_end, step", [
        (math.inf, 1e-3), (-math.inf, 1e-3), (math.nan, 1e-3), (1e300, 1e-300), (1.0, math.nan),
        (1.0, math.inf),  # |s_end| / inf = 0 steps once ran one step of size s_end
    ])
    def test_rejects_non_finite_step_count(self, s_end, step):
        with pytest.raises(ValueError, match="not finite"):
            integrate_geodesic(AlgebraVector.T(1), s_end, step, F1)

    def test_rejects_step_count_above_bound(self):
        # 1e303 steps of the default size: refused at once, not started
        with pytest.raises(ValueError, match=f"exceeds {MAX_RK4_STEPS}"):
            integrate_geodesic(AlgebraVector.T(1), 1e300, 1e-3, F1)

    def test_step_count_bound_admits_the_bound(self, monkeypatch):
        monkeypatch.setattr(geodesics, "MAX_RK4_STEPS", 10)
        out = integrate_geodesic(AlgebraVector.T(1), 1.0, 0.1, F1)
        assert max_coord_dist(out, GroupElement(0.0, (0, 0), 1.0)) < 1e-12
        with pytest.raises(ValueError, match="exceeds 10"):
            integrate_geodesic(AlgebraVector.T(1), -1.2, 0.1, F1)

    def test_step_count_bound_counts_batch_rows(self, monkeypatch):
        monkeypatch.setattr(geodesics, "MAX_RK4_STEPS", 100)
        initials = np.tile(AlgebraVector.T(1).coords(), (11, 1)).astype(float)
        out = integrate_geodesic_batch(initials[:10], 1.0, 0.1, F1)  # 10 x 10 steps
        assert out.shape == (10, 4) and np.abs(out - [0.0, 0.0, 0.0, 1.0]).max() < 1e-12
        with pytest.raises(ValueError, match="over 11 row\\(s\\) exceeds 100"):
            integrate_geodesic_batch(initials, 1.0, 0.1, F1)
        # an empty batch is held to the bound of one row
        with pytest.raises(ValueError, match="over 1 row\\(s\\) exceeds 100"):
            integrate_geodesic_batch(initials[:0], 1e300, 1e-3, F1)


def reference_rhs(state, freqs):
    """geodesic_rhs in its plain form: fresh arrays on every call."""
    dim = freqs.dim
    pos, vel = state[..., :dim], state[..., dim:]
    lams = np.array([float(l) for l in freqs.lambdas])
    acc = np.zeros_like(pos)
    xp, yp = vel[..., 1:-1:2], vel[..., 2:-1:2]
    x, y = pos[..., 1:-1:2], pos[..., 2:-1:2]
    tp = vel[..., -1:]
    acc[..., 0] = 0.5 * tp[..., 0] * np.sum(lams * (xp * x + yp * y), axis=-1)
    acc[..., 1:-1:2] = -lams * yp * tp
    acc[..., 2:-1:2] = lams * xp * tp
    return np.concatenate([vel, acc], axis=-1)


def reference_rk4(initials, s_end, step, freqs):
    """integrate_geodesic_batch in its plain form: fresh arrays per stage."""
    n_steps = max(1, round(abs(s_end) / step))
    h = s_end / n_steps
    state = np.concatenate([np.zeros_like(initials), initials], axis=1)
    for _ in range(n_steps):
        k1 = reference_rhs(state, freqs)
        k2 = reference_rhs(state + (h / 2) * k1, freqs)
        k3 = reference_rhs(state + (h / 2) * k2, freqs)
        k4 = reference_rhs(state + h * k3, freqs)
        state = state + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return state[:, :freqs.dim]


small_positive = st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=12)
# the share of entries drawn as 0.0 or -0.0
zero_shares = st.sampled_from([0.0, 0.2, 0.6])


def with_signed_zeros(rng, a, share):
    """a with about `share` of its entries replaced by 0.0 or -0.0, half each."""
    mask = rng.random(a.shape) < share
    a[mask] = np.copysign(0.0, rng.random(int(mask.sum())) - 0.5)
    return a


# the kernels are compared by bytes: np.array_equal counts -0.0 equal to 0.0
@settings(max_examples=60, deadline=None)
@given(
    # 1..10 blocks: numpy sums up to 7 terms in sequence, 8 on pairwise
    lams=st.lists(small_positive, min_size=1, max_size=PAIRWISE_TERMS + 2),
    batch=st.integers(1, 64),
    steps=st.integers(1, 200),
    s_end=st.floats(0.01, 3) | st.floats(-3, -0.01),
    zeros=zero_shares,
    seed=st.integers(0, 2**32 - 1),
)
def test_rk4_is_bit_identical_to_the_plain_form(lams, batch, steps, s_end, zeros, seed):
    freqs = FrequencyList(lams)
    rng = np.random.default_rng(seed)
    initials = with_signed_zeros(rng, rng.uniform(-2, 2, size=(batch, freqs.dim)), zeros)
    step = abs(s_end) / steps
    got = integrate_geodesic_batch(initials, s_end, step, freqs)
    assert got.tobytes() == reference_rk4(initials, s_end, step, freqs).tobytes()
    states = with_signed_zeros(rng, rng.uniform(-2, 2, size=(batch, 2 * freqs.dim)), zeros)
    rows = geodesic_rhs(states, freqs)
    assert rows.tobytes() == reference_rhs(states, freqs).tobytes()
    assert geodesic_rhs(states[0], freqs).tobytes() == rows[0].tobytes()


def test_rk4_is_bit_identical_to_the_plain_form_for_many_blocks():
    # from 8 terms on, numpy sums a contiguous row pairwise, not in sequence
    freqs = FrequencyList([Fraction(k, 3) for k in range(1, 10)])
    initials = np.random.default_rng(9).uniform(-2, 2, size=(32, freqs.dim))
    got = integrate_geodesic_batch(initials, -0.4, 0.02, freqs)
    assert got.tobytes() == reference_rk4(initials, -0.4, 0.02, freqs).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    # 1..12 blocks: numpy sums up to 7 terms in sequence, 8 on pairwise
    lams=st.lists(small_positive, min_size=1, max_size=12),
    batch=st.integers(1, 1000),
    steps=st.integers(1, 3),
    s_end=st.floats(0.01, 3) | st.floats(-3, -0.01),
    lead=st.lists(st.integers(1, 6), max_size=2),
    zeros=zero_shares,
    seed=st.integers(0, 2**32 - 1),
)
def test_the_stage_kernel_is_bit_identical_to_the_plain_form(lams, batch, steps, s_end, lead,
                                                              zeros, seed):
    freqs = FrequencyList(lams)
    rng = np.random.default_rng(seed)
    initials = with_signed_zeros(rng, rng.uniform(-2, 2, size=(batch, freqs.dim)), zeros)
    step = abs(s_end) / steps
    got = integrate_geodesic_batch(initials, s_end, step, freqs)
    assert got.tobytes() == reference_rk4(initials, s_end, step, freqs).tobytes()
    # 1-D, 2-D or 3-D
    states = with_signed_zeros(rng, rng.uniform(-2, 2, size=(*lead, 2 * freqs.dim)), zeros)
    assert geodesic_rhs(states, freqs).tobytes() == reference_rhs(states, freqs).tobytes()


def thirds(n: int) -> FrequencyList:
    """The frequencies 1/3, 2/3, ..., n/3."""
    return FrequencyList([Fraction(k, 3) for k in range(1, n + 1)])


# one row runs on plain floats below PAIRWISE_TERMS blocks and through numpy
# from there on; the cases are explicit, since a derandomized Hypothesis run
# reaches batch 1 only by chance
@pytest.mark.parametrize("n", [1, PAIRWISE_TERMS - 1, PAIRWISE_TERMS, PAIRWISE_TERMS + 1])
@pytest.mark.parametrize("s_end", [0.37, -0.37])
def test_one_row_is_bit_identical_to_the_plain_form(n, s_end):
    freqs = thirds(n)
    initials = np.random.default_rng(n).uniform(-2, 2, size=(1, freqs.dim))
    got = integrate_geodesic_batch(initials, s_end, 0.01, freqs)
    assert got.tobytes() == reference_rk4(initials, s_end, 0.01, freqs).tobytes()


@pytest.mark.parametrize("n", [1, 2, PAIRWISE_TERMS - 1])
@pytest.mark.parametrize("s_end", [2.3, -2.3])
@pytest.mark.parametrize("zeros", [False, True])
def test_one_row_path_equals_row_0_of_the_numpy_kernel(n, s_end, zeros):
    freqs = thirds(n)
    rows = np.random.default_rng(100 + n).uniform(-2, 2, size=(2, freqs.dim))
    if zeros:  # d = -0.0 and every c_j = -0.0: the first z'' terms are signed zeros
        rows[0, 0:-1:2] = -0.0
    one = integrate_geodesic(AlgebraVector.from_coords(rows[0].tolist()), s_end, 1e-3, freqs)
    two = integrate_geodesic_batch(rows, s_end, 1e-3, freqs)
    assert [float(c).hex() for c in one.coords()] == [c.hex() for c in two[0].tolist()]


class TestNonFiniteRefusal:
    """Both paths refuse a non-finite state with a FloatingPointError and no
    RuntimeWarning (pyproject.toml turns one into an error)."""

    @pytest.mark.parametrize("batch", [1, 32])
    def test_overflow_on_the_first_step(self, batch):
        initials = np.full((batch, F1.dim), 1e200)  # x'' = -y' t' is 1e400 at once
        with pytest.raises(FloatingPointError, match="non-finite state"):
            integrate_geodesic_batch(initials, 0.01, 1e-3, F1)

    @pytest.mark.parametrize("batch", [1, 32])
    def test_overflow_after_several_steps(self, batch):
        # h lambda t' = 10: RK4 scales (x', y') by about 400 a step, so the
        # state stays finite for 20 steps and overflows well before 200
        initials = np.tile([0.0, 1.0, 0.0, 100.0], (batch, 1))
        assert np.isfinite(integrate_geodesic_batch(initials, 2.0, 0.1, F1)).all()
        with pytest.raises(FloatingPointError, match="non-finite state"):
            integrate_geodesic_batch(initials, 20.0, 0.1, F1)


def reference_flow(x: AlgebraVector, s: float, freqs: FrequencyList) -> list[float]:
    """The closed form of the module docstring in plain floats.

    th = lambda_j a s, (x_j, y_j) = M(th) (b_j, c_j) / (a lambda_j), t = a s,
    and z = d s plus, block by block, the docstring's two z terms over one
    denominator: (b_j^2 + c_j^2) (th - sin th) / (2 lambda_j^2 a^2), divided
    in two steps where that denominator underflows.  cos th - 1 is taken as
    -2 sin(th/2)^2, free of cancellation near th = 0.  For a = 0 the curve
    is the line (d s, (b_j s, c_j s), 0).
    """
    d, a = float(x.d), float(x.a)
    bcs = [(float(b), float(c)) for b, c in x.bc]
    if a == 0.0:
        return [d * s, *[e * s for bc in bcs for e in bc], 0.0]
    z, v = d * s, []
    for lam, (b, c) in zip(map(float, freqs.lambdas), bcs):
        th = lam * a * s
        sin, cosm1 = math.sin(th), -2.0 * math.sin(th / 2.0) ** 2
        for m_b, m_c in ((sin, cosm1), (-cosm1, sin)):  # the rows of M(th)
            v.append((m_b * b + m_c * c) / (a * lam))
        bc2, den = b * b + c * c, 2.0 * lam * lam * a * a
        if den:
            z += bc2 * (th - sin) / den
        else:  # a^2 underflows: the same quotient over (a lambda) (2 lambda a)
            z += bc2 * (th - sin) / (a * lam) / (2.0 * lam * a)
    return [z, *v, a * s]


def outcome_bits(f):
    """The bits of the floats f returns, or the type of the ArithmeticError it raised."""
    try:
        return [float(c).hex() for c in f()]
    except ArithmeticError as exc:
        return type(exc)


entries = st.floats(-3, 3)


@st.composite
def float_flow_inputs(draw):
    """(x, freqs): float entries in [-3, 3], and a = 0 at times."""
    freqs = draw(frequencies)
    bc = [(draw(entries), draw(entries)) for _ in range(freqs.n)]
    return AlgebraVector(draw(entries), bc, draw(entries | st.just(0.0))), freqs


@settings(max_examples=300, deadline=None)
@given(float_flow_inputs(), st.floats(-50, 50))
# sin(th/2) ** 2 and sin(th/2) * sin(th/2) differ in the last bit at th = s here
@example((AlgebraVector(0.0, [(0.0, 1.0)], 1.0), F1), 9.939544823554684)
@example((AlgebraVector(0.0, [(1.0, 0.0)], 1e-200), F1), 0.5)
@example((AlgebraVector(0.0, [(1.0, -2.0)], 1e-200), F1), 1e200)  # th = 1: z overflows
def test_closed_form_is_bit_identical_to_the_plain_form(args, s):
    x, freqs = args
    # below |a| ~ 1e-154, a^2 underflows and both divide by (a lambda) (2 lambda a)
    assert (outcome_bits(lambda: eval_geodesic(Geodesic(x, freqs), s).coords())
            == outcome_bits(lambda: reference_flow(x, s, freqs)))


@pytest.mark.parametrize("a", [1e-200, -1e-200, 5e-170, 1e-300])
def test_closed_form_with_a_below_the_square_range(a):
    # a^2 underflows to 0: the point is still the closed form's, next to the
    # line (d s, (b s, c s), a s) since th = a s is far below one ulp of 1
    x = AlgebraVector(0.5, [(1.0, -2.0)], a)
    for s in (0.0, 0.5, 1.0, -3.0):
        point = eval_geodesic(Geodesic(x, F1), s).coords()
        assert point == pytest.approx([0.5 * s, s, -2.0 * s, a * s], rel=1e-15, abs=0)


class TestOneParameterLaw:
    def test_flow_property(self):
        fl = FrequencyList([1, Fraction(5, 2)])
        rng = random.Random(7)
        for _ in range(40):
            x = rand_velocity(rng, 2)
            s, t = rng.uniform(-3, 3), rng.uniform(-3, 3)
            geo = Geodesic(x, fl)
            lhs = eval_geodesic(geo, s + t)
            rhs = multiply(eval_geodesic(geo, s), eval_geodesic(geo, t), fl)
            assert max_coord_dist(lhs, rhs) < 1e-9


class TestConstantSpeed:
    def test_speed_equals_initial_norm_analytic(self):
        fl = FrequencyList([1, 3])
        rng = random.Random(9)
        for _ in range(15):
            x = rand_velocity(rng, 2)
            geo = Geodesic(x, fl)
            q0 = causal_quantity(x.to_floats(), fl)
            for s in np.linspace(-2, 2, 9):
                p = eval_geodesic(geo, s)
                vel = eval_geodesic_velocity(geo, s)
                assert metric_at(p, vel, vel, fl) == pytest.approx(q0, abs=1e-9)

    def test_finite_difference_velocity_agrees(self):
        fl = FrequencyList([2])
        x = AlgebraVector(0.3, [(1.2, -0.7)], 0.9)
        geo = Geodesic(x, fl)
        h = 1e-6
        for s in (0.0, 1.3):
            fd = [
                (a - b) / (2 * h)
                for a, b in zip(
                    eval_geodesic(geo, s + h).coords(), eval_geodesic(geo, s - h).coords()
                )
            ]
            an = eval_geodesic_velocity(geo, s)
            assert max(abs(a - b) for a, b in zip(fd, an)) < 1e-7

    @pytest.mark.parametrize("x", [
        AlgebraVector(0.3, [(1.2, -0.7), (0.0, 2.5)], 0.0),
        AlgebraVector(-1.5, [(0.0, 0.0), (-4.0, 0.25)], 0),
    ])
    def test_line_velocity_is_constant(self, x):
        # a = 0: the curve is the line (d s, (b_j s, c_j s), 0), whose velocity is x
        geo = Geodesic(x, FrequencyList([1, 3]))
        line = [float(x.d), *[float(e) for pair in x.bc for e in pair], 0.0]
        h = 1e-3
        for s in (0.0, 1.3, -2.0):
            assert eval_geodesic_velocity(geo, s) == line
            fd = [(p - m) / (2 * h) for p, m in zip(
                eval_geodesic(geo, s + h).coords(), eval_geodesic(geo, s - h).coords())]
            assert fd == pytest.approx(line, abs=1e-12)


class TestMetric:
    def test_z_t_pairing_at_identity(self):
        e = GroupElement.identity(1)
        dz = [1, 0, 0, 0]
        dt = [0, 0, 0, 1]
        assert metric_at(e, dz, dt, F1) == 1

    def test_dx_norm(self):
        p = GroupElement(Fraction(1, 2), (3, -2), PI)
        dx = [0, 1, 0, 0]
        assert metric_at(p, dx, dx, FrequencyList([Fraction(5, 3)])) == Fraction(3, 5)

    def test_t_y_cross_term(self):
        # at x1 = 2 the dt/dy1 component is -x1/2; the sign is pinned by the
        # geodesic system (see TestChristoffel) rather than the printed form
        p = GroupElement(0, (2, 0), 0)
        dt = [0, 0, 0, 1]
        dy = [0, 0, 1, 0]
        assert metric_at(p, dt, dy, F1) == -1
        dx = [0, 1, 0, 0]
        p2 = GroupElement(0, (0, 3), 0)
        assert metric_at(p2, dt, dx, F1) == Fraction(3, 2)

    def test_agrees_with_algebra_form_at_identity(self):
        fl = FrequencyList([2, 7])
        e = GroupElement.identity(2)
        rng = random.Random(3)
        for _ in range(10):
            u = [Fraction(rng.randint(-4, 4)) for _ in range(6)]
            w = [Fraction(rng.randint(-4, 4)) for _ in range(6)]
            xu = AlgebraVector.from_coords(u)
            xw = AlgebraVector.from_coords(w)
            assert metric_at(e, u, w, fl) == inner(xu, xw, fl)

    def test_symmetry(self):
        fl = FrequencyList([1, 2])
        p = GroupElement(0.1, (0.5, -1.5, 2.0, 0.25), 0.7)
        rng = random.Random(4)
        u = [rng.uniform(-1, 1) for _ in range(6)]
        w = [rng.uniform(-1, 1) for _ in range(6)]
        assert metric_at(p, u, w, fl) == pytest.approx(metric_at(p, w, u, fl))


class TestChristoffel:
    def test_vanish_at_v_zero_except_t_couplings(self):
        gam = christoffel(F1, GroupElement.identity(1))
        # at v=0 only the x/y <-> t couplings survive
        assert gam[2][3][1] == Fraction(-1, 2)  # y'' couples x', t'
        assert gam[1][3][2] == Fraction(1, 2)   # x'' couples y', t'
        assert gam[0][0][0] == 0

    def test_contraction_reproduces_rhs(self):
        fl = FrequencyList([1, Fraction(3, 2)])
        rng = random.Random(5)
        for _ in range(10):
            pos = np.array([rng.uniform(-2, 2) for _ in range(6)])
            vel = np.array([rng.uniform(-2, 2) for _ in range(6)])
            acc = acceleration_from_christoffel(pos, vel, fl)
            state = np.concatenate([pos, vel])
            rhs_acc = geodesic_rhs(state, fl)[6:]
            assert np.allclose(acc, rhs_acc, atol=1e-10)

    def test_nonzero_pattern_pairs_t_with_xy(self):
        fl = FrequencyList([1, 2])
        p = GroupElement(
            Fraction(1, 3), (2, -1, Fraction(1, 2), 5), ExactScalar(0, 1)
        )
        gam = christoffel(fl, p)
        dim = fl.dim
        tt = dim - 1
        for k in range(dim):
            for i in range(dim):
                for j in range(dim):
                    if gam[k][i][j] != 0:
                        assert tt in (i, j)
                        assert i != j or i == tt  # couplings are t-with-x/y

    def test_tabulated_z_rows_match_but_xy_rows_differ(self):
        p = GroupElement(0, (Fraction(3), Fraction(-2)), 0)
        derived = christoffel(F1, p)
        printed = christoffel_tabulated(F1, p)
        # the z-row couplings agree
        assert derived[0][3][1] == printed[0][3][1] == Fraction(-3, 4)
        assert derived[0][3][2] == printed[0][3][2] == Fraction(1, 2)
        # the tabulated x-row pairs t with x where the derivation pairs t with y
        report = christoffel_table_report(F1, p)
        assert report, "expected the tabulated symbols to disagree somewhere"
        uppers = {entry["upper"] for entry in report}
        assert uppers <= {1, 2}

    def test_exact_equals_float(self):
        fl = FrequencyList([2])
        p_exact = GroupElement(Fraction(1, 2), (3, -1), ExactScalar(0, 1))
        p_float = p_exact.to_floats()
        ge = christoffel(fl, p_exact)
        gf = christoffel(fl, p_float)
        for k in range(4):
            for i in range(4):
                for j in range(4):
                    assert float(ge[k][i][j]) == pytest.approx(gf[k][i][j], abs=1e-12)


@settings(deadline=None)
@given(data=st.data())
def test_christoffel_exact_point_matches_its_float_copy(data):
    small = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    lams = data.draw(st.lists(small.filter(lambda q: q > 0), min_size=1, max_size=2))
    fl = FrequencyList(lams)
    v = data.draw(st.lists(small, min_size=2 * fl.n, max_size=2 * fl.n))
    p = GroupElement(data.draw(small), v, ExactScalar(data.draw(small), data.draw(small)))
    ge = christoffel(fl, p)
    gf = christoffel(fl, p.to_floats())
    dim = fl.dim
    for k in range(dim):
        for i in range(dim):
            for j in range(dim):
                assert float(ge[k][i][j]) == pytest.approx(gf[k][i][j], abs=1e-12)


@settings(deadline=None)
@given(data=st.data())
def test_closed_form_metric_inverse_is_exact(data):
    small = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    lams = data.draw(st.lists(small.filter(lambda q: q > 0), min_size=1, max_size=3))
    fl = FrequencyList(lams)
    coords = data.draw(st.lists(small, min_size=fl.dim, max_size=fl.dim))
    g = _metric_rows(coords, fl)
    h = _inverse_metric_rows(coords, fl)
    dim = fl.dim
    for i in range(dim):
        for j in range(dim):
            assert sum(g[i][m] * h[m][j] for m in range(dim)) == int(i == j)
