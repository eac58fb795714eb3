"""Geodesics through the identity, the coordinate metric, and Christoffel symbols.

Closed form for initial velocity d*Z + sum(b_j X_j + c_j Y_j) + a*T, a != 0:

    z(s)   = (d + (1/2a) sum_k (b_k^2+c_k^2)/lambda_k) s
             - (1/2a^2) sum_k ((b_k^2+c_k^2)/lambda_k^2) sin(lambda_k a s)
    (x_j, y_j)(s) = (1/(a lambda_j)) * M(lambda_j a s) (b_j, c_j)
    t(s)   = a s

with M(th) = [[sin th, cos th - 1], [1 - cos th, sin th]]; for a = 0 the
curve is the line (d s, (b_j s, c_j s), 0).  A fixed-step RK4 integrator of
the second-order system provides an independent oracle.

The exact closed form is evaluated cleared of a, in one int pass over the
int coefficients of d, b_j, c_j and a (`_Cleared`); no ExactScalar is built
before the point itself.  `eval_geodesic_exact` divides a^2 z by a^2 once,
`quotient._decide` reads the same pass per residue class (and its
certificate's replay evaluates that pass again), the sign of its
drift is the causal class of x, and `exp_preimage` builds its inverse on
the ints of v.

The coordinate metric is taken with components

    g_zt = 1,  g_{x_j x_j} = g_{y_j y_j} = 1/lambda_j,
    g_{t x_j} = y_j / 2,  g_{t y_j} = -x_j / 2,

the unique left-invariant extension of the algebra form: it reproduces the
second-order system above and keeps the closed-form curves at constant
speed.  A commonly printed variant flips the sign of the x dy cross term;
that variant fails both checks, so the derived components are authoritative
and `christoffel_table_report` surfaces where the hand-tabulated symbols
disagree with the derived ones.

The metric and both symbol sets have one rational computation: float
coordinates are lifted exactly with Fraction(x), and the result becomes a
float array only on return, and only for a float point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from .algebra import AlgebraVector, CausalClass, FrequencyList, causal_quantity, gram_matrix
from .exact import ExactScalar, as_exact, pi_poly_sign, poly_mul
from .group import GroupElement, multiply, rotation


@dataclass(frozen=True, slots=True)
class Geodesic:
    """Geodesic s -> flow(s) through the identity with the given initial velocity."""

    initial: AlgebraVector
    freqs: FrequencyList

    def __init__(self, initial: AlgebraVector, freqs: FrequencyList):
        if len(initial.bc) != len(freqs.lambdas):
            raise ValueError("initial velocity does not match frequencies")
        _SET_INITIAL(self, initial)
        _SET_FREQS(self, freqs)


_SET_INITIAL, _SET_FREQS = (Geodesic.__dict__[name].__set__ for name in ("initial", "freqs"))


def flow_coords(x: AlgebraVector, s, freqs: FrequencyList, sin=math.sin):
    """(z, v, t) of the closed form at s; with sin=np.sin, s may be an array
    of parameters, evaluated by the same operations in the same order."""
    d = float(x.d)
    a = float(x.a)
    if a == 0.0:
        v = []
        for b, c in x.bc:
            v.extend((float(b) * s, float(c) * s))
        return d * s, v, 0.0
    z, v = d * s, []
    for lam, (b, c) in zip(freqs.floats, x.bc):
        b, c = float(b), float(c)
        th, al = lam * a * s, a * lam
        sin_th = sin(th)
        cosm1 = -2.0 * sin(th / 2.0) ** 2  # cos(th) - 1, cancellation-free
        v.append((b * sin_th + c * cosm1) / al)
        v.append((-b * cosm1 + c * sin_th) / al)  # c*sin - b*(cos-1)
        bc2, den = b * b + c * c, 2.0 * lam * lam * a * a
        if den:
            z += bc2 * (th - sin_th) / den
        else:  # |a| below ~1e-154: a^2 underflows, a lambda (v's divisor) does not
            z += bc2 * (th - sin_th) / al / (2.0 * lam * a)
    return z, v, a * s


def eval_geodesic(geo: Geodesic, s: float) -> GroupElement:
    """Point of the geodesic at parameter s (float mode)."""
    z, v, t = flow_coords(geo.initial, float(s), geo.freqs)
    return GroupElement._of(z, tuple(v), t)


def eval_geodesic_velocity(geo: Geodesic, s: float) -> list[float]:
    """Coordinate velocity of the geodesic at s."""
    x = geo.initial
    a = float(x.a)
    s = float(s)
    if a == 0.0:
        out = [float(x.d)]
        for b, c in x.bc:
            out.extend((float(b), float(c)))
        out.append(0.0)
        return out
    zdot = float(x.d)
    vel = []
    for lam, (b, c) in zip(geo.freqs.floats, x.bc):
        b, c = float(b), float(c)
        th = lam * a * s
        vel.append(b * math.cos(th) - c * math.sin(th))
        vel.append(b * math.sin(th) + c * math.cos(th))
        zdot += (b * b + c * c) * (1.0 - math.cos(th)) / (2.0 * a * lam)
    return [zdot, *vel, a]


def eval_geodesic_exact(x: AlgebraVector, s, freqs: FrequencyList,
                        form: _Cleared | None = None) -> GroupElement:
    """Exact evaluation at parameter s.

    Velocity entries may be rationals or ExactScalars, and every rotation
    angle lambda_j * a * s must land in (pi/2)Z.  The closed form is taken
    cleared of a (`_Cleared`) and divided by a^2 once at the end, so a
    ValueError propagates exactly when the point leaves Q[pi] or its v is
    not rational.  `form` is the `_Cleared` of this x and freqs when the
    caller holds it (a certificate carries its decision's); a form built
    from other objects, or none, is replaced by a fresh one.
    """
    if x.n != freqs.n:
        raise ValueError("initial velocity does not match frequencies")
    s = as_exact(s)
    a = as_exact(x.a)
    if a.is_zero():
        v = [(as_exact(e) * s).to_fraction() for pair in x.bc for e in pair]
        return GroupElement(x.d * s, v, ExactScalar(0))
    t = a * s
    if form is None or form.x is not x or form.freqs is not freqs:
        form = _Cleared(x, freqs)
    v, p = form.at(rotation(t, freqs))
    if v is None:
        raise ValueError("v of the point is not rational")
    # a^2 z = t drift + a^2 P, over t.den times the denominator of drift
    a2z = [y + t.den * q for y, q in zip_longest(poly_mul(t.num, form.drift), p, fillvalue=0)]
    k = 2 * form.k  # a^2 is form.a2[k] pi^k over that denominator when a is a monomial
    if any(a2z):
        if any(form.a[form.k + 1:]):
            raise ValueError("pi-polynomial division needs a monomial divisor")
        if any(a2z[:k]):
            raise ValueError(f"division by pi^{k} is not exact here")
    return GroupElement._exact(ExactScalar._of(a2z[k:], t.den * form.a2[k]), *v, t)


def exp_preimage(g: GroupElement, freqs: FrequencyList) -> tuple[AlgebraVector, ExactScalar]:
    """(x, <x, x>) with `eval_geodesic_exact(x, 1, freqs) == g`, for an exact g.

    a = t; with theta_j = lambda_j t on the quarter-turn table, a block that
    R(t) turns has (b_j, c_j) = t lambda_j M(theta_j)^T v_j / (2 (1 - cos theta_j))
    and d = z + sum_j |v_j|^2 (sin theta_j - theta_j) / (4 (1 - cos theta_j)).
    A block that R(t) fixes gets (0, 0), and a ValueError when its v_j != 0:
    g is then not in the image of exp.  For t = 0 the preimage is the line
    (z, v, 0).

    On v = num / den the entries are ints: with q_j = |num_j|^2 (2 / (1 - cos)),
    d = z + alpha - beta t for alpha = sum_j q_j sin_j / (8 den^2) and
    beta = sum_j q_j lambda_j / (8 den^2).  Since |bc_j|^2 = 2 t^2 lambda_j^2 q_j
    / (8 den^2), <x, x> = 2 a d + sum_j |bc_j|^2 / lambda_j is 2 t (z + alpha).
    """
    if g.n != freqs.n or not g.is_exact():
        raise ValueError("exp_preimage needs an exact element of the frequencies' dimension")
    t, den = g.t, g.den
    if t.is_zero():
        x = AlgebraVector(g.z, list(zip(g.v[0::2], g.v[1::2])), t)
        return x, causal_quantity(x, freqs)
    lcm = freqs.quarter_turns[0]  # of the frequency denominators
    bc, alpha, beta = [], 0, 0  # alpha over 8 den^2, beta over 8 den^2 lcm
    blocks = zip(freqs.lambdas, rotation(t, freqs), g.num[0::2], g.num[1::2])
    for j, (lam, (kos, sin), p, r) in enumerate(blocks, 1):
        if kos == 1 and (p or r):
            raise ValueError(f"R(t) fixes block {j}, where v is not 0: "
                             "the element is not in the image of exp")
        turn = 1 - kos or 1  # 1 - cos; on a fixed block v_j = 0 zeroes every term
        bc.append(tuple([ExactScalar._of([y * lam.numerator * e for y in t.num],
                                         2 * turn * lam.denominator * den * t.den)
                         for e in (sin * p + turn * r, sin * r - turn * p)]))
        q = (p * p + r * r) * (2 // turn)
        alpha, beta = alpha + q * sin, beta + q * lam.numerator * (lcm // lam.denominator)
    z_alpha = g.z + ExactScalar._of([alpha], 8 * den * den)
    x = AlgebraVector(z_alpha - t * ExactScalar._of([beta], 8 * den * den * lcm), bc, t)
    return x, 2 * t * z_alpha


def _lift(e) -> tuple:
    """(num, den) of an exact entry: int numerators over an int den > 0."""
    if type(e) is int or type(e) is Fraction:
        return (e.numerator,), e.denominator
    e = as_exact(e)  # refuses a bool, as for every entry
    return e.num, e.den


class _Cleared:
    """The closed form at a velocity x with a != 0, cleared of a, on ints.

    d, b_j, c_j and a are lifted once to int coefficient lists over their
    common denominator.  `a2` = a^2 and `drift` = a d + sum_j |bc_j|^2 /
    (2 lambda_j), |bc_j|^2 by int convolution, are numerators over one
    denominator, as is a^2 P from `at`; a^2 z(s) = t drift + a^2 P(R(t)),
    t = a s.  Every caller divides these by one another or compares them
    in Z, so that denominator is never formed.  x and freqs are kept, so
    that a form is evaluated only for the objects it was built from.
    """

    __slots__ = ("x", "freqs", "a", "k", "a2", "drift", "blocks", "v_den")

    def __init__(self, x: AlgebraVector, freqs: FrequencyList):
        self.x, self.freqs = x, freqs
        lifted = [_lift(e) for e in x.coords()]
        scale = math.lcm(*[den for _, den in lifted])
        size = max([len(num) for num, _ in lifted])
        d, *bc, a = [[c * (scale // den) for c in num] + [0] * (size - len(num))
                     for num, den in lifted]
        lcm = math.lcm(*[lam.numerator for lam in freqs.lambdas])
        self.a, self.k = a, next(i for i, c in enumerate(a) if c)  # a = a[k] pi^k + ...
        self.a2 = [2 * lcm * lcm * c for c in poly_mul(a, a)]
        drift = [2 * lcm * lcm * c for c in poly_mul(a, d)]
        sign, self.blocks = -1 if a[self.k] < 0 else 1, []
        for lam, b, c in zip(freqs.lambdas, bc[0::2], bc[1::2]):
            bc2 = [u + w for u, w in zip(poly_mul(b, b), poly_mul(c, c))]
            per = lcm // lam.numerator * lam.denominator  # lambda_j = L / per
            drift = [u + lcm * per * w for u, w in zip(drift, bc2)]
            self.blocks.append((b, c, bc2, sign * per, per * per))
        self.drift, self.v_den = drift, abs(a[self.k]) * lcm

    def causal(self) -> CausalClass:
        """The causal class of x, from the sign of drift = lcm^2 scale^2 <x, x>
        for lcm = lcm(numerators of lambda_j) and scale the common denominator."""
        return CausalClass.of_sign(pi_poly_sign(ExactScalar._of(list(self.drift), 1)))

    def at(self, rot) -> tuple:
        """(v, a^2 P) at the signed quarter turns rot = R(t): v as ints
        (num, den) in lowest terms, and a^2 P = -sum_j |bc_j|^2 sin_j /
        (2 lambda_j^2) over the denominator of `drift`; (None, None) when an
        entry of v is irrational.

        a lambda_j v_j is (b sin + c (cos - 1), b (1 - cos) + c sin), a sum
        of b and c with signs; an entry e is rational iff e is proportional
        to a coefficient by coefficient, and then e = (e_k / a_k) a.
        """
        a, k = self.a, self.k
        a_k, v, p = a[k], [], [0] * len(self.a2)
        for (kos, sin), (b, c, bc2, v_per, p_per) in zip(rot, self.blocks):
            if kos == 1:
                v += (0, 0)
                continue
            for e in ([sin * u + (kos - 1) * w for u, w in zip(b, c)],
                      [(1 - kos) * u + sin * w for u, w in zip(b, c)]):
                e_k = e[k]
                if any(u * a_k != w * e_k for u, w in zip(e, a)):
                    return None, None
                v.append(e_k * v_per)
            if sin:
                p = [u - sin * p_per * w for u, w in zip(p, bc2)]
        common = math.gcd(self.v_den, *v)
        return (tuple([u // common for u in v]), self.v_den // common), p


# -- second-order system and RK4 oracle -------------------------------------


def _split_order(n: int) -> list:
    """Pair-order indices of a (position, velocity) row in split order: each
    half runs (z, x_1..x_n, y_1..y_n, t) instead of (z, x_1, y_1, ..., t)."""
    half = [0, *range(1, 2 * n + 1, 2), *range(2, 2 * n + 1, 2), 2 * n + 1]
    return half + [2 * n + 2 + i for i in half]


def _views(buf: np.ndarray, n: int) -> tuple:
    """Views of a [pos | vel | acc] buffer of split rows that the stage kernel
    reads and writes: the x and y rows of position and velocity, and z'', x''
    and y'' of the acceleration.  t'' is never written: the buffer holds 0
    there from allocation."""
    dim = 2 * n + 2
    vel, acc = buf[dim:2 * dim], buf[2 * dim:]
    return (buf[1:2 * n + 1], vel[1:2 * n + 1], vel[1:n + 1], vel[n + 1:2 * n + 1],
            acc[0], acc[1:2 * n + 1], acc[1:n + 1], acc[n + 1:2 * n + 1])


# np.sum adds fewer terms than this in sequence, and this many or more pairwise
PAIRWISE_TERMS = 8


def _scratch(batch: int, n: int) -> tuple:
    """Work buffers for the z'' sum: the products x_k' x_k and y_k' y_k as
    (2n, batch) rows, and the n terms as rows.

    The sum over the n blocks must add its terms in the order np.sum takes
    on a fresh (batch, n) array: in sequence below PAIRWISE_TERMS terms,
    pairwise from there on.  Below it the terms are stored (n, batch):
    numpy's reduce then adds whole rows in sequence, along the batch, about
    7x faster than short contiguous rows at batch 1000.  From it on only
    the reduce over contiguous rows is pairwise, so they are stored
    (batch, n) and read as (n, batch).
    """
    prod = np.empty((2 * n, batch))
    terms = np.empty((n, batch)) if n < PAIRWISE_TERMS else np.empty((batch, n)).T
    return prod[:n], prod[n:], prod, terms


def _factors(freqs: FrequencyList, tp: np.ndarray, terms: np.ndarray) -> tuple:
    """The stage kernel's constant operands, laid out full-shape once per
    integration (t'' = 0 keeps t' the same in every stage): lambda_k in
    the layout of `terms`, lambda_k and -lambda_k as (n, batch) rows, t'
    as (2n, batch) rows and t'/2 as one row.  Each call of `_stage` then
    meets same-shape operands in one layout and takes numpy's contiguous
    loop; a (n, 1) column or a lone row takes its broadcasting iterator,
    2-4x the call at batch 32 (1.8 against 0.4 us for a column, n = 2).
    The products, and so their bits, are the same."""
    lams = np.empty_like(terms)  # (n, batch), or (batch, n).T from PAIRWISE_TERMS on
    lams[...] = np.array(freqs.floats)[:, None]
    rows = np.ascontiguousarray(lams)
    return lams, rows, -rows, np.tile(tp, (2 * freqs.n, 1)), 0.5 * tp


def _stage(views: tuple, scratch: tuple, lam_terms, lams, neg_lams, tp, half_tp) -> None:
    """One evaluation of the second-order system on bound views: eight
    ufunc calls, each on whole contiguous rows and same-shape operands."""
    pos_v, vel_v, vel_x, vel_y, acc_z, acc_v, acc_x, acc_y = views
    prod_x, prod_y, prod, terms = scratch
    np.multiply(vel_v, pos_v, prod)  # x_k' x_k, then y_k' y_k
    np.add(prod_x, prod_y, terms)
    np.multiply(terms, lam_terms, terms)
    np.add.reduce(terms, 0, None, acc_z)
    np.multiply(half_tp, acc_z, acc_z)
    np.multiply(neg_lams, vel_y, acc_x)
    np.multiply(lams, vel_x, acc_y)
    np.multiply(acc_v, tp, acc_v)


def geodesic_rhs(state: np.ndarray, freqs: FrequencyList) -> np.ndarray:
    """Derivative of (position, velocity); batched over leading axes.

    z'' = (t'/2) sum_k lambda_k (x_k' x_k + y_k' y_k)
    x_i'' = -lambda_i y_i' t',   y_i'' = lambda_i x_i' t',   t'' = 0.

    Runs the one stage kernel that `integrate_geodesic_batch` steps with,
    once, on the leading axes flattened to one batch: the state is
    permuted into a [pos | vel | acc] buffer of split rows, and the
    derivative [vel | acc] back to pair order.
    """
    state = np.asarray(state, dtype=float)
    dim, n = freqs.dim, freqs.n
    if state.shape[-1:] != (2 * dim,):
        raise ValueError(f"state must have length {2 * dim}, got shape {state.shape}")
    rows, order = state.reshape(-1, 2 * dim), _split_order(n)
    buf = np.zeros((3 * dim, len(rows)))
    buf[:2 * dim] = rows[:, order].T
    scratch = _scratch(len(rows), n)
    _stage(_views(buf, n), scratch, *_factors(freqs, buf[2 * dim - 1], scratch[3]))
    out = np.empty(rows.shape)
    out[:, order] = buf[dim:].T
    return out.reshape(state.shape)


# an RK4 run above this many row steps (steps times batch rows) is refused
# before it starts
MAX_RK4_STEPS = 10**6


def _rk4_row(row: list, n_steps: int, h: float, freqs: FrequencyList) -> list:
    """`integrate_geodesic_batch` on one row of fewer than PAIRWISE_TERMS
    blocks, in plain floats and pair order.  Each entry sees `_stage`'s and
    the step's operations in their order, and z'' adds its terms in
    sequence from +0.0, as numpy's reduce does below PAIRWISE_TERMS, so
    the result is the numpy kernel's bit for bit.  Returns the final
    [pos | vel]."""
    dim, tp = freqs.dim, row[-1]
    half_tp, half_h, sixth_h = 0.5 * tp, h / 2, h / 6
    blocks = [(i, lam, -lam) for i, lam in zip(range(1, dim - 1, 2), freqs.floats)]

    def k(state):  # [vel | acc] at state = [pos | vel]
        vel, acc_z, acc_v = state[dim:], 0.0, []
        for i, lam, neg_lam in blocks:
            acc_z += (vel[i] * state[i] + vel[i + 1] * state[i + 1]) * lam
            acc_v += ((neg_lam * vel[i + 1]) * tp, (lam * vel[i]) * tp)
        return [*vel, half_tp * acc_z, *acc_v, 0.0]

    state = [0.0] * dim + row
    for _ in range(n_steps):
        k1 = k(state)
        k2 = k([u + w * half_h for u, w in zip(state, k1)])
        k3 = k([u + w * half_h for u, w in zip(state, k2)])
        k4 = k([u + w * h for u, w in zip(state, k3)])
        state = [u + (((w1 + w2 * 2.0) + w3 * 2.0) + w4) * sixth_h
                 for u, w1, w2, w3, w4 in zip(state, k1, k2, k3, k4)]
    return state


def integrate_geodesic_batch(
    initials: np.ndarray, s_end: float, step: float, freqs: FrequencyList
) -> np.ndarray:
    """RK4 from the identity for a batch of initial velocities.

    Returns final positions, shape (batch, 2n+2).  Each element sees the
    operations of state + (h/6) (k1 + 2 k2 + 2 k3 + k4) in that order.  A
    batch of one row with fewer than PAIRWISE_TERMS blocks runs on plain
    floats (`_rk4_row`), where numpy's per-call overhead would outweigh its
    arithmetic.  Every other batch holds its rows in split order, (z,
    x_1..x_n, y_1..y_n, t), permuted on entry and back on return, each row
    contiguous along the batch; every stage has one [pos | vel | acc]
    buffer, allocated once, whose [vel | acc] is its k.  The stage kernel's
    views are bound, and its constant operands laid out full-shape
    (`_factors`), once per integration, so a stage is eight 2-D numpy
    calls on whole rows and same-shape operands (`_stage`), none through
    numpy's broadcasting iterator.  Both paths give the same bits.

    A non-finite state is refused with a FloatingPointError once the last
    step is taken: under state + (h/6) tmp a non-finite entry never becomes
    finite again.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if not math.isfinite(step):  # |s_end| / inf would take one step of s_end
        raise ValueError(f"step {step} is not finite")
    initials = np.atleast_2d(np.asarray(initials, dtype=float))
    dim, n = freqs.dim, freqs.n
    if initials.ndim != 2 or initials.shape[1] != dim:
        raise ValueError(f"initial velocities must have shape (batch, {dim}), "
                         f"got {initials.shape}")
    steps = abs(s_end) / step
    if not math.isfinite(steps):
        raise ValueError(f"step count |s_end| / step = {steps} is not finite")
    rows = max(1, len(initials))  # an empty batch still steps
    if steps * rows > MAX_RK4_STEPS:
        raise ValueError(f"step count |s_end| / step = {steps:.6g} over {rows} row(s) "
                         f"exceeds {MAX_RK4_STEPS}")
    n_steps = max(1, round(steps))
    h = s_end / n_steps
    if len(initials) == 1 and n < PAIRWISE_TERMS:
        state = _rk4_row(initials[0].tolist(), n_steps, h, freqs)
        if not all(map(math.isfinite, state)):
            raise FloatingPointError("non-finite state during integration")
        return np.array([state[:dim]])
    half = _split_order(n)[:dim]
    bufs = np.zeros((4, 3 * dim, len(initials)))
    state, ins = bufs[0, :2 * dim], bufs[1:, :2 * dim]  # ins: the inputs of stages 2-4
    k1, k2, k3, k4 = bufs[:, dim:]
    state[dim:] = initials[:, half].T
    views, scratch = [_views(buf, n) for buf in bufs], _scratch(len(initials), n)
    factors = _factors(freqs, initials[:, -1].copy(), scratch[3])
    tmp = np.empty_like(k1)
    # 0-d arrays, as in _factors: no Python scalar is converted per call
    half_h, full_h, sixth_h, two = (np.array(c) for c in (h / 2, h, h / 6, 2.0))
    stages = ((k1, half_h, ins[0], views[1]), (k2, half_h, ins[1], views[2]),
              (k3, full_h, ins[2], views[3]))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        for _ in range(n_steps):
            _stage(views[0], scratch, *factors)
            for k, c, into, at in stages:  # the next stage runs at state + c k
                np.add(state, np.multiply(k, c, into), into)
                _stage(at, scratch, *factors)
            np.add(k1, np.multiply(k2, two, tmp), tmp)
            np.add(tmp, np.multiply(k3, two, k3), tmp)
            np.add(tmp, k4, tmp)
            np.add(state, np.multiply(tmp, sixth_h, tmp), state)
    if not np.isfinite(state).all():
        raise FloatingPointError("non-finite state during integration")
    out = np.empty((len(initials), dim))
    out[:, half] = state[:dim].T
    return out


def integrate_geodesic(
    x: AlgebraVector, s_end: float, step: float, freqs: FrequencyList
) -> GroupElement:
    """RK4 solution from the identity with initial velocity x."""
    coords = np.array([float(c) for c in x.coords()])
    final = integrate_geodesic_batch(coords[None, :], s_end, step, freqs)[0]
    return GroupElement(final[0], final[1:-1].tolist(), final[-1])


# -- metric and Christoffel symbols ------------------------------------------


def _as_point_type(p: GroupElement, rows):
    """Exact rows for an exact point; a float array for a float point."""
    return rows if p.is_exact() else np.array(rows, dtype=float)


def _metric_rows(coords, freqs: FrequencyList) -> list[list[Fraction]]:
    """Metric components at coordinates (z, x_j, y_j, t), lifted exactly."""
    g = gram_matrix(freqs)
    tt = freqs.dim - 1
    for i in range(freqs.n):
        x_i, y_i = Fraction(coords[1 + 2 * i]), Fraction(coords[2 + 2 * i])
        g[1 + 2 * i][tt] = g[tt][1 + 2 * i] = y_i / 2
        g[2 + 2 * i][tt] = g[tt][2 + 2 * i] = -x_i / 2
    return g


def metric_matrix(p: GroupElement, freqs: FrequencyList):
    """Component matrix of the metric at p in coordinates (z, x_j, y_j, t)."""
    if p.n != freqs.n:
        raise ValueError("point does not match frequencies")
    return _as_point_type(p, _metric_rows(p.coords(), freqs))


def metric_at(p: GroupElement, u, w, freqs: FrequencyList):
    """g_p(u, w) for coordinate vectors u, w."""
    g = metric_matrix(p, freqs)
    dim = freqs.dim
    if len(u) != dim or len(w) != dim:
        raise ValueError(f"tangent vectors must have length {dim}")
    total = 0 * (u[0] * w[0])
    for i in range(dim):
        for j in range(dim):
            gij = g[i][j]
            if gij != 0:
                total = total + u[i] * gij * w[j]
    return total


def _inverse_metric_rows(coords, freqs: FrequencyList) -> list[list[Fraction]]:
    """Inverse of `_metric_rows` in closed form.

    With w the t-row terms (y_i/2, -x_i/2): H_zt = 1, H_vv = diag(lambda),
    H_zv = -lambda * w, H_zz = sum_i lambda_i (x_i^2 + y_i^2) / 4, and every
    other entry is 0.
    """
    dim = freqs.dim
    h = [[Fraction(0)] * dim for _ in range(dim)]
    h[0][dim - 1] = h[dim - 1][0] = Fraction(1)
    for i, lam in enumerate(freqs.lambdas):
        xi, yi = 1 + 2 * i, 2 + 2 * i
        x_i, y_i = Fraction(coords[xi]), Fraction(coords[yi])
        h[xi][xi] = h[yi][yi] = lam
        h[0][xi] = h[xi][0] = -lam * y_i / 2
        h[0][yi] = h[yi][0] = lam * x_i / 2
        h[0][0] += lam * (x_i * x_i + y_i * y_i) / 4
    return h


def christoffel(freqs: FrequencyList, p: GroupElement | None = None):
    """Levi-Civita symbols Gamma[k][i][j] at p, derived from the metric.

    The components are affine in the coordinates, so their change over a
    unit step from the origin is the exact partial derivative.  Exact points
    give exact symbols.
    """
    if p is None:
        p = GroupElement.identity(freqs.n)
    if p.n != freqs.n:
        raise ValueError("point does not match frequencies")
    dim = freqs.dim
    g0 = _metric_rows([0] * dim, freqs)
    dg = []  # dg[l][i][j] = d g_ij / d coord_l; int 0 where constant
    for l in range(dim):
        gl = _metric_rows([int(m == l) for m in range(dim)], freqs)
        dg.append([[a - b if a != b else 0 for a, b in zip(r1, r0)] for r1, r0 in zip(gl, g0)])
    ginv = _inverse_metric_rows(p.coords(), freqs)
    gam = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            for l in range(dim):
                low = (dg[i][j][l] + dg[j][i][l] - dg[l][i][j]) / 2  # Gamma_{ij,l}
                if low:
                    for k in range(dim):
                        gam[k][i][j] = gam[k][j][i] = gam[k][i][j] + ginv[k][l] * low
    return _as_point_type(p, gam)


def christoffel_tabulated(freqs: FrequencyList, p: GroupElement | None = None):
    """Hand-tabulated symbol set kept for cross-checking.

    Nonzero entries (plus lower-index symmetry):
        Gamma^z_{t x_i} = -x_i lambda_i / 4,  Gamma^z_{t y_i} = -y_i lambda_i / 4,
        Gamma^{x_i}_{t x_i} = lambda_i / 2,   Gamma^{y_i}_{t x_i} = -lambda_i / 2.
    """
    if p is None:
        p = GroupElement.identity(freqs.n)
    dim = freqs.dim
    gam = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]

    def set_sym(k, i, j, val):
        gam[k][i][j] = val
        gam[k][j][i] = val

    tt = dim - 1
    for i, lam in enumerate(freqs.lambdas):
        xi, yi = 1 + 2 * i, 2 + 2 * i
        x_i, y_i = Fraction(p.v[2 * i]), Fraction(p.v[2 * i + 1])
        set_sym(0, tt, xi, -x_i * lam / 4)
        set_sym(0, tt, yi, -y_i * lam / 4)
        set_sym(xi, tt, xi, lam / 2)
        set_sym(yi, tt, xi, -lam / 2)
    return _as_point_type(p, gam)


# the two symbol sets are compared in float: a gap above this is a disagreement
CHRISTOFFEL_TOL = 1e-12


def christoffel_table_report(freqs: FrequencyList, p: GroupElement | None = None) -> list[dict]:
    """Entries where the tabulated symbols disagree with the derived ones by
    more than CHRISTOFFEL_TOL."""
    derived = christoffel(freqs, p)
    printed = christoffel_tabulated(freqs, p)
    dim = freqs.dim
    out = []
    for k in range(dim):
        for i in range(dim):
            for j in range(dim):
                a, b = derived[k][i][j], printed[k][i][j]
                if abs(float(a) - float(b)) > CHRISTOFFEL_TOL:
                    out.append(
                        {"upper": k, "lower": (i, j), "derived": a, "tabulated": b}
                    )
    return out


def acceleration_from_christoffel(
    pos: np.ndarray, vel: np.ndarray, freqs: FrequencyList
) -> np.ndarray:
    """gamma'' = -Gamma^k_{ij} v^i v^j at the float point pos."""
    p = GroupElement(pos[0], list(pos[1:-1]), pos[-1]).to_floats()
    gam = christoffel(freqs, p)
    return -np.einsum("kij,i,j->k", np.asarray(gam), vel, vel)
