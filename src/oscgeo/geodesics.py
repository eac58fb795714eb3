"""Geodesics through the identity, the coordinate metric, and Christoffel symbols.

Closed form for initial velocity d*Z + sum(b_j X_j + c_j Y_j) + a*T, a != 0:

    z(s)   = (d + (1/2a) sum_k (b_k^2+c_k^2)/lambda_k) s
             - (1/2a^2) sum_k ((b_k^2+c_k^2)/lambda_k^2) sin(lambda_k a s)
    (x_j, y_j)(s) = (1/(a lambda_j)) * M(lambda_j a s) (b_j, c_j)
    t(s)   = a s

with M(th) = [[sin th, cos th - 1], [1 - cos th, sin th]]; for a = 0 the
curve is the line (d s, (b_j s, c_j s), 0).  A fixed-step RK4 integrator of
the second-order system provides an independent oracle.

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

import numpy as np

from .algebra import AlgebraVector, FrequencyList, causal_quantity, gram_matrix
from .exact import ExactScalar, as_exact, rational_ratio
from .group import GroupElement, multiply, rotation


@dataclass(frozen=True)
class Geodesic:
    """Geodesic s -> flow(s) through the identity with the given initial velocity."""

    initial: AlgebraVector
    freqs: FrequencyList

    def __post_init__(self):
        if self.initial.n != self.freqs.n:
            raise ValueError("initial velocity does not match frequencies")


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
    z = d * s
    v = []
    for lam, (b, c) in zip(freqs.floats, x.bc):
        b, c = float(b), float(c)
        th = lam * a * s
        sin_th = sin(th)
        cosm1 = -2.0 * sin(th / 2.0) ** 2  # cos(th) - 1, cancellation-free
        v.append((b * sin_th + c * cosm1) / (a * lam))
        v.append((-b * cosm1 + c * sin_th) / (a * lam))  # c*sin - b*(cos-1)
        bc2 = b * b + c * c
        z += bc2 * (th - sin_th) / (2.0 * lam * lam * a * a)
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


def eval_geodesic_exact(x: AlgebraVector, s, freqs: FrequencyList) -> GroupElement:
    """Exact evaluation at parameter s.

    Velocity entries may be rationals or ExactScalars, and every rotation
    angle lambda_j * a * s must land in (pi/2)Z.  The closed form is taken
    cleared of a (`_oscillation`, `_drift`) and divided once at the end, so
    a ValueError propagates exactly when the point leaves Q[pi] or its v is
    not rational.
    """
    if x.n != freqs.n:
        raise ValueError("initial velocity does not match frequencies")
    s = as_exact(s)
    a = as_exact(x.a)
    if a.is_zero():
        v = [(as_exact(e) * s).to_fraction() for pair in x.bc for e in pair]
        return GroupElement(x.d * s, v, ExactScalar(0))
    t_out = a * s
    bcs, bc2s = _exact_blocks(x)
    v, p = _oscillation(a, bcs, bc2s, rotation(t_out, freqs), freqs)
    if v is None:
        raise ValueError("v of the point is not rational")
    z = t_out * _drift(a, x.d, bc2s, freqs) + p  # a^2 z
    return GroupElement._exact(z / (a * a) if z.num else z, *v, t_out)


def exp_preimage(g: GroupElement, freqs: FrequencyList) -> tuple[AlgebraVector, ExactScalar]:
    """(x, <x, x>) with `eval_geodesic_exact(x, 1, freqs) == g`, for an exact g.

    a = t; with theta_j = lambda_j t on the quarter-turn table, a block that
    R(t) turns has (b_j, c_j) = t lambda_j M(theta_j)^T v_j / (2 (1 - cos theta_j))
    and d = z + sum_j |v_j|^2 (sin theta_j - theta_j) / (4 (1 - cos theta_j)).
    A block that R(t) fixes gets (0, 0), and a ValueError when its v_j != 0:
    g is then not in the image of exp.  For t = 0 the preimage is the line
    (z, v, 0).  <x, x> is `causal_quantity(x, freqs)`.
    """
    if g.n != freqs.n or not g.is_exact():
        raise ValueError("exp_preimage needs an exact element of the frequencies' dimension")
    t, pairs = g.t, list(zip(g.v[0::2], g.v[1::2]))
    if t.is_zero():
        x = AlgebraVector(g.z, pairs, t)
    else:
        bc, d, blocks = [], g.z, zip(freqs.lambdas, rotation(t, freqs), pairs)
        for j, (lam, (kos, sin), (p, r)) in enumerate(blocks, 1):
            if kos == 1 and (p or r):
                raise ValueError(f"R(t) fixes block {j}, where v is not 0: "
                                 "the element is not in the image of exp")
            turn = 1 - kos or 1  # 1 - cos; on a fixed block v_j = 0 zeroes every term
            scale = t * lam / (2 * turn)
            bc.append((scale * (sin * p + turn * r), scale * (sin * r - turn * p)))
            d += (p * p + r * r) * (sin - lam * t) / (4 * turn)
        x = AlgebraVector(d, bc, t)
    return x, causal_quantity(x, freqs)


def _exact_blocks(x: AlgebraVector) -> tuple[list, list]:
    """The (b_j, c_j) of x as exact values, and their b_j^2 + c_j^2."""
    bcs = [(as_exact(b), as_exact(c)) for b, c in x.bc]
    return bcs, [b * b + c * c for b, c in bcs]


def _drift(a: ExactScalar, d, bc2s, freqs: FrequencyList) -> ExactScalar:
    """a d + sum_j (b_j^2+c_j^2) / (2 lambda_j); a^2 z is t times this, plus a^2 P."""
    return a * d + sum((bc2 / lam for bc2, lam in zip(bc2s, freqs.lambdas)), ExactScalar()) / 2


def _oscillation(a: ExactScalar, bcs, bc2s, rot, freqs: FrequencyList):
    """v of the closed form at the block rotations rot = R(a s), as ints
    (num, den), or None when an entry is irrational; and a^2 times the part
    of z that oscillates, -sum_j (b_j^2+c_j^2) sin / (2 lambda_j^2).

    Nothing divides by a: a lambda_j v_j is (b sin + c (cos - 1),
    b (1 - cos) + c sin), and `rational_ratio` reads v_j off it when v_j is
    rational.
    """
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


# -- second-order system and RK4 oracle -------------------------------------


def _reads(state: np.ndarray, n: int) -> tuple:
    """Views of a state that the stage kernel reads: the velocity, the v
    blocks of position and velocity, t' (also shaped to broadcast over the
    (x, y) pairs), and the velocity pairs swapped to (y_k', x_k')."""
    vel = state[..., 2 * n + 2:]
    tp = vel[..., -1]
    pairs = vel[..., 1:-1].reshape(*state.shape[:-1], n, 2)
    return vel, state[..., 1:2 * n + 1], vel[..., 1:-1], tp, tp[..., None, None], pairs[..., ::-1]


def _writes(out: np.ndarray, n: int) -> tuple:
    """Views of a derivative that the stage kernel writes: the position
    rate, z'' and the (x_k'', y_k'') pairs.  t'' is never written: the
    buffer holds 0 there from allocation."""
    acc = out[..., 2 * n + 2:]
    return out[..., :2 * n + 2], acc[..., 0], acc[..., 1:-1].reshape(*out.shape[:-1], n, 2)


def _scratch(lead: tuple, n: int) -> tuple:
    """Work buffers for the z'' sum, the batch axes innermost in memory.

    The sum over the n blocks must add its terms in the order np.sum takes
    on a fresh row-major array: in sequence below 8 terms, pairwise from 8
    on.  Below 8 the terms are stored (n, batch) and read as (batch, n):
    numpy's reduce then adds whole columns in sequence, along the batch,
    about 7x faster than short contiguous rows at batch 1000.  From 8 on
    only the reduce over contiguous rows is pairwise, so they are stored
    (batch, n).
    """
    prod = np.moveaxis(np.empty((2 * n, *lead)), 0, -1)
    terms = np.moveaxis(np.empty((n, *lead)), 0, -1) if n < 8 else np.empty((*lead, n))
    return prod, prod[..., 0::2], prod[..., 1::2], terms, np.empty(lead)


def _factors(freqs: FrequencyList) -> tuple:
    """lambda_k, the pair factors (-lambda_k, lambda_k) of (y_k', x_k'), and
    1/2, as arrays: numpy then converts no Python scalar on each call."""
    lams = np.array(freqs.floats)
    return lams, np.stack([-lams, lams], axis=-1), np.array(0.5)


def _stage(reads: tuple, writes: tuple, scratch: tuple, lams, pair_lams, one_half) -> None:
    """One evaluation of the second-order system on bound views."""
    vel, pos_v, vel_v, tp, tp_pairs, swapped = reads
    k_pos, k_z, k_pairs = writes
    prod, even, odd, terms, half = scratch
    k_pos[...] = vel
    np.multiply(vel_v, pos_v, prod)  # x_k' x_k and y_k' y_k, interleaved
    np.add(even, odd, terms)
    np.multiply(terms, lams, terms)
    np.add.reduce(terms, -1, None, k_z)
    np.multiply(tp, one_half, half)
    np.multiply(half, k_z, k_z)
    np.multiply(pair_lams, swapped, k_pairs)
    np.multiply(k_pairs, tp_pairs, k_pairs)


def geodesic_rhs(state: np.ndarray, freqs: FrequencyList) -> np.ndarray:
    """Derivative of (position, velocity); batched over leading axes.

    z'' = (t'/2) sum_k lambda_k (x_k' x_k + y_k' y_k)
    x_i'' = -lambda_i y_i' t',   y_i'' = lambda_i x_i' t',   t'' = 0.

    Binds the views of the one stage kernel that `integrate_geodesic_batch`
    steps with, for any leading axes, and runs it once into a fresh array;
    the layout of the z'' sum's buffer depends on n (see `_scratch`), so
    that the sum adds in np.sum's order on every batch shape.
    """
    state = np.asarray(state, dtype=float)
    if state.shape[-1:] != (2 * freqs.dim,):
        raise ValueError(f"state must have length {2 * freqs.dim}, got shape {state.shape}")
    n, out = freqs.n, np.zeros(state.shape)
    _stage(_reads(state, n), _writes(out, n), _scratch(state.shape[:-1], n), *_factors(freqs))
    return out


# an RK4 run above this many steps is refused before it starts
MAX_RK4_STEPS = 10**6


def integrate_geodesic_batch(
    initials: np.ndarray, s_end: float, step: float, freqs: FrequencyList
) -> np.ndarray:
    """RK4 from the identity for a batch of initial velocities.

    Returns final positions, shape (batch, 2n+2).  The state and the stages
    live in buffers allocated once, column-major so that each operation runs
    along the batch; each element sees the operations of
    state + (h/6) (k1 + 2 k2 + 2 k3 + k4) in that order.  The stage kernel's
    views (the velocity, the v blocks, t', the swapped velocity pairs, and
    each k's position rate, z'' and v outputs) are bound once per
    integration, so a stage is nine numpy calls.  The z'' sum's buffer is
    stored (n, batch) below 8 blocks and (batch, n) from 8 on: numpy sums 8
    or more contiguous terms pairwise, as np.sum does on a fresh array.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    initials = np.atleast_2d(np.asarray(initials, dtype=float))
    dim, n = freqs.dim, freqs.n
    if initials.ndim != 2 or initials.shape[1] != dim:
        raise ValueError(f"initial velocities must have shape (batch, {dim}), "
                         f"got {initials.shape}")
    steps = abs(s_end) / step
    if not math.isfinite(steps):
        raise ValueError(f"step count |s_end| / step = {steps} is not finite")
    if steps > MAX_RK4_STEPS:
        raise ValueError(f"step count |s_end| / step = {steps:.6g} exceeds {MAX_RK4_STEPS}")
    n_steps = max(1, round(steps))
    h = s_end / n_steps
    state, k1, k2, k3, k4, tmp = np.zeros((6, 2 * dim, len(initials))).transpose(0, 2, 1)
    state[:, dim:] = initials
    factors, scratch = _factors(freqs), _scratch((len(initials),), n)
    at_state, at_tmp = _reads(state, n), _reads(tmp, n)
    into = [_writes(k, n) for k in (k1, k2, k3, k4)]
    finite = np.empty_like(state, dtype=bool)
    # 0-d arrays, as in _factors: no Python scalar is converted per call
    half_h, full_h, sixth_h, two = (np.array(c) for c in (h / 2, h, h / 6, 2.0))
    stages = ((k1, half_h, into[1]), (k2, half_h, into[2]), (k3, full_h, into[3]))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        for _ in range(n_steps):
            _stage(at_state, into[0], scratch, *factors)
            for k, c, k_next in stages:  # k_next = rhs(state + c k)
                np.add(state, np.multiply(k, c, tmp), tmp)
                _stage(at_tmp, k_next, scratch, *factors)
            np.add(k1, np.multiply(k2, two, tmp), tmp)
            np.add(tmp, np.multiply(k3, two, k3), tmp)
            np.add(tmp, k4, tmp)
            np.add(state, np.multiply(tmp, sixth_h, tmp), state)
            if not np.isfinite(state, finite).all():
                raise FloatingPointError("non-finite state during integration")
    return state[:, :dim].copy()


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


def christoffel_table_report(
    freqs: FrequencyList, p: GroupElement | None = None, tol: float = 1e-12
) -> list[dict]:
    """Entries where the tabulated symbols disagree with the derived ones."""
    derived = christoffel(freqs, p)
    printed = christoffel_tabulated(freqs, p)
    dim = freqs.dim
    out = []
    for k in range(dim):
        for i in range(dim):
            for j in range(dim):
                a, b = derived[k][i][j], printed[k][i][j]
                if abs(float(a) - float(b)) > tol:
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
