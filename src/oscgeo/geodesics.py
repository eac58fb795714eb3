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

from .algebra import AlgebraVector, CausalClass, FrequencyList, causal_class, gram_matrix
from .exact import ExactScalar, PiPoly, as_exact
from .group import GroupElement, multiply, rotation


@dataclass(frozen=True)
class Geodesic:
    """Geodesic s -> basepoint * flow(s) with the given initial velocity."""

    initial: AlgebraVector
    freqs: FrequencyList
    basepoint: GroupElement | None = None

    def __post_init__(self):
        if self.initial.n != self.freqs.n:
            raise ValueError("initial velocity does not match frequencies")
        if self.basepoint is not None and self.basepoint.n != self.freqs.n:
            raise ValueError("basepoint does not match frequencies")


def _flow_coords(x: AlgebraVector, s: float, freqs: FrequencyList):
    d = float(x.d)
    a = float(x.a)
    lams = [float(l) for l in freqs.lambdas]
    if a == 0.0:
        v = []
        for b, c in x.bc:
            v.extend((float(b) * s, float(c) * s))
        return d * s, v, 0.0
    z = d * s
    v = []
    for lam, (b, c) in zip(lams, x.bc):
        b, c = float(b), float(c)
        th = lam * a * s
        sin_th = math.sin(th)
        cosm1 = -2.0 * math.sin(th / 2.0) ** 2  # cos(th) - 1, cancellation-free
        v.append((b * sin_th + c * cosm1) / (a * lam))
        v.append((-b * cosm1 + c * sin_th) / (a * lam))  # c*sin - b*(cos-1)
        bc2 = b * b + c * c
        z += bc2 * (th - sin_th) / (2.0 * lam * lam * a * a)
    return z, v, a * s


def eval_geodesic(geo: Geodesic, s: float) -> GroupElement:
    """Point of the geodesic at parameter s (float mode)."""
    z, v, t = _flow_coords(geo.initial, float(s), geo.freqs)
    point = GroupElement(z, v, t)
    if geo.basepoint is None:
        return point
    return multiply(geo.basepoint.to_floats(), point, geo.freqs)


def eval_geodesic_velocity(geo: Geodesic, s: float) -> list[float]:
    """Coordinate velocity of the geodesic at s (identity-based geodesics)."""
    if geo.basepoint is not None and not geo.basepoint.to_floats().is_identity(0.0):
        raise ValueError("analytic velocity is provided for identity-based geodesics")
    x = geo.initial
    a = float(x.a)
    s = float(s)
    lams = [float(l) for l in geo.freqs.lambdas]
    if a == 0.0:
        out = [float(x.d)]
        for b, c in x.bc:
            out.extend((float(b), float(c)))
        out.append(0.0)
        return out
    zdot = float(x.d)
    vel = []
    for lam, (b, c) in zip(lams, x.bc):
        b, c = float(b), float(c)
        th = lam * a * s
        vel.append(b * math.cos(th) - c * math.sin(th))
        vel.append(b * math.sin(th) + c * math.cos(th))
        zdot += (b * b + c * c) * (1.0 - math.cos(th)) / (2.0 * a * lam)
    return [zdot, *vel, a]


def eval_geodesic_exact(x: AlgebraVector, s, freqs: FrequencyList) -> GroupElement:
    """Exact evaluation at parameter s.

    Velocity entries may be rationals or ExactScalars; every rotation angle
    lambda_j * a * s must land in (pi/2)Z and every group coordinate must
    stay inside its exact form, otherwise a ValueError propagates.
    """
    if x.n != freqs.n:
        raise ValueError("initial velocity does not match frequencies")
    s_p = PiPoly.lift(s)
    a_p = PiPoly.lift(x.a)
    d_p = PiPoly.lift(x.d)
    if a_p.is_zero():
        z = (d_p * s_p).to_exact()
        v = []
        for b, c in x.bc:
            v.append((PiPoly.lift(b) * s_p).to_fraction())
            v.append((PiPoly.lift(c) * s_p).to_fraction())
        return GroupElement(z, v, ExactScalar(0))
    t_out = (a_p * s_p).to_exact()
    z_p = d_p * s_p
    v = []
    rot = rotation(t_out, freqs)  # block angles lambda_j * a * s
    for lam, (b, c), (kos, sin) in zip(freqs.lambdas, x.bc, rot.cos_sin):
        b_p, c_p = PiPoly.lift(b), PiPoly.lift(c)
        vx = (b_p * sin + c_p * (kos - 1)) / (a_p * lam)
        vy = (b_p * (1 - kos) + c_p * sin) / (a_p * lam)
        v.extend((vx.to_fraction(), vy.to_fraction()))
        bc2 = b_p * b_p + c_p * c_p
        z_p = z_p + (bc2 / (2 * a_p)) * s_p / lam
        z_p = z_p - (bc2 * sin) / (2 * a_p * a_p) / (lam * lam)
    return GroupElement(z_p.to_exact(), v, t_out)


def exact_orbit(x: AlgebraVector, t_step, period: int, freqs: FrequencyList):
    """point(r) -> (s, eval_geodesic_exact(x, s, freqs)) at s = r * t_step / a.

    With s_1 = t_step / a and R(period * t_step) = Id the closed form splits
    in r:  t = r t_step,  v = V(r mod period),  z = r L + P(r mod period),
    L = (d + sum_j (b_j^2+c_j^2) / (2 a lambda_j)) s_1.  L is computed here,
    V and P once per residue, each by the divisions of eval_geodesic_exact,
    so point(r) raises ValueError exactly when that evaluation does; a
    ValueError here means every point would.
    """
    if x.n != freqs.n:
        raise ValueError("initial velocity does not match frequencies")
    t_step = as_exact(t_step)
    a_p = PiPoly.lift(x.a)
    s_1 = PiPoly.lift(t_step) / a_p
    bcs = [(PiPoly.lift(b), PiPoly.lift(c)) for b, c in x.bc]
    bc2s = [b_p * b_p + c_p * c_p for b_p, c_p in bcs]
    slope = PiPoly.lift(x.d) * s_1
    for lam, bc2 in zip(freqs.lambdas, bc2s):
        slope = slope + (bc2 / (2 * a_p)) * s_1 / lam
    residues: dict = {}

    def residue(r: int):
        v = []
        p = PiPoly()
        rot = rotation(t_step * r, freqs)
        for lam, (b_p, c_p), bc2, (kos, sin) in zip(freqs.lambdas, bcs, bc2s, rot.cos_sin):
            vx = (b_p * sin + c_p * (kos - 1)) / (a_p * lam)
            vy = (b_p * (1 - kos) + c_p * sin) / (a_p * lam)
            v.extend((vx.to_fraction(), vy.to_fraction()))
            p = p - (bc2 * sin) / (2 * a_p * a_p) / (lam * lam)
        return v, p

    def point(r: int):
        key = r % period
        if key not in residues:
            try:
                residues[key] = residue(r)
            except ValueError as exc:
                residues[key] = exc
        found = residues[key]
        if isinstance(found, ValueError):
            raise found.with_traceback(None)
        v, p = found
        z = (slope * r + p).to_exact()
        return (s_1 * r).to_exact(), GroupElement(z, v, t_step * r)

    return point


def causal_character(geo: Geodesic) -> CausalClass:
    return causal_class(geo.initial, geo.freqs)


# -- second-order system and RK4 oracle -------------------------------------


def geodesic_rhs(state: np.ndarray, freqs: FrequencyList) -> np.ndarray:
    """Derivative of (position, velocity); batched over leading axes.

    z'' = (t'/2) sum_k lambda_k (x_k' x_k + y_k' y_k)
    x_i'' = -lambda_i y_i' t',   y_i'' = lambda_i x_i' t',   t'' = 0.
    """
    state = np.asarray(state, dtype=float)
    dim = freqs.dim
    if state.shape[-1] != 2 * dim:
        raise ValueError(f"state must have length {2 * dim}, got {state.shape[-1]}")
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


def integrate_geodesic_batch(
    initials: np.ndarray, s_end: float, step: float, freqs: FrequencyList
) -> np.ndarray:
    """RK4 from the identity for a batch of initial velocities.

    Returns final positions, shape (batch, 2n+2).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    initials = np.atleast_2d(np.asarray(initials, dtype=float))
    dim = freqs.dim
    if initials.shape[1] != dim:
        raise ValueError(f"initial velocities must have length {dim}")
    n_steps = max(1, round(abs(s_end) / step))
    h = s_end / n_steps
    state = np.concatenate([np.zeros_like(initials), initials], axis=1)
    for _ in range(n_steps):
        k1 = geodesic_rhs(state, freqs)
        k2 = geodesic_rhs(state + (h / 2) * k1, freqs)
        k3 = geodesic_rhs(state + (h / 2) * k2, freqs)
        k4 = geodesic_rhs(state + h * k3, freqs)
        state = state + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(state)):
            raise FloatingPointError("non-finite state during integration")
    return state[:, :dim]


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
