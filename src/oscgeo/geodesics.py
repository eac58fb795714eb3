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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraVector, CausalClass, FrequencyList, causal_class
from .exact import ExactScalar, PiPoly
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


def metric_matrix(p: GroupElement, freqs: FrequencyList):
    """Component matrix of the metric at p in coordinates (z, x_j, y_j, t)."""
    if p.n != freqs.n:
        raise ValueError("point does not match frequencies")
    dim = freqs.dim
    exact = p.is_exact()
    half = Fraction(1, 2) if exact else 0.5
    one = Fraction(1) if exact else 1.0
    g = [[0 * one for _ in range(dim)] for _ in range(dim)]
    g[0][dim - 1] = g[dim - 1][0] = one
    for i, lam in enumerate(freqs.lambdas):
        lam = lam if exact else float(lam)
        xi, yi = 1 + 2 * i, 2 + 2 * i
        g[xi][xi] = one / lam
        g[yi][yi] = one / lam
        x_i, y_i = p.v[2 * i], p.v[2 * i + 1]
        g[xi][dim - 1] = g[dim - 1][xi] = y_i * half
        g[yi][dim - 1] = g[dim - 1][yi] = -x_i * half
    if exact:
        return g
    return np.array(g, dtype=float)


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


def _fraction_inverse(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _shift_point(p: GroupElement, axis: int, amount: int) -> GroupElement:
    coords = p.coords()
    coords[axis] = coords[axis] + amount
    return GroupElement(coords[0], coords[1:-1], coords[-1])


def christoffel(freqs: FrequencyList, p: GroupElement | None = None):
    """Levi-Civita symbols Gamma[k][i][j] at p, derived from the metric.

    Partial derivatives use central differences with unit offset, exact for
    the degree-one metric components.  Exact points give exact symbols.
    """
    if p is None:
        p = GroupElement.identity(freqs.n)
    dim = freqs.dim
    exact = p.is_exact()
    g = metric_matrix(p, freqs)
    dg = []  # dg[l][i][j] = d g_ij / d coord_l
    for l in range(dim):
        gp = metric_matrix(_shift_point(p, l, 1), freqs)
        gm = metric_matrix(_shift_point(p, l, -1), freqs)
        if exact:
            dg.append(
                [
                    [(gp[i][j] - gm[i][j]) / 2 for j in range(dim)]
                    for i in range(dim)
                ]
            )
        else:
            dg.append((np.asarray(gp) - np.asarray(gm)) / 2.0)
    if exact:
        ginv = _fraction_inverse(g)
        gam = [
            [[Fraction(0) for _ in range(dim)] for _ in range(dim)]
            for _ in range(dim)
        ]
        for k in range(dim):
            for i in range(dim):
                for j in range(i, dim):
                    total = Fraction(0)
                    for l in range(dim):
                        if ginv[k][l] == 0:
                            continue
                        total += ginv[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                    val = total / 2
                    gam[k][i][j] = val
                    gam[k][j][i] = val
        return gam
    ginv = np.linalg.inv(np.asarray(g))
    dga = np.stack(dg)  # dga[l, i, j] = d g_ij / d coord_l
    gamma_low = np.zeros((dim, dim, dim))  # Gamma_{ij,l}
    for i in range(dim):
        for j in range(dim):
            for l in range(dim):
                gamma_low[i, j, l] = 0.5 * (dga[i, j, l] + dga[j, i, l] - dga[l, i, j])
    return np.einsum("kl,ijl->kij", ginv, gamma_low)


def christoffel_tabulated(freqs: FrequencyList, p: GroupElement | None = None):
    """Hand-tabulated symbol set kept for cross-checking.

    Nonzero entries (plus lower-index symmetry):
        Gamma^z_{t x_i} = -x_i lambda_i / 4,  Gamma^z_{t y_i} = -y_i lambda_i / 4,
        Gamma^{x_i}_{t x_i} = lambda_i / 2,   Gamma^{y_i}_{t x_i} = -lambda_i / 2.
    """
    if p is None:
        p = GroupElement.identity(freqs.n)
    dim = freqs.dim
    exact = p.is_exact()
    zero = Fraction(0) if exact else 0.0
    gam = [[[zero for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]

    def set_sym(k, i, j, val):
        gam[k][i][j] = val
        gam[k][j][i] = val

    tt = dim - 1
    for i, lam in enumerate(freqs.lambdas):
        lam = lam if exact else float(lam)
        xi, yi = 1 + 2 * i, 2 + 2 * i
        x_i, y_i = p.v[2 * i], p.v[2 * i + 1]
        quarter = Fraction(1, 4) if exact else 0.25
        half = Fraction(1, 2) if exact else 0.5
        set_sym(0, tt, xi, -x_i * lam * quarter)
        set_sym(0, tt, yi, -y_i * lam * quarter)
        set_sym(xi, tt, xi, lam * half)
        set_sym(yi, tt, xi, -lam * half)
    return gam if exact else np.array(gam, dtype=float)


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
