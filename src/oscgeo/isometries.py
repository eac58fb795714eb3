"""Isometries fixing the identity: matrix forms, checks, and factorizations.

The isotropy differentials are the matrices

    eps * [[1, c_1^T .. c_p^T, -1/2 sum rho_nu |c_nu|^2],
           [0, diag(B_1..B_p),  (-rho_nu B_nu c_nu stacked)],
           [0, 0, 1]]

with eps = +-1, orthogonal blocks B_nu per equal-frequency run, and
translation vectors c_nu.  A linear map is such a differential exactly when
it preserves the algebra form and all triple brackets (the local-isometry
conditions checked here on basis tuples).

The map theta(B)(z, v, t) = (z, P(t)^T B P(t) v, t) is provided in two
variants: the raw printed P with blocks [[sin, 1-cos], [-1+cos, sin]]
(determinant 2-2cos, so not orthogonal away from special angles) and a
normalized variant with each block divided by sqrt(2-2cos), which is the
actual rotation and the variant that passes the isometry validation.  The
validator reports both outcomes instead of silently preferring either.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import FrequencyList
from .exact import ExactScalar
from .geodesics import metric_at, metric_matrix
from .group import (
    GroupElement,
    conjugate,
    invert,
    max_coord_dist,
    multiply,
    rotate_pairs,
    rotation,
)

ALGEBRA_TOL = 1e-10
GROUP_MAP_TOL = 1e-9
BLOCK_ORTHO_TOL = 1e-12


class ShapeMismatch(ValueError):
    """Matrix does not have the isotropy block form."""


def _run_sizes(freqs: FrequencyList) -> list[int]:
    return [2 * m for _, m in freqs.runs()]


def _run_values(freqs: FrequencyList) -> list[Fraction]:
    return [val for val, _ in freqs.runs()]


@dataclass(frozen=True)
class IsotropyElement:
    """Factored isometry fixing the identity.

    eps and blocks/c describe the compact-and-translation part; inner is an
    optional conjugation parameter (v, t); invert_flag marks composition
    with the inversion map for the group-level factorization.
    """

    eps: int
    blocks: tuple[np.ndarray, ...]
    c: tuple[np.ndarray, ...]
    inner: tuple | None = None
    invert_flag: bool = False

    def __init__(self, eps, blocks, c=None, inner=None, invert_flag=False):
        if eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        blocks = tuple(np.asarray(b, dtype=float) for b in blocks)
        for b in blocks:
            if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] % 2:
                raise ValueError("blocks must be square with even size")
            if np.max(np.abs(b.T @ b - np.eye(b.shape[0]))) > BLOCK_ORTHO_TOL:
                raise ValueError("blocks must be orthogonal")
        if c is None:
            c = tuple(np.zeros(b.shape[0]) for b in blocks)
        else:
            c = tuple(np.asarray(v, dtype=float).reshape(-1) for v in c)
        if len(c) != len(blocks) or any(
            len(v) != b.shape[0] for v, b in zip(c, blocks)
        ):
            raise ValueError("translation parts must match block sizes")
        object.__setattr__(self, "eps", int(eps))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "invert_flag", bool(invert_flag))

    def conforms_to(self, freqs: FrequencyList) -> bool:
        return [b.shape[0] for b in self.blocks] == _run_sizes(freqs)


def isotropy_matrix(el: IsotropyElement, freqs: FrequencyList) -> np.ndarray:
    """Differential of the eps/blocks/c part (inner and inversion excluded)."""
    if not el.conforms_to(freqs):
        raise ShapeMismatch(
            f"blocks sized {[b.shape[0] for b in el.blocks]} do not match runs "
            f"{_run_sizes(freqs)}"
        )
    dim = freqs.dim
    rhos = _run_values(freqs)
    a = np.zeros((dim, dim))
    a[0, 0] = 1.0
    a[dim - 1, dim - 1] = 1.0
    offset = 1
    corner = 0.0
    for rho, b, c in zip(rhos, el.blocks, el.c):
        size = b.shape[0]
        sl = slice(offset, offset + size)
        a[0, sl] = c
        a[sl, sl] = b
        a[sl, dim - 1] = -float(rho) * (b @ c)
        corner -= 0.5 * float(rho) * float(c @ c)
        offset += size
    a[0, dim - 1] = corner
    return el.eps * a


def _bracket_tensor(freqs: FrequencyList) -> np.ndarray:
    """Structure constants C[i, j, k] with [e_i, e_j] = sum_k C[i,j,k] e_k."""
    dim = freqs.dim
    c = np.zeros((dim, dim, dim))
    tt = dim - 1
    for i, lam in enumerate(freqs.lambdas):
        lam = float(lam)
        xi, yi = 1 + 2 * i, 2 + 2 * i
        c[xi, yi, 0] = 1.0
        c[yi, xi, 0] = -1.0
        c[tt, xi, yi] = lam
        c[xi, tt, yi] = -lam
        c[tt, yi, xi] = -lam
        c[yi, tt, xi] = lam
    return c


def check_local_isometry(a, freqs: FrequencyList, tol: float = ALGEBRA_TOL) -> bool:
    """Both local-isometry conditions on all basis tuples.

    (1) <A e_i, A e_j> = <e_i, e_j>;
    (2) A [e_i, [e_j, e_k]] = [A e_i, [A e_j, A e_k]].
    """
    a = np.asarray(a, dtype=float)
    dim = freqs.dim
    if a.shape != (dim, dim):
        raise ValueError(f"matrix must be {dim}x{dim}")
    g = np.array(
        [[float(x) for x in row] for row in metric_matrix(GroupElement.identity(freqs.n), freqs)]
    )
    if np.max(np.abs(a.T @ g @ a - g)) > tol:
        return False
    c = _bracket_tensor(freqs)
    double = np.einsum("jkm,iml->ijkl", c, c)  # [e_i, [e_j, e_k]]
    lhs = np.einsum("ol,ijkl->ijko", a, double)
    inner_rhs = np.einsum("bcm,bj,ck->jkm", c, a, a)  # [A e_j, A e_k]
    rhs = np.einsum("amo,ai,jkm->ijko", c, a, inner_rhs)
    return float(np.max(np.abs(lhs - rhs))) <= tol


def psi_decompose(
    a, freqs: FrequencyList, tol: float = ALGEBRA_TOL
) -> tuple[int, list[np.ndarray], np.ndarray]:
    """Recover (eps, blocks, c) from an isotropy matrix; inverse of
    isotropy_matrix up to tol."""
    a = np.asarray(a, dtype=float)
    dim = freqs.dim
    if a.shape != (dim, dim):
        raise ShapeMismatch(f"matrix must be {dim}x{dim}")
    eps_val = a[dim - 1, dim - 1]
    if abs(abs(eps_val) - 1.0) > tol:
        raise ShapeMismatch("corner entry must be +-1")
    eps = 1 if eps_val > 0 else -1
    ua = eps * a
    sizes = _run_sizes(freqs)
    blocks: list[np.ndarray] = []
    cs: list[np.ndarray] = []
    offset = 1
    for size in sizes:
        sl = slice(offset, offset + size)
        blocks.append(ua[sl, sl].copy())
        cs.append(ua[0, sl].copy())
        offset += size
    rebuilt = isotropy_matrix(
        IsotropyElement(eps, blocks, cs), freqs
    )
    if float(np.max(np.abs(rebuilt - a))) > tol:
        raise ShapeMismatch("matrix is not of the isotropy block form")
    return eps, blocks, np.concatenate(cs)


def semidirect_product(x, y, freqs: FrequencyList):
    """Product on (eps, blocks, c) matching matrix composition.

    The translation parts compose through the block action on the right:
    (e1, B1, c1) * (e2, B2, c2) = (e1 e2, B1 B2, c2 + B2^T c1).
    """
    e1, b1, c1 = x
    e2, b2, c2 = y
    blocks = [np.asarray(p) @ np.asarray(q) for p, q in zip(b1, b2)]
    sizes = _run_sizes(freqs)
    c1v, c2v = np.asarray(c1, dtype=float), np.asarray(c2, dtype=float)
    out_c = c2v.copy()
    offset = 0
    for size, q in zip(sizes, b2):
        sl = slice(offset, offset + size)
        out_c[sl] += np.asarray(q).T @ c1v[sl]
        offset += size
    return e1 * e2, blocks, out_c


# -- the theta maps -----------------------------------------------------------


def _p_block_float(lam: float, t: float, normalized: bool) -> np.ndarray:
    # branch value at the special angles is the identity
    if math.isclose(math.cos(lam * t), 1.0, abs_tol=1e-15):
        return np.eye(2)
    s, c = math.sin(lam * t), math.cos(lam * t)
    p = np.array([[s, 1.0 - c], [-1.0 + c, s]])
    if normalized:
        p = p / math.sqrt(2.0 - 2.0 * c)
    return p


def theta_B(blocks, g: GroupElement, freqs: FrequencyList, normalized: bool = False):
    """Apply (z, v, t) -> (z, P(t)^T B P(t) v, t).

    blocks: one orthogonal matrix per equal-frequency run.  As printed the
    P blocks are unnormalized (see the module docstring); normalized=True
    divides each block by sqrt(2 - 2 cos(lambda t)).
    """
    if g.n != freqs.n:
        raise ValueError("element does not match frequencies")
    sizes = _run_sizes(freqs)
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    if [b.shape[0] for b in blocks] != sizes:
        raise ShapeMismatch("blocks do not match the equal-frequency runs")
    if g.is_exact():
        return _theta_exact(blocks, g, freqs, normalized)
    return _theta_float(blocks, g, freqs, normalized, lambda s, x: s @ x)


def _theta_float(blocks, g: GroupElement, freqs: FrequencyList, normalized: bool, act):
    """Float v -> act(S, v) per equal-frequency run, with S = P(t)^T B P(t)."""
    t = float(g.t)
    v = np.array(g.v, dtype=float)
    out = np.empty_like(v)
    offset = 0
    for (lam, m), b in zip(freqs.runs(), blocks):
        size = 2 * m
        p2 = _p_block_float(float(lam), t, normalized)
        p = np.kron(np.eye(m), p2)
        sl = slice(offset, offset + size)
        out[sl] = act(p.T @ np.asarray(b) @ p, v[sl])
        offset += size
    return GroupElement(float(g.z), out.tolist(), t)


def _theta_exact(blocks, g: GroupElement, freqs: FrequencyList, normalized: bool):
    """Exact path: rational blocks, quarter-turn angles.

    P^T B P / (2 - 2 cos) keeps rational entries even though the normalized
    P itself involves sqrt(2 - 2 cos).
    """
    rational_blocks = []
    for b in blocks:
        rb = [[Fraction(x).limit_denominator(10**12) for x in row] for row in b]
        if any(abs(float(x) - float(y)) > 1e-14 for row, rrow in zip(b, rb)
               for x, y in zip(row, rrow)):
            raise ValueError("exact theta needs rational blocks")
        rational_blocks.append(rb)
    cos_sin = rotation(g.t, freqs).cos_sin
    v = list(g.v)
    out: list[Fraction] = []
    offset = 0
    for (_, m), b in zip(freqs.runs(), rational_blocks):
        kos, sin = cos_sin[offset // 2]
        # P = [[sin, 1-cos], [cos-1, sin]] is the rotation shape at (sin, cos-1)
        p = (1, 0) if kos == 1 else (sin, kos - 1)
        scale = 2 - 2 * kos if normalized and kos != 1 else 1
        size = 2 * m
        # apply blockdiag(P) per pair, then b, then blockdiag(P)^T
        pv = rotate_pairs([p] * m, v[offset: offset + size])
        bpv = [
            sum(b[i][j] * pv[j] for j in range(size)) for i in range(size)
        ]
        ptbpv = rotate_pairs([(p[0], -p[1])] * m, bpv)
        out.extend(x / scale for x in ptbpv)
        offset += size
    return GroupElement(g.z, out, g.t)


def theta_differential_at_identity(
    blocks, freqs: FrequencyList, normalized: bool = False, h: float = 1e-6
) -> np.ndarray:
    """Finite-difference differential of theta at the identity."""
    f = lambda g: theta_B(blocks, g, freqs, normalized)
    return _map_differential(f, GroupElement.identity(freqs.n).to_floats(), freqs, h)


def _map_differential(f, p: GroupElement, freqs: FrequencyList, h: float = 1e-6):
    dim = freqs.dim
    base = p.coords()
    cols = np.zeros((dim, dim))
    for j in range(dim):
        cp, cm = list(base), list(base)
        cp[j] += h
        cm[j] -= h
        fp = f(GroupElement(cp[0], cp[1:-1], cp[-1]))
        fm = f(GroupElement(cm[0], cm[1:-1], cm[-1]))
        cols[:, j] = [(a - b) / (2 * h) for a, b in zip(fp.coords(), fm.coords())]
    return cols


def validate_theta(
    blocks,
    freqs: FrequencyList,
    normalized: bool = False,
    samples: int = 20,
    seed: int = 0,
) -> dict:
    """Check d(theta)_e against diag(1, B, 1) and the isometry property.

    Reports the observed errors; with the printed (unnormalized) blocks the
    isometry check fails away from the special angles, which is exactly the
    behaviour this validator exists to surface.
    """
    rng = random.Random(seed)
    dim = freqs.dim
    expected = np.zeros((dim, dim))
    expected[0, 0] = expected[dim - 1, dim - 1] = 1.0
    offset = 1
    for b in blocks:
        size = np.asarray(b).shape[0]
        expected[offset: offset + size, offset: offset + size] = np.asarray(b)
        offset += size
    diff_err = float(
        np.max(np.abs(theta_differential_at_identity(blocks, freqs, normalized) - expected))
    )
    iso_err = 0.0
    witness = None
    f = lambda g: theta_B(blocks, g, freqs, normalized)
    for _ in range(samples):
        p = GroupElement(
            rng.uniform(-2, 2),
            [rng.uniform(-2, 2) for _ in range(2 * freqs.n)],
            rng.uniform(-3, 3),
        )
        dp = _map_differential(f, p, freqs)
        fp = f(p)
        u = np.array([rng.uniform(-1, 1) for _ in range(dim)])
        w = np.array([rng.uniform(-1, 1) for _ in range(dim)])
        before = metric_at(p, list(u), list(w), freqs)
        after = metric_at(fp, list(dp @ u), list(dp @ w), freqs)
        err = abs(after - before)
        if err > iso_err:
            iso_err = err
            witness = p
    return {
        "differential_max_err": diff_err,
        "differential_ok": diff_err < 1e-5,
        "isometry_max_err": iso_err,
        "isometry_ok": iso_err < 1e-5,
        "witness": witness,
        "normalized": normalized,
    }


# -- fiber preservation --------------------------------------------------------


@dataclass(frozen=True)
class LeftTranslation:
    h: GroupElement


@dataclass(frozen=True)
class Inversion:
    pass


@dataclass(frozen=True)
class Theta:
    blocks: tuple
    normalized: bool = False

    def __init__(self, blocks, normalized=False):
        object.__setattr__(self, "blocks", tuple(np.asarray(b) for b in blocks))
        object.__setattr__(self, "normalized", bool(normalized))


@dataclass(frozen=True)
class Inner:
    h: GroupElement


@dataclass(frozen=True)
class Composite:
    maps: tuple

    def __init__(self, maps):
        object.__setattr__(self, "maps", tuple(maps))


def apply_isometry(f, g: GroupElement, freqs: FrequencyList) -> GroupElement:
    if isinstance(f, LeftTranslation):
        h = f.h if f.h.mode == g.mode else f.h.to_floats()
        return multiply(h, g, freqs)
    if isinstance(f, Inversion):
        return invert(g, freqs)
    if isinstance(f, Theta):
        return theta_B(f.blocks, g, freqs, f.normalized)
    if isinstance(f, Inner):
        h = f.h if f.h.mode == g.mode else f.h.to_floats()
        return conjugate(h, g, freqs)
    if isinstance(f, Composite):
        for part in f.maps:
            g = apply_isometry(part, g, freqs)
        return g
    raise TypeError(f"unknown isometry descriptor {type(f).__name__}")


@dataclass(frozen=True)
class FiberVerdict:
    preserving: bool
    counterexample: tuple | None = None  # (g, lattice_element)

    def to_json(self) -> dict:
        if self.preserving:
            return {"kind": "preserving", "note": "no counterexample found"}
        g, lam = self.counterexample
        return {
            "kind": "counterexample",
            "g": g.to_json(),
            "lattice_element": lam.to_json(),
        }


def _exact_angle_grid(spec, count: int, rng) -> list[GroupElement]:
    """Deterministic exact grid plus seeded draws, all with exact angles."""
    freqs = spec.freqs
    n2 = 2 * freqs.n
    step = spec.z_step()
    # smallest positive t with every lambda_i * t in (pi/2)Z
    den = math.lcm(*(lam.denominator for lam in freqs.lambdas))
    t_unit = ExactScalar(0, Fraction(den, 2))  # (pi/2) * lcm of denominators
    v_values = [Fraction(0), step / 2, step / 3, step, Fraction(1), Fraction(1, 2)]
    grid: list[GroupElement] = []
    for j, tv in enumerate([0, 1, 2, 4]):
        for i, vv in enumerate(v_values):
            v = [Fraction(0)] * n2
            v[(i + j) % n2] = vv
            v[(i + j + 1) % n2] = v_values[(i + 1) % len(v_values)]
            grid.append(GroupElement(step / 3, v, t_unit * tv))
    while len(grid) < count:
        v = [rng.choice(v_values) * rng.choice((-1, 1)) for _ in range(n2)]
        grid.append(
            GroupElement(step * rng.randint(-2, 2), v, t_unit * rng.randint(-4, 4))
        )
    return grid


def is_fiber_preserving(f, spec, samples: int = 60, seed: int = 0) -> FiberVerdict:
    """Counterexample search for f(g)^{-1} f(g lam) in the lattice.

    A found counterexample is a proof; exhausting the grid is reported as
    "no counterexample found".  Membership is only ever decided exactly, so
    the grid uses exact points with quarter-turn-compatible angles.
    """
    rng = random.Random(seed)
    freqs = spec.freqs
    lams = spec.generators()
    lams = lams + [spec.sample_member(rng) for _ in range(3)]
    for g in _exact_angle_grid(spec, samples, rng):
        try:
            fg_inv = invert(apply_isometry(f, g, freqs), freqs)
        except ValueError:
            continue  # outside the exact-angle domain: re-gridded elsewhere
        for lam in lams:
            try:
                fgl = apply_isometry(f, multiply(g, lam, freqs), freqs)
                moved = multiply(fg_inv, fgl, freqs)
            except ValueError:
                continue
            if not spec.contains(moved):
                return FiberVerdict(False, (g, lam))
    return FiberVerdict(True)


# -- structure relations -------------------------------------------------------


def _theta_inverse_apply(blocks, g, freqs, normalized):
    inv_blocks = [np.asarray(b).T for b in blocks]
    if normalized:
        return theta_B(inv_blocks, g, freqs, normalized=True)
    # unnormalized theta is v -> S v with S = P^T B P; invert S pointwise
    return _theta_float(blocks, g, freqs, False, np.linalg.solve)


def structure_relations_check(
    blocks,
    v,
    t,
    freqs: FrequencyList,
    normalized: bool = True,
    samples: int = 12,
    seed: int = 0,
    tol: float = GROUP_MAP_TOL,
) -> dict:
    """Evaluate both sides of the three factorization relations.

    (i)   theta(B) I_{(v,t)} theta(B)^{-1} = I_{(J B J^T v, t)}
    (ii)  s I_{(v,t)} s^{-1} = I_{(v,t)}
    (iii) s theta(B) s^{-1} = theta(B)

    Returns per-relation max deviation and a witness point where the
    deviation is attained.  J is the block matrix with [[0,1],[-1,0]]
    blocks, matching the group cocycle.
    """
    rng = random.Random(seed)
    n2 = 2 * freqs.n
    v = np.asarray(v, dtype=float).reshape(n2)
    t = float(t)
    h = GroupElement(0.0, v.tolist(), t)
    bfull = _full_block(blocks, freqs)
    j = _j_matrix(freqs.n)
    jbj = j @ bfull @ j.T
    h_conj = GroupElement(0.0, (jbj @ v).tolist(), t)
    report = {}
    points = [
        GroupElement(
            rng.uniform(-2, 2),
            [rng.uniform(-2, 2) for _ in range(n2)],
            rng.uniform(-3, 3),
        )
        for _ in range(samples)
    ]

    def record(name, lhs_fn, rhs_fn):
        worst, witness = 0.0, None
        for x in points:
            err = max_coord_dist(lhs_fn(x), rhs_fn(x))
            if err > worst:
                worst, witness = err, x
        report[name] = {"max_err": worst, "holds": worst <= tol, "witness": witness}

    record(
        "i",
        lambda x: theta_B(
            blocks,
            conjugate(h, _theta_inverse_apply(blocks, x, freqs, normalized), freqs),
            freqs,
            normalized,
        ),
        lambda x: conjugate(h_conj, x, freqs),
    )
    # diagnostic variant: reflections conjugate to the parameter (JBJ^T v, -t);
    # uniform-orientation blocks make det(B) per run a single sign
    det_sign = 1.0 if float(np.linalg.det(bfull)) > 0 else -1.0
    h_adj = GroupElement(0.0, (jbj @ v).tolist(), det_sign * t)
    record(
        "i_orientation_adjusted",
        lambda x: theta_B(
            blocks,
            conjugate(h, _theta_inverse_apply(blocks, x, freqs, normalized), freqs),
            freqs,
            normalized,
        ),
        lambda x: conjugate(h_adj, x, freqs),
    )
    record(
        "ii",
        lambda x: invert(conjugate(h, invert(x, freqs), freqs), freqs),
        lambda x: conjugate(h, x, freqs),
    )
    record(
        "iii",
        lambda x: invert(theta_B(blocks, invert(x, freqs), freqs, normalized), freqs),
        lambda x: theta_B(blocks, x, freqs, normalized),
    )
    report["all_hold"] = all(report[k]["holds"] for k in ("i", "ii", "iii"))
    return report


def _full_block(blocks, freqs: FrequencyList) -> np.ndarray:
    sizes = _run_sizes(freqs)
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    if [b.shape[0] for b in blocks] != sizes:
        raise ShapeMismatch("blocks do not match the equal-frequency runs")
    n2 = sum(sizes)
    out = np.zeros((n2, n2))
    offset = 0
    for b in blocks:
        size = b.shape[0]
        out[offset: offset + size, offset: offset + size] = b
        offset += size
    return out


def _j_matrix(n: int) -> np.ndarray:
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n), j2)


# -- automorphism intersection --------------------------------------------------


def aut_intersection_check(el: IsotropyElement, tol: float = ALGEBRA_TOL) -> bool:
    """Whether the factored element lies in the automorphism subgroup.

    The compact part must have symplectic blocks; elements carrying the
    inversion (or the eps = -1 sign, its differential twin) are tested
    against the mirror coset: M B must be symplectic with M the per-pair
    diag(1, -1) reflection.  Inner parts are automorphisms always.
    """
    mirrored = el.invert_flag or el.eps == -1
    for b in el.blocks:
        b = np.asarray(b, dtype=float)
        m = b.shape[0]
        j = _j_matrix(m // 2)
        candidate = b
        if mirrored:
            mirror = np.kron(np.eye(m // 2), np.diag([1.0, -1.0]))
            candidate = mirror @ b
        if np.max(np.abs(candidate.T @ j @ candidate - j)) > tol:
            return False
    return True
