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

Each map descriptor (`Theta`, `Inversion`, `LeftTranslation`, `Inner`,
`Composite`) evaluates itself with `at(g, freqs)`; `apply_isometry` is that
call.  `Theta` is the one way to evaluate theta(B): it checks its blocks
against the runs once per frequency list, and exact points read blocks
rationalised once per `Theta`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .algebra import FrequencyList, gram_matrix
from .exact import ExactScalar
from .geodesics import metric_at
from .group import (
    GroupElement,
    conjugate,
    invert,
    max_coord_dist,
    multiply,
    rotation,
)

ALGEBRA_TOL = 1e-10  # the matrix checks: local isometry, psi_decompose, automorphisms
GROUP_MAP_TOL = 1e-9  # a structure relation holds within this deviation
BLOCK_ORTHO_TOL = 1e-12
DIFF_STEP = 1e-6  # central-difference step of the map differentials
THETA_SAMPLES, THETA_SEED = 20, 0  # the random points of validate_theta
RELATION_SAMPLES = 12  # the random points of structure_relations_check


class ShapeMismatch(ValueError):
    """Matrix does not have the isotropy block form."""


def _run_sizes(freqs: FrequencyList) -> list[int]:
    return [2 * m for _, m in freqs.runs()]


def _run_slices(freqs: FrequencyList, start: int = 0):
    """(lambda, slice) per equal-frequency run, the slices laid end to end
    from start, 2m wide for a run of multiplicity m."""
    for lam, m in freqs.runs():
        yield lam, slice(start, start + 2 * m)
        start += 2 * m


@dataclass(frozen=True)
class IsotropyElement:
    """Factored isometry fixing the identity.

    eps and blocks/c describe the compact-and-translation part; invert_flag
    marks composition with the inversion map for the group-level
    factorization.
    """

    eps: int
    blocks: tuple[np.ndarray, ...]
    c: tuple[np.ndarray, ...]
    invert_flag: bool = False

    def __init__(self, eps, blocks, c=None, invert_flag=False):
        if eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        blocks = tuple(np.asarray(b, dtype=float) for b in blocks)
        for b in blocks:
            if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] % 2:
                raise ValueError("blocks must be square with even size")
            if not np.isfinite(b).all():
                raise ValueError("blocks must be finite")
            if not np.max(np.abs(b.T @ b - np.eye(b.shape[0]))) <= BLOCK_ORTHO_TOL:
                raise ValueError("blocks must be orthogonal")
        if c is None:
            c = tuple(np.zeros(b.shape[0]) for b in blocks)
        else:
            c = tuple(np.asarray(v, dtype=float).reshape(-1) for v in c)
        if len(c) != len(blocks) or any(
            len(v) != b.shape[0] for v, b in zip(c, blocks)
        ):
            raise ValueError("translation parts must match block sizes")
        if not all(np.isfinite(v).all() for v in c):
            raise ValueError("translation parts must be finite")
        object.__setattr__(self, "eps", int(eps))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "invert_flag", bool(invert_flag))

    def conforms_to(self, freqs: FrequencyList) -> bool:
        return [b.shape[0] for b in self.blocks] == _run_sizes(freqs)


def isotropy_matrix(el: IsotropyElement, freqs: FrequencyList) -> np.ndarray:
    """Differential of the eps/blocks/c part (inversion excluded)."""
    if not el.conforms_to(freqs):
        raise ShapeMismatch(
            f"blocks sized {[b.shape[0] for b in el.blocks]} do not match runs "
            f"{_run_sizes(freqs)}"
        )
    dim = freqs.dim
    a = np.zeros((dim, dim))
    a[0, 0] = 1.0
    a[dim - 1, dim - 1] = 1.0
    corner = 0.0
    for (rho, sl), b, c in zip(_run_slices(freqs, 1), el.blocks, el.c):
        a[0, sl] = c
        a[sl, sl] = b
        a[sl, dim - 1] = -float(rho) * (b @ c)
        corner -= 0.5 * float(rho) * float(c @ c)
    a[0, dim - 1] = corner
    return el.eps * a


def _bracket_tensor(freqs: FrequencyList) -> np.ndarray:
    """Structure constants C[i, j, k] with [e_i, e_j] = sum_k C[i,j,k] e_k."""
    dim = freqs.dim
    c = np.zeros((dim, dim, dim))
    tt = dim - 1
    for i, lam in enumerate(freqs.floats):
        xi, yi = 1 + 2 * i, 2 + 2 * i
        c[xi, yi, 0] = 1.0
        c[yi, xi, 0] = -1.0
        c[tt, xi, yi] = lam
        c[xi, tt, yi] = -lam
        c[tt, yi, xi] = -lam
        c[yi, tt, xi] = lam
    return c


def check_local_isometry(a, freqs: FrequencyList) -> bool:
    """Both local-isometry conditions on all basis tuples.

    (1) <A e_i, A e_j> = <e_i, e_j>;
    (2) A [e_i, [e_j, e_k]] = [A e_i, [A e_j, A e_k]].
    """
    a = np.asarray(a, dtype=float)
    dim = freqs.dim
    if a.shape != (dim, dim):
        raise ValueError(f"matrix must be {dim}x{dim}")
    g = np.array(gram_matrix(freqs), dtype=float)
    if np.max(np.abs(a.T @ g @ a - g)) > ALGEBRA_TOL:
        return False
    c = _bracket_tensor(freqs)
    double = np.einsum("jkm,iml->ijkl", c, c)  # [e_i, [e_j, e_k]]
    lhs = np.einsum("ol,ijkl->ijko", a, double)
    inner_rhs = np.einsum("bcm,bj,ck->jkm", c, a, a)  # [A e_j, A e_k]
    rhs = np.einsum("amo,ai,jkm->ijko", c, a, inner_rhs)
    return float(np.max(np.abs(lhs - rhs))) <= ALGEBRA_TOL


def psi_decompose(a, freqs: FrequencyList) -> tuple[int, list[np.ndarray], np.ndarray]:
    """Recover (eps, blocks, c) from an isotropy matrix; inverse of
    isotropy_matrix up to ALGEBRA_TOL."""
    a = np.asarray(a, dtype=float)
    dim = freqs.dim
    if a.shape != (dim, dim):
        raise ShapeMismatch(f"matrix must be {dim}x{dim}")
    eps_val = a[dim - 1, dim - 1]
    if not abs(abs(eps_val) - 1.0) <= ALGEBRA_TOL:  # NaN fails this test and the one below
        raise ShapeMismatch("corner entry must be +-1")
    eps = 1 if eps_val > 0 else -1
    ua = eps * a
    runs = list(_run_slices(freqs, 1))
    if any(lam == mu and np.abs(ua[s1, s2]).max() + np.abs(ua[s2, s1]).max() > ALGEBRA_TOL
           for i, (lam, s1) in enumerate(runs) for mu, s2 in runs[i + 1:]):
        raise ShapeMismatch("the matrix couples equal frequencies split into separate runs: "
                            "list them together, as FrequencyList.grouped() does")
    blocks = [ua[sl, sl].copy() for _, sl in runs]
    cs = [ua[0, sl].copy() for _, sl in runs]
    rebuilt = isotropy_matrix(
        IsotropyElement(eps, blocks, cs), freqs
    )
    if not float(np.max(np.abs(rebuilt - a))) <= ALGEBRA_TOL:
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
    c1v, c2v = np.asarray(c1, dtype=float), np.asarray(c2, dtype=float)
    out_c = c2v.copy()
    for (_, sl), q in zip(_run_slices(freqs), b2):
        out_c[sl] += np.asarray(q).T @ c1v[sl]
    return e1 * e2, blocks, out_c


# -- the theta maps -----------------------------------------------------------


def _rational_block(b: np.ndarray) -> np.ndarray:
    rb = [[Fraction(x).limit_denominator(10**12) for x in row] for row in b]
    if any(abs(float(x) - float(y)) > 1e-14 for row, rrow in zip(b, rb)
           for x, y in zip(row, rrow)):
        raise ValueError("exact theta needs rational blocks")
    return np.array(rb, dtype=object)


def _theta(blocks, g: GroupElement, freqs: FrequencyList, normalized: bool, act):
    """v -> act(S, v) per equal-frequency run of multiplicity m, with
    S = P^T B P and P = blockdiag(P(t)) of m copies of the 2x2 block, in the
    arithmetic of g: float blocks for a float g, Fraction blocks for an
    exact one.  Floats divide P by sqrt(2 - 2 cos) when normalized; exact
    points divide S by 2 - 2 cos, which keeps S rational on the quarter
    turns of the table `rotation` reads.
    """
    exact = g.is_exact()
    dtype = object if exact else float
    cos_sin = rotation(g.t, freqs)
    v = np.array(g.v, dtype=dtype)
    out = np.empty_like(v)
    for (_, sl), b in zip(_run_slices(freqs), blocks):
        c, s = cos_sin[sl.start // 2]
        scale = 1
        if math.isclose(c, 1.0, abs_tol=1e-15):  # the branch value at the special angles
            p2 = np.eye(2, dtype=dtype)
        else:
            p2 = np.array([[s, 1 - c], [-1 + c, s]], dtype=dtype)
            if normalized and exact:
                scale = 2 - 2 * c
            elif normalized:
                p2 = p2 / math.sqrt(2.0 - 2.0 * c)
        p = p2
        size = sl.stop - sl.start
        if size > 2:
            p = np.zeros((size, size), dtype)
            for k in range(0, size, 2):
                p[k: k + 2, k: k + 2] = p2
        pbp = p.T @ b @ p
        out[sl] = act(pbp if scale == 1 else pbp / scale, v[sl])
    if exact:
        return GroupElement(g.z, out.tolist(), g.t)
    return GroupElement._of(float(g.z), tuple(out.tolist()), float(g.t))


def theta_differential_at_identity(
    blocks, freqs: FrequencyList, normalized: bool = False
) -> np.ndarray:
    """Finite-difference differential of theta at the identity."""
    identity = GroupElement.identity(freqs.n).to_floats()
    return _map_differential(Theta(blocks, normalized), identity, freqs)


def _map_differential(f, p: GroupElement, freqs: FrequencyList):
    """Central differences of the map f at p with step DIFF_STEP."""
    dim, h = freqs.dim, DIFF_STEP
    base = p.coords()
    cols = np.zeros((dim, dim))
    for j in range(dim):
        cp, cm = list(base), list(base)
        cp[j] += h
        cm[j] -= h
        fp = f.at(GroupElement(cp[0], cp[1:-1], cp[-1]), freqs)
        fm = f.at(GroupElement(cm[0], cm[1:-1], cm[-1]), freqs)
        cols[:, j] = [(a - b) / (2 * h) for a, b in zip(fp.coords(), fm.coords())]
    return cols


def validate_theta(blocks, freqs: FrequencyList, normalized: bool = False) -> dict:
    """Check d(theta)_e against diag(1, B, 1) and the isometry property at
    THETA_SAMPLES points drawn with THETA_SEED.

    Reports the observed errors; with the printed (unnormalized) blocks the
    isometry check fails away from the special angles, which is exactly the
    behaviour this validator exists to surface.
    """
    rng = random.Random(THETA_SEED)
    dim = freqs.dim
    theta = Theta(blocks, normalized)
    expected = np.eye(dim)
    expected[1:-1, 1:-1] = _full_block(theta._fitted(freqs), freqs)
    identity = GroupElement.identity(freqs.n).to_floats()
    diff_err = float(np.max(np.abs(_map_differential(theta, identity, freqs) - expected)))
    iso_err = 0.0
    witness = None
    for _ in range(THETA_SAMPLES):
        p = GroupElement(
            rng.uniform(-2, 2),
            [rng.uniform(-2, 2) for _ in range(2 * freqs.n)],
            rng.uniform(-3, 3),
        )
        dp = _map_differential(theta, p, freqs)
        fp = theta.at(p, freqs)
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

    def at(self, g: GroupElement, freqs: FrequencyList) -> GroupElement:
        return multiply(self.h, g, freqs)


@dataclass(frozen=True)
class Inversion:
    def at(self, g: GroupElement, freqs: FrequencyList) -> GroupElement:
        return invert(g, freqs)


@dataclass(frozen=True)
class Theta:
    """theta(B): (z, v, t) -> (z, P(t)^T B P(t) v, t), one block B per
    equal-frequency run; normalized divides P by sqrt(2 - 2 cos(lambda t))
    (see the module docstring).  An exact g needs rational blocks and a
    quarter-turn t."""

    blocks: tuple
    normalized: bool = False

    def __init__(self, blocks, normalized=False):
        # a block that is not numeric or not finite is refused here, not at each grid point
        blocks = tuple(np.asarray(b, dtype=float) for b in blocks)
        if not all(np.isfinite(b).all() for b in blocks):
            raise ValueError("theta blocks must be finite")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "normalized", bool(normalized))

    def _fitted(self, freqs: FrequencyList) -> tuple:
        """The blocks; ShapeMismatch unless they are square matrices sized like
        the equal-frequency runs, checked once for the last freqs that fitted."""
        if self.__dict__.get("_fits") is not freqs:
            if [b.shape for b in self.blocks] != [(m, m) for m in _run_sizes(freqs)]:
                raise ShapeMismatch("blocks do not match the equal-frequency runs")
            self.__dict__["_fits"] = freqs
        return self.blocks

    def at(self, g: GroupElement, freqs: FrequencyList) -> GroupElement:
        """theta(B)(g); an exact g reads the blocks rationalised once per Theta."""
        if g.n != freqs.n:
            raise ValueError("element does not match frequencies")
        blocks = self._fitted(freqs)
        if g.is_exact():
            blocks, refusal = self._exact_blocks
            if refusal:
                raise ValueError(refusal)  # afresh: no traceback grows over a grid
        return _theta(blocks, g, freqs, self.normalized, np.matmul)

    @cached_property
    def _exact_blocks(self):  # (rational blocks, None) or (None, the refusal's text)
        try:
            return [_rational_block(b) for b in self.blocks], None
        except ValueError as exc:
            return None, str(exc)


@dataclass(frozen=True)
class Inner:
    h: GroupElement

    def at(self, g: GroupElement, freqs: FrequencyList) -> GroupElement:
        return conjugate(self.h, g, freqs)


@dataclass(frozen=True)
class Composite:
    maps: tuple

    def __init__(self, maps):
        object.__setattr__(self, "maps", tuple(maps))

    def at(self, g: GroupElement, freqs: FrequencyList) -> GroupElement:
        for part in self.maps:
            g = apply_isometry(part, g, freqs)  # a part with no `at` is a TypeError too
        return g


def apply_isometry(f, g: GroupElement, freqs: FrequencyList) -> GroupElement:
    if not hasattr(f, "at"):
        raise TypeError(f"unknown isometry descriptor {type(f).__name__}")
    return f.at(g, freqs)


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


def _exact_angle_grid(spec, count: int, rng):
    """Deterministic exact grid, then seeded draws up to count points, all
    with exact angles; yielded one by one, so a walk that stops early
    builds and draws no further points."""
    freqs = spec.freqs
    n2 = 2 * freqs.n
    step = spec.profile().central_w.to_fraction()
    lcm, two_gcd, _ = freqs.quarter_turns
    t_unit = ExactScalar(0, Fraction(lcm, two_gcd))  # least t > 0 turning by quarters
    v_values = [Fraction(0), step / 2, step / 3, step, Fraction(1), Fraction(1, 2)]
    turns = (0, 1, 2, 4)
    for j, tv in enumerate(turns):
        for i, vv in enumerate(v_values):
            v = [Fraction(0)] * n2
            v[(i + j) % n2] = vv
            v[(i + j + 1) % n2] = v_values[(i + 1) % len(v_values)]
            yield GroupElement(step / 3, v, t_unit * tv)
    for _ in range(count - len(turns) * len(v_values)):
        v = [rng.choice(v_values) * rng.choice((-1, 1)) for _ in range(n2)]
        yield GroupElement(step * rng.randint(-2, 2), v, t_unit * rng.randint(-4, 4))


def _check_fits(f, freqs: FrequencyList) -> None:
    """ShapeMismatch unless every part of the map acts on vectors of size 2n;
    theta blocks split unlike the frequency runs pass (Theta.at refuses them).
    A float map element, which no exact grid point multiplies, is refused too."""
    if isinstance(f, (LeftTranslation, Inner)) and f.h.n != freqs.n:
        raise ShapeMismatch(f"the map's element has n = {f.h.n}, the lattice has n = {freqs.n}")
    if isinstance(f, (LeftTranslation, Inner)) and not f.h.is_exact():
        raise ValueError("the map's element must be exact: the fiber grid is exact")
    if isinstance(f, Theta):
        sizes = [b.shape[0] for b in f.blocks if b.ndim == 2 and b.shape[0] == b.shape[1]]
        if len(sizes) != len(f.blocks) or sum(sizes) != 2 * freqs.n:
            raise ShapeMismatch(f"theta blocks are not square matrices of total size {2 * freqs.n}")
    if isinstance(f, Composite):
        for part in f.maps:
            _check_fits(part, freqs)


def is_fiber_preserving(f, spec, samples: int = 60, seed: int = 0) -> FiberVerdict:
    """Whether f(g)^{-1} f(g lam) lies in the lattice, for lam the
    generators and three seeded members, at exact grid points g.

    A left translation by h gives lam itself and conjugation by h gives
    h lam h^{-1}, the same at every g; conjugation is a homomorphism, so
    h gam h^{-1} in the lattice for every generator gam puts all of
    h Lambda h^{-1} there.  Those two kinds are therefore decided at the
    first grid point where f evaluates, and the verdict is a proof either
    way.  Theta, inversion and composite maps are searched over the whole
    grid of max(samples, 24) points, 24 fixed ones and then seeded draws: a
    found counterexample is a proof, an exhausted grid is reported as "no
    counterexample found".  A negative `samples` raises ValueError.
    Membership is only ever decided exactly, so the grid uses exact points
    with quarter-turn-compatible angles.  f is evaluated through
    apply_isometry, so a Theta, inside a Composite too, reads the blocks it
    rationalised at the first point.  A map that evaluates at no grid
    point (known defect) still reports preserving.  A map that does not fit
    the lattice raises ShapeMismatch.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    _check_fits(f, spec.freqs)
    freqs, rng = spec.freqs, random.Random(seed)
    lams = spec.generators() + [spec.sample_member(rng) for _ in range(3)]
    for g in _exact_angle_grid(spec, samples, rng):
        try:
            fg_inv = invert(apply_isometry(f, g, freqs), freqs)
        except ValueError:
            continue  # outside the exact-angle domain: re-gridded elsewhere
        for lam in lams:
            try:
                moved = multiply(fg_inv, apply_isometry(f, multiply(g, lam, freqs), freqs), freqs)
            except ValueError:
                continue
            if not spec.contains(moved):
                return FiberVerdict(False, (g, lam))
        if isinstance(f, (LeftTranslation, Inner)):
            break  # moved does not depend on g: this point decides
    return FiberVerdict(True)


# -- structure relations -------------------------------------------------------


def structure_relations_check(
    blocks, v, t, freqs: FrequencyList, normalized: bool = True, seed: int = 0
) -> dict:
    """Evaluate both sides of the three factorization relations at
    RELATION_SAMPLES points; each holds within GROUP_MAP_TOL.

    (i)   theta(B) I_{(v,t)} theta(B)^{-1} = I_{(J B J^T v, t)}
    (ii)  s I_{(v,t)} s^{-1} = I_{(v,t)}
    (iii) s theta(B) s^{-1} = theta(B)

    Returns per-relation max deviation and a witness point where the
    deviation is attained; a deviation that is not finite (inputs that
    overflow, or nan) raises ValueError.  J is the block matrix with
    [[0,1],[-1,0]] blocks, matching the group cocycle.
    """
    rng = random.Random(seed)
    n2 = 2 * freqs.n
    v = np.asarray(v, dtype=float).reshape(n2)
    t = float(t)
    h = GroupElement(0.0, v.tolist(), t)
    theta = Theta(blocks, normalized)  # refuses non-finite blocks before det reads them
    blocks = theta._fitted(freqs)
    bfull = _full_block(blocks, freqs)
    j = _j_matrix(freqs.n)
    with np.errstate(invalid="ignore", over="ignore"):  # refused below, not warned
        jbjv = (j @ bfull @ j.T @ v).tolist()
    h_conj = GroupElement(0.0, jbjv, t)
    # diagnostic variant: reflections conjugate to the parameter (JBJ^T v, -t);
    # uniform-orientation blocks make det(B) per run a single sign
    det_sign = 1.0 if float(np.linalg.det(bfull)) > 0 else -1.0
    h_adj = GroupElement(0.0, jbjv, det_sign * t)
    points = [
        GroupElement(rng.uniform(-2, 2), [rng.uniform(-2, 2) for _ in range(n2)], rng.uniform(-3, 3))
        for _ in range(RELATION_SAMPLES)
    ]
    if normalized:
        theta_inv = Theta([b.T for b in blocks], True).at
    else:
        # unnormalized theta is v -> S v with S = P^T B P; invert S pointwise
        theta_inv = lambda g, freqs: _theta(blocks, g, freqs, False, np.linalg.solve)
    conjugated = [theta.at(conjugate(h, theta_inv(x, freqs), freqs), freqs) for x in points]
    inverses = [invert(x, freqs) for x in points]
    sides = {  # relation -> (left sides, right sides) at the points
        "i": (conjugated, [conjugate(h_conj, x, freqs) for x in points]),
        "i_orientation_adjusted": (conjugated, [conjugate(h_adj, x, freqs) for x in points]),
        "ii": (
            [invert(conjugate(h, y, freqs), freqs) for y in inverses],
            [conjugate(h, x, freqs) for x in points],
        ),
        "iii": ([invert(theta.at(y, freqs), freqs) for y in inverses],
                [theta.at(x, freqs) for x in points]),
    }
    report = {}
    for name, (lhs, rhs) in sides.items():
        worst, witness = 0.0, None
        for x, left, right in zip(points, lhs, rhs):
            err = max_coord_dist(left, right)
            if not math.isfinite(err):
                raise ValueError(f"relation {name}: the deviation is not finite at {x.to_json()}")
            if err > worst:
                worst, witness = err, x
        report[name] = {"max_err": worst, "holds": worst <= GROUP_MAP_TOL, "witness": witness}
    report["all_hold"] = all(report[k]["holds"] for k in ("i", "ii", "iii"))
    return report


def _full_block(blocks, freqs: FrequencyList) -> np.ndarray:
    """blockdiag of the blocks, already checked against the runs."""
    n2 = 2 * freqs.n
    out = np.zeros((n2, n2))
    for (_, sl), b in zip(_run_slices(freqs), blocks):
        out[sl, sl] = b
    return out


def _j_matrix(n: int) -> np.ndarray:
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n), j2)


# -- automorphism intersection --------------------------------------------------


def aut_intersection_check(el: IsotropyElement) -> bool:
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
        if np.max(np.abs(candidate.T @ j @ candidate - j)) > ALGEBRA_TOL:
            return False
    return True
