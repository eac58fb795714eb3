"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are fixed here and nowhere else.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from oscgeo.algebra import (
    AlgebraVector,
    CausalClass,
    FrequencyList,
    bracket,
    causal_quantity,
    inner,
)
from oscgeo.cli import main as cli_main
from oscgeo.exact import ExactScalar, PI
from oscgeo.geodesics import (
    Geodesic,
    eval_geodesic,
    integrate_geodesic_batch,
    metric_at,
    multiply,
)
from oscgeo.group import GroupElement, max_coord_dist
from oscgeo.isometries import (
    Inner,
    Inversion,
    IsotropyElement,
    Theta,
    is_fiber_preserving,
    isotropy_matrix,
    check_local_isometry,
    psi_decompose,
    structure_relations_check,
)
from oscgeo.lattices import Dim4Family, Dim6Family, ProductWithLine, Twisted
from oscgeo.normalizers import in_normalizer, normalizer_oracle, verification_grid
from oscgeo.quotient import (
    classify_lightlike,
    closed_timelike_and_spacelike,
    product_line_lightlike,
)

from lattice_specs import CRITERION_7_SPECS

TWO_PI = 2 * PI
HALF_PI = PI / 2


def report(num, label, t0):
    print(f"ACCEPTANCE {num}: PASS - {label} ({time.time() - t0:.2f}s)")


def test_criterion_1_algebra_identities_exact():
    t0 = time.time()
    rng = random.Random(101)
    for n in (1, 2, 3):
        lams = [
            Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)
        ]
        fl = FrequencyList(lams)
        basis = AlgebraVector.basis(n)
        for x, y, w in itertools.product(basis, repeat=3):
            assert inner(bracket(x, y, fl), w, fl) + inner(y, bracket(x, w, fl), fl) == 0
            jac = (
                bracket(x, bracket(y, w, fl), fl)
                + bracket(y, bracket(w, x, fl), fl)
                + bracket(w, bracket(x, y, fl), fl)
            )
            assert all(c == 0 for c in jac.coords())
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    report(1, "ad-invariance and Jacobi exact on all basis triples, n=1..3", t0)


def test_criterion_2_closed_form_vs_rk4():
    t0 = time.time()
    rng = random.Random(202)
    worst = 0.0
    for n in (1, 2):
        lams = [Fraction(rng.randint(1, 6), rng.randint(2, 4)) for _ in range(n)]
        fl = FrequencyList([min(l, Fraction(3)) for l in lams])
        initials = np.array(
            [[rng.uniform(-2, 2) for _ in range(fl.dim)] for _ in range(100)]
        )
        s_end = 5.0
        finals = integrate_geodesic_batch(initials, s_end, 1e-3, fl)
        for row, final in zip(initials, finals):
            x = AlgebraVector.from_coords(list(row))
            closed = eval_geodesic(Geodesic(x, fl), s_end)
            err = max(abs(a - b) for a, b in zip(final, closed.coords()))
            worst = max(worst, err)
    assert worst <= 1e-6, f"max coordinate error {worst:.3e} exceeds 1e-6"
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    report(2, f"closed form vs RK4, 100 ICs per n in (1,2), max err {worst:.2e}", t0)


def test_criterion_3_one_parameter_subgroup_law():
    t0 = time.time()
    rng = random.Random(303)
    fl1 = FrequencyList([1])
    fl2 = FrequencyList([2, Fraction(1, 2)])
    worst = 0.0
    for i in range(200):
        fl = fl1 if i % 2 else fl2
        x = AlgebraVector.from_coords([rng.uniform(-2, 2) for _ in range(fl.dim)])
        s, t = rng.uniform(-3, 3), rng.uniform(-3, 3)
        geo = Geodesic(x, fl)
        lhs = eval_geodesic(geo, s + t)
        rhs = multiply(eval_geodesic(geo, s), eval_geodesic(geo, t), fl)
        worst = max(worst, max_coord_dist(lhs, rhs))
    assert worst <= 1e-9, f"flow law violated by {worst:.3e}"
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    report(3, f"one-parameter subgroup law on 200 samples, max dev {worst:.2e}", t0)


def test_criterion_4_constant_causal_norm():
    t0 = time.time()
    rng = random.Random(404)
    h = 1e-6
    worst = 0.0
    for fl in (FrequencyList([1]), FrequencyList([1, 3])):
        for _ in range(10):
            x = AlgebraVector.from_coords(
                [rng.uniform(-2, 2) for _ in range(fl.dim)]
            )
            geo = Geodesic(x, fl)
            q0 = causal_quantity(x, fl)
            for s in np.linspace(-2.0, 2.0, 50):
                plus = eval_geodesic(geo, s + h).coords()
                minus = eval_geodesic(geo, s - h).coords()
                vel = [(a - b) / (2 * h) for a, b in zip(plus, minus)]
                val = metric_at(eval_geodesic(geo, s), vel, vel, fl)
                worst = max(worst, abs(val - q0))
    assert worst <= 1e-5, f"speed drift {worst:.3e} exceeds 1e-5"
    report(4, f"constant causal norm along geodesics, max drift {worst:.2e}", t0)


def test_criterion_5_lightlike_dichotomy_reproduction():
    t0 = time.time()
    for n in (1, 2, 3):
        for angle in (TWO_PI, PI, HALF_PI):
            verdict = classify_lightlike(Dim4Family(n, angle))
            assert verdict.all_closed
            assert Dim4Family(n, angle).contains(verdict.witness)
        for p in (1, 2, 3):
            verdict = classify_lightlike(Twisted(Dim4Family(n, TWO_PI), p))
            assert verdict.kind == "only_central_direction"
    report(5, "product families all-closed; integer twists only-central, n=1..3", t0)


def test_criterion_6_closed_causal_certificates():
    t0 = time.time()
    for spec, expected_k0 in ((Dim4Family(1, TWO_PI), 1), (Dim4Family(1, HALF_PI), 4)):
        assert spec.profile().k0 == expected_k0
        time_cert, space_cert = closed_timelike_and_spacelike(spec)
        assert time_cert.causal == CausalClass.TIMELIKE
        assert space_cert.causal == CausalClass.SPACELIKE
        for cert in (time_cert, space_cert):
            assert spec.contains(cert.lattice_point)  # exact membership
            approached = eval_geodesic(
                Geodesic(cert.initial, spec.freqs), float(cert.s_star)
            )
            err = max_coord_dist(approached, cert.lattice_point.to_floats())
            assert err <= 1e-9, f"float re-verification error {err:.3e}"
            cert.verify(spec, tol=1e-9)
    report(6, "closed timelike and spacelike certificates for K0=1 and K0=4", t0)


def test_criterion_7_normalizer_tables_vs_oracle():
    t0 = time.time()
    specs = CRITERION_7_SPECS
    # every conditions row must be exercised: all parity combinations on
    # (p, k) appear for each M among the generated specs
    combos = {(s.m_div, s.p % 2, s.k % 2) for s in specs if isinstance(s, Dim6Family)}
    assert {(4, 0, 0), (4, 0, 1), (4, 1, 0), (4, 1, 1)} <= combos
    assert {(2, 0, 0), (2, 1, 1)} <= combos
    total = 0
    for spec in specs:
        grid = verification_grid(spec, min_points=500, max_points=640)
        assert len(grid) >= 500
        for g in grid:
            assert in_normalizer(g, spec) == normalizer_oracle(g, spec), (
                spec.to_json(),
                g.to_json(),
            )
        total += len(grid)
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
    report(
        7,
        f"normalizer conditions = oracle on {total} points over {len(specs)} families",
        t0,
    )


def test_criterion_8_fiber_preservation():
    t0 = time.time()
    spec = Dim4Family(1, TWO_PI)
    inv_verdict = is_fiber_preserving(Inversion(), spec)
    assert not inv_verdict.preserving and inv_verdict.counterexample is not None
    theta_verdict = is_fiber_preserving(Theta([np.diag([1.0, -1.0])]), spec)
    assert not theta_verdict.preserving and theta_verdict.counterexample is not None
    rng = random.Random(808)
    v_values = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1), Fraction(1, 4)]
    t_values = [ExactScalar(0), HALF_PI, PI, -HALF_PI]
    matched = 0
    for _ in range(100):
        h = GroupElement(
            ExactScalar(Fraction(rng.randint(-3, 3), 3)),
            (rng.choice(v_values), rng.choice(v_values)),
            rng.choice(t_values),
        )
        expected = in_normalizer(h, spec)
        got = is_fiber_preserving(Inner(h), spec, samples=12).preserving
        assert got == expected, h.to_json()
        matched += 1
    report(
        8,
        "inversion and mirror-theta counterexamples found; "
        f"inner verdicts matched the normalizer on {matched} samples",
        t0,
    )


def test_criterion_9_isotropy_consistency():
    t0 = time.time()
    rng = np.random.default_rng(909)
    fls = [FrequencyList([1]), FrequencyList([2, 2]), FrequencyList([1, 1, 3])]
    for i in range(100):
        fl = fls[i % len(fls)]
        blocks = []
        cs = []
        for _, m in fl.runs():
            q, r = np.linalg.qr(rng.normal(size=(2 * m, 2 * m)))
            blocks.append(q * np.sign(np.diag(r)))
            cs.append(rng.normal(size=2 * m))
        eps = 1 if i % 2 else -1
        el = IsotropyElement(eps, blocks, cs)
        a = isotropy_matrix(el, fl)
        assert check_local_isometry(a, fl)
        eps_r, blocks_r, c_r = psi_decompose(a, fl)
        assert eps_r == eps
        rebuilt = isotropy_matrix(IsotropyElement(eps_r, blocks_r,
                                  np.split(c_r, np.cumsum([b.shape[0] for b in blocks_r])[:-1])), fl)
        assert np.max(np.abs(rebuilt - a)) <= 1e-10
    report(9, "100 isotropy elements pass the local-isometry check and round-trip", t0)


def test_criterion_10_structure_relations():
    t0 = time.time()
    rng = random.Random(1010)
    fl = FrequencyList([1])
    rotations_checked = reflections_witnessed = 0
    for _ in range(50):
        phi = rng.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        reflect = rng.random() < 0.5
        b = rot @ np.diag([1.0, -1.0]) if reflect else rot
        v = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        t = rng.uniform(-3, 3)
        rep = structure_relations_check([b], v, t, fl, normalized=True, seed=rng.randrange(10**6))
        assert rep["ii"]["holds"], "inversion conjugation relation failed"
        assert rep["iii"]["holds"], "inversion/theta commutation relation failed"
        if not reflect:
            assert rep["i"]["holds"], f"rotation-block relation failed: {rep['i']}"
            rotations_checked += 1
        else:
            # the stated relation fails for mirror blocks; the checker must
            # surface a witness, and the orientation-adjusted form holds
            assert not rep["i"]["holds"]
            w = rep["i"]["witness"]
            assert w is not None
            print(
                f"  relation (i) witness for mirror block: point "
                f"{[round(c, 4) for c in w.coords()]}, err {rep['i']['max_err']:.2e}"
            )
            assert rep["i_orientation_adjusted"]["holds"]
            reflections_witnessed += 1
    assert rotations_checked > 0 and reflections_witnessed > 0
    report(
        10,
        f"relations (ii)-(iii) hold on 50 samples; (i) holds on {rotations_checked} "
        f"rotation blocks and is witnessed on {reflections_witnessed} mirror blocks",
        t0,
    )


def test_criterion_11_product_line_counterexample():
    t0 = time.time()
    base = Dim4Family(1, TWO_PI)
    assert product_line_lightlike(
        ProductWithLine(base, w_squared=ExactScalar(1))
    ).kind == "never_closed"
    assert product_line_lightlike(
        ProductWithLine(base, w_squared="irrational")  # e.g. the line step e
    ).kind == "never_closed"
    assert product_line_lightlike(
        ProductWithLine(base, w_squared=TWO_PI)
    ).kind == "some_closed_possible"
    report(11, "product-with-line verdicts for w^2 = 1, irrational, 2pi", t0)


def test_criterion_12_determinism(capsys, tmp_path):
    t0 = time.time()
    suite = [
        ["quotient", "classify", "--lattice", "dim4:k=2:angle=pi"],
        ["quotient", "certify-causal", "--lattice", "dim4:k=1:angle=pi/2"],
        ["quotient", "closed-search", "--lattice", "dim4:k=1:angle=2pi", "--X", "T"],
        ["lattice", "info", "--lattice", "dim6:k=1:p=2:q=3:M=4"],
        ["isometry", "normalizer", "--lattice", "dim6:k=1:p=1:q=1:M=2",
         "--grid", "default", "--grid-points", "60"],
        ["isometry", "fiber", "--lattice", "dim4:k=1:angle=2pi", "--map", "inversion"],
        ["isometry", "relations", "--blocks", "[[[0.6, -0.8], [0.8, 0.6]]]",
         "--v", "[1.0, 0.5]", "--t", "0.9"],
    ]

    def run_all():
        outputs = []
        for argv in suite:
            code = cli_main(argv + ["--seed", "11"])
            out = capsys.readouterr().out
            assert code == 0, out
            payload = json.loads(out)
            payload.pop("timestamp")
            outputs.append(json.dumps(payload, sort_keys=True))
        return outputs

    first = run_all()
    second = run_all()
    assert first == second
    report(12, f"two seeded runs of {len(suite)} report commands byte-identical", t0)
