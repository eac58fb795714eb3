"""The benchmark's workloads: seeded inputs, one item at a time, checked answers.

Each workload builds its whole input pool from the seed in its constructor
(that is the set-up the benchmark times) and then runs items by index.
`run(i)` returns `(ok, verdict)`: `ok` is the answer check, `verdict` a
JSON-able summary of the answer that goes into the run's digest.  Items
are grouped in rounds of `round_size`; a timed run always ends on a round
boundary so that every run holds the same mix.

Oscgeo is reached only through module attributes (`normalizers.in_normalizer`,
never a name bound at import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np

from oscgeo import algebra, cli, exact, geodesics, group, isometries, lattices
from oscgeo import normalizers, quotient

PI = exact.PI
CERT_TOL = 1e-9
RK4_TOL = 1e-6
FLOW_TOL = 1e-9


class Workload:
    """Base: a seeded input pool and a per-item runner with answer checks."""

    name = ""
    round_size = 1
    trace_items = 0  # items in a traced run, and in the verdict digest
    tail_percentile = 90.0  # the tail latency reported; runs reach >= 10 beyond it

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.items = self.build()

    def build(self) -> list:
        raise NotImplementedError

    def run(self, i: int) -> tuple[bool, object]:
        raise NotImplementedError

    def item(self, i: int):
        return self.items[i % len(self.items)]


# -- normalizer-sweep -----------------------------------------------------------


def criterion7_specs() -> list:
    """The 9 dim-4 and 51 dim-6 families of the normalizer acceptance sweep."""
    specs = [
        lattices.Dim4Family(k, angle)
        for k in (1, 2, 3)
        for angle in (2 * PI, PI, PI / 2)
    ]
    for k, p, q in itertools.product((1, 2, 3), repeat=3):
        if math.gcd(p, q) != 1:
            continue
        specs.append(lattices.Dim6Family(k, p, q, 1))
        if q % 2 == 1:
            specs.append(lattices.Dim6Family(k, p, q, 2))
            specs.append(lattices.Dim6Family(k, p, q, 4))
    return specs


class NormalizerSweep(Workload):
    """One item: conditions and oracle on one grid point; they must agree.

    Item i takes family i mod 60 and a seeded point of its grid, so each
    round visits every family once.
    """

    name = "normalizer-sweep"
    round_size = 60
    tail_percentile = 99.0
    trace_items = 1500
    POOL = 12000

    def build(self) -> list:
        specs = criterion7_specs()
        grids = [
            normalizers.verification_grid(s, min_points=500, max_points=640)
            for s in specs
        ]
        return [
            (specs[i % len(specs)], self.rng.choice(grids[i % len(specs)]))
            for i in range(self.POOL)
        ]

    def run(self, i):
        spec, g = self.item(i)
        conditions = normalizers.in_normalizer(g, spec)
        oracle = normalizers.normalizer_oracle(g, spec)
        return conditions == oracle, conditions


# -- closure-search ---------------------------------------------------------------


def _small_rational(rng, nonzero=False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if value or not nonzero:
            return value


def _dim4(rng):
    return lattices.Dim4Family(rng.randint(1, 3), rng.choice((2 * PI, PI, PI / 2)))


def _dim6(rng):
    while True:
        k, p, q = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        m_div = rng.choice((1, 2, 4))
        if math.gcd(p, q) == 1 and (m_div == 1 or q % 2 == 1):
            return lattices.Dim6Family(k, p, q, m_div)


def _base(rng):
    return _dim4(rng) if rng.random() < 0.5 else _dim6(rng)


# One lattice of each group per round: the exact layer is reached through
# certificates on product families, integer and rational twists (PiPoly
# products and sign decisions), and pi twists, whose certificates are a
# documented refusal.
LATTICE_GROUPS = (
    _dim4,
    _dim6,
    lambda rng: lattices.Twisted(_base(rng), rng.choice((1, 2, 3, -1))),
    lambda rng: lattices.Twisted(
        _base(rng), rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3)))
    ),
    lambda rng: lattices.Twisted(_base(rng), rng.choice((PI, PI / 2, -2 * PI))),
)


class ClosureSearch(Workload):
    """One item: classify, certify, and three bounded closure searches."""

    name = "closure-search"
    round_size = len(LATTICE_GROUPS)
    trace_items = 60
    POOL = 400
    R_CERT = 40
    R_EXACT = 40
    R_FLOAT = 100

    def build(self) -> list:
        out = []
        for i in range(self.POOL):
            spec = LATTICE_GROUPS[i % len(LATTICE_GROUPS)](self.rng)
            n = spec.freqs.n
            x_exact = algebra.AlgebraVector(
                _small_rational(self.rng),
                [(_small_rational(self.rng), _small_rational(self.rng)) for _ in range(n)],
                _small_rational(self.rng, nonzero=True),
            )
            x_float = algebra.AlgebraVector(
                self.rng.uniform(-2, 2),
                [(self.rng.uniform(-2, 2), self.rng.uniform(-2, 2)) for _ in range(n)],
                self.rng.choice((-1, 1)) * self.rng.uniform(0.25, 2),
            )
            out.append((spec, x_exact, x_float))
        return out

    def run(self, i):
        spec, x_exact, x_float = self.item(i)
        ok = True
        verdict = {"lightlike": quotient.classify_lightlike(spec).kind}
        try:
            timelike, spacelike = quotient.closed_timelike_and_spacelike(spec)
        except lattices.UnsupportedSpec:
            verdict["certify"] = "refused"
        else:
            for cert, wanted in (
                (timelike, algebra.CausalClass.TIMELIKE),
                (spacelike, algebra.CausalClass.SPACELIKE),
            ):
                cert.verify(spec, tol=CERT_TOL)
                ok = ok and cert.causal == wanted
            verdict["certify"] = [c.lattice_point.to_json() for c in (timelike, spacelike)]
            closed = quotient.search_closed(timelike.initial_exact, spec, r_max=self.R_CERT)
            ok = ok and closed is not None
            verdict["certificate_search"] = self._check(closed, spec)
        verdict["exact_search"] = self._check(
            quotient.search_closed(x_exact, spec, r_max=self.R_EXACT), spec
        )
        verdict["float_search"] = self._check(
            quotient.search_closed(x_float, spec, r_max=self.R_FLOAT), spec
        )
        return ok, verdict

    @staticmethod
    def _check(cert, spec):
        """Re-verify a found certificate at 1e-9; CertificateVerificationFailed
        propagates and fails the item."""
        if cert is None:
            return None
        cert.verify(spec, tol=CERT_TOL)
        return cert.lattice_point.to_json()


# -- geodesic-float ---------------------------------------------------------------


class GeodesicFloat(Workload):
    """One item: an RK4 batch against the closed form, plus flow-law samples."""

    name = "geodesic-float"
    # batch 1 is overhead-bound, 1000 numpy-bound; an odd count of sizes
    # keeps the median latency inside one size class
    BATCH_SIZES = (1, 32, 1000)
    round_size = len(BATCH_SIZES)
    trace_items = 60
    POOL = 600
    STEPS = 50
    STEP = 1e-3
    GRID_SAMPLES = 9

    def build(self) -> list:
        np_rng = np.random.default_rng(self.rng.randrange(2**32))
        out = []
        for i in range(self.POOL):
            n = self.rng.choice((1, 2))
            lams = [min(Fraction(self.rng.randint(1, 6), self.rng.randint(2, 4)), Fraction(3))
                    for _ in range(n)]
            freqs = algebra.FrequencyList(lams)
            size = self.BATCH_SIZES[i % len(self.BATCH_SIZES)]
            initials = np_rng.uniform(-2.0, 2.0, size=(size, freqs.dim))
            lo = self.rng.uniform(-3.0, 0.0)
            out.append((freqs, initials, lo, lo + self.rng.uniform(1.0, 3.0)))
        return out

    def run(self, i):
        freqs, initials, lo, hi = self.item(i)
        s_end = self.STEPS * self.STEP
        finals = geodesics.integrate_geodesic_batch(initials, s_end, self.STEP, freqs)
        worst = 0.0
        for row, final in zip(initials, finals):
            geo = geodesics.Geodesic(algebra.AlgebraVector.from_coords(list(row)), freqs)
            closed = geodesics.eval_geodesic(geo, s_end).coords()
            worst = max(worst, max(abs(a - b) for a, b in zip(final, closed)))
        # sample the first velocity along an s-grid, as `geodesic eval` does,
        # and check the one-parameter-subgroup law between grid neighbours
        geo = geodesics.Geodesic(algebra.AlgebraVector.from_coords(list(initials[0])), freqs)
        ss = [float(s) for s in np.linspace(lo, hi, self.GRID_SAMPLES)]
        points = [geodesics.eval_geodesic(geo, s) for s in ss]
        flow = 0.0
        for (s, p), (t, q) in zip(zip(ss, points), zip(ss[1:], points[1:])):
            lhs = geodesics.eval_geodesic(geo, s + t)
            flow = max(flow, group.max_coord_dist(lhs, group.multiply(p, q, freqs)))
        ok = worst <= RK4_TOL and flow <= FLOW_TOL
        digest_rows = np.round(finals, 4).tolist() + [np.round(points[-1].coords(), 4).tolist()]
        return ok, digest_rows


# -- cli-reports -------------------------------------------------------------------


def _lattice_text(spec) -> str:
    return json.dumps(spec.to_json())


def _element_text(rng, n: int) -> str:
    z = str(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 4))))
    v = [str(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4)))) for _ in range(2 * n)]
    t = rng.choice(("0", "pi/2", "pi", "2pi", "-pi/2", "3pi/2"))
    return json.dumps({"z": z, "v": v, "t": t})


def _velocity_text(rng, n: int, with_t=True) -> str:
    terms = [f"{Fraction(rng.randint(-4, 4), rng.randint(1, 3))}*Z"]
    for j in range(1, n + 1):
        terms.append(f"{Fraction(rng.randint(-4, 4), rng.randint(1, 3))}*X{j}")
        terms.append(f"{Fraction(rng.randint(-4, 4), rng.randint(1, 3))}*Y{j}")
    if with_t:
        terms.append(f"{Fraction(rng.randint(1, 4), rng.randint(1, 3))}*T")
    return " + ".join(terms).replace("+ -", "- ")


def _rotation_block(rng) -> list:
    phi = rng.uniform(0.0, 2 * math.pi)
    rot = [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
    if rng.random() < 0.5:
        rot = [[rot[0][0], -rot[0][1]], [rot[1][0], -rot[1][1]]]  # mirror block
    return [[round(x, 12) for x in row] for row in rot]


def _isotropy_matrix_text(rng, freqs) -> str:
    blocks, cs = [], []
    for _, mult in freqs.runs():
        size = 2 * mult
        q, r = np.linalg.qr(np.array([[rng.gauss(0, 1) for _ in range(size)] for _ in range(size)]))
        blocks.append(q * np.sign(np.diag(r)))
        cs.append([rng.uniform(-1, 1) for _ in range(size)])
    el = isometries.IsotropyElement(rng.choice((1, -1)), blocks, cs)
    return json.dumps(isometries.isotropy_matrix(el, freqs).tolist())


def _lattice_args(rng) -> tuple:
    spec = _base(rng)
    return spec, ["--lattice", _lattice_text(spec)]


def _cmd_geodesic_eval(rng):
    spec, lat = _lattice_args(rng)
    lo = rng.randint(-3, 1)
    return ["geodesic", "eval", f"--X={_velocity_text(rng, spec.freqs.n)}", *lat,
            f"--s={lo}..{lo + rng.randint(1, 3)}", "--samples", str(rng.randint(3, 20))]


def _cmd_geodesic_integrate(rng):
    spec, lat = _lattice_args(rng)
    return ["geodesic", "integrate", f"--X={_velocity_text(rng, spec.freqs.n)}", *lat,
            "--s-end", "0.05", "--step", "1e-3"]


def _cmd_geodesic_character(rng):
    spec, lat = _lattice_args(rng)
    return ["geodesic", "character",
            f"--X={_velocity_text(rng, spec.freqs.n, with_t=rng.random() < 0.7)}", *lat]


def _cmd_lattice_info(rng):
    spec = rng.choice(LATTICE_GROUPS)(rng)
    return ["lattice", "info", "--lattice", _lattice_text(spec)]


def _cmd_lattice_contains(rng):
    spec = rng.choice(LATTICE_GROUPS[:4])(rng)
    return ["lattice", "contains", "--lattice", _lattice_text(spec),
            "--element", _element_text(rng, spec.freqs.n)]


def _cmd_classify(rng):
    spec = rng.choice(LATTICE_GROUPS)(rng)
    return ["quotient", "classify", "--lattice", _lattice_text(spec)]


def _cmd_certify(rng):
    spec = rng.choice(LATTICE_GROUPS[:4])(rng)
    return ["quotient", "certify-causal", "--lattice", _lattice_text(spec)]


def _cmd_closed_search(rng):
    spec = rng.choice(LATTICE_GROUPS[:4])(rng)
    x = rng.choice(("T", "Z + T", _velocity_text(rng, spec.freqs.n)))
    return ["quotient", "closed-search", "--lattice", _lattice_text(spec),
            f"--X={x}", "--r-max", "15"]


def _cmd_product_line(rng):
    w2 = rng.choice(("1", "2pi", "pi", "irrational", "1/2 pi", "3"))
    return ["quotient", "product-line", "--lattice", json.dumps(
        {"family": "product_line", "w2": w2, "base": _dim4(rng).to_json()})]


def _cmd_check_matrix(rng):
    freqs = rng.choice(([1], [1, 1], [1, "1/2"]))
    fl = algebra.FrequencyList([Fraction(x) for x in freqs])
    return ["isometry", "check-matrix", "--matrix", _isotropy_matrix_text(rng, fl),
            "--freqs", json.dumps(freqs)]


def _cmd_decompose(rng):
    freqs = rng.choice(([1], [1, 1], [1, "1/2"]))
    fl = algebra.FrequencyList([Fraction(x) for x in freqs])
    return ["isometry", "decompose", "--matrix", _isotropy_matrix_text(rng, fl),
            "--freqs", json.dumps(freqs)]


def _cmd_normalizer_element(rng):
    spec = _base(rng)
    return ["isometry", "normalizer", "--lattice", _lattice_text(spec),
            "--element", _element_text(rng, spec.freqs.n)]


def _fiber_command(kind: str, family):
    """`isometry fiber` with one map kind; the maps differ in cost by 10x or
    more, so each round holds a fixed number of each."""

    def command(rng):
        spec = family(rng)
        n = spec.freqs.n
        args = ["isometry", "fiber", "--lattice", _lattice_text(spec), "--samples", "16"]
        if kind == "theta":
            blocks = [_rotation_block(rng) for _ in range(n)]
            return args + ["--map", "theta", "--blocks", json.dumps(blocks)]
        if kind in ("left", "inner"):
            return args + ["--map", f"{kind}:{_element_text(rng, n)}"]
        return args + ["--map", "inversion"]

    return command


def _cmd_relations(rng):
    return ["isometry", "relations", "--blocks", json.dumps([_rotation_block(rng)]),
            "--v", json.dumps([round(rng.uniform(-2, 2), 6), round(rng.uniform(-2, 2), 6)]),
            f"--t={round(rng.uniform(-3, 3), 6)}"]


# Validation errors the CLI already maps to a JSON report and exit 2.
MALFORMED = (
    lambda rng: ["lattice", "info", "--lattice", f"dim4:k={rng.randint(1, 3)}"],
    lambda rng: ["lattice", "info", "--lattice", "bogus:k=1"],
    lambda rng: ["quotient", "classify", "--lattice",
                 f"dim4:k=1:angle={rng.choice(('3pi', 'pi/3'))}"],
    lambda rng: ["lattice", "contains", "--lattice", "dim4:k=1:angle=2pi", "--element", '{"z":1}'],
    lambda rng: ["geodesic", "eval", "--X", rng.choice(("Q1", "W", "2*")), "--s", "1..2"],
    lambda rng: ["geodesic", "eval", "--X", "Z", "--s", "1-2"],
    lambda rng: ["isometry", "fiber", "--lattice", "dim4:k=1:angle=2pi", "--map", "bogus"],
    lambda rng: ["quotient", "product-line", "--lattice", _lattice_text(_dim4(rng))],
    lambda rng: ["isometry", "normalizer",
                 "--lattice", _lattice_text(lattices.Twisted(_dim4(rng), 1)),
                 "--element", _element_text(rng, 1)],
    lambda rng: ["quotient", "certify-causal", "--lattice",
                 _lattice_text(lattices.Twisted(_dim4(rng), PI))],
    lambda rng: ["isometry", "check-matrix", "--matrix", "[[1,2],[3]]"],
)

# Inputs that break the CLI contract (a JSON report with exit 0, 2 or 3):
# they escape as tracebacks, report success on invalid input, or print no
# report.  Kept out of `cli-reports` and run by `cli-breaches`, where each
# one counts as a failure.
BREACHES = (
    lambda rng: ["lattice", "info", "--lattice", '{"family":"dim4"}'],
    lambda rng: ["geodesic", "eval", "--X", "X3", "--lattice", "dim4:k=1:angle=2pi",
                 "--s", "0..1"],
    lambda rng: ["lattice", "info", "--lattice", "dim4:k=1:angle=1/0"],
    lambda rng: ["quotient", "closed-search", "--lattice", "dim4:k=1:angle=2pi", "--X", "T",
                 "--r-max", "-5"],
    lambda rng: ["quotient", "closed-search", "--lattice", "dim4:k=1:angle=2pi"],
)

# (generator, commands per round); each exits 0.  Cost knobs (--r-max,
# --samples, --s-end) are fixed so that seeds vary the inputs, not the work.
WELL_FORMED = (
    (_cmd_geodesic_eval, 24),
    (_cmd_geodesic_integrate, 8),
    (_cmd_geodesic_character, 16),
    (_cmd_lattice_info, 20),
    (_cmd_lattice_contains, 20),
    (_cmd_classify, 20),
    (_cmd_certify, 12),
    (_cmd_closed_search, 12),
    (_cmd_product_line, 16),
    (_cmd_check_matrix, 16),
    (_cmd_decompose, 16),
    (_cmd_normalizer_element, 16),
    *((_fiber_command(kind, family), 1)
      for kind in ("inversion", "theta", "left", "inner") for family in (_dim4, _dim6)),
    (_cmd_relations, 12),
)
MALFORMED_PER_ROUND = 3  # of each malformed kind
BREACHES_PER_ROUND = 4   # of each breach kind, cli-breaches only
# `--grid-points` floors at 500 points, so one grid command costs about as
# much as 100 other commands: one per round keeps it visible but small
GRID_COMMAND = ["isometry", "normalizer", "--lattice", "dim4:k=1:angle=pi",
                "--grid", "default", "--grid-points", "60"]


def run_cli(argv) -> tuple[int | str, str]:
    """cli.main in-process; returns (exit code or escaped exception, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a contract breach, counted by the caller
            code = f"raised {type(exc).__name__}"
    return code, out.getvalue()


class CliReports(Workload):
    """One item: one CLI command with stdout captured and checked.

    Checks: the report parses as JSON, the exit code is the expected one,
    and a command seen before in the run prints the same report apart from
    `timestamp`.
    """

    name = "cli-reports"
    include_breaches = False
    trace_items = 300
    ROUNDS = 8

    def __init__(self, seed: int):
        self.seen: dict = {}  # command -> first report body, for the repeat check
        super().__init__(seed)

    def build(self) -> list:
        slots = [(gen, 0) for gen, count in WELL_FORMED for _ in range(count)]
        slots += [(gen, 2) for gen in MALFORMED for _ in range(MALFORMED_PER_ROUND)]
        if self.include_breaches:
            slots += [(gen, 2) for gen in BREACHES for _ in range(BREACHES_PER_ROUND)]
        self.round_size = len(slots) + 1
        out = []
        for _ in range(self.ROUNDS):
            round_items = [(gen(self.rng), code) for gen, code in slots]
            self.rng.shuffle(round_items)
            out.extend(round_items)
            out.append((GRID_COMMAND, 0))
        return out

    def run(self, i):
        argv, expected = self.item(i)
        code, text = run_cli(argv)
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return False, [code, None]
        report.pop("timestamp", None)
        body = json.dumps(report, sort_keys=True)
        key = "\0".join(argv)
        first = self.seen.setdefault(key, body)
        ok = code == expected and body == first
        return ok, [code, body]


class CliBreaches(CliReports):
    """`cli-reports` plus the inputs that currently break the CLI contract."""

    name = "cli-breaches"
    include_breaches = True


WORKLOADS = {
    w.name: w
    for w in (NormalizerSweep, ClosureSearch, GeodesicFloat, CliReports, CliBreaches)
}
