import contextlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscgeo import cli, normalizers
from oscgeo.algebra import AlgebraVector, CausalClass
from oscgeo.cli import VERBS, CliValidationError, build_parser, main, parse_lattice, parse_velocity
from oscgeo.exact import PI, parse_exact
from oscgeo.group import GroupElement, is_quarter_turn
from oscgeo.lattices import Dim4Family, Dim6Family, ProductWithLine, Twisted
from oscgeo.normalizers import in_normalizer, normalizer_oracle
from oscgeo.quotient import ClosedGeodesicCertificate, search_closed

from cli_contract import CHECKS
from test_isometries import pair_swap

LATTICE = "dim4:k=1:angle=2pi"
PI_TWIST = '{"family": "twisted", "m": "pi", "base": {"family": "dim4", "k": 1, "angle": "2pi"}}'
VACUOUS = pytest.mark.xfail(
    strict=True,
    reason="a fiber search that checks no (g, lam) pair still reports 'preserving': the "
    "cli-reports benchmark workload runs such a command (inner conjugation on a dim-6 "
    "lattice with p/q = 2/3) and expects exit 0, so the fix waits for the next benchmark change",
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


class Expired(BaseException):
    """Raised by `time_limit`; cli.main catches no BaseException of its own."""


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise Expired(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestParsers:
    def test_lattice_shorthand(self):
        spec = parse_lattice("dim4:k=1:angle=2pi")
        assert isinstance(spec, Dim4Family) and spec.k == 1
        spec = parse_lattice("dim6:k=2:p=1:q=3:M=4")
        assert isinstance(spec, Dim6Family) and spec.m_div == 4

    def test_lattice_json(self):
        spec = parse_lattice('{"family": "twisted", "m": "1", "base": {"family": "dim4", "k": 1, "angle": "2pi"}}')
        assert isinstance(spec, Twisted)
        spec = parse_lattice('{"family": "product_line", "w2": "2pi", "base": {"family": "dim4", "k": 1, "angle": "2pi"}}')
        assert isinstance(spec, ProductWithLine)

    def test_velocity_names(self):
        x = parse_velocity("Z", 1)
        assert x.d == 1 and x.a == 0
        x = parse_velocity("2*Z + X1 - 1/2*T", 1)
        assert x.d == 2 and x.bc[0][0] == 1 and x.a == -0.5

    @pytest.mark.parametrize("text, d, a", [("1e-3*T + Z", 1, Fraction(1, 1000)),
                                            ("2.5E+2*T", 0, 250), ("1e3*T-Z", -1, 1000)])
    def test_velocity_coefficient_with_a_signed_exponent(self, text, d, a):
        x = parse_velocity(text, 1)
        assert (x.d, x.a) == (d, a)

    @pytest.mark.parametrize("text", ["1e - 3*T", "1e -3*T", "1e+*T"])
    def test_velocity_exponent_sign_must_follow_its_e(self, text):
        with pytest.raises(ValueError):  # exit 2 in the CLI
            parse_velocity(text, 1)

    def test_velocity_json(self):
        x = parse_velocity('{"d": "1/2", "bc": [[1, 0]], "a": 2}', 1)
        assert float(x.d) == 0.5 and x.a == 2

    def test_velocity_has_the_given_dimension(self):
        x = parse_velocity("X1", 2)
        assert x.n == 2

    def test_velocity_json_needs_bc(self):
        with pytest.raises(CliValidationError, match="bc"):
            parse_velocity('{"d": 1, "a": 1}', 1)


class TestCommands:
    def test_quotient_classify_all_closed(self, capsys):
        code, rep = run_cli(capsys, "quotient", "classify", "--lattice", "dim4:k=1:angle=2pi")
        assert code == 0
        assert rep["verdicts"]["lightlike"]["kind"] == "all_closed"

    def test_quotient_classify_twisted(self, capsys):
        lattice = '{"family": "twisted", "m": "2", "base": {"family": "dim4", "k": 1, "angle": "2pi"}}'
        code, rep = run_cli(capsys, "quotient", "classify", "--lattice", lattice)
        assert code == 0
        assert rep["verdicts"]["lightlike"]["kind"] == "only_central_direction"

    def test_geodesic_eval_central_direction(self, capsys, tmp_path):
        csv = tmp_path / "rows.csv"
        code, rep = run_cli(
            capsys, "geodesic", "eval", "--X", "Z", "--s", "1..3",
            "--samples", "3", "--csv", str(csv),
        )
        assert code == 0
        rows = rep["tables"]["rows"]
        assert rows[0] == [1.0, 1.0, 0.0, 0.0, 0.0]
        assert rows[2] == [3.0, 3.0, 0.0, 0.0, 0.0]
        lines = csv.read_text().splitlines()
        assert lines[0] == "s,z,x1,y1,t"
        assert len(lines) == 4

    def test_geodesic_integrate_agreement(self, capsys):
        code, rep = run_cli(
            capsys, "geodesic", "integrate", "--X", "X1 + T", "--s-end", "2.0",
        )
        assert code == 0
        assert rep["verdicts"]["max_error_vs_closed_form"] < 1e-7

    def test_geodesic_character(self, capsys):
        code, rep = run_cli(capsys, "geodesic", "character", "--X", "Z - T")
        assert code == 0
        assert rep["verdicts"]["causal"] == "timelike"

    def test_geodesic_character_decides_exact_input_exactly(self, capsys):
        # <x, x> = 2 * 10^-13: spacelike, although inside the float tolerance
        code, rep = run_cli(capsys, "geodesic", "character", "--X", "1/10000000000000*Z + T")
        assert code == 0
        assert rep["verdicts"]["causal"] == "spacelike"
        # float input keeps the tolerance
        code, rep = run_cli(
            capsys, "geodesic", "character", "--X", '{"d": 1e-13, "bc": [[0, 0]], "a": 1.0}'
        )
        assert code == 0
        assert rep["verdicts"]["causal"] == "lightlike"

    def test_lattice_info(self, capsys):
        code, rep = run_cli(capsys, "lattice", "info", "--lattice", "dim6:k=1:p=1:q=1:M=4")
        assert code == 0
        prof = rep["tables"]["profile"]
        assert prof["K0"] == 4 and prof["t0"] == "1/2 pi"

    def test_lattice_contains(self, capsys):
        element = '{"z": "1/4", "v": [3, -1], "t": "2pi"}'
        code, rep = run_cli(
            capsys, "lattice", "contains", "--lattice", "dim4:k=2:angle=2pi",
            "--element", element,
        )
        assert code == 0 and rep["verdicts"]["contains"] is True

    def test_quotient_certify_causal(self, capsys):
        code, rep = run_cli(
            capsys, "quotient", "certify-causal", "--lattice", "dim4:k=1:angle=pi/2"
        )
        assert code == 0
        causals = {c["causal"] for c in rep["certificates"]}
        assert causals == {"timelike", "spacelike"}

    def test_quotient_closed_search(self, capsys):
        code, rep = run_cli(
            capsys, "quotient", "closed-search", "--lattice", "dim4:k=1:angle=2pi",
            "--X", "T",
        )
        assert code == 0 and rep["verdicts"]["closed"] is True

    def test_quotient_decide_closed(self, capsys):
        # the least closing r is 1001, past closed-search's default bound of 1000
        code, rep = run_cli(
            capsys, "quotient", "decide-closed", "--lattice", "dim4:k=1:angle=2pi",
            "--X", '{"d": "1/2002", "bc": [[0, 0]], "a": "pi"}',
        )
        assert code == 0
        assert rep["verdicts"]["closure"] == {"kind": "closes", "r": 1001}
        assert rep["certificates"][0]["s_star"] == "2002"

    def test_quotient_decide_closed_never(self, capsys):
        lattice = '{"family": "twisted", "m": "1", "base": {"family": "dim4", "k": 1, "angle": "2pi"}}'
        code, rep = run_cli(
            capsys, "quotient", "decide-closed", "--lattice", lattice,
            "--X", '{"d": "-1/4", "bc": [[1, 0]], "a": 2}',
        )
        assert code == 0
        assert rep["verdicts"]["closure"]["kind"] == "never"
        assert rep["certificates"] == []

    @pytest.mark.parametrize("x, point", [
        ('{"d": "pi", "bc": [[0, 0]], "a": 0}', {"z": "1/2", "v": [0, 0], "t": 0}),
        ('{"d": 1, "bc": [["pi", 0]], "a": 0}', None),
        ('{"d": "pi", "bc": [["2pi", 0]], "a": 0}', {"z": "1/2", "v": [1, 0], "t": 0}),
    ])
    def test_line_with_a_pi_entry(self, capsys, x, point):
        code, rep = run_cli(capsys, "quotient", "decide-closed", "--lattice", LATTICE, "--X", x)
        assert code == 0
        assert rep["verdicts"]["closure"]["kind"] == ("never" if point is None else "closes")
        code, found = run_cli(capsys, "quotient", "closed-search", "--lattice", LATTICE, "--X", x)
        assert code == 0 and found["verdicts"]["closed"] is (point is not None)
        # s = 1 / (2 pi) is not in Q[pi]: the certificates replay in float only
        expected = [] if point is None else [(point, False)]
        for report in (rep, found):
            certs = report["certificates"]
            assert [(c["lattice_point"], c["exact_initial_data"]) for c in certs] == expected

    @pytest.mark.parametrize("x", [
        '{"d": 0, "bc": [[0, 0]], "a": 0}',
        '{"d": 0.0, "bc": [[0.0, 0.0]], "a": 0.0}',
    ])
    def test_zero_velocity_is_exit_2_on_both_verbs(self, capsys, x):
        for verb in ("decide-closed", "closed-search"):
            code, rep = run_cli(capsys, "quotient", verb, "--lattice", LATTICE, "--X", x)
            assert code == 2, verb
            assert any("the zero velocity gives the constant curve, closed at every s" in d
                       for d in rep["diagnostics"]), verb

    @pytest.mark.parametrize("a", ["1/1" + "0" * 400, "1" + "0" * 400])
    def test_quotient_decide_closed_with_a_beyond_the_float_range(self, capsys, a):
        # the decision is exact, but the certificate's float time is out of range
        x = json.dumps({"d": 0, "bc": [[0, 0]], "a": a})
        code, rep = run_cli(
            capsys, "quotient", "decide-closed", "--lattice", LATTICE, "--X", x)
        assert code == 2
        assert rep["diagnostics"]

    @pytest.mark.parametrize("a", ["1/1" + "0" * 400, "1" + "0" * 400])
    def test_out_of_range_certificate_names_the_decided_r(self, capsys, a):
        # the diagnostic was only "integer division result too large for a float"
        x = json.dumps({"d": 0, "bc": [[0, 0]], "a": a})
        code, rep = run_cli(
            capsys, "quotient", "decide-closed", "--lattice", LATTICE, "--X", x)
        assert code == 2
        assert any("closes at r = 1" in d and "float re-evaluation is out of range" in d
                   for d in rep["diagnostics"]), rep["diagnostics"]

    @pytest.mark.parametrize("inner,outer", [("1", "-1"), ("pi", "-pi")])
    def test_cancelling_nested_twists(self, capsys, inner, outer):
        lattice = json.dumps({"family": "twisted", "m": outer, "base": {
            "family": "twisted", "m": inner, "base": {"family": "dim4", "k": 1, "angle": "2pi"}}})
        code, rep = run_cli(capsys, "lattice", "info", "--lattice", lattice)
        assert code == 0
        assert rep["tables"]["profile"]["has_pure_t"] is True
        assert rep["tables"]["pure_t_element"]["t"] == "2 pi"
        code, rep = run_cli(capsys, "quotient", "classify", "--lattice", lattice)
        assert code == 0
        assert rep["verdicts"]["lightlike"]["kind"] == "all_closed"
        assert rep["verdicts"]["lightlike"]["witness"]["t"] == "2 pi"

    def test_quotient_decide_closed_refuses_float_data(self, capsys):
        code, rep = run_cli(
            capsys, "quotient", "decide-closed", "--lattice", "dim4:k=1:angle=2pi",
            "--X", '{"d": 0.5, "bc": [[0, 0]], "a": 1.0}',
        )
        assert code == 2
        assert any("exact initial data" in d for d in rep["diagnostics"])

    def test_closed_search_certifies_no_near_miss_of_an_irrational_v(self, capsys):
        # v = (b/pi, b/pi) at s = 1/2 is irrational, though within 1e-9 of (1, 1)
        code, rep = run_cli(
            capsys, "quotient", "closed-search", "--lattice", "dim4:k=1:angle=pi/2",
            "--X", '{"d": "-103993/66204", "bc": [["103993/33102", 0]], "a": "pi"}',
            "--r-max", "10",
        )
        assert code == 0
        assert rep["verdicts"]["closed"] is False
        assert rep["certificates"] == []
        assert rep["diagnostics"] == [
            "no candidate up to r_max=10 closes; quotient decide-closed decides every r"
        ]

    def test_closed_search_float_miss_is_no_proof(self, capsys):
        code, rep = run_cli(
            capsys, "quotient", "closed-search", "--lattice", LATTICE,
            "--X", '{"d": 0.1234, "bc": [[0.3, 0]], "a": 1.0}', "--r-max", "3",
        )
        assert code == 0 and rep["verdicts"]["closed"] is False
        assert rep["diagnostics"] == ["no closure within r_max=3; not a proof of openness"]

    def test_quotient_product_line(self, capsys):
        lattice = '{"family": "product_line", "w2": "1", "base": {"family": "dim4", "k": 1, "angle": "2pi"}}'
        code, rep = run_cli(capsys, "quotient", "product-line", "--lattice", lattice)
        assert code == 0
        assert rep["verdicts"]["product_line_lightlike"]["kind"] == "never_closed"

    def test_isometry_check_matrix(self, capsys):
        identity = json.dumps([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        code, rep = run_cli(capsys, "isometry", "check-matrix", "--matrix", identity)
        assert code == 0 and rep["verdicts"]["local_isometry"] is True

    def test_isometry_normalizer_grid(self, capsys):
        code, rep = run_cli(
            capsys, "isometry", "normalizer", "--lattice", "dim6:k=1:p=1:q=1:M=4",
            "--grid", "default", "--grid-points", "80",
        )
        assert code == 0
        assert rep["verdicts"]["oracle_agreement"] == 1.0

    def test_isometry_normalizer_grid_evaluates_the_conditions_once_per_point(
        self, capsys, monkeypatch
    ):
        calls = []

        def counted(g, spec):
            calls.append(g)
            return in_normalizer(g, spec)

        # both bindings: the CLI module's own and the one the report reads
        monkeypatch.setattr(cli, "in_normalizer", counted)
        monkeypatch.setattr(normalizers, "in_normalizer", counted)
        code, rep = run_cli(capsys, "isometry", "normalizer", "--lattice",
                            "dim4:k=2:angle=pi/2", "--grid-points", "60")
        assert code == 0
        assert rep["verdicts"]["points"] == 500
        assert len(calls) == 500

    def test_isometry_normalizer_grid_calls_the_oracle_once_per_coset_class(
        self, capsys, monkeypatch
    ):
        # the benchmark's grid command: 428 of its 500 points are quarter turns,
        # in 27 classes v mod Z^2; the other 72 each ask the oracle
        called, off_turn = [], 0

        def counted(g, spec):
            nonlocal off_turn
            if is_quarter_turn(g.t, spec.freqs):
                called.append((tuple(x % g.den for x in g.num), g.den))
            else:
                off_turn += 1
            return normalizer_oracle(g, spec)

        monkeypatch.setattr(normalizers, "normalizer_oracle", counted)
        code, rep = run_cli(capsys, "isometry", "normalizer", "--lattice", "dim4:k=1:angle=pi",
                            "--grid", "default", "--grid-points", "60")
        assert code == 0
        assert rep["verdicts"] == {"points": 500, "oracle_agreement": 1.0}
        assert (len(called), len(set(called)), off_turn) == (27, 27, 72)

    def test_isometry_normalizer_element(self, capsys):
        element = '{"z": 0, "v": ["1/2", "1/2"], "t": 0}'
        code, rep = run_cli(
            capsys, "isometry", "normalizer", "--lattice", "dim4:k=2:angle=pi/2",
            "--element", element,
        )
        assert code == 0
        assert rep["verdicts"]["in_normalizer"] is True
        assert rep["verdicts"]["oracle"] is True

    def test_isometry_fiber_inversion(self, capsys):
        code, rep = run_cli(
            capsys, "isometry", "fiber", "--lattice", "dim4:k=1:angle=2pi",
            "--map", "inversion",
        )
        assert code == 0
        assert rep["verdicts"]["fiber"]["kind"] == "counterexample"

    def test_isometry_relations(self, capsys):
        code, rep = run_cli(
            capsys, "isometry", "relations", "--blocks", "[[[0.6, -0.8], [0.8, 0.6]]]",
            "--v", "[1.0, 0.5]", "--t", "0.9",
        )
        assert code == 0
        assert rep["verdicts"]["relations"]["all_hold"] is True

    @pytest.mark.parametrize("v, t", [("[1e308, 1e308]", "1"), ("[0.5, 0.5]", "nan")])
    def test_isometry_relations_refuses_non_finite_deviations(self, capsys, v, t):
        # these once exited 0 with all_hold true and max_err 0.0
        code, rep = run_cli(
            capsys, "isometry", "relations", "--blocks", "[[[0, -1], [1, 0]]]", "--v", v, "--t", t,
        )
        assert code == 2
        assert rep["verdicts"] == {}
        [diagnostic] = rep["diagnostics"]
        assert diagnostic.startswith("validation error: relation i: ")

    def test_isometry_decompose(self, capsys):
        code, rep = run_cli(
            capsys, "isometry", "decompose",
            "--matrix", json.dumps([[1, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
        )
        assert code == 0 and rep["verdicts"]["eps"] == 1

    def test_decompose_names_equal_frequencies_split_into_runs(self, capsys):
        matrix = json.dumps(pair_swap(1, 3, 3).tolist())
        code, rep = run_cli(capsys, "isometry", "check-matrix", "--freqs", "[1, 2, 1]",
                            "--matrix", matrix)
        assert code == 0 and rep["verdicts"]["local_isometry"] is True
        code, rep = run_cli(capsys, "isometry", "decompose", "--freqs", "[1, 2, 1]",
                            "--matrix", matrix)
        assert code == 2 and rep["verdicts"] == {}
        [diagnostic] = rep["diagnostics"]
        assert "separate runs" in diagnostic and "FrequencyList.grouped()" in diagnostic
        code, rep = run_cli(capsys, "isometry", "decompose", "--freqs", "[1, 1, 2]",
                            "--matrix", json.dumps(pair_swap(1, 2, 3).tolist()))
        assert code == 0 and rep["verdicts"]["eps"] == 1


class TestExitCodes:
    def test_validation_error_is_exit_2(self, capsys):
        code, rep = run_cli(capsys, "quotient", "classify", "--lattice", "dim4:k=0:angle=2pi")
        assert code == 2
        assert any("validation" in d for d in rep["diagnostics"])

    def test_bad_velocity_is_exit_2(self, capsys):
        code, rep = run_cli(capsys, "geodesic", "character", "--X", "W9")
        assert code == 2

    def test_unsupported_spec_is_exit_2(self, capsys):
        code, rep = run_cli(
            capsys, "quotient", "certify-causal",
            "--lattice", '{"family": "product_line", "w2": "1", "base": {"family": "dim4", "k": 1, "angle": "2pi"}}',
        )
        assert code == 2

    def test_normalizer_on_a_lattice_with_no_tabulated_form_is_exit_2(self, capsys):
        # the conditions answer a twisted lattice, but the report carries a table
        lattice = '{"family": "twisted", "m": "1", "base": {"family": "dim4", "k": 1, "angle": "2pi"}}'
        code, rep = run_cli(capsys, "isometry", "normalizer", "--lattice", lattice,
                            "--element", '{"z": 0, "v": [1, 0], "t": 0}')
        assert code == 2 and rep["verdicts"] == {}
        assert rep["diagnostics"] == ["validation error: no tabulated normalizer for this family"]


class TestContractBreaches:
    """Inputs that once escaped as tracebacks or reported success."""

    def test_zero_denominator_angle_is_exit_2(self, capsys):
        code, rep = run_cli(capsys, "lattice", "info", "--lattice", "dim4:k=1:angle=1/0")
        assert code == 2
        assert any("validation" in d for d in rep["diagnostics"])

    def test_zero_denominator_element_is_exit_2(self, capsys):
        code, rep = run_cli(
            capsys, "lattice", "contains", "--lattice", "dim4:k=1:angle=2pi",
            "--element", '{"z": "1/0", "v": [0, 0], "t": 0}',
        )
        assert code == 2
        assert any("validation" in d for d in rep["diagnostics"])

    def test_velocity_index_beyond_lattice_is_exit_2(self, capsys):
        code, rep = run_cli(
            capsys, "geodesic", "eval", "--X", "X3", "--lattice", "dim4:k=1:angle=2pi",
            "--s", "0..1",
        )
        assert code == 2
        assert any("X3" in d for d in rep["diagnostics"])

    def test_velocity_index_zero_is_exit_2(self, capsys):
        code, rep = run_cli(
            capsys, "geodesic", "eval", "--X", "X0", "--lattice", "dim4:k=1:angle=2pi",
            "--s", "0..1",
        )
        assert code == 2
        assert any("X0" in d for d in rep["diagnostics"])

    @pytest.mark.parametrize("x", ["1e-3*T + Z", "2.5E+2*T"])
    def test_signed_exponent_in_a_velocity_is_exit_0(self, capsys, x):
        code, rep = run_cli(capsys, "geodesic", "eval", "--X", x, "--s", "0..1")
        assert code == 0 and rep["verdicts"]["samples"] > 0

    def test_decide_closed_reads_a_signed_exponent(self, capsys):
        # a = 1/1000 meets (0, 0, 2 pi) at s = 2000 pi
        code, rep = run_cli(capsys, "quotient", "decide-closed", "--lattice", LATTICE,
                            "--X", "1e-3*T")
        assert code == 0
        assert rep["verdicts"]["closure"] == {"kind": "closes", "r": 1}
        assert rep["certificates"][0]["s_star"] == "2000 pi"

    def test_zero_denominator_velocity_is_exit_2(self, capsys):
        code, rep = run_cli(
            capsys, "geodesic", "eval", "--X", "1/0*X1", "--lattice", "dim4:k=1:angle=2pi",
            "--s", "0..1",
        )
        assert code == 2
        assert any("validation" in d for d in rep["diagnostics"])

    def test_negative_r_max_is_exit_2(self, capsys):
        code, rep = run_cli(
            capsys, "quotient", "closed-search", "--lattice", "dim4:k=1:angle=2pi",
            "--X", "T", "--r-max", "-5",
        )
        assert code == 2
        assert "closed" not in rep["verdicts"]
        assert any("r_max" in d for d in rep["diagnostics"])

    def test_unknown_grid_is_exit_2(self, capsys):
        code, rep = run_cli(
            capsys, "isometry", "normalizer", "--lattice", "dim4:k=1:angle=pi",
            "--grid", "bogus", "--grid-points", "60",
        )
        assert code == 2
        assert any("bogus" in d for d in rep["diagnostics"])

    def test_grid_points_below_one_is_exit_2(self, capsys):
        for points in ("0", "-5"):
            code, rep = run_cli(
                capsys, "isometry", "normalizer", "--lattice", "dim4:k=1:angle=pi",
                "--grid", "default", "--grid-points", points,
            )
            assert code == 2
            assert any("--grid-points" in d for d in rep["diagnostics"])

    def test_grid_points_floor_at_500(self, capsys):
        code, rep = run_cli(
            capsys, "isometry", "normalizer", "--lattice", "dim4:k=1:angle=pi",
            "--grid", "default", "--grid-points", "1",
        )
        assert code == 0
        assert rep["verdicts"]["points"] == 500

    def test_missing_required_option_is_a_report(self, capsys):
        code, rep = run_cli(capsys, "quotient", "closed-search", "--lattice", LATTICE)
        assert code == 2
        assert rep["command"] == "quotient closed-search"
        assert any("--X" in d for d in rep["diagnostics"])

    def test_bad_option_value_is_a_report(self, capsys):
        code, rep = run_cli(
            capsys, "quotient", "closed-search", "--lattice", LATTICE, "--X", "T",
            "--r-max", "abc",
        )
        assert code == 2
        assert any("--r-max" in d for d in rep["diagnostics"])

    def test_missing_group_or_verb_is_a_report(self, capsys):
        code, rep = run_cli(capsys)
        assert code == 2 and rep["command"] == ""
        code, rep = run_cli(capsys, "quotient")
        assert code == 2 and rep["command"] == "quotient"
        code, rep = run_cli(capsys, "bogus")
        assert code == 2 and rep["command"] == ""

    def test_unrecognized_option_is_a_report(self, capsys):
        code, rep = run_cli(capsys, "quotient", "classify", "--lattice", LATTICE, "--bogus", "3")
        assert code == 2
        assert rep["command"] == "quotient classify"
        assert any("--bogus" in d for d in rep["diagnostics"])

    def test_exact_and_float_together_is_a_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, rep = run_cli(
            capsys, "quotient", "classify", "--lattice", LATTICE, "--seed", "5",
            "--output", str(out), "--exact", "--float",
        )
        assert code == 2
        assert rep["command"] == "quotient classify"
        # a command line that does not parse reports under the parser defaults
        assert rep["seed"] == 0 and rep["exact"] is True
        assert rep["verdicts"] == {}
        assert not out.exists()

    def test_help_is_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert main(["quotient", "classify", "--help"]) == 0
        assert "--lattice" in capsys.readouterr().out

    @pytest.mark.parametrize("name", [os.path.join("missing", "report.json"), "nul\x00"])
    def test_unwritable_output_is_a_report(self, capsys, tmp_path, name):
        out = os.path.join(tmp_path, name)
        code, rep = run_cli(capsys, "quotient", "classify", "--lattice", LATTICE, "--output", out)
        assert code == 2
        assert "lightlike" not in rep["verdicts"]
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("option", ["--X=--", "--r-max=--"])
    def test_double_dash_option_value_is_a_report(self, capsys, option):
        # argparse reads "--flag=--" as an empty list of values
        code, rep = run_cli(
            capsys, "quotient", "closed-search", "--lattice", LATTICE, "--X=T", option
        )
        assert code == 2
        assert any(option in d for d in rep["diagnostics"])

    def test_eval_samples_above_the_bound_are_refused_before_any_is_made(self, capsys):
        # they were all evaluated and printed: 10^5 + 1 took a second, 10^12
        # escaped main as a MemoryError
        code, rep = run_cli(capsys, "geodesic", "eval", "--X", "Z", "--s", "0..1",
                            "--samples", str(cli.MAX_EVAL_SAMPLES + 1))
        assert code == 2
        assert rep["diagnostics"] == [
            f"validation error: --samples {cli.MAX_EVAL_SAMPLES + 1} exceeds {cli.MAX_EVAL_SAMPLES}"]

    def test_eval_samples_up_to_the_bound_are_evaluated(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_EVAL_SAMPLES", 3)
        code, rep = run_cli(capsys, "geodesic", "eval", "--X", "Z", "--s", "0..1", "--samples", "3")
        assert code == 0 and rep["verdicts"]["samples"] == 3
        code, _ = run_cli(capsys, "geodesic", "eval", "--X", "Z", "--s", "0..1", "--samples", "4")
        assert code == 2

    def test_unwritable_csv_is_a_report(self, capsys, tmp_path):
        code, rep = run_cli(
            capsys, "geodesic", "eval", "--X", "Z", "--s", "0..1",
            "--csv", str(tmp_path / "missing" / "rows.csv"),
        )
        assert code == 2
        assert any("validation" in d for d in rep["diagnostics"])

    @pytest.mark.parametrize("map_args", [
        # no grid point has an exact value: conjugation by a pi/3 rotation
        pytest.param(["--map", 'inner:{"z": 0, "v": [1, 0], "t": "pi/3"}'], marks=VACUOUS),
        # maps that act on another dimension than the lattice's
        ["--map", 'left:{"z": 0, "v": [1, 0, 0, 0], "t": 0}'],
        ["--map", 'inner:{"z": 0, "v": [1, 0, 0, 0], "t": 0}'],
        ["--map", "theta", "--blocks", "[[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]"],
        ["--map", "theta", "--blocks", "[5]"],
        # a float element: every product with an exact grid point mixes modes
        ["--map", 'inner:{"z": 0, "v": [0.25, 0], "t": 0}'],
        ["--map", 'left:{"z": 0, "v": [0.25, 0], "t": 0}'],
    ])
    def test_fiber_search_that_checks_nothing_is_exit_2(self, capsys, map_args):
        code, rep = run_cli(capsys, "isometry", "fiber", "--lattice", LATTICE, *map_args)
        assert code == 2
        assert "fiber" not in rep["verdicts"]

    @pytest.mark.parametrize("argv", [
        ["geodesic", "character", "--X", "X1 + T", "--lattice", LATTICE, "--freqs", "[1, 2]"],
        ["geodesic", "eval", "--X", "T", "--s", "0..1", "--lattice", LATTICE, "--freqs", "[1]"],
        ["isometry", "relations", "--blocks", "[[[0, -1], [1, 0]]]", "--v", "[1, 0]", "--t", "1",
         "--freqs", "[1]", "--lattice", LATTICE],
    ])
    def test_freqs_with_a_lattice_is_exit_2(self, capsys, argv):
        # the lattice fixes the frequencies, so --freqs was read and then dropped
        code, rep = run_cli(capsys, *argv)
        assert code == 2
        assert rep["verdicts"] == {}
        assert any("--freqs and --lattice" in d for d in rep["diagnostics"])

    @pytest.mark.parametrize("map_args", [
        ["--map", "inversion", "--blocks", "[[[0, -1], [1, 0]]]", "--normalized"],
        ["--map", "inversion", "--normalized"],
        ["--map", 'left:{"z": 0, "v": [1, 0], "t": 0}', "--blocks", "[[[0, -1], [1, 0]]]"],
        ["--map", 'inner:{"z": 0, "v": [1, 0], "t": 0}', "--normalized"],
    ])
    def test_theta_flags_with_another_map_are_exit_2(self, capsys, map_args):
        code, rep = run_cli(capsys, "isometry", "fiber", "--lattice", LATTICE, *map_args)
        assert code == 2
        assert rep["verdicts"] == {}
        assert any("--blocks and --normalized" in d for d in rep["diagnostics"])

    @pytest.mark.parametrize("samples", ["-5", "-1"])
    def test_negative_fiber_samples_is_exit_2(self, capsys, samples):
        # they walked the 24 fixed grid points and exited 0
        code, rep = run_cli(capsys, "isometry", "fiber", "--lattice", LATTICE,
                            "--map", "inversion", "--samples", samples)
        assert code == 2
        assert rep["verdicts"] == {}
        assert any("samples must be non-negative" in d for d in rep["diagnostics"])

    @pytest.mark.parametrize(
        "extra", [["--s-end", "inf"], ["--s-end", "1e300", "--step", "1e-300"]]
    )
    def test_non_finite_step_count_is_exit_2(self, capsys, extra):
        code, rep = run_cli(capsys, "geodesic", "integrate", "--X", "T", *extra)
        assert code == 2
        assert any("not finite" in d for d in rep["diagnostics"])

    def test_step_count_above_bound_is_exit_2(self, capsys):
        code, rep = run_cli(capsys, "geodesic", "integrate", "--X", "T", "--s-end", "1e300")
        assert code == 2
        assert any("exceeds" in d for d in rep["diagnostics"])

    def test_ten_million_steps_are_refused_before_they_start(self, capsys):
        # 10^7 steps of 1e-3: about ten minutes of RK4 if admitted
        code, rep = run_cli(capsys, "geodesic", "integrate", "--X", "X1 + T",
                            "--s-end", "10000", "--step", "1e-3")
        assert code == 2
        assert any("exceeds 1000000" in d for d in rep["diagnostics"])

    def test_overflowing_integration_warns_nothing(self, capsys):
        # the integrator overflows on the first step; the refusal is the only output
        x = '{"d": 1e300, "bc": [[1e300, 1e300]], "a": 1e300}'
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_cli(capsys, "geodesic", "integrate", "--X", x,
                                "--s-end", "0.01", "--step", "0.01")
        assert code == 2
        assert any("non-finite" in d for d in rep["diagnostics"])

    def test_velocity_json_without_bc_is_exit_2(self, capsys):
        code, rep = run_cli(capsys, "geodesic", "character", "--X", '{"d": 1}')
        assert code == 2
        assert any("bc" in d for d in rep["diagnostics"])

    @pytest.mark.xfail(
        strict=True, raises=KeyError,
        reason="lattice JSON with a missing key escapes as KeyError; "
        "perfbench/test_perfbench.py::test_cli_contract_breach_is_a_failure_not_a_crash "
        "asserts it, so the fix waits for the next benchmark change",
    )
    def test_lattice_json_missing_key_is_exit_2(self, capsys):
        code, rep = run_cli(capsys, "lattice", "info", "--lattice", '{"family": "dim4"}')
        assert code == 2

    def test_generator_element_missing_key_is_exit_2(self, capsys):
        # the element's KeyError once escaped cli.main as a traceback
        lattice = '{"family":"generators","freqs":[1],"elements":[{"z":0,"v":[1,0]}]}'
        code, rep = run_cli(capsys, "lattice", "info", "--lattice", lattice)
        assert code == 2
        assert rep["diagnostics"] == ["validation error: 't'"]

    def test_element_missing_key_names_the_key(self, capsys):
        code, rep = run_cli(capsys, "lattice", "contains", "--lattice", LATTICE,
                            "--element", '{"z":1}')
        assert code == 2
        assert rep["diagnostics"] == ["""validation error: bad group element '{"z":1}': 'v'"""]

    def test_non_numeric_theta_blocks_are_exit_2(self, capsys):
        # every grid point raised, and the search reported "preserving"
        code, rep = run_cli(capsys, "isometry", "fiber", "--lattice", LATTICE, "--map", "theta",
                            "--blocks", '[[["a", 0], [0, 1]]]')
        assert code == 2
        assert "fiber" not in rep["verdicts"]

    @pytest.mark.parametrize("verb", [
        ["fiber", "--lattice", LATTICE, "--map", "theta"],
        ["relations", "--v", "[1, 0]", "--t", "1"],
        ["relations", "--v", "[1, 0]", "--t", "1", "--verbatim"],
    ])
    @pytest.mark.parametrize("entry", ["NaN", "Infinity"])
    def test_non_finite_theta_blocks_are_exit_2(self, capsys, verb, entry):
        # fiber: every grid point was refused, and the search reported "preserving";
        # relations: numpy warned "invalid value encountered in det" on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_cli(capsys, "isometry", *verb, "--blocks", f"[[[{entry}, 0], [0, 1]]]")
        assert code == 2
        assert rep["diagnostics"] == ["validation error: theta blocks must be finite"]

    @pytest.mark.parametrize("row, col", [(0, 0), (3, 3), (1, 1), (0, 1), (0, 3)])
    def test_decompose_refuses_a_non_finite_entry(self, capsys, row, col):
        # NaN passed the `err > tol` tests: (0, 0) reported eps 1 with identity
        # blocks, (3, 3) eps -1, both exit 0, and (1, 1) printed a bare NaN token
        matrix = [[float(i == j) for j in range(4)] for i in range(4)]
        matrix[row][col] = math.nan
        code = main(["isometry", "decompose", "--matrix", json.dumps(matrix)])
        rep = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
        assert code == 2
        assert rep["verdicts"] == {}

    def test_theta_blocks_unlike_the_runs_keep_their_verdict(self, capsys):
        # two 2x2 blocks where the run of multiplicity 2 needs one 4x4 block:
        # Theta.at refuses each grid point, and the search reports "preserving"
        code, rep = run_cli(capsys, "isometry", "fiber", "--lattice", "dim6:k=1:p=1:q=1:M=4",
                            "--map", "theta", "--blocks", "[[[0, -1], [1, 0]], [[1, 0], [0, 1]]]")
        assert code == 0
        assert rep["verdicts"]["fiber"]["kind"] == "preserving"

    def test_infinite_step_is_exit_2(self, capsys):
        # |s_end| / inf = 0 steps once ran one RK4 step of size s_end
        code, rep = run_cli(capsys, "geodesic", "integrate", "--X", "X1 + T",
                            "--s-end", "1", "--step", "inf")
        assert code == 2
        assert rep["diagnostics"] == ["validation error: step inf is not finite"]

    def test_non_finite_range_is_exit_2(self, capsys):
        # 1e999 overflows to inf: the rows came out nan, with exit 0
        code, rep = run_cli(capsys, "geodesic", "eval", "--X", "T", "--s", "1e999..2")
        assert code == 2
        assert rep["diagnostics"] == ["validation error: bad range '1e999..2': not finite"]

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_velocity_entry_is_exit_2(self, capsys, entry):
        x = f'{{"d": {entry}, "bc": [[0.1, 0]], "a": 1.0}}'
        code, rep = run_cli(capsys, "quotient", "closed-search", "--lattice", LATTICE, "--X", x)
        assert code == 2
        assert any("not finite" in d for d in rep["diagnostics"])

    @pytest.mark.parametrize("coeffs", ['"34"', "34", '{"0": 3}', "null"])
    def test_pi_coeffs_that_are_not_a_list_are_exit_2(self, capsys, coeffs):
        # a string was read digit by digit: "34" became 3 + 4 pi
        lattice = ('{"family": "product_line", "base": {"family": "dim4", "k": 1, '
                   f'"angle": "2pi"}}, "w2": {{"pi_coeffs": {coeffs}}}}}')
        code, rep = run_cli(capsys, "lattice", "info", "--lattice", lattice)
        assert code == 2
        assert any("pi_coeffs" in d for d in rep["diagnostics"])

    def test_compound_angle_element_is_exit_0(self, capsys):
        code, rep = run_cli(
            capsys, "isometry", "normalizer", "--lattice", "dim6:k=1:p=1:q=3:M=1",
            "--element", '{"z": 0, "v": [0, 0, 0, 0], "t": "1 + pi/3"}',
        )
        assert code == 0
        assert rep["verdicts"] == {"in_normalizer": False, "oracle": False}

    @pytest.mark.parametrize("base", ["null", "0", '"x"', "[]"])
    @pytest.mark.parametrize("family", ["twisted", "product_line"])
    def test_base_that_is_not_an_object_is_exit_2(self, capsys, family, base):
        lattice = f'{{"family": "{family}", "m": "1", "w2": "1", "base": {base}}}'
        code, rep = run_cli(capsys, "lattice", "info", "--lattice", lattice)
        assert code == 2
        assert any("object" in d for d in rep["diagnostics"])

    @pytest.mark.parametrize("argv", [
        ["lattice", "info", "--lattice", '{"family": "dim4", "k": true, "angle": "2pi"}'],
        ["lattice", "info", "--lattice", '{"family": "dim6", "k": 1, "p": 1, "q": 1, "M": 1.0}'],
        ["lattice", "contains", "--lattice", LATTICE, "--element",
         '{"z": 0, "v": [true, 0], "t": 0}'],
        ["geodesic", "integrate", "--freqs", "[true]", "--X", "X1 + T", "--s-end", "1"],
        ["quotient", "product-line", "--lattice",
         '{"family": "product_line", "w2": true, "base": {"family": "dim4", "k": 1, "angle": "2pi"}}'],
        ["quotient", "product-line", "--lattice",
         '{"family": "product_line", "w": "3", "w2": "2", '
         '"base": {"family": "dim4", "k": 1, "angle": "2pi"}}'],
    ])
    def test_booleans_and_non_integers_are_exit_2(self, capsys, argv):
        # each was read as 1, or coerced to an integer
        code, rep = run_cli(capsys, *argv)
        assert code == 2
        assert rep["diagnostics"][0].startswith("validation error")

    def test_twist_of_ten_to_the_thirty_is_certified_in_well_under_a_second(self, capsys):
        # the float guess at the first mu was corrected one step at a time
        lattice = json.dumps({"family": "twisted", "m": 10**30,
                              "base": {"family": "dim4", "k": 1, "angle": "2pi"}})
        with time_limit(10):
            start = time.perf_counter()
            code, rep = run_cli(capsys, "quotient", "certify-causal", "--lattice", lattice)
            elapsed = time.perf_counter() - start
        assert code == 0
        assert [c["causal"] for c in rep["certificates"]] == ["timelike", "spacelike"]
        assert elapsed < 0.5

    def test_deep_word_search_stops_at_its_budget(self, capsys):
        lattice = ('{"family": "generators", "freqs": [1], "depth": 64, "elements": '
                   '[{"z": 0, "v": [1, 0], "t": 0}, {"z": 0, "v": [0, 1], "t": 0}]}')
        with time_limit(10):
            code, rep = run_cli(capsys, "lattice", "contains", "--lattice", lattice,
                                "--element", '{"z": 0, "v": [1, 1], "t": 0}')
        assert code == 0
        assert rep["verdicts"] == {"contains": None}
        assert "20000 words" in rep["diagnostics"][0]


class TestPiTwist:
    def test_float_search_on_a_pi_twist_is_certified(self, capsys):
        lattice = PI_TWIST
        code, report = run_cli(
            capsys, "quotient", "closed-search", "--lattice", lattice,
            "--X", '{"d": 3.141592653589793, "bc": [[0, 0]], "a": 1.0}', "--r-max", "3")
        assert code == 0
        assert report["verdicts"]["closed"] is True
        (cert,) = report["certificates"]
        init = cert["initial"]
        ClosedGeodesicCertificate(
            AlgebraVector(init["d"], [tuple(p) for p in init["bc"]], init["a"]),
            float(cert["s_star"]),
            GroupElement.from_json(cert["lattice_point"]),
            CausalClass(cert["causal"]),
        ).verify(parse_lattice(lattice))

    @pytest.mark.parametrize("lattice", [LATTICE, PI_TWIST])
    @pytest.mark.parametrize("d,a", [("pi", "2"), ("pi", "1"), ("1/2 + pi", "pi/2")])
    def test_pi_valued_velocity_entries_are_read_exactly(self, capsys, lattice, d, a):
        x = json.dumps({"d": d, "bc": [[0, 0]], "a": a})
        code, report = run_cli(capsys, "quotient", "closed-search", "--lattice", lattice, "--X", x)
        assert code == 0
        exact = AlgebraVector(parse_exact(d), [(0, 0)], parse_exact(a))
        expected = search_closed(exact, parse_lattice(lattice))
        assert report["verdicts"]["closed"] is (expected is not None)
        if expected is not None:
            (cert,) = report["certificates"]
            assert cert["lattice_point"] == expected.lattice_point.to_json()
            assert cert["exact_initial_data"] is True

    def test_boolean_velocity_entry_is_exit_2(self, capsys):
        code, rep = run_cli(capsys, "quotient", "closed-search", "--lattice", LATTICE,
                            "--X", '{"d": true, "bc": [[0, 0]], "a": 1}')
        assert code == 2
        assert any("bad numeric entry True" in d for d in rep["diagnostics"])


class TestDeterminism:
    def test_reports_identical_modulo_timestamp(self, capsys):
        argv = ["quotient", "certify-causal", "--lattice", "dim4:k=1:angle=pi/2", "--seed", "7"]
        _, rep1 = run_cli(capsys, *argv)
        _, rep2 = run_cli(capsys, *argv)
        rep1.pop("timestamp")
        rep2.pop("timestamp")
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)

    def test_report_metadata(self, capsys):
        code, rep = run_cli(capsys, "lattice", "info", "--lattice", "dim4:k=1:angle=2pi")
        assert rep["schema_version"] == 1
        assert rep["seed"] == 0
        assert rep["exact"] is True
        assert "version" in rep


class TestEntryPoint:
    def test_module_invocation(self):
        out = subprocess.run(
            [sys.executable, "-m", "oscgeo.cli", "geodesic", "character", "--X", "T"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["verdicts"]["causal"] == "lightlike"


    def test_closed_stdout_is_not_a_traceback(self):
        # the read end closes before the report is written, as with `| head`
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "oscgeo.cli", "geodesic", "eval", "--X", "X1 + T",
                 "--s", "0..6", "--samples", "13"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in out.stderr
        assert out.returncode == 0


class TestSharedParser:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_reuse_leaks_no_state(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        argv = ["quotient", "classify", "--lattice", LATTICE]
        code, rep = run_cli(capsys, *argv, "--seed", "5", "--output", str(out))
        assert code == 0 and rep["seed"] == 5
        out.unlink()
        code, rep = run_cli(capsys, *argv)
        assert code == 0 and rep["exact"] is True and rep["seed"] == 0
        assert not out.exists()


# -- routing: a known group and verb is parsed by its verb's parser alone ---------

ROUTED_ARGV = (
    *(list(check.argv) for check in CHECKS),
    *([group, verb, "--help"] for group, verb in VERBS),
    ["--help"], ["lattice", "--help"],
    ["--seed", "3", "lattice", "info", "--lattice", LATTICE],
    ["lattice", "bogus"], ["lattice"], [],
    ["lattice", "info", "--lat", LATTICE, "--seed", "3"],
    ["lattice", "info", "--lattice=--"],
    ["quotient", "classify", "--lattice", LATTICE, "--bogus", "3"],
    ["quotient", "classify", "--lattice", LATTICE, "--", "--seed", "3"],
    ["quotient", "classify", "--", "--lattice", LATTICE],
)


def _outcome(capsys, argv):
    """Exit code and report without its timestamp, or the printed help text."""
    code = main(list(argv))
    out = capsys.readouterr().out
    try:
        report = json.loads(out)
    except ValueError:
        return code, out
    report.pop("timestamp")
    return code, report


@pytest.mark.parametrize("argv", ROUTED_ARGV, ids=lambda argv: " ".join(argv[:3]))
def test_routing_matches_the_nested_parser(capsys, monkeypatch, argv):
    routed = _outcome(capsys, argv)
    parser = build_parser()
    monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))  # every argv nested
    assert _outcome(capsys, argv) == routed


def test_routing_edge_cases(capsys):
    code, rep = _outcome(capsys, ["--seed", "3", "lattice", "info", "--lattice", LATTICE])
    assert code == 2 and "argument group: invalid choice: '3'" in rep["diagnostics"][0]
    assert _outcome(capsys, ["lattice", "bogus"])[0] == 2
    assert _outcome(capsys, ["lattice"])[0] == 2
    code, rep = _outcome(capsys, ["lattice", "info", "--lat", LATTICE, "--seed", "3"])
    assert code == 0 and rep["seed"] == 3


def test_a_known_verb_skips_the_outer_parsers(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the nested parser ran")

    monkeypatch.setattr(build_parser(), "parse_known_args", refuse)
    code, rep = _outcome(capsys, ["quotient", "classify", "--lattice", LATTICE, "--seed", "4"])
    assert code == 0 and rep["command"] == "quotient classify" and rep["seed"] == 4


# -- fuzzing the command line from the verb table --------------------------------

# values no option accepts, or that only some accept
GARBAGE = st.sampled_from([
    "", " ", "abc", "0", "-1", "-0", "1/0", "nan", "inf", "-inf", "1e309", "pi", "2pi/0",
    "{", "}", "[", "[]", "{}", "[[]]", "null", "true", '"x"', "[1, 2]", "[[1, 2], [3]]",
    '{"z": 1}', "..", "1..", "a..b", "--", "-", "\x00", "dim4", "dim4:k", "x=1",
]) | st.text(max_size=8)
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
SMALL_RATS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _is_json_object(text: str) -> bool:
    try:
        return isinstance(json.loads(text), dict)
    except ValueError:
        return False


@st.composite
def lattice_specs(draw):
    dim4 = st.builds(Dim4Family, st.integers(1, 3), st.sampled_from([2 * PI, PI, PI / 2]))
    dim6 = st.sampled_from([(1, 1, 1), (1, 3, 2), (2, 3, 4), (3, 1, 4), (1, 2, 1)]).flatmap(
        lambda pqm: st.builds(Dim6Family, st.integers(1, 2), *map(st.just, pqm)))
    base = draw(dim4 | dim6)
    kind = draw(st.sampled_from(["base", "twisted", "product_line"]))
    if kind == "twisted":
        return Twisted(base, draw(st.integers(-3, 3) | SMALL_RATS | st.just(PI)))
    if kind == "product_line":
        w2 = draw(st.sampled_from(["1", "2pi", "pi", "irrational"]))
        return ProductWithLine(base, w_squared=w2)
    return base


def _n(spec) -> int:
    return spec.base.freqs.n if isinstance(spec, ProductWithLine) else spec.freqs.n


def _rationals(n: int):
    return st.lists(SMALL_RATS.map(str), min_size=n, max_size=n)


@st.composite
def elements(draw, n):
    t = draw(st.sampled_from(["0", "pi/2", "pi", "-3pi/2", "pi/3", "1 + pi"]))
    return json.dumps({"z": draw(SMALL_RATS.map(str)), "v": draw(_rationals(2 * n)), "t": t})


@st.composite
def velocities(draw, n):
    if draw(st.booleans()):
        entries = SMALL_RATS.map(str) | st.floats(-3, 3) | FLOATS | st.sampled_from(
            ["pi", "-pi/2", "1/2 + pi", "pi^2"])
        bc = [draw(st.lists(entries, min_size=2, max_size=2)) for _ in range(n)]
        return json.dumps({"d": draw(entries), "bc": bc, "a": draw(entries)})
    basis = ["Z", "T", *(f"{xy}{j}" for j in range(1, n + 1) for xy in "XY")]
    terms = draw(st.lists(st.tuples(SMALL_RATS, st.sampled_from(basis)), min_size=1, max_size=4))
    return " + ".join(f"{c}*{b}" for c, b in terms)


def _blocks(n: int):
    return json.dumps([[[0.6, -0.8], [0.8, 0.6]]] * n)


def _matrix(n: int):
    dim = 2 * n + 2
    return json.dumps([[float(i == j) for j in range(dim)] for i in range(dim)])


def _well_formed(flag: str, n: int):
    """A value the option accepts, for a lattice or frequency list of size n;
    cost options are bounded so that an example stays cheap."""
    return {
        "--X": velocities(n),
        "--freqs": st.just(json.dumps([1] * n)),
        "--matrix": st.just(_matrix(n)),
        "--s": st.tuples(st.floats(-3, 3), st.floats(-3, 3)).map(lambda ab: f"{ab[0]}..{ab[1]}"),
        "--samples": st.integers(0, 20).map(str),
        "--csv": st.just("rows.csv"),
        "--s-end": st.floats(-1, 1).map(str),
        "--step": st.floats(1e-2, 1).map(str),
        "--element": elements(n),
        "--r-max": st.integers(0, 20).map(str),
        "--grid": st.just("default"),
        "--grid-points": st.integers(1, 60).map(str),
        "--map": st.sampled_from(["inversion", "theta"]) | elements(n).flatmap(
            lambda e: st.sampled_from([f"left:{e}", f"inner:{e}"])),
        "--blocks": st.just(_blocks(n)),
        "--v": st.lists(st.floats(-3, 3), min_size=2 * n, max_size=2 * n).map(json.dumps),
        "--t": st.floats(-3, 3).map(str),
    }[flag]


def _few_steps(flag: str, text: str) -> bool:
    """False for an --s-end or --step value that makes the RK4 step count
    |s_end| / step large but finite: a slow input, not a malformed one."""
    try:
        x = float(text)
    except ValueError:
        return True
    if not math.isfinite(x):
        return True
    return abs(x) <= 1 if flag == "--s-end" else not 0 < x < 1e-3


def _malformed(flag: str):
    if flag == "--lattice":  # a JSON object with a missing key is the pinned breach above
        return GARBAGE.filter(lambda text: not _is_json_object(text))
    if flag in ("--samples", "--r-max"):
        return st.sampled_from(["-1", "-20", "abc", "1.5", ""])
    if flag in ("--csv", "--output"):
        return st.sampled_from([os.path.join("missing", "out"), "."]) | GARBAGE
    if flag in ("--s-end", "--step"):
        values = st.sampled_from(["0", "-1", "-1e-3", "nan", "inf", "-inf"]) | GARBAGE
        return values.filter(lambda text: _few_steps(flag, text))
    if flag == "--t":
        return FLOATS.map(str) | GARBAGE
    return GARBAGE


COST_OPTIONS = {"--r-max", "--samples"}  # never left at their expensive defaults
HARMLESS_EXTRAS = [["--seed", "7"], ["--seed", "-3"], ["--output", "report.json"]]
BAD_EXTRAS = [["--exact", "--float"], ["--float"], ["--exact"], ["--seed", "x"], ["--bogus"],
              ["--bogus", "1"], ["stray"], ["--normalized=1"]]


@st.composite
def command_lines(draw):
    """argv for one verb of the table: each option well-formed, malformed (one
    time in eight) or missing, with common and unknown options appended."""
    rarely = st.integers(0, 7).map(lambda k: k == 0)
    group, verb = draw(st.sampled_from(sorted(VERBS)))
    spec = draw(lattice_specs())
    n = draw(st.integers(1, 3)) if draw(rarely) else _n(spec)  # sometimes the wrong size
    lattice = json.dumps(spec.to_json())
    argv = [group, verb]
    for flag, kwargs in VERBS[group, verb][1]:
        if flag in COST_OPTIONS:
            present = True
        elif flag == "--element" and verb == "normalizer":
            present = draw(st.integers(0, 19)) > 0  # the grid form costs about 0.5 s
        elif kwargs.get("required"):
            present = not draw(rarely)
        else:
            present = draw(st.booleans())
        if not present:
            continue
        if kwargs.get("action") == "store_true":
            argv.append(flag)
        elif draw(rarely):
            argv.append(f"{flag}={draw(_malformed(flag))}")
        else:
            value = lattice if flag == "--lattice" else draw(_well_formed(flag, n))
            argv.append(f"{flag}={value}")
    for extra in draw(st.lists(st.sampled_from(HARMLESS_EXTRAS), max_size=2)):
        argv.extend(extra)
    if draw(rarely):
        argv.extend(draw(st.sampled_from(BAD_EXTRAS)))
    if draw(rarely):
        argv.append(f"--output={draw(_malformed('--output'))}")
    return argv


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    """Run the fuzzed commands where their --csv and --output files can land."""
    old = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("cli-fuzz"))
    yield
    os.chdir(old)


@settings(max_examples=200, deadline=None)
@given(argv=command_lines())
def test_every_command_line_gets_one_json_report(scratch_dir, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 2, 3)
    report = json.loads(out.getvalue())
    assert report["schema_version"] == 1
    if code != 0:
        assert report["diagnostics"]


# -- fuzzing the lattice reader with mutated lattice JSON ----------------------------

DIM4_JSON = {"family": "dim4", "k": 1, "angle": "2pi"}
DIM6_JSON = {"family": "dim6", "k": 1, "p": 1, "q": 3, "M": 4}
GENERATORS_JSON = {"family": "generators", "freqs": [1], "depth": 4, "elements": [
    {"z": 0, "v": [1, 0], "t": 0}, {"z": 0, "v": [0, 1], "t": 0}]}
TWISTS = [2, "-3", "1/2", "pi"]  # integer, rational and pi twists
LINE_STEPS = [{"w2": "2pi"}, {"w": "1/2", "w2": "1/4"}, {"w2": {"pi_coeffs": [0, 0, 1]}}]
BAD_VALUES = [None, True, 0, -5, 1.5, "x", "", [], {}, "1/0", "nan", 1e308, "pi^2", 10**30]
ELEMENT_JSON = {  # one element of each dimension, for `lattice contains`
    1: '{"z": "1/2", "v": [1, 1], "t": 0}', 2: '{"z": 0, "v": [1, 0, 0, 1], "t": "2pi"}'}
LATTICE_COMMANDS = [
    ["lattice", "info"], ["lattice", "contains"], ["quotient", "classify"],
    ["quotient", "certify-causal"], ["quotient", "closed-search", "--X", "T", "--r-max", "5"],
]


@st.composite
def valid_lattice_json(draw):
    """dim4, dim6 or generators, under up to three twists and an optional
    line: up to four levels of nesting."""
    obj = draw(st.sampled_from([DIM4_JSON, DIM6_JSON, GENERATORS_JSON]))
    for m in draw(st.lists(st.sampled_from(TWISTS), max_size=3)):
        obj = {"family": "twisted", "m": m, "base": obj}
    if draw(st.booleans()):
        obj = {"family": "product_line", **draw(st.sampled_from(LINE_STEPS)), "base": obj}
    return json.loads(json.dumps(obj))  # a fresh copy to mutate


def _key_paths(obj, path=()):
    """Every path to a value below obj, as tuples of keys and indices."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield (*path, key)
        yield from _key_paths(value, (*path, key))


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


@st.composite
def mutated_lattice_json(draw):
    """A valid lattice JSON with the value at one key path replaced by a bad value.

    Dropped keys are not drawn: they escape as the KeyError pinned by
    test_lattice_json_missing_key_is_exit_2."""
    obj = draw(valid_lattice_json())
    path = draw(st.sampled_from(list(_key_paths(obj))))
    value = draw(st.sampled_from(BAD_VALUES))
    _set(obj, path, value)
    return obj


def _dimension(obj) -> int:
    """2 when a dim-6 lattice sits at the bottom of the nesting, else 1."""
    return 2 if '"dim6"' in json.dumps(obj) else 1


def _with_empty_generator_element(test):
    """An explicit example per command of a generator element `{}`: one
    mutation among many, which the strategy alone draws too rarely."""
    obj = json.loads(json.dumps(GENERATORS_JSON))
    obj["elements"][0] = {}
    for command in LATTICE_COMMANDS:
        test = example(obj=obj, command=command)(test)
    return test


@settings(max_examples=1000, deadline=None)
@given(obj=mutated_lattice_json(), command=st.sampled_from(LATTICE_COMMANDS))
@_with_empty_generator_element
def test_every_mutated_lattice_gets_one_json_report(obj, command):
    argv = [*command, "--lattice", json.dumps(obj)]
    if command[1] == "contains":
        argv += ["--element", ELEMENT_JSON[_dimension(obj)]]
    out = io.StringIO()
    with time_limit(5), contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 2, 3)
    report = json.loads(out.getvalue())  # exactly one JSON document
    assert report["command"] == " ".join(command[:2])


# -- reports fixed byte for byte -------------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "golden_reports"
# name -> argv of an exact-mode command whose report (less its timestamp line)
# is stored as GOLDEN / f"{name}.json"
GOLDEN_COMMANDS = {
    "lattice_contains_dim4": [
        "lattice", "contains", "--lattice", "dim4:k=2:angle=2pi",
        "--element", '{"z": "1/4", "v": [3, -1], "t": "2pi"}'],
    "lattice_contains_dim6_half": [
        "lattice", "contains", "--lattice", "dim6:k=1:p=1:q=3:M=2",
        "--element", '{"z": "1/2", "v": ["1/2", "3/2", 1, 0], "t": "3pi"}'],
    "lattice_contains_twisted": [
        "lattice", "contains",
        "--lattice", '{"family": "twisted", "m": "1/2", "base": {"family": "dim4", "k": 1, "angle": "2pi"}}',
        "--element", '{"z": "pi", "v": [1, "4/2"], "t": "2pi"}'],
    "lattice_contains_generators": [
        "lattice", "contains",
        "--lattice", '{"family": "generators", "freqs": [1], "depth": 4, "elements": '
                     '[{"z": 0, "v": [1, 0], "t": 0}, {"z": 0, "v": [0, 1], "t": 0}]}',
        "--element", '{"z": "1/2", "v": [1, 1], "t": 0}'],
    "normalizer_element_dim4": [
        "isometry", "normalizer", "--lattice", "dim4:k=2:angle=pi/2",
        "--element", '{"z": 0, "v": ["1/2", "1/2"], "t": 0}'],
    "normalizer_element_dim6": [
        "isometry", "normalizer", "--lattice", "dim6:k=2:p=1:q=3:M=4",
        "--element", '{"z": "1/3", "v": ["1/4", "2/4", "1/4", "3/2"], "t": "3/2 pi"}'],
    "normalizer_element_dim6_in": [
        "isometry", "normalizer", "--lattice", "dim6:k=2:p=1:q=3:M=4",
        "--element", '{"z": "1/3", "v": ["1/2", "2/4", "1/2", "1/2"], "t": "3/2 pi"}'],
    "normalizer_grid_dim4": [
        "isometry", "normalizer", "--lattice", "dim4:k=2:angle=pi/2", "--grid-points", "60"],
    "normalizer_grid_dim6": [
        "isometry", "normalizer", "--lattice", "dim6:k=2:p=2:q=3:M=4", "--grid-points", "60"],
    "fiber_left_dim4": [
        "isometry", "fiber", "--lattice", "dim4:k=2:angle=pi/2",
        "--map", 'left:{"z": "1/3", "v": ["1/2", "1/2"], "t": "pi/2"}'],
    "fiber_inner_dim6": [
        "isometry", "fiber", "--lattice", "dim6:k=1:p=1:q=1:M=4",
        "--map", 'inner:{"z": 0, "v": [1, "1/2", 0, 0], "t": "pi/2"}'],
    "closed_search_dim4": [
        "quotient", "closed-search", "--lattice", LATTICE, "--X", "T"],
    "closed_search_twisted": [
        "quotient", "closed-search",
        "--lattice", '{"family": "twisted", "m": "1/2", "base": {"family": "dim4", "k": 2, "angle": "pi"}}',
        "--X", "X1 + T"],
    "certify_dim4": [
        "quotient", "certify-causal", "--lattice", "dim4:k=1:angle=pi/2"],
    "certify_twisted_dim6": [
        "quotient", "certify-causal",
        "--lattice", '{"family": "twisted", "m": "-2/3", "base": '
                     '{"family": "dim6", "k": 3, "p": 2, "q": 3, "M": 1}}'],
    # K0 = 4: the certificate comes from the sign scan of the K0 > 1 builder
    "certify_int_twisted_dim6_k0_4": [
        "quotient", "certify-causal",
        "--lattice", '{"family": "twisted", "m": "2", "base": '
                     '{"family": "dim6", "k": 1, "p": 1, "q": 3, "M": 4}}'],
    # K0 = 2: the certificate turns the block by t = t0 = pi
    "certify_dim4_k0_2": [
        "quotient", "certify-causal", "--lattice", "dim4:k=2:angle=pi"],
    # exact rational --X; s and z are pi-valued: the member it meets at t = t0
    # has z = 1/2 + pi/2
    "closed_search_rational_twist_exact": [
        "quotient", "closed-search",
        "--lattice", '{"family": "twisted", "m": "1/3", "base": '
                     '{"family": "dim6", "k": 1, "p": 1, "q": 3, "M": 4}}',
        "--X", '{"d": "-1/3", "bc": [[0, 2], [0, 0]], "a": 2}'],
    # the verdict's residue is read from w^2 = (3/4) pi as pi_coeffs
    "product_line_pi_coeffs": [
        "quotient", "product-line",
        "--lattice", '{"family": "product_line", "base": {"family": "dim4", "k": 1, '
                     '"angle": "2pi"}, "w2": {"pi_coeffs": ["0", "3/4"]}}'],
    # the float search on a pi twist snaps to the member (2 pi^2, 0, 2pi)
    "closed_search_pi_twist": [
        "quotient", "closed-search", "--lattice", PI_TWIST,
        "--X", '{"d": 3.141592653589793, "bc": [[0, 0]], "a": 1.0}', "--r-max", "3"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_report_is_byte_identical_to_the_golden_one(capsys, name):
    main(GOLDEN_COMMANDS[name])
    out = re.sub(r'^  "timestamp": "[^"]*",?\n', "", capsys.readouterr().out, flags=re.M)
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
