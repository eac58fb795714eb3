import json
import subprocess
import sys

from oscgeo.cli import main, parse_lattice, parse_velocity
from oscgeo.lattices import Dim4Family, Dim6Family, ProductWithLine, Twisted


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


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
        x = parse_velocity("Z")
        assert x.d == 1 and x.a == 0
        x = parse_velocity("2*Z + X1 - 1/2*T")
        assert x.d == 2 and x.bc[0][0] == 1 and x.a == -0.5

    def test_velocity_json(self):
        x = parse_velocity('{"d": "1/2", "bc": [[1, 0]], "a": 2}')
        assert float(x.d) == 0.5 and x.a == 2

    def test_velocity_respects_hint(self):
        x = parse_velocity("X1", n_hint=2)
        assert x.n == 2


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

    def test_isometry_decompose(self, capsys):
        code, rep = run_cli(
            capsys, "isometry", "decompose",
            "--matrix", json.dumps([[1, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
        )
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
