"""CLI contract checks: argv, expected exit code, a predicate on the JSON report.

Each row runs one `oscgeo` command.  It passes when the command prints one
JSON report, exits with the expected code, and the predicate holds on the
report; a row with `seconds` must also finish within that many seconds.
`tests/test_cli_contract.py` runs every row in-process through `cli.main`.
Run as a script, this module runs the same rows through the installed
`oscgeo` console script and exits 1 if any row fails:

    python tests/cli_contract.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

from oscgeo.algebra import FrequencyList
from oscgeo.isometries import IsotropyElement, isotropy_matrix


@dataclass(frozen=True)
class Check:
    why: str
    argv: tuple[str, ...]
    code: int
    holds: Callable[[dict], bool] = lambda report: True
    seconds: float | None = None


def _cert(report: dict) -> dict:
    return report["certificates"][0]


LATTICE = "dim4:k=1:angle=2pi"
CANCELLING_TWISTS = ('{"family": "twisted", "m": "-1", "base": {"family": "twisted", "m": "1", '
                     '"base": {"family": "dim4", "k": 1, "angle": "2pi"}}}')
DIM6_TWIST = ('{"family": "twisted", "m": "2", '
              '"base": {"family": "dim6", "k": 1, "p": 1, "q": 3, "M": 4}}')
PI_TWIST = '{"family": "twisted", "m": "pi", "base": {"family": "dim4", "k": 1, "angle": "2pi"}}'
BIG_TWIST = ('{"family": "twisted", "m": 1000000000000000000000000000000, '
             '"base": {"family": "dim4", "k": 1, "angle": "%s"}}')
RUN2_BLOCKS = "[[[0,-1,0,0],[1,0,0,0],[0,0,0.6,-0.8],[0,0,0.8,0.6]]]"
DEPTH_64 = ('{"family": "generators", "freqs": [1], "depth": 64, "elements": '
            '[{"z": 0, "v": [1, 0], "t": 0}, {"z": 0, "v": [0, 1], "t": 0}]}')


def _run2_matrix() -> str:
    """The isotropy matrix of (eps, B, c) = (-1, RUN2_BLOCKS, (1/2, 0, 0, -1))
    on the multiplicity-2 run of frequencies [1, 1]."""
    b = json.loads(RUN2_BLOCKS)[0]
    el = IsotropyElement(-1, [b], [[0.5, 0, 0, -1]])
    return json.dumps(isotropy_matrix(el, FrequencyList([1, 1])).tolist())


def _normalizer_at(t: str) -> Check:
    element = json.dumps({"z": 0, "v": [0, 0, 0, 0], "t": t})
    return Check(
        f"exact angles read off the quarter-turn table: the conditions agree with the "
        f"oracle at t = {t}",
        ("isometry", "normalizer", "--lattice", "dim6:k=2:p=1:q=3:M=4", "--element", element), 0,
        lambda r: r["verdicts"]["in_normalizer"] == r["verdicts"]["oracle"])


def _certify_fixed_block(report: dict) -> bool:
    cs = report["certificates"]
    return (len(cs) == 2
            and all(c["initial"]["bc"][1] == [0.0, 0.0] and c["lattice_point"]["v"] == [1, 0, 0, 0]
                    and c["lattice_point"]["t"] == "pi" for c in cs)
            and [c["lattice_point"]["z"] for c in cs] == ["-1/2", "1/2"])


CHECKS = (
    Check("a missing --X is refused",
          ("quotient", "closed-search", "--lattice", LATTICE), 2),
    Check("classify on a product lattice",
          ("quotient", "classify", "--lattice", LATTICE), 0),
    Check("exact or float is read off the input: a mode flag is an unknown option",
          ("quotient", "classify", "--lattice", LATTICE, "--float"), 2),
    Check("twists that cancel give the untwisted lattice: every lightlike geodesic closes",
          ("quotient", "classify", "--lattice", CANCELLING_TWISTS), 0,
          lambda r: (r["verdicts"]["lightlike"]["kind"] == "all_closed"
                     and r["verdicts"]["lightlike"]["witness"]["t"] == "2 pi")),
    Check("generators and samples read off the profile of a nested twist: inversion "
          "moves a member out",
          ("isometry", "fiber", "--lattice", CANCELLING_TWISTS, "--map", "inversion"), 0,
          lambda r: r["verdicts"]["fiber"]["kind"] == "counterexample"),
    Check("the pi-polynomial path: an integer twist of a dim-6 lattice with K0 = 4",
          ("quotient", "certify-causal", "--lattice", DIM6_TWIST), 0,
          lambda r: len(r["certificates"]) > 1),
    Check("R(t) = R(pi) fixes the second block: exp_preimage gives it (0, 0), and u_2 = 0",
          ("quotient", "certify-causal", "--lattice", "dim6:k=1:p=2:q=1:M=2"), 0,
          _certify_fixed_block),
    Check("a pi twist: the float search snaps to the member (2 pi^2, 0, 2pi)",
          ("quotient", "closed-search", "--lattice", PI_TWIST,
           "--X", '{"d": 3.141592653589793, "bc": [[0, 0]], "a": 1.0}', "--r-max", "3"), 0,
          lambda r: (_cert(r)["lattice_point"]["z"] == "2 pi^2"
                     and _cert(r)["exact_initial_data"] is False)),
    Check("closure decided in closed form past closed-search's default bound: r = 1001, s = 2002",
          ("quotient", "decide-closed", "--lattice", LATTICE,
           "--X", '{"d": "1/2002", "bc": [[0, 0]], "a": "pi"}'), 0,
          lambda r: _cert(r)["s_star"] == "2002" and _cert(r)["exact_initial_data"] is True),
    Check("a = 1 + pi is decided too: it closes at r = 1, on the lattice point t = 2 pi",
          ("quotient", "decide-closed", "--lattice", LATTICE,
           "--X", '{"d": 0, "bc": [[0, 0]], "a": "1 + pi"}'), 0,
          lambda r: (r["verdicts"]["closure"] == {"kind": "closes", "r": 1}
                     and _cert(r)["lattice_point"]["t"] == "2 pi")),
    Check("the decision per residue class past one period of a K0 = 4 lattice: r = 5",
          ("quotient", "decide-closed", "--lattice", "dim4:k=1:angle=pi/2",
           "--X", '{"d": "1/5 - 1/4 pi", "bc": [["1/2 pi", 0]], "a": "1/2 pi"}'), 0,
          lambda r: (r["verdicts"]["closure"] == {"kind": "closes", "r": 5}
                     and _cert(r)["lattice_point"]["z"] == "1/2"
                     and _cert(r)["lattice_point"]["t"] == "5/2 pi")),
    Check("the exact replay on two turned blocks of a K0 = 4 lattice, from the int pass "
          "of the closed form",
          ("quotient", "decide-closed", "--lattice", "dim6:k=1:p=1:q=3:M=4", "--X",
           '{"d": "1/2 - 3/2 pi", "bc": [["9/4 pi", "-9/4 pi"], ["3/4 pi", "-3/4 pi"]], '
           '"a": "9/2 pi"}'), 0,
          lambda r: (r["verdicts"]["closure"] == {"kind": "closes", "r": 3}
                     and _cert(r)["s_star"] == "1"
                     and _cert(r)["lattice_point"] == {"z": "1/2", "v": [1, 0, 0, 1],
                                                          "t": "9/2 pi"}
                     and _cert(r)["exact_initial_data"] is True)),
    Check("a line with a pi entry: d / w = 2 pi, so it meets (1/2, 0, 0) at s = 1 / (2 pi)",
          ("quotient", "decide-closed", "--lattice", LATTICE,
           "--X", '{"d": "pi", "bc": [[0, 0]], "a": 0}'), 0,
          lambda r: _cert(r)["lattice_point"]["z"] == "1/2"),
    Check("v = b / pi is irrational at s = 1/2, though within 1e-9 of an integer: no closure",
          ("quotient", "closed-search", "--lattice", "dim4:k=1:angle=pi/2",
           "--X", '{"d": "-103993/66204", "bc": [["103993/33102", 0]], "a": "pi"}',
           "--r-max", "10"), 0,
          lambda r: r["verdicts"]["closed"] is False),
    Check("a relation whose deviation overflows is refused, not reported as holding",
          ("isometry", "relations", "--blocks", "[[[0,-1],[1,0]]]",
           "--v", "[1e308, 1e308]", "--t", "1"), 2),
    Check("a run of multiplicity 2: float theta places P(t) twice on the block diagonal",
          ("isometry", "relations", "--freqs", "[1, 1]", "--blocks", RUN2_BLOCKS,
           "--v", "[1, 0.5, -0.25, 2]", "--t", "0.7"), 0,
          lambda r: r["verdicts"]["relations"]["all_hold"] is True),
    Check("exact theta at a quarter turn: P(pi/2) enters S = P^T B P",
          ("isometry", "fiber", "--lattice", LATTICE, "--map", "theta",
           "--blocks", "[[[0,-1],[1,0]]]"), 0,
          lambda r: r["verdicts"]["fiber"] == {
              "kind": "counterexample", "g": {"z": "1/6", "v": ["1/4", 0], "t": "1/2 pi"},
              "lattice_element": {"z": 0, "v": [1, 0], "t": 0}}),
    Check("exact theta on the same multiplicity-2 blocks, normalized",
          ("isometry", "fiber", "--lattice", "dim6:k=1:p=1:q=1:M=4", "--map", "theta",
           "--normalized", "--blocks", RUN2_BLOCKS), 0,
          lambda r: r["verdicts"]["fiber"]["lattice_element"] == {"z": 0, "v": [0, 0, 1, 0],
                                                                  "t": 0}),
    Check("the run walk of isotropy_matrix and psi_decompose on a multiplicity-2 run",
          ("isometry", "decompose", "--freqs", "[1, 1]", "--matrix", _run2_matrix()), 0,
          lambda r: r["verdicts"]["eps"] == -1 and r["tables"]["c"] == [0.5, 0.0, 0.0, -1.0]),
    Check("exact input is classified exactly: <x, x> = 2e-13 is spacelike",
          ("geodesic", "character", "--X", "1/10000000000000*Z + T"), 0,
          lambda r: r["verdicts"]["causal"] == "spacelike"),
    Check("the RK4 stage kernel: 1000 steps against the closed form",
          ("geodesic", "integrate", "--X", "X1 + T", "--s-end", "1", "--step", "1e-3"), 0,
          lambda r: r["verdicts"]["max_error_vs_closed_form"] <= 1e-6),
    Check("n = 2, where the kernel's split rows (z, x_1, x_2, y_1, y_2, t) differ from "
          "the pair order",
          ("geodesic", "integrate", "--X", "X1 - Y2 + T", "--freqs", '[1, "1/2"]',
           "--s-end", "1", "--step", "1e-3"), 0,
          lambda r: r["verdicts"]["max_error_vs_closed_form"] <= 1e-6),
    Check("10^7 steps exceed the RK4 bound: refused before the first step",
          ("geodesic", "integrate", "--X", "X1 + T", "--s-end", "10000", "--step", "1e-3"), 2,
          lambda r: any("exceeds" in d for d in r["diagnostics"]), seconds=60),
    _normalizer_at("pi/4"),  # no quarter turn
    _normalizer_at("3/2 pi"),
    Check("the one-pass conjugation: the oracle against the conditions on a full grid",
          ("isometry", "normalizer", "--lattice", "dim6:k=2:p=1:q=3:M=4",
           "--grid-points", "60"), 0,
          lambda r: r["verdicts"]["points"] == 500 and r["verdicts"]["oracle_agreement"] == 1.0),
    Check("a twist of 10^30: exact sign checks bracket the first mu instead of stepping to it",
          ("quotient", "certify-causal", "--lattice", BIG_TWIST % "2pi"), 0,
          lambda r: len(r["certificates"]) == 2, seconds=20),
    Check("K0 = 2 under a twist of 10^30: the certificate's d cancels to about -0.89 in float",
          ("quotient", "certify-causal", "--lattice", BIG_TWIST % "pi"), 0,
          lambda r: len(r["certificates"]) == 2, seconds=20),
    Check("left maps are decided at the first grid point: a grid of 10^6 is never built",
          ("isometry", "fiber", "--lattice", "dim4:k=2:angle=pi/2",
           "--map", 'left:{"z": "1/3", "v": ["1/2", "1/2"], "t": "pi/2"}',
           "--samples", "1000000"), 0,
          lambda r: r["verdicts"]["fiber"]["kind"] == "preserving", seconds=20),
    Check("inner maps are decided at the first grid point: a grid of 10^6 is never built",
          ("isometry", "fiber", "--lattice", "dim6:k=1:p=1:q=1:M=4",
           "--map", 'inner:{"z": 0, "v": [1, "1/2", 0, 0], "t": "pi/2"}',
           "--samples", "1000000"), 0,
          lambda r: r["verdicts"]["fiber"] == {
              "kind": "counterexample", "g": {"z": "1/6", "v": [0, "1/4", 0, 0], "t": 0},
              "lattice_element": {"z": 0, "v": [0, 0, 0, 0], "t": "1/2 pi"}},
          seconds=20),
    Check("a float map element checks no grid point: refused, with no fiber verdict",
          ("isometry", "fiber", "--lattice", LATTICE,
           "--map", 'inner:{"z":0,"v":[0.25,0],"t":0}'), 2,
          lambda r: "fiber" not in r["verdicts"]),
    Check("the lattice fixes the frequencies: --freqs beside it is refused, not dropped",
          ("geodesic", "character", "--X", "X1 + T", "--lattice", LATTICE,
           "--freqs", "[1, 2]"), 2),
    Check("a nested base that is not an object is refused with a report",
          ("lattice", "info", "--lattice", '{"family":"twisted","m":"1","base":null}'), 2),
    Check("a word search of depth 64 stops at its budget of words: undecided, not hung",
          ("lattice", "contains", "--lattice", DEPTH_64,
           "--element", '{"z": 0, "v": [1, 1], "t": 0}'), 0,
          lambda r: r["verdicts"]["contains"] is None, seconds=20),
    Check("a generator element with a missing key is refused with a report, not a KeyError",
          ("lattice", "info", "--lattice",
           '{"family":"generators","freqs":[1],"elements":[{"z":0,"v":[1,0]}]}'), 2),
    Check("a non-numeric theta block is refused, not skipped at every grid point",
          ("isometry", "fiber", "--lattice", LATTICE, "--map", "theta",
           "--blocks", '[[["a",0],[0,1]]]'), 2,
          lambda r: "fiber" not in r["verdicts"]),
    Check("an infinite RK4 step is refused",
          ("geodesic", "integrate", "--X", "X1 + T", "--s-end", "1", "--step", "inf"), 2),
    Check("a NaN velocity entry is refused",
          ("quotient", "closed-search", "--lattice", LATTICE,
           "--X", '{"d": NaN, "bc": [[0.1, 0]], "a": 1.0}'), 2),
    Check("a signed exponent is part of its coefficient, not a new term: a = 1/1000",
          ("quotient", "decide-closed", "--lattice", LATTICE, "--X", "1e-3*T"), 0,
          lambda r: r["verdicts"]["closure"] == {"kind": "closes", "r": 1}),
)


def failure(check: Check, code: int, out: str) -> str | None:
    """Why the command's exit code and stdout fail the check, or None."""
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return f"printed no JSON report (exit {code})"
    if code != check.code:
        return f"exited {code}, expected {check.code}"
    try:
        holds = check.holds(report)
    except (KeyError, IndexError, TypeError) as exc:
        return f"report lacks what the check reads: {exc!r}"
    return None if holds else "the report fails the check"


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            done = subprocess.run(["oscgeo", *check.argv], capture_output=True, text=True,
                                  timeout=check.seconds)
            why = failure(check, done.returncode, done.stdout)
        except subprocess.TimeoutExpired:
            why = f"still running after {check.seconds} s"
        if why is not None:
            failed += 1
            print(f"FAIL {check.why}: {why}\n  oscgeo {' '.join(check.argv)}")
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} CLI contract checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
