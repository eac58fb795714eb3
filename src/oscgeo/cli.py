"""Command-line front end: JSON reports and CSV geodesic samples.

The verbs and their options are declared once, in the VERBS table below.
Lattices are given either as inline JSON or as colon shorthand such as
``dim4:k=1:angle=2pi`` and ``dim6:k=1:p=1:q=1:M=4``.  Reports are JSON with
a fixed field set (verdicts, certificates, tables, diagnostics, version,
seed); byte-identical for identical config and seed apart from the
timestamp field.  Exit codes: 0 success, 2 validation error, 3 internal
verification failure.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .algebra import AlgebraVector, FrequencyList, causal_class
from .exact import parse_exact
from .geodesics import (
    Geodesic,
    eval_geodesic,
    integrate_geodesic,
)
from .group import GroupElement
from .isometries import (
    Inner,
    Inversion,
    LeftTranslation,
    Theta,
    check_local_isometry,
    is_fiber_preserving,
    psi_decompose,
    structure_relations_check,
)
from .lattices import (
    LatticeSpec,
    MembershipUndecidable,
    ProductWithLine,
    UnsupportedSpec,
    central_element,
    from_json as lattice_from_json,
    pure_t_element,
)
from .normalizers import (
    NormalizerTable,
    in_normalizer,
    normalizer_oracle,
    normalizer_table_report,
    verification_grid,
)
from .quotient import (
    CertificateVerificationFailed,
    classify_lightlike,
    closed_timelike_and_spacelike,
    decide_closed,
    product_line_lightlike,
    search_closed,
)

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3
MAX_EVAL_SAMPLES = 10**5  # `geodesic eval` rows, all held in the report (see the README)


class CliValidationError(ValueError):
    pass


# -- input parsing ------------------------------------------------------------


def parse_lattice(text: str) -> LatticeSpec:
    text = text.strip()
    if text.startswith("{"):
        return lattice_from_json(json.loads(text))
    parts = text.split(":")
    family, options = parts[0], parts[1:]
    obj: dict = {"family": family}
    for opt in options:
        if "=" not in opt:
            raise CliValidationError(f"bad lattice option {opt!r} (expected key=value)")
        key, val = opt.split("=", 1)
        obj[key] = int(val) if re.fullmatch(r"-?\d+", val) else val
    try:
        return lattice_from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise CliValidationError(f"bad lattice spec {text!r}: {exc}") from exc


_BASIS_RE = re.compile(r"^(Z|T|X(\d+)|Y(\d+))$", re.IGNORECASE)


def parse_velocity(text: str, n: int) -> AlgebraVector:
    """Velocity from JSON {"d":..,"bc":[[b,c],..],"a":..} or expressions
    like "Z", "2*Z + X1 - 1/2*T" with X/Y indices up to n."""
    text = text.strip()
    if text.startswith("{"):
        obj = json.loads(text)
        if "bc" not in obj:
            raise CliValidationError('velocity JSON needs "bc", a list of [b, c] pairs')
        return AlgebraVector(
            _num(obj.get("d", 0)), [(_num(b), _num(c)) for b, c in obj["bc"]],
            _num(obj.get("a", 0)),
        )
    # a term starts at each sign, except the sign of an exponent (1e-3), which
    # directly follows its e: spaces go only after the split, so 1e - 3 is refused
    parsed = []
    for term in re.split(r"(?<![eE])(?=[+-])", text):
        term = term.replace(" ", "")
        if not term:
            continue
        sign = 1
        if term[0] in "+-":
            sign = -1 if term[0] == "-" else 1
            term = term[1:]
        coef = Fraction(1)
        if "*" in term:
            coef_text, term = term.split("*", 1)
            coef = Fraction(coef_text)
        m = _BASIS_RE.match(term)
        if not m:
            raise CliValidationError(f"bad velocity term {term!r}")
        name = m.group(1).upper()
        idx = int(m.group(2) or m.group(3) or 0)
        if name[0] in "XY" and idx < 1:
            raise CliValidationError(f"velocity term {term!r}: X/Y indices start at 1")
        if idx > n:
            raise CliValidationError(f"velocity term {term!r} needs n >= {idx}, got n = {n}")
        parsed.append((sign * coef, name, idx))
    d = Fraction(0)
    a = Fraction(0)
    bc = [[Fraction(0), Fraction(0)] for _ in range(n)]
    for coef, name, idx in parsed:
        if name == "Z":
            d += coef
        elif name == "T":
            a += coef
        elif name.startswith("X"):
            bc[idx - 1][0] += coef
        else:
            bc[idx - 1][1] += coef
    return AlgebraVector(d, [tuple(p) for p in bc], a)


def _num(x):
    if isinstance(x, float):
        if not math.isfinite(x):
            raise CliValidationError(f"bad numeric entry {x!r}: not finite")
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return parse_exact(x)
    raise CliValidationError(f"bad numeric entry {x!r}")


def parse_element(text: str) -> GroupElement:
    try:
        return GroupElement.from_json(json.loads(text))
    except (KeyError, ValueError, TypeError) as exc:
        raise CliValidationError(f"bad group element {text!r}: {exc}") from exc


def parse_range(text: str) -> tuple[float, float]:
    m = re.fullmatch(r"\s*(-?[\d.eE+-]+)\.\.(-?[\d.eE+-]+)\s*", text)
    if not m:
        raise CliValidationError(f"bad range {text!r} (expected a..b)")
    lo, hi = float(m.group(1)), float(m.group(2))
    if not (math.isfinite(lo) and math.isfinite(hi)):  # 1e999 reads as inf
        raise CliValidationError(f"bad range {text!r}: not finite")
    return lo, hi


# -- report assembly -----------------------------------------------------------


def make_report(args, payload: dict) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": " ".join(filter(None, (args.group, args.verb))),
        "seed": args.seed,
        "exact": True,  # kept for schema_version 1
        "verdicts": {},
        "certificates": [],
        "tables": {},
        "diagnostics": [],
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    report.update(payload)
    return report


def emit(args, report: dict) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


# -- verb handlers --------------------------------------------------------------


def _freqs_from_args(args) -> FrequencyList:
    if args.lattice:
        if args.freqs:
            raise CliValidationError("--freqs and --lattice do not combine: "
                                     "the lattice sets the frequencies")
        return parse_lattice(args.lattice).freqs
    if args.freqs:
        return FrequencyList.from_json(args.freqs)
    return FrequencyList([1])


def cmd_geodesic_eval(args) -> dict:
    freqs = _freqs_from_args(args)
    x = parse_velocity(args.X, freqs.n)
    lo, hi = parse_range(args.s)
    if args.samples > MAX_EVAL_SAMPLES:
        raise CliValidationError(f"--samples {args.samples} exceeds {MAX_EVAL_SAMPLES}")
    geo = Geodesic(x.to_floats(), freqs)
    rows = [[float(s), *map(float, eval_geodesic(geo, float(s)).coords())]
            for s in np.linspace(lo, hi, args.samples)]
    header = ["s", "z"]
    for i in range(freqs.n):
        header.extend((f"x{i + 1}", f"y{i + 1}"))
    header.append("t")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(repr(v) for v in row) + "\n")
    return {
        "verdicts": {"samples": len(rows)},
        "tables": {"header": header, "rows": rows},
    }


def cmd_geodesic_integrate(args) -> dict:
    freqs = _freqs_from_args(args)
    x = parse_velocity(args.X, freqs.n).to_floats()
    final = integrate_geodesic(x, args.s_end, args.step, freqs)
    closed_form = eval_geodesic(Geodesic(x, freqs), args.s_end)
    err = max(
        abs(a - b) for a, b in zip(final.coords(), closed_form.coords())
    )
    return {
        "verdicts": {"max_error_vs_closed_form": err},
        "tables": {
            "integrated": final.to_json(),
            "closed_form": closed_form.to_json(),
        },
    }


def cmd_geodesic_character(args) -> dict:
    freqs = _freqs_from_args(args)
    return {"verdicts": {"causal": causal_class(parse_velocity(args.X, freqs.n), freqs).value}}


def cmd_lattice_info(args) -> dict:
    spec = parse_lattice(args.lattice)
    payload: dict = {"verdicts": {"family": spec.to_json()}}
    try:
        prof = spec.profile()
    except UnsupportedSpec:
        payload["diagnostics"] = ["profile unavailable for this family"]
        return payload
    pure = pure_t_element(spec)
    payload["tables"] = {
        "profile": {
            "t0": str(prof.t0),
            "K0": prof.k0,
            "central_w": str(prof.central_w),
            "has_pure_t": prof.has_pure_t,
        },
        "central_element": central_element(spec).to_json(),
        "pure_t_element": pure.to_json() if pure is not None else None,
    }
    return payload


def cmd_lattice_contains(args) -> dict:
    spec = parse_lattice(args.lattice)
    g = parse_element(args.element)
    try:
        verdict = spec.contains(g)
    except MembershipUndecidable as exc:
        return {
            "verdicts": {"contains": None},
            "diagnostics": [f"undecidable: {exc}"],
        }
    return {"verdicts": {"contains": verdict}}


def cmd_quotient_classify(args) -> dict:
    spec = parse_lattice(args.lattice)
    verdict = classify_lightlike(spec)
    return {"verdicts": {"lightlike": verdict.to_json()}}


def cmd_quotient_closed_search(args) -> dict:
    spec = parse_lattice(args.lattice)
    x = parse_velocity(args.X, spec.freqs.n)
    cert = search_closed(x, spec, r_max=args.r_max)
    if cert is None:
        if x.is_exact():  # decided in closed form, capped at r_max
            note = (f"no candidate up to r_max={args.r_max} closes; "
                    "quotient decide-closed decides every r")
        else:
            note = f"no closure within r_max={args.r_max}; not a proof of openness"
        return {"verdicts": {"closed": False}, "diagnostics": [note]}
    return {"verdicts": {"closed": True}, "certificates": [cert.to_json()]}


def cmd_quotient_decide_closed(args) -> dict:
    spec = parse_lattice(args.lattice)
    decision = decide_closed(parse_velocity(args.X, spec.freqs.n), spec)
    certs = [decision.certificate.to_json()] if decision.closes else []
    return {"verdicts": {"closure": decision.to_json()}, "certificates": certs}


def cmd_quotient_certify_causal(args) -> dict:
    spec = parse_lattice(args.lattice)
    time_cert, space_cert = closed_timelike_and_spacelike(spec)
    return {
        "verdicts": {"timelike_closed": True, "spacelike_closed": True},
        "certificates": [time_cert.to_json(), space_cert.to_json()],
    }


def cmd_quotient_product_line(args) -> dict:
    spec = parse_lattice(args.lattice)
    if not isinstance(spec, ProductWithLine):
        raise CliValidationError("product-line analysis needs a product_line lattice")
    verdict = product_line_lightlike(spec)
    return {"verdicts": {"product_line_lightlike": verdict.to_json()}}


def cmd_isometry_check_matrix(args) -> dict:
    freqs = _freqs_from_args(args)
    matrix = np.array(json.loads(args.matrix), dtype=float)
    ok = check_local_isometry(matrix, freqs)
    return {"verdicts": {"local_isometry": bool(ok)}}


def cmd_isometry_decompose(args) -> dict:
    freqs = _freqs_from_args(args)
    matrix = np.array(json.loads(args.matrix), dtype=float)
    eps, blocks, c = psi_decompose(matrix, freqs)
    return {
        "verdicts": {"eps": eps},
        "tables": {
            "blocks": [b.tolist() for b in blocks],
            "c": list(c),
        },
    }


def cmd_isometry_normalizer(args) -> dict:
    if args.grid_points < 1:
        raise CliValidationError(f"--grid-points must be at least 1, got {args.grid_points}")
    spec = parse_lattice(args.lattice)
    table = NormalizerTable.for_spec(spec).to_json()  # refuses a family with no tabulated form
    if args.element:
        g = parse_element(args.element)
        conditions = in_normalizer(g, spec)
        oracle = normalizer_oracle(g, spec)
        return {
            "verdicts": {"in_normalizer": conditions, "oracle": oracle},
            "tables": {"normalizer": table},
        }
    grid = verification_grid(spec, max_points=args.grid_points)
    report = normalizer_table_report(spec, grid)
    disagreements = [d["element"] for d in report if d["conditions"] != d["oracle"]]
    table_diffs = [d["element"] for d in report if d["conditions"] != d["table"]]
    return {
        "verdicts": {
            "points": len(grid),
            "oracle_agreement": 1.0 - len(disagreements) / len(grid),
        },
        "tables": {"normalizer": table},
        "diagnostics": [
            *(f"oracle disagreement at {d}" for d in disagreements),
            *(
                f"tabulated set differs from the derived conditions at {d}"
                for d in table_diffs[:10]
            ),
        ],
    }


def _parse_map(args) -> object:
    name = args.map.lower()
    if name != "theta" and (args.blocks is not None or args.normalized):
        raise CliValidationError("--blocks and --normalized only apply to --map theta")
    if name == "inversion":
        return Inversion()
    if name == "theta":
        if not args.blocks:
            raise CliValidationError("theta needs --blocks")
        return Theta(json.loads(args.blocks), normalized=args.normalized)
    if name.startswith("left:"):
        return LeftTranslation(parse_element(name[5:]))
    if name.startswith("inner:"):
        return Inner(parse_element(name[6:]))
    raise CliValidationError(f"unknown map {args.map!r}")


def cmd_isometry_fiber(args) -> dict:
    spec = parse_lattice(args.lattice)
    f = _parse_map(args)
    verdict = is_fiber_preserving(f, spec, samples=args.samples, seed=args.seed)
    return {"verdicts": {"fiber": verdict.to_json()}}


def cmd_isometry_relations(args) -> dict:
    freqs = _freqs_from_args(args)
    blocks = [np.array(b, dtype=float) for b in json.loads(args.blocks)]
    v = json.loads(args.v)
    report = structure_relations_check(
        blocks,
        v,
        args.t,
        freqs,
        normalized=not args.verbatim,
        seed=args.seed,
    )
    out = {}
    diagnostics = []
    for key in ("i", "i_orientation_adjusted", "ii", "iii"):
        entry = report[key]
        out[key] = {"max_err": entry["max_err"], "holds": entry["holds"]}
        if not entry["holds"] and entry["witness"] is not None:
            diagnostics.append(
                f"relation {key} fails at witness {entry['witness'].to_json()}"
            )
    out["all_hold"] = report["all_hold"]
    return {"verdicts": {"relations": out}, "diagnostics": diagnostics}


# -- the verb table and the parser built from it ---------------------------------


X = ("--X", dict(required=True))
LATTICE = ("--lattice", dict(required=True))
# --freqs or an optional --lattice, read by _freqs_from_args (default [1])
FREQUENCIES = (("--freqs", {}), ("--lattice", {}))
MATRIX = ("--matrix", dict(required=True))

# (group, verb) -> (handler, option specs as (flag, add_argument keywords));
# the parser is built from this table
VERBS = {
    ("geodesic", "eval"): (cmd_geodesic_eval, (
        X, ("--s", dict(required=True, help="parameter range a..b")),
        ("--samples", dict(type=int, default=5)), ("--csv", {}), *FREQUENCIES)),
    ("geodesic", "integrate"): (cmd_geodesic_integrate, (
        X, ("--s-end", dict(type=float, required=True)),
        ("--step", dict(type=float, default=1e-3)), *FREQUENCIES)),
    ("geodesic", "character"): (cmd_geodesic_character, (X, *FREQUENCIES)),
    ("lattice", "info"): (cmd_lattice_info, (LATTICE,)),
    ("lattice", "contains"): (cmd_lattice_contains, (LATTICE, ("--element", dict(required=True)))),
    ("quotient", "classify"): (cmd_quotient_classify, (LATTICE,)),
    ("quotient", "closed-search"): (cmd_quotient_closed_search, (
        LATTICE, X, ("--r-max", dict(type=int, default=1000)))),
    ("quotient", "decide-closed"): (cmd_quotient_decide_closed, (LATTICE, X)),
    ("quotient", "certify-causal"): (cmd_quotient_certify_causal, (LATTICE,)),
    ("quotient", "product-line"): (cmd_quotient_product_line, (LATTICE,)),
    ("isometry", "check-matrix"): (cmd_isometry_check_matrix, (MATRIX, *FREQUENCIES)),
    ("isometry", "decompose"): (cmd_isometry_decompose, (MATRIX, *FREQUENCIES)),
    ("isometry", "normalizer"): (cmd_isometry_normalizer, (
        LATTICE, ("--element", {}), ("--grid", dict(choices=["default"])),
        ("--grid-points", dict(type=int, default=600, help="cap on base grid points, at least 1; "
                               "grids are padded to 500 points")))),
    ("isometry", "fiber"): (cmd_isometry_fiber, (
        LATTICE, ("--map", dict(required=True, help="inversion | theta | left:JSON | inner:JSON")),
        ("--blocks", {}), ("--normalized", dict(action="store_true")),
        ("--samples", dict(type=int, default=60, help="grid points for theta and inversion maps, "
                           "at least 0; grids have a floor of 24 points")))),
    ("isometry", "relations"): (cmd_isometry_relations, (
        ("--blocks", dict(required=True)), ("--v", dict(required=True)),
        ("--t", dict(type=float, required=True)), ("--verbatim", dict(action="store_true")),
        *FREQUENCIES)),
}

# what a report says when the command line does not parse
PARSER_DEFAULTS = {"seed": 0, "output": None}


class CliParseError(CliValidationError):
    """A command line that does not parse, with the group and verb it named."""

    def __init__(self, message: str, group=None, verb=None):
        super().__init__(message)
        self.group, self.verb = group, verb


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # prog reads "oscgeo", "oscgeo GROUP" or "oscgeo GROUP VERB"
        raise CliParseError(message, *self.prog.split()[1:])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb in VERBS, built on first use and then shared:
    parsing does not change it."""
    parser = _Parser(
        prog="oscgeo",
        description="Oscillator-group geometry: geodesics, lattices, isometries.",
    )
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps leaf occurrences from clobbering top-level values
    common.add_argument("--output", type=str, default=argparse.SUPPRESS,
                        help="also write the JSON report here")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    parser.set_defaults(**PARSER_DEFAULTS)
    groups = parser.add_subparsers(dest="group", required=True)
    verbs = {}
    for (group, verb), (_, options) in VERBS.items():
        if group not in verbs:
            verbs[group] = groups.add_parser(group).add_subparsers(dest="verb", required=True)
        leaf = verbs[group].add_parser(verb, parents=[common])
        for flag, kwargs in options:
            leaf.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args, unknown = build_parser().parse_known_args(argv)
        # argparse reads "--flag=--" as an empty list of values: refuse it too
        unknown += [f"--{name.replace('_', '-')}=--" for name, v in vars(args).items() if v == []]
        if unknown:
            raise CliParseError(f"unrecognized arguments: {' '.join(unknown)}",
                                args.group, args.verb)
        code, payload = EXIT_OK, VERBS[args.group, args.verb][0](args)
    except SystemExit:  # --help has printed its text
        return EXIT_OK
    except CliParseError as exc:
        args = argparse.Namespace(**PARSER_DEFAULTS, group=exc.group, verb=exc.verb)
        code, payload = EXIT_VALIDATION, {"diagnostics": [f"validation error: {exc}"]}
    except CertificateVerificationFailed as exc:
        code, payload = EXIT_VERIFICATION, {"diagnostics": [f"verification failed: {exc}"]}
    except (ValueError, TypeError, ArithmeticError, OSError) as exc:
        code, payload = EXIT_VALIDATION, {"diagnostics": [f"validation error: {exc}"]}
    try:
        emit(args, make_report(args, payload))
    except BrokenPipeError:
        # the reader closed stdout: send what is left (and the flush at exit)
        # to devnull, as the Python docs advise, and print nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (OSError, ValueError) as exc:  # --output cannot be written; emit printed nothing
        args.output = None
        emit(args, make_report(args, {"diagnostics": [f"validation error: {exc}"]}))
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
