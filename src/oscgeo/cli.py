"""Command-line front end: JSON reports and CSV geodesic samples.

Verbs:
    geodesic eval | integrate | character
    lattice  info | contains
    quotient classify | closed-search | certify-causal | product-line
    isometry check-matrix | normalizer | fiber | relations | decompose

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
import json
import os
import re
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .algebra import AlgebraVector, FrequencyList
from .exact import rat
from .geodesics import (
    Geodesic,
    causal_character,
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
    product_line_lightlike,
    search_closed,
)

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3


def default_float_tol() -> float:
    return float(os.environ.get("OSCGEO_FLOAT_TOL", "1e-9"))


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


def parse_velocity(text: str, n_hint: int | None = None) -> AlgebraVector:
    """Velocity from JSON {"d":..,"bc":[[b,c],..],"a":..} or expressions
    like "Z", "2*Z + X1 - 1/2*T"."""
    text = text.strip()
    if text.startswith("{"):
        obj = json.loads(text)
        return AlgebraVector(
            _num(obj.get("d", 0)), [(_num(b), _num(c)) for b, c in obj["bc"]],
            _num(obj.get("a", 0)),
        )
    terms = re.split(r"(?=[+-])", text.replace(" ", ""))
    parsed = []
    max_index = 0
    for term in terms:
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
        if n_hint and idx > n_hint:
            raise CliValidationError(
                f"velocity term {term!r} needs n >= {idx}, got n = {n_hint}"
            )
        max_index = max(max_index, idx)
        parsed.append((sign * coef, name, idx))
    n = n_hint or max(max_index, 1)
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
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return rat(x)
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
    return float(m.group(1)), float(m.group(2))


# -- report assembly -----------------------------------------------------------


def make_report(args, payload: dict) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": f"{args.group} {args.verb}",
        "seed": args.seed,
        "exact": args.mode != "float",
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
    if getattr(args, "lattice", None):
        return parse_lattice(args.lattice).freqs
    if getattr(args, "freqs", None):
        return FrequencyList.from_json(args.freqs)
    return FrequencyList([1])


def cmd_geodesic_eval(args) -> dict:
    freqs = _freqs_from_args(args)
    x = parse_velocity(args.X, freqs.n)
    lo, hi = parse_range(args.s)
    count = args.samples
    ss = np.linspace(lo, hi, count)
    geo = Geodesic(x.to_floats(), freqs)
    rows = []
    for s in ss:
        p = eval_geodesic(geo, float(s))
        rows.append([float(s), *[float(c) for c in p.coords()]])
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
    x = parse_velocity(args.X, freqs.n)
    final = integrate_geodesic(x.to_floats(), args.s_end, args.step, freqs)
    closed_form = eval_geodesic(Geodesic(x.to_floats(), freqs), args.s_end)
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
    x = parse_velocity(args.X, freqs.n)
    geo = Geodesic(x.to_floats(), freqs)
    return {"verdicts": {"causal": causal_character(geo).value}}


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
    cert = search_closed(x, spec, r_max=args.r_max, float_tol=default_float_tol())
    if cert is None:
        return {
            "verdicts": {"closed": False},
            "diagnostics": [
                f"no closure within r_max={args.r_max}; not a proof of openness"
            ],
        }
    return {"verdicts": {"closed": True}, "certificates": [cert.to_json()]}


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
    if args.grid not in (None, "default"):
        raise CliValidationError(f"unknown grid {args.grid!r} (only 'default' exists)")
    if args.grid_points < 1:
        raise CliValidationError(f"--grid-points must be at least 1, got {args.grid_points}")
    spec = parse_lattice(args.lattice)
    if args.element:
        g = parse_element(args.element)
        conditions = in_normalizer(g, spec)
        oracle = normalizer_oracle(g, spec)
        return {
            "verdicts": {"in_normalizer": conditions, "oracle": oracle},
            "tables": {"normalizer": NormalizerTable.for_spec(spec).to_json()},
        }
    grid = verification_grid(spec, max_points=args.grid_points)
    disagreements = [
        g.to_json()
        for g in grid
        if in_normalizer(g, spec) != normalizer_oracle(g, spec)
    ]
    table_diffs = normalizer_table_report(spec, grid)
    return {
        "verdicts": {
            "points": len(grid),
            "oracle_agreement": 1.0 - len(disagreements) / len(grid),
        },
        "tables": {"normalizer": NormalizerTable.for_spec(spec).to_json()},
        "diagnostics": [
            *(f"oracle disagreement at {d}" for d in disagreements),
            *(
                f"tabulated set differs from the derived conditions at {d['element']}"
                for d in table_diffs[:10]
            ),
        ],
    }


def _parse_map(args) -> object:
    name = args.map.lower()
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


HANDLERS = {
    ("geodesic", "eval"): cmd_geodesic_eval,
    ("geodesic", "integrate"): cmd_geodesic_integrate,
    ("geodesic", "character"): cmd_geodesic_character,
    ("lattice", "info"): cmd_lattice_info,
    ("lattice", "contains"): cmd_lattice_contains,
    ("quotient", "classify"): cmd_quotient_classify,
    ("quotient", "closed-search"): cmd_quotient_closed_search,
    ("quotient", "certify-causal"): cmd_quotient_certify_causal,
    ("quotient", "product-line"): cmd_quotient_product_line,
    ("isometry", "check-matrix"): cmd_isometry_check_matrix,
    ("isometry", "normalizer"): cmd_isometry_normalizer,
    ("isometry", "fiber"): cmd_isometry_fiber,
    ("isometry", "relations"): cmd_isometry_relations,
    ("isometry", "decompose"): cmd_isometry_decompose,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscgeo",
        description="Oscillator-group geometry: geodesics, lattices, isometries.",
    )
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps leaf occurrences from clobbering top-level values
    common.add_argument("--output", type=str, default=argparse.SUPPRESS,
                        help="also write the JSON report here")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    mode = common.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="mode", action="store_const", const="exact",
                      default=argparse.SUPPRESS)
    mode.add_argument("--float", dest="mode", action="store_const", const="float",
                      default=argparse.SUPPRESS)
    parser.set_defaults(mode="exact", seed=0, output=None)
    sub = parser.add_subparsers(dest="group", required=True)

    def leaf(group_parser, name):
        return group_parser.add_parser(name, parents=[common])

    geo = sub.add_parser("geodesic").add_subparsers(dest="verb", required=True)
    p = leaf(geo, "eval")
    p.add_argument("--X", required=True)
    p.add_argument("--s", required=True, help="parameter range a..b")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--csv", type=str, default=None)
    p.add_argument("--freqs", type=str, default=None)
    p.add_argument("--lattice", type=str, default=None)
    p = leaf(geo, "integrate")
    p.add_argument("--X", required=True)
    p.add_argument("--s-end", dest="s_end", type=float, required=True)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--freqs", type=str, default=None)
    p.add_argument("--lattice", type=str, default=None)
    p = leaf(geo, "character")
    p.add_argument("--X", required=True)
    p.add_argument("--freqs", type=str, default=None)
    p.add_argument("--lattice", type=str, default=None)

    lat = sub.add_parser("lattice").add_subparsers(dest="verb", required=True)
    p = leaf(lat, "info")
    p.add_argument("--lattice", required=True)
    p = leaf(lat, "contains")
    p.add_argument("--lattice", required=True)
    p.add_argument("--element", required=True)

    quo = sub.add_parser("quotient").add_subparsers(dest="verb", required=True)
    p = leaf(quo, "classify")
    p.add_argument("--lattice", required=True)
    p = leaf(quo, "closed-search")
    p.add_argument("--lattice", required=True)
    p.add_argument("--X", required=True)
    p.add_argument("--r-max", dest="r_max", type=int, default=1000)
    p = leaf(quo, "certify-causal")
    p.add_argument("--lattice", required=True)
    p = leaf(quo, "product-line")
    p.add_argument("--lattice", required=True)

    iso = sub.add_parser("isometry").add_subparsers(dest="verb", required=True)
    p = leaf(iso, "check-matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--freqs", type=str, default=None)
    p.add_argument("--lattice", type=str, default=None)
    p = leaf(iso, "decompose")
    p.add_argument("--matrix", required=True)
    p.add_argument("--freqs", type=str, default=None)
    p.add_argument("--lattice", type=str, default=None)
    p = leaf(iso, "normalizer")
    p.add_argument("--lattice", required=True)
    p.add_argument("--element", type=str, default=None)
    p.add_argument("--grid", type=str, default=None)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=600,
                   help="cap on base grid points, at least 1; grids are padded to 500 points")
    p = leaf(iso, "fiber")
    p.add_argument("--lattice", required=True)
    p.add_argument("--map", required=True, help="inversion | theta | left:JSON | inner:JSON")
    p.add_argument("--blocks", type=str, default=None)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--samples", type=int, default=60)
    p = leaf(iso, "relations")
    p.add_argument("--blocks", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--verbatim", action="store_true")
    p.add_argument("--freqs", type=str, default=None)
    p.add_argument("--lattice", type=str, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else 0
    handler = HANDLERS.get((args.group, args.verb))
    try:
        payload = handler(args)
    except CertificateVerificationFailed as exc:
        emit(args, make_report(args, {"diagnostics": [f"verification failed: {exc}"]}))
        return EXIT_VERIFICATION
    except (CliValidationError, UnsupportedSpec, json.JSONDecodeError) as exc:
        emit(args, make_report(args, {"diagnostics": [f"validation error: {exc}"]}))
        return EXIT_VALIDATION
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        emit(args, make_report(args, {"diagnostics": [f"validation error: {exc}"]}))
        return EXIT_VALIDATION
    emit(args, make_report(args, payload))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
