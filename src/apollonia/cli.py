"""Command-line interface.

    apollonia solve <scene> [--all] [--json out] [--svg out] [--strict]
    apollonia isogonal <scene> --cos-psi v1,v2,... [--json out] [--svg out]
    apollonia invariants <scene> [--json out]
    apollonia descartes <scene> [--json out]

Exit codes: 0 success, 1 no solutions under --strict, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .apollonius import (
    GeometryError,
    descartes_curvatures,
    enumerate_nonoriented,
    solve_oriented,
)
from .circle_core import reverse
from .isogonal import Branch, IsogonalQuery, solve_isogonal
from .render import render_svg
from .scene import (
    ParseError,
    SchemaError,
    emit_json,
    parse_scene,
    quadruple_doc,
    solution_set_doc,
    summary_doc,
)

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_INPUT_ERROR = 2


@functools.cache  # parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apollonia",
        description="Oriented Apollonius tangency solver")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scene", help="scene file (JSON)")
        p.add_argument("--json", dest="json_path", metavar="PATH",
                       help="write the result document to PATH")
        p.add_argument("--svg", dest="svg_path", metavar="PATH",
                       help="write an SVG rendering to PATH")
        p.add_argument("--strict", action="store_true",
                       help="exit with status 1 when no solutions exist")

    p = sub.add_parser("solve", help="oriented tangency problem")
    common(p)
    p.add_argument("--all", action="store_true", dest="enumerate_all",
                   help="enumerate the non-oriented problem via reversals")

    p = sub.add_parser("isogonal", help="equal-angle generalization")
    common(p)
    p.add_argument("--cos-psi", dest="cos_psi", default="",
                   help="comma-separated list of cos(Psi0) values")

    common(sub.add_parser("invariants", help="triple invariants and class"))
    common(sub.add_parser("descartes", help="Descartes counter-tangent case"))
    return parser


def _document(args, scene) -> dict:
    k1, k2, k3 = scene.circles
    doc = {
        "command": args.command,
        "inputs": [quadruple_doc(k) for k in scene.circles],
        "summary": summary_doc(k1, k2, k3),
    }
    given = scene.circles

    if args.command == "solve":
        if args.enumerate_all or scene.options.enumerate_all:
            report = enumerate_nonoriented(k1, k2, k3)
            labels = ("identity", "reverse_1", "reverse_2", "reverse_3")
            doc["solution_sets"] = []
            for label, ss, trip in zip(
                    labels, report.per_class,
                    ((k1, k2, k3), (reverse(k1), k2, k3),
                     (k1, reverse(k2), k3), (k1, k2, reverse(k3)))):
                entry = solution_set_doc(ss, trip)
                entry["reversal_class"] = label
                doc["solution_sets"].append(entry)
            doc["distinct_unoriented"] = [
                {"coeffs": quadruple_doc(sol)}
                for sol in report.distinct_unoriented]
            doc["n_solutions"] = len(report.distinct_unoriented)
        else:
            ss = solve_oriented(k1, k2, k3)
            doc["solution_sets"] = [solution_set_doc(ss, given)]
            doc["n_solutions"] = len(ss.solutions)

    elif args.command == "isogonal":
        values = [float(v) for v in args.cos_psi.split(",") if v.strip()] \
            if args.cos_psi else list(scene.options.cos_psi)
        if not values:
            raise SchemaError("isogonal requires --cos-psi or options.cos_psi")
        doc["solution_sets"] = []
        n = 0
        for c0 in values:
            ss = solve_isogonal(k1, k2, k3, IsogonalQuery(c0, Branch.BOTH))
            entry = solution_set_doc(ss, given)
            entry["cos_psi0"] = c0
            doc["solution_sets"].append(entry)
            n += len(ss.solutions)
        doc["n_solutions"] = n

    elif args.command == "invariants":
        doc["n_solutions"] = None

    elif args.command == "descartes":
        a_plus, a_minus = descartes_curvatures(k1, k2, k3)
        doc["curvatures"] = [a_plus, a_minus]
        doc["n_solutions"] = 2

    return doc


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else EXIT_OK

    try:
        with open(args.scene, "r", encoding="utf-8") as fh:
            scene = parse_scene(fh.read())
    except OSError as exc:
        print(f"error: cannot read scene: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ParseError, SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    try:
        doc = _document(args, scene)
    except (SchemaError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    text = emit_json(doc)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)

    if args.svg_path:
        with open(args.svg_path, "w", encoding="utf-8") as fh:
            fh.write(render_svg(doc))

    strict = args.strict or scene.options.strict
    if strict and doc.get("n_solutions") == 0:
        return EXIT_NO_SOLUTION
    return EXIT_OK


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
