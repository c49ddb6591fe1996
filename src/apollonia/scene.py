"""Scene files and result documents.

A scene is a JSON document with exactly three circle specs plus options:

    {"circles": [{"type": "circle", "center": [x, y], "radius": r,
                  "orientation": "ccw"|"cw"},
                 {"type": "line", "point": [x, y], "angle": t},
                 {"type": "element", "x": .., "y": .., "tau": .., "k": ..},
                 {"type": "coeffs", "abcd": [a, b, c, d]}],
     "options": {"cos_psi": [..], "all": false, "strict": false}}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .circle_core import (
    CircleCoeffs,
    GeometryError,
    circle_from_spec,
)
from .invariants import (
    classify_triple,
    coeff_scale,
    similarity,
    triple_summary,
    zero_tol,
)
from .apollonius import (
    SolutionSet,
    tangency_point,
    tangency_residual,
)


class ParseError(ValueError):
    """Scene file is not well-formed JSON."""


class SchemaError(ValueError):
    """Scene file JSON does not match the scene schema."""


@dataclass
class SceneOptions:
    cos_psi: list[float] = field(default_factory=list)
    enumerate_all: bool = False
    strict: bool = False


@dataclass
class Scene:
    circles: tuple[CircleCoeffs, CircleCoeffs, CircleCoeffs]
    options: SceneOptions


def parse_scene(text: str) -> Scene:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scene is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("scene root must be an object")
    specs = doc.get("circles")
    if not isinstance(specs, list) or len(specs) != 3:
        raise SchemaError("scene must contain exactly three entries in 'circles'")
    circles = []
    for i, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise SchemaError(f"circles[{i}] must be an object")
        try:
            circles.append(circle_from_spec(spec))
        except KeyError as exc:
            raise SchemaError(f"circles[{i}] is missing field {exc}") from None
        except GeometryError as exc:
            raise ValueError(f"circles[{i}]: {exc}") from None
    opts_doc = doc.get("options", {})
    if not isinstance(opts_doc, dict):
        raise SchemaError("'options' must be an object")
    cos_psi = opts_doc.get("cos_psi", [])
    if not isinstance(cos_psi, list) or \
            not all(isinstance(v, (int, float)) for v in cos_psi):
        raise SchemaError("options.cos_psi must be a list of numbers")
    options = SceneOptions(cos_psi=[float(v) for v in cos_psi],
                           enumerate_all=bool(opts_doc.get("all", False)),
                           strict=bool(opts_doc.get("strict", False)))
    return Scene(circles=tuple(circles), options=options)


def quadruple_doc(k: CircleCoeffs) -> list[float]:
    return list(k.quadruple())


def _solution_doc(sol: CircleCoeffs, given) -> dict:
    entry: dict[str, Any] = {
        "coeffs": quadruple_doc(sol),
        "residual": tangency_residual(sol, given),
    }
    if sol.a != 0.0:
        c = sol.center()
        entry["center"] = [c.x, c.y]
        entry["radius"] = sol.radius
        entry["orientation"] = "ccw" if sol.a > 0 else "cw"
    else:
        entry["line"] = True
    points = []
    for k in given:
        try:
            el = tangency_point(sol, k)
            points.append({"x": el.x, "y": el.y, "tau": el.tau})
        except GeometryError:
            points.append(None)
    entry["tangency_points"] = points
    return entry


def solution_set_doc(ss: SolutionSet, given) -> dict:
    doc: dict[str, Any] = {
        "class": ss.config.tag.value,
        "solutions": [_solution_doc(s, given) for s in ss.solutions],
    }
    if ss.config.pencil_subtype is not None:
        doc["pencil_subtype"] = ss.config.pencil_subtype.value
    if ss.config.coincidence is not None:
        doc["coincidence"] = ss.config.coincidence.value
    if ss.family is not None:
        doc["family"] = {
            "kind": ss.family.kind.value,
            "base": [quadruple_doc(k) for k in ss.family.base],
        }
    return doc


def summary_doc(k1: CircleCoeffs, k2: CircleCoeffs, k3: CircleCoeffs) -> dict:
    s = triple_summary(k1, k2, k3)
    doc = {name: getattr(s, name)
           for name in ("q1", "q2", "q3", "d1", "d2", "d3", "d4",
                        "dbc", "dab", "dac", "dbd", "dcd",
                        "u", "v", "w", "g", "p_perp")}
    config = classify_triple(k1, k2, k3)
    doc["class"] = config.tag.value
    if abs(s.d4) > zero_tol(coeff_scale(k1, k2, k3), 3):
        doc["radical_center"] = [-s.d2 / s.d4, -s.d3 / s.d4]
    else:
        doc["radical_center"] = None
    sim = similarity(k1, k2, k3)
    doc["similarity_axis"] = (quadruple_doc(sim.axis)
                              if sim.axis is not None else None)
    return doc


def emit_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False)
