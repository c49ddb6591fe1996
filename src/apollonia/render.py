"""Deterministic SVG rendering of a result document.

Given circles are stroked thick, solutions thin;
lines are clipped to the viewport.  Output is byte-stable for identical
inputs: fixed ordering, fixed precision.
"""

from __future__ import annotations

import math

VIEW = 640.0
MARGIN = 0.10


def _f(x: float) -> str:
    return format(x, ".6g")


def _collect_shapes(doc: dict):
    """(kind, a, b, c, d, style) for every drawable curve in the document."""
    shapes = []
    for quad in doc.get("inputs", []):
        shapes.append((quad, "given"))
    if "distinct_unoriented" in doc:
        for sol in doc["distinct_unoriented"]:
            shapes.append((sol["coeffs"], "solution"))
    else:
        for ss in doc.get("solution_sets", []):
            for sol in ss.get("solutions", []):
                shapes.append((sol["coeffs"], "solution"))
    return shapes


def _bounds(shapes):
    xs, ys = [], []
    for (a, b, c, d), _ in shapes:
        if a != 0.0:
            cx, cy, r = -b / a, -c / a, 1.0 / abs(a)
            xs += [cx - r, cx + r]
            ys += [cy - r, cy + r]
        else:
            # foot of the origin perpendicular on the line
            xs.append(-b * d / 2.0)
            ys.append(-c * d / 2.0)
    if not xs:
        return (-1.0, -1.0, 1.0, 1.0)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1e-6)
    pad = MARGIN * span
    return (x0 - pad, y0 - pad, x1 + pad, y1 + pad)


def _clip_line(a_coef, b_coef, c_coef, d_coef, box):
    """Intersect the line 2bx + 2cy + d = 0 with the bounding box."""
    x0, y0, x1, y1 = box
    b, c, d = b_coef, c_coef, d_coef
    pts = []
    for x in (x0, x1):
        if abs(c) > 1e-12:
            y = -(2.0 * b * x + d) / (2.0 * c)
            if y0 - 1e-9 <= y <= y1 + 1e-9:
                pts.append((x, y))
    for y in (y0, y1):
        if abs(b) > 1e-12:
            x = -(2.0 * c * y + d) / (2.0 * b)
            if x0 - 1e-9 <= x <= x1 + 1e-9:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if all(math.hypot(p[0] - q[0], p[1] - q[1]) > 1e-9 for q in uniq):
            uniq.append(p)
    return uniq[:2] if len(uniq) >= 2 else None


def render_svg(doc: dict) -> str:
    """Render a result document to standalone SVG 1.1 text."""
    shapes = _collect_shapes(doc)
    box = _bounds(shapes)
    x0, y0, x1, y1 = box
    w, h = x1 - x0, y1 - y0
    scale = VIEW / max(w, h)

    def sx(x):
        return (x - x0) * scale

    def sy(y):
        return (y1 - y) * scale  # flip: y up in geometry, down in SVG

    styles = {
        "given": 'stroke="#222222" stroke-width="3" fill="none"',
        "solution": 'stroke="#c0392b" stroke-width="1" fill="none"',
    }
    body = []
    for (a, b, c, d), style in shapes:
        attrs = styles[style]
        if a != 0.0:
            cx, cy, r = -b / a, -c / a, 1.0 / abs(a)
            body.append(f'<circle cx="{_f(sx(cx))}" cy="{_f(sy(cy))}" '
                        f'r="{_f(r * scale)}" {attrs}/>')
        else:
            seg = _clip_line(a, b, c, d, box)
            if seg is not None:
                (px, py), (qx, qy) = seg
                body.append(f'<line x1="{_f(sx(px))}" y1="{_f(sy(py))}" '
                            f'x2="{_f(sx(qx))}" y2="{_f(sy(qy))}" {attrs}/>')
    width = _f(w * scale)
    height = _f(h * scale)
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"
