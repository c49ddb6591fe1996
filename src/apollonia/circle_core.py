"""Oriented circles and directed lines as normalized coefficient quadruples.

A curve of constant curvature is stored as the quadruple (a, b, c, d) of

    N(x, y) = a*(x^2 + y^2) + 2*b*x + 2*c*y + d,

normalized so that b^2 + c^2 - a*d = 1.  The sign of a carries the
orientation: a > 0 is a counterclockwise circle, a < 0 clockwise, a = 0 a
directed line.  Points with N < 0 lie to the left of the directed curve
(inside, for a > 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

EPS_NORM = 1e-9     # acceptance tolerance for raw quadruples
EPS_COEFF = 1e-9    # coefficient agreement in coincidence tests
EPS_Q = 1e-9        # tangency tolerance on the invariant Q
EPS_ZERO = 1e-9     # generic relative zero test


class GeometryError(ValueError):
    """Base class for all geometric input errors."""


class NonNormalizable(GeometryError):
    """Quadruple cannot be scaled to satisfy b^2 + c^2 - a*d = 1."""


class InvalidRadius(GeometryError):
    """Circle radius must be positive."""


def canonical_angle(t: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    t = math.fmod(t, 2.0 * math.pi)
    if t > math.pi:
        t -= 2.0 * math.pi
    elif t <= -math.pi:
        t += 2.0 * math.pi
    return t


@dataclass(frozen=True)
class Point:
    x: float
    y: float


@dataclass(frozen=True)
class CurvatureElement:
    """A point on the curve, the tangent direction there, and the curvature.

    k = 0 generates a straight line through (x, y) directed along tau.
    """

    x: float
    y: float
    tau: float
    k: float

    def __post_init__(self):
        object.__setattr__(self, "tau", canonical_angle(self.tau))

    def reversed(self) -> "CurvatureElement":
        return CurvatureElement(self.x, self.y, self.tau + math.pi, -self.k)


@dataclass(frozen=True)
class LinearElement:
    """A point plus a tangent direction (no curvature)."""

    x: float
    y: float
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "tau", canonical_angle(self.tau))


@dataclass(frozen=True)
class CircleCoeffs:
    a: float
    b: float
    c: float
    d: float

    @property
    def is_line(self) -> bool:
        return self.a == 0.0

    @property
    def curvature(self) -> float:
        return self.a

    @property
    def radius(self) -> float:
        """Unsigned radius; inf for a line."""
        return math.inf if self.a == 0.0 else 1.0 / abs(self.a)

    def center(self) -> Point:
        if self.a == 0.0:
            raise GeometryError("a line has no center")
        return Point(-self.b / self.a, -self.c / self.a)

    def quadruple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


class Coincidence(Enum):
    IDENTICAL = "identical"
    REVERSED_IDENTICAL = "reversed_identical"
    DISTINCT = "distinct"


def _renormalize(a: float, b: float, c: float, d: float) -> CircleCoeffs:
    s = b * b + c * c - a * d
    if not (s > 0.0) or not math.isfinite(s):
        raise NonNormalizable(
            f"b^2 + c^2 - a*d = {s!r} is not positive for ({a}, {b}, {c}, {d})"
        )
    r = math.sqrt(s)
    return CircleCoeffs(a / r, b / r, c / r, d / r)


def normalized_coeffs(a: float, b: float, c: float, d: float,
                      snap_line: bool = False) -> CircleCoeffs:
    """Scale a quadruple onto the normalization b^2 + c^2 - a*d = 1.

    With snap_line, a tiny curvature (relative to the other coefficients)
    is flattened to an exact straight line before rescaling.
    """
    if snap_line and a != 0.0:
        scale = max(abs(b), abs(c), abs(d), 1.0)
        if abs(a) <= EPS_ZERO * scale:
            a = 0.0
    return _renormalize(a, b, c, d)


def circle_from_center_radius(cx: float, cy: float, radius: float,
                              ccw: bool = True) -> CircleCoeffs:
    if not (radius > 0.0) or not math.isfinite(radius):
        raise InvalidRadius(f"radius must be positive and finite, got {radius!r}")
    k = 1.0 / radius if ccw else -1.0 / radius
    return _renormalize(k, -k * cx, -k * cy, k * (cx * cx + cy * cy) - 1.0 / k)


def line_from_point_angle(x: float, y: float, tau: float) -> CircleCoeffs:
    s, c = math.sin(tau), math.cos(tau)
    return _renormalize(0.0, s, -c, 2.0 * y * c - 2.0 * x * s)


def circle_from_element(el: CurvatureElement) -> CircleCoeffs:
    s, c = math.sin(el.tau), math.cos(el.tau)
    a = el.k
    b = -el.k * el.x + s
    cc = -el.k * el.y - c
    d = el.k * (el.x * el.x + el.y * el.y) - 2.0 * el.x * s + 2.0 * el.y * c
    return _renormalize(a, b, cc, d)


def circle_from_quadruple(a: float, b: float, c: float, d: float) -> CircleCoeffs:
    """Accept a raw quadruple already normalized to within EPS_NORM."""
    s = b * b + c * c - a * d
    if not (s > 0.0):
        raise NonNormalizable(f"b^2 + c^2 - a*d = {s!r} <= 0")
    if abs(s - 1.0) > EPS_NORM * max(1.0, abs(s)):
        raise NonNormalizable(
            f"quadruple violates normalization: b^2 + c^2 - a*d = {s!r}"
        )
    return _renormalize(a, b, c, d)


def circle_from_spec(spec) -> CircleCoeffs:
    """Build a circle from any supported description.

    Accepts a CurvatureElement, a CircleCoeffs (revalidated), or a mapping
    with a "type" key: center-radius circle, directed line, curvature
    element, or raw coefficient quadruple (the scene-file schema).
    """
    if isinstance(spec, CircleCoeffs):
        return circle_from_quadruple(*spec.quadruple())
    if isinstance(spec, CurvatureElement):
        return circle_from_element(spec)
    kind = spec.get("type")
    if kind == "circle":
        cx, cy = spec["center"]
        ccw = spec.get("orientation", "ccw") == "ccw"
        return circle_from_center_radius(cx, cy, spec["radius"], ccw=ccw)
    if kind == "line":
        px, py = spec["point"]
        return line_from_point_angle(px, py, spec["angle"])
    if kind == "element":
        return circle_from_element(
            CurvatureElement(spec["x"], spec["y"], spec["tau"], spec["k"]))
    if kind == "coeffs":
        return circle_from_quadruple(*spec["abcd"])
    raise GeometryError(f"unknown circle spec type: {kind!r}")


def reverse(k: CircleCoeffs) -> CircleCoeffs:
    """Flip the orientation: negate all four coefficients."""
    return CircleCoeffs(-k.a, -k.b, -k.c, -k.d)


def evaluate_n(k: CircleCoeffs, p: Point) -> float:
    """The defining polynomial N(p); negative iff p is left of the curve."""
    return k.a * (p.x * p.x + p.y * p.y) + 2.0 * k.b * p.x + 2.0 * k.c * p.y + k.d


def signed_distance(k: CircleCoeffs, p: Point) -> float:
    """Signed distance from p to the curve, sign inherited from N.

    The bracket 1 + a*N equals (a*x + b)^2 + (a*y + c)^2 >= 0; at the
    center of a circle it vanishes and the formula returns N itself,
    which is the documented value there (not -radius).
    """
    n = evaluate_n(k, p)
    root = 1.0 + k.a * n
    if root < 0.0:
        root = 0.0  # clamp roundoff; analytically a perfect square
    return n / (1.0 + math.sqrt(root))


def element_nearest_origin(k: CircleCoeffs) -> tuple[LinearElement, float]:
    """The curve point nearest the origin, with the signed distance l.

    Returns ({-l sin(lam), l cos(lam), lam}, l) with
    l = d / (1 + sqrt(1 + a*d)) and lam = arg(-c + i*b).  For a circle
    centered at the origin (b = c = 0) the angle is arbitrary and
    defaults to 0.
    """
    root = 1.0 + k.a * k.d
    if root < 0.0:
        root = 0.0
    l = k.d / (1.0 + math.sqrt(root))
    if k.b == 0.0 and k.c == 0.0:
        lam = 0.0
    else:
        lam = math.atan2(k.b, -k.c)
    return LinearElement(-l * math.sin(lam), l * math.cos(lam), lam), l


def element_on_circle(k: CircleCoeffs, phi: float) -> CurvatureElement:
    """A generating element at parameter phi along the curve.

    For a circle, phi is the central angle; for a line, phi is the arc
    length from the foot of the origin perpendicular.
    """
    base, _ = element_nearest_origin(k)
    if k.a == 0.0:
        return CurvatureElement(base.x + phi * math.cos(base.tau),
                                base.y + phi * math.sin(base.tau),
                                base.tau, 0.0)
    cx, cy = -k.b / k.a, -k.c / k.a
    r = 1.0 / k.a  # signed radius
    ang = math.atan2(base.y - cy, base.x - cx) + phi
    return CurvatureElement(cx + r * math.cos(ang) * math.copysign(1.0, r),
                            cy + r * math.sin(ang) * math.copysign(1.0, r),
                            ang + math.pi / 2.0 if r > 0 else ang - math.pi / 2.0,
                            k.a)


def coincidence_test(k1: CircleCoeffs, k2: CircleCoeffs,
                     tol: float = EPS_COEFF) -> Coincidence:
    """Compare two curves as coefficient quadruples, up to reversal."""
    a1, b1, c1, d1 = k1.a, k1.b, k1.c, k1.d
    a2, b2, c2, d2 = k2.a, k2.b, k2.c, k2.d
    t = tol * max(1.0, abs(a1), abs(b1), abs(c1), abs(d1),
                  abs(a2), abs(b2), abs(c2), abs(d2))
    if (abs(a1 - a2) <= t and abs(b1 - b2) <= t
            and abs(c1 - c2) <= t and abs(d1 - d2) <= t):
        return Coincidence.IDENTICAL
    if (abs(a1 + a2) <= t and abs(b1 + b2) <= t
            and abs(c1 + c2) <= t and abs(d1 + d2) <= t):
        return Coincidence.REVERSED_IDENTICAL
    return Coincidence.DISTINCT
