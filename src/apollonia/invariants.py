"""Pairwise and triple inversive invariants and configuration classification.

The pairwise invariant Q satisfies cos(Psi) = 1 - 2*Q where Psi is the
directed intersection angle: Q = 0 is tangency, Q = 1 counter-tangency,
0 < Q < 1 real intersection, otherwise disjoint with |1 - 2Q| = cosh of
the inversive distance.

Triples use the cyclic index convention (i, j, k) in {(1,2,3), (2,3,1),
(3,1,2)} with q1 = Q(K1, K2), q2 = Q(K2, K3), q3 = Q(K3, K1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .circle_core import (
    EPS_Q,
    EPS_ZERO,
    CircleCoeffs,
    Coincidence,
    GeometryError,
    Point,
    coincidence_test,
    evaluate_n,
    normalized_coeffs,
)


class PairRelation(Enum):
    TANGENT = "tangent"
    COUNTER_TANGENT = "counter_tangent"
    INTERSECTING = "intersecting"
    DISJOINT = "disjoint"


class PairExistence(Enum):
    YES = "yes"
    YES_NO_RADICAL_AXIS = "yes_no_radical_axis"
    NO = "no"


class PencilType(Enum):
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"
    UNDEFINED = "undefined"


class ConfigTag(Enum):
    GENERIC = "generic"
    THREE_LINES = "three_lines"
    PENCIL = "pencil"
    SINGLE_COMMON_POINT = "single_common_point"
    COINCIDENT_PAIR = "coincident_pair"


@dataclass(frozen=True)
class ConfigClass:
    tag: ConfigTag
    pencil_subtype: Optional[PencilType] = None
    coincidence: Optional[Coincidence] = None
    pair: Optional[tuple[int, int]] = None  # 0-based indices of a coincident pair
    summary: Optional[TripleSummary] = field(  # reused by the branch solvers
        default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PairReport:
    q: float
    cos_psi: float
    relation: PairRelation
    inversive_distance: Optional[float]


@dataclass(frozen=True)
class TripleSummary:
    q1: float
    q2: float
    q3: float
    d1: float
    d2: float
    d3: float
    d4: float
    dbc: float
    dab: float
    dac: float
    dbd: float
    dcd: float
    u: float
    v: float
    w: float
    v1: float
    v2: float
    v3: float
    g: float
    p_perp: float


class DegeneratePair(GeometryError):
    """The pair has no radical axis (concentric circles or two lines)."""


NO_CENTER = object()  # sentinel: radical center undefined (d4 = 0)


def coeff_scale(*circles: CircleCoeffs) -> float:
    """Largest absolute coefficient over the inputs, floored at 1."""
    scale = 1.0
    for k in circles:
        scale = max(scale, abs(k.a), abs(k.b), abs(k.c), abs(k.d))
    return scale


def zero_tol(scale: float, degree: int, eps: float = EPS_ZERO) -> float:
    """Relative zero threshold for a quantity of the given coefficient degree."""
    return eps * max(1.0, scale) ** degree


def q_value(k1: CircleCoeffs, k2: CircleCoeffs) -> float:
    """4Q = 2 + a1*d2 + a2*d1 - 2*(b1*b2 + c1*c2)."""
    return 0.25 * (2.0 + k1.a * k2.d + k2.a * k1.d
                   - 2.0 * (k1.b * k2.b + k1.c * k2.c))


def q_pair(k1: CircleCoeffs, k2: CircleCoeffs, eps: float = EPS_Q) -> PairReport:
    q = q_value(k1, k2)
    cos_psi = 1.0 - 2.0 * q
    tol = zero_tol(coeff_scale(k1, k2), 2, eps)
    if abs(q) <= tol:
        relation = PairRelation.TANGENT
    elif abs(q - 1.0) <= tol:
        relation = PairRelation.COUNTER_TANGENT
    elif 0.0 < q < 1.0:
        relation = PairRelation.INTERSECTING
    else:
        relation = PairRelation.DISJOINT
    delta = math.acosh(abs(cos_psi)) if abs(cos_psi) >= 1.0 else None
    return PairReport(q=q, cos_psi=cos_psi, relation=relation,
                      inversive_distance=delta)


def pair_exists(k1: float, k2: float, q12: float,
                eps: float = EPS_ZERO) -> PairExistence:
    """Can two circles with curvatures k1, k2 realize the invariant q12?"""
    expr = k1 * k1 + k2 * k2 - 2.0 * k1 * k2 * (1.0 - 2.0 * q12)
    scale = max(1.0, abs(k1), abs(k2)) ** 2 * max(1.0, abs(q12))
    if k1 == 0.0 and k2 == 0.0:
        # a pair of lines additionally requires 0 <= q12 <= 1
        if -eps <= q12 <= 1.0 + eps:
            return PairExistence.YES_NO_RADICAL_AXIS
        return PairExistence.NO
    if abs(expr) <= eps * scale:
        return PairExistence.YES_NO_RADICAL_AXIS
    return PairExistence.YES if expr > 0.0 else PairExistence.NO


def _det3(a, b, c, d, e, f, g, h, i) -> float:
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@dataclass(frozen=True)
class Minors:
    d1: float
    d2: float
    d3: float
    d4: float
    dbc: float
    dab: float
    dac: float
    dbd: float
    dcd: float


def minors(k1: CircleCoeffs, k2: CircleCoeffs, k3: CircleCoeffs) -> Minors:
    """All 3x3 determinants of the coefficient matrix and its 1-columns."""
    a1, b1, c1, d1 = k1.a, k1.b, k1.c, k1.d
    a2, b2, c2, d2 = k2.a, k2.b, k2.c, k2.d
    a3, b3, c3, d3 = k3.a, k3.b, k3.c, k3.d
    return Minors(
        d1=-_det3(b1, c1, d1, b2, c2, d2, b3, c3, d3),
        d2=-_det3(a1, c1, d1, a2, c2, d2, a3, c3, d3) / 2.0,
        d3=+_det3(a1, b1, d1, a2, b2, d2, a3, b3, d3) / 2.0,
        d4=_det3(a1, b1, c1, a2, b2, c2, a3, b3, c3),
        dbc=_det3(b1, c1, 1.0, b2, c2, 1.0, b3, c3, 1.0),
        dab=_det3(a1, b1, 1.0, a2, b2, 1.0, a3, b3, 1.0),
        dac=_det3(a1, c1, 1.0, a2, c2, 1.0, a3, c3, 1.0),
        dbd=_det3(b1, d1, 1.0, b2, d2, 1.0, b3, d3, 1.0),
        dcd=_det3(c1, d1, 1.0, c2, d2, 1.0, c3, d3, 1.0),
    )


def triple_summary(k1: CircleCoeffs, k2: CircleCoeffs,
                   k3: CircleCoeffs) -> TripleSummary:
    q1 = q_value(k1, k2)
    q2 = q_value(k2, k3)
    q3 = q_value(k3, k1)
    m = minors(k1, k2, k3)

    u = (q1 * (q1 - 2.0 * q2) + q2 * (q2 - 2.0 * q3) + q3 * (q3 - 2.0 * q1)
         + 4.0 * q1 * q2 * q3)

    v1 = q1 * (q1 - q2 - q3)
    v2 = q2 * (q2 - q3 - q1)
    v3 = q3 * (q3 - q1 - q2)
    a1, a2, a3 = k1.a, k2.a, k3.a
    v = a1 * v2 + a2 * v3 + a3 * v1
    w = (a1 * q2 * (a1 * q2 - 2.0 * a2 * q3)
         + a2 * q3 * (a2 * q3 - 2.0 * a3 * q1)
         + a3 * q1 * (a3 * q1 - 2.0 * a1 * q2))

    g = (q1 * (a1 - a3) * (a2 - a3)
         + q2 * (a2 - a1) * (a3 - a1)
         + q3 * (a3 - a2) * (a1 - a2))

    # realizability functional; 4*p_perp = d4^2
    p_perp = (a1 * a1 * (1.0 - q2) * q2
              + a2 * a2 * (1.0 - q3) * q3
              + a3 * a3 * (1.0 - q1) * q1
              + a1 * a2 * (q1 - q3 - q2 + 2.0 * q3 * q2)
              + a2 * a3 * (q2 - q1 - q3 + 2.0 * q1 * q3)
              + a3 * a1 * (q3 - q2 - q1 + 2.0 * q2 * q1))

    # positional, in field order: cheaper than keywords in this hot call
    return TripleSummary(q1, q2, q3, m.d1, m.d2, m.d3, m.d4, m.dbc, m.dab,
                         m.dac, m.dbd, m.dcd, u, v, w, v1, v2, v3, g, p_perp)


def radical_axis(k1: CircleCoeffs, k2: CircleCoeffs) -> CircleCoeffs:
    """The radical axis of a pair, as a normalized line quadruple."""
    q12 = q_value(k1, k2)
    denom_sq = (k1.a * k1.a + k2.a * k2.a
                - 2.0 * k1.a * k2.a * (1.0 - 2.0 * q12))
    scale = coeff_scale(k1, k2)
    if denom_sq <= zero_tol(scale, 4):
        raise DegeneratePair("pair has no radical axis (concentric or two lines)")
    denom = math.sqrt(denom_sq)
    return normalized_coeffs(0.0,
                             (k1.a * k2.b - k2.a * k1.b) / denom,
                             (k1.a * k2.c - k2.a * k1.c) / denom,
                             (k1.a * k2.d - k2.a * k1.d) / denom)


@dataclass(frozen=True)
class RadicalStructure:
    center: Point
    axes: tuple[CircleCoeffs, CircleCoeffs, CircleCoeffs]  # pairs (1,2),(2,3),(3,1)


def radical_center_axis(k1: CircleCoeffs, k2: CircleCoeffs, k3: CircleCoeffs):
    """Radical center and the three radical axes, or NO_CENTER when d4 = 0."""
    m = minors(k1, k2, k3)
    scale = coeff_scale(k1, k2, k3)
    if abs(m.d4) <= zero_tol(scale, 3):
        return NO_CENTER
    center = Point(-m.d2 / m.d4, -m.d3 / m.d4)
    axes = (radical_axis(k1, k2), radical_axis(k2, k3), radical_axis(k3, k1))
    return RadicalStructure(center=center, axes=axes)


@dataclass(frozen=True)
class SimilarityReport:
    axis: Optional[CircleCoeffs]
    centers: tuple[Optional[Point], Optional[Point], Optional[Point]]
    g: float


def similarity(k1: CircleCoeffs, k2: CircleCoeffs,
               k3: CircleCoeffs) -> SimilarityReport:
    """Similarity axis and the three pairwise similarity centers.

    A center M_ij is undefined when a_i = a_j; the axis is undefined
    when G = 0 (returned as None, not an error).
    """
    s = triple_summary(k1, k2, k3)
    scale = coeff_scale(k1, k2, k3)

    def center(ka: CircleCoeffs, kb: CircleCoeffs) -> Optional[Point]:
        da = ka.a - kb.a
        if abs(da) <= zero_tol(scale, 1):
            return None
        return Point(-(ka.b - kb.b) / da, -(ka.c - kb.c) / da)

    axis = None
    if s.g > zero_tol(scale, 4):
        # x*dac - y*dab + dbc = 0, normalized: (dac/2)^2 + (dab/2)^2 = g
        r = math.sqrt(s.g)
        axis = normalized_coeffs(0.0, s.dac / (2.0 * r), -s.dab / (2.0 * r),
                                 s.dbc / r)
    return SimilarityReport(axis=axis,
                            centers=(center(k1, k2), center(k2, k3),
                                     center(k3, k1)),
                            g=s.g)


def _pencil_subtype(k1: CircleCoeffs, k2: CircleCoeffs,
                    k3: CircleCoeffs) -> PencilType:
    # count common points of two distinct pencil members via their Q
    for ka, kb in ((k1, k2), (k2, k3), (k3, k1)):
        if coincidence_test(ka, kb) is Coincidence.DISTINCT:
            rel = q_pair(ka, kb).relation
            if rel in (PairRelation.TANGENT, PairRelation.COUNTER_TANGENT):
                return PencilType.PARABOLIC
            if rel is PairRelation.INTERSECTING:
                return PencilType.ELLIPTIC
            return PencilType.HYPERBOLIC
    return PencilType.UNDEFINED  # all three coincide


def classify_triple(k1: CircleCoeffs, k2: CircleCoeffs,
                    k3: CircleCoeffs) -> ConfigClass:
    """Configuration class, resolved with the fixed precedence
    CoincidentPair > ThreeLines > Pencil > SingleCommonPoint > Generic."""
    ks = (k1, k2, k3)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        coin = coincidence_test(ks[i], ks[j])
        if coin is not Coincidence.DISTINCT:
            return ConfigClass(tag=ConfigTag.COINCIDENT_PAIR,
                               coincidence=coin, pair=(i, j))

    scale = coeff_scale(k1, k2, k3)
    if all(abs(k.a) <= zero_tol(scale, 1) for k in ks):
        return ConfigClass(tag=ConfigTag.THREE_LINES)

    s = triple_summary(k1, k2, k3)
    if (abs(s.d1) <= zero_tol(scale, 3) and abs(s.d2) <= zero_tol(scale, 3)
            and abs(s.d3) <= zero_tol(scale, 3)
            and abs(s.d4) <= zero_tol(scale, 3)):
        return ConfigClass(tag=ConfigTag.PENCIL,
                           pencil_subtype=_pencil_subtype(k1, k2, k3),
                           summary=s)

    maxq = max(1.0, abs(s.q1), abs(s.q2), abs(s.q3))
    if abs(s.u) <= EPS_ZERO * maxq ** 3 and abs(s.d4) > zero_tol(scale, 3):
        x = Point(-s.d2 / s.d4, -s.d3 / s.d4)
        pt_scale = max(1.0, abs(x.x), abs(x.y)) ** 2 * scale
        if all(abs(evaluate_n(k, x)) <= EPS_ZERO * pt_scale * 1e3 for k in ks):
            return ConfigClass(tag=ConfigTag.SINGLE_COMMON_POINT, summary=s)

    return ConfigClass(tag=ConfigTag.GENERIC, summary=s)
