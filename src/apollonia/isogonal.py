"""Circles meeting three given oriented circles at a common directed angle.

The family parameter is cos(Psi0); values with |cos(Psi0)| > 1 correspond
to imaginary angles and still yield real solution circles, completing the
solution family to a full pencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .circle_core import (
    EPS_Q,
    EPS_ZERO,
    CircleCoeffs,
    Coincidence,
    GeometryError,
    normalized_coeffs,
)
from .apollonius import (
    DegenerateU,
    Family,
    FamilyKind,
    SolutionSet,
)
from .invariants import (
    ConfigClass,
    ConfigTag,
    PencilType,
    classify_triple,
    coeff_scale,
    q_value,
    triple_summary,
    zero_tol,
)


class Branch(Enum):
    PLUS = "plus"
    MINUS = "minus"
    BOTH = "both"


@dataclass(frozen=True)
class IsogonalQuery:
    cos_psi0: float
    branch: Branch = Branch.BOTH


class GDegeneracy(Enum):
    ALL_CURVATURES_EQUAL = "all_curvatures_equal"
    TWO_PARALLEL_SAME_DIR_LINES = "two_parallel_same_dir_lines"
    COINCIDENT_CENTERS = "coincident_centers"
    TANGENT_EQUAL_CURVATURE_PAIR = "tangent_equal_curvature_pair"
    NOT_DEGENERATE = "not_degenerate"


@dataclass(frozen=True)
class PencilGeometry:
    f_squared: Optional[float]
    pencil_type: PencilType


class CosPsiZeroDegenerate(GeometryError):
    """cos(Psi0) = 0 is excluded on the single-common-point branch."""


class ZeroAngleParameter(GeometryError):
    pass


def angle_residual(sol: CircleCoeffs, ks, cos_psi0: float) -> float:
    return max(abs((1.0 - 2.0 * q_value(sol, k)) - cos_psi0) for k in ks)


def _finish_isogonal(a0, b0, c0, d0, ks, cos_psi0, scale):
    if abs(a0) <= zero_tol(scale, 1):
        a0 = 0.0
    sol = normalized_coeffs(a0, b0, c0, d0)
    res = angle_residual(sol, ks, cos_psi0)
    sol_scale = max(abs(v) for v in sol.quadruple())
    tol = 1e-8 * max(1.0, scale * scale, scale * sol_scale) \
        * max(1.0, abs(cos_psi0))
    if res > tol:
        raise GeometryError(f"angle residual {res:g} on isogonal solution {sol}")
    return sol


def isogonal_three_lines(k1: CircleCoeffs, k2: CircleCoeffs, k3: CircleCoeffs,
                         cos_psi0: float) -> SolutionSet:
    """Isogonal circle for three directed lines: one concentric circle per
    cos(Psi0), centered at the fixed point of the tangency solution."""
    config = ConfigClass(tag=ConfigTag.THREE_LINES)
    s = triple_summary(k1, k2, k3)
    scale = coeff_scale(k1, k2, k3)
    if (abs(s.d1) <= zero_tol(scale, 3) or abs(s.dbc) <= zero_tol(scale, 2)
            or abs(cos_psi0) <= EPS_ZERO):
        return SolutionSet(config=config, solutions=())
    a0 = 2.0 * s.dbc * cos_psi0 / s.d1
    b0 = -s.dcd * cos_psi0 / s.d1
    c0 = s.dbd * cos_psi0 / s.d1
    d0 = (b0 * b0 + c0 * c0 - 1.0) / a0
    return SolutionSet(config=config,
                       solutions=(_finish_isogonal(a0, b0, c0, d0, (k1, k2, k3),
                                                   cos_psi0, scale),))


def solve_isogonal(k1: CircleCoeffs, k2: CircleCoeffs, k3: CircleCoeffs,
                   query: IsogonalQuery) -> SolutionSet:
    """Circles meeting k1, k2, k3 at the common angle with the given cosine.

    At cos(Psi0) = 1 this reproduces the oriented tangency solver.
    """
    c0 = query.cos_psi0
    config = classify_triple(k1, k2, k3)
    ks = (k1, k2, k3)
    scale = coeff_scale(*ks)

    if config.tag is ConfigTag.COINCIDENT_PAIR:
        if config.coincidence is Coincidence.REVERSED_IDENTICAL:
            return SolutionSet(config=config, solutions=())
        i, j = config.pair
        other = ks[3 - i - j]
        return SolutionSet(config=config, solutions=(),
                           family=Family(FamilyKind.TANGENT_TWO_FAMILY,
                                         (ks[i], other)))

    if config.tag is ConfigTag.THREE_LINES:
        return isogonal_three_lines(k1, k2, k3, c0)

    if config.tag is ConfigTag.PENCIL:
        if abs(c0) <= EPS_ZERO:
            # every circle orthogonal to the pencil of the inputs
            return SolutionSet(config=config, solutions=(),
                               family=Family(FamilyKind.PENCIL_MEMBERS,
                                             (k1, k2)))
        return SolutionSet(config=config, solutions=())

    s = config.summary

    if config.tag is ConfigTag.SINGLE_COMMON_POINT:
        if abs(c0) <= EPS_ZERO:
            raise CosPsiZeroDegenerate(
                "cos(Psi0) = 0 on the single-common-point branch")
        w_prime = s.g * c0 * c0 - 0.25 * s.d4 * s.d4
        maxq = max(1.0, abs(s.q1), abs(s.q2), abs(s.q3))
        if abs(s.v) <= EPS_ZERO * max(1.0, scale) * maxq ** 2:
            return SolutionSet(config=config, solutions=())
        a0 = w_prime / (2.0 * s.v * c0)
        b0 = (a0 * s.d2 - s.dac * c0) / s.d4
        c0_coef = (a0 * s.d3 + s.dab * c0) / s.d4
        d0 = (a0 * s.d1 - 2.0 * s.dbc * c0) / s.d4
        return SolutionSet(config=config,
                           solutions=(_finish_isogonal(a0, b0, c0_coef, d0, ks,
                                                       c0, scale),))

    # generic branch
    disc = 0.25 * s.u * (1.0 - c0 * c0) + s.q1 * s.q2 * s.q3 * c0 * c0
    maxq = max(1.0, abs(s.q1), abs(s.q2), abs(s.q3))
    tol = EPS_ZERO * max(1.0, abs(s.u), maxq ** 3) * max(1.0, c0 * c0)
    if disc < -tol:
        return SolutionSet(config=config, solutions=())
    if s.u == 0.0:
        raise DegenerateU("U = 0 on the generic branch: no closed form")
    root = math.sqrt(max(disc, 0.0))
    sum_a = k1.a * s.v2 + k2.a * s.v3 + k3.a * s.v1
    sum_b = k1.b * s.v2 + k2.b * s.v3 + k3.b * s.v1
    sum_c = k1.c * s.v2 + k2.c * s.v3 + k3.c * s.v1
    sum_d = k1.d * s.v2 + k2.d * s.v3 + k3.d * s.v1
    signs = {Branch.PLUS: (1.0,), Branch.MINUS: (-1.0,),
             Branch.BOTH: (1.0, -1.0)}[query.branch]
    sols = []
    for sgn in signs:
        a0 = (c0 * sum_a + sgn * s.d4 * root) / s.u
        b0 = (c0 * sum_b + sgn * s.d2 * root) / s.u
        cc0 = (c0 * sum_c + sgn * s.d3 * root) / s.u
        d0 = (c0 * sum_d + sgn * s.d1 * root) / s.u
        sols.append(_finish_isogonal(a0, b0, cc0, d0, ks, c0, scale))
    if disc <= tol and len(sols) == 2:
        sols = sols[:1]  # double root
    return SolutionSet(config=config, solutions=tuple(sols))


def pencil_type(k1: CircleCoeffs, k2: CircleCoeffs,
                k3: CircleCoeffs) -> PencilGeometry:
    """Type of the pencil formed by the isogonal solution family, from the
    signed squared half-distance F^2 = (U - 4*Q1*Q2*Q3)/(4*G) between its
    common points."""
    s = triple_summary(k1, k2, k3)
    scale = coeff_scale(k1, k2, k3)
    if abs(s.g) <= zero_tol(scale, 4):
        return PencilGeometry(f_squared=None, pencil_type=PencilType.UNDEFINED)
    f_sq = (s.u - 4.0 * s.q1 * s.q2 * s.q3) / (4.0 * s.g)
    tol = zero_tol(scale, 2)
    if f_sq < -tol:
        ptype = PencilType.HYPERBOLIC
    elif f_sq > tol:
        ptype = PencilType.ELLIPTIC
    else:
        ptype = PencilType.PARABOLIC
    return PencilGeometry(f_squared=f_sq, pencil_type=ptype)


def cross_angle(cos_psi1: float, cos_psi2: float) -> float:
    """Cosine of the intersection angle of the solutions at two family
    parameters: (c1/c2 + c2/c1)/2; always at least 1 in magnitude."""
    if cos_psi1 == 0.0 or cos_psi2 == 0.0:
        raise ZeroAngleParameter("cross angle needs nonzero parameters")
    return 0.5 * (cos_psi1 / cos_psi2 + cos_psi2 / cos_psi1)


def g_degenerate_report(k1: CircleCoeffs, k2: CircleCoeffs,
                        k3: CircleCoeffs) -> GDegeneracy:
    """Classify the G = 0 configurations (undefined similarity axis)."""
    s = triple_summary(k1, k2, k3)
    scale = coeff_scale(k1, k2, k3)
    if abs(s.g) > zero_tol(scale, 4):
        return GDegeneracy.NOT_DEGENERATE

    ks = (k1, k2, k3)
    qs = {(0, 1): s.q1, (1, 2): s.q2, (2, 0): s.q3}
    tol1 = zero_tol(scale, 1)
    tol2 = zero_tol(scale, 2, EPS_Q)

    # two parallel equally directed lines plus a circle
    for (i, j), q in qs.items():
        if ks[i].a == 0.0 and ks[j].a == 0.0 and abs(q) <= tol2 \
                and ks[3 - i - j].a != 0.0:
            return GDegeneracy.TWO_PARALLEL_SAME_DIR_LINES

    # tangent pair of equal nonzero curvatures (identical circles)
    for (i, j), q in qs.items():
        if abs(q) <= tol2 and abs(ks[i].a - ks[j].a) <= tol1 and ks[i].a != 0.0:
            return GDegeneracy.TANGENT_EQUAL_CURVATURE_PAIR

    a1, a2, a3 = k1.a, k2.a, k3.a
    if abs(a1 - a2) <= tol1 and abs(a2 - a3) <= tol1:
        return GDegeneracy.ALL_CURVATURES_EQUAL

    if abs(a1 - a2) > tol1 and abs(a2 - a3) > tol1 and abs(a3 - a1) > tol1:
        # coincident similarity centers: certified by the admissible
        # proportionality relations plus V = 0
        q2_pred = s.q1 * a1 * (a2 - a3) ** 2 / (a3 * (a1 - a2) ** 2)
        q3_pred = s.q1 * a2 * (a1 - a3) ** 2 / (a3 * (a1 - a2) ** 2)
        qtol = zero_tol(scale, 2) * 1e3
        if (abs(s.q2 - q2_pred) <= qtol * max(1.0, abs(q2_pred))
                and abs(s.q3 - q3_pred) <= qtol * max(1.0, abs(q3_pred))
                and abs(s.v) <= zero_tol(scale, 5) * 1e3):
            return GDegeneracy.COINCIDENT_CENTERS

    return GDegeneracy.NOT_DEGENERATE
