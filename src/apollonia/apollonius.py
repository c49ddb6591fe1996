"""The oriented tangency solver: a circle (or line) tangent to three given
oriented circles/lines, all degenerate branches, reversal enumeration for
the classical non-oriented problem, and an independent brute-force oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .circle_core import (
    EPS_Q,
    EPS_ZERO,
    CircleCoeffs,
    Coincidence,
    GeometryError,
    LinearElement,
    circle_from_center_radius,
    coincidence_test,
    normalized_coeffs,
    reverse,
)
from .invariants import (
    ConfigClass,
    ConfigTag,
    PencilType,
    TripleSummary,
    classify_triple,
    coeff_scale,
    q_value,
    triple_summary,
    zero_tol,
)

RESIDUAL_TOL = 1e-8


class ResidualTooLarge(GeometryError):
    """A computed solution failed its tangency residual check."""


class DegenerateU(GeometryError):
    """U = 0 on the generic branch, whose closed form divides by U."""


class NotTangent(GeometryError):
    pass


class NoFiniteElement(GeometryError):
    """Tangency point at infinity or circles of identical curvature."""


class NotDescartesConfig(GeometryError):
    """Inputs are not pairwise counter-tangent."""


class UnsupportedMixed(GeometryError):
    """The brute-force oracle handles all-circle or all-line triples only."""


class FamilyKind(Enum):
    PENCIL_MEMBERS = "pencil_members"
    TANGENT_TWO_FAMILY = "tangent_two_family"
    CONCENTRIC_FAMILY = "concentric_family"


@dataclass(frozen=True)
class Family:
    """Generator description of an infinite solution family."""

    kind: FamilyKind
    base: tuple[CircleCoeffs, ...]


@dataclass(frozen=True)
class SolutionSet:
    config: ConfigClass
    solutions: tuple[CircleCoeffs, ...]
    family: Optional[Family] = None

    def __post_init__(self):  # a stored result need not keep the summary
        if self.config.summary is not None:
            object.__setattr__(self, "config",
                               replace(self.config, summary=None))


@dataclass(frozen=True)
class NonOrientedReport:
    """Solutions of all four reversal classes plus the deduplicated union."""

    per_class: tuple[SolutionSet, SolutionSet, SolutionSet, SolutionSet]
    distinct_unoriented: tuple[CircleCoeffs, ...]


def tangency_residual(sol: CircleCoeffs, ks) -> float:
    return max(abs(q_value(sol, k)) for k in ks)


def _finish_solution(a0, b0, c0, d0, ks, scale) -> CircleCoeffs:
    if abs(a0) <= zero_tol(scale, 1):
        a0 = 0.0
    sol = normalized_coeffs(a0, b0, c0, d0)
    res = tangency_residual(sol, ks)
    # roundoff in Q grows with the product of the two coefficient scales
    sol_scale = max(abs(v) for v in sol.quadruple())
    if res > RESIDUAL_TOL * max(1.0, scale * scale, scale * sol_scale):
        raise ResidualTooLarge(f"tangency residual {res:g} on solution {sol}")
    return sol


def solve_three_lines(k1: CircleCoeffs, k2: CircleCoeffs,
                      k3: CircleCoeffs) -> SolutionSet:
    """Tangent circle to three directed lines.

    One solution when no two lines are parallel-equally-directed
    (dbc != 0) and the lines are not concurrent (d1 != 0); a family of
    parallel lines when all three are equally directed parallels; no
    solutions otherwise.
    """
    config = ConfigClass(tag=ConfigTag.THREE_LINES)
    s = triple_summary(k1, k2, k3)
    scale = coeff_scale(k1, k2, k3)
    tol_q = zero_tol(scale, 2, EPS_Q)
    if all(abs(q) <= tol_q for q in (s.q1, s.q2, s.q3)):
        # equally directed parallel lines: any parallel equally directed line
        base = (k1, k2) if coincidence_test(k1, k2) is Coincidence.DISTINCT \
            else (k1, k3)
        return SolutionSet(config=config, solutions=(),
                           family=Family(FamilyKind.PENCIL_MEMBERS, base))
    if abs(s.dbc) <= zero_tol(scale, 2) or abs(s.d1) <= zero_tol(scale, 3):
        return SolutionSet(config=config, solutions=())
    a0 = 2.0 * s.dbc / s.d1
    b0 = -s.dcd / s.d1
    c0 = s.dbd / s.d1
    d0 = (b0 * b0 + c0 * c0 - 1.0) / a0
    return SolutionSet(config=config,
                       solutions=(_finish_solution(a0, b0, c0, d0,
                                                   (k1, k2, k3), scale),))


def _direct_solutions(ks, s: TripleSummary, root: float, scale: float):
    """Both branches of the division-safe closed form (valid at d4 = 0)."""
    if s.u == 0.0:
        raise DegenerateU("U = 0 on the generic branch: no closed form")
    k1, k2, k3 = ks
    sum_a = k1.a * s.v2 + k2.a * s.v3 + k3.a * s.v1
    sum_b = k1.b * s.v2 + k2.b * s.v3 + k3.b * s.v1
    sum_c = k1.c * s.v2 + k2.c * s.v3 + k3.c * s.v1
    sum_d = k1.d * s.v2 + k2.d * s.v3 + k3.d * s.v1
    out = []
    for sgn in (1.0, -1.0):
        a0 = (sum_a + sgn * s.d4 * root) / s.u
        b0 = (sum_b + sgn * s.d2 * root) / s.u
        c0 = (sum_c + sgn * s.d3 * root) / s.u
        d0 = (sum_d + sgn * s.d1 * root) / s.u
        out.append(_finish_solution(a0, b0, c0, d0, ks, scale))
    return out


def solve_general(k1: CircleCoeffs, k2: CircleCoeffs, k3: CircleCoeffs,
                  config: Optional[ConfigClass] = None) -> SolutionSet:
    """Generic branch (U != 0): two, one (double), or zero solutions by the
    sign of the product q1*q2*q3."""
    if config is None:
        config = ConfigClass(tag=ConfigTag.GENERIC)
    s = config.summary or triple_summary(k1, k2, k3)
    scale = coeff_scale(k1, k2, k3)
    prod = s.q1 * s.q2 * s.q3
    # the q's are inversive invariants; scale the zero test by them, not
    # by coefficient magnitudes
    tol = EPS_ZERO * max(1.0, abs(s.q1), abs(s.q2), abs(s.q3)) ** 3
    if prod < -tol:
        return SolutionSet(config=config, solutions=())
    root = math.sqrt(max(prod, 0.0))
    sols = _direct_solutions((k1, k2, k3), s, root, scale)
    if prod <= tol:
        sols = sols[:1]  # double root
    return SolutionSet(config=config, solutions=tuple(sols))


def solve_common_point(k1: CircleCoeffs, k2: CircleCoeffs, k3: CircleCoeffs,
                       config: Optional[ConfigClass] = None) -> SolutionSet:
    """U = 0 with a single common point at the radical center: one solution
    (or none in the V = 0 sub-case)."""
    if config is None:
        config = ConfigClass(tag=ConfigTag.SINGLE_COMMON_POINT)
    s = config.summary or triple_summary(k1, k2, k3)
    scale = coeff_scale(k1, k2, k3)
    maxq = max(1.0, abs(s.q1), abs(s.q2), abs(s.q3))
    if abs(s.v) <= EPS_ZERO * max(1.0, scale) * maxq ** 2:
        return SolutionSet(config=config, solutions=())
    a0 = s.w / (2.0 * s.v)
    xbar = -s.d2 / s.d4
    ybar = -s.d3 / s.d4
    b0 = -a0 * xbar - s.dac / s.d4
    c0 = -a0 * ybar + s.dab / s.d4
    d0 = (a0 * s.d1 - 2.0 * s.dbc) / s.d4
    return SolutionSet(config=config,
                       solutions=(_finish_solution(a0, b0, c0, d0,
                                                   (k1, k2, k3), scale),))


def solve_oriented(k1: CircleCoeffs, k2: CircleCoeffs,
                   k3: CircleCoeffs) -> SolutionSet:
    """Solve the oriented tangency problem, dispatching on the
    configuration class."""
    config = classify_triple(k1, k2, k3)
    ks = (k1, k2, k3)

    if config.tag is ConfigTag.COINCIDENT_PAIR:
        if config.coincidence is Coincidence.REVERSED_IDENTICAL:
            # any circle tangent to one is counter-tangent to the other
            return SolutionSet(config=config, solutions=())
        i, j = config.pair
        other = ks[3 - i - j]
        return SolutionSet(config=config, solutions=(),
                           family=Family(FamilyKind.TANGENT_TWO_FAMILY,
                                         (ks[i], other)))

    if config.tag is ConfigTag.THREE_LINES:
        return solve_three_lines(k1, k2, k3)

    if config.tag is ConfigTag.PENCIL:
        s = config.summary
        scale = coeff_scale(k1, k2, k3)
        tol_q = zero_tol(scale, 2, EPS_Q)
        if (config.pencil_subtype is PencilType.PARABOLIC
                and all(abs(q) <= tol_q for q in (s.q1, s.q2, s.q3))):
            # trivial solutions: every circle of the pencil
            return SolutionSet(config=config, solutions=(),
                               family=Family(FamilyKind.PENCIL_MEMBERS,
                                             (k1, k2)))
        return SolutionSet(config=config, solutions=())

    if config.tag is ConfigTag.SINGLE_COMMON_POINT:
        return solve_common_point(k1, k2, k3, config)

    return solve_general(k1, k2, k3, config)


def descartes_curvatures(k1: CircleCoeffs, k2: CircleCoeffs,
                         k3: CircleCoeffs) -> tuple[float, float]:
    """Curvatures of the two circles tangent to a pairwise counter-tangent
    triple: a0 = -(a1 + a2 + a3) ± 2*sqrt(a1*a2 + a2*a3 + a3*a1)."""
    s = triple_summary(k1, k2, k3)
    scale = coeff_scale(k1, k2, k3)
    tol = zero_tol(scale, 2, EPS_Q)
    if any(abs(q - 1.0) > tol for q in (s.q1, s.q2, s.q3)):
        raise NotDescartesConfig(
            f"pairwise invariants ({s.q1}, {s.q2}, {s.q3}) are not all 1")
    a1, a2, a3 = k1.a, k2.a, k3.a
    e2 = a1 * a2 + a2 * a3 + a3 * a1
    root = 2.0 * math.sqrt(max(e2, 0.0))
    return (-(a1 + a2 + a3) + root, -(a1 + a2 + a3) - root)


def enumerate_nonoriented(k1: CircleCoeffs, k2: CircleCoeffs, k3: CircleCoeffs,
                          dedup_tol: float = 1e-6) -> NonOrientedReport:
    """All solutions of the classical non-oriented problem: the oriented
    problem for the identity class and the three single reversals,
    deduplicated up to reversal."""
    classes = (
        (k1, k2, k3),
        (reverse(k1), k2, k3),
        (k1, reverse(k2), k3),
        (k1, k2, reverse(k3)),
    )
    per_class = tuple(solve_oriented(*trip) for trip in classes)
    distinct: list[CircleCoeffs] = []
    for ss in per_class:
        for sol in ss.solutions:
            if all(coincidence_test(sol, seen, tol=dedup_tol)
                   is Coincidence.DISTINCT for seen in distinct):
                distinct.append(sol)
    return NonOrientedReport(per_class=per_class,
                             distinct_unoriented=tuple(distinct))


def tangency_point(k0: CircleCoeffs, ki: CircleCoeffs) -> LinearElement:
    """Common line element of two tangent circles.

    The direction comes from the coefficient relations sin(tau) = b + a*x,
    cos(tau) = -c - a*y evaluated at the common point.
    """
    scale = coeff_scale(k0, ki)
    if abs(q_value(k0, ki)) > zero_tol(scale, 2, EPS_Q):
        raise NotTangent(f"Q = {q_value(k0, ki)!r} is not zero")
    da = ki.a - k0.a
    if abs(da) <= zero_tol(scale, 1):
        raise NoFiniteElement("equal curvatures: tangency at infinity or identity")
    x = (k0.b - ki.b) / da
    y = (k0.c - ki.c) / da
    sin_tau = k0.b + k0.a * x
    cos_tau = -k0.c - k0.a * y
    return LinearElement(x, y, math.atan2(sin_tau, cos_tau))


def _oracle_circles(centers, radii, dedup_tol):
    """Elimination oracle for three proper circles: for each of the 8 sign
    patterns, reduce system (f0-fi)^2+(g0-gi)^2=(r0+si*ri)^2 to an affine
    line in (f0, g0, r0) plus one quadratic."""
    import numpy as np  # test-side oracle: keep numpy off the import path
    found = []
    for signs in itertools.product((1.0, -1.0), repeat=3):
        rows = []
        rhs = []
        for i in (1, 2):
            fi, gi = centers[i]
            f1, g1 = centers[0]
            si_ri = signs[i] * radii[i]
            s1_r1 = signs[0] * radii[0]
            rows.append([2.0 * (fi - f1), 2.0 * (gi - g1),
                         2.0 * (si_ri - s1_r1)])
            rhs.append(fi * fi - f1 * f1 + gi * gi - g1 * g1
                       - (radii[i] ** 2 - radii[0] ** 2))
        a = np.array(rows)
        b = np.array(rhs)
        # affine solution line: p + t*q in (f0, g0, r0)
        p, *_ = np.linalg.lstsq(a, b, rcond=None)
        _, sv, vt = np.linalg.svd(a)
        if sv[-1] < 1e-12 * max(1.0, sv[0]):
            continue  # degenerate pair of constraints
        q = vt[-1]
        f1, g1 = centers[0]
        s1_r1 = signs[0] * radii[0]
        # (f0-f1)^2 + (g0-g1)^2 - (r0 + s1*r1)^2 = 0 along the line
        d0 = np.array([p[0] - f1, p[1] - g1, p[2] + s1_r1])
        dq = np.array([q[0], q[1], q[2]])
        aa = dq[0] ** 2 + dq[1] ** 2 - dq[2] ** 2
        bb = 2.0 * (d0[0] * dq[0] + d0[1] * dq[1] - d0[2] * dq[2])
        cc = d0[0] ** 2 + d0[1] ** 2 - d0[2] ** 2
        for t in np.roots([aa, bb, cc]) if abs(aa) > 1e-14 else \
                ([-cc / bb] if abs(bb) > 1e-14 else []):
            if abs(np.imag(t)) > 1e-9:
                continue
            f0, g0, r0 = p + float(np.real(t)) * q
            if r0 <= dedup_tol:
                continue
            # verify against all three original constraints
            ok = all(abs(math.hypot(f0 - centers[i][0], g0 - centers[i][1])
                         - abs(r0 + signs[i] * radii[i])) < 1e-7
                     * max(1.0, r0, radii[i]) for i in range(3))
            if ok:
                found.append((f0, g0, r0))
    return found


def _oracle_lines(lines, dedup_tol):
    """Distance oracle for three directed lines: |n_i . c + e_i| = r0."""
    import numpy as np
    found = []
    for signs in itertools.product((1.0, -1.0), repeat=3):
        a = np.array([[k.b, k.c, -s] for k, s in zip(lines, signs)])
        b = np.array([-k.d / 2.0 for k in lines])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        f0, g0, r0 = np.linalg.solve(a, b)
        if r0 > dedup_tol:
            found.append((float(f0), float(g0), float(r0)))
    return found


def oracle_nonoriented(k1: CircleCoeffs, k2: CircleCoeffs, k3: CircleCoeffs,
                       dedup_tol: float = 1e-9) -> tuple[CircleCoeffs, ...]:
    """Independent brute-force solver of the classical non-oriented problem
    by coordinate elimination; test-side check for the coefficient solver.

    Returns each solution circle once (counterclockwise representative).
    """
    ks = (k1, k2, k3)
    if all(k.a != 0.0 for k in ks):
        centers = [(-k.b / k.a, -k.c / k.a) for k in ks]
        radii = [1.0 / abs(k.a) for k in ks]
        raw = _oracle_circles(centers, radii, dedup_tol)
    elif all(k.a == 0.0 for k in ks):
        raw = _oracle_lines(ks, dedup_tol)
    else:
        raise UnsupportedMixed("oracle supports all-circle or all-line triples")

    out: list[CircleCoeffs] = []
    for f0, g0, r0 in raw:
        cand = circle_from_center_radius(f0, g0, r0, ccw=True)
        if all(coincidence_test(cand, seen, tol=1e-6) is Coincidence.DISTINCT
               for seen in out):
            out.append(cand)
    return tuple(out)
