"""Independent answer checks for the benchmark, in exact rational arithmetic.

Nothing here imports apollonia.  Curves are handled as exact quadruples
(a, b, c, d) of ``fractions.Fraction``: a centre/radius circle spec gives a
quadruple whose normalization b^2 + c^2 - a*d = 1 holds exactly; a line or a
raw coefficient spec uses the exact values of its floats (normalized to
within one rounding).

With the Lorentz form <x, y> = b1*b2 + c1*c2 - (a1*d2 + a2*d1)/2, two
normalized curves meet at the directed angle cos(Psi) = <x, y>; tangency is
<x, y> = 1.  So every solution of "meet k1, k2, k3 at cosines h1, h2, h3" is
a point of the line {x : <x, k_i> = h_i} on the quadric <x, x> = 1, and its
count is the number of real roots of one quadratic with rational
coefficients: an exact count, decided without tolerances.

The ``check_*`` functions never raise.  Each returns one of ``OK``,
``FAIL_EXCEPTION``, ``FAIL_COUNT`` or ``FAIL_RESIDUAL`` for one op.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction as F
from xml.etree import ElementTree

OK = "ok"
FAIL_EXCEPTION = "exception"   # the op raised on an input it must solve
FAIL_COUNT = "count"           # wrong class or wrong number of solutions
FAIL_RESIDUAL = "residual"     # a returned curve misses an input

Q_TOL = 1e-8        # dimensionless residual in Q allowed on a returned curve
VALUE_TOL = 1e-9    # relative agreement of reported invariants / curvatures
EPS = 2.0 ** -52    # one relative rounding of a float
ROUNDING_ULPS = 64  # roundings a float solver may accumulate, on top of Q_TOL

# the four reversal classes of enumerate_nonoriented, as signs of <x, k_i>
REVERSAL_SIGNS = ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1))


# -- exact quadruples ------------------------------------------------------

def exact_quad(spec) -> tuple[F, F, F, F]:
    """The exact quadruple of a scene spec (circle, line or coeffs)."""
    kind = spec["type"]
    if kind == "circle":
        cx, cy = (F(v) for v in spec["center"])
        k = 1 / F(spec["radius"])
        if spec.get("orientation", "ccw") != "ccw":
            k = -k
        return (k, -k * cx, -k * cy, k * (cx * cx + cy * cy) - 1 / k)
    if kind == "line":
        px, py = (F(v) for v in spec["point"])
        s, c = F(math.sin(spec["angle"])), F(math.cos(spec["angle"]))
        return (F(0), s, -c, 2 * py * c - 2 * px * s)
    if kind == "coeffs":
        return tuple(F(v) for v in spec["abcd"])
    raise ValueError(f"unsupported spec type {kind!r}")


def lorentz(x, y) -> F:
    return x[1] * y[1] + x[2] * y[2] - (x[0] * y[3] + x[3] * y[0]) / 2


def _det3(m) -> F:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def meeting_basis(quads):
    """The solution line of <x, k_i> = h_i for three exact quadruples.

    The line is x = sum(h_i p_i) + t q, with q spanning the kernel and p_i
    the particular solution for h = e_i.  Returned as the Lorentz products
    (<q, q>, [<p_i, q>], [[<p_i, p_j>]]), which fix <x, x> for any h.
    None when the three conditions are dependent: a pencil.
    """
    rows = [(-k[3] / 2, k[1], k[2], -k[0] / 2) for k in quads]
    minors = [_det3([[r[c] for c in range(4) if c != j] for r in rows])
              for j in range(4)]
    q = [(-1) ** j * m for j, m in enumerate(minors)]
    j = max(range(4), key=lambda i: abs(q[i]))
    if q[j] == 0:
        return None
    # particular solutions with x_j = 0, by Cramer's rule on the other columns
    cols = [c for c in range(4) if c != j]
    sub = [[r[c] for c in cols] for r in rows]
    ps = []
    for i in range(3):
        p = [F(0)] * 4
        for n, col in enumerate(cols):
            m = [row[:] for row in sub]
            for r in range(3):
                m[r][n] = F(int(r == i))
            p[col] = _det3(m) / minors[j]
        ps.append(p)
    return (lorentz(q, q), [lorentz(p, q) for p in ps],
            [[lorentz(p, pp) for pp in ps] for p in ps])


def count_meeting(basis, cosines):
    """Exact number of oriented curves x with <x, x> = 1 and
    <x, k_i> = cosines[i], on a line from meeting_basis: the real roots
    of <x, x> - 1 = qa t^2 + qb t + qc.  None when they form a family."""
    qq, pq, pp = basis
    h = [F(v) for v in cosines]
    qa = qq
    qb = 2 * sum(hi * v for hi, v in zip(h, pq))
    qc = sum(h[i] * h[j] * pp[i][j] for i in range(3) for j in range(3)) - 1
    if qa == 0:
        if qb != 0:
            return 1
        return None if qc == 0 else 0
    disc = qb * qb - 4 * qa * qc
    return 2 if disc > 0 else (1 if disc == 0 else 0)


def nonoriented_counts(quads):
    """Per-reversal-class tangency counts (identity, reverse 1, 2, 3), or
    None when the triple is degenerate.  The classes partition the
    non-oriented solutions, so their sum is the distinct count."""
    basis = meeting_basis(quads)
    if basis is None:
        return None
    counts = [count_meeting(basis, signs) for signs in REVERSAL_SIGNS]
    return None if None in counts else counts


def is_generic(quads) -> bool:
    """No point common to all three curves: u != 0, exactly, from the
    pairwise invariants.  (Pencils are caught by meeting_basis.)"""
    q1, q2, q3 = ((1 - lorentz(quads[i], quads[j])) / 2
                  for i, j in ((0, 1), (1, 2), (2, 0)))
    u = (q1 * (q1 - 2 * q2) + q2 * (q2 - 2 * q3) + q3 * (q3 - 2 * q1)
         + 4 * q1 * q2 * q3)
    return u != 0


# -- residuals of returned floats -----------------------------------------

def _products(sol, k):
    """<x, k> and <x, x><k, k> for a returned float quadruple x."""
    x = tuple(F(v) for v in sol)
    return lorentz(x, k), lorentz(x, x) * lorentz(k, k)


def _abs_lorentz(x, y) -> F:
    """The Lorentz form with every term taken in absolute value."""
    return (abs(x[1] * y[1]) + abs(x[2] * y[2])
            + (abs(x[0] * y[3]) + abs(x[3] * y[0])) / 2)


def rounding_bound(sol, k) -> float:
    """How far cos(Psi) between x and k can move, to first order, when
    every coefficient of x and of k moves by one relative rounding.

    No float answer can do better than this: x is rounded, and the solver
    sees k rounded.  It is large for a far-off, tiny circle, whose <x, k>
    cancels terms of order (offset / radius)^2.  inf when x is not a real
    curve."""
    try:
        x = tuple(F(v) for v in sol)
        xx, kk = float(lorentz(x, x)), float(lorentz(k, k))
        if xx <= 0 or kk <= 0:
            return math.inf
        s = math.sqrt(xx * kk)
        cos = abs(float(lorentz(x, k))) / s
        return EPS * (2.0 * float(_abs_lorentz(x, k)) / s
                      + cos * (float(_abs_lorentz(x, x)) / xx
                               + float(_abs_lorentz(k, k)) / kk))
    except (ValueError, OverflowError):
        return math.inf


def tangency_residual(sol, k) -> float:
    """|Q(x, k)|, the oriented tangency residual, evaluated without
    cancellation; inf when x is not a real curve."""
    try:
        n, d = _products(sol, k)
    except (ValueError, OverflowError):
        return math.inf
    if d <= 0:
        return math.inf
    s = math.sqrt(d)
    if n >= 0:
        return float(abs(d - n * n)) / (2.0 * s * (s + float(n)))
    return (s - float(n)) / (2.0 * s)


def unoriented_residual(sol, k) -> float:
    """min(|Q|, |1 - Q|): tangency to k in either orientation."""
    try:
        n, d = _products(sol, k)
    except (ValueError, OverflowError):
        return math.inf
    if d <= 0:
        return math.inf
    s = math.sqrt(d)
    return float(abs(d - n * n)) / (2.0 * s * (s + abs(float(n))))


def angle_residual(sol, k, cos_psi0: float) -> float:
    """|cos(Psi) - cos(Psi0)| for the directed angle between x and k."""
    try:
        n, d = _products(sol, k)
    except (ValueError, OverflowError):
        return math.inf
    if d <= 0:
        return math.inf
    return abs(float(n) / math.sqrt(d) - cos_psi0)


# Q = (1 - cos(Psi)) / 2, so Q moves by half of what cos(Psi) does

def tangent(sol, k) -> bool:
    """x touches k in k's orientation, within tolerance and rounding."""
    return tangency_residual(sol, k) <= \
        Q_TOL + ROUNDING_ULPS * rounding_bound(sol, k) / 2


def tangent_unoriented(sol, k) -> bool:
    return unoriented_residual(sol, k) <= \
        Q_TOL + ROUNDING_ULPS * rounding_bound(sol, k) / 2


def meets_at(sol, k, cos_psi0: float) -> bool:
    """x meets k at cos(Psi0), within tolerance and rounding."""
    return angle_residual(sol, k, cos_psi0) <= \
        Q_TOL * max(1.0, abs(cos_psi0)) + ROUNDING_ULPS * rounding_bound(sol, k)


def pair_q(k1, k2) -> float:
    return float((1 - lorentz(k1, k2)) / 2)


# -- per-op checks ---------------------------------------------------------

def _guard(check):
    """Run a check; an error inside it means the output could not be
    verified, which counts as a residual failure, never as a raise."""
    def run(*args):
        try:
            return check(*args)
        except Exception:  # noqa: BLE001 - the checker must never raise
            return FAIL_RESIDUAL
    run.__name__ = check.__name__
    run.__doc__ = check.__doc__
    return run


@_guard
def check_enumeration(outcome, quads, expect):
    """One enumerate_nonoriented result against the expected classes and
    per-class counts; every per-class solution must be tangent, in its
    class's orientation, to the three exact inputs."""
    if isinstance(outcome, BaseException):
        return FAIL_EXCEPTION
    classes = [ss.config.tag.value for ss in outcome.per_class]
    counts = [len(ss.solutions) for ss in outcome.per_class]
    if (classes != expect["classes"] or counts != expect["counts"]
            or len(outcome.distinct_unoriented) != sum(expect["counts"])):
        return FAIL_COUNT
    for signs, ss in zip(REVERSAL_SIGNS, outcome.per_class):
        for sol in ss.solutions:
            for sgn, k in zip(signs, quads):
                kk = k if sgn > 0 else tuple(-v for v in k)
                if not tangent(sol.quadruple(), kk):
                    return FAIL_RESIDUAL
    return OK


@_guard
def check_isogonal(outcome, quads, expect, oriented):
    """A sweep of solve_isogonal results (one per cos(Psi0)) against the
    exact counts, the angle residual of every returned curve, and, at
    cos(Psi0) = 1, the paper's identity with solve_oriented."""
    if isinstance(outcome, BaseException):
        return FAIL_EXCEPTION
    if [len(ss.solutions) for ss in outcome] != expect["counts"]:
        return FAIL_COUNT
    if any(ss.config.tag.value != expect["class"] for ss in outcome):
        return FAIL_COUNT
    for c0, ss in zip(expect["cos_psi"], outcome):
        for sol in ss.solutions:
            if not all(meets_at(sol.quadruple(), k, c0) for k in quads):
                return FAIL_RESIDUAL
    at_one = outcome[expect["cos_psi"].index(1.0)]
    if isinstance(oriented, BaseException):
        return FAIL_EXCEPTION
    if not _same_curves(at_one.solutions, oriented.solutions):
        return FAIL_COUNT
    return OK


def _same_curves(xs, ys, tol: float = 1e-9) -> bool:
    """Equal as sets of oriented curves, up to a relative tolerance."""
    if len(xs) != len(ys):
        return False
    left = [y.quadruple() for y in ys]
    for x in xs:
        xq = x.quadruple()
        scale = max(1.0, *(abs(v) for v in xq))
        hit = next((i for i, y in enumerate(left)
                    if all(abs(u - v) <= tol * scale for u, v in zip(xq, y))),
                   None)
        if hit is None:
            return False
        left.pop(hit)
    return True


@_guard
def check_cli(outcome, quads, expect):
    """One in-process run_command result: exit code, document fields and
    the residuals of every emitted curve."""
    if isinstance(outcome, BaseException):
        return FAIL_EXCEPTION
    code, text = outcome
    if code != 0:
        return FAIL_EXCEPTION
    doc = json.loads(text)
    command = expect["command"]
    if command == "solve":
        sets = doc["solution_sets"]
        if ([s["class"] for s in sets] != expect["classes"]
                or [len(s["solutions"]) for s in sets] != expect["counts"]
                or doc["n_solutions"] != sum(expect["counts"])):
            return FAIL_COUNT
        for entry in doc["distinct_unoriented"]:
            if not all(tangent_unoriented(entry["coeffs"], k) for k in quads):
                return FAIL_RESIDUAL
    elif command == "isogonal":
        sets = doc["solution_sets"]
        if ([len(s["solutions"]) for s in sets] != expect["counts"]
                or any(s["class"] != expect["class"] for s in sets)):
            return FAIL_COUNT
        for c0, entry in zip(expect["cos_psi"], sets):
            for sol in entry["solutions"]:
                if not all(meets_at(sol["coeffs"], k, c0) for k in quads):
                    return FAIL_RESIDUAL
    elif command == "invariants":
        summary = doc["summary"]
        if summary["class"] != expect["class"] or doc["n_solutions"] is not None:
            return FAIL_COUNT
        for name, (i, j) in (("q1", (0, 1)), ("q2", (1, 2)), ("q3", (2, 0))):
            want = pair_q(quads[i], quads[j])
            if abs(summary[name] - want) > VALUE_TOL * max(1.0, abs(want)):
                return FAIL_RESIDUAL
    elif command == "descartes":
        got = doc["curvatures"]
        want = expect["curvatures"]
        if doc["n_solutions"] != 2 or len(got) != 2:
            return FAIL_COUNT
        if any(abs(g - w) > VALUE_TOL * max(1.0, abs(w))
               for g, w in zip(got, want)):
            return FAIL_RESIDUAL
    else:
        return FAIL_COUNT
    return OK


def svg_curve_count(path) -> int | None:
    """Number of drawn curves in an SVG file, or None if it is not SVG."""
    try:
        root = ElementTree.parse(path).getroot()
    except (OSError, ElementTree.ParseError):
        return None
    if not root.tag.endswith("svg"):
        return None
    return sum(1 for el in root if el.tag.rsplit("}", 1)[-1] in ("circle", "line"))
