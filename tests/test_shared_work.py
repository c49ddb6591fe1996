"""The solvers reuse the triple summary that the classifier computed.

Each reversal class of ``enumerate_nonoriented`` must come out exactly as a
fresh ``solve_oriented`` on that class, and a branch solver handed the
classifier's config must agree exactly with one that recomputes the summary,
and return a result that no longer holds it.
The triples cover every configuration class, at unit scale and moved by
similarities of scale 1e-3 to 1e3 and offsets up to 1e3, where rounding
pushes some of them off their class.
"""

import math

import numpy as np
import pytest

from apollonia import (
    circle_from_center_radius,
    classify_triple,
    enumerate_nonoriented,
    line_from_point_angle,
    reverse,
    solve_oriented,
)
from apollonia.apollonius import solve_common_point, solve_general
from apollonia.invariants import ConfigTag

KINDS = ("generic", "mixed", "three_lines", "descartes", "common_point",
         "pencil", "coincident")


def circle(cx, cy, r, ccw=True):
    return ("circle", cx, cy, r, ccw)


def line(x, y, angle):
    return ("line", x, y, angle, None)


def random_specs(rng, kind):
    """Three curves of the given kind: ("circle", cx, cy, radius, ccw) or
    ("line", x, y, angle, None) specs."""
    def rand_circle():
        x, y = rng.uniform(-5.0, 5.0, 2)
        return circle(x, y, rng.uniform(0.3, 3.0), bool(rng.integers(2)))

    def rand_line():
        x, y = rng.uniform(-5.0, 5.0, 2)
        return line(x, y, rng.uniform(-math.pi, math.pi))

    if kind == "generic":
        return [rand_circle() for _ in range(3)]
    if kind == "mixed":
        return [rand_circle(), rand_line(), rand_circle()]
    if kind == "three_lines":
        return [rand_line() for _ in range(3)]
    if kind == "descartes":
        r1, r2, r3 = rng.uniform(0.4, 2.5, 3)
        d12, d13, d23 = r1 + r2, r1 + r3, r2 + r3
        x3 = (d12 * d12 + d13 * d13 - d23 * d23) / (2.0 * d12)
        y3 = math.sqrt(max(d13 * d13 - x3 * x3, 0.0))
        return [circle(0.0, 0.0, r1), circle(d12, 0.0, r2), circle(x3, y3, r3)]
    if kind == "common_point":
        px, py = rng.uniform(-2.0, 2.0, 2)
        out = []
        for _ in range(3):
            r, t = rng.uniform(0.5, 3.0), rng.uniform(-math.pi, math.pi)
            out.append(circle(px + r * math.cos(t), py + r * math.sin(t), r,
                              bool(rng.integers(2))))
        return out
    if kind == "pencil":
        # circles through two common points, centers on their bisector
        h, t = rng.uniform(0.3, 2.0), rng.uniform(-math.pi, math.pi)
        mx, my = rng.uniform(-2.0, 2.0, 2)
        out = []
        for s in rng.uniform(-3.0, 3.0, 3):
            out.append(circle(mx + s * math.cos(t), my + s * math.sin(t),
                              math.hypot(h, s), bool(rng.integers(2))))
        return out
    first = rand_circle()
    twin = first if rng.integers(2) else first[:4] + (not first[4],)
    return [first, twin, rand_circle()]


def build(specs, scale=1.0, dx=0.0, dy=0.0):
    """The curves of the specs, moved by x -> scale * x + (dx, dy)."""
    out = []
    for kind, x, y, p, ccw in specs:
        mx, my = scale * x + dx, scale * y + dy
        if kind == "circle":
            out.append(circle_from_center_radius(mx, my, scale * p, ccw=ccw))
        else:
            out.append(line_from_point_angle(mx, my, p))
    return tuple(out)


def triples(seed, n=30):
    rng = np.random.default_rng(seed)
    for kind in KINDS:
        for _ in range(n):
            specs = random_specs(rng, kind)
            yield kind, build(specs)
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            dx, dy = rng.uniform(-1e3, 1e3, 2)
            yield kind, build(specs, scale, dx, dy)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared by type
        return type(exc)


@pytest.mark.parametrize("seed", [1, 2])
def test_enumeration_matches_oriented_solves(seed):
    for kind, (k1, k2, k3) in triples(seed):
        classes = ((k1, k2, k3), (reverse(k1), k2, k3),
                   (k1, reverse(k2), k3), (k1, k2, reverse(k3)))
        expected = [outcome(solve_oriented, *trip) for trip in classes]
        got = outcome(enumerate_nonoriented, k1, k2, k3)
        if isinstance(got, type):
            # the first class that raises ends the enumeration
            assert got is next(e for e in expected if isinstance(e, type)), kind
        else:
            assert list(got.per_class) == expected, kind


@pytest.mark.parametrize("seed", [3, 4])
def test_branch_solvers_agree_with_and_without_the_summary(seed):
    solvers = {ConfigTag.GENERIC: solve_general,
               ConfigTag.SINGLE_COMMON_POINT: solve_common_point}
    seen = set()
    for _, ks in triples(seed):
        config = classify_triple(*ks)
        solver = solvers.get(config.tag)
        if solver is None:
            continue
        seen.add(config.tag)
        assert config.summary is not None
        shared = outcome(solver, *ks, config)
        fresh = outcome(solver, *ks)
        assert shared == fresh
        if not isinstance(shared, type):
            # a result must not keep the summary, and its memory, alive
            assert shared.config.summary is None
    assert seen == set(solvers)
