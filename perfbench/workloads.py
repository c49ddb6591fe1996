"""Seeded input generators for the four benchmark workloads.

Every generator takes a seed and returns plain data: circle specs in the
scene-file schema (centre/radius, point/angle or coefficients), scene
documents, and the expected answer of each op.  The program under test sees
only the specs; expected answers come from the construction of each input or
from the exact rational oracle in ``checker``.

Why these workloads:

* ``generic-enum``: the common case and the no-change control for
  robustness fallbacks.  Random unit-scale circle triples, the test suite's
  distribution, solved with enumerate_nonoriented; invariants,
  classification, the generic branch, finish and dedup do all the work.
* ``scaled-mixed``: the same op on triples whose class and count are known
  (generic, mixed circle+line, three lines, Descartes, common point, pencil,
  coincident pair), each moved by a random similarity.  The answer must not
  change, so degeneracy thresholds that depend on position or scale show as
  wrong answers here and nowhere else.
* ``isogonal-sweep``: many queries per triple through solve_isogonal at 16
  fixed values of cos(Psi0), including 0, +-1 and |cos(Psi0)| > 1.
* ``cli-scenes``: in-process run_command over scene files, one each of
  ``solve --all`` with SVG, ``isogonal`` with an ``options.cos_psi`` list,
  ``invariants`` and ``descartes``; parse, result documents, JSON and SVG
  dominate.

``transforms`` is on no solver or CLI path, so no workload measures it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import checker

WORKLOADS = ("generic-enum", "scaled-mixed", "isogonal-sweep", "cli-scenes")

# inputs per workload: at least 1000, so that the 99th percentile of the
# per-input medians has ten inputs beyond it; scaled-mixed takes 600 of each
# base slot, which keeps its share of wrong answers within 1% across seeds
SIZES = {"generic-enum": 1000, "scaled-mixed": 5400,
         "isogonal-sweep": 1000, "cli-scenes": 1000}

COS_PSI_SWEEP = (-3.0, -2.0, -1.5, -1.0, -0.75, -0.5, -0.25, 0.0,
                 0.25, 0.5, 0.75, 0.9, 1.0, 1.5, 2.0, 3.0)

# base kinds of scaled-mixed, one slot each per cycle; generic and mixed
# triples take two slots because they carry most of the count law
SCALED_KINDS = ("generic", "generic", "mixed", "mixed", "three_lines",
                "descartes", "common_point", "pencil", "coincident")

MAX_DILATION_DECADES = 3.0   # log-uniform dilation in 1e-3 .. 1e3
MAX_OFFSET = 1e3             # translation of length 0 .. 1e3

# one cycle of the cli-scenes mix: each command once, in equal shares; no
# measured traffic is known, so this is the simplest mix that runs them all
CLI_COMMANDS = ("solve", "isogonal", "invariants", "descartes")


def circle(x, y, r, ccw=True) -> dict:
    return {"type": "circle", "center": [x, y], "radius": r,
            "orientation": "ccw" if ccw else "cw"}


def line(x, y, angle) -> dict:
    return {"type": "line", "point": [x, y], "angle": angle}


def random_circle(rng: random.Random, span=5.0, rmin=0.3, rmax=3.0) -> dict:
    """The test suite's distribution: centre in +-span, radius rmin..rmax."""
    return circle(rng.uniform(-span, span), rng.uniform(-span, span),
                  rng.uniform(rmin, rmax), rng.random() < 0.5)


def random_line(rng: random.Random, span=5.0) -> dict:
    return line(rng.uniform(-span, span), rng.uniform(-span, span),
                rng.uniform(-math.pi, math.pi))


def quads(specs):
    return [checker.exact_quad(s) for s in specs]


def generic_expect(specs):
    """Expected answer of a triple in general position, by the exact
    oracle; None when the triple is degenerate (the caller redraws)."""
    qs = quads(specs)
    counts = checker.nonoriented_counts(qs)
    if counts is None or not checker.is_generic(qs):
        return None
    tag = "three_lines" if all(q[0] == 0 for q in qs) else "generic"
    return {"classes": [tag] * 4, "counts": counts}


def _generic_triple(rng, draw):
    while True:
        specs = draw(rng)
        expect = generic_expect(specs)
        if expect is not None:
            return specs, expect


def gen_generic_enum(seed: int, n: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        specs, expect = _generic_triple(
            rng, lambda r: [random_circle(r) for _ in range(3)])
        out.append({"specs": specs, "expect": expect})
    return out


# -- scaled-mixed ----------------------------------------------------------

def _descartes_specs(rng):
    """Three pairwise externally tangent ccw circles."""
    r1, r2, r3 = (rng.uniform(0.4, 2.5) for _ in range(3))
    d12, d13, d23 = r1 + r2, r1 + r3, r2 + r3
    x3 = (d12 * d12 + d13 * d13 - d23 * d23) / (2.0 * d12)
    y3 = math.sqrt(max(d13 * d13 - x3 * x3, 0.0))
    return [circle(0.0, 0.0, r1), circle(d12, 0.0, r2), circle(x3, y3, r3)]


def _common_point_specs(rng):
    """Three circles through one point, centres well apart."""
    px, py = rng.uniform(-2, 2), rng.uniform(-2, 2)
    while True:
        centres = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
        radii = [math.hypot(cx - px, cy - py) for cx, cy in centres]
        # keep the three tangent directions at the point well apart
        dirs = [math.atan2(cy - py, cx - px) for cx, cy in centres]
        apart = all(abs(math.sin(dirs[i] - dirs[j])) > 0.2
                    for i, j in ((0, 1), (1, 2), (2, 0)))
        if min(radii) > 0.3 and apart:
            return [circle(cx, cy, r, rng.random() < 0.5)
                    for (cx, cy), r in zip(centres, radii)]


def _pencil_specs(rng):
    """Three circles of one coaxal pencil: elliptic, hyperbolic or
    parabolic, on the x-axis."""
    kind = rng.choice(("elliptic", "hyperbolic", "parabolic"))
    h = rng.uniform(0.5, 2.0)
    specs = []
    while len(specs) < 3:
        t = rng.uniform(-4.0, 4.0)
        ccw = rng.random() < 0.5
        if kind == "elliptic":     # through (0, +-h), centres on the x-axis
            specs.append(circle(t, 0.0, math.hypot(t, h), ccw))
        elif kind == "hyperbolic" and abs(t) > h + 0.3:   # limit points (+-h, 0)
            specs.append(circle(t, 0.0, math.sqrt(t * t - h * h), ccw))
        elif kind == "parabolic" and abs(t) > 0.3:        # tangent at the origin
            specs.append(circle(t, 0.0, abs(t), ccw))
    return specs


def _coincident_specs(rng):
    """A circle, the same circle (either orientation), and a third one."""
    k = random_circle(rng)
    twin = dict(k, orientation=rng.choice(("ccw", "cw")))
    specs = [k, twin, random_circle(rng)]
    rng.shuffle(specs)
    return specs


def _mixed_specs(rng):
    n_lines = rng.choice((1, 2))
    specs = [random_line(rng) for _ in range(n_lines)] + \
        [random_circle(rng) for _ in range(3 - n_lines)]
    rng.shuffle(specs)
    return specs


def _three_line_specs(rng):
    while True:
        specs = [random_line(rng) for _ in range(3)]
        angles = [s["angle"] for s in specs]
        if all(abs(math.sin(angles[i] - angles[j])) > 0.2
               for i, j in ((0, 1), (1, 2), (2, 0))):
            return specs


# expected answers fixed by the construction of the degenerate kinds
CONSTRUCTED = {
    "descartes": {"classes": ["generic"] * 4, "counts": [2, 1, 1, 1]},
    "common_point": {"classes": ["single_common_point"] * 4,
                     "counts": [1, 1, 1, 1]},
    "pencil": {"classes": ["pencil"] * 4, "counts": [0, 0, 0, 0]},
    "coincident": {"classes": ["coincident_pair"] * 4, "counts": [0, 0, 0, 0]},
}

BASES = {
    "generic": lambda rng: _generic_triple(
        rng, lambda r: [random_circle(r) for _ in range(3)]),
    "mixed": lambda rng: _generic_triple(rng, _mixed_specs),
    "three_lines": lambda rng: _generic_triple(rng, _three_line_specs),
    "descartes": lambda rng: (_descartes_specs(rng), CONSTRUCTED["descartes"]),
    "common_point": lambda rng: (_common_point_specs(rng),
                                 CONSTRUCTED["common_point"]),
    "pencil": lambda rng: (_pencil_specs(rng), CONSTRUCTED["pencil"]),
    "coincident": lambda rng: (_coincident_specs(rng),
                               CONSTRUCTED["coincident"]),
}


def move(spec: dict, scale: float, theta: float, tx: float, ty: float) -> dict:
    """Apply p -> scale * R(theta) p + t to a circle or line spec."""
    cos_t, sin_t = math.cos(theta), math.sin(theta)

    def point(x, y):
        return [scale * (cos_t * x - sin_t * y) + tx,
                scale * (sin_t * x + cos_t * y) + ty]

    if spec["type"] == "circle":
        return dict(spec, center=point(*spec["center"]),
                    radius=scale * spec["radius"])
    return dict(spec, point=point(*spec["point"]),
                angle=math.remainder(spec["angle"] + theta, 2.0 * math.pi))


def _strata(rng, n, lo, hi):
    """n values in [lo, hi), one per equal-width stratum, in random order
    (Latin hypercube sampling: a seed changes little but the jitter)."""
    order = list(range(n))
    rng.shuffle(order)
    return [lo + (hi - lo) * (k + rng.random()) / n for k in order]


def _grid(rng, m, lo, hi):
    """m points of (decade, offset) jointly stratified: a grid of strata
    over the dilation decade and the offset's distance, each point jittered
    within its cell, in random order."""
    rows = max(1, round(math.sqrt(m)))
    cells = [(i % rows, i // rows) for i in range(m)]
    cols = -(-m // rows)
    rng.shuffle(cells)
    return [(lo + (hi - lo) * (r + rng.random()) / rows,
             MAX_OFFSET * math.sqrt((c + rng.random()) / cols))
            for r, c in cells]


def gen_scaled_mixed(seed: int, n: int) -> list[dict]:
    rng = random.Random(seed)
    kinds = [SCALED_KINDS[i % len(SCALED_KINDS)] for i in range(n)]
    rng.shuffle(kinds)
    # each kind spans the whole range of scales, offsets and angles on its
    # own, so its share of wrong answers changes little between seeds
    moves = {}
    for kind in dict.fromkeys(SCALED_KINDS):
        m = kinds.count(kind)
        moves[kind] = list(zip(
            _grid(rng, m, -MAX_DILATION_DECADES, MAX_DILATION_DECADES),
            _strata(rng, m, -math.pi, math.pi),
            _strata(rng, m, -math.pi, math.pi)))
    out = []
    for kind in kinds:
        (dec, dist), heading, th = moves[kind].pop()
        tx, ty = dist * math.cos(heading), dist * math.sin(heading)
        base, expect = BASES[kind](rng)
        specs = [move(s, 10.0 ** dec, th, tx, ty) for s in base]
        out.append({"specs": specs, "expect": dict(expect, kind=kind)})
    return out


# -- isogonal-sweep --------------------------------------------------------

def isogonal_counts(qs, cosines):
    """Exact solution counts at each cos(Psi0), or None when degenerate."""
    basis = checker.meeting_basis(qs)
    if basis is None or not checker.is_generic(qs):
        return None
    counts = [checker.count_meeting(basis, (c, c, c)) for c in cosines]
    return None if None in counts else counts


def gen_isogonal_sweep(seed: int, n: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        specs = [random_circle(rng) for _ in range(3)]
        counts = isogonal_counts(quads(specs), COS_PSI_SWEEP)
        if counts is not None:
            out.append({"specs": specs,
                        "expect": {"class": "generic", "counts": counts,
                                   "cos_psi": list(COS_PSI_SWEEP)}})
    return out


# -- cli-scenes ------------------------------------------------------------

def coeffs_spec(spec: dict) -> dict:
    """The same circle as a raw normalized coefficient quadruple."""
    a, b, c, d = (float(v) for v in checker.exact_quad(spec))
    return {"type": "coeffs", "abcd": [a, b, c, d]}


def descartes_curvatures(specs):
    """Curvatures of the two tangent circles, from the radii alone."""
    ks = [1 / Fraction(s["radius"]) for s in specs]
    total = sum(ks)
    root = 2.0 * math.sqrt(ks[0] * ks[1] + ks[1] * ks[2] + ks[2] * ks[0])
    return [float(-total) + root, float(-total) - root]


def gen_cli_scenes(seed: int, n: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for i in range(n):
        command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        argv = [command, "{scene}"]
        scene = {}
        if command == "descartes":
            specs = _descartes_specs(rng)
            expect = {"curvatures": descartes_curvatures(specs)}
        else:
            specs, expect = _generic_triple(
                rng, lambda r: [random_circle(r) for _ in range(3)])
            if command == "solve":
                argv += ["--all", "--svg", "{svg}"]
            elif command == "isogonal":
                cosines = sorted(rng.sample(COS_PSI_SWEEP, 3))
                scene["options"] = {"cos_psi": cosines}
                expect = {"class": "generic", "cos_psi": cosines,
                          "counts": isogonal_counts(quads(specs), cosines)}
            else:
                expect = {"class": "generic"}
            # the third circle arrives as raw coefficients, so that both
            # spec forms are parsed
            specs = specs[:2] + [coeffs_spec(specs[2])]
        scene["circles"] = specs
        out.append({"specs": specs, "scene": scene, "argv": argv,
                    "expect": dict(expect, command=command)})
    return out


GENERATORS = {"generic-enum": gen_generic_enum,
              "scaled-mixed": gen_scaled_mixed,
              "isogonal-sweep": gen_isogonal_sweep,
              "cli-scenes": gen_cli_scenes}


def generate(workload: str, seed: int, n: int | None = None) -> list[dict]:
    """The inputs of one workload for one seed; the same seed gives the
    same inputs."""
    return GENERATORS[workload](seed, SIZES[workload] if n is None else n)
