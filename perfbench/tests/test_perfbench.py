"""Fast tests of the benchmark's own parts.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import apollonia  # noqa: E402
import apollonia.cli  # noqa: E402,F401 - every traced module loaded
import checker  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    a = workloads.generate(name, 7, n=20)
    assert a == workloads.generate(name, 7, n=20)
    assert a != workloads.generate(name, 8, n=20)
    json.dumps(a)   # plain data only


def _solved(seed=3):
    item = workloads.generate("generic-enum", seed, n=1)[0]
    ks = [apollonia.circle_from_spec(s) for s in item["specs"]]
    return item, workloads.quads(item["specs"]), \
        apollonia.enumerate_nonoriented(*ks)


def test_checker_accepts_the_solver_on_a_generic_triple():
    item, quads, report = _solved()
    assert checker.check_enumeration(report, quads, item["expect"]) == checker.OK


def test_checker_flags_a_perturbed_coefficient():
    item, quads, report = _solved()
    ss = next(ss for ss in report.per_class if ss.solutions)
    bad = dataclasses.replace(ss.solutions[0], d=ss.solutions[0].d * (1 + 1e-6))
    per_class = tuple(
        dataclasses.replace(s, solutions=(bad,) + s.solutions[1:])
        if s is ss else s for s in report.per_class)
    broken = dataclasses.replace(report, per_class=per_class)
    assert checker.check_enumeration(broken, quads, item["expect"]) == \
        checker.FAIL_RESIDUAL


def test_checker_allows_rounding_on_a_far_tiny_triple():
    # three circles of radius ~1e-3 about 1e3 from the origin, with an exact
    # tangent circle: its correctly rounded floats miss the inputs by far
    # more than Q_TOL, because <x, k> cancels terms of order (1e6)^2
    t, r = Fraction(10001, 10), Fraction(1, 3000)
    r1, r2, r3 = Fraction(1, 700), Fraction(1, 1300), Fraction(1, 900)
    quads = workloads.quads([workloads.circle(t + r + r1, t, r1),
                             workloads.circle(t, t + r + r2, r2),
                             workloads.circle(t - r - r3, t, r3)])
    exact = checker.exact_quad(workloads.circle(t, t, r, ccw=False))
    assert all(checker.lorentz(exact, k) == 1 for k in quads)
    rounded = tuple(float(v) for v in exact)
    assert all(checker.tangency_residual(rounded, k) > checker.Q_TOL
               for k in quads)
    assert all(checker.tangent(rounded, k) for k in quads)
    # the same circle reversed, or twice as large, is still refused
    reversed_ = tuple(-v for v in rounded)
    doubled = tuple(float(v) for v in checker.exact_quad(
        workloads.circle(t, t, 2 * r, ccw=False)))
    assert not any(checker.tangent(reversed_, k) for k in quads)
    assert not any(checker.tangent(doubled, k) for k in quads)


def test_checker_flags_a_dropped_solution():
    item, quads, report = _solved()
    broken = dataclasses.replace(
        report, distinct_unoriented=report.distinct_unoriented[1:])
    assert checker.check_enumeration(broken, quads, item["expect"]) == \
        checker.FAIL_COUNT


def test_checker_flags_an_undocumented_exception():
    item, quads, _ = _solved()
    assert checker.check_enumeration(RuntimeError("boom"), quads,
                                     item["expect"]) == checker.FAIL_EXCEPTION
    assert checker.check_cli((2, ""), quads, {"command": "solve"}) == \
        checker.FAIL_EXCEPTION


def test_checker_never_raises_on_malformed_outcomes():
    item, quads, _ = _solved()
    assert checker.check_enumeration(None, quads, item["expect"]) == \
        checker.FAIL_RESIDUAL
    assert checker.check_cli((0, "not json"), quads, {"command": "solve"}) == \
        checker.FAIL_RESIDUAL
    assert checker.tangency_residual((math.nan, 0.0, 0.0, 1.0),
                                     quads[0]) == math.inf


def test_exact_oracle_on_an_exact_descartes_triple():
    specs = [workloads.circle(0, 0, 1), workloads.circle(3, 0, 2),
             workloads.circle(0, 4, 3)]
    assert checker.nonoriented_counts(workloads.quads(specs)) == [2, 1, 1, 1]


def test_isogonal_check_uses_exact_counts_and_the_identity():
    item = workloads.generate("isogonal-sweep", 4, n=1)[0]
    ks = [apollonia.circle_from_spec(s) for s in item["specs"]]
    sweep = [apollonia.solve_isogonal(*ks, apollonia.IsogonalQuery(c))
             for c in workloads.COS_PSI_SWEEP]
    quads = workloads.quads(item["specs"])
    oriented = apollonia.solve_oriented(*ks)
    assert checker.check_isogonal(sweep, quads, item["expect"], oriented) == \
        checker.OK
    empty = dataclasses.replace(oriented, solutions=())
    if oriented.solutions:
        assert checker.check_isogonal(sweep, quads, item["expect"], empty) == \
            checker.FAIL_COUNT


def _bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "apollonia" or name.startswith("apollonia.")
            for attr, value in vars(module).items() if callable(value)}


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    with Tracer() as tr:
        bound = set(tr.bindings)
        for module in ("apollonia", "apollonia.invariants",
                       "apollonia.apollonius", "apollonia.isogonal",
                       "apollonia.scene"):
            assert (module, "triple_summary") in bound
        item = workloads.generate("generic-enum", 3, n=1)[0]
        cc, ap = apollonia.circle_core, apollonia.apollonius
        tr.op(lambda specs: ap.enumerate_nonoriented(
            *[cc.circle_from_spec(s) for s in specs]), item["specs"])
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    totals = tr.totals()
    assert tr.n_ops == 1
    assert totals["invariants.triple_summary"]["calls"] == 8
    assert totals["cli.run_command"]["calls"] == 0
    assert totals["op"]["self_us"] >= 0


def test_tracer_restores_after_an_error():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_verdicts():
    metric = {"name": "t", "better": "lower", "bound": 0.1}

    def runs(values):
        return {s: {"metrics": {"t": {"value": v}}} for s, v in enumerate(values)}

    parent = runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    assert compare.verdict(parent, runs([v * 1.3 for v in range(95, 105)]),
                           metric) == "worse"
    assert compare.verdict(parent, runs([80, 81, 79, 80, 82, 78, 80, 81, 79,
                                         80]), metric) == "better"
    assert compare.verdict(parent, runs([50, 150, 60, 140, 100, 100, 70, 130,
                                         90, 110]), metric) == "unresolved"
    assert compare.verdict(parent, parent, metric) == "within"


def test_one_seed_worse_in_correct_frac_is_worse():
    metric = {"name": "correct_frac", "better": "higher", "bound": 0.03}

    def runs(values):
        return {s: {"metrics": {"correct_frac": {"value": v}}}
                for s, v in enumerate(values)}

    parent = runs([1.0] * 10)
    assert compare.verdict(parent, parent, metric) == "within"
    assert compare.verdict(parent, runs([1.0] * 9 + [0.999]), metric) == \
        "worse"


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "generic-enum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert compare.last_json(proc.stdout) is None
