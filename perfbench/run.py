"""Benchmark of apollonia: one workload, one seed, one run.

    python3 perfbench/run.py --workload generic-enum --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The run generates its inputs from the seed, times the workload's
op in a closed loop with one caller for ``--seconds``, then checks every
answer outside the timed region with ``checker``.  The last line of standard
output is one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

``attempted`` counts the inputs checked and ``failed`` those whose answer
is wrong (an undocumented exception, a wrong class or count, or a residual
over tolerance).  Every input is checked once, so both are fixed by the
seed, whatever number of passes the time allows; that the later passes
give the same answers is what ``correct`` says.  ``correct`` is true when every op was checked and gave the
same answer on every pass, and the CLI processes agreed with the in-process
CLI.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` half the time runs untraced and half with span wrappers
installed, and the metrics are the per-layer ones.  ``--spans PATH`` also
writes every recorded span.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import checker
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# a process's wall-clock spreads by +-15% within a run on a shared machine,
# so each figure is the median of many, taken across the whole run
SETUP_SAMPLES = 31      # fresh interpreters timed for setup_s
CLI_SAMPLES = 31        # CLI processes timed for cli_process_ms_p50
SUBPROCESS_TIMEOUT = 60

CLASS_TAGS = ("generic", "three_lines", "pencil", "single_common_point",
              "coincident_pair")


def load_program():
    """Import apollonia from the checkout's src/, or explain why not."""
    if not (SRC / "apollonia" / "__init__.py").is_file():
        raise SystemExit(f"error: no apollonia sources under {SRC}; run from "
                         "the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import apollonia
    import apollonia.cli  # noqa: F401 - loads every module the CLI uses
    if Path(apollonia.__file__).resolve().parent != SRC / "apollonia":
        raise SystemExit(f"error: imported apollonia from {apollonia.__file__}")
    return apollonia


def child_env() -> dict:
    """The environment of timed processes: the checkout's sources first, and
    bytecode cached as in an installed package, whatever the caller's
    PYTHONDONTWRITEBYTECODE says (the first, untimed process writes it)."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def environment() -> dict:
    """What the numbers were measured on, and which sources."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    try:
        # the ceiling keeps git from reading repositories above the checkout
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        top, head = (git.stdout.split() + [None, None])[:2]
        if git.returncode == 0 and top and Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "apollonia").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


# -- ops ---------------------------------------------------------------------

class Workload:
    """The op of one workload, its prepared arguments and its check."""

    def __init__(self, name, items, apollonia, work: Path):
        self.name = name
        self.items = items
        self.quads = [workloads.quads(it["specs"]) for it in items]
        self.work = work
        cc, ap = apollonia.circle_core, apollonia.apollonius
        iso = apollonia.isogonal
        self._ap, self._cli = ap, apollonia.cli

        if name in ("generic-enum", "scaled-mixed"):
            def op(specs):
                try:
                    return ap.enumerate_nonoriented(
                        cc.circle_from_spec(specs[0]),
                        cc.circle_from_spec(specs[1]),
                        cc.circle_from_spec(specs[2]))
                except Exception as exc:  # noqa: BLE001 - checked later
                    return exc
            self.args = [it["specs"] for it in items]
            self.cli_argvs = [["solve", "{scene}", "--all"]] * len(items)
        elif name == "isogonal-sweep":
            queries = [iso.IsogonalQuery(c, iso.Branch.BOTH)
                       for c in workloads.COS_PSI_SWEEP]

            def op(ks):
                try:
                    return [iso.solve_isogonal(ks[0], ks[1], ks[2], q)
                            for q in queries]
                except Exception as exc:  # noqa: BLE001 - checked later
                    return exc
            self.args = [tuple(cc.circle_from_spec(s) for s in it["specs"])
                         for it in items]
            sweep = ",".join(map(repr, workloads.COS_PSI_SWEEP))
            self.cli_argvs = [["isogonal", "{scene}", "--cos-psi=" + sweep]] * \
                len(items)
        else:
            def op(argv):
                try:
                    return self.in_process_cli(argv)
                except Exception as exc:  # noqa: BLE001 - checked later
                    return exc
            self.cli_argvs = [it["argv"] for it in items]
            self.args = [self.argv(i, os.devnull) for i in range(len(items))]
        self.op = op

    def scene_path(self, i: int) -> str:
        path = self.work / f"scene-{i}.json"
        if not path.exists():
            scene = self.items[i].get("scene", {"circles": self.items[i]["specs"]})
            path.write_text(json.dumps(scene), encoding="utf-8")
        return str(path)

    def argv(self, i: int, svg: str) -> list[str]:
        """The CLI arguments of input i, with its scene file written."""
        scene = self.scene_path(i)
        return [scene if a == "{scene}" else svg if a == "{svg}" else a
                for a in self.cli_argvs[i]]

    def in_process_cli(self, argv):
        """run_command with its output captured: (exit code, stdout)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = self._cli.run_command(argv)
        return code, out.getvalue()

    def check(self, i: int, outcome) -> str:
        expect = self.items[i]["expect"]
        if self.name in ("generic-enum", "scaled-mixed"):
            return checker.check_enumeration(outcome, self.quads[i], expect)
        if self.name == "isogonal-sweep":
            try:
                oriented = self._ap.solve_oriented(*self.args[i])
            except Exception as exc:  # noqa: BLE001 - judged by the checker
                oriented = exc
            return checker.check_isogonal(outcome, self.quads[i], expect,
                                          oriented)
        verdict = checker.check_cli(outcome, self.quads[i], expect)
        if verdict == checker.OK and "{svg}" in self.cli_argvs[i]:
            # run again with the SVG kept, and count its curves
            path = self.work / f"render-{i}.svg"
            self.in_process_cli(self.argv(i, str(path)))
            drawn = checker.svg_curve_count(path)
            path.unlink(missing_ok=True)
            if drawn != 3 + json.loads(outcome[1])["n_solutions"]:
                verdict = checker.FAIL_RESIDUAL
        return verdict


# -- timing ------------------------------------------------------------------

def timed_passes(op, args, seconds: float, tracer=None, between=None):
    """Whole passes over args until the time is up.

    After each pass, ``between(progress)`` may do untimed work; its time is
    left out.  Returns (elapsed_s, samples_ns, last_outcomes); samples are
    in pass order, so sample k belongs to input k % len(args)."""
    clock = time.perf_counter_ns
    samples, last = [], [None] * len(args)
    run = op if tracer is None else (lambda a: tracer.op(op, a))
    budget = int(seconds * 1e9)
    elapsed = 0
    gc.collect()
    while elapsed < budget:
        t_pass = clock()
        for i, arg in enumerate(args):
            t0 = clock()
            out = run(arg)
            samples.append(clock() - t0)
            last[i] = out
        elapsed += clock() - t_pass
        if between is not None:
            between(elapsed / budget)
    return elapsed / 1e9, samples, last


def per_input_medians(samples, n: int):
    return [statistics.median(samples[i::n]) / 1e3 for i in range(n)]


class ProcessSampler:
    """Wall-clock of fresh processes, one at a time: interpreters importing
    apollonia.cli (set-up) and CLI runs on this workload's inputs.  The
    samples are taken a few at a time between timed passes, so that they
    spread over the whole run and its changes in machine load."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.env = child_env()
        self.setup, self.cli = [], []
        self.agree = True
        self.pending = [task for pair in zip(
            [self._setup] * SETUP_SAMPLES,
            [lambda i=i: self._cli(i) for i in range(1, CLI_SAMPLES + 1)])
            for task in pair]
        self.total = len(self.pending)
        # first runs may compile bytecode; not counted
        self._setup(keep=False)
        self._cli(0, keep=False)

    def _wall(self, argv):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=self.env, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT, cwd=ROOT)
        return time.perf_counter() - t0, proc

    def _setup(self, keep=True):
        wall, proc = self._wall([sys.executable, "-c", "import apollonia.cli"])
        if proc.returncode != 0:
            raise SystemExit(f"error: import failed: {proc.stderr.strip()}")
        if keep:
            self.setup.append(wall)

    def _cli(self, i, keep=True):
        argv = self.wl.argv(i, os.devnull)
        wall, proc = self._wall([sys.executable, "-m", "apollonia.cli", *argv])
        if keep:
            self.cli.append(wall)
        try:
            expected = self.wl.in_process_cli(argv)
        except Exception:  # noqa: BLE001 - a process dies of it with status 1
            expected = (1, "")
        if (proc.returncode, proc.stdout) != expected:
            print(f"cli process disagrees with run_command on {argv}",
                  file=sys.stderr)
            self.agree = False

    def step(self, progress: float):
        """Take samples until their share done matches the run's progress."""
        while self.pending and \
                self.total - len(self.pending) < progress * self.total:
            self.pending.pop(0)()

    def finish(self):
        self.step(1.0)
        return statistics.median(self.setup), \
            statistics.median(self.cli) * 1e3, self.agree


# -- per-layer metrics ---------------------------------------------------------

class Tallies:
    """Counts that need an op's returned value, fed by tracer hooks."""

    def __init__(self):
        self.classes = Counter()
        self.kept = self.found = 0
        self.iso_calls = self.iso_empty = 0
        self.json_bytes = self.svg_bytes = 0

    def hooks(self):
        def classify(res):
            self.classes[res.tag.value] += 1

        def enumerate_(res):
            self.kept += len(res.distinct_unoriented)
            self.found += sum(len(ss.solutions) for ss in res.per_class)

        def isogonal(res):
            self.iso_calls += 1
            self.iso_empty += not res.solutions

        def emit(res):
            self.json_bytes += len(res.encode())

        def svg(res):
            self.svg_bytes += len(res.encode())

        return {"invariants.classify_triple": classify,
                "apollonius.enumerate_nonoriented": enumerate_,
                "isogonal.solve_isogonal": isogonal,
                "scene.emit_json": emit,
                "render.render_svg": svg}


def ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(totals, n_ops, tallies: Tallies, verdicts, overhead):
    def calls(*names):
        return ratio(sum(totals[s]["calls"] for s in names), n_ops)

    def self_us(*names):
        return ratio(sum(totals[s]["self_us"] for s in names), n_ops)

    def total_us(name):
        return ratio(totals[name]["total_us"], n_ops)

    n_classified = sum(tallies.classes.values())
    n_inputs = len(verdicts)
    m = {
        "invariants.triple_summary_calls_per_op":
            (calls("invariants.triple_summary"), "calls/op"),
        "invariants.triple_summary_self_us_per_op":
            (self_us("invariants.triple_summary"), "us/op"),
        "invariants.classify_calls_per_op":
            (calls("invariants.classify_triple"), "calls/op"),
        "invariants.classify_self_us_per_op":
            (self_us("invariants.classify_triple"), "us/op"),
        "invariants.similarity_calls_per_op":
            (calls("invariants.similarity"), "calls/op"),
    }
    for tag in CLASS_TAGS:
        m[f"apollonius.class.{tag}_frac"] = (
            ratio(tallies.classes[tag], n_classified), "frac")
    for kind in (checker.FAIL_EXCEPTION, checker.FAIL_COUNT,
                 checker.FAIL_RESIDUAL):
        m[f"check.fail_{kind}_frac"] = (
            ratio(sum(v == kind for v in verdicts), n_inputs), "frac")
    m.update({
        "apollonius.solve_oriented_self_us_per_op": (self_us(
            "apollonius.solve_oriented", "apollonius.solve_general",
            "apollonius.solve_three_lines", "apollonius.solve_common_point"),
            "us/op"),
        "apollonius.enumerate_self_us_per_op":
            (self_us("apollonius.enumerate_nonoriented"), "us/op"),
        "apollonius.dedup_kept_frac": (ratio(tallies.kept, tallies.found), "frac"),
        "circle_core.normalize_calls_per_op":
            (calls("circle_core.normalized_coeffs"), "calls/op"),
        "circle_core.coincidence_calls_per_op":
            (calls("circle_core.coincidence_test"), "calls/op"),
        "circle_core.construct_us": (total_us("circle_core.circle_from_spec"),
                                     "us/op"),
        "isogonal.calls_per_op": (calls("isogonal.solve_isogonal"), "calls/op"),
        "isogonal.solve_self_us_per_op": (self_us(
            "isogonal.solve_isogonal", "isogonal.isogonal_three_lines"), "us/op"),
        "isogonal.empty_frac": (ratio(tallies.iso_empty, tallies.iso_calls),
                                "frac"),
        "scene.parse_self_us_per_op": (self_us("scene.parse_scene"), "us/op"),
        "scene.document_self_us_per_op": (self_us(
            "scene.solution_set_doc", "scene.summary_doc"), "us/op"),
        "scene.emit_json_us_per_op": (total_us("scene.emit_json"), "us/op"),
        "scene.json_bytes_per_op": (ratio(tallies.json_bytes, n_ops), "bytes/op"),
        "render.svg_us_per_op": (total_us("render.render_svg"), "us/op"),
        "render.svg_bytes_per_op": (ratio(tallies.svg_bytes, n_ops), "bytes/op"),
        "apollonius.tangency_point_calls_per_op":
            (calls("apollonius.tangency_point"), "calls/op"),
        "cli.run_command_self_us_per_op":
            (self_us("cli.run_command"), "us/op"),
        "trace_overhead_frac": (overhead, "frac"),
    })
    return m


# -- one run -------------------------------------------------------------------

def run(args, apollonia) -> dict:
    items = workloads.generate(args.workload, args.seed)
    agree = True
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl = Workload(args.workload, items, apollonia, Path(tmp))
        n = len(wl.args)
        first = [wl.op(a) for a in wl.args]     # warm-up pass, checked below
        if args.trace:
            from tracer import Tracer
            half = args.seconds / 2.0
            plain_s, plain, _ = timed_passes(wl.op, wl.args, half)
            tallies = Tallies()
            with Tracer(tallies.hooks()) as tr:
                elapsed, samples, last = timed_passes(wl.op, wl.args, half, tr)
            overhead = (len(plain) / plain_s) / (len(samples) / elapsed) - 1.0
            if args.spans:
                tr.write(args.spans)
        else:
            sampler = ProcessSampler(wl)
            elapsed, samples, last = timed_passes(wl.op, wl.args, args.seconds,
                                                  between=sampler.step)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup_s, cli_ms, agree = sampler.finish()

        verdicts = [wl.check(i, out) for i, out in enumerate(first)]
        # outcomes compared by their text, so exceptions and NaNs compare too
        stable = all(repr(a) == repr(b) for a, b in zip(first, last))

    passes = len(samples) // n
    attempted, failed = n, sum(v != checker.OK for v in verdicts)
    if args.trace:
        metrics = layer_metrics(tr.totals(), tr.n_ops, tallies, verdicts,
                                overhead)
        counts = dict.fromkeys(metrics, f"{tr.n_ops} traced ops")
    else:
        medians = per_input_medians(samples, n)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(samples) / elapsed, "1/s"),
            "op_us_p50": (statistics.median(medians), "us"),
            "op_us_p99": (statistics.quantiles(medians, n=100)[98], "us"),
            "cli_process_ms_p50": (cli_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "correct_frac": (1.0 - failed / attempted, "frac"),
        }
        counts = {"setup_s": f"median of {SETUP_SAMPLES} interpreters",
                  "ops_per_s": f"{len(samples)} ops in {elapsed:.2f} s",
                  "op_us_p50": f"{n} inputs, each the median of {passes}",
                  "op_us_p99": f"{n} inputs, each the median of {passes}",
                  "cli_process_ms_p50": f"median of {CLI_SAMPLES} processes",
                  "peak_rss_mb": "benchmark process",
                  "correct_frac": f"{n} inputs, each checked once"}
    if not stable:
        print("answers differ between passes", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {n} inputs x {passes} "
          f"passes; inputs by verdict {dict(Counter(verdicts))}; fail_frac "
          f"{failed / attempted:.6g} ({failed} of {attempted} inputs)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit:9s} {counts[name]}")
    return {"correct": bool(stable and agree), "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="PATH",
                        help="with --trace 1, write every span to PATH")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: scratch files are removed and child processes
    # are killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    apollonia = load_program()
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, **environment()}
    print("run " + json.dumps(info))
    result = run(args, apollonia)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
