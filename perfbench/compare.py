"""Make sets of benchmark runs and compare them.

    python3 perfbench/compare.py run --out .perfbench-runs/parent=../parent \\
        --out .perfbench-runs/change=. --seeds 1-10
    python3 perfbench/compare.py report .perfbench-runs/parent
    python3 perfbench/compare.py report .perfbench-runs/parent .perfbench-runs/change

``run`` runs ``perfbench/run.py`` untraced in each named checkout, for every
workload in BENCHMARK.json and every seed, with its ``run_seconds``; with two
checkouts it alternates which runs first.  Each run's output is kept as
``<workload>-s<seed>.txt`` in the set's directory.  (A traced run is made
with ``run.py --trace 1`` directly.)

``report`` prints, per workload and metric, the median and quartiles of each
set and the spread (interquartile range over median) against the metric's
bound.  Given two sets (parent first) it adds a verdict per workload and
metric:

* ``worse``: the change's median is worse than the parent's by more than the
  bound; or, for a metric that a seed fixes exactly (``correct_frac``), the
  change reads worse than the parent on any seed both sets ran;
* ``better``: the change wins at least 9 in 10 seed-matched pairs and the
  medians differ by more than the parent's interquartile range;
* ``unresolved``: either spread exceeds the bound and the change's runs do
  not all read better than all the parent's;
* ``within``: none of these.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT = 900

# metrics that the seed and the program fix exactly: no timing noise, so a
# seed-matched run that reads worse is a regression, however small
EXACT_METRICS = ("correct_frac",)


def load_spec(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_sets(outs: list[str], seeds: list[int]) -> int:
    spec = load_spec()
    sets = []
    for item in outs:
        out, _, checkout = item.partition("=")
        sets.append((Path(out), Path(checkout or ".").resolve()))
        Path(out).mkdir(parents=True, exist_ok=True)
    status = 0
    for name in (w["name"] for w in spec["workloads"]):
        for k, seed in enumerate(seeds):
            order = sets if k % 2 == 0 else sets[::-1]
            for out, checkout in order:
                argv = [*spec["command"], "--workload", name, "--seed", str(seed),
                        "--seconds", str(spec["run_seconds"]),
                        "--trace", "0"]
                proc = subprocess.run(argv, cwd=checkout, capture_output=True,
                                      text=True, timeout=RUN_TIMEOUT)
                path = out / f"{name}-s{seed}.txt"
                path.write_text(proc.stdout + proc.stderr, encoding="utf-8")
                result = last_json(proc.stdout)
                ok = proc.returncode == 0 and result is not None
                status |= not ok
                print(f"{out}: {name} seed {seed}: "
                      f"{'ok' if ok else 'FAILED'}", flush=True)
    return status


def last_json(text: str):
    for line in reversed(text.strip().splitlines()):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and "metrics" in doc:
            return doc
    return None


def load_set(directory: Path):
    """{workload: {seed: result}} and the environments of a set of runs."""
    runs, envs = {}, set()
    for path in sorted(directory.glob("*.txt")):
        text = path.read_text(encoding="utf-8")
        info = next((json.loads(line[4:]) for line in text.splitlines()
                     if line.startswith("run {")), None)
        result = last_json(text)
        if info is None or result is None:
            continue
        runs.setdefault(info["workload"], {})[info["seed"]] = result
        envs.add(tuple(sorted((k, str(v)) for k, v in info.items()
                              if k not in ("workload", "seed"))))
    return runs, envs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(parent: dict, change: dict, metric: dict) -> str:
    """Verdict on one metric of one workload; runs are matched by seed."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p = {s: r["metrics"][name]["value"] for s, r in parent.items()}
    c = {s: r["metrics"][name]["value"] for s, r in change.items()}
    pairs = [s for s in p if s in c]
    if name in EXACT_METRICS and any(sign * c[s] > sign * p[s] for s in pairs):
        return "worse"
    pv, cv = list(p.values()), list(c.values())
    pq1, pmed, pq3 = quartiles(pv)
    cmed = statistics.median(cv)
    worse_by = sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    all_better = max(sign * v for v in cv) < min(sign * v for v in pv)
    if max(spread(pv), spread(cv)) > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(sign * c[s] < sign * p[s] for s in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(cmed - pmed) > pq3 - pq1:
        return "better"
    return "within"


def report(dirs: list[str]) -> int:
    spec = load_spec()
    sets = [load_set(Path(d)) for d in dirs]
    for d, (_, envs) in zip(dirs, sets):
        for env in envs:
            print(f"{d}: " + ", ".join(f"{k}={v}" for k, v in env))
    over = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [s[0].get(workload, {}) for s in sets]
        if not all(runs):
            continue
        counts = " / ".join(str(len(r)) for r in runs)
        print(f"\n{workload} ({counts} runs)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            cells = []
            for r in runs:
                values = [x["metrics"][name]["value"] for x in r.values()]
                q1, med, q3 = quartiles(values)
                s = spread(values)
                if name != "setup_s" and s > metric["bound"]:
                    over += 1
                cells.append(f"{med:11.5g} [{q1:.5g}, {q3:.5g}] "
                             f"spread {s:6.2%}")
            line = f"  {name:20s} " + " | ".join(cells)
            line += f"  bound {metric['bound']:.0%}"
            if len(runs) == 2:
                line += "  " + verdict(runs[0], runs[1], metric)
            print(line)
        attempted = [sum(x["attempted"] for x in r.values()) for r in runs]
        failed = [sum(x["failed"] for x in r.values()) for r in runs]
        incorrect = [sum(not x["correct"] for x in r.values()) for r in runs]
        print("  failed/attempted     " + " | ".join(
            f"{f}/{a} ({f / a:.4%})" for f, a in zip(failed, attempted))
            + "  runs not correct: " + " | ".join(map(str, incorrect)))
    return 1 if over else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="make one or two sets of runs")
    p.add_argument("--out", action="append", required=True,
                   metavar="DIR[=CHECKOUT]",
                   help="where to keep a set, and the checkout it runs")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p = sub.add_parser("report", help="summarize one set, or compare two")
    p.add_argument("dirs", nargs="+", metavar="DIR")
    args = parser.parse_args(argv)
    if args.command == "run":
        if len(args.out) > 2:
            parser.error("at most two sets")
        return run_sets(args.out, parse_seeds(args.seeds))
    if len(args.dirs) > 2:
        parser.error("at most two sets")
    return report(args.dirs)


if __name__ == "__main__":
    sys.exit(main())
