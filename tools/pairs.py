"""Alternating pairs: does a change move the benchmark's end-to-end metrics?

    python tools/pairs.py --rev PARENT [--change REV] [--out BENCH_<pr>.json]

Builds both trees with ``git archive`` (``bytegate.build_tree``), then for
each workload of ``perfbench/workloads.py`` and seeds 1..10 runs
``perfbench/run.py --trace 0 --seconds S`` in both trees, S being
``BENCHMARK.json``'s ``run_seconds``, the parent first on odd seeds and the
change first on even ones.  Each run's metric values
are the medians the harness reports.  The JSON holds, per workload and
end-to-end metric, both sides' medians and quartiles, the change's wins and
losses, the parent's IQR and every run, beside ``nproc``, the BLAS build
and both revisions.

The verdict is mechanical.  A metric is worse when the change's median is
worse than the parent's by more than the bound ``BENCHMARK.json`` sets.  It
is unresolved when the parent's IQR exceeds that bound, unless every change
run beats every parent run.  It is better (a gain) when the change wins at
least 9 of 10 pairs, its median beats the parent's by more than the
parent's IQR, and it failed no more jobs than the parent.  Else it is flat.
Exit 1 if any metric is worse or any job failed.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bytegate import ROOT, build_tree

PAIRS = 10


def quartiles(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one perfbench run: correct, attempted, failed
    and the metrics."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(parent: list, change: list, bound: float, lower: bool,
            failed: dict) -> dict:
    """One metric of one workload over the pairs, with its verdict;
    ``failed`` holds each side's failed jobs."""
    sign = -1.0 if lower else 1.0  # gain = sign * (change - parent)
    better = [sign * (c - p) > 0 for p, c in zip(parent, change)]
    worse = [sign * (c - p) < 0 for p, c in zip(parent, change)]
    old, new = quartiles(parent), quartiles(change)
    iqr = old["q3"] - old["q1"]
    gap = new["median"] - old["median"]
    frac = gap / old["median"] if old["median"] else 0.0
    apart = all(sign * (c - p) > 0 for c in change for p in parent)
    if -sign * frac > bound:
        verdict = "worse"
    elif iqr > bound * abs(old["median"]) and not apart:
        verdict = "unresolved"
    elif (sum(better) >= 0.9 * len(better) and sign * gap > iqr
          and failed["change"] <= failed["parent"]):
        verdict = "better"
    else:
        verdict = "flat"
    return {"parent": old, "change": new, "change_wins": sum(better),
            "change_losses": sum(worse), "median_change_frac": frac,
            "parent_iqr": iqr,
            "parent_iqr_frac": iqr / old["median"] if old["median"] else 0.0,
            "median_gap": gap, "verdict": verdict,
            "parent_runs": parent, "change_runs": change}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="the parent revision")
    parser.add_argument("--change", default="HEAD", help="the changed revision")
    parser.add_argument("--out", default="BENCH.json")
    opts = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    revs = {side: subprocess.run(
        ["git", "rev-parse", "--short", rev], cwd=ROOT, capture_output=True,
        text=True, check=True).stdout.strip()
        for side, rev in (("parent", opts.rev), ("change", opts.change))}
    result = {"what": f"perfbench/run.py --trace 0, {seconds:g}-s runs; "
                      f"{PAIRS} pairs per workload (seeds 1-{PAIRS}),"
                      " the parent first on odd seeds; both trees from git "
                      "archive; PYTHONDONTWRITEBYTECODE=1, "
                      "OPENBLAS_NUM_THREADS unset",
              "parent_revision": revs["parent"],
              "change_revision": revs["change"],
              "nproc": len(os.sched_getaffinity(0)),
              "os_cpu_count": os.cpu_count(),
              "blas": blas(), "python": platform.python_version(),
              "platform": platform.platform(), "workloads": {}}
    bad = 0
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {side: build_tree(rev, Path(tmp) / side)
                 for side, rev in (("parent", opts.rev),
                                   ("change", opts.change))}
        for workload in sorted(WORKLOADS):
            runs = {"parent": [], "change": []}
            for seed in range(1, PAIRS + 1):
                order = ("parent", "change") if seed % 2 else ("change",
                                                               "parent")
                for side in order:
                    runs[side].append(bench(trees[side], workload, seed,
                                            seconds))
                    print(f"{workload} seed {seed} {side}: "
                          f"{runs[side][-1]['metrics']['job_s']['value']:.4f}"
                          " s/job", file=sys.stderr)
            entry = {"pairs": PAIRS,
                     "jobs_failed": {s: sum(r["failed"] for r in runs[s])
                                     for s in runs},
                     "jobs_attempted": {s: sum(r["attempted"] for r in runs[s])
                                        for s in runs},
                     "metrics": {}}
            bad += sum(entry["jobs_failed"].values())
            for m in metrics:
                values = {s: [r["metrics"][m["name"]]["value"] for r in runs[s]]
                          for s in runs}
                entry["metrics"][m["name"]] = compare(
                    values["parent"], values["change"], m["bound"],
                    m["better"] == "lower", entry["jobs_failed"])
                bad += entry["metrics"][m["name"]]["verdict"] == "worse"
            result["workloads"][workload] = entry
    result["verdict"] = verdicts(result["workloads"])
    Path(opts.out).write_text(json.dumps(result, indent=1) + "\n")
    for workload, entry in result["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: {m['median_change_frac']:+.1%} "
                  f"(parent IQR {m['parent_iqr_frac']:.1%}, wins "
                  f"{m['change_wins']}/{PAIRS}): {m['verdict']}",
                  file=sys.stderr)
    return 1 if bad else 0


def verdicts(workloads: dict) -> dict:
    """Each verdict -> the "workload metric" pairs that got it."""
    found = {}
    for workload, entry in workloads.items():
        for name, m in entry["metrics"].items():
            found.setdefault(m["verdict"], []).append(f"{workload} {name}")
    return found


def blas() -> dict:
    """numpy's BLAS build, read in a child that imports numpy, without the
    directories it was built in."""
    code = ("import json, numpy; print(json.dumps(numpy.show_config("
            "mode='dicts')['Build Dependencies']['blas']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    return {k: v for k, v in json.loads(out).items()
            if not k.endswith("directory")}


if __name__ == "__main__":
    sys.exit(main())
