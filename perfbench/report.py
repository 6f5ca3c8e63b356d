"""Run every workload end to end and traced, and print one table.

    python3 perfbench/report.py --seed 1 [--seconds 25] [--save perfbench/baseline/seed1.json]

Run from the repository root.  Each workload runs ``run.py --trace 0`` and
then ``run.py --trace 1``; the table shows the six end-to-end metrics per
workload (``thread_diff_frac`` comes from the traced run) and the per-layer
figures.  ``--save`` writes all six result files
into one JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END, PER_LAYER, REPORTED_ONLY  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"report: {workload} trace {trace} exited {done.returncode}")
    path = os.path.join(".perfbench_out", "results",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--save")
    args = parser.parse_args(argv)

    results = {w: {t: run_one(w, args.seed, args.seconds, t) for t in (0, 1)}
               for w in WORKLOADS}
    names = list(WORKLOADS)
    print(f"{'metric':<40} {'unit':<6}" + "".join(f"{w:>18}" for w in names))
    rows = [(name, unit, 0, "metrics") for name, unit in END_TO_END.items()]
    rows += [("fail_frac", REPORTED_ONLY["fail_frac"], 0, "reported"),
             ("thread_diff_frac", REPORTED_ONLY["thread_diff_frac"], 1, "reported")]
    for name, unit, trace, section in rows:
        row = [results[w][trace][section][name]["value"] for w in names]
        print(f"{name:<40} {unit:<6}" + "".join(f"{v:>18.6g}" for v in row))
    print(f"{'failed/attempted':<47}" + "".join(
        f"{results[w][0]['failed'] + results[w][1]['failed']:>10}/"
        f"{results[w][0]['attempted'] + results[w][1]['attempted']:<7}" for w in names))
    for name, unit, _ in PER_LAYER:
        row = [results[w][1]["metrics"][name]["value"] for w in names]
        print(f"{name:<40} {unit:<6}" + "".join(f"{v:>18.6g}" for v in row))
    if args.save:
        os.makedirs(os.path.dirname(args.save) or ".", exist_ok=True)
        with open(args.save, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"saved {args.save}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
