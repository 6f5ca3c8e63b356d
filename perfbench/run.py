"""Benchmark of the rwp command-line pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is taken from ``src`` (it need not
be installed).  Workloads are defined in ``workloads.py``.

--trace 0  End-to-end run.  Imports ``rwp.cli`` in a fresh interpreter
           SETUP_REPEATS times (``setup_s``), then runs CLI jobs as
           subprocesses in a closed loop (one client, one job at a time) for
           S seconds, at least MIN_JOBS of them.  Every job's output is checked
           (``checks.py``).  Wall time, CPU time and peak RSS come from
           ``os.wait4``.
--trace 1  Per-layer run.  Repeats, for S seconds and at least once, a cycle
           of a plain job, a traced job (``trace_job.py``), a traced job at one
           thread and a plain job at one thread (RWP_THREADS=1
           OPENBLAS_NUM_THREADS=1), and reports the medians.  The plain jobs'
           files are byte-compared (``thread_diff_frac``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with machine information, goes to .perfbench_out/results/, and so do the
raw spans of the last traced job.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import CHECKS  # noqa: E402
from workloads import WORKLOADS, draw_job  # noqa: E402

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
MIN_JOBS = 4
JOB_TIMEOUT_S = 150
THREAD_VARS = ("RWP_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")
SINGLE_THREAD = {"RWP_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

END_TO_END = {"job_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Printed and stored, not bounded: both are 0 when all is well.
REPORTED_ONLY = {"fail_frac": "ratio", "thread_diff_frac": "ratio"}

# Per-layer metrics of the traced run: (metric, unit, where it comes from).
# "span" entries are (wrapped function, stat) from trace_job's aggregate.
PER_LAYER = [
    ("cli.import_s", "s", ("import", "rwp")),
    ("cli.import.scipy_signal_s", "s", ("import", "scipy.signal")),
    ("cli.main.s", "s", ("span", "cli.main", "s")),
    ("cli.main.self_s", "s", ("span", "cli.main", "self_s")),
    ("cli.command.s", "s", ("command", "s")),
    ("cli.command.self_s", "s", ("command", "self_s")),
    ("cli.write_csv.s", "s", ("span", "cli.write_csv", "s")),
    ("cli.write_csv.mb", "MB", ("count", "cli.write_csv.bytes", 1e-6)),
    ("cli.write_pgm.s", "s", ("span", "cli.write_pgm", "s")),
    ("cli.write_pgm.mb", "MB", ("count", "cli.write_pgm.bytes", 1e-6)),
    ("core.energy_table.s", "s", ("span", "core.energy_table", "s")),
    ("core.time_scales.s", "s", ("span", "core.time_scales", "s")),
    ("packet.build_packet.s", "s", ("span", "packet.build_packet", "s")),
    ("packet.amplitudes_at.s", "s", ("span", "packet.amplitudes_at", "s")),
    ("packet.amplitudes_at.calls", "count", ("span", "packet.amplitudes_at", "calls")),
    ("observables.observable_series.s", "s", ("span", "observables.observable_series", "s")),
    ("observables.observable_series.self_s", "s",
     ("span", "observables.observable_series", "self_s")),
    ("observables.autocorrelation.s", "s", ("span", "observables.autocorrelation", "s")),
    ("observables.spin_expectations.s", "s", ("span", "observables.spin_expectations", "s")),
    ("observables.component_norms.s", "s", ("span", "observables.component_norms", "s")),
    ("observables.carpet.s", "s", ("span", "observables.carpet", "s")),
    ("observables.carpet.self_s", "s", ("span", "observables.carpet", "self_s")),
    ("observables.densities.s", "s", ("span", "observables.densities", "s")),
    ("observables.densities.calls", "count", ("span", "observables.densities", "calls")),
    ("observables.carpet.macs", "count", ("count", "observables.carpet.macs", 1)),
    ("radial.make_grid.s", "s", ("span", "radial.make_grid", "s")),
    ("radial.radial_table.s", "s", ("span", "radial.radial_table", "s")),
    ("radial.radial_eval.s", "s", ("span", "radial.radial_eval", "s")),
    ("radial.radial_table.rows", "count", ("count", "radial.radial_table.rows", 1)),
    ("radial.grid_points", "count", ("count", "radial.grid_points", 1)),
    ("radial.point_steps", "count", ("count", "radial.point_steps", 1)),
    ("radial.gram_max_dev", "abs", ("health", "radial.gram_max_dev")),
    ("density.norm_err", "abs", ("health", "density.norm_err")),
    ("trace.overhead_s", "s", ("cycle", "overhead_s")),
    ("trace.spans", "count", ("cycle", "spans")),
    ("trace.span_cost_s", "s", ("cycle", "span_cost_s")),
    ("radial.radial_table.s_1t", "s", ("span_1t", "radial.radial_table", "s")),
    ("observables.carpet.s_1t", "s", ("span_1t", "observables.carpet", "s")),
    ("threads.job_speedup", "ratio", ("cycle", "job_speedup")),
    ("threads.cpu_ratio", "ratio", ("cycle", "cpu_ratio")),
    ("threads.diff_frac", "ratio", ("cycle", "diff_frac")),
]


class Bench:
    def __init__(self, root, workload, seed):
        self.root = root
        self.src = os.path.join(root, "src")
        self.out = os.path.join(root, ".perfbench_out")
        self.work = os.path.join(self.out, "work", workload)
        self.results = os.path.join(self.out, "results")
        self.workload = workload
        self.seed = seed
        self.job = draw_job(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    # -- processes ------------------------------------------------------
    def env(self, single):
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p)
        if single:
            env.update(SINGLE_THREAD)
        return env

    def spawn(self, cmd, cwd, single=False, stderr_path=None):
        """Run cmd to completion; (wall_s, cpu_s, peak_rss_mb, exit_code)."""
        stdout_path = os.path.join(cwd, "stdout.txt")
        stderr_path = stderr_path or os.path.join(cwd, "stderr.txt")
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env(single),
                                    stdout=out, stderr=err)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode

    def fresh_dir(self, tag):
        path = os.path.join(self.work, tag)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    # -- one CLI job ----------------------------------------------------
    def cli_job(self, tag, single=False, traced=False):
        """Run the workload's job once and check what it wrote."""
        cwd = self.fresh_dir(tag)
        cli = list(self.job.argv) + ["--out", self.job.out]
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "trace_job.py"),
                   "--report", "report.json", "--spans", "spans.json", "--"] + cli
        else:
            cmd = [sys.executable, "-m", "rwp.cli"] + cli
        wall, cpu, rss, code = self.spawn(cmd, cwd, single)
        self.attempted += 1
        problems = []
        if code != 0:
            with open(os.path.join(cwd, "stderr.txt"), errors="replace") as fh:
                problems.append(f"exit {code}: {fh.read().strip()[-300:]}")
        else:
            with open(os.path.join(cwd, "stdout.txt")) as fh:
                printed = [line.strip() for line in fh if line.strip()]
            paths = [os.path.join(cwd, p) for p in printed]
            try:
                problems = CHECKS[self.workload](paths, self.job, self.seed)
            except Exception as exc:  # unreadable output is a failed job
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append(f"{tag}: " + "; ".join(problems))
        result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
                  "ok": not problems, "dir": cwd}
        if traced and code == 0:
            with open(os.path.join(cwd, "report.json")) as fh:
                result["report"] = json.load(fh)
        return result

    def outputs_differ(self, a, b):
        """Share of the job's output files whose bytes differ between runs."""
        differ = sum(not filecmp.cmp(os.path.join(a["dir"], name),
                                     os.path.join(b["dir"], name), shallow=False)
                     for name in self.job.outputs)
        return differ / len(self.job.outputs)

    # -- set-up ---------------------------------------------------------
    def setup_times(self):
        cwd = self.fresh_dir("setup")
        walls = []
        for _ in range(SETUP_REPEATS):
            wall, _, _, code = self.spawn([sys.executable, "-c", "import rwp.cli"], cwd)
            if code != 0:
                raise SystemExit(f"perfbench: 'import rwp.cli' failed (exit {code})")
            walls.append(wall)
        return walls

    def import_times(self):
        """Cumulative import time of rwp.cli and of scipy.signal (-X importtime)."""
        cwd = self.fresh_dir("importtime")
        log = os.path.join(cwd, "importtime.txt")
        runs = []
        for _ in range(IMPORTTIME_REPEATS):
            _, _, _, code = self.spawn(
                [sys.executable, "-X", "importtime", "-c", "import rwp.cli"],
                cwd, stderr_path=log)
            if code != 0:
                raise SystemExit(f"perfbench: 'import rwp.cli' failed (exit {code})")
            runs.append(parse_importtime(log))
        return {key: statistics.median(r.get(key, 0.0) for r in runs)
                for key in ("rwp", "scipy.signal")}, \
            sorted({k for r in runs for k in ("rwp", "scipy.signal") if k not in r})


def parse_importtime(path):
    """{'rwp': s, 'scipy.signal': s} from a -X importtime log."""
    found = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            seconds = int(cumulative) * 1e-6
            depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
            module = name.strip()
            if depth == 0 and (module == "rwp" or module.startswith("rwp.")):
                found["rwp"] = found.get("rwp", 0.0) + seconds
            elif module == "scipy.signal":
                found["scipy.signal"] = max(found.get("scipy.signal", 0.0), seconds)
    return found


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def machine_info(root):
    import numpy

    try:
        blas = {k: v for k, v in
                numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].items()
                if "directory" not in k}  # directories of the wheel's build host
    except (TypeError, KeyError):
        blas = "unavailable"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "unavailable"
    try:
        rev = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=root, capture_output=True, text=True,
                             timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {
        "git_revision": rev,
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "thread_vars_inherited": {k: os.environ.get(k) for k in THREAD_VARS},
        "thread_vars_default_run": {k: None for k in THREAD_VARS},
        "thread_vars_single_run": SINGLE_THREAD,
    }


def run_end_to_end(bench, seconds):
    setup = bench.setup_times()
    jobs = []
    t_end = time.perf_counter() + seconds
    while len(jobs) < MIN_JOBS or time.perf_counter() < t_end:
        jobs.append(bench.cli_job("default"))
    values = {"setup_s": setup}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        values["job_s" if key == "wall_s" else key] = [j[key] for j in jobs]
    metrics = {name: statistics.median(values[name]) for name in END_TO_END}
    extra = {"fail_frac": bench.failed / bench.attempted}
    return metrics, extra, {"samples": values, "jobs": len(jobs)}


def run_traced(bench, seconds):
    imports, absent_imports = bench.import_times()
    cycles = []
    t_end = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < t_end:
        plain = bench.cli_job("default")
        traced = bench.cli_job("traced", traced=True)
        traced1 = bench.cli_job("traced_1t", single=True, traced=True)
        plain1 = bench.cli_job("single", single=True)
        cycle = {"traced": traced, "traced_1t": traced1}
        cycle["overhead_s"] = traced["wall_s"] - plain["wall_s"]
        cycle["job_speedup"] = plain1["wall_s"] / plain["wall_s"]
        cycle["cpu_ratio"] = plain["cpu_s"] / plain1["cpu_s"]
        cycle["diff_frac"] = bench.outputs_differ(plain, plain1) \
            if plain["ok"] and plain1["ok"] else 1.0
        cycle["spans"] = traced.get("report", {}).get("span_count", 0)
        cycle["span_cost_s"] = traced.get("report", {}).get("span_cost_s", 0.0)
        cycles.append(cycle)
    absent = set(f"import {m}" for m in absent_imports)
    values = {}
    for name, _, source in PER_LAYER:
        per_cycle = [layer_value(source, c, imports, absent) for c in cycles]
        values[name] = [v for v in per_cycle if v is not None]
        if not values[name]:
            values[name] = [0.0]
    metrics = {name: statistics.median(v) for name, v in values.items()}
    breakdown = [c["traced"].get("report", {}).get("main") for c in cycles]
    for item in breakdown:
        if item is None:
            bench.problems.append("traced run has no single cli.main span")
            bench.failed += 1
        elif abs(item["children_sum_s"] + item["self_s"] - item["main_s"]) > 1e-6:
            bench.problems.append("cli.main children overlap: spans do not add up")
            bench.failed += 1
    spans = os.path.join(cycles[-1]["traced"]["dir"], "spans.json")
    if os.path.exists(spans):
        os.makedirs(bench.results, exist_ok=True)
        shutil.copy(spans, os.path.join(
            bench.results, f"{bench.workload}-seed{bench.seed}-spans.json"))
    reports = [c["traced"].get("report", {}) for c in cycles]
    detail = {"cycles": len(cycles), "samples": values, "absent": sorted(absent),
              "main_breakdown": breakdown[-1],
              "hook_errors": sorted({e for r in reports for e in r.get("hook_errors", [])}),
              "wrapped": reports[-1].get("wrapped", [])}
    extra = {"fail_frac": bench.failed / bench.attempted,
             "thread_diff_frac": metrics["threads.diff_frac"]}
    return metrics, extra, detail


# Counts and health figures come from hooks on these wrapped functions.
COUNT_SOURCES = {
    "cli.write_csv.bytes": "cli.write_csv",
    "cli.write_pgm.bytes": "cli.write_pgm",
    "observables.carpet.macs": "observables.carpet",
    "radial.radial_table.rows": "radial.radial_table",
    "radial.grid_points": "radial.radial_table",
    "radial.point_steps": "radial.radial_table",
    "radial.gram_max_dev": "radial.radial_table",
    "density.norm_err": "observables.densities",
}


def layer_value(source, cycle, imports, absent):
    """One per-layer figure from one cycle.  A function that ran no call
    gives 0; one that no longer exists is added to ``absent`` and gives 0."""
    kind = source[0]
    if kind == "import":
        return imports[source[1]]
    if kind == "cycle":
        return cycle[source[1]]
    report = cycle["traced_1t" if kind == "span_1t" else "traced"].get("report")
    if report is None:
        return None
    if kind == "command":
        cmds = [v for k, v in report["stats"].items() if k.startswith("cli.cmd_")]
        return float(sum(v[source[1]] for v in cmds))
    function = source[1] if kind in ("span", "span_1t") \
        else COUNT_SOURCES[source[1]]
    if function not in report["wrapped"]:
        absent.add(function)
        return 0.0
    if kind in ("span", "span_1t"):
        entry = report["stats"].get(function)
        return float(entry[source[2]]) if entry else 0.0
    if kind == "count":
        return report["counts"].get(source[1], 0) * source[2]
    if kind == "health":
        return report["health"].get(source[1], 0.0)
    raise ValueError(f"unknown metric source {source!r}")


def print_summary(bench, trace, metrics, extra, detail):
    job = bench.job
    print(f"workload {bench.workload}  seed {bench.seed}  trace {trace}")
    print(f"  rwp {' '.join(job.argv)}")
    if trace == 0:
        print(f"  {detail['jobs']} jobs in a closed loop")
        for name, unit in END_TO_END.items():
            lo, hi = quartiles(detail["samples"][name])
            print(f"  {name:<18} {metrics[name]:12.6g} {unit:<6} "
                  f"(median of {len(detail['samples'][name])}; quartiles {lo:.6g} .. {hi:.6g})")
    else:
        print(f"  {detail['cycles']} traced cycles; medians")
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<38} {metrics[name]:14.6g} {unit}")
        main = detail["main_breakdown"]
        if main:
            print(f"  cli.main {main['main_s']:.6f} s = children {main['children_sum_s']:.6f} s "
                  f"({', '.join(main['children'])}) + self {main['self_s']:.6f} s")
        if detail["absent"]:
            print(f"  absent from the package (reported as 0): {', '.join(detail['absent'])}")
        if detail["hook_errors"]:
            print(f"  count hooks failed: {'; '.join(detail['hook_errors'])}")
    for name, value in extra.items():
        print(f"  {name:<18} {value:12.6g} {REPORTED_ONLY[name]}")
    for problem in bench.problems:
        print(f"  FAILED {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="rwp CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rwp", "cli.py")):
        print("perfbench: src/rwp/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    bench = Bench(root, args.workload, args.seed)
    try:
        if args.trace:
            metrics, extra, detail = run_traced(bench, args.seconds)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, extra, detail = run_end_to_end(bench, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    print_summary(bench, args.trace, metrics, extra, detail)
    result = {
        "workload": args.workload, "why": WORKLOADS[args.workload].why,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "cli_argv": list(bench.job.argv), "params": bench.job.params,
        "machine": machine_info(root),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "reported": {k: {"value": v, "unit": REPORTED_ONLY[k]} for k, v in extra.items()},
        "attempted": bench.attempted, "failed": bench.failed,
        "problems": bench.problems, "detail": detail,
    }
    os.makedirs(bench.results, exist_ok=True)
    path = os.path.join(bench.results,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(f"  result file {os.path.relpath(path, root)}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
