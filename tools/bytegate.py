"""Byte gate: does the working tree's CLI write the same bytes as REV's?

    python tools/bytegate.py [--rev REV]

Builds REV's tree (default HEAD) with ``git archive REV`` in a temporary
directory, so ``.git`` is never touched, and runs each job below with
``python -m rwp.cli`` in both trees, once with ``OPENBLAS_NUM_THREADS``
unset and once at 2.  A job runs in a fresh empty directory with relative
output paths, so the exit code, stdout, stderr and every file it leaves
can be compared byte for byte.  Exit 1 on any difference, else 0.

The jobs: figures 1-6, fig 6 also as CSV; every ``rwp`` line of the
README's CLI usage block (read by ``readme_cli_examples`` in
``tests/conftest.py``); the seed-1 and seed-2 jobs of each benchmark
workload (``perfbench/workloads.draw_job``); a carpet CSV at one block of
times and one sample either side of it on 501 radii; a carpet PGM at 9 and
101 samples; and two jobs that exit 1 (a missing output directory, a
subnormal ``t_max`` whose carpet axis does not ascend).  Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIGURES = {1: "density", 2: "observables", 3: "timescales",
           4: "observables", 5: "density", 6: "carpet"}
CARPET = ["carpet", "--Z", "92", "--a", "0.6", "--b", "0.8",
          "--t-max", "1.5"]


def build_tree(rev: str, dest: Path) -> Path:
    """REV's committed files, extracted with ``git archive`` into dest, so
    ``.git`` is never touched and nothing untracked comes along."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def tree_facts() -> tuple:
    """(the README's CLI examples, the block size), read by the test helpers
    in a child process, which has numpy; this one need not."""
    code = ("import json; from conftest import readme_cli_examples; "
            "from rwp.radial import _BLOCK_ELEMENTS; print(json.dumps("
            "[readme_cli_examples(), _BLOCK_ELEMENTS]))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "tests",
                         env=env, capture_output=True, text=True, check=True)
    return tuple(json.loads(out.stdout))


def jobs() -> dict:
    """Job name -> CLI argv, every output path relative."""
    examples, block_elements = tree_facts()
    named = {f"fig{k}": [command, "--figure", str(k), "--out",
                         f"fig{k}.{'pgm' if k == 6 else 'csv'}"]
             for k, command in FIGURES.items()}
    named["fig6-csv"] = ["carpet", "--figure", "6", "--format", "csv",
                         "--out", "fig6.csv"]
    named.update((f"readme{i}", argv)
                 for i, argv in enumerate(examples))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, draw_job
    for workload in sorted(WORKLOADS):
        for seed in (1, 2):
            job = draw_job(workload, seed)
            named[f"{workload}-seed{seed}"] = [*job.argv, "--out", job.out]
    block = block_elements // 501
    for samples in (block - 1, block, block + 1):
        named[f"carpet-csv-{samples}"] = [
            *CARPET, "--samples", str(samples), "--grid-points", "501",
            "--format", "csv", "--out", "c.csv"]
    for samples in (9, 101):
        named[f"carpet-pgm-{samples}"] = [
            *CARPET, "--samples", str(samples), "--grid-points", "1001",
            "--format", "pgm", "--out", "c.pgm"]
    named["exit1-missing-directory"] = [
        "observables", "--Z", "92", "--samples", "3", "--out",
        "missing/obs.csv"]
    named["exit1-subnormal-t-max"] = [
        "carpet", "--Z", "92", "--t-unit", "au", "--t-max", "3e-323",
        "--samples", "5", "--out", "c.csv"]
    return named


def run(tree: Path, argv: list, blas: str | None, work: Path) -> dict:
    """Exit code, stdout, stderr and files of one job run in ``work``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    work.mkdir(parents=True)
    proc = subprocess.run([sys.executable, "-m", "rwp.cli", *argv], cwd=work,
                          env=env, capture_output=True, timeout=600)
    files = {str(p.relative_to(work)): p.read_bytes()
             for p in sorted(work.rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "files": files}


def differences(old: dict, new: dict) -> list:
    """What differs between two runs of one job, one phrase each."""
    found = [key for key in ("exit code", "stdout", "stderr")
             if old[key] != new[key]]
    for name in sorted(old["files"].keys() | new["files"].keys()):
        if old["files"].get(name) != new["files"].get(name):
            found.append(name)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD",
                        help="revision to compare the working tree with")
    opts = parser.parse_args(argv)
    named = jobs()
    with tempfile.TemporaryDirectory(prefix="bytegate-") as tmp:
        old_tree = build_tree(opts.rev, Path(tmp) / "rev")
        failed = 0
        for name, job in named.items():
            for blas in (None, "2"):
                setting = f"OPENBLAS_NUM_THREADS={blas or 'unset'}"
                work = Path(tmp) / setting / name
                old = run(old_tree, job, blas, work / "old")
                new = run(ROOT, job, blas, work / "new")
                found = differences(old, new)
                failed += bool(found)
                print(f"{name} [{setting}]: "
                      + (f"DIFFERS in {', '.join(found)}" if found else
                         f"same (exit {new['exit code']}, "
                         f"{len(new['files'])} files)"), file=sys.stderr)
    runs = 2 * len(named)
    print(f"{opts.rev} vs working tree: {len(named)} jobs, {runs} runs per "
          f"tree, {failed} with differences", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
