"""Mutation run: how many one-operator changes to src/rwp the tests catch.

    python tools/mutate.py [--rev REV] [--out MUTATION.json] [FILE ...]
                           [-- PYTEST_ARGS]

Each mutant changes one site of one FILE (default: every module of
src/rwp) in a copy of the working tree, never in the tree itself, and runs
``python -m pytest -x -q PYTEST_ARGS`` (default: ``tests``) on the copy.
The operators are + <-> -, * <-> / and ** -> * (also as augmented
assignments), the flipped comparisons < <-> <= and > <-> >=, and nudged
numeric constants (an int n -> n + 1, a float x -> x + max(|x|, 1) 1e-6).
Sites inside f-strings and ``raise`` statements are skipped.  With --rev,
only sites on the lines that ``git diff REV`` adds or changes are mutated.

An unmutated run must pass first.  Then each mutant is "killed" (pytest
fails), "timeout" (it ran five times as long as the unmutated run) or
"survived".  The JSON holds every site with its operator, source line,
outcome and seconds.  A survivor can carry an ``equivalent`` reason or a
``note``, written by hand into the JSON; a later run keeps them for a
survivor with the same file, source line text, column and operator, so a
mark follows its line when lines move and drops when the line changes
(identical lines share their marks).
The score is (killed + timeout) / (mutants - equivalent).  Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"),
         ast.Div: ("/", "*"), ast.Pow: ("**", "*")}
FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
         ast.GtE: (">=", ">")}
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                ".pytest_cache", ".perfbench_out")


def changed_lines(rev: str, path: str) -> set:
    """Line numbers that ``git diff rev`` adds or changes in path."""
    diff = subprocess.run(["git", "diff", "-U0", rev, "--", path], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout
    lines = set()
    for start, count in re.findall(r"^@@ -\S+ \+(\d+)(?:,(\d+))? @@", diff,
                                   re.M):
        count = 1 if count == "" else int(count)
        lines.update(range(int(start), int(start) + count))
    return lines


def sites(source: bytes) -> list:
    """(start, end, old, new) byte spans of every mutable site."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def begin(node):
        return starts[node.lineno - 1] + node.col_offset

    def end(node):
        return starts[node.end_lineno - 1] + node.end_col_offset

    def operator(a, b, old, new):
        # the operator is the one token between two operands, besides
        # parentheses and white space
        gap = source[a:b]
        if b"#" in gap:
            return []
        at = gap.find(old.encode())
        return [(a + at, a + at + len(old), old, new)]

    tree = ast.parse(source)
    skip = {id(n) for top in ast.walk(tree)
            if isinstance(top, (ast.JoinedStr, ast.Raise))
            for n in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            old, new = SWAPS[type(node.op)]
            found += operator(end(node.left), begin(node.right), old, new)
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            old, new = SWAPS[type(node.op)]
            found += operator(end(node.target), begin(node.value),
                              old + "=", new + "=")
        elif isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                if type(op) in FLIPS:
                    found += operator(end(left), begin(right),
                                      *FLIPS[type(op)])
                left = right
        elif (isinstance(node, ast.Constant)
              and type(node.value) in (int, float)):
            x = node.value
            new = x + 1 if type(x) is int else x + max(abs(x), 1.0) * 1e-6
            found.append((begin(node), end(node),
                          source[begin(node):end(node)].decode(), repr(new)))
    return sorted(found)


def pytest(work: Path, args: list, timeout: float) -> tuple:
    """(outcome, seconds) of one pytest run in the copy."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"),
               PYTHONDONTWRITEBYTECODE="1")  # no stale .pyc of a mutant
    t0 = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *args], cwd=work, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return "timeout", round(time.perf_counter() - t0, 2)
    seconds = round(time.perf_counter() - t0, 2)
    return ("survived" if code == 0 else "killed"), seconds


def main() -> int:
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="modules to mutate")
    parser.add_argument("--rev", help="mutate only lines changed since REV")
    parser.add_argument("--out", default="MUTATION.json")
    opts = parser.parse_args(argv[:cut])
    test_args = argv[cut + 1:] or ["tests"]
    files = opts.files or sorted(
        str(p.relative_to(ROOT)) for p in (ROOT / "src" / "rwp").glob("*.py"))

    plan = []
    for name in files:
        source = (ROOT / name).read_bytes()
        lines = changed_lines(opts.rev, name) if opts.rev else None
        for start, stop, old, new in sites(source):
            line = source.count(b"\n", 0, start) + 1
            if lines is not None and line not in lines:
                continue
            col = start - (source.rfind(b"\n", 0, start) + 1)
            plan.append({"file": name, "line": line, "col": col,
                         "operator": f"{old} -> {new}",
                         "span": (start, stop, new)})

    out = Path(opts.out)
    marks = {}
    if out.exists():
        for m in json.loads(out.read_text())["mutants"]:
            hand = {k: m[k] for k in ("equivalent", "note") if k in m}
            if hand:
                marks[m["file"], m["source"], m["col"], m["operator"]] = hand

    work = Path(tempfile.mkdtemp(prefix="mutate-")) / "tree"
    try:
        shutil.copytree(ROOT, work, ignore=IGNORE)
        outcome, clean_s = pytest(work, test_args, None)
        if outcome != "survived":
            print(f"the unmutated tests fail: {test_args}", file=sys.stderr)
            return 1
        timeout = 5.0 * clean_s
        for i, m in enumerate(plan, 1):
            path = work / m["file"]
            source = path.read_bytes()
            start, stop, new = m.pop("span")
            m["source"] = source[source.rfind(b"\n", 0, start) + 1:
                                 source.find(b"\n", start)].decode().strip()
            path.write_bytes(source[:start] + new.encode() + source[stop:])
            m["outcome"], m["seconds"] = pytest(work, test_args, timeout)
            path.write_bytes(source)
            key = (m["file"], m["source"], m["col"], m["operator"])
            if key in marks and m["outcome"] == "survived":
                m.update(marks[key])
            print(f"[{i}/{len(plan)}] {m['file']}:{m['line']} "
                  f"{m['operator']}: {m['outcome']} ({m['seconds']} s)",
                  file=sys.stderr)
    finally:
        shutil.rmtree(work.parent)

    count = {k: sum(m["outcome"] == k for m in plan)
             for k in ("killed", "timeout", "survived")}
    count["equivalent"] = sum("equivalent" in m for m in plan)
    scored = len(plan) - count["equivalent"]
    score = (round((count["killed"] + count["timeout"]) / scored, 4)
             if scored else None)
    out.write_text(json.dumps(
        {"revision": opts.rev, "files": files, "pytest": test_args,
         "clean_seconds": clean_s, "timeout_seconds": timeout,
         "count": count, "score": score, "mutants": plan}, indent=1) + "\n")
    print(f"{out}: {len(plan)} mutants, {count}, score {score}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
