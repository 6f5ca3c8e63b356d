"""Run one CLI job in-process with every public rwp function wrapped in a span.

    python perfbench/trace_job.py --report REPORT.json --spans SPANS.json -- <rwp cli args>

Needs ``src`` on PYTHONPATH.  Before calling ``rwp.cli.main(argv)`` it wraps
each public function of ``core``, ``packet``, ``radial``, ``observables`` and
``cli`` and rebinds every module-level reference to it (names imported into
other modules and values of module-level dicts such as the CLI command table).
Thread pools created by the package are swapped for one that hands the
submitting span to the worker thread, so a span run on a pool thread has the
span that submitted it as its parent.  No program file is edited.

The report holds, per wrapped name, the summed span time ``s``, the self time
``self_s`` (span time minus the union of its children's intervals, since
children overlap across pool threads) and ``calls``, plus counts and
numerical-health figures taken from arguments and return values.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

import numpy as np

LAYER_MODULES = ("core", "packet", "radial", "observables", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread


class Tracer:
    """Collects spans in memory; one stack of open spans per thread."""

    def __init__(self):
        self.spans = []
        self.hook_errors = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def run_under(self, parent, fn, *args, **kwargs):
        """Run fn on this thread with ``parent`` as its open span."""
        saved = getattr(self._local, "stack", None)
        self._local.stack = [parent] if parent is not None else []
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    def wrap(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, 0.0, stack[-1] if stack else None,
                        threading.get_ident())
            self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if on_return is not None:
                try:
                    on_return(args, kwargs, result)
                except Exception as exc:  # a changed signature must not end the run
                    self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return traced

    def executor_class(self):
        tracer = self

        class SpanExecutor(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.run_under, tracer.current(), fn,
                                      *args, **kwargs)

        return SpanExecutor


def _noop():
    return None


def span_cost(calls=20000):
    """Seconds one wrapped call adds over a plain call, timed on a no-op."""
    wrapped = Tracer().wrap("noop", _noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        _noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def _union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def aggregate(spans):
    """Per-name {'s', 'self_s', 'calls'}; self time subtracts the union of
    the children's intervals, clipped to the parent's."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    stats = {}
    for span in spans:
        dur = span.end - span.start
        kids = [(max(k.start, span.start), min(k.end, span.end))
                for k in children.get(id(span), [])]
        covered = _union_length([iv for iv in kids if iv[1] > iv[0]])
        entry = stats.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += dur
        entry["self_s"] += dur - covered
        entry["calls"] += 1
    return stats


def main_breakdown(spans, main_name="cli.main"):
    """Check that main's direct children plus its self time make up main."""
    mains = [s for s in spans if s.name == main_name and s.parent is None]
    if len(mains) != 1:
        return None
    main = mains[0]
    kids = [s for s in spans if s.parent is main]
    covered = _union_length([(k.start, k.end) for k in kids])
    total = main.end - main.start
    return {"main_s": total, "children": sorted({k.name for k in kids}),
            "children_union_s": covered, "self_s": total - covered,
            "children_sum_s": sum(k.end - k.start for k in kids)}


class Capture:
    """Counts and health figures read off wrapped calls' arguments and results."""

    def __init__(self):
        self.counts = {}
        self.grid = None
        self.table = None
        self.norm_err = None
        self._lock = threading.Lock()  # densities hooks run on pool threads

    def hooks(self):
        return {
            "radial.make_grid": self._grid,
            "radial.radial_table": self._table,
            "observables.carpet": self._carpet,
            "observables.densities": self._density,
            "cli.write_csv": self._written("cli.write_csv.bytes"),
            "cli.write_pgm": self._written("cli.write_pgm.bytes"),
        }

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _grid(self, args, kwargs, grid):
        self.grid = grid

    def _table(self, args, kwargs, table):
        rows, points = table.values.shape
        self.table = table
        self._add("radial.radial_table.rows", rows)
        self.counts["radial.grid_points"] = points
        steps = sum(int(n) - table.l - 1 for n in table.n_range)
        self._add("radial.point_steps", points * steps)

    def _carpet(self, args, kwargs, result):
        times, points = result.rho1.shape
        packet = args[0] if args else kwargs["packet"]
        self._add("observables.carpet.macs", 3 * times * len(packet.n) * points)

    def _density(self, args, kwargs, snap):
        err = abs(snap.total_norm() - 1.0)
        with self._lock:
            self.norm_err = err if self.norm_err is None else max(self.norm_err, err)

    def _written(self, key):
        def hook(args, kwargs, result):
            path = args[0] if args else kwargs["path"]
            self._add(key, os.path.getsize(path))
        return hook

    def health(self):
        out = {}
        if self.table is not None and self.grid is not None \
                and self.table.values.shape[1] == len(self.grid.r):
            vals = self.table.values
            gram = (vals * (self.grid.quad_w * self.grid.r ** 2)) @ vals.T
            out["radial.gram_max_dev"] = float(
                np.max(np.abs(gram - np.eye(len(vals)))))
        if self.norm_err is not None:
            out["density.norm_err"] = float(self.norm_err)
        return out


def install(tracer, capture, package="rwp"):
    """Wrap the layer modules' public functions and rebind every reference."""
    importlib.import_module(f"{package}.cli")
    hooks = capture.hooks()
    wrapped = {}
    names = []
    for short in LAYER_MODULES:
        mod = sys.modules.get(f"{package}.{short}")
        if mod is None:
            continue
        for name, obj in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            qual = f"{short}.{name}"
            wrapped[obj] = tracer.wrap(qual, obj, hooks.get(qual))
            names.append(qual)
    executor = tracer.executor_class()
    pool_cls = concurrent.futures.ThreadPoolExecutor
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package
                               or modname.startswith(package + ".")):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
            elif obj is pool_cls:
                setattr(mod, name, executor)
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrapped:
                        obj[key] = wrapped[value]
    return sorted(names)


def run(cli_argv, report_path, spans_path):
    tracer = Tracer()
    capture = Capture()
    t0 = time.perf_counter()
    names = install(tracer, capture)
    t_install = time.perf_counter() - t0
    status = sys.modules["rwp.cli"].main(cli_argv)
    spans = [s for s in tracer.spans if s.end is not None]
    report = {
        "status": status,
        "install_s": t_install,
        "wrapped": names,
        "stats": aggregate(spans),
        "counts": capture.counts,
        "health": capture.health(),
        "main": main_breakdown(spans),
        "span_count": len(spans),
        "span_cost_s": span_cost() * len(spans),
        "hook_errors": tracer.hook_errors,
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    index = {id(s): i for i, s in enumerate(spans)}
    with open(spans_path, "w") as fh:
        json.dump([{"name": s.name, "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)), "thread": s.thread}
                   for s in spans], fh)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    return run(cli_argv, args.report, args.spans)


if __name__ == "__main__":
    sys.exit(main())
