"""The benchmark's output checks accept real CLI output and reject corrupted
copies of it; the tracer's self time and span parents are right; and
BENCHMARK.json names exactly the metrics run.py reports."""

import json
import math
import os
import threading

import numpy as np
import pytest

import run
from checks import (CHECKS, check_carpet_pgm, check_rydberg_density,
                    check_spin_series, read_csv, read_pgm, sample_rows)
from trace_job import Span, Tracer, aggregate
from workloads import WORKLOADS, Job

import rwp.cli

SEED = 7
A = B = 1.0 / math.sqrt(2.0)


def _run_cli(tmp_path, capsys, argv):
    assert rwp.cli.main(argv) == 0
    return [line for line in capsys.readouterr().out.splitlines() if line]


def _write_csv(path, header, data):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in data:
            fh.write(",".join("%.17g" % v for v in row) + "\r\n")


def _write_pgm(path, pixels, height=None):
    with open(path, "w") as fh:
        fh.write(f"P2\n{pixels.shape[1]} {height or pixels.shape[0]}\n255\n")
        for row in pixels:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


@pytest.fixture
def spin_case(tmp_path, capsys):
    params = {"Z": 92, "l": 1, "n_av": 80, "sigma": 2.0, "a": A, "b": B,
              "t_unit": "tls", "t_max": 3.0, "samples": 301}
    job = Job((), "obs.csv", ("obs.csv",), params)
    paths = _run_cli(tmp_path, capsys, [
        "observables", "--Z", "92", "--n-av", "80", "--sigma", "2",
        "--a", repr(A), "--b", repr(B), "--t-unit", "tls", "--t-max", "3",
        "--samples", "301", "--out", str(tmp_path / "obs.csv")])
    return job, paths


@pytest.fixture
def density_case(tmp_path, capsys):
    job = Job((), "rho.csv", ("rho_t0.csv", "rho_t1.csv"), {})
    paths = _run_cli(tmp_path, capsys, [
        "density", "--Z", "92", "--a", repr(A), "--b", repr(B),
        "--t-unit", "tcl", "--times", "0", "0.4", "--out", str(tmp_path / "rho.csv")])
    return job, paths


@pytest.fixture
def carpet_case(tmp_path, capsys):
    job = Job((), "carpet.pgm", ("carpet_rho1.pgm", "carpet_rho2.pgm"),
              {"samples": 11})
    paths = _run_cli(tmp_path, capsys, [
        "carpet", "--Z", "92", "--a", repr(A), "--b", repr(B), "--t-unit", "tls",
        "--t-max", "1", "--samples", "11", "--grid-points", "4001",
        "--format", "pgm", "--out", str(tmp_path / "carpet.pgm")])
    return job, paths


def test_spin_series_accepts_cli_output(spin_case):
    job, paths = spin_case
    assert check_spin_series(paths, job, SEED) == []


@pytest.mark.parametrize("column, delta, message", [
    ("sx", 1e-6, "amplitude oracle"),
    ("N2", 1e-6, "N1 + N2"),
    ("slen", 1e-3, "Bloch length"),
])
def test_spin_series_rejects_corruption(spin_case, column, delta, message):
    job, paths = spin_case
    header, data = read_csv(paths[0])
    row = sample_rows(SEED, job.params["samples"])[5]
    col = header.index(column)
    if column == "slen":
        data[row, col] = 1.0 + delta
    else:
        data[row, col] += delta
    _write_csv(paths[0], header, data)
    problems = check_spin_series(paths, job, SEED)
    assert any(message in p for p in problems), problems


def test_density_accepts_cli_output(density_case):
    job, paths = density_case
    assert check_rydberg_density(paths, job, SEED) == []


@pytest.mark.parametrize("corrupt, message", [
    (lambda d: d.__setitem__((100, 3), np.nan), "non-finite"),
    (lambda d: d.__setitem__((5000, 3), d[5000, 3] * 1.001 + 1e-3), "rho != rho1 + rho2"),
    (lambda d: d.__setitem__((slice(None), slice(1, 4)), d[:, 1:4] * (1 + 1e-5)),
     "integral of rho"),
])
def test_density_rejects_corruption(density_case, corrupt, message):
    job, paths = density_case
    header, data = read_csv(paths[1])
    corrupt(data)
    _write_csv(paths[1], header, data)
    problems = check_rydberg_density(paths, job, SEED)
    assert any(message in p for p in problems), problems


def test_carpet_accepts_cli_output(carpet_case):
    job, paths = carpet_case
    assert check_carpet_pgm(paths, job, SEED) == []


def _dim_row(pixels):
    pixels[4] //= 2


@pytest.mark.parametrize("corrupt, height, message", [
    (None, 12, "pixels for a"),
    (lambda p: p.__setitem__((3, 7), 300), None, "outside 0..255"),
    (_dim_row, None, "row mass not constant"),
])
def test_carpet_rejects_corruption(carpet_case, corrupt, height, message):
    job, paths = carpet_case
    _, pixels = read_pgm(paths[1])
    if corrupt:
        corrupt(pixels)
    _write_pgm(paths[1], pixels, height)
    problems = check_carpet_pgm(paths, job, SEED)
    assert any(message in p for p in problems), problems


def test_carpet_rejects_lost_peak(carpet_case):
    job, paths = carpet_case
    for path in paths:
        _, pixels = read_pgm(path)
        pixels[pixels == 255] = 254
        _write_pgm(path, pixels)
    assert any("joint peak" in p for p in check_carpet_pgm(paths, job, SEED))


def test_self_time_subtracts_union_of_overlapping_children():
    parent = Span("p", 0.0, None, 1)
    parent.end = 10.0
    kids = []
    for start, end, thread in ((1.0, 5.0, 2), (3.0, 7.0, 3), (9.0, 12.0, 2)):
        kid = Span("k", start, parent, thread)
        kid.end = end
        kids.append(kid)
    stats = aggregate([parent] + kids)
    assert stats["p"]["self_s"] == pytest.approx(10.0 - 7.0)
    assert stats["k"] == {"s": 11.0, "self_s": 11.0, "calls": 3}


def test_pool_span_parent_is_submitting_span():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: threading.get_ident())

    def fan_out():
        with tracer.executor_class()(max_workers=2) as pool:
            return list(pool.map(lambda _: leaf(), range(4)))

    root = tracer.wrap("root", fan_out)
    root()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    assert len(by_name["leaf"]) == 4
    assert all(s.parent is by_name["root"][0] for s in by_name["leaf"])
    assert all(s.thread != by_name["root"][0].thread for s in by_name["leaf"])


def test_benchmark_json_matches_harness():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert set(CHECKS) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in run.PER_LAYER]


def test_importtime_parser(tmp_path):
    log = tmp_path / "it.txt"
    log.write_text(
        "import time: self [us] | cumulative | imported package\n"
        "import time:       713 |    1330899 |       scipy.signal\n"
        "import time:       633 |    1547228 |   rwp\n"
        "import time:      6528 |    1449156 | rwp.cli\n")
    found = run.parse_importtime(str(log))
    assert found == {"rwp": pytest.approx(1.449156), "scipy.signal": pytest.approx(1.330899)}
