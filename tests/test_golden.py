"""Figures 1-6 and the README's CLI examples against their pinned output,
tests/golden/figures.json (written by tests/make_golden.py).

A value may move by 1e-11 of its column's peak, far above the rounding that
differs between numpy's SIMD levels (2.4e-15 of the peak) and far below the
change of any setting; a column's fsum may move by that much per row.
"""

import json

import pytest

from make_golden import GOLDEN, jobs, run_job, summarize

REL = 1e-11
PINNED = json.loads(GOLDEN.read_text())


def test_every_job_is_pinned():
    assert sorted(PINNED) == sorted(jobs())


@pytest.mark.parametrize("name", sorted(jobs()))
def test_output_matches_golden(name, tmp_path):
    argv = jobs()[name]
    written = run_job(argv, tmp_path)
    assert sorted(path.name for path in written) == sorted(PINNED[name])
    for path in written:
        got, want = summarize(path, argv[0]), PINNED[name][path.name]
        where = f"{name}/{path.name}"
        for key in ("header", "rows", "columns", "at", "sha256"):
            assert got.get(key) == want.get(key), (where, key)
        for j, column in enumerate(want.get("values", [])):
            peak = max(abs(want["min"][j]), abs(want["max"][j]))
            tol = REL * peak
            label = (where, want["header"][j])
            assert got["values"][j] == pytest.approx(column, rel=0, abs=tol), label
            assert got["min"][j] == pytest.approx(want["min"][j], rel=0, abs=tol), label
            assert got["max"][j] == pytest.approx(want["max"][j], rel=0, abs=tol), label
            assert got["fsum"][j] == pytest.approx(
                want["fsum"][j], rel=0, abs=tol * want["rows"]), label
