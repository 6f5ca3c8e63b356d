"""Write tests/golden/figures.json, the pinned output of figures 1-6 and of
the README's CLI examples.

    PYTHONPATH=src python tests/make_golden.py

Each job runs through its own command, in process, into a temporary
directory.  For every file it writes, the JSON holds the header and the row
and column counts.  A CSV also holds, per column, the values at about 16
fixed rows, the minimum, the maximum and the ``math.fsum`` (floats as
``repr``, which reads back to the same double).  The files that are the same
at every numpy SIMD level (those of ``energies`` and ``timescales``, and the
PGM images) also hold a SHA-256.  ``test_golden.py`` compares each file
with them.  A change that regenerates the file lists in CHANGES.md every
file that moved, and by how much.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from conftest import readme_cli_examples
from rwp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "figures.json"
FIXED_ROWS = 16
# the outputs that no numpy SIMD level changes
HASHED_COMMANDS = ("energies", "timescales")


def jobs() -> dict:
    """Job name -> argv, with ``--out`` a bare file name."""
    figures = {1: "density", 2: "observables", 3: "timescales",
               4: "observables", 5: "density", 6: "carpet"}
    ext = {6: "pgm"}
    named = {f"fig{k}": [command, "--figure", str(k),
                         "--out", f"fig{k}.{ext.get(k, 'csv')}"]
             for k, command in figures.items()}
    named.update((f"readme{i}", argv)
                 for i, argv in enumerate(readme_cli_examples()))
    return named


def run_job(argv: list, directory: Path) -> list:
    """Run one job with its output in ``directory``; the paths written."""
    argv = list(argv)
    out = argv.index("--out") + 1
    argv[out] = str(directory / argv[out])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return [Path(line) for line in stdout.getvalue().split()]


def summarize(path: Path, command: str) -> dict:
    """The golden record of one output file."""
    data = path.read_bytes()
    if path.suffix == ".pgm":
        magic, size, depth = data.split(b"\n", 3)[:3]
        width, height = map(int, size.split())
        return {"header": [magic.decode(), size.decode(), depth.decode()],
                "rows": height, "columns": width,
                "sha256": hashlib.sha256(data).hexdigest()}
    header, body = data.decode().split("\r\n", 1)
    values = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    rows, columns = values.shape
    at = np.unique(np.linspace(0, rows - 1, FIXED_ROWS).round().astype(int))
    record = {"header": header.split(","), "rows": rows, "columns": columns,
              "at": at.tolist(),
              "values": [values[at, j].tolist() for j in range(columns)],
              "min": values.min(axis=0).tolist(),
              "max": values.max(axis=0).tolist(),
              "fsum": [math.fsum(values[:, j]) for j in range(columns)]}
    if command in HASHED_COMMANDS:
        record["sha256"] = hashlib.sha256(data).hexdigest()
    return record


def golden() -> dict:
    """Job name -> {file name -> record}, from the code as it stands."""
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in jobs().items():
            directory = Path(tmp) / name
            directory.mkdir()
            result[name] = {path.name: summarize(path, argv[0])
                            for path in run_job(argv, directory)}
    return result


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden(), indent=1) + "\n")
    print(GOLDEN, file=sys.stderr)
