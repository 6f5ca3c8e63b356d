"""Command-line interface: subcommands, presets, config precedence, formats."""

import contextlib
import csv
import io
import math
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

import rwp
from rwp.cli import _FLAGS, build_parser, main, write_csv, write_pgm
from rwp.core import (ATOMIC_TIME_SECONDS, PhysicalParams, energy_table,
                      reduced_energy, time_scales)
from rwp.errors import RwpError
from rwp.observables import densities, observable_series
from rwp.packet import PacketSpec, build_packet
from rwp.radial import DEFAULT_GRID_POINTS, outer_radius, radial_table


def run_cli(args, **env):
    """Run the CLI in a fresh interpreter with extra environment variables."""
    src = str(Path(rwp.__file__).resolve().parents[1])
    full_env = dict(os.environ, **env)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=full_env,
                          capture_output=True, text=True, timeout=120)


# Per-value writers as the package had them before the table-driven ones:
# the byte reference for write_csv, write_pgm and the carpet CSV.
def ref_write_csv(path, header, columns):
    rows = np.column_stack(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\r\n")


def ref_write_pgm(path, pixels):
    height, width = pixels.shape
    with open(path, "w") as fh:
        fh.write(f"P2\n{width} {height}\n255\n")
        for row in pixels:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def ref_write_carpet_csv(path, r_axis, t_axis, rho):
    with open(path, "w", newline="") as fh:
        fh.write("t\\r," + ",".join("%.17g" % r for r in r_axis) + "\r\n")
        for t, row in zip(t_axis, rho):
            fh.write("%.17g" % t + ","
                     + ",".join("%.17g" % v for v in row) + "\r\n")


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, data


class TestEnergies:
    def test_basic_output(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["energies", "--Z", "1", "--l", "1",
                     "--n-min", "2", "--n-max", "4", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["n", "eps_plus_au", "eps_minus_au", "delta_au",
                          "omega_au"]
        assert data.shape == (3, 5)
        for row, nr in zip(data, (-0.125, -1.0 / 18.0, -0.03125)):
            assert row[1] == pytest.approx(nr, rel=1e-4)

    def test_missing_z_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["energies", "--out", str(tmp_path / "e.csv")])
        assert exc.value.code == 2

    def test_supercritical_is_domain_error(self, tmp_path, capsys):
        rc = main(["energies", "--Z", "138", "--out", str(tmp_path / "e.csv")])
        assert rc == 1
        assert "SupercriticalCharge" in capsys.readouterr().err

    def test_seventeen_digit_round_trip(self, tmp_path):
        out = tmp_path / "e.csv"
        main(["energies", "--Z", "92", "--n-min", "80", "--n-max", "80",
              "--out", str(out)])
        _, data = read_csv(out)
        assert data[0][1] == reduced_energy(92, 80, 1.5)  # lossless


class TestTimescales:
    def test_single_row_seconds(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["timescales", "--Z", "1", "--n-av", "80", "--out", str(out)])
        header, data = read_csv(out)
        assert header == ["n_av", "T_cl_s", "T_rev_s", "T_ls_s", "T_ls2_s"]
        assert data[0][1] == pytest.approx(7.78e-11, rel=0.01)

    def test_t_ls2_relation(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["timescales", "--Z", "92", "--scan", "20", "25",
              "--out", str(out)])
        _, data = read_csv(out)
        for row in data:
            assert row[4] == pytest.approx((2.0 / 3.0) * row[0] * row[3],
                                           rel=1e-15)

    def test_au_and_approx_columns(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["timescales", "--Z", "92", "--n-av", "80", "--au",
              "--with-approx", "--out", str(out)])
        header, data = read_csv(out)
        assert header[-1] == "T_ls_approx_au"
        p = PhysicalParams(Z=92, l=1)
        assert data[0][3] == pytest.approx(time_scales(p, 80).t_ls, rel=1e-15)


class TestObservables:
    def test_initial_row(self, tmp_path):
        out = tmp_path / "o.csv"
        main(["observables", "--Z", "92", "--a", "0.6", "--b", "0.8",
              "--samples", "11", "--t-max", "0.1", "--out", str(out)])
        header, data = read_csv(out)
        row = dict(zip(header, data[0]))
        assert row["asq"] == pytest.approx(1.0, abs=1e-12)
        assert row["slen"] == pytest.approx(1.0, abs=1e-12)
        assert row["N1"] == pytest.approx(0.36, abs=1e-12)
        assert row["N2"] == pytest.approx(0.64, abs=1e-12)

    def test_figure2_writes_two_files(self, tmp_path):
        out = tmp_path / "ac.csv"
        assert main(["observables", "--figure", "2", "--out", str(out)]) == 0
        assert (tmp_path / "ac_sigma1.csv").exists()
        assert (tmp_path / "ac_sigma2.csv").exists()

    def test_figure4_preset_expansion(self, tmp_path):
        out = tmp_path / "f4.csv"
        main(["observables", "--figure", "4", "--samples", "51",
              "--out", str(out)])
        header, data = read_csv(out)
        # time column runs to 35 in T_ls units
        assert data[-1][0] == pytest.approx(35.0, rel=1e-12)
        row = dict(zip(header, data[0]))
        assert row["sx"] == pytest.approx(1.0, abs=1e-9)  # a = b = 1/sqrt(2)

    def test_near_unit_spinor_renormalized(self, tmp_path):
        # |a|^2 + |b|^2 = 1 + 8e-10 passes the 1e-9 tolerance; the packet
        # divides it out, so the unit identities hold to rounding
        out = tmp_path / "o.csv"
        assert main(["observables", "--Z", "92", "--a", "0.6", "--b",
                     "0.8000000005", "--out", str(out)]) == 0
        header, data = read_csv(out)
        col = dict(zip(header, data.T))
        assert col["slen"].max() <= 1.0 + 1e-12
        assert abs(col["asq"][0] - 1.0) <= 1e-12

    def test_time_unit_seconds(self, tmp_path):
        out = tmp_path / "o.csv"
        main(["observables", "--Z", "92", "--t-unit", "s", "--t-max",
              str(5e-12), "--samples", "3", "--out", str(out)])
        _, data = read_csv(out)
        assert data[-1][0] == pytest.approx(5e-12, rel=1e-12)

    def test_time_unit_au(self, tmp_path):
        # the time column is the axis itself, and the observables are taken
        # at those atomic-unit times (N2 falls from 1 to 0.56 over them)
        out = tmp_path / "o.csv"
        assert main(["observables", "--Z", "92", "--t-unit", "au", "--t-max",
                     "1e4", "--samples", "5", "--out", str(out)]) == 0
        header, data = read_csv(out)
        t = np.linspace(0.0, 1e4, 5)
        assert np.array_equal(data[:, 0], t)
        params = PhysicalParams(Z=92, l=1)
        packet = build_packet(PacketSpec(n_av=80, sigma=2.0, a=0.0, b=1.0),
                              params.l)
        energies = energy_table(params, packet.n_min, packet.n_max)
        assert np.array_equal(data[:, header.index("N2")],
                              observable_series(packet, energies, t).N2)


class TestDensity:
    def test_spin_down_initial_rho1_zero(self, tmp_path):
        out = tmp_path / "d.csv"
        main(["density", "--Z", "92", "--a", "0", "--b", "1",
              "--times", "0", "--out", str(out)])
        header, data = read_csv(out)
        assert header == ["r", "rho1", "rho2", "rho"]
        assert np.all(data[:, 1] == 0.0)

    def test_density_normalized(self, tmp_path):
        out = tmp_path / "d.csv"
        main(["density", "--Z", "92", "--times", "0.37", "--out", str(out)])
        _, data = read_csv(out)
        r, rho = data[:, 0], data[:, 3]
        assert simpson(rho, x=r) == pytest.approx(1.0, abs=1e-6)

    def test_rydberg_density_normalized(self, tmp_path):
        # n 158-198 at Z = 92: the range where the uniform grid broke the
        # Gram gate; r steps are non-uniform, so integrate on the r column
        out = tmp_path / "d.csv"
        a = b = repr(1.0 / math.sqrt(2.0))
        assert main(["density", "--Z", "92", "--n-av", "178", "--sigma", "4",
                     "--a", a, "--b", b, "--t-unit", "tls",
                     "--times", "0.25", "13", "--out", str(out)]) == 0
        for name in ("d_t0.csv", "d_t1.csv"):
            _, data = read_csv(tmp_path / name)
            r, rho = data[:, 0], data[:, 3]
            assert len(r) == DEFAULT_GRID_POINTS
            assert r[0] == 0.0 and np.all(np.diff(r) > 0)
            assert simpson(rho, x=r) == pytest.approx(1.0, abs=1e-6)

    def test_negative_time_accepted(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["density", "--Z", "92", "--times", "-0.5",
                     "--out", str(out)]) == 0

    def test_one_file_per_time(self, tmp_path):
        out = tmp_path / "d.csv"
        main(["density", "--Z", "92", "--times", "0", "0.5", "1.0",
              "--grid-points", "1001", "--out", str(out)])
        for i in range(3):
            assert (tmp_path / f"d_t{i}.csv").exists()


class TestCarpet:
    def test_pgm_header_small_grid(self, tmp_path):
        out = tmp_path / "c.pgm"
        main(["carpet", "--Z", "92", "--samples", "10",
              "--grid-points", "501", "--out", str(out)])
        text = (tmp_path / "c_rho1.pgm").read_text()
        assert text.startswith("P2\n501 10\n255\n")

    def test_joint_normalization_and_black_row(self, tmp_path):
        out = tmp_path / "c.pgm"
        main(["carpet", "--figure", "6", "--samples", "21",
              "--grid-points", "501", "--out", str(out)])
        imgs = []
        for name in ("c_rho1.pgm", "c_rho2.pgm"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "P2"
            width, height = map(int, lines[1].split())
            pixels = np.array([[int(v) for v in row.split()]
                               for row in lines[3:]])
            assert pixels.shape == (height, width)
            imgs.append(pixels)
        # rho1 vanishes at t=0 for a=0, b=1
        assert np.all(imgs[0][0] == 0)
        assert max(imgs[0].max(), imgs[1].max()) == 255

    def test_csv_grid_axes(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["carpet", "--Z", "92", "--samples", "5",
              "--grid-points", "601", "--t-max", "0.5", "--out", str(out)])
        with open(tmp_path / "c_rho1.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "t\\r"
        assert len(rows) == 6
        assert len(rows[0]) == 602
        assert float(rows[-1][0]) == pytest.approx(0.5, rel=1e-12)

    def test_r_axis_uniform_to_outer_radius(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["carpet", "--Z", "92", "--samples", "2",
                     "--out", str(out)]) == 0
        with open(tmp_path / "c_rho1.csv", newline="") as fh:
            header = next(csv.reader(fh))
        r_max = outer_radius(PhysicalParams(Z=92, l=1), 90)
        assert np.array_equal([float(v) for v in header[1:]],
                              np.linspace(0.0, r_max, DEFAULT_GRID_POINTS))


class TestConfigPrecedence:
    def test_three_layers(self, tmp_path):
        # default sigma=2 < config sigma=3 < flag sigma=4; the energies
        # default n range (n_av +/- 5 sigma) exposes which layer won
        cfg = tmp_path / "run.cfg"
        cfg.write_text("Z = 92\nsigma = 3\n# comment\nn_av = 40\n")
        out1 = tmp_path / "a.csv"
        main(["energies", "--config", str(cfg), "--out", str(out1)])
        _, data1 = read_csv(out1)
        assert data1[0][0] == 25 and data1[-1][0] == 55  # sigma=3 from file
        out2 = tmp_path / "b.csv"
        main(["energies", "--config", str(cfg), "--sigma", "4",
              "--out", str(out2)])
        _, data2 = read_csv(out2)
        assert data2[0][0] == 20 and data2[-1][0] == 60  # flag wins

    def test_config_supplies_z(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("Z = 1\n")
        out = tmp_path / "e.csv"
        assert main(["energies", "--config", str(cfg), "--n-min", "2",
                     "--n-max", "3", "--out", str(out)]) == 0

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("zz = 1\n")
        assert main(["energies", "--config", str(cfg)]) == 1

    def test_figure_preset_overridable(self, tmp_path):
        out = tmp_path / "f.csv"
        main(["observables", "--figure", "4", "--samples", "5",
              "--t-max", "1.0", "--out", str(out)])
        _, data = read_csv(out)
        assert len(data) == 5
        assert data[-1][0] == pytest.approx(1.0, rel=1e-12)


# the flags every command takes, and per command those of the settings it
# reads
EVERY = {"config", "figure", "Z", "l", "out"}
PACKET = {"n-av", "sigma", "a", "b", "n-min", "n-max"}
OFFERED = {
    "energies": {"n-av", "sigma", "n-min", "n-max"},
    "timescales": {"n-av", "scan", "au", "with-approx"},
    "observables": PACKET | {"t-max", "t-unit", "samples"},
    "density": PACKET | {"t-unit", "grid-points", "times"},
    "carpet": PACKET | {"t-max", "t-unit", "samples", "grid-points", "format"},
}


def offered_flags(command):
    """The flags the command's subparser accepts, --help aside."""
    subs = build_parser()._subparsers._group_actions[0].choices
    return {flag for action in subs[command]._actions
            for flag in action.option_strings} - {"-h", "--help"}


class TestFlagSets:
    @pytest.mark.parametrize("command", OFFERED)
    def test_offers_only_the_settings_it_reads(self, command):
        assert offered_flags(command) == {
            f"--{flag}" for flag in EVERY | OFFERED[command]}

    def test_every_flag_is_offered(self):
        offered = set().union(*map(offered_flags, OFFERED))
        assert {"--" + key.replace("_", "-") for key in _FLAGS} <= offered

    @pytest.mark.parametrize("args", [
        ["timescales", "--Z", "92", "--t-unit", "au"],
        ["energies", "--Z", "92", "--format", "pgm"],
        ["observables", "--Z", "92", "--grid-points", "501"],
        ["density", "--Z", "92", "--samples", "3"],
        # a prefix of a flag the command offers is not that flag
        ["timescales", "--Z", "92", "--a"],
        ["density", "--Z", "92", "--s", "3"],
        ["timescales", "--Z", "92", "--with"],
    ], ids=["timescales-t-unit", "energies-format", "observables-grid-points",
            "density-samples", "timescales-a-prefix", "density-s-prefix",
            "timescales-with-prefix"])
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def readme_cli_examples():
    """argv of each ``rwp`` line in the README's "CLI usage" code block,
    continuation lines joined."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## CLI usage", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("rwp ")]


class TestReadme:
    def test_cli_examples_run(self, tmp_path, capsys):
        examples = readme_cli_examples()
        assert examples
        for i, argv in enumerate(examples):
            out = argv.index("--out") + 1
            (tmp_path / str(i)).mkdir()
            argv[out] = str(tmp_path / str(i) / argv[out])
            assert main(argv) == 0, argv
            written = capsys.readouterr().out.split()
            assert written and all(map(os.path.exists, written))


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        args = ["observables", "--Z", "92", "--samples", "64", "--t-max", "1"]
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("args, files", [
        (["density", "--Z", "92", "--n-av", "80", "--a", "0.6", "--b", "0.8",
          "--times", "0.5"], ["out.csv"]),
        (["carpet", "--Z", "92", "--n-av", "80", "--a", "0.6", "--b", "0.8",
          "--samples", "9", "--grid-points", "4001", "--format", "csv"],
         ["out_rho1.csv", "out_rho2.csv"]),
        (["observables", "--Z", "92", "--a", "0.6", "--b", "0.8",
          "--t-max", "35", "--t-unit", "tls", "--samples", "7001"],
         ["out.csv"]),
    ])
    def test_byte_identical_across_blas_threads(self, tmp_path, args, files):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            proc = run_cli(["-m", "rwp.cli", *args, "--out", str(out / "out.csv")],
                           OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes() for name in files])
        assert outputs[0] == outputs[1]


class TestStartup:
    def test_cli_import_skips_scipy_signal(self):
        proc = run_cli(["-c", "import sys, rwp.cli; "
                              "print('scipy.signal' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


AWKWARD = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.nan, np.inf,
                    -np.inf, 0.1, 1.0 / 3.0, 2.0 ** 53 + 2.0, 1e-300, 123456789.0])


class TestWriters:
    @pytest.mark.parametrize("columns", [
        [AWKWARD],
        [AWKWARD, AWKWARD[::-1], np.roll(AWKWARD, 3)],
        [np.arange(len(AWKWARD)), AWKWARD],
        [np.arange(5), np.arange(5) * 7],
        [np.empty(0), np.empty(0)],
    ], ids=["one-column", "three-columns", "int-and-float", "all-int", "no-rows"])
    def test_csv_matches_reference(self, tmp_path, columns):
        header = [f"c{i}" for i in range(len(columns))]
        write_csv(tmp_path / "new.csv", header, columns)
        ref_write_csv(tmp_path / "ref.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("pixels", [
        np.random.default_rng(7).permutation(256).astype(float)[None, :],
        np.arange(256).reshape(16, 16),
        np.array([[-0.0, 0.0, 255.0], [1.0, 254.0, 10.0]]),
        np.zeros((3, 0)),
    ], ids=["all-256-one-row", "int-dtype", "signed-zero", "zero-width"])
    def test_pgm_matches_reference(self, tmp_path, pixels):
        write_pgm(tmp_path / "new.pgm", pixels)
        ref_write_pgm(tmp_path / "ref.pgm", pixels)
        assert (tmp_path / "new.pgm").read_bytes() == \
            (tmp_path / "ref.pgm").read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, -0.5, 256.0, 254.5])
    def test_pgm_bad_pixel_writes_nothing(self, tmp_path, bad):
        pixels = np.full((4, 5), 17.0)
        pixels[3, 2] = bad
        path = tmp_path / "bad.pgm"
        with pytest.raises(RwpError, match="0..255"):
            write_pgm(path, pixels)
        assert not path.exists()

    def test_carpet_matches_reference_writers(self, tmp_path):
        args = ["carpet", "--Z", "92", "--a", "0.6", "--b", "0.8",
                "--samples", "9", "--grid-points", "1001", "--t-max", "1.5"]
        for fmt in ("pgm", "csv"):
            proc = run_cli(["-m", "rwp.cli", *args, "--format", fmt,
                            "--out", str(tmp_path / f"c.{fmt}")])
            assert proc.returncode == 0, proc.stderr
        # the same carpet built from the library, written the per-value way
        params = PhysicalParams(Z=92, l=1)
        packet = build_packet(PacketSpec(n_av=80, sigma=2.0, a=0.6, b=0.8),
                              params.l)
        energies = energy_table(params, packet.n_min, packet.n_max)
        r = np.linspace(0.0, outer_radius(params, packet.n_max), 1001)
        table = radial_table(params, packet.n_min, packet.n_max, r)
        t_cl = time_scales(params, 80).t_cl
        t_axis = np.linspace(0.0, 1.5 * t_cl, 9)
        rho1, rho2 = densities(packet, energies, table, t_axis)
        rho_max = max(rho1.max(), rho2.max())
        for name, rho in (("rho1", rho1), ("rho2", rho2)):
            ref_write_pgm(tmp_path / f"ref_{name}.pgm",
                          np.rint(255.0 * rho / rho_max))
            ref_write_carpet_csv(tmp_path / f"ref_{name}.csv", r,
                                 t_axis / t_cl, rho)
            for ext in ("pgm", "csv"):
                assert (tmp_path / f"c_{name}.{ext}").read_bytes() == \
                    (tmp_path / f"ref_{name}.{ext}").read_bytes()


class TestBadInput:
    """Bad settings and unwritable outputs: exit 1, one stderr line, no file."""

    @pytest.mark.parametrize("args, error", [
        (["observables", "--Z", "92", "--t-max", "inf"], "RwpError"),
        (["observables", "--Z", "92", "--sigma", "nan"], "RwpError"),
        (["observables", "--Z", "92", "--a", "nan"], "RwpError"),
        (["observables", "--Z", "92", "--samples", "-3"], "RwpError"),
        (["carpet", "--Z", "92", "--samples", "0"], "RwpError"),
        (["carpet", "--figure", "6", "--t-max", "inf", "--samples", "3",
          "--grid-points", "501"], "RwpError"),
        (["density", "--Z", "92", "--times", "0", "nan"], "RwpError"),
        (["density", "--Z", "92", "--grid-points", "0"], "RwpError"),
        (["density", "--Z", "92", "--grid-points", "1"], "RwpError"),
        (["density", "--Z", "92", "--grid-points", "3"], "RwpError"),
        (["density", "--Z", "92", "--grid-points", "500"], "RwpError"),
        (["carpet", "--Z", "92", "--samples", "3", "--grid-points", "0"],
         "RwpError"),
        (["carpet", "--Z", "92", "--samples", "3", "--grid-points", "1"],
         "RwpError"),
        (["carpet", "--Z", "92", "--samples", "3", "--grid-points", "3"],
         "RwpError"),
        (["carpet", "--Z", "92", "--samples", "3", "--grid-points", "500"],
         "RwpError"),
        # finite in the chosen unit, infinite once scaled to atomic units
        (["observables", "--Z", "92", "--t-max", "1e308", "--samples", "3"],
         "RwpError"),
        (["density", "--Z", "92", "--times", "0", "1e308"], "RwpError"),
        (["carpet", "--Z", "92", "--t-max", "1e308", "--samples", "3",
          "--grid-points", "501"], "RwpError"),
        # a time axis that does not ascend
        (["carpet", "--Z", "92", "--t-max", "0", "--samples", "3",
          "--grid-points", "501"], "InvalidRange"),
        (["carpet", "--Z", "92", "--t-max", "-1", "--samples", "3",
          "--grid-points", "501"], "InvalidRange"),
        # |a|^2 overflows
        (["observables", "--Z", "92", "--a", "1e200", "--b", "1",
          "--samples", "3"], "NonNormalizedSpinor"),
        (["timescales", "--Z", "92", "--scan", "150", "20"], "RwpError"),
        # t finite in atomic units, the phase eps t is not (t_cl < 1 au)
        (["observables", "--Z", "92", "--n-av", "2", "--t-max", "1e308",
          "--samples", "3"], "RwpError"),
        (["density", "--Z", "92", "--n-av", "2", "--times", "1e308",
          "--grid-points", "501"], "RwpError"),
        # n_av + 5 sigma above N_LIMIT, then not even finite
        (["energies", "--Z", "92", "--sigma", "1e300"], "InvalidRange"),
        (["density", "--Z", "92", "--sigma", "1e308"], "InvalidRange"),
        # sigma not > 0, with or without a packet to build
        (["observables", "--Z", "92", "--sigma", "-2", "--samples", "3"],
         "InvalidRange: sigma must be > 0"),
        (["density", "--Z", "92", "--sigma", "-2", "--grid-points", "501"],
         "InvalidRange: sigma must be > 0"),
        (["energies", "--Z", "92", "--sigma", "0"],
         "InvalidRange: sigma must be > 0"),
        # Z * alpha would overflow a float; n_av and the scan above N_LIMIT
        (["energies", "--Z", "1" + "0" * 400], "SupercriticalCharge"),
        (["timescales", "--Z", "92", "--n-av", "1" + "0" * 110],
         "InvalidRange"),
        (["observables", "--Z", "92", "--n-av", "1" + "0" * 110,
          "--samples", "3"], "InvalidRange"),
        (["timescales", "--Z", "92", "--scan", "2", "1001"], "InvalidRange"),
        # more float64 values than one numpy array can hold
        (["observables", "--Z", "92", "--samples", "1" + "0" * 400],
         "RwpError"),
        (["carpet", "--Z", "92", "--samples", "3",
          "--grid-points", "1" * 401], "RwpError"),
        # 711 PiB, beyond the user address space of a 64-bit kernel (at most
        # 2^57 bytes): the allocation fails at once and touches no memory
        (["observables", "--Z", "92", "--samples", "100000000000000000"],
         "MemoryError"),
        (["density", "--Z", "92", "--grid-points", "100000000000000001"],
         "MemoryError"),
        (["carpet", "--Z", "92", "--samples", "3",
          "--grid-points", "100000000000000001"], "MemoryError"),
    ], ids=["t-max-inf", "sigma-nan", "a-nan", "samples-negative",
            "carpet-samples-zero", "carpet-t-max-inf", "times-nan",
            "density-grid-points-0", "density-grid-points-1",
            "density-grid-points-3", "density-grid-points-500",
            "carpet-grid-points-0", "carpet-grid-points-1",
            "carpet-grid-points-3", "carpet-grid-points-500",
            "t-max-overflows-au", "times-overflow-au",
            "carpet-t-max-overflows-au", "carpet-t-max-zero",
            "carpet-t-max-negative", "a-square-overflows", "scan-reversed",
            "phase-overflows", "density-phase-overflows", "sigma-1e300",
            "sigma-1e308", "sigma-negative", "density-sigma-negative",
            "energies-sigma-zero", "z-huge", "n-av-huge",
            "observables-n-av-huge",
            "scan-above-n-limit", "samples-huge", "carpet-grid-points-huge",
            "samples-unallocatable",
            "density-grid-points-unallocatable",
            "carpet-grid-points-unallocatable"])
    def test_rejected_before_writing(self, tmp_path, capsys, args, error):
        assert main(args + ["--out", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        kind, _, message = error.partition(": ")  # the type, then the message
        assert err.startswith(f"rwp: error: {kind}: {message}")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_config_file_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("Z = 92\nt_max = inf\n")
        assert main(["observables", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == 1
        assert "t_max must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_config_file_unknown_figure_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("figure = 9\n")
        with pytest.raises(SystemExit) as exc:
            main(["observables", "--config", str(cfg),
                  "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert "unknown figure preset 9" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command, line, message", [
        ("carpet", "format = xyz", "format must be in"),
        ("energies", "t_unit = xyz", "t_unit must be in"),
        ("observables", "n_av", "expected 'key = value'"),
        ("observables", "n_av = 8.5", "bad value for n_av"),
        ("energies", "\xff = 1", "not UTF-8 text"),
    ], ids=["format", "t-unit", "no-equals", "int-key-float-value",
            "not-utf-8"])
    def test_config_file_choice_rejected(self, tmp_path, capsys, command,
                                         line, message):
        # the flags' choices= and types reject these values, a line without
        # '=' sets nothing, and a byte that is not UTF-8 has no meaning; a
        # config file must reject each.  Latin-1 writes each character of
        # these lines as one byte, so '\xff' is the byte 0xff.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"Z = 92\nsamples = 3\ngrid_points = 501\n{line}\n",
                       encoding="latin-1")
        out = tmp_path / "out"
        out.mkdir()
        assert main([command, "--config", str(cfg),
                     "--out", str(out / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("rwp: error: RwpError: ") and message in err
        assert len(err.splitlines()) == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["observables", "--Z", "92", "--samples", "3"],
        ["carpet", "--Z", "92", "--samples", "3", "--grid-points", "501"],
    ], ids=["observables", "carpet"])
    def test_unwritable_out_is_domain_error(self, tmp_path, capsys, args):
        out = tmp_path / "missing" / "out.pgm"
        assert main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("rwp: error: FileNotFoundError: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("bounds", [[], ["--n-min", "78", "--n-max", "82"]],
                             ids=["default-bounds", "explicit-bounds"])
    @pytest.mark.parametrize("command, size", [
        ("observables", ["--samples", "3"]),
        ("density", ["--grid-points", "501"]),
    ], ids=["observables", "density"])
    def test_tiny_sigma_is_one_n_packet(self, tmp_path, command, size, bounds):
        # sigma^2 underflows to 0; all weight sits on n = n_av, and with
        # explicit bounds ((n - n_av)/(2 sigma))^2 overflows elsewhere
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--Z", "92", "--sigma", "1e-200", *bounds,
                         *size, "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert np.all(np.isfinite(data))

    def test_cli_subprocess_has_no_traceback(self, tmp_path):
        proc = run_cli(["-m", "rwp.cli", "carpet", "--Z", "92", "--samples", "0",
                        "--out", str(tmp_path / "c.pgm")])
        assert proc.returncode == 1
        assert proc.stderr == "rwp: error: RwpError: samples must be >= 1, got 0\n"


USUAL = {"Z": ["1", "30", "92", "137"], "l": ["1", "2", "5"],
         "n-av": ["2", "10", "80", "200"], "sigma": ["0.3", "1", "2.5", "10"],
         "t": ["0.5", "-3", "1e5"], "samples": ["1", "2", "5"]}
HALF = repr(1.0 / math.sqrt(2.0))
SPINORS = [("0", "1"), ("0.6", "0.8"), ("-0.6", "0.8"), (HALF, HALF),
           ("1", "0"), ("1e-200", "1")]
# text the int flags must reject through argparse, float edge cases, and an
# int too large for a float, which the float flags read as inf
EXTREME = ["0", "-1", "nan", "inf", "-inf", "1e-200", "1e308", "1" + "0" * 400]


class TestProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(command=st.sampled_from(list(OFFERED)),
           usual=st.fixed_dictionaries(
               {key: st.sampled_from(values) for key, values in USUAL.items()}),
           spinor=st.sampled_from(SPINORS), data=st.data())
    def test_any_input_exits_cleanly(self, command, usual, spinor, data):
        """Each command given only the flags it reads, up to two of them at
        an extreme value: exit 0 with finite output, exit 1 with one line
        and no file, or exit 2 from argparse; never a warning or a
        traceback."""
        a, b = spinor
        flag = {"t": "times" if command == "density" else "t-max"}
        offered = EVERY | OFFERED[command]
        flags = {flag.get(key, key): value
                 for key, value in {**usual, "a": a, "b": b}.items()
                 if flag.get(key, key) in offered}
        flags.update(data.draw(st.dictionaries(
            st.sampled_from(list(flags)), st.sampled_from(EXTREME), max_size=2)))
        if "grid-points" in offered:
            flags["grid-points"] = "501"
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command, *(f"--{key}={value}" for key, value in flags.items()),
                    f"--out={tmp}/out.csv"]
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert [str(w.message) for w in caught] == []
            files = sorted(Path(tmp).iterdir())
            event(f"exit {code} {command}")
            if code != 0:
                assert files == []
                if code == 1:
                    assert err.getvalue().startswith("rwp: error: ")
                    assert len(err.getvalue().splitlines()) == 1
                else:
                    assert code == 2
                return
            assert files
            for path in files:
                header, data = read_csv(path)
                assert np.all(np.isfinite(data))
            if command == "observables":
                row = dict(zip(header, data.T))
                assert np.all(np.abs(row["N1"] + row["N2"] - 1.0) <= 1e-12)
                assert np.all(row["slen"] <= 1.0 + 1e-12)
