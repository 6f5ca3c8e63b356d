"""Command-line interface: subcommands, presets, config precedence, formats."""

import ast
import contextlib
import csv
import ctypes
import gc
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

import rwp
from conftest import readme_block
from rwp.cli import (_FLAGS, _g17_digits, build_parser, main, write_csv,
                     write_pgm)
from rwp.core import (ATOMIC_TIME_SECONDS, PhysicalParams, energy_table,
                      reduced_energy, time_scales)
from rwp.errors import RwpError
from rwp.observables import densities, observable_series
from rwp.packet import PacketSpec, build_packet
from rwp.radial import (_BLOCK_ELEMENTS, DEFAULT_GRID_POINTS, outer_radius,
                        radial_table)


def run_cli(args, **env):
    """Run the CLI in a fresh interpreter with extra environment variables;
    a variable given as None is removed from the inherited environment.  A
    PYTHONPATH given goes first, before the package and the inherited path."""
    src = str(Path(rwp.__file__).resolve().parents[1])
    full_env = {key: value for key, value in dict(os.environ, **env).items()
                if value is not None}
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [env.get("PYTHONPATH"), src,
                      os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=full_env,
                          capture_output=True, text=True, timeout=120)


# what the installed rwp script runs, with the command line after it
CONSOLE_SCRIPT = ["-c", "import sys; from rwp.__main__ import main; "
                        "sys.exit(main())"]


def fake_package(root, name, body):
    """A directory that holds a package ``name`` whose __init__ is body;
    put first on PYTHONPATH, it shadows the installed package."""
    (root / name).mkdir(parents=True)
    (root / name / "__init__.py").write_text(body + "\n")
    return str(root)


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


def simd_targets():
    """numpy's dispatch targets above its baseline that this CPU runs."""
    umath = (np._core if hasattr(np, "_core") else np.core)._multiarray_umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


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

    @pytest.mark.parametrize("args, rows", [
        (["--scan", "50", "50"], [50.0]),
        (["--n-av", "1000"], [1000.0]),
    ], ids=["scan-of-one", "n-av-at-n-limit"])
    def test_bounds_are_inclusive(self, tmp_path, args, rows):
        out = tmp_path / "t.csv"
        assert main(["timescales", "--Z", "92", *args, "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert data[:, 0].tolist() == rows

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
        assert len(data) == 501  # the default samples
        col = dict(zip(header, data.T))
        assert col["slen"].max() <= 1.0 + 1e-12
        assert abs(col["asq"][0] - 1.0) <= 1e-12

    def test_time_unit_seconds(self, tmp_path):
        out = tmp_path / "o.csv"
        main(["observables", "--Z", "92", "--t-unit", "s", "--t-max",
              str(5e-12), "--samples", "3", "--out", str(out)])
        _, data = read_csv(out)
        assert data[-1][0] == pytest.approx(5e-12, rel=1e-12)
        # the same run in au, at the t_max that seconds convert to: every
        # observable has the same bits (N2 falls from 1 to 0.48 over them)
        t_max_au = 5e-12 * (1.0 / ATOMIC_TIME_SECONDS)
        main(["observables", "--Z", "92", "--t-unit", "au", "--t-max",
              repr(t_max_au), "--samples", "3", "--out", str(tmp_path / "au")])
        _, data_au = read_csv(tmp_path / "au")
        assert data_au[-1][0] == t_max_au
        assert data_au[:, 1:].tobytes() == data[:, 1:].tobytes()

    def test_phase_bound_at_its_edge(self, tmp_path):
        # t / alpha^2 is finite at 1e303 au, so the run goes ahead (t / alpha^3
        # would not be); its phases are finite and so is every row
        out = tmp_path / "o.csv"
        assert main(["observables", "--Z", "92", "--t-unit", "au", "--t-max",
                     "1e303", "--samples", "2", "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert data.shape == (2, 10) and np.all(np.isfinite(data))

    @pytest.mark.parametrize("figure, blocks, extra", [
        (None, 0, 5), (None, 0, 1), (None, 1, -1), (None, 1, 0), (None, 1, 1),
        (None, 3, 2), (2, 3, 2),
    ], ids=["5", "1", "block-1", "block", "block+1", "3block+2", "figure-2"])
    def test_time_unit_au(self, tmp_path, figure, blocks, extra):
        # the time column is the axis itself, and the observables are taken
        # at those atomic-unit times (N2 falls from 1 to 0.56 over five):
        # written one block of times at a time (block = the times per block
        # at the sigma-2 packet's N), each file has the bytes of one
        # whole-axis observable_series call
        params = PhysicalParams(Z=92, l=1)
        packets = {sigma: build_packet(PacketSpec(n_av=80, sigma=sigma, a=0.0,
                                                  b=1.0), params.l)
                   for sigma in ([1.0, 2.0] if figure else [2.0])}
        samples = blocks * (_BLOCK_ELEMENTS // len(packets[2.0].n)) + extra
        out = tmp_path / "o.csv"
        preset = ["--figure", str(figure)] if figure else ["--Z", "92"]
        assert main(["observables", *preset, "--t-unit", "au", "--t-max",
                     "1e4", "--samples", str(samples), "--out", str(out)]) == 0
        t = np.linspace(0.0, 1e4, samples)
        header = ["t", "re_A", "im_A", "asq", "sx", "sy", "sz", "slen",
                  "N1", "N2"]
        for sigma, packet in packets.items():
            energies = energy_table(params, packet.n_min, packet.n_max)
            s = observable_series(packet, energies, t)
            ref = tmp_path / f"ref_sigma{sigma:g}.csv"
            ref_write_csv(ref, header, [s.t, s.A.real, s.A.imag, s.asq, s.sx,
                                        s.sy, s.sz, s.slen, s.N1, s.N2])
            new = tmp_path / (f"o_sigma{sigma:g}.csv" if figure else "o.csv")
            assert new.read_bytes() == ref.read_bytes()

    def test_memory_does_not_grow_with_samples(self, tmp_path):
        # the file is written one block of times at a time: from 20,001 to
        # 200,001 samples, only the time axis (8 bytes a sample) grows
        peaks = []
        for samples in (20001, 200001):
            tracemalloc.start()
            try:
                assert main(["observables", "--figure", "4", "--samples",
                             str(samples), "--out", str(tmp_path / "o")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the program tunes glibc's allocator only")
    def test_program_faults_do_not_grow_with_samples(self, tmp_path):
        # the program keeps freed heap for the next block: 200,001 samples
        # take about as many minor faults as 20,001 (8x as many, 179k, under
        # glibc's default trimming)
        import resource
        faults = []
        for samples in (20001, 200001):
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            proc = run_cli(["-m", "rwp.cli", "observables", "--figure", "4",
                            "--samples", str(samples),
                            "--out", str(tmp_path / "o.csv")])
            assert proc.returncode == 0, proc.stderr
            faults.append(
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before)
        assert faults[1] <= 1.5 * faults[0]


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

    def test_default_time_is_zero(self, tmp_path):
        args = ["density", "--Z", "92", "--grid-points", "501", "--out"]
        assert main([*args, str(tmp_path / "default.csv")]) == 0
        assert main([*args, str(tmp_path / "zero.csv"), "--times", "0"]) == 0
        assert (tmp_path / "default.csv").read_bytes() == \
            (tmp_path / "zero.csv").read_bytes()

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

    def test_one_sample_is_one_row(self, tmp_path, capsys):
        out = tmp_path / "c.pgm"
        assert main(["carpet", "--Z", "92", "--samples", "1",
                     "--grid-points", "501", "--out", str(out)]) == 0
        for name in ("c_rho1.pgm", "c_rho2.pgm"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[:3] == ["P2", "501 1", "255"] and len(lines) == 4

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

    @pytest.mark.parametrize("args, stem, magic", [
        (["--figure", "6", "--out", "c.csv"], "c_rho{}.csv", b"t\\r,"),
        (["--figure", "6"], "rwp_carpet_rho{}.pgm", b"P2\n"),
        (["--figure", "6", "--format", "csv"], "rwp_carpet_rho{}.csv",
         b"t\\r,"),
        (["--out", "c.pgm"], "c_rho{}.pgm", b"P2\n"),
        (["--format", "pgm", "--out", "e.csv"], "e_rho{}.csv", b"t\\r,"),
    ], ids=["preset-csv-out", "preset-pgm", "preset-format-csv", "pgm-out",
            "format-pgm-csv-out"])
    def test_out_extension_decides_format(self, tmp_path, monkeypatch,
                                          args, stem, magic):
        # a .csv or .pgm out extension decides; else the flag, the config
        # or the preset (figure 6: pgm), else csv
        monkeypatch.chdir(tmp_path)
        assert main(["carpet", "--Z", "92", "--samples", "3",
                     "--grid-points", "501", *args]) == 0
        names = [stem.format(k) for k in (1, 2)]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        for name in names:
            assert (tmp_path / name).read_bytes().startswith(magic)

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

    @pytest.mark.parametrize("extra", [-1, 0, 1],
                             ids=["block-1", "block", "block+1"])
    def test_csv_time_unit_au(self, tmp_path, extra):
        # the t column is the axis itself; written one block of times at a
        # time (block = the times per densities block at 501 radii), both
        # files have the bytes of one whole-axis densities call
        samples = _BLOCK_ELEMENTS // 501 + extra
        out = tmp_path / "c.csv"
        assert main(["carpet", "--Z", "92", "--a", "0.6", "--b", "0.8",
                     "--t-unit", "au", "--t-max", "1e4", "--samples",
                     str(samples), "--grid-points", "501",
                     "--out", str(out)]) == 0
        params = PhysicalParams(Z=92, l=1)
        packet = build_packet(PacketSpec(n_av=80, sigma=2.0, a=0.6, b=0.8),
                              params.l)
        energies = energy_table(params, packet.n_min, packet.n_max)
        r = np.linspace(0.0, outer_radius(params, packet.n_max), 501)
        table = radial_table(params, packet.n_min, packet.n_max, r)
        t = np.linspace(0.0, 1e4, samples)
        header = ["t\\r"] + ["%.17g" % v for v in r]
        for name, rho in zip(("rho1", "rho2"),
                             densities(packet, energies, table, t)):
            ref_write_csv(tmp_path / f"ref_{name}.csv", header, [t, rho])
            assert (tmp_path / f"c_{name}.csv").read_bytes() == \
                (tmp_path / f"ref_{name}.csv").read_bytes()

    def test_csv_memory_does_not_grow_with_samples(self, tmp_path):
        # the CSVs are written one block of times at a time: from 101 to
        # 1,010 samples only the time axis grows, not the T x R densities
        peaks = []
        for samples in (101, 1010):
            tracemalloc.start()
            try:
                assert main(["carpet", "--Z", "92", "--samples", str(samples),
                             "--grid-points", "501", "--format", "csv",
                             "--out", str(tmp_path / "c.csv")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

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

    def test_value_may_hold_equals(self, tmp_path, capsys):
        # only the first '=' of a line splits key from value
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"Z = 92\nsamples = 3\nout = {tmp_path / 'a=b.csv'}\n")
        assert main(["observables", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == f"{tmp_path / 'a=b.csv'}\n"

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

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_explicit_sigma_drops_preset_widths(self, tmp_path, via):
        # fig 2 lists two widths; a sigma given by flag or file is the one
        given = (["--sigma", "3"] if via == "flag" else
                 ["--config", str(tmp_path / "run.cfg")])
        (tmp_path / "run.cfg").write_text("sigma = 3\n")
        out = tmp_path / "run" / "ac.csv"
        out.parent.mkdir()
        assert main(["observables", "--figure", "2", *given, "--samples", "5",
                     "--out", str(out)]) == 0
        assert os.listdir(out.parent) == ["ac.csv"]
        main(["observables", "--Z", "92", "--a", "0", "--b", "1", "--sigma",
              "3", "--samples", "5", "--out", str(tmp_path / "ref.csv")])
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_explicit_n_av_drops_preset_scan(self, tmp_path, via):
        # fig 3 scans n_av 20-150; an n_av given by flag or file is the row
        given = (["--n-av", "50"] if via == "flag" else
                 ["--config", str(tmp_path / "run.cfg")])
        (tmp_path / "run.cfg").write_text("n_av = 50\n")
        out = tmp_path / "t.csv"
        assert main(["timescales", "--figure", "3", *given,
                     "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert data[:, 0].tolist() == [50.0]
        # an explicit scan still wins over the explicit n_av
        assert main(["timescales", "--figure", "3", *given, "--scan", "20",
                     "22", "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert data[:, 0].tolist() == [20.0, 21.0, 22.0]


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


class TestReadme:
    def test_library_example_runs(self):
        namespace = {}
        exec(readme_block("Library", "python"), namespace)
        np.testing.assert_allclose(namespace["norm"], 1.0, rtol=0, atol=1e-6)


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
        # None leaves the variable unset: the CLI's own default
        outputs = []
        for threads in (None, "1", "2"):
            out = tmp_path / str(threads)
            out.mkdir()
            proc = run_cli(["-m", "rwp.cli", *args, "--out", str(out / "out.csv")],
                           OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes() for name in files])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_csv_bytes_independent_of_simd_level(self, tmp_path):
        # input made without any SIMD kernel: random bit patterns, and
        # uniform doubles scaled by exact powers of two
        targets = simd_targets()
        if not targets:
            pytest.skip("numpy dispatches to its baseline only on this host")
        code = """if 1:
            import sys
            import numpy as np
            from rwp.cli import write_csv
            core = np._core if hasattr(np, "_core") else np.core
            umath = core._multiarray_umath
            print(" ".join(t for t in umath.__cpu_dispatch__
                           if umath.__cpu_features__.get(t)))
            rng = np.random.default_rng(21)
            bits = rng.integers(0, 2 ** 63, (3000, 4)).view(np.float64)
            spread = np.ldexp(rng.random((3000, 4)),
                              rng.integers(-1074, 1024, (3000, 4)))
            write_csv([sys.argv[1]], ["c"] * 9,
                      [[[bits, -bits[:, 0], spread]]])
            """
        outputs = []
        # every target the host offers, then fewer, down to the baseline
        for level in range(len(targets), -1, -1):
            path = tmp_path / f"level{level}.csv"
            proc = run_cli(["-c", code, str(path)],
                           NPY_DISABLE_CPU_FEATURES=" ".join(targets[level:]))
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == targets[:level]
            outputs.append(path.read_bytes())
        assert all(out == outputs[0] for out in outputs)


class TestStartup:
    def test_cli_import_skips_scipy_signal(self, tmp_path):
        proc = run_cli(["-c", "import sys, rwp.cli; "
                              "print('scipy.signal' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
        # energies and every figure run with scipy unimportable
        no_scipy = fake_package(tmp_path / "fake", "scipy",
                                "raise ImportError('scipy is hidden')")
        for command, figure in [("energies", None), ("density", 1),
                                ("observables", 2), ("timescales", 3),
                                ("observables", 4), ("density", 5),
                                ("carpet", 6)]:
            args = (["--Z", "92"] if figure is None
                    else ["--figure", str(figure)])
            out = tmp_path / f"{command}_{figure}.csv"
            proc = run_cli(["-m", "rwp.cli", command, *args,
                            "--out", str(out)], PYTHONPATH=no_scipy)
            assert proc.returncode == 0, (command, figure, proc.stderr)
            assert proc.stdout and proc.stderr == ""

    def test_runtime_imports_are_the_declared_dependencies(self):
        # the top-level modules that src/rwp imports, beyond the standard
        # library and rwp itself, are exactly [project].dependencies
        tomllib = pytest.importorskip("tomllib")
        package = Path(rwp.__file__).resolve().parent
        imported = set()
        for source in package.glob("*.py"):
            for node in ast.walk(ast.parse(source.read_text())):
                if isinstance(node, ast.Import):
                    imported |= {a.name.split(".")[0] for a in node.names}
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        imported -= set(sys.stdlib_module_names) | {"rwp"}
        with open(package.parents[1] / "pyproject.toml", "rb") as fh:
            project = tomllib.load(fh)["project"]
        declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group()
                    for dep in project["dependencies"]}
        assert imported == declared

    def test_package_import_skips_numpy(self):
        # the package and the console script's entry module alike
        proc = run_cli(["-c", "import sys, rwp, rwp.__main__; "
                              "print('numpy' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_console_script_is_the_entry_function(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        root = Path(rwp.__file__).resolve().parents[2]
        with open(root / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"rwp": "rwp.__main__:main"}
        out = tmp_path / "e.csv"
        for launch in (["-m", "rwp"], CONSOLE_SCRIPT):
            proc = run_cli([*launch, "energies", "--Z", "92",
                            "--out", str(out)])
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                0, f"{out}\n", ""), launch

    @pytest.mark.parametrize("code, inherited, expected", [
        ("import os, rwp.cli", None, "1"),
        ("import os, rwp.cli", "3", "3"),
        ("import os, numpy, rwp.cli", None, "None"),
    ], ids=["unset", "user-value", "numpy-first"])
    def test_cli_import_sets_one_blas_thread(self, code, inherited, expected):
        proc = run_cli(["-c", code + "; "
                        "print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
                       OPENBLAS_NUM_THREADS=inherited)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc/self/task")
    def test_cli_import_runs_one_thread(self):
        proc = run_cli(["-c", "import os, rwp.cli; "
                              "print(len(os.listdir('/proc/self/task')))"],
                       OPENBLAS_NUM_THREADS=None)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"

    @pytest.mark.parametrize("code, expected", [
        ("import gc, rwp.cli", "True 0"),
        ("import gc; gc.disable(); import rwp.cli", "False 0"),
    ], ids=["gc-on", "gc-off"])
    def test_cli_import_leaves_gc_as_found(self, code, expected):
        proc = run_cli(["-c", code + "; "
                        "print(gc.isenabled(), gc.get_freeze_count())"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected

    def test_only_the_program_freezes(self, tmp_path, capsys, monkeypatch):
        # main(argv), called in a process, freezes nothing and leaves the
        # allocator as it finds it; main() with no argv is the program itself
        # (python -m rwp.cli, the rwp script), which on Linux also sets
        # glibc's mmap and trim thresholds (mallopt -3 and -1) to 32 and 64 MiB
        calls = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(
            mallopt=lambda *args: calls.append(args)))
        before = gc.isenabled(), gc.get_freeze_count()
        assert main(["energies", "--Z", "92",
                     "--out", str(tmp_path / "in.csv")]) == 0
        assert (gc.isenabled(), gc.get_freeze_count(), calls) == (*before, [])
        out = str(tmp_path / "program.csv")
        proc = run_cli(["-c", "import ctypes, gc, sys, types, rwp.cli; "
                        "calls = []; ctypes.CDLL = lambda name: "
                        "types.SimpleNamespace(mallopt=lambda *args: "
                        "calls.append(args)); sys.argv[1:] = "
                        f"['energies', '--Z', '92', '--out', {out!r}]; "
                        "code = rwp.cli.main(); "
                        "print(code, gc.isenabled(), "
                        "gc.get_freeze_count() > 0); print(calls)"])
        assert proc.returncode == 0, proc.stderr
        *_, status, mallopt = proc.stdout.splitlines()
        assert status.split() == ["0", "True", "True"]
        expected = [(-3, 32 << 20), (-1, 64 << 20)]
        assert mallopt == repr(expected if sys.platform == "linux" else [])

    def test_public_surface(self):
        # dir(), the star import and __all__ name the same public names, each
        # resolves on first use, and listing them loads nothing
        proc = run_cli(["-c", """if 1:
            import json, sys, rwp
            listed = sorted(n for n in dir(rwp) if not n.startswith("_"))
            loaded = "numpy" in sys.modules
            star = {}
            exec("from rwp import *", star)
            star.pop("__builtins__")
            print(json.dumps([listed, sorted(star), sorted(rwp.__all__),
                              loaded, callable(rwp.radial.radial_table)]))
            """])
        assert proc.returncode == 0, proc.stderr
        listed, star, names, loaded, resolved = json.loads(proc.stdout)
        assert listed == star == names
        assert {"core", "errors", "observables", "packet", "radial",
                "radial_table", "RwpError"} <= set(names)
        assert not loaded and resolved

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'radial_eval'"):
            rwp.radial_eval


AWKWARD = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.nan, np.inf,
                    -np.inf, 0.1, 1.0 / 3.0, 2.0 ** 53 + 2.0, 1e-300, 123456789.0])


def with_neighbours(x, steps=1):
    """x and the ``steps`` doubles on either side of each value, both signs."""
    near = [x]
    for toward in (-np.inf, np.inf):
        side = x
        for _ in range(steps):
            side = np.nextafter(side, toward)
            near.append(side)
    x = np.concatenate(near)
    return np.concatenate([x, -x])


def exact_ties():
    """Doubles whose 17-digit rounding is an exact tie, x 10**s = D + 1/2 with
    1e16 <= D < 1e17: x = M / 2**(s + 1) with M odd and M < 2**53 is exact,
    and x 10**s = M 5**s / 2, so M 5**s in [2e16, 2e17).  Such s run 1..24."""
    rng = np.random.default_rng(11)
    ties = [1234567890.00390625]
    for s in range(1, 25):
        low = -(-2 * 10 ** 16 // 5 ** s)
        high = min(2 * 10 ** 17 // 5 ** s, 2 ** 53)
        ties += [math.ldexp(int(m) | 1, -(s + 1))
                 for m in rng.integers(low, high - 1, 8)]
    return np.array(ties)


def near_ties():
    """Doubles whose 17-digit rounding lies 2**-k off a tie, x 10**16 = D +
    1/2 +- 2**-k for k = 21, 25, 29, outside the 1e-9 in which the writer
    doubts its digits: in [1, 2), x = m / 2**52 and x 10**16 = m 5**16 /
    2**36, so m 5**16 = 2**35 +- 2**(36 - k) modulo 2**36."""
    rng = np.random.default_rng(12)
    inverse = pow(5 ** 16, -1, 2 ** 36)
    near = []
    for k in (21, 25, 29):
        for sign in (1, -1):
            m = (2 ** 35 + sign * 2 ** (36 - k)) * inverse % 2 ** 36
            near += [math.ldexp(m + int(j) * 2 ** 36, -52)
                     for j in rng.integers(2 ** 16, 2 ** 17, 4)]
    return np.array(near)


POWERS_OF_TWO = with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
POWERS_OF_TEN = with_neighbours(np.array([float(f"1e{k}")
                                          for k in range(-323, 309)]))
TIES = exact_ties()
NEAR_TIES = near_ties()
# %g's switch from fixed to e-notation at exponents -4 and 17
SWITCH_POINTS = with_neighbours(np.array([1e-4, 1e-5, 1e16, 1e17]), steps=4)
BIG_INTS = np.array([2 ** 53, 2 ** 53 + 1, 2 ** 53 + 3, 2 ** 62 + 1,
                     2 ** 63 - 1, -2 ** 63, -(2 ** 53 + 1), 123456789012345678],
                    dtype=np.int64)
# the largest PGM peak whose 255 * peak is finite
LARGEST_PEAK = 7.04977699946006e+305


def wide_doubles(shape, seed):
    """Random doubles of either sign spread over 36 decades."""
    rng = np.random.default_rng(seed)
    return np.ldexp(rng.random(shape) - 0.5, rng.integers(-60, 60, shape))


# row counts 0, 1 and around one write_csv block (two block elements per
# value), at 1 and at 10 columns
BLOCK_EDGES = {f"{rows}x{width}": [wide_doubles((rows, width), rows)]
               for width in (1, 10)
               for block in [_BLOCK_ELEMENTS // (2 * width)]
               for rows in (0, 1, block - 1, block, block + 1)}


def assert_csv_matches_reference(tmp, columns):
    header = [f"c{i}" for i in range(len(columns))]
    write_csv([tmp / "new.csv"], header, [[columns]])
    ref_write_csv(tmp / "ref.csv", header, columns)
    assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


class TestWriters:
    @pytest.mark.parametrize("columns", [
        [AWKWARD],
        [AWKWARD, AWKWARD[::-1], np.roll(AWKWARD, 3)],
        [np.arange(len(AWKWARD)), AWKWARD],
        [np.arange(5), np.arange(5) * 7],
        [np.empty(0), np.empty(0)],
        [POWERS_OF_TWO],
        [POWERS_OF_TEN.reshape(-1, 6)],
        [TIES, np.nextafter(TIES, 0), np.nextafter(TIES, np.inf)],
        [NEAR_TIES],
        [SWITCH_POINTS],
        [BIG_INTS],
        [BIG_INTS, BIG_INTS.astype(float)],
        *BLOCK_EDGES.values(),
    ], ids=["one-column", "three-columns", "int-and-float", "all-int", "no-rows",
            "powers-of-two", "powers-of-ten", "ties", "near-ties",
            "switch-points",
            "int64-beyond-2**53", "int64-and-float", *BLOCK_EDGES])
    def test_csv_matches_reference(self, tmp_path, columns):
        assert_csv_matches_reference(tmp_path, columns)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=60),
           width=st.integers(1, 4))
    def test_csv_matches_reference_on_any_bits(self, bits, width):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        rows = len(values) // width or 1
        with tempfile.TemporaryDirectory() as tmp:
            assert_csv_matches_reference(
                Path(tmp), [values[:rows * width].reshape(rows, -1)])

    def test_csv_falls_back_where_digits_are_in_doubt(self):
        # these take "%.17g" % x, which the tests above compare: every exact
        # tie, and every double just below a power of ten whose exponent
        # log10 rounds up to that power's; a value 2e-9 off a tie does not
        assert not _g17_digits(TIES)[2].any()
        assert _g17_digits(NEAR_TIES)[2].all()
        below = np.nextafter(np.array([float(f"1e{k}")
                                       for k in range(-300, 301)]), 0)
        rounded_up = np.log10(below) == np.round(np.log10(below))
        if not rounded_up.any():
            pytest.skip("log10 rounds no exponent up on this host")
        assert not _g17_digits(below[rounded_up])[2].any()

    def test_csv_writes_files_in_lockstep(self, tmp_path):
        # one call, one header, two files of other widths and row counts per
        # part, parts without rows and parts of several writer blocks among
        # them: each file has the bytes of its own columns written whole
        one = wide_doubles(40000, 13)
        two = [np.arange(8000), wide_doubles((8000, 4), 14)]
        cuts = [(0, 0), (0, 3), (1, 3), (20000, 7999), (40000, 8000)]
        parts = ([[one[i:j]], [c[k:m] for c in two]]
                 for (i, k), (j, m) in zip(cuts, cuts[1:]))
        paths = [tmp_path / "one.csv", tmp_path / "two.csv"]
        header = ["x", "y"]
        assert write_csv(paths, header, parts) == paths
        ref_write_csv(tmp_path / "ref_one.csv", header, [one])
        ref_write_csv(tmp_path / "ref_two.csv", header, two)
        for name in ("one", "two"):
            assert (tmp_path / f"{name}.csv").read_bytes() == \
                (tmp_path / f"ref_{name}.csv").read_bytes()
        # a part must hold one list of columns per file
        with pytest.raises(ValueError):
            write_csv(paths, header, [[[one]]])

    def test_csv_streams_in_blocks(self, tmp_path):
        # a fig-6 carpet table: the writer holds a small part of it at a time
        rho = wide_doubles((201, 5001), 12)
        columns = [np.arange(201.0), rho]
        header = ["t"] + [f"r{i}" for i in range(5001)]
        tracemalloc.start()
        try:
            write_csv([tmp_path / "big.csv"], header, [[columns]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rho.nbytes / 2

    @pytest.mark.parametrize("pixels", [
        np.random.default_rng(7).permutation(256).astype(float)[None, :],
        np.arange(256).reshape(16, 16),
        np.array([[-0.0, 0.0, 255.0], [1.0, 254.0, 10.0]]),
        # 37 rows are not a multiple of the rows per block
        np.random.default_rng(8).integers(0, 256, (37, 5001)).astype(float),
        np.arange(256.0)[:, None],
    ], ids=["all-256-one-row", "int-dtype", "signed-zero", "multi-block",
            "width-1"])
    def test_pgm_matches_reference(self, tmp_path, pixels):
        # levels 0..255, 255 among them: each pixel is its level
        path = tmp_path / "new.pgm"
        assert write_pgm([path], [pixels]) == [path]
        ref_write_pgm(tmp_path / "ref.pgm", pixels)
        assert path.read_bytes() == (tmp_path / "ref.pgm").read_bytes()

    # the peaks of the images, one image each
    @pytest.mark.parametrize("peaks", [
        (3.7e-5,), (255.0,), (5e-324,), (LARGEST_PEAK,),
        (3.7e-5, 1e-5), (1e-5, 3.7e-5)],
        ids=["3.7e-05", "255.0", "5e-324", "7.04977699946006e+305",
             "two-images-bright-first", "two-images-dim-first"])
    def test_pgm_rounds_levels(self, tmp_path, peaks):
        # any levels in [0, peak], 0 and peak among them; at peak 255, the
        # half-integers, which round to even.  Images of other peaks share
        # the gray scale of the brightest: rint(level * 255 / joint peak)
        rng = np.random.default_rng(10)
        images = []
        for peak in peaks:
            image = (np.arange(0.0, 255.25, 0.5).reshape(1, -1)
                     if peak == 255.0 else rng.uniform(0.0, peak, (37, 5001)))
            image[0, :2] = 0.0, peak
            images.append(image)
        paths = [tmp_path / f"new{i}.pgm" for i in range(len(images))]
        assert write_pgm(paths, images) == paths
        for path, image in zip(paths, images):
            ref_write_pgm(tmp_path / "ref.pgm",
                          np.rint(255.0 * image / max(peaks)))
            assert path.read_bytes() == (tmp_path / "ref.pgm").read_bytes()

    @pytest.mark.parametrize("fill, bad, before", [
        (17.0, np.nan, None), (17.0, np.inf, None), (17.0, -np.inf, None),
        (17.0, -1.0, None), (17.0, -0.5, None),
        # no gray scale fits: the peak is NaN, infinite, 0 or negative, or
        # 255 * peak overflows (at 1e308, and one ulp above LARGEST_PEAK)
        (np.nan, np.nan, None), (np.inf, np.inf, None), (0.0, 0.0, None),
        (-255.0, -255.0, None), (17.0, 1e308, None),
        (17.0, np.nextafter(LARGEST_PEAK, np.inf), None),
        # no level at all
        (17.0, np.s_[:, :0], None), (17.0, np.s_[:0, :], None),
        # the bad image second, after a good one of a higher peak:
        # max(peak, nan) is the peak, so each image's own check must fail
        (17.0, np.nan, np.full((2, 3), 200.0)),
        (17.0, -1.0, np.full((2, 3), 200.0))],
        ids=["nan", "inf", "-inf", "-1.0", "-0.5", "peak-nan", "peak-inf",
             "peak-zero", "peak-negative", "peak-1e308",
             "peak-overflows-by-one-ulp", "zero-width", "zero-height",
             "nan-in-second", "negative-in-second"])
    def test_pgm_bad_pixel_writes_nothing(self, tmp_path, fill, bad, before):
        # one bad level among levels of ``fill``, also in the last row of an
        # image of several blocks; where ``bad`` is a slice, it cuts every
        # level away.  No file of the call is written, not even the good
        # image's
        for shape, where in (((4, 5), (3, 2)), ((201, 5001), (-1, -1))):
            image = np.full(shape, fill)
            if isinstance(bad, tuple):
                image = image[bad]
            else:
                image[where] = bad
            images = [image] if before is None else [before, image]
            paths = [tmp_path / f"bad{i}.pgm" for i in range(len(images))]
            with pytest.raises(RwpError, match="0..peak"):
                write_pgm(paths, images)
            assert list(tmp_path.iterdir()) == []

    def test_pgm_streams_in_blocks(self, tmp_path):
        # a fig-6 image: the writer holds a small part of it at a time
        pixels = np.random.default_rng(9).integers(0, 256, (201, 5001))
        pixels = pixels.astype(float)
        tracemalloc.start()
        try:
            write_pgm([tmp_path / "big.pgm"], [pixels])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= pixels.nbytes / 4

    def test_carpet_matches_reference_writers(self, tmp_path):
        for samples in (9, 101):  # one block of write_pgm, and several
            self.check_carpet(tmp_path / str(samples), samples)

    @staticmethod
    def check_carpet(out_dir, samples):
        """The CLI carpet, PGM and CSV, against the library one written the
        per-value way."""
        out_dir.mkdir()
        args = ["carpet", "--Z", "92", "--a", "0.6", "--b", "0.8",
                "--samples", str(samples), "--grid-points", "1001",
                "--t-max", "1.5"]
        for fmt in ("pgm", "csv"):
            proc = run_cli(["-m", "rwp.cli", *args, "--format", fmt,
                            "--out", str(out_dir / f"c.{fmt}")])
            assert proc.returncode == 0, proc.stderr
        params = PhysicalParams(Z=92, l=1)
        packet = build_packet(PacketSpec(n_av=80, sigma=2.0, a=0.6, b=0.8),
                              params.l)
        energies = energy_table(params, packet.n_min, packet.n_max)
        r = np.linspace(0.0, outer_radius(params, packet.n_max), 1001)
        table = radial_table(params, packet.n_min, packet.n_max, r)
        t_cl = time_scales(params, 80).t_cl
        t_axis = np.linspace(0.0, 1.5 * t_cl, samples)
        rho1, rho2 = densities(packet, energies, table, t_axis)
        rho_max = max(rho1.max(), rho2.max())
        for name, rho in (("rho1", rho1), ("rho2", rho2)):
            ref_write_pgm(out_dir / f"ref_{name}.pgm",
                          np.rint(255.0 * rho / rho_max))
            ref_write_carpet_csv(out_dir / f"ref_{name}.csv", r,
                                 t_axis / t_cl, rho)
            for ext in ("pgm", "csv"):
                assert (out_dir / f"c_{name}.{ext}").read_bytes() == \
                    (out_dir / f"ref_{name}.{ext}").read_bytes()


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
        # t_max > 0, yet linspace repeats a subnormal: its last time, or 0
        (["carpet", "--Z", "92", "--t-unit", "au", "--t-max", "3e-323",
          "--samples", "5", "--grid-points", "501"], "InvalidRange"),
        (["carpet", "--Z", "92", "--t-unit", "au", "--t-max", "5e-324",
          "--samples", "3", "--grid-points", "501"], "InvalidRange"),
        # |a|^2 overflows
        (["observables", "--Z", "92", "--a", "1e200", "--b", "1",
          "--samples", "3"], "NonNormalizedSpinor"),
        (["timescales", "--Z", "92", "--scan", "150", "20"], "RwpError"),
        (["timescales", "--Z", "92", "--n-av", "1"], "InvalidQuantumNumbers"),
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
        # at the bound numpy's own MemoryError; above it (at sys.maxsize // 8
        # numpy would raise ValueError), RwpError
        (["observables", "--Z", "92", "--samples", str(sys.maxsize // 16)],
         "MemoryError"),
        (["observables", "--Z", "92", "--samples", str(sys.maxsize // 8)],
         "RwpError"),
        (["carpet", "--Z", "92", "--samples", "3",
          "--grid-points", str(sys.maxsize // 16)], "MemoryError"),
        (["carpet", "--Z", "92", "--samples", "3",
          "--grid-points", str(sys.maxsize // 8)], "RwpError"),
    ], ids=["t-max-inf", "sigma-nan", "a-nan", "samples-negative",
            "carpet-samples-zero", "carpet-t-max-inf", "times-nan",
            "density-grid-points-0", "density-grid-points-1",
            "density-grid-points-3", "density-grid-points-500",
            "carpet-grid-points-0", "carpet-grid-points-1",
            "carpet-grid-points-3", "carpet-grid-points-500",
            "t-max-overflows-au", "times-overflow-au",
            "carpet-t-max-overflows-au", "carpet-t-max-zero",
            "carpet-t-max-negative", "carpet-t-max-subnormal-repeats-end",
            "carpet-t-max-subnormal-repeats-zero", "a-square-overflows",
            "scan-reversed",
            "n-av-below-l-plus-1",
            "phase-overflows", "density-phase-overflows", "sigma-1e300",
            "sigma-1e308", "sigma-negative", "density-sigma-negative",
            "energies-sigma-zero", "z-huge", "n-av-huge",
            "observables-n-av-huge",
            "scan-above-n-limit", "samples-huge", "carpet-grid-points-huge",
            "samples-unallocatable",
            "density-grid-points-unallocatable",
            "carpet-grid-points-unallocatable", "samples-at-bound",
            "samples-above-bound", "grid-points-at-bound",
            "grid-points-above-bound"])
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
        ("observables", "n_av", ":4: expected 'key = value'"),
        ("observables", "n_av = 8.5", ":4: bad value for n_av"),
        ("energies", "\xff = 1", "not UTF-8 text"),
    ], ids=["format", "t-unit", "no-equals", "int-key-float-value",
            "not-utf-8"])
    def test_config_file_choice_rejected(self, tmp_path, capsys, command,
                                         line, message):
        # the flags' choices= and types reject these values, a line without
        # '=' sets nothing, and a byte that is not UTF-8 has no meaning; a
        # config file must reject each, by the line's number where it has
        # one (the fourth).  Latin-1 writes each character of these lines as
        # one byte, so '\xff' is the byte 0xff.
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

    @pytest.mark.parametrize("args, out, error", [
        (["observables", "--Z", "92", "--samples", "3"], "missing/out.pgm",
         "FileNotFoundError"),
        (["carpet", "--Z", "92", "--samples", "3", "--grid-points", "501"],
         "missing/out.pgm", "FileNotFoundError"),
        # the second of the carpet's two images cannot be opened
        (["carpet", "--Z", "92", "--samples", "3", "--grid-points", "501"],
         "out.pgm", "IsADirectoryError"),
    ], ids=["observables", "carpet", "carpet-rho2-directory"])
    def test_unwritable_out_is_domain_error(self, tmp_path, capsys, args, out,
                                            error):
        (tmp_path / "out_rho2.pgm").mkdir()  # where the carpet puts rho2
        assert main(args + ["--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"rwp: error: {error}: ")
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

    def test_interrupt_exits_130_in_one_line(self, tmp_path, capsys,
                                             monkeypatch):
        # Ctrl-C while the command writes its file
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(rwp.cli, "write_csv", interrupted)
        assert main(["energies", "--Z", "92",
                     "--out", str(tmp_path / "e.csv")]) == 130
        out, err = capsys.readouterr()
        assert (out, err) == ("", "rwp: interrupted\n")

    def test_interrupt_during_startup_exits_130_in_one_line(self, tmp_path):
        # Ctrl-C while the program imports numpy, before main() runs: as
        # python -m rwp.cli, as python -m rwp and as the console script,
        # which calls rwp.__main__.main()
        interrupted = fake_package(tmp_path / "fake", "numpy",
                                   "raise KeyboardInterrupt")
        out = tmp_path / "e.csv"
        for launch in (["-m", "rwp.cli"], ["-m", "rwp"], CONSOLE_SCRIPT):
            proc = run_cli([*launch, "energies", "--Z", "92",
                            "--out", str(out)], PYTHONPATH=interrupted)
            assert proc.returncode == 130, launch
            assert (proc.stdout, proc.stderr) == ("", "rwp: interrupted\n")
            assert not out.exists()

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
