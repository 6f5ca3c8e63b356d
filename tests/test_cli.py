"""Command-line interface: subcommands, presets, config precedence, formats."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rwp
from rwp.cli import main
from rwp.core import (ATOMIC_TIME_SECONDS, PhysicalParams, t_ls, t_ls2,
                      time_scales)


def run_cli(args, **env):
    """Run the CLI in a fresh interpreter with extra environment variables."""
    src = str(Path(rwp.__file__).resolve().parents[1])
    full_env = dict(os.environ, **env)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=full_env,
                          capture_output=True, text=True, timeout=120)


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
        from rwp.core import dirac_energy
        p = PhysicalParams(Z=92, l=1)
        assert data[0][1] == dirac_energy(p, 80, 1.5)  # lossless


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
        assert data[0][3] == pytest.approx(t_ls(p, 80), rel=1e-15)


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

    def test_time_unit_seconds(self, tmp_path):
        out = tmp_path / "o.csv"
        main(["observables", "--Z", "92", "--t-unit", "s", "--t-max",
              str(5e-12), "--samples", "3", "--out", str(out)])
        _, data = read_csv(out)
        assert data[-1][0] == pytest.approx(5e-12, rel=1e-12)


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
        h = r[1] - r[0]
        w = np.ones(len(r))
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        assert np.sum(w * h / 3.0 * rho) == pytest.approx(1.0, abs=1e-6)

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
              "--grid-points", "10", "--out", str(out)])
        text = (tmp_path / "c_rho1.pgm").read_text()
        assert text.startswith("P2\n10 10\n255\n")

    def test_joint_normalization_and_black_row(self, tmp_path):
        out = tmp_path / "c.pgm"
        main(["carpet", "--figure", "6", "--samples", "21",
              "--grid-points", "401", "--out", str(out)])
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
