"""Command-line front end: presets, config files, CSV and PGM serialization.

Every setting lives in one typed ``RunConfig``, checked when it is built from
its defaults < --figure preset < config file < explicit command-line flag.
Each flag is declared once, in ``_FLAGS``; each subcommand in ``COMMANDS``
offers only the flags of the settings it reads, so a flag it would ignore is
a usage error.  Config files are plain ``key = value`` lines with ``#``
comments, keys named like the flags (``n_av``, ``t_max``...); they, like the
presets, may set any setting, so one file can serve several commands.

Exit status: 0 success, 1 domain error (bad physics input, a non-finite or
out-of-range setting, an output file that cannot be written, an array too
large to allocate), 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .core import (ATOMIC_TIME_SECONDS, FINE_STRUCTURE_CONST, PhysicalParams,
                   energy_table, t_ls_lowest_order, time_scales)
from .errors import InvalidRange, RwpError
from .observables import densities, observable_series
from .packet import N_LIMIT, PacketSpec, build_packet, truncation_bounds
from .radial import (DEFAULT_GRID_POINTS, make_grid, outer_radius,
                     radial_table)

_FMT = "%.17g"
_PIXEL_TEXT = np.array([str(v) for v in range(256)], dtype=object)

TIME_UNITS = ("au", "s", "tcl", "tls")
FORMATS = ("csv", "pgm")


@dataclass(frozen=True)
class RunConfig:
    """Every setting of one run, named like the flags.

    ``__post_init__`` holds every check of a setting value: a value no command
    could use raises RwpError before anything is computed or written.
    """

    Z: int  # required via flag, config file or preset
    l: int = 1
    n_av: int = 80
    sigma: float = 2.0
    a: float = 0.0
    b: float = 1.0
    n_min: int | None = None  # default n_av - 5 sigma
    n_max: int | None = None  # default n_av + 5 sigma
    t_max: float = 2.0
    t_unit: str = "tcl"
    samples: int = 501
    grid_points: int = DEFAULT_GRID_POINTS
    format: str | None = None  # carpet infers from the out extension, else csv
    out: str | None = None
    scan: list[int] | None = None  # timescales: [N_MIN, N_MAX]
    times: list[float] | None = None  # density snapshot times
    au: bool = False
    with_approx: bool = False
    sigmas: list[float] | None = None  # observables: one file per width

    def __post_init__(self):
        for key in ("sigma", "a", "b", "t_max"):
            if not math.isfinite(value := getattr(self, key)):
                raise RwpError(f"{key} must be finite, got {value}")
        if self.times is not None and not all(map(math.isfinite, self.times)):
            raise RwpError(f"times must be finite, got {self.times}")
        if self.samples < 1:
            raise RwpError(f"samples must be >= 1, got {self.samples}")
        if self.grid_points < 501 or self.grid_points % 2 == 0:
            raise RwpError(
                f"grid_points must be odd and >= 501, got {self.grid_points}")
        # numpy raises ValueError for an array of more than sys.maxsize bytes
        if max(self.samples, self.grid_points) > sys.maxsize // 8:
            raise RwpError(f"samples and grid_points must fit one float64 array, "
                           f"got {self.samples} and {self.grid_points}")
        if self.t_unit not in TIME_UNITS:
            raise RwpError(f"t_unit must be in {TIME_UNITS}, got {self.t_unit!r}")
        if self.format not in (*FORMATS, None):
            raise RwpError(f"format must be in {FORMATS}, got {self.format!r}")
        if self.scan is not None and self.scan[0] > self.scan[1]:
            raise RwpError(f"scan needs N_MIN <= N_MAX, got {self.scan}")
        if max([self.n_av, *(self.scan or [])]) > N_LIMIT:
            raise InvalidRange(f"n_av and scan must be <= N_LIMIT = {N_LIMIT}, "
                               f"got n_av={self.n_av}, scan={self.scan}")


# every flag once: its setting (the flag is --n-av for n_av) -> argparse options
_FLAGS = {
    "config": dict(metavar="FILE", help="key = value config file"),
    "figure": dict(type=int, choices=range(1, 7), help="expand a figure preset"),
    "Z": dict(type=int, help="nuclear charge"),
    "l": dict(type=int, help="orbital angular momentum (>= 1)"),
    "out": dict(help="output path (suffixes added for multi-file)"),
    "n_av": dict(type=int, help="mean principal quantum number"),
    "sigma": dict(type=float, help="Gaussian width in n"),
    "a": dict(type=float, help="upper spinor amplitude"),
    "b": dict(type=float, help="lower spinor amplitude"),
    "n_min": dict(type=int, help="lower n truncation (default n_av - 5 sigma)"),
    "n_max": dict(type=int, help="upper n truncation (default n_av + 5 sigma)"),
    "t_max": dict(type=float, help="time span in the chosen unit"),
    "t_unit": dict(choices=TIME_UNITS, help="time unit for input and output"),
    "samples": dict(type=int, help="number of time samples"),
    "grid_points": dict(type=int, help="radial points, odd, >= 501 (default "
                        f"{DEFAULT_GRID_POINTS}): quadrature points for "
                        "density, image columns for carpet"),
    "format": dict(choices=FORMATS, help="output format"),
    "times": dict(nargs="+", type=float, help="snapshot times in the chosen unit"),
    "scan": dict(nargs=2, type=int, metavar=("N_MIN", "N_MAX"),
                 help="tabulate a range of n_av"),
    "au": dict(action="store_true", help="emit atomic time units, not seconds"),
    "with_approx": dict(action="store_true",
                        help="append the lowest-order T_ls column"),
}

# the keys a config file may set, for any command; lists and booleans are not
_CONFIG_TYPES = {key: spec.get("type", str) for key, spec in _FLAGS.items()
                 if key != "config" and not {"nargs", "action"} & spec.keys()}

FIGURE_PRESETS = {
    # short-time density snapshots of the spin-down packet
    1: {"Z": 92, "l": 1, "n_av": 80, "sigma": 2.0, "a": 0.0, "b": 1.0,
        "t_unit": "tcl", "times": [0.0, 0.25, 0.5, 0.75, 1.0, 1.25]},
    # |A|^2 for two packet widths
    2: {"Z": 92, "l": 1, "n_av": 80, "a": 0.0, "b": 1.0,
        "t_unit": "tcl", "t_max": 2.0, "samples": 401, "sigmas": [1.0, 2.0]},
    # time-scale hierarchy versus n_av
    3: {"Z": 92, "l": 1, "scan": [20, 150]},
    # spin expectations, |A|^2 and Bloch length out to the spin revival
    4: {"Z": 92, "l": 1, "n_av": 80, "sigma": 2.0,
        "a": 1.0 / math.sqrt(2.0), "b": 1.0 / math.sqrt(2.0),
        "t_unit": "tls", "t_max": 35.0, "samples": 7001},
    # densities at the spin collapse and revival instants
    5: {"Z": 92, "l": 1, "n_av": 80, "sigma": 2.0,
        "a": 1.0 / math.sqrt(2.0), "b": 1.0 / math.sqrt(2.0),
        "t_unit": "tls", "times": [0.0, 13.35, 26.7]},
    # component-density carpet over two spin-orbit periods
    6: {"Z": 92, "l": 1, "n_av": 80, "sigma": 2.0, "a": 0.0, "b": 1.0,
        "t_unit": "tls", "t_max": 2.0, "samples": 201, "format": "pgm"},
}


def load_config(path: str) -> dict:
    """Parse a plain ``key = value`` config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise RwpError(f"{path}: not UTF-8 text: {exc}")
    cfg = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise RwpError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_TYPES:
            raise RwpError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            cfg[key] = _CONFIG_TYPES[key](value)
        except ValueError as exc:
            raise RwpError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return cfg


def merge_config(cli_args: dict, parser: argparse.ArgumentParser) -> RunConfig:
    """RunConfig from preset < config file < the flags given (``cli_args``
    has no key for a flag left out); the rest keep their field defaults."""
    flags = dict(cli_args)
    file_cfg = load_config(flags.pop("config")) if "config" in flags else {}
    figure = flags.pop("figure", file_cfg.pop("figure", None))  # a flag wins
    if figure is not None and figure not in FIGURE_PRESETS:
        parser.error(f"unknown figure preset {figure}")
    settings = {**FIGURE_PRESETS.get(figure, {}), **file_cfg, **flags}
    if "Z" not in settings:
        parser.error("nuclear charge Z is required (--Z, config file or --figure)")
    return RunConfig(**settings)


def _time_unit_au(cfg: RunConfig, params: PhysicalParams) -> float:
    """Atomic-time value of one configured time unit."""
    if cfg.t_unit == "au":
        return 1.0
    if cfg.t_unit == "s":
        return 1.0 / ATOMIC_TIME_SECONDS
    scales = time_scales(params, cfg.n_av)
    return scales.t_cl if cfg.t_unit == "tcl" else scales.t_ls


def _time_au(key: str, value: float, unit_au: float) -> float:
    """A configured time in atomic units.  RwpError unless m0 c^2 |t|, a bound
    on every phase |eps t|, is finite: an infinite phase makes amplitudes NaN."""
    t = value * unit_au
    if not math.isfinite(t / FINE_STRUCTURE_CONST ** 2):
        raise RwpError(f"{key} = {value} overflows in atomic units, as a time "
                       f"or as a phase (one time unit = {unit_au} au)")
    return t


def _out_path(cfg: RunConfig, default: str, suffix: str = "") -> str:
    stem, ext = os.path.splitext(cfg.out or default)
    return f"{stem}{suffix}{ext}"


def write_csv(path: str, header: list, columns: list):
    """CRLF CSV, every value as ``%.17g``: one row format per file, one ``%``
    call per row."""
    rows = np.column_stack(columns)
    line = ",".join([_FMT] * rows.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(line % tuple(row.tolist()))


def write_pgm(path: str, pixels: np.ndarray):
    """Plain-text P2 image of integral pixels in 0..255.

    Each row indexes a table of the 256 pixel strings, so the pixels are
    checked first, one row at a time, and nothing is written if one is bad.
    """
    height, width = pixels.shape
    if pixels.size and not (0 <= pixels.min() and pixels.max() <= 255
                            and all(np.array_equal(row, np.rint(row))
                                    for row in pixels)):
        raise RwpError(f"{path}: pixels must be integers in 0..255")
    with open(path, "w") as fh:
        fh.write(f"P2\n{width} {height}\n255\n")
        for row in pixels:
            fh.write(" ".join(_PIXEL_TEXT[row.astype(np.intp)].tolist()) + "\n")


COMMANDS = {}  # subcommand -> its cmd_* function; a tracer may rebind values
_PACKET = ("n_av", "sigma", "a", "b", "n_min", "n_max")


def _command(help_text: str, *reads: str):
    """Register cmd_<name> as subcommand <name> with its help line and the
    settings it reads besides config, figure, Z, l and out."""
    def register(fn):
        fn.help, fn.reads = help_text, reads
        COMMANDS[fn.__name__.removeprefix("cmd_")] = fn
        return fn
    return register


def _packet_spec(cfg: RunConfig) -> PacketSpec:
    return PacketSpec(n_av=cfg.n_av, sigma=cfg.sigma, a=cfg.a, b=cfg.b,
                      n_min=cfg.n_min, n_max=cfg.n_max)


def _packet_and_energies(cfg: RunConfig, params: PhysicalParams):
    packet = build_packet(_packet_spec(cfg), params.l)
    return packet, energy_table(params, packet.n_min, packet.n_max)


@_command("fine-structure doublets and splitting frequencies",
          "n_av", "sigma", "n_min", "n_max")
def cmd_energies(cfg: RunConfig) -> list:
    params = PhysicalParams(Z=cfg.Z, l=cfg.l)
    table = energy_table(params, *truncation_bounds(_packet_spec(cfg), params.l))
    path = _out_path(cfg, "rwp_energies.csv")
    write_csv(path,
              ["n", "eps_plus_au", "eps_minus_au", "delta_au", "omega_au"],
              [table.n, table.eps_plus, table.eps_minus, table.omega,
               table.omega])
    return [path]


@_command("characteristic times T_cl, T_rev, T_ls, T_ls2",
          "n_av", "scan", "au", "with_approx")
def cmd_timescales(cfg: RunConfig) -> list:
    params = PhysicalParams(Z=cfg.Z, l=cfg.l)
    n_values = range(cfg.scan[0], cfg.scan[1] + 1) if cfg.scan else [cfg.n_av]
    factor, unit = (1.0, "au") if cfg.au else (ATOMIC_TIME_SECONDS, "s")
    scales = [time_scales(params, n_av) for n_av in n_values]
    header = ["n_av"] + [f"T_{key}_{unit}" for key in ("cl", "rev", "ls", "ls2")]
    columns = [np.array(n_values, dtype=float)] + [
        np.array([getattr(s, f"t_{key}") * factor for s in scales])
        for key in ("cl", "rev", "ls", "ls2")]
    if cfg.with_approx:
        header.append(f"T_ls_approx_{unit}")
        columns.append(np.array([t_ls_lowest_order(params, n_av) * factor
                                 for n_av in n_values]))
    path = _out_path(cfg, "rwp_timescales.csv")
    write_csv(path, header, columns)
    return [path]


@_command("autocorrelation, spin expectations, component norms",
          *_PACKET, "t_max", "t_unit", "samples")
def cmd_observables(cfg: RunConfig) -> list:
    params = PhysicalParams(Z=cfg.Z, l=cfg.l)
    unit_au = _time_unit_au(cfg, params)
    t_au = np.linspace(0.0, _time_au("t_max", cfg.t_max, unit_au), cfg.samples)
    sigmas = cfg.sigmas or [cfg.sigma]
    written = []
    for sigma in sigmas:
        packet, energies = _packet_and_energies(replace(cfg, sigma=sigma),
                                                params)
        series = observable_series(packet, energies, t_au)
        suffix = f"_sigma{sigma:g}" if len(sigmas) > 1 else ""
        path = _out_path(cfg, "rwp_observables.csv", suffix)
        write_csv(path,
                  ["t", "re_A", "im_A", "asq", "sx", "sy", "sz",
                   "slen", "N1", "N2"],
                  [series.t / unit_au, series.A.real, series.A.imag,
                   series.asq, series.sx, series.sy, series.sz,
                   series.slen, series.N1, series.N2])
        written.append(path)
    return written


@_command("component densities at chosen times",
          *_PACKET, "t_unit", "grid_points", "times")
def cmd_density(cfg: RunConfig) -> list:
    params = PhysicalParams(Z=cfg.Z, l=cfg.l)
    unit_au = _time_unit_au(cfg, params)
    t_au = [_time_au("times", t, unit_au) for t in cfg.times or [0.0]]
    packet, energies = _packet_and_energies(cfg, params)
    grid = make_grid(params, packet.n_max, cfg.grid_points)
    table = radial_table(params, packet.n_min, packet.n_max, grid.r)
    rho1, rho2 = densities(packet, energies, table, t_au)
    written = []
    for i, (row1, row2) in enumerate(zip(rho1, rho2)):
        suffix = f"_t{i}" if len(t_au) > 1 else ""
        path = _out_path(cfg, "rwp_density.csv", suffix)
        write_csv(path, ["r", "rho1", "rho2", "rho"],
                  [table.r, row1, row2, row1 + row2])
        written.append(path)
    return written


def _ascending(t_au: np.ndarray) -> np.ndarray:
    """A carpet's time axis, which draws one row per time in order: t_au
    itself if non-empty and strictly ascending, else InvalidRange."""
    if len(t_au) == 0 or np.any(np.diff(t_au) <= 0):
        raise InvalidRange("carpet times must be non-empty and strictly "
                           "ascending (t_max > 0 when samples > 1)")
    return t_au


@_command("space-time density grids (PGM or CSV)",
          *_PACKET, "t_max", "t_unit", "samples", "grid_points", "format")
def cmd_carpet(cfg: RunConfig) -> list:
    params = PhysicalParams(Z=cfg.Z, l=cfg.l)
    unit_au = _time_unit_au(cfg, params)
    t_au = _ascending(np.linspace(
        0.0, _time_au("t_max", cfg.t_max, unit_au), cfg.samples))
    packet, energies = _packet_and_energies(cfg, params)
    # images sample a uniform axis, so equal pixels hold equal widths of r
    r = np.linspace(0.0, outer_radius(params, packet.n_max), cfg.grid_points)
    table = radial_table(params, packet.n_min, packet.n_max, r)
    rho1, rho2 = densities(packet, energies, table, t_au)
    ext = os.path.splitext(cfg.out or "")[1].lower()
    pgm = cfg.format == "pgm" or (cfg.format is None and ext == ".pgm")
    # joint scaling: the brightest pixel across both components is 255
    rho_max = max(rho1.max(), rho2.max())
    header = None if pgm else ["t\\r"] + [_FMT % v for v in table.r]
    written = []
    for name, rho in (("rho1", rho1), ("rho2", rho2)):
        if pgm:
            path = _out_path(cfg, "rwp_carpet.pgm", f"_{name}")
            # in place, the bytes of np.rint(255.0 * rho / rho_max)
            rho *= 255.0
            rho /= rho_max
            write_pgm(path, np.rint(rho, out=rho))
        else:
            path = _out_path(cfg, "rwp_carpet.csv", f"_{name}")
            write_csv(path, header, [t_au / unit_au, rho])
        written.append(path)
    return written


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwp",
        description="Spin-carrying radial wave packets in hydrogenic ions",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # a flag left out is missing from the namespace, not None; a flag
        # has one spelling, so no prefix reaches a flag the command lacks
        sub = subs.add_parser(name, help=command.help, allow_abbrev=False,
                              argument_default=argparse.SUPPRESS)
        for key in ("config", "figure", "Z", "l", "out", *command.reads):
            sub.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    cli_args = vars(parser.parse_args(argv))
    command = cli_args.pop("command")
    try:
        cfg = merge_config(cli_args, parser)
        written = COMMANDS[command](cfg)
    except (RwpError, OSError, MemoryError) as exc:
        print(f"rwp: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
