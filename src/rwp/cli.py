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
large to allocate), 2 usage error, 130 interrupted.

Imported before numpy, this module runs OpenBLAS on one thread unless
``OPENBLAS_NUM_THREADS`` is set (see the comment above ``import numpy``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import gc
import math
import os
import sys
from dataclasses import dataclass, replace

# No function in rwp calls BLAS: every sum over n is an einsum in a fixed
# order.  Yet OpenBLAS starts a worker thread when numpy loads, and it spins
# on a second core for the whole run, about a third of a CLI run's CPU.  So a
# process that reaches this module before numpy runs OpenBLAS on one thread,
# unless the user set OPENBLAS_NUM_THREADS; an import after numpy (the tests,
# a notebook) changes nothing.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

try:
    import numpy as np

    from .core import (ATOMIC_TIME_SECONDS, FINE_STRUCTURE_CONST,
                       PhysicalParams, energy_table, time_scales)
    from .errors import InvalidRange, RwpError
    from .observables import densities, observable_series
    from .packet import N_LIMIT, PacketSpec, build_packet, truncation_bounds
    from .radial import (DEFAULT_GRID_POINTS, _blocks, make_grid,
                         outer_radius, radial_table)
except KeyboardInterrupt:  # Ctrl-C before main() runs: exit as main() would
    if __name__ != "__main__":
        raise
    print("rwp: interrupted", file=sys.stderr)
    sys.exit(130)

# entry v holds the ASCII of "v ", entry 256 + v that of "v\n", NUL-padded to
# 4 bytes; built from bytes, so tobytes() gives them back on any endianness
_PIXEL_WORDS = np.frombuffer(b"".join(
    f"{v}{end}".encode().ljust(4, b"\0") for end in " \n" for v in range(256)),
    dtype=np.uint32)

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
        # numpy raises ValueError, not MemoryError, from 2**60 - 64 values up
        if max(self.samples, self.grid_points) > sys.maxsize // 16:
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
    preset, given = dict(FIGURE_PRESETS.get(figure, {})), {**file_cfg, **flags}
    # a preset's list of widths or of n_av yields to one given explicitly
    for one, many in (("sigma", "sigmas"), ("n_av", "scan")):
        if one in given:
            preset.pop(many, None)
    settings = {**preset, **given}
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


# %.17g in numpy.  For finite non-zero |x|, E = floor(log10 |x|) is only an
# estimate (log10 may round across a power of ten).  y = |x| 10**(16 - E) is
# formed as a = |x| 2**k times 10**(16 - E) / 2**k, the second a
# double-double hi + lo built exactly from Python ints; the exact power of
# two 2**k keeps a, hi, lo and every partial product normal and finite for
# any double.  Dekker's TwoProduct (Numer. Math. 18, 1971) with Veltkamp's
# split gives p + err = a hi exactly: numpy has no fma, and it never fuses
# two ufunc calls.  With t = err + a lo, y - (p + t) is below 2**-103 y, so
# under 1e-14 for y < 1e17, and p is an integer wherever y >= 2**53.  So
# D = p + floor(t) + (frac(t) > 1/2) holds the 17 correctly rounded digits,
# unless frac(t) is within 1e-9 of 1/2 (a tie, or too near one to tell) or
# floor(p + t) falls outside [1e16, 1e17) (E was wrong); those values take
# "%.17g" % x, one at a time.  D = 1e17 carries to 1e16 with E + 1.  log10
# picks only E, so the bytes do not depend on numpy's SIMD level.
_VELTKAMP = 134217729.0  # 2**27 + 1


def _split(a):
    """Veltkamp's split: hi + lo == a exactly, each with at most 26 bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _scaled_pow10(e: int) -> tuple:
    """(2**k, hi, hi's split halves, lo) for values of decimal exponent e:
    hi + lo is 10**(16 - e) / 2**k to twice double precision."""
    k = 512 if e < -270 else -512 if e > 270 else 0
    num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
    num, den = (num, den << k) if k > 0 else (num << -k, den)
    hi = num / den  # int true division rounds correctly
    p, q = hi.as_integer_ratio()
    return (2.0 ** k, hi, *_split(hi), (num * q - p * den) / (den * q))


def _g17_digits(a):
    """(D, E, exact) for finite non-zero magnitudes ``a``: %.17g's digits as
    an int64 in [1e16, 1e17) and the decimal exponent of the first, where
    ``exact``; elsewhere D and E are not to be used."""
    e = np.floor(np.log10(a)).astype(np.int64)
    first = int(e.min())
    table = np.array([_scaled_pow10(i)
                      for i in range(first, int(e.max()) + 1)]).T
    scale, hi, hi_hi, hi_lo, lo = np.take(table, e - first, axis=1)
    a = a * scale
    p = a * hi
    a_hi, a_lo = _split(a)
    err = a_lo * hi_lo - (((p - a_hi * hi_hi) - a_lo * hi_hi) - a_hi * hi_lo)
    t = err + a * lo
    whole = np.floor(t)
    frac = t - whole
    d = p.astype(np.int64) + whole.astype(np.int64)
    exact = (np.abs(frac - 0.5) > 1e-9) & (d >= 10 ** 16) & (d < 10 ** 17)
    d += frac > 0.5
    carry = d == 10 ** 17
    d -= carry * (9 * 10 ** 16)
    return d, e + carry, exact


# Each value owns 47 byte slots, NUL where unused: the sign; a lead of up to
# 5 bytes, "0." and up to 3 zeros, "nan", "inf" or "0"; 17 digits, each
# followed by "." or NUL; an exponent "e+dd" or "e+ddd"; "," or "\r\n".  For
# a finite non-zero value the lead and the exponent depend on its decimal
# exponent E alone, so column E + 324 of one table holds both (10 bytes);
# columns 633, 634 and 635 hold those of 0, NaN and infinity.
@functools.cache
def _csv_affixes() -> np.ndarray:
    """The (10, 636) lead-and-exponent table, built on first use."""
    return np.frombuffer(b"".join(
        (lead.ljust(5, "\0") + exp.ljust(5, "\0")).encode()
        for lead, exp in [("0." + "0" * (-e - 1) if -4 <= e < 0 else "",
                           "" if -4 <= e < 17 else f"e{e:+03d}")
                          for e in range(-324, 309)]
        + [("0", ""), ("nan", ""), ("inf", "")]),
        dtype=np.uint8).reshape(-1, 10).T.copy()


_DIGIT_SLOT = np.arange(17, dtype=np.uint8)[:, None]  # j, one row per digit


def _csv_block(rows: np.ndarray) -> bytes:
    """The CSV lines of a 2-D float64 array, "%.17g" % value for each value.

    The text goes slot-major into a (47, values) byte matrix, one contiguous
    row per slot, which is transposed once; deleting its NULs leaves the text.
    """
    height, width = rows.shape
    x = rows.ravel()
    a = np.abs(x)
    regular = (a > 0) & (a < np.inf)
    a[~regular] = 1.0
    d, e, exact = _g17_digits(a)
    fixed = (-4 <= e) & (e < 17)  # %g's fixed notation
    out = np.zeros((47, x.size), np.uint8)
    out[0] = (np.signbit(x) & ~np.isnan(x)).view(np.uint8) * np.uint8(45)
    affix = (regular * (e + 324)
             + ~regular * (633 + np.isnan(x) + 2 * np.isinf(x)))
    affixes = np.take(_csv_affixes(), affix, axis=1)
    out[1:6], out[40:45] = affixes[:5], affixes[5:]
    digits = np.empty((17, x.size), np.uint8)
    for part, last in zip(np.divmod(d, 10 ** 8), (8, 16)):
        part = part.astype(np.uint32)
        for j in range(last, 8 if last == 16 else -1, -1):
            rest = part // 10
            digits[j] = part - 10 * rest
            part = rest
    # significant digits, then those shown: the integer part in full
    sig = ((digits != 0).view(np.uint8) * (_DIGIT_SLOT + 1)).max(axis=0)
    shown = (np.maximum(sig, (e + 1) * fixed) * regular).astype(np.uint8)
    digits += 48
    out[6:40:2] = (_DIGIT_SLOT < shown).view(np.uint8) * digits
    # the dot follows digit E (digit 0 in e-notation) if more digits follow;
    # a fixed E < 0 wraps to 252..255, past every digit
    dot = (e * fixed).astype(np.uint8)
    has_dot = (_DIGIT_SLOT == dot) & (shown > dot + 1)
    out[7:40:2] = has_dot.view(np.uint8) * np.uint8(46)
    sep = out[45:].reshape(2, height, width)
    sep[0] = 44
    sep[:, :, -1] = [[13], [10]]
    slow = np.flatnonzero(regular & ~exact)
    if slow.size:
        text = b"".join(("%.17g" % v).encode().ljust(45, b"\0")
                        for v in x[slow].tolist())
        out[:45, slow] = np.frombuffer(text, np.uint8).reshape(-1, 45).T
    return out.T.tobytes().translate(None, b"\0")


def write_csv(paths: list, header: list, parts) -> list:
    """CRLF CSV files written in lockstep, each with the one ``header``, every
    value as ``%.17g`` (an int as ``%.17g`` of its float).  A part holds one
    list of 1-D or 2-D columns of one length per file, and its rows go to
    that file; ``parts`` may be a generator, so no caller need hold a whole
    table.  Every file is opened before the first is written.  Each block of
    rows (``_blocks``, two elements per value) is stacked and formatted by
    ``_csv_block`` in numpy, then written; the bytes are those of formatting
    each value on its own.  Returns ``paths``.
    """
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path in paths]
        for fh in files:
            fh.write((",".join(header) + "\r\n").encode())
        for part in parts:
            for fh, columns in zip(files, part, strict=True):
                width = np.column_stack([c[:1] for c in columns]).shape[1]
                for rows in _blocks(len(columns[0]), 2 * width):
                    block = np.column_stack([c[rows] for c in columns])
                    fh.write(_csv_block(block.astype(float, copy=False)))
    return paths


def write_pgm(paths: list, images) -> list:
    """Plain-text P2 images of the levels ``images``, one per path, on one
    gray scale: each pixel is rint((level * 255) / peak), in 0..255, where
    peak is the largest level of all the images.

    Every image is checked before any file is opened, so nothing is written
    if one is bad: each must be non-empty with levels >= 0, and 0 < 255 *
    peak < inf.  NaN fails the check of its image, and the peak check keeps
    every scaled level finite and at most 255, so the integer cast sees only
    0..255.  Every file is opened before the first is written.  Then each
    block of rows is scaled, rounded and cast once, gathers one 4-byte word
    per pixel from ``_PIXEL_WORDS`` (the "v\\n" word in the last column)
    and writes the words with their NUL padding deleted.  Returns ``paths``.
    """
    peak = float(max(image.max(initial=0.0) for image in images))
    if not (0 < 255.0 * peak < np.inf
            and all(image.size and image.min() >= 0 for image in images)):
        raise RwpError(f"{', '.join(map(str, paths))}: levels must lie in "
                       f"0..peak, with 0 < 255 * peak < inf; got peak {peak}")
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path in paths]
        for fh, image in zip(files, images, strict=True):
            height, width = image.shape
            fh.write(f"P2\n{width} {height}\n255\n".encode())
            for rows in _blocks(height, width):
                idx = np.rint(image[rows] * 255.0 / peak).astype(np.intp)
                idx[:, -1] += 256
                fh.write(_PIXEL_WORDS[idx].tobytes().translate(None, b"\0"))
    return paths


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
def cmd_energies(cfg: RunConfig, params: PhysicalParams) -> list:
    table = energy_table(params, *truncation_bounds(_packet_spec(cfg), params.l))
    header = ["n", "eps_plus_au", "eps_minus_au", "delta_au", "omega_au"]
    return write_csv([_out_path(cfg, "rwp_energies.csv")], header, [[[
        table.n, table.eps_plus, table.eps_minus, table.omega, table.omega]]])


@_command("characteristic times T_cl, T_rev, T_ls, T_ls2",
          "n_av", "scan", "au", "with_approx")
def cmd_timescales(cfg: RunConfig, params: PhysicalParams) -> list:
    n_values = range(cfg.scan[0], cfg.scan[1] + 1) if cfg.scan else [cfg.n_av]
    factor, unit = (1.0, "au") if cfg.au else (ATOMIC_TIME_SECONDS, "s")
    scales = [time_scales(params, n_av) for n_av in n_values]
    keys = ["cl", "rev", "ls", "ls2"] + ["ls_approx"] * cfg.with_approx
    header = ["n_av"] + [f"T_{key}_{unit}" for key in keys]
    columns = [np.array(n_values, dtype=float)] + [
        np.array([getattr(s, f"t_{key}") * factor for s in scales])
        for key in keys]
    return write_csv([_out_path(cfg, "rwp_timescales.csv")], header,
                     [[columns]])


@_command("autocorrelation, spin expectations, component norms",
          *_PACKET, "t_max", "t_unit", "samples")
def cmd_observables(cfg: RunConfig, params: PhysicalParams) -> list:
    """One CSV per packet width, all written one block of _BLOCK_ELEMENTS // N
    times at a time (N: the n of every packet), so only the time axis grows
    with the samples; no bit depends on the block."""
    unit_au = _time_unit_au(cfg, params)
    t_au = np.linspace(0.0, _time_au("t_max", cfg.t_max, unit_au), cfg.samples)
    sigmas = cfg.sigmas or [cfg.sigma]
    packets = [_packet_and_energies(replace(cfg, sigma=sigma), params)
               for sigma in sigmas]
    series = ([observable_series(packet, energies, t_au[rows])
               for packet, energies in packets]
              for rows in _blocks(len(t_au), sum(len(p.n) for p, _ in packets)))
    return write_csv(
        [_out_path(cfg, "rwp_observables.csv",
                   f"_sigma{sigma:g}" if len(sigmas) > 1 else "")
         for sigma in sigmas],
        ["t", "re_A", "im_A", "asq", "sx", "sy", "sz", "slen", "N1", "N2"],
        ([[s.t / unit_au, s.A.real, s.A.imag, s.asq, s.sx, s.sy, s.sz,
           s.slen, s.N1, s.N2] for s in block] for block in series))


@_command("component densities at chosen times",
          *_PACKET, "t_unit", "grid_points", "times")
def cmd_density(cfg: RunConfig, params: PhysicalParams) -> list:
    unit_au = _time_unit_au(cfg, params)
    t_au = [_time_au("times", t, unit_au) for t in cfg.times or [0.0]]
    packet, energies = _packet_and_energies(cfg, params)
    grid = make_grid(params, packet.n_max, cfg.grid_points)
    table = radial_table(params, packet.n_min, packet.n_max, grid.r)
    rho1, rho2 = densities(packet, energies, table, t_au)
    return write_csv(
        [_out_path(cfg, "rwp_density.csv", f"_t{i}" if len(t_au) > 1 else "")
         for i in range(len(t_au))],
        ["r", "rho1", "rho2", "rho"],
        [[[table.r, row1, row2, row1 + row2]
          for row1, row2 in zip(rho1, rho2)]])


def _ascending(t_au: np.ndarray) -> np.ndarray:
    """A carpet's time axis, which draws one row per time in order: t_au
    itself if non-empty and strictly ascending, else InvalidRange."""
    if len(t_au) == 0 or np.any(np.diff(t_au) <= 0):
        raise InvalidRange("carpet times must be non-empty and strictly "
                           "ascending (t_max > 0 when samples > 1)")
    return t_au


@_command("space-time density grids (PGM or CSV)",
          *_PACKET, "t_max", "t_unit", "samples", "grid_points", "format")
def cmd_carpet(cfg: RunConfig, params: PhysicalParams) -> list:
    unit_au = _time_unit_au(cfg, params)
    t_au = _ascending(np.linspace(
        0.0, _time_au("t_max", cfg.t_max, unit_au), cfg.samples))
    packet, energies = _packet_and_energies(cfg, params)
    # images sample a uniform axis, so equal pixels hold equal widths of r
    r = np.linspace(0.0, outer_radius(params, packet.n_max), cfg.grid_points)
    table = radial_table(params, packet.n_min, packet.n_max, r)
    ext = os.path.splitext(cfg.out or "")[1].lower()
    fmt = cfg.format or ("pgm" if ext == ".pgm" else "csv")
    paths = [_out_path(cfg, f"rwp_carpet.{fmt}", f"_{name}")
             for name in ("rho1", "rho2")]
    if fmt == "pgm":  # one gray scale: the whole densities come first
        return write_pgm(paths, densities(packet, energies, table, t_au))
    header = ["t\\r", *_csv_block(table.r[None, :]).decode()
              .removesuffix("\r\n").split(",")]
    # the CSVs: one block of _BLOCK_ELEMENTS // R times at a time (R radii)
    return write_csv(paths, header, (
        [[t_au[rows] / unit_au, rho]
         for rho in densities(packet, energies, table, t_au[rows])]
        for rows in _blocks(len(t_au), len(r))))


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
    # The imports leave about 12,000 long-lived objects that the cyclic GC
    # would walk at every pass and at exit; frozen, it skips them.  CPU of
    # "python -c 'import rwp.cli'", median of 21 (2-core x86-64): 0.275 s,
    # 0.251 s frozen, 0.231 s with os._exit (which skips finalization).
    if argv is None:  # the program itself: no caller's objects to keep in view
        gc.freeze()
        if sys.platform == "linux":
            # keep freed memory for the next block of a long table: glibc's
            # trims refaulted fig 4 at 1,000,001 samples (877k faults, +40%)
            libc = ctypes.CDLL(None)
            libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
            libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    parser = build_parser()
    cli_args = vars(parser.parse_args(argv))
    command = cli_args.pop("command")
    try:
        cfg = merge_config(cli_args, parser)
        written = COMMANDS[command](cfg, PhysicalParams(Z=cfg.Z, l=cfg.l))
    except (RwpError, OSError, MemoryError) as exc:
        print(f"rwp: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # 128 + SIGINT, as a shell reports it
        print("rwp: interrupted", file=sys.stderr)
        return 130
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
