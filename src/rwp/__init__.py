"""Spin-carrying radial Rydberg wave packets in hydrogenic ions.

Exact fine-structure evolution of Gaussian superpositions of hydrogenic
eigenstates, with the observables that exhibit spin-orbit entanglement:
component densities on a time axis, autocorrelation, spin expectation
values, component norms and characteristic time scales.

Names load on first use (PEP 562): ``import rwp`` imports no submodule and
no numpy, so ``rwp.cli`` can set up the environment before numpy loads.
``from rwp import X``, ``rwp.X`` and ``rwp.core`` work as for eager imports.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "core": ("ATOMIC_TIME_SECONDS", "FINE_STRUCTURE_CONST", "EnergyTable",
             "PhysicalParams", "TimeScales", "energy_splitting",
             "energy_table", "reduced_energy", "time_scales"),
    "errors": ("InvalidGridSpec", "InvalidRange", "InvalidQuantumNumbers",
               "NonNormalizedSpinor", "RangeMismatch", "RwpError",
               "SupercriticalCharge"),
    "observables": ("ObservableSeries", "densities", "observable_series",
                    "spin_expectations"),
    "packet": ("N_LIMIT", "Packet", "PacketSpec", "SpinorAmplitudes",
               "amplitudes_at", "build_packet", "truncation_bounds"),
    "radial": ("RadialGrid", "RadialTable", "make_grid", "outer_radius",
               "radial_table"),
}
_SUBMODULE_OF = {name: module
                 for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_SUBMODULE_OF]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name in _SUBMODULE_OF:
        module = _import_module(f".{_SUBMODULE_OF[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
