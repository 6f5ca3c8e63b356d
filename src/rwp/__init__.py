"""Spin-carrying radial Rydberg wave packets in hydrogenic ions.

Exact fine-structure evolution of Gaussian superpositions of hydrogenic
eigenstates, with the observables that exhibit spin-orbit entanglement:
component densities on a time axis, autocorrelation, spin expectation
values, component norms and characteristic time scales.
"""

from .core import (ATOMIC_TIME_SECONDS, FINE_STRUCTURE_CONST, EnergyTable,
                   PhysicalParams, TimeScales, dirac_energy, energy_splitting,
                   energy_table, reduced_energy, t_ls, t_ls2, time_scale_k,
                   time_scales)
from .errors import (EmptyRange, EmptyWindow, InvalidGridSpec, InvalidRange,
                     InvalidQuantumNumbers, LengthMismatch,
                     NonNormalizedSpinor, RangeMismatch, RwpError,
                     SupercriticalCharge, UnsupportedOrder)
from .observables import (ObservableSeries, autocorrelation, component_norms,
                          densities, detect_revivals, observable_series,
                          spin_expectations, spin_length)
from .packet import (N_LIMIT, Packet, PacketSpec, SpinorAmplitudes,
                     amplitudes_at, build_packet, gaussian_weights,
                     truncation_bounds)
from .radial import (RadialGrid, RadialTable, inner_product, make_grid,
                     outer_radius, radial_eval, radial_table)

__version__ = "0.1.0"
