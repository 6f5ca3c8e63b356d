"""Spin-carrying radial Rydberg wave packets in hydrogenic ions.

Exact fine-structure evolution of Gaussian superpositions of hydrogenic
eigenstates, with the observables that exhibit spin-orbit entanglement:
component densities on a time axis, autocorrelation, spin expectation
values, component norms and characteristic time scales.
"""

from .core import (ATOMIC_TIME_SECONDS, FINE_STRUCTURE_CONST, EnergyTable,
                   PhysicalParams, TimeScales, energy_splitting, energy_table,
                   reduced_energy, time_scales)
from .errors import (EmptyWindow, InvalidGridSpec, InvalidRange,
                     InvalidQuantumNumbers, LengthMismatch,
                     NonNormalizedSpinor, RangeMismatch, RwpError,
                     SupercriticalCharge)
from .observables import (ObservableSeries, densities, detect_revivals,
                          observable_series, spin_expectations)
from .packet import (N_LIMIT, Packet, PacketSpec, SpinorAmplitudes,
                     amplitudes_at, build_packet, truncation_bounds)
from .radial import (RadialGrid, RadialTable, inner_product, make_grid,
                     outer_radius, radial_table)

__version__ = "0.1.0"
