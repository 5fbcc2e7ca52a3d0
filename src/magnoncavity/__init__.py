"""Nanoscale magnonic cavities: mode spectra, spin coupling, and open-system dynamics."""

__version__ = "0.1.0"

from .constants import (CONSTANTS, ConfigError, Constants, DomainError,
                        NumericalError, field_to_tesla, tesla_to_field)
from .material import (MaterialParams, StaticFieldState, SusceptibilityTensor,
                       internal_field, state_from_internal, susceptibility)
from .modes import (CavityConfig, ModeTable, kittel_frequency, mode_field,
                    mode_frequency, mode_potential, mode_table)
from .spectral import (FieldSweepMap, SpectralGrid, field_sweep_map, omega_grid,
                       spectral_density, spectral_grid)
from .dynamics import (EmitterConfig, MemoryKernel, TimeSeries, build_kernel,
                       evolve_pseudomode, evolve_volterra,
                       extract_rabi_frequency, first_revival_time,
                       fit_decay_rate, max_stable_dt)
from .network import (TransferResult, TwoEmitterConfig, coupling_vs_separation_sweep,
                      dipole_dipole_coupling, dispersive_coupling, effective_coupling,
                      has_fast_ripples, symmetric_pair, transfer_dynamics)

__all__ = [
    "CONSTANTS", "Constants", "ConfigError", "DomainError", "NumericalError",
    "tesla_to_field", "field_to_tesla",
    "MaterialParams", "StaticFieldState", "SusceptibilityTensor",
    "internal_field", "state_from_internal", "susceptibility",
    "CavityConfig", "ModeTable", "kittel_frequency", "mode_field",
    "mode_frequency", "mode_potential", "mode_table",
    "FieldSweepMap", "SpectralGrid", "field_sweep_map", "omega_grid",
    "spectral_density", "spectral_grid",
    "EmitterConfig", "MemoryKernel", "TimeSeries", "build_kernel",
    "evolve_pseudomode", "evolve_volterra", "extract_rabi_frequency",
    "first_revival_time", "fit_decay_rate", "max_stable_dt",
    "TransferResult", "TwoEmitterConfig", "coupling_vs_separation_sweep",
    "dipole_dipole_coupling", "dispersive_coupling", "effective_coupling", "has_fast_ripples",
    "symmetric_pair", "transfer_dynamics",
]
