"""Nanoscale magnonic cavities: mode spectra, spin coupling, and open-system dynamics.

Exported: each experiment's library call and its inputs; other helpers stay in their modules.
"""

__version__ = "0.1.0"

from .constants import CONSTANTS, ConfigError, DomainError, NumericalError, tesla_to_field
from .material import MaterialParams, internal_field, state_from_internal
from .modes import CavityConfig, kittel_frequency, mode_table
from .spectral import field_sweep_map, spectral_grid
from .dynamics import EmitterConfig, build_kernel, decay_populations
from .network import coupling_vs_separation_sweep, symmetric_pair, transfer_populations

__all__ = [
    "mode_table", "spectral_grid", "field_sweep_map", "build_kernel", "decay_populations",
    "symmetric_pair", "transfer_populations", "coupling_vs_separation_sweep",
    "CavityConfig", "MaterialParams", "EmitterConfig", "state_from_internal", "internal_field",
    "tesla_to_field", "kittel_frequency", "CONSTANTS", "ConfigError", "DomainError",
    "NumericalError",
]
