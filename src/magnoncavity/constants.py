"""Physical constants and the unit policy shared by every other module.

Internal unit system is SI throughout:

    angular frequency  rad/s
    magnetic field H   A/m   (convert from Tesla via muH / mu0)
    length             m

CLI-facing outputs quote omega/(2pi) in GHz, times in ns/us, and mode
volumes in mm^3 (1 m^3 = 1e9 mm^3), because experimental working points
are quoted that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class DomainError(ValueError):
    """Input outside the physically meaningful domain of an operation."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or lost resolution."""


TWO_PI = 2.0 * math.pi

# Unit-policy conversion factors.
M3_TO_MM3 = 1e9
NM = 1e-9
US = 1e-6
GHZ = 1e9

# Size budget: at most this many values, 16 bytes each (160 MB), in one
# propagation's state (samples x state width) or one grid an experiment builds.
MAX_STATE_VALUES = 10_000_000


def check_budget(values: float, what: str) -> None:
    """ConfigError unless `values` (a count known before allocating) fits the budget."""
    if not values <= MAX_STATE_VALUES:
        raise ConfigError(f"{what} exceed the budget of {MAX_STATE_VALUES:g} values")


@dataclass(frozen=True)
class Constants:
    """Immutable physical constants.

    The gyromagnetic ratio is stored as gamma/(2pi) in GHz/T and exposed
    both ways; it is defined as a positive quantity.
    """

    mu0: float = 4e-7 * math.pi          # T·m/A
    muB: float = 9.2740100783e-24        # J/T
    hbar: float = 1.054571817e-34        # J·s
    gamma_over_2pi_GHz_per_T: float = 28.0

    def __post_init__(self) -> None:
        if self.gamma_over_2pi_GHz_per_T <= 0:
            raise DomainError("gyromagnetic ratio must be positive")
        for name in ("mu0", "muB", "hbar"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")

    @property
    def gamma(self) -> float:
        """Gyromagnetic ratio in rad/s per Tesla."""
        return TWO_PI * self.gamma_over_2pi_GHz_per_T * GHZ


CONSTANTS = Constants()


def tesla_to_field(muH: float) -> float:
    """Convert a magnetic induction mu0*H (T) into a field H (A/m)."""
    if not math.isfinite(muH):
        raise DomainError(f"non-finite magnetic induction: {muH!r}")
    return muH / CONSTANTS.mu0


def GHz_to_rad_per_s(f_GHz: float) -> float:
    """Ordinary frequency in GHz -> angular frequency (rad/s)."""
    return f_GHz * GHZ * TWO_PI
