"""Material parameters of a saturated ferrimagnet and static-field bookkeeping.

A sphere of saturation magnetization Ms precesses about a static internal
field H0 e_z at rates set by gamma*mu0 (`MaterialParams.gamma_tilde`); the
magnon linewidth is a given Gamma or, with a Gilbert alpha, 2*alpha*gamma*mu0*H0.

For a uniformly magnetized sphere the demagnetization field is exactly
Hd = -Ms/3, so the internal field is H0 = He - Ms/3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import GAMMA, MU0, DomainError


@dataclass(frozen=True)
class MaterialParams:
    """Saturation magnetization, gyromagnetic ratio and damping.

    Ms     saturation magnetization, A/m
    gamma  gyromagnetic ratio, rad/s per T (positive)
    Gamma  phenomenological magnon linewidth, rad/s
    alpha  optional Gilbert parameter; when set, the linewidth is derived
           as Gamma = 2*alpha*gamma*mu0*H0 for the H0 at hand
    """

    Ms: float
    gamma: float = GAMMA
    Gamma: float = 0.0
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.Ms <= 0:
            raise DomainError("Ms must be positive")
        if self.gamma <= 0:
            raise DomainError("gamma must be positive")
        if self.Gamma < 0:
            raise DomainError("Gamma must be non-negative")
        if self.alpha is not None and self.alpha < 0:
            raise DomainError("alpha must be non-negative")

    @property
    def gamma_tilde(self) -> float:
        """gamma*mu0: converts an A/m field into a rad/s precession frequency."""
        return self.gamma * MU0

    def damping_rate(self, H0: float) -> float:
        """Linewidth Gamma for internal field H0 (recomputed from alpha if set)."""
        if self.alpha is not None:
            return 2.0 * self.alpha * self.gamma_tilde * H0
        return self.Gamma


@dataclass(frozen=True)
class StaticFieldState:
    """External, demagnetization and internal static fields (A/m, along z)."""

    He: float
    Hd: float
    H0: float


def internal_field(He: float, mat: MaterialParams) -> StaticFieldState:
    """Internal field of a saturated sphere: H0 = He - Ms/3.

    Raises DomainError if He <= Ms/3 (unsaturated regime, H0 would not be
    positive and the resonance denominator loses meaning).
    """
    Hd = -mat.Ms / 3.0
    H0 = He + Hd
    if H0 <= 0:
        raise DomainError(
            f"He = {He:g} A/m does not saturate the sphere: need He > Ms/3 "
            f"= {mat.Ms / 3.0:g} A/m for a positive internal field"
        )
    return StaticFieldState(He=He, Hd=Hd, H0=H0)


def state_from_internal(H0: float, mat: MaterialParams) -> StaticFieldState:
    """Back-compute He = H0 + Ms/3 from a quoted internal field H0 > 0."""
    if H0 <= 0:
        raise DomainError("H0 must be positive")
    return StaticFieldState(He=H0 + mat.Ms / 3.0, Hd=-mat.Ms / 3.0, H0=H0)

