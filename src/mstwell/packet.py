"""Gaussian wave packet: spectral decomposition and validity diagnostics.

The initial state is a Gaussian centered at x_i < 0 moving to the right
with mean energy E_perp.  Its positive- and negative-momentum content maps
to forward/backward spectral amplitudes over E > 0; both are plain
Gaussians in u = sqrt(E) centered at +/- u_perp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc


@dataclass(frozen=True)
class PacketSpec:
    """Dimensionless Gaussian packet parameters."""

    e_perp_tilde: float
    sigma_tilde: float
    x_i_tilde: float
    t0_tilde: float = 0.0

    def __post_init__(self):
        if self.e_perp_tilde <= 0:
            raise ValueError("e_perp_tilde must be positive")
        if self.sigma_tilde <= 0:
            raise ValueError("sigma_tilde must be positive")
        if self.x_i_tilde >= 0:
            raise ValueError("x_i_tilde must be negative (packet starts left of the step)")

    @property
    def u_perp(self) -> float:
        return math.sqrt(self.e_perp_tilde)

    @property
    def localization_ratio(self) -> float:
        """|x_i| / (2 sigma); >> 1 means the packet tail at x=0 is negligible."""
        return abs(self.x_i_tilde) / (2.0 * self.sigma_tilde)

    @property
    def narrowband_ratio(self) -> float:
        """E_perp * sigma^2; >> 1 means backward components are negligible."""
        return self.e_perp_tilde * self.sigma_tilde ** 2


@dataclass(frozen=True)
class SpectralAmplitudes:
    """Forward/backward spectral weights psi_>(E), psi_<(E) as callables."""

    packet: PacketSpec

    def _common(self, e_tilde):
        e = np.asarray(e_tilde, dtype=float)
        u = np.sqrt(e)
        v = 2.0 * u
        return u, (2.0 * math.pi * self.packet.sigma_tilde ** 2) ** 0.25 / np.sqrt(
            math.pi * v
        )

    def psi_fwd(self, e_tilde):
        u, pref = self._common(e_tilde)
        p = self.packet
        return (
            pref
            * np.exp(1j * (p.u_perp - u) * p.x_i_tilde)
            * np.exp(-((p.u_perp - u) ** 2) * p.sigma_tilde ** 2)
        )

    def psi_bwd(self, e_tilde):
        u, pref = self._common(e_tilde)
        p = self.packet
        return (
            pref
            * np.exp(1j * (p.u_perp + u) * p.x_i_tilde)
            * np.exp(-((p.u_perp + u) ** 2) * p.sigma_tilde ** 2)
        )


def spectral_amplitudes(packet: PacketSpec) -> SpectralAmplitudes:
    return SpectralAmplitudes(packet)


def gaussian_weight(u, packet: PacketSpec, direction):
    """The bare Gaussian spectral weight in u = sqrt(E), per direction."""
    u = np.asarray(u, dtype=float)
    if direction == "forward":
        return np.exp(-((u - packet.u_perp) ** 2) * packet.sigma_tilde ** 2)
    if direction == "backward":
        return np.exp(-((u + packet.u_perp) ** 2) * packet.sigma_tilde ** 2)
    raise ValueError(f"unknown direction {direction!r}")


def cutoff_tail_mass(packet: PacketSpec) -> float:
    """Probability mass of the initial Gaussian on x > 0 (cut away by the setup)."""
    z = abs(packet.x_i_tilde) / (math.sqrt(2.0) * packet.sigma_tilde)
    return 0.5 * erfc(z)


def backward_peak_ratio(packet: PacketSpec) -> float:
    """|psi_<| / |psi_>| at the spectral peak E = E_perp."""
    return math.exp(-4.0 * packet.e_perp_tilde * packet.sigma_tilde ** 2)


def validity_report(packet: PacketSpec) -> dict:
    """Quantitative check of the quasiclassical assumptions behind the formulas."""
    return {
        "localization_ratio": packet.localization_ratio,
        "localization_ok": packet.localization_ratio >= 5.0,
        "narrowband_ratio": packet.narrowband_ratio,
        "narrowband_ok": packet.narrowband_ratio >= 10.0,
        "cutoff_tail_mass": cutoff_tail_mass(packet),
        "backward_peak_ratio": backward_peak_ratio(packet),
    }
