"""Gaussian wave packet: spectral decomposition and validity diagnostics.

The initial state is a Gaussian centered at x_i < 0 moving to the right
with mean energy E_perp.  Its positive- and negative-momentum content maps
to forward/backward spectral amplitudes psi_>(E), psi_<(E) over E > 0;
in u = sqrt(E) their moduli are plain Gaussians centered at +/- u_perp
(``gaussian_weight``) over a 1/sqrt(u) factor (``spectral_modulus``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def gaussian_weight(u, packet: PacketSpec, direction):
    """The bare Gaussian spectral weight in u = sqrt(E), per direction."""
    u = np.asarray(u, dtype=float)
    if direction == "forward":
        return np.exp(-((u - packet.u_perp) ** 2) * packet.sigma_tilde ** 2)
    if direction == "backward":
        return np.exp(-((u + packet.u_perp) ** 2) * packet.sigma_tilde ** 2)
    raise ValueError(f"unknown direction {direction!r}")


def spectral_modulus(u, packet: PacketSpec, direction):
    """|psi_>(E)| or |psi_<(E)| at E = u^2; the two squares carry unit mass in E."""
    u = np.asarray(u, dtype=float)
    scale = np.sqrt(packet.sigma_tilde / (math.sqrt(2.0 * math.pi) * u))
    return scale * gaussian_weight(u, packet, direction)


def cutoff_tail_mass(packet: PacketSpec) -> float:
    """Probability mass of the initial Gaussian on x > 0 (cut away by the setup)."""
    z = abs(packet.x_i_tilde) / (math.sqrt(2.0) * packet.sigma_tilde)
    return 0.5 * math.erfc(z)


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
