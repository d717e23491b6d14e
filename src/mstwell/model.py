"""Potential description and branch-aware wave numbers.

Everything is dimensionless: lengths in units of the potential width d,
energies in E_d = hbar^2 / (2 m d^2), times in t_d = hbar / E_d.

In these units hbar = 1 and the effective mass is 1/2, so a channel with
dimensionless energy e above a flat potential level v has wave number
k = sqrt(e - v) and velocity 2 k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PotentialSpec:
    """Two-step rectangular profile: 0 for x<0, u_tilde on (0,1), delta_tilde beyond.

    ``u_tilde`` may have either sign (barrier or well); ``delta_tilde >= 0``.
    """

    u_tilde: float
    delta_tilde: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.u_tilde):
            raise ValueError("u_tilde must be finite")
        if not np.isfinite(self.delta_tilde) or self.delta_tilde < 0:
            raise ValueError("delta_tilde must be finite and >= 0")

    def branch_energies(self):
        """Energies where a channel wave number touches zero (quadrature split points)."""
        pts = []
        if self.u_tilde > 0:
            pts.append(self.u_tilde)
        if self.delta_tilde > 0:
            pts.append(self.delta_tilde)
        return sorted(set(pts))


def branch_sqrt(z):
    """Vectorized sqrt with the retarded (+i0) branch for real arguments.

    Channel wave numbers k = branch_sqrt(e - v) have Im(k) >= 0: real
    positive when propagating, purely imaginary positive when evanescent,
    and 0 at the branch point e == v, where energy integrals split panels.
    """
    return np.sqrt(np.asarray(z, dtype=np.complex128) + 0j)

