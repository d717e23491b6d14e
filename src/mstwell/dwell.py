"""Dwell time in the profile region: energy densities, totals, and limits.

The time spent between the two steps splits into forward, backward, and
interference contributions of the packet's spectral content, weighted by
m_>^2, m_<^2 and m_> m_< e^{-2iu x_i} with m = ``spectral_modulus``.  The
inner wave is written once, from the exit side: with T = psi(1),
psi(x) = T [C(1 - x) - i k_d S(1 - x)], C(s) = cos(k_u s) and
S(s) = sin(k_u s)/k_u.  C and S are real for real or imaginary k_u, so
their x integrals are real entire functions of k_u^2 = E - U, and one
expression per quantity covers every regime and both branch points.  The
energy integrals run over u = sqrt(E) on ``spectral_rule``.

All times are in units of t_d; "relative" dwell values are normalized by
the free flight time d / v(E_perp) = 1 / (2 sqrt(E_perp)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PotentialSpec, branch_sqrt
from .packet import PacketSpec, spectral_modulus
from .quadrature import QuadratureSpec, spectral_rule
from .scattering import amplitude_table, region_waves, wave_at

# Taylor coefficients of g(z) = (z - sin z)/z^3 in w = -z^2, highest power
# first, to 1e-17 at |z| = 1
_G_SERIES = [1.0 / math.factorial(2 * n + 3) for n in range(8, -1, -1)]


def _g(z):
    """(z - sin z)/z^3 for complex z, by its series where it cancels (|z| < 1)."""
    small = np.abs(z) < 1.0
    zs = np.where(small, 1.0, z)
    series = np.polyval(_G_SERIES, -z * z)
    return np.where(small, series, (zs - np.sin(zs)) / zs**3)


def _exit_side(u, potential: PotentialSpec):
    """(a, k_d, cc, ss, cs) at E = u^2: a = T / (2u) = e^{i k_u} / d and the
    integrals over 0 < s < 1 of C^2, S^2 and C S (vectorized)."""
    e = u * u
    ku = branch_sqrt(e - potential.u_tilde)
    kd = branch_sqrt(e - potential.delta_tilde)
    a = np.exp(1j * ku) / amplitude_table(e, potential)[4]
    cc = 0.5 * (1.0 + np.sinc(2.0 * ku / np.pi).real)
    ss = 2.0 * _g(2.0 * ku).real
    cs = 0.5 * np.sinc(ku / np.pi).real ** 2
    return a, kd, cc, ss, cs


def _dwell_time(u, potential: PotentialSpec):
    """Buttiker's dwell time t(E) = Int_0^1 |psi_u(x)|^2 dx / (2u) at E = u^2."""
    a, kd, cc, ss, cs = _exit_side(u, potential)
    return 2.0 * u * np.abs(a) ** 2 * (cc + np.abs(kd) ** 2 * ss + 2.0 * kd.imag * cs)


def _interference_kernel(u, potential: PotentialSpec):
    """Int_0^1 psi_u(x)^2 dx / (2u) at E = u^2, which weights psi_> psi_<*."""
    a, kd, cc, ss, cs = _exit_side(u, potential)
    return 2.0 * u * a * a * (cc - kd * kd * ss - 2j * kd * cs)


def dwell_energy_density(e_tilde, potential: PotentialSpec) -> dict:
    """Per-energy dwell time t(E;d) and the bare interference kernel."""
    t_of_e = dwell_asymptotic(e_tilde, potential)
    kernel = _interference_kernel(np.sqrt(np.atleast_1d(float(e_tilde))), potential)
    return {"t_of_E": t_of_e, "interference_kernel": complex(kernel[0])}


def inner_integrals_brute(e_tilde, potential: PotentialSpec, n=400):
    """Direct x-quadrature of the inner-region integrals (validation path)."""
    u = math.sqrt(float(e_tilde))
    nodes, weights = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    psi = wave_at(region_waves("inside", u, potential), x)
    t_of_e = float(np.sum(w * np.abs(psi) ** 2) / (2.0 * u))
    kernel = complex(np.sum(w * psi * psi) / (2.0 * u))
    return t_of_e, kernel


@dataclass
class DwellBreakdown:
    tau_fwd: float
    tau_bwd: float
    tau_interference: float
    tau_total: float
    converged: bool  # all three energy integrals met the quadrature target


def dwell_total(
    packet: PacketSpec,
    potential: PotentialSpec,
    quad: QuadratureSpec | None = None,
) -> DwellBreakdown:
    """Integrate the three dwell components over the packet's spectrum."""
    if quad is None:
        quad = QuadratureSpec()
    branch = potential.branch_energies()

    def interference(u):
        m_m = spectral_modulus(u, packet, "forward") * spectral_modulus(u, packet, "backward")
        weight = m_m * np.exp(-2j * u * packet.x_i_tilde)
        return 2.0 * np.real(_interference_kernel(u, potential) * weight)

    def diagonal(direction):
        return lambda u: _dwell_time(u, potential) * spectral_modulus(u, packet, direction) ** 2

    # component: (spectral window, x-driven phase rate, density per unit E)
    components = {
        "fwd": ("forward", 0.0, diagonal("forward")),
        "bwd": ("backward", 0.0, diagonal("backward")),
        "interference": ("backward", 2.0 * abs(packet.x_i_tilde), interference),
    }
    tau = {}
    converged = True
    for name, (direction, x_span, dens) in components.items():
        rule = spectral_rule(packet, direction, branch, 0.0, x_span, quad)
        res = rule.refine_against(lambda u, dens=dens: 2.0 * u * dens(u))
        tau[name] = float(np.real(res.value))
        converged = converged and res.converged

    return DwellBreakdown(
        tau_fwd=tau["fwd"],
        tau_bwd=tau["bwd"],
        tau_interference=tau["interference"],
        tau_total=tau["fwd"] + tau["bwd"] + tau["interference"],
        converged=converged,
    )


@dataclass(frozen=True)
class ResonantDwell:
    time: float
    relative: float
    n: int


def dwell_resonant(e_tilde, potential: PotentialSpec) -> ResonantDwell:
    """Closed form at a transmission resonance k_u d = n pi.

    Raises for non-resonant input, reporting the nearest resonance energy.
    """
    e = float(e_tilde)
    diff = e - potential.u_tilde
    if diff <= 0:
        raise ValueError("resonances require a propagating inner channel (E > U)")
    if e <= potential.delta_tilde:
        raise ValueError("resonances require an open exit channel (E > Delta)")
    ku = math.sqrt(diff)
    n = max(1, round(ku / math.pi))
    if abs(ku - n * math.pi) > 1e-9 * max(1.0, ku):
        nearest = potential.u_tilde + (math.pi * n) ** 2
        raise ValueError(
            f"E={e} is not resonant; nearest resonance (n={n}) at E={nearest}"
        )
    d_t = potential.delta_tilde
    relative = (
        2.0 * e * (2.0 * e - potential.u_tilde - d_t)
        / ((math.sqrt(e) + math.sqrt(e - d_t)) ** 2 * diff)
    )
    return ResonantDwell(time=relative / (2.0 * math.sqrt(e)), relative=relative, n=n)


def relative_dwell_asymptotic(e_perp_tilde, potential: PotentialSpec) -> float:
    """Narrowband-limit dwell time over the free flight time, 2 sqrt(E) t(E).

    Equals the printed master expression where the exit channel is open
    (E > Delta, tested), not below that threshold.
    """
    e = float(e_perp_tilde)
    return 2.0 * math.sqrt(e) * dwell_asymptotic(e, potential)


def dwell_asymptotic(e_perp_tilde, potential: PotentialSpec) -> float:
    """Narrowband-limit dwell time (units of t_d): Buttiker's t(E_perp)."""
    return float(_dwell_time(np.sqrt(np.atleast_1d(float(e_perp_tilde))), potential)[0])


def relative_dwell_turning_point(e_perp_tilde, potential: PotentialSpec) -> float:
    """Quoted turning-point closed form for the relative dwell at E_perp = U.

    Note: the actual E_perp -> U limit of the relative dwell carries an
    extra factor (1 + (U - Delta)/3) relative to this form; see the
    regression test pinning the measured ratio.  This function reproduces
    the quoted value.
    """
    e = float(e_perp_tilde)
    d_t = potential.delta_tilde
    u_t = potential.u_tilde
    sq_d = math.sqrt(e - d_t)
    return 4.0 * e / ((math.sqrt(e) + sq_d) ** 2 + u_t * (u_t - d_t))
