"""Dwell time in the profile region: energy densities, totals, and limits.

The time spent between the two steps splits into forward, backward, and
interference contributions of the packet's spectral content.  The x
integrals over the inner region are done in closed form (they are sums of
exponentials); the remaining energy integrals go through the shared
spectral quadrature.  One complex-analytic expression per quantity covers
all regimes (over-barrier, tunneling, sub-threshold), so the printed
regime-by-regime variants become test assertions instead of code paths.

All times are in units of t_d; "relative" dwell values are normalized by
the free flight time d / v(E_perp) = 1 / (2 sqrt(E_perp)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PotentialSpec, branch_sqrt
from .packet import PacketSpec
from .quadrature import OSC_ALLOWANCE, QuadratureSpec, integrate_spectral
from .scattering import region_waves, wave_at


def _expi_ratio(c):
    """(e^c - 1)/c for complex arrays, stable near c = 0."""
    c = np.asarray(c, dtype=complex)
    small = np.abs(c) < 1e-8
    safe = np.where(small, 1.0, c)
    out = (np.exp(safe) - 1.0) / safe
    series = 1.0 + c / 2.0 + c * c / 6.0
    return np.where(small, series, out)


def _inner_pieces(e_tilde, potential: PotentialSpec):
    """Closed x-integrated quantities at energy e (vectorized).

    Returns (t_of_e, kernel):
      t_of_e  = Int_0^1 |psi_u(x)|^2 dx / (2u)   (a time)
      kernel  = Int_0^1 psi_u(x)^2 dx / (2u)     (complex, weights psi_> psi_<*)
    with psi_u the inner region wave; each term of |psi_u|^2 and psi_u^2 is
    one exponential, integrated over 0 < x < 1 in closed form.
    """
    u = np.sqrt(np.asarray(e_tilde, dtype=float))
    a, b, th, _ = region_waves("inside", u, potential)
    decay = 1j * (th - np.conj(th))
    abs_psi2 = (
        np.abs(a) ** 2 * _expi_ratio(decay)
        + np.abs(b) ** 2 * _expi_ratio(-decay)
        + 2.0 * np.real(a * np.conj(b) * _expi_ratio(1j * (th + np.conj(th))))
    )
    psi2 = a * a * _expi_ratio(2j * th) + b * b * _expi_ratio(-2j * th) + 2.0 * a * b
    return np.real(abs_psi2) / (2.0 * u), psi2 / (2.0 * u)


def dwell_energy_density(e_tilde, potential: PotentialSpec) -> dict:
    """Per-energy dwell time t(E;d) and the bare interference kernel."""
    t_of_e, kernel = _inner_pieces(np.atleast_1d(float(e_tilde)), potential)
    return {"t_of_E": float(t_of_e[0]), "interference_kernel": complex(kernel[0])}


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


def _spectral_density(u, packet: PacketSpec, direction):
    """|psi_>(E)|^2 or |psi_<(E)|^2 in dimensionless form, as a function of u."""
    p = packet
    sign = -1.0 if direction == "forward" else 1.0
    return (
        p.sigma_tilde
        / (math.sqrt(2.0 * math.pi) * u)
        * np.exp(-2.0 * (u + sign * p.u_perp) ** 2 * p.sigma_tilde ** 2)
    )


@dataclass
class DwellBreakdown:
    tau_fwd: float
    tau_bwd: float
    tau_interference: float
    tau_total: float
    energy_density: dict
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

    def f_fwd(e):
        t_of_e, _ = _inner_pieces(e, potential)
        return t_of_e * _spectral_density(np.sqrt(e), packet, "forward")

    def f_bwd(e):
        t_of_e, _ = _inner_pieces(e, potential)
        return t_of_e * _spectral_density(np.sqrt(e), packet, "backward")

    def cross(u):
        """psi_>(E) psi_<(E)* in dimensionless form, as a function of u."""
        p = packet
        return (
            p.sigma_tilde
            / (math.sqrt(2.0 * math.pi) * u)
            * np.exp(-2j * u * p.x_i_tilde)
            * np.exp(-((u - p.u_perp) ** 2) * p.sigma_tilde ** 2)
            * np.exp(-((u + p.u_perp) ** 2) * p.sigma_tilde ** 2)
        )

    def f_int(e):
        _, kernel = _inner_pieces(e, potential)
        return 2.0 * np.real(kernel * cross(np.sqrt(e)))

    r_fwd = integrate_spectral(
        f_fwd, packet, 0.0, OSC_ALLOWANCE, branch, quad, direction="forward"
    )
    r_bwd = integrate_spectral(
        f_bwd, packet, 0.0, OSC_ALLOWANCE, branch, quad, direction="backward"
    )
    r_int = integrate_spectral(
        f_int, packet, 0.0, 2.0 * abs(packet.x_i_tilde) + OSC_ALLOWANCE, branch, quad,
        direction="backward",
    )

    tau_fwd = float(np.real(r_fwd.value))
    tau_bwd = float(np.real(r_bwd.value))
    tau_int = float(np.real(r_int.value))

    u_hi = packet.u_perp + quad.window_w / packet.sigma_tilde
    u_tab = np.linspace(1e-3, u_hi, 512)
    e_tab = u_tab * u_tab
    t_tab, k_tab = _inner_pieces(e_tab, potential)
    energy_density = {
        "e_tilde": e_tab,
        "fwd": t_tab * _spectral_density(u_tab, packet, "forward"),
        "bwd": t_tab * _spectral_density(u_tab, packet, "backward"),
        "interference": 2.0 * np.real(k_tab * cross(u_tab)),
    }

    return DwellBreakdown(
        tau_fwd=tau_fwd,
        tau_bwd=tau_bwd,
        tau_interference=tau_int,
        tau_total=tau_fwd + tau_bwd + tau_int,
        energy_density=energy_density,
        converged=r_fwd.converged and r_bwd.converged and r_int.converged,
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
    """Narrowband-limit dwell time over the free flight time, one master form.

    Valid on both sides of E_perp = U (the sinh regime emerges from the
    branch rule) and continuous across it.
    """
    e = float(e_perp_tilde)
    u_t = potential.u_tilde
    d_t = potential.delta_tilde
    ku = branch_sqrt(e - u_t)[()]
    sq_e = math.sqrt(e)
    sq_d = branch_sqrt(e - d_t)[()]
    if abs(ku) < 1e-7:
        # turning point: take the analytic limit of the master expression
        return float(np.real(
            4.0 * e * (1.0 + u_t / 3.0) / ((sq_e + sq_d) ** 2 + u_t * (u_t - d_t))
        ))
    num = 2.0 * ku * (2.0 * e - u_t - d_t) - (u_t - d_t) * np.sin(2.0 * ku)
    den = (sq_e + sq_d) ** 2 * (e - u_t) + u_t * (u_t - d_t) * np.sin(ku) ** 2
    return float(np.real(e / ku * num / den))


def dwell_asymptotic(e_perp_tilde, potential: PotentialSpec) -> float:
    """Narrowband-limit dwell time (units of t_d)."""
    return relative_dwell_asymptotic(e_perp_tilde, potential) / (
        2.0 * math.sqrt(float(e_perp_tilde))
    )


def relative_dwell_turning_point(e_perp_tilde, potential: PotentialSpec) -> float:
    """Quoted turning-point closed form for the relative dwell at E_perp = U.

    Note: the master expression's actual E_perp -> U limit carries an extra
    factor (1 + U/3) relative to this form; see the regression test pinning
    the measured ratio.  This function reproduces the quoted value.
    """
    e = float(e_perp_tilde)
    d_t = potential.delta_tilde
    u_t = potential.u_tilde
    sq_d = math.sqrt(e - d_t)
    return 4.0 * e / ((math.sqrt(e) + sq_d) ** 2 + u_t * (u_t - d_t))
