"""Dwell time in the profile region: energy densities, totals, and limits.

The time spent between the two steps splits into forward, backward, and
interference contributions of the packet's spectral content, weighted by
m_>^2, m_<^2 and m_> m_< e^{-2iu x_i} with m = ``spectral_modulus``.  The
inner wave is written once, from the exit side: with T = psi(1),
psi(x) = T [C(1 - x) - i k_d S(1 - x)], C(s) = cos(k_u s) and
S(s) = sin(k_u s)/k_u.  C and S are real for real or imaginary k_u, so
their x integrals are real entire functions of k_u^2 = E - U, and one
expression per quantity covers every regime and both branch points.  For
k_u = i kappa the integrals' e^{2 kappa} growth is folded into |T|^2's
e^{-2 kappa} decay, so deep barriers stay finite.  The packet dwell is one
vector integral over u = sqrt(E): one ``spectral_rule`` over the hull of
the forward and backward windows refines the forward, backward and
interference densities together, with one exit-side evaluation per node
for all three.

All times are in units of t_d; "relative" dwell values are normalized by
the free flight time d / v(E_perp) = 1 / (2 sqrt(E_perp)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import PotentialSpec
from .packet import PacketSpec, spectral_modulus
from .quadrature import QuadratureSpec, spectral_rule, window_spec
from .scattering import amplitude_denominator, region_waves, wave_at

# Taylor coefficients of g(z) = (z - sin z)/z^3 in w = -z^2, highest power
# first, to 1e-17 at |z| = 1
_G_SERIES = [1.0 / math.factorial(2 * n + 3) for n in range(8, -1, -1)]


def _g(z):
    """(z - sin z)/z^3, by its series where it cancels (|z| < 1)."""
    small = np.abs(z) < 1.0
    zs = np.where(small, 1.0, z)
    series = np.polyval(_G_SERIES, -z * z)
    return np.where(small, series, (zs - np.sin(zs)) / zs**3)


def _exit_side(u, potential: PotentialSpec):
    """(a, k_d, cc, ss, cs) at E = u^2 (vectorized).

    a = e^{i Re k_u} / d = T e^{Im k_u} / (2u), and cc, ss, cs are the
    integrals over 0 < s < 1 of C^2, S^2 and C S times e^{-2 Im k_u}.  For
    real k_u nothing is scaled; for k_u = i kappa the integrals' e^{2 kappa}
    growth and |T|^2's e^{-2 kappa} decay cancel analytically, so deep
    barriers stay finite.
    """
    _, ku, kd, _, _, d = amplitude_denominator(u * u, potential)
    a = np.exp(1j * ku.real) / d
    kappa = ku.imag
    evanescent = kappa > 0
    # propagating (or k_u = 0): the plain integrals, entire in k_u^2
    kp = np.where(evanescent, 0.0, ku.real)
    cc = 0.5 * (1.0 + np.sinc(2.0 * kp / np.pi))
    ss = 2.0 * _g(2.0 * kp)
    cs = 0.5 * np.sinc(kp / np.pi) ** 2
    if np.any(evanescent):
        # with decay = e^{-2 kappa} and h = e^{-kappa} sinh(kappa)/kappa = (1 - decay)/(2 kappa)
        k = np.where(evanescent, kappa, 1.0)
        decay = np.exp(-2.0 * k)
        h = -np.expm1(-2.0 * k) / (2.0 * k)
        # e^{-2k} (sinh 2k - 2k)/(4k^3) cancels for 2k < 1, where the series of g serves
        ss_e = np.where(
            k < 0.5,
            2.0 * decay * np.polyval(_G_SERIES, 4.0 * k * k),
            (h * (1.0 + decay) - 2.0 * decay) / (4.0 * k * k),
        )
        cc = np.where(evanescent, 0.5 * decay + 0.25 * h * (1.0 + decay), cc)
        ss = np.where(evanescent, ss_e, ss)
        cs = np.where(evanescent, 0.5 * h * h, cs)
    return a, kd, cc, ss, cs


def _inner_densities(u, potential: PotentialSpec):
    """(t, K) at E = u^2 from one exit-side evaluation (vectorized).

    t(E) = Int_0^1 |psi_u(x)|^2 dx / (2u) is Buttiker's dwell time and
    K(E) = Int_0^1 psi_u(x)^2 dx / (2u) weights psi_> psi_<*.
    """
    a, kd, cc, ss, cs = _exit_side(u, potential)
    t_of_e = 2.0 * u * np.abs(a) ** 2 * (cc + np.abs(kd) ** 2 * ss + 2.0 * kd.imag * cs)
    kernel = 2.0 * u * a * a * (cc - kd * kd * ss - 2j * kd * cs)
    return t_of_e, kernel


def dwell_energy_density(e_tilde, potential: PotentialSpec) -> dict:
    """Per-energy dwell time t(E;d) and the bare interference kernel."""
    t_of_e, kernel = _inner_densities(np.sqrt(np.atleast_1d(float(e_tilde))), potential)
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


@dataclass
class DwellBreakdown:
    tau_fwd: float
    tau_bwd: float
    tau_interference: float
    tau_total: float
    converged: bool  # each component met its own quadrature target


def _dwell_densities(u, packet: PacketSpec, potential: PotentialSpec):
    """(forward, backward, interference) densities per unit u, shape (len(u), 3).

    t(E) m_>^2, t(E) m_<^2 and 2 Re[K(E) m_> m_< e^{-2iu x_i}] per unit E,
    times dE/du = 2u.
    """
    t_of_e, kernel = _inner_densities(u, potential)
    m_fwd = spectral_modulus(u, packet, "forward")
    m_bwd = spectral_modulus(u, packet, "backward")
    wave = np.exp(-2j * u * packet.x_i_tilde)
    interference = 2.0 * np.real(kernel * m_fwd * m_bwd * wave)
    return 2.0 * u[:, None] * np.stack(
        [t_of_e * m_fwd**2, t_of_e * m_bwd**2, interference], axis=-1
    )


def dwell_total(
    packet: PacketSpec,
    potential: PotentialSpec,
    quad: QuadratureSpec | None = None,
) -> DwellBreakdown:
    """Integrate the three dwell components over the packet's spectrum.

    One rule over the hull of the forward and backward windows, seeded at
    the interference term's phase rate 2|x_i|, refines the three
    components as one vector integrand: each node costs one exit-side
    evaluation, and each component meets its own target.  The window is
    cut to the tolerance as ``evolve`` cuts it (``window_spec``); the
    densities carry the squared weights, so W/(sigma sqrt 2) keeps the tail
    e^{-W^2}.
    """
    spec = window_spec(quad or QuadratureSpec(), packet, "both")
    rule = spectral_rule(
        packet, "both", potential.branch_energies(), 0.0,
        2.0 * abs(packet.x_i_tilde), replace(spec, window_w=spec.window_w / math.sqrt(2.0)),
    )
    res = rule.refine_against(lambda u: _dwell_densities(u, packet, potential))
    fwd, bwd, interference = (float(v) for v in res.value.real)
    return DwellBreakdown(
        tau_fwd=fwd,
        tau_bwd=bwd,
        tau_interference=interference,
        tau_total=fwd + bwd + interference,
        converged=res.converged,
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
    return float(_inner_densities(np.sqrt(np.atleast_1d(float(e_perp_tilde))), potential)[0][0])


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
