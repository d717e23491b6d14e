"""Time evolution of the Gaussian packet against the two-step profile.

The wave function is assembled region by region from six spectral
integrals: forward and backward components in each of the three regions.
All six share the window machinery of the quadrature module; within one
(region, time, direction) triple the integrand is the region wave
c_in(u) e^{i theta(u) xi} + c_out(u) e^{-i theta(u) xi}, xi = x - x_offset,
with x-independent amplitude arrays, so the panel set is refined once
against a worst-phase probe point and then reused for every x as a
weighted sum that costs one complex exponential per (x, node).  That keeps
dense space-time grids (needed for norm checks and the grid-solver
comparison) tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import PotentialSpec
from .packet import PacketSpec, gaussian_weight
from .quadrature import QuadratureError, QuadratureSpec, spectral_rule
from .scattering import region_of, region_waves, wave_at

_X_CHUNK = 512


def packet_prefactor(packet: PacketSpec) -> complex:
    """Common prefactor of all six integrals, including the global phase."""
    return (
        math.sqrt(packet.sigma_tilde)
        / (math.sqrt(2.0) * (2.0 * math.pi) ** 0.75)
        * np.exp(1j * packet.u_perp * packet.x_i_tilde)
    )


@dataclass
class DensityDecomposition:
    total: np.ndarray
    fwd: np.ndarray
    bwd: np.ndarray
    interference: np.ndarray


@dataclass
class WaveField:
    """Sampled forward/backward wave-function components on a space-time grid."""

    x_grid: np.ndarray
    t_grid: np.ndarray
    psi_fwd: np.ndarray  # shape (nt, nx)
    psi_bwd: np.ndarray
    error_estimate: np.ndarray
    converged: np.ndarray

    @property
    def density(self) -> np.ndarray:
        return np.abs(self.psi_fwd + self.psi_bwd) ** 2


def density(field: WaveField) -> DensityDecomposition:
    """Three-term split: |psi|^2 = fwd + bwd + interference, pointwise."""
    fwd = np.abs(field.psi_fwd) ** 2
    bwd = np.abs(field.psi_bwd) ** 2
    interference = 2.0 * np.real(field.psi_fwd * np.conj(field.psi_bwd))
    return DensityDecomposition(fwd + bwd + interference, fwd, bwd, interference)


def _region_masks(x):
    return {
        "left": x < 0.0,
        "inside": (x >= 0.0) & (x <= 1.0),
        "right": x > 1.0,
    }


def _region_coeffs(region, direction, u, tau, packet: PacketSpec, potential: PotentialSpec):
    """x-independent integrand pieces: (c_in, c_out, theta, x_offset).

    The region wave of ``region_waves`` (conjugated for the backward
    direction) times the Gaussian weight, the x_i phase, the time phase and
    the u-substitution Jacobian; evaluate at x with ``wave_at``.
    """
    c_in, c_out, theta, xoff = region_waves(region, u, potential)
    weight = gaussian_weight(u, packet, direction)
    if direction == "forward":
        phase_i = np.exp(-1j * u * packet.x_i_tilde)
    else:
        c_in, theta = np.conj(c_in), -np.conj(theta)
        c_out = None if c_out is None else np.conj(c_out)
        phase_i = np.exp(1j * u * packet.x_i_tilde)
    base = 2.0 * np.exp(-1j * u * u * tau) * weight * phase_i  # 2u du / u = 2 du
    return base * c_in, None if c_out is None else base * c_out, theta, xoff


def _x_phase_span(region, x_abs_max, packet):
    """Bound on the x-driven phase rate, for panel sizing."""
    if region == "left":
        reach = x_abs_max
    elif region == "inside":
        reach = 1.0
    else:
        reach = x_abs_max - 1.0
    return reach + abs(packet.x_i_tilde)


def _probe_spec(spec, packet):
    """Quadrature spec for per-point probes with an absolute-scale floor.

    Pointwise values far from the packet are absolutely tiny; demanding a
    relative target there explodes the panel count for no gain.  The floor
    ties the absolute tolerance to the natural scale of the raw integral,
    so pointwise psi errors stay below rel_tol times the packet peak.
    """
    scale = (2.0 * math.pi * packet.sigma_tilde ** 2) ** -0.25 / abs(
        packet_prefactor(packet)
    )
    return replace(spec, abs_tol=max(spec.abs_tol, spec.rel_tol * scale))


def _refined_rule(region, direction, x_probe, x_abs_max, tau, packet, potential, spec):
    """Rule of one (region, direction, time) component, refined at ``x_probe``.

    Returns the rule, the probe's QuadResult and the integrand pieces on the
    rule's final nodes.
    """
    x_span = _x_phase_span(region, x_abs_max, packet)
    rule = spectral_rule(
        packet, direction, potential.branch_energies(), tau, x_span,
        _probe_spec(spec, packet),
    )
    probe = rule.refine_against(
        lambda u: wave_at(_region_coeffs(region, direction, u, tau, packet, potential), x_probe)
    )
    return rule, probe, _region_coeffs(region, direction, rule.u, tau, packet, potential)


def _component(region, direction, xs, tau, packet, potential, spec):
    """One spectral component for all x of a region at one time.

    Returns (psi values, error estimates, converged flag of the probe).
    """
    x_probe = float(xs[np.argmax(np.abs(xs))])
    rule, probe, (c_in, c_out, theta, xoff) = _refined_rule(
        region, direction, x_probe, abs(x_probe), tau, packet, potential, spec
    )
    xi = xs - xoff
    i_theta = 1j * theta
    psi = np.empty(xs.size, dtype=complex)
    err = np.empty(xs.size, dtype=float)
    # cap the temporary (x chunk) x (nodes) matrices at ~100 MB
    x_chunk = max(1, min(_X_CHUNK, int(6e6 // max(1, rule.u.size))))
    for start in range(0, xs.size, x_chunk):
        # fv = c_in E + c_out / E with E = e^{i theta xi}, built in place
        fv = np.multiply.outer(xi[start:start + x_chunk], i_theta)
        np.exp(fv, out=fv)
        if c_out is None:
            fv *= c_in
        else:
            back = c_out / fv
            fv *= c_in
            fv += back
        vals, errs = rule.integrate_values(fv)
        psi[start:start + x_chunk] = vals
        err[start:start + x_chunk] = errs
    return psi, err, probe.converged


def evolve(
    packet: PacketSpec,
    potential: PotentialSpec,
    x_grid,
    t_grid,
    quad: QuadratureSpec | None = None,
) -> WaveField:
    """Evaluate the forward and backward wave function on a space-time grid.

    Non-convergent quadrature never aborts the run: the affected samples
    keep their best values with ``converged`` cleared and the achieved
    error estimate recorded.
    """
    if quad is None:
        quad = QuadratureSpec()
    x = np.asarray(x_grid, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    if np.any(t <= packet.t0_tilde):
        raise ValueError("all t_grid values must exceed t0_tilde")

    pref = packet_prefactor(packet)
    psi_fwd = np.zeros((t.size, x.size), dtype=complex)
    psi_bwd = np.zeros_like(psi_fwd)
    err = np.zeros((t.size, x.size), dtype=float)
    conv = np.ones((t.size, x.size), dtype=bool)

    masks = _region_masks(x)
    for it, tv in enumerate(t):
        tau = tv - packet.t0_tilde
        for region, mask in masks.items():
            if not np.any(mask):
                continue
            xs = x[mask]
            for direction, target in (("forward", psi_fwd), ("backward", psi_bwd)):
                vals, errs, ok = _component(
                    region, direction, xs, tau, packet, potential, quad
                )
                target[it, mask] = pref * vals
                err[it, mask] += abs(pref) * errs
                if not ok:
                    conv[it, mask] = False

    return WaveField(x, t, psi_fwd, psi_bwd, err, conv)


def psi_point(packet, potential, x, t, region, quad=None):
    """Wave function and its x-derivative at one point, with a forced region.

    The derivative is taken under the integral (the slope of the region
    wave is i theta (c_in e^{i theta xi} - c_out e^{-i theta xi})), which
    keeps its accuracy at quadrature level; finite differences of the
    assembled psi would cancel catastrophically.  Forcing
    the region lets interface continuity be checked from both sides.
    Raises QuadratureError with the achieved value and estimate when a
    component does not converge, and ValueError for t <= t0_tilde.
    """
    if quad is None:
        quad = QuadratureSpec()
    if t <= packet.t0_tilde:
        raise ValueError("t must exceed t0_tilde")
    tau = t - packet.t0_tilde
    pref = packet_prefactor(packet)
    psi = 0.0 + 0.0j
    dpsi = 0.0 + 0.0j
    for direction in ("forward", "backward"):
        rule, val, (c_in, c_out, theta, xoff) = _refined_rule(
            region, direction, x, abs(x) + 1.0, tau, packet, potential, quad
        )
        if not val.converged:
            raise QuadratureError(
                f"{direction} component at (x={x}, t={t}) reached error estimate "
                f"{val.error_estimate:.3e}",
                value=pref * val.value,
                error_estimate=abs(pref) * val.error_estimate,
            )
        i_theta = 1j * theta
        slope = (i_theta * c_in, None if c_out is None else -i_theta * c_out, theta, xoff)
        dval, _ = rule.integrate_values(wave_at(slope, x))
        psi += pref * val.value
        dpsi += pref * dval
    return psi, dpsi


def stationary_density(x, e_perp_tilde, potential: PotentialSpec, sigma) -> float:
    """Narrowband limit of the forward density |psi_>(x)|^2, closed form.

    The spectral integral collapses onto E = E_perp, leaving the flux
    normalised region wave |psi_u(x)|^2 at u = sqrt(E_perp).
    """
    waves = region_waves(region_of(x), math.sqrt(float(e_perp_tilde)), potential)
    return float(abs(wave_at(waves, x)) ** 2) / (math.sqrt(2.0 * math.pi) * sigma)


def norm_integral(field: WaveField, time_index: int) -> float:
    """Trapezoid integral of the density over x at one sampled time."""
    return float(np.trapezoid(field.density[time_index], field.x_grid))
