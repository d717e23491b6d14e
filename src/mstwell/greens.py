"""Region-wise retarded Green functions and the spectral space-time kernel.

Both are built from the flux-normalised region wave psi_u of
``scattering.region_waves``.  For a source left of the profile the energy
Green function is psi_k(x_>) e^{-ik x_<} / (2ik), and the space-time kernel
is its discontinuity integrated over positive energies; after u = sqrt(E),

    K = Int_0^inf du (1/2pi) [psi_u(x_>) e^{-iu x_<} + c.c.] e^{-i tau u^2},

an oscillatory integral with no damping.  It is evaluated as: phase-capped
adaptive panels up to a cutoff past every stationary point, an exact
complementary-error-function tail for the constant-amplitude incident wave,
and panels plus integration-by-parts boundary corrections for the
amplitude-modulated remainder.

Only sources left of the profile (x_src < 0) are exposed; that is the
scattering scenario this package models.  The mirrored source-beyond lines
exist for the reciprocity check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .model import PotentialSpec, branch_sqrt
from .quadrature import QuadratureError, QuadratureSpec, SpectralRule
from .scattering import region_of, region_waves, wave_at

_JAC = 0.5 / math.pi  # the 1/pi of Re[...], split over a term and its conjugate


class UnsupportedRegionError(ValueError):
    """Green function requested for a (source, destination) pair not provided."""


def green_free(x, x_src, e_tilde, v_tilde):
    """Constant-potential Green function, 1/(2ik) e^{ik|x-x'|} in internal units."""
    e = float(e_tilde)
    k = branch_sqrt(e - float(v_tilde))[()]
    if k == 0:
        raise ZeroDivisionError("Green function singular at the channel branch point")
    return np.exp(1j * k * abs(x - x_src)) / (2j * k)


def green_region(x, x_src, e_tilde, potential: PotentialSpec):
    """Energy Green function of the two-step profile, psi_k(x_>) e^{-ik x_<} / (2ik).

    Provided whenever the smaller coordinate x_< lies left of the profile.
    """
    e = float(e_tilde)
    if e <= 0:
        raise ValueError("energy must be positive")
    x_lo, x_hi = sorted((x, x_src))
    if region_of(x_lo) != "left":
        raise UnsupportedRegionError(
            f"Green function not available for source region {region_of(x_src)!r} "
            f"to destination region {region_of(x)!r}"
        )
    k = math.sqrt(e)
    psi = wave_at(region_waves(region_of(x_hi), k, potential), x_hi)
    return complex(psi * np.exp(-1j * k * x_lo) / (2j * k))


@dataclass
class PropagatorSample:
    x: float
    t: float
    x_src: float
    t_src: float
    value: complex
    error_estimate: float = 0.0


def _gauss_fresnel_tail(u_c, tau, beta):
    """Int_{u_c}^inf e^{-i tau u^2 + i beta u} du, closed form.

    Completing the square and rotating to the erfc of a complex argument;
    the cutoff is chosen beyond the stationary point so the argument stays
    in the decaying half-plane.
    """
    s = beta / (2.0 * tau)
    root = math.sqrt(tau) * np.exp(1j * math.pi / 4.0)
    return (
        np.exp(1j * beta * beta / (4.0 * tau))
        * math.sqrt(math.pi)
        / (2.0 * root)
        * erfc(root * (u_c - s))
    )


def _ibp_boundary(h5, beta, u5, tau):
    """Int_{u_far}^inf h(u) e^{i phi(u)} du from two integration-by-parts terms.

    ``h5`` samples the slowly varying amplitude h at the five points ``u5``
    centred on u_far; phi = -tau u^2 + beta u is the full stationary phase.
    Returns the boundary value and, as its error estimate, the magnitude of
    the next term in the series.
    """
    du = u5[1] - u5[0]
    u_far = u5[2]
    dphi5 = -2.0 * tau * u5 + beta
    q1 = h5 / (1j * dphi5)
    q1p = (q1[2:] - q1[:-2]) / (2.0 * du)  # q1' at u_far - du, u_far, u_far + du
    q2 = q1p / (1j * dphi5[1:4])
    q2p = (q2[2] - q2[0]) / (2.0 * du)

    phi = -tau * u_far * u_far + beta * u_far
    pref = np.exp(1j * phi) / (1j * dphi5[2])
    return pref * (-h5[2] + q1p[1]), abs(q2p / dphi5[2])


def _paired(amp, tau):
    """Integrand [amp(u) + c.c.] e^{-i tau u^2} of a kernel term and its partner."""

    def g(u):
        a = amp(u)
        return (a + np.conj(a)) * np.exp(-1j * tau * u * u)

    return g


def _modulated_tail(amp, beta, u_c, u_far, tau, quad):
    """Tail beyond u_c of [amp(u) + c.c.] e^{-i tau u^2}.

    ``amp`` is a slowly varying amplitude times e^{i beta u}.  Panels carry
    the integral to u_far; beyond it amp and its conjugate are each closed
    by their integration-by-parts boundary terms.
    """
    rule = SpectralRule(u_c, u_far, [], tau, abs(beta), quad)
    res = rule.refine_against(_paired(amp, tau))
    u5 = u_far + 1e-3 * np.arange(-2.0, 3.0)
    h5 = amp(u5) * np.exp(-1j * beta * u5)
    value, err = res.value, res.error_estimate
    for h, b in ((h5, beta), (np.conj(h5), -beta)):
        b_val, b_err = _ibp_boundary(h, b, u5, tau)
        value += b_val
        err += b_err
    return value, err, res.converged


def free_kernel_1d(x, t, x_src, t_src):
    """Closed-form free-particle kernel, sqrt(1/(4 pi i tau)) e^{i dx^2/(4 tau)}."""
    tau = t - t_src
    if tau <= 0:
        return 0.0 + 0.0j
    dx = x - x_src
    return np.sqrt(1.0 / (4.0j * math.pi * tau)) * np.exp(1j * dx * dx / (4.0 * tau))


def propagate_kernel(
    x, t, x_src, t_src, potential: PotentialSpec, quad: QuadratureSpec | None = None
) -> PropagatorSample:
    """Space-time kernel from a source left of the profile.

    Returns 0 for t <= t_src (retardation).  Raises QuadratureError with the
    achieved value and estimate when the error target cannot be met.
    """
    if quad is None:
        quad = QuadratureSpec()
    tau = t - t_src
    if tau <= 0:
        return PropagatorSample(x, t, x_src, t_src, 0.0 + 0.0j)
    if x_src >= 0:
        raise UnsupportedRegionError("kernel sources must lie at x_src < 0")

    x_lo, x_hi = sorted((x, x_src))
    region = region_of(x_hi)

    def amp(u):
        """(1/2pi) psi_u(x_>) e^{-iu x_<}."""
        waves = region_waves(region, u, potential)
        return _JAC * wave_at(waves, x_hi) * np.exp(-1j * u * x_lo)

    if region == "left":
        # the incident wave e^{iu(x_> - x_<)} has unit amplitude and an exact
        # tail; only the reflected wave r e^{-iu(x_> + x_<)} is modulated
        exact_beta = x_hi - x_lo
        beta = -(x_hi + x_lo)

        def tail_amp(u):
            _, c_out, theta, xoff = region_waves("left", u, potential)
            return _JAC * wave_at((0.0, c_out, theta, xoff), x_hi) * np.exp(-1j * u * x_lo)
    else:
        exact_beta = None
        beta = x_hi - x_lo
        tail_amp = amp

    u_branch = [math.sqrt(b) for b in potential.branch_energies()]
    u_stat = abs(beta) / (2.0 * tau)
    u_c = max(
        30.0,
        u_stat + 10.0 / math.sqrt(min(tau, 1.0)),
        (1.5 * max(u_branch) + 5.0) if u_branch else 0.0,
    )
    u_far = max(2.0 * u_c, u_c + 100.0, 300.0)

    rule = SpectralRule(0.0, u_c, u_branch, tau, abs(beta), quad)
    head_res = rule.refine_against(_paired(amp, tau))
    tail, tail_err, tail_ok = _modulated_tail(tail_amp, beta, u_c, u_far, tau, quad)
    value = head_res.value
    if exact_beta is not None:
        value += _JAC * _gauss_fresnel_tail(u_c, tau, exact_beta)
        value += _JAC * _gauss_fresnel_tail(u_c, tau, -exact_beta)
    value += tail
    err = head_res.error_estimate + tail_err
    converged = head_res.converged and tail_ok

    tol = max(quad.rel_tol * abs(value), quad.abs_tol)
    if not converged or err > tol:
        raise QuadratureError(
            f"kernel quadrature reached error estimate {err:.3e} "
            f"(target {tol:.3e}) at (x={x}, t={t})",
            value=value,
            error_estimate=err,
        )
    return PropagatorSample(x, t, x_src, t_src, complex(value), err)
