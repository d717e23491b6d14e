"""Region-wise retarded Green functions and the spectral space-time kernel.

Both are built from the flux-normalised region wave psi_u of
``scattering.region_waves``.  For a source left of the profile the energy
Green function is psi_k(x_>) e^{-ik x_<} / (2ik), and the space-time kernel
is its discontinuity integrated over positive energies; after u = sqrt(E),

    K = Int_0^inf du (1/2pi) [psi_u(x_>) e^{-iu x_<} + c.c.] e^{-i tau u^2},

an oscillatory integral with no damping.  It is evaluated as: phase-capped
adaptive panels up to a cutoff u_c past every stationary point, an exact
complementary-error-function tail for the constant-amplitude incident wave,
and, for the amplitude-modulated remainder, Levin collocation from u_c to
u_far closed by integration-by-parts boundary terms at u_far.  Past u_c the
phase has no stationary point, so the collocation nodes follow the slowly
varying amplitude, not the chirp e^{-i tau u^2}; u_far doubles while the
closure's error estimate exceeds its share of the target.  The head panels
meet rel_tol of their own value; where the tails cancel part of it, they
are refined once more against what the tails leave of the kernel's target.

Only sources left of the profile (x_src < 0) are exposed; that is the
scattering scenario this package models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import PotentialSpec, branch_sqrt
from .quadrature import QuadratureError, QuadratureSpec, SpectralRule, levin_tail
from .scattering import region_of, region_waves, wave_at

_JAC = 0.5 / math.pi  # the 1/pi of Re[...], split over a term and its conjugate

# The tail's cutoff u_far doubles at most _MAX_DOUBLINGS times, until the
# closure's error estimate is under _CLOSURE_SHARE of the kernel's target
_MAX_DOUBLINGS = 3
_CLOSURE_SHARE = 0.1


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
    from scipy.special import erfc  # complex erfc; scipy.special is slow to import
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


def _closure(h, beta, u_far, tau):
    """Both terms' integration-by-parts tails beyond u_far, and their estimate."""
    u5 = u_far + 1e-3 * np.arange(-2.0, 3.0)
    h5 = h(u5)
    value, err = 0.0 + 0.0j, 0.0
    for h_term, b in ((h5, beta), (np.conj(h5), -beta)):
        b_val, b_err = _ibp_boundary(h_term, b, u5, tau)
        value += b_val
        err += b_err
    return value, err


def _modulated_tail(h, beta, u_c, u_far, tau, quad, rest):
    """Tail beyond u_c of [h(u) e^{i beta u} + c.c.] e^{-i tau u^2}.

    ``h`` is a slowly varying amplitude.  Levin collocation carries the
    integral to u_far, where h and its conjugate are each closed by their
    integration-by-parts boundary terms.  While the closure's estimate
    exceeds _CLOSURE_SHARE of the kernel's target (``rest`` is the rest of
    the kernel), u_far doubles and the collocation covers the added stretch.
    Returns (value, error estimate, converged).
    """
    tail, err, converged = 0.0 + 0.0j, 0.0, True
    lo = u_c
    for _ in range(_MAX_DOUBLINGS + 1):
        res = levin_tail(h, beta, tau, lo, u_far, quad)
        tail += res.value
        err += res.error_estimate
        converged = converged and res.converged
        close, close_err = _closure(h, beta, u_far, tau)
        target = max(quad.rel_tol * abs(rest + tail + close), quad.abs_tol)
        if close_err <= _CLOSURE_SHARE * target:
            break
        lo, u_far = u_far, 2.0 * u_far
    return tail + close, err + close_err, converged


def _kernel_terms(x, x_src, potential: PotentialSpec):
    """The integrand pieces of the kernel between x_src < 0 and x.

    Returns (amp, h, beta, exact_beta): the head amplitude
    amp(u) = (1/2pi) psi_u(x_>) e^{-iu x_<}; the slowly varying amplitude h
    and rate beta of the tail term h(u) e^{i beta u}; and, in the left
    region, the rate of the unit-amplitude incident wave, whose tail is
    exact (None elsewhere).
    """
    x_lo, x_hi = sorted((x, x_src))
    region = region_of(x_hi)

    def amp(u):
        """(1/2pi) psi_u(x_>) e^{-iu x_<}."""
        waves = region_waves(region, u, potential)
        return _JAC * wave_at(waves, x_hi) * np.exp(-1j * u * x_lo)

    if region == "left":
        # the incident wave e^{iu(x_> - x_<)} has unit amplitude and an exact
        # tail; only the reflected wave r e^{-iu(x_> + x_<)} is modulated
        def h(u):
            """(1/2pi) r(u), the reflected wave's amplitude."""
            return _JAC * region_waves("left", u, potential)[1]

        return amp, h, -(x_hi + x_lo), x_hi - x_lo

    def h(u):
        """amp(u) e^{-i beta u}."""
        return _JAC * wave_at(region_waves(region, u, potential), x_hi) * np.exp(-1j * u * x_hi)

    return amp, h, x_hi - x_lo, None


def _cutoffs(beta, tau, u_branch):
    """Head cutoff u_c, past the stationary point and the branch points, and u_far."""
    u_stat = abs(beta) / (2.0 * tau)
    u_c = max(
        30.0,
        u_stat + 10.0 / math.sqrt(min(tau, 1.0)),
        (1.5 * max(u_branch) + 5.0) if u_branch else 0.0,
    )
    return u_c, max(2.0 * u_c, u_c + 100.0, 300.0)


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

    amp, h, beta, exact_beta = _kernel_terms(x, x_src, potential)
    u_branch = [math.sqrt(b) for b in potential.branch_energies()]
    u_c, u_far = _cutoffs(beta, tau, u_branch)

    head = SpectralRule(0.0, u_c, u_branch, tau, abs(beta), quad)
    g = _paired(amp, tau)
    head_res = head.refine_against(g)
    rest = 0.0 + 0.0j
    if exact_beta is not None:
        rest += _JAC * _gauss_fresnel_tail(u_c, tau, exact_beta)
        rest += _JAC * _gauss_fresnel_tail(u_c, tau, -exact_beta)
    tail, tail_err, tail_ok = _modulated_tail(h, beta, u_c, u_far, tau, quad, head_res.value + rest)
    rest += tail
    value = head_res.value + rest
    tol = max(quad.rel_tol * abs(value), quad.abs_tol)
    budget = 0.5 * (tol - tail_err)
    if head_res.converged and budget > 0 and head_res.error_estimate + tail_err > tol:
        # the head met rel_tol of its own value, which exceeds |K| where the
        # tails cancel part of it: refine on to half of what they leave of K's target
        head.spec = replace(
            quad,
            rel_tol=min(quad.rel_tol, budget / max(abs(head_res.value), budget)),
            abs_tol=min(quad.abs_tol, budget),
        )
        head_res = head.refine_against(g)
        value = head_res.value + rest
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
