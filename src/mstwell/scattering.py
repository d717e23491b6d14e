"""Interface scattering amplitudes and their composition across the two steps.

Two independent routes produce the four amplitudes (t, t', r', r) of the
two-step profile:

* ``closed_amplitudes`` evaluates the closed-form expressions directly
  (vectorized over energy; this is the hot path for the time evolution).
* ``mst_compose`` builds them from single-step t-matrices resummed across
  the pair of interfaces.

``region_waves`` turns the closed amplitudes into the flux-normalised
scattering-state wave of each region, the one object behind the Green
function, the space-time kernel, the packet evolution and the dwell time.

Both are complex-analytic in the energy with the retarded branch rule, so a
single code path covers propagating, tunneling, and sub-threshold regimes.
Units: dimensionless (hbar = 1, mass = 1/2, d = 1), so m/(i hbar^2) = 1/(2i)
and velocities are 2k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PotentialSpec, branch_sqrt, quartic_root

_M_OVER_IH2 = 1.0 / 2.0j  # m / (i hbar^2) in internal units


class SingularStepError(ValueError):
    """Raised when a step has k_left + k_right = 0 (amplitudes undefined)."""


@dataclass(frozen=True)
class StepAmplitudes:
    """Reflection/transmission amplitudes of a single potential step.

    ``r_right`` is for a particle approaching from the right side of the
    step, ``r_left`` from the left; ``t`` is the (symmetric) transmission.
    """

    r_right: complex
    r_left: complex
    t: complex


@dataclass(frozen=True)
class StepTMatrixSet:
    """Resummed t-matrices of one step; entries carry units hbar*velocity."""

    t_refl_right: complex
    t_refl_left: complex
    t_trans: complex


@dataclass(frozen=True)
class ScatteringSet:
    """The four amplitudes and common denominator of the two-step profile."""

    t: complex
    t_prime: complex
    r_prime: complex
    r: complex
    denom: complex


def step_amplitudes(k_left, k_right) -> StepAmplitudes:
    """Amplitudes of a single step between channels k_left (x < x_s) and k_right."""
    kl = complex(k_left)
    kr = complex(k_right)
    s = kr + kl
    if s == 0:
        raise SingularStepError("degenerate step: k_left + k_right = 0")
    r_right = (kr - kl) / s
    return StepAmplitudes(
        r_right=r_right,
        r_left=-r_right,
        t=2.0 * np.sqrt(kr) * np.sqrt(kl) / s,
    )


def step_t_matrices(k_left, k_right) -> StepTMatrixSet:
    """Single-step t-matrices via geometric resummation of the step potentials.

    The step-localized effective potentials are resummed with the interface
    Green functions, T = H / (1 - G0 H).  They equal i*hbar*velocity times
    the step_amplitudes values (tested, not asserted here).
    """
    kl = complex(k_left)
    kr = complex(k_right)
    v_l = 2.0 * kl
    v_r = 2.0 * kr
    if kl + kr == 0:
        raise SingularStepError("degenerate step: k_left + k_right = 0")

    # effective potential amplitudes of the step (reflection from either
    # side, and transmission), hbar = 1
    h_refl_right = 0.5j * (v_r - v_l)
    h_refl_left = 0.5j * (v_l - v_r)
    sqrt_vr = np.sqrt(complex(v_r))
    sqrt_vl = np.sqrt(complex(v_l))
    h_trans = 2.0j * v_r * v_l / (sqrt_vr + sqrt_vl) ** 2

    # interface Green functions for the matching process
    g0_right = 1.0 / (1j * v_r)
    g0_left = 1.0 / (1j * v_l)
    g0_trans = 1.0 / (1j * sqrt_vr * sqrt_vl)

    return StepTMatrixSet(
        t_refl_right=h_refl_right / (1.0 - g0_right * h_refl_right),
        t_refl_left=h_refl_left / (1.0 - g0_left * h_refl_left),
        t_trans=h_trans / (1.0 - g0_trans * h_trans),
    )


def closed_amplitudes(e_tilde, potential: PotentialSpec) -> ScatteringSet:
    """Closed-form amplitudes at one energy (scalar convenience wrapper)."""
    t, tp, rp, r, den = amplitude_table(np.atleast_1d(float(e_tilde)), potential)
    return ScatteringSet(
        t=complex(t[0]),
        t_prime=complex(tp[0]),
        r_prime=complex(rp[0]),
        r=complex(r[0]),
        denom=complex(den[0]),
    )


def amplitude_table(e_tilde, potential: PotentialSpec):
    """Vectorized closed-form amplitudes over an array of energies.

    Returns (t, t_prime, r_prime, r, denom) as complex arrays.  The branch
    rule makes the same expressions valid above and below both thresholds.
    denom = 2 k_u d vanishes at the inner branch point E = U (k_u = 0), where
    t and r stay finite while t_prime and r_prime diverge as k_u^{-1/2} and
    stay non-finite (except on the flat profile at E = 0).
    """
    e = np.asarray(e_tilde, dtype=np.float64)
    k = branch_sqrt(e)
    ku = branch_sqrt(e - potential.u_tilde)
    kd = branch_sqrt(e - potential.delta_tilde)
    e1 = np.exp(1j * ku)
    # denom = (k + k_u)(k_d + k_u) - (k - k_u)(k_d - k_u) e^{2i k_u} = 2 k_u d with
    # half_m = (e^{2i k_u} - 1)/(2 k_u) = i e^{ia} sin(a)/a or i (1 - e^{-2b})/(2b) for
    # k_u = a or i b: ratios to d need no limit at k_u = 0 and do not cancel near it
    a, b = ku.real, ku.imag
    sinc_a = np.divide(np.sin(a), a, out=np.ones_like(a), where=a != 0)
    decay_b = np.divide(np.expm1(-2.0 * b), -2.0 * b, out=np.ones_like(b), where=b != 0)
    half_m = 1j * np.where(b > 0, decay_b, e1 * sinc_a)
    d = (k + kd) - half_m * (k - ku) * (kd - ku)
    sqrt_k = np.sqrt(k)
    sqrt_ku = np.sqrt(ku)
    sqrt_kd = np.sqrt(kd)

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        t = 2.0 * sqrt_k * sqrt_kd * e1 / d
        t_prime = sqrt_k / sqrt_ku * ((kd + ku) / d)
        r_prime = sqrt_k / sqrt_ku * ((ku - kd) * e1 * e1 / d)
        r = ((k - kd) - half_m * (k + ku) * (kd - ku)) / d
    at_rest = (k == 0) & (kd == 0)
    if np.any(at_rest):
        # E = Delta = 0, where d = -half_m k_u^2 is 0 (U = 0) or may underflow:
        # the flat profile transmits all (t = t' = 1), any other reflects all
        flat = 1.0 * (ku == 0)
        t, t_prime = np.where(at_rest, flat, t), np.where(at_rest, flat, t_prime)
        r, r_prime = np.where(at_rest, flat - 1.0, r), np.where(at_rest, 0.0, r_prime)
    return t, t_prime, r_prime, r, 2.0 * ku * d


def region_of(x) -> str:
    """Region of a point: left of the profile, inside 0 <= x <= 1, or right."""
    if x < 0.0:
        return "left"
    if x <= 1.0:
        return "inside"
    return "right"


def region_waves(region, u, potential: PotentialSpec):
    """Flux-normalised forward scattering wave of one region at u = sqrt(E).

    Returns (c_in, c_out, theta, x_offset) with
    psi_u(x) = c_in e^{i theta xi} + c_out e^{-i theta xi}, xi = x - x_offset:
    a unit incident wave e^{iux} from the left, the reflected, inner and
    transmitted waves of the two-step profile, each scaled by
    sqrt(v / v_region) so every region carries the incident flux.  The two
    waves of a region share one wave number theta with opposite signs; the
    right region has no counter-propagating wave, and there c_out is None.
    The backward-moving (time-reversed) wave is the complex conjugate,
    (conj(c_in), conj(c_out), -conj(theta), x_offset) in this format.
    """
    u = np.asarray(u, dtype=np.float64)
    e = u * u
    t, tp, rp, r, _ = amplitude_table(e, potential)
    if region == "left":
        return np.ones_like(u, dtype=complex), r, u + 0j, 0.0
    if region == "inside":
        ku = branch_sqrt(e - potential.u_tilde)
        # sqrt(v / v_u) = sqrt(u) / sqrt(k_u), fourth root fixing the branch
        c = np.sqrt(u) / quartic_root(e - potential.u_tilde)
        return c * tp, c * rp, ku, 0.0
    if region == "right":
        kd = branch_sqrt(e - potential.delta_tilde)
        c = np.sqrt(u) / quartic_root(e - potential.delta_tilde)
        return c * t, None, kd, 1.0
    raise ValueError(f"unknown region {region!r}")


def wave_at(waves, x):
    """Evaluate c_in e^{i theta xi} + c_out e^{-i theta xi} at xi = x - x_offset.

    One exponential serves both waves (e^{-i theta xi} = 1 / e^{i theta xi});
    without a counter-propagating wave (c_out None) the value is c_in
    e^{i theta xi}, which stays finite where a decaying exponential
    underflows to 0.
    """
    c_in, c_out, theta, x_offset = waves
    e = np.exp(1j * theta * (x - x_offset))
    if c_out is None:
        return c_in * e
    return c_in * e + c_out / e


def mst_compose(e_tilde, potential: PotentialSpec) -> ScatteringSet:
    """Compose the two interfaces from single-step t-matrices.

    Uses the free Green functions of the inner region to couple the steps
    at x = 0 and x = 1, resums the back-and-forth series, and converts the
    composed matrices back to the reduced amplitude normalization.  Must
    agree with closed_amplitudes to 1e-12 relative (tested, not asserted
    here, to keep the two routes fully independent).
    """
    e = float(e_tilde)
    if e <= 0:
        raise ValueError("energy must be positive")
    k = branch_sqrt(e)[()]
    ku = branch_sqrt(e - potential.u_tilde)[()]
    kd = branch_sqrt(e - potential.delta_tilde)[()]

    # step at x=0: left channel k, right channel ku; step at x=1 (d=1):
    # left channel ku, right channel kd
    tm0 = step_t_matrices(k, ku)
    tm1 = step_t_matrices(ku, kd)

    # inner-region free Green function linking the interfaces
    g01 = _M_OVER_IH2 / ku * np.exp(1j * ku)  # G0(0,1) = G0(1,0)

    d_plus = 1.0 - g01 * tm0.t_refl_right * g01 * tm1.t_refl_left
    t_cap = tm1.t_trans * g01 * tm0.t_trans / d_plus
    t_prime_cap = tm0.t_trans / d_plus
    r_prime_cap = tm1.t_refl_left * g01 * t_prime_cap
    r_cap = tm0.t_refl_left + (
        tm0.t_trans * g01 * tm1.t_refl_left * g01 * tm0.t_trans / d_plus
    )

    sqrt_k = np.sqrt(k)
    sqrt_ku = np.sqrt(ku)
    sqrt_kd = np.sqrt(kd)
    return ScatteringSet(
        t=_M_OVER_IH2 * t_cap / (sqrt_k * sqrt_kd),
        t_prime=_M_OVER_IH2 * t_prime_cap / (sqrt_k * sqrt_ku),
        r_prime=_M_OVER_IH2 * np.exp(1j * ku) * r_prime_cap / (sqrt_k * sqrt_ku),
        r=_M_OVER_IH2 * r_cap / k,
        denom=d_plus,
    )


def probabilities(e_tilde, potential: PotentialSpec) -> dict:
    """Transmission/reflection probabilities |t|^2 and |r|^2.

    Below the right-step threshold the transmitted channel is evanescent
    and carries no flux, so T_prob is exactly 0 and R_prob exactly 1.
    """
    e = float(e_tilde)
    if e <= potential.delta_tilde:
        return {"T_prob": 0.0, "R_prob": 1.0}
    s = closed_amplitudes(e, potential)
    return {"T_prob": abs(s.t) ** 2, "R_prob": abs(s.r) ** 2}
