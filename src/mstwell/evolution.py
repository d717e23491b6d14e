"""Time evolution of the Gaussian packet against the two-step profile.

The wave function is assembled region by region from six spectral
integrals: forward and backward components in each of the three regions.
All six share the window machinery of the quadrature module, with the
window cut to the tolerance as ``quadrature.window_spec`` cuts it.
Within one (region, direction) pair the integrand is the region wave
c_in(u) e^{i theta(u) xi} + c_out(u) e^{-i theta(u) xi}, xi = x - x_offset,
times the time phase e^{-i tau u^2}, with x- and tau-independent amplitude
arrays.  So one panel set, seeded at twice the spec's phase per panel and
refined against a worst-phase probe point at the largest and the smallest
time, serves every (x, t) sample, and the samples are reduced over nodes
by batched matrix products.

The tolerance, not the seeding, sets the node count: every sample's
assembled Kronrod - Gauss estimate is held against its target,
max(rel_tol max_x |psi(t)|, the probes' absolute floor).  A component
whose estimate exceeds half of it anywhere (forward and backward share a
sample's target) refines its rule against its worst sample and assembles
again, for a few rounds; ``converged`` is then cleared on exactly the
samples still over target, and on every sample of a component whose probe
failed.

The assembly's factors hold plane-wave tables, one row per ~sqrt(n_x)
offset of a uniform x slice, and the time phases, one row per time; on
uniform grids each table is built by doubling, rows [k, 2k) from rows
[0, k) and one power of the step, so a component takes at most six
exponentials per node whatever the numbers of x and t.  Tables and
products are built one cache-sized block of whole panels at a time (all
times where they fit), and the panel sums carried from block to block
give the same bits as one block of every panel.  The region waves
themselves (and so the scattering amplitudes) are evaluated once per
component on the rule's seeded nodes and shared by the probes and the
assembly; only a refinement that splits panels makes them evaluate again.
That keeps dense space-time grids (needed for norm checks and the
grid-solver comparison) tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import PotentialSpec
from .packet import PacketSpec, gaussian_weight
from .quadrature import XGK, QuadratureError, QuadratureSpec, SpectralRule
from .quadrature import spectral_rule, window_spec
from .scattering import region_of, region_waves, wave_at

# ``evolve`` seeds its rules at this multiple of the spec's phase_per_panel
# (8 pi at the default): every sample is checked against its target, so the
# seeds need not carry a margin for the samples the probes do not see
_SEED_SCALE = 2.0
# refinement rounds against a component's worst sample, after which the
# samples still over target have ``converged`` cleared
_ROUNDS = 3

# complex entries of one x-assembly block (2 MiB, an L2 cache): its A and
# B tables, weighted B, left factor and products, for whole panels with all
# times where they fit, else for one panel and as many times as fit
_ENTRY_BUDGET = 2 ** 17


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


def _region_coeffs(region, direction, u, packet: PacketSpec, potential: PotentialSpec):
    """x- and tau-independent integrand pieces: (c_in, c_out, theta, x_offset).

    The region wave of ``region_waves`` (conjugated for the backward
    direction) times the Gaussian weight, the x_i phase and the
    u-substitution Jacobian; evaluate at x with ``wave_at`` and multiply by
    the time phase e^{-i tau u^2}.
    """
    c_in, c_out, theta, xoff = region_waves(region, u, potential)
    weight = gaussian_weight(u, packet, direction)
    if direction == "forward":
        phase_i = np.exp(-1j * u * packet.x_i_tilde)
    else:
        c_in, theta = np.conj(c_in), -np.conj(theta)
        c_out = None if c_out is None else np.conj(c_out)
        phase_i = np.exp(1j * u * packet.x_i_tilde)
    base = 2.0 * weight * phase_i  # 2u du / u = 2 du
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


def _shared_rule(region, direction, x_probe, x_abs_max, taus, packet, potential, spec):
    """Rule of one (region, direction) component for every time in ``taus``.

    Seeded on the window of ``window_spec`` at ``_SEED_SCALE`` times
    ``spec.phase_per_panel`` and refined at the largest time, then refined
    against the smallest (skipped when both are one time); each probe
    evaluates the component at ``x_probe``.  The
    integrand pieces of ``_region_coeffs`` are evaluated once on the seeded
    nodes, where both probes read them with their time phase, and again
    only when a probe split panels.  Returns the rule, the probes'
    QuadResults and those pieces on the rule's final nodes, for
    ``_plane_wave_sums`` to assemble.
    """
    tau_hi, tau_lo = max(taus), min(taus)
    x_span = _x_phase_span(region, x_abs_max, packet)
    seed = replace(
        _probe_spec(window_spec(spec, packet, direction), packet),
        phase_per_panel=_SEED_SCALE * spec.phase_per_panel,
    )
    rule = spectral_rule(packet, direction, potential.branch_energies(), tau_hi, x_span, seed)

    def waves_on(u):
        return _region_coeffs(region, direction, u, packet, potential)

    waves, probes = waves_on(rule.u), []
    for tau in dict.fromkeys((tau_hi, tau_lo)):
        waves, probe = _refine_at(rule, waves_on, waves, x_probe, tau)
        probes.append(probe)
    return rule, probes, waves


def _refine_at(rule, waves_on, waves, x, tau, spec=None):
    """Refine ``rule`` against the component at one sample (x, tau).

    ``waves`` are the integrand pieces on the rule's nodes and ``waves_on``
    evaluates them anywhere; ``spec``, when given, replaces the rule's
    targets.  Returns the pieces on the final nodes, evaluated again only
    when a panel split, and the probe's QuadResult.
    """
    def probe(u, waves):
        return np.exp(-1j * (u * u) * tau) * wave_at(waves, x)

    result = rule.refine_against(lambda u: probe(u, waves_on(u)), probe(rule.u, waves), spec)
    if waves[0].size != rule.u.size:  # the probe split panels
        waves = waves_on(rule.u)
    return waves, result


def _uniform_step(xs, scale):
    """Step h of an ascending uniform sequence xs_k = xs[0] + k h, else None.

    The points may deviate from the exact steps by the round-off of numbers
    of size ``scale`` (that of the whole grid they were cut from), which
    keeps the phase error of the recurrences at round-off.
    """
    n = xs.size
    if n >= 2 and xs[-1] > xs[0]:
        h = (xs[-1] - xs[0]) / (n - 1)
        off_grid = np.max(np.abs(xs - (xs[0] + h * np.arange(n))))
        if off_grid <= 8.0 * np.finfo(float).eps * max(1.0, scale):
            return h
    return None


def _grid_offsets(xs, scale):
    """Offsets (x_a, x_b) with xs[a * len(x_b) + b] = x_a[a] + x_b[b], and their steps.

    An ascending uniform slice of at least 4 points (every CLI grid, and
    every region slice of one, judged at the round-off ``scale`` of the
    whole grid) splits into about sqrt(n) offsets each, with x_b >= 0 so
    that a decaying wave's B never exceeds 1; the steps are then
    (len(x_b) h, h) for the slice's exact step h.  Any other slice keeps
    one row per point, x_b = [0] and steps (None, None).
    """
    h = _uniform_step(xs, scale) if xs.size >= 4 else None
    if h is None:
        return xs, np.zeros(1), (None, None)
    n = xs.size
    n_b = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    n_a = -(-n // n_b)
    return xs[0] + (n_b * h) * np.arange(n_a), h * np.arange(n_b), (n_b * h, h)


def _exp_table(rate, xs, dx=None, inverse=False):
    """Table of e^{rate x}, x in ``xs``, shape (len(xs), len(rate), 1).

    With ``inverse`` the last axis has length 2, e^{-rate x} beside
    e^{rate x}.  With ``dx`` the xs step uniformly (xs_k = xs[0] + k dx up
    to round-off) and the table is built by doubling: one exponential (and
    reciprocal) for the first row and one for the step, then rows [k, 2k)
    = rows [0, k) times step^k, the step squared only while rows remain,
    so no power past the table's own span is formed.  Without it every row
    takes its own exponential.
    """
    def exp(z):
        e = np.exp(z)
        return np.stack([e, 1.0 / e], axis=-1) if inverse else e[..., None]

    if dx is None:
        return exp(np.multiply.outer(xs, rate))
    n = len(xs)
    table = np.empty((n, len(rate), 2 if inverse else 1), dtype=complex)
    table[0], step, k = exp(rate * xs[0]), exp(rate * dx), 1
    while k < n:
        np.multiply(table[:min(k, n - k)], step, out=table[k:2 * k])
        k *= 2
        if k < n:
            step = step * step
    return table


def _plane_wave_sums(rule, waves, xs, x_scale, taus):
    """Integrals of the component at every (time, x) of one region, shape (nt, nx).

    With x = x_a + x_b, each wave c e^{+-i theta xi} e^{-i tau u^2} is the
    product of a left factor c e^{-i tau u^2} A^{+-1}, one row per
    (time, x_a), and a right factor B^{+-1}, one column per x_b, where
    A = e^{i theta (x_a - x_offset)} and B = e^{i theta x_b}.  The tables
    and the time phases (``_exp_table``: by doubling on a uniform slice,
    judged by ``_grid_offsets`` at the grid's round-off ``x_scale``, and on
    a uniform time grid) are built one block of whole panels at a time,
    sized to ``_ENTRY_BUDGET``: as many panels with all times as fit, else
    one panel, its time phases sliced into as many times as fit.  Every
    entry depends only on its node and row, so any blocking gives the same
    bits, and a component takes at most six exponentials per node (the
    first row and the step of A, B and the time phase).
    ``SpectralRule.integrate_separable`` weighs each block's right factor
    and carries the panel sums from block to block.  Returns (values,
    per-panel error estimates).
    """
    c_in, c_out, theta, xoff = waves
    inverse = c_out is not None
    terms = 2 if inverse else 1
    x_a, x_b, (dx_a, dx_b) = _grid_offsets(xs, x_scale)
    dt = _uniform_step(taus, float(np.max(np.abs(taus))))
    n_a, n_b, nodes = x_a.size, x_b.size, XGK.size
    # entries per panel: A, B and the weighted B; per time and panel: the
    # left factor, the products and their error moduli
    fixed = nodes * terms * (n_a + 3 * n_b)
    per_time = n_a * (nodes * terms + 3 * n_b)
    budget = int(_ENTRY_BUDGET)
    n_times = min(taus.size, max(1, (budget - fixed) // per_time))
    n_panels = max(1, budget // (fixed + n_times * per_time))
    rate_t = -1j * (rule.u * rule.u)

    def blocks():
        for p0 in range(0, rule.n_panels, n_panels):
            panels = slice(p0, min(p0 + n_panels, rule.n_panels))
            at = slice(panels.start * nodes, panels.stop * nodes)
            coeffs = np.stack([c_in[at], c_out[at]], axis=-1) if inverse else c_in[at, None]
            rate = 1j * theta[at]
            a_tab = _exp_table(rate, x_a - xoff, dx_a, inverse)
            right = _exp_table(rate, x_b, dx_b, inverse)
            phase = _exp_table(rate_t[at], taus, dt)
            for t0 in range(0, taus.size, n_times):
                t1 = min(t0 + n_times, taus.size)
                left = np.multiply((coeffs * phase[t0:t1])[:, None], a_tab)
                yield panels, slice(t0 * n_a, t1 * n_a), right, left.reshape(-1, *coeffs.shape)

    psi, err = rule.integrate_separable(blocks(), (taus.size * n_a, n_b))
    shape = (taus.size, n_a * n_b)
    return psi.reshape(shape)[:, :xs.size], err.reshape(shape)[:, :xs.size]


@dataclass
class _Component:
    """One (region, direction) integral at every sample of its region, in raw units.

    ``rule`` is its rule and ``waves`` the integrand pieces on the rule's
    nodes; ``psi`` and ``err`` hold the values and error estimates, shape
    (nt, nx) for the nx points of x[mask]; ``probes_converged`` is the flag
    of both probes.
    """

    region: str
    direction: str
    mask: np.ndarray
    rule: SpectralRule
    waves: tuple
    psi: np.ndarray
    err: np.ndarray
    probes_converged: bool


def _component(region, direction, mask, x, x_scale, taus, packet, potential, spec):
    """One spectral component for all x[mask] of a region at all times ``taus``.

    ``x_scale`` is the largest |x| of the whole grid.
    """
    xs = x[mask]
    x_probe = float(xs[np.argmax(np.abs(xs))])
    rule, probes, waves = _shared_rule(
        region, direction, x_probe, abs(x_probe), taus, packet, potential, spec
    )
    # the time phase e^{-i tau u^2} is folded in per time by the assembly
    psi, err = _plane_wave_sums(rule, waves, xs, x_scale, taus)
    return _Component(region, direction, mask, rule, waves, psi, err,
                      all(p.converged for p in probes))


def _targets(comps, shape, packet, spec):
    """Per-time target of a sample's estimate, max(rel_tol max_x |psi(t)|, floor).

    Raw units, as the components' ``psi``; the floor is the probes'
    absolute target (``_probe_spec``).  Non-finite samples are left out
    of the peak.
    """
    psi = np.zeros(shape, dtype=complex)
    for comp in comps:
        psi[:, comp.mask] += comp.psi
    peak = np.max(np.abs(psi), axis=1, initial=0.0, where=np.isfinite(psi))
    return np.maximum(spec.rel_tol * peak, _probe_spec(spec, packet).abs_tol)


def _meet_targets(comp, x, x_scale, taus, packet, potential, goal):
    """Refine a component's rule until every sample's estimate is within ``goal``.

    ``goal`` is the per-time target of the component.  Each of at most
    ``_ROUNDS`` rounds refines the rule against the sample furthest over
    its target, to that target alone, and assembles the region again; the
    rounds stop once every sample is within target or a round splits no
    panel.
    """
    xs = x[comp.mask]

    def waves_on(u):
        return _region_coeffs(comp.region, comp.direction, u, packet, potential)

    for _ in range(_ROUNDS):
        # a non-finite sample cannot guide a refinement; the final check flags it
        excess = np.where(np.isfinite(comp.err), comp.err, 0.0) / goal[:, None]
        it, ix = np.unravel_index(np.argmax(excess), excess.shape)
        if excess[it, ix] <= 1.0:
            return
        # an absolute target: the rel_tol term of the probe's target vanishes
        target = replace(comp.rule.spec, rel_tol=np.finfo(float).tiny, abs_tol=goal[it])
        panels = comp.rule.n_panels
        comp.waves, _ = _refine_at(comp.rule, waves_on, comp.waves, xs[ix], taus[it], target)
        if comp.rule.n_panels == panels:
            return
        comp.psi, comp.err = _plane_wave_sums(comp.rule, comp.waves, xs, x_scale, taus)


def _components(packet, potential, x, taus, spec):
    """Every (region, direction) component of the samples (x, taus) on its final rule.

    Each is assembled on its probes' rule, then refined where a sample's
    estimate exceeds half of the ``_targets`` of its time (forward and
    backward share a sample's target) and assembled again.
    """
    x_scale = float(np.max(np.abs(x)))
    comps = [
        _component(region, direction, mask, x, x_scale, taus, packet, potential, spec)
        for region, mask in _region_masks(x).items() if np.any(mask)
        for direction in ("forward", "backward")
    ]
    half = 0.5 * _targets(comps, (taus.size, x.size), packet, spec)
    for comp in comps:
        _meet_targets(comp, x, x_scale, taus, packet, potential, half)
    return comps


def evolve(
    packet: PacketSpec,
    potential: PotentialSpec,
    x_grid,
    t_grid,
    quad: QuadratureSpec | None = None,
) -> WaveField:
    """Evaluate the forward and backward wave function on a space-time grid.

    A sample is converged when its error estimate (forward plus backward)
    is within max(rel_tol max_x |psi(t)|, the probes' absolute floor) and
    the probes of both its components converged.  Non-convergent
    quadrature never aborts the run: the affected samples keep their best
    values with ``converged`` cleared and the achieved error estimate
    recorded.
    """
    spec = quad or QuadratureSpec()
    x = np.asarray(x_grid, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    if np.any(t <= packet.t0_tilde):
        raise ValueError("all t_grid values must exceed t0_tilde")

    pref = packet_prefactor(packet)
    psi_fwd = np.zeros((t.size, x.size), dtype=complex)
    psi_bwd = np.zeros_like(psi_fwd)
    err = np.zeros((t.size, x.size), dtype=float)
    conv = np.ones((t.size, x.size), dtype=bool)
    if not (x.size and t.size):
        return WaveField(x, t, psi_fwd, psi_bwd, err, conv)

    comps = _components(packet, potential, x, t - packet.t0_tilde, spec)
    for comp in comps:
        psi = psi_fwd if comp.direction == "forward" else psi_bwd
        psi[:, comp.mask] = pref * comp.psi
        err[:, comp.mask] += abs(pref) * comp.err
        conv[:, comp.mask] &= comp.probes_converged
    goal = abs(pref) * _targets(comps, err.shape, packet, spec)
    conv &= err <= goal[:, None]
    return WaveField(x, t, psi_fwd, psi_bwd, err, conv)


def psi_point(packet, potential, x, t, region, quad=None):
    """Wave function and its x-derivative at one point, with a forced region.

    The derivative is taken under the integral: the slope of the region
    wave, i theta (c_in e^{i theta xi} - c_out e^{-i theta xi}), is a
    second coefficient set on the value's rule, assembled as ``evolve``
    assembles psi.  That keeps its accuracy at quadrature level; finite
    differences of the assembled psi would cancel catastrophically.  Forcing
    the region lets interface continuity be checked from both sides.
    Raises QuadratureError with the achieved value and estimate when a
    component does not converge, and ValueError for t <= t0_tilde.
    """
    quad = quad or QuadratureSpec()
    if t <= packet.t0_tilde:
        raise ValueError("t must exceed t0_tilde")
    tau = t - packet.t0_tilde
    pref = packet_prefactor(packet)
    psi = 0.0 + 0.0j
    dpsi = 0.0 + 0.0j
    for direction in ("forward", "backward"):
        rule, (val,), (c_in, c_out, theta, xoff) = _shared_rule(
            region, direction, x, abs(x) + 1.0, (tau,), packet, potential, quad
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
        dval, _ = _plane_wave_sums(rule, slope, np.array([x]), abs(x), np.array([tau]))
        psi += pref * val.value
        dpsi += pref * dval[0, 0]
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
