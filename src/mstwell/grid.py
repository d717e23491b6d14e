"""Finite-difference time-domain reference solver for cross-validation.

Independent of every analytic ingredient in this package: the packet is
evolved on a hard-walled, over-sized domain by the (2,2) diagonal Pade
approximant of exp(-i dt H) for the discretized Hamiltonian H (Puzynin,
Selin & Vinitsky, Comput. Phys. Commun. 123 (1999) 1): one banded LU
solve per step, exactly unitary for a Hermitian discrete Hamiltonian, so
norm drift is a sharp diagnostic of the linear algebra, not the physics.

The Laplacian uses the 5-point fourth-order stencil.  With the second
order stencil the dispersion error at the packet's upper spectral flank
would force grid sizes far beyond the domain invariants' intent; the
fourth-order stencil reaches the comparison tolerances at the mandated
spacing.  The time step is fourth order as well, so under joint
refinement of dx and dt the error falls as the fourth power of both.

Internal units as everywhere: hbar = 1, m = 1/2, i dpsi/dt = -psi'' + V psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import PotentialSpec
from .packet import PacketSpec


class GridConfigError(ValueError):
    """Grid parameters violate a stability/resolution invariant."""


def _scenario_bounds(packet: PacketSpec, window_w: float, t_max: float):
    """(e_max, step_rate, margin): the spectral window's top energy, the cap
    dt <= dx / step_rate, and the reach the domain needs beyond x_i and 1.

    The cap dt <= 4 dx / sqrt(e_max) together with the spacing cap
    dx <= pi / (8 sqrt(e_max)) holds the phase e_max dt of one fourth-order
    step to at most pi/2 at the top of the spectral window.
    """
    e_max = (packet.u_perp + window_w / packet.sigma_tilde) ** 2
    step_rate = math.sqrt(e_max) / 4.0
    margin = 10.0 * packet.sigma_tilde + 2.0 * math.sqrt(e_max) * t_max
    return e_max, step_rate, margin


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    dx: float
    dt: float
    window_w: float = 5.0

    def __post_init__(self):
        if self.dx <= 0 or self.dt <= 0 or self.x_max <= self.x_min:
            raise GridConfigError("dx, dt must be positive and x_max > x_min")
        if not self.window_w > 0:
            raise GridConfigError(f"window_w must be positive, got {self.window_w}")

    def validate(self, packet: PacketSpec, t_max: float):
        """Resolution and coverage invariants for a given scenario.

        dx resolves the window's top energy e_max with 16 points per
        wavelength, and dt <= 4 dx / sqrt(e_max) keeps the phase of one
        (2,2) Pade step at that energy within pi/2.  At that cap the
        fourth-order time error is of the size of the spacing error, not
        above it.
        """
        e_max, step_rate, margin = _scenario_bounds(packet, self.window_w, t_max)
        dx_cap = (2.0 * math.pi / math.sqrt(e_max)) / 16.0
        if self.dx > dx_cap * (1.0 + 1e-12):
            raise GridConfigError(
                f"dx={self.dx} exceeds the 16-points-per-wavelength cap {dx_cap}"
            )
        dt_cap = self.dx / step_rate
        if self.dt > dt_cap * (1.0 + 1e-12):
            raise GridConfigError(
                f"dt={self.dt} exceeds the cap 4 dx / sqrt(e_max) = {dt_cap}"
            )
        lo_need = packet.x_i_tilde - margin
        hi_need = 1.0 + margin
        if self.x_min > lo_need or self.x_max < hi_need:
            raise GridConfigError(
                f"domain [{self.x_min}, {self.x_max}] does not contain "
                f"[{lo_need}, {hi_need}]"
            )

    @property
    def x_grid(self) -> np.ndarray:
        n = int(round((self.x_max - self.x_min) / self.dx))
        return self.x_min + self.dx * np.arange(n + 1)


def grid_for_scenario(
    packet: PacketSpec,
    potential: PotentialSpec,
    t_max: float,
    dx_refine: float = 1.0,
    dt_refine: float = 1.0,
    window_w: float = 5.0,
) -> GridSpec:
    """Build the coarsest grid satisfying the invariants, optionally refined.

    The spacing cap also accounts for the extra wave number picked up over
    a well (U or Delta below zero), which the generic invariant ignores.
    """
    if not (dx_refine > 0 and dt_refine > 0 and window_w > 0):
        raise GridConfigError("dx_refine, dt_refine and window_w must be positive")
    e_max, step_rate, margin = _scenario_bounds(packet, window_w, t_max)
    depth = max(0.0, -min(potential.u_tilde, potential.delta_tilde, 0.0))
    dx_cap = (2.0 * math.pi / math.sqrt(e_max + depth)) / 16.0 / dx_refine
    # snap the spacing so the potential jumps at x = 0 and x = 1 fall exactly
    # on grid nodes; otherwise the effective barrier edges shift by O(dx)
    # and that misalignment dominates every other discretization error
    dx = 1.0 / math.ceil(1.0 / dx_cap)
    dt = dx / step_rate / dt_refine
    spec = GridSpec(
        x_min=-dx * math.ceil((margin - packet.x_i_tilde) / dx),
        x_max=1.0 + dx * math.ceil(margin / dx),
        dx=dx,
        dt=dt,
        window_w=window_w,
    )
    spec.validate(packet, t_max)
    return spec


@dataclass
class GridField:
    """Grid-solver output sampled at requested times."""

    x_grid: np.ndarray
    t_grid: np.ndarray
    psi: np.ndarray  # shape (nt, nx)
    norm_history: np.ndarray
    time_steps: int  # steps taken over all gaps between samples
    grid: GridSpec = field(repr=False, default=None)

    @property
    def density(self) -> np.ndarray:
        return np.abs(self.psi) ** 2

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norm_history - 1.0)))


def initial_cutoff_packet(packet: PacketSpec, x: np.ndarray, dx: float) -> np.ndarray:
    """Gaussian restricted to x < 0 and renormalized on the grid."""
    psi = np.where(
        x < 0.0,
        np.exp(-((x - packet.x_i_tilde) ** 2) / (4.0 * packet.sigma_tilde ** 2))
        * np.exp(1j * packet.u_perp * x),
        0.0,
    ).astype(complex)
    norm = math.sqrt(float(np.sum(np.abs(psi) ** 2)) * dx)
    return psi / norm


def _potential_on_grid(potential: PotentialSpec, x: np.ndarray) -> np.ndarray:
    """Pointwise sampling with the mean value on jump nodes.

    A one-sided value at a jump node shifts the effective interface by half
    a cell, an O(dx) error that dwarfs the stencil error; the mean keeps the
    discrete step centered on the node.  The tolerance keeps nodes meant to
    sit exactly on a jump from being misclassified by rounding of
    x_min + j*dx.
    """
    tol = 1e-9
    v = np.zeros_like(x)
    v[(x > tol) & (x < 1.0 - tol)] = potential.u_tilde
    v[x > 1.0 + tol] = potential.delta_tilde
    v[np.abs(x) <= tol] = 0.5 * potential.u_tilde
    v[np.abs(x - 1.0) <= tol] = 0.5 * (potential.u_tilde + potential.delta_tilde)
    return v


def _pade_denominator(d, a, b, dt):
    """Q = 1 + z/2 + z^2/12, z = i dt H, in LAPACK band storage for gbtrf (kl = ku = 4).

    H is symmetric with the diagonal ``d`` and the constant off-diagonals
    ``a`` (at +-1) and ``b`` (at +-2), and so is Q.  The hard walls truncate
    H^2: its end rows lose the terms H_ik H_kj through absent nodes k.
    """
    h2 = [d * d + 2.0 * (a * a + b * b), a * (d[:-1] + d[1:]) + 2.0 * a * b,
          b * (d[:-2] + d[2:]) + a * a, 2.0 * a * b, b * b]
    h2[0][[0, -1]] -= a * a + b * b
    h2[0][[1, -2]] -= b * b
    h2[1][[0, -1]] -= a * b
    ab = np.zeros((13, d.size), dtype=complex)
    for m, h in enumerate((d, a, b, 0.0, 0.0)):
        ab[8 - m, m:] = ab[8 + m, :d.size - m] = (m == 0) + 0.5j * dt * h - dt * dt / 12 * h2[m]
    return ab


class _CayleyStepper:
    """(2,2) Pade step psi <- R(z) psi, R(z) = Q(-z) / Q(z), with z = i dt H.

    Since Q(-z) = Q(z) - z, a step is psi - Q(z)^-1 (z psi): z psi from H's
    five diagonals, then one solve with the LAPACK banded LU (partial
    pivoting) of Q, factored once here.  Q has real coefficients, so R is
    exactly unitary for Hermitian H.
    """

    def __init__(self, v_grid, dx, dt):
        from scipy.linalg import get_lapack_funcs  # only the grid oracle needs it
        inv = 1.0 / (dx * dx)
        d, a, b = 2.5 * inv + v_grid, -4.0 / 3.0 * inv, inv / 12.0
        gbtrf, self._gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), dtype=complex)
        self._lu, self._piv, info = gbtrf(_pade_denominator(d, a, b, dt), 4, 4)
        if info != 0:
            raise RuntimeError(f"banded LU factorization failed (info={info})")
        self._zd, self._zoff = 1j * dt * d, ((1, 1j * dt * a), (2, 1j * dt * b))

    def step(self, psi):
        zpsi = self._zd * psi
        for k, c in self._zoff:
            zpsi[:-k] += c * psi[k:]
            zpsi[k:] += c * psi[:-k]
        y, info = self._gbtrs(self._lu, 4, 4, zpsi, self._piv, overwrite_b=1)
        if info != 0:
            raise RuntimeError(f"banded solve failed (info={info})")
        return psi - y


def evolve_grid(
    packet: PacketSpec,
    potential: PotentialSpec,
    grid: GridSpec,
    t_samples,
) -> GridField:
    """Fourth-order unitary evolution of the cutoff packet, sampled at t_samples.

    Sample times are hit exactly: each inter-sample gap is stepped with
    dt' = gap / ceil(gap / dt), by a factorization of its own unless the
    previous gap took the same dt'.
    """
    t_samples = np.asarray(t_samples, dtype=float)
    if t_samples.size == 0 or np.any(np.diff(t_samples) <= 0):
        raise GridConfigError("t_samples must be non-empty and increasing")
    if t_samples[0] <= packet.t0_tilde:
        raise GridConfigError("all t_samples must exceed t0_tilde")
    grid.validate(packet, float(t_samples[-1]) - packet.t0_tilde)

    x = grid.x_grid
    v = _potential_on_grid(potential, x)

    psi = initial_cutoff_packet(packet, x, grid.dx)
    # hard walls: endpoints pinned to zero, interior evolved.  The interior
    # gets a floor far below every tolerance: without it the banded solves
    # carry the packet's decaying tail into the exact zeros ahead of it
    # through subnormal numbers, whose arithmetic made steps up to ~15x
    # slower until the wave filled the domain.
    psi[0] = psi[-1] = 0.0
    psi[1:-1] += 1e-150

    out = np.empty((t_samples.size, x.size), dtype=complex)
    norms = np.empty(t_samples.size)
    t_now = packet.t0_tilde
    time_steps = 0
    dt = None
    for i, t_target in enumerate(t_samples):
        gap = float(t_target) - t_now
        n_steps = max(1, math.ceil(gap / grid.dt))
        if gap / n_steps != dt:
            dt = gap / n_steps
            stepper = _CayleyStepper(v[1:-1], grid.dx, dt)
        inner = psi[1:-1]
        for _ in range(n_steps):
            inner = stepper.step(inner)
        time_steps += n_steps
        psi = np.concatenate([[0.0], inner, [0.0]])
        t_now = float(t_target)
        out[i] = psi
        norms[i] = math.sqrt(float(np.sum(np.abs(psi) ** 2)) * grid.dx)

    return GridField(x, t_samples.copy(), out, norms, time_steps, grid)


def free_gaussian_closed(packet: PacketSpec, x, t) -> np.ndarray:
    """Exact free evolution of the (un-cutoff) Gaussian packet."""
    x = np.asarray(x, dtype=float)
    tau = float(t) - packet.t0_tilde
    s = packet.sigma_tilde
    a = s * s + 1j * tau
    center = packet.x_i_tilde + 2.0 * packet.u_perp * tau
    return (
        (2.0 * math.pi * s * s) ** -0.25
        * np.sqrt(s * s / a)
        * np.exp(1j * packet.u_perp * x - 1j * packet.e_perp_tilde * tau)
        * np.exp(-((x - center) ** 2) / (4.0 * a))
    )


def _field_values(f) -> np.ndarray:
    if hasattr(f, "psi"):
        return np.asarray(f.psi)
    return np.asarray(f.psi_fwd) + np.asarray(f.psi_bwd)


def compare(field_a, field_b, norm: str = "L2_rel", time_index=None) -> float:
    """Relative distance between two sampled fields on a common grid."""
    if norm not in ("L2_rel", "Linf_rel"):
        raise ValueError(f"unknown norm {norm!r}")
    xa, xb = np.asarray(field_a.x_grid), np.asarray(field_b.x_grid)
    ta, tb = np.asarray(field_a.t_grid), np.asarray(field_b.t_grid)
    if xa.shape != xb.shape or not np.allclose(xa, xb, rtol=0, atol=1e-12):
        raise ValueError("fields are sampled on different x grids")
    if ta.shape != tb.shape or not np.allclose(ta, tb, rtol=0, atol=1e-12):
        raise ValueError("fields are sampled on different time grids")
    a = _field_values(field_a)
    b = _field_values(field_b)
    if time_index is not None:
        a = a[time_index]
        b = b[time_index]
    diff = a - b
    if norm == "L2_rel":
        ref = float(np.linalg.norm(a.ravel()))
        return float(np.linalg.norm(diff.ravel())) / ref
    ref = float(np.max(np.abs(a)))
    return float(np.max(np.abs(diff))) / ref
