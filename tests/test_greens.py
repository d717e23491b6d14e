"""Region Green functions and the spectral space-time kernel."""

import math

import numpy as np
import pytest

from mstwell import (
    PacketSpec,
    PotentialSpec,
    QuadratureError,
    QuadratureSpec,
    UnsupportedRegionError,
    evolve,
    free_gaussian_closed,
    free_kernel_1d,
    green_free,
    green_region,
    propagate_kernel,
    region_of,
)
from mstwell.greens import _cutoffs, _kernel_terms
from mstwell.quadrature import OSC_ALLOWANCE, SpectralRule, levin_tail

# criterion 4's tolerances
KERNEL_QUAD = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10)
BARRIER = PotentialSpec(10.0, 40.0)
WELL = PotentialSpec(-100.0, 50.0)
DEEP_BARRIER = PotentialSpec(200.0, 0.0)


class TestRegions:
    def test_region_of(self):
        assert region_of(-0.5) == "left"
        assert region_of(0.0) == "inside"
        assert region_of(1.0) == "inside"
        assert region_of(1.5) == "right"


class TestGreenFree:
    def test_closed_form(self):
        g = green_free(2.0, -1.0, 100.0, 0.0)
        k = 10.0
        assert g == pytest.approx(np.exp(1j * k * 3.0) / (2j * k), rel=1e-14)

    def test_symmetry(self):
        assert green_free(0.7, -2.0, 60.0, 10.0) == pytest.approx(
            green_free(-2.0, 0.7, 60.0, 10.0), rel=1e-14
        )

    def test_evanescent_decay(self):
        # below the local level the Green function decays with distance
        g1 = abs(green_free(1.0, 0.0, 10.0, 50.0))
        g2 = abs(green_free(2.0, 0.0, 10.0, 50.0))
        assert g2 < g1 * math.exp(-math.sqrt(40.0) * 0.9)

    def test_branch_point_singular(self):
        with pytest.raises(ZeroDivisionError):
            green_free(1.0, 0.0, 50.0, 50.0)


class TestGreenRegion:
    POT = PotentialSpec(10.0, 50.0)

    def test_reciprocity(self):
        # G(x, x') = G(x', x) across region pairs
        for x, x_src in [(0.5, -2.0), (1.7, -2.0), (-0.3, -2.5)]:
            a = green_region(x, x_src, 100.0, self.POT)
            b = green_region(x_src, x, 100.0, self.POT)
            assert abs(a - b) <= 1e-12 * abs(a)

    def test_matches_free_when_flat(self):
        flat = PotentialSpec(0.0, 0.0)
        for x in (-0.5, 0.5, 1.5):
            g = green_region(x, -2.0, 81.0, flat)
            assert g == pytest.approx(green_free(x, -2.0, 81.0, 0.0), rel=1e-12)

    def test_continuity_at_interfaces(self):
        e = 77.0
        for x0 in (0.0, 1.0):
            below = green_region(x0 - 1e-9, -3.0, e, self.POT)
            above = green_region(x0 + 1e-9, -3.0, e, self.POT)
            assert abs(below - above) < 1e-6 * abs(below)

    def test_hard_wall_limit(self):
        # a huge barrier expels the Green function from the inner region
        wall = PotentialSpec(1e6, 0.0)
        g_in = green_region(0.5, -1.0, 100.0, wall)
        g_free = green_free(0.5, -1.0, 100.0, 0.0)
        assert abs(g_in) < 1e-8 * abs(g_free)
        # the left-region value approaches the mirror-image form of a wall at
        # x = 0; corrections scale as k / sqrt(U), so a taller wall is used
        # here (the left formula carries no evanescent exponentials)
        k = 10.0
        g_left = green_region(-0.5, -1.0, 100.0, PotentialSpec(1e8, 0.0))
        mirror = (
            np.exp(1j * k * 0.5) - np.exp(1j * k * 1.5)
        ) / (2j * k)
        assert g_left == pytest.approx(mirror, rel=5e-3)

    def test_unsupported_pairs(self):
        for x, x_src in [(0.5, 0.2), (1.5, 0.5), (1.5, 1.2), (0.5, 1.5)]:
            with pytest.raises(UnsupportedRegionError):
                green_region(x, x_src, 100.0, self.POT)

    def test_nonpositive_energy(self):
        with pytest.raises(ValueError):
            green_region(0.5, -1.0, 0.0, self.POT)


class TestKernel:
    def test_free_closed_form(self):
        # zero potential: the spectral kernel must reproduce the 1D free
        # propagator over a space-time grid
        flat = PotentialSpec(0.0, 0.0)
        quad = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10)
        for x in (-4.0, -1.5, 0.5, 2.0):
            for t in (0.1, 0.5, 1.5):
                sample = propagate_kernel(x, t, -2.0, 0.0, flat, quad)
                exact = free_kernel_1d(x, t, -2.0, 0.0)
                assert abs(sample.value - exact) <= 1e-6 * abs(exact)

    def test_retardation(self):
        sample = propagate_kernel(0.5, 0.0, -2.0, 0.5, PotentialSpec(10.0))
        assert sample.value == 0.0
        sample = propagate_kernel(0.5, 0.5, -2.0, 0.5, PotentialSpec(10.0))
        assert sample.value == 0.0

    def test_source_must_be_left(self):
        with pytest.raises(UnsupportedRegionError):
            propagate_kernel(0.5, 1.0, 0.5, 0.0, PotentialSpec(10.0))

    def test_free_kernel_normalization(self):
        # |K|^2 integrates to 1/(4 pi tau) spread: check the closed prefactor
        tau = 0.7
        k0 = free_kernel_1d(0.0, tau, 0.0, 0.0)
        assert abs(k0) == pytest.approx((4.0 * math.pi * tau) ** -0.5, rel=1e-14)

    def test_barrier_kernel_error_estimate(self):
        sample = propagate_kernel(0.5, 0.5, -2.0, 0.0, PotentialSpec(10.0, 40.0))
        assert sample.error_estimate <= 1e-8 * abs(sample.value) + 1e-10

    @pytest.mark.parametrize(
        "x, potential",
        [
            (-0.3, WELL),
            (-1.0, PotentialSpec(-1000.0, 0.0)),
            (-0.3, PotentialSpec(-1000.0, 0.0)),
            (0.3, PotentialSpec(-1000.0, 0.0)),
        ],
    )
    def test_tail_cutoff_follows_the_tolerance(self, x, potential):
        # at these points the tail past u_far must be closed well within the
        # kernel's target (an integration-by-parts closure there missed it)
        sample = propagate_kernel(x, 0.1, -2.0, 0.0, potential, KERNEL_QUAD)
        assert sample.error_estimate <= 1e-8 * abs(sample.value)

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-12])
    def test_unsplittable_levin_panels_raise_quadrature_error(self, rel_tol):
        # near u_c, where |phi'| is 2, halving Levin panels drives
        # half-width times |phi'| towards 0 and the collocation system to
        # singular; refinement stops short of that and the kernel reports
        # the unmet target with its value and estimate
        quad = QuadratureSpec(rel_tol=rel_tol, abs_tol=1e-16)
        with pytest.raises(QuadratureError) as info:
            propagate_kernel(-1.0, 0.01, -2.0, 0.0, BARRIER, quad)
        assert np.isfinite(info.value.value) and np.isfinite(info.value.error_estimate)
        _, h, beta, _ = _kernel_terms(-1.0, -2.0, BARRIER)
        u_c, u_far = _cutoffs(beta, 0.01, [math.sqrt(e) for e in BARRIER.branch_energies()])
        assert not levin_tail(h, beta, 0.01, u_c, u_far, quad).converged

    @pytest.mark.parametrize(
        "x, t, x_src, potential", [(1.5, 0.5, -11.0, BARRIER), (-0.5, 0.25, -9.25, WELL)]
    )
    def test_head_refined_against_kernel_target(self, x, t, x_src, potential):
        # the head panels met rel_tol of the head's own value, which is
        # larger than |K|: their estimate alone was 1.02 and 1.06 times the
        # kernel's target
        sample = propagate_kernel(x, t, x_src, 0.0, potential, KERNEL_QUAD)
        assert sample.error_estimate <= 1e-8 * abs(sample.value)

    def test_bit_identical_reruns(self):
        for potential in (BARRIER, PotentialSpec(-1000.0, 0.0)):
            a = propagate_kernel(-0.3, 0.1, -2.0, 0.0, potential, KERNEL_QUAD)
            b = propagate_kernel(-0.3, 0.1, -2.0, 0.0, potential, KERNEL_QUAD)
            assert a.value == b.value
            assert a.error_estimate == b.error_estimate


# each region at each time once, the three profiles in turn
LEVIN_CASES = [
    ((BARRIER, WELL, DEEP_BARRIER)[i % 3], x, t)
    for i, (x, t) in enumerate(
        (x, t) for x in (-1.0, 0.5, 1.5) for t in (0.01, 0.1, 0.5, 1.5)
    )
]


@pytest.mark.parametrize("potential, x, t", LEVIN_CASES)
def test_levin_tail_matches_gauss_kronrod(potential, x, t):
    """The kernel's Levin tail on [u_c, u_far] against Gauss-Kronrod panels.

    The reference takes 31-point Kronrod panels of pi of phase each (31
    nodes per pi, above the 30 of the 15-point pair on pi/2 panels), whose
    truncation error is far below round-off, and no refinement: its
    Kronrod - Gauss estimate is dominated by the phases' round-off and
    would only drive it into the panel budget.  That round-off, eps of
    the largest phase times max |h|, is the floor.
    """
    _, h, beta, _ = _kernel_terms(x, -2.0, potential)
    u_c, u_far = _cutoffs(beta, t, [math.sqrt(e) for e in potential.branch_energies()])
    res = levin_tail(h, beta, t, u_c, u_far, KERNEL_QUAD)
    assert res.converged

    ref_spec = QuadratureSpec(phase_per_panel=math.pi, max_panels=10**6)
    rule = SpectralRule(u_c, u_far, [], t, abs(beta), ref_spec)
    wave = h(rule.u) * np.exp(1j * beta * rule.u)
    ref, _ = rule.integrate_values((wave + np.conj(wave)) * np.exp(-1j * t * rule.u**2))
    phase = t * u_far**2 + (abs(beta) + OSC_ALLOWANCE) * u_far
    floor = np.finfo(float).eps * phase * np.max(np.abs(wave))
    assert abs(res.value - ref) <= res.error_estimate + floor


class TestKernelPropagatesPacket:
    """The kernel applied to the initial Gaussian reproduces ``evolve``."""

    PACKET = PacketSpec(100.0, 0.1, -10.0)
    # (x, t) left of, inside and right of the profile
    POINTS = ((-0.5, 0.25), (0.5, 0.5), (1.5, 0.5))

    @pytest.mark.parametrize("potential", [BARRIER, WELL])
    def test_matches_evolve(self, potential):
        # Gauss-Legendre over x' in x_i +- 1, beyond which the packet is
        # below 3e-11 of its peak; 64 nodes agree with 120 to 1e-11
        nodes, weights = np.polynomial.legendre.leggauss(64)
        x_src = self.PACKET.x_i_tilde + nodes
        psi0 = free_gaussian_closed(self.PACKET, x_src, 0.0)
        xs = [x for x, _ in self.POINTS]
        ts = sorted({t for _, t in self.POINTS})
        field = evolve(self.PACKET, potential, xs, ts)
        for j, (x, t) in enumerate(self.POINTS):
            samples = [propagate_kernel(x, t, xp, 0.0, potential, KERNEL_QUAD) for xp in x_src]
            kernel = np.array([s.value for s in samples])
            kernel_err = np.array([s.error_estimate for s in samples])
            psi = np.sum(weights * psi0 * kernel)
            i = ts.index(t)
            expected = field.psi_fwd[i, j] + field.psi_bwd[i, j]
            budget = np.sum(weights * np.abs(psi0) * kernel_err) + field.error_estimate[i, j]
            assert abs(expected) > 0.1
            assert abs(psi - expected) <= budget
