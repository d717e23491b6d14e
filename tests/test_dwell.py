"""Dwell times: closed forms, independent references, and packet totals.

The symmetric-profile reference formula (Buttiker's dwell time for a
rectangular barrier) is coded here from scratch in both regimes, so the
comparison does not share any code with the module under test.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mstwell import (
    PacketSpec,
    PotentialSpec,
    QuadratureSpec,
    dwell_asymptotic,
    dwell_energy_density,
    dwell_resonant,
    dwell_total,
    relative_dwell_asymptotic,
    relative_dwell_turning_point,
    spectral_rule,
)
from mstwell.dwell import _dwell_densities, inner_integrals_brute


def buttiker_dwell(e, u):
    """Symmetric-barrier dwell time, independent closed form (d = 1).

    Internal units: hbar = 1, m = 1/2, k = sqrt(E); evanescent regime uses
    kappa = sqrt(U - E).
    """
    k = math.sqrt(e)
    if e > u:
        ku = math.sqrt(e - u)
        num = 2.0 * ku * (2.0 * e - u) - u * math.sin(2.0 * ku)
        den = 4.0 * k * k * ku * ku + u * u * math.sin(ku) ** 2
        return k * num / (2.0 * ku * den)
    kap = math.sqrt(u - e)
    num = 2.0 * kap * (kap * kap - k * k) + u * math.sinh(2.0 * kap)
    den = 4.0 * k * k * kap * kap + u * u * math.sinh(kap) ** 2
    return k * num / (2.0 * kap * den)


class TestEnergyDensity:
    def test_free_identity(self):
        # t(E; d) = d / v with v = 2 sqrt(E)
        for e in (1.0, 25.0, 100.0, 987.6):
            t = dwell_energy_density(e, PotentialSpec(0.0, 0.0))["t_of_E"]
            assert abs(t - 1.0 / (2.0 * math.sqrt(e))) <= 1e-12 * t

    @pytest.mark.parametrize(
        "e,u",
        [(100.0, 10.0), (5.0, 10.0), (9.9, 10.0), (100.0, -100.0), (50.0, 45.0)],
    )
    def test_matches_buttiker(self, e, u):
        t = dwell_energy_density(e, PotentialSpec(u, 0.0))["t_of_E"]
        assert abs(t - buttiker_dwell(e, u)) <= 1e-12 * t

    def test_closed_forms_match_brute_quadrature(self):
        rng = np.random.default_rng(5)
        regimes = {
            "over_barrier": lambda: (rng.uniform(15.0, 300.0), 10.0, 0.0),
            "tunneling": lambda: (rng.uniform(5.0, 45.0), 50.0, 0.0),
            "well": lambda: (rng.uniform(1.0, 300.0), -100.0, 0.0),
            "sub_drop": lambda: (rng.uniform(5.0, 39.0), 10.0, 40.0),
            "asymmetric": lambda: (rng.uniform(45.0, 300.0), 10.0, 40.0),
        }
        for sample in regimes.values():
            for _ in range(20):
                e, u, d = sample()
                pot = PotentialSpec(u, d)
                closed = dwell_energy_density(e, pot)
                t_b, k_b = inner_integrals_brute(e, pot)
                assert abs(closed["t_of_E"] - t_b) <= 1e-8 * abs(t_b)
                assert abs(closed["interference_kernel"] - k_b) <= 1e-8 * max(
                    abs(k_b), 1e-12
                )

    def test_inner_branch_point_value(self):
        # u = sqrt(10) squared lands 2e-15 above U, where the inner wave's
        # forward and backward parts each grow as 1/k_u; the value is the
        # brute-force x quadrature's to 1e-8
        t = dwell_energy_density(10.0 + 2e-15, PotentialSpec(10.0, 40.0))["t_of_E"]
        assert t == pytest.approx(0.23181492, abs=1e-8)
        t_b, _ = inner_integrals_brute(10.0 + 2e-15, PotentialSpec(10.0, 40.0))
        assert t == pytest.approx(t_b, rel=1e-8)

    @pytest.mark.parametrize("pot", [PotentialSpec(100.0, 40.0), PotentialSpec(10.0, 100.0)])
    def test_finite_at_branch_energies(self, pot):
        # E = 100 = U (k_u = 0) or E = 100 = Delta (k_d = 0), hit exactly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = dwell_energy_density(100.0, pot)
        assert np.isfinite(res["t_of_E"]) and res["t_of_E"] > 0
        assert np.isfinite(res["interference_kernel"])

    def test_continuous_across_inner_branch_point(self):
        pot = PotentialSpec(10.0, 40.0)
        at = dwell_energy_density(10.0, pot)["t_of_E"]
        for e in (10.0 * (1.0 - 1e-10), 10.0 * (1.0 + 1e-10)):
            assert dwell_energy_density(e, pot)["t_of_E"] == pytest.approx(at, rel=1e-9)


class TestResonant:
    def test_relative_dwell_approaches_half(self):
        # at fixed incidence energy, deep-well resonances U_n = E - (pi n)^2
        # give a relative dwell of 1/2 + E/(2 (pi n)^2); once (pi n)^2 is at
        # least 50 E the deviation from 1/2 is inside 2 percent
        e = 100.0
        for n in range(23, 31):
            assert (math.pi * n) ** 2 >= 50.0 * e
            res = dwell_resonant(e, PotentialSpec(e - (math.pi * n) ** 2, 0.0))
            assert res.n == n
            assert abs(res.relative - 0.5) < 0.02 * 0.5

    def test_known_value_n10(self):
        e = 100.0  # U = 100 - pi^2 10^2 puts the 10th resonance at E = 100
        u = 100.0 - (math.pi * 10.0) ** 2
        res = dwell_resonant(e, PotentialSpec(u, 0.0))
        assert res.n == 10
        expected = 2.0 * e * (2.0 * e - u) / (4.0 * e * (e - u))
        assert res.relative == pytest.approx(expected, rel=1e-12)
        assert res.time == pytest.approx(expected / 20.0, rel=1e-12)

    def test_non_resonant_raises_with_nearest(self):
        pot = PotentialSpec(10.0, 0.0)
        with pytest.raises(ValueError, match="nearest resonance"):
            dwell_resonant(50.0, pot)
        nearest = 10.0 + (2.0 * math.pi) ** 2
        with pytest.raises(ValueError, match=f"E={nearest}"):
            dwell_resonant(50.0, pot)

    def test_requires_propagating_channel(self):
        with pytest.raises(ValueError):
            dwell_resonant(5.0, PotentialSpec(10.0, 0.0))
        # k_u = pi is resonant, but the exit channel is closed at E < Delta
        with pytest.raises(ValueError, match="exit channel"):
            dwell_resonant(30.0, PotentialSpec(30.0 - math.pi**2, 40.0))


class TestAsymptotic:
    def test_master_matches_buttiker_symmetric(self):
        for e, u in [(100.0, 10.0), (5.0, 10.0), (100.0, -100.0), (30.0, 80.0)]:
            tau = dwell_asymptotic(e, PotentialSpec(u, 0.0))
            assert tau == pytest.approx(buttiker_dwell(e, u), rel=1e-12)

    def test_relative_normalization(self):
        pot = PotentialSpec(10.0, 40.0)
        rel = relative_dwell_asymptotic(100.0, pot)
        assert dwell_asymptotic(100.0, pot) == pytest.approx(rel / 20.0, rel=1e-14)

    def test_sin_regime_form(self):
        # printed propagating-regime expression, re-coded from scratch
        e, u, d = 100.0, 10.0, 40.0
        k, ku, kd = math.sqrt(e), math.sqrt(e - u), math.sqrt(e - d)
        num = 2.0 * ku * (2.0 * e - u - d) - (u - d) * math.sin(2.0 * ku)
        den = (k + kd) ** 2 * (e - u) + u * (u - d) * math.sin(ku) ** 2
        expected = (e / ku) * num / den
        assert relative_dwell_asymptotic(e, PotentialSpec(u, d)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_sinh_regime_form(self):
        # sub-barrier regime: kappa = sqrt(U - E), oscillations turn hyperbolic
        e, u, d = 30.0, 80.0, 10.0
        k, kd = math.sqrt(e), math.sqrt(e - d)
        kap = math.sqrt(u - e)
        num = -2.0 * kap * (2.0 * e - u - d) + (u - d) * math.sinh(2.0 * kap)
        den = (k + kd) ** 2 * (u - e) + u * (u - d) * math.sinh(kap) ** 2
        expected = (e / kap) * num / den
        assert relative_dwell_asymptotic(e, PotentialSpec(u, d)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_continuity_at_turning_point(self):
        pot = PotentialSpec(100.0, 0.0)
        below = relative_dwell_asymptotic(100.0 - 1e-5, pot)
        at = relative_dwell_asymptotic(100.0, pot)
        above = relative_dwell_asymptotic(100.0 + 1e-5, pot)
        assert below == pytest.approx(at, rel=1e-4)
        assert above == pytest.approx(at, rel=1e-4)

    def test_turning_point_quoted_value(self):
        # 4 E / (4 E + U^2) at E = U = 100
        val = relative_dwell_turning_point(100.0, PotentialSpec(100.0, 0.0))
        assert val == pytest.approx(400.0 / 10400.0, rel=1e-12)

    def test_turning_point_factor_regression(self):
        # the relative dwell's E -> U limit exceeds the quoted form by
        # exactly (1 + (U - Delta)/3); pin the measured ratio so the
        # discrepancy between the two published variants stays visible
        u0 = 100.0
        for delta in (0.0, 90.0):
            pot = PotentialSpec(u0, delta)
            ratio = relative_dwell_asymptotic(u0, pot) / relative_dwell_turning_point(
                u0, pot
            )
            assert ratio == pytest.approx(1.0 + (u0 - delta) / 3.0, rel=1e-6)

    def test_known_values(self):
        # at the turning point with a drop, and below the exit threshold
        assert relative_dwell_asymptotic(100.0, PotentialSpec(100.0, 90.0)) == pytest.approx(
            1.4773833, abs=1e-7
        )
        assert relative_dwell_asymptotic(30.0, PotentialSpec(10.0, 40.0)) == pytest.approx(
            2.839050, abs=1e-6
        )

    def test_matches_brute_quadrature_in_every_regime(self):
        # 2 sqrt(E) t(E) with t(E) from direct x quadrature of |psi|^2
        for e, u, d in [(100.0, 10.0, 40.0), (30.0, 10.0, 40.0), (30.0, 80.0, 10.0),
                        (20.0, 80.0, 40.0), (100.0, 99.0, 90.0), (50.0, -300.0, 60.0)]:
            t_b, _ = inner_integrals_brute(e, PotentialSpec(u, d))
            assert relative_dwell_asymptotic(e, PotentialSpec(u, d)) == pytest.approx(
                2.0 * math.sqrt(e) * t_b, rel=1e-10
            )


class TestPacketTotal:
    def test_free_total_matches_spectral_average(self):
        packet = PacketSpec(100.0, 1 / 3, -10.0)
        res = dwell_total(packet, PotentialSpec(0.0, 0.0))
        # free dwell is the spectral average of d / v = 1 / (2u); compute the
        # average here by direct quadrature over the normal spectral density
        s = 1.0 / (2.0 * packet.sigma_tilde)
        u = np.linspace(1e-6, 10.0 + 10.0 * s, 400_001)
        rho = np.exp(-((u - 10.0) ** 2) / (2.0 * s * s)) / (s * math.sqrt(2.0 * math.pi))
        expected = float(np.trapezoid(rho / (2.0 * u), u))
        assert res.tau_total == pytest.approx(expected, rel=1e-6)
        assert res.tau_bwd < 1e-8
        assert res.tau_total == pytest.approx(
            res.tau_fwd + res.tau_bwd + res.tau_interference, rel=1e-14
        )

    def test_narrowband_total_approaches_asymptotic(self):
        packet = PacketSpec(100.0, 1.0, -10.0)
        pot = PotentialSpec(10.0, 40.0)
        res = dwell_total(packet, pot)
        assert res.tau_total == pytest.approx(dwell_asymptotic(100.0, pot), rel=1e-2)

    def test_narrowband_total_below_exit_threshold(self):
        # E_perp = 30 < Delta = 40: the packet dwell still tends to t(E_perp)
        pot = PotentialSpec(10.0, 40.0)
        res = dwell_total(PacketSpec(30.0, 2.0, -10.0), pot)
        assert res.converged
        assert res.tau_total == pytest.approx(dwell_asymptotic(30.0, pot), rel=3e-2)

    def test_broadband_backward_contributes(self):
        packet = PacketSpec(100.0, 0.1, -10.0)
        res = dwell_total(packet, PotentialSpec(10.0, 0.0))
        assert res.tau_bwd > 0
        assert res.tau_bwd / res.tau_total > 1e-4


def _mp_exit_side(e, u_level, delta):
    """t(E) and K(E) of the exit-side closed form in 60-digit arithmetic.

    T = 2u e^{i k_u} / d with d = (k + k_d) - (e^{2i k_u} - 1)/(2 k_u)
    (k - k_u)(k_d - k_u), psi(x) = T [C(1 - x) - i k_d S(1 - x)]; the
    integrals of C^2, S^2 and C S are evaluated from sin of complex k_u,
    whose growth mpmath carries without overflow.
    """
    import mpmath as mp

    with mp.workdps(60):
        e = mp.mpf(e)
        k = mp.sqrt(e)

        def channel(v):
            root = mp.sqrt(mp.mpc(e - v))
            return -root if mp.im(root) < 0 else root

        ku, kd = channel(u_level), channel(delta)
        d = (k + kd) - (mp.exp(2j * ku) - 1) / (2 * ku) * (k - ku) * (kd - ku)
        a = mp.exp(1j * ku) / d
        z = 2 * ku
        cc = (1 + mp.sin(z) / z) / 2
        ss = 2 * (z - mp.sin(z)) / z**3
        cs = (mp.sin(ku) / ku) ** 2 / 2
        t = mp.re(2 * k * abs(a) ** 2 * (cc + abs(kd) ** 2 * ss + 2 * mp.im(kd) * cs))
        kernel = 2 * k * a * a * (cc - kd * kd * ss - 2j * kd * cs)
        return float(t), complex(kernel)


class TestDeepBarrier:
    """|T|^2's e^{-2 kappa} and the inner integrals' e^{2 kappa} cancel in closed form."""

    @pytest.mark.parametrize("u_level", [1e2, 1e4, 1e5, 1.3e5, 3e5, 1e6])
    @pytest.mark.parametrize("delta", [0.0, 40.0])
    def test_matches_high_precision_closed_form(self, u_level, delta):
        for e in (1.0, 50.0, 99.5, 300.0):
            # the code works at E = u^2 for u = sqrt(E): compare there
            e_code = math.sqrt(e) ** 2
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = dwell_energy_density(e, PotentialSpec(u_level, delta))
            t, kernel = _mp_exit_side(e_code, u_level, delta)
            assert abs(res["t_of_E"] - t) <= 1e-12 * t
            assert abs(res["interference_kernel"] - kernel) <= 1e-12 * abs(kernel)

    def test_packet_dwell_is_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = dwell_total(PacketSpec(100.0, 1 / 3, -10.0), PotentialSpec(2e5, 0.0))
        parts = [res.tau_fwd, res.tau_bwd, res.tau_interference, res.tau_total]
        assert res.converged and np.all(np.isfinite(parts))
        assert 0.0 < res.tau_total < dwell_total(
            PacketSpec(100.0, 1 / 3, -10.0), PotentialSpec(1e5, 0.0)).tau_total


def _quad_components(packet, pot):
    """(fwd, bwd, interference) by scipy's QUADPACK from the per-energy pieces.

    Over u = sqrt(E) with dE = 2u du, the densities are 2u t(E) m^2 with
    m^2 = sigma / (sqrt(2 pi) u) e^{-2 sigma^2 (u -+ u_perp)^2}, and
    2u 2 Re[K m_> m_< e^{-2iu x_i}]; every integral runs over the backward
    window [0, u_perp + 8 / sigma], split at the channel branch points, the
    interference with QUADPACK's cos/sin weights for e^{-2iu x_i}.
    """
    from scipy.integrate import quad

    sig, u0, x_i = packet.sigma_tilde, packet.u_perp, packet.x_i_tilde
    norm = 2.0 * sig / math.sqrt(2.0 * math.pi)
    cuts = sorted({0.0, u0 + 8.0 / sig,
                   *(math.sqrt(b) for b in (pot.u_tilde, pot.delta_tilde) if b > 0)})

    def pieces(u):
        res = dwell_energy_density(u * u, pot)
        return res["t_of_E"], res["interference_kernel"]

    def integrate(f, **weight):
        return math.fsum(quad(f, a, b, epsabs=1e-15, epsrel=1e-12, limit=400, **weight)[0]
                         for a, b in zip(cuts[:-1], cuts[1:]))

    fwd = integrate(lambda u: norm * pieces(u)[0] * math.exp(-2.0 * sig**2 * (u - u0) ** 2))
    bwd = integrate(lambda u: norm * pieces(u)[0] * math.exp(-2.0 * sig**2 * (u + u0) ** 2))

    def envelope(u):
        return 2.0 * norm * math.exp(-2.0 * sig**2 * (u * u + u0 * u0))

    # Re[K e^{-2iu x_i}] = Re K cos(2u x_i) + Im K sin(2u x_i)
    inter = integrate(lambda u: envelope(u) * pieces(u)[1].real, weight="cos", wvar=2.0 * x_i)
    inter += integrate(lambda u: envelope(u) * pieces(u)[1].imag, weight="sin", wvar=2.0 * x_i)
    return fwd, bwd, inter


class TestFusedComponents:
    """The three components on one rule, each against its own QUADPACK integral."""

    @pytest.mark.parametrize("u_level,delta", [
        (100.0, 0.0),    # E_perp = U
        (50.0, 90.0),    # sqrt(U) and sqrt(Delta) inside the window
        (40.5, 40.0),    # U just above Delta
        (39.5, 40.0),    # U just below Delta
        (-500.0, 90.0),  # a well, sqrt(Delta) inside the window
    ])
    def test_components_match_quadpack(self, u_level, delta):
        packet = PacketSpec(100.0, 0.1, -10.0)
        pot = PotentialSpec(u_level, delta)
        res = dwell_total(packet, pot)
        assert res.converged
        ref = _quad_components(packet, pot)
        got = (res.tau_fwd, res.tau_bwd, res.tau_interference)
        for value, reference in zip(got, ref):
            # each component meets its own target, max(rel_tol |tau_c|, abs_tol)
            assert abs(value - reference) <= 1e-8 * abs(reference) + 1e-12

    def test_one_missed_component_is_not_converged(self):
        # on a third of the panels the default seeds, the forward and backward
        # parts meet their targets and the faster interference part alone does not
        packet, pot = PacketSpec(100.0, 0.1, -10.0), PotentialSpec(-500.0, 90.0)
        window = QuadratureSpec().window_w / math.sqrt(2.0)  # dwell_total's window
        seeded = spectral_rule(packet, "both", pot.branch_energies(), 0.0, 20.0,
                               QuadratureSpec(window_w=window)).n_panels
        quad = QuadratureSpec(max_panels=seeded // 3)
        rule = spectral_rule(packet, "both", pot.branch_energies(), 0.0, 20.0,
                             replace(quad, window_w=window))
        probe = rule.refine_against(lambda u: _dwell_densities(u, packet, pot))
        missed = probe.error_estimate > np.maximum(1e-8 * np.abs(probe.value), 1e-12)
        assert missed.tolist() == [False, False, True]
        assert not dwell_total(packet, pot, quad).converged
        assert dwell_total(packet, pot).converged

    def test_free_profile_is_not_converged(self):
        # the free packet dwell diverges logarithmically at E -> 0
        res = dwell_total(PacketSpec(100.0, 0.1, -10.0), PotentialSpec(0.0, 0.0))
        assert not res.converged
