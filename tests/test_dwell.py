"""Dwell times: closed forms, independent references, and packet totals.

The symmetric-profile reference formula (Buttiker's dwell time for a
rectangular barrier) is coded here from scratch in both regimes, so the
comparison does not share any code with the module under test.
"""

import math

import numpy as np
import pytest

from mstwell import (
    PacketSpec,
    PotentialSpec,
    dwell_asymptotic,
    dwell_energy_density,
    dwell_resonant,
    dwell_total,
    relative_dwell_asymptotic,
    relative_dwell_turning_point,
)
from mstwell.dwell import inner_integrals_brute


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
        # the master expression's E -> U limit exceeds the quoted form by
        # exactly (1 + U/3); pin the measured ratio so the discrepancy
        # between the two published variants stays visible
        u0 = 100.0
        pot = PotentialSpec(u0, 0.0)
        ratio = relative_dwell_asymptotic(u0, pot) / relative_dwell_turning_point(
            u0, pot
        )
        assert ratio == pytest.approx(1.0 + u0 / 3.0, rel=1e-6)


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

    def test_broadband_backward_contributes(self):
        packet = PacketSpec(100.0, 0.1, -10.0)
        res = dwell_total(packet, PotentialSpec(10.0, 0.0))
        assert res.tau_bwd > 0
        assert res.tau_bwd / res.tau_total > 1e-4
