"""Spectral decomposition and validity diagnostics of the Gaussian packet."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfc

from mstwell import (
    PacketSpec,
    backward_peak_ratio,
    cutoff_tail_mass,
    QuadratureSpec,
    gaussian_weight,
    spectral_modulus,
    spectral_rule,
    validity_report,
)


def _spectral_mass(packet, direction):
    """Int |psi(E)|^2 dE of one direction, over u with the Jacobian 2u."""
    rule = spectral_rule(packet, direction, (), 0.0, 0.0, QuadratureSpec())
    return rule.refine_against(
        lambda u: 2.0 * u * spectral_modulus(u, packet, direction) ** 2
    )


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PacketSpec(-1.0, 0.1, -10.0)
    with pytest.raises(ValueError):
        PacketSpec(100.0, 0.0, -10.0)
    with pytest.raises(ValueError):
        PacketSpec(100.0, 0.1, 0.0)  # must start left of the step


def test_derived_ratios():
    p = PacketSpec(100.0, 0.1, -10.0)
    assert p.u_perp == pytest.approx(10.0)
    assert p.localization_ratio == pytest.approx(50.0)
    assert p.narrowband_ratio == pytest.approx(1.0)


class TestSpectralNorm:
    @pytest.mark.parametrize("sigma", [0.1, 1 / 3, 0.5])
    def test_total_spectral_mass_is_one(self, sigma):
        # Int (|psi_>|^2 + |psi_<|^2) dE = 1 for the full Gaussian
        packet = PacketSpec(100.0, sigma, -10.0)
        fwd = _spectral_mass(packet, "forward")
        bwd = _spectral_mass(packet, "backward")
        assert fwd.converged and bwd.converged
        total = fwd.value.real + bwd.value.real
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_narrowband_forward_dominance(self):
        packet = PacketSpec(100.0, 1 / 3, -10.0)
        bwd = _spectral_mass(packet, "backward")
        assert bwd.value.real < 1e-9


class TestSpectralModulus:
    @pytest.mark.parametrize("direction, sign", [("forward", -1.0), ("backward", 1.0)])
    def test_square_is_the_spectral_density(self, direction, sign):
        packet = PacketSpec(100.0, 0.2, -5.0)
        sig = packet.sigma_tilde
        u = np.linspace(0.05, 50.0, 200)
        expected = (
            sig / (math.sqrt(2.0 * math.pi) * u)
            * np.exp(-2.0 * (u + sign * packet.u_perp) ** 2 * sig ** 2)
        )
        np.testing.assert_allclose(
            spectral_modulus(u, packet, direction) ** 2, expected, rtol=1e-14, atol=0.0
        )

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            spectral_modulus(1.0, PacketSpec(100.0, 0.1, -10.0), "up")


class TestGaussianWeight:
    @given(u=st.floats(0.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_peak_and_positivity(self, u):
        packet = PacketSpec(100.0, 0.2, -5.0)
        w = gaussian_weight(u, packet, "forward")
        assert 0.0 < w <= 1.0

    def test_backward_is_mirrored(self):
        packet = PacketSpec(100.0, 0.2, -5.0)
        u = np.linspace(0.1, 30.0, 40)
        # psi_< weight at +u equals psi_> weight at -u
        np.testing.assert_allclose(
            gaussian_weight(u, packet, "backward"),
            np.exp(-((u + 10.0) ** 2) * 0.04),
            rtol=1e-13,
        )

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            gaussian_weight(1.0, PacketSpec(100.0, 0.1, -10.0), "up")


class TestDiagnostics:
    def test_cutoff_tail_closed_form(self):
        p = PacketSpec(100.0, 0.1, -10.0)
        expected = 0.5 * erfc(10.0 / (math.sqrt(2.0) * 0.1))
        assert cutoff_tail_mass(p) == pytest.approx(expected, rel=1e-12)
        assert cutoff_tail_mass(p) < 1e-300  # utterly negligible for the presets

    def test_backward_peak_ratio_values(self):
        assert backward_peak_ratio(PacketSpec(100.0, 0.1, -10.0)) == pytest.approx(
            math.exp(-4.0), rel=1e-12
        )
        assert backward_peak_ratio(PacketSpec(100.0, 1 / 3, -10.0)) == pytest.approx(
            math.exp(-400.0 / 9.0), rel=1e-12
        )

    def test_suppression_monotone_in_bandwidth(self):
        ratios = [
            backward_peak_ratio(PacketSpec(100.0, s, -10.0))
            for s in (0.1, 0.2, 1 / 3, 0.5)
        ]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_report_keys_and_flags(self):
        rep = validity_report(PacketSpec(100.0, 0.1, -10.0))
        assert set(rep) == {
            "localization_ratio",
            "localization_ok",
            "narrowband_ratio",
            "narrowband_ok",
            "cutoff_tail_mass",
            "backward_peak_ratio",
        }
        assert rep["localization_ok"]
        # sigma = 0.1 at E = 100 is the broadband case: backward matters
        assert not rep["narrowband_ok"]
        rep2 = validity_report(PacketSpec(100.0, 1 / 3, -10.0))
        assert rep2["narrowband_ok"]
