"""Gauss-Kronrod panels, windowing, and the spectral integration driver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mstwell import PacketSpec, QuadratureSpec, spectral_rule, spectral_window
from mstwell.quadrature import (
    WG,
    WGK,
    XGK,
    QuadratureError,
    adaptive_panels,
    phase_capped_edges,
)


class TestRuleConstants:
    def test_weights_sum_to_interval(self):
        assert math.fsum(WGK) == pytest.approx(2.0, abs=1e-15)
        assert math.fsum(WG) == pytest.approx(2.0, abs=1e-15)

    def test_nodes_sorted_symmetric(self):
        assert np.all(np.diff(XGK) > 0)
        np.testing.assert_allclose(XGK, -XGK[::-1], atol=1e-15)

    @pytest.mark.parametrize("degree", range(0, 23, 2))
    def test_polynomial_exactness(self, degree):
        # Kronrod 15-point rule integrates polynomials up to degree 22 exactly
        exact = 2.0 / (degree + 1)
        approx = float(np.sum(WGK * XGK**degree))
        assert approx == pytest.approx(exact, rel=1e-13)

    def test_embedded_gauss_exactness(self):
        # the embedded 7-point Gauss rule is exact up to degree 13
        for degree in range(0, 14, 2):
            approx = float(np.sum(WG * XGK**degree))
            assert approx == pytest.approx(2.0 / (degree + 1), rel=1e-13)


class TestSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.window_w == 8.0
        assert spec.phase_per_panel == pytest.approx(math.pi)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"rel_tol": 2.0},
            {"abs_tol": 0.0},
            {"window_w": -1.0},
            {"max_panels": 0},
            {"phase_per_panel": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestWindow:
    def test_forward_clips_at_zero(self):
        assert spectral_window(10.0, 0.1, "forward", 8.0) == (0.0, 90.0)
        lo, hi = spectral_window(10.0, 1 / 3, "forward", 8.0)
        assert lo == 0.0  # 10 - 24 clips at the spectrum edge
        assert hi == pytest.approx(34.0)
        lo, hi = spectral_window(10.0, 1.0, "forward", 4.0)
        assert lo == pytest.approx(6.0)
        assert hi == pytest.approx(14.0)

    def test_backward_starts_at_zero(self):
        lo, hi = spectral_window(10.0, 1 / 3, "backward", 8.0)
        assert lo == 0.0
        assert hi == pytest.approx(34.0)

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            spectral_window(10.0, 0.1, "sideways", 8.0)


class TestEdges:
    @given(
        lo=st.floats(0.0, 50.0),
        width=st.floats(0.1, 100.0),
        t_scale=st.floats(0.0, 5.0),
        x_span=st.floats(0.0, 30.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_edge_properties(self, lo, width, t_scale, x_span):
        hi = lo + width
        edges = phase_capped_edges(lo, hi, [lo + 0.3 * width], t_scale, x_span, math.pi, 100_000)
        assert edges[0] == lo and edges[-1] == hi
        assert np.all(np.diff(edges) > 0)
        # per-panel phase change stays within the cap
        a, b = edges[:-1], edges[1:]
        phase = np.abs(b**2 - a**2) * t_scale + (b - a) * x_span
        assert np.all(phase <= math.pi * (1 + 1e-9))

    def test_breaks_are_edges(self):
        edges = phase_capped_edges(0.0, 10.0, [3.0, 7.0], 1.0, 0.0, math.pi, 10_000)
        assert any(abs(e - 3.0) < 1e-14 for e in edges)
        assert any(abs(e - 7.0) < 1e-14 for e in edges)

    def test_budget_respected(self):
        edges = phase_capped_edges(0.0, 100.0, [], 50.0, 50.0, math.pi, 64)
        assert edges.size - 1 <= 64


class TestAdaptive:
    def test_gaussian_reference(self):
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300)
        edges = np.linspace(-8.0, 8.0, 9)
        res, _ = adaptive_panels(lambda u: np.exp(-(u**2)), edges, spec)
        assert res.converged
        assert res.value.real == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert abs(res.value.imag) < 1e-14

    def test_oscillatory_reference(self):
        # Int_0^1 e^{50 i u} du has a closed form
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300)
        edges = phase_capped_edges(0.0, 1.0, [], 0.0, 50.0, math.pi, 10_000)
        res, _ = adaptive_panels(lambda u: np.exp(50j * u), edges, spec)
        exact = (np.exp(50j) - 1.0) / 50j
        assert res.converged
        assert res.value == pytest.approx(exact, rel=1e-12)

    def test_budget_exhaustion_reports_nonconverged(self):
        spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300, max_panels=4)
        edges = np.linspace(0.0, 1.0, 3)
        res, _ = adaptive_panels(lambda u: np.exp(200j * u * u), edges, spec)
        assert not res.converged

    def test_empty_interval(self):
        res, _ = adaptive_panels(lambda u: u, np.array([1.0, 1.0]), QuadratureSpec())
        assert res.value == 0.0
        assert res.converged


def _integrate(g, packet, t_scale, x_span, branch_points=()):
    rule = spectral_rule(packet, "forward", branch_points, t_scale, x_span, QuadratureSpec())
    return rule.refine_against(g)


class TestIntegrateSpectral:
    """Integrals over u = sqrt(E) on a packet's spectral window."""

    def test_forward_mass_closed_form(self):
        # the spectral density is a unit normal in u = sqrt(E) with mean
        # u_perp and width 1/(2 sigma); its E > 0 mass is Phi(2 u_perp sigma)
        from scipy.special import erfc

        packet = PacketSpec(100.0, 0.1, -10.0)
        sig = packet.sigma_tilde

        def g(u):
            # density per unit E times dE/du = 2u
            return (
                2.0 * u * sig
                / (math.sqrt(2.0 * math.pi) * u)
                * np.exp(-2.0 * (u - packet.u_perp) ** 2 * sig**2)
            )

        res = _integrate(g, packet, 0.0, 0.0)
        expected = 0.5 * erfc(-2.0 * packet.u_perp * sig / math.sqrt(2.0))
        assert res.converged
        assert res.value.real == pytest.approx(expected, rel=1e-8)

    def test_branch_point_split(self):
        # integrable kink at E = 50 is handled by the mandatory panel split
        packet = PacketSpec(100.0, 0.3, -10.0)

        def g(u):
            return 2.0 * u * np.sqrt(np.abs(u * u - 50.0)) * np.exp(
                -2.0 * (u - 10.0) ** 2 * 0.09
            )

        res = _integrate(g, packet, 0.0, 0.0, branch_points=[50.0])
        assert res.converged

    def test_deterministic_repeat(self):
        packet = PacketSpec(100.0, 0.1, -10.0)

        def g(u):
            return 2.0 * u * np.exp(-((u - 10.0) ** 2) * 0.01) * np.exp(1j * 3.0 * u)

        r1 = _integrate(g, packet, 0.5, 3.0)
        r2 = _integrate(g, packet, 0.5, 3.0)
        # byte-identical, not merely close
        assert r1.value == r2.value
        assert r1.error_estimate == r2.error_estimate
        assert r1.panels_used == r2.panels_used

    def test_error_object_carries_partial_value(self):
        err = QuadratureError("boom", value=1.5, error_estimate=0.1)
        assert err.value == 1.5
        assert err.error_estimate == 0.1
