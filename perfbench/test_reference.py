"""Tests of the benchmark's own references (they import nothing from mstwell)."""

import cmath
import math

import numpy as np
import pytest

from reference import (
    dwell_components,
    free_kernel,
    inner_integrals,
    transfer_amplitudes,
)


@pytest.mark.parametrize("u, delta", [(10.0, 40.0), (-100.0, 0.0), (200.0, 90.0)])
def test_transfer_matrix_unitarity(u, delta):
    for e in np.linspace(0.5, 500.0, 41):
        m = transfer_amplitudes(float(e), u, delta)
        if e > delta:
            assert abs(abs(m.t) ** 2 + abs(m.r) ** 2 - 1.0) < 1e-12
        else:
            # closed exit channel: total reflection
            assert abs(abs(m.r) - 1.0) < 1e-12


def test_transfer_matrix_branch_point_is_finite():
    # at E = U the inner solution is the line a + b x; t and r stay finite
    m = transfer_amplitudes(10.0, 10.0, 0.0)
    near = transfer_amplitudes(10.0 + 1e-7, 10.0, 0.0)
    assert abs(abs(m.t) ** 2 + abs(m.r) ** 2 - 1.0) < 1e-12
    assert abs(m.t - near.t) < 1e-6 and abs(m.r - near.r) < 1e-6


def test_flat_profile_is_transparent():
    # e^{ikx} continues unchanged; t multiplies e^{ik(x - 1)}, so t = e^{ik}
    m = transfer_amplitudes(37.0, 0.0, 0.0)
    assert abs(m.r) < 1e-14
    assert abs(m.t - cmath.exp(1j * math.sqrt(37.0))) < 1e-14


def test_free_flight_dwell():
    # one energy: Int_0^1 |e^{ikx}|^2 dx / v = 1 / (2 sqrt(E))
    for e in (4.0, 100.0, 900.0):
        mod2, _ = inner_integrals(transfer_amplitudes(e, 0.0, 0.0))
        assert abs(mod2 / (2.0 * math.sqrt(e)) - 1.0 / (2.0 * math.sqrt(e))) < 1e-14
    # a spectrally narrow packet: tau -> 1 / (2 sqrt(E_perp))
    fwd, bwd, inter = dwell_components(100.0, 3.0, -60.0, 0.0, 0.0)
    assert abs(fwd + bwd + inter - 0.05) < 1e-3 * 0.05


def test_free_kernel_normalisation():
    # |K| = (4 pi tau)^(-1/2); and K integrates over x to 1 (Fresnel)
    tau = 0.3
    assert abs(abs(free_kernel(0.7, tau, -2.0)) - (4 * math.pi * tau) ** -0.5) < 1e-15
    x = np.linspace(-60.0, 60.0, 200001)
    k = np.array([free_kernel(float(v), tau, 0.0) for v in x]) * np.exp(-(x / 40.0) ** 2)
    assert abs(np.trapezoid(k, x) - 1.0) < 1e-2
