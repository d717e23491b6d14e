"""Potential description and branch-aware wave numbers."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mstwell import PotentialSpec, branch_sqrt

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)


class TestPotentialSpec:
    def test_signs(self):
        PotentialSpec(u_tilde=-100.0, delta_tilde=0.0)
        PotentialSpec(u_tilde=10.0, delta_tilde=50.0)
        with pytest.raises(ValueError):
            PotentialSpec(u_tilde=10.0, delta_tilde=-1.0)
        with pytest.raises(ValueError):
            PotentialSpec(u_tilde=math.nan)

    def test_branch_energies(self):
        assert PotentialSpec(10.0, 50.0).branch_energies() == [10.0, 50.0]
        assert PotentialSpec(-100.0, 50.0).branch_energies() == [50.0]
        assert PotentialSpec(-100.0, 0.0).branch_energies() == []
        assert PotentialSpec(30.0, 30.0).branch_energies() == [30.0]


class TestWaveNumber:
    """Channel wave numbers k = branch_sqrt(e - v) on the retarded branch."""

    def test_propagating(self):
        assert branch_sqrt(100.0 - 10.0)[()] == pytest.approx(math.sqrt(90.0))

    def test_evanescent(self):
        assert branch_sqrt(10.0 - 50.0)[()] == pytest.approx(1j * math.sqrt(40.0))

    def test_branch_point_flag(self):
        # exactly at the threshold k = 0, a signed zero included; just off it
        # the root leaves along the real (above) or imaginary (below) axis
        k = branch_sqrt(np.array([0.0, -0.0, 50.0 - 50.0]))
        assert np.all(k == 0)
        above = branch_sqrt(1e-300)[()]
        below = branch_sqrt(-1e-300)[()]
        assert above.real > 0 and above.imag == 0
        assert below.imag > 0 and below.real == 0

    @given(e=finite, v=finite)
    def test_retarded_branch(self, e, v):
        k = branch_sqrt(e - v)[()]
        assert k.imag >= 0.0
        assert k.real >= 0.0
        # k^2 recovers the energy difference
        assert abs(k * k - (e - v)) <= 1e-12 * max(1.0, abs(e - v))

    def test_vectorized_sweep(self):
        rng = np.random.default_rng(7)
        e = rng.uniform(-1e3, 1e3, 1_000_000)
        v = rng.uniform(-1e3, 1e3, 1_000_000)
        k = branch_sqrt(e - v)
        assert np.all(k.imag >= 0)
        assert np.all(k.real >= 0)
        np.testing.assert_allclose(k * k, e - v, rtol=0, atol=1e-9)

