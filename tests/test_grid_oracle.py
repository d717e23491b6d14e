"""Finite-difference reference solver: invariants, accuracy, convergence."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from mstwell import (
    GridConfigError,
    GridSpec,
    PacketSpec,
    PotentialSpec,
    compare,
    evolve,
    evolve_grid,
    free_gaussian_closed,
    grid_for_scenario,
    initial_cutoff_packet,
)
from mstwell.grid import _CayleyStepper, _potential_on_grid

# cheap scenario used throughout: moderate bandwidth, short flight
PACKET = PacketSpec(100.0, 0.3, -6.0)
FREE = PotentialSpec(0.0, 0.0)
BARRIER = PotentialSpec(10.0, 40.0)


class TestGridSpec:
    def test_builder_satisfies_invariants(self):
        g = grid_for_scenario(PACKET, BARRIER, 0.5)
        g.validate(PACKET, 0.5)  # must not raise
        # the interfaces x = 0 and x = 1 fall exactly on grid nodes
        x = g.x_grid
        assert np.min(np.abs(x - 0.0)) < 1e-12
        assert np.min(np.abs(x - 1.0)) < 1e-12

    def test_dx_cap_enforced(self):
        g = grid_for_scenario(PACKET, FREE, 0.25)
        bad = GridSpec(g.x_min, g.x_max, g.dx * 4.0, g.dt)
        with pytest.raises(GridConfigError, match="wavelength"):
            bad.validate(PACKET, 0.25)

    def test_dt_cap_enforced(self):
        g = grid_for_scenario(PACKET, FREE, 0.25)
        bad = GridSpec(g.x_min, g.x_max, g.dx, g.dt * 100.0)
        with pytest.raises(GridConfigError, match="dt"):
            bad.validate(PACKET, 0.25)

    def test_domain_coverage_enforced(self):
        g = grid_for_scenario(PACKET, FREE, 0.25)
        bad = GridSpec(-2.0, 2.0, g.dx, g.dt)
        with pytest.raises(GridConfigError, match="domain"):
            bad.validate(PACKET, 0.25)

    def test_bad_parameters(self):
        with pytest.raises(GridConfigError):
            GridSpec(0.0, 1.0, -0.1, 0.1)
        with pytest.raises(GridConfigError):
            GridSpec(1.0, 0.0, 0.1, 0.1)
        for window_w in (0.0, -2.0):
            with pytest.raises(GridConfigError):
                GridSpec(0.0, 1.0, 0.1, 0.1, window_w)

    def test_x_grid_endpoints(self):
        g = GridSpec(-1.0, 2.0, 0.5, 0.01)
        np.testing.assert_allclose(g.x_grid, [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])


class TestInitialState:
    def test_cutoff_and_discrete_norm(self):
        g = grid_for_scenario(PACKET, FREE, 0.25)
        x = g.x_grid
        psi = initial_cutoff_packet(PACKET, x, g.dx)
        assert np.all(psi[x >= 0.0] == 0.0)
        norm = math.sqrt(float(np.sum(np.abs(psi) ** 2)) * g.dx)
        assert norm == pytest.approx(1.0, rel=1e-12)

    def test_potential_sampling(self):
        x = np.array([-0.5, 0.0, 0.5, 1.0, 1.5])
        v = _potential_on_grid(PotentialSpec(10.0, 40.0), x)
        np.testing.assert_allclose(v, [0.0, 5.0, 10.0, 25.0, 40.0])


class TestEvolveGrid:
    def test_free_closed_form_at_center(self):
        g = grid_for_scenario(PACKET, FREE, 0.25, dx_refine=2.0, dt_refine=2.0)
        f = evolve_grid(PACKET, FREE, g, [0.25])
        exact = free_gaussian_closed(PACKET, f.x_grid, 0.25)
        j = int(np.argmax(np.abs(exact)))
        assert abs(f.psi[0][j] - exact[j]) <= 1e-4 * abs(exact[j])

    def test_norm_drift_bound(self):
        g = grid_for_scenario(PACKET, BARRIER, 0.25)
        f = evolve_grid(PACKET, BARRIER, g, [0.25])
        n_steps = math.ceil(0.25 / g.dt)
        assert f.norm_drift <= 1e-8 * max(1.0, n_steps / 1000.0)

    def test_sample_time_validation(self):
        g = grid_for_scenario(PACKET, FREE, 0.25)
        with pytest.raises(GridConfigError):
            evolve_grid(PACKET, FREE, g, [])
        with pytest.raises(GridConfigError):
            evolve_grid(PACKET, FREE, g, [0.2, 0.1])
        with pytest.raises(GridConfigError):
            evolve_grid(PACKET, FREE, g, [0.0, 0.1])


def _dense_hamiltonian(v, dx):
    n = v.size
    lap = (np.diag(np.full(n, -2.5)) + np.diag(np.full(n - 1, 4.0 / 3.0), 1)
           + np.diag(np.full(n - 1, 4.0 / 3.0), -1)
           + np.diag(np.full(n - 2, -1.0 / 12.0), 2)
           + np.diag(np.full(n - 2, -1.0 / 12.0), -2)) / dx**2
    return -lap + np.diag(v)


def _dense_pade_step(v, dx, dt, psi):
    z = 1j * dt * _dense_hamiltonian(v, dx)
    eye = np.eye(v.size)
    z2 = z @ z / 12.0
    return np.linalg.solve(eye + 0.5 * z + z2, (eye - 0.5 * z + z2) @ psi)


class TestCayleyStepper:
    # a diagonally dominant matrix, one whose LU needs row interchanges
    # (diagonal 1 against off-diagonals of modulus 6.7), and a step whose
    # phase at the top eigenvalue is ~pi/2 (lambda_max ~ 2143 at dx = 0.05)
    @pytest.mark.parametrize(
        "dx, dt, v0", [(0.05, 1e-4, 10.0), (1.0, 10.0, -2.5), (0.05, 7.33e-4, 10.0)]
    )
    def test_step_matches_dense_solve(self, dx, dt, v0):
        rng = np.random.default_rng(5)
        v = v0 + rng.uniform(-1e-3, 1e-3, 40)
        psi = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        out = _CayleyStepper(v, dx, dt).step(psi)
        ref = _dense_pade_step(v, dx, dt, psi)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert abs(np.linalg.norm(out) / np.linalg.norm(psi) - 1.0) <= 1e-13

    def test_fourth_order_time_convergence(self):
        # against the exact discrete propagator exp(-iHt): halving dt
        # shrinks the error by ~16
        rng = np.random.default_rng(7)
        dx, t = 0.05, 2e-3
        v = rng.uniform(0.0, 40.0, 40)
        psi = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        lam, vec = np.linalg.eigh(_dense_hamiltonian(v, dx))
        exact = vec @ (np.exp(-1j * lam * t) * (vec.conj().T @ psi))
        errors = []
        for n_steps in (10, 20):
            stepper = _CayleyStepper(v, dx, t / n_steps)
            out = psi
            for _ in range(n_steps):
                out = stepper.step(out)
            errors.append(float(np.linalg.norm(out - exact) / np.linalg.norm(exact)))
        assert 12.0 <= errors[0] / errors[1] <= 20.0


class TestCompare:
    def _field(self, scale=1.0):
        x = np.linspace(0.0, 1.0, 11)
        t = np.array([0.1, 0.2])
        psi = scale * (np.ones((2, 11)) + 0.5j)
        return SimpleNamespace(x_grid=x, t_grid=t, psi=psi)

    def test_identical_fields(self):
        a = self._field()
        assert compare(a, a) == 0.0
        assert compare(a, a, "Linf_rel") == 0.0

    def test_known_relative_distance(self):
        a = self._field()
        b = self._field(scale=1.0 + 1e-6)
        assert compare(a, b) == pytest.approx(1e-6, rel=1e-6)
        assert compare(a, b, "Linf_rel", time_index=0) == pytest.approx(1e-6, rel=1e-6)

    def test_mixed_field_types(self):
        # spectral fields expose psi_fwd / psi_bwd instead of psi
        a = self._field()
        b = SimpleNamespace(
            x_grid=a.x_grid, t_grid=a.t_grid,
            psi_fwd=0.5 * a.psi, psi_bwd=0.5 * a.psi,
        )
        assert compare(a, b) < 1e-15

    def test_grid_mismatch_raises(self):
        a = self._field()
        b = self._field()
        b.x_grid = b.x_grid + 0.5
        with pytest.raises(ValueError, match="different x grids"):
            compare(a, b)
        c = self._field()
        c.t_grid = c.t_grid + 0.1
        with pytest.raises(ValueError, match="time grids"):
            compare(a, c)

    def test_unknown_norm(self):
        a = self._field()
        with pytest.raises(ValueError):
            compare(a, a, "L1")


class TestOracleAgreement:
    def test_barrier_scenario_matches_spectral(self):
        # short broadband run against the barrier: the two independent
        # solvers agree well below the 1e-3 oracle tolerance
        times = [0.1, 0.2]
        g = grid_for_scenario(PACKET, BARRIER, times[-1], dx_refine=2.0, dt_refine=2.0)
        f = evolve_grid(PACKET, BARRIER, g, times)
        stride = max(1, f.x_grid.size // 801)
        xs = f.x_grid[::stride]
        sub = SimpleNamespace(x_grid=xs, t_grid=f.t_grid, psi=f.psi[:, ::stride])
        mf = evolve(PACKET, BARRIER, xs, np.asarray(times))
        for i in range(len(times)):
            assert compare(sub, mf, "L2_rel", time_index=i) < 1e-3

    def test_deep_well_scenario_matches_spectral(self):
        # inner region of the deep well, as in the in-well density preset
        well = PotentialSpec(-100.0, 0.0)
        times = [0.2]
        g = grid_for_scenario(PACKET, well, times[-1], dx_refine=2.0, dt_refine=2.0)
        f = evolve_grid(PACKET, well, g, times)
        stride = max(1, f.x_grid.size // 801)
        xs = f.x_grid[::stride]
        sub = SimpleNamespace(x_grid=xs, t_grid=f.t_grid, psi=f.psi[:, ::stride])
        mf = evolve(PACKET, well, xs, np.asarray(times))
        assert compare(sub, mf, "L2_rel", time_index=0) < 1e-3
