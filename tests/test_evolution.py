"""Spectral time evolution: free limits, decomposition, and continuity."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mstwell import (
    PacketSpec,
    PotentialSpec,
    QuadratureError,
    QuadratureSpec,
    density,
    evolve,
    free_gaussian_closed,
    norm_integral,
    psi_point,
    stationary_density,
    wave_at,
)
from mstwell import evolution, quadrature, scattering
from mstwell.cli import _axis, _build_objects, merge_config
from mstwell.evolution import (
    _components,
    _exp_table,
    _grid_offsets,
    _probe_spec,
    _region_masks,
    _shared_rule,
    packet_prefactor,
)
from mstwell.quadrature import SpectralRule

FREE = PotentialSpec(0.0, 0.0)
PACKET = PacketSpec(100.0, 0.1, -10.0)


class TestFreeLimit:
    def test_initial_state_reproduced(self):
        # just after t0 the assembled integrals reproduce the Gaussian
        x = np.linspace(-12.0, -8.0, 9)
        t = 1e-9
        field = evolve(PACKET, FREE, x, [t])
        exact = free_gaussian_closed(PACKET, x, t)
        err = np.max(np.abs(field.psi_fwd[0] + field.psi_bwd[0] - exact))
        assert err < 1e-9

    def test_free_evolution_matches_closed_form(self):
        x = np.linspace(-12.0, 4.0, 33)  # spans all three formal regions
        times = [0.25, 0.6]
        field = evolve(PACKET, FREE, x, times)
        assert np.all(field.converged)
        for i, t in enumerate(times):
            exact = free_gaussian_closed(PACKET, x, t)
            num = field.psi_fwd[i] + field.psi_bwd[i]
            err = np.max(np.abs(num - exact)) / np.max(np.abs(exact))
            assert err < 1e-8

    def test_norm_integral_free(self):
        # broadband packet spreads fast: width ~ t / sigma = 4 at t = 0.4
        x = np.linspace(-34.0, 30.0, 6401)
        field = evolve(PACKET, FREE, x, [0.4])
        assert norm_integral(field, 0) == pytest.approx(1.0, abs=1e-6)


class TestDecomposition:
    def test_split_sums_to_total(self):
        x = np.linspace(-1.0, 2.0, 13)
        field = evolve(PACKET, PotentialSpec(10.0, 40.0), x, [0.3])
        split = density(field)
        np.testing.assert_allclose(
            split.total, split.fwd + split.bwd + split.interference, rtol=1e-12
        )
        np.testing.assert_allclose(split.total, field.density, rtol=1e-12)
        assert np.all(split.fwd >= 0)
        assert np.all(split.bwd >= 0)

    def test_backward_component_is_small_narrowband(self):
        packet = PacketSpec(100.0, 1 / 3, -10.0)
        x = np.linspace(0.0, 1.0, 5)
        field = evolve(packet, PotentialSpec(10.0, 40.0), x, [0.5])
        split = density(field)
        assert np.max(split.bwd) < 1e-10 * np.max(split.total)

    def test_rejects_times_before_t0(self):
        with pytest.raises(ValueError):
            evolve(PACKET, FREE, [0.0], [0.0])


class TestBackwardWindow:
    def test_matches_the_hull_window(self, monkeypatch):
        # the backward weight e^{-(u + u_perp)^2 sigma^2} falls below e^{-W^2}
        # at u = W/sigma - u_perp; integrating on to u_perp + W/sigma (the
        # hull of both windows) adds nothing above the target
        x = np.linspace(-1.5, 2.5, 17)
        times = [0.3, 0.6]
        pot = PotentialSpec(10.0, 40.0)
        field = evolve(PACKET, pot, x, times)
        hull = quadrature.spectral_window

        def old_window(u_perp, sigma_tilde, direction, window_w):
            return hull(u_perp, sigma_tilde, "both", window_w)

        monkeypatch.setattr(quadrature, "spectral_window", old_window)
        ref = evolve(PACKET, pot, x, times)
        scale = np.max(np.abs(ref.psi_bwd), axis=1, keepdims=True)
        assert np.all(np.abs(field.psi_bwd - ref.psi_bwd) <= QuadratureSpec().rel_tol * scale)

    def test_empty_window_gives_exact_zero(self):
        # u_perp sigma = 20 >= W: the backward window is empty
        field = evolve(PacketSpec(100.0, 2.0, -60.0), FREE, [-1.0, 0.25, 0.5, 2.0], [3.0])
        assert np.all(np.isfinite(field.psi_fwd))
        assert np.all(field.psi_bwd == 0.0)
        assert np.all(field.converged)


def _final_components(field, packet, pot, quad=None):
    """The components ``evolve`` assembled ``field`` from, each on its final rule."""
    taus = field.t_grid - packet.t0_tilde
    return _components(packet, pot, field.x_grid, taus, quad or QuadratureSpec())


class TestDenseReference:
    def test_x_assembly_matches_per_point_sums(self):
        # evolve builds c_in E + c_out / E in place for a whole x chunk; the
        # reference evaluates the region wave at one x at a time on the same
        # final rule.  The backward values cancel to ~1e-6 of the integral
        # of |integrand|, which is therefore the scale round-off is relative to.
        pot = PotentialSpec(10.0, 40.0)
        x = np.array([-1.5, -0.7, -0.1, 0.2, 0.5, 0.9, 1.1, 1.4, 2.0])
        t = 0.5
        tau = t - PACKET.t0_tilde
        field = evolve(PACKET, pot, x, [t])
        pref = packet_prefactor(PACKET)
        for comp in _final_components(field, PACKET, pot):
            psi = field.psi_fwd if comp.direction == "forward" else field.psi_bwd
            rule = comp.rule
            phase = np.exp(-1j * (rule.u * rule.u) * tau)
            for xv, value in zip(x[comp.mask], psi[0, comp.mask]):
                fv = phase * wave_at(comp.waves, xv)
                dense, _ = rule.integrate_values(fv)
                mass, _ = rule.integrate_values(np.abs(fv))
                assert abs(value - pref * dense) <= 1e-13 * abs(pref) * mass


def _assert_matches_per_point_sums(field, packet, pot, quad=None):
    """Every sample of ``field`` against per-x sums on the rule evolve uses.

    The final rule of each (region, direction) is rebuilt for all of the
    field's times; each sample is integrated from its own integrand values
    with ``integrate_values``.  Values agree within 1e-13 of the integral of
    |integrand| (see TestDenseReference) and the error column within 1e-13
    of the integral of |integrand| |Kronrod - Gauss weight| / Kronrod weight.
    """
    pref = packet_prefactor(packet)
    taus = field.t_grid - packet.t0_tilde
    ref_err = np.zeros_like(field.error_estimate)
    err_mass = np.zeros_like(field.error_estimate)
    for comp in _final_components(field, packet, pot, quad):
        psi = field.psi_fwd if comp.direction == "forward" else field.psi_bwd
        rule = comp.rule
        for it, tau in enumerate(taus):
            phase = np.exp(-1j * (rule.u * rule.u) * tau)
            for ix in np.flatnonzero(comp.mask):
                fv = phase * wave_at(comp.waves, field.x_grid[ix])
                dense, err = rule.integrate_values(fv)
                mass, _ = rule.integrate_values(np.abs(fv))
                assert abs(psi[it, ix] - pref * dense) <= 1e-13 * abs(pref) * mass
                ref_err[it, ix] += abs(pref) * err
                err_mass[it, ix] += abs(pref) * mass
    assert np.all(np.abs(field.error_estimate - ref_err) <= 1e-13 * err_mass)
    return ref_err


class TestFactoredAssembly:
    """Uniform region slices factor as x = x_a + x_b into ~sqrt(n) tables each."""

    @pytest.mark.parametrize("pot", [PotentialSpec(10.0, 40.0), PotentialSpec(200.0, 0.0)])
    def test_uniform_regions_match_per_point_sums(self, pot):
        # U = 200 makes the inner wave evanescent across the spectrum's bulk
        x = np.linspace(-3.0, 4.0, 71)
        field = evolve(PACKET, pot, x, [0.45])
        for xs in (x[m] for m in _region_masks(x).values()):
            assert _grid_offsets(xs, 4.0)[1].size > 1  # every region factored
        _assert_matches_per_point_sums(field, PACKET, pot)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_short_region_slices(self, n):
        x = np.concatenate([
            np.linspace(-1.5, -0.3, n), np.linspace(0.1, 0.9, n), np.linspace(1.2, 2.0, n)
        ])
        pot = PotentialSpec(10.0, 40.0)
        field = evolve(PACKET, pot, x, [0.5])
        _assert_matches_per_point_sums(field, PACKET, pot)

    def test_grid_offsets(self):
        x = np.linspace(-2.0, 3.0, 11)
        x_a, x_b, steps = _grid_offsets(x, 3.0)
        assert (x_a.size, x_b.size) == (3, 4)
        assert steps == (4 * 0.5, 0.5)
        np.testing.assert_allclose(np.add.outer(x_a, x_b).ravel()[:11], x, atol=1e-15)
        for xs in (x[:3], x[[0, 1, 2, 4]], x[::-1]):  # too short, not uniform, descending
            x_a, x_b, steps = _grid_offsets(xs, 3.0)
            assert np.array_equal(x_a, xs) and np.array_equal(x_b, [0.0])
            assert steps == (None, None)
        # inside slices of grids reaching far from the profile carry the
        # round-off of the far end: judged at the whole grid's scale they
        # factor, judged at their own max |x| = 1 they would not
        for lo, hi, n, rows in ((-18.0, 10.0, 281, 11), (-40.0, 60.0, 3001, 31)):
            grid = np.linspace(lo, hi, n)
            inside = grid[_region_masks(grid)["inside"]]
            assert inside.size == rows
            x_a, x_b, _ = _grid_offsets(inside, float(np.max(np.abs(grid))))
            assert x_b.size > 1
            np.testing.assert_allclose(
                np.add.outer(x_a, x_b).ravel()[:rows], inside, rtol=0.0, atol=1e-14
            )
            assert _grid_offsets(inside, 1.0)[1].size == 1

    def test_times_share_one_rule(self):
        pot = PotentialSpec(-100.0, 0.0)
        x = np.linspace(-2.0, 3.0, 26)
        times = [0.3, 0.45, 0.6]
        field = evolve(PACKET, pot, x, times)
        _assert_matches_per_point_sums(field, PACKET, pot)
        # against one evolve per time, each on a rule of its own
        for i, t in enumerate(times):
            alone = evolve(PACKET, pot, x, [t])
            for psi, ref in ((field.psi_fwd, alone.psi_fwd), (field.psi_bwd, alone.psi_bwd)):
                assert np.max(np.abs(psi[i] - ref[0])) <= 1e-8 * np.max(np.abs(ref[0]))

    @pytest.mark.parametrize("budget", [1, 1e5])
    def test_row_chunks(self, budget, monkeypatch):
        # blocks of one panel and one time, then of a few panels with all times
        monkeypatch.setattr(evolution, "_ENTRY_BUDGET", budget)
        pot = PotentialSpec(10.0, 40.0)
        field = evolve(PACKET, pot, np.linspace(-3.0, 4.0, 71), [0.25, 0.3, 0.35])
        _assert_matches_per_point_sums(field, PACKET, pot)

    def test_blocks_are_bit_identical(self, monkeypatch):
        # one panel and one time per block; one panel and all times, or in
        # the left region two and then the last (the time phase's recurrence
        # carried between them); a few panels and all times; the default:
        # the same bits in every region
        pot = PotentialSpec(10.0, 40.0)
        x, times = np.linspace(-3.0, 4.0, 71), [0.25, 0.3, 0.35]
        ref = evolve(PACKET, pot, x, times)
        for budget in (1, 2500, 1e4):
            monkeypatch.setattr(evolution, "_ENTRY_BUDGET", budget)
            field = evolve(PACKET, pot, x, times)
            for name in ("psi_fwd", "psi_bwd", "error_estimate"):
                assert np.array_equal(getattr(field, name), getattr(ref, name)), (budget, name)

    def test_assembly_memory_is_bounded(self):
        # one density_well slice: the blocks keep the traced peak to a few
        # MiB (tables built at full width took ~18 MB)
        quad = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-10, window_w=5.0)
        args = (PACKET, PotentialSpec(-100.0, 0.0), np.linspace(-18.0, 10.0, 281), [0.3], quad)
        evolve(*args)
        tracemalloc.start()
        try:
            evolve(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    def test_error_column_is_the_per_panel_sum(self):
        # a loose tolerance leaves panel errors far above round-off, so the
        # per-panel sum of |Kronrod - Gauss| is told apart from weaker forms
        quad = QuadratureSpec(rel_tol=1e-4, abs_tol=1e-8)
        pot = PotentialSpec(10.0, 40.0)
        field = evolve(PACKET, pot, np.linspace(-3.0, 4.0, 36), [0.3, 0.5], quad)
        ref_err = _assert_matches_per_point_sums(field, PACKET, pot, quad)
        assert np.min(ref_err) > 0.0

    def test_converged_needs_both_probes(self, monkeypatch):
        pot = PotentialSpec(10.0, 40.0)
        x = np.linspace(-1.0, -0.1, 10)
        tiny = QuadratureSpec(max_panels=2)
        assert not np.any(evolve(PACKET, pot, x, [0.5], tiny).converged)
        refine = SpectralRule.refine_against

        def failing_probe(nth):
            # the nth probe of every rule reports non-convergence
            def probe(self, probe_g, fv=None, spec=None):
                self.probes_seen = getattr(self, "probes_seen", 0) + 1
                result = refine(self, probe_g, fv, spec)
                return replace(result, converged=result.converged and self.probes_seen != nth)
            return probe

        for nth, times, expected in ((1, [0.3, 0.5], False), (2, [0.3, 0.5], False),
                                     (2, [0.5], True), (3, [0.3, 0.5], True)):
            monkeypatch.setattr(SpectralRule, "refine_against", failing_probe(nth))
            field = evolve(PACKET, pot, x, times)
            assert np.all(field.converged == expected), (nth, times)


def _count_refinements(monkeypatch):
    """Record, per probe, its rule's id and whether it split panels of the rule."""
    refine = SpectralRule.refine_against
    splits = []

    def recording(self, probe_g, fv=None, spec=None):
        before = self.n_panels
        result = refine(self, probe_g, fv, spec)
        splits.append((id(self), self.n_panels > before))
        return result

    monkeypatch.setattr(SpectralRule, "refine_against", recording)
    return splits


def _count_amplitude_evaluations(monkeypatch):
    """Record the number of energies of every evaluation of the amplitudes.

    Every region wave takes one ``amplitude_denominator`` call, directly
    (inside, right) or through ``amplitude_table`` (left), so counting the
    denominator counts both routes once each.
    """
    denominator = scattering.amplitude_denominator
    energies = []

    def counting(e, potential):
        energies.append(np.size(e))
        return denominator(e, potential)

    monkeypatch.setattr(scattering, "amplitude_denominator", counting)
    return energies


class TestAmplitudesOncePerComponent:
    """The region waves of the probes' seeded nodes serve the assembly too."""

    WELL = PotentialSpec(-100.0, 0.0)

    def test_unrefined_slice_evaluates_amplitudes_once(self, monkeypatch):
        splits = _count_refinements(monkeypatch)
        energies = _count_amplitude_evaluations(monkeypatch)
        quad = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-10, window_w=5.0)
        evolve(PACKET, self.WELL, np.linspace(-18.0, 10.0, 281), [0.25], quad)
        # one probe per (region, direction), none split
        assert [split for _, split in splits] == [False] * 6
        assert len(energies) == 6

    def test_refined_rules_match_per_point_sums(self, monkeypatch):
        # panels seeded at 64 pi of phase each are split by the first probe,
        # so the second probe and the assembly re-evaluate the waves
        splits = _count_refinements(monkeypatch)
        energies = _count_amplitude_evaluations(monkeypatch)
        quad = QuadratureSpec(phase_per_panel=32.0 * math.pi)
        x = np.linspace(-3.0, 4.0, 36)
        field = evolve(PACKET, self.WELL, x, [0.3, 0.5], quad)
        first = {}
        for rule, split in splits:
            first.setdefault(rule, split)
        assert list(first.values()) == [True] * 6
        assert len(energies) > 6
        _assert_matches_per_point_sums(field, PACKET, self.WELL, quad)


def _sample_goal(field, packet, quad):
    """Per-time target of a sample's estimate: max(rel_tol max_x |psi(t)|, floor)."""
    peak = np.max(np.abs(field.psi_fwd + field.psi_bwd), axis=1)
    floor = abs(packet_prefactor(packet)) * _probe_spec(quad, packet).abs_tol
    return np.maximum(quad.rel_tol * peak, floor)


class TestPerSampleTargets:
    """``converged`` is judged on every sample's estimate, not on the probes alone."""

    # test_cli's CHEAP scenario: at 8 pi seeds the right region's samples
    # near x = 1.1 carry estimates up to ~1e3 times their target while the
    # probes, at x = 4, converge
    PACKET = PacketSpec(100.0, 0.3, -6.0)
    POT = PotentialSpec(10.0, 40.0)
    X = np.linspace(-3.0, 4.0, 71)
    TIMES = [0.1, 0.2]

    def test_refinement_meets_every_target(self, monkeypatch):
        quad = QuadratureSpec(rel_tol=1e-8)
        monkeypatch.setattr(evolution, "_ROUNDS", 0)
        probes_only = evolve(self.PACKET, self.POT, self.X, self.TIMES, quad)
        goal = _sample_goal(probes_only, self.PACKET, quad)[:, None]
        over = probes_only.error_estimate > goal
        assert np.any(over[:, self.X > 1.0]) and not np.any(over[:, self.X <= 1.0])
        assert np.array_equal(probes_only.converged, ~over)

        monkeypatch.setattr(evolution, "_ROUNDS", 3)
        splits = _count_refinements(monkeypatch)
        field = evolve(self.PACKET, self.POT, self.X, self.TIMES, quad)
        # six rules with two probes each; the calls after them are rounds
        assert len(splits) > 12 and any(split for _, split in splits[12:])
        assert np.all(field.converged)
        assert np.all(field.error_estimate <= _sample_goal(field, self.PACKET, quad)[:, None])
        # where the probes' rules met the target, the rounds move the values
        # by no more than the two components' targets
        psi, psi0 = field.psi_fwd + field.psi_bwd, probes_only.psi_fwd + probes_only.psi_bwd
        assert np.all(np.abs(psi - psi0)[~over] <= 2.0 * np.broadcast_to(goal, over.shape)[~over])

    def test_non_finite_samples_are_flagged(self):
        # inside a 1e6 barrier the inner tables overflow at some samples (ROADMAP
        # item 3); those samples must neither set the targets nor stop the run
        x = np.linspace(-1.0, 2.0, 31)
        with np.errstate(all="ignore"):
            field = evolve(PACKET, PotentialSpec(1e6, 0.0), x, [0.5])
        finite = np.isfinite(field.psi_fwd) & np.isfinite(field.psi_bwd)
        assert not np.any(field.converged[~finite])
        assert np.all(finite[:, x < 0.0]) and np.all(field.converged[:, x < 0.0])

    def test_unmet_targets_clear_exactly_their_samples(self):
        # below the round-off floor of the Kronrod - Gauss differences no
        # round meets the target; the panel budget keeps the rounds cheap
        quad = QuadratureSpec(rel_tol=3e-16, abs_tol=1e-30, max_panels=2000)
        field = evolve(self.PACKET, self.POT, np.linspace(-3.0, 4.0, 36), self.TIMES, quad)
        over = field.error_estimate > _sample_goal(field, self.PACKET, quad)[:, None]
        assert np.any(over) and not np.all(over)
        assert np.array_equal(field.converged, ~over)


class TestPresetAccuracy:
    """Reduced density presets against a reference at rel_tol 1e-12 on 2 pi seeds.

    Every column of the CSV (density, fwd, bwd, interference) must be within
    rel_tol of its column max, and the estimate must cover every true error
    above round-off.
    """

    REFERENCE = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-20, phase_per_panel=math.pi)

    # figure1's backward column is ~1e-18 of the density: it holds only with
    # the backward window cut from the backward weight's value at u = 0
    @pytest.mark.parametrize("name, sets", [
        ("figure1", ["potential.delta_tilde=50"]),
        ("figure2", ["potential.delta_tilde=50"]),
        ("figure3", ["grid.x_count=21"]),
        ("figure4", ["grid.x_count=21"]),
    ])
    def test_columns_match_the_reference(self, name, sets):
        cfg = merge_config(name, overrides=["grid.t_count=15"] + sets)
        potential, packet, quad = _build_objects(cfg)
        x, t = _axis(cfg, "grid.x"), _axis(cfg, "grid.t")
        field = evolve(packet, potential, x, t, quad)
        ref = evolve(packet, potential, x, t, self.REFERENCE)
        assert np.all(field.converged) and np.all(ref.converged)
        got, want = density(field), density(ref)
        for column in ("total", "fwd", "bwd", "interference"):
            a, b = getattr(got, column), getattr(want, column)
            assert np.max(np.abs(a - b)) <= quad.rel_tol * np.max(np.abs(b)), column
        psi, psi_ref = field.psi_fwd + field.psi_bwd, ref.psi_fwd + ref.psi_bwd
        true = np.abs(psi - psi_ref)
        above_round_off = true > 1e-13 * np.max(np.abs(psi_ref))
        assert np.all(field.error_estimate[above_round_off] >= true[above_round_off])


class TestExpRows:
    """Rows e^{rate x} of ``_exp_table``, by doubling, against one exponential per row."""

    EPS = np.finfo(float).eps
    U = np.linspace(0.0, 60.0, 241)
    THETAS = {
        "real": U,
        # inner wave number below a level of 200: imaginary for u < 14.1
        "evanescent": scattering.branch_sqrt(U * U - 200.0),
    }

    @pytest.mark.parametrize("kind", list(THETAS))
    @pytest.mark.parametrize("rows", [1, 2, 5, 13, 20, 121])
    def test_recurrence_matches_direct_exp(self, kind, rows):
        theta = self.THETAS[kind]
        dx = 0.1 * 14  # a factored row step; rows reach 18 - 26.6 = -8.6
        if rows == 121:
            dx = 1.0 / 120.0  # figure3's time count (not a power of two) at its x step
        xs = 18.0 - dx * rows + dx * np.arange(rows)
        direct = np.exp(1j * np.multiply.outer(xs, theta))
        scale = max(1.0, float(np.max(np.abs(np.multiply.outer(xs, theta)))))
        for inverse, ref in ((False, direct[..., None]),
                             (True, np.stack([direct, 1.0 / direct], axis=-1))):
            table = _exp_table(1j * theta, xs, dx, inverse)
            assert table.shape == ref.shape
            assert np.all(np.abs(table - ref) <= 4.0 * rows * self.EPS * scale * np.abs(ref))

    def test_nonuniform_rows_take_direct_exp(self):
        theta = self.THETAS["evanescent"]
        xs = np.array([-3.0, -0.25, 0.5, 4.0])
        direct = np.exp(1j * np.multiply.outer(xs, theta))
        table = _exp_table(1j * theta, xs, inverse=True)
        np.testing.assert_allclose(table[..., 0], direct, rtol=self.EPS, atol=0.0)
        np.testing.assert_allclose(table[..., 1], 1.0 / direct, rtol=self.EPS, atol=0.0)

    @pytest.mark.parametrize("rows", [5, 6, 8])
    def test_no_power_past_the_span(self, rows):
        # kappa dx = 100: the inverse rows reach e^{100 (rows - 1)} <= e^700,
        # finite, but the step's next doubling, e^{100 * 2^ceil(log2 rows)},
        # would overflow
        kappa = np.array([100.0, 50.0])
        xs = np.arange(rows, dtype=float)
        with np.errstate(over="raise"):
            table = _exp_table(-kappa, xs, 1.0, inverse=True)
        ref = np.exp(np.multiply.outer(xs, kappa))
        assert np.all(np.isfinite(table))
        assert np.all(np.abs(table[..., 1] - ref) <= 4.0 * rows * self.EPS * 700.0 * ref)


class TestPsiPoint:
    POT = PotentialSpec(10.0, 40.0)

    def test_matches_evolve_samples(self):
        x = np.array([-0.4, 0.3, 1.2])
        field = evolve(PACKET, self.POT, x, [0.5])
        for j, xv in enumerate(x):
            region = "left" if xv < 0 else ("inside" if xv <= 1 else "right")
            psi, _ = psi_point(PACKET, self.POT, float(xv), 0.5, region)
            total = field.psi_fwd[0, j] + field.psi_bwd[0, j]
            assert psi == pytest.approx(total, rel=1e-7)

    def test_interface_continuity(self):
        for x0, pair in ((0.0, ("left", "inside")), (1.0, ("inside", "right"))):
            va = psi_point(PACKET, self.POT, x0, 0.5, pair[0])
            vb = psi_point(PACKET, self.POT, x0, 0.5, pair[1])
            scale = max(abs(va[0]), abs(vb[0]))
            dscale = max(abs(va[1]), abs(vb[1]))
            assert abs(va[0] - vb[0]) < 1e-8 * scale
            assert abs(va[1] - vb[1]) < 1e-8 * dscale

    def test_rejects_time_not_after_t0(self):
        packet = PacketSpec(100.0, 0.1, -10.0, t0_tilde=-0.5)
        for t in (-0.5, -1.0):
            with pytest.raises(ValueError, match="exceed t0_tilde"):
                psi_point(packet, self.POT, -10.0, t, "left")

    def test_nonconverged_probe_raises(self):
        with pytest.raises(QuadratureError) as info:
            psi_point(PACKET, self.POT, 0.5, 0.5, "inside", QuadratureSpec(max_panels=2))
        assert info.value.value is not None
        assert info.value.error_estimate > 0

    def test_derivative_matches_per_point_sums(self):
        # the slope is assembled as evolve assembles psi; the reference
        # integrates the slope of the region wave from its values on the
        # same rules, within round-off of the integral of |integrand| (see
        # TestDenseReference), the two directions summed as psi_point sums them
        t = 0.5
        tau = t - PACKET.t0_tilde
        pref = packet_prefactor(PACKET)
        for region, x in (("left", -0.4), ("inside", 0.3), ("right", 1.2)):
            _, dpsi = psi_point(PACKET, self.POT, x, t, region)
            dense = mass = 0.0
            for direction in ("forward", "backward"):
                rule, _, (c_in, c_out, theta, xoff) = _shared_rule(
                    region, direction, x, abs(x) + 1.0, (tau,), PACKET, self.POT,
                    QuadratureSpec(),
                )
                d_out = None if c_out is None else -1j * theta * c_out
                slope = (1j * theta * c_in, d_out, theta, xoff)
                fv = np.exp(-1j * (rule.u * rule.u) * tau) * wave_at(slope, x)
                dense += rule.integrate_values(fv)[0]
                mass += rule.integrate_values(np.abs(fv))[0]
            assert abs(dpsi - pref * dense) <= 1e-13 * abs(pref) * mass

    def test_derivative_consistent_with_values(self):
        h = 1e-5
        x0 = 0.5
        psi_m, _ = psi_point(PACKET, self.POT, x0 - h, 0.5, "inside")
        psi_p, _ = psi_point(PACKET, self.POT, x0 + h, 0.5, "inside")
        _, dpsi = psi_point(PACKET, self.POT, x0, 0.5, "inside")
        fd = (psi_p - psi_m) / (2.0 * h)
        assert dpsi == pytest.approx(fd, rel=1e-4)


class TestStationaryDensity:
    POT = PotentialSpec(10.0, 40.0)

    def test_continuous_at_interfaces(self):
        for x0 in (0.0, 1.0):
            below = stationary_density(x0 - 1e-9, 100.0, self.POT, 0.1)
            above = stationary_density(x0 + 1e-9, 100.0, self.POT, 0.1)
            assert below == pytest.approx(above, rel=1e-6)

    def test_right_region_is_flat_transmission(self):
        # beyond the drop the forward density is constant (v/v_d) |t|^2
        vals = [stationary_density(x, 100.0, self.POT, 0.1) for x in (1.1, 1.7, 4.0)]
        assert max(vals) == pytest.approx(min(vals), rel=1e-12)
        from mstwell import closed_amplitudes

        s = closed_amplitudes(100.0, self.POT)
        norm = 1.0 / (math.sqrt(2.0 * math.pi) * 0.1)
        expected = norm * (10.0 / math.sqrt(60.0)) * abs(s.t) ** 2
        assert vals[0] == pytest.approx(expected, rel=1e-12)

    def test_matches_narrowband_time_average(self):
        # with a very narrow spectrum the in-well density at the moment the
        # packet covers the profile approaches the stationary profile
        packet = PacketSpec(100.0, 2.0, -60.0)
        x = np.array([0.25, 0.5, 0.75])
        t_cover = 60.0 / 20.0  # center reaches x ~ 0 at t = |x_i| / v
        field = evolve(packet, self.POT, x, [t_cover])
        env = abs(free_gaussian_closed(packet, np.array([0.0]), t_cover)[0]) ** 2
        env *= math.sqrt(2.0 * math.pi) * packet.sigma_tilde  # unit peak envelope
        for j, xv in enumerate(x):
            stat = stationary_density(float(xv), 100.0, self.POT, packet.sigma_tilde)
            # velocity dispersion across the spectrum, Delta u / u = 5%,
            # bounds the residual time dependence
            assert field.density[0, j] == pytest.approx(env * stat, rel=8e-2)
