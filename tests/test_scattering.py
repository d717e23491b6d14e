"""Closed-form amplitudes, step composition, and flux identities.

Reference values were frozen from an independent 2x2 transfer-matrix
calculation (interface matching matrices and a width-1 propagation phase),
so they do not share code with the expressions under test.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mstwell as mw
from mstwell import (
    PacketSpec,
    PotentialSpec,
    SingularStepError,
    closed_amplitudes,
    gaussian_weight,
    mst_compose,
    probabilities,
    region_waves,
    step_amplitudes,
    step_t_matrices,
    wave_at,
)
from mstwell.evolution import _region_coeffs

# (E, U, Delta) -> (t, r) from the independent transfer-matrix route
FROZEN = {
    (100.0, 10.0, 50.0): (
        -0.9833328537275867 - 0.06063148768148288j,
        +0.17046846120453357 + 0.017911594458589326j,
    ),
    (4.0, 10.0, 0.0): (
        +0.16473530241207365 - 0.033128846358300976j,
        -0.1943529519356341 - 0.9664324548317258j,
    ),
    (100.0, -100.0, 50.0): (
        -0.003893086620729535 + 0.8785752028694173j,
        -0.47757950398477084 - 0.0028764827805003316j,
    ),
    (5.0, 10.0, 0.0): (
        +0.2113417179146603 + 0.0j,
        +0.0 - 0.9774122355837789j,
    ),
}


class TestClosedAmplitudes:
    @pytest.mark.parametrize("key", sorted(FROZEN))
    def test_frozen_reference_values(self, key):
        e, u, d = key
        t_ref, r_ref = FROZEN[key]
        s = closed_amplitudes(e, PotentialSpec(u, d))
        assert s.t == pytest.approx(t_ref, rel=1e-12, abs=1e-14)
        assert s.r == pytest.approx(r_ref, rel=1e-12, abs=1e-14)

    def test_quoted_probabilities(self):
        p = probabilities(100.0, PotentialSpec(10.0, 50.0))
        assert p["T_prob"] == pytest.approx(0.9706196785185097, rel=1e-12)
        assert p["R_prob"] == pytest.approx(0.029380321481490543, rel=1e-12)

    def test_unitarity_random_sweep(self):
        rng = np.random.default_rng(42)
        n = 20_000
        u = rng.uniform(-200.0, 200.0, n)
        d = rng.uniform(0.0, 150.0, n)
        e = np.maximum(u, d) + rng.uniform(0.5, 300.0, n)  # all propagating
        for ev, uv, dv in zip(e, u, d):
            p = probabilities(ev, PotentialSpec(uv, dv))
            assert abs(p["T_prob"] + p["R_prob"] - 1.0) < 1e-12

    def test_total_reflection_below_drop(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = rng.uniform(10.0, 150.0)
            e = rng.uniform(0.2, 0.98) * d
            u = rng.uniform(-200.0, 200.0)
            s = closed_amplitudes(e, PotentialSpec(u, d))
            assert abs(abs(s.r) - 1.0) < 1e-12

    def test_resonances_symmetric_exit(self):
        for u in (-100.0, 10.0):
            for n in range(1, 11):
                e = u + (math.pi * n) ** 2
                if e <= 0:
                    continue
                s = closed_amplitudes(e, PotentialSpec(u, 0.0))
                assert abs(abs(s.t) ** 2 - 1.0) < 1e-10

    def test_resonance_with_drop_closed_form(self):
        # with a drop the inner resonance k_u = n pi no longer gives unit
        # transmission; the closed value is 4 k k_d / (k + k_d)^2 < 1
        for n in range(3, 11):
            e = 10.0 + (math.pi * n) ** 2
            s = closed_amplitudes(e, PotentialSpec(10.0, 50.0))
            k, kd = math.sqrt(e), math.sqrt(e - 50.0)
            expected = 4.0 * k * kd / (k + kd) ** 2
            assert abs(s.t) ** 2 == pytest.approx(expected, rel=1e-12)
            assert abs(s.t) ** 2 < 1.0

    def test_reciprocity_through_the_mirrored_profile(self):
        # incidence from the right (the Delta side) is incidence from the
        # left on the mirrored profile (Delta, U, 0), solved here by interface
        # matching: with the inner wave a e^{i k_u y} + b e^{-i k_u (y - 1)},
        # unknowns (r, a, b, T) and e1 = e^{i k_u}, continuity of psi and
        # psi' at y = 0 and y = 1 is a 4x4 linear system
        rng = np.random.default_rng(19)
        n_checked = 0
        for _ in range(300):
            u, d = rng.uniform(-200.0, 200.0), rng.uniform(0.0, 150.0)
            e = d + rng.uniform(0.5, 300.0)  # E > Delta
            if abs(e - u) < 0.5:
                continue
            k, ku, kd = (complex(np.sqrt(complex(e - v))) for v in (0.0, u, d))
            e1 = np.exp(1j * ku)
            system = np.array([
                [-1.0, 1.0, e1, 0.0],
                [kd, ku, -ku * e1, 0.0],
                [0.0, e1, 1.0, -1.0],
                [0.0, ku * e1, -ku, -k],
            ])
            r_m, _, _, t_m = np.linalg.solve(system, [1.0, kd, 0.0, 0.0])
            t_mirror = np.sqrt(k / kd) * t_m
            t = mw.amplitude_table(np.array([e]), PotentialSpec(u, d))[0][0]
            assert abs(t_mirror - t) <= 1e-12 * abs(t)
            n_checked += 1
        assert n_checked > 250

    def test_free_limit(self):
        # transmitted wave is referenced at x = 1, so the free amplitude is
        # the accumulated phase e^{ik}, with no reflection anywhere
        e = 73.0
        s = closed_amplitudes(e, PotentialSpec(0.0, 0.0))
        assert s.t == pytest.approx(np.exp(1j * math.sqrt(e)), rel=1e-14)
        assert abs(s.r) < 1e-14
        assert abs(s.r_prime) < 1e-14


class TestMstComposition:
    @given(
        e_off=st.floats(0.5, 300.0),
        u=st.floats(-200.0, 200.0),
        d=st.floats(0.0, 150.0),
    )
    @settings(max_examples=200, deadline=None)
    @example(e_off=108.875, u=-137.875, d=0.0)  # transmission resonance, |r| ~ 1e-4
    def test_matches_closed_form(self, e_off, u, d):
        e = max(u, d, 0.0) + e_off
        pot = PotentialSpec(u, d)
        a = closed_amplitudes(e, pot)
        b = mst_compose(e, pot)
        for name in ("t", "t_prime", "r_prime", "r"):
            va, vb = getattr(a, name), getattr(b, name)
            assert abs(va - vb) <= 1e-12 * max(abs(va), abs(vb), 1e-30)

    def test_matches_in_tunneling_regime(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            u = rng.uniform(20.0, 200.0)
            e = rng.uniform(0.3, 0.95) * u  # inner channel evanescent
            d = rng.uniform(0.0, 0.9) * e
            pot = PotentialSpec(u, d)
            a = closed_amplitudes(e, pot)
            b = mst_compose(e, pot)
            for name in ("t", "t_prime", "r_prime", "r"):
                va, vb = getattr(a, name), getattr(b, name)
                assert abs(va - vb) <= 1e-12 * max(abs(va), abs(vb), 1e-30)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            mst_compose(0.0, PotentialSpec(10.0))


class TestSingleStep:
    def test_amplitude_identities(self):
        a = step_amplitudes(3.0, 2.0)
        assert a.r_left == -a.r_right
        # flux conservation across a propagating step
        assert abs(a.t) ** 2 + abs(a.r_right) ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_matching_conditions(self):
        # 1 + r = t * sqrt(kl/kr) (value) and kl(1 - r) = kr t sqrt(kl/kr)
        kl, kr = 2.0, 5.0
        a = step_amplitudes(kl, kr)
        scale = math.sqrt(kl / kr)
        assert 1 + a.r_left == pytest.approx(a.t * scale, rel=1e-14)
        assert kl * (1 - a.r_left) == pytest.approx(kr * a.t * scale, rel=1e-14)

    def test_singular_step(self):
        with pytest.raises(SingularStepError):
            step_amplitudes(0.0, 0.0)
        with pytest.raises(SingularStepError):
            step_t_matrices(1.0, -1.0)

    def test_t_matrix_scaling(self):
        # the resummed t-matrices equal i*hbar*velocity times the amplitudes
        pairs = {
            "propagating": (3.0, 2.0),
            "evanescent": (2.0j, 0.5j),
            "mixed": (1.5, 2.0j),
            "complex": (1.5, 0.5 + 2.0j),
        }
        for kl, kr in pairs.values():
            tm = step_t_matrices(kl, kr)
            a = step_amplitudes(kl, kr)
            assert tm.t_refl_left == pytest.approx(1j * 2.0 * kl * a.r_left, rel=1e-12)
            assert tm.t_refl_right == pytest.approx(1j * 2.0 * kr * a.r_right, rel=1e-12)
            v_root = np.sqrt(complex(2.0 * kl)) * np.sqrt(complex(2.0 * kr))
            assert tm.t_trans == pytest.approx(1j * v_root * a.t, rel=1e-12)


class TestRegionWaves:
    # barrier, well, evanescent inner channel, evanescent exit channel
    CASES = [
        (100.0, PotentialSpec(10.0, 0.0)),
        (100.0, PotentialSpec(-100.0, 40.0)),
        (30.0, PotentialSpec(80.0, 10.0)),
        (30.0, PotentialSpec(10.0, 50.0)),
    ]

    @staticmethod
    def _value_and_slope(region, u, x, pot):
        c_in, c_out, theta, xoff = region_waves(region, u, pot)
        value = wave_at((c_in, c_out, theta, xoff), x)
        d_out = None if c_out is None else -1j * theta * c_out
        slope = wave_at((1j * theta * c_in, d_out, theta, xoff), x)
        return complex(value), complex(slope)

    @pytest.mark.parametrize("e,pot", CASES)
    def test_equals_two_exponential_sum(self, e, pot):
        u = np.array([math.sqrt(e)])
        packet = PacketSpec(e, 0.2, -5.0)
        for region, x in (("left", -0.4), ("inside", 0.6), ("right", 1.7)):
            for direction in ("forward", "backward"):
                waves = _region_coeffs(region, direction, u, packet, pot)
                c_in, c_out, theta, xoff = waves
                xi = x - xoff
                explicit = c_in * np.exp(1j * theta * xi)
                if c_out is not None:
                    explicit = explicit + c_out * np.exp(-1j * theta * xi)
                assert wave_at(waves, x)[0] == pytest.approx(explicit[0], rel=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_inner_and_right_match_the_flux_normalised_route(self, seed):
        # the flux-normalised amplitudes t', r', t of amplitude_table times
        # sqrt(v / v_region) = sqrt(u) / sqrt(k_region), off the branch points
        rng = np.random.default_rng(seed)
        u_lvl, d_lvl = rng.uniform(-200.0, 200.0), rng.uniform(0.0, 150.0)
        pot = PotentialSpec(u_lvl, d_lvl)
        u = rng.uniform(0.1, 25.0, 2000)
        e = u * u
        u = u[(np.abs(e - u_lvl) > 1e-2) & (np.abs(e - d_lvl) > 1e-2)]
        e = u * u
        t, tp, rp, _, _ = mw.amplitude_table(e, pot)
        for region, level, refs in (("inside", u_lvl, (tp, rp)), ("right", d_lvl, (t, None))):
            scale = np.sqrt(u) / np.sqrt(mw.branch_sqrt(e - level))
            c_in, c_out, theta, _ = region_waves(region, u, pot)
            np.testing.assert_array_equal(theta, mw.branch_sqrt(e - level))
            np.testing.assert_allclose(c_in, scale * refs[0], rtol=1e-12, atol=0)
            if refs[1] is None:
                assert c_out is None
            else:
                np.testing.assert_allclose(c_out, scale * refs[1], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("pot", [PotentialSpec(0.0, 0.0)] + [p for _, p in CASES])
    def test_left_reflection_at_rest(self, pot):
        # at u = 0 the flat profile transmits all and any other reflects all
        r = region_waves("left", np.array([0.0]), pot)[1][0]
        flat = pot.u_tilde == 0.0 and pot.delta_tilde == 0.0
        assert r == pytest.approx(0.0 if flat else -1.0, abs=1e-14)

    @pytest.mark.parametrize(
        "pot", [PotentialSpec(0.0, 0.0), PotentialSpec(10.0, 0.0), PotentialSpec(-100.0, 0.0)]
    )
    def test_waves_at_rest(self, pot):
        # at u = 0 = Delta, psi_u is 1 on the flat profile (where d = 0 made
        # the inner and right waves 0/0) and 0 on any other: the u -> 0 limit
        flat = pot.u_tilde == 0.0
        for region, x in (("left", -0.4), ("inside", 0.6), ("right", 1.7)):
            psi = wave_at(region_waves(region, np.array([0.0, 1e-8]), pot), x)
            assert psi[0] == (1.0 if flat else 0.0)
            assert abs(psi[1] - psi[0]) < 1e-4

    @pytest.mark.parametrize("delta", [1.0, 40.0, 1e6])
    def test_inner_wave_at_rest_under_a_drop(self, delta):
        # at u = 0 = U < Delta, u/(k_u d) was 0/0; its limit is c_in = 1,
        # c_out = -1, so psi_u = 0 across the profile, as its neighbours tend to
        pot = PotentialSpec(0.0, delta)
        c_in, c_out, _, _ = region_waves("inside", np.array([0.0, 1e-9]), pot)
        assert (c_in[0], c_out[0]) == (1.0, -1.0)
        assert abs(c_in[1] - 1.0) < 1e-6 and abs(c_out[1] + 1.0) < 1e-6
        psi = wave_at(region_waves("inside", np.array([0.0, 1e-9]), pot), 0.5)
        assert psi[0] == 0.0 and abs(psi[1]) < 1e-6
        assert region_waves("inside", 0.0, pot)[0] == 1.0

    # well, barrier above and below the drop; Delta = u^2 exactly at u = 6, 4, 7
    @pytest.mark.parametrize(
        "pot", [PotentialSpec(-100.0, 36.0), PotentialSpec(80.0, 16.0), PotentialSpec(10.0, 49.0)]
    )
    def test_right_wave_finite_at_the_drop(self, pot):
        # at E = Delta, k_d = 0: the exit wave is 2u e^{i k_u}/d, finite and
        # the limit of its neighbours, which differ by O(k_d) ~ 1e-4 there
        # (sqrt(u/k_d) t was 0 * inf = NaN)
        u = math.sqrt(pot.delta_tilde) * (1.0 + np.array([-1e-10, 0.0, 1e-10]))
        assert u[1] ** 2 == pot.delta_tilde
        c_in = region_waves("right", u, pot)[0]
        assert np.all(np.isfinite(c_in))
        assert abs(c_in[1] - c_in[0]) < 1e-3 * abs(c_in[1])
        assert abs(c_in[1] - c_in[2]) < 1e-3 * abs(c_in[1])

    def test_deep_evanescent_exit_is_finite(self):
        # far beyond the drop e^{i theta xi} underflows to 0 (theta = i kappa,
        # kappa xi ~ 1e3): the transmitted wave is 0, never 0/0
        pot = PotentialSpec(10.0, 5000.0)
        u = np.array([math.sqrt(30.0)])
        c_in, c_out, theta, xoff = region_waves("right", u, pot)
        assert c_out is None
        assert np.exp(1j * theta * 100.0)[0] == 0.0
        packet = PacketSpec(30.0, 0.2, -5.0)
        for direction in ("forward", "backward"):
            waves = _region_coeffs("right", direction, u, packet, pot)
            assert wave_at(waves, 101.0)[0] == 0.0  # not NaN

    @pytest.mark.parametrize("e,pot", CASES)
    def test_matching_and_time_reversal(self, e, pot):
        u = math.sqrt(e)
        for x0, (below, above) in ((0.0, ("left", "inside")), (1.0, ("inside", "right"))):
            va, da = self._value_and_slope(below, u, x0, pot)
            vb, db = self._value_and_slope(above, u, x0, pot)
            assert abs(va - vb) <= 1e-12 * max(abs(va), 1.0)
            assert abs(da - db) <= 1e-12 * max(abs(da), u)
        # the backward component of the packet evolution is conj(psi_u)
        packet = PacketSpec(e, 0.2, -5.0)
        uu = np.array([u])
        tau = 0.3
        base = 2.0 * np.exp(-1j * e * tau) * gaussian_weight(uu, packet, "backward") \
            * np.exp(1j * u * packet.x_i_tilde)
        for region, x in (("left", -0.4), ("inside", 0.6), ("right", 1.7)):
            waves = _region_coeffs(region, "backward", uu, packet, pot)
            bwd = np.exp(-1j * uu * uu * tau) * wave_at(waves, x)
            fwd = wave_at(region_waves(region, uu, pot), x)
            assert bwd[0] == pytest.approx(base[0] * np.conj(fwd[0]), rel=1e-14)


@pytest.mark.parametrize("e,d", [(10.0, 40.0), (50.0, 0.0), (100.0, 40.0)])
def test_inner_branch_point_takes_the_limit(e, d):
    # at E = U, k_u = 0 makes denom 0/0: t and r equal their limits from
    # either side, while t' and r' diverge as k_u^{-1/2} and stay non-finite
    pot = PotentialSpec(e, d)
    t, tp, rp, r, _ = mw.amplitude_table(e * (1.0 + np.array([-1e-10, 0.0, 1e-10])), pot)
    for amp in (t, r):
        assert np.isfinite(amp[1])
        assert abs(amp[1] - amp[0]) < 1e-7
        assert abs(amp[1] - amp[2]) < 1e-7
    assert not np.isfinite(tp[1]) and not np.isfinite(rp[1])
    if e > d:
        assert abs(t[1]) ** 2 + abs(r[1]) ** 2 == pytest.approx(1.0, abs=1e-14)
    else:
        assert abs(r[1]) == pytest.approx(1.0, abs=1e-14)


def test_sweep_through_branch_point_is_silent():
    # the integer sweep E = 1..100 hits E = U = 10; the 0/0 there is
    # resolved (t, r) or documented (t', r'), never reported as a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, tp, rp, r, _ = mw.amplitude_table(np.linspace(1.0, 100.0, 100),
                                             PotentialSpec(10.0, 40.0))
    assert np.all(np.isfinite(t)) and np.all(np.isfinite(r))
    assert not np.isfinite(tp[9]) and not np.isfinite(rp[9])


@given(
    u=st.floats(-1e4, 1e4),
    d=st.floats(0.0, 1e4),
    e_closed=st.floats(-1e4, 0.0),
    e_open=st.floats(0.0, 2e4),
)
@settings(max_examples=300, deadline=None)
def test_table_is_finite_and_unitary(u, d, e_closed, e_open):
    # both branch energies, E = 0, one E <= 0 and one E >= 0, silently
    e = np.array([u, d, 0.0, e_closed, e_open])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, tp, rp, r, _ = mw.amplitude_table(e, PotentialSpec(u, d))
    assert np.all(np.isfinite(t)) and np.all(np.isfinite(r))
    off_branch = e != u
    assert np.all(np.isfinite(tp[off_branch])) and np.all(np.isfinite(rp[off_branch]))
    open_ = off_branch & (e > d)
    np.testing.assert_allclose(
        np.abs(t[open_]) ** 2 + np.abs(r[open_]) ** 2, 1.0, rtol=0, atol=1e-10
    )


def test_vectorized_table_matches_scalar():
    pot = PotentialSpec(10.0, 50.0)
    e = np.array([3.0, 30.0, 100.0, 400.0])
    t, tp, rp, r, _ = mw.amplitude_table(e, pot)
    for i, ev in enumerate(e):
        s = closed_amplitudes(float(ev), pot)
        assert t[i] == pytest.approx(s.t, rel=1e-14)
        assert tp[i] == pytest.approx(s.t_prime, rel=1e-14)
        assert rp[i] == pytest.approx(s.r_prime, rel=1e-14)
        assert r[i] == pytest.approx(s.r, rel=1e-14)
