"""Gauss-Kronrod panels, windowing, and the spectral integration driver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mstwell import PacketSpec, QuadratureSpec, spectral_rule, spectral_window
from mstwell.quadrature import (
    LEVIN_S,
    SMOOTH,
    WERR_GRADED,
    WG,
    WGK,
    WGK_GRADED,
    XGK,
    QuadratureError,
    SpectralRule,
    _chebyshev_lobatto,
    adaptive_panels,
    levin_tail,
    phase_capped_edges,
)


def _laurie_kronrod(n):
    """Nodes and weights of the (2n + 1)-point Kronrod extension of n-point Gauss-Legendre.

    Laurie's algorithm (D. P. Laurie, Math. Comp. 66 (1997) 1133) completes
    the Legendre recurrence coefficients (a, b) to the Jacobi-Kronrod
    matrix, whose eigenvalues are the nodes and whose eigenvectors' first
    components, squared times b_0 = 2, are the weights (Golub-Welsch).
    Both are symmetrized, as the rule is.
    """
    a, b = np.zeros(2 * n + 1), np.zeros(2 * n + 1)
    k = np.arange(1.0, (3 * n + 1) // 2 + 1)
    b[0], b[1:k.size + 1] = 2.0, k * k / (4.0 * k * k - 1.0)
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(
            (a[k + n + 1] - a[m - k]) * t[k + 1] + b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - (m - k)
        s[j + 1] = np.cumsum(
            -(a[k + n + 1] - a[m - k]) * t[j + 1] - b[k + n + 1] * s[j + 1] + b[m - k] * s[j + 2])
        j, k = j[-1], (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    off = np.sqrt(b[1:])
    x, v = np.linalg.eigh(np.diag(a) + np.diag(off, 1) + np.diag(off, -1))
    w = b[0] * v[0] ** 2
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


# QUADPACK's 7/15 pair (qk15): its positive Kronrod nodes from 1 down, then
# their Kronrod and Gauss weights, the center's last
GK15_NODES = [0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
              0.5860872354676911, 0.4058451513773972, 0.2077849550078985]
GK15_WEIGHTS = [0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
                0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
                0.20443294007529889, 0.20948214108472782]
G7_WEIGHTS = [0.1294849661688697, 0.2797053914892767, 0.3818300505051189, 0.4179591836734694]


class TestRuleConstants:
    def test_weights_sum_to_interval(self):
        assert math.fsum(WGK) == pytest.approx(2.0, abs=1e-15)
        assert math.fsum(WG) == pytest.approx(2.0, abs=1e-15)

    def test_nodes_sorted_symmetric(self):
        assert np.all(np.diff(XGK) > 0)
        np.testing.assert_allclose(XGK, -XGK[::-1], atol=1e-15)

    @pytest.mark.parametrize("degree", range(0, 47, 2))
    def test_polynomial_exactness(self, degree):
        # the 31-point Kronrod rule integrates polynomials up to degree 46 exactly
        exact = 2.0 / (degree + 1)
        approx = float(np.sum(WGK * XGK**degree))
        assert approx == pytest.approx(exact, rel=1e-13)

    def test_embedded_gauss_exactness(self):
        # the embedded 15-point Gauss rule is exact up to degree 29
        for degree in range(0, 30, 2):
            approx = float(np.sum(WG * XGK**degree))
            assert approx == pytest.approx(2.0 / (degree + 1), rel=1e-13)


class TestKronrodTables:
    """The literal tables against Laurie's algorithm, run here in numpy."""

    def test_generator_reproduces_the_gk15_pair(self):
        x, w = _laurie_kronrod(7)
        np.testing.assert_allclose(x[:7], -np.array(GK15_NODES), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(w[:8], GK15_WEIGHTS, rtol=0.0, atol=1e-15)
        gauss_x, gauss_w = np.polynomial.legendre.leggauss(7)
        np.testing.assert_allclose(x[1::2], gauss_x, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(gauss_w[:4], G7_WEIGHTS, rtol=0.0, atol=1e-15)

    def test_literal_tables_match_the_generator(self):
        x, w = _laurie_kronrod(15)
        np.testing.assert_allclose(XGK, x, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(WGK, w, rtol=0.0, atol=1e-15)
        assert np.all(WGK > 0.0) and np.all(WG[1::2] > 0.0)

    def test_gauss_subset_is_gauss_legendre(self):
        gauss_x, gauss_w = np.polynomial.legendre.leggauss(15)
        np.testing.assert_allclose(XGK[1::2], gauss_x, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(WG[1::2], gauss_w, rtol=0.0, atol=1e-15)
        assert np.all(WG[::2] == 0.0)

    @pytest.mark.parametrize("n", [7, 15, 20, 30])
    def test_weights_positive_and_exact_to_degree_3n_plus_1(self, n):
        x, w = _laurie_kronrod(n)
        assert np.all(w > 0.0) and np.all(np.diff(x) > 0.0) and -1.0 < x[0]
        for degree in range(0, 3 * n + 2, 2):
            assert float(np.sum(w * x**degree)) == pytest.approx(2.0 / (degree + 1), rel=1e-13)


class TestSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.window_w == 8.0
        assert spec.phase_per_panel == pytest.approx(4.0 * math.pi)

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
        assert hi == pytest.approx(14.0)

    def test_backward_empty_when_weight_is_past_the_edge(self):
        # u_perp sigma >= W: no u > 0 carries more than e^{-W^2} of the weight
        assert spectral_window(10.0, 1.0, "backward", 8.0) == (0.0, 0.0)
        rule = spectral_rule(PacketSpec(100.0, 1.0, -10.0), "backward", (), 0.0, 0.0,
                             QuadratureSpec())
        assert rule.n_panels == 0 and rule.u.size == 0
        res = rule.refine_against(lambda u: np.ones_like(u), np.ones(0))
        assert (res.value, res.error_estimate, res.converged) == (0.0, 0.0, True)
        value, err = rule.integrate_separable([], (2, 3))
        assert np.all(value == 0.0) and np.all(err == 0.0) and value.shape == (2, 3)

    def test_both_spans_the_hull(self):
        assert spectral_window(10.0, 1 / 3, "both", 8.0) == (0.0, pytest.approx(34.0))

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            spectral_window(10.0, 0.1, "sideways", 8.0)


def _assert_equal_phase(edges, cuts, t_scale, x_span):
    """Each segment between ``cuts`` holds the fewest panels within the cap,
    all of the same phase."""
    for a, b in zip(cuts[:-1], cuts[1:]):
        seg = edges[(edges >= a) & (edges <= b)]
        lo, hi = seg[:-1], seg[1:]
        phase = np.abs(hi**2 - lo**2) * t_scale + (hi - lo) * x_span
        total = abs(b * b - a * a) * t_scale + (b - a) * x_span
        n = max(1, math.ceil(total / math.pi))
        assert lo.size == n
        # relative to the segment's phase: a panel's own phase is known only
        # to the spacing of the doubles at its edges (~1e-11 of it at u ~ 150)
        np.testing.assert_allclose(phase, total / n, rtol=0, atol=1e-12 * total)


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

    @given(
        lo=st.floats(0.0, 50.0),
        width=st.floats(0.1, 100.0),
        t_scale=st.floats(0.0, 5.0),
        x_span=st.floats(0.0, 30.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_equal_phase_seeding(self, lo, width, t_scale, x_span):
        br = lo + 0.3 * width
        edges = phase_capped_edges(lo, lo + width, [br], t_scale, x_span, math.pi, 100_000)
        _assert_equal_phase(edges, [lo, br, lo + width], t_scale, x_span)

    @pytest.mark.parametrize("t_scale,x_span", [(2.0, 0.0), (0.0, 7.0)])
    def test_equal_phase_single_term(self, t_scale, x_span):
        edges = phase_capped_edges(0.0, 10.0, [3.0], t_scale, x_span, math.pi, 100_000)
        _assert_equal_phase(edges, [0.0, 3.0, 10.0], t_scale, x_span)

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

    def test_refined_edges_keep_the_window(self):
        # a spike at u = 3 refines the low panels and leaves the top one
        # whole: the edges still rise strictly from lo to hi, and the rule's
        # nodes integrate the probe to the value the refinement reported
        rule = SpectralRule(0.0, 10.0, [], 0.0, 0.0,
                            QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14))
        probe = lambda u: np.exp(-((50.0 * (u - 3.0)) ** 2)) + 0.01
        res = rule.refine_against(probe)
        assert res.converged and rule.n_panels > 2
        assert rule.edges[0] == 0.0 and rule.edges[-1] == 10.0
        assert np.all(np.diff(rule.edges) > 0)
        value, _ = rule.integrate_values(probe(rule.u))
        assert value == pytest.approx(res.value, rel=1e-12)


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


def _sqrt_kink(b):
    """sqrt|u - b| and its antiderivative, which is continuous across u = b."""
    f = lambda u: np.sqrt(np.abs(u - b))
    big_f = lambda u: (2.0 / 3.0) * np.sign(u - b) * np.abs(u - b) ** 1.5
    return f, big_f


def _channel_root(c):
    """sqrt|u^2 - c^2| (a channel wave number's modulus) and an antiderivative."""
    f = lambda u: np.sqrt(np.abs(u * u - c * c))

    def big_f(u):
        if u >= c:
            return 0.5 * (u * f(u) - c * c * math.log(u + f(u))) + 0.5 * c * c * (
                math.log(c) + 0.5 * math.pi)
        return 0.5 * (u * f(u) + c * c * math.asin(u / c))

    return f, big_f


def _assert_separable_matches_values(rule, f):
    """The stacked products of ``integrate_separable`` weigh nodes as ``integrate_values``.

    Two blocks of two left rows (f, then 2 f) stack their samples in turn,
    and blocks of one panel or of two halves of the panels sum them exactly
    as one block of all panels does.
    """
    fv = np.asarray(f(rule.u), dtype=complex)
    nodes = XGK.size

    def blocks(cuts):
        for p0, p1 in zip(cuts[:-1], cuts[1:]):
            left = np.ones((2, (p1 - p0) * nodes, 1), dtype=complex)
            right = fv[None, p0 * nodes:p1 * nodes, None]
            yield slice(p0, p1), slice(0, 2), right, left
            yield slice(p0, p1), slice(2, 4), right, 2.0 * left

    sep, sep_err = rule.integrate_separable(blocks([0, rule.n_panels]), (4, 1))
    value, err = rule.integrate_values(fv)
    assert sep[0, 0] == pytest.approx(value, rel=1e-13)
    assert sep_err[0, 0] == pytest.approx(err, rel=1e-9)
    assert np.all(sep[2:] == 2.0 * sep[:2]) and np.all(sep_err[2:] == 2.0 * sep_err[:2])
    for cuts in (range(rule.n_panels + 1), [0, rule.n_panels // 2, rule.n_panels]):
        blocked, blocked_err = rule.integrate_separable(blocks(list(cuts)), (4, 1))
        assert np.array_equal(blocked, sep) and np.array_equal(blocked_err, sep_err)


class TestGradedPanels:
    """Smoothstep nodes on the panels that touch a channel branch point."""

    def test_weights_integrate_the_map(self):
        # du/dx integrates to the panel length, and the map ends on the edges
        assert math.fsum(WGK_GRADED) == pytest.approx(2.0, rel=1e-14)
        assert math.fsum(WGK_GRADED - WERR_GRADED) == pytest.approx(2.0, rel=1e-14)
        assert np.all(np.diff(SMOOTH) > 0) and 0.0 < SMOOTH[0] < SMOOTH[-1] < 1.0

    @pytest.mark.parametrize("kind", ["kink", "channel"])
    @pytest.mark.parametrize("b", [0.3, 1.7, 2.5, 3.3, 4.6, 5.7])
    @pytest.mark.parametrize("rel_tol,rounds", [(1e-8, 0), (1e-10, 2)])
    def test_branch_integrands_converge_in_few_rounds(self, kind, b, rel_tol, rounds):
        # algebraic singularities at a break point, on both of its sides:
        # affine panels ending there need 7-8 rounds of bisection at 1e-8 and
        # 11-12 at 1e-10; graded ones none at either (a 7-point Gauss
        # estimate took one or two at 1e-10, the bound kept here)
        lo, hi = 0.0, 6.0
        f, big_f = _channel_root(b) if kind == "channel" else _sqrt_kink(b)
        exact = big_f(hi) - big_f(lo)
        calls = []

        def g(u):
            calls.append(u.size)
            return f(u)

        rule = SpectralRule(lo, hi, [b], 0.0, 0.0, QuadratureSpec(rel_tol=rel_tol, abs_tol=1e-300))
        assert b in rule.edges
        res = rule.refine_against(g)
        assert res.converged
        assert len(calls) - 1 <= rounds
        assert abs(res.value - exact) <= rel_tol * abs(exact)
        # the rule's nodes give the same value
        value, _ = rule.integrate_values(np.asarray(f(rule.u), dtype=complex))
        assert value == pytest.approx(res.value, rel=1e-13)

    def test_graded_panel_estimate_reaches_round_off(self):
        # one graded panel ending on the branch point of sqrt(c^2 - u^2): the
        # 15-point Gauss value follows the Kronrod one to round-off (the
        # 7-point one stalled at 1.7e-9 of it), so nothing is split
        c = 3.3
        f, big_f = _channel_root(c)
        rule = SpectralRule(2.2, c, [c], 0.0, 0.0, QuadratureSpec(rel_tol=1e-10, abs_tol=1e-300))
        assert rule.n_panels == 1
        value, err = rule.integrate_values(np.asarray(f(rule.u), dtype=complex))
        assert err <= 1e-14 * abs(value)
        assert abs(value - (big_f(c) - big_f(2.2))) <= 1e-14 * abs(value)
        assert rule.refine_against(f).panels_used == 1

    def test_window_without_breaks_keeps_affine_nodes(self):
        # a rule whose window holds no break point has the plain Kronrod
        # nodes and weights, bit for bit, whatever breaks lie outside it
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14)
        probe = lambda u: np.exp(-((u - 4.0) ** 2)) * np.exp(3j * u)
        plain = SpectralRule(1.0, 9.0, [], 0.5, 3.0, spec)
        outside = SpectralRule(1.0, 9.0, [0.5, 9.5], 0.5, 3.0, spec)
        r_plain, r_outside = plain.refine_against(probe), outside.refine_against(probe)
        assert r_plain == r_outside
        assert np.array_equal(plain.u, outside.u) and np.array_equal(plain.edges, outside.edges)
        value, err = outside.integrate_values(probe(outside.u))
        assert (value, err) == plain.integrate_values(probe(plain.u))

        a, b = plain.edges[:-1], plain.edges[1:]
        half = 0.5 * (b - a)
        assert np.array_equal(plain.u, ((0.5 * (a + b))[:, None] + half[:, None] * XGK).ravel())
        affine = half[:, None, None] * np.stack([WGK, WGK - WG], axis=-1)
        assert np.array_equal(outside.weights, affine)
        _assert_separable_matches_values(outside, probe)

    def test_graded_panels_follow_the_break_through_splitting(self):
        # refinement halves the graded panels; the halves that keep the break
        # point stay graded and the others become affine
        rule = SpectralRule(0.0, 6.0, [1.7], 0.0, 0.0, QuadratureSpec(rel_tol=1e-10))
        spike = lambda u: np.sqrt(np.abs(u - 1.7)) + np.exp(-((40.0 * (u - 1.9)) ** 2))
        assert rule.refine_against(spike).converged
        graded = np.isin(rule.edges[:-1], [1.7]) | np.isin(rule.edges[1:], [1.7])
        assert graded.sum() == 2
        nodes = rule.u.reshape(-1, XGK.size)
        a, b = rule.edges[:-1], rule.edges[1:]
        np.testing.assert_array_equal(nodes[graded], a[graded, None] + (b - a)[graded, None] * SMOOTH)
        half = 0.5 * (b - a)
        np.testing.assert_array_equal(
            nodes[~graded], (0.5 * (a + b))[~graded, None] + half[~graded, None] * XGK)
        _assert_separable_matches_values(rule, spike)


class TestVectorIntegrand:
    """Integrands of C components on one set of panels."""

    def test_each_component_meets_its_own_target(self):
        # a unit Gaussian and a 1e-9-sized oscillation: one shared target would
        # leave the small component unresolved
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-300)
        edges = np.linspace(-8.0, 8.0, 5)
        g = lambda u: np.stack([np.exp(-(u**2)), 1e-9 * np.exp(-(u**2)) * np.cos(6.0 * u)], axis=-1)
        res, _ = adaptive_panels(g, edges, spec)
        assert res.converged and res.value.shape == (2,) and res.error_estimate.shape == (2,)
        exact = [math.sqrt(math.pi), 1e-9 * math.sqrt(math.pi) * math.exp(-9.0)]
        assert res.value[0] == pytest.approx(exact[0], rel=1e-10)
        assert abs(res.value[1] - exact[1]) <= 1e-10 * exact[1]
        assert np.all(res.error_estimate <= 1e-10 * np.abs(res.value))
        # the small component alone asks for the panels the pair got
        alone, _ = adaptive_panels(lambda u: g(u)[:, 1], edges, spec)
        assert res.panels_used >= alone.panels_used
        assert res.value[1] == pytest.approx(alone.value, rel=1e-12)

    def test_scalar_result_unchanged_by_a_second_component(self):
        # the same integrand as one component of a pair splits the same panels
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300)
        edges = phase_capped_edges(0.0, 1.0, [], 0.0, 50.0, math.pi, 10_000)
        f = lambda u: np.exp(50j * u)
        scalar, s_edges = adaptive_panels(f, edges, spec)
        pair, p_edges = adaptive_panels(lambda u: np.stack([f(u), f(u)], axis=-1), edges, spec)
        assert np.array_equal(s_edges, p_edges)
        assert isinstance(scalar.value, complex) and isinstance(scalar.error_estimate, float)
        np.testing.assert_allclose(pair.value, [scalar.value] * 2, rtol=1e-14)

    def test_one_missed_component_is_not_converged(self):
        # the first component converges on the seeded panels, the chirp does
        # not within the budget, and the result says so
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-300, max_panels=6)
        edges = np.linspace(0.0, 1.0, 5)
        g = lambda u: np.stack([1.0 + u, np.exp(300j * u * u)], axis=-1)
        res, _ = adaptive_panels(g, edges, spec)
        assert not res.converged
        assert res.error_estimate[0] <= 1e-10 * abs(res.value[0])
        assert res.error_estimate[1] > 1e-10 * abs(res.value[1])


def _chirp(b, tau, lo, hi):
    """Int_lo^hi e^{i b u - i tau u^2} du in closed form (scipy's complex erfc)."""
    from scipy.special import erfc

    root = math.sqrt(tau) * np.exp(0.25j * math.pi)
    shift = b / (2.0 * tau)
    pref = np.exp(1j * b * b / (4.0 * tau)) * math.sqrt(math.pi) / (2.0 * root)
    return pref * (erfc(root * (lo - shift)) - erfc(root * (hi - shift)))


class TestLevin:
    """Levin collocation for the paired chirp integrals of the kernel tail."""

    def test_half_degree_nodes_are_every_second_node(self):
        s8, _ = _chebyshev_lobatto(8)
        assert np.array_equal(LEVIN_S[::2], s8)
        assert np.array_equal(LEVIN_S, -LEVIN_S[::-1])

    def test_differentiation_exact_on_polynomials(self):
        s, d = _chebyshev_lobatto(16)
        for k in range(17):
            np.testing.assert_allclose(d @ s**k, k * s ** max(k - 1, 0), atol=1e-11)

    @pytest.mark.parametrize("gamma", [0.0, 2.0, -2.5])
    def test_modulated_chirp_closed_form(self, gamma):
        # h = a e^{i gamma u} turns both terms into plain chirps of rate
        # +-(beta + gamma); gamma spans the amplitudes' own oscillation
        a, beta, tau, lo, hi = 0.3 - 0.1j, 3.0, 0.5, 30.0, 300.0
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14)
        res = levin_tail(lambda u: a * np.exp(1j * gamma * u), beta, tau, lo, hi, spec)
        rate = beta + gamma
        exact = a * _chirp(rate, tau, lo, hi) + np.conj(a) * _chirp(-rate, tau, lo, hi)
        assert res.converged
        assert abs(res.value - exact) <= res.error_estimate + 1e-13

    def test_zero_amplitude(self):
        res = levin_tail(lambda u: np.zeros_like(u, dtype=complex), 2.0, 0.3, 40.0, 300.0,
                         QuadratureSpec())
        assert res.value == 0.0 and res.error_estimate == 0.0 and res.converged

    def test_budget_exhaustion_reports_nonconverged(self):
        # an amplitude far faster than OSC_ALLOWANCE needs more panels than allowed
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_panels=8)
        res = levin_tail(lambda u: np.exp(40j * u), 2.0, 0.3, 40.0, 300.0, spec)
        assert not res.converged

    def test_deterministic_repeat(self):
        h = lambda u: np.exp(2j * u) / u
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14)
        r1 = levin_tail(h, 1.5, 0.7, 30.0, 300.0, spec)
        r2 = levin_tail(h, 1.5, 0.7, 30.0, 300.0, spec)
        assert r1.value == r2.value
        assert r1.error_estimate == r2.error_estimate
        assert r1.panels_used == r2.panels_used
