"""Acceptance suite: one test per criterion, one printed verdict line each.

Each test prints ``criterion NN [PASS|FAIL] name (detail)`` to the real
stdout before asserting, so the verdict survives pytest's capture.  The
tolerances are the contract values; nothing here is tuned to make a
criterion green.  Criterion 3 carries a second clause that is not
satisfiable for high resonance orders (the detuned transmission tends back
to one as n grows), and the test states that clause literally, so it is
expected to fail; see the repository notes outside the package for the
analysis.

Rough runtime map: criteria 1-4 and 8 are seconds; 5, 9, 10 tens of
seconds; 6 a few minutes; 7 is the long pole (grid-oracle runs).
"""

import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from mstwell import (
    PacketSpec,
    PotentialSpec,
    QuadratureSpec,
    closed_amplitudes,
    compare,
    density,
    dwell_energy_density,
    dwell_resonant,
    evolve,
    evolve_grid,
    free_kernel_1d,
    grid_for_scenario,
    mst_compose,
    propagate_kernel,
    psi_point,
    relative_dwell_asymptotic,
    relative_dwell_turning_point,
)
from mstwell.dwell import inner_integrals_brute

E_PERP = 100.0
X_I = -10.0
TIMES = (0.25, 0.5, 1.0)

# relaxed rule for the wide-domain norm integrals: panel-level accuracy far
# beyond 1e-3 is wasted there
NORM_QUAD = QuadratureSpec(
    rel_tol=1e-6, abs_tol=1e-10, window_w=5.0, phase_per_panel=4.0 * math.pi
)


_CAPMAN = None


@pytest.fixture(autouse=True)
def _verdicts_to_terminal(request):
    # pytest captures at the file-descriptor level, which would swallow the
    # per-criterion verdict lines; lift the capture just for those prints
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{verdict}] {name}"
    if detail:
        line += f"  ({detail})"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print("\n" + line, file=sys.stdout, flush=True)
    else:
        print(line, file=sys.stdout, flush=True)
    assert ok, line


def _random_sweep(rng, n):
    e = rng.uniform(1.0, 500.0, n)
    u = rng.uniform(-300.0, 300.0, n)
    d = rng.uniform(0.0, 300.0, n)
    return e, u, d


def test_criterion_01_unitarity():
    rng = np.random.default_rng(101)
    e, u, d = _random_sweep(rng, 20_000)
    keep = (e > u) & (e > d)
    worst = 0.0
    for ev, uv, dv in zip(e[keep], u[keep], d[keep]):
        s = closed_amplitudes(float(ev), PotentialSpec(float(uv), float(dv)))
        worst = max(worst, abs(abs(s.t) ** 2 + abs(s.r) ** 2 - 1.0))
    # below the outer drop the only open channel is reflection
    worst_refl = 0.0
    below = (~keep) & (e < d)
    for ev, uv, dv in zip(e[below], u[below], d[below]):
        s = closed_amplitudes(float(ev), PotentialSpec(float(uv), float(dv)))
        worst_refl = max(worst_refl, abs(abs(s.r) - 1.0))
    ok = keep.sum() >= 10_000 and worst <= 1e-12 and worst_refl <= 1e-12
    _report(
        1, "unitarity of the closed amplitudes", ok,
        f"n={keep.sum()}, max |T+R-1|={worst:.2e}, max ||r|-1|={worst_refl:.2e}",
    )


def test_criterion_02_mst_composition():
    rng = np.random.default_rng(202)
    e, u, d = _random_sweep(rng, 15_000)
    worst = 0.0
    n_checked = 0
    for ev, uv, dv in zip(e, u, d):
        if ev <= dv or ev == uv:  # closed exit channel / branch point
            continue
        a = closed_amplitudes(float(ev), PotentialSpec(float(uv), float(dv)))
        b = mst_compose(float(ev), PotentialSpec(float(uv), float(dv)))
        for name in ("t", "t_prime", "r_prime", "r"):
            av, bv = getattr(a, name), getattr(b, name)
            worst = max(worst, abs(av - bv) / max(abs(av), 1e-30))
        n_checked += 1
    ok = n_checked >= 10_000 and worst <= 1e-12
    _report(
        2, "geometric resummation equals the closed amplitudes", ok,
        f"n={n_checked} (tunneling included), max rel diff={worst:.2e}",
    )


def test_criterion_03_resonance_law():
    # first clause: symmetric profile, unit transmission at k_u = n pi
    worst_sym = 0.0
    for u0 in (-100.0, 10.0):
        for n in range(1, 11):
            e = u0 + (math.pi * n) ** 2
            if e <= 0.0:
                continue  # no incident channel below the outer level
            s = closed_amplitudes(e, PotentialSpec(u0, 0.0))
            worst_sym = max(worst_sym, abs(abs(s.t) ** 2 - 1.0))
    # second clause, stated literally: a drop of 50 detunes every one of the
    # same energies below 1 - 1e-3.  The closed resonance value
    # 4 k k_d / (k + k_d)^2 tends back to one as n grows, so high orders
    # violate the bound; the clause is kept as written and fails honestly.
    worst_gap = 1.0
    for u0 in (-100.0, 10.0):
        for n in range(1, 11):
            e = u0 + (math.pi * n) ** 2
            if e <= 50.0:
                continue  # exit channel closed: no transmission at all
            s = closed_amplitudes(e, PotentialSpec(u0, 50.0))
            worst_gap = min(worst_gap, 1.0 - abs(s.t) ** 2)
    ok = worst_sym <= 1e-10 and worst_gap >= 1e-3
    _report(
        3, "resonances: exact for symmetric, detuned by a drop", ok,
        f"max |T-1| symmetric={worst_sym:.2e}, min detuning gap={worst_gap:.2e}",
    )


def test_criterion_04_free_propagator_quadrature():
    flat = PotentialSpec(0.0, 0.0)
    quad = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10)
    x_src = -2.0
    xs = np.linspace(-4.0, 2.5, 10)
    ts = np.linspace(0.1, 1.5, 10)
    worst = 0.0
    for x in xs:
        for t in ts:
            sample = propagate_kernel(float(x), float(t), x_src, 0.0, flat, quad)
            exact = free_kernel_1d(float(x), float(t), x_src, 0.0)
            worst = max(worst, abs(sample.value - exact) / abs(exact))
    _report(
        4, "spectral free propagator matches the closed kernel", worst <= 1e-6,
        f"10x10 grid, max rel err={worst:.2e}",
    )


def test_criterion_05_continuity_at_interfaces():
    presets = {
        "sigma=1/3, U=10, delta=40": (PacketSpec(E_PERP, 1 / 3, X_I),
                                      PotentialSpec(10.0, 40.0)),
        "sigma=0.1, U=10, delta=40": (PacketSpec(E_PERP, 0.1, X_I),
                                      PotentialSpec(10.0, 40.0)),
        "sigma=0.1, U=-100": (PacketSpec(E_PERP, 0.1, X_I),
                              PotentialSpec(-100.0, 0.0)),
        "sigma=0.1, U=-100, delta=50": (PacketSpec(E_PERP, 0.1, X_I),
                                        PotentialSpec(-100.0, 50.0)),
    }
    worst = 0.0
    for packet, pot in presets.values():
        for x0, pair in ((0.0, ("left", "inside")), (1.0, ("inside", "right"))):
            for t in TIMES:
                va = psi_point(packet, pot, x0, t, pair[0])
                vb = psi_point(packet, pot, x0, t, pair[1])
                for i in range(2):
                    scale = max(abs(va[i]), abs(vb[i]))
                    worst = max(worst, abs(va[i] - vb[i]) / scale)
    _report(
        5, "wave function and derivative continuous at the interfaces",
        worst <= 1e-6, f"4 presets x 2 interfaces x 3 times, max rel jump={worst:.2e}",
    )


def test_criterion_06_norm_conservation():
    scenarios = {
        "edge preset, delta=40": PotentialSpec(10.0, 40.0),
        "in-well preset": PotentialSpec(-100.0, 0.0),
    }
    packet = PacketSpec(E_PERP, 0.1, X_I)
    x = np.linspace(-40.0, 60.0, 3001)
    worst = 0.0
    for pot in scenarios.values():
        field = evolve(packet, pot, x, list(TIMES), NORM_QUAD)
        for i in range(len(TIMES)):
            norm = float(np.trapezoid(field.density[i], x))
            worst = max(worst, abs(norm - 1.0))
    _report(
        6, "density integrates to one at every sampled time", worst <= 1e-3,
        f"2 presets x 3 times, max |norm-1|={worst:.2e}",
    )


def _oracle_distances(packet, pot, times, dx_refine, dt_refine, max_points=4001):
    grid = grid_for_scenario(packet, pot, times[-1],
                             dx_refine=dx_refine, dt_refine=dt_refine)
    field = evolve_grid(packet, pot, grid, list(times))
    stride = max(1, field.x_grid.size // max_points)
    xs = field.x_grid[::stride]
    sub = SimpleNamespace(x_grid=xs, t_grid=field.t_grid, psi=field.psi[:, ::stride])
    mst = evolve(packet, pot, xs, np.asarray(times))
    return [compare(sub, mst, "L2_rel", time_index=i) for i in range(len(times))]


def test_criterion_07_grid_oracle_equivalence():
    packet = PacketSpec(E_PERP, 0.1, X_I)
    edge = _oracle_distances(packet, PotentialSpec(10.0, 40.0), TIMES, 1.6, 1.0,
                             max_points=1001)
    free = _oracle_distances(packet, PotentialSpec(0.0, 0.0), TIMES, 1.6, 1.0,
                             max_points=1001)
    agree = max(edge + free) <= 1e-3

    # monotone improvement under refinement, on a short broadband scenario
    cheap_packet = PacketSpec(E_PERP, 0.3, -6.0)
    barrier = PotentialSpec(10.0, 40.0)
    ladder = [
        _oracle_distances(cheap_packet, barrier, (0.2,), r, r, max_points=801)[0]
        for r in (1.0, 1.5, 2.0)
    ]
    monotone = ladder[0] > ladder[1] > ladder[2]
    _report(
        7, "independent grid solver reproduces the spectral evolution",
        agree and monotone,
        "L2 edge=[{}] free=[{}], refinement ladder=[{}]".format(
            ", ".join(f"{v:.2e}" for v in edge),
            ", ".join(f"{v:.2e}" for v in free),
            ", ".join(f"{v:.2e}" for v in ladder),
        ),
    )


def _buttiker_reference(e, u):
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


def test_criterion_08_dwell_time_checks():
    # (a) free flight: t(E; d) = d / v
    worst_free = max(
        abs(dwell_energy_density(e, PotentialSpec(0.0, 0.0))["t_of_E"]
            - 0.5 / math.sqrt(e)) * 2.0 * math.sqrt(e)
        for e in (1.0, 25.0, 100.0, 400.0)
    )
    # (b) symmetric reduction against an independently coded reference
    worst_sym = 0.0
    for e, u in ((100.0, 10.0), (5.0, 10.0), (100.0, -100.0), (50.0, 45.0)):
        t = dwell_energy_density(e, PotentialSpec(u, 0.0))["t_of_E"]
        ref = _buttiker_reference(e, u)
        worst_sym = max(worst_sym, abs(t - ref) / ref)
    # (c) deep-well resonances approach a relative dwell of 1/2
    worst_res = max(
        abs(dwell_resonant(E_PERP,
                           PotentialSpec(E_PERP - (math.pi * n) ** 2, 0.0)).relative
            - 0.5)
        for n in range(23, 29)
    )
    # (d) turning-point value 4 E / (4 E + U^2) at E = U = 100
    tp = relative_dwell_turning_point(100.0, PotentialSpec(100.0, 0.0))
    err_tp = abs(tp - 400.0 / 10400.0) / (400.0 / 10400.0)
    # (e) closed x-integrated forms against brute-force x quadrature
    rng = np.random.default_rng(808)
    regimes = {
        "over_barrier": lambda: (rng.uniform(15.0, 300.0), 10.0, 0.0),
        "tunneling": lambda: (rng.uniform(5.0, 45.0), 50.0, 0.0),
        "well": lambda: (rng.uniform(1.0, 300.0), -100.0, 0.0),
        "sub_drop": lambda: (rng.uniform(5.0, 39.0), 10.0, 40.0),
        "asymmetric": lambda: (rng.uniform(45.0, 300.0), 10.0, 40.0),
    }
    worst_brute = 0.0
    for sample in regimes.values():
        for _ in range(20):
            e, u, d = sample()
            pot = PotentialSpec(u, d)
            closed = dwell_energy_density(e, pot)
            t_b, k_b = inner_integrals_brute(e, pot)
            worst_brute = max(worst_brute, abs(closed["t_of_E"] - t_b) / abs(t_b))
            worst_brute = max(
                worst_brute,
                abs(closed["interference_kernel"] - k_b) / max(abs(k_b), 1e-12),
            )
    ok = (worst_free <= 1e-12 and worst_sym <= 1e-12
          and worst_res <= 0.02 * 0.5 and err_tp <= 1e-6 and worst_brute <= 1e-8)
    _report(
        8, "dwell times: limits, reductions, and brute-force quadrature", ok,
        f"free={worst_free:.1e}, symmetric={worst_sym:.1e}, "
        f"resonant={worst_res:.1e}, turning point={err_tp:.1e}, "
        f"brute={worst_brute:.1e}",
    )


def _count_peaks(values):
    v = np.asarray(values)
    interior = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    return int(np.count_nonzero(interior & (v[1:-1] > 0.02 * v.max())))


def test_criterion_09_figure_structure():
    packet = PacketSpec(E_PERP, 0.1, X_I)
    times = np.linspace(0.05, 1.5, 120)
    peaks = {}
    for delta in (0.0, 40.0):
        field = evolve(packet, PotentialSpec(10.0, delta), np.array([1.0]), times)
        peaks[delta] = _count_peaks(field.density[:, 0])
    # in-well probability history for the deep symmetric well
    x_in = np.linspace(0.0, 1.0, 41)
    t_in = np.linspace(0.1, 1.2, 45)
    field = evolve(packet, PotentialSpec(-100.0, 0.0), x_in, t_in)
    inside = np.trapezoid(field.density, x_in, axis=1)
    t_peak = float(t_in[int(np.argmax(inside))])
    # deep-well resonance spikes grow when a large drop follows the region
    taller = all(
        relative_dwell_asymptotic(E_PERP,
                                  PotentialSpec(E_PERP - (math.pi * n) ** 2, 90.0))
        > dwell_resonant(E_PERP,
                         PotentialSpec(E_PERP - (math.pi * n) ** 2, 0.0)).relative
        for n in range(4, 8)
    )
    ok = peaks[40.0] >= 2 and peaks[0.0] == 1 and abs(t_peak - 0.5) <= 0.15 and taller
    _report(
        9, "edge-density structure, in-well peak time, resonance growth", ok,
        f"maxima delta=40: {peaks[40.0]}, delta=0: {peaks[0.0]}, "
        f"in-well peak t={t_peak:.3f}, drop raises spikes: {taller}",
    )


def test_criterion_10_backward_suppression():
    x = np.linspace(0.0, 1.0, 21)
    times = np.linspace(0.1, 1.5, 15)
    ratios = {}
    for sigma in (1 / 3, 0.1):
        packet = PacketSpec(E_PERP, sigma, X_I)
        field = evolve(packet, PotentialSpec(10.0, 0.0), x, times)
        split = density(field)
        contribution = split.bwd + np.abs(split.interference)
        ratios[sigma] = float(np.max(contribution) / np.max(split.total))
    ok = ratios[1 / 3] <= 1e-6 and ratios[0.1] > 1e-3
    _report(
        10, "backward waves: negligible narrowband, visible broadband", ok,
        f"ratio sigma=1/3: {ratios[1 / 3]:.2e}, sigma=0.1: {ratios[0.1]:.2e}",
    )
