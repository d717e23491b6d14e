"""The four benchmark workloads: seeded inputs, operations and checks.

A workload is a closed loop of operations a user runs one after another.
An operation is either one ``mstwell`` CLI command run in-process through
``mstwell.cli.main`` (its output file goes to a scratch directory and is
read back for checking) or one ``mstwell.greens.propagate_kernel`` call.
Every pass runs the same operations, so the count of failed operations is
the same share of the attempted ones in every run.  Checks compare against
``reference`` (computed apart from the program) or against properties the
method must have; none compares against a stored copy of earlier output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from mstwell import cli, greens
from mstwell.model import PotentialSpec
from mstwell.quadrature import QuadratureSpec

import reference

# The in-well scenario of figure3 and the barrier of the oracle preset share
# the packet E_perp = 100, sigma = 0.1, x_i = -10 (the CLI defaults).
E_PERP, SIGMA, X_I = 100.0, 0.1, -10.0

# Figure6 sweeps the inner level over linspace(-2000, 200, 1201) at Delta = 90.
FIG6_LEVELS = np.linspace(-2000.0, 200.0, 1201)
FIG6_DELTA = 90.0

AMP_U, AMP_DELTA, AMP_E_MAX = 10.0, 40.0, 3000


@dataclass
class Op:
    """One user operation: a CLI argv, or a kernel point (x, t)."""

    name: str
    argv: list[str] | None = None
    out: Path | None = None
    point: tuple[float, float] | None = None
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Failure:
    op: str
    check: str
    detail: str
    known: bool = False


def _cli_op(name, command, sets, out, preset=None, **expect) -> Op:
    argv = [command]
    if preset:
        argv += ["--preset", preset]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    return Op(name, argv + ["-o", str(out)], out=Path(out), expect=expect)


def _csv_rows(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows.reshape(-1, len(header))


class Workload:
    """Base: ``ops`` is the fixed list every pass runs."""

    name = ""

    def __init__(self, seed: int, scratch: Path):
        self.rng = np.random.default_rng(seed)
        self.scratch = scratch
        self.ops: list[Op] = []

    def warmup_op(self) -> Op:
        raise NotImplementedError

    def execute(self, op: Op):
        """Run one operation; module attributes are looked up per call so
        the traced run's wrappers are seen."""
        return cli.main(op.argv)

    def prepare(self) -> None:
        """Compute the references the checks need (outside any timing)."""

    def check(self, op: Op, result) -> list[Failure]:
        raise NotImplementedError


class DensityWell(Workload):
    """Density slices in the figure3 well: the x-assembly inside evolve
    dominates, and the grid holds the whole packet, so each slice is
    checked by its norm.  No grid solver runs."""

    name = "density_well"

    # one slice per stratum; the grid holds all but ~1e-4 of the packet up
    # to t = 0.31, and dx = 0.1 keeps the trapezoid norm within ~1e-5
    TIME_STRATA = ((0.195, 0.205), (0.245, 0.255), (0.295, 0.305))
    X_MIN, X_MAX, X_COUNT = -18.0, 10.0, 281
    # criterion 6's norm-check tolerances (rel 1e-6, window 5)
    QUAD = {"quad.rel_tol": "1e-6", "quad.abs_tol": "1e-10", "quad.window_w": "5"}

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        times = [float(self.rng.uniform(lo, hi)) for lo, hi in self.TIME_STRATA]
        self.ops = [self._op(f"density t={t!r}", t, i) for i, t in enumerate(times)]

    def _op(self, name, t, i, x_count=None):
        sets = {
            "grid.x_min": repr(self.X_MIN),
            "grid.x_max": repr(self.X_MAX),
            "grid.x_count": str(x_count or self.X_COUNT),
            "grid.t_min": repr(t),
            "grid.t_max": repr(t),
            "grid.t_count": "1",
            **self.QUAD,
        }
        return _cli_op(name, "density", sets, self.scratch / f"density{i}.csv",
                       preset="figure3", t=t)

    def warmup_op(self):
        return self._op("density warm-up", 0.1, "_warm", x_count=5)

    def check(self, op, rc):
        if rc != 0:
            return [Failure(op.name, "exit_code", f"exit {rc} (non-converged slice)")]
        _, rows = _csv_rows(op.out)
        x, t, dens, fwd, bwd, inter = rows[:, :6].T
        fails = []
        if rows.shape[0] != self.X_COUNT or not np.all(t == op.expect["t"]):
            fails.append(Failure(op.name, "grid", f"{rows.shape[0]} rows"))
        if not np.all(np.isfinite(rows)):
            fails.append(Failure(op.name, "finite", "non-finite value in the slice"))
            return fails
        norm = float(np.trapezoid(dens, x))
        if abs(norm - 1.0) > 1e-3:
            fails.append(Failure(op.name, "unitarity", f"norm {norm!r}"))
        if np.max(np.abs(fwd + bwd + inter - dens)) > 1e-12 * np.max(dens):
            fails.append(Failure(op.name, "split", "fwd + bwd + interference != density"))
        return fails


class StationarySweep(Workload):
    """Dwell at figure6 levels plus one amplitudes sweep: energy domain
    only (adaptive panels, amplitude_table, dwell integrands, CSV output),
    so an x-assembly change must not move it."""

    name = "stationary_sweep"

    LEVEL_COUNT = 48

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        # one level from each of 48 equal strata of the figure6 sweep, so
        # every seed covers wells, the flat profile and barriers alike
        strata = np.array_split(np.arange(FIG6_LEVELS.size), self.LEVEL_COUNT)
        self.levels = [float(FIG6_LEVELS[self.rng.choice(s)]) for s in strata]
        self.ops = [self._dwell_op(u, i) for i, u in enumerate(self.levels)]
        # the energy grid is 1, 2, ..., 3000 whatever the seed: it contains
        # E = U = 10 exactly, where amplitude_table returns NaN (known fault)
        self.ops.append(self._amplitudes_op())
        self.refs = {}

    def _dwell_op(self, u, i):
        sets = {"dwell.u_min": repr(u), "dwell.u_max": repr(u), "dwell.u_count": "1"}
        return _cli_op(f"dwell U={u!r}", "dwell", sets, self.scratch / f"dwell{i}.csv",
                       preset="figure6", u=u)

    def _amplitudes_op(self):
        sets = {
            "potential.u_tilde": repr(AMP_U),
            "potential.delta_tilde": repr(AMP_DELTA),
            "amplitudes.e_min": "1",
            "amplitudes.e_max": str(AMP_E_MAX),
            "amplitudes.e_count": str(AMP_E_MAX),
        }
        return _cli_op("amplitudes", "amplitudes", sets, self.scratch / "amplitudes.csv")

    def warmup_op(self):
        return self._dwell_op(0.0, "_warm")

    def prepare(self):
        # the quad reference costs ~0.1 s a level: every sixth level (one
        # per 1/8 of the sweep) is checked against it, all levels by sum
        for u in self.levels[::6]:
            self.refs[u] = reference.dwell_components(E_PERP, SIGMA, X_I, u, FIG6_DELTA)
        self.amp_refs = [
            reference.transfer_amplitudes(float(e), AMP_U, AMP_DELTA)
            for e in range(1, AMP_E_MAX + 1)
        ]

    def check(self, op, rc):
        if rc != 0:
            return [Failure(op.name, "exit_code", f"exit {rc}")]
        if "u" in op.expect:
            return self._check_dwell(op)
        return self._check_amplitudes(op)

    def _check_dwell(self, op):
        u = op.expect["u"]
        _, rows = _csv_rows(op.out)
        if rows.shape[0] != 1 or rows[0, 0] != u:
            return [Failure(op.name, "rows", f"{rows.shape[0]} rows")]
        fwd, bwd, inter, total = rows[0, 2:]
        if not np.all(np.isfinite(rows)):
            return [Failure(op.name, "finite", "non-finite dwell value")]
        fails = []
        if u in self.refs:
            ref = self.refs[u]
            worst = max(abs(a - b) for a, b in zip((fwd, bwd, inter), ref))
            if worst > 1e-6 * abs(sum(ref)):
                fails.append(Failure(op.name, "dwell_vs_reference",
                                     f"|diff| {worst:.3e} > 1e-6 tau_total {sum(ref):.6g}"))
        if abs(fwd + bwd + inter - total) > 1e-12 * abs(total):
            fails.append(Failure(op.name, "dwell_sum", "components do not add to tau_total"))
        return fails

    def _check_amplitudes(self, op):
        header, rows = _csv_rows(op.out)
        col = {name: i for i, name in enumerate(header)}
        if rows.shape[0] != AMP_E_MAX:
            return [Failure(op.name, "rows", f"{rows.shape[0]} rows")]
        bad_amp, bad_unit = [], []
        for row, ref in zip(rows, self.amp_refs):
            e = float(row[col["E_tilde"]])
            t = complex(row[col["t_re"]], row[col["t_im"]])
            r = complex(row[col["r_re"]], row[col["r_im"]])
            # t' and r' carry sqrt(k_u) and diverge at E = U; t and r do not
            pairs = [(t, ref.t), (r, ref.r)]
            if ref.ku != 0:
                pairs += [
                    (complex(row[col["tprime_re"]], row[col["tprime_im"]]), ref.t_prime),
                    (complex(row[col["rprime_re"]], row[col["rprime_im"]]), ref.r_prime),
                ]
            if not all(abs(a - b) <= 1e-10 for a, b in pairs):
                bad_amp.append(e)
            is_open = e > AMP_DELTA
            probs = (abs(ref.t) ** 2, abs(ref.r) ** 2) if is_open else (0.0, 1.0)
            flux = abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) if is_open else 0.0
            if not (flux <= 1e-10
                    and abs(row[col["T_prob"]] - probs[0]) <= 1e-10
                    and abs(row[col["R_prob"]] - probs[1]) <= 1e-10):
                bad_unit.append(e)
        fails = []
        if bad_amp:
            # NaN at E = U only: amplitude_table's denominator is 0/0 there
            known = bad_amp == [AMP_U]
            fails.append(Failure(op.name, "amplitudes_vs_transfer_matrix",
                                 f"rows E = {bad_amp[:5]}", known))
        if bad_unit:
            fails.append(Failure(op.name, "unitarity", f"rows E = {bad_unit[:5]}"))
        return fails


class OracleBarrier(Workload):
    """oracle-compare on the oracle preset: the only workload where
    Crank-Nicolson steps dominate."""

    name = "oracle_barrier"

    # times (t1, 2 t1) with t1 in a 1% band keep the step count near-constant;
    # ~150 compared points keep the spectral side below the grid's share
    T1_RANGE = (0.050, 0.0505)
    COMPARE_POINTS = 151

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        t1 = float(self.rng.uniform(*self.T1_RANGE))
        self.ops = [self._op(f"oracle-compare t={t1!r},{2 * t1!r}", (t1, 2 * t1), 0)]

    def _op(self, name, times, i, compare_points=COMPARE_POINTS):
        sets = {
            "oracle.times": ",".join(repr(t) for t in times),
            "oracle.max_compare_points": str(compare_points),
        }
        return _cli_op(name, "oracle-compare", sets, self.scratch / f"oracle{i}.json",
                       preset="oracle", times=times)

    def warmup_op(self):
        # few compared points: the spectral side would otherwise make the
        # warm-up (and setup_s) several times heavier and noisier
        return self._op("oracle warm-up", (0.002,), "_warm", compare_points=11)

    def check(self, op, rc):
        if rc != 0:
            return [Failure(op.name, "exit_code", f"exit {rc}")]
        report = json.loads(op.out.read_text(encoding="utf-8"))
        fails = []
        times = [d["t"] for d in report["distances"]]
        if times != list(op.expect["times"]):
            fails.append(Failure(op.name, "times", f"report times {times}"))
        worst = max(d["l2"] for d in report["distances"])
        if not worst <= 1e-3:
            fails.append(Failure(op.name, "l2_distance", f"max L2 {worst!r}"))
        if not report["norm_drift"] <= 1e-9:
            fails.append(Failure(op.name, "norm_drift", f"{report['norm_drift']!r}"))
        return fails


class KernelFree(Workload):
    """propagate_kernel on the flat profile, where the closed-form free
    kernel is exact: the only user of greens."""

    name = "kernel_free"
    X_SRC = -2.0
    FLAT = PotentialSpec(0.0, 0.0)
    # criterion 4's tolerances
    QUAD = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-10)
    # (region, x range) x time strata, so every seed has the same mix of
    # regions and propagation times; the ranges are narrow because the
    # panel count grows with t and with |x - x_src|
    X_STRATA = (("left", -1.1, -0.9), ("inside", 0.4, 0.6), ("right", 1.9, 2.1))
    T_BASES = (0.3, 0.4, 0.5)
    T_JITTER = 0.01

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        for region, lo, hi in self.X_STRATA:
            for tb in self.T_BASES:
                x = float(self.rng.uniform(lo, hi))
                t = float(tb + self.rng.uniform(0.0, self.T_JITTER))
                self.ops.append(Op(f"kernel {region} x={x!r} t={t!r}", point=(x, t)))

    def warmup_op(self):
        return Op("kernel warm-up", point=(-1.0, 0.1))

    def execute(self, op):
        x, t = op.point
        return greens.propagate_kernel(x, t, self.X_SRC, 0.0, self.FLAT, self.QUAD)

    def check(self, op, sample):
        x, t = op.point
        exact = reference.free_kernel(x, t, self.X_SRC)
        err = abs(sample.value - exact) / abs(exact)
        if not err <= 1e-6:
            return [Failure(op.name, "free_kernel", f"relative error {err:.3e}")]
        return []


WORKLOADS = {w.name: w for w in (DensityWell, StationarySweep, OracleBarrier, KernelFree)}
