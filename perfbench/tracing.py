"""Spans and counts at mstwell's layer boundaries, for the traced run only.

``Tracer.install`` wraps each layer's public function.  The modules of the
package import these functions by name (``evolution``, ``dwell``,
``greens`` and ``cli`` hold their own reference to ``amplitude_table``,
``adaptive_panels``, ``evolve``, ``dwell_total``, ``evolve_grid``), so the
wrapper is bound in every ``mstwell`` module that holds the function, not
only in the one that defines it; otherwise spans would silently miss
calls.  ``uninstall`` puts the originals back, so untimed and timed passes
run unwrapped code.

Each span records its name, start, end and parent span.  A layer's self
time is its span's duration minus the time its child spans cover, so the
self times of all spans of a pass, the root span included, add up to the
pass's traced wall time.

The grid's step and factorization counts are counted where they happen,
on ``mstwell.grid._CayleyStepper`` (``CALL_COUNTS``), so they follow the
program's own stepping; ``install`` fails loudly if that class goes.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT_SPAN = "bench"


def _cli_counts(c, args, kwargs, rc):
    argv = args[0] if args else kwargs["argv"]
    if "-o" in argv:
        path = Path(argv[argv.index("-o") + 1])
        if path.exists():
            c["cli.bytes_written"] += path.stat().st_size


def _evolve_counts(c, args, kwargs, field):
    c["evolution.evolve.calls"] += 1
    c["evolution.samples"] += field.x_grid.size * field.t_grid.size


def _panel_counts(c, args, kwargs, out):
    result, _ = out
    c["quadrature.adaptive_panels.calls"] += 1
    c["quadrature.panels_seeded"] += max(len(args[1]) - 1, 0)
    c["quadrature.panels_final"] += result.panels_used
    c["quadrature.converged"] += bool(result.converged)


def _amplitude_counts(c, args, kwargs, out):
    c["scattering.amplitude_table.calls"] += 1
    c["scattering.amplitude_table.energies"] += np.size(args[0])


def _integrate_counts(c, args, kwargs, out):
    c["quadrature.integrate_values.calls"] += 1
    c["quadrature.integrate_values.node_products"] += np.size(args[1])


def _dwell_counts(c, args, kwargs, out):
    c["dwell.dwell_total.calls"] += 1


def _kernel_counts(c, args, kwargs, out):
    c["greens.propagate_kernel.calls"] += 1


def _grid_counts(c, args, kwargs, field):
    c["grid.nodes"] += field.x_grid.size
    c["grid.norm_drift"] = max(c["grid.norm_drift"], field.norm_drift)


# (defining module, function, span name, count hook)
FUNCTIONS = (
    ("mstwell.cli", "main", "cli", _cli_counts),
    ("mstwell.evolution", "evolve", "evolution.evolve", _evolve_counts),
    ("mstwell.quadrature", "adaptive_panels", "quadrature.adaptive_panels", _panel_counts),
    ("mstwell.scattering", "amplitude_table", "scattering.amplitude_table", _amplitude_counts),
    ("mstwell.dwell", "dwell_total", "dwell.dwell_total", _dwell_counts),
    ("mstwell.greens", "propagate_kernel", "greens.propagate_kernel", _kernel_counts),
    ("mstwell.grid", "evolve_grid", "grid.evolve_grid", _grid_counts),
)
# (defining module, class, method, span name, count hook)
METHODS = (
    ("mstwell.quadrature", "SpectralRule", "integrate_values",
     "quadrature.integrate_values", _integrate_counts),
)
# (defining module, class, method, counter): calls counted without a span;
# evolve_grid builds one _CayleyStepper per gap between samples (one
# factorization each) and calls its step once per Crank-Nicolson step
CALL_COUNTS = (
    ("mstwell.grid", "_CayleyStepper", "__init__", "grid.factorizations"),
    ("mstwell.grid", "_CayleyStepper", "step", "grid.cn_steps"),
)


class Tracer:
    """In-memory spans and counters for one traced pass at a time."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []
        self.bindings: dict[str, int] = {}

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            count(self.counts, args, kwargs, out)
            return out

        return traced

    def _count_calls(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def span(self, name=ROOT_SPAN):
        """Record one span: name, start, end and the enclosing span."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "mstwell" or key.startswith("mstwell."))]
        for mod_name, attr, name, count in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(orig, name, count)
            holders = [m for m in modules if m.__dict__.get(attr) is orig]
            for m in holders:
                self._restore.append((m, attr, orig))
                setattr(m, attr, wrapper)
            self.bindings[name] = len(holders)
        for mod_name, cls_name, attr, name, count in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, name, count))
            self.bindings[name] = 1
        for mod_name, cls_name, attr, key in CALL_COUNTS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self._count_calls(orig, key))

    def uninstall(self):
        for holder, attr, orig in reversed(self._restore):
            setattr(holder, attr, orig)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _), cov in zip(self.spans, covered):
            out[name] += (end - start) - cov
        return dict(out)

    def wall(self) -> float:
        roots = [s for s in self.spans if s[3] < 0]
        return sum(end - start for _, start, end, _ in roots)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of one traced pass (0 where a layer is idle)."""
        selfs = self.self_times()
        c = self.counts
        m = {
            f"{name}.self_s": selfs.get(name, 0.0)
            for name in [f[2] for f in FUNCTIONS] + [f[3] for f in METHODS] + [ROOT_SPAN]
        }
        for key in (
            "evolution.evolve.calls", "evolution.samples",
            "quadrature.integrate_values.calls", "quadrature.integrate_values.node_products",
            "quadrature.adaptive_panels.calls", "quadrature.panels_seeded",
            "quadrature.panels_final",
            "scattering.amplitude_table.calls", "scattering.amplitude_table.energies",
            "dwell.dwell_total.calls", "greens.propagate_kernel.calls",
            "grid.cn_steps", "grid.nodes", "grid.factorizations", "grid.norm_drift",
            "cli.bytes_written",
        ):
            m[key] = c.get(key, 0)
        attempts = c.get("quadrature.adaptive_panels.calls", 0)
        m["quadrature.converged_ratio"] = (
            c.get("quadrature.converged", 0) / attempts if attempts else 1.0
        )
        steps = c.get("grid.cn_steps", 0)
        m["grid.step_us"] = 1e6 * m["grid.evolve_grid.self_s"] / steps if steps else 0.0
        m["trace.wall_s"] = self.wall()
        return m
