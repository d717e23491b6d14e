"""Adaptive Gauss-Kronrod evaluation of the semi-infinite spectral integrals.

All energy integrals in this package share one shape: a semi-infinite
integral over E of an oscillatory integrand damped by a Gaussian spectral
weight centered at sqrt(E) = sqrt(E_perp).  Each is written over
u = sqrt(E), with dE = 2u du in the integrand; that removes the integrable
1/sqrt(E) endpoint singularity and turns the weights into plain Gaussians
in u, after which the integral is effectively compact: the forward weight is truncated to
u in [max(0, u_perp - W/sigma), u_perp + W/sigma] and the backward weight
to u in [0, u_perp + W/sigma] (tail mass e^{-W^2} < 1e-27 at the default
W = 8).

Panels are seeded so the phase change per panel is bounded,
|d(u^2)|*t + |du|*x_span <= phase_per_panel, split exactly at channel
branch points, and then refined adaptively with the embedded 7/15
Gauss-Kronrod pair.  ``adaptive_panels`` totals panels with a compensated
sum (``math.fsum``) in ascending-edge order, ``integrate_values`` with
``np.add.reduce`` in the rule's panel order (also ascending), so results
are bit-identical for identical inputs.

``SpectralRule`` is the one engine: every integral of the package (the
packet components, the dwell integrals and the space-time kernel) seeds a
rule, refines it against one integrand g(u) and, where many integrands
share the window, reuses its nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# 15-point Kronrod nodes on [-1, 1] (ascending) with Kronrod weights and the
# embedded 7-point Gauss weights (zero at Kronrod-only nodes).
_XGK_HALF = np.array([
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
])
_WGK_HALF = np.array([
    0.022935322010529224,
    0.06309209262997856,
    0.10479001032225019,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
])
_WG_HALF = np.array([
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
])

XGK = np.concatenate([-_XGK_HALF, [0.0], _XGK_HALF[::-1]])
WGK = np.concatenate([_WGK_HALF, [0.20948214108472782], _WGK_HALF[::-1]])
WG = np.zeros(15)
WG[1:14:2] = np.concatenate([_WG_HALF, [0.4179591836734694], _WG_HALF[::-1]])
WERR = WGK - WG

# Allowance added to the x-driven phase rate of an integrand for the internal
# oscillation of the amplitudes (the e^{2i k_u} round trip across the profile).
OSC_ALLOWANCE = 2.5


class QuadratureError(RuntimeError):
    """Non-convergent integral; carries the best value and error estimate."""

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    window_w: float = 8.0
    max_panels: int = 100_000
    phase_per_panel: float = math.pi

    def __post_init__(self):
        if not (0 < self.rel_tol < 1 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive, rel_tol < 1")
        if self.window_w <= 0 or self.max_panels <= 0 or self.phase_per_panel <= 0:
            raise ValueError("window_w, max_panels, phase_per_panel must be positive")


@dataclass
class QuadResult:
    value: complex
    error_estimate: float
    panels_used: int
    converged: bool


def spectral_window(u_perp, sigma_tilde, direction, window_w):
    """Truncated u-range carrying all but e^{-W^2} of the Gaussian weight."""
    half = window_w / sigma_tilde
    hi = u_perp + half
    if direction == "forward":
        lo = max(0.0, u_perp - half)
    elif direction == "backward":
        # weight is centered at u = -u_perp; only the u > 0 flank survives
        lo = 0.0
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return lo, hi


def phase_capped_edges(lo, hi, u_breaks, t_scale, x_span, phase_cap, max_panels):
    """Initial panel edges: break points honored, phase change per panel capped."""
    if hi <= lo:
        return np.array([lo, hi])
    cuts = [lo, hi]
    for ub in u_breaks:
        if lo < ub < hi:
            cuts.append(float(ub))
    cuts = sorted(set(cuts))

    counts = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        phase = abs(b * b - a * a) * abs(t_scale) + (b - a) * abs(x_span)
        counts.append(max(1, math.ceil(phase / phase_cap)))
    total = sum(counts)
    if total > max_panels:
        # respect the budget; the adaptive stage will report non-convergence
        scale = max_panels / total
        counts = [max(1, int(c * scale)) for c in counts]

    edges = [cuts[0]]
    for (a, b), n in zip(zip(cuts[:-1], cuts[1:]), counts):
        step = (b - a) / n
        edges.extend(a + step * i for i in range(1, n))
        edges.append(b)
    edges = np.array(edges)

    # uniform splitting caps only the average phase; the quadratic u^2 term
    # concentrates phase in the upper subpanels, so bisect until every panel
    # honors the cap (or the budget runs out)
    for _ in range(64):
        a, b = edges[:-1], edges[1:]
        phase = np.abs(b * b - a * a) * abs(t_scale) + (b - a) * abs(x_span)
        over = phase > phase_cap
        if not np.any(over) or a.size + np.count_nonzero(over) > max_panels:
            break
        mids = 0.5 * (a[over] + b[over])
        edges = np.sort(np.concatenate([edges, mids]))
    return edges


def _kronrod_nodes(a, b):
    """Kronrod nodes of the panels [a, b], shape (panels, 15), and half-widths."""
    half = 0.5 * (b - a)
    return (0.5 * (a + b))[:, None] + half[:, None] * XGK, half


def _kronrod_sums(fv, half):
    """Per-panel (value, error) from integrand values of shape (..., panels, 15)."""
    return (fv @ WGK) * half, np.abs((fv @ WERR) * half)


def _panel_eval(g, a, b):
    """Evaluate one batch of panels; returns per-panel (value, error)."""
    u, half = _kronrod_nodes(a, b)
    fv = np.asarray(g(u.ravel()), dtype=np.complex128).reshape(u.shape)
    return _kronrod_sums(fv, half)


def _fixed_order_sum(a, vals):
    """Compensated total over panels sorted by left edge (deterministic)."""
    order = np.argsort(a, kind="stable")
    v = vals[order]
    return complex(math.fsum(v.real), math.fsum(v.imag))


def adaptive_panels(g, edges, spec: QuadratureSpec):
    """Adaptive refinement of an initial panel set for integrand ``g(u)``.

    Returns (QuadResult, final_edges).  Refinement halves every panel whose
    error exceeds its share of the tolerance; iteration stops on convergence
    or when the panel budget is exhausted (non-converged result, no raise).
    """
    a = np.asarray(edges[:-1], dtype=float)
    b = np.asarray(edges[1:], dtype=float)
    if a.size == 0 or np.all(b <= a):
        return QuadResult(0.0 + 0.0j, 0.0, 0, True), np.asarray(edges, dtype=float)
    vals, errs = _panel_eval(g, a, b)

    for _ in range(60):
        total = _fixed_order_sum(a, vals)
        err_total = float(np.sum(errs))
        tol = max(spec.rel_tol * abs(total), spec.abs_tol)
        if err_total <= tol:
            return QuadResult(total, err_total, a.size, True), np.sort(
                np.concatenate([a, b[-1:]])
            )
        if a.size >= spec.max_panels:
            break
        threshold = 0.5 * tol / a.size
        split = errs > threshold
        if not np.any(split):
            break
        keep_a, keep_b = a[~split], b[~split]
        keep_vals, keep_errs = vals[~split], errs[~split]
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[split], mid])
        new_b = np.concatenate([mid, b[split]])
        new_vals, new_errs = _panel_eval(g, new_a, new_b)
        a = np.concatenate([keep_a, new_a])
        b = np.concatenate([keep_b, new_b])
        vals = np.concatenate([keep_vals, new_vals])
        errs = np.concatenate([keep_errs, new_errs])

    total = _fixed_order_sum(a, vals)
    err_total = float(np.sum(errs))
    return QuadResult(total, err_total, a.size, False), np.sort(
        np.concatenate([a, b[-1:]])
    )


def spectral_rule(packet, direction, branch_points, t_scale, x_span, spec) -> SpectralRule:
    """Rule over the spectral window of ``packet``, split at the branch energies.

    ``t_scale`` and ``x_span`` bound the phase rates in u^2 and u of the
    integrands g(u) (E-integrand times 2u, with the weight of ``direction``).
    """
    lo, hi = spectral_window(packet.u_perp, packet.sigma_tilde, direction, spec.window_w)
    u_breaks = [math.sqrt(bp) for bp in branch_points if bp > 0]
    return SpectralRule(lo, hi, u_breaks, t_scale, x_span, spec)


class SpectralRule:
    """Reusable node set for integrating many integrands over one window.

    The time evolution evaluates the same energy window for every spatial
    point of a region; building the refined panel set once against a probe
    integrand (the worst-phase point) and reusing its nodes keeps each
    additional point down to a weighted sum.
    """

    def __init__(self, lo, hi, u_breaks, t_scale, x_span, spec: QuadratureSpec):
        self.spec = spec
        self.edges = phase_capped_edges(
            lo, hi, u_breaks, t_scale, x_span, spec.phase_per_panel, spec.max_panels
        )
        self._build()

    def _build(self):
        u, self._half = _kronrod_nodes(self.edges[:-1], self.edges[1:])
        self.u = u.ravel()
        self.n_panels = self._half.size

    def refine_against(self, probe_g):
        """Adaptively refine the edges until ``probe_g`` converges.

        Returns the probe QuadResult; nodes are rebuilt on the final edges.
        """
        result, edges = adaptive_panels(probe_g, self.edges, self.spec)
        self.edges = edges
        self._build()
        return result

    def integrate_values(self, fv):
        """Integrate from integrand values on ``self.u`` (vectorized over rows).

        ``fv`` has shape (..., len(u)); returns (value, error_estimate) with
        the panel reduction in fixed ascending order.
        """
        shaped = fv.reshape(fv.shape[:-1] + (self.n_panels, 15))
        vals, errs = _kronrod_sums(shaped, self._half)
        return np.add.reduce(vals, axis=-1), np.sum(errs, axis=-1)
