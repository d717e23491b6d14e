"""Adaptive Gauss-Kronrod and Levin evaluation of the semi-infinite spectral integrals.

All energy integrals in this package share one shape: a semi-infinite
integral over E of an oscillatory integrand damped by a Gaussian spectral
weight centered at sqrt(E) = sqrt(E_perp).  Each is written over
u = sqrt(E), with dE = 2u du in the integrand; that removes the integrable
1/sqrt(E) endpoint singularity and turns the weights into plain Gaussians
in u, after which the integral is effectively compact: the forward weight is truncated to
u in [max(0, u_perp - W/sigma), u_perp + W/sigma] and the backward weight,
centered at u = -u_perp, to u in [0, max(0, W/sigma - u_perp)] (tail mass
e^{-W^2} < 1e-27 at the default W = 8).  An empty window has no panels,
and every sum over it is an exact 0.

Panels are seeded at equal phase: each segment between channel branch
points (always panel edges) gets the fewest panels of equal rise of the
phase bound phi(u) = t*u^2 + x_span*u within phase_per_panel, where
``SpectralRule`` adds the amplitudes' internal oscillation (``OSC_ALLOWANCE``)
to x_span.  They are then refined adaptively with the embedded 15/31
Gauss-Kronrod pair, which splits panels in place so they stay in
ascending order from lo to hi.  A channel wave number sqrt(u^2 - u_b^2)
has a square-root branch at its break point u_b, where an affine panel
converges only algebraically; a panel with an edge at a break point is
graded instead, its nodes placed by the smoothstep map (``SMOOTH``), which
makes sqrt|u - u_b| analytic in the panel variable.  Splitting copies
edges exactly, so the halves that keep the break point stay graded and
the others become affine.  ``_panel_rule`` alone makes that choice: it
gives each panel its nodes and one weight table (the Kronrod and the
Kronrod - Gauss weights times the half-width), against which every panel
sum reduces.  An integrand may return C values per node (shape (n, C)):
each component then has its own total and target max(rel_tol |total_c|,
abs_tol), a panel splits when any component needs it, and the result
converges when every component does.  ``adaptive_panels`` totals panels
with a correctly rounded sum (``math.fsum``), ``integrate_values`` and
``integrate_separable`` with ``np.add.reduce`` in a fixed order, so results
are bit-identical for identical inputs.

``SpectralRule`` is the one Gauss-Kronrod engine: every integral of the
package (the packet components, the dwell integrals and the head of the
space-time kernel) seeds a rule, refines it against one integrand g(u)
(the dwell's three components are one vector integrand) and, where many
integrands share the window, reuses its nodes.  The one
exception is the kernel's tail past its last stationary point, a chirp
e^{-i tau u^2} over a slowly varying amplitude: ``levin_tail`` integrates
it by Levin collocation on panels sized by the amplitude, refined by the
same splitting loop (``_refine_panels``) as the Gauss-Kronrod panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# 31-point Kronrod nodes on [-1, 1] (ascending) with Kronrod weights and the
# embedded 15-point Gauss weights (zero at Kronrod-only nodes), from Laurie's
# algorithm (D. P. Laurie, Math. Comp. 66 (1997) 1133) at 60 digits
_XGK_HALF = np.array([
    0.9980022986933971,
    0.9879925180204854,
    0.9677390756791391,
    0.937273392400706,
    0.8972645323440819,
    0.8482065834104272,
    0.790418501442466,
    0.7244177313601701,
    0.650996741297417,
    0.5709721726085388,
    0.4850818636402397,
    0.3941513470775634,
    0.29918000715316884,
    0.20119409399743451,
    0.1011420669187175,
])
_WGK_HALF = np.array([
    0.005377479872923349,
    0.015007947329316122,
    0.02546084732671532,
    0.03534636079137585,
    0.04458975132476488,
    0.05348152469092809,
    0.06200956780067064,
    0.06985412131872826,
    0.07684968075772038,
    0.08308050282313302,
    0.08856444305621176,
    0.09312659817082532,
    0.09664272698362368,
    0.09917359872179196,
    0.10076984552387559,
])
_WG_HALF = np.array([
    0.03075324199611727,
    0.07036604748810812,
    0.10715922046717194,
    0.13957067792615432,
    0.16626920581699392,
    0.1861610000155622,
    0.19843148532711158,
])

XGK = np.concatenate([-_XGK_HALF, [0.0], _XGK_HALF[::-1]])
WGK = np.concatenate([_WGK_HALF, [0.10133000701479154], _WGK_HALF[::-1]])
WG = np.zeros(XGK.size)
WG[1::2] = np.concatenate([_WG_HALF, [0.2025782419255613], _WG_HALF[::-1]])
WERR = WGK - WG

# Graded panels: a panel [a, b] with an edge at a channel branch point u_b
# puts its nodes at u = a + (b - a)(3s^2 - 2s^3), s = (1 + x)/2, where the
# map's double zero of du/ds at both ends turns sqrt|u - u_b| into an
# analytic function of s.  du/dx = (b - a) 3s(1 - s) is the affine
# half-width (b - a)/2 times 6s(1 - s), folded into the weights.
_S = 0.5 * (1.0 + XGK)
SMOOTH = _S * _S * (3.0 - 2.0 * _S)
WGK_GRADED = WGK * 6.0 * _S * (1.0 - _S)
WERR_GRADED = WERR * 6.0 * _S * (1.0 - _S)
# (Kronrod, Kronrod - Gauss) weight columns of the affine and graded panels
_AFFINE = np.stack([WGK, WERR], axis=-1)
_GRADED = np.stack([WGK_GRADED, WERR_GRADED], axis=-1)

# Added by ``SpectralRule`` to every integrand's x-driven phase rate for the
# amplitudes' internal oscillation (the e^{2i k_u} round trip across the profile).
OSC_ALLOWANCE = 2.5


class QuadratureError(RuntimeError):
    """Non-convergent integral; carries the best value and error estimate."""

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Spectral-integral targets; ``phase_per_panel`` is per panel of the 15/31 pair in use."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    window_w: float = 8.0
    max_panels: int = 100_000
    phase_per_panel: float = 4.0 * math.pi

    def __post_init__(self):
        if not (0 < self.rel_tol < 1 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive, rel_tol < 1")
        if self.window_w <= 0 or self.max_panels <= 0 or self.phase_per_panel <= 0:
            raise ValueError("window_w, max_panels, phase_per_panel must be positive")


@dataclass
class QuadResult:
    value: complex  # arrays of C entries for a C-component integrand
    error_estimate: float
    panels_used: int
    converged: bool


def spectral_window(u_perp, sigma_tilde, direction, window_w):
    """Truncated u-range carrying all but e^{-W^2} of the Gaussian weight.

    ``direction`` is "forward", "backward", or "both" for the hull of the two.
    """
    half = window_w / sigma_tilde
    if direction == "forward":
        return max(0.0, u_perp - half), u_perp + half
    if direction == "backward":
        # weight is centered at u = -u_perp; only its u > 0 flank survives,
        # empty when u_perp >= W/sigma
        return 0.0, max(0.0, half - u_perp)
    if direction == "both":
        return 0.0, u_perp + half
    raise ValueError(f"unknown direction {direction!r}")


def window_spec(spec, packet, direction):
    """``spec`` with the window of ``direction`` cut to the tolerance.

    The window ends where the weight has fallen e^{-W_tol^2} below its
    largest value on u >= 0, W_tol = sqrt(ln(1/rel_tol)) + 1.5; there the
    weight is below rel_tol e^{-3 sqrt(ln(1/rel_tol)) - 2.25} of that value.
    Forward, and for the hull "both", that is W = W_tol; the backward
    weight, centred at u = -u_perp, is largest at u = 0, so
    W = sqrt(W_tol^2 + (sigma u_perp)^2).  ``spec.window_w`` bounds both.
    """
    w_tol = math.sqrt(-math.log(spec.rel_tol)) + 1.5
    if direction == "backward":
        w_tol = math.hypot(w_tol, packet.sigma_tilde * packet.u_perp)
    return replace(spec, window_w=min(spec.window_w, w_tol))


def phase_capped_edges(lo, hi, u_breaks, t_scale, x_span, phase_cap, max_panels):
    """Initial panel edges on 0 <= lo <= hi at equal phase between break points.

    Each segment [a, b] gets n = max(1, ceil((phi(b) - phi(a)) / phase_cap))
    panels of equal rise of phi(u) = |t_scale| u^2 + |x_span| u, increasing on
    u >= 0; counts over ``max_panels`` in total are scaled down to the budget.
    An empty range (hi <= lo) has no panels.
    """
    if hi <= lo:
        return np.array([lo])
    cuts = sorted({lo, hi, *(float(ub) for ub in u_breaks if lo < ub < hi)})
    t, s = abs(t_scale), abs(x_span)

    segments = [(a, b, (b * b - a * a) * t + (b - a) * s) for a, b in zip(cuts[:-1], cuts[1:])]
    counts = [max(1, math.ceil(phase / phase_cap)) for _, _, phase in segments]
    total = sum(counts)
    if total > max_panels:
        # respect the budget; the adaptive stage will report non-convergence
        scale = max_panels / total
        counts = [max(1, int(c * scale)) for c in counts]

    edges = [cuts[:1]]
    for (a, b, phase), n in zip(segments, counts):
        # root of t d^2 + slope d = rise, exact as t -> 0; measuring d from a
        # keeps the round-off at the spacing of the doubles near the edges
        rise = (phase / n) * np.arange(1, n)
        slope = 2.0 * t * a + s
        edges.append(a + 2.0 * rise / (slope + np.sqrt(slope * slope + 4.0 * t * rise)))
        edges.append([b])
    return np.concatenate(edges)


def _panel_rule(a, b, u_breaks):
    """Kronrod nodes of the panels [a, b], shape (panels, 31), and their weight table.

    The table, shape (panels, 31, 2), holds the Kronrod weights and the
    Kronrod - Gauss weights, each times the half-width.  Panels with an edge
    in ``u_breaks`` (edges are exact copies) take the smoothstep map of
    ``SMOOTH`` and its weights; the others the affine ones.
    """
    half = 0.5 * (b - a)
    u = (0.5 * (a + b))[:, None] + half[:, None] * XGK
    graded = np.isin(a, u_breaks) | np.isin(b, u_breaks)
    u[graded] = a[graded, None] + (b - a)[graded, None] * SMOOTH
    return u, half[:, None, None] * np.where(graded[:, None, None], _GRADED, _AFFINE)


def _panel_sums(fv, weights):
    """Per-panel (value, error) from integrand values on every panel's nodes.

    ``fv`` has shape (n, ...), n = 31 per panel of the weight table
    ``weights`` (as ``_panel_rule`` gives it); the results have shape
    (panels, ...).
    """
    fv = np.asarray(fv)
    shape = (len(weights),) + fv.shape[1:]
    per_panel = fv.reshape(len(weights), XGK.size, math.prod(fv.shape[1:]))
    sums = np.matmul(per_panel.transpose(0, 2, 1), weights)
    return sums[..., 0].reshape(shape), np.abs(sums[..., 1]).reshape(shape)


def _compensated_sum(vals):
    """Correctly rounded total over panels (``math.fsum``, order-free)."""
    return complex(math.fsum(vals.real), math.fsum(vals.imag))


def _columns(per_panel):
    """Per-panel results as shape (panels, C), C = 1 for a scalar integrand."""
    return per_panel.reshape(len(per_panel), -1)


def _totals(vals, errs):
    """Per-component totals of (panels, C) values and errors."""
    total = np.array([_compensated_sum(v) for v in vals.T])
    return total, np.array([np.sum(e) for e in errs.T])


def adaptive_panels(g, edges, spec: QuadratureSpec, u_breaks=(), first=None):
    """Adaptive Gauss-Kronrod refinement of an initial panel set for integrand ``g(u)``.

    Panels with an edge in ``u_breaks`` are graded.  ``first``, when given,
    is the per-panel (value, error) of the initial panels, as
    ``_panel_sums`` gives them.  Returns (QuadResult, final_edges), as
    ``_refine_panels`` gives them.
    """
    def panel_eval(a, b):
        u, weights = _panel_rule(a, b, u_breaks)
        return _panel_sums(g(u.ravel()), weights)

    return _refine_panels(panel_eval, edges, spec, first)


def _refine_panels(panel_eval, edges, spec: QuadratureSpec, first=None):
    """Adaptive refinement of an initial panel set under a per-panel rule.

    ``panel_eval(a, b)`` returns the (value, error) of every panel [a, b],
    each of shape (panels,) or, for C components, (panels, C); ``first``,
    when given, stands in for its call on the initial panels.  Returns
    (QuadResult, final_edges); a vector integrand gets arrays of C values
    and estimates.  Each component has its own target
    max(rel_tol |total_c|, abs_tol); refinement halves every panel whose
    error in any component exceeds its share of that component's target,
    keeping the panels in ascending order.  Iteration stops when every
    component converges or the panel budget is exhausted (non-converged
    result, no raise).
    """
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2 or np.all(edges[1:] <= edges[:-1]):
        return QuadResult(0.0 + 0.0j, 0.0, 0, True), edges
    vals, errs = panel_eval(edges[:-1], edges[1:]) if first is None else first
    vector = vals.ndim > 1
    vals, errs = _columns(vals), _columns(errs)

    converged = False
    for _ in range(60):
        total, err_total = _totals(vals, errs)
        tol = np.maximum(spec.rel_tol * np.abs(total), spec.abs_tol)
        converged = bool(np.all(err_total <= tol))
        if converged or len(vals) >= spec.max_panels:
            break
        split = np.flatnonzero(np.any(errs > 0.5 * tol / len(vals), axis=1))
        if split.size == 0:
            break
        # panel i becomes [lo_i, mid_i] in place and [mid_i, hi_i] right after it
        lo, hi = edges[split], edges[split + 1]
        mid = 0.5 * (lo + hi)
        new_vals, new_errs = map(
            _columns, panel_eval(np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        )
        vals[split], errs[split] = new_vals[:split.size], new_errs[:split.size]
        vals = np.insert(vals, split + 1, new_vals[split.size:], axis=0)
        errs = np.insert(errs, split + 1, new_errs[split.size:], axis=0)
        edges = np.insert(edges, split + 1, mid)
    else:
        total, err_total = _totals(vals, errs)

    if not vector:
        total, err_total = complex(total[0]), float(err_total[0])
    return QuadResult(total, err_total, len(vals), converged), edges


def spectral_rule(packet, direction, branch_points, t_scale, x_span, spec) -> SpectralRule:
    """Rule over the spectral window of ``packet``, split at the branch energies.

    ``t_scale`` and ``x_span`` bound the phase rates in u^2 and u of the
    integrands g(u) (E-integrand times 2u, with the weight of ``direction``),
    not counting the amplitudes' own oscillation, which the rule adds.
    """
    lo, hi = spectral_window(packet.u_perp, packet.sigma_tilde, direction, spec.window_w)
    u_breaks = [math.sqrt(bp) for bp in branch_points if bp > 0]
    return SpectralRule(lo, hi, u_breaks, t_scale, x_span, spec)


class SpectralRule:
    """Reusable nodes ``u`` and weight table ``weights`` for many integrands over one window.

    The time evolution evaluates the same energy window for every spatial
    point and time of a region; building the refined panel set once against
    probe integrands (the worst-phase point) and reusing its nodes keeps the
    samples down to sums against ``weights`` (shape (panels, 31, 2), as
    ``_panel_rule`` gives it), taken for all of them one block of panels at
    a time by ``integrate_separable``; ``integrate_values`` takes them one
    sample per row, the reference the batched form is tested against.
    """

    def __init__(self, lo, hi, u_breaks, t_scale, x_span, spec: QuadratureSpec):
        self.spec = spec
        self.u_breaks = np.asarray(u_breaks, dtype=float)
        self.edges = phase_capped_edges(
            lo, hi, u_breaks, t_scale, x_span + OSC_ALLOWANCE,
            spec.phase_per_panel, spec.max_panels,
        )
        self._build()

    def _build(self):
        u, self.weights = _panel_rule(self.edges[:-1], self.edges[1:], self.u_breaks)
        self.u = u.ravel()
        self.n_panels = len(self.weights)

    def refine_against(self, probe_g, fv=None, spec=None):
        """Adaptively refine the edges until ``probe_g`` converges.

        ``probe_g`` may return one value per node or a row of C.  ``fv``,
        when given, holds its values on the current nodes ``self.u``;
        otherwise the first round evaluates ``probe_g`` there.  ``spec``,
        when given, sets the targets in place of the rule's own.  Returns
        the probe QuadResult; nodes are rebuilt on the final edges when a
        panel split.
        """
        first = _panel_sums(probe_g(self.u) if fv is None else fv, self.weights)
        result, edges = adaptive_panels(
            probe_g, self.edges, spec or self.spec, self.u_breaks, first
        )
        if edges.size != self.edges.size:
            self.edges = edges
            self._build()
        return result

    def integrate_values(self, fv):
        """Integrate from integrand values on ``self.u``, one sample per row.

        ``fv`` has shape (..., len(u)); returns (value, error_estimate) with
        the panel reduction in fixed ascending order.  This is the
        per-sample reference that ``integrate_separable`` batches.
        """
        vals, errs = _panel_sums(np.moveaxis(fv, -1, 0), self.weights)
        return np.add.reduce(vals, axis=0), np.sum(errs, axis=0)

    def integrate_separable(self, blocks, shape):
        """Integrate many sums of separable products from their factors, block by block.

        Sample (r, c), of the (rows, cols) ``shape``, integrates
        f_rc(u) = sum_s left[r, u, s] right[c, u, s] over ``self.u``.
        ``blocks`` yields (panels, rows, right, left) for a slice ``panels``
        of whole panels and a slice ``rows`` of samples: ``right`` of shape
        (cols, nodes, S) and ``left`` of shape (rows, nodes, S) on their
        nodes; each row slice meets its panels in ascending order.  A right
        factor takes both weight columns once for the consecutive blocks
        that share it (the same array), in one pass along its nodes; then
        one stacked matrix product gives the block's samples' Kronrod value
        and Kronrod - Gauss difference on every panel.  Running sums over
        the panels so far are added into each block's first panel and the
        block reduced in panel order, so samples sum over panels exactly as
        ``integrate_values`` sums them, whatever the blocks (a lone sample
        of a row block is the exception: numpy sums its panels pairwise
        within a block).  Returns (value, error_estimate).
        """
        vals, errs = np.zeros(shape, dtype=complex), np.zeros(shape)
        weighed = None
        for panels, rows, right, left in blocks:
            n_p, cols, terms = panels.stop - panels.start, len(right), right.shape[-1]
            width = XGK.size * terms
            if right is not weighed:
                weighed = right
                w = np.repeat(self.weights[panels].transpose(2, 0, 1), terms, axis=-1)
                rhs = right.reshape(1, cols, n_p * width) * w.reshape(2, 1, n_p * width)
                # panel p's (width, 2 cols) matrix is a transposed view: BLAS takes it as is
                rhs = rhs.reshape(2 * cols, n_p, width).transpose(1, 2, 0)
            # panel p of the left factor is a strided view: no copy for matmul
            lhs = left.reshape(len(left), n_p, width).transpose(1, 0, 2)
            out = np.matmul(lhs, rhs)
            val, err = out[..., :cols], np.abs(out[..., cols:])
            if panels.start:
                val[0] += vals[rows]
                err[0] += errs[rows]
            np.add.reduce(val, axis=0, out=vals[rows])
            np.add.reduce(err, axis=0, out=errs[rows])
        return vals, errs


def _chebyshev_lobatto(n):
    """Lobatto nodes of degree n on [-1, 1] (ascending) and their differentiation matrix.

    The sine form keeps the nodes exactly symmetric and makes every second
    node of degree 2m bit-identical to the nodes of degree m.
    """
    j = np.arange(n + 1)
    s = np.sin(math.pi * (2 * j - n) / (2 * n))
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    d = np.outer(c, 1.0 / c) / (s[:, None] - s + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))  # a derivative annihilates constants
    return s, d


# Levin collocation nodes (degree 16) and the differentiation matrices of the
# full set and of its degree-8 subset ``LEVIN_S[::2]``, the error estimate
LEVIN_S, _LEVIN_D = _chebyshev_lobatto(16)
_LEVIN_D_HALF = _chebyshev_lobatto(8)[1]

# Levin panels are seeded at this rise of the amplitudes' own phase
# (``OSC_ALLOWANCE`` per unit u), about two of their periods a panel
_LEVIN_PHASE = 4.0 * math.pi


def _levin_panels(h, beta, tau, a, b):
    """Per-panel (value, error) of the paired Levin integrand; see ``levin_tail``."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    u = mid[:, None] + half[:, None] * LEVIN_S
    hu = np.asarray(h(u.ravel()), dtype=np.complex128).reshape(u.shape)
    # the two terms h e^{i beta u} and conj(h) e^{-i beta u} share the chirp
    sign = np.array([1.0, -1.0])[:, None, None]
    slope = half[:, None] * (sign * beta - 2.0 * tau * u)  # half-width times phi'
    rhs = half[:, None] * np.stack([hu, np.conj(hu)])
    ends = np.stack([a, b], axis=-1)
    wave = np.exp(1j * beta * ends)
    ends_phase = np.exp(-1j * tau * ends * ends) * np.stack([wave, np.conj(wave)])
    vals = []
    for d, nodes in ((_LEVIN_D, slice(None)), (_LEVIN_D_HALF, slice(None, None, 2))):
        # D p + i half phi' p = half h at the nodes: one batched solve for
        # every panel and both terms
        system = d + 1j * slope[..., nodes, None] * np.eye(len(d))
        p = np.linalg.solve(system, rhs[..., nodes, None])[..., 0]
        vals.append(p[..., -1] * ends_phase[..., 1] - p[..., 0] * ends_phase[..., 0])
    full, coarse = vals
    return full[0] + full[1], np.abs(full - coarse).sum(axis=0)


def levin_tail(h, beta, tau, lo, hi, spec: QuadratureSpec) -> QuadResult:
    """Int_lo^hi [h(u) e^{i beta u} + conj(h(u)) e^{-i beta u}] e^{-i tau u^2} du.

    Levin collocation (D. Levin, Math. Comp. 38 (1982) 531) for a slowly
    varying amplitude h under phases phi = +-beta u - tau u^2 with no
    stationary point on [lo, hi]: on each panel [a, b] it solves
    p' + i phi' p = h at the Chebyshev-Lobatto nodes of degree 16, so the
    panel integral is p(b) e^{i phi(b)} - p(a) e^{i phi(a)}; the same at the
    degree-8 subset of the nodes gives, by its distance from it, the
    panel's error estimate.  Panels are sized by h, which ``OSC_ALLOWANCE``
    bounds, not by the phase, and refined as ``adaptive_panels`` refines.
    """
    edges = phase_capped_edges(lo, hi, [], 0.0, OSC_ALLOWANCE, _LEVIN_PHASE, spec.max_panels)
    result, _ = _refine_panels(lambda a, b: _levin_panels(h, beta, tau, a, b), edges, spec)
    return result
