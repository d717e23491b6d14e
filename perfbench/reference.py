"""References for the benchmark's checks, computed apart from mstwell.

Nothing here imports the package under test.  Conventions follow the
paper's dimensionless units (hbar = 1, m = 1/2, d = 1, velocity 2k) and the
retarded branch sqrt(z + i0) for every channel wave number.

* ``transfer_amplitudes``: three-region matching of e^{ikx} incident from
  the left on the profile 0 | U on (0, 1) | Delta.  The inner region is
  propagated by its 2 x 2 transfer matrix in (psi, psi'), whose entries
  cos(k_u), sin(k_u)/k_u, -k_u sin(k_u) stay finite at k_u = 0, where the
  inner solution is the line a + b x.
* ``dwell_components``: forward, backward and interference dwell times of
  the Gaussian packet, from the closed inner integrals of the matched wave
  function integrated with scipy.integrate.quad against the packet's
  spectral density.
* ``free_kernel``: the closed-form free kernel (4 pi i tau)^(-1/2)
  e^{i (x - x')^2 / (4 tau)}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from scipy.integrate import quad

# spectral windows keep all but exp(-2 W^2) of the squared Gaussian weight
_WINDOW = 7.0


def _ksqrt(z: float) -> complex:
    """Retarded-branch wave number sqrt(z + i0) of a real channel energy."""
    return cmath.sqrt(complex(z, 0.0))


def _sin_over(k: complex) -> complex:
    return cmath.sin(k) / k if k != 0 else 1.0 + 0.0j


def _expm1_over(c: complex) -> complex:
    """(e^c - 1) / c, accurate near c = 0."""
    if abs(c) < 1e-6:
        return 1.0 + c / 2.0 + c * c / 6.0
    return (cmath.exp(c) - 1.0) / c


@dataclass(frozen=True)
class Matched:
    """Solution for e^{ikx} incident from the left.

    Raw coefficients: r (reflected e^{-ikx}), big_t (transmitted
    e^{i k_d (x - 1)}), and inside psi(x) = psi0 cos(k_u x)
    + dpsi0 sin(k_u x)/k_u.  The flux-normalised amplitudes the program
    reports are t = sqrt(k_d/k) big_t, t' = sqrt(k_u/k) A and
    r' = sqrt(k_u/k) B, with psi = A e^{i k_u x} + B e^{-i k_u x} inside.
    """

    k: complex
    ku: complex
    kd: complex
    r: complex
    big_t: complex
    psi0: complex
    dpsi0: complex

    @property
    def t(self) -> complex:
        return cmath.sqrt(self.kd) / cmath.sqrt(self.k) * self.big_t

    @property
    def inner_ab(self) -> tuple[complex, complex]:
        """(A, B) of the inner plane waves; undefined at k_u = 0."""
        half = self.dpsi0 / (1j * self.ku)
        return 0.5 * (self.psi0 + half), 0.5 * (self.psi0 - half)

    @property
    def t_prime(self) -> complex:
        return cmath.sqrt(self.ku) / cmath.sqrt(self.k) * self.inner_ab[0]

    @property
    def r_prime(self) -> complex:
        return cmath.sqrt(self.ku) / cmath.sqrt(self.k) * self.inner_ab[1]


def transfer_amplitudes(e: float, u: float, delta: float) -> Matched:
    """Match psi and psi' at x = 0 and x = 1 for energy e > 0."""
    if e <= 0:
        raise ValueError("energy must be positive")
    k = _ksqrt(e)
    ku = _ksqrt(e - u)
    kd = _ksqrt(e - delta)
    m11 = m22 = cmath.cos(ku)
    m12 = _sin_over(ku)
    m21 = -ku * cmath.sin(ku)
    # (psi, psi')(0) = (1 + r, ik(1 - r)); (psi, psi')(1) = (T, i kd T)
    p, q = m11 + 1j * k * m12, m11 - 1j * k * m12
    s1, s2 = m21 + 1j * k * m22, m21 - 1j * k * m22
    # T = p + q r  and  i kd T = s1 + s2 r
    r = (s1 - 1j * kd * p) / (1j * kd * q - s2)
    big_t = p + q * r
    return Matched(k, ku, kd, r, big_t, 1.0 + r, 1j * k * (1.0 - r))


def inner_integrals(m: Matched) -> tuple[float, complex]:
    """(Int_0^1 |psi|^2 dx, Int_0^1 psi^2 dx) for the raw inner solution."""
    ku = m.ku
    if abs(ku) < 1e-9:
        a, b = m.psi0, m.dpsi0
        mod2 = abs(a) ** 2 + (a * b.conjugate()).real + abs(b) ** 2 / 3.0
        return mod2, a * a + a * b + b * b / 3.0
    amp_a, amp_b = m.inner_ab
    mod2 = (
        abs(amp_a) ** 2 * _expm1_over(-2.0 * ku.imag)
        + abs(amp_b) ** 2 * _expm1_over(2.0 * ku.imag)
        + 2.0 * (amp_a * amp_b.conjugate() * _expm1_over(2j * ku.real)).real
    ).real
    sq = (
        amp_a * amp_a * _expm1_over(2j * ku)
        + amp_b * amp_b * _expm1_over(-2j * ku)
        + 2.0 * amp_a * amp_b
    )
    return mod2, sq


def _piecewise_quad(f, lo, hi, breaks, **kw):
    cuts = [lo] + sorted(b for b in breaks if lo < b < hi) + [hi]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        total += quad(f, a, b, limit=2000, epsabs=1e-14, epsrel=1e-12, **kw)[0]
    return total


def dwell_components(e_perp: float, sigma: float, x_i: float, u: float, delta: float):
    """(tau_fwd, tau_bwd, tau_interference) of the cut-off Gaussian packet.

    Per energy the dwell density is Int_0^1 |psi|^2 dx / v with v = 2k the
    incident velocity (equal to Int |phi|^2 dx / |v_u| for the flux-
    normalised inner wave phi).  The packet's spectral amplitudes in
    u = sqrt(E) are psi_>,<(E) = (2 pi sigma^2)^(1/4) / sqrt(pi v)
    e^{i(u0 -/+ u) x_i} e^{-sigma^2 (u0 -/+ u)^2}; with dE = 2u du the
    weights become 2 sigma / sqrt(2 pi) e^{-2 sigma^2 (u -/+ u0)^2} and,
    for the interference term, 2 sigma / sqrt(2 pi)
    e^{-2 sigma^2 (u^2 + u0^2)} e^{-2 i u x_i} against Int psi^2 dx / v.
    """
    u0 = math.sqrt(e_perp)
    norm = 2.0 * sigma / math.sqrt(2.0 * math.pi)
    breaks = [math.sqrt(b) for b in (u, delta) if b > 0]
    half = _WINDOW / sigma

    # both densities vanish like k as E -> 0 (psi inside is O(k))
    def mod2(v):
        if v <= 0.0:
            return 0.0
        m = transfer_amplitudes(v * v, u, delta)
        return inner_integrals(m)[0] / (2.0 * v)

    def sq(v):
        if v <= 0.0:
            return 0.0j
        m = transfer_amplitudes(v * v, u, delta)
        return inner_integrals(m)[1] / (2.0 * v)

    tau_fwd = _piecewise_quad(
        lambda v: norm * mod2(v) * math.exp(-2.0 * sigma**2 * (v - u0) ** 2),
        max(0.0, u0 - half), u0 + half, breaks,
    )
    bwd_hi = max(half - u0, 1.0)
    tau_bwd = _piecewise_quad(
        lambda v: norm * mod2(v) * math.exp(-2.0 * sigma**2 * (v + u0) ** 2),
        0.0, bwd_hi, breaks,
    )
    # 2 Re[K e^{-2i u x_i}] = 2 (Re K cos(2 u x_i) + Im K sin(2 u x_i))
    omega = 2.0 * x_i

    def envelope(v):
        return 2.0 * norm * math.exp(-2.0 * sigma**2 * (v * v + u0 * u0))

    tau_int = _piecewise_quad(
        lambda v: envelope(v) * sq(v).real, 0.0, bwd_hi, breaks,
        weight="cos", wvar=omega,
    ) + _piecewise_quad(
        lambda v: envelope(v) * sq(v).imag, 0.0, bwd_hi, breaks,
        weight="sin", wvar=omega,
    )
    return tau_fwd, tau_bwd, tau_int


def free_kernel(x: float, t: float, x_src: float, t_src: float = 0.0) -> complex:
    """(4 pi i tau)^(-1/2) e^{i (x - x')^2 / (4 tau)} for tau = t - t_src > 0."""
    tau = t - t_src
    if tau <= 0:
        raise ValueError("the free kernel is needed only for t > t_src")
    return cmath.exp(-0.25j * math.pi) / math.sqrt(4.0 * math.pi * tau) * cmath.exp(
        1j * (x - x_src) ** 2 / (4.0 * tau)
    )
