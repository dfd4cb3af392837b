"""Closed-form evolution for the time-fractional Schrodinger equation.

Covers the free particle (spectral evolution plus inverse transform, and
the grid's long-time probability) and the infinite potential well (one
separable mode), with the mode's diagnostics: time-dependent energy levels
and the two sides of the continuity equation, dP/dt and the integrated
probability source, both from A(t) and dA/dt in closed form.

Units are Planck-normalized throughout: T_p = L_p = hbar = 1, so the only
physical inputs are the mass count N_m and the order nu.
Transform convention: forward F(psi) = integral exp(-i lambda x) psi dx, the
inverse carries 1/(2 pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma

from . import specfun
from .errors import InvalidOrder, SingularTime
from .specfun import FractionalOrder, Regime, Sign


@dataclass(frozen=True)
class RunConfig:
    """Order and Planck-normalized mass count for one run."""

    nu: FractionalOrder
    n_m: float

    def __post_init__(self):
        if not (math.isfinite(self.n_m) and self.n_m > 0):
            raise ValueError("mass count n_m must be positive and finite")

    @property
    def beta(self) -> float:
        """Kinetic coefficient of the recast equation (L_p = T_p = 1)."""
        return 1.0 / (2.0 * self.n_m)


@dataclass(frozen=True)
class SpectralPacket:
    """Fourier-space amplitudes on a symmetric uniform wavenumber grid.

    After evolution the oscillatory/decay split of the solution is kept
    per node in `amplitudes_s` / `amplitudes_d` (nodewise they sum to
    `amplitudes`).
    """

    wavenumbers: np.ndarray
    amplitudes: np.ndarray
    amplitudes_s: np.ndarray | None = None
    amplitudes_d: np.ndarray | None = None

    def __post_init__(self):
        lam = np.asarray(self.wavenumbers, dtype=float)
        amp = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "wavenumbers", lam)
        object.__setattr__(self, "amplitudes", amp)
        if lam.ndim != 1 or lam.size < 3 or amp.shape != lam.shape:
            raise ValueError("need matching 1-d wavenumber/amplitude arrays")
        steps = np.diff(lam)
        if np.any(np.abs(steps - steps[0]) > 1e-9 * abs(steps[0])):
            raise ValueError("wavenumber grid must be uniform")
        if abs(lam[0] + lam[-1]) > 1e-9 * max(abs(lam[-1]), 1.0):
            raise ValueError("wavenumber grid must be symmetric about 0")
        if not np.isfinite(np.sum(np.abs(amp) ** 2)):
            raise ValueError("amplitudes must have finite energy")

    @property
    def step(self) -> float:
        return float(self.wavenumbers[1] - self.wavenumbers[0])


@dataclass(frozen=True)
class WellMode:
    """Eigenpair of the infinite well of width a."""

    n: int
    a: float
    lambda_n: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("mode index must be >= 1")
        if self.a <= 0:
            raise ValueError("box width must be positive")


# ---------------------------------------------------------------------------
# free particle

# Positions per block of the inverse transform: a block's phase buffer holds
# _BLOCK x nodes complex values (0.8 MB at 201 nodes).
_BLOCK = 256

def node_frequency(lam: float | np.ndarray, cfg: RunConfig):
    """Kinetic frequency omega(lambda) = lambda**2 / (2 N_m) per node."""
    return np.asarray(lam) ** 2 / (2.0 * cfg.n_m)


def gaussian_packet(wavenumbers: np.ndarray, center: float = 0.0,
                    width: float = 1.0) -> SpectralPacket:
    """Transform of a unit-norm Gaussian centered at `center` of width `width`."""
    lam = np.asarray(wavenumbers, dtype=float)
    amp = (4.0 * math.pi * width ** 2) ** 0.25 \
        * np.exp(-0.5 * width ** 2 * lam ** 2) * np.exp(-1j * lam * center)
    return SpectralPacket(lam, amp)


def free_spectrum_evolve(packet0: SpectralPacket, cfg: RunConfig,
                         t: float, tol: float = specfun.DEFAULT_TOL
                         ) -> SpectralPacket:
    """Evolve a spectral packet for orders in (0, 1].

    Each node is multiplied by the oscillation-minus-decay value at its own
    frequency, all nodes in one decomposition call; the two pieces are kept
    so the field split is available after the inverse transform.
    """
    if cfg.nu.regime is not Regime.SUB_UNIT:
        raise InvalidOrder("sub-unit evolution needs nu in (0, 1]")
    omegas = node_frequency(packet0.wavenumbers, cfg)
    d = specfun.ml_complex_decomposed(omegas, Sign.MINUS_I, cfg.nu, t, tol)
    amp_s = packet0.amplitudes * d.oscillatory
    amp_d = -packet0.amplitudes * d.decay
    return SpectralPacket(packet0.wavenumbers, amp_s + amp_d,
                          amplitudes_s=amp_s, amplitudes_d=amp_d)


def free_spectrum_high_order(packet0: SpectralPacket, packet1: SpectralPacket,
                             cfg: RunConfig, t: float,
                             tol: float = specfun.DEFAULT_TOL
                             ) -> SpectralPacket:
    """Evolve with two initial packets for orders in (1, 2], one call."""
    if cfg.nu.regime is not Regime.SUPER_UNIT:
        raise InvalidOrder("high-order evolution needs nu in (1, 2]")
    if not np.array_equal(packet0.wavenumbers, packet1.wavenumbers):
        raise ValueError("packets must share a wavenumber grid")
    omegas = node_frequency(packet0.wavenumbers, cfg)
    out = specfun.ml_two_ic(omegas, cfg.nu, packet0.amplitudes,
                            packet1.amplitudes, t, tol)
    return SpectralPacket(packet0.wavenumbers, out)


def field_positions(packet: SpectralPacket,
                    positions: np.ndarray | None = None) -> np.ndarray:
    """The positions `free_field` samples: the spatial grid conjugate to
    the packet's wavenumber grid by default, else `positions`, which must
    be a 1-d grid of at least 3 points."""
    if positions is None:
        half = math.pi / packet.step
        return np.linspace(-half, half, packet.wavenumbers.size)
    x = np.asarray(positions, dtype=float)
    if x.ndim != 1 or x.size < 3:
        raise ValueError("need a 1-d position grid of at least 3 points")
    return x


def _inverse_transform(positions: np.ndarray, lam: np.ndarray,
                       amps: np.ndarray) -> np.ndarray:
    """sum over k of exp(i x lam_k) amps[p, k], as a (pieces x positions)
    array, in blocks of _BLOCK positions.

    Each block's phase exp(i x lam) is written as cos and sin into the
    real and imaginary parts of one buffer and contracted by `np.einsum`:
    numpy's own loop, so no BLAS call and no BLAS worker thread.  Extra
    memory is O(_BLOCK x nodes) whatever the number of positions.
    """
    out = np.empty((len(amps), positions.size), dtype=complex)
    phase = np.empty((min(_BLOCK, positions.size), lam.size), dtype=complex)
    for start in range(0, positions.size, _BLOCK):
        rows = slice(start, start + _BLOCK)
        angle = np.outer(positions[rows], lam)
        block = phase[:len(angle)]
        np.cos(angle, out=block.real)
        np.sin(angle, out=block.imag)
        np.einsum("pk,xk->px", amps, block, out=out[:, rows])
    return out


def free_field(packets: list[SpectralPacket],
               positions: np.ndarray | None = None
               ) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]]]:
    """Inverse transform of each packet and of its two pieces separately.

    The packets (the snapshots of one run) share one wavenumber grid.  Every
    piece of every packet is stacked into one matrix and transformed in one
    blocked pass over `field_positions` (`_inverse_transform`), then scaled
    by step/(2 pi).  Returns the positions and one (psi, psi_s, psi_d) of
    value arrays per packet; the pieces add up to psi nodewise.  For a
    packet without a stored split (an un-evolved initial packet, or a
    two-initial-condition solution) only the whole field is transformed: it
    is reported as the oscillatory piece, and the decay piece is exactly
    zero.
    """
    if not packets:
        return np.empty(0), []
    lam = packets[0].wavenumbers
    if any(not np.array_equal(pk.wavenumbers, lam) for pk in packets):
        raise ValueError("packets must share a wavenumber grid")
    positions = field_positions(packets[0], positions)
    split = [pk.amplitudes_s is not None and pk.amplitudes_d is not None
             for pk in packets]
    amps = np.stack([amp for pk, has in zip(packets, split) for amp in (
        (pk.amplitudes_s, pk.amplitudes_d) if has else (pk.amplitudes,))])
    pieces = _inverse_transform(positions, lam, amps)
    pieces *= packets[0].step
    pieces /= 2.0 * math.pi
    rows = iter(pieces)
    fields = []
    for has in split:
        psi_s = next(rows)
        psi_d = next(rows) if has else np.zeros_like(psi_s)
        fields.append((psi_s + psi_d, psi_s, psi_d))
    return positions, fields


def spectral_probability(packet: SpectralPacket) -> float:
    """Total probability from Fourier space, via the Parseval identity."""
    return float(np.trapezoid(np.abs(packet.amplitudes) ** 2,
                              packet.wavenumbers) / (2.0 * math.pi))


def spectral_probability_limit(packet0: SpectralPacket,
                               cfg: RunConfig) -> float:
    """Long-time limit of `spectral_probability` under sub-unit evolution.

    Every node's |A|**2 tends to 1/nu**2, except a node at zero frequency,
    which never evolves and keeps its weight; the continuum limit is
    1/nu**2 itself.
    """
    gain = np.where(node_frequency(packet0.wavenumbers, cfg) == 0.0, 1.0,
                    1.0 / cfg.nu.nu ** 2)
    return float(np.trapezoid(np.abs(packet0.amplitudes) ** 2 * gain,
                              packet0.wavenumbers) / (2.0 * math.pi))


# ---------------------------------------------------------------------------
# potential well

def well_mode(n: int, a: float, cfg: RunConfig) -> WellMode:
    """Eigenpair of the infinite well: lambda_n = (n pi / a)**2 / (2 N_m)."""
    lam = (n * math.pi / a) ** 2 / (2.0 * cfg.n_m)
    return WellMode(n=n, a=a, lambda_n=lam)


def well_shape(mode: WellMode, positions: np.ndarray) -> np.ndarray:
    """Normalized spatial eigenfunction sqrt(2/a) sin(n pi x / a)."""
    x = np.asarray(positions, dtype=float)
    return np.sqrt(2.0 / mode.a) * np.sin(mode.n * math.pi * x / mode.a)


def well_amplitude(mode: WellMode, cfg: RunConfig, t: float | np.ndarray,
                   tol: float = specfun.DEFAULT_TOL) -> complex | np.ndarray:
    """Modal amplitude A(t) with A(0) = 1 at each t, for orders in (0, 1]."""
    return specfun.ml_complex_decomposed(mode.lambda_n, Sign.MINUS_I, cfg.nu,
                                         t, tol).total


def well_amplitude_rate(mode: WellMode, cfg: RunConfig, t: float | np.ndarray,
                        tol: float = specfun.DEFAULT_TOL) -> tuple:
    """Modal amplitude A(t) and its rate dA/dt, for orders in (0, 1].

    dA/dt comes from the analytic decomposition: derivative of the
    oscillatory exponential plus the differentiated decay integral, avoiding
    finite-difference noise.  Singular at t = 0 for nu < 1.  t is a scalar
    or an array; both results have its shape.
    """
    nu = cfg.nu.nu
    lam = mode.lambda_n
    if nu < 1.0 and np.any(np.asarray(t) <= 0):
        raise SingularTime("dA/dt diverges like t**(nu-1) at t = 0")
    root = lam ** (1.0 / nu)
    a = specfun.ml_complex_decomposed(lam, Sign.MINUS_I, cfg.nu, t, tol)
    rho = lam * cfg.nu.i_pow(Sign.MINUS_I)
    dfdt = (0.0 if nu == 1.0
            else specfun.f_nu_time_derivative(rho, cfg.nu, t, tol))
    return a.total, -1j * root * a.oscillatory - dfdt


def well_memory_amplitude(mode: WellMode, cfg: RunConfig,
                          t: float | np.ndarray, a: complex | np.ndarray,
                          da: complex | np.ndarray) -> complex | np.ndarray:
    """Memory-weighted amplitude D**(1-nu) A in closed form.

    The recast first-order equation dA/dt = (lambda_n / i**nu)
    (D**(1-nu) A + A(0) t**(nu-1) / Gamma(nu)) with A(0) = 1 solves for it
    from A(t) and dA/dt alone; at nu = 1 it is A itself.  Elementwise over
    arrays of t, A and dA/dt.
    """
    nu = cfg.nu.nu
    if nu == 1.0:
        return a
    return (cfg.nu.i_pow(Sign.PLUS_I) / mode.lambda_n * da
            - t ** (nu - 1.0) / gamma(nu))


def energy_level(mode: WellMode, cfg: RunConfig, t: float | np.ndarray,
                 tol: float = specfun.DEFAULT_TOL) -> complex | np.ndarray:
    """Time-dependent level E_n(t) = i conj(A) dA/dt (hbar = 1), per t."""
    a, da = well_amplitude_rate(mode, cfg, t, tol)
    return 1j * a.conjugate() * da


def energy_level_limit(mode: WellMode, cfg: RunConfig) -> float:
    """Limiting level lambda_n**(1/nu) / nu**2 as t goes to infinity."""
    nu = cfg.nu.nu
    return mode.lambda_n ** (1.0 / nu) / nu ** 2


def energy_spacing_unit(a: float, cfg: RunConfig) -> float:
    """Base unit of the limiting level spacing (the m,n-independent factor)."""
    nu = cfg.nu.nu
    return (math.pi / a) ** (2.0 / nu) \
        / (nu ** 2 * (2.0 * cfg.n_m) ** (1.0 / nu))


# Continuity samples snap to this grid, t_k = round(t / step) * step: the
# benchmark's reference (bench/checks.py) evaluates dP/dt at the same t_k.
_CONTINUITY_STEP = 2.5e-3


def well_continuity_series(mode: WellMode, cfg: RunConfig,
                           sample_times: np.ndarray,
                           tol: float = specfun.DEFAULT_TOL
                           ) -> tuple[np.ndarray, np.ndarray]:
    """dP/dt and the integrated source S, the two sides of continuity.

    Each t is evaluated at t_k = round(t / 2.5e-3) * 2.5e-3, all of them in
    one `well_amplitude_rate` call.  There dP/dt = 2 Re(conj(A) dA/dt).  For
    psi = A(t) B_n(x) the source integrates over the box in closed form,
    since B_n**2 integrates to 1 and B_n'**2 to (n pi/a)**2:
    lambda_n 2 Re(conj(A) Atilde / i**nu), plus the memory term
    2 Re(conj(A) lambda_n / i**nu) / (t**(1-nu) Gamma(nu)) when nu < 1.
    Atilde is the memory-weighted amplitude of `well_memory_amplitude`.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    t_k = np.round(sample_times / _CONTINUITY_STEP) * _CONTINUITY_STEP
    if t_k.min() <= 0:
        raise SingularTime("continuity samples must be at positive times")
    nu = cfg.nu.nu
    a, da = well_amplitude_rate(mode, cfg, t_k, tol)
    tilde = well_memory_amplitude(mode, cfg, t_k, a, da)
    coef = mode.lambda_n / cfg.nu.i_pow(Sign.PLUS_I)
    int_s = 2.0 * (np.conj(a) * coef * tilde).real
    if nu < 1.0:
        int_s += 2.0 * (np.conj(a) * coef).real \
            / (t_k ** (1.0 - nu) * gamma(nu))
    return 2.0 * (np.conj(a) * da).real, int_s
