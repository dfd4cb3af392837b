"""Named checks behind `tfse verify` and the acceptance suite.

Each check compares an implementation path against an independent route
(oracle inversion, arbitrary-precision series, closed forms, refinement
studies) and reports one scalar metric against its bound.  `SUITES` is the
only place a check's lattice, metric and bound are defined;
`tests/test_acceptance.py` runs the same registry.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as sp_gamma

from . import dynamics, fraccalc, oracles, specfun
from .errors import SingularTime
from .fraccalc import SampledSignal
from .specfun import FractionalOrder, Sign


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check: metric measured against its bound."""

    name: str
    metric: float
    bound: float
    seconds: float = math.nan

    @property
    def passed(self) -> bool:
        return math.isfinite(self.metric) and self.metric <= self.bound


def _well(nu: float, n: int = 1):
    """The lowest-mode setting of the paper's examples: a = pi, n_m = 1/2."""
    cfg = dynamics.RunConfig(FractionalOrder(nu), n_m=0.5)
    return cfg, dynamics.well_mode(n, math.pi, cfg)


def _history(mode, cfg, t_max: float, h: float) -> SampledSignal:
    """The modal amplitude A(t) sampled on [0, t_max] with step h."""
    times = np.linspace(0.0, t_max, int(round(t_max / h)) + 1)
    return SampledSignal(times, dynamics.well_amplitude(mode, cfg, times))


def _fitted_order(steps, errors) -> float:
    """Slope of log(error) against log(step)."""
    return float(np.polyfit(np.log(steps), np.log(errors), 1)[0])


# ---------------------------------------------------------------------------
# specfun

def _check_series_vs_decomposition() -> CheckResult:
    times = np.union1d(np.linspace(0.0, 3.0, 20), np.linspace(0.0, 5.0, 50))
    sigmas = (0.5, 1.0, 2.0)
    worst = 0.0
    for nu in (0.3, 0.5, 0.7, 0.9):
        order = FractionalOrder(nu)
        dec = specfun.ml_complex_decomposed(np.array(sigmas)[:, None],
                                            Sign.MINUS_I, order, times)
        for i, sigma in enumerate(sigmas):
            for j, t in enumerate(times):
                z = sigma * order.i_pow(Sign.MINUS_I) * t ** nu
                try:
                    ref = specfun.ml_series(z, order, tol=1e-12)
                except specfun.NonConvergence:
                    # float64 summation cancels catastrophically here; the
                    # arbitrary-precision reference arbitrates instead.
                    ref = oracles.ml_series_reference(sigma, -1, order,
                                                      float(t))
                worst = max(worst, abs(dec.total[i, j] - ref))
    return CheckResult("series vs decomposition", worst, 1e-6)


_KERNEL_ORDERS = (0.25, 0.5, 0.75)
_KERNEL_RHOS = (0.5, 1.0, 2.0)
_KERNEL_TIMES = np.union1d(np.linspace(0.0, 20.0, 25),
                           np.linspace(0.0, 20.0, 30))


def _kernel_curves():
    """F_nu(t) on the real-rho lattice, with its value (1 - nu)/nu at 0."""
    for nu in _KERNEL_ORDERS:
        order = FractionalOrder(nu)
        for rho in _KERNEL_RHOS:
            yield (1.0 - nu) / nu, specfun.f_nu(rho, order, _KERNEL_TIMES).real


def _check_kernel_closed_forms() -> CheckResult:
    worst = 0.0
    for nu in _KERNEL_ORDERS:
        order = FractionalOrder(nu)
        worst = max(worst, abs(specfun.f_nu(0.0, order, 1.0)))
        for rho in _KERNEL_RHOS:
            worst = max(worst, abs(specfun.f_nu(rho, order, 0.0)
                                   - (1.0 - nu) / nu))
    worst = max(worst, abs(specfun.f_nu(1.0, FractionalOrder(1.0), 3.0)))
    return CheckResult("decay kernel closed forms", worst, 1e-10)


def _check_kernel_range() -> CheckResult:
    worst = 0.0
    for start, vals in _kernel_curves():
        worst = max(worst, float(-vals.min()), float(vals.max() - start))
    return CheckResult("decay kernel range", worst, 1e-10)


def _check_kernel_monotone() -> CheckResult:
    worst = 0.0
    for _, vals in _kernel_curves():
        worst = max(worst, float(np.max(np.diff(vals))))
    return CheckResult("decay kernel monotone decay", worst, 1e-12)


def _check_half_order_closed_form() -> CheckResult:
    order = FractionalOrder(0.5)
    worst = 0.0
    for z in np.linspace(-2.0, 2.0, 81):
        ml = specfun.ml_series(complex(z), order, tol=1e-13)
        closed = math.exp(z * z) * oracles.erfc_closed_form(-float(z))
        worst = max(worst, abs(ml - closed))
    return CheckResult("half-order closed form", worst, 1e-8)


def _check_inversion_oracle() -> CheckResult:
    worst = 0.0
    for nu in (0.4, 0.6, 0.9):
        order = FractionalOrder(nu)
        for sigma in (0.5, 1.0, 2.0):
            times = np.linspace(0.3, 4.0, 10)
            dec = specfun.ml_complex_decomposed(sigma, Sign.PLUS_I, order,
                                                times)
            for t, total in zip(times, dec.total):
                ora = oracles.laplace_invert_ml(sigma, order, float(t))
                worst = max(worst, abs(ora - total))
    return CheckResult("inversion oracle agreement", worst, 1e-6)


def _check_two_ic_initial() -> CheckResult:
    worst = 0.0
    for nu in (1.2, 1.5, 1.9, 2.0):
        order = FractionalOrder(nu)
        for sigma in (0.5, 1.0, 2.0):
            c0, c1 = (specfun.ml_two_ic(sigma, order, b0, b1, 0.0)
                      for b0, b1 in ((1.0, 0.0), (0.0, 1.0)))
            worst = max(worst, abs(c0 - 1.0), abs(c1))
    return CheckResult("two-IC initial identities", worst, 1e-8)


def _check_two_ic_slope() -> CheckResult:
    order = FractionalOrder(1.5)
    a0, a1 = 1.0 + 0j, 0.4 - 0.1j

    # One-sided slope at t = 0+, extrapolated against the known expansion:
    # the solution carries a t**1.5 term, so the difference-quotient error
    # runs in powers h**0.5, h**1.5 rather than h**2.
    def slope(h):
        f0, f1, f2 = (specfun.ml_two_ic(1.0, order, a0, a1, t)
                      for t in (0.0, h, 2.0 * h))
        return (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)

    hs = np.array([4e-3, 1e-3, 2.5e-4])
    basis = np.vstack([np.ones(3), hs ** 0.5, hs ** 1.5]).T
    coef = np.linalg.solve(basis, np.array([slope(h) for h in hs]))
    return CheckResult("two-IC initial slope", abs(coef[0] - a1), 1e-3)


def _check_two_ic_exponent_sign() -> CheckResult:
    # The implemented solution must satisfy the defining Caputo equation;
    # the one with the oscillation's exponent sign flipped must not.
    order = FractionalOrder(1.5)
    h = 1e-3
    times = np.arange(0.0, 1.0 + h / 2, h)
    vals = specfun.ml_two_ic(1.0, order, 1.0, 0.0, times)
    flipped = vals - (np.exp(1j * times) - np.exp(-1j * times)) / order.nu
    rho = order.i_pow()

    def residual(v):
        d = fraccalc.caputo_derivative_high(SampledSignal(times, v), order)
        return float(np.abs(d.values - rho * v)[200:-20].max())

    return CheckResult("two-IC exponent sign",
                       residual(vals) / residual(flipped), 0.05)


# ---------------------------------------------------------------------------
# fraccalc

def _check_constant_annihilation() -> CheckResult:
    times = np.linspace(0.0, 2.0, 101)
    sig = SampledSignal(times, np.full_like(times, 3.7))
    worst = 0.0
    for nu in (0.3, 0.5, 0.8):
        d = fraccalc.caputo_derivative(sig, FractionalOrder(nu))
        worst = max(worst, float(np.abs(d.values).max()))
    return CheckResult("Caputo annihilates constants", worst, 1e-14)


def _check_l1_convergence() -> CheckResult:
    steps = (1e-2, 5e-3, 2.5e-3)
    worst = 0.0
    for nu in (0.4, 0.7):
        errs = []
        for h in steps:
            times = np.arange(0.0, 1.0 + h / 2, h)
            d = fraccalc.caputo_derivative(SampledSignal(times, times ** 2),
                                           FractionalOrder(nu))
            exact = 2.0 / sp_gamma(3.0 - nu) * times ** (2.0 - nu)
            errs.append(float(np.abs(d.values - exact)[1:].max()))
        worst = max(worst, abs(_fitted_order(steps, errs) - (2.0 - nu)))
    return CheckResult("L1 convergence order", worst, 0.2)


# Sub-unit orders go through the sequential identity (11), super-unit
# orders through identity (65); both act on the monomial t**3.
_IDENTITIES = tuple((fraccalc.check_identity_seq11, nu)
                    for nu in (0.4, 0.5, 0.6)) \
    + tuple((fraccalc.check_identity_eq65, nu) for nu in (1.3, 1.5, 1.7))


def _identity_error(identity, nu: float, h: float, startup: int) -> float:
    times = np.arange(0.0, 1.0 + h / 2, h)
    return identity(SampledSignal(times, times ** 3), FractionalOrder(nu),
                    startup=startup).max_abs


def _check_identity_residuals() -> CheckResult:
    worst = max(_identity_error(identity, nu, 1e-3, 20)
                for identity, nu in _IDENTITIES)
    return CheckResult("composition identity residuals", worst, 0.05)


def _check_identity_rates() -> CheckResult:
    steps = (4e-3, 2e-3, 1e-3)
    slowest = min(
        _fitted_order(steps, [_identity_error(identity, nu, h, int(0.05 / h))
                              for h in steps])
        for identity, nu in _IDENTITIES)
    # Metric: how far the slowest fitted rate falls short of first order.
    return CheckResult("composition identity rates", 1.0 - slowest, 0.0)


# ---------------------------------------------------------------------------
# tfse

def _grid_source(x: np.ndarray, psi: np.ndarray, tilde: np.ndarray,
                 initial_caputo: np.ndarray, cfg, t: float) -> np.ndarray:
    """Probability source S(x, t) of the continuity equation, sampled.

    Gradient cross terms of psi and the memory-weighted field tilde, by
    centered differences, plus the memory term carrying the initial Caputo
    derivative; the memory term is singular at t = 0 and drops out entirely
    at nu = 1, where the composition identity behind it no longer applies.
    """
    if t <= 0:
        raise SingularTime("source is singular at t = 0")
    nu = cfg.nu.nu
    coef = cfg.beta / cfg.nu.i_pow(Sign.PLUS_I)
    dxw = np.gradient(tilde, x, edge_order=2)
    dxf = np.gradient(psi, x, edge_order=2)
    s = 2.0 * (coef * dxw * np.conj(dxf)).real
    if nu < 1.0:
        s += 2.0 * (np.conj(psi) * initial_caputo).real \
            / (t ** (1.0 - nu) * sp_gamma(nu))
    return s


def _grid_integrated_source(mode, cfg, times: np.ndarray,
                            n_points: int) -> np.ndarray:
    """The source of A(t) B_n(x) on n_points nodes of [0, a], integrated
    by trapezoid at each t."""
    x = np.linspace(0.0, mode.a, n_points)
    shape = dynamics.well_shape(mode, x)
    cap0 = mode.lambda_n / cfg.nu.i_pow(Sign.PLUS_I) * shape
    a, da = dynamics.well_amplitude_rate(mode, cfg, times)
    tilde = dynamics.well_memory_amplitude(mode, cfg, times, a, da)
    return np.array([np.trapezoid(_grid_source(x, aj * shape, wj * shape,
                                               cap0, cfg, t), x)
                     for aj, wj, t in zip(a, tilde, times)])


def _check_unit_order_reduction() -> CheckResult:
    cfg, mode = _well(1.0)
    x = np.linspace(0.0, math.pi, 201)
    shape = dynamics.well_shape(mode, x)
    zero = np.zeros_like(x, dtype=complex)
    worst = 0.0
    for t in (0.5, 2.0, 7.0):
        amp = dynamics.well_amplitude(mode, cfg, t)
        worst = max(worst, abs(abs(amp) - 1.0),
                    abs(dynamics.energy_level(mode, cfg, t) - mode.lambda_n))
        f = amp * shape
        s = _grid_source(x, f, f, zero, cfg, t)
        worst = max(worst, float(abs(np.trapezoid(s, x))))
    packet = dynamics.gaussian_packet(np.linspace(-8.0, 8.0, 161))
    for t in (1.0, 10.0):
        out = dynamics.free_spectrum_evolve(packet, cfg, t)
        worst = max(worst, abs(dynamics.spectral_probability(out) - 1.0))
    return CheckResult("unit-order reduction", worst, 1e-8)


def _check_well_limit() -> CheckResult:
    cfg, mode = _well(0.5)
    gap = abs(abs(dynamics.well_amplitude(mode, cfg, 1e4)) ** 2 - 4.0)
    return CheckResult("well probability limit", gap, 0.05)


def _check_well_envelope() -> CheckResult:
    # Per-period maximum of ||A|^2 - 1/nu^2| at log-spaced period starts;
    # the decay-kernel tail makes its log-log slope -nu.
    cfg, mode = _well(0.5)
    period = 2.0 * math.pi  # sigma = 1, so the carrier frequency is 1
    centers = np.logspace(2.0, 4.0, 10)
    times = centers[:, None] + np.linspace(0.0, period, 16, endpoint=False)
    amps = dynamics.well_amplitude(mode, cfg, times)
    gaps = np.abs(np.abs(amps) ** 2 - 4.0).max(axis=1)
    return CheckResult("well probability envelope slope",
                       abs(_fitted_order(centers, gaps) + 0.5), 0.15)


def _check_energy_limit() -> CheckResult:
    # lambda_1 = 1 here, so the limit lambda_1**(1/nu) / nu**2 is 4.
    cfg, mode = _well(0.5)
    level = dynamics.energy_level(mode, cfg, 1e4).real
    return CheckResult("energy level limit",
                       abs(level - 4.0) / 4.0, 0.02)


def _check_energy_spacing() -> CheckResult:
    cfg, mode1 = _well(0.5, 1)
    _, mode2 = _well(0.5, 2)
    e1 = dynamics.energy_level(mode1, cfg, 1e4).real
    e2 = dynamics.energy_level(mode2, cfg, 1e4).real
    ratio = (e2 - e1) / dynamics.energy_spacing_unit(math.pi, cfg)
    return CheckResult("energy level spacing",
                       abs(ratio - 15.0) / 15.0, 0.03)


def _check_continuity() -> CheckResult:
    samples = np.union1d(np.linspace(0.5, 5.0, 12),
                         np.linspace(0.5, 5.0, 10))
    worst = 0.0
    for nu in (0.5, 0.75):
        cfg, mode = _well(nu)
        dpdt, int_s = dynamics.well_continuity_series(mode, cfg, samples)
        scale = float(np.abs(dpdt).max())
        worst = max(worst, float(np.abs(dpdt - int_s).max()) / scale)
    return CheckResult("continuity with source", worst, 0.02)


def _check_caputo_residual_order() -> CheckResult:
    cfg, mode = _well(0.5)
    rho = mode.lambda_n / cfg.nu.i_pow()
    steps = (1e-2, 5e-3, 2.5e-3)
    errs = []
    for h in steps:
        hist = _history(mode, cfg, 1.0, h)
        deriv = fraccalc.caputo_derivative(hist, cfg.nu)
        # Fixed window t >= 0.1: the first node after the t**nu startup
        # carries an O(1) local error that does not vanish under refinement.
        mask = hist.times >= 0.1
        errs.append(float(np.abs(deriv.values - rho * hist.values)[mask]
                          .max()))
    slope = _fitted_order(steps, errs)
    return CheckResult("Caputo residual convergence order",
                       abs(slope - (2.0 - cfg.nu.nu)), 0.2)


def _check_recast_residual() -> CheckResult:
    cfg, mode = _well(0.5)
    hist = _history(mode, cfg, 2.0, 1e-3)
    res = fraccalc.hamiltonian_recast_residual(hist, mode.lambda_n, cfg.nu,
                                               window=(0.1, 2.0))
    return CheckResult("recast first-order residual", res.max_abs, 5e-3)


def _check_continuity_memory_field() -> CheckResult:
    # The closed-form D**(1-nu) A against L1 at whole multiples of h.
    h = 1e-3
    worst = 0.0
    for nu, n in ((0.3, 1), (0.5, 1), (0.8, 2)):
        cfg, mode = _well(nu, n)
        hist = _history(mode, cfg, 1.0, h)
        l1 = fraccalc.caputo_l1_values(hist.values, h, 1.0 - nu)
        for t in (0.25, 0.5, 0.75, 1.0):
            a, da = dynamics.well_amplitude_rate(mode, cfg, t)
            closed = dynamics.well_memory_amplitude(mode, cfg, t, a, da)
            err = abs(closed - l1[round(t / h)]) / abs(closed)
            worst = max(worst, float(err))
    return CheckResult("continuity memory field vs L1", worst, 5e-4)


def _check_grid_source_order() -> CheckResult:
    # The sampled source of the mode, integrated, against the closed form
    # of `well_continuity_series`: np.gradient makes the gap O(dx**2).
    times = np.linspace(0.5, 3.0, 11)
    counts = (201, 401, 801)
    worst = 0.0
    for nu, n, a in ((0.9, 2, 1.0), (0.3, 3, math.pi)):
        cfg = dynamics.RunConfig(FractionalOrder(nu), n_m=0.5)
        mode = dynamics.well_mode(n, a, cfg)
        _, closed = dynamics.well_continuity_series(mode, cfg, times)
        errs = [float(np.abs(_grid_integrated_source(mode, cfg, times, k)
                             - closed).max()) for k in counts]
        steps = [a / (k - 1) for k in counts]
        worst = max(worst, abs(_fitted_order(steps, errs) - 2.0))
    return CheckResult("grid source converges to closed form", worst, 0.2)


SUITES = {
    "specfun": (
        _check_series_vs_decomposition,
        _check_kernel_closed_forms,
        _check_kernel_range,
        _check_kernel_monotone,
        _check_half_order_closed_form,
        _check_inversion_oracle,
        _check_two_ic_initial,
        _check_two_ic_slope,
        _check_two_ic_exponent_sign,
    ),
    "fraccalc": (
        _check_constant_annihilation,
        _check_l1_convergence,
        _check_identity_residuals,
        _check_identity_rates,
    ),
    "tfse": (
        _check_unit_order_reduction,
        _check_well_limit,
        _check_well_envelope,
        _check_energy_limit,
        _check_energy_spacing,
        _check_continuity,
        _check_caputo_residual_order,
        _check_recast_residual,
        _check_continuity_memory_field,
        _check_grid_source_order,
    ),
}


def run_check(check) -> CheckResult:
    """Run one registered check and record its wall time."""
    start = time.perf_counter()
    result = check()
    return dataclasses.replace(result, seconds=time.perf_counter() - start)


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite ('specfun', 'fraccalc', 'tfse') or 'all'."""
    if name == "all":
        return [run_check(c) for checks in SUITES.values() for c in checks]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return [run_check(check) for check in SUITES[name]]
