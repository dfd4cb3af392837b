"""Mittag-Leffler evaluation on the rays sigma*(+-i)**nu.

The one-parameter Mittag-Leffler function E_nu generalizes the exponential.
For the complex arguments that arise from Caputo-order evolution it splits
into a unit-frequency oscillation divided by nu and a monotone decay kernel

    E_nu(sigma * (+-i)**nu * t**nu)
        = exp(+-i sigma**(1/nu) t) / nu - F(rho, t),   rho = sigma*(+-i)**nu,

where F is a semi-infinite branch-cut integral.  This module evaluates the
power series, the decay kernel, the decomposition and the two-initial-condition
solution for orders in (1, 2].  All but the series take scalars or arrays of
points that broadcast together; one loop, `_each`, visits each distinct point
once.  The branch-cut quadratures of the sigma-array evaluators run once per
sigma up to rounding (`_merge_close`), so the mirrored nodes +-lambda of a
symmetric wavenumber grid share them.

Branch conventions (fixed throughout the package): i**nu = exp(i*pi*nu/2),
(-i)**nu = exp(-i*pi*nu/2), and sigma**(1/nu) is the positive real root.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike
from scipy.integrate import quad
from scipy.special import gammaln

from .errors import (
    DenominatorSingularity,
    InvalidOrder,
    NonConvergence,
    QuadratureFailure,
    SingularTime,
)

DEFAULT_TOL = 1e-10
SERIES_TERM_CAP = 200

# `_poles` refuses a root of s**nu = rho within asin(AXIS_MARGIN)/min(nu, 1)
# radians of the branch cut |arg s| = pi.  On the rays sigma*(+-i)**nu that
# rejects orders in (1.3193, 1.3476), in `f_nu` and `ml_two_ic` alike, and
# every order below asin(AXIS_MARGIN)/(pi/2) = 0.0318.
AXIS_MARGIN = 0.05

# Sigmas within this relative distance share one branch-cut quadrature: the
# nodes +-lambda of np.linspace(-L, L, n) differ by up to about 18 ulp.
_MERGE_RTOL = 64 * np.finfo(float).eps


class Regime(enum.Enum):
    SUB_UNIT = "sub_unit"      # 0 < nu <= 1
    SUPER_UNIT = "super_unit"  # 1 < nu <= 2


class Sign(enum.Enum):
    """Which of the two rays sigma*(+-i)**nu the argument lies on."""

    PLUS_I = +1
    MINUS_I = -1


@dataclass(frozen=True)
class FractionalOrder:
    """Validated derivative order nu with its regime."""

    nu: float

    def __post_init__(self):
        nu = self.nu
        if not (isinstance(nu, (int, float)) and math.isfinite(nu)):
            raise InvalidOrder(f"order must be a finite real, got {nu!r}")
        if not 0.0 < nu <= 2.0:
            raise InvalidOrder(f"order must lie in (0, 2], got {nu}")

    @property
    def regime(self) -> Regime:
        return Regime.SUB_UNIT if self.nu <= 1.0 else Regime.SUPER_UNIT

    def i_pow(self, sign: Sign = Sign.PLUS_I) -> complex:
        """(+-i)**nu on the principal branch."""
        return np.exp(sign.value * 1j * math.pi * self.nu / 2.0)


@dataclass(frozen=True)
class MlDecomposition:
    """Oscillatory term, decay term and their difference, each a complex
    scalar or an array of the evaluation shape."""

    oscillatory: complex | np.ndarray
    decay: complex | np.ndarray
    total: complex | np.ndarray


def ml_series(z: complex, order: FractionalOrder,
              tol: float = DEFAULT_TOL) -> complex:
    """Evaluate E_nu(z) by its power series sum_n z**n / Gamma(nu*n + 1).

    Truncates once the term magnitude drops below tol times the running sum
    magnitude (two consecutive terms, to ride out parity effects).  Raises
    NonConvergence at the term cap; callers should switch to the
    decomposition path in that case.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    nu = order.nu
    z = complex(z)
    if z == 0:
        return 1.0 + 0j

    logz = np.log(z)
    total = 0.0 + 0j
    below = 0
    term = 1.0 + 0j
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(SERIES_TERM_CAP):
            total += term
            nxt = np.exp((n + 1) * logz - gammaln(nu * (n + 1) + 1.0))
            if not (np.isfinite(total.real) and np.isfinite(total.imag)
                    and np.isfinite(abs(nxt))):
                break
            if abs(nxt) <= tol * max(abs(total), 1e-300):
                below += 1
                if below >= 2:
                    return total + nxt
            else:
                below = 0
            term = nxt
    raise NonConvergence(
        f"series for E_{nu}(z) with |z|={abs(z):.3g} did not meet "
        f"tol={tol:g} within {SERIES_TERM_CAP} terms")


def _poles(rho: complex, nu: float) -> list[complex]:
    """Roots of s**nu = rho on the principal sheet |arg s| < pi.

    arg s = (arg rho + 2 pi k)/nu, and only k in {-1, 0, 1} can reach the
    sheet for nu <= 2.  E_nu is the sum of the residues exp(s t)/nu at these
    poles minus the decay kernel F.  A root (on any sheet) within
    asin(AXIS_MARGIN)/min(nu, 1) of the cut |arg s| = pi puts a denominator
    root of the cut integrand on the integration ray; that raises
    DenominatorSingularity instead of guessing a prescription.
    """
    margin = math.asin(AXIS_MARGIN) / min(nu, 1.0)
    modulus = abs(rho) ** (1.0 / nu)
    poles = []
    for k in (-1, 0, 1):
        arg = (cmath.phase(rho) + 2.0 * math.pi * k) / nu
        if abs(abs(arg) - math.pi) < margin:
            raise DenominatorSingularity(
                f"root of s**nu = rho at arg {arg:.4f} lies within "
                f"{margin:.3g} rad of the branch cut (nu={nu}, rho={rho:.6g})")
        if abs(arg) < math.pi:
            poles.append(modulus * cmath.exp(1j * arg))
    return poles


def _quad_complex(func, upper, points, epsabs):
    """quad of the real and then the imaginary part of func over
    [0, upper].  func runs once per node: the imaginary pass revisits
    about half of the real pass's nodes, and takes those values from a
    cache."""
    pts = sorted({p for p in points if 0.0 < p < upper})
    vals = []
    err = 0.0
    func = functools.cache(func)
    for part in (lambda w: func(w).real, lambda w: func(w).imag):
        res = quad(part, 0.0, upper, points=pts or None, limit=250,
                   epsabs=epsabs, epsrel=1e-13, full_output=1)
        vals.append(res[0])
        err += res[1]
        if len(res) > 3 and res[1] > 10.0 * epsabs:
            raise QuadratureFailure(res[3])
    return complex(*vals), err


def _cut_integral(rho: complex, nu: float, t: float, p: int,
                  tol: float) -> complex:
    """The branch-cut integral behind F, dF/dt and the a1 coefficient.

    Computes (rho*sin(nu*pi)/pi) * integral over r in (0, inf) of
    (-r)**p exp(-r*t) r**(nu-1) / (r**(2 nu) - 2 rho cos(nu pi) r**nu + rho**2)
    for p = 0 (F), p = 1 (dF/dt) and p = -1 (the a1 term of the
    two-initial-condition solution).  The substitution w = r**e,
    e = nu + min(p, 0), leaves (-1)**p / e times
    r**max(p, 0) exp(-r*t) / (v**2 - 2 rho cos(nu pi) v + rho**2),
    v = w**(nu/e) = r**nu, which is bounded at w = 0 for every p.  The range
    is split where v reaches ten times the pole modulus |rho| (or at w = 1 if
    that is larger); [0, split] is integrated directly with a breakpoint where
    v = |rho|, and the tail is mapped to u = 1/w, which keeps the range
    finite at any t >= 0.
    """
    sin_nupi = math.sin(math.pi * nu)
    if rho == 0 or abs(sin_nupi) < 1e-14:
        # Integer order: the branch cut carries no weight.
        return 0.0 + 0j
    _poles(rho, nu)

    e = nu + min(p, 0)
    q = nu / e
    m = max(p, 0)
    inv_e = 1.0 / e
    m2rc = -2.0 * rho * math.cos(math.pi * nu)
    rho2 = rho * rho
    tail_pow = 2.0 * q - 2.0

    # A power of w that overflows (1/e is large for nu near 0, and near 1 at
    # p = -1) means exp(-r*t) or 1/v**2 has long underflowed: the value is 0.
    # For p >= 0, q = 1 (v = w) and r**max(p, 0) is 1 or r.
    def integrand(w):
        try:
            r = w ** inv_e
            v = w ** q if p < 0 else w
        except OverflowError:
            return 0.0
        decay = r * math.exp(-r * t) if p > 0 else math.exp(-r * t)
        return decay / (v * v + m2rc * v + rho2)

    def tail_integrand(u):
        if u <= 0.0:
            return 0.0
        try:
            r = u ** -inv_e
        except OverflowError:
            return 0.0
        if r * t > 700.0:
            return 0.0
        v = u ** q
        return (r ** m * math.exp(-r * t) * u ** tail_pow
                / (1.0 + m2rc * v + rho2 * v * v))

    # (-1)**p is -1 for p = +-1.
    prefac = (-rho if p else rho) * sin_nupi / (e * math.pi)
    knee = abs(rho) ** (e / nu)
    split = max((10.0 * abs(rho)) ** (e / nu), 1.0)
    epsabs = min(tol / (2.0 * max(abs(prefac), 1e-12)), 1e-8)
    val, err = _quad_complex(integrand, split, [knee], epsabs)
    tail, terr = _quad_complex(tail_integrand, 1.0 / split, [], epsabs)
    if abs(prefac) * (err + terr) > 50.0 * tol:
        raise QuadratureFailure(
            f"branch-cut quadrature error {abs(prefac) * (err + terr):.3g} "
            f"exceeds tol={tol:g}")
    return prefac * (val + tail)


def _each(kernel, *args) -> complex | np.ndarray:
    """kernel(*point), with Python scalars, at every point of the broadcast
    arguments: the one loop over points behind the evaluators below.  The
    kernel runs once per distinct point, in sorted order, and its value is
    scattered back to every repeat.  Scalars give a complex scalar, arrays a
    complex array of their shape."""
    arrays = np.broadcast_arrays(*args)
    columns = [a.ravel() for a in arrays]
    keys = np.column_stack([part for c in columns for part in (
        (c.real, c.imag) if np.iscomplexobj(c) else (c,))])
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    points = zip(*(c[first].tolist() for c in columns))
    values = np.array([kernel(*p) for p in points], dtype=complex)
    out = values[inverse.ravel()].reshape(arrays[0].shape)
    return complex(out[()]) if out.ndim == 0 else out


def _merge_close(sigma: np.ndarray) -> np.ndarray:
    """sigma with each value replaced by the smallest of its run: values
    sorted and grouped while within _MERGE_RTOL (relative) of their run's
    first.  The quadrature terms take these, so that sigmas equal up to
    rounding cost one quadrature; 0 merges with nothing."""
    values = np.unique(sigma)
    runs = values.copy()
    for k in range(1, values.size):
        if values[k] - runs[k - 1] <= _MERGE_RTOL * values[k]:
            runs[k] = runs[k - 1]
    return runs[np.searchsorted(values, sigma)]


def _checked(tol: float, **points: ArrayLike) -> list[np.ndarray]:
    """The point arguments as float arrays, checked before any quadrature:
    tol must be positive and no element negative."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    arrays = [np.asarray(x, dtype=float) for x in points.values()]
    for name, x in zip(points, arrays):
        if np.any(x < 0):
            raise ValueError(f"{name} must be nonnegative")
    return arrays


def _finite(rho: complex) -> complex:
    rho = complex(rho)
    if not cmath.isfinite(rho):
        raise ValueError(f"rho must be finite, got {rho!r}")
    return rho


def _f_point(rho: complex, nu: float, t: float, tol: float) -> complex:
    """F(rho, t) at one point: the cut integral, or its closed form at 0."""
    if rho == 0 or abs(math.sin(math.pi * nu)) < 1e-14:
        return 0.0 + 0j
    if t > 0.0:
        return _cut_integral(rho, nu, t, 0, tol)
    # E_nu(0) = 1 = (sum of the residues 1/nu) - F(rho, 0).
    return complex((len(_poles(rho, nu)) - nu) / nu)


def f_nu(rho: complex, order: FractionalOrder, t: ArrayLike,
         tol: float = DEFAULT_TOL) -> complex | np.ndarray:
    """Decay kernel F(rho, t): branch-cut integral of the ML decomposition.

    Defined as (rho*sin(nu*pi)/pi) * integral over r in (0, inf) of
    exp(-r*t) * r**(nu-1) / (r**(2 nu) - 2 rho cos(nu pi) r**nu + rho**2).
    rho is one finite complex value; t >= 0 is a scalar or an array, and
    the result has its shape.  F(rho, 0) = (N - nu)/nu, where N counts the
    roots of s**nu = rho on the principal sheet (`_poles`); a root near the
    cut raises DenominatorSingularity.
    """
    rho = _finite(rho)
    (t,) = _checked(tol, t=t)
    return _each(lambda x: _f_point(rho, order.nu, x, tol), t)


def f_nu_time_derivative(rho: complex, order: FractionalOrder, t: ArrayLike,
                         tol: float = DEFAULT_TOL) -> complex | np.ndarray:
    """d/dt of the decay kernel, by differentiating under the integral.

    The differentiation multiplies the integrand by -r; without the
    exponential factor the integral diverges, so every t must be positive.
    Broadcasts over t like `f_nu`.
    """
    rho = _finite(rho)
    if np.any(np.asarray(t) <= 0):
        raise SingularTime("kernel time derivative is undefined at t = 0")
    (t,) = _checked(tol, t=t)
    return _each(lambda x: _cut_integral(rho, order.nu, x, 1, tol), t)


def ml_complex_decomposed(sigma: ArrayLike, sign: Sign, order: FractionalOrder,
                          t: ArrayLike,
                          tol: float = DEFAULT_TOL) -> MlDecomposition:
    """E_nu(sigma*(+-i)**nu * t**nu) as oscillation minus decay.

    Requires an order in (0, 1].  sigma >= 0 and t >= 0 broadcast against
    each other; the three fields of the result have the broadcast shape
    (complex scalars when both are scalars).  sigma = 0 collapses the pole
    onto the branch point, so such points bypass the decomposition and
    take E_nu(0) = 1 as oscillation with zero decay.  The oscillation is
    taken at each point's own sigma; the decay once per sigma up to
    rounding (`_merge_close`).
    """
    sigma, t = _checked(tol, sigma=sigma, t=t)
    if order.regime is not Regime.SUB_UNIT:
        raise InvalidOrder("decomposition requires an order in (0, 1]")
    nu = order.nu
    ipow = order.i_pow(sign)
    osc = _each(lambda s, x: 1.0 + 0j if s == 0.0 else complex(
        np.exp(sign.value * 1j * s ** (1.0 / nu) * x) / nu), sigma, t)
    dec = _each(lambda s, x: _f_point(complex(s * ipow), nu, x, tol),
                _merge_close(sigma), t)
    return MlDecomposition(oscillatory=osc, decay=dec, total=osc - dec)


def ml_two_ic(sigma: ArrayLike, order: FractionalOrder, a0: ArrayLike,
              a1: ArrayLike, t: ArrayLike,
              tol: float = DEFAULT_TOL) -> complex | np.ndarray:
    """Solution of the order-nu Caputo problem with two initial values.

    Solves D**nu A = sigma * i**nu * A with A(0) = a0 and A'(0) = a1 for
    orders in (1, 2].  sigma >= 0, a0, a1 and t >= 0 broadcast against each
    other, and the result has their shape.  The exponent sign
    e^{+i sigma^{1/nu} t} follows the residue at the principal pole and is
    confirmed by the "two-IC exponent sign" check of `tfse.verify`.

    From the inverse Laplace transform of
    (s**(nu-1)*a0 + s**(nu-2)*a1) / (s**nu - sigma*i**nu), each initial
    value's coefficient is its residues at the poles on the principal sheet
    minus a branch-cut integral: F for a0, the p = -1 integral of
    `_cut_integral` for a1.  The residues are taken at each point's own
    sigma.  Each cut integral runs once per sigma up to rounding
    (`_merge_close`) and t, and only where its initial value is nonzero.
    """
    if order.regime is not Regime.SUPER_UNIT:
        raise InvalidOrder("two-initial-condition solution needs nu in (1, 2]")
    sigma, t = _checked(tol, sigma=sigma, t=t)
    a0, a1 = np.asarray(a0, dtype=complex), np.asarray(a1, dtype=complex)
    nu = order.nu
    ipow = order.i_pow(Sign.PLUS_I)
    shape = np.broadcast_shapes(sigma.shape, a0.shape, a1.shape, t.shape)
    merged = np.broadcast_to(_merge_close(sigma), shape)
    times = np.broadcast_to(t, shape)

    def cut(a, integral):
        out = np.zeros(shape, dtype=complex)
        need = (merged != 0) & (a != 0)
        out[need] = _each(lambda s, x: integral(complex(s * ipow), x),
                          merged[need], times[need])
        return out

    dec0 = cut(a0, lambda rho, x: _f_point(rho, nu, x, tol))
    dec1 = cut(a1, lambda rho, x: _cut_integral(rho, nu, x, -1, tol))

    def point(s, b0, b1, x, f0, f1):
        if b0 == 0 and b1 == 0:
            return 0.0 + 0j
        if s == 0.0:
            # D**nu annihilates affine functions for nu > 1.
            return b0 + b1 * x
        poles = _poles(complex(s * ipow), nu)
        c0 = complex(sum(np.exp(p * x) for p in poles) / nu) - f0
        c1 = complex(sum(np.exp(p * x) / p for p in poles) / nu) - f1
        return b0 * c0 + b1 * c1

    return _each(point, sigma, a0, a1, t, dec0, dec1)
