"""Mittag-Leffler references computed apart from tfse, in arbitrary precision.

Every value is E_{nu,beta}(z) = sum_n z**n / Gamma(nu*n + beta) at a point
z = sigma * (sign*i)**nu * t**nu of the rays tfse works on, with z and
m = |z|**(1/nu) built in mpmath from the float inputs (nu, sigma, t) as
given.  The series cancels terms of size exp(m): summed at float64's 15
digits, at nu = 1.1, sigma = 32, t = 2 (m = 47) it gives 1.7e5 - 7.9e4j
for -0.830 + 0.370j.

Two evaluators, chosen on m (not on |z|):

* m < SWITCH: the power series, in mpmath at a precision that covers the
  cancellation, summed past its largest term until terms fall below 1e-20;
* m >= SWITCH: the large-argument expansion (Gorenflo, Loutchko & Luchko,
  FCAA 5(4), 2002)

      E_{nu,beta}(z) ~ (1/nu) sum_s s**(1-beta) exp(s)
                       - sum_{k>=1} z**-k / Gamma(beta - nu*k),

  over the roots s of s**nu = z with |arg s| < pi, truncated at its smallest
  term, which is about exp(-m) (2e-14 at the switch).  The exponential part
  is formed in mpmath, so its phase m is exact for the given inputs; the
  algebraic part has no cancellation and is summed in float64.

Nothing here imports tfse.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp

SWITCH = 30.0        # m = |z|**(1/nu) from which the expansion is used
LOG_TINY = math.log(1e-20)   # terms below this absolute size are dropped
# Working precision of the series: 17 digits of result, the exp(SWITCH)
# cancellation and a guard for the rounding of a few hundred terms.
SERIES_DPS = 17 + math.ceil(SWITCH / math.log(10.0)) + 8
PHASE_DPS = 40       # m up to 1e11 keeps 29 digits after the point

_coefficient_cache: dict[tuple, list] = {}


def _coefficients(kind: str, nu: float, beta: float, n: int,
                  dps: int = SERIES_DPS) -> list:
    """1/Gamma(nu*k + beta) (series) or 1/Gamma(beta - nu*k) (expansion)
    for k < n, cached per (kind, nu, beta, dps)."""
    cached = _coefficient_cache.setdefault((kind, nu, beta, dps), [])
    if len(cached) < n:
        with mp.workdps(dps):
            nu_, beta_ = mp.mpf(nu), mp.mpf(beta)
            for k in range(len(cached), n):
                if kind == "series":
                    cached.append(mp.rgamma(nu_ * k + beta_))
                else:
                    cached.append(float(mp.rgamma(beta_ - nu_ * k)))
    return cached


def ray_point(nu: float, sigma: float, t: float, sign: int):
    """z = sigma * (sign*i)**nu * t**nu in mpmath at the caller's precision."""
    nu_ = mp.mpf(nu)
    return mp.mpf(sigma) * mp.expjpi(sign * nu_ / 2) * mp.mpf(t) ** nu_


def series_length(nu: float, beta: float, abs_z: float) -> int:
    """Terms needed: past the largest term and below 1e-20 in size."""
    if abs_z == 0.0:
        return 1
    log_z = math.log(abs_z)
    n = int(abs_z ** (1.0 / nu) / nu) + 2
    while n * log_z - math.lgamma(nu * n + beta) > LOG_TINY:
        n += 1
    return n + 1


def series(nu: float, beta: float, z, dps: int = SERIES_DPS):
    """E_{nu,beta}(z) by its power series (Horner), at dps digits; the
    default covers the cancellation below m = SWITCH."""
    with mp.workdps(dps):
        z = mp.mpc(z)
        n = series_length(nu, beta, float(abs(z)))
        coef = _coefficients("series", nu, beta, n, dps)
        total = mp.mpc(coef[n - 1])
        for k in range(n - 2, -1, -1):
            total = total * z + coef[k]
        return total


def _exponential_part(nu: float, beta: float, m, sign: int):
    # Roots s = m * exp(i*pi*(sign/2 + 2j/nu)) of s**nu = z on the principal
    # sheet; the second one exists for orders beyond 4/3.
    out = mp.mpc(0)
    for j in (-1, 0, 1):
        arg = mp.mpf(sign) / 2 + 2 * j / mp.mpf(nu)
        if abs(arg) < 1:
            s = m * mp.expjpi(arg)
            out += mp.exp(s) if beta == 1.0 else s ** (1 - mp.mpf(beta)) * mp.exp(s)
    return out / nu


def _algebraic_part(nu: float, beta: float, z) -> complex:
    # Once nu*k > beta - 1, |1/Gamma(beta - nu*k)| <= Gamma(nu*k - beta + 1)/pi,
    # so the envelope below bounds every term; it falls until nu*k is about
    # m, then grows.
    w = 1 / complex(z)
    log_abs_z = -math.log(abs(w))
    total, power, last, k = 0j, w, math.inf, 1
    coef: list = []
    while True:
        if nu * k - beta + 1.0 > 0.0:
            envelope = math.lgamma(nu * k - beta + 1.0) - k * log_abs_z
            if envelope > last or envelope < LOG_TINY:
                return total
            last = envelope
        if k >= len(coef):
            coef = _coefficients("expansion", nu, beta, 2 * k + 16)
        total += power * coef[k]
        power *= w
        k += 1


def expansion(nu: float, beta: float, m, sign: int):
    """E_{nu,beta}(z) by the large-argument expansion on the ray
    arg z = sign*pi*nu/2, |z| = m**nu; accurate to about exp(-m).  The
    exponential part is formed at the caller's precision from m."""
    z = float(m) ** nu * cmath.exp(0.5j * sign * math.pi * nu)
    return _exponential_part(nu, beta, m, sign) - _algebraic_part(nu, beta, z)


def ml_ray(nu: float, beta: float, sigma: float, t: float, sign: int):
    """E_{nu,beta} at z = sigma*(sign*i)**nu*t**nu, and m = |z|**(1/nu).

    m is formed in mpmath; z too when the series is used."""
    with mp.workdps(PHASE_DPS):
        m = mp.mpf(sigma) ** (1 / mp.mpf(nu)) * mp.mpf(t)
        if m < SWITCH:
            return series(nu, beta, ray_point(nu, sigma, t, sign)), m
        return expansion(nu, beta, m, sign), m


def decomposition(nu: float, sigma: float, t: float, sign: int):
    """(oscillation, decay, total) for orders in (0, 1], as Python complex.

    total = E_nu(z), oscillation = exp(sign*i*m)/nu with the exact phase m,
    decay = oscillation - total, formed before rounding to float64.
    """
    with mp.workdps(PHASE_DPS):
        total, m = ml_ray(nu, 1.0, sigma, t, sign)
        osc = mp.expj(sign * m) / mp.mpf(nu)
        return complex(osc), complex(osc - total), complex(total)


def amplitude_and_rate(nu: float, sigma: float, t: float, sign: int):
    """A = E_nu(z) and dA/dt = (z/t) * E_{nu,nu}(z) along the ray (t > 0)."""
    with mp.workdps(PHASE_DPS):
        a, _m = ml_ray(nu, 1.0, sigma, t, sign)
        e_nunu, _m = ml_ray(nu, nu, sigma, t, sign)
        rate = ray_point(nu, sigma, t, sign) / mp.mpf(t) * e_nunu
        return complex(a), complex(rate)


def two_ic_coefficients(nu: float, sigma: float, t: float):
    """(E_nu(z), t*E_{nu,2}(z)) on the plus ray, for orders in (1, 2].

    The solution of D**nu A = sigma*i**nu*A with A(0) = a0, A'(0) = a1 is
    a0*c0 + a1*c1.
    """
    c0, _m = ml_ray(nu, 1.0, sigma, t, +1)
    c1, _m = ml_ray(nu, 2.0, sigma, t, +1)
    return complex(c0), t * complex(c1)


def phase_allowance(nu: float, sigma: float, t: float) -> float:
    """Absolute change of exp(i*m) when m = sigma**(1/nu)*t is formed in
    float64 from the same inputs: about eps * m * (1 + |ln sigma|) / nu."""
    m = sigma ** (1.0 / nu) * t
    return 2.3e-16 * m * (1.0 + abs(math.log(sigma))) / nu
