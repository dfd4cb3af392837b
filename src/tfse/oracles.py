"""Independent cross-checks for the Mittag-Leffler evaluators.

Nothing here calls the main evaluators; shared code is limited to complex
arithmetic.  The centerpiece inverts the transform s**(nu-1)/(s**nu -
sigma*i**nu) numerically along a parabolic contour that wraps the negative
real axis: the pole sits strictly to the right of the path, so its residue
is added explicitly and the quadrature only sees the branch-cut part.  The
module also carries a from-scratch complementary error function (series plus
continued fraction) and an arbitrary-precision power-series reference.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from .errors import QuadratureFailure
from .specfun import FractionalOrder


def residue_term(sigma: float, order: FractionalOrder, t: float) -> complex:
    """Residue contribution exp(i sigma**(1/nu) t) / nu at the principal pole."""
    nu = order.nu
    return np.exp(1j * sigma ** (1.0 / nu) * t) / nu


def _contour_integral(order: FractionalOrder, t: float, n: int,
                      pole: complex, mu: float) -> complex:
    # Parabola s(w) = mu*(i*w + 1)**2; apex at s = mu > 0, arms wrapping the
    # cut with Im s = 2*mu*w never zero away from the apex.  With mu at most
    # 0.4 |pole| the parabola stays at least 0.145 |pole| from the pole.
    trunc = math.sqrt(1.0 + 45.0 / max(mu * t, 1e-12))
    w = np.linspace(-trunc, trunc, n)
    s = mu * (1j * w + 1.0) ** 2
    ds = 2j * mu * (1j * w + 1.0)
    nu = order.nu
    g = s ** (nu - 1.0) / (s ** nu - pole ** nu)
    vals = np.exp(s * t) * g * ds
    h = w[1] - w[0]
    return complex(np.sum(vals) * h / (2j * math.pi))


def laplace_invert_ml(sigma: float, order: FractionalOrder, t: float,
                      target: float = 1e-7) -> complex:
    """A(t)/A0 for D**nu A = sigma i**nu A by direct contour quadrature.

    Deforms the Bromwich path past the principal pole (residue picked up
    explicitly) onto a parabola hugging the branch cut, then doubles the
    trapezoid node count, from 64, until two successive results agree to
    `target`.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if t <= 0:
        raise ValueError("t must be positive")
    nu = order.nu
    root = sigma ** (1.0 / nu)
    pole = root * 1j
    # Keep the contour apex below root/2 so the pole stays to its right.
    mu = min(0.4 * root, max(4.0 / t, 0.4 * root * 1e-3))
    n = 64
    prev = _contour_integral(order, t, n, pole, mu)
    for _ in range(12):
        n *= 2
        cur = _contour_integral(order, t, n, pole, mu)
        if abs(cur - prev) < target:
            return residue_term(sigma, order, t) + cur
        prev = cur
    raise QuadratureFailure(
        f"contour quadrature did not stabilize to {target:g} "
        f"(sigma={sigma}, nu={nu}, t={t})")


_SQRT_PI = math.sqrt(math.pi)


def erfc_closed_form(z: float) -> float:
    """Complementary error function for |z| <= 6, to about 1e-12.

    Maclaurin series of erf below |z| = 2.5, Lentz-evaluated continued
    fraction above; built from bare arithmetic so it can arbitrate
    library-backed special functions.
    """
    if abs(z) > 6.0:
        raise ValueError("erfc oracle valid for |z| <= 6")
    if z < 0.0:
        return 2.0 - erfc_closed_form(-z)
    if z == 0.0:
        return 1.0
    if z <= 2.5:
        # erf(z) = 2/sqrt(pi) * sum (-1)^n z^(2n+1) / (n! (2n+1))
        term = z
        total = z
        for n in range(1, 200):
            term *= -z * z / n
            contrib = term / (2 * n + 1)
            total += contrib
            if abs(contrib) < 1e-17 * abs(total):
                break
        return 1.0 - 2.0 / _SQRT_PI * total
    # Continued fraction erfc(z) = exp(-z^2)/sqrt(pi) *
    #   1/(z + (1/2)/(z + 1/(z + (3/2)/(z + ...)))), evaluated backward.
    f = 0.0
    for k in range(120, 0, -1):
        f = (k / 2.0) / (z + f)
    return math.exp(-z * z) / _SQRT_PI / (z + f)


_RGAMMA: dict[tuple[float, int], list] = {}   # 1/Gamma(nu*k + 1) by (nu, dps)


def ml_series_reference(sigma: float, sign: int, order: FractionalOrder,
                        t: float, dps: int = 50) -> complex:
    """E_nu(sigma*(+-i)**nu * t**nu) by arbitrary-precision summation.

    `sign` is +1 or -1 for the two rays.  Works where float64 summation
    cancels catastrophically; used to arbitrate the decomposition at large
    arguments.  It sums by Horner's rule over cached 1/Gamma values, with
    the term count fixed up front by a float lgamma bound: past the largest
    term and below 10**-dps in size.  The sum cancels terms as large as the
    largest one, so it runs at dps plus that term's digits.
    """
    nu = order.nu
    abs_z = sigma * t ** nu
    if abs_z == 0.0:
        return 1.0 + 0j

    def log_term(k):
        return k * math.log(abs_z) - math.lgamma(nu * k + 1.0)

    n = int(abs_z ** (1.0 / nu) / nu) + 2
    while log_term(n) > -dps * math.log(10.0):
        n += 1
    # Carry the digits of the largest term too, in steps of 10 so that few
    # precisions share the 1/Gamma cache.
    digits = max(map(log_term, range(n))) / math.log(10.0)
    work = dps + 10 * math.ceil(digits / 10.0)
    with mpmath.workdps(work):
        mp_nu = mpmath.mpf(nu)
        z = mpmath.mpc(sigma) * mpmath.exp(sign * 1j * mpmath.pi * mp_nu / 2) \
            * mpmath.mpf(t) ** mp_nu
        coef = _RGAMMA.setdefault((nu, work), [])
        for k in range(len(coef), n):
            coef.append(mpmath.rgamma(mp_nu * k + 1))
        total = mpmath.mpc(coef[n - 1])
        for k in range(n - 2, -1, -1):
            total = total * z + coef[k]
        return complex(total)
