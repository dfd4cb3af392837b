"""Exception types shared across the package."""


class TfseError(Exception):
    """Base class for all numerical failures raised by this package."""


class NonConvergence(TfseError):
    """Power series hit the term cap before meeting the tolerance.

    Callers should fall back to the oscillatory/decay decomposition.
    """


class QuadratureFailure(TfseError):
    """Adaptive quadrature could not meet the requested tolerance."""


class DenominatorSingularity(TfseError):
    """A root of the kernel denominator sits too close to the integration ray.

    On the rays sigma*(+-i)**nu two windows of orders raise it: within about
    0.014 of 4/3, and below asin(0.05)/(pi/2) = 0.0318, where the guard's
    margin asin(0.05)/nu around the cut reaches the principal root.
    """


class SingularTime(TfseError):
    """Quantity undefined at t = 0 (a t**(nu-1) factor diverges there)."""


class InvalidOrder(TfseError):
    """Fractional order outside the regime required by the operation."""
