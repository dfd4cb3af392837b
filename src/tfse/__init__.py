"""Closed-form tools for Caputo-order quantum evolution.

Subpackages: `specfun` (Mittag-Leffler evaluation and its oscillation/decay
split), `fraccalc` (sampled-signal fractional operators), `dynamics` (free
particle and infinite well with diagnostics), `oracles` (independent
cross-checks) and `cli` (the `tfse` command).
"""

from .errors import (
    DenominatorSingularity,
    InvalidOrder,
    NonConvergence,
    QuadratureFailure,
    SingularTime,
    TfseError,
)
from .specfun import (
    FractionalOrder,
    MlDecomposition,
    Regime,
    Sign,
    ml_complex_decomposed,
    ml_series,
    ml_two_ic,
)

__version__ = "0.1.0"

__all__ = [
    "DenominatorSingularity",
    "FractionalOrder",
    "InvalidOrder",
    "MlDecomposition",
    "NonConvergence",
    "QuadratureFailure",
    "Regime",
    "Sign",
    "SingularTime",
    "TfseError",
    "ml_complex_decomposed",
    "ml_series",
    "ml_two_ic",
    "__version__",
]
