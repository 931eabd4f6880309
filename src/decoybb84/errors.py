"""Exception types and the one probability rule shared across the package.

Every rate or yield the library accepts goes through ``check_probability``
and every law through ``check_law``; both are written so that NaN fails.
"""

import numpy as np


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible (vector length vs matrix columns, ...)."""


class CapacityError(RuntimeError):
    """An exhaustive enumeration would exceed its configured size guard."""


class InfeasibleObservation(ValueError):
    """Observed rates admit no channel within the model's parameter ranges."""


class BoundViolation(AssertionError):
    """An empirical quantity exceeded the analytic bound it must respect."""


def check_probability(name: str, value: float) -> None:
    """Raise ``ValueError`` naming ``value`` unless it lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name}={value} outside [0, 1]")


def check_flip_rate(name: str, value: float) -> None:
    """``check_probability`` and below 1/2, where a detector flip rate inverts."""
    check_probability(name, value)
    if value >= 0.5:
        raise ValueError(f"{name}={value} must be below 1/2")


def check_law(name: str, probs, tol: float = 1e-9) -> np.ndarray:
    """``probs`` as a float array if its entries are >= 0 and sum to 1 within tol.

    Raises ``ValueError`` naming the law otherwise.  Non-numeric entries
    fail the comparison with a ``TypeError``.
    """
    p = np.asarray(probs)
    if not ((p >= 0).all() and abs(p.sum() - 1.0) <= tol):
        raise ValueError(f"{name} must be nonnegative and sum to 1")
    return p.astype(np.float64, copy=False)
