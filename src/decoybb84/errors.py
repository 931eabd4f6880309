"""Exception types and the one probability rule shared across the package.

Every rate or yield the library accepts goes through ``check_probability``
and every law through ``check_law``; both are written so that NaN fails.
A bool is not a number: ``True`` is not a probability of 1, and both rules
raise ``TypeError`` on it and on any other value that is not a real number.
"""

from numbers import Real

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
    """Raise ``ValueError`` naming ``value`` unless it lies in [0, 1], and
    ``TypeError`` naming the field unless it is a real number."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name}={value} outside [0, 1]")


def check_flip_rate(name: str, value: float) -> None:
    """``check_probability`` and below 1/2, where a detector flip rate inverts."""
    check_probability(name, value)
    if value >= 0.5:
        raise ValueError(f"{name}={value} must be below 1/2")


def check_law(name: str, probs, tol: float = 1e-9) -> np.ndarray:
    """``probs`` as a float array if its entries are >= 0 and sum to 1 within tol.

    Raises ``ValueError`` naming the law otherwise, and ``TypeError`` unless
    every entry is a real number.
    """
    p = np.asarray(probs)
    # np.asarray would turn a bool among numbers into 1.0 or 0.0.
    entries = () if isinstance(probs, np.ndarray) else np.asarray(probs, dtype=object).flat
    if p.dtype.kind not in "fiu" or any(isinstance(v, (bool, np.bool_)) for v in entries):
        raise TypeError(f"{name} must hold real numbers only")
    if not ((p >= 0).all() and abs(p.sum() - 1.0) <= tol):
        raise ValueError(f"{name} must be nonnegative and sum to 1")
    return p.astype(np.float64, copy=False)
