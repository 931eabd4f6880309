"""Toeplitz privacy amplification and its exact universality profile.

The hash matrix is the l x (l+m) block matrix (X, I): X is l x m with
``X[i][j] = seed[i+j]`` (0-based; seed bit k is the textbook-indexed random
variable Y_{k+1}, so the diagonals run over Y_1..Y_{l+m-1}) and I is the l x l identity in the
last l columns.  Compressing an (l+m)-bit string Z to the l bits M_p Z
(``mat_vec_mul`` with ``build_toeplitz(l, m, seed)``) sacrifices m bits.

The security condition on the hash family is that for every nonzero Z the
seed-fraction with Z in Im M_p^T is at most 2^-m.  ``universality_profile``
gives that fraction exactly (as a rational number) for every nonzero Z,
over all 2^(l+m-1) seeds, from one Gaussian elimination batched over
every y-part in blocks (``kernels.toeplitz_image_counts``): each y-part u
gets the rank r(u) of its map seed -> X^T u, and every Z = (x, u) in that
map's image is hit by 2^(l+m-1-r(u)) seeds.  ``profile_summary`` checks
the condition on the 2^l ranks alone; the 2^(l+m) integer counts are
expanded only when a fraction is read.  The security condition is all the
downstream bounds need, so any family that meets it would do; the tests
compare against the exact profile of completely random binary matrices.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import kernels
from .errors import CapacityError, DimensionMismatch
# mat_vec_mul: unused here, kept for perfbench's LAYER_MAP.
from .gf2 import BitMatrix, BitVector, mat_vec_mul  # noqa: F401

DEFAULT_SEED_GUARD = 20


def build_toeplitz(l: int, m: int, seed: BitVector) -> BitMatrix:
    """Realize the hash matrix (X, I) from its seed bits."""
    if l < 1 or m < 0:
        raise ValueError("need l >= 1 and m >= 0")
    if seed.length != l + m - 1:
        raise DimensionMismatch(f"seed length {seed.length} != l+m-1 = {l + m - 1}")
    mask = (1 << m) - 1
    return BitMatrix(l, l + m, tuple(seed.bits >> i & mask | 1 << (m + i) for i in range(l)))


def sample_seed(rng: np.random.Generator, l: int, m: int) -> BitVector:
    """Uniform (l+m-1)-bit hash seed drawn from the given deterministic source."""
    return BitVector.from_bits(rng.integers(0, 2, size=l + m - 1))


class UniversalityProfile(Mapping):
    """Read-only map from each nonzero packed Z to its exact seed fraction.

    Keys are packed Z values (x-part in the low m bits, y-part above) in
    increasing order; ``profile[z]`` is ``Fraction(counts[z], denom)`` with
    ``denom = 2^(l+m-1)``.  ``rank`` and ``basis`` are
    ``kernels.toeplitz_image_counts``'s; the integer ``counts`` are expanded
    from them on first access.
    """

    def __init__(self, l: int, m: int, rank: np.ndarray, basis: np.ndarray):
        self.l = l
        self.m = m
        self.rank = rank
        self.basis = basis
        self.denom = 1 << (l + m - 1)

    @cached_property
    def counts(self) -> np.ndarray:
        return kernels.expand_image_counts(self.l, self.m, self.rank, self.basis)

    def __getitem__(self, z) -> Fraction:
        try:
            z = operator.index(z)  # as a dict would: True is 1, 1.5 and "3" are no keys
        except TypeError:
            raise KeyError(z) from None
        if not 0 < z < 1 << (self.l + self.m):
            raise KeyError(z)
        return Fraction(int(self.counts[z]), self.denom)

    def __iter__(self):
        return iter(range(1, 1 << (self.l + self.m)))

    def __len__(self) -> int:
        return (1 << (self.l + self.m)) - 1


def universality_profile(l: int, m: int,
                         guard: int = DEFAULT_SEED_GUARD) -> UniversalityProfile:
    """Exact membership fraction for every nonzero Z, over all seeds."""
    if l < 1 or m < 0:
        raise ValueError("need l >= 1 and m >= 0")
    if l + m - 1 > guard:
        raise CapacityError(
            f"seed space 2^{l + m - 1} exceeds guard 2^{guard}")
    return UniversalityProfile(l, m, *kernels.toeplitz_image_counts(l, m))


def profile_summary(profile: UniversalityProfile) -> dict:
    """Classify a profile against the 2^-m condition.

    Returns the worst fraction, whether the bound holds for every nonzero Z,
    and the three structural facts used in the exhaustive verification:
    zero fraction when the y-part vanishes, exact 2^-m when both parts are
    nonzero.  Reads only the ranks: the Z = (x, u) of rank r(u) hit by any
    seed have fraction 2^-r(u), and all 2^m have it exactly when r(u) = m.
    u = 0 adds nonzero Z only when r(0) > 0.
    """
    m, rank = profile.m, profile.rank
    zero = int(rank[0])
    low = int(rank[1:].min())
    if zero:
        low = min(low, zero)
    return {
        "bound": Fraction(1, 1 << m),
        "max_fraction": Fraction(1, 1 << low),
        "within_bound": low >= m,
        "zero_when_y_zero": zero == 0,
        "sharp_when_both_nonzero": bool((rank[1:] == m).all()),
    }
