"""Toeplitz privacy amplification and its exact universality profile.

The hash matrix is the l x (l+m) block matrix (X, I): X is l x m with
``X[i][j] = seed[i+j]`` (0-based; seed bit k is the textbook-indexed random
variable Y_{k+1}, so the diagonals run over Y_1..Y_{l+m-1}) and I is the l x l identity in the
last l columns.  Compressing an (l+m)-bit string Z to the l bits M_p Z
(``mat_vec_mul`` with ``ToeplitzHash.matrix()``) sacrifices m bits.

The security condition on the hash family is that for every nonzero Z the
seed-fraction with Z in Im M_p^T is at most 2^-m.  ``universality_profile``
gives that fraction exactly (as a rational number) for every nonzero Z,
over all 2^(l+m-1) seeds, from one Gaussian elimination batched over
every y-part in blocks (``kernels.toeplitz_image_counts``), which still
computes each y-part's rank, and ``profile_summary`` checks it on
the integer counts.  The exact profile of completely random binary
matrices is kept for comparison; the security condition is all the
downstream bounds need, so both families are interchangeable.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import CapacityError, DimensionMismatch
# mat_vec_mul: unused here, kept for perfbench's LAYER_MAP.
from .gf2 import BitMatrix, BitVector, mat_vec_mul  # noqa: F401

DEFAULT_SEED_GUARD = 20


@dataclass(frozen=True)
class ToeplitzHash:
    """Hash matrix (X, I) realized from an (l+m-1)-bit seed."""

    l: int
    m: int
    seed: BitVector

    def __post_init__(self):
        if self.l < 1 or self.m < 0:
            raise ValueError("need l >= 1 and m >= 0")
        if self.seed.length != self.l + self.m - 1:
            raise DimensionMismatch(
                f"seed length {self.seed.length} != l+m-1 = {self.l + self.m - 1}")

    def matrix(self) -> BitMatrix:
        return build_toeplitz(self.l, self.m, self.seed)


def build_toeplitz(l: int, m: int, seed: BitVector) -> BitMatrix:
    """Realize the hash matrix (X, I) from its seed bits."""
    if seed.length != l + m - 1:
        raise DimensionMismatch(f"seed length {seed.length} != l+m-1 = {l + m - 1}")
    mask = (1 << m) - 1
    return BitMatrix(l, l + m, tuple(seed.bits >> i & mask | 1 << (m + i) for i in range(l)))


def sample_seed(rng: np.random.Generator, l: int, m: int) -> ToeplitzHash:
    """Uniform hash seed drawn from the given deterministic source."""
    return ToeplitzHash(l, m, BitVector.from_bits(rng.integers(0, 2, size=l + m - 1)))


class UniversalityProfile(Mapping):
    """Read-only map from each nonzero packed Z to its exact seed fraction.

    Keys are packed Z values (x-part in the low m bits, y-part above) in
    increasing order; ``profile[z]`` is ``Fraction(counts[z], denom)`` with
    ``denom = 2^(l+m-1)``, built on access from the integer ``counts``.
    """

    def __init__(self, l: int, m: int, counts: np.ndarray):
        self.l = l
        self.m = m
        self.counts = counts
        self.denom = 1 << (l + m - 1)

    def __getitem__(self, z: int) -> Fraction:
        if not 0 < z < len(self.counts):
            raise KeyError(z)
        return Fraction(int(self.counts[z]), self.denom)

    def __iter__(self):
        return iter(range(1, len(self.counts)))

    def __len__(self) -> int:
        return len(self.counts) - 1


def universality_profile(l: int, m: int,
                         guard: int = DEFAULT_SEED_GUARD) -> UniversalityProfile:
    """Exact membership fraction for every nonzero Z, over all seeds."""
    if l < 1 or m < 0:
        raise ValueError("need l >= 1 and m >= 0")
    if l + m - 1 > guard:
        raise CapacityError(
            f"seed space 2^{l + m - 1} exceeds guard 2^{guard}")
    return UniversalityProfile(l, m, kernels.toeplitz_image_counts(l, m))


def profile_summary(profile: UniversalityProfile) -> dict:
    """Classify a profile against the 2^-m condition.

    Returns the worst fraction, whether the bound holds for every nonzero Z,
    and the three structural facts used in the exhaustive verification:
    zero fraction when the y-part vanishes, exact 2^-m when both parts are
    nonzero.  Works on the integer counts; only the reported fractions are
    built.
    """
    m, denom = profile.m, profile.denom
    grid = profile.counts.reshape(-1, 1 << m)  # grid[y, x]
    worst = int(grid.reshape(-1)[1:].max())
    return {
        "bound": Fraction(1, 1 << m),
        "max_fraction": Fraction(worst, denom),
        "within_bound": worst << m <= denom,
        "zero_when_y_zero": not grid[0, 1:].any(),
        "sharp_when_both_nonzero": bool((grid[1:, 1:] == denom >> m).all()),
    }


def random_matrix_universality_profile(l: int, m: int) -> dict[int, Fraction]:
    """Exact membership fractions for the fully random matrix family.

    Enumerates all 2^(l*(l+m)) matrices, so only tiny sizes are feasible.
    """
    n_bits = l * (l + m)
    if n_bits > 16:
        raise CapacityError(f"matrix space 2^{n_bits} exceeds guard 2^16")
    width = l + m
    counts = np.zeros(1 << width, dtype=np.int64)
    for mat in range(1 << n_bits):
        rows = tuple((mat >> (i * width)) & ((1 << width) - 1) for i in range(l))
        # Row space of M_p equals Im M_p^T.
        seen = {0}
        for r in rows:
            if r != 0 and r not in seen:
                seen |= {s ^ r for s in seen}
        for z in seen:
            counts[z] += 1
    denom = 1 << n_bits
    return {z: Fraction(int(counts[z]), denom) for z in range(1, 1 << width)}
