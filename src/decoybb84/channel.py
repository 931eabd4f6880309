"""Reduced Pauli-channel model: integer pulse codes and array sampling.

Every pulse carries a photon class (``VACUUM``, ``SINGLE`` or ``MULTI``),
Alice's basis (``PLUS`` or ``TIMES``; -1 for the vacuum decoy) and a
detection tag (``UNDETECTED``, ``NORMAL`` or ``DARK``).  All three are small
integer codes held in numpy arrays, one entry per pulse.  The channel acts
classically on this reduced description:

* a single photon with a normal count suffers a joint (bit, phase) flip
  ``(x, z)`` drawn from the law of its basis,
* a multi-photon pulse with a normal count is pinched: only its bit flips
  (``z`` stays 0), and the eavesdropper keeps a perfect copy,
* a dark count, a normal count from a vacuum pulse (a spurious click) and a
  signal measured in the wrong basis give the receiver a fair coin.

A :class:`ChannelStrategy` is the adversary's conditional distribution:
per-class detection probabilities and per-class error laws.  Strategies
with 0/1 probabilities and point-mass error laws are exactly the extremal
points of the strategy polytope, so no separate representation is needed
for worst-case searches.

The samplers draw from one numpy Generator in the session's order:
:func:`sample_detection`, then (the receiver's basis, drawn by the
protocol) :func:`sample_flips`, then :func:`apply_bit_errors`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, check_law, check_probability

VACUUM, SINGLE, MULTI = 0, 1, 2
UNDETECTED, NORMAL, DARK = 0, 1, 2
PLUS, TIMES = 0, 1


@dataclass(frozen=True)
class ClassCounts:
    """Detected-pulse classification: coarse K parts and dark-split J parts."""

    k0: int = 0
    k1: int = 0
    k2: int = 0
    j0: int = 0
    j1: int = 0
    j2: int = 0
    j3: int = 0
    j4: int = 0
    j5: int = 0
    t: int = 0

    @property
    def total(self) -> int:
        return self.k0 + self.k1 + self.k2

    def j_tuple(self) -> tuple[int, ...]:
        return (self.j0, self.j1, self.j2, self.j3, self.j4, self.j5)


def classify(labels: np.ndarray, z: np.ndarray) -> ClassCounts:
    """Count detected pulses into the K and J parts, and t.

    ``labels`` holds one code ``cls + 3 * det`` per pulse; undetected pulses
    are skipped.  ``z`` holds the phase flips of the same pulses; ``t`` is
    the number of normal-count single photons with ``z = 1`` (a bit flip
    does not mask a phase flip).
    """
    if len(labels) == 0:
        raise ValueError("no labels to classify")
    if len(z) != len(labels):
        raise DimensionMismatch("labels and phase flips differ in length")
    j = np.bincount(labels, minlength=9)[3 * NORMAL:].tolist()
    t = int(np.count_nonzero(z[labels == SINGLE + 3 * NORMAL]))
    return ClassCounts(j[0] + j[3], j[1] + j[4], j[2] + j[5], *j, t=t)


@dataclass(frozen=True)
class ChannelStrategy:
    """Adversary/loss model: detection yields and conditional error laws.

    ``q_*`` are normal-count probabilities per photon class (dark counts
    add ``p_dark`` on top, so counting rates are ``q + p_dark``); the
    single-photon laws are distributions over the four (bit, phase) flips
    ``(0,0), (0,1), (1,0), (1,1)`` in the pulse's own basis frame;
    multi-photon flips are Bernoulli.
    """

    p_dark: float = 0.0
    q_vacuum: float = 0.0
    q_single: float = 1.0
    q_multi_times: float = 1.0
    q_multi_plus: float = 1.0
    single_error_times: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)
    single_error_plus: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)
    multi_flip_times: float = 0.0
    multi_flip_plus: float = 0.0

    def __post_init__(self):
        for name in ("p_dark", "q_vacuum", "q_single",
                     "q_multi_times", "q_multi_plus",
                     "multi_flip_times", "multi_flip_plus"):
            check_probability(name, getattr(self, name))
        for name in ("single_error_times", "single_error_plus"):
            law = check_law(name, getattr(self, name))
            if law.shape != (4,):
                raise ValueError(f"{name} must hold 4 probabilities")
            object.__setattr__(self, name, tuple(law.tolist()))
        for q in (self.q_vacuum, self.q_single, self.q_multi_times, self.q_multi_plus):
            if q + self.p_dark > 1.0 + 1e-12:
                raise ValueError("q + p_dark exceeds 1 for some class")


def sample_detection(strategy: ChannelStrategy, cls: np.ndarray, basis: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """Detection tag per pulse from one uniform draw each.

    A draw below the class's yield q is a normal count, one in the next
    ``p_dark`` a dark count, anything above undetected.
    """
    q = np.select([cls == VACUUM, cls == SINGLE, basis == TIMES],
                  [strategy.q_vacuum, strategy.q_single, strategy.q_multi_times],
                  strategy.q_multi_plus)
    u = rng.random(len(cls))
    det = np.full(len(cls), UNDETECTED, dtype=np.int8)
    det[u < q] = NORMAL
    det[(u >= q) & (u < q + strategy.p_dark)] = DARK
    return det


def sample_flips(strategy: ChannelStrategy, cls: np.ndarray, det: np.ndarray,
                 basis: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Bit flips ``x`` and phase flips ``z`` of the normal-count photons.

    Draws, each skipped when its group is empty: the single-photon laws in
    the + then the x basis (one law index 2x + z per pulse), then the
    multi-photon bit flips in the + then the x basis.  Every other pulse
    gets ``x = z = 0``.
    """
    x = np.zeros(len(cls), dtype=np.int8)
    z = np.zeros(len(cls), dtype=np.int8)
    normal = det == NORMAL
    for b, law in ((PLUS, strategy.single_error_plus),
                   (TIMES, strategy.single_error_times)):
        mask = normal & (cls == SINGLE) & (basis == b)
        cnt = int(mask.sum())
        if cnt:
            idx = rng.choice(4, size=cnt, p=np.asarray(law))
            x[mask] = idx >> 1
            z[mask] = idx & 1
    for b, p_flip in ((PLUS, strategy.multi_flip_plus),
                      (TIMES, strategy.multi_flip_times)):
        mask = normal & (cls == MULTI) & (basis == b)
        cnt = int(mask.sum())
        if cnt:
            x[mask] = rng.random(cnt) < p_flip
    return x, z


def uniform_mask(cls: np.ndarray, det: np.ndarray, basis: np.ndarray,
                 bob_basis: np.ndarray) -> np.ndarray:
    """Pulses whose received bit is a fair coin: dark counts, spurious
    vacuum clicks and signals measured in the wrong basis."""
    return (det == DARK) | ((det == NORMAL) & ((cls == VACUUM) | (bob_basis != basis)))


def apply_bit_errors(bits: np.ndarray, x: np.ndarray, uniform: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """Received bits: ``bits ^ x``, with one coin per ``uniform`` position."""
    out = bits ^ x
    n_uniform = int(uniform.sum())
    if n_uniform:
        out[uniform] = rng.integers(0, 2, size=n_uniform, dtype=np.int8)
    return out

