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

Draws.  A session (``protocol.run_session``) makes every random draw from
one numpy Generator seeded by ``rng_seed``, in this order; the order, sizes
and dtypes are the contract that keeps seeded transcripts byte for byte.
N' is the pulse count, A_0 the vacuum-decoy pulses, N the sifted key size.
``protocol._transmit`` makes draws 1-8, through the functions named here,
``protocol._check_bits`` draw 9 and ``protocol._correct_and_amplify`` draw 10.

1. step 1, kinds: ``rng.random(N')``, float64, mapped by
   :func:`categorical` over ``p_bar``;
2. step 1, photon classes: ``rng.random(N' - A_0)``, float64, one per pulse
   of kinds 1 .. 2k, kind by kind and in pulse order within a kind
   (:func:`group_uniforms`), mapped by :func:`categorical` over the kind's
   photon-number law;
3. step 1, Alice's bits: ``rng.integers(0, 2, size=N', dtype=int8)``;
4. channel, detection: ``rng.random(N')``, float64 (:func:`sample_detection`);
5. channel, Bob's basis: ``rng.integers(0, 2, size=N', dtype=int8)``;
6. channel, flips: ``rng.random(F)``, float64, one per normal-count photon
   with a basis, single photons in the + then the x basis, then multi
   photons in the + then the x basis (:func:`sample_flips`);
7. channel, fair coins: ``rng.integers(0, 2, size=U, dtype=int8)`` for the
   U pulses of :func:`uniform_mask`, skipped when U = 0
   (:func:`apply_bit_errors`);
8. channel, detector errors: ``rng.random(N')``, float64;
9. step 4, check bits: ``rng.choice(E, size=E - N, replace=False)`` for the
   x then the + raw-key kind, E its common-basis count;
10. steps 7-10, for the + then the x basis: the EC code
    ``rng.integers(0, 2, size=(N, lm))``, int64, again until it has full
    column rank (``protocol.random_full_rank_matrix``); the EC seed
    ``rng.integers(0, 2, size=lm)``, int64 (``protocol.error_correct``);
    the hash seed ``rng.integers(0, 2, size=l + m - 1)``, int64
    (``hashing.sample_seed``).

An abort stops the list where it happens.  Draws 1, 2 and 6 give the same
values, and leave the Generator in the same state, as ``rng.choice`` with
``p``: one call over ``p_bar``, one per nonempty kind, and one per nonempty
single-photon group followed by one ``rng.random`` per nonempty
multi-photon group.
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


def categorical(law, u: np.ndarray) -> np.ndarray:
    """Index drawn from ``law`` by each uniform of ``u``, in the narrowest
    unsigned type that holds ``len(law) - 1``.

    Exactly ``rng.choice(len(law), size=len(u), p=law)`` when ``u`` is
    ``rng.random(len(u))``: numpy's choice builds ``cdf = p.cumsum();
    cdf /= cdf[-1]`` and returns ``cdf.searchsorted(u, side="right")``, the
    count of cdf entries at or below u.  That count is taken here, skipping
    ``cdf[-1]``, which is exactly 1 and so above every u.
    """
    cdf = np.asarray(law, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    idx = np.zeros(len(u), dtype=np.min_scalar_type(len(cdf) - 1))
    for edge in cdf[:-1]:
        idx += u >= edge
    return idx


def group_uniforms(rng: np.random.Generator, groups) -> list[np.ndarray]:
    """One uniform per position of each group, groups in order, from one draw.

    Consecutive ``rng.random`` calls concatenate, so slice g is what
    ``rng.random(len(groups[g]))`` would give after the groups before it.
    """
    u = rng.random(sum(len(pos) for pos in groups))
    out, start = [], 0
    for pos in groups:
        out.append(u[start:start + len(pos)])
        start += len(pos)
    return out


def _cell(cls: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Index ``3 cls + basis + 1`` of each pulse into a class x (no basis,
    PLUS, TIMES) table flattened row by row."""
    return cls * 3 + basis + 1


def sample_detection(strategy: ChannelStrategy, cls: np.ndarray, basis: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """Detection tag per pulse from one uniform draw each.

    A draw below the pulse's yield q is a normal count, one in the next
    ``p_dark`` a dark count, anything above undetected.  q is looked up by
    class and basis; a multi-photon pulse not in the x basis takes
    ``q_multi_plus``.
    """
    s = strategy
    q = np.array([s.q_vacuum] * 3 + [s.q_single] * 3
                 + [s.q_multi_plus, s.q_multi_plus, s.q_multi_times]).take(_cell(cls, basis))
    u = rng.random(len(cls))
    # 2 below q + p_dark, less 1 below q: NORMAL, DARK or UNDETECTED.
    det = (u < q + s.p_dark).astype(np.int8)
    det <<= 1
    det -= u < q
    return det


def sample_flips(strategy: ChannelStrategy, cls: np.ndarray, det: np.ndarray,
                 basis: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Bit flips ``x`` and phase flips ``z`` of the normal-count photons.

    One uniform each, in four groups drawn in this order (see
    :func:`group_uniforms`): single photons in the + then the x basis (one
    law index 2x + z per pulse, as :func:`categorical`), then multi-photon
    bit flips in the + then the x basis (``x = u < p``).  Every other pulse
    gets ``x = z = 0``.
    """
    s = strategy
    x = np.zeros(len(cls), dtype=np.int8)
    z = np.zeros(len(cls), dtype=np.int8)
    normal = np.flatnonzero(det == NORMAL)
    cell = _cell(cls[normal], basis[normal])
    groups = [normal[cell == _cell(c, b)] for c in (SINGLE, MULTI) for b in (PLUS, TIMES)]
    u = group_uniforms(rng, groups)
    for pos, u_g, law in zip(groups, u, (s.single_error_plus, s.single_error_times)):
        idx = categorical(law, u_g)
        x[pos] = idx >> 1
        z[pos] = idx & 1
    for pos, u_g, p_flip in zip(groups[2:], u[2:], (s.multi_flip_plus, s.multi_flip_times)):
        x[pos] = u_g < p_flip
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
    n_uniform = np.count_nonzero(uniform)
    if n_uniform:
        out[uniform] = rng.integers(0, 2, size=n_uniform, dtype=np.int8)
    return out

