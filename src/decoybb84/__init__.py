"""Finite-length security analysis of decoy-state BB84.

Library layout:

* :mod:`decoybb84.gf2`      bit-packed GF(2) linear algebra
* :mod:`decoybb84.hashing`  Toeplitz privacy amplification + universality
* :mod:`decoybb84.channel`  reduced Pauli-channel model and array sampling
* :mod:`decoybb84.oracle`   exact Eve figures and the code-channel reduction
* :mod:`decoybb84.bounds`   closed-form security bounds and verifications
* :mod:`decoybb84.decoy`    decoy-method channel-parameter estimation
* :mod:`decoybb84.rates`    asymptotic key-generation rates
* :mod:`decoybb84.protocol` seeded end-to-end session simulation
* :mod:`decoybb84.kernels`  hot loops: numpy decode, Toeplitz-count and
  restricted-decode kernels
"""

from .bounds import (EC_DIRECTIONS, BoundInputs, averaged_bound, averaged_eve_info_bound,
                     distinguishability_bounds, eve_info_bound, hbar, min_decoding_bound,
                     per_bit_eve_info_bound, success_bound, verify_proposition_decoding)
from .channel import ChannelStrategy, ClassCounts, apply_bit_errors, classify, sample_flips
from .decoy import (EstimateInterval, ObservedRates, SourceDistribution,
                    estimate_interval_symmetric, estimate_vacuum_single, minimize_key_term)
from .gf2 import BitMatrix, BitVector, kernel_basis, mat_vec_mul, rank
from .hashing import ToeplitzHash, build_toeplitz, sample_seed, universality_profile
from .oracle import (EveFigures, PauliErrorDistribution, pairwise_figures,
                     phase_error_probability, reduce_code_channel)
from .protocol import SessionConfig, SessionOutcome, error_correct, run_session
from .rates import RateInputs, all_rates, gllp_effective_params, verify_rate_ordering

__version__ = "0.1.0"
