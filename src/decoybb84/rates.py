"""Asymptotic key-generation rates and their ordering chain.

Six rates per sent pulse (the 1/2 factor is basis sifting), each the
single-photon term plus a direction's credit from ``bounds.EC_DIRECTIONS``
minus the error-correction debit:

* forward  (dark counts and vacuum credited to the key),
* reverse  (dark counts credited),
* two-way  (only vacuum dark counts survive the syndrome exchange),
* GLLP-ILM (no dark-count credit, effective single-photon parameters),
* barred forward/reverse (effective parameters, vacuum credit kept/dropped).

The effective parameters fold dark counts into the single-photon pool:
q1_bar = q1 + p_D and r1_bar mixes the channel error rate with the fair
coin of a dark count.  Concavity of the entropy makes the refined rates
dominate the barred ones whenever inputs are physical (p0 >= p_D in
particular, since a vacuum pulse can always fire the dark counter).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import EC_DIRECTIONS, hbar
from .decoy import SourceDistribution
from .errors import check_probability


def shannon_eta(e: float) -> float:
    """Error-correction rate: the Shannon-limit idealization."""
    return 1.0 - hbar(e)


@dataclass(frozen=True)
class RateInputs:
    """Inputs to the rate formulas."""

    nu: SourceDistribution
    q1: float
    r1: float
    p0: float
    p_dark: float
    p_nu_plus: float
    s_nu_plus: float

    def __post_init__(self):
        for name in ("q1", "r1", "p0", "p_dark", "p_nu_plus", "s_nu_plus"):
            check_probability(name, getattr(self, name))


def gllp_effective_params(q1: float, r1: float, p_dark: float) -> tuple[float, float]:
    """Effective (yield, error rate) counting dark-count singles as signal."""
    if q1 + p_dark <= 0.0:
        raise ValueError("q1 + p_D must be positive")
    q1_bar = q1 + p_dark
    r1_bar = (r1 * q1 + 0.5 * p_dark) / q1_bar
    return q1_bar, r1_bar


# Report name -> (effective single-photon parameters?, credited direction).
# GLLP-ILM and barred reverse credit nothing: one formula under two names.
RATES = (
    ("forward", False, "forward"),
    ("reverse", False, "reverse"),
    ("twoway", False, "twoway"),
    ("gllp_ilm", True, None),
    ("bar_forward", True, "forward"),
    ("bar_reverse", True, None),
)


def all_rates(inputs: RateInputs) -> dict[str, float]:
    """Every rate of ``RATES``, keyed by its report name."""
    debit = inputs.p_nu_plus * (1.0 - shannon_eta(inputs.s_nu_plus))
    rates = {}
    for name, effective, direction in RATES:
        q1, r1 = gllp_effective_params(inputs.q1, inputs.r1, inputs.p_dark) \
            if effective else (inputs.q1, inputs.r1)
        photon = inputs.nu.v1 * q1 * (1.0 - hbar(r1))  # >= +0.0: a 0.0 credit adds nothing
        credit = EC_DIRECTIONS[direction][1](inputs.nu, inputs.p0, inputs.p_dark) \
            if direction else 0.0
        rates[name] = 0.5 * (photon + credit - debit)
    return rates


def initial_eve_information_asymptotic(nu: SourceDistribution, q1: float,
                                       r1: float, p0: float, p_dark: float,
                                       p_nu_plus: float, n: int,
                                       direction: str = "forward") -> float:
    """Initial Eve information for an N-bit raw key, rate form.

    Forward credits the vacuum counting contribution, reverse the dark
    counts; either way the single-photon fraction contributes only its
    entropy-degraded share.
    """
    if p_nu_plus <= 0.0:
        raise ValueError("counting rate must be positive")
    photon = nu.v1 * q1 * (1.0 - hbar(r1)) / p_nu_plus
    if direction not in ("forward", "reverse"):
        raise ValueError("direction must be 'forward' or 'reverse'")
    credit = EC_DIRECTIONS[direction][1](nu, p0, p_dark) / p_nu_plus
    return n * (1.0 - photon - credit)


@dataclass(frozen=True)
class OrderingReport:
    """All six rates plus each chain inequality with its slack."""

    rates: dict[str, float]
    checks: tuple[tuple[str, float, bool], ...]

    @property
    def all_ok(self) -> bool:
        return all(ok for _, _, ok in self.checks)


def verify_rate_ordering(inputs: RateInputs) -> OrderingReport:
    """Evaluate the chain: forward >= bar_forward >= gllp, reverse >= twoway
    >= bar_reverse >= gllp, and forward >= twoway (needs p0 >= p_D)."""
    r = all_rates(inputs)
    pairs = [
        ("forward>=bar_forward", r["forward"] - r["bar_forward"]),
        ("bar_forward>=gllp_ilm", r["bar_forward"] - r["gllp_ilm"]),
        ("reverse>=twoway", r["reverse"] - r["twoway"]),
        ("twoway>=bar_reverse", r["twoway"] - r["bar_reverse"]),
        ("bar_reverse>=gllp_ilm", r["bar_reverse"] - r["gllp_ilm"]),
    ]
    if inputs.p0 >= inputs.p_dark:
        pairs.append(("forward>=twoway", r["forward"] - r["twoway"]))
    checks = tuple((name, slack, slack >= -1e-12) for name, slack in pairs)
    return OrderingReport(rates=r, checks=checks)
