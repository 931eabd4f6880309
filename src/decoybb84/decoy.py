"""Decoy-method estimation of the single-photon yield and phase-error rate.

The observed counting/error rates of the vacuum pulse and of a source
distribution ``nu`` over {vacuum, single, multi} photon numbers are tied to
the unknown per-class yields and error rates by four linear balance
equations (one counting and one error equation per basis).  When the
source emits no multi-photon component the system is exactly solvable;
otherwise the multi-photon unknowns are free parameters and only an
interval for (yield, error rate) survives.  The estimators here implement
both regimes plus the detector-error correction and the interval-width
identities used to judge how close a source is to ideal.

Estimates are clamped to their physical ranges with a ``clamped`` warning
flag instead of failing: finite samples routinely land epsilon outside.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import hbar
from .errors import InfeasibleObservation, check_law, check_probability

_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class SourceDistribution:
    """Photon-number law: vacuum, single, and aggregated multi (n >= 2)."""

    v0: float
    v1: float
    v2: float = 0.0

    def __post_init__(self):
        check_law("source distribution", (self.v0, self.v1, self.v2))
        if self.v1 == 0:
            raise ValueError("estimators need a nonzero single-photon weight")


@dataclass(frozen=True)
class ObservedRates:
    """Counting and error rates entering the estimators.

    ``p0`` is the vacuum counting rate (dark counts included), ``p_D`` the
    dark-count rate, ``p_nu_*``/``s_nu_*`` the per-basis counting and error
    rates of the nu-distributed pulses, and ``p_S``/``p_S_tilde`` the
    detector/generator error probabilities of the two bases.
    """

    p0: float
    p_dark: float
    p_nu_times: float
    s_nu_times: float
    p_nu_plus: float | None = None
    s_nu_plus: float | None = None
    p_s: float = 0.0
    p_s_tilde: float = 0.0

    def __post_init__(self):
        for name in ("p0", "p_dark", "p_nu_times", "s_nu_times", "p_s", "p_s_tilde"):
            check_probability(name, getattr(self, name))
        for name in ("p_nu_plus", "s_nu_plus"):
            if getattr(self, name) is not None:
                check_probability(name, getattr(self, name))

    def symmetric(self) -> bool:
        return (self.p_nu_plus is None or
                (abs(self.p_nu_plus - self.p_nu_times) < 1e-12 and
                 self.s_nu_plus is not None and
                 abs(self.s_nu_plus - self.s_nu_times) < 1e-12))


@dataclass(frozen=True)
class Estimate:
    value: float
    clamped: bool = False


@dataclass(frozen=True)
class EstimateInterval:
    """Interval estimates for an approximate single-photon source."""

    q1_min: float
    q1_max: float
    r1_max: float
    r1_min_tilde: float       # conservative proxy for the true minimum
    q1_width: float           # equals nu2 (1 - p_D) / nu1
    r1_width_bound: float     # analytic upper bound on r1_max - r1_min
    clamped: bool = False


def _clamp01(x: float) -> tuple[float, bool]:
    if x < 0.0:
        return 0.0, True
    if x > 1.0:
        return 1.0, True
    return x, False


def estimate_vacuum_single(nu: SourceDistribution, obs: ObservedRates
                           ) -> tuple[Estimate, Estimate]:
    """Exact (q1, r1_x) for a source with no multi-photon component.

    Solves the two x-basis balance equations
        p_nu   = nu0 p0 + nu1 (p_D + q1)
        s p_nu = nu0 p0 / 2 + nu1 (p_D / 2 + r1 q1)
    and applies the detector-error correction when p_S > 0.
    """
    if nu.v2 != 0.0:
        raise ValueError("source has a multi-photon component; use the interval estimator")
    q1_raw = (obs.p_nu_times - nu.v0 * obs.p0) / nu.v1 - obs.p_dark
    # The error-balance denominator equals nu1 * q1, so the two degenerate
    # together: all counts explained by vacuum plus dark counts means q1 = 0
    # and an undefined error rate (reported as 0 with a warning flag).
    denom = obs.p_nu_times - nu.v0 * obs.p0 - nu.v1 * obs.p_dark
    if denom <= 0.0:
        if denom >= -_FEAS_TOL:
            return Estimate(0.0, q1_raw < 0.0), Estimate(0.0, True)
        raise InfeasibleObservation(
            f"counting balance denominator {denom} is not positive")
    r1_raw = (obs.s_nu_times * obs.p_nu_times
              - 0.5 * nu.v0 * obs.p0
              - 0.5 * nu.v1 * obs.p_dark) / denom
    if obs.p_s > 0.0:
        r1_raw = correct_detector_error(r1_raw, obs.p_s, _already_valid=False)
    q1, cq = _clamp01(q1_raw)
    r1, cr = _clamp01(r1_raw)
    return Estimate(q1, cq), Estimate(r1, cr)


def correct_detector_error(r1_raw: float, p_s: float,
                           _already_valid: bool = True) -> float:
    """Remove the detector/generator flip rate from an observed error rate.

    Inverts  r' = p_S (1 - r) + (1 - p_S) r, so r = (r' - p_S)/(1 - 2 p_S).
    """
    if not 0.0 <= p_s < 0.5:
        raise ValueError("detector error rate must be below 1/2")
    if _already_valid:
        check_probability("observed rate", r1_raw)
    return (r1_raw - p_s) / (1.0 - 2.0 * p_s)


def estimate_interval_symmetric(nu: SourceDistribution, obs: ObservedRates
                                ) -> EstimateInterval:
    """Interval bounds for an approximate single-photon source (symmetric case).

    Requires the two bases to show the same counting and error rates; the
    extremes are attained at multi-photon yield 1 - p_D with zero error
    (lower end) and multi-photon yield p_D-only (upper end).
    """
    if not obs.symmetric():
        raise ValueError("non-symmetric observations; interval formulas need "
                         "p_nu and s_nu equal across bases")
    v0, v1, v2 = nu.v0, nu.v1, nu.v2
    p, s, p0, pd = obs.p_nu_times, obs.s_nu_times, obs.p0, obs.p_dark

    base = p - p0 * v0
    q1_min_raw = (base - v2) / v1 - pd
    q1_max_raw = (base - v2 * pd) / v1 - pd

    den_min = base - pd * v1 - v2            # = v1 * q1_min when in model
    den_max = base - pd * v1 - v2 * pd       # = v1 * q1_max
    s_num = s * p - 0.5 * p0 * v0 - 0.5 * pd * v1 - 0.5 * pd * v2
    if den_max <= 0.0:
        raise InfeasibleObservation("counting rates below the dark/vacuum floor")

    clamped = False
    if den_min <= 0.0:
        # No single-photon credit survives the worst case.
        q1_min, r1_max = 0.0, 1.0
        clamped = True
    else:
        r1_max_raw = s_num / den_min
        if obs.p_s > 0.0:
            r1_max_raw = correct_detector_error(r1_max_raw, obs.p_s, _already_valid=False)
        r1_max, c = _clamp01(r1_max_raw)
        clamped |= c
        q1_min, c = _clamp01(q1_min_raw)
        clamped |= c

    r1_min_raw = (s_num - (1.0 - pd) * v2) / den_max
    if obs.p_s > 0.0:
        r1_min_raw = correct_detector_error(r1_min_raw, obs.p_s, _already_valid=False)
    r1_min_tilde, c = _clamp01(r1_min_raw)
    clamped |= c
    q1_max, c = _clamp01(q1_max_raw)
    clamped |= c

    q1_width = v2 * (1.0 - pd) / v1
    if den_min > 0.0:
        # The series expansion behind this bound needs a nonnegative
        # numerator; when the raw lower end is negative (clamped to 0) the
        # width is r1_max itself, which the max(., 0) form still covers.
        ratio = (1.0 - pd) * v2 / den_min
        a_pos = max(s_num - (1.0 - pd) * v2, 0.0)
        r1_width_bound = ratio * (1.0 + a_pos / den_min)
    else:
        r1_width_bound = 1.0
    return EstimateInterval(
        q1_min=q1_min, q1_max=q1_max, r1_max=r1_max, r1_min_tilde=r1_min_tilde,
        q1_width=q1_width, r1_width_bound=r1_width_bound, clamped=clamped)


def feasibility_check(nu: SourceDistribution, obs: ObservedRates,
                      candidate: tuple[float, float, float, float, float, float],
                      tol: float = _FEAS_TOL) -> bool:
    """Check a full channel parameter tuple against all four balance equations.

    ``candidate`` is (q1, r1_x, q2_x, q2_plus, r2_x, r2_plus); yields must
    lie in [0, 1 - p_D] and error rates in [0, 1].
    """
    q1, r1x, q2x, q2p, r2x, r2p = candidate
    pd = obs.p_dark
    for q in (q1, q2x, q2p):
        if not -tol <= q <= 1.0 - pd + tol:
            return False
    for r in (r1x, r2x, r2p):
        if not -tol <= r <= 1.0 + tol:
            return False
    v0, v1, v2 = nu.v0, nu.v1, nu.v2
    p_plus = obs.p_nu_plus if obs.p_nu_plus is not None else obs.p_nu_times
    s_plus = obs.s_nu_plus if obs.s_nu_plus is not None else obs.s_nu_times
    residuals = (
        obs.p_nu_times - (v0 * obs.p0 + v1 * (pd + q1) + v2 * (pd + q2x)),
        p_plus - (v0 * obs.p0 + v1 * (pd + q1) + v2 * (pd + q2p)),
        obs.s_nu_times * obs.p_nu_times
        - (0.5 * v0 * obs.p0 + v1 * (0.5 * pd + r1x * q1)
           + v2 * (0.5 * pd + r2x * q2x)),
    )
    if any(abs(e) > tol for e in residuals):
        return False
    # The + error balance pins r1_plus, which must land in [0, 1].
    s_plus_num = (s_plus * p_plus - 0.5 * v0 * obs.p0 - 0.5 * v1 * pd
                  - v2 * (0.5 * pd + r2p * q2p))
    if v1 * q1 > tol:
        r1p = s_plus_num / (v1 * q1)
        return -tol <= r1p <= 1.0 + tol
    return abs(s_plus_num) <= tol


def minimize_key_term(nu: SourceDistribution, obs: ObservedRates,
                      grid_resolution: float = 1e-3
                      ) -> tuple[float, float, float]:
    """Minimize q1 (1 - hbar(r1_x)) over all channels matching the observations.

    In the symmetric case the optimum is the known corner (multi-photon
    yield maximal, multi-photon error zero), giving exactly
    q1_min (1 - hbar(r1_max)).  Otherwise the (q2_x, r2_x) plane is scanned
    at the given resolution, keeping only points where the + basis
    equations stay solvable; ties prefer the smallest (q1, r1).
    """
    v0, v1, v2 = nu.v0, nu.v1, nu.v2
    pd = obs.p_dark

    if v2 == 0.0:
        q1, r1 = estimate_vacuum_single(nu, obs)
        return q1.value, r1.value, q1.value * (1.0 - hbar(r1.value))

    if obs.symmetric():
        interval = estimate_interval_symmetric(nu, obs)
        value = interval.q1_min * (1.0 - hbar(interval.r1_max))
        return interval.q1_min, interval.r1_max, value

    p_plus = obs.p_nu_plus
    s_plus = obs.s_nu_plus
    best = None
    steps = max(2, int(round(1.0 / grid_resolution)) + 1)
    q_top = 1.0 - pd
    for iq in range(steps):
        q2x = q_top * iq / (steps - 1)
        q1 = (obs.p_nu_times - v0 * obs.p0 - v2 * (pd + q2x)) / v1 - pd
        if not -_FEAS_TOL <= q1 <= q_top + _FEAS_TOL:
            continue
        q1 = min(max(q1, 0.0), q_top)
        q2p = (p_plus - v0 * obs.p0 - v1 * (pd + q1)) / v2 - pd
        if not -_FEAS_TOL <= q2p <= q_top + _FEAS_TOL:
            continue
        for ir in range(steps):
            r2x = ir / (steps - 1)
            num = (obs.s_nu_times * obs.p_nu_times - 0.5 * v0 * obs.p0
                   - 0.5 * v1 * pd - v2 * (0.5 * pd + r2x * q2x))
            if v1 * q1 > _FEAS_TOL:
                r1x = num / (v1 * q1)
            elif abs(num) <= _FEAS_TOL:
                r1x = 0.0
            else:
                continue
            if not -_FEAS_TOL <= r1x <= 1.0 + _FEAS_TOL:
                continue
            r1x = min(max(r1x, 0.0), 1.0)
            # + basis error equation must admit some r2_plus in [0, 1].
            s_num = (s_plus * p_plus - 0.5 * v0 * obs.p0 - 0.5 * v1 * pd
                     - 0.5 * v2 * pd)
            lo = s_num - v2 * q2p  # value of v1 q1 r1_+ at r2_plus = 1
            hi = s_num             # at r2_plus = 0
            if hi < -_FEAS_TOL or lo > v1 * q1 + _FEAS_TOL:
                continue
            value = q1 * (1.0 - hbar(r1x))
            key = (value, q1, r1x)
            if best is None or key < best:
                best = key
    if best is None:
        raise InfeasibleObservation("no channel matches the observed rates")
    value, q1, r1x = best
    return q1, r1x, value
