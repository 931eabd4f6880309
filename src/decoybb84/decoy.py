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

Estimates are clamped to their physical ranges with one ``clamped`` warning
flag per estimate instead of failing: finite samples routinely land epsilon
outside.  ``estimate_vacuum_single`` returns ``(q1, r1_x, clamped)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import hbar
from .errors import InfeasibleObservation, check_flip_rate, check_law, check_probability

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
    rates of the nu-distributed pulses, and ``p_S`` the x basis's
    detector/generator error probability.  The + basis rates enter only
    feasibility checks, which take no flip rate.
    """

    p0: float
    p_dark: float
    p_nu_times: float
    s_nu_times: float
    p_nu_plus: float | None = None
    s_nu_plus: float | None = None
    p_s: float = 0.0

    def __post_init__(self):
        for name in ("p0", "p_dark", "p_nu_times", "s_nu_times"):
            check_probability(name, getattr(self, name))
        check_flip_rate("p_s", self.p_s)
        for name in ("p_nu_plus", "s_nu_plus"):
            if getattr(self, name) is not None:
                check_probability(name, getattr(self, name))

    def symmetric(self) -> bool:
        return (self.p_nu_plus is None or
                (abs(self.p_nu_plus - self.p_nu_times) < 1e-12 and
                 self.s_nu_plus is not None and
                 abs(self.s_nu_plus - self.s_nu_times) < 1e-12))


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
                           ) -> tuple[float, float, bool]:
    """Exact (q1, r1_x, clamped) for a source with no multi-photon component.

    Solves the two x-basis balance equations
        p_nu   = nu0 p0 + nu1 (p_D + q1)
        s p_nu = nu0 p0 / 2 + nu1 (p_D / 2 + r1 q1)
    and applies the detector-error correction when p_S > 0.
    """
    if nu.v2 != 0.0:
        raise ValueError("source has a multi-photon component; use the interval estimator")
    # With nu2 = 0 the multi-photon terms of the x balance vanish.  The
    # error-balance denominator equals nu1 * q1, so the two degenerate
    # together: all counts explained by vacuum plus dark counts means q1 = 0
    # and an undefined error rate (reported as 0 with a warning flag).
    q1_raw, denom, s_num = _x_balance(nu, obs, obs.p_dark)
    if denom < -_FEAS_TOL:
        raise InfeasibleObservation(f"counting balance denominator {denom} is not positive")
    if obs.p_nu_plus is not None:
        # No multi-photon pulses: the + basis has the same nu1 q1 = denom,
        # and its error count net of the vacuum and dark halves lies in [0, denom].
        s_plus = 0.0 if obs.s_nu_plus is None else \
            obs.s_nu_plus * obs.p_nu_plus - 0.5 * (nu.v0 * obs.p0 + nu.v1 * obs.p_dark)
        if abs(obs.p_nu_plus - obs.p_nu_times) > _FEAS_TOL \
                or not -_FEAS_TOL <= s_plus <= denom + _FEAS_TOL:
            raise InfeasibleObservation("+ basis rates match no multi-photon-free channel")
    if denom <= 0.0:
        return 0.0, 0.0, True
    return _clamped_pair(q1_raw, denom, s_num, obs.p_s)


def _clamped_pair(q1_raw: float, den: float, err_num: float, p_s: float
                  ) -> tuple[float, float, bool]:
    """(q1, r1, clamped): q1_raw and the error rate err_num / den, each clamped
    to [0, 1] after the rate loses the detector/generator flip rate.

    Inverts  r' = p_S (1 - r) + (1 - p_S) r, so r = (r' - p_S)/(1 - 2 p_S);
    ``ObservedRates`` has already checked p_s.
    """
    q1, cq = _clamp01(q1_raw)
    r1, cr = _clamp01((err_num / den - p_s) / (1.0 - 2.0 * p_s))
    return q1, r1, cq or cr


def estimate_interval_symmetric(nu: SourceDistribution, obs: ObservedRates
                                ) -> EstimateInterval:
    """Interval bounds for an approximate single-photon source (symmetric case).

    Requires the two bases to show the same counting and error rates; the
    extremes are attained at multi-photon yield 1 - p_D with zero error
    (lower end, the corner of ``minimize_key_term``) and multi-photon yield
    p_D-only (upper end).
    """
    if not obs.symmetric():
        raise ValueError("non-symmetric observations; interval formulas need "
                         "p_nu and s_nu equal across bases")
    q1_min, r1_max, clamped = _key_term_corner(nu, obs)
    v1, v2, pd = nu.v1, nu.v2, obs.p_dark
    q1_max_raw, den_max, s_num = _x_balance(nu, obs, pd)
    den_min = _x_balance(nu, obs, 1.0)[1]

    err_min = s_num - (1.0 - pd) * v2
    q1_max, r1_min_tilde, c = _clamped_pair(q1_max_raw, den_max, err_min, obs.p_s)
    clamped |= c

    q1_width = v2 * (1.0 - pd) / v1
    if den_min > 0.0:
        # The series expansion behind this bound needs a nonnegative
        # numerator; when the raw lower end is negative (clamped to 0) the
        # width is r1_max itself, which the max(., 0) form still covers.
        ratio = (1.0 - pd) * v2 / den_min
        a_pos = max(err_min, 0.0)
        r1_width_bound = ratio * (1.0 + a_pos / den_min)
    else:
        r1_width_bound = 1.0
    return EstimateInterval(
        q1_min=q1_min, q1_max=q1_max, r1_max=r1_max, r1_min_tilde=r1_min_tilde,
        q1_width=q1_width, r1_width_bound=r1_width_bound, clamped=clamped)


def _x_balance(nu: SourceDistribution, obs: ObservedRates, y: float
               ) -> tuple[float, float, float]:
    """(q1, nu1 q1, nu1 q1 r1_x + nu2 q2_x r2_x) from the x-basis balances.

    ``y = p_D + q2_x`` is the multi-photon click rate; the error term is
    the x-basis error count net of its vacuum and dark-count halves.
    """
    v0, v1, v2 = nu.v0, nu.v1, nu.v2
    p, p0, pd = obs.p_nu_times, obs.p0, obs.p_dark
    base = p - p0 * v0
    s_num = obs.s_nu_times * p - 0.5 * p0 * v0 - 0.5 * pd * v1 - 0.5 * pd * v2
    return (base - v2 * y) / v1 - pd, base - pd * v1 - v2 * y, s_num


def _key_term_corner(nu: SourceDistribution, obs: ObservedRates
                     ) -> tuple[float, float, bool]:
    """(q1, r1_x, clamped) at zero multi-photon error and the largest
    multi-photon click rate y the observations allow (see
    ``minimize_key_term``)."""
    v0, v1, v2, pd = nu.v0, nu.v1, nu.v2, obs.p_dark
    y_bot, y_top = pd, 1.0
    if not obs.symmetric():
        # The + basis multi-photon click rate is y + delta / nu2, also
        # confined to [p_D, 1].
        delta = obs.p_nu_plus - obs.p_nu_times
        if delta > 0.0:
            y_top = 1.0 - delta / v2
        else:
            y_bot = pd - delta / v2
        if y_bot > y_top + _FEAS_TOL:
            raise InfeasibleObservation("no multi-photon yield matches both bases' counting rates")
        if obs.s_nu_plus is not None:
            # nu1 q1 r1_+ + nu2 q2_+ r2_+ lies in [0, nu1 q1 + nu2 q2_+] for
            # any error rates in [0, 1], and both ends are fixed by the data.
            floor = obs.p0 * v0 + pd * (v1 + v2)
            s_plus_num = obs.s_nu_plus * obs.p_nu_plus - 0.5 * floor
            if not -_FEAS_TOL <= s_plus_num <= obs.p_nu_plus - floor + _FEAS_TOL:
                raise InfeasibleObservation("+ basis error rate matches no channel")
    if _x_balance(nu, obs, y_bot)[1] <= 0.0:
        raise InfeasibleObservation("counting rates below the dark/vacuum floor")
    q1_raw, den, s_num = _x_balance(nu, obs, y_top)
    if den <= 0.0:
        # No single-photon credit survives the worst case.
        return 0.0, 1.0, True
    return _clamped_pair(q1_raw, den, s_num, obs.p_s)


def minimize_key_term(nu: SourceDistribution, obs: ObservedRates
                      ) -> tuple[float, float, float]:
    """Minimize q1 (1 - hbar(r1_x)) over all channels matching the observations.

    Returns (q1, r1_x, value).  With no multi-photon component the channel
    is unique.  Otherwise write y = p_D + q2_x for the multi-photon x-basis
    click rate.  At fixed y, q1 is fixed and r1_x falls as r2_x rises, so
    the minimum takes r2_x = 0, where r1_x = c / q1 for a constant c.  Then

        d/dq1 [q1 (1 - h(c / q1))] = 1 + log2(1 - c / q1) >= 0

    while c / q1 <= 1/2 (and the value is 0 beyond), and the detector
    correction r -> (r - p_S) / (1 - 2 p_S) keeps the derivative at least
    1 - h >= 0.  So the value falls as q1 falls, that is as y rises, and
    every constraint is affine in y: the minimum is the corner at the
    largest feasible y.  That is y = 1 when p_nu_plus <= p_nu_times, and
    otherwise 1 - (p_nu_plus - p_nu_times) / nu2, where the + basis yield
    reaches its cap first.  In the symmetric case this is the lower end
    (q1_min, r1_max) of ``estimate_interval_symmetric``.
    """
    if nu.v2 == 0.0:
        q1, r1, _ = estimate_vacuum_single(nu, obs)
    else:
        q1, r1, _ = _key_term_corner(nu, obs)
    return q1, r1, q1 * (1.0 - hbar(r1))
