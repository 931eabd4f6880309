"""Command-line front end.

Subcommands:
    verify-toeplitz   exhaustive universality profile for one (l, m)
    oracle-check      exact Eve figures vs the closed-form bounds
    simulate          run protocol sessions from config + strategy files
    bound             evaluate all bound formulas on a BoundInputs file
    estimate-decoy    decoy estimators on an observed-rates file
    rates             key-rate table and ordering report

Exit codes: 0 ok, 1 a verification/bound check failed, 2 usage or parse
errors.  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from . import decoy as decoy_mod
from . import oracle as oracle_mod
from . import rates as rates_mod
from .channel import ChannelStrategy
from .errors import CapacityError, InfeasibleObservation
from .hashing import DEFAULT_SEED_GUARD, profile_summary, universality_profile
from .protocol import SessionConfig, run_session
from .reports import build_report, to_json, to_text

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

ORACLE_TOLERANCE = 1e-9


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when there is no path."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _load(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


# ----------------------------------------------------------------------
# Input files.  Session configs and channel strategies are flat
# ``key = value`` text; the bound, estimate-decoy and rates inputs are JSON
# objects.  Either way the parsed dict goes through ``load_input``.  A key
# given twice, on two lines or inside one JSON object, is an error: plain
# ``json.loads`` would keep the last one without a word.

# format -> (dataclass built, keys required beyond the fields without a
# default, keys accepted beside the fields and not passed to the dataclass,
# fields a file may not set)
INPUT_FORMATS = {
    "bound": (bounds_mod.BoundInputs, ("m", "t_distribution"), (), ()),
    "estimate-decoy": (decoy_mod.ObservedRates, ("nu",), ("nu",), ()),
    "rates": (rates_mod.RateInputs, (), (), ()),
    # Trial seeds come from --seed.
    "session": (SessionConfig, (), (), ("rng_seed",)),
    "strategy": (ChannelStrategy, (), (), ()),
}

# Values that files give as JSON lists.
_CONVERT = {
    "nu": lambda v: decoy_mod.SourceDistribution(*v),
    "nus": lambda v: tuple(decoy_mod.SourceDistribution(*nu) for nu in v),
    "p_bar": tuple,
}


def _unique_keys(pairs) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value
    return out


def _parse_json(text: str):
    """JSON text to Python, rejecting a key repeated inside one object."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def _load_json(path: str):
    return _parse_json(_load(path))


def parse_key_values(text: str) -> dict:
    """The ``key = value`` lines of a config text; values are JSON and ``#``
    starts a comment."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        try:
            pairs.append((key.strip(), _parse_json(val.strip())))
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: bad value: {exc}") from exc
    return _unique_keys(pairs)


def _check_keys(spec, accepted, required) -> None:
    if not isinstance(spec, dict):
        raise TypeError(f"expected a JSON object, got {type(spec).__name__}")
    for key in spec:
        if key not in accepted:
            raise ValueError(f"unknown key {key!r}")
    missing = [key for key in required if key not in spec]
    if missing:
        raise ValueError("missing key " + ", ".join(map(repr, missing)))


def input_keys(fmt: str) -> tuple[list[str], list[str]]:
    """The accepted and the required keys of input format ``fmt``."""
    cls, required, extra, skip = INPUT_FORMATS[fmt]
    fields = [f for f in dataclasses.fields(cls) if f.name not in skip]
    accepted = [f.name for f in fields] + list(extra)
    return accepted, [f.name for f in fields
                      if f.default is dataclasses.MISSING] + list(required)


def load_input(fmt: str, spec):
    """Format ``fmt``'s dataclass from the parsed file ``spec``: every key
    must be accepted and every required key given."""
    _check_keys(spec, *input_keys(fmt))
    cls, _, extra, _ = INPUT_FORMATS[fmt]
    return cls(**{key: _CONVERT[key](val) if key in _CONVERT else val
                  for key, val in spec.items() if key not in extra})


# ----------------------------------------------------------------------
# Each cmd_* returns its payload and whether its check passed; main alone
# builds, writes and exits on the report.


def cmd_verify_toeplitz(args) -> tuple[dict, bool]:
    profile = universality_profile(args.l, args.m, guard=args.guard_override)
    summary = profile_summary(profile)
    payload = {
        "l": args.l,
        "m": args.m,
        "summary": summary,
        "result": "PASS" if summary["within_bound"] else "FAIL",
    }
    if args.full:
        payload["profile"] = {format(z, "b").zfill(args.l + args.m): frac
                              for z, frac in profile.items()}
    return payload, summary["within_bound"]


def cmd_oracle_check(args) -> tuple[dict, bool]:
    if args.suite_size < 1:
        raise ValueError("--suite-size must be at least 1")
    if args.l_min > args.l_max:
        raise ValueError(f"empty logical range --l-min {args.l_min} > --l-max {args.l_max}")
    rng = np.random.default_rng(args.seed)
    slacks = {}
    l_values = list(range(args.l_min, args.l_max + 1))
    for l in l_values:
        dim = 1 << (2 * l)
        for _ in range(args.suite_size):
            probs = rng.dirichlet(np.ones(dim)).reshape(1 << l, 1 << l)
            dist = oracle_mod.PauliErrorDistribution(l, probs)
            fig = oracle_mod.pairwise_figures(dist)
            p = fig.phase_error_prob
            fb, tb, fab, tab = bounds_mod.distinguishability_bounds(p)
            for name, slack in (
                    ("info_bound", bounds_mod.eve_info_bound(p, l) - fig.mutual_info_bits),
                    ("pair_fidelity", fig.min_pair_fidelity - fb),
                    ("pair_trace_norm", tb - fig.max_pair_trace_norm),
                    ("avg_fidelity", fig.min_avg_fidelity - fab),
                    ("avg_trace_norm", tab - fig.max_avg_trace_norm),
                    ("success", bounds_mod.success_bound(p, l) - fig.opt_success_prob)):
                slacks[name] = min(slacks.get(name, np.inf), slack)
    defective = ("pair_trace_norm", "avg_trace_norm")
    if args.provable_only:
        for name in defective:
            slacks.pop(name)
    worst = min(slacks.values())
    ok = worst >= -ORACLE_TOLERANCE
    payload = {
        "l_values": l_values,
        "suite_size": args.suite_size,
        "tolerance": ORACLE_TOLERANCE,
        "worst_slack": {k: float(v) for k, v in slacks.items()},
        "holds": {k: bool(v >= -ORACLE_TOLERANCE) for k, v in slacks.items()},
        "result": "PASS" if ok else "FAIL",
    }
    if not args.provable_only:
        payload["note"] = (
            "the linear trace-norm inequalities are known to be unattainable "
            "(exact values reach 2 sqrt(1-(1-2P)^2)); "
            "--provable-only restricts to the sound legs")
    return payload, ok


def _session_entry(outcome) -> dict:
    """A ``simulate`` report's entry for one session.  A completed session
    adds each basis's sizes and EC result, and the exact bound its realized
    classification ``outcome.truth`` gives, which the parties never see."""
    entry = {
        "seed": outcome.config.rng_seed,
        "status": outcome.status,
        "abort_step": outcome.abort_step,
        "abort_reason": outcome.abort_reason,
    }
    if not outcome.completed:
        return entry
    cfg = outcome.config
    entry["keys_match"] = outcome.keys_match()
    for name in ("plus", "times"):
        res, truth = getattr(outcome, name), outcome.truth[name]
        j = truth.j_tuple()
        entry[name] = {
            "observed_error": res.observed_error,
            "eta": rates_mod.shannon_eta(res.observed_error),
            "lm": res.lm,
            "m": res.m,
            "length": res.length,
            "m_clamped": res.m_clamped,
            "length_within_window": cfg.n_under <= res.length <= cfg.n_bar,
            "ec_success": res.ec_success,
            "truth_phase_error_bound": bounds_mod.min_decoding_bound(
                truth.j1, bounds_mod.k2_count(j, cfg.ec_direction), truth.t, res.m),
            "truth_twoway_bound": bounds_mod.min_decoding_bound(
                truth.j1, bounds_mod.k2_count(j, "twoway"), truth.t, res.m),
        }
    entry["plus_key"] = str(outcome.plus.alice_key)
    entry["times_key"] = str(outcome.times.alice_key)
    return entry


def cmd_simulate(args) -> tuple[dict, bool]:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    cfg = load_input("session", parse_key_values(_load(args.config)))
    strategy = load_input("strategy", parse_key_values(_load(args.strategy)))
    sessions = []
    statuses = {"completed": 0, "aborted": 0}
    for trial in range(args.trials):
        outcome = run_session(dataclasses.replace(cfg, rng_seed=args.seed + trial), strategy)
        # Only trial 0's transcript is written, so only it is rendered.
        if args.transcript and trial == 0:
            _write(args.transcript, "\n".join(outcome.transcript) + "\n")
        statuses[outcome.status] += 1
        sessions.append(_session_entry(outcome))
    payload = {
        "trials": args.trials,
        "statuses": statuses,
        "sessions": sessions,
    }
    return payload, True


def cmd_bound(args) -> tuple[dict, bool]:
    spec = _load_json(args.inputs)
    inputs = load_input("bound", spec)
    payload = {"inputs": spec}
    for direction in bounds_mod.EC_DIRECTIONS:
        payload[f"{direction}_bound"] = bounds_mod.averaged_bound(inputs, direction)
    fwd, rev, two = payload["forward_bound"], payload["reverse_bound"], payload["twoway_bound"]
    if inputs.n_bar is not None:
        payload["averaged_eve_info_forward"] = \
            bounds_mod.averaged_eve_info_bound(fwd, inputs.n_bar)
    if inputs.n_under is not None:
        payload["averaged_success_forward"] = \
            bounds_mod.success_bound(fwd, inputs.n_under)
        payload["per_bit_eve_info_forward"] = \
            bounds_mod.per_bit_eve_info_bound(fwd, inputs.n_under)
    ordering_ok = two >= fwd - 1e-15 and two >= rev - 1e-15
    payload["ordering_ok"] = ordering_ok
    return payload, ordering_ok


def cmd_estimate_decoy(args) -> tuple[dict, bool]:
    spec = _load_json(args.observations)
    obs = load_input("estimate-decoy", spec)
    nu = _CONVERT["nu"](spec["nu"])
    payload: dict = {"nu": [nu.v0, nu.v1, nu.v2], "observations": spec}
    try:
        if nu.v2 == 0.0:
            payload["q1"], payload["r1"], payload["clamped"] = \
                decoy_mod.estimate_vacuum_single(nu, obs)
        else:
            if obs.symmetric():
                payload["interval"] = vars(decoy_mod.estimate_interval_symmetric(nu, obs))
            q_best, r_best, value = decoy_mod.minimize_key_term(nu, obs)
            payload["key_term_minimum"] = {"q1": q_best, "r1": r_best,
                                           "value": value}
    except InfeasibleObservation as exc:
        payload["infeasible"] = str(exc)
    return payload, "infeasible" not in payload


def cmd_rates(args) -> tuple[dict, bool]:
    spec = _load_json(args.params)
    rows = [spec]
    if isinstance(spec, dict) and "sweep" in spec:
        _check_keys(spec, ("sweep",), ())
        rows = spec["sweep"]
    if not rows:
        raise ValueError("empty sweep: no rate rows to check")
    table = []
    all_ok = True
    for row in rows:
        report = rates_mod.verify_rate_ordering(load_input("rates", row))
        entry = dict(row)
        entry.update({name: val for name, val in report.rates.items()})
        entry["no_key"] = {name: val <= 0 for name, val in report.rates.items()}
        entry["ordering_ok"] = report.all_ok
        all_ok &= report.all_ok
        table.append(entry)
    return {"rows": table, "ordering_ok": all_ok}, all_ok


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoybb84",
        description="Finite-length decoy-state BB84 security toolkit")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed for all randomness")
    parser.add_argument("--out", help="write the report to this path")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    # Each subcommand sets whether its report records --seed and the names
    # of the flags whose input files it records.
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-toeplitz",
                       help="exhaustive 2^-m universality check")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--full", action="store_true",
                   help="include the full per-Z profile in the report")
    p.add_argument("--guard-override", type=int, default=DEFAULT_SEED_GUARD, metavar="N",
                   help="seed guard: refuse more than 2^N seeds (default %(default)s)")
    p.set_defaults(func=cmd_verify_toeplitz, seeded=False, input_flags=())

    p = sub.add_parser("oracle-check",
                       help="exact Eve figures vs closed-form bounds")
    p.add_argument("--suite-size", type=int, default=1000)
    p.add_argument("--l-min", type=int, default=1)
    p.add_argument("--l-max", type=int, default=3)
    p.add_argument("--provable-only", action="store_true",
                   help="check only the sound bound legs (the linear "
                        "trace-norm inequalities are a known defect)")
    p.set_defaults(func=cmd_oracle_check, seeded=True, input_flags=())

    p = sub.add_parser("simulate", help="run protocol sessions")
    p.add_argument("--config", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--transcript",
                   help="dump the first session's announcement log here")
    p.set_defaults(func=cmd_simulate, seeded=True, input_flags=("config", "strategy"))

    p = sub.add_parser("bound", help="evaluate bound formulas on a JSON file")
    p.add_argument("--inputs", required=True)
    p.set_defaults(func=cmd_bound, seeded=False, input_flags=("inputs",))

    p = sub.add_parser("estimate-decoy", help="decoy estimators on a JSON file")
    p.add_argument("--observations", required=True)
    p.set_defaults(func=cmd_estimate_decoy, seeded=False, input_flags=("observations",))

    p = sub.add_parser("rates", help="key-rate table and ordering report")
    p.add_argument("--params", required=True)
    p.set_defaults(func=cmd_rates, seeded=False, input_flags=("params",))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        payload, ok = args.func(args)
        report = build_report(args.command, payload, seed=args.seed if args.seeded else None,
                              config_paths=tuple(getattr(args, f) for f in args.input_flags))
        _write(args.out, to_json(report) if args.format == "json" else to_text(report))
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    except (ValueError, KeyError, TypeError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
