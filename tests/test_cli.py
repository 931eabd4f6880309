"""CLI: exit codes, report envelopes, golden-byte reproducibility."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from decoybb84 import cli as cli_mod
from decoybb84.channel import ChannelStrategy
from decoybb84.cli import INPUT_FORMATS, build_parser, input_keys, load_input, main, \
    parse_key_values
from decoybb84.decoy import SourceDistribution
from decoybb84.protocol import SessionConfig
from decoybb84.reports import SCHEMA

README = Path(__file__).resolve().parents[1] / "README.md"

NOISELESS_STRATEGY = """\
p_dark = 0.0
q_vacuum = 0.0
q_single = 1.0
q_multi_times = 1.0
q_multi_plus = 1.0
single_error_times = [1.0, 0.0, 0.0, 0.0]
single_error_plus = [1.0, 0.0, 0.0, 0.0]
multi_flip_times = 0.0
multi_flip_plus = 0.0
"""

SESSION_CONFIG = """\
n = 64
n_bar = 64
n_under = 8
n_prime = 512
nus = [[0.0, 1.0, 0.0]]
i0 = 1
p_bar = [0.1, 0.45, 0.45]
"""

BOUND_INPUTS = {
    "j0": 1, "j1": 8, "j2": 1, "j3": 0, "j4": 1, "j5": 0, "m": 6,
    "n_bar": 10, "n_under": 2, "t_distribution": {"0": 0.6, "1": 0.4},
}

OBSERVATIONS = {
    "nu": [0.5, 0.5, 0.0], "p0": 0.01, "p_dark": 0.001,
    "p_nu_times": 0.1055, "s_nu_times": 0.10900473933649289,
}

RATE_PARAMS = {
    "nu": [0.5, 0.5, 0.0], "q1": 0.2, "r1": 0.0875, "p0": 0.01,
    "p_dark": 0.001, "p_nu_plus": 0.1055, "s_nu_plus": 0.109,
}

# Forward K2 (J2 + J4 + J5 = 6) and reverse K2 (J0 + J2 = 2) differ here,
# and the n_bar / n_under legs are unset.
BOUND_INPUTS_SPLIT_K2 = {
    "j0": 1, "j1": 6, "j2": 1, "j3": 0, "j4": 2, "j5": 3, "m": 12,
    "t_distribution": {"0": 0.5, "1": 0.3, "2": 0.2},
}

# A source with multi-photon weight: the interval estimators run.
INTERVAL_OBSERVATIONS = {
    "nu": [0.3, 0.6, 0.1], "p0": 0.01, "p_dark": 0.001,
    "p_nu_times": 0.2, "s_nu_times": 0.05,
}

# The + basis counts more than the x basis, so only key_term_minimum is
# reported, at the corner where the + basis multi-photon yield is capped.
ASYMMETRIC_OBSERVATIONS = dict(INTERVAL_OBSERVATIONS, p_nu_plus=0.21, s_nu_plus=0.06)

# The last row has r1 > 1/2, where hbar is clamped to 1.
RATE_SWEEP = {"sweep": [RATE_PARAMS, dict(RATE_PARAMS, q1=0.3),
                        dict(RATE_PARAMS, r1=0.6)]}

ORACLE_ARGS = ["oracle-check", "--suite-size", "20", "--l-max", "2"]

# name -> (command line after the global options, JSON input appended as
# the last argument (or None), exit code, manifest digest)
PINNED_REPORTS = {
    "bound": (["bound", "--inputs"], BOUND_INPUTS, 0,
        "985fa12d57554b48d9656cef355bbcfe7cdd2fb2a4021d772677d1fb2a86ae38"),
    "bound-split-k2": (["bound", "--inputs"], BOUND_INPUTS_SPLIT_K2, 0,
        "161766c7417f5c6aa9f9797690c5e0706800a43a9af2701a0cc5a0c234f5341c"),
    "rates": (["rates", "--params"], RATE_PARAMS, 0,
        "3d440303a05cb65b64e91046556f8dcd241f2d880e06757ffec5deb5b2fdff2a"),
    "rates-sweep": (["rates", "--params"], RATE_SWEEP, 0,
        "ca630c41a2a8a0686fcff8e5e8d81e0766d0af678be533bd692d15a391fbc7f6"),
    "estimate-decoy-vacuum-single": (["estimate-decoy", "--observations"],
                                     OBSERVATIONS, 0,
        "26722a0ccf9ce78cae791e08849ee5b4da8bbc3d7f5fbc67fe9a38be47be9e8a"),
    "estimate-decoy-interval": (["estimate-decoy", "--observations"],
                                INTERVAL_OBSERVATIONS, 0,
        "1ce169c4aff0e3a567a3949faee0b21d0d14c735031c257159d41d53d811e7a5"),
    "estimate-decoy-infeasible": (["estimate-decoy", "--observations"],
                                  dict(OBSERVATIONS, p0=0.9), 1,
        "ba69d2dd436fcccaaee3d3e4936a57c06bd0fa8a2e140e0c037af1e90664943e"),
    "estimate-decoy-asymmetric": (["estimate-decoy", "--observations"],
                                  ASYMMETRIC_OBSERVATIONS, 0,
        "e0375d80b6fe255ac58831e064ed894a7fc1e1915f044e0cef2719fa3706967e"),
    "estimate-decoy-asymmetric-detector-error": (["estimate-decoy", "--observations"],
                                                 dict(ASYMMETRIC_OBSERVATIONS, p_s=0.02), 0,
        "50968899b9ff42167b7dd86a0632d23db9d10e2aca1a5c8dcf01d237ae61dddd"),
    "oracle-check-provable": (ORACLE_ARGS + ["--provable-only"], None, 0,
        "d90648b2f8d345340e496e874ea74cb9a79be9a912883695fd377986097040e7"),
    "oracle-check": (ORACLE_ARGS, None, 1,
        "f212e696996cecd51bfdca3ac2066e8f91528a3d2c78cbfd37934602ca8c0d74"),
}

# A strategy that takes every channel branch: dark counts, spurious vacuum
# clicks, both single-photon laws and multi-photon flips in both bases.
PIN_STRATEGY = """\
p_dark = 0.01
q_vacuum = 0.02
q_single = 0.6
q_multi_times = 0.8
q_multi_plus = 0.7
single_error_times = [0.93, 0.04, 0.02, 0.01]
single_error_plus = [0.9, 0.06, 0.01, 0.03]
multi_flip_times = 0.03
multi_flip_plus = 0.06
"""

# Two decoy distributions with multi-photon weight, detector errors in both
# bases.  The default m-rule aborts every session at step 6.
PIN_SESSION = """\
n = 16
n_bar = 16
n_under = 2
n_prime = 3000
nus = [[0.05, 0.75, 0.2], [0.4, 0.5, 0.1]]
i0 = 1
p_bar = [0.1, 0.25, 0.2, 0.25, 0.2]
p_s = 0.01
p_s_tilde = 0.02
"""

PIN_CONSTANT_M = 'm_rule = "constant:6"\n'

# name -> (session config, strategy, trials)
PIN_CASES = {
    "forward": (PIN_SESSION + PIN_CONSTANT_M, PIN_STRATEGY, 4),
    "reverse": (PIN_SESSION + PIN_CONSTANT_M + 'ec_direction = "reverse"\n',
                PIN_STRATEGY, 4),
    "step6-abort": (PIN_SESSION, PIN_STRATEGY, 2),
    "step4-abort": (PIN_SESSION.replace("n_prime = 3000", "n_prime = 200"),
                    PIN_STRATEGY, 3),
    "noiseless": (SESSION_CONFIG, NOISELESS_STRATEGY, 2),
}

# name -> (manifest digest, SHA-256 of the trial-0 transcript file)
PINNED_SIMULATE = {
    "forward": ("14b4a87651e51090b6cbd4208bef526c656f6d84140032a148cb117c507befe3",
                "497e9aa55b35de64da2f3d2e2476410870d4f00ded2c4de662fd4041215fa088"),
    "reverse": ("f5d8447475a9108b9116cb83e1f8d694c3978884dfd2bdf286f966efae5f91c9",
                "59f5dc57034aa70754597a0e42d9225ffdedf2eca8d9f7a14e293d048ed34f9d"),
    "step6-abort": ("4a3fb96698cf3d95a416f22369f6097b5c17c5f636f2337c9decb55f6357c678",
                    "8fcf405fb7ebe96b7bf1b564118dde37b3d55d6adf811a39d08b1e748c872ae1"),
    "step4-abort": ("6b4ffeea95041392a175f4845478239c99dd1bf8ffaa7439448409a591437cb1",
                    "cbdcb17153ce22fcfb8fd52cdb04363de3540445757430bc35552b7e7a1a71e3"),
    "noiseless": ("bb588a2d5986ba248eb01670d2fc724cac2c4dc550be52d9c9f92ddf4c5e27fc",
                  "cf6494bf02af4d8db9775f9cf9c331346841b4261491a42a4aff151b457f2f50"),
}


class TestVerifyToeplitz:
    def test_small_pass(self, tmp_path, capsys):
        assert main(["verify-toeplitz", "--l", "1", "--m", "1"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_l3_m3(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["--format", "json", "--out", str(out),
                   "verify-toeplitz", "--l", "3", "--m", "3"])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["schema"] == SCHEMA
        assert report["payload"]["result"] == "PASS"
        assert report["payload"]["summary"]["max_fraction"] == \
            {"num": 1, "den": 8}

    def test_capacity_guard_exit_2(self, capsys):
        assert main(["verify-toeplitz", "--l", "20", "--m", "10"]) == 2

    def test_guard_override_zero_is_applied(self, capsys):
        # A 0 override is a guard of 2^0 seeds, not "no override".
        assert main(["verify-toeplitz", "--l", "1", "--m", "1", "--guard-override", "0"]) == 2
        assert "exceeds guard 2^0" in capsys.readouterr().err

    def test_summary_builds_no_count_array(self, tmp_path):
        # Without --full only the 2^l ranks and image bases are built; the
        # counts at (13, 12) would be a 2^25-entry int64 array (256 MiB).
        tracemalloc.start()
        try:
            rc = main(["--format", "json", "--out", str(tmp_path / "r.json"),
                       "verify-toeplitz", "--l", "13", "--m", "12", "--guard-override", "24"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 32 << 20, peak

    @pytest.mark.parametrize("command", [["oracle-check", "--suite-size", "1"],
                                         ["bound", "--inputs", "{inputs}"]],
                             ids=["oracle-check", "bound"])
    def test_guard_override_elsewhere_exit_2(self, tmp_path, capsys, command):
        # Only verify-toeplitz has the flag; argparse rejects it elsewhere.
        inputs, out = tmp_path / "b.json", tmp_path / "r.json"
        inputs.write_text(json.dumps(BOUND_INPUTS))
        argv = ["--out", str(out)] + command + ["--guard-override", "24"]
        assert main([a.format(inputs=inputs) for a in argv]) == 2
        assert "unrecognized arguments: --guard-override 24" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("l,m", [(0, 3), (-1, 2), (2, -1)])
    def test_bad_l_m_exit_2(self, capsys, l, m):
        assert main(["verify-toeplitz", "--l", str(l), "--m", str(m)]) == 2
        assert capsys.readouterr().err == "error: need l >= 1 and m >= 0\n"

    # Manifest digests of the exact payloads, with and without --full.
    PINNED = {
        (1, 1, False): "7505ed04ae73c785f5f38a5c0a2ee0706e8968b599280fb09e67da5abcd91bd0",
        (1, 1, True): "b8ee962d8a20e7c705fd78d7c0600277245fcb9eb1f5608e356d89c54c568658",
        (2, 3, False): "112c705001219b63c5a23e38c3fdc4510f389a4c3f5ef22ead8a7802efa96aba",
        (2, 3, True): "616322fff7af978c2da0a9e3af5ee3cc8caa86168b1a53921c752bab668a4e8d",
        (3, 3, False): "c52ed3683d9949b942992eb17655b1c64d791975e7605d54e7c24cf24a974106",
        (3, 3, True): "74ca9c9c051c783f37c554ce82924be10a7ec2cdb95627d4e1e4a2ed8646ad4d",
        (4, 4, False): "012bbf956be97c64be00d477d1847ba699709648a46decd55711076f9753f11b",
        (4, 4, True): "24764c28f84c61a395b4b867656016d6172d35240295ef30046699ce9ca32157",
    }

    @pytest.mark.parametrize("l,m,full", sorted(PINNED))
    def test_pinned_digest(self, tmp_path, l, m, full):
        out = tmp_path / "r.json"
        rc = main(["--format", "json", "--out", str(out), "verify-toeplitz",
                   "--l", str(l), "--m", str(m)] + (["--full"] if full else []))
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["manifest"]["digest"] == self.PINNED[(l, m, full)]
        if full:
            assert len(report["payload"]["profile"]) == (1 << (l + m)) - 1


class TestOracleCheck:
    def test_provable_subset_passes(self, capsys):
        rc = main(["--seed", "5", "oracle-check", "--suite-size", "30",
                   "--l-max", "2", "--provable-only"])
        assert rc == 0

    def test_full_suite_reports_known_defect(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["--seed", "5", "--format", "json", "--out", str(out),
                   "oracle-check", "--suite-size", "60", "--l-max", "2"])
        report = json.loads(out.read_text())
        holds = report["payload"]["holds"]
        assert rc == 1
        assert holds["info_bound"] and holds["pair_fidelity"]
        assert holds["avg_fidelity"] and holds["success"]
        assert not holds["pair_trace_norm"]
        assert "note" in report["payload"]

    @pytest.mark.parametrize("flags", [["--suite-size", "0"], ["--l-min", "3", "--l-max", "2"]],
                             ids=["empty-suite", "empty-l-range"])
    def test_empty_check_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "r.json"
        rc = main(["--format", "json", "--out", str(out), "oracle-check"] + flags)
        assert rc == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flags,message", [
        (["--l-max", "5"], "l=5 exceeds oracle guard 4"),
        (["--l-min", "0"], "l must be >= 1"),
    ], ids=["above-guard", "below-1"])
    def test_width_checked_before_any_suite(self, monkeypatch, capsys, flags, message):
        # A width outside 1..ORACLE_GUARD_L exits 2 before any figure is computed.
        real, calls = cli_mod.oracle_mod.pairwise_figures, []
        monkeypatch.setattr(cli_mod.oracle_mod, "pairwise_figures",
                            lambda dist: calls.append(dist) or real(dist))
        assert main(["oracle-check", "--suite-size", "2"] + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []


def readme_block(name: str) -> str:
    """The README's example file ``name``, from its ``# name`` line."""
    block = re.search(rf"```\n(# {re.escape(name)}\n.*?)```", README.read_text(), re.S)
    assert block, f"README has no {name} block"
    return block.group(1)


@pytest.fixture()
def session_files(tmp_path):
    cfg = tmp_path / "session.cfg"
    strat = tmp_path / "strategy.cfg"
    cfg.write_text(SESSION_CONFIG)
    strat.write_text(NOISELESS_STRATEGY)
    return cfg, strat


class TestSimulate:
    def test_noiseless_completes(self, session_files, tmp_path):
        cfg, strat = session_files
        out = tmp_path / "r.json"
        rc = main(["--format", "json", "--out", str(out), "simulate",
                   "--config", str(cfg), "--strategy", str(strat),
                   "--trials", "2"])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["payload"]["statuses"]["completed"] == 2
        for session in report["payload"]["sessions"]:
            assert session["keys_match"]

    def test_each_outcome_keeps_its_trial_seed(self, session_files, tmp_path, monkeypatch):
        # Trial i runs on a config of its own, so an outcome kept past its
        # trial still reads seed --seed + i, not the last trial's.
        cfg, strat = session_files
        run, kept = cli_mod.run_session, []

        def keep(config, strategy):
            kept.append(run(config, strategy))
            return kept[-1]

        monkeypatch.setattr(cli_mod, "run_session", keep)
        assert main(["--out", str(tmp_path / "r.txt"), "--seed", "5", "simulate",
                     "--config", str(cfg), "--strategy", str(strat), "--trials", "3"]) == 0
        assert [out.config.rng_seed for out in kept] == [5, 6, 7]

    def test_golden_bytes(self, session_files, tmp_path):
        cfg, strat = session_files
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["--format", "json", "simulate", "--config", str(cfg),
                "--strategy", str(strat)]
        assert main(["--out", str(a)] + args) == 0
        assert main(["--out", str(b)] + args) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("name", sorted(PIN_CASES))
    def test_pinned_outputs(self, tmp_path, name):
        session, strategy, trials = PIN_CASES[name]
        cfg, strat = tmp_path / "session.cfg", tmp_path / "strategy.cfg"
        cfg.write_text(session)
        strat.write_text(strategy)
        out, log = tmp_path / "r.json", tmp_path / "t.log"
        rc = main(["--format", "json", "--out", str(out), "simulate",
                   "--config", str(cfg), "--strategy", str(strat),
                   "--trials", str(trials), "--transcript", str(log)])
        assert rc == 0
        digest = json.loads(out.read_text())["manifest"]["digest"]
        transcript = hashlib.sha256(log.read_bytes()).hexdigest()
        assert (digest, transcript) == PINNED_SIMULATE[name]

    def test_readme_example_runs(self, tmp_path):
        paths = []
        for name in ("session.cfg", "strategy.cfg"):
            paths.append(tmp_path / name)
            paths[-1].write_text(readme_block(name))
        out = tmp_path / "r.json"

        def simulate(trials):
            rc = main(["--format", "json", "--out", str(out), "simulate", "--config",
                       str(paths[0]), "--strategy", str(paths[1]), "--trials", str(trials)])
            assert rc == 0  # an n = 64, n_prime = 512 session exits 2 within 20 trials
            payload = json.loads(out.read_text())["payload"]
            done = [s for s in payload["sessions"] if s["status"] == "completed"]
            return (payload["statuses"], sum(s["abort_step"] == 6 for s in payload["sessions"]),
                    sum(s["keys_match"] for s in done),
                    sum(s["plus"]["ec_success"] and s["times"]["ec_success"] for s in done))

        assert simulate(20)[0]["completed"] == 20
        # The README's 128-trial figures: all complete, keys match in 61, EC
        # succeeds in both bases in 60; margin_bits = 4 aborts 87 at step 6.
        statuses, step6, matched, ec_both = simulate(128)
        assert (statuses["completed"], step6, matched, ec_both) == (128, 0, 61, 60)
        session = paths[0].read_text()
        assert "margin_bits = 0\n" in session
        paths[0].write_text(session.replace("margin_bits = 0\n", "margin_bits = 4\n"))
        _, step6, matched, _ = simulate(128)
        assert (step6, matched) == (87, 21)

    def test_nan_probabilities_exit_2(self, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(SESSION_CONFIG.replace("p_bar = [0.1,", "p_bar = [NaN,"))
        strat = tmp_path / "strategy.cfg"
        strat.write_text(NOISELESS_STRATEGY)
        assert main(["simulate", "--config", str(cfg), "--strategy", str(strat)]) == 2
        cfg.write_text(SESSION_CONFIG)
        strat.write_text(NOISELESS_STRATEGY.replace("[1.0, 0.0, 0.0, 0.0]\nmulti",
                                                    "[NaN, 0.0, 0.0, 1.0]\nmulti"))
        assert main(["simulate", "--config", str(cfg), "--strategy", str(strat)]) == 2

    def test_rng_seed_key_exit_2(self, session_files, capsys):
        # Trial seeds come from --seed, so a session file may not set one.
        cfg, strat = session_files
        cfg.write_text(SESSION_CONFIG + "rng_seed = 7\n")
        assert main(["simulate", "--config", str(cfg), "--strategy", str(strat)]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ('m_rule = "bogus"', "unknown m_rule"),
        ('m_rule = "constant:x"', "unknown m_rule"),
        ("m_rule = 5", "unknown m_rule"),
        ('eta = "shannon"', "unknown key"),
    ], ids=["bogus", "constant-x", "int", "eta"])
    def test_bad_session_key_exit_2_before_step_6(self, tmp_path, capsys, line, message):
        # n_prime = 60 aborts every trial at step 4, before the m-rule runs.
        cfg, strat = tmp_path / "session.cfg", tmp_path / "strategy.cfg"
        session = PIN_SESSION.replace("n_prime = 3000", "n_prime = 60")
        strat.write_text(PIN_STRATEGY)
        args = ["simulate", "--config", str(cfg), "--strategy", str(strat), "--trials", "3"]
        cfg.write_text(session)
        assert main(["--out", str(tmp_path / "r.txt")] + args) == 0
        cfg.write_text(session + line + "\n")
        assert main(args) == 2
        assert message in capsys.readouterr().err

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n = nope\n")
        strat = tmp_path / "s.cfg"
        strat.write_text(NOISELESS_STRATEGY)
        rc = main(["simulate", "--config", str(bad), "--strategy", str(strat)])
        assert rc == 2

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_empty_simulation_exit_2(self, session_files, tmp_path, capsys, trials):
        cfg, strat = session_files
        out = tmp_path / "r.json"
        rc = main(["--out", str(out), "simulate", "--config", str(cfg),
                   "--strategy", str(strat), "--trials", trials])
        assert rc == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: --trials must be at least 1\n"

    @pytest.mark.parametrize("session,strategy", [
        (SESSION_CONFIG.replace("nus = [[0.0, 1.0, 0.0]]", "nus = 5"), NOISELESS_STRATEGY),
        (SESSION_CONFIG, NOISELESS_STRATEGY.replace("p_dark = 0.0", 'p_dark = "a"')),
    ], ids=["nus-int", "p-dark-str"])
    def test_wrong_value_type_exit_2(self, tmp_path, capsys, session, strategy):
        cfg, strat = tmp_path / "session.cfg", tmp_path / "strategy.cfg"
        cfg.write_text(session)
        strat.write_text(strategy)
        assert main(["simulate", "--config", str(cfg), "--strategy", str(strat)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_code_longer_than_64_bits_exit_2(self, tmp_path, capsys):
        # No sacrifice bits and a noisy single-photon channel leave an EC
        # code of N = 100 bits that the received word misses.
        cfg, strat = tmp_path / "session.cfg", tmp_path / "strategy.cfg"
        cfg.write_text("n = 100\nn_bar = 100\nn_under = 2\nn_prime = 20000\n"
                       "nus = [[0.0, 1.0, 0.0]]\ni0 = 1\np_bar = [0.1, 0.45, 0.45]\n"
                       'm_rule = "constant:0"\n')
        strat.write_text("p_dark = 0.001\nq_vacuum = 0.001\nq_single = 0.6\n"
                         "q_multi_times = 0.7\nq_multi_plus = 0.7\n"
                         "single_error_times = [0.55, 0.15, 0.15, 0.15]\n"
                         "single_error_plus = [0.55, 0.15, 0.15, 0.15]\n"
                         "multi_flip_times = 0.05\nmulti_flip_plus = 0.05\n")
        args = ["simulate", "--config", str(cfg), "--strategy", str(strat), "--trials", "1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: code length N=100 exceeds") and err.count("\n") == 1


class TestBound:
    def test_values_and_ordering(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(BOUND_INPUTS))
        out = tmp_path / "r.json"
        rc = main(["--format", "json", "--out", str(out),
                   "bound", "--inputs", str(path)])
        assert rc == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["ordering_ok"]
        assert payload["twoway_bound"] >= payload["forward_bound"]
        assert payload["twoway_bound"] >= payload["reverse_bound"]

    def test_bad_t_distribution_exit_2(self, tmp_path):
        spec = dict(BOUND_INPUTS)
        spec["t_distribution"] = {"0": 0.5}
        path = tmp_path / "b.json"
        path.write_text(json.dumps(spec))
        assert main(["bound", "--inputs", str(path)]) == 2

    def test_nan_t_distribution_exit_2(self, tmp_path, capsys):
        # NaN is a usage error, not a failed check (exit 1).
        path = tmp_path / "b.json"
        path.write_text(json.dumps(dict(BOUND_INPUTS, t_distribution={"0": float("nan"), "1": 1.0})))
        assert main(["bound", "--inputs", str(path)]) == 2
        assert "t_distribution" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [[], dict(BOUND_INPUTS, m="x")], ids=["list", "m-str"])
    def test_wrong_value_type_exit_2(self, tmp_path, capsys, spec):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(spec))
        assert main(["bound", "--inputs", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("field,value", [
        ("j1", 8.5), ("m", 6.5), ("j1", True), ("j0", -1), ("n_under", 0), ("n_bar", 0),
    ], ids=["j1-float", "m-float", "j1-bool", "j0-negative", "n_under-0", "n_bar-0"])
    def test_bad_count_exit_2(self, tmp_path, capsys, field, value):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(dict(BOUND_INPUTS, **{field: value})))
        assert main(["bound", "--inputs", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be an integer >= ") and err.count("\n") == 1


    @pytest.mark.parametrize("t_dist", [[], "0.5", 1], ids=["list", "str", "int"])
    def test_non_object_t_distribution_exit_2(self, tmp_path, capsys, t_dist):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(dict(BOUND_INPUTS, t_distribution=t_dist)))
        assert main(["bound", "--inputs", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: t_distribution") and err.count("\n") == 1


# case -> (command line ending in the flag of the bad input file, its
# contents (JSON unless a string), the one error line).  "{session}" and
# "{strategy}" name valid files for the other input of simulate.
BOUND_FLAG = ["bound", "--inputs"]
DECOY_FLAG = ["estimate-decoy", "--observations"]
RATES_FLAG = ["rates", "--params"]
SESSION_FLAG = ["simulate", "--strategy", "{strategy}", "--config"]
STRATEGY_FLAG = ["simulate", "--config", "{session}", "--strategy"]


def _drop(spec: dict, key: str) -> dict:
    return {k: v for k, v in spec.items() if k != key}


BAD_INPUTS = {
    "unknown-bound": (BOUND_FLAG, {"j1": 8, "m": 6, "t_distribution": {"0": 0.6, "1": 0.4},
                                   "bogus": 1, "n_bar": 10}, "unknown key 'bogus'"),
    "unknown-estimate-decoy": (DECOY_FLAG, dict(OBSERVATIONS, p_nu_tims=0.1),
                               "unknown key 'p_nu_tims'"),
    # No estimator reads a + basis flip rate, so the file may not give one.
    "unknown-estimate-decoy-p_s_tilde": (DECOY_FLAG, dict(OBSERVATIONS, p_s_tilde=0.1),
                                         "unknown key 'p_s_tilde'"),
    "unknown-rates": (RATES_FLAG, dict(RATE_PARAMS, bogus=1), "unknown key 'bogus'"),
    "unknown-rates-sweep-row": (RATES_FLAG, {"sweep": [RATE_PARAMS, dict(RATE_PARAMS, n_undr=2)]},
                                "unknown key 'n_undr'"),
    "unknown-rates-sweep": (RATES_FLAG, {"sweep": [RATE_PARAMS], "q1": 0.3}, "unknown key 'q1'"),
    "unknown-session": (SESSION_FLAG, SESSION_CONFIG + "n_undr = 8\n", "unknown key 'n_undr'"),
    "unknown-strategy": (STRATEGY_FLAG, NOISELESS_STRATEGY + "q_multi = 1.0\n",
                         "unknown key 'q_multi'"),
    "missing-bound-m": (BOUND_FLAG, _drop(BOUND_INPUTS, "m"), "missing key 'm'"),
    "missing-bound-t": (BOUND_FLAG, _drop(BOUND_INPUTS, "t_distribution"),
                        "missing key 't_distribution'"),
    "missing-estimate-decoy-nu": (DECOY_FLAG, _drop(OBSERVATIONS, "nu"), "missing key 'nu'"),
    "missing-estimate-decoy-p0": (DECOY_FLAG, _drop(OBSERVATIONS, "p0"), "missing key 'p0'"),
    "missing-rates": (RATES_FLAG, _drop(RATE_PARAMS, "q1"), "missing key 'q1'"),
    "missing-rates-sweep-row": (RATES_FLAG, {"sweep": [RATE_PARAMS, _drop(RATE_PARAMS, "r1")]},
                                "missing key 'r1'"),
    "missing-session": (SESSION_FLAG, SESSION_CONFIG.replace("n_prime = 512\n", ""),
                        "missing key 'n_prime'"),
    "duplicate-bound": (BOUND_FLAG, '{"j1": 8, "m": 600, "m": 6, '
                        '"t_distribution": {"0": 0.6, "1": 0.4}}', "duplicate key 'm'"),
    "duplicate-bound-t": (BOUND_FLAG, '{"j1": 8, "m": 6, '
                          '"t_distribution": {"0": 0.6, "0": 0.4}}', "duplicate key '0'"),
    # "1" and "01" are distinct JSON keys that name one t.
    "twice-bound-t": (BOUND_FLAG, dict(BOUND_INPUTS, t_distribution={"1": 0.0, "01": 1.0}),
                      "t_distribution key '01' names t=1 twice"),
    "duplicate-estimate-decoy": (DECOY_FLAG, json.dumps(OBSERVATIONS)[:-1] + ', "p0": 0.5}',
                                 "duplicate key 'p0'"),
    "duplicate-rates-sweep-row": (RATES_FLAG, '{"sweep": [' + json.dumps(RATE_PARAMS)[:-1]
                                  + ', "q1": 0.3}]}', "duplicate key 'q1'"),
    "duplicate-session": (SESSION_FLAG, SESSION_CONFIG + "n_bar = 32\n", "duplicate key 'n_bar'"),
    "duplicate-strategy": (STRATEGY_FLAG, NOISELESS_STRATEGY + "p_dark = 0.5\n",
                           "duplicate key 'p_dark'"),
    "list-bound": (BOUND_FLAG, [BOUND_INPUTS], "expected a JSON object, got list"),
    "null-estimate-decoy": (DECOY_FLAG, None, "expected a JSON object, got NoneType"),
    "number-rates": (RATES_FLAG, 3, "expected a JSON object, got int"),
    "float-session-i0": (SESSION_FLAG, SESSION_CONFIG.replace("i0 = 1\n", "i0 = 1.0\n"),
                         "i0 must be an integer, got 1.0"),
    "float-session-n": (SESSION_FLAG, SESSION_CONFIG.replace("n = 64\n", "n = 24.5\n"),
                        "n must be an integer, got 24.5"),
    "negative-session-m_rule": (SESSION_FLAG, SESSION_CONFIG + 'm_rule = "constant:-3"\n',
                                "m_rule 'constant:-3' needs K >= 0"),
    "half-session-p_s": (SESSION_FLAG, SESSION_CONFIG + "p_s = 0.6\n",
                         "p_s=0.6 must be below 1/2"),
    "half-session-p_s_tilde": (SESSION_FLAG, SESSION_CONFIG + "p_s_tilde = 0.5\n",
                               "p_s_tilde=0.5 must be below 1/2"),
    "half-estimate-decoy-p_s": (DECOY_FLAG, dict(OBSERVATIONS, p_s=0.5),
                                "p_s=0.5 must be below 1/2"),
    # A bool or a string is not a probability, whatever number it spells.
    "bool-strategy-p_dark": (STRATEGY_FLAG,
                             NOISELESS_STRATEGY.replace("p_dark = 0.0", "p_dark = true"),
                             "p_dark must be a real number, got True"),
    "bool-session-nus": (SESSION_FLAG, SESSION_CONFIG.replace("[[0.0, 1.0, 0.0]]",
                                                              "[[false, true, false]]"),
                         "source distribution must hold real numbers only"),
    "mixed-session-nus": (SESSION_FLAG, SESSION_CONFIG.replace("[[0.0, 1.0, 0.0]]",
                                                               "[[0.0, true, 0.0]]"),
                          "source distribution must hold real numbers only"),
    "bool-session-p_bar": (SESSION_FLAG, SESSION_CONFIG.replace("[0.1, 0.45, 0.45]",
                                                                "[false, true, false]"),
                           "p_bar must hold real numbers only"),
    "bool-bound-t": (BOUND_FLAG, dict(BOUND_INPUTS, t_distribution={"0": True}),
                     "t_distribution must hold real numbers only"),
    "mixed-bound-t": (BOUND_FLAG, dict(BOUND_INPUTS, t_distribution={"0": 0.0, "1": True}),
                      "t_distribution must hold real numbers only"),
    "string-bound-t": (BOUND_FLAG, dict(BOUND_INPUTS, t_distribution={"0": "0.5", "1": "0.5"}),
                       "t_distribution must hold real numbers only"),
    # null is not an object, as a list is not: no "not given" value exists.
    "null-bound-t": (BOUND_FLAG, dict(BOUND_INPUTS, t_distribution=None),
                     "t_distribution must be an object mapping t to its probability"),
    # Every estimator would ignore a + basis error rate without its counting rate.
    "lone-estimate-decoy-s_nu_plus": (DECOY_FLAG, dict(INTERVAL_OBSERVATIONS, s_nu_plus=0.45),
                                      "s_nu_plus needs p_nu_plus: no estimator reads a lone "
                                      "+ error rate"),
    # A guard below 1 would stop the first missed decode mid-session.
    "zero-session-decode_guard": (SESSION_FLAG, SESSION_CONFIG + "decode_guard = 0\n",
                                  "decode_guard must be at least 1, got 0"),
    "negative-session-decode_guard": (SESSION_FLAG, SESSION_CONFIG + "decode_guard = -5\n",
                                      "decode_guard must be at least 1, got -5"),
    "no-equals-session": (SESSION_FLAG, SESSION_CONFIG + "n_bar\n",
                          "line 8: expected 'key = value'"),
    "three-strategy-single_error_plus": (
        STRATEGY_FLAG, NOISELESS_STRATEGY.replace("single_error_plus = [1.0, 0.0, 0.0, 0.0]",
                                                  "single_error_plus = [1.0, 0.0, 0.0]"),
        "single_error_plus must hold 4 probabilities"),
    "empty-session-nus": (SESSION_FLAG, SESSION_CONFIG.replace("[[0.0, 1.0, 0.0]]", "[]"),
                          "need at least one source distribution"),
    "short-session-p_bar": (SESSION_FLAG, SESSION_CONFIG.replace("[0.1, 0.45, 0.45]", "[0.5, 0.5]"),
                            "p_bar must have 2k+1 = 3 entries"),
    "twoway-session-ec_direction": (SESSION_FLAG, SESSION_CONFIG + 'ec_direction = "twoway"\n',
                                    "ec_direction must be 'forward' or 'reverse'"),
    "no-single-session-nus": (SESSION_FLAG, SESSION_CONFIG.replace("[[0.0, 1.0, 0.0]]",
                                                                   "[[0.5, 0.0, 0.5]]"),
                              "estimators need a nonzero single-photon weight"),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_file_exit_2(tmp_path, capsys, name):
    argv, spec, message = BAD_INPUTS[name]
    session, strategy = tmp_path / "session.cfg", tmp_path / "strategy.cfg"
    session.write_text(SESSION_CONFIG)
    strategy.write_text(NOISELESS_STRATEGY)
    path = tmp_path / "input"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    argv = [a.format(session=session, strategy=strategy) for a in argv]
    assert main(argv + [str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_readme_files_list_every_key_and_load():
    # The README's session file lists every key but the guard.
    session = parse_key_values(readme_block("session.cfg") + "decode_guard = 4096\n")
    strategy = parse_key_values(readme_block("strategy.cfg"))
    assert sorted(session) == sorted(input_keys("session")[0])
    assert sorted(strategy) == sorted(input_keys("strategy")[0])
    assert load_input("session", session) == SessionConfig(
        n=24, n_bar=24, n_under=2, n_prime=4000, nus=(SourceDistribution(0.0, 1.0, 0.0),),
        i0=1, p_bar=(0.1, 0.45, 0.45), p_s=0.0, p_s_tilde=0.0, m_rule="initial-eve-info",
        margin_bits=0, ec_direction="forward", decode_guard=4096)
    law = (0.9, 0.03, 0.04, 0.03)
    assert load_input("strategy", strategy) == ChannelStrategy(
        p_dark=0.001, q_vacuum=0.001, q_single=0.6, q_multi_times=0.7, q_multi_plus=0.7,
        single_error_times=law, single_error_plus=law,
        multi_flip_times=0.05, multi_flip_plus=0.05)


def test_readme_config_section_lists_every_input_key():
    section = re.search(r"^### Config file formats\n(.*?)^### ", README.read_text(),
                        re.S | re.M).group(1)
    for fmt in INPUT_FORMATS:
        for key in input_keys(fmt)[0]:
            assert re.search(rf"`{key}`|^{key} = ", section, re.M), (fmt, key)


@pytest.mark.parametrize("args", [
    ["bound", "--inputs"],
    ["estimate-decoy", "--observations"],
    ["rates", "--params"],
    ["simulate", "--strategy", "s.cfg", "--config"],
], ids=["bound", "estimate-decoy", "rates", "simulate"])
def test_missing_input_file_exit_2(tmp_path, capsys, args):
    # Exit 1 means a check failed; an unreadable input is a usage error.
    missing = tmp_path / "missing.json"
    assert main(args + [str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {missing}") and err.count("\n") == 1


def test_unwritable_out_exit_2(tmp_path, capsys):
    # A report that cannot be written is a usage error, not a failed check.
    out = tmp_path / "no" / "such" / "dir" / "r.txt"
    assert main(["--out", str(out), "verify-toeplitz", "--l", "2", "--m", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1
    assert not out.parent.exists()


def test_unwritable_transcript_exit_2(session_files, tmp_path, capsys):
    # The transcript goes through the report's writer, with the same error.
    cfg, strat = session_files
    log = tmp_path / "no" / "such" / "dir" / "t.log"
    assert main(["simulate", "--config", str(cfg), "--strategy", str(strat),
                 "--transcript", str(log)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: cannot write {log}") and err.count("\n") == 1
    assert out == "" and not log.parent.exists()


class TestEstimateDecoy:
    def test_round_trip_recovers_truth(self, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(OBSERVATIONS))
        out = tmp_path / "r.json"
        rc = main(["--format", "json", "--out", str(out),
                   "estimate-decoy", "--observations", str(path)])
        assert rc == 0
        payload = json.loads(out.read_text())["payload"]
        assert abs(payload["q1"] - 0.2) < 1e-12
        assert abs(payload["r1"] - 0.0875) < 1e-9

    def test_infeasible_exit_1(self, tmp_path):
        spec = dict(OBSERVATIONS)
        spec["p0"] = 0.9
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(spec))
        assert main(["estimate-decoy", "--observations", str(path)]) == 1

    def test_plus_rates_without_multi_photon_infeasible(self, tmp_path):
        # With nu2 = 0 both bases must count alike; p_nu_plus = 0.9 fits no channel.
        path = tmp_path / "obs.json"
        path.write_text(json.dumps({"nu": [0.5, 0.5, 0.0], "p0": 0.01, "p_dark": 0.001,
                                    "p_nu_times": 0.1055, "s_nu_times": 0.109,
                                    "p_nu_plus": 0.9, "s_nu_plus": 0.5}))
        out = tmp_path / "r.json"
        assert main(["--format", "json", "--out", str(out),
                     "estimate-decoy", "--observations", str(path)]) == 1
        payload = json.loads(out.read_text())["payload"]
        assert "infeasible" in payload and "q1" not in payload

    def test_asymmetric_reports_key_term_only(self, tmp_path):
        # The interval formulas need equal bases; the key-term minimum does not.
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(ASYMMETRIC_OBSERVATIONS))
        out = tmp_path / "r.json"
        assert main(["--format", "json", "--out", str(out),
                     "estimate-decoy", "--observations", str(path)]) == 0
        payload = json.loads(out.read_text())["payload"]
        assert "interval" not in payload
        assert 0.0 < payload["key_term_minimum"]["value"] < payload["key_term_minimum"]["q1"]

    def test_four_entry_nu_exit_2(self, tmp_path, capsys):
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(dict(OBSERVATIONS, nu=[0.5, 0.5, 0.0, 0.0])))
        assert main(["estimate-decoy", "--observations", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestRates:
    def test_table_row(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(RATE_PARAMS))
        out = tmp_path / "r.json"
        rc = main(["--format", "json", "--out", str(out),
                   "rates", "--params", str(path)])
        assert rc == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["ordering_ok"]

    def test_no_dark_count_degeneracy(self, tmp_path):
        params = dict(RATE_PARAMS)
        params["p_dark"] = 0.0
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params))
        out = tmp_path / "r.json"
        main(["--format", "json", "--out", str(out),
              "rates", "--params", str(path)])
        row = json.loads(out.read_text())["payload"]["rows"][0]
        assert row["bar_reverse"] == pytest.approx(row["reverse"], abs=1e-15)

    def test_no_single_photon_pool(self, tmp_path):
        # q1 = p_D = 0: the effective pool is empty, so the effective rows
        # have no photon term, and the vacuum credit alone keeps forward at 0.
        params = {"nu": [0.5, 0.5, 0.0], "q1": 0.0, "r1": 0.0, "p0": 0.01,
                  "p_dark": 0.0, "p_nu_plus": 0.005, "s_nu_plus": 0.5}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params))
        out = tmp_path / "r.json"
        assert main(["--format", "json", "--out", str(out),
                     "rates", "--params", str(path)]) == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["ordering_ok"]
        want = {"forward": 0.0, "reverse": -0.0025, "twoway": -0.0025,
                "gllp_ilm": -0.0025, "bar_forward": 0.0, "bar_reverse": -0.0025}
        assert {name: payload["rows"][0][name] for name in want} == want

    def test_sweep(self, tmp_path):
        sweep = {"sweep": [RATE_PARAMS, dict(RATE_PARAMS, q1=0.3)]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(sweep))
        out = tmp_path / "r.json"
        assert main(["--format", "json", "--out", str(out),
                     "rates", "--params", str(path)]) == 0
        assert len(json.loads(out.read_text())["payload"]["rows"]) == 2

    def test_empty_sweep_exit_2(self, tmp_path, capsys):
        # A sweep of no rows checks nothing, so it cannot report ordering_ok.
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"sweep": []}))
        out = tmp_path / "r.json"
        assert main(["--format", "json", "--out", str(out), "rates", "--params", str(path)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: empty sweep") and err.count("\n") == 1


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_module_entry_point(tmp_path):
    """``python -m decoybb84.cli`` with PYTHONPATH=src, as a separate process."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = [sys.executable, "-m", "decoybb84.cli"]
    ok = subprocess.run(run + ["--format", "json", "verify-toeplitz", "--l", "2", "--m", "2"],
                        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert ok.returncode == 0, ok.stderr
    report = json.loads(ok.stdout, parse_constant=_reject_constant)
    assert report["payload"]["result"] == "PASS"

    path = tmp_path / "b.json"
    path.write_text(json.dumps(dict(BOUND_INPUTS, t_distribution={"0": float("nan"), "1": 1.0})))
    bad = subprocess.run(run + ["bound", "--inputs", str(path)],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert bad.stderr.startswith("error: t_distribution") and bad.stderr.count("\n") == 1


class TestManifest:
    def test_digest_matches_payload(self, tmp_path):
        from decoybb84.reports import payload_digest
        path = tmp_path / "p.json"
        path.write_text(json.dumps(RATE_PARAMS))
        out = tmp_path / "r.json"
        main(["--format", "json", "--out", str(out),
              "rates", "--params", str(path)])
        report = json.loads(out.read_text())
        assert report["manifest"]["digest"] == \
            payload_digest(report["payload"])

    def test_tool_version_is_package_version(self, tmp_path):
        import tomllib

        import decoybb84
        path = tmp_path / "p.json"
        path.write_text(json.dumps(RATE_PARAMS))
        out = tmp_path / "r.json"
        main(["--format", "json", "--out", str(out), "rates", "--params", str(path)])
        pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml")
                                  .read_text())
        assert json.loads(out.read_text())["manifest"]["tool_version"] == \
            decoybb84.__version__ == pyproject["project"]["version"]

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_value_rejected(self, value):
        from decoybb84.reports import build_report, to_json
        report = build_report("rates", {"ok": 1.0})
        report["payload"]["bad"] = value
        with pytest.raises(ValueError):
            build_report("rates", {"bad": value})
        with pytest.raises(ValueError):
            to_json(report)

    @pytest.mark.parametrize("value", [np.int64(5), np.bool_(True), np.array([1, 2]), object()],
                             ids=["int64", "bool_", "array", "object"])
    def test_non_plain_value_rejected(self, value):
        # Only plain values are reported; the caller converts a numpy one.
        from decoybb84.reports import build_report
        with pytest.raises(TypeError, match=f"not {type(value).__name__}$"):
            build_report("rates", {"rows": [{"bad": value}]})


    # command line -> (seed recorded, input files recorded), from --seed 7.
    MANIFEST_CASES = {
        "verify-toeplitz": (["--l", "2", "--m", "2"], None, ()),
        "oracle-check": (["--suite-size", "2", "--l-max", "1"], 7, ()),
        "simulate": (["--config", "{cfg}", "--strategy", "{strat}"], 7, ("cfg", "strat")),
        "bound": (["--inputs", "{bound}"], None, ("bound",)),
        "estimate-decoy": (["--observations", "{obs}"], None, ("obs",)),
        "rates": (["--params", "{rates}"], None, ("rates",)),
    }

    @pytest.mark.parametrize("command", sorted(MANIFEST_CASES))
    def test_manifest_records_command_seed_and_inputs(self, tmp_path, command):
        paths = {name: tmp_path / f"{name}.in" for name in ("cfg", "strat", "bound", "obs",
                                                             "rates")}
        for name, text in (("cfg", SESSION_CONFIG), ("strat", NOISELESS_STRATEGY),
                           ("bound", json.dumps(BOUND_INPUTS)),
                           ("obs", json.dumps(OBSERVATIONS)),
                           ("rates", json.dumps(RATE_PARAMS))):
            paths[name].write_text(text)
        flags, seed, inputs = self.MANIFEST_CASES[command]
        out = tmp_path / "r.json"
        argv = ["--seed", "7", "--format", "json", "--out", str(out), command] + \
            [f.format(**paths) for f in flags]
        assert main(argv) == 0
        manifest = json.loads(out.read_text())["manifest"]
        assert (manifest["command"], manifest["seed"], manifest["config_paths"]) == \
            (command, seed, [str(paths[name]) for name in inputs])


class TestPinnedReports:
    @pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
    def test_pinned_digest(self, tmp_path, name):
        argv, spec, code, digest = PINNED_REPORTS[name]
        if spec is not None:
            path = tmp_path / "in.json"
            path.write_text(json.dumps(spec))
            argv = argv + [str(path)]
        out = tmp_path / "r.json"
        assert main(["--format", "json", "--out", str(out)] + argv) == code
        assert json.loads(out.read_text())["manifest"]["digest"] == digest


def _option_strings(parser: argparse.ArgumentParser) -> set[str]:
    """Every long flag of the parser and its subparsers, --help aside."""
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _option_strings(sub)
    return flags - {"--help"}


def test_readme_cli_section_lists_every_flag():
    readme = README.read_text()
    section = re.search(r"^## CLI\n(.*?)^## ", readme, re.S | re.M).group(1)
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == _option_strings(build_parser())
