"""CLI: exit codes, report envelopes, golden-byte reproducibility."""

import json
import re
from pathlib import Path

import pytest

from decoybb84.cli import main
from decoybb84.reports import SCHEMA

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
rng_seed = 7
"""

BOUND_INPUTS = {
    "j0": 1, "j1": 8, "j2": 1, "j3": 0, "j4": 1, "j5": 0, "m": 6, "l": 4,
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

    def test_self_test_break_fails(self):
        rc = main(["oracle-check", "--suite-size", "5", "--l-max", "1",
                   "--provable-only", "--self-test-break"])
        assert rc == 1


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

    def test_golden_bytes(self, session_files, tmp_path):
        cfg, strat = session_files
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["--format", "json", "simulate", "--config", str(cfg),
                "--strategy", str(strat)]
        assert main(["--out", str(a)] + args) == 0
        assert main(["--out", str(b)] + args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_readme_example_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paths = []
        for name in ("session.cfg", "strategy.cfg"):
            block = re.search(rf"```\n(# {re.escape(name)}\n.*?)```", readme, re.S)
            assert block, f"README has no {name} block"
            paths.append(tmp_path / name)
            paths[-1].write_text(block.group(1))
        out = tmp_path / "r.json"
        rc = main(["--format", "json", "--out", str(out), "simulate", "--config",
                   str(paths[0]), "--strategy", str(paths[1]), "--trials", "20"])
        assert rc == 0  # an n = 64, n_prime = 512 session exits 2 within 20 trials
        assert json.loads(out.read_text())["payload"]["statuses"]["completed"] == 20

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n = nope\n")
        strat = tmp_path / "s.cfg"
        strat.write_text(NOISELESS_STRATEGY)
        rc = main(["simulate", "--config", str(bad), "--strategy", str(strat)])
        assert rc == 2


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

    def test_sweep(self, tmp_path):
        sweep = {"sweep": [RATE_PARAMS, dict(RATE_PARAMS, q1=0.3)]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(sweep))
        out = tmp_path / "r.json"
        assert main(["--format", "json", "--out", str(out),
                     "rates", "--params", str(path)]) == 0
        assert len(json.loads(out.read_text())["payload"]["rows"]) == 2


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
