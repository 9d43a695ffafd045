"""End-to-end command behavior: formats, exit codes, golden structured reports."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from flashsim.cli import main

GOLDEN = Path(__file__).parent / "golden"
TRACE = Path(__file__).parents[1] / "src" / "flashsim" / "data" / "sample_trades.csv"


@pytest.fixture
def runner():
    return CliRunner()


def stable(output: str) -> dict:
    payload = json.loads(output)
    payload.pop("wall_time_s")
    payload.pop("versions")
    return payload


class TestOptimize:
    def test_paa_finds_documented_revenue(self, runner):
        res = runner.invoke(main, ["--format", "structured", "optimize",
                                   "--scenario", "pump_arbitrage", "--vector", "paa"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        solver = payload["results"]["solver"]
        assert solver["best_objective"] >= 2778.94 * 0.995
        assert solver["feasible"]
        assert payload["results"]["grid"]["best_objective"] >= 2778.94 * 0.98
        assert not payload["results"]["disagreement"]

    def test_oracle_with_ignored_liquidity_cap(self, runner):
        res = runner.invoke(main, ["--format", "structured", "optimize",
                                   "--scenario", "oracle_manipulation", "--vector", "oracle",
                                   "--ignore-constraint", "zY"])
        assert res.exit_code == 0, res.output
        solver = json.loads(res.output)["results"]["solver"]
        assert solver["best_objective"] >= 6323.93 * 0.995

    def test_oracle_enforced_notes_reference_violation(self, runner):
        res = runner.invoke(main, ["--format", "structured", "optimize",
                                   "--scenario", "oracle_manipulation", "--vector", "oracle"])
        assert res.exit_code == 0, res.output
        notes = json.loads(res.output)["results"]["notes"]
        assert any("zY" in note and "documented_optimum" in note for note in notes)

    def test_zy_cap_mode_matches_enforced_boundary(self, runner):
        res = runner.invoke(main, ["--format", "structured", "optimize",
                                   "--scenario", "oracle_manipulation", "--vector", "oracle",
                                   "--zy-cap"])
        assert res.exit_code == 0, res.output
        solver = json.loads(res.output)["results"]["solver"]
        # clamping excess borrowing makes it pure cost, so the optimum lands on
        # the same liquidity boundary as the residual-enforced solve
        assert solver["best_objective"] == pytest.approx(8135.65, rel=1e-3)

    def test_zy_cap_rejected_for_other_vectors(self, runner):
        res = runner.invoke(main, ["optimize", "--scenario", "pump_arbitrage",
                                   "--vector", "paa", "--zy-cap"])
        assert res.exit_code == 2

    def test_bound_override_flag(self, runner):
        res = runner.invoke(main, ["--format", "structured", "optimize",
                                   "--scenario", "pump_arbitrage", "--vector", "paa",
                                   "--bound", "p2:0:1344"])
        assert res.exit_code == 0, res.output
        params = json.loads(res.output)["results"]["solver"]["best_params"]
        assert params[0] == pytest.approx(2404.0, rel=1e-2)
        assert params[1] == pytest.approx(1344.0, rel=1e-2)

    def test_bad_scenario_file_exits_2_with_no_output(self, runner, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        res = runner.invoke(main, ["optimize", "--scenario", str(broken), "--vector", "paa"])
        assert res.exit_code == 2
        assert res.stdout == ""

    def test_unknown_vector_exits_2(self, runner):
        res = runner.invoke(main, ["optimize", "--scenario", "pump_arbitrage",
                                   "--vector", "mystery"])
        assert res.exit_code == 2

    def test_seeded_runs_are_identical(self, runner):
        args = ["--seed", "5", "--format", "structured", "optimize",
                "--scenario", "pump_arbitrage", "--vector", "paa"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert stable(first.output) == stable(second.output)

    @pytest.mark.parametrize("golden, args", [
        ("optimize_paa.json", ["--vector", "paa"]),
        ("optimize_described_paa.json", ["--vector", "tests/golden/describe_paa.json",
                                         "--starts", "4", "--grid-res", "40"]),
    ])
    def test_structured_golden(self, runner, monkeypatch, golden, args):
        monkeypatch.chdir(Path(__file__).parents[1])  # config echoes relative paths
        res = runner.invoke(main, ["--format", "structured", "optimize",
                                   "--scenario", "pump_arbitrage", *args])
        assert res.exit_code == 0, res.output
        assert stable(res.output) == json.loads((GOLDEN / golden).read_text())

    def test_user_vector_file_solves_via_replay(self, runner, tmp_path):
        described = runner.invoke(main, ["describe", "--scenario", "pump_arbitrage",
                                         "--vector", "paa"])
        vector_file = tmp_path / "chain.json"
        vector_file.write_text(described.output)
        res = runner.invoke(main, ["--format", "structured", "optimize",
                                   "--scenario", "pump_arbitrage",
                                   "--vector", str(vector_file),
                                   "--starts", "4", "--grid-res", "40"])
        assert res.exit_code == 0, res.output
        solver = json.loads(res.output)["results"]["solver"]
        # replay-backed objective, mechanically derived constraints
        assert solver["best_objective"] >= 2778.94 * 0.95


class TestEvaluate:
    def test_zero_params_zero_objective(self, runner):
        res = runner.invoke(main, ["--format", "structured", "evaluate",
                                   "--scenario", "pump_arbitrage", "--vector", "paa",
                                   "0", "0"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["results"]["objective"] == pytest.approx(0.0, abs=1e-9)

    def test_executed_attack_trace(self, runner):
        res = runner.invoke(main, ["evaluate", "--scenario", "pump_arbitrage",
                                   "--vector", "paa", "5500", "1300"])
        assert res.exit_code == 0, res.output
        assert "1,171" in res.output

    def test_violations_highlighted_without_strict(self, runner):
        res = runner.invoke(main, ["evaluate", "--scenario", "oracle_manipulation",
                                   "--vector", "oracle", "898.58", "546.80", "3517.86"])
        assert res.exit_code == 0, res.output
        assert "VIOLATED" in res.output

    def test_strict_mode_exits_1(self, runner):
        res = runner.invoke(main, ["--strict", "evaluate", "--scenario", "oracle_manipulation",
                                   "--vector", "oracle", "898.58", "546.80", "3517.86"])
        assert res.exit_code == 1

    def test_wrong_arity_exits_2(self, runner):
        res = runner.invoke(main, ["evaluate", "--scenario", "pump_arbitrage",
                                   "--vector", "paa", "1"])
        assert res.exit_code == 2


class TestAtomicity:
    def test_replay_matches_golden(self, runner, monkeypatch):
        monkeypatch.chdir(Path(__file__).parents[1])  # config echoes relative paths
        res = runner.invoke(main, ["--format", "structured", "atomicity",
                                   "--market", "tests/golden/market.json",
                                   "--budget", "2", "--i-values", "0,25,100,400",
                                   "--trials", "1",
                                   "--replay", "src/flashsim/data/sample_trades.csv"])
        assert res.exit_code == 0, res.output
        assert stable(res.output) == json.loads((GOLDEN / "atomicity_structured.json").read_text())

    def test_csv_rows(self, runner):
        res = runner.invoke(main, ["--format", "csv", "atomicity",
                                   "--market", str(GOLDEN / "market.json"),
                                   "--budget", "2", "--i-values", "0,10",
                                   "--trials", "5"])
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        assert lines[0] == "i,mean,ci_low,ci_high,trials"
        assert lines[1].startswith("0,0.0,")

    def test_missing_market_file_exits_2(self, runner):
        res = runner.invoke(main, ["atomicity", "--market", "no-such.json", "--budget", "1"])
        assert res.exit_code == 2

    def test_repeated_i_value_rests_on_trials_samples(self, runner):
        # a repeated i once pooled both copies into a 74-sample bootstrap
        args = ["--format", "structured", "atomicity", "--market", str(GOLDEN / "market.json"),
                "--budget", "2", "--trials", "37", "--stream-size", "900", "--i-values"]
        repeated = runner.invoke(main, [*args, "700,5,0,5"])
        once = runner.invoke(main, [*args, "700,5,0"])
        assert repeated.exit_code == once.exit_code == 0
        rows = stable(repeated.output)["results"]["rows"]
        assert rows[1] == rows[3]
        assert rows[:3] == stable(once.output)["results"]["rows"]
        assert rows[1]["ci_low"] == pytest.approx(-0.020694, abs=1e-6)


class TestClassify:
    def test_structured_golden(self, runner, monkeypatch):
        monkeypatch.chdir(Path(__file__).parents[1])
        res = runner.invoke(main, ["--format", "structured", "classify",
                                   "--input", "tests/golden/classify_input.jsonl"])
        assert res.exit_code == 0, res.output
        assert stable(res.output) == json.loads((GOLDEN / "classify_structured.json").read_text())

    def test_stdin_text_table(self, runner):
        line = json.dumps({"tx": "0x1", "touched": [], "asset": "ETH",
                           "amount": 1.0, "gas": 5.0})
        res = runner.invoke(main, ["classify", "--input", "-"], input=line + "\n")
        assert res.exit_code == 0, res.output
        assert "Total" in res.output

    def test_non_string_address_is_a_classification_error(self, runner):
        lines = [json.dumps({"tx": tx, "touched": touched, "asset": "ETH", "amount": 1.0, "gas": 5.0})
                 for tx, touched in (("0x1", [123]), ("0x2", []))]
        res = runner.invoke(main, ["--format", "structured", "classify", "--input", "-"],
                            input="\n".join(lines) + "\n")
        assert res.exit_code == 0, res.output
        results = stable(res.output)["results"]
        assert results["classification_errors"] == ["0x1: malformed address 123"]
        assert results["parse_errors"] == []


class TestDescribe:
    def test_matches_golden(self, runner):
        res = runner.invoke(main, ["describe", "--scenario", "pump_arbitrage",
                                   "--vector", "paa"])
        assert res.exit_code == 0
        assert res.output == (GOLDEN / "describe_paa.json").read_text()

    def test_output_is_loadable_as_vector_file(self, runner, tmp_path):
        res = runner.invoke(main, ["describe", "--scenario", "oracle_manipulation",
                                   "--vector", "oracle"])
        vector_file = tmp_path / "oracle.json"
        vector_file.write_text(res.output)
        replay = runner.invoke(main, ["--format", "structured", "evaluate",
                                      "--scenario", "oracle_manipulation",
                                      "--vector", str(vector_file),
                                      "540", "360", "3517.86"])
        assert replay.exit_code == 0, replay.output
        objective = json.loads(replay.output)["results"]["objective"]
        assert objective == pytest.approx(2489.07, rel=1e-3)
