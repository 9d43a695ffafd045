"""End-to-end command behavior: formats, exit codes, golden structured reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from flashsim import cli
from flashsim.cli import main
from flashsim.models import ConfigError

ROOT = Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "golden"
DATA = ROOT / "src" / "flashsim" / "data"
TRACE = DATA / "sample_trades.csv"


@pytest.fixture
def runner():
    return CliRunner()


def stable(output: str) -> dict:
    payload = json.loads(output)
    payload.pop("wall_time_s")
    payload.pop("versions")
    return payload


def assert_unusable_input(res):
    """Exit 2, nothing on stdout, one `error:` line on stderr and no traceback."""
    assert res.exit_code == 2, (res.output, res.exception)
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    assert isinstance(res.exception, SystemExit)


def scenario_text(mutate) -> str:
    doc = json.loads((DATA / "pump_arbitrage.json").read_text())
    mutate(doc)
    return json.dumps(doc)


def chain_text(**changes) -> str:
    """A one-parameter flash loan and repay on the pump_arbitrage pools."""
    doc = {"name": "loop", "actor": "adversary", "profit_asset": "ETH", "n_params": 1,
           "bounds": [[0.0, 100.0]], "steps": [
               {"label": "loan", "calls": [{"op": "flash_loan", "pool": "flash", "amount": "p1"}]},
               {"label": "repay", "calls": [{"op": "flash_repay", "pool": "flash", "amount": "p1"}]}]}
    return json.dumps({**doc, **changes})


def chain_call(call: dict) -> str:
    return chain_text(steps=[{"label": "only", "calls": [call]}])


EVAL_SCENARIO = ["evaluate", "--scenario", "FILE", "--vector", "paa", "5500", "1300"]
EVAL_CHAIN = ["evaluate", "--scenario", "pump_arbitrage", "--vector", "FILE", "1"]

# Input files that used to end in a traceback (or, for a bound with low above
# high, in exit 0): FILE in the arguments is the file's path.
MALFORMED = {
    "scenario-pools-list": (scenario_text(lambda d: d.update(pools=[])), EVAL_SCENARIO),
    "scenario-top-level-list": ("[]", EVAL_SCENARIO),
    "scenario-balances-not-object": (scenario_text(lambda d: d.update(balances={"adversary": "x"})),
                                     EVAL_SCENARIO),
    "scenario-field-not-number": (scenario_text(lambda d: d["pools"]["flash"].update(vX="abc")),
                                  EVAL_SCENARIO),
    "market-list": ("[]", ["atomicity", "--market", "FILE", "--budget", "2"]),
    "trace-amount-nan": ("1,a,XY,nan\n", ["atomicity", "--market", str(GOLDEN / "market.json"), "--budget", "2",
                                          "--i-values", "0,1", "--trials", "2", "--replay", "FILE"]),
    "prices-list": ("[]", ["classify", "--prices", "FILE"]),
    "map-bad-address": ("0x12,Foo\n", ["classify", "--map", "FILE"]),
    "chain-steps-string": (chain_text(steps="x"), EVAL_CHAIN),
    "chain-binding-beyond-n-params": (chain_call({"op": "flash_loan", "pool": "flash", "amount": "p2"}),
                                      EVAL_CHAIN),
    "chain-extra-op-cannot-take": (chain_call({"op": "flash_loan", "pool": "flash", "amount": "p1",
                                               "extra": {"debt_cap": "p1"}}), EVAL_CHAIN),
    "chain-missing-amount": (chain_call({"op": "flash_loan", "pool": "flash"}), EVAL_CHAIN),
    "chain-n-params-infinite": (chain_text(n_params=float("inf")), EVAL_CHAIN),
    # these four were read as a name and as one parameter, with exit 0
    "chain-name-list": (chain_text(name=["x"]), EVAL_CHAIN),
    "chain-name-list-optimize": (chain_text(name=["x"]), ["optimize", "--scenario", "pump_arbitrage",
                                                          "--vector", "FILE", "--starts", "1", "--grid-res", "2"]),
    "chain-n-params-fraction": (chain_text(n_params=1.5), EVAL_CHAIN),
    "chain-n-params-bool": (chain_text(n_params=True), EVAL_CHAIN),
    "chain-n-params-string": (chain_text(n_params="1"), EVAL_CHAIN),
    "chain-bound-count": (chain_text(bounds=[[0.0, 1.0], [0.0, 1.0]]), EVAL_CHAIN),
    "chain-infinite-bound": (chain_text(bounds=[[0.0, 100.0]]).replace("100.0", "1e309"), EVAL_CHAIN),
    "chain-bound-low-above-high": (chain_text(bounds=[[5.0, 1.0]]), EVAL_CHAIN),
    "chain-repay-without-position": (chain_call({"op": "collateralized_repay", "pool": "lending"}),
                                     EVAL_CHAIN),
}


@pytest.mark.parametrize("text, argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_file_exits_2_with_one_error_line(runner, tmp_path, text, argv):
    path = tmp_path / "input"
    path.write_text(text)
    assert_unusable_input(runner.invoke(main, [str(path) if a == "FILE" else a for a in argv]))


OPTIMIZE_PAA = ["optimize", "--scenario", "pump_arbitrage", "--vector", "paa"]
ATOMICITY = ["atomicity", "--market", str(GOLDEN / "market.json"), "--budget", "2",
             "--i-values", "0,5", "--trials", "3"]

# Options that used to end in an evaluation error at a step 0, a numpy
# message, a warning, an unsolved result or rows of nan (the last two even
# with exit 0).
UNUSABLE_OPTIONS = {
    "starts-zero": [*OPTIMIZE_PAA, "--starts", "0"],
    "starts-negative": [*OPTIMIZE_PAA, "--starts", "-2"],
    "max-iter-zero": [*OPTIMIZE_PAA, "--max-iter", "0"],
    "fd-step-nan": [*OPTIMIZE_PAA, "--fd-step", "nan"],
    "fd-step-inf": [*OPTIMIZE_PAA, "--fd-step", "inf"],
    "tol-nan": [*OPTIMIZE_PAA, "--tol", "nan"],
    "amount-scale-nan": [*ATOMICITY, "--amount-scale", "nan"],
    "amount-scale-negative": [*ATOMICITY, "--amount-scale", "-1"],
    "sigma-nan": [*ATOMICITY, "--sigma", "nan"],
    "sigma-negative": [*ATOMICITY, "--sigma", "-1"],
    "stream-size-negative": [*ATOMICITY, "--stream-size", "-1"],
}


@pytest.mark.parametrize("argv", UNUSABLE_OPTIONS.values(), ids=UNUSABLE_OPTIONS.keys())
def test_unusable_option_exits_2_with_one_error_line(runner, argv):
    assert_unusable_input(runner.invoke(main, argv))


@pytest.mark.parametrize("resolution", ["1", "-5"])
def test_bad_grid_resolution_exits_2_before_the_solve(runner, monkeypatch, resolution):
    monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: pytest.fail("solve ran before the grid check"))
    assert_unusable_input(runner.invoke(main, ["optimize", "--scenario", "oracle_manipulation",
                                               "--vector", "oracle", "--grid-res", resolution]))


def test_failed_solve_runs_no_grid(runner, monkeypatch):
    def failing_solve(*args, **kwargs):
        raise ConfigError("negative convert amount -0.0001")
    monkeypatch.setattr(cli, "solve", failing_solve)
    monkeypatch.setattr(cli, "grid_oracle", lambda *args, **kwargs: pytest.fail("the grid ran after a failed solve"))
    res = runner.invoke(main, ["optimize", "--scenario", "oracle_manipulation", "--vector", "oracle"])
    assert_unusable_input(res)
    assert res.stderr == "error: negative convert amount -0.0001\n"


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
        ("optimize_paa.json", ["--scenario", "pump_arbitrage", "--vector", "paa"]),
        ("optimize_described_paa.json", ["--scenario", "pump_arbitrage",
                                         "--vector", "tests/golden/describe_paa.json",
                                         "--starts", "4", "--grid-res", "40"]),
        ("optimize_oracle.json", ["--scenario", "oracle_manipulation", "--vector", "oracle"]),
    ])
    def test_structured_golden(self, runner, monkeypatch, golden, args):
        monkeypatch.chdir(Path(__file__).parents[1])  # config echoes relative paths
        res = runner.invoke(main, ["--format", "structured", "optimize", *args])
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
    @pytest.mark.parametrize("vector", ["paa", "tests/golden/describe_paa.json"])
    def test_structured_golden(self, runner, monkeypatch, vector):
        # the closed form and its described chain report the point alike
        monkeypatch.chdir(Path(__file__).parents[1])  # config echoes relative paths
        res = runner.invoke(main, ["--format", "structured", "evaluate", "--scenario", "pump_arbitrage",
                                   "--vector", vector, "5500", "1300"])
        assert res.exit_code == 0, res.output
        payload = stable(res.output)
        golden = json.loads((GOLDEN / "evaluate_paa.json").read_text())
        golden["config"]["vector"] = vector
        if vector != "paa":  # a hash of the echo that now names the file
            golden["config_hash"] = payload["config_hash"]
        assert payload == golden

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

    @pytest.mark.parametrize("budget", ["1e20", "inf", "nan", "-1"])
    def test_unusable_budget_exits_2(self, runner, budget):
        # 1e20 drains the bought pool's Y reserve; inf and nan gave rows of nan
        assert_unusable_input(runner.invoke(main, [
            "atomicity", "--market", str(GOLDEN / "market.json"), "--budget", budget,
            "--i-values", "0,5", "--trials", "3"]))

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


# Records the thread timeout OpenBLAS will read, at the moment numpy starts to load.
SPY_ON_NUMPY = """
import os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
sys.meta_path.insert(0, Spy())
import flashsim
print(seen[0], os.environ["OPENBLAS_THREAD_TIMEOUT"])
"""


def spawn(args, **env):
    """`python <args>` in a fresh interpreter, with the package uninstalled on PYTHONPATH."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**environ, **env}, cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


class TestSpawnedCli:
    @pytest.mark.parametrize("preset, expected", [(None, "4"), ("30", "30")])
    def test_openblas_thread_timeout_is_set_before_numpy_loads(self, preset, expected):
        res = spawn(["-c", SPY_ON_NUMPY], **({} if preset is None else {"OPENBLAS_THREAD_TIMEOUT": preset}))
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == [expected, expected]

    def test_optimize_paa_matches_golden(self):
        res = spawn(["-m", "flashsim.cli", "--format", "structured", "optimize",
                     "--scenario", "pump_arbitrage", "--vector", "paa"])
        assert res.returncode == 0, res.stderr
        assert stable(res.stdout) == json.loads((GOLDEN / "optimize_paa.json").read_text())
