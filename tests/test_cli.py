"""End-to-end command behavior: formats, exit codes, golden structured reports."""

import builtins
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from flashsim import cli
from flashsim.cli import main
from flashsim.models import ConfigError
from flashsim.scenario import builtin_scenario
from flashsim.vectors import build_oracle_vector, describe

ROOT = Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "golden"
DATA = ROOT / "src" / "flashsim" / "data"
TRACE = DATA / "sample_trades.csv"


@pytest.fixture
def runner():
    return CliRunner()


def reject_constant(name: str):
    raise ValueError(f"{name} in a structured report")


def stable(output: str) -> dict:
    """The report without its timing and versions, parsed as strict JSON: no NaN or Infinity."""
    payload = json.loads(output, parse_constant=reject_constant)
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


def scenario_text(mutate, name="pump_arbitrage") -> str:
    doc = json.loads((DATA / f"{name}.json").read_text())
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


def oracle_chain_text(step: int) -> str:
    """The built-in oracle chain as a description file, with its borrow quoted off state `step`."""
    vector = build_oracle_vector(builtin_scenario("oracle_manipulation")[0])
    return json.dumps(describe(vector)).replace("collateral_rate:amm@2", f"collateral_rate:amm@{step}")


EVAL_SCENARIO = ["evaluate", "--scenario", "FILE", "--vector", "paa", "5500", "1300"]
EVAL_ORACLE_SCENARIO = ["evaluate", "--scenario", "FILE", "--vector", "oracle", "540", "360", "3517.86"]
EVAL_CHAIN = ["evaluate", "--scenario", "pump_arbitrage", "--vector", "FILE", "1"]
EVAL_ORACLE_CHAIN = ["evaluate", "--scenario", "oracle_manipulation", "--vector", "FILE", "540", "360", "3517.86"]
MARKET = ["atomicity", "--market", "FILE", "--budget", "2", "--i-values", "0,1", "--trials", "2"]
REPLAY = ["atomicity", "--market", str(GOLDEN / "market.json"), "--budget", "2",
          "--i-values", "0,1", "--trials", "2", "--replay", "FILE"]
MARKET_TEXT = (GOLDEN / "market.json").read_text()

# Input files that used to end in a traceback (or, for a bound with low above
# high, in exit 0): FILE in the arguments is the file's path.
MALFORMED = {
    "scenario-pools-list": (scenario_text(lambda d: d.update(pools=[])), EVAL_SCENARIO),
    "scenario-top-level-list": ("[]", EVAL_SCENARIO),
    "scenario-balances-not-object": (scenario_text(lambda d: d.update(balances={"adversary": "x"})),
                                     EVAL_SCENARIO),
    "scenario-field-not-number": (scenario_text(lambda d: d["pools"]["flash"].update(vX="abc")),
                                  EVAL_SCENARIO),
    # these exited 2 already, but no test reached their checks
    "scenario-without-lending-er": (scenario_text(lambda d: d["pools"]["lending"].pop("er")), EVAL_SCENARIO),
    "scenario-without-market-maxy": (scenario_text(lambda d: d["pools"]["market"].pop("maxY"),
                                                   "oracle_manipulation"), EVAL_ORACLE_SCENARIO),
    # non-finite numbers: a market of rows of nan with exit 0, a scenario failing later unnamed
    "scenario-field-nan": (scenario_text(lambda d: d["pools"]["flash"].update(vX=float("nan"))),
                           EVAL_SCENARIO),
    "scenario-field-infinite": (scenario_text(lambda d: d["pools"]["amm"].update(uY=float("inf"))),
                                EVAL_SCENARIO),
    "scenario-balance-nan": (scenario_text(lambda d: d["balances"]["adversary"].update(ETH=float("nan"))),
                             EVAL_SCENARIO),
    # JSON booleans and numeric strings were read as 1.0 and as the number, with exit 0;
    # an integer too large for a float ended in a traceback
    "scenario-field-huge-integer": (scenario_text(lambda d: d["pools"]["amm"].update(uY=10**400)),
                                    EVAL_SCENARIO),
    "scenario-field-bool": (scenario_text(lambda d: d["pools"]["amm"].update(uX=True)), EVAL_SCENARIO),
    "scenario-field-numeric-string": (scenario_text(lambda d: d["pools"]["amm"].update(uX="2817.77")),
                                      EVAL_SCENARIO),
    "market-fee-bool": (MARKET_TEXT.replace('"uY": 35000.0', '"uY": 35000.0, "fee": true'), MARKET),
    "prices-bool": ('{"ETH": true}', ["classify", "--prices", "FILE"]),
    "market-list": ("[]", MARKET),
    "market-reserve-nan": (MARKET_TEXT.replace('"uY": 35000.0', '"uY": NaN'), MARKET),
    "market-fee-nan": (MARKET_TEXT.replace('"uY": 35000.0', '"uY": 35000.0, "fee": NaN'), MARKET),
    "trace-amount-nan": ("1,a,XY,nan\n", REPLAY),
    "trace-three-fields": ("1,a,XY\n", REPLAY),  # exited 2 already, but untested
    # undecodable text files, once named by the codec's chunk offset alone
    "trace-undecodable": (b"1,a,XY,1\n1,b,\xff,2\n", REPLAY),
    "trace-truncated-character": (b"1,a,XY,1\n1,b,XY,2\xe2\x82", REPLAY),
    "loans-truncated-character": (b'{"tx": "0x1"}\n\xe2\x82', ["classify", "--input", "FILE"]),
    "prices-list": ("[]", ["classify", "--prices", "FILE"]),
    "map-bad-address": ("0x12,Foo\n", ["classify", "--map", "FILE"]),
    "map-undecodable": (b"0x12\xff,Foo\n", ["classify", "--map", "FILE"]),
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
    "chain-bound-bool": (chain_text(bounds=[[False, 100.0]]), EVAL_CHAIN),
    "chain-repay-without-position": (chain_call({"op": "collateralized_repay", "pool": "lending"}),
                                     EVAL_CHAIN),
    # these exited 2 already, but no test reached their checks
    "chain-flash-loan-from-amm": (chain_call({"op": "flash_loan", "pool": "amm", "amount": "p1"}), EVAL_CHAIN),
    "chain-rate-from-future-state": (oracle_chain_text(9), EVAL_ORACLE_CHAIN),
    # a negative step was read by Python's negative indexing: a traceback, or exit 0
    # with the rate of the state entering the step
    "chain-rate-from-negative-state": (oracle_chain_text(-100), EVAL_ORACLE_CHAIN),
    "chain-rate-from-last-state": (oracle_chain_text(-1), EVAL_ORACLE_CHAIN),
}


# The error line of a malformed file where it must name what is wrong; FILE is the file's path.
MESSAGES = {
    "trace-undecodable": "error: trace FILE: line 2: can't decode b'\\xff' as utf-8\n",
    "map-undecodable": "error: address map FILE: line 1: can't decode b'\\xff' as utf-8\n",
    "trace-truncated-character": "error: trace FILE: line 2: can't decode b'\\xe2\\x82' as utf-8\n",
    "loans-truncated-character": "error: input FILE: line 2: can't decode b'\\xe2\\x82' as utf-8\n",
    "scenario-field-nan": "error: pool 'flash': vX must be finite, got nan\n",
    "scenario-field-infinite": "error: pool 'amm': uY must be finite, got inf\n",
    "scenario-balance-nan": "error: balance of adversary/ETH must be finite, got nan\n",
    "market-reserve-nan": "error: pool 'exchange_a': uY must be finite, got nan\n",
    "market-fee-nan": "error: pool 'exchange_a': fee must be finite, got nan\n",
    "scenario-field-huge-integer": "error: pool 'amm': uY must be finite, got inf\n",
    "scenario-field-bool": "error: pool 'amm': uX must be a number, got bool\n",
    "scenario-field-numeric-string": "error: pool 'amm': uX must be a number, got str\n",
    "market-fee-bool": "error: pool 'exchange_a': fee must be a number, got bool\n",
    "prices-bool": "error: price of 'ETH' must be a number, got bool\n",
    "chain-bound-bool": "error: bounds of p1 must be a number, got bool\n",
    "chain-rate-from-last-state": "error: binding 'collateral_rate:amm@-1' reads a negative step\n",
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_file_exits_2_with_one_error_line(runner, tmp_path, case):
    text, argv = MALFORMED[case]
    path = tmp_path / "input"
    path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    res = runner.invoke(main, [str(path) if a == "FILE" else a for a in argv])
    assert_unusable_input(res)
    assert res.stderr == MESSAGES.get(case, res.stderr).replace("FILE", str(path))


@pytest.mark.parametrize("content, error", [
    (b'{\n  "a": [,]\n}', "invalid JSON at line 2: Expecting value"),
    (b'{\r  "a": [,]\r}', "invalid JSON at line 2: Expecting value"),
    (b'{\n  "a": "\xff"\n}', "line 2: can't decode b'\\xff' as utf-8"),
], ids=["bad-json", "bad-json-cr-only", "undecodable"])
@pytest.mark.parametrize("what, argv", [
    ("scenario", EVAL_SCENARIO), ("vector", EVAL_CHAIN), ("market", MARKET),
    ("price file", ["classify", "--prices", "FILE"]),
])
def test_unreadable_json_names_the_file_and_the_line(runner, tmp_path, what, argv, content, error):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    res = runner.invoke(main, [str(path) if a == "FILE" else a for a in argv])
    assert_unusable_input(res)
    assert res.stderr == f"error: {what} {path}: {error}\n"


@pytest.mark.parametrize("argv, source", [
    (["optimize", "--scenario", "FILE", "--vector", "paa", "--starts", "1", "--grid-res", "2"],
     DATA / "pump_arbitrage.json"),
    (EVAL_SCENARIO, DATA / "pump_arbitrage.json"),
    (["describe", "--scenario", "FILE", "--vector", "paa"], DATA / "pump_arbitrage.json"),
    (MARKET, GOLDEN / "market.json"),
], ids=["optimize", "evaluate", "describe", "atomicity"])
def test_each_input_file_is_read_once(runner, tmp_path, monkeypatch, argv, source):
    path = tmp_path / "input.json"
    path.write_bytes(source.read_bytes())
    opened, real_open = [], io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file) == path:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)  # what pathlib opens with
    monkeypatch.setattr(builtins, "open", counting_open)
    res = runner.invoke(main, [str(path) if a == "FILE" else a for a in argv])
    assert res.exit_code == 0, res.output
    assert len(opened) == 1


def test_reports_hash_the_bytes_of_each_input_file(runner, tmp_path):
    scenario, market, loans = tmp_path / "scenario.json", tmp_path / "market.json", tmp_path / "loans.jsonl"
    scenario.write_bytes((DATA / "pump_arbitrage.json").read_bytes() + b"\n\n")
    market.write_bytes((GOLDEN / "market.json").read_bytes())
    loans.write_bytes(LOAN_LINE.replace("\n", "\r\n").encode() * 3)  # a file once hashed as translated text
    for path, argv, stdin in ((scenario, EVAL_SCENARIO, None), (market, MARKET, None),
                              (loans, ["classify", "--input", "FILE"], None), (loans, ["classify"], loans.read_bytes())):
        res = runner.invoke(main, ["--format", "structured", *(str(path) if a == "FILE" else a for a in argv)],
                            input=stdin)
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["scenario_hash"] == hashlib.sha256(path.read_bytes()).hexdigest()


# A scenario the built-in closed forms leave something out of; a description file still replays it.
CLOSED_FORM_MISFITS = {
    "paa-amm-fee": ("pump_arbitrage", "paa", lambda d: d["pools"]["amm"].update(fee=0.003)),
    "paa-flash-interest": ("pump_arbitrage", "paa", lambda d: d["pools"]["flash"].update(interest={"rate": 0.0009})),
    "paa-flash-flat-fee": ("pump_arbitrage", "paa", lambda d: d["pools"]["flash"].update(interest={"flat": 1.0})),
    "paa-margin-off-the-amm": ("pump_arbitrage", "paa", lambda d: d["pools"]["margin"].update(venue=None, emp=39.0)),
    "oracle-amm-fee": ("oracle_manipulation", "oracle", lambda d: d["pools"]["amm"].update(fee=0.003)),
    "oracle-flash-interest": ("oracle_manipulation", "oracle",
                              lambda d: d["pools"]["flash"].update(interest={"rate": 0.0009})),
}
POINTS = {"paa": ["2469.35", "1456.23"], "oracle": ["540", "360", "3517.86"]}


@pytest.mark.parametrize("name, vector, mutate", CLOSED_FORM_MISFITS.values(), ids=CLOSED_FORM_MISFITS.keys())
def test_built_in_vector_refuses_what_its_closed_form_leaves_out(runner, tmp_path, name, vector, mutate):
    scenario, described = tmp_path / "scenario.json", tmp_path / "chain.json"
    scenario.write_text(scenario_text(mutate, name))
    described.write_text(runner.invoke(main, ["describe", "--scenario", name, "--vector", vector]).output)
    for command, extra in (("optimize", ["--starts", "1", "--grid-res", "2"]), ("evaluate", POINTS[vector]),
                           ("describe", [])):
        res = runner.invoke(main, [command, "--scenario", str(scenario), "--vector", vector, *extra])
        assert_unusable_input(res)
        assert f"describe --vector {vector}" in res.stderr
    res = runner.invoke(main, ["evaluate", "--scenario", str(scenario), "--vector", str(described), *POINTS[vector]])
    assert res.exit_code == 0, res.output


# Pool figures the models divide by, and a reserve quote past the float range: these ended in a
# ZeroDivisionError or OverflowError traceback, in numpy warnings with exit 0, or in exit 2 with
# only "every start failed to evaluate".  A negative collateral factor, leverage or flash-loan
# liquidity was solved as given: exit 0 with a "feasible" optimum, or exit 1 on an inverted box.
UNLOADABLE_POOLS = {
    "paa-lending-cf-negative": ("pump_arbitrage", "lending", {"cf": -1.0}, "cf must be in [0, 1], got -1.0"),
    "paa-margin-leverage-negative": ("pump_arbitrage", "margin", {"leverage": -1.0},
                                     "leverage must be positive, got -1.0"),
    "paa-flash-vx-negative": ("pump_arbitrage", "flash", {"vX": -1.0}, "vX must be non-negative, got -1.0"),
    "paa-margin-ocr-zero": ("pump_arbitrage", "margin", {"ocr": 0.0}, "ocr must be positive, got 0.0"),
    "paa-amm-ux-zero": ("pump_arbitrage", "amm", {"uX": 0.0}, "uX must be positive, got 0.0"),
    "paa-amm-uy-zero": ("pump_arbitrage", "amm", {"uY": 0.0}, "uY must be positive, got 0.0"),
    "paa-market-pm-zero": ("pump_arbitrage", "market", {"pm": 0.0}, "pm must be positive, got 0.0"),
    "paa-lending-er-negative": ("pump_arbitrage", "lending", {"er": -1.0}, "er must be positive, got -1.0"),
    "oracle-reserve-lr-zero": ("oracle_manipulation", "reserve", {"lr": 0.0}, "lr must be positive, got 0.0"),
    "oracle-market-pm-zero": ("oracle_manipulation", "market", {"pm": 0.0}, "pm must be positive, got 0.0"),
    "oracle-amm-ux-zero": ("oracle_manipulation", "amm", {"uX": 0.0}, "uX must be positive, got 0.0"),
    "oracle-amm-uy-zero": ("oracle_manipulation", "amm", {"uY": 0.0}, "uY must be positive, got 0.0"),
    "oracle-reserve-kx-overflow": ("oracle_manipulation", "reserve", {"kX": 1e308},
                                   "starting quote minP * exp(lr * kX) must be positive and finite, got inf"),
    "oracle-reserve-lr-overflow": ("oracle_manipulation", "reserve", {"lr": 1e308},
                                   "starting quote minP * exp(lr * kX) must be positive and finite, got inf"),
}


@pytest.mark.parametrize("command", ["evaluate", "describe", "optimize"])
@pytest.mark.parametrize("name, pool, change, error", UNLOADABLE_POOLS.values(), ids=UNLOADABLE_POOLS.keys())
def test_pool_figure_the_models_cannot_use_exits_2_naming_it(runner, tmp_path, command, name, pool, change, error):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(scenario_text(lambda d: d["pools"][pool].update(change), name))
    vector = {"pump_arbitrage": "paa", "oracle_manipulation": "oracle"}[name]
    extra = {"evaluate": POINTS[vector], "describe": [], "optimize": ["--starts", "2", "--grid-res", "10"]}
    res = runner.invoke(main, [command, "--scenario", str(scenario), "--vector", vector, *extra[command]])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == f"error: pool {pool!r}: {error}\n"


OPTIMIZE_PAA = ["optimize", "--scenario", "pump_arbitrage", "--vector", "paa"]
ATOMICITY = ["atomicity", "--market", str(GOLDEN / "market.json"), "--budget", "2",
             "--i-values", "0,5", "--trials", "3"]

# Options that used to end in an evaluation error at a step 0, a numpy
# message, a warning, an unsolved result or rows of nan (the last two even
# with exit 0).
UNUSABLE_OPTIONS = {
    "starts-zero": [*OPTIMIZE_PAA, "--starts", "0"],
    "starts-negative": [*OPTIMIZE_PAA, "--starts", "-2"],
    "amount-scale-nan": [*ATOMICITY, "--amount-scale", "nan"],
    "amount-scale-negative": [*ATOMICITY, "--amount-scale", "-1"],
    "sigma-nan": [*ATOMICITY, "--sigma", "nan"],
    "sigma-negative": [*ATOMICITY, "--sigma", "-1"],
    "amount-scale-overflow": [*ATOMICITY, "--amount-scale", "1e308"],
    "bound-without-range": [*OPTIMIZE_PAA, "--bound", "p2"],
    "bound-not-a-parameter": [*OPTIMIZE_PAA, "--bound", "q1:0:1"],
    "bound-p0": [*OPTIMIZE_PAA, "--bound", "p0:0:1"],
    "scenario-missing": ["evaluate", "--scenario", "no-such-scenario.json", "--vector", "paa", "1", "1"],
    # a replayed trace ignored these, yet the report echoed them into its config hash
    "replay-amount-scale": [*ATOMICITY, "--replay", str(TRACE), "--amount-scale", "9"],
    "replay-sigma": [*ATOMICITY, "--replay", str(TRACE), "--sigma", "5"],
    # the errors of these did not name the option (a negative seed on a replayed trace exited 0)
    "seed-negative": ["--seed", "-1", *OPTIMIZE_PAA],
    "describe-seed-negative": ["--seed", "-1", "describe", "--scenario", "pump_arbitrage", "--vector", "paa"],
    "replay-seed-negative": ["--seed", "-1", *ATOMICITY, "--replay", str(TRACE)],
    "i-values-fraction": [*ATOMICITY, "--i-values", "1.5"],
    "i-values-negative": [*ATOMICITY, "--i-values=-1"],
    "i-values-one-negative": [*ATOMICITY, "--i-values=5,-1"],
    "trials-zero": [*ATOMICITY, "--trials", "0"],
    "trials-negative": [*ATOMICITY, "--trials", "-3"],
    "grid-res-one": [*OPTIMIZE_PAA, "--grid-res", "1"],
    "grid-res-negative": [*OPTIMIZE_PAA, "--grid-res", "-5"],
}
NAMED_OPTION = {"seed-negative": "--seed", "describe-seed-negative": "--seed", "replay-seed-negative": "--seed",
                "i-values-fraction": "--i-values", "i-values-negative": "--i-values",
                "i-values-one-negative": "--i-values", "trials-zero": "--trials", "trials-negative": "--trials",
                "grid-res-one": "--grid-res", "grid-res-negative": "--grid-res",
                "starts-zero": "--starts", "starts-negative": "--starts"}


@pytest.mark.parametrize("case", UNUSABLE_OPTIONS, ids=list(UNUSABLE_OPTIONS))
def test_unusable_option_exits_2_with_one_error_line(runner, case):
    res = runner.invoke(main, UNUSABLE_OPTIONS[case])
    assert_unusable_input(res)
    assert NAMED_OPTION.get(case, "") in res.stderr


@pytest.mark.parametrize("argv", [
    [*OPTIMIZE_PAA, "--max-iter", "200"],
    [*OPTIMIZE_PAA, "--tol", "1e-9"],
    [*OPTIMIZE_PAA, "--fd-step", "1e-4"],
    [*ATOMICITY, "--bootstrap-samples", "1000"],
    [*OPTIMIZE_PAA, "--zy-cap"],
    ["evaluate", "--scenario", "oracle_manipulation", "--vector", "oracle", "--zy-cap", "1", "1", "1"],
    ["describe", "--scenario", "oracle_manipulation", "--vector", "oracle", "--zy-cap"],
    [*ATOMICITY, "--stream-size", "900"],
], ids=["max-iter", "tol", "fd-step", "bootstrap-samples", "optimize-zy-cap", "evaluate-zy-cap",
        "describe-zy-cap", "stream-size"])
def test_fixed_solver_and_bootstrap_settings_are_not_options(runner, argv):
    # --zy-cap repeated the enforced zY optimum, --stream-size a prefix of every trial's stream
    res = runner.invoke(main, argv)
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    option = [arg for arg in argv if arg.startswith("--")][-1]
    assert f"Error: No such option '{option}'" in res.stderr


@pytest.mark.parametrize("argv, error", [
    (["--scenario", "pump_arbitrag", "--vector", "paa"],
     "--scenario 'pump_arbitrag' is neither a bundled scenario (pump_arbitrage, oracle_manipulation) nor a file"),
    (["--scenario", "pump_arbitrage", "--vector", "paaa"],
     "--vector 'paaa' is neither a built-in vector (paa, oracle) nor a file"),
], ids=["scenario", "vector"])
def test_misspelled_built_in_name_says_a_name_or_file_was_expected(runner, argv, error):
    res = runner.invoke(main, ["evaluate", *argv, "1", "1"])
    assert_unusable_input(res)
    assert res.stderr == f"error: {error}\n"


def test_bound_error_names_the_parameter_as_written(runner):
    res = runner.invoke(main, [*OPTIMIZE_PAA, "--bound", "p0:0:1"])
    assert res.stderr == "error: vector 'paa' has no parameter p0, only p1..p2\n"


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


OPTIMIZE_ORACLE = ["optimize", "--scenario", "oracle_manipulation", "--vector", "oracle"]
OPTIMIZE_DESCRIBED_PAA = ["optimize", "--scenario", "pump_arbitrage", "--vector", str(GOLDEN / "describe_paa.json")]

# Boxes that reach points a model cannot evaluate: an op that cannot execute, or a closed form
# that overflows.  These ended in exit 2 naming one such point, or printed numpy warnings, and
# the report of one read NaN.
PARTLY_EVALUABLE_BOXES = {
    "described-paa-empty-reserves": ([*OPTIMIZE_DESCRIBED_PAA, "--bound", "p1:0:1e20", "--bound", "p2:0:1e20",
                                      "--starts", "4", "--grid-res", "10"], 1),
    "described-paa-negative-collateral": ([*OPTIMIZE_DESCRIBED_PAA, "--bound", "p1:-100:10000",
                                           "--bound", "p2:9999:10000", "--grid-res", "10"], 1),
    "oracle-reserve-quote-overflows": ([*OPTIMIZE_ORACLE, "--bound", "p2:0:3e5", "--grid-res", "20"], 0),
}


@pytest.mark.parametrize("case", PARTLY_EVALUABLE_BOXES)
def test_points_the_model_cannot_evaluate_are_infeasible(runner, case):
    argv, code = PARTLY_EVALUABLE_BOXES[case]
    res = runner.invoke(main, ["--format", "structured", *argv])
    assert (res.exit_code, res.stderr) == (code, ""), (res.output, res.exception)
    stable(res.stdout)


def test_a_described_box_past_what_can_execute_reaches_the_built_in_optimum(runner, tmp_path):
    # the probe rows and the lower corner sit at a negative collateral, which cannot execute
    doc = json.loads((GOLDEN / "describe_paa.json").read_text())
    doc["bounds"][0] = [-1000.0, 10000.0]
    chain = tmp_path / "paa.json"
    chain.write_text(json.dumps(doc))
    res = runner.invoke(main, ["evaluate", "--scenario", "pump_arbitrage", "--vector", str(chain), "2470", "1456"])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["--format", "structured", "optimize", "--scenario", "pump_arbitrage",
                               "--vector", str(chain), "--starts", "4", "--grid-res", "40"])
    assert (res.exit_code, res.stderr) == (0, ""), res.output
    built_in = json.loads((GOLDEN / "optimize_paa.json").read_text())["results"]["solver"]["best_objective"]
    assert stable(res.stdout)["results"]["solver"]["best_objective"] == pytest.approx(built_in, rel=1e-6)


@pytest.mark.parametrize("argv, box", [
    ([*OPTIMIZE_ORACLE, "--bound", "p2:1e6:2e6", "--starts", "4", "--grid-res", "8"], "p2:1e+06:2e+06"),
    ([*OPTIMIZE_ORACLE, "--bound", "p1:0:1e200"], "p1:0:1e+200"),
    ([*OPTIMIZE_DESCRIBED_PAA, "--bound", "p1:-1000:-500", "--starts", "4"], "p1:-1000:-500"),
], ids=["oracle-reserve-quote-overflows", "oracle-objective-overflows", "described-paa-no-start-replays"])
def test_a_box_the_model_cannot_evaluate_exits_2_naming_it(runner, argv, box):
    res = runner.invoke(main, argv)
    assert_unusable_input(res)
    assert box in res.stderr


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

    def test_bound_override_flag(self, runner):
        res = runner.invoke(main, ["--format", "structured", "optimize",
                                   "--scenario", "pump_arbitrage", "--vector", "paa",
                                   "--bound", "p2:0:1344"])
        assert res.exit_code == 0, res.output
        params = json.loads(res.output)["results"]["solver"]["best_params"]
        assert params[0] == pytest.approx(2404.0, rel=1e-2)
        assert params[1] == pytest.approx(1344.0, rel=1e-2)

    @pytest.mark.parametrize("p1, p2, code", [("100", "50", 1), ("2000", "1000", 0)], ids=["infeasible", "feasible"])
    def test_every_parameter_fixed_reports_the_fixed_point(self, runner, p1, p2, code):
        res = runner.invoke(main, ["--format", "structured", "optimize", "--scenario", "pump_arbitrage",
                                   "--vector", "paa", "--bound", f"p1:{p1}:{p1}", "--bound", f"p2:{p2}:{p2}"])
        assert res.exit_code == code, res.output
        results = json.loads(res.stdout)["results"]
        solver, grid = results["solver"], results["grid"]
        assert solver["best_params"] == grid["best_params"] == [float(p1), float(p2)]
        assert (solver["iterations"], solver["feasible"]) == (0, code == 0)
        assert grid["iterations"] == (2 if code == 0 else 1)  # one point per pass, not 200 ** 2

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

    @pytest.mark.parametrize("chain, scenario, args, grid_objective", [
        # the ETH balance overflows past p1 of about 1e306
        ((GOLDEN / "describe_paa.json").read_text(), "pump_arbitrage",
         ["--bound", "p1:0:1e306", "--starts", "4", "--grid-res", "10"], 0.0),
        # the reserve quote overflows at large p2
        (oracle_chain_text(2), "oracle_manipulation",
         ["--bound", "p2:0:1e6", "--starts", "4", "--grid-res", "12"], 8012.00),
    ], ids=["paa", "oracle"])
    def test_point_the_chain_cannot_replay_is_infeasible(self, runner, tmp_path, chain, scenario, args,
                                                         grid_objective):
        # both exited 2 naming the failing step, the grid aborting at its first such point; at seed 0
        # every oracle start drops out, and the solver reports the least violated start point
        vector_file = tmp_path / "chain.json"
        vector_file.write_text(chain)
        res = runner.invoke(main, ["--format", "structured", "--seed", "0", "optimize", "--scenario", scenario,
                                   "--vector", str(vector_file), *args])
        assert res.exit_code == 1, res.output
        results = json.loads(res.stdout)["results"]
        assert not results["solver"]["feasible"]
        assert results["grid"]["feasible"]
        assert results["grid"]["best_objective"] == pytest.approx(grid_objective, abs=0.01)


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
                "--budget", "2", "--trials", "37", "--i-values"]
        repeated = runner.invoke(main, [*args, "700,5,0,5"])
        once = runner.invoke(main, [*args, "700,5,0"])
        assert repeated.exit_code == once.exit_code == 0
        rows = stable(repeated.output)["results"]["rows"]
        assert rows[1] == rows[3]
        assert rows[:3] == stable(once.output)["results"]["rows"]
        assert rows[1]["ci_low"] == pytest.approx(-0.025109, abs=1e-6)

    def test_row_does_not_depend_on_the_other_i_values(self, runner):
        # the stream was as long as the largest i, and a trial's first events changed with its length
        args = ["--format", "structured", "atomicity", "--market", str(GOLDEN / "market.json"),
                "--budget", "2", "--trials", "200", "--i-values"]
        rows = [stable(runner.invoke(main, [*args, i_values]).output)["results"]["rows"][1]
                for i_values in ("0,100", "0,100,1000")]
        assert rows[0]["i"] == 100 and rows[0] == rows[1]


    @pytest.mark.parametrize("source", ["synthetic", "replay"])
    def test_overflow_exits_2_with_one_error_line(self, tmp_path, source):
        # both printed numpy RuntimeWarnings and rows of NaN, invalid JSON, with exit 0
        trace = tmp_path / "trades.csv"
        trace.write_text("1,a,XY,1e308\n" * 3)
        extra = ["--replay", str(trace)] if source == "replay" else ["--amount-scale", "1e308"]
        res = spawn(["-m", "flashsim.cli", "--format", "structured", "atomicity", "--market",
                     str(GOLDEN / "market.json"), "--budget", "2", "--i-values", "0,3", *extra])
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == ("error: profit difference at i=3 is not finite: "
                              "the intermediary trades overflow or drain a pool\n")


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


LOAN_LINE = json.dumps({"tx": "0x1", "touched": [], "asset": "ETH", "amount": 1.0, "gas": 5.0}) + "\n"
UNDECODABLE = LOAN_LINE.encode() * 3000 + b"\xff\n" + LOAN_LINE.encode()


def test_undecodable_classify_file_names_the_line(runner, tmp_path):
    path = tmp_path / "loans.jsonl"
    path.write_bytes(UNDECODABLE)
    res = runner.invoke(main, ["classify", "--input", str(path)])
    assert_unusable_input(res)
    assert res.stderr == f"error: input {path}: line 3001: can't decode b'\\xff' as utf-8\n"


def test_undecodable_classify_stdin_names_the_line(runner, tmp_path):
    # a stdin whose text layer failed once named a lower bound, "after 2958 line(s) read"
    res = runner.invoke(main, ["classify"], input=UNDECODABLE)
    assert_unusable_input(res)
    assert res.stderr == "error: input -: line 3001: can't decode b'\\xff' as utf-8\n"
    path = tmp_path / "loans.jsonl"
    path.write_bytes(UNDECODABLE)
    # a stdin that fails to decode the byte, and one that escapes it as a lone surrogate
    for errors in ("strict", "surrogateescape"):
        with path.open("rb") as stdin:
            spawned = spawn(["-m", "flashsim.cli", "classify"], stdin, PYTHONIOENCODING=f"utf-8:{errors}")
        assert spawned.returncode == 2
        assert spawned.stderr == "error: input -: line 3001: can't decode b'\\xff' as utf-8\n"


def test_closed_stdin_exits_2():
    # with fd 0 closed, sys.stdin is None: classify ended in a TypeError traceback with exit 1
    res = spawn(["-m", "flashsim.cli", "classify"], preexec_fn=lambda: os.close(0))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: input -: stdin is closed\n"


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

    def test_capped_lender_is_a_debt_cap_binding(self, runner, tmp_path):
        # a lender that clamps the drawn amount to its liquidity instead of reporting the shortfall
        doc = json.loads(runner.invoke(main, ["describe", "--scenario", "oracle_manipulation",
                                              "--vector", "oracle"]).output)
        doc["steps"][4]["calls"][0]["extra"]["debt_cap"] = "11086.29"
        vector_file = tmp_path / "capped.json"
        vector_file.write_text(json.dumps(doc))
        res = runner.invoke(main, ["--format", "structured", "evaluate", "--scenario", "oracle_manipulation",
                                   "--vector", str(vector_file), "898.58", "546.80", "3517.86"])
        assert res.exit_code == 0, res.output
        results = json.loads(res.output)["results"]
        assert results["steps"][5]["balances"]["ETH"] == pytest.approx(11086.29, rel=1e-12)
        assert [r["value"] for r in results["residuals"] if r["name"] == "debt_liquidity"] == [0.0]
        assert results["objective"] == pytest.approx(6123.05, rel=1e-12)


OPENBLAS = "OPENBLAS_NUM_THREADS"  # flashsim's default; spawn strips it
# Records the thread count OpenBLAS will read, at the moment numpy starts to load.
SPY_ON_NUMPY = f"""
import os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get({OPENBLAS!r}))
sys.meta_path.insert(0, Spy())
import flashsim.vectors
print(*seen, os.environ[{OPENBLAS!r}])
"""


def spawn(args, stdin=None, preexec_fn=None, **env):
    """`python <args>` in a fresh interpreter, with the package uninstalled on PYTHONPATH."""
    environ = {k: v for k, v in os.environ.items() if k != OPENBLAS}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**environ, **env}, cwd=ROOT, stdin=stdin,
                          preexec_fn=preexec_fn, capture_output=True, text=True, timeout=600)


class TestSpawnedCli:
    @pytest.mark.parametrize("exported, expected", [(None, "1"), ("2", "2")])  # an exported value wins
    def test_openblas_thread_count_is_set_before_numpy_loads(self, exported, expected):
        res = spawn(["-c", SPY_ON_NUMPY], **({} if exported is None else {OPENBLAS: exported}))
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == [expected] * 2

    @pytest.mark.parametrize("exported, expected", [(None, "1"), ("2", "2")])
    def test_report_records_the_openblas_thread_count(self, exported, expected):
        res = spawn(["-m", "flashsim.cli", "--format", "structured", "evaluate", "--scenario", "pump_arbitrage",
                     "--vector", "paa", *POINTS["paa"]], **({} if exported is None else {OPENBLAS: exported}))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["versions"]["openblas_num_threads"] == expected

    def test_bare_package_import_loads_neither_numpy_nor_scipy(self):
        res = spawn(["-c", "import sys, flashsim; print(sorted({'numpy', 'scipy'} & sys.modules.keys()))"])
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"

    def test_optimize_paa_matches_golden(self):
        res = spawn(["-m", "flashsim.cli", "--format", "structured", "optimize",
                     "--scenario", "pump_arbitrage", "--vector", "paa"])
        assert res.returncode == 0, res.stderr
        assert stable(res.stdout) == json.loads((GOLDEN / "optimize_paa.json").read_text())


def readme_examples() -> list[str]:
    """The `flashsim ...` lines of the README's CLI block."""
    block = (ROOT / "README.md").read_text().split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("flashsim ")]


@pytest.mark.parametrize("line", readme_examples(), ids=lambda line: " ".join(line.split()[1:4]))
def test_readme_examples_run(runner, line):
    # keeps the README from advertising a deleted option; --strict at a violated point exits 1
    files = {"market.json": str(GOLDEN / "market.json"), "loans.jsonl": str(GOLDEN / "classify_input.jsonl")}
    argv = [files.get(arg, arg) for arg in shlex.split(line.split(">")[0])[1:]]  # no output redirect
    res = runner.invoke(main, argv)
    assert res.exit_code in (0, 1), (res.output, res.exception)
    assert res.exit_code == 0 or "--strict" in argv
    assert res.exception is None or isinstance(res.exception, SystemExit)
