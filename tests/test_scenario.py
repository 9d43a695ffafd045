"""Scenario file loading and validation."""

import hashlib
import json
import math
import re
from importlib import resources

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from flashsim.cli import main
from flashsim.models import ConfigError, ConstantProductAmm, FlashLoanPool
from flashsim.scenario import builtin_scenario, load_scenario, scenario_from_dict

DATA = resources.files("flashsim.data")


def minimal_doc():
    return {
        "assets": ["ETH", "WBTC"],
        "balances": {"adversary": {"ETH": 5.0}},
        "pools": {
            "flash": {"type": "flash_loan", "asset": "ETH", "vX": 100.0},
            "amm": {"type": "constant_product", "x": "ETH", "y": "WBTC",
                    "uX": 10.0, "uY": 10.0},
        },
    }


def test_round_trip_of_minimal_document():
    state = scenario_from_dict(minimal_doc())
    assert state.balance("adversary", "ETH") == 5.0
    assert isinstance(state.pool("flash"), FlashLoanPool)
    assert isinstance(state.pool("amm"), ConstantProductAmm)


def test_bundled_scenarios_carry_incident_figures():
    paa, digest = builtin_scenario("pump_arbitrage")
    assert paa.pool("flash").available == 10000.0
    assert paa.pool("amm").reserve_x == 2817.77
    assert paa.pool("lending").exchange_rate == 36.48
    assert digest == hashlib.sha256(DATA.joinpath("pump_arbitrage.json").read_bytes()).hexdigest()
    oracle, digest = builtin_scenario("oracle_manipulation")
    assert oracle.pool("reserve").liquidity_rate == 0.00252
    assert oracle.pool("market").max_y == 943837.59
    assert oracle.pool("lending").exchange_rate is None  # quoted live off the AMM
    assert digest == hashlib.sha256(DATA.joinpath("oracle_manipulation.json").read_bytes()).hexdigest()


def test_unknown_builtin_name():
    with pytest.raises(ConfigError):
        builtin_scenario("mystery")


MARGIN = {"type": "margin", "collateral": "ETH", "short": "WBTC", "leverage": 5, "ocr": 1.1, "wX": 1.0}
RESERVE = {"type": "price_reserve", "x": "ETH", "y": "WBTC", "kX": 1.0, "lr": 0.01, "minP": 1.0, "maxP": 2.0}
MARKET = {"type": "fixed_price", "x": "ETH", "y": "WBTC", "pm": 30.0}
LENDING = {"type": "lending", "collateral": "ETH", "debt": "WBTC", "cf": 0.75, "zY": 10.0}


def add_pool(pool_id, stanza, **change):
    return lambda d: d["pools"].update({pool_id: {**stanza, **change}})


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["assets"].append("ETH"), "unique"),
    (lambda d: d["balances"]["adversary"].update(ETH=-1.0), "negative"),
    (lambda d: d["balances"]["adversary"].update(ETh=5.0), re.escape("balance of adversary/ETh: undeclared asset 'ETh'")),
    (lambda d: d["pools"]["flash"].pop("vX"), "missing field"),
    (lambda d: d["pools"]["flash"].update(type="ponzi"), "unknown type"),
    (lambda d: d["pools"]["amm"].update(x="DOGE"), "undeclared"),
    (add_pool("margin", MARGIN, venue="ghost"), "venue"),
    (lambda d: d["pools"]["flash"].update(vX=-1.0), "'flash': vX must be non-negative, got -1.0"),
    (lambda d: d["pools"]["flash"].update(interest={"rate": -0.1}), "'flash': interest.rate must be non-negative"),
    (lambda d: d["pools"]["amm"].update(fee=1.0), re.escape("'amm': fee must be in [0, 1), got 1.0")),
    (add_pool("reserve", RESERVE, kX=-1.0), "'reserve': kX must be non-negative"),
    (add_pool("reserve", RESERVE, minP=3.0), "'reserve': minP must be at most maxP, got 3.0 > 2.0"),
    (add_pool("market", MARKET, maxY=-1.0), "'market': maxY must be non-negative"),
    (add_pool("lending", LENDING, cf=-1.0), re.escape("'lending': cf must be in [0, 1], got -1.0")),
    (add_pool("lending", LENDING, cf=1.5), re.escape("'lending': cf must be in [0, 1], got 1.5")),
    (add_pool("lending", LENDING, zY=-1.0), "'lending': zY must be non-negative"),
    (add_pool("margin", MARGIN, leverage=-1.0), "'margin': leverage must be positive, got -1.0"),
    (add_pool("margin", MARGIN, wX=-1.0), "'margin': wX must be non-negative"),
])
def test_validation_failures(mutate, message):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=message):
        scenario_from_dict(doc)


def test_null_reads_as_an_absent_optional_field():
    doc = minimal_doc()
    doc["pools"]["flash"]["interest"] = None
    doc["pools"]["amm"]["fee"] = None
    assert scenario_from_dict(doc) == scenario_from_dict(minimal_doc())


def test_parse_error_carries_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "assets": [,]\n}')
    with pytest.raises(ConfigError, match="line 2"):
        load_scenario(path)


def test_file_load_matches_dict(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal_doc()))
    state, digest = load_scenario(path)
    assert state == scenario_from_dict(minimal_doc())
    assert state.pool("flash").available == 100.0
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


# Each bundled document, with its vector and an `evaluate` point.
BUNDLED = {"pump_arbitrage": ("paa", ["5500", "1300"]), "oracle_manipulation": ("oracle", ["540", "360", "3517.86"])}
DOCS = {name: json.loads(DATA.joinpath(f"{name}.json").read_text()) for name in BUNDLED}


def key_paths(node, prefix=()):
    """Every key path of a JSON document, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


JUNK = st.one_of(st.text(max_size=6), st.lists(st.one_of(st.integers(), st.text(max_size=3)), max_size=2),
                 st.none(), st.just(math.inf), st.just(math.nan), st.just(0.0), st.just(-1.0))


def junk_replacements(name):
    """One to three (key path, junk value) pairs for a bundled document."""
    return st.lists(st.tuples(st.sampled_from(list(key_paths(DOCS[name]))), JUNK), min_size=1, max_size=3)


def assert_no_traceback(tmp_path_factory, name, replacements):
    doc = json.loads(json.dumps(DOCS[name]))
    # deepest first, so no path has lost an ancestor to an earlier replacement
    for path, value in sorted(replacements, key=lambda r: -len(r[0])):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    scenario = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    scenario.write_text(json.dumps(doc))
    vector, point = BUNDLED[name]
    for argv in (["evaluate", "--scenario", str(scenario), "--vector", vector, *point],
                 ["optimize", "--scenario", str(scenario), "--vector", vector, "--starts", "2", "--grid-res", "10"]):
        res = CliRunner().invoke(main, argv)
        assert res.exit_code in (0, 1, 2)
        assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)


@settings(max_examples=50, deadline=None)
@given(junk_replacements("pump_arbitrage"))
def test_junk_field_values_never_end_in_a_traceback(tmp_path_factory, replacements):
    assert_no_traceback(tmp_path_factory, "pump_arbitrage", replacements)


@settings(max_examples=50, deadline=None)
@given(junk_replacements("oracle_manipulation"))
def test_junk_oracle_field_values_never_end_in_a_traceback(tmp_path_factory, replacements):
    assert_no_traceback(tmp_path_factory, "oracle_manipulation", replacements)
