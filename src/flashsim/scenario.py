"""Scenario files: declarative initial on-chain state for a simulation run.

A scenario is a JSON document naming assets, entities, starting balances,
and one stanza per pool.  Pool stanzas use the short field names common in
on-chain incident write-ups; `_POOL_TYPES` declares each stanza type's
fields, with each field's model attribute, domain and default.  Two
scenarios ship with the package: ``pump_arbitrage`` (the February 15 2020
ETH/WBTC incident state) and ``oracle_manipulation`` (the February 18 2020
ETH/sUSD incident state).
"""

from __future__ import annotations

import codecs
import hashlib
import json
import locale
import math
from importlib import resources
from pathlib import Path
from typing import Any, BinaryIO, Iterator

from .models import (
    AutomatedPriceReserve,
    ConfigError,
    ConstantProductAmm,
    FixedPriceMarket,
    FlashLoanPool,
    InterestModel,
    LendingPool,
    MarginPlatform,
    Pool,
    WorldState,
    _require_finite,
    as_number,
    expect_type,
    reserve_quote,
)

BUILTIN_SCENARIOS = ("pump_arbitrage", "oracle_manipulation")


# Field domains.  A symbol names a declared asset or a defined pool (checked by
# scenario_from_dict); a number is a finite float that passes the domain's test.
ASSET, POOL = "asset", "pool"
NON_NEGATIVE, POSITIVE = ("non-negative", lambda v: v >= 0), ("positive", lambda v: v > 0)
FRACTION, UNIT = ("in [0, 1)", lambda v: 0 <= v < 1), ("in [0, 1]", lambda v: 0 <= v <= 1)

# Each stanza type: its model and, per field, (model attribute, domain[, default]); the
# comment names the model op whose use of the fields sets their domains.  A field with a
# default is optional, and JSON null reads as absent.  A nested stanza's domain is a
# sub-table, (model, fields).
_PAIR = {"x": ("asset_x", ASSET), "y": ("asset_y", ASSET)}
_POOL_TYPES = {
    "flash_loan": (FlashLoanPool, {  # flash_loan, flash_repay
        "asset": ("asset", ASSET), "vX": ("available", NON_NEGATIVE),
        "interest": ("interest", (InterestModel, {"rate": ("rate", NON_NEGATIVE, 0.0),
                                                  "flat": ("flat", NON_NEGATIVE, 0.0)}), InterestModel())}),
    "constant_product": (ConstantProductAmm, {  # constant_product_swap
        **_PAIR, "uX": ("reserve_x", POSITIVE), "uY": ("reserve_y", POSITIVE), "fee": ("fee_rate", FRACTION, 0.0)}),
    "price_reserve": (AutomatedPriceReserve, {  # reserve_convert_x_to_y
        **_PAIR, "kX": ("inventory_x", NON_NEGATIVE), "lr": ("liquidity_rate", POSITIVE),
        "minP": ("min_price", POSITIVE), "maxP": ("max_price", POSITIVE)}),
    "fixed_price": (FixedPriceMarket, {  # sell_x_for_y_fixed
        **_PAIR, "pm": ("price", POSITIVE), "maxY": ("max_y", NON_NEGATIVE, None)}),
    "lending": (LendingPool, {  # collateralized_borrow, an over-collateralized lender
        "collateral": ("collateral_asset", ASSET), "debt": ("debt_asset", ASSET),
        "cf": ("collateral_factor", UNIT), "zY": ("available_debt", NON_NEGATIVE),
        "er": ("exchange_rate", POSITIVE, None)}),
    "margin": (MarginPlatform, {  # margin_short
        "collateral": ("collateral_asset", ASSET), "short": ("short_asset", ASSET),
        "leverage": ("leverage", POSITIVE), "ocr": ("over_collateral_ratio", POSITIVE),
        "wX": ("available_x", NON_NEGATIVE), "venue": ("venue", POOL, None), "emp": ("external_price", POSITIVE, None)}),
}


def _finite(value: Any, what: str) -> float:
    """`value` as a finite float, or a ConfigError naming `what`."""
    number = as_number(value, what)
    _require_finite(what, number)
    return number


def _build(pool_id: str, model: type, fields: dict, stanza: dict, prefix: str = "") -> Any:
    """`model` from `stanza`, each field read in its domain; `prefix` names a nested stanza."""
    missing = [prefix + name for name, (_, _, *default) in fields.items() if not default and name not in stanza]
    if missing:
        raise ConfigError(f"pool {pool_id!r}: missing field(s) {', '.join(missing)}")
    values = {}
    for name, (attribute, domain, *default) in fields.items():
        value, what = stanza.get(name), f"pool {pool_id!r}: {prefix}{name}"
        if value is None and default:
            value = default[0]
        elif domain in (ASSET, POOL):
            value = expect_type(value, str, what)
        elif isinstance(domain[1], dict):
            value = _build(pool_id, *domain, expect_type(value, dict, what), f"{prefix}{name}.")
        elif not domain[1](value := _finite(value, what)):
            raise ConfigError(f"{what} must be {domain[0]}, got {value}")
        values[attribute] = value
    return model(**values)


def build_pool(pool_id: str, stanza: dict) -> Pool:
    """One pool from its scenario stanza by `_POOL_TYPES`; a malformed stanza raises ConfigError."""
    kind = expect_type(stanza, dict, f"pool {pool_id!r}").get("type")
    if not isinstance(kind, str) or kind not in _POOL_TYPES:
        raise ConfigError(f"pool {pool_id!r}: unknown type {kind!r}")
    pool = _build(pool_id, *_POOL_TYPES[kind], stanza)
    if isinstance(pool, AutomatedPriceReserve):
        if pool.min_price > pool.max_price:
            raise ConfigError(f"pool {pool_id!r}: minP must be at most maxP, "
                              f"got {pool.min_price} > {pool.max_price}")
        try:
            quote = reserve_quote(pool)
        except OverflowError:
            quote = math.inf
        if not 0 < quote < math.inf:
            raise ConfigError(f"pool {pool_id!r}: starting quote minP * exp(lr * kX) must be "
                              f"positive and finite, got {quote}")
    return pool


def scenario_from_dict(doc: dict) -> WorldState:
    """Build the step-0 world state from a parsed scenario document."""
    assets = expect_type(doc, dict, "scenario").get("assets", [])
    if (not isinstance(assets, list) or not all(isinstance(a, str) and a for a in assets)
            or len(set(assets)) != len(assets)):
        raise ConfigError("assets must be unique non-empty symbols")
    declared = set(assets)
    balances: dict[tuple[str, str], float] = {}
    for entity, per_asset in expect_type(doc.get("balances", {}), dict, "balances").items():
        for asset, amount in expect_type(per_asset, dict, f"balances of {entity!r}").items():
            amount = _finite(amount, f"balance of {entity}/{asset}")
            if amount < 0:
                raise ConfigError(f"negative initial balance for {entity}/{asset}")
            if declared and asset not in declared:
                raise ConfigError(f"balance of {entity}/{asset}: undeclared asset {asset!r}")
            balances[(entity, asset)] = amount
    stanzas = expect_type(doc.get("pools", {}), dict, "pools")
    pools = {pid: build_pool(pid, stanza) for pid, stanza in stanzas.items()}
    for pid, pool in pools.items():
        symbols = [(name, domain, getattr(pool, attribute))
                   for name, (attribute, domain, *_) in _POOL_TYPES[stanzas[pid]["type"]][1].items()]
        for name, domain, symbol in symbols:
            if domain == POOL and symbol is not None and symbol not in pools:
                raise ConfigError(f"pool {pid!r}: {name} {symbol!r} not defined")
        stray = {symbol for _, domain, symbol in symbols if domain == ASSET} - declared
        if declared and stray:
            raise ConfigError(f"pool {pid!r}: undeclared asset(s) {sorted(stray)}")
    return WorldState(balances, pools)


def decoded_lines(stream: BinaryIO, source: Any, what: str, digest: Any,
                  encoding: str | None = None) -> Iterator[str]:
    """The lines of a binary stream, split at b"\\n", each fed to `digest` and decoded.

    The one place input bytes are decoded: in `encoding`, by default the
    locale's as `open` uses; bytes that do not decode raise a ConfigError
    naming `what`, `source` and the line.
    """
    decoder = codecs.getincrementaldecoder(encoding or locale.getpreferredencoding(False))()
    number = 0
    try:
        for number, line in enumerate(stream, 1):
            digest.update(line)
            yield decoder.decode(line)
        decoder.decode(b"", final=True)  # the last line's end may cut a character short
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {source}: line {number}: can't decode "
                          f"{exc.object[exc.start:exc.end]!r} as {exc.encoding}") from None


def read_text(source: str | Path, what: str) -> tuple[str, str]:
    """The text of a file (or package resource) and the sha256 of its bytes, read once
    by `decoded_lines`; line ends are translated as `Path.read_text` translates them."""
    digest = hashlib.sha256()
    with (Path(source) if isinstance(source, str) else source).open("rb") as stream:
        text = "".join(decoded_lines(stream, source, what, digest))
    return text.replace("\r\n", "\n").replace("\r", "\n"), digest.hexdigest()


def read_json(source: str | Path, what: str) -> tuple[Any, str]:
    """The JSON document in a file (or package resource) and the sha256 of its bytes, read once
    by `read_text`; bad JSON raises a ConfigError naming `what`, the file and the line."""
    text, digest = read_text(source, what)
    try:
        return json.loads(text), digest
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {source}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def load_scenario(path: str | Path) -> tuple[WorldState, str]:
    """Load a scenario file; returns the initial state and the sha256 of the file."""
    doc, digest = read_json(path, "scenario")
    return scenario_from_dict(doc), digest


def builtin_scenario(name: str) -> tuple[WorldState, str]:
    """Load one of the bundled scenarios by name, as `load_scenario` loads a file."""
    if name not in BUILTIN_SCENARIOS:
        raise ConfigError(f"unknown bundled scenario {name!r}; have {BUILTIN_SCENARIOS}")
    return load_scenario(resources.files("flashsim.data").joinpath(f"{name}.json"))
