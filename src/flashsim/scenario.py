"""Scenario files: declarative initial on-chain state for a simulation run.

A scenario is a JSON document naming assets, entities, starting balances,
and one stanza per pool.  Pool stanzas use the short field names common in
on-chain incident write-ups (vX, cf, er, zY, uX, uY, ocr, leverage, wX,
pm, lr, minP, maxP, kX, maxY).  Two scenarios ship with the package:
``pump_arbitrage`` (the February 15 2020 ETH/WBTC incident state) and
``oracle_manipulation`` (the February 18 2020 ETH/sUSD incident state).
"""

from __future__ import annotations

import codecs
import hashlib
import io
import json
from importlib import resources
from pathlib import Path
from typing import Any, Iterable

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
)

BUILTIN_SCENARIOS = ("pump_arbitrage", "oracle_manipulation")


_SYMBOL_FIELDS = frozenset({"asset", "x", "y", "collateral", "debt", "short", "venue"})


def _finite(value: Any, what: str) -> float:
    """`value` as a finite float, or a ConfigError naming `what`."""
    number = as_number(value, what)
    _require_finite(what, number)
    return number


def _field(pool_id: str, name: str, value: Any) -> Any:
    """A stanza field as its type: a string for asset and venue names, else a finite float."""
    what = f"pool {pool_id!r}: {name}"
    return expect_type(value, str, what) if name in _SYMBOL_FIELDS else _finite(value, what)


def _require(stanza: dict, pool_id: str, *fields: str) -> list[Any]:
    missing = [f for f in fields if f not in stanza]
    if missing:
        raise ConfigError(f"pool {pool_id!r}: missing field(s) {', '.join(missing)}")
    return [_field(pool_id, f, stanza[f]) for f in fields]


def _optional(stanza: dict, pool_id: str, name: str, default: Any = None) -> Any:
    value = stanza.get(name)
    return default if value is None else _field(pool_id, name, value)


def build_pool(pool_id: str, stanza: dict) -> Pool:
    """One pool from its scenario stanza; a malformed stanza raises ConfigError."""
    kind = expect_type(stanza, dict, f"pool {pool_id!r}").get("type")
    if kind == "flash_loan":
        asset, v_x = _require(stanza, pool_id, "asset", "vX")
        interest = expect_type(stanza.get("interest", {}), dict, f"pool {pool_id!r}: interest")
        return FlashLoanPool(asset=asset, available=v_x, interest=InterestModel(
            rate=_optional(interest, pool_id, "rate", 0.0),
            flat=_optional(interest, pool_id, "flat", 0.0),
        ))
    if kind == "constant_product":
        x, y, u_x, u_y = _require(stanza, pool_id, "x", "y", "uX", "uY")
        return ConstantProductAmm(
            asset_x=x, asset_y=y, reserve_x=u_x, reserve_y=u_y,
            fee_rate=_optional(stanza, pool_id, "fee", 0.0),
        )
    if kind == "price_reserve":
        x, y, k_x, lr, min_p, max_p = _require(stanza, pool_id, "x", "y", "kX", "lr", "minP", "maxP")
        return AutomatedPriceReserve(
            asset_x=x, asset_y=y, inventory_x=k_x, liquidity_rate=lr,
            min_price=min_p, max_price=max_p,
        )
    if kind == "fixed_price":
        x, y, p_m = _require(stanza, pool_id, "x", "y", "pm")
        return FixedPriceMarket(
            asset_x=x, asset_y=y, price=p_m, max_y=_optional(stanza, pool_id, "maxY"),
        )
    if kind == "lending":
        collateral, debt, cf, z_y = _require(stanza, pool_id, "collateral", "debt", "cf", "zY")
        return LendingPool(
            collateral_asset=collateral, debt_asset=debt,
            collateral_factor=cf, available_debt=z_y,
            exchange_rate=_optional(stanza, pool_id, "er"),
        )
    if kind == "margin":
        collateral, short, lev, ocr, w_x = _require(
            stanza, pool_id, "collateral", "short", "leverage", "ocr", "wX"
        )
        return MarginPlatform(
            collateral_asset=collateral, short_asset=short,
            leverage=lev, over_collateral_ratio=ocr, available_x=w_x,
            venue=_optional(stanza, pool_id, "venue"),
            external_price=_optional(stanza, pool_id, "emp"),
        )
    raise ConfigError(f"pool {pool_id!r}: unknown type {kind!r}")


def scenario_from_dict(doc: dict) -> WorldState:
    """Build the step-0 world state from a parsed scenario document."""
    assets = expect_type(doc, dict, "scenario").get("assets", [])
    if (not isinstance(assets, list) or not all(isinstance(a, str) and a for a in assets)
            or len(set(assets)) != len(assets)):
        raise ConfigError("assets must be unique non-empty symbols")
    balances: dict[tuple[str, str], float] = {}
    for entity, per_asset in expect_type(doc.get("balances", {}), dict, "balances").items():
        for asset, amount in expect_type(per_asset, dict, f"balances of {entity!r}").items():
            amount = _finite(amount, f"balance of {entity}/{asset}")
            if amount < 0:
                raise ConfigError(f"negative initial balance for {entity}/{asset}")
            balances[(entity, asset)] = amount
    stanzas = expect_type(doc.get("pools", {}), dict, "pools")
    pools = {pid: build_pool(pid, stanza) for pid, stanza in stanzas.items()}
    declared = set(assets)
    for pid, pool in pools.items():
        if isinstance(pool, MarginPlatform) and pool.venue is not None and pool.venue not in pools:
            raise ConfigError(f"pool {pid!r}: venue {pool.venue!r} not defined")
        if declared:
            referenced = {
                getattr(pool, name)
                for name in ("asset", "asset_x", "asset_y", "collateral_asset",
                             "debt_asset", "short_asset")
                if getattr(pool, name, None) is not None
            }
            stray = referenced - declared
            if stray:
                raise ConfigError(f"pool {pid!r}: undeclared asset(s) {sorted(stray)}")
    return WorldState(balances, pools)


def read_text(source: str | Path, what: str) -> tuple[str, str]:
    """The text of a file (or package resource) and the sha256 of its bytes, read once.

    The bytes are decoded as `Path.read_text` decodes them; undecodable bytes
    raise a ConfigError naming `what`, the file and the line.
    """
    raw = (Path(source) if isinstance(source, str) else source).read_bytes()
    try:
        text = io.TextIOWrapper(io.BytesIO(raw)).read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {source}: line {undecodable_line(io.BytesIO(raw), exc.encoding)}: "
                          f"can't decode {exc.object[exc.start:exc.end]!r} as {exc.encoding}") from None
    return text, hashlib.sha256(raw).hexdigest()


def read_json(source: str | Path, what: str) -> tuple[Any, str]:
    """The JSON document in a file (or package resource) and the sha256 of its bytes, read once
    by `read_text`; bad JSON raises a ConfigError naming `what`, the file and the line."""
    text, digest = read_text(source, what)
    try:
        return json.loads(text), digest
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {source}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def undecodable_line(lines: Iterable[bytes], encoding: str) -> int:
    """Number of the first of `lines` (a binary file's, split at b"\\n") that does not decode.

    A decoder's error position counts from its read chunk, not from the file.
    """
    decoder, number = codecs.getincrementaldecoder(encoding)(), 0
    for number, line in enumerate(lines, 1):
        try:
            decoder.decode(line)
        except UnicodeDecodeError:
            break
    return number  # or the last line, whose end cuts a character short


def load_scenario(path: str | Path) -> tuple[WorldState, str]:
    """Load a scenario file; returns the initial state and the sha256 of the file."""
    doc, digest = read_json(path, "scenario")
    return scenario_from_dict(doc), digest


def builtin_scenario(name: str) -> tuple[WorldState, str]:
    """Load one of the bundled scenarios by name, as `load_scenario` loads a file."""
    if name not in BUILTIN_SCENARIOS:
        raise ConfigError(f"unknown bundled scenario {name!r}; have {BUILTIN_SCENARIOS}")
    return load_scenario(resources.files("flashsim.data").joinpath(f"{name}.json"))
