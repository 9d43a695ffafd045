"""Offline flash-loan usage analytics: platform classification and costs.

Works on pre-exported loan records (line-delimited JSON), never a chain
client.  Each record lists the contract addresses a transaction touched;
classification maps those to project names and aggregation groups records
by the resulting platform set, the way incident surveys tabulate usage.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .models import ConfigError, as_number, expect_type

UNKNOWN = "Unknown"
OTHERS = "Others"
MIN_GROUP_SIZE = 5
# Far above any real amount, gas or price; keeps every product, sum and square finite.
MAX_QUANTITY = 1e100

# USD marks used when no price file is supplied.
DEFAULT_PRICES: dict[str, float] = {
    "DAI": 1.0, "ETH": 350.0, "USDC": 1.0, "BAT": 0.2, "WBTC": 10000.0,
    "ZRX": 0.3, "MKR": 500.0, "LINK": 10.0, "USDT": 1.0, "REP": 15.0,
    "KNC": 1.5, "LEND": 0.5, "sUSD": 1.0,
}


class RecordError(Exception):
    """A single input record is malformed; processing continues without it."""


@dataclass(frozen=True)
class AddressMap:
    entries: Mapping[str, str]

    @staticmethod
    def from_lines(lines: Iterable[str]) -> "AddressMap":
        entries = {}
        for n, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                address, project = (part.strip() for part in line.split(",", 1))
                entries[_normalize_address(address)] = project
            except ValueError:
                raise ConfigError(f"address map line {n}: expected 'address,project'") from None
            except RecordError as exc:
                raise ConfigError(f"address map line {n}: {exc}") from None
        return AddressMap(entries)

    @staticmethod
    def from_file(path: str | Path) -> "AddressMap":
        return AddressMap.from_lines(Path(path).read_text().splitlines())

    @staticmethod
    def bundled() -> "AddressMap":
        text = resources.files("flashsim.data").joinpath("contract_projects.csv").read_text()
        return AddressMap.from_lines(text.splitlines())

    def project(self, address: str) -> str:
        return self.entries.get(_normalize_address(address), UNKNOWN)


_ADDRESS = re.compile(r"0x[0-9a-f]{40}")


def _normalize_address(address: str) -> str:
    candidate = address.strip().lower() if isinstance(address, str) else None
    if candidate is None or _ADDRESS.fullmatch(candidate) is None:
        raise RecordError(f"malformed address {address!r}")
    return candidate


@dataclass(frozen=True)
class PriceTable:
    prices: Mapping[str, float]

    @staticmethod
    def default() -> "PriceTable":
        return PriceTable(dict(DEFAULT_PRICES))

    @staticmethod
    def from_file(path: str | Path) -> "PriceTable":
        doc = expect_type(json.loads(Path(path).read_text()), dict, f"price file {path}")
        table = {asset: as_number(price, f"price of {asset!r}") for asset, price in doc.items()}
        if not all(0 < p <= MAX_QUANTITY for p in table.values()):
            raise ConfigError(f"prices must be positive and at most {MAX_QUANTITY:g}")
        return PriceTable(table)

    def get(self, asset: str) -> float | None:
        return self.prices.get(asset)


@dataclass(frozen=True)
class LoanRecord:
    tx: str
    touched: tuple[str, ...]
    asset: str
    amount: float
    gas: float


def _quantity(doc: dict, key: str) -> float:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number, got {type(value).__name__}")
    if not 0 <= value <= MAX_QUANTITY:  # NaN fails too
        raise ValueError(f"{key} must be in [0, {MAX_QUANTITY:g}], got {value!r}")
    return float(value)


def parse_records(lines: Iterable[str]) -> tuple[list[LoanRecord], list[str]]:
    """Parse JSONL loan records; bad lines are reported, not fatal."""
    records, errors = [], []
    for n, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = expect_type(json.loads(line), dict, "a loan record")
            record = LoanRecord(
                tx=expect_type(doc["tx"], str, "tx"),
                touched=tuple(expect_type(doc.get("touched", []), list, "touched")),
                asset=expect_type(doc["asset"], str, "asset"),
                amount=_quantity(doc, "amount"),
                gas=_quantity(doc, "gas"),
            )
        except (ConfigError, KeyError, TypeError, ValueError, RecursionError) as exc:
            errors.append(f"line {n}: {exc}")
            continue
        records.append(record)
    return records, errors


def classify(record: LoanRecord, addr_map: AddressMap) -> tuple[str, ...]:
    """Deduplicated, alphabetically sorted set of platforms the record touched."""
    return tuple(sorted({addr_map.project(address) for address in record.touched}))


@dataclass(frozen=True)
class UsageRow:
    platforms: tuple[str, ...]
    count: int
    amount_usd: float
    gas_mean: float
    gas_std: float
    unpriced: int = 0  # records whose asset had no USD mark (excluded from the sum)

    @property
    def label(self) -> str:
        return ", ".join(self.platforms)

    def as_dict(self) -> dict:
        return {
            "platforms": self.label,
            "count": self.count,
            "amount_usd": self.amount_usd,
            "gas_mean": self.gas_mean,
            "gas_std": self.gas_std,
            "unpriced": self.unpriced,
        }


@dataclass(frozen=True)
class UsageTable:
    rows: tuple[UsageRow, ...]
    total: UsageRow
    errors: tuple[str, ...] = ()


def _gas_stats(gas: Sequence[float]) -> tuple[float, float]:
    if not gas:
        return 0.0, 0.0
    mean = sum(gas) / len(gas)
    variance = sum((g - mean) ** 2 for g in gas) / len(gas)  # population, not sample
    return mean, math.sqrt(variance)


def aggregate(
    records: Iterable[LoanRecord], addr_map: AddressMap, prices: PriceTable
) -> UsageTable:
    """Per-platform-set usage rows; sets seen fewer than 5 times fold into Others."""
    groups: dict[tuple[str, ...], list[LoanRecord]] = {}
    errors: list[str] = []
    kept: list[LoanRecord] = []
    for record in records:
        try:
            key = classify(record, addr_map)
        except RecordError as exc:
            errors.append(f"{record.tx}: {exc}")
            continue
        groups.setdefault(key, []).append(record)
        kept.append(record)

    def usd_and_unpriced(batch: Sequence[LoanRecord]) -> tuple[float, int]:
        total, unpriced = 0.0, 0
        for r in batch:
            price = prices.get(r.asset)
            if price is None:
                unpriced += 1
            else:
                total += r.amount * price
        return total, unpriced

    named: list[UsageRow] = []
    folded: list[LoanRecord] = []
    for key, batch in groups.items():
        if len(batch) < MIN_GROUP_SIZE:
            folded.extend(batch)
            continue
        usd, unpriced = usd_and_unpriced(batch)
        mean, std = _gas_stats([r.gas for r in batch])
        named.append(UsageRow(key, len(batch), usd, mean, std, unpriced))
    named.sort(key=lambda row: (-row.count, row.platforms))
    if folded:
        usd, unpriced = usd_and_unpriced(folded)
        mean, std = _gas_stats([r.gas for r in folded])
        named.append(UsageRow((OTHERS,), len(folded), usd, mean, std, unpriced))

    usd, unpriced = usd_and_unpriced(kept)
    mean, std = _gas_stats([r.gas for r in kept])
    total = UsageRow(("Total",), len(kept), usd, mean, std, unpriced)
    return UsageTable(tuple(named), total, tuple(errors))


def wash_trading_cost(
    target_volume_usd: float,
    dex_fee: float,
    loan_fee: float,
    gas_cost_per_txn: float,
    n_txns: int,
) -> float:
    """USD cost of faking `target_volume_usd` of volume with looped flash loans.

    The full volume pays the exchange fee; each wash loop trades the loan
    twice, so the loan principal is half the volume and pays the loan fee
    once; every transaction pays gas.
    """
    for name, fee in (("dex_fee", dex_fee), ("loan_fee", loan_fee)):
        if not 0 <= fee < 1:
            raise ConfigError(f"{name} must be in [0, 1), got {fee}")
    if target_volume_usd < 0 or gas_cost_per_txn < 0 or n_txns < 0:
        raise ConfigError("volume, gas cost, and transaction count must be non-negative")
    return (
        target_volume_usd * dex_fee
        + (target_volume_usd / 2.0) * loan_fee
        + n_txns * gas_cost_per_txn
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def format_table_text(table: UsageTable) -> str:
    header = ("Platforms", "Count", "Amount (USD)", "Mean gas")
    body = [
        (
            row.label,
            str(row.count),
            f"{row.amount_usd:,.2f}" + (f" ({row.unpriced} unpriced)" if row.unpriced else ""),
            f"{row.gas_mean:,.0f} ± {row.gas_std:,.0f}",
        )
        for row in (*table.rows, table.total)
    ]
    widths = [max(len(r[i]) for r in (header, *body)) for i in range(4)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for cells in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    if table.errors:
        lines.append(f"skipped {len(table.errors)} malformed record(s)")
    return "\n".join(lines)


def format_table_csv(table: UsageTable) -> str:
    lines = ["platforms,count,amount_usd,gas_mean,gas_std,unpriced"]
    for row in (*table.rows, table.total):
        label = '"' + row.label + '"' if "," in row.label else row.label
        lines.append(
            f"{label},{row.count},{row.amount_usd:.6f},{row.gas_mean:.6f},"
            f"{row.gas_std:.6f},{row.unpriced}"
        )
    return "\n".join(lines)
