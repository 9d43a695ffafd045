"""Offline flash-loan usage analytics: platform classification and costs.

Works on pre-exported loan records (line-delimited JSON), never a chain
client.  Each record lists the contract addresses a transaction touched;
classification maps those to project names and aggregation groups records
by the resulting platform set, the way incident surveys tabulate usage.
`tabulate` reads the lines a chunk at a time and folds each chunk's records
into a running `UsageTally`, so memory grows by 24 bytes per record, not by
the record, and the table is the one the whole list would give, bit for bit.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .models import ConfigError, as_number, expect_type
from .scenario import read_json, read_text

UNKNOWN = "Unknown"
OTHERS = "Others"
MIN_GROUP_SIZE = 5
CHUNK_LINES = 1024  # input lines parsed and aggregated at a time by `tabulate`
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
        return AddressMap.from_lines(read_text(path, "address map")[0].splitlines())

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
        doc = expect_type(read_json(path, "price file")[0], dict, f"price file {path}")
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


def parse_records(lines: Iterable[str], start: int = 1) -> tuple[list[LoanRecord], list[str]]:
    """Parse JSONL loan records, numbering lines from `start`; bad lines are reported, not fatal."""
    records, errors = [], []
    for n, line in enumerate(lines, start=start):
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


class _Group:
    """One platform set's records as two floats each: priced USD terms and gas."""

    __slots__ = ("usd", "gas", "unpriced")

    def __init__(self):
        self.usd, self.gas, self.unpriced = array("d"), array("d"), 0


class UsageTally:
    """Running state of `aggregate`, so records can be folded in chunk by chunk.

    A platform set keeps its records' USD terms and gas in input order, not
    the records: Others sums several sets' terms in first-seen order and the
    gas spread takes two passes.  The total keeps a running USD sum and
    every gas.  That is 24 bytes per record.
    """

    def __init__(self):
        self.groups: dict[tuple[str, ...], _Group] = {}
        self.errors: list[str] = []
        self.usd, self.unpriced, self.gas = 0.0, 0, array("d")

    def add(self, key: tuple[str, ...], usd: float | None, gas: float) -> None:
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = _Group()
        if usd is None:
            group.unpriced += 1
            self.unpriced += 1
        else:
            group.usd.append(usd)
            self.usd += usd
        group.gas.append(gas)
        self.gas.append(gas)

    def table(self) -> UsageTable:
        named: list[UsageRow] = []
        folded: list[_Group] = []
        for key, group in self.groups.items():
            if len(group.gas) < MIN_GROUP_SIZE:
                folded.append(group)
            else:
                named.append(_row(key, [group]))
        named.sort(key=lambda row: (-row.count, row.platforms))
        if folded:
            named.append(_row((OTHERS,), folded))
        total = UsageRow(("Total",), len(self.gas), self.usd, *_gas_stats(self.gas), self.unpriced)
        return UsageTable(tuple(named), total, tuple(self.errors))


def _row(platforms: tuple[str, ...], groups: Sequence[_Group]) -> UsageRow:
    usd, gas = 0.0, array("d")
    for group in groups:
        for term in group.usd:
            usd += term
        gas += group.gas
    return UsageRow(platforms, len(gas), usd, *_gas_stats(gas), sum(g.unpriced for g in groups))


def aggregate(
    records: Iterable[LoanRecord], addr_map: AddressMap, prices: PriceTable,
    into: UsageTally | None = None,
) -> UsageTable | None:
    """Per-platform-set usage rows; sets seen fewer than 5 times fold into Others.

    Given a running tally `into`, the records are only folded into it and
    nothing is returned; `into.table()` gives the rows of every chunk folded.
    """
    tally = UsageTally() if into is None else into
    for record in records:
        try:
            key = classify(record, addr_map)
        except RecordError as exc:
            tally.errors.append(f"{record.tx}: {exc}")
            continue
        price = prices.get(record.asset)
        tally.add(key, None if price is None else record.amount * price, record.gas)
    return tally.table() if into is None else None


def tabulate(
    lines: Iterable[str], addr_map: AddressMap, prices: PriceTable
) -> tuple[UsageTable, list[str]]:
    """Usage table and parse errors of JSONL text, CHUNK_LINES lines at a time.

    `lines` are a text stream's lines.  Each is cut with `str.splitlines()`,
    so the numbered lines are exactly those of `text.splitlines()` on the
    whole text, and memory holds one chunk's records besides the tally.
    """
    tally, parse_errors, first = UsageTally(), [], 1
    for chunk in _chunks(lines):
        records, errors = parse_records(chunk, first)
        parse_errors += errors
        aggregate(records, addr_map, prices, into=tally)
        first += len(chunk)
        del chunk, records  # freed before the next chunk is read
    return tally.table(), parse_errors


def _chunks(lines: Iterable[str]) -> Iterator[list[str]]:
    """The `str.splitlines()` pieces of `lines`, CHUNK_LINES or more at a time.

    The last chunk may be empty, so there is always one.
    """
    chunk: list[str] = []
    for line in lines:
        chunk += line.splitlines()
        if len(chunk) >= CHUNK_LINES:
            yield chunk
            chunk = []
    yield chunk


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
