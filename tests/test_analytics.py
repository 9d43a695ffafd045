"""Record parsing, classification and aggregation."""

import hashlib
import json
import math
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flashsim import analytics
from flashsim.analytics import (
    AddressMap,
    LoanRecord,
    PriceTable,
    RecordError,
    UsageRow,
    UsageTable,
    aggregate,
    classify,
    format_table_csv,
    format_table_text,
    parse_records,
)
from flashsim.cli import main
from flashsim.models import ConfigError

AAVE = "0x398eC7346DcD622eDc5ae82352F02bE94C62d119"
UNISWAP = "0x09cabEC1eAd1c0Ba254B09efb3EE13841712bE14"
COMPOUND = "0x3d9819210A31b4961b30EF54bE2aeD79B9c9Cd3B"


def record(tx="0x1", touched=(), asset="ETH", amount=1.0, gas=100.0):
    return LoanRecord(tx, tuple(touched), asset, amount, gas)


class TestClassify:
    def test_bundled_map_resolves_lender(self):
        assert classify(record(touched=[AAVE]), AddressMap.bundled()) == ("Aave",)

    def test_bundled_map_size(self):
        assert len(AddressMap.bundled().entries) == 45

    def test_empty_touch_list(self):
        assert classify(record(), AddressMap.bundled()) == ()

    def test_unmapped_address(self):
        assert classify(record(touched=["0x" + "ab" * 20]), AddressMap.bundled()) == ("Unknown",)

    def test_case_insensitive_and_order_insensitive(self):
        m = AddressMap.bundled()
        one = classify(record(touched=[AAVE.lower(), UNISWAP]), m)
        other = classify(record(touched=[UNISWAP.upper().replace("0X", "0x"), AAVE]), m)
        assert one == other == ("Aave", "Uniswap")

    def test_deduplicates(self):
        m = AddressMap.bundled()
        assert classify(record(touched=[AAVE, AAVE.lower()]), m) == ("Aave",)

    def test_malformed_address_raises_record_error(self):
        with pytest.raises(RecordError):
            classify(record(touched=["banana"]), AddressMap.bundled())

    @pytest.mark.parametrize("address", [123, None, 1.5, ["0x" + "ab" * 20], b"0x" + b"ab" * 20])
    def test_non_string_address_raises_record_error(self, address):
        with pytest.raises(RecordError):
            classify(record(touched=[address]), AddressMap.bundled())

    def test_address_verdicts_match_the_character_rule(self):
        # "0x" and exactly 40 of 0-9a-f after lower-casing; int(body, 16)
        # would wrongly accept "_" and "+", and unicode digits
        body = "ab" * 20
        candidates = ["0x" + body, "0X" + body.upper(), f"  0x{body}\n", "0x" + body[:-1],
                      "0x" + body + "0", "x0" + body, body + "00", "0x" + body[:-1] + "g",
                      "0x" + body[:-1] + "_", "0x+" + body[:-1], "0x" + body[:-1] + "\u0661",
                      "0x" + body[:-1] + "\uff21", "0x 0" + body[:-2], "0x", ""]
        m = AddressMap.bundled()
        for address in candidates:
            candidate = address.strip().lower()
            body_part = candidate[2:]
            valid = (candidate.startswith("0x") and len(body_part) == 40
                     and all(c in "0123456789abcdef" for c in body_part))
            if valid:
                assert m.project(address) == "Unknown", address
            else:
                with pytest.raises(RecordError):
                    m.project(address)


class TestAggregate:
    def test_single_set_usd_sum(self):
        records = [record(tx=f"0x{i}", touched=[AAVE], asset="ETH", amount=a, gas=100.0)
                   for i, a in enumerate([1.0, 2.0, 3.0])]
        # three of a kind stay below the fold threshold -> Others
        table = aggregate(records, AddressMap.bundled(), PriceTable.default())
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.platforms == ("Others",)
        assert row.count == 3
        assert row.amount_usd == pytest.approx(3 * 350.0 + 2 * 350.0 + 350.0)

    def test_empty_input(self):
        table = aggregate([], AddressMap.bundled(), PriceTable.default())
        assert table.rows == ()
        assert table.total.count == 0

    def test_constant_gas_has_zero_spread(self):
        records = [record(tx=f"0x{i}", touched=[AAVE], gas=100.0) for i in range(6)]
        table = aggregate(records, AddressMap.bundled(), PriceTable.default())
        assert table.rows[0].gas_mean == 100.0
        assert table.rows[0].gas_std == 0.0

    def test_population_std(self):
        records = [record(tx=f"0x{i}", touched=[AAVE], gas=g)
                   for i, g in enumerate([100.0, 200.0, 300.0, 400.0, 500.0])]
        table = aggregate(records, AddressMap.bundled(), PriceTable.default())
        expected = math.sqrt(sum((g - 300.0) ** 2 for g in (100, 200, 300, 400, 500)) / 5)
        assert table.rows[0].gas_std == pytest.approx(expected)

    def test_small_sets_fold_into_others(self):
        records = (
            [record(tx=f"0xa{i}", touched=[AAVE]) for i in range(7)]
            + [record(tx=f"0xb{i}", touched=[COMPOUND]) for i in range(3)]
            + [record(tx=f"0xc{i}", touched=[UNISWAP]) for i in range(2)]
        )
        table = aggregate(records, AddressMap.bundled(), PriceTable.default())
        labels = [row.platforms for row in table.rows]
        assert labels == [("Aave",), ("Others",)]
        assert table.rows[1].count == 5

    def test_totals_row_sums_named_rows_and_others(self):
        records = (
            [record(tx=f"0xa{i}", touched=[AAVE], amount=2.0) for i in range(6)]
            + [record(tx=f"0xb{i}", touched=[COMPOUND], amount=1.0) for i in range(2)]
        )
        table = aggregate(records, AddressMap.bundled(), PriceTable.default())
        assert table.total.count == sum(r.count for r in table.rows)
        assert table.total.amount_usd == pytest.approx(sum(r.amount_usd for r in table.rows))
        all_gas = [r.gas for r in records]
        assert table.total.gas_mean == pytest.approx(sum(all_gas) / len(all_gas))

    def test_missing_price_flags_row_and_skips_usd(self):
        records = [record(tx=f"0x{i}", touched=[AAVE], asset="OBSCURE", amount=10.0)
                   for i in range(5)]
        records.append(record(tx="0xp", touched=[AAVE], asset="ETH", amount=1.0))
        table = aggregate(records, AddressMap.bundled(), PriceTable.default())
        row = table.rows[0]
        assert row.unpriced == 5
        assert row.amount_usd == pytest.approx(350.0)

    def test_malformed_record_skipped_but_rest_processed(self):
        records = [record(tx="0xbad", touched=["nonsense"]),
                   record(tx="0xok", touched=[AAVE])]
        table = aggregate(records, AddressMap.bundled(), PriceTable.default())
        assert table.total.count == 1
        assert len(table.errors) == 1
        assert "0xbad" in table.errors[0]

    def test_renderings_cover_all_rows(self):
        records = [record(tx=f"0x{i}", touched=[AAVE]) for i in range(5)]
        table = aggregate(records, AddressMap.bundled(), PriceTable.default())
        text = format_table_text(table)
        assert "Aave" in text and "Total" in text
        csv_text = format_table_csv(table)
        assert csv_text.splitlines()[0].startswith("platforms,")
        assert len(csv_text.splitlines()) == 3  # header + Aave + total


class TestParsing:
    def test_jsonl_round_trip(self):
        lines = [
            '{"tx": "0x1", "touched": ["%s"], "asset": "ETH", "amount": 2.5, "gas": 9}' % AAVE,
            "",
            '{"tx": "0x2", "asset": "DAI", "amount": 1, "gas": 2}',
        ]
        records, errors = parse_records(lines)
        assert len(records) == 2 and not errors
        assert records[0].amount == 2.5
        assert records[1].touched == ()

    def test_bad_lines_reported_with_numbers(self):
        records, errors = parse_records(["not json", '{"tx": "0x1"}', "[1, 2]"])
        assert records == []
        assert len(errors) == 3
        assert errors[0].startswith("line 1")
        assert errors[2] == "line 3: a loan record must be a JSON object, got list"

    @pytest.mark.parametrize("field, value, message", [
        ("amount", math.nan, "amount must be in [0, 1e+100], got nan"),
        ("gas", math.inf, "gas must be in [0, 1e+100], got inf"),
        ("amount", 1e101, "amount must be in [0, 1e+100], got 1e+101"),
        ("amount", True, "amount must be a number, got bool"),
        ("gas", "5", "gas must be a number, got str"),
        ("touched", AAVE, "touched must be a JSON list, got str"),
        ("tx", 7, "tx must be a string, got int"),
    ])
    def test_non_finite_and_mistyped_fields_are_parse_errors(self, field, value, message):
        doc = {"tx": "0x1", "touched": [AAVE], "asset": "ETH", "amount": 1.0, "gas": 5.0, field: value}
        assert parse_records([json.dumps(doc)]) == ([], [f"line 1: {message}"])

    def test_address_map_file_validation(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text(f"{AAVE},Aave\n# comment\n")
        assert AddressMap.from_file(path).project(AAVE) == "Aave"
        bad = tmp_path / "bad.csv"
        bad.write_text("no-comma-here\n")
        with pytest.raises(ConfigError):
            AddressMap.from_file(bad)

    def test_price_table_file(self, tmp_path):
        path = tmp_path / "prices.json"
        path.write_text('{"ETH": 350, "DAI": 1}')
        table = PriceTable.from_file(path)
        assert table.get("ETH") == 350.0
        assert table.get("MISSING") is None
        for bad in ("-1", "NaN", "Infinity", "1e101"):
            path.write_text('{"ETH": %s}' % bad)
            with pytest.raises(ConfigError, match="positive and at most"):
                PriceTable.from_file(path)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
RECORD = st.fixed_dictionaries({
    "tx": st.text(max_size=6) | JSON_VALUE,
    "touched": st.lists(st.sampled_from([AAVE, UNISWAP, "0x12345"]), max_size=3) | JSON_VALUE,
    "asset": st.sampled_from(["ETH", "DAI", "NOPRICE"]) | JSON_VALUE,
    "amount": st.floats() | JSON_VALUE,
    "gas": st.floats() | JSON_VALUE,
})
LINE = st.one_of(RECORD.map(json.dumps), JSON_VALUE.map(json.dumps), st.text(max_size=20))


@settings(max_examples=150, deadline=None)
@given(st.lists(LINE, max_size=8))
@example(['{"tx": "0x1", "asset": "ETH", "amount": NaN, "gas": 1}',
          '{"tx": "0x2", "asset": "ETH", "amount": 1, "gas": Infinity}',
          '{"tx": "0x3", "touched": "%s", "asset": "ETH", "amount": 1, "gas": 1e200}' % AAVE])
def test_fuzzed_loan_lines_are_records_or_parse_errors(lines):
    text = "\n".join(lines) + "\n"
    numbered = text.splitlines()
    records, errors = parse_records(numbered)
    assert len(records) + len(errors) == sum(1 for line in numbered if line.strip())

    res = CliRunner().invoke(main, ["--format", "structured", "classify", "--input", "-"], input=text)
    assert res.exception is None, repr(res.exception)
    assert res.exit_code == 0, res.output
    results = json.loads(res.output, parse_constant=_no_constant)["results"]
    assert len(results["parse_errors"]) == len(errors)
    assert results["total"]["count"] + len(results["classification_errors"]) == len(records)


# ---------------------------------------------------------------------------
# Streaming classify against the whole-text reading
# ---------------------------------------------------------------------------

def reference_table(records, addr_map, prices) -> UsageTable:
    """`aggregate` as it was on whole lists of records."""
    groups, errors, kept = {}, [], []
    for r in records:
        try:
            key = classify(r, addr_map)
        except RecordError as exc:
            errors.append(f"{r.tx}: {exc}")
            continue
        groups.setdefault(key, []).append(r)
        kept.append(r)

    def row(platforms, batch):
        usd, unpriced = 0.0, 0
        for r in batch:
            price = prices.get(r.asset)
            if price is None:
                unpriced += 1
            else:
                usd += r.amount * price
        gas = [r.gas for r in batch]
        mean = sum(gas) / len(gas) if gas else 0.0
        std = math.sqrt(sum((g - mean) ** 2 for g in gas) / len(gas)) if gas else 0.0
        return UsageRow(platforms, len(batch), usd, mean, std, unpriced)

    named = [row(key, batch) for key, batch in groups.items() if len(batch) >= 5]
    named.sort(key=lambda r: (-r.count, r.platforms))
    folded = [r for batch in groups.values() if len(batch) < 5 for r in batch]
    if folded:
        named.append(row(("Others",), folded))
    return UsageTable(tuple(named), row(("Total",), kept), tuple(errors))


def reference_results(text: str) -> dict:
    """The classify results and input hash when the whole text is read first."""
    records, parse_errors = parse_records(text.splitlines())
    table = reference_table(records, AddressMap.bundled(), PriceTable.default())
    return {"results": {"rows": [r.as_dict() for r in table.rows], "total": table.total.as_dict(),
                        "classification_errors": list(table.errors), "parse_errors": parse_errors},
            "scenario_hash": hashlib.sha256(text.encode()).hexdigest()}


ADDRESSES = [*sorted(AddressMap.bundled().entries)[:12], "0x" + "ab" * 20, "0x12345"]


def loan_lines(count: int, seed: int = 0) -> list[str]:
    """JSONL loan records over many small and a few large platform sets, some broken."""
    rng = random.Random(seed)
    lines = []
    for i in range(count):
        doc = {"tx": f"0x{i:x}", "touched": rng.sample(ADDRESSES, rng.randint(0, 3)),
               "asset": rng.choice(["ETH", "DAI", "WBTC", "XYZ"]),
               "amount": rng.lognormvariate(3, 2), "gas": rng.uniform(2e4, 9e5)}
        if rng.random() < 0.02:
            doc["gas"] = "lots"
        lines.append(json.dumps(doc))
    return lines


class TestStreamingClassify:
    """The chunked read gives the whole-text reading's rows and errors, bitwise, and the
    sha256 of the bytes read, whatever their line ends."""

    LINES = loan_lines(60)
    CASES = {
        "crlf": "\r\n".join(LINES) + "\r\n",
        # a raw line separator inside a record line splits it in two
        "u2028-in-record": LINES[0][:-1] + ', "note": "a\u2028b"}\n' + "\n".join(LINES[1:]) + "\n",
        "blank-lines": "\n\n" + "\n\n".join(LINES[:30]) + "\n \n" + "\n".join(LINES[30:]) + "\n\n",
        "no-trailing-newline": "\n".join(LINES),
        "mixed-ends": "\r".join(LINES[:20]) + "\r\n" + "\x85".join(LINES[20:]) + "\x0c",
        "empty": "",
    }

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(analytics, "CHUNK_LINES", 7)  # many chunk boundaries

    @staticmethod
    def classify_report(argv, **kwargs) -> dict:
        res = CliRunner().invoke(main, ["--format", "structured", "classify", *argv], **kwargs)
        assert res.exit_code == 0, res.output
        return json.loads(res.output)

    @pytest.mark.parametrize("name", CASES)
    def test_file_matches_whole_text_reading(self, tmp_path, name):
        path = tmp_path / "loans.jsonl"
        path.write_bytes(self.CASES[name].encode())
        report = self.classify_report(["--input", str(path)])
        expected = reference_results(self.CASES[name])
        assert {k: report[k] for k in expected} == expected

    @pytest.mark.parametrize("name", CASES)
    def test_stdin_matches_whole_text_reading(self, name):
        text = self.CASES[name]
        report = self.classify_report(["--input", "-"], input=text.encode())
        expected = reference_results(text)
        assert {k: report[k] for k in expected} == expected

    def test_spawned_stdin_keeps_carriage_returns(self):
        # a real stdin on POSIX translates no line ends; sys.stdin.read() kept them
        text = self.CASES["crlf"] + self.CASES["mixed-ends"]
        res = subprocess.run([sys.executable, "-m", "flashsim.cli", "--format", "structured",
                              "classify", "--input", "-"], input=text.encode(), capture_output=True,
                             env={"PYTHONPATH": str(Path(analytics.__file__).parents[1])}, timeout=600)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        expected = reference_results(text)
        assert {k: report[k] for k in expected} == expected

    def test_parse_error_numbers_cross_chunks(self):
        text = "\n".join(["not json", *self.LINES[:9], "", "[1]", *self.LINES[9:], "{"]) + "\n"
        report = self.classify_report(["--input", "-"], input=text)
        errors = report["results"]["parse_errors"]
        assert [e.split(":")[0] for e in errors[:2]] == ["line 1", "line 12"]
        assert errors[-1].startswith(f"line {len(text.splitlines())}:")
        assert errors == reference_results(text)["results"]["parse_errors"]

    def test_every_chunk_is_parsed_and_aggregated(self, monkeypatch):
        calls = []

        def counting(name, original):
            def wrapper(items, *args, **kwargs):
                calls.append((name, len(items)))
                return original(items, *args, **kwargs)
            return wrapper

        for name in ("parse_records", "aggregate"):
            monkeypatch.setattr(analytics, name, counting(name, getattr(analytics, name)))
        report = self.classify_report(["--input", "-"], input="\n".join(self.LINES) + "\n")
        parsed = [n for name, n in calls if name == "parse_records"]
        assert parsed == [7] * 8 + [4]
        assert sum(n for name, n in calls if name == "aggregate") == 60 - len(
            report["results"]["parse_errors"])


def test_many_small_sets_fold_bitwise_like_whole_lists():
    records, _ = parse_records(loan_lines(3000, seed=9))
    got = aggregate(records, AddressMap.bundled(), PriceTable.default())
    assert got == reference_table(records, AddressMap.bundled(), PriceTable.default())
    assert got.rows[-1].platforms == ("Others",) and got.total.unpriced > 0


def test_classify_memory_is_bounded_by_the_chunk(tmp_path):
    path = tmp_path / "loans.jsonl"
    path.write_text("\n".join(loan_lines(20_000, seed=3)) + "\n")  # 2.9 MB
    runner = CliRunner()
    tracemalloc.start()
    try:
        res = runner.invoke(main, ["--format", "csv", "classify", "--input", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0, res.output
    # reading the whole text and holding every record once peaked near 16 MB,
    # and keeping one chunk's records while the next is parsed near 1.7 MB
    assert peak < 1.5 * 2 ** 20
