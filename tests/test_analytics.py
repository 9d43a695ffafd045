"""Classification, aggregation, and wash-trading cost arithmetic."""

import math

import pytest

from flashsim.analytics import (
    AddressMap,
    LoanRecord,
    PriceTable,
    RecordError,
    aggregate,
    classify,
    format_table_csv,
    format_table_text,
    parse_records,
    wash_trading_cost,
)
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
        records, errors = parse_records(["not json", '{"tx": "0x1"}'])
        assert records == []
        assert len(errors) == 2
        assert errors[0].startswith("line 1")

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
        path.write_text('{"ETH": -1}')
        with pytest.raises(ConfigError):
            PriceTable.from_file(path)


class TestWashTradingCost:
    def test_zero_volume_costs_gas_only(self):
        assert wash_trading_cost(0.0, 0.003, 0.0009, 0.01, 3) == pytest.approx(0.03)

    def test_uniswap_day_volume_scenario(self):
        # fee model arithmetic: 481,893 * 0.003 + 0 + 0.01
        cost = wash_trading_cost(481_893.0, 0.003, 0.0, 0.01, 1)
        assert cost == pytest.approx(1445.689, abs=1e-3)

    def test_volume_linearity(self):
        one = wash_trading_cost(1000.0, 0.003, 0.0009, 0.0, 0)
        two = wash_trading_cost(2000.0, 0.003, 0.0009, 0.0, 0)
        assert two == pytest.approx(2 * one)

    def test_monotone_in_volume(self):
        costs = [wash_trading_cost(v, 0.003, 0.0009, 0.01, 1) for v in (0.0, 10.0, 1e4, 1e6)]
        assert costs == sorted(costs)

    def test_fee_validation(self):
        with pytest.raises(ConfigError):
            wash_trading_cost(1.0, 1.5, 0.0, 0.0, 0)
        with pytest.raises(ConfigError):
            wash_trading_cost(-1.0, 0.0, 0.0, 0.0, 0)
