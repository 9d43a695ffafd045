"""Seeded inputs for the benchmark workloads.

Everything the program reads during a run is written here, from the
workload seed alone: the same seed gives byte-identical files.  The
program never sees the seed itself, only these files and the CLI
``--seed`` derived from it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# CLI solver seeds the workload seed chooses from.  On the described-paa
# solve (4 starts), solver seeds 7 and 27 of 0..63 stop with the
# finite-difference defect (exit 2, "negative collateral" and "negative
# margin collateral"), and seeds 8 and 57 end at a local optimum 14% and
# 0.6% below the reference.  Every other command passes on all 64 seeds.  The
# timed commands draw from the rest; seeds 7 and 27 are replayed on every
# run as known failures (see workloads.py).
DESCRIBED_PAA_CRASH_SEEDS = (7, 27)
DESCRIBED_PAA_LOCAL_OPTIMUM_SEEDS = (8, 57)
SOLVER_SEEDS = tuple(s for s in range(64)
                     if s not in DESCRIBED_PAA_CRASH_SEEDS + DESCRIBED_PAA_LOCAL_OPTIMUM_SEEDS)

# The two-exchange market of the atomicity goldens.
MARKET = {"exchange_a": {"uX": 100.0, "uY": 35000.0},
          "exchange_b": {"uX": 100.0, "uY": 36000.0}, "x": "ETH", "y": "DAI"}

TRACE_EVENTS = 2000
LOAN_RECORDS = 10_000
PRICED_ASSETS = ("ETH", "DAI", "USDC", "WBTC", "sUSD", "LINK", "MKR")
UNPRICED_ASSET = "XYZ"

# Boxes of acceptance criterion 08: evaluate points are drawn inside them and
# kept only where every built-in constraint holds, where the description-file
# route and the closed form must agree to 1e-9.
EVAL_BOXES = {
    "paa": ("pump_arbitrage", ((0.0, 7573.0), (0.0, 1456.23))),
    "oracle": ("oracle_manipulation", ((0.0, 1100.0), (0.0, 548.0), (0.0, 3517.86))),
}


@dataclass(frozen=True)
class EvalPoint:
    vector: str
    scenario: str
    params: tuple[float, ...]
    objective: float  # the built-in closed-form objective at params


@dataclass(frozen=True)
class Inputs:
    work: Path
    cli_seed: int
    market: Path
    trades: Path
    loans: Path
    eval_points: tuple[EvalPoint, ...]
    loan_parse_errors: int  # malformed lines written to the loan file
    loan_bad_addresses: int  # well-formed records touching a malformed address
    loan_records: int  # well-formed records in the loan file

    def chain_file(self, vector: str) -> Path:
        """Where the ``describe`` output of a built-in vector is kept."""
        return self.work / f"{vector}_chain.json"


def generate(seed: int, work: Path, root: Path) -> Inputs:
    """Write every input file for `seed` into the directory `work`."""
    rng = random.Random(seed)
    cli_seed = rng.choice(SOLVER_SEEDS)

    market = work / "market.json"
    market.write_text(json.dumps(MARKET, indent=2, sort_keys=True) + "\n")

    trades = work / "trades.csv"
    trades.write_text(_trade_trace(rng))

    addresses = [line.split(",", 1)[0].strip()
                 for line in (root / "src/flashsim/data/contract_projects.csv").read_text().splitlines()
                 if line.strip() and not line.startswith("#")]
    loans = work / "loans.jsonl"
    text, parse_errors, bad_addresses, records = _loan_records(rng, addresses)
    loans.write_text(text)

    points = tuple(_eval_point(rng, name) for name in EVAL_BOXES)
    return Inputs(work, cli_seed, market, trades, loans, points,
                  parse_errors, bad_addresses, records)


def _trade_trace(rng: random.Random) -> str:
    """Trade trace in the ``block_index,exchange_id,direction,amount`` format.

    About one event in ten names an exchange the market does not have; those
    replay as no-ops.  Amounts are sized so both directions move a 100 ETH /
    35k DAI pool by comparable value.
    """
    lines = ["block_index,exchange_id,direction,amount"]
    block = 10_000_000 + rng.randrange(1000)
    for _ in range(TRACE_EVENTS):
        block += rng.randrange(3)
        exchange = rng.choice(("a", "b")) if rng.random() < 0.9 else rng.choice(("c", "other", "sushi"))
        direction = rng.choice(("XY", "YX"))
        scale = 0.3 if direction == "XY" else 100.0
        amount = max(1e-3, round(scale * rng.lognormvariate(0.0, 0.8), 6))
        lines.append(f"{block},{exchange},{direction},{amount!r}")
    return "\n".join(lines) + "\n"


def _loan_records(rng: random.Random, addresses: list[str]) -> tuple[str, int, int, int]:
    """JSONL loan records over the bundled contract map.

    Mixed in: addresses missing from the map (classified Unknown), records
    with a malformed address (classification errors), an unpriced asset, and
    malformed lines (parse errors).  Returns the text and the exact number of
    each kind so the classify report can be checked against them.
    """
    lines = []
    parse_errors = bad_addresses = records = 0
    for n in range(LOAN_RECORDS):
        roll = rng.random()
        if roll < 0.005:
            lines.append('{"tx": "0xbroken", "asset": ')
            parse_errors += 1
            continue
        if roll < 0.01:
            lines.append(json.dumps({"tx": f"0x{n:x}", "touched": [], "asset": "ETH",
                                     "amount": -1.0, "gas": 100000}))
            parse_errors += 1
            continue
        touched = rng.sample(addresses, rng.choices((1, 2, 3), weights=(6, 3, 1))[0])
        if rng.random() < 0.03:
            touched.append("0x" + "".join(rng.choice("0123456789abcdef") for _ in range(40)))
        if rng.random() < 0.01:
            touched.append("0x12345")
            bad_addresses += 1
        asset = UNPRICED_ASSET if rng.random() < 0.02 else rng.choice(PRICED_ASSETS)
        lines.append(json.dumps({
            "tx": f"0x{n:08x}",
            "touched": touched,
            "asset": asset,
            "amount": round(rng.lognormvariate(3.0, 2.0), 6),
            "gas": rng.randrange(200_000, 3_000_000),
        }))
        records += 1
    return "\n".join(lines) + "\n", parse_errors, bad_addresses, records


def _eval_point(rng: random.Random, name: str) -> EvalPoint:
    """A point where every built-in constraint of `name` holds, and its objective."""
    import numpy as np

    from flashsim.scenario import builtin_scenario
    from flashsim.vectors import BUILTIN_VECTORS

    scenario, box = EVAL_BOXES[name]
    vector = BUILTIN_VECTORS[name](builtin_scenario(scenario)[0])
    while True:
        params = tuple(round(lo + rng.random() * (hi - lo), 6) for lo, hi in box)
        point = np.array(params)
        if min(float(c.fn(point)) for c in vector.constraints) >= 0:
            return EvalPoint(name, scenario, params, float(vector.objective(point)))
