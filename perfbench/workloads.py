"""The benchmark's workloads: the CLI commands each one runs and how each output is checked.

A check reads the command's standard output and returns a problem string,
or None when the output is right.  Every command asks for ``--format
structured`` (``describe`` prints its description document), so the
stable payload of a report can be compared across repeats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

from inputs import DESCRIBED_PAA_CRASH_SEEDS, Inputs

# Solver objectives of the incident problems; solver seeds 0, 1 and 7 reach
# them to ~1e-8 relative, and the check allows 0.5%.
REFERENCE_OBJECTIVE = {"paa": 2779.09, "oracle": 8135.65, "oracle_uncapped": 87542.35}
OBJECTIVE_TOL = 0.005


@dataclass(frozen=True)
class Command:
    metric: str  # the per-command metric this command's wall time feeds
    argv: tuple[str, ...]  # arguments after ``python -m flashsim.cli``
    check: Callable[[str], str | None]
    save_to: str | None = None  # keep the checked stdout here for later commands


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    # Commands with a documented defect: replayed once per run, outside the
    # timed loop.  Each passes its check when it either fails the documented
    # way (exit 2 with one ``error:`` line) or, once fixed, succeeds correctly.
    known_failures: tuple[Command, ...] = ()


def stable_payload(stdout: str) -> str:
    """The report without ``wall_time_s`` and ``versions``, as canonical JSON."""
    doc = json.loads(stdout)
    if isinstance(doc, dict):
        doc.pop("wall_time_s", None)
        doc.pop("versions", None)
    return json.dumps(doc, sort_keys=True)


def _results(stdout: str) -> dict:
    return json.loads(stdout)["results"]


def check_optimize(reference: float) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        res = _results(stdout)
        solver = res["solver"]
        if not solver["feasible"]:
            return "solver result infeasible"
        if res["disagreement"]:
            return f"solver and grid disagree by {res['relative_gap']:.3%}"
        gap = abs(solver["best_objective"] / reference - 1.0)
        if gap > OBJECTIVE_TOL:
            return f"objective {solver['best_objective']:.6f} is {gap:.3%} from {reference}"
        return None
    return check


def check_evaluate(expected: float) -> Callable[[str], str | None]:
    """The description-file objective must equal the closed form (criterion 08)."""
    def check(stdout: str) -> str | None:
        got = _results(stdout)["objective"]
        if not math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9):
            return f"replayed objective {got!r} != closed form {expected!r}"
        return None
    return check


def check_describe(name: str) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        doc = json.loads(stdout)
        if doc.get("name") != name or not doc.get("steps"):
            return f"description is not the {name} chain"
        return None
    return check


def check_atomicity(rows_expected: int) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        rows = _results(stdout)["rows"]
        if len(rows) != rows_expected:
            return f"{len(rows)} rows, expected {rows_expected}"
        for row in rows:
            if not row["ci_low"] <= row["mean"] <= row["ci_high"]:
                return f"i={row['i']}: mean {row['mean']!r} outside [{row['ci_low']!r}, {row['ci_high']!r}]"
        return None
    return check


def check_classify(inputs: Inputs) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        res = _results(stdout)
        rows, total = res["rows"], res["total"]
        if len(res["parse_errors"]) != inputs.loan_parse_errors:
            return f"{len(res['parse_errors'])} parse errors, wrote {inputs.loan_parse_errors} bad lines"
        if len(res["classification_errors"]) != inputs.loan_bad_addresses:
            return (f"{len(res['classification_errors'])} classification errors, "
                    f"wrote {inputs.loan_bad_addresses} bad addresses")
        if total["count"] != inputs.loan_records - inputs.loan_bad_addresses:
            return f"total counts {total['count']} records"
        for key in ("count", "unpriced"):
            if sum(r[key] for r in rows) != total[key]:
                return f"rows' {key} does not add up to the total row"
        usd = math.fsum(r["amount_usd"] for r in rows)
        if not math.isclose(usd, total["amount_usd"], rel_tol=1e-9):
            return f"rows' amount_usd {usd!r} != total {total['amount_usd']!r}"
        return None
    return check


def build(name: str, inputs: Inputs) -> Workload:
    """The workload `name` over the files in `inputs`."""
    seed = ("--seed", str(inputs.cli_seed))
    head = (*seed, "--format", "structured")
    if name == "incident-optimize":
        # The closed-form path: replay and `models` are never called here.
        def optimize(metric, scenario, vector, extra, ref):
            return Command(metric, (*head, "optimize", "--scenario", scenario, "--vector", vector, *extra),
                           check_optimize(REFERENCE_OBJECTIVE[ref]))
        return Workload((
            optimize("optimize_paa_s", "pump_arbitrage", "paa", (), "paa"),
            optimize("optimize_oracle_s", "oracle_manipulation", "oracle", (), "oracle"),
            optimize("optimize_oracle_uncapped_s", "oracle_manipulation", "oracle",
                     ("--ignore-constraint", "zY"), "oracle_uncapped"),
        ))

    if name == "described-chain":
        # The same problems through description files, so every point is a
        # chain replay.  Grid resolutions keep each scan near 3,400 points;
        # the default 200 takes minutes on the paa file.
        commands = []
        for point in inputs.eval_points:
            chain = str(inputs.chain_file(point.vector))
            commands.append(Command("describe_s", (*seed, "describe", "--scenario", point.scenario,
                                                   "--vector", point.vector),
                                    check_describe(point.vector), save_to=chain))
        for point in inputs.eval_points:
            chain = str(inputs.chain_file(point.vector))
            commands.append(Command("evaluate_file_s", (*head, "evaluate", "--scenario", point.scenario,
                                                        "--vector", chain, *map(repr, point.params)),
                                    check_evaluate(point.objective)))

        def optimize_file(metric, scenario, vector, grid_res, cli_seed=inputs.cli_seed):
            return Command(metric, ("--seed", str(cli_seed), "--format", "structured", "optimize",
                                    "--scenario", scenario, "--vector", str(inputs.chain_file(vector)),
                                    "--starts", "4", "--grid-res", str(grid_res)),
                           check_optimize(REFERENCE_OBJECTIVE[vector]))

        commands.append(optimize_file("optimize_file_paa_s", "pump_arbitrage", "paa", 40))
        # These exit 2 today: a finite-difference probe steps a parameter just
        # below its zero bound ("negative convert amount" on the oracle file,
        # on every solver seed; "negative collateral" on paa, on two seeds).
        known = (optimize_file("optimize_file_oracle_s", "oracle_manipulation", "oracle", 12),
                 *(optimize_file(f"optimize_file_paa_seed{s}_s", "pump_arbitrage", "paa", 40, s)
                   for s in DESCRIBED_PAA_CRASH_SEEDS))
        return Workload(tuple(commands), known_failures=known)

    if name == "analysis-sweep":
        # Neither `optimize`, `vectors` nor `models` runs here.
        market = ("--market", str(inputs.market), "--budget", "2")
        return Workload((
            Command("atomicity_synthetic_s", (*head, "atomicity", *market, "--i-values", "0,100,1000",
                                              "--trials", "500"), check_atomicity(3)),
            Command("atomicity_replay_s", (*head, "atomicity", *market, "--replay", str(inputs.trades),
                                           "--i-values", "0,100,1000,2000", "--trials", "100"),
                    check_atomicity(4)),
            Command("classify_s", (*head, "classify", "--input", str(inputs.loans)), check_classify(inputs)),
        ))

    raise ValueError(f"unknown workload {name!r}")


NAMES = ("incident-optimize", "described-chain", "analysis-sweep")
