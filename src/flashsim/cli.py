"""Command-line entry point tying scenarios, vectors, solver, and analytics together.

Every command emits a run report echoing its inputs (with content hashes)
next to its results, so a report is reproducible byte-for-byte under a
fixed seed once timing fields are dropped.  Exit codes: 0 success, 1
infeasible or strict-mode violation, 2 unusable input.  One runner,
`_command`, times each command, maps unusable input to exit 2, builds
the report and renders it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager, nullcontext

import click
import numpy as np
import scipy

from . import __version__, analytics, atomicity
from .models import ConfigError
from .optimize import FEASIBILITY_TOL, OptimizationResult, grid_oracle, problem, solve
from .scenario import BUILTIN_SCENARIOS, builtin_scenario, decoded_lines, load_scenario, read_json
from .vectors import BUILTIN_VECTORS, AttackVector, EvaluationError, describe, evaluate, parse_vector, with_bounds

AGREEMENT_THRESHOLD = 0.02

# What unusable input raises.  Loaders turn shape errors into ConfigError where
# they parse, so any other exception is a bug and keeps its traceback.
INPUT_ERRORS = (ConfigError, EvaluationError, ValueError, OSError)


def _versions() -> dict:
    return {"flashsim": __version__, "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _hash_config(command: str, config: dict) -> str:
    blob = json.dumps({"command": command, **config}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@contextmanager
def _unusable_input():
    """Exit 2 with one `error:` line on stderr if the block raises an input error."""
    try:
        yield
    except INPUT_ERRORS as exc:
        click.echo(f"error: {' '.join(str(exc).splitlines())}", err=True)
        sys.exit(2)


def _neither(option: str, value: str, kind: str, names) -> ConfigError:
    return ConfigError(f"{option} {value!r} is neither a {kind} ({', '.join(names)}) nor a file")


def _resolve_scenario(value: str):
    """(initial state, sha256 of the scenario file) for a bundled name or a path."""
    if value in BUILTIN_SCENARIOS:
        return builtin_scenario(value)
    try:
        return load_scenario(value)
    except FileNotFoundError:
        raise _neither("--scenario", value, "bundled scenario", BUILTIN_SCENARIOS) from None


def _resolve_vector(value: str, state) -> AttackVector:
    if value in BUILTIN_VECTORS:
        return BUILTIN_VECTORS[value](state)
    try:
        doc = read_json(value, "vector")[0]
    except FileNotFoundError:
        raise _neither("--vector", value, "built-in vector", BUILTIN_VECTORS) from None
    return parse_vector(doc, state)


def _parse_bound(text: str) -> tuple[int, tuple[float, float]]:
    try:
        name, lo, hi = text.split(":")
        if not (name.startswith("p") and name[1:].isdigit()):
            raise ValueError
        return int(name[1:]) - 1, (float(lo), float(hi))
    except ValueError:
        raise ConfigError(f"bad bound {text!r}, expected pN:LOW:HIGH") from None


def _result_text(label: str, res: OptimizationResult) -> list[str]:
    params = "  ".join(f"p{i+1}={v:.6f}" for i, v in enumerate(res.best_params))
    return [
        f"{label} ({res.method}, {res.starts_tried} start(s))",
        f"  objective   {res.best_objective:.6f}",
        f"  params      {params}",
        f"  feasible    {'yes' if res.feasible else 'NO'} (worst scaled residual {res.max_violation:.3g})",
        f"  iterations  {res.iterations}   wall {res.wall_time:.3f} s",
    ]


@click.group()
@click.option("--seed", default=0, show_default=True, help="Master seed for every stochastic component.")
@click.option("--format", "fmt", type=click.Choice(["text", "csv", "structured"]), default="text",
              show_default=True, help="Output rendering.")
@click.option("--strict", is_flag=True, help="Treat any negative residual as a failure (exit 1).")
@click.pass_context
def main(ctx, seed, fmt, strict):
    """Deterministic DeFi trading simulator, optimizer, and analytics."""
    with _unusable_input():
        if seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {seed}")
    ctx.obj = {"seed": seed, "format": fmt, "strict": strict}


def _strict(value):
    """`value` with every non-finite float as None, so that a report is strict JSON."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _command(name: str):
    """Register `body(obj, **options)` as the command `name`.

    The body returns (config echo, input hash, results, text lines, csv
    lines, exit code); the runner adds the seed to the echo and owns the
    timer, the exit on unusable input, the report and its rendering, where
    a non-finite number is written as null.
    """
    def register(body):
        @functools.wraps(body)
        def run(**options):
            obj = click.get_current_context().obj
            started = time.perf_counter()
            with _unusable_input():
                config, input_hash, results, text, csv, code = body(obj, **options)
            config["seed"] = obj["seed"]
            report = {"command": name, "config": config, "config_hash": _hash_config(name, config),
                      "scenario_hash": input_hash, "results": results, "versions": _versions(),
                      "wall_time_s": time.perf_counter() - started}
            if obj["format"] == "structured":
                click.echo(json.dumps(_strict(report), sort_keys=True, indent=2, allow_nan=False))
            else:
                click.echo("\n".join(csv if obj["format"] == "csv" else text))
            if code:
                sys.exit(code)
        return main.command(name)(run)
    return register


def _chain_options(command):
    """The `--scenario` and `--vector` options of every command that reads a chain."""
    command = click.option("--vector", "vector_name", required=True,
                           help="Built-in vector (paa, oracle) or description file.")(command)
    return click.option("--scenario", required=True, help="Bundled scenario name or JSON file.")(command)


@_command("optimize")
@_chain_options
@click.option("--ignore-constraint", "ignored", multiple=True, help="Constraint name to drop from the solve.")
@click.option("--bound", "bound_overrides", multiple=True, help="Parameter bound override pN:LOW:HIGH.")
@click.option("--starts", default=16, show_default=True)
@click.option("--grid-res", default=0, help="Grid oracle resolution (0 = auto by dimension).")
def optimize(obj, scenario, vector_name, ignored, bound_overrides, starts, grid_res):
    """Solve for profit-maximizing parameters, certified by the grid oracle."""
    state, scenario_hash = _resolve_scenario(scenario)
    vector = with_bounds(_resolve_vector(vector_name, state),
                         dict(_parse_bound(b) for b in bound_overrides))
    resolution = grid_res or {1: 2000, 2: 200, 3: 60}.get(vector.n_params, 0)
    if vector.n_params <= 3 and resolution < 2:  # the grid's own check, before any work
        raise ConfigError(f"--grid-res must be at least 2, got {resolution}")
    prob = problem(vector, ignored)
    best = solve(prob, starts, obj["seed"])
    grid = grid_oracle(prob, resolution) if vector.n_params <= 3 else None

    rel_gap = None
    disagreement = False
    if grid is not None and grid.feasible and best.feasible:
        rel_gap = abs(best.best_objective - grid.best_objective) / max(1.0, abs(best.best_objective))
        disagreement = rel_gap > AGREEMENT_THRESHOLD

    points = np.array([best.best_params, *vector.reference_points.values()])
    scales = dict(zip(prob.constraints, prob.scales))
    constraint_rows = []
    notes = [f"residual {name!r} is zero by construction and not enforced" for name in vector.structural]
    for spec in vector.constraints:
        with np.errstate(all="ignore"):
            value, *at_references = map(float, spec.fn(points))
        constraint_rows.append({"name": spec.name, "description": spec.description,
                                "step": spec.step, "linear": spec.linear,
                                "value_at_best": value, "ignored": spec.name in ignored})
        if spec.name not in ignored and abs(value) <= 1e-4 * scales[spec]:
            for (ref_name, ref_params), ref_value in zip(vector.reference_points.items(), at_references):
                if ref_value / scales[spec] < -FEASIBILITY_TOL:
                    notes.append(
                        f"constraint {spec.name!r} is active at the reported optimum; "
                        f"reference point {ref_name} {tuple(ref_params)} violates it by "
                        f"{-ref_value:.4g}, so that point is reachable only with "
                        f"{spec.name!r} ignored"
                    )

    config_echo = {
        "scenario": scenario, "vector": vector_name, "ignore": sorted(ignored),
        "bounds": sorted(bound_overrides), "starts": starts, "grid_res": resolution,
    }
    results = {
        "solver": best.as_dict(),
        "grid": grid.as_dict() if grid is not None else None,
        "relative_gap": rel_gap,
        "disagreement": disagreement,
        "constraints": constraint_rows,
        "notes": notes,
    }

    lines = ["command: optimize", f"scenario: {scenario} (sha256 {scenario_hash[:12]})",
             f"vector: {vector.name} ({vector.n_params} free parameter(s))", ""]
    lines += _result_text("solver", best)
    if grid is not None:
        lines.append("")
        lines += _result_text("grid oracle", grid)
        if rel_gap is not None:
            verdict = "DISAGREEMENT" if disagreement else "ok"
            lines.append(f"agreement: {rel_gap:.3%} ({verdict}, threshold {AGREEMENT_THRESHOLD:.0%})")
    lines += ["", "constraints at solver optimum:"]
    for row in constraint_rows:
        kind = "linear" if row["linear"] else "nonlinear"
        suffix = "  [ignored]" if row["ignored"] else ""
        lines.append(f"  {row['name']:<8} {kind:<9} step {row['step']}  value {row['value_at_best']:.6g}{suffix}")
    lines += [f"note: {note}" for note in notes]

    csv_lines = ["key,value", f"solver_objective,{best.best_objective!r}",
                 f"solver_params,{' '.join(map(repr, best.best_params))}",
                 f"solver_feasible,{best.feasible}"]
    if grid is not None:
        csv_lines.append(f"grid_objective,{grid.best_objective!r}")

    return config_echo, scenario_hash, results, lines, csv_lines, 0 if best.feasible else 1


@_command("evaluate")
@_chain_options
@click.argument("params", nargs=-1, type=float, required=True)
def evaluate_cmd(obj, scenario, vector_name, params):
    """Replay a vector at fixed parameters and print the full trace."""
    state, scenario_hash = _resolve_scenario(scenario)
    vector = _resolve_vector(vector_name, state)
    if len(params) != vector.n_params:
        raise ConfigError(f"vector {vector.name!r} needs {vector.n_params} parameter(s)")
    trace = evaluate(vector, state, params)

    assets = sorted({asset for state in trace.states for _, asset in state.balances})
    step_rows = [
        {"step": i, "label": label,
         "balances": {asset: state_i.balance(vector.actor, asset) for asset in assets}}
        for i, (state_i, label) in enumerate(zip(trace.states, ["initial"] + [s.label for s in vector.steps]))
    ]
    residual_rows = [
        {"step": r.step, "name": r.name, "value": r.value, "satisfied": r.satisfied}
        for r in trace.residuals
    ]
    violated = [r for r in residual_rows if not r["satisfied"]]

    config_echo = {"scenario": scenario, "vector": vector_name, "params": list(params),
                   "strict": obj["strict"]}
    results = {"objective": trace.objective_value, "objective_name": vector.objective_name,
               "steps": step_rows, "residuals": residual_rows,
               "violated_count": len(violated)}

    lines = ["command: evaluate", f"scenario: {scenario} (sha256 {scenario_hash[:12]})",
             f"vector: {vector.name}  params: {', '.join(f'{p:g}' for p in params)}", ""]
    for row in step_rows:
        balances = "  ".join(f"{a}={row['balances'][a]:,.6f}" for a in assets)
        lines.append(f"S{row['step']}: {row['label']:<28} {balances}")
    lines += ["", "residuals:"]
    for row in residual_rows:
        marker = "" if row["satisfied"] else "  <-- VIOLATED"
        lines.append(f"  step {row['step']}  {row['name']:<20} {row['value']:,.6f}{marker}")
    lines += ["", f"{vector.objective_name}: {trace.objective_value:,.6f}"]

    csv_lines = ["step,name,value"] + [f"{r['step']},{r['name']},{r['value']!r}" for r in residual_rows]
    csv_lines.append(f"objective,,{trace.objective_value!r}")

    return config_echo, scenario_hash, results, lines, csv_lines, 1 if obj["strict"] and violated else 0


@_command("atomicity")
@click.option("--market", "market_file", required=True, help="JSON file with exchange_a/exchange_b pools.")
@click.option("--budget", required=True, type=float)
@click.option("--i-values", default="0,10,100", show_default=True, help="Comma-separated intermediary counts.")
@click.option("--trials", default=100, show_default=True)
@click.option("--replay", "replay_file", default=None, help="Replay trace file instead of synthetic flow.")
@click.option("--amount-scale", default=1.0, show_default=True)
@click.option("--sigma", default=1.0, show_default=True)
def atomicity_cmd(obj, market_file, budget, i_values, trials, replay_file, amount_scale, sigma):
    """Sweep the arbitrage profit difference over intermediary counts."""
    market, market_hash = atomicity.load_market(market_file)
    fields = [v.strip() for v in i_values.split(",") if v.strip()]
    if not all(v.isdecimal() for v in fields):
        raise ConfigError(f"bad --i-values {i_values!r}, expected non-negative integers")
    counts = list(map(int, fields))
    if replay_file is not None and (amount_scale, sigma) != (1.0, 1.0):
        raise ConfigError("--amount-scale and --sigma shape a synthetic stream, not --replay")
    if replay_file is not None:
        stream = atomicity.load_trace(replay_file)
    else:
        stream = atomicity.SyntheticStream(obj["seed"], max([0, *counts]), amount_scale, sigma)
    rows = atomicity.sweep(market, budget, stream, counts, trials)

    config_echo = {"market": market_file, "budget": budget, "i_values": counts,
                   "trials": trials, "replay": replay_file, "amount_scale": amount_scale, "sigma": sigma}
    results = {"rows": [r.as_dict() for r in rows]}

    lines = ["command: atomicity", f"market: {market_file} (sha256 {market_hash[:12]})",
             f"budget: {budget:g}  trials: {trials}", "",
             f"{'i':>8}  {'mean':>14}  {'ci_low':>14}  {'ci_high':>14}  {'trials':>7}"]
    for r in rows:
        lines.append(f"{r.intermediaries:>8}  {r.mean:>14.6f}  {r.ci_low:>14.6f}  "
                     f"{r.ci_high:>14.6f}  {r.trials:>7}")
    csv_lines = ["i,mean,ci_low,ci_high,trials"] + [
        f"{r.intermediaries},{r.mean!r},{r.ci_low!r},{r.ci_high!r},{r.trials}" for r in rows
    ]
    return config_echo, market_hash, results, lines, csv_lines, 0


@_command("classify")
@click.option("--input", "input_file", default="-", show_default=True,
              help="JSONL loan records ('-' for stdin).")
@click.option("--map", "map_file", default=None, help="address,project lines (default: bundled).")
@click.option("--prices", "prices_file", default=None, help="JSON asset->USD file (default: bundled).")
def classify_cmd(obj, input_file, map_file, prices_file):
    """Aggregate flash-loan records by the platform sets they touch."""
    addr_map = analytics.AddressMap.from_file(map_file) if map_file else analytics.AddressMap.bundled()
    prices = analytics.PriceTable.from_file(prices_file) if prices_file else analytics.PriceTable.default()
    if input_file != "-":
        stream, encoding = open(input_file, "rb"), None
    elif sys.stdin is None:
        raise ConfigError("input -: stdin is closed")
    else:  # read as it is and left open
        stream, encoding = nullcontext(sys.stdin.buffer), sys.stdin.encoding
    digest = hashlib.sha256()
    with stream as raw:
        table, parse_errors = analytics.tabulate(decoded_lines(raw, input_file, "input", digest, encoding),
                                                 addr_map, prices)
    config_echo = {"input": input_file, "map": map_file, "prices": prices_file}
    results = {
        "rows": [r.as_dict() for r in table.rows],
        "total": table.total.as_dict(),
        "classification_errors": list(table.errors),
        "parse_errors": parse_errors,
    }
    text_out = analytics.format_table_text(table)
    if parse_errors:
        text_out += f"\nskipped {len(parse_errors)} unparseable line(s)"
    return (config_echo, digest.hexdigest(), results, text_out.splitlines(),
            analytics.format_table_csv(table).splitlines(), 0)


@main.command("describe")
@_chain_options
def describe_cmd(scenario, vector_name):
    """Emit a vector's chain in the reusable description-file format."""
    with _unusable_input():
        state, _ = _resolve_scenario(scenario)
        vector = _resolve_vector(vector_name, state)
    click.echo(json.dumps(describe(vector), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
