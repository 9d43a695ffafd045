"""Benchmark of the flashsim command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times the workload's commands as one closed-loop client: a
single ``python -m flashsim.cli`` child at a time, each timed from spawn to
exit (wall and CPU) and its output checked, in cycles until ``--seconds``
have passed.  It reports the end-to-end metrics, which are CPU times: on a
shared machine the wall times mostly measure the neighbours, so they are
printed in the summary but not bounded.  ``--trace 1`` replays the commands of
every workload in-process, once untraced and once traced, and reports the
per-layer metrics.  ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results,
the per-command samples and the spans go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import inputs as inputs_mod  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must end within 180 s
HELP_SPAWNS = 5  # `--help` spawns per run for setup_s, besides one per cycle
MIN_CYCLES = 2  # a repeat needs a first run to compare with
IMPORTTIME_RUNS = 3
WORK = Path(".perfbench")
WALL, CPU = 0, 1  # columns of a command's samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    if not (ROOT / "src" / "flashsim" / "cli.py").is_file():
        print(f"error: no flashsim package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    shutil.rmtree(WORK / "work", ignore_errors=True)
    (WORK / "work").mkdir(parents=True)
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    env = child.program_env(ROOT)
    probe = child.run(["-m", "flashsim.cli", "--help"], env, WORK / "work", 60.0)  # also warms caches
    if probe.returncode != 0:
        print(f"error: `flashsim --help` exits {probe.returncode}:\n{probe.stderr}", file=sys.stderr)
        return 2

    inputs = inputs_mod.generate(args.seed, WORK / "work", ROOT)
    environment = child.environment(ROOT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        report = traced_run(inputs, env, results_dir, tag, started + RUN_LIMIT_S)
        reports = {args.workload: report}
    else:
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        reports = {}
        for name in names:
            deadline = (time.perf_counter() if args.workload == "all" else started) + RUN_LIMIT_S
            reports[name] = measure(workloads.build(name, inputs), inputs, args.seconds, env, deadline)

    for name, report in reports.items():
        print_report(name, args.seed, inputs.cli_seed, report)
    print(f"environment: {json.dumps(environment, sort_keys=True)}")
    (results_dir / f"{tag}.json").write_text(json.dumps(
        {"seed": args.seed, "cli_seed": inputs.cli_seed, "environment": environment,
         "reports": reports}, indent=2, sort_keys=True))

    if len(reports) == 1:
        (report,) = reports.values()
        metrics = report["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in reports.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


class Outcomes:
    """Checks each command's result and keeps the first stable payload per command."""

    def __init__(self):
        self.first: dict[tuple, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.known: list[str] = []

    def problem(self, cmd: workloads.Command, returncode: int, stdout: str, stderr: str) -> str | None:
        if returncode != 0:
            lines = stderr.strip().splitlines()
            return f"exit {returncode}: {lines[-1] if lines else 'no message'}"
        try:
            problem = cmd.check(stdout)
            payload = workloads.stable_payload(stdout)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"unreadable output ({type(exc).__name__}: {exc})"
        if problem is not None:
            return problem
        if self.first.setdefault(cmd.argv, payload) != payload:
            return "stable payload differs from the first run of the same command"
        if cmd.save_to is not None:
            Path(cmd.save_to).write_text(stdout)
        return None

    def timed(self, cmd: workloads.Command, returncode: int, stdout: str, stderr: str) -> bool:
        """Count one command of the workload; True when its output passed."""
        return self.tally(cmd.metric, self.problem(cmd, returncode, stdout, stderr))

    def tally(self, label: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{label}: {problem}")
        return problem is None

    def known_failure(self, cmd: workloads.Command, returncode: int, stdout: str, stderr: str) -> bool:
        """Record a command with a documented defect; True when it now passes."""
        problem = self.problem(cmd, returncode, stdout, stderr)
        message = stderr.strip()
        if problem is None:
            self.attempted += 1
            note = "passes now; the known failure is fixed"
        elif returncode == 2 and message.startswith("error: ") and "\n" not in message:
            note = problem
        else:
            self.tally(f"{cmd.metric} (known failure, changed)", problem)
            return False
        note = f"{' '.join(cmd.argv)}: {note}"
        if note not in self.known:
            self.known.append(note)
        return problem is None


def measure(workload: workloads.Workload, inputs, seconds: float, env: dict, deadline: float) -> dict:
    """Closed loop, one child at a time: cycles of `--help` plus every command."""
    out_dir = inputs.work
    outcomes = Outcomes()
    samples = [[] for _ in workload.commands]  # (wall_s, cpu_s, passed) per run of each command
    help_s: list[tuple[float, float]] = []  # (wall_s, cpu_s) per `--help`
    peak_rss_kb = 0

    def spawn(argv) -> child.Child:
        nonlocal peak_rss_kb
        result = child.run(["-m", "flashsim.cli", *argv], env, out_dir, deadline - time.perf_counter())
        peak_rss_kb = max(peak_rss_kb, result.maxrss_kb)
        return result

    def setup_sample() -> None:
        result = spawn(["--help"])
        outcomes.tally("setup_s", None if result.returncode == 0 else f"exit {result.returncode}")
        help_s.append((result.wall_s, result.cpu_s))

    for _ in range(HELP_SPAWNS):
        setup_sample()

    cycle_s: list[float] = []
    loop_started = time.perf_counter()
    while len(cycle_s) < MIN_CYCLES or (
        time.perf_counter() - loop_started + statistics.median(cycle_s) / 2 < seconds
        and time.perf_counter() + 1.5 * max(cycle_s) < deadline
    ):
        cycle_started = time.perf_counter()
        setup_sample()
        for i, cmd in enumerate(workload.commands):
            result = spawn(cmd.argv)
            passed = outcomes.timed(cmd, result.returncode, result.stdout, result.stderr)
            samples[i].append((result.wall_s, result.cpu_s, passed))
        cycle_s.append(time.perf_counter() - cycle_started)

    known_s: dict[str, float] = {}
    for cmd in workload.known_failures:
        result = spawn(cmd.argv)
        if outcomes.known_failure(cmd, result.returncode, result.stdout, result.stderr):
            known_s[cmd.metric] = result.wall_s

    def passed(i: int, column: int) -> list[float]:
        # A command without one passing run is timed over its failed runs;
        # the run is then not correct anyway.
        ok = [run[column] for run in samples[i] if run[2]]
        return ok or [run[column] for run in samples[i]]

    pooled: dict[str, list[float]] = {}
    for i, cmd in enumerate(workload.commands):
        pooled.setdefault(cmd.metric, []).extend(passed(i, WALL))
    command_s = {m: (statistics.median(v), len(v)) for m, v in pooled.items()}
    command_s.update({m: (v, 1) for m, v in known_s.items()})
    command_s["setup_wall_s"] = (statistics.median(wall for wall, _ in help_s), len(help_s))
    command_s["time_to_solution_wall_s"] = (
        sum(statistics.median(passed(i, WALL)) for i in range(len(samples))), len(cycle_s))
    metrics = {
        "setup_s": (statistics.median(cpu for _, cpu in help_s), "s"),
        "time_to_solution_cpu_s": (
            sum(statistics.median(passed(i, CPU)) for i in range(len(samples))), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    return {
        "metrics": metrics,
        "commands": command_s,
        "cycles": len(cycle_s),
        "setup_samples": help_s,
        "samples": {" ".join(cmd.argv): runs for cmd, runs in zip(workload.commands, samples)},
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "problems": outcomes.problems,
        "known_failures": outcomes.known,
    }


def traced_run(inputs, env: dict, results_dir: Path, tag: str, deadline: float) -> dict:
    """Every workload's commands in-process, untraced then traced, plus layer probes."""
    import tracing

    outcomes = Outcomes()
    import_s = []
    for _ in range(IMPORTTIME_RUNS):
        result = child.run(["-X", "importtime", "-c", "import flashsim.cli"], env, inputs.work,
                           deadline - time.perf_counter())
        times = tracing.import_times(result.stderr)
        missing = {"flashsim.cli", "scipy.optimize"} - times.keys()
        outcomes.tally("cli.import_s", f"no import time for {sorted(missing)}" if missing else None)
        import_s.append(times)
    cli_import = statistics.median(t.get("flashsim.cli", 0.0) for t in import_s)
    scipy_import = statistics.median(t.get("scipy.optimize", 0.0) for t in import_s)

    from click.testing import CliRunner

    from flashsim.cli import main as cli_main

    runner = CliRunner()
    commands = []  # (command, has a known failure)
    for name in workloads.NAMES:
        workload = workloads.build(name, inputs)
        commands += [(c, False) for c in workload.commands] + [(c, True) for c in workload.known_failures]
    tracer = tracing.Tracer()

    # Each command runs untraced, then traced, so load on the machine hits
    # both sides of trace.overhead_ratio alike.
    untraced_s = traced_s = 0.0
    for cmd, known in commands:
        record = outcomes.known_failure if known else outcomes.timed
        started = time.perf_counter()
        result = runner.invoke(cli_main, list(cmd.argv))
        untraced_s += time.perf_counter() - started
        record(cmd, result.exit_code, result.stdout, result.stderr)
        with tracing.instrumented(tracer):
            started = time.perf_counter()
            index = tracer.begin("cli.command")
            result = runner.invoke(cli_main, list(cmd.argv))
            tracer.end(index)
            traced_s += time.perf_counter() - started
        record(cmd, result.exit_code, result.stdout, result.stderr)
    tracer.write(results_dir / f"spans-{tag}.csv")

    metrics = {
        "cli.import_s": (cli_import, "s"),
        "cli.import_scipy_s": (scipy_import, "s"),
        **tracing.layer_metrics(tracer),
    }
    metrics.update({f"models.{op}_us": (us, "us") for op, us in tracing.model_op_times().items()})
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return {
        "metrics": metrics,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.spans),
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "problems": outcomes.problems,
        "known_failures": outcomes.known,
    }


def print_report(name: str, seed: int, cli_seed: int, report: dict) -> None:
    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {name}  seed {seed}  cli --seed {cli_seed}  attempted {attempted}  failed {failed}"
          f"  fail_ratio {failed / max(attempted, 1):.4f}")
    for metric, (value, n) in report.get("commands", {}).items():
        print(f"  {metric:<28} {value:12.4f} s    wall, from {n} runs")
    for metric, (value, unit) in report["metrics"].items():
        print(f"  {metric:<28} {value:12.4f} {unit}")
    for line in report["known_failures"]:
        print(f"  known failure: {line}")
    for line in report["problems"]:
        print(f"  FAILED {line}")


if __name__ == "__main__":
    sys.exit(main())
