"""The traced run: per-layer spans and counts, recorded from outside the program.

The commands are replayed in-process through ``flashsim.cli.main``.  While
tracing, the public functions of each layer (the modules ``scenario``,
``vectors``, ``optimize``, ``atomicity`` and ``analytics``) are replaced
by wrappers that record a span, and the vectors' objective and constraint
callables by counting wrappers; everything is put back afterwards.  Spans
are kept in memory and written out once at the end.  ``models`` ops are
too fine to wrap, so they are timed by direct calls instead.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

perf_counter = time.perf_counter


class Tracer:
    """Spans (name, start, end, parent) and named counters, all in memory."""

    def __init__(self):
        # [name, start, end, parent index or -1, time covered by children]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.replayed: set = set()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, 0.0])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def active(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span; `after(args, result)` may record counts."""
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, result)
            return result
        return traced

    def counted(self, key: str, fn):
        def counting(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counting

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_time(self, name: str) -> float:
        return sum(s[2] - s[1] - s[4] for s in self.spans if s[0] == name)

    def write(self, path: Path) -> None:
        with path.open("w") as out:
            out.write("name,start_s,end_s,parent\n")
            for name, start, end, parent, _ in self.spans:
                out.write(f"{name},{start!r},{end!r},{parent}\n")


@contextmanager
def instrumented(tracer: Tracer):
    """Replace each layer's public entry points by tracing wrappers, then restore them."""
    from flashsim import analytics, atomicity, cli, optimize, vectors

    def count_constraints(vector):
        return dataclasses.replace(vector, constraints=tuple(
            dataclasses.replace(c, fn=tracer.counted("vectors.constraint_calls", c.fn))
            for c in vector.constraints))

    def counting_build(build):
        return lambda *args, **kwargs: count_constraints(build(*args, **kwargs))

    def replay(args, _result):
        vector, _, params = args
        tracer.counts["vectors.evaluate_calls"] += 1
        tracer.replayed.add((vector.name, tuple(float(p) for p in params)))
        if tracer.active("vectors.parse_vector"):
            tracer.counts["vectors.probe_replays"] += 1

    def add(key, amount):
        return lambda args, result: tracer.counts.update({key: amount(args, result)})

    traced_evaluate = tracer.wrap("vectors.evaluate", vectors.evaluate, replay)
    patches = [
        (cli, "builtin_scenario", tracer.wrap("scenario.load", cli.builtin_scenario)),
        (cli, "load_scenario", tracer.wrap("scenario.load", cli.load_scenario)),
        (cli, "parse_vector", tracer.wrap("vectors.parse_vector",
                                          lambda *a: count_constraints(vectors.parse_vector(*a)))),
        (cli, "evaluate", traced_evaluate),
        (vectors, "evaluate", traced_evaluate),
        (optimize, "closed_form_objective",
         lambda *a: tracer.counted("vectors.objective_calls", vectors.closed_form_objective(*a))),
        (cli, "solve", tracer.wrap("optimize.solve", cli.solve,
                                   add("optimize.solve_iterations", lambda a, r: r.iterations))),
        (cli, "grid_oracle", tracer.wrap("optimize.grid", cli.grid_oracle,
                                         add("optimize.grid_points", lambda a, r: r.iterations))),
        (atomicity.SyntheticStream, "events",
         tracer.wrap("atomicity.stream_gen", atomicity.SyntheticStream.events)),
        (atomicity, "non_atomic_arbitrage", tracer.wrap("atomicity.arbitrage", atomicity.non_atomic_arbitrage,
                                                        add("atomicity.events_applied", lambda a, r: a[3]))),
        (atomicity, "bootstrap_mean_ci", tracer.wrap("atomicity.bootstrap", atomicity.bootstrap_mean_ci)),
        (atomicity, "parse_trace", tracer.wrap("atomicity.parse_trace", atomicity.parse_trace)),
        (analytics, "parse_records", tracer.wrap("analytics.parse_records", analytics.parse_records,
                                                 add("analytics.records", lambda a, r: len(r[0])))),
        (analytics, "aggregate", tracer.wrap("analytics.aggregate", analytics.aggregate)),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    saved_builds = dict(vectors.BUILTIN_VECTORS)
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        for name, build in saved_builds.items():
            vectors.BUILTIN_VECTORS[name] = counting_build(build)
        yield
    finally:
        for obj, attr, old in saved:
            setattr(obj, attr, old)
        vectors.BUILTIN_VECTORS.update(saved_builds)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and counts of one traced pass."""
    counts = tracer.counts
    evaluate_calls = counts["vectors.evaluate_calls"]
    return {
        "cli.self_s": (tracer.self_time("cli.command"), "s"),
        "scenario.load_s": (tracer.total("scenario.load"), "s"),
        "vectors.objective_calls": (counts["vectors.objective_calls"], "count"),
        "vectors.constraint_calls": (counts["vectors.constraint_calls"], "count"),
        "vectors.evaluate_calls": (evaluate_calls, "count"),
        "vectors.evaluate_self_s": (tracer.self_time("vectors.evaluate"), "s"),
        "vectors.evaluate_us": (1e6 * tracer.total("vectors.evaluate") / max(evaluate_calls, 1), "us"),
        "vectors.replay_unique_ratio": (len(tracer.replayed) / max(evaluate_calls, 1), "ratio"),
        "vectors.parse_vector_s": (tracer.total("vectors.parse_vector"), "s"),
        "vectors.probe_replays": (counts["vectors.probe_replays"], "count"),
        "optimize.solve_s": (tracer.total("optimize.solve"), "s"),
        "optimize.solve_iterations": (counts["optimize.solve_iterations"], "count"),
        "optimize.grid_s": (tracer.total("optimize.grid"), "s"),
        "optimize.grid_points": (counts["optimize.grid_points"], "count"),
        "atomicity.stream_gen_s": (tracer.total("atomicity.stream_gen"), "s"),
        "atomicity.events_applied": (counts["atomicity.events_applied"], "count"),
        "atomicity.arbitrage_s": (tracer.total("atomicity.arbitrage"), "s"),
        "atomicity.bootstrap_s": (tracer.total("atomicity.bootstrap"), "s"),
        "atomicity.parse_trace_s": (tracer.total("atomicity.parse_trace"), "s"),
        "analytics.parse_records_s": (tracer.total("analytics.parse_records"), "s"),
        "analytics.aggregate_s": (tracer.total("analytics.aggregate"), "s"),
        "analytics.records": (counts["analytics.records"], "count"),
    }


def model_op_times(batches: int = 5, batch_s: float = 0.02) -> dict[str, float]:
    """Median microseconds per call of each ``models`` op the built-in chains use.

    The arguments are those the chains pass at their reference points on the
    bundled scenarios, captured by one replay of each.
    """
    from flashsim import vectors
    from flashsim.scenario import builtin_scenario

    captured: dict[str, list] = {}
    saved = dict(vectors._OPS)

    def capture(name, op):
        def recording(*args, **kwargs):
            captured.setdefault(name, []).append((args, kwargs))
            return op(*args, **kwargs)
        return recording

    try:
        vectors._OPS.update({name: capture(name, op) for name, op in saved.items()})
        for name, scenario in (("paa", "pump_arbitrage"), ("oracle", "oracle_manipulation")):
            state = builtin_scenario(scenario)[0]
            vector = vectors.BUILTIN_VECTORS[name](state)
            for point in vector.reference_points.values():
                vectors.evaluate(vector, state, point)
    finally:
        vectors._OPS.update(saved)

    times = {}
    for name, calls in sorted(captured.items()):
        op = saved[name]
        reps = 1
        while True:  # size a batch to about batch_s
            started = perf_counter()
            for _ in range(reps):
                for args, kwargs in calls:
                    op(*args, **kwargs)
            if perf_counter() - started >= batch_s or reps >= 1 << 16:
                break
            reps *= 2
        per_call = []
        for _ in range(batches):
            started = perf_counter()
            for _ in range(reps):
                for args, kwargs in calls:
                    op(*args, **kwargs)
            per_call.append((perf_counter() - started) / (reps * len(calls)))
        times[name] = 1e6 * statistics.median(per_call)
    return times


def import_times(text: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` stderr."""
    times = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if parts[1].isdigit():
            times[parts[2].strip()] = int(parts[1]) / 1e6
    return times
