"""The traced benchmark patches names in `flashsim`; each must still exist."""

import json
import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

ROOT = Path(__file__).parents[1]


def test_cli_import_loads_scipy_optimize(monkeypatch):
    # the traced run counts a failure when `import flashsim.cli` stops loading scipy.optimize
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import flashsim.cli"], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert {"flashsim.cli", "scipy.optimize"} <= tracing.import_times(res.stderr).keys()


def test_traced_run_finds_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    from flashsim import cli, vectors
    from flashsim.models import WorldState

    scenario = ROOT / "src" / "flashsim" / "data" / "pump_arbitrage.json"
    # inputs.py and tracing.py take the state as element 0 of what the loaders return
    assert isinstance(cli.builtin_scenario("pump_arbitrage")[0], WorldState)
    assert isinstance(cli.load_scenario(scenario)[0], WorldState)
    before = (cli.solve, cli.parse_vector, vectors.evaluate, dict(vectors.BUILTIN_VECTORS))
    tracer = tracing.Tracer()

    def loads():
        return sum(span[0] == "scenario.load" for span in tracer.spans)

    with tracing.instrumented(tracer):  # raises if a patched name is gone
        res = CliRunner().invoke(cli.main, [
            "--format", "structured", "evaluate", "--scenario", "pump_arbitrage",
            "--vector", str(ROOT / "tests" / "golden" / "describe_paa.json"), "5500", "1300"])
        by_name = loads()
        from_file = CliRunner().invoke(cli.main, ["evaluate", "--scenario", str(scenario), "--vector", "paa",
                                                  "5500", "1300"])
        by_file = loads() - by_name
        solved = CliRunner().invoke(cli.main, [
            "optimize", "--scenario", "pump_arbitrage", "--vector", "paa", "--starts", "2", "--grid-res", "20"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["command"] == "evaluate"
    # a bundled name and a file each pass through a wrapped loader
    assert from_file.exit_code == 0, from_file.output
    assert by_name == by_file == 1
    # the parse's probe replays and the evaluated point reach the wrapped `evaluate`
    assert 0 < tracer.counts["vectors.probe_replays"] < tracer.counts["vectors.evaluate_calls"]
    # the solve and the grid pass through the wrapped `solve`, `grid_oracle` and objective
    assert solved.exit_code == 0, solved.output
    for key in ("optimize.solve_iterations", "optimize.grid_points", "vectors.objective_calls"):
        assert tracer.counts[key] > 0, key
    assert (cli.solve, cli.parse_vector, vectors.evaluate, dict(vectors.BUILTIN_VECTORS)) == before


def test_model_op_times_replays_every_op(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    from flashsim import vectors

    before = dict(vectors._OPS)
    times = tracing.model_op_times(batches=1, batch_s=1e-4)  # captures the chains' calls, then times them
    assert sorted(times) == sorted(vectors._OPS)
    assert all(t > 0 for t in times.values()), times
    assert vectors._OPS == before
