"""The traced benchmark patches names in `flashsim`; each must still exist."""

import json
from pathlib import Path

from click.testing import CliRunner

ROOT = Path(__file__).parents[1]


def test_traced_run_finds_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    from flashsim import cli, vectors

    before = (cli.solve, cli.parse_vector, vectors.evaluate, dict(vectors.BUILTIN_VECTORS))
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):  # raises if a patched name is gone
        res = CliRunner().invoke(cli.main, [
            "--format", "structured", "evaluate", "--scenario", "pump_arbitrage",
            "--vector", str(ROOT / "tests" / "golden" / "describe_paa.json"), "5500", "1300"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["command"] == "evaluate"
    # the parse's probe replays and the evaluated point reach the wrapped `evaluate`
    assert 0 < tracer.counts["vectors.probe_replays"] < tracer.counts["vectors.evaluate_calls"]
    assert (cli.solve, cli.parse_vector, vectors.evaluate, dict(vectors.BUILTIN_VECTORS)) == before
