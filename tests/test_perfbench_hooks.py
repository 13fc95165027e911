"""The benchmark's tracer (``perfbench/spans.py``) swaps package functions
that it looks up by name; a rename in ``src/`` must fail here, not in the
benchmark."""
import importlib.util
from pathlib import Path

import mixsearch.cli as cli
import mixsearch.orchestrator as orchestrator
from mixsearch.backend import ReplayBackend, SimulatorBackend
from mixsearch.pareto import ParetoArchive

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
OWNERS = (
    orchestrator,
    cli,
    orchestrator.LoopConfig,
    ParetoArchive,
    SimulatorBackend,
    ReplayBackend,
)
BACKEND_ENTRIES = {(SimulatorBackend, "run_round"), (ReplayBackend, "run_round")}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _names():
    return {(owner, name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_tracer_swaps_and_restores_every_hooked_name():
    spans = _load_spans()
    traced = {(orchestrator, name) for name in spans.ORCHESTRATOR_CALLS} | {
        (cli, "run"),
        (cli, "report"),
        (orchestrator.LoopConfig, "from_file"),
        (ParetoArchive, "insert"),
        *BACKEND_ENTRIES,
    }
    before = _names()
    for tracer, expected in ((spans.Tracer(), traced), (None, BACKEND_ENTRIES)):
        with spans.patched(tracer, []):
            during = _names()
            assert {key for key in before if during[key] is not before[key]} == expected
        assert _names() == before
