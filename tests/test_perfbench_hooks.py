"""The benchmark's tracer (``perfbench/spans.py``) swaps package functions
that it looks up by name, and its output checks (``perfbench/verify.py``)
read run directories with package functions; a rename in ``src/`` must
fail here, not in the benchmark."""
import importlib.util
from pathlib import Path

import mixsearch.cli as cli
import mixsearch.fixtures as fixtures
import mixsearch.orchestrator as orchestrator
from mixsearch.backend import ReplayBackend, SimulatorBackend
from mixsearch.fixtures import demo_config_path
from mixsearch.pareto import ParetoArchive

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (
    orchestrator,
    cli,
    orchestrator.LoopConfig,
    ParetoArchive,
    SimulatorBackend,
    ReplayBackend,
)
BACKEND_ENTRIES = {(SimulatorBackend, "run_round"), (ReplayBackend, "run_round")}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("spans")


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


def test_every_span_fires_in_a_traced_demo_run(tmp_path, capsys):
    """A traced demo ``run`` records the run span and every timed span, so
    a call that bypasses a swapped name (``run`` reaching ``report`` through
    another module, say) fails here instead of reading 0 in the benchmark."""
    spans = _load_spans()
    tracer = spans.Tracer()
    with spans.patched(tracer, []):
        assert cli.main(["run", "--config", str(demo_config_path()), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert {name for name, *_ in tracer.spans} == {spans.RUN_SPAN, *spans.TIMED_SPANS}


def test_every_counter_counts_a_demo_run(tmp_path, capsys):
    """Each of the tracer's counters reads the arguments and the returned
    value of its call; a change of those that the counters cannot read
    fails here, not in the benchmark."""
    spans = _load_spans()
    produced = {}

    def recording(name, count):
        def counted(args, result):
            counts = count(args, result)
            produced.setdefault(name, []).append(counts)
            return counts

        return counted

    for name, count in list(spans.COUNTERS.items()):
        spans.COUNTERS[name] = recording(name, count)
    tracer = spans.Tracer()
    with spans.patched(tracer, []):
        assert cli.main(["run", "--config", str(demo_config_path()), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert produced.keys() == spans.COUNTERS.keys()
    for name, calls in produced.items():
        for counts in calls:
            assert counts, name
            for key, value in counts.items():
                assert isinstance(value, (int, float)) and tracer.counts[key] >= value >= 0, key
    # Each demo eval file holds 60 samples.
    eval_sets = orchestrator.LoopConfig.from_file(demo_config_path()).eval_set_paths
    assert produced["rubric.load_eval_set"] == [{"rubric.samples": 60}] * len(eval_sets)


def test_output_checks_pass_on_a_demo_run_and_a_replay_run(tmp_path, capsys):
    """``verify.py``'s checks find no problem and no layer-1 mismatch in a
    demo run and a replay run, and the fixture path the benchmark runs
    (``fixtures.default_fixture_path``) resolves."""
    verify = _load("verify")
    fixture = fixtures.default_fixture_path()
    assert fixture.is_file()
    demo, replay = tmp_path / "demo", tmp_path / "replay"
    assert cli.main(["run", "--config", str(demo_config_path()), "--out", str(demo)]) == 0
    assert cli.main(["replay", "--fixture", str(fixture), "--out", str(replay)]) == 0
    capsys.readouterr()
    budget = orchestrator.LoopConfig.from_file(demo_config_path()).budget_tokens
    assert verify.check_run(demo, budget) == []
    assert verify.check_replay(replay, fixture) == []
    for run_dir in (demo, replay):
        mismatched, read = verify.l1_mismatches(run_dir)
        assert mismatched == 0 and read > 0
