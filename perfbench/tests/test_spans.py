import io
from contextlib import redirect_stdout

import pytest

import spans
from mixsearch import cli, orchestrator
from mixsearch.fixtures import demo_config_path


def test_traced_run_nests_and_restores(tmp_path):
    config = demo_config_path()
    original = orchestrator.load_pool
    tracer = spans.Tracer()
    with spans.patched(tracer, []), redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    assert orchestrator.load_pool is original
    names = {span[0] for span in tracer.spans}
    assert {spans.RUN_SPAN, *spans.TIMED_SPANS} <= names
    assert spans.nesting_errors(tracer.spans) == 0
    assert all(own >= 0 for own in spans.self_times(tracer.spans))
    assert tracer.counts["backend.records"] == 6 * tracer.counts["rubric.samples"]
    wrapped = sum(end - start for _, start, end, parent in tracer.spans if parent is None)
    assert 0 < tracer.overhead < wrapped


def test_probe_records_one_entry_per_backend_call(tmp_path):
    config = demo_config_path()
    entries: list[float] = []
    with spans.patched(None, entries), redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    assert len(entries) == 6  # the base evaluation and five rounds
    assert entries == sorted(entries)


def test_nesting_errors_flags_a_child_outside_its_parent():
    assert spans.nesting_errors([["a", 0.0, 1.0, None], ["b", 0.5, 2.0, 0]]) == 2
    assert spans.self_times([["a", 0.0, 1.0, None], ["b", 0.2, 0.5, 0]]) == pytest.approx([0.7, 0.3])
