"""Spans and probes around the calls the orchestrator makes into other modules.

Nothing under ``src/`` changes: the tracer swaps the names the
orchestrator and the CLI imported (and ``SimulatorBackend.run_round``,
``ReplayBackend.run_round``, ``ParetoArchive.insert`` and
``LoopConfig.from_file``) for timing wrappers while a ``patched()``
block is open, and restores them when it closes.  Spans stay in memory
as ``[name, start, end, parent]`` lists; the caller writes them out
when the benchmark ends.
"""
from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from pathlib import Path

import mixsearch.cli as cli
import mixsearch.orchestrator as orchestrator
from mixsearch.backend import ReplayBackend, SimulatorBackend
from mixsearch.pareto import ParetoArchive

# orchestrator-module name -> span name.  A span's metric is its name plus "_s".
ORCHESTRATOR_CALLS = {
    "load_pool": "corpus.load_pool",
    "load_eval_set": "rubric.load_eval_set",
    "annotate_prompt": "rubric.annotate",
    "effective_distribution": "sampler.effective_distribution",
    "draw_budgeted": "sampler.draw",
    "write_manifest": "sampler.write_manifest",
    "write_records": "records.write_records",
    "build_failure_profiles": "profiles.build_failure_profiles",
    "metric_vector": "profiles.metric_vector",
    "propose_explained": "proposer.propose",
    "report": "orchestrator.report",
}
RUN_SPAN = "orchestrator.run"
# Every span but the run span; each one's per-pass total is the metric "<span>_s".
TIMED_SPANS = (
    *dict.fromkeys(ORCHESTRATOR_CALLS.values()),
    "orchestrator.load_config", "pareto.insert", "backend.run_round",
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# span name -> counts taken from the call's arguments and returned value
COUNTERS = {
    "corpus.load_pool": lambda args, pool: {
        "corpus.windows": sum(pool.window_count(dataset) for dataset in pool.datasets)
    },
    "rubric.load_eval_set": lambda args, samples: {"rubric.samples": len(samples)},
    "sampler.draw": lambda args, manifest: {
        "sampler.draw_attempts": len(manifest.entries) + len(manifest.rejections),
        "sampler.windows_accepted": len(manifest.entries),
        "sampler.cap_rejections": sum(1 for _, why in manifest.rejections if why == "cap"),
    },
    "sampler.write_manifest": lambda args, _: {
        "sampler.manifest_bytes": Path(args[0]).stat().st_size
    },
    "records.write_records": lambda args, _: {
        "records.bytes": Path(args[0]).stat().st_size,
        "records.written": len(args[1]),
    },
    "backend.run_round": lambda args, records: {"backend.records": len(records)},
    "proposer.propose": lambda args, result: {
        "proposer.focus_criteria": len(result[0].focus_criteria)
    },
}


class Tracer:
    """Collects spans and counts; one instance per benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.overhead = 0.0  # seconds spent in the wrappers, outside the wrapped calls
        self._open: list[int] = []

    def add(self, counts: dict[str, float]) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None]
            self.spans.append(span)
            self._open.append(index)
            rss_before = _maxrss_mb() if name == "corpus.load_pool" else 0.0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if name == "corpus.load_pool":
                self.add({"corpus.rss_delta_mb": _maxrss_mb() - rss_before})
            if count is not None:
                self.add(count(args, result))
            self.overhead += (span[1] - entered) + (time.perf_counter() - span[2])
            return result

        return traced


def _targets(tracer: Tracer | None, entries: list[float]):
    """(owner, attribute, replacement) for every swapped name."""
    if tracer is None:
        def probe(fn):
            def entered(*args, **kwargs):
                entries.append(time.perf_counter())
                return fn(*args, **kwargs)
            return entered

        return [(cls, "run_round", probe(cls.run_round))
                for cls in (SimulatorBackend, ReplayBackend)]
    targets = [
        (orchestrator, attr, tracer.wrap(span, getattr(orchestrator, attr)))
        for attr, span in ORCHESTRATOR_CALLS.items()
    ]
    targets += [
        (cli, "run", tracer.wrap(RUN_SPAN, cli.run)),
        (cli, "report", tracer.wrap("orchestrator.report", cli.report)),
        (orchestrator.LoopConfig, "from_file", staticmethod(
            tracer.wrap("orchestrator.load_config", orchestrator.LoopConfig.from_file))),
        (ParetoArchive, "insert", tracer.wrap("pareto.insert", ParetoArchive.insert)),
    ]
    targets += [(cls, "run_round", tracer.wrap("backend.run_round", cls.run_round))
                for cls in (SimulatorBackend, ReplayBackend)]
    return targets


@contextmanager
def patched(tracer: Tracer | None, entries: list[float]):
    """Swap in span wrappers (``tracer`` given) or backend-entry probes
    (``tracer`` None, timestamps appended to ``entries``)."""
    targets = _targets(tracer, entries)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def self_times(spans: list[list], first: int = 0) -> list[float]:
    """For ``spans[first:]`` (which must hold their own parents), each
    span's duration minus the time its direct children cover."""
    result = [end - start for _, start, end, _ in spans[first:]]
    for _, start, end, parent in spans[first:]:
        if parent is not None:
            result[parent - first] -= end - start
    return result


def nesting_errors(spans: list[list]) -> int:
    """Spans that start before or end after their parent, or whose
    children add up to more than the span itself."""
    errors = sum(
        1 for _, start, end, parent in spans
        if parent is not None and (start < spans[parent][1] or end > spans[parent][2])
    )
    return errors + sum(1 for value in self_times(spans) if value < -1e-9)
