"""Closed-loop driver: evaluate the base point, then run fixed-budget
rounds of act, draw, evaluate, profile, archive.

A run is one loop over its points, the base (point -1) and each round.
Each point is written to ``<name>.tmp/`` and renamed into place, so its
committed directory, the run's only record of progress, is whole: a
killed process leaves completed points readable, and a rerun with the
same output directory reads them back and evaluates the rest instead of
starting over.  All randomness flows from one master seed through named
child seeds, and no artifact except ``run_meta.json`` contains a
timestamp, so two runs with the same config and seed are byte-identical.
At the first point left to evaluate a run removes the archive and report
files, so they never describe fewer points than are committed.

``config.json`` records the config and the sha256 of every input file
the backend reads, keyed by role.  A resume compares both before it
reads anything else, so a changed input cannot mix two trajectories.
Each point's ``metric.json`` records the sha256 of its
``records.jsonl``, and a round's ``manifest_summary.json`` that of its
``manifest.jsonl``; a resume checks both for every committed point
before it loads any input (a replay loads its fixture first, since it
holds the round count).

This module is the loop and the write side of a run directory; reading
one back and rendering its report live in ``report.py``.
"""
from __future__ import annotations

import json
import logging
import os
import shutil
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .backend import (
    Backend,
    BackendRequest,
    ReplayBackend,
    SimulatorBackend,
    SurfaceParams,
)
from .corpus import Pool, PoolManifest, load_pool
from .errors import ConfigError, DataError
from .fixtures import (
    ReplayFixture,
    default_fixture_path,
    default_taxonomy_path,
    load_replay_fixture,
)
from .pareto import ParetoArchive
from .profiles import (
    DEFAULT_FAIL_THRESHOLD,
    FailureProfile,
    MetricVector,
    build_failure_profiles,
    metric_vector,
    weighted_means,
)
from .proposer import PolicyConfig, RoundHistory, RoundRecord, propose_explained
from .records import (
    DIMENSION_ORDER,
    Dataset,
    Dimension,
    child_seed,
    config_fields,
    dump_jsonl,
    read_json,
    write_records,
)
from .report import (
    BASE_LABEL,
    RUN_SUMMARY_FILES,
    RunDirectory,
    digest_file,
    report,
    round_dir_name,
)
from .rubric import (
    AnnotationKey,
    EvalColumns,
    PromptAnnotation,
    SliceTaxonomy,
    annotate_prompt,
    load_eval_set,
)
from .sampler import (
    DataAction,
    draw_budgeted,
    effective_distribution,
    uniform_bucket_weights,
    write_manifest,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LoopConfig:
    """Everything one run needs, resolvable from a single JSON file."""

    budget_tokens: int = 1_000_000
    rounds: int = 5
    master_seed: int = 0
    backend_kind: str = "simulate"
    surface: SurfaceParams | None = None
    fixture_path: Path | None = None
    pool_manifest_path: Path | None = None
    eval_set_paths: tuple[Path, ...] = ()
    taxonomy_path: Path | None = None
    initial_mixture: tuple[float, float, float] = (0.50, 0.30, 0.20)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    fail_threshold: float = DEFAULT_FAIL_THRESHOLD
    source: Path | None = field(default=None, compare=False)  # its file, named in run errors

    def __post_init__(self) -> None:
        if self.budget_tokens < 1:
            raise ConfigError(f"budget_tokens must be >= 1, got {self.budget_tokens}")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        try:
            DataAction(dataset_mixture=self.initial_mixture)
        except ConfigError as exc:
            raise ConfigError(f"initial_mixture: {exc}") from exc
        if self.backend_kind == "simulate":
            if self.pool_manifest_path is None:
                raise ConfigError("simulate runs need a pool_manifest path")
            if not self.eval_set_paths:
                raise ConfigError("simulate runs need eval_sets paths")
        elif self.backend_kind != "replay":  # replay's fixture_path defaults to the shipped one
            raise ConfigError(f"unknown backend kind {self.backend_kind!r}")

    @staticmethod
    def from_file(path: Path | str) -> "LoopConfig":
        base_dir = Path(os.path.abspath(Path(path).parent))
        return read_json(
            path,
            lambda raw: replace(LoopConfig.from_json(raw, base_dir=base_dir), source=Path(path)),
            error=ConfigError,
            what="config file",
        )

    @staticmethod
    def from_json(raw: dict, base_dir: Path | None = None) -> "LoopConfig":
        """The config ``raw`` holds; a key it lacks leaves its field's default."""
        base_dir = base_dir or Path.cwd()

        def _resolve(value: str | None) -> Path | None:
            return None if value is None else base_dir / value

        path = (str, None)  # null names no file
        fields = {
            "budget_tokens": int,
            "rounds": int,
            "master_seed": int,
            "backend": dict,
            "pool_manifest": path,
            "eval_sets": [str],
            "taxonomy": path,
            "initial_mixture": [float],
            "policy": dict,
            "fail_threshold": float,
        }
        config_fields(raw, "config", fields)
        backend_fields = {"kind": str, "surface": (dict, None), "fixture": path}
        backend = config_fields(raw.get("backend", {}), "backend", backend_fields)
        kwargs = {key: raw[key] for key in ("budget_tokens", "rounds", "master_seed") if key in raw}
        for key in ("pool_manifest", "taxonomy"):
            if key in raw:
                kwargs[f"{key}_path"] = _resolve(raw[key])
        if "fixture" in backend:
            kwargs["fixture_path"] = _resolve(backend["fixture"])
        if "eval_sets" in raw:
            kwargs["eval_set_paths"] = tuple(base_dir / p for p in raw["eval_sets"])
        if "initial_mixture" in raw:
            kwargs["initial_mixture"] = tuple(float(v) for v in raw["initial_mixture"])
        if "fail_threshold" in raw:
            kwargs["fail_threshold"] = float(raw["fail_threshold"])
        kind = kwargs["backend_kind"] = backend.get("kind", LoopConfig.backend_kind)
        if kind == "simulate":
            kwargs["surface"] = SurfaceParams.from_json(backend.get("surface", {}))
        return LoopConfig(policy=PolicyConfig.from_json(raw.get("policy", {})), **kwargs)

    def normalized(self) -> dict:
        """Stable JSON form, written to the run directory and compared on resume."""
        return {
            "budget_tokens": self.budget_tokens,
            "rounds": self.rounds,
            "master_seed": self.master_seed,
            "backend": {
                "kind": self.backend_kind,
                "surface": self.surface.to_json() if self.surface else None,
                "fixture": str(self.fixture_path) if self.fixture_path else None,
            },
            "pool_manifest": str(self.pool_manifest_path) if self.pool_manifest_path else None,
            "eval_sets": [str(p) for p in self.eval_set_paths],
            "taxonomy": str(self.taxonomy_path) if self.taxonomy_path else None,
            "initial_mixture": list(self.initial_mixture),
            "policy": self.policy.to_json(),
            "fail_threshold": self.fail_threshold,
        }


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _input_files(config: LoopConfig):
    """Yield ``(role, path)`` for every file the config's backend reads.

    A replay reads its fixture.  A simulation reads the pool manifest,
    each record file it names (``records.<DATASET>``), the eval sets
    (``eval_sets[i]``) and the taxonomy, the packaged one when the
    config names none.  The manifest is parsed only once its own
    ``(role, path)`` has been taken, so a caller can check its digest
    before the record paths are read out of it.
    """
    if config.backend_kind == "replay":
        yield "fixture", config.fixture_path or default_fixture_path()
        return
    yield "pool_manifest", config.pool_manifest_path
    for spec in PoolManifest.from_file(config.pool_manifest_path).datasets:
        yield f"records.{spec.dataset_id.value}", spec.path
    for index, path in enumerate(config.eval_set_paths):
        yield f"eval_sets[{index}]", path
    yield "taxonomy", config.taxonomy_path or default_taxonomy_path()


def _recorded_config(raw: object) -> tuple[dict, dict | None]:
    """``config.json`` split into the normalized config and its input
    digests (None when it records none)."""
    if not isinstance(raw, dict):
        raise DataError("is not a JSON object")
    recorded = dict(raw)
    inputs = recorded.pop("inputs", None)
    if inputs is not None and not (
        isinstance(inputs, dict) and all(isinstance(v, str) for v in inputs.values())
    ):
        raise DataError("inputs is not an object of digest strings")
    return recorded, inputs


def _check_resume(config: LoopConfig, run_dir: RunDirectory) -> None:
    """Raise ``ConfigError`` unless ``run_dir``'s ``config.json`` records
    ``config`` (its round count aside) and the digest of every input the
    config's backend reads, and no other input."""
    path = run_dir.path / "config.json"
    recorded, inputs = run_dir.read("config.json", _recorded_config)
    ours = config.normalized()
    ours.pop("rounds"), recorded.pop("rounds", None)
    if ours != recorded:
        raise ConfigError(
            f"run directory {run_dir.path} was produced by a different config; "
            "refusing to mix trajectories"
        )
    if inputs is None:
        raise ConfigError(
            f"{path} records no input digests (it predates them); "
            "the run cannot be resumed, start a new run directory"
        )
    for role, input_path in _input_files(config):
        try:
            digest = digest_file(input_path)
        except OSError as exc:
            raise ConfigError(
                f"cannot read input {input_path} ({role}) to compare it with {path}: "
                f"{exc.strerror or exc}"
            ) from exc
        if inputs.pop(role, None) != digest:
            raise ConfigError(
                f"input {input_path} ({role}) differs from the one recorded in {path}; "
                "refusing to mix trajectories"
            )
    if inputs:
        raise ConfigError(f"{path} records inputs the config does not read: {', '.join(inputs)}")


@dataclass
class _Runtime:
    """Loaded, validated inputs for one run."""

    config: LoopConfig
    backend: Backend
    pool: Pool | None  # None for a replay, which draws nothing
    fixture: ReplayFixture | None  # None for a simulation
    eval_sets: dict[Dimension, EvalColumns]


def _load_runtime(config: LoopConfig) -> _Runtime:
    """Load and check every input the config's backend reads, and nothing else.

    A replay reads only its fixture; any pool, eval sets or taxonomy its
    config names are kept in ``config.json`` but never opened.  A
    simulation reads the taxonomy, the pool manifest and its record
    files, then the eval sets.
    """
    if config.backend_kind == "replay":
        fixture = load_replay_fixture(config.fixture_path or default_fixture_path())
        return _Runtime(config, ReplayBackend(fixture), pool=None, fixture=fixture, eval_sets={})
    taxonomy = SliceTaxonomy.from_file(config.taxonomy_path or default_taxonomy_path())
    pool = load_pool(PoolManifest.from_file(config.pool_manifest_path))
    eval_sets: dict[Dimension, EvalColumns] = {dim: ([], []) for dim in DIMENSION_ORDER}
    # An annotation depends on the sample's dataset and tags alone, so
    # each distinct pair is annotated once and shared by its samples.
    by_tags: dict[AnnotationKey, PromptAnnotation] = {}
    seen_ids: set[str] = set()

    def annotate(dataset: Dataset, tags: dict[str, str]) -> PromptAnnotation:
        return annotate_prompt(dataset, tags, taxonomy)

    for path in config.eval_set_paths:
        for sample_id, annotation in load_eval_set(path, annotate, by_tags):
            if sample_id in seen_ids:
                raise DataError(
                    f"eval set {path}: sample id {sample_id!r} repeats an id of this "
                    "or an earlier eval set"
                )
            seen_ids.add(sample_id)
            sample_ids, annotations = eval_sets[annotation.dimension]
            sample_ids.append(sample_id)
            annotations.append(annotation)
    valid = {annotation.dimension for annotation in by_tags.values() if annotation.valid}
    for dimension in DIMENSION_ORDER:
        if dimension not in valid:
            raise DataError(f"eval sets contain no valid samples for dimension {dimension.value}")
    return _Runtime(
        config, SimulatorBackend(config.surface), pool=pool, fixture=None, eval_sets=eval_sets
    )


def _initial_action(config: LoopConfig, pool: Pool) -> DataAction:
    return DataAction(
        dataset_mixture=config.initial_mixture, bucket_weights=uniform_bucket_weights(pool)
    )


def _round_action(
    runtime: _Runtime, history: RoundHistory, index: int
) -> tuple[DataAction, list[str], str]:
    if runtime.fixture is not None:
        action = runtime.fixture.rounds[index].action
        return action, [f"action replayed from fixture row {index}"], "fixture"
    if index == 0:
        action = _initial_action(runtime.config, runtime.pool)
        return action, ["initial action from config"], "initial"
    action, rationale = propose_explained(history, runtime.config.policy)
    return action, rationale, "policy"


def _point(index: int) -> tuple[str, str]:
    """Point ``index``'s archive label and directory name; the base is point -1."""
    if index < 0:
        return BASE_LABEL, BASE_LABEL
    return f"round-{index}", round_dir_name(index)


def _start(
    config: LoopConfig,
    run_dir: RunDirectory,
    runtime: _Runtime | None,
    history: RoundHistory,
    first: int,
    end: int,
) -> _Runtime:
    """Make ready to evaluate points ``first`` to ``end - 1``, the points left.

    Each one's name and its ``.tmp`` name must be free or a directory (a
    ``.tmp/`` a kill left behind is removed when its point is evaluated),
    else nothing is written.  Then the inputs load (a replay's fixture
    already has), and a fresh run (``first`` is the base) checks that
    the pool can serve the initial action, creates the run directory and
    writes ``config.json`` and ``run_meta.json``; a simulation that
    extends committed rounds checks that the pool can serve the last
    committed action, which the proposer builds on, else its
    ``action.json`` is damaged data.  Last, the archive and reports of
    the run so far go before a point is committed, so a kill cannot
    leave them describing fewer points than are committed.
    """
    out = run_dir.path
    for index in range(first, end):
        name = _point(index)[1]
        for path in (out / name, out / f"{name}.tmp"):
            if os.path.lexists(path) and (path.is_symlink() or not path.is_dir()):
                raise DataError(
                    f"{path} is not a plain directory, so point {name} cannot be written"
                )
    runtime = runtime or _load_runtime(config)
    if first < 0:
        if runtime.pool is not None:
            initial = _initial_action(config, runtime.pool)
            try:
                effective_distribution(initial, runtime.pool, config.budget_tokens)
            except ConfigError as exc:
                source = f"config file {config.source}" if config.source else "config"
                raise ConfigError(f"{source}: initial action: {exc}") from exc
        inputs = {role: digest_file(path) for role, path in _input_files(config)}
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use {out} as a run directory: {exc.strerror}") from exc
        if run_dir.round_indices():
            raise DataError(f"run directory {out} has round directories but no {BASE_LABEL}/")
        _write_json(out / "config.json", dict(config.normalized(), inputs=inputs))
        now = datetime.now(timezone.utc).isoformat()
        _write_json(out / "run_meta.json", {"created_at": now, "tool": f"mixsearch {__version__}"})
    elif first > 0 and runtime.pool is not None:
        try:
            effective_distribution(history.latest.action, runtime.pool)
        except ConfigError as exc:
            path = out / round_dir_name(first - 1) / "action.json"
            raise DataError(f"run artifact {path}: {exc}") from exc
    for name in RUN_SUMMARY_FILES:
        (out / name).unlink(missing_ok=True)
    return runtime


def _evaluate(
    runtime: _Runtime, archive: ParetoArchive, history: RoundHistory, index: int, out: Path
) -> tuple[MetricVector, DataAction | None, list[FailureProfile]]:
    """Evaluate point ``index`` (-1 the base) and commit its directory.

    A round takes its action and, in a simulation, draws its manifest;
    the base has neither.  Then the backend runs, the records are
    profiled (columns from end to end, no object per sample) and the
    point goes into the archive.  Its manifest and summary (a drawn
    round), records, metric, profiles and ``action.json`` (a round) are
    written into a fresh ``<name>.tmp/``, which is renamed to ``<name>``.
    Returns the point's metric, action (None for the base) and profiles.
    """
    config = runtime.config
    label, name = _point(index)
    action = manifest = None
    if index < 0:
        seeds = {"backend": child_seed(config.master_seed, "base")}
    else:
        action, rationale, source = _round_action(runtime, history, index)
        seeds = {
            purpose: child_seed(config.master_seed, "round", index, purpose)
            for purpose in ("draw", "backend")
        }
        if runtime.pool is not None:
            distribution = effective_distribution(action, runtime.pool, config.budget_tokens)
            manifest = draw_budgeted(
                distribution,
                runtime.pool,
                config.budget_tokens,
                seeds["draw"],
                focus=action.focus_criteria,
            )
    records = runtime.backend.run_round(
        BackendRequest(
            round_index=index, manifest=manifest, eval_sets=runtime.eval_sets, seed=seeds["backend"]
        )
    )
    metric = metric_vector(records)
    profiles = build_failure_profiles(records, config.fail_threshold)
    verdict = archive.insert(label, metric)
    temp = out / f"{name}.tmp"
    if temp.exists():  # a kill left it behind; _start saw that it is a plain directory
        shutil.rmtree(temp)
    temp.mkdir()
    if manifest is not None:
        summary = manifest.summary()
        summary["manifest_digest"] = write_manifest(temp / "manifest.jsonl", manifest)
        _write_json(temp / "manifest_summary.json", summary)
    records_digest = write_records(temp / "records.jsonl", records)
    _write_json(
        temp / "metric.json",
        dict(metric.to_json(), weighted=weighted_means(records), seeds=seeds,
             verdict=verdict.status, replaced=list(verdict.replaced),
             records_digest=records_digest),
    )
    dump_jsonl(temp / "profiles.jsonl", (profile.to_json() for profile in profiles))
    if action is not None:
        action_json = {"action": action.to_json(), "rationale": rationale, "source": source}
        _write_json(temp / "action.json", action_json)
    os.replace(temp, out / name)
    log.info("%s: metric %s, archive verdict %s", label, format(metric, ".4f"), verdict.status)
    return metric, action, profiles


def run(config: LoopConfig, out_dir: Path | str) -> RunDirectory:
    """Execute (or resume) a full search run into ``out_dir``.

    Each point, the base first, is read back or evaluated; inputs load
    at the first point left.  A resume (``out_dir`` holds a committed
    ``base/``) first checks the config and the input digests against
    ``config.json``.  A committed point is read back: its
    ``records.jsonl`` (and a drawn round's ``manifest.jsonl``) is
    checked against the digest its point records, then its metric,
    action and profiles load.  A replay loads its fixture before any
    point, since the fixture holds the round count.  A fresh run loads
    and checks every input, and that the pool can serve the initial
    action within the budget, before it creates ``out_dir``; a fault in
    that check names the config file.
    """
    run_dir = RunDirectory(out_dir)
    out = run_dir.path
    draws = config.backend_kind == "simulate"
    archive = ParetoArchive()
    history = RoundHistory()
    done = -1  # points -1 (the base) to done - 1 are committed
    if (out / BASE_LABEL).is_dir():
        _check_resume(config, run_dir)
        done = len(run_dir.round_indices())
    runtime = None if draws else _load_runtime(config)
    rounds = config.rounds if draws else min(config.rounds, len(runtime.fixture.rounds))
    for index in range(-1, max(rounds, done)):
        if index < done:
            label, name = _point(index)
            run_dir.check_digests(name, manifest=draws and index >= 0)
            metric = run_dir.load_metric(name)
            archive.insert(label, metric)
            if index >= 0:
                action = run_dir.load_round_action(index)[0]
                profiles = run_dir.load_round_profiles(index)
        else:
            if index == done:
                runtime = _start(config, run_dir, runtime, history, index, rounds)
                if draws:
                    history.bucket_slices = runtime.pool.bucket_slices()
            metric, action, profiles = _evaluate(runtime, archive, history, index, out)
        if index < 0:
            history.base_metric = metric
        else:
            history.append(RoundRecord(index, action, metric, tuple(profiles)))

    dump_jsonl(out / "archive.jsonl", archive.snapshot_rows())
    for name, content in report(run_dir).items():
        (out / name).write_text(content, encoding="utf-8")
    return run_dir
