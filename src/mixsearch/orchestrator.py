"""Closed-loop driver: evaluate the base point, then run fixed-budget
rounds of act, draw, evaluate, profile, archive.

Each point (the base or a round) is written to ``<name>.tmp/`` and
renamed into place, so its committed directory, the run's only record
of progress, is whole: a killed process leaves completed points readable
and a rerun with the same output directory continues instead of starting
over.  All randomness flows from one master seed through named child
seeds, and no artifact except ``run_meta.json`` contains a timestamp,
so two runs with the same config and seed are byte-identical.  A run
with a point left to evaluate removes the archive and report files
first, so they never describe fewer points than are committed.

``config.json`` records the config and the sha256 of every input file
the backend reads, keyed by role.  A resume compares both before it
reads anything else, so a changed input cannot mix two trajectories,
and loads the inputs only when a point is left to evaluate (a replay
always loads its fixture, which holds the round count).  Each point's
``metric.json`` records the sha256 of its ``records.jsonl``, and a
round's ``manifest_summary.json`` that of its ``manifest.jsonl``; a
resume checks both for every committed point.

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
from .pareto import InsertVerdict, ParetoArchive
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

DEFAULT_BUDGET_TOKENS = 1_000_000
DEFAULT_ROUNDS = 5
DEFAULT_INITIAL_MIXTURE = (0.50, 0.30, 0.20)


def round_label(index: int) -> str:
    return f"round-{index}"


@dataclass(frozen=True)
class LoopConfig:
    """Everything one run needs, resolvable from a single JSON file."""

    budget_tokens: int = DEFAULT_BUDGET_TOKENS
    rounds: int = DEFAULT_ROUNDS
    master_seed: int = 0
    backend_kind: str = "simulate"
    surface: SurfaceParams | None = None
    fixture_path: Path | None = None
    pool_manifest_path: Path | None = None
    eval_set_paths: tuple[Path, ...] = ()
    taxonomy_path: Path | None = None
    initial_mixture: tuple[float, float, float] = DEFAULT_INITIAL_MIXTURE
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
        base_dir = base_dir or Path.cwd()

        def _resolve(value: str | None) -> Path | None:
            if value is None:
                return None
            p = Path(value)
            return p if p.is_absolute() else (base_dir / p)

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
        kind = backend.get("kind", "simulate")
        surface = (
            SurfaceParams.from_json(backend.get("surface", {})) if kind == "simulate" else None
        )
        mixture = raw.get("initial_mixture", DEFAULT_INITIAL_MIXTURE)
        return LoopConfig(
            budget_tokens=raw.get("budget_tokens", DEFAULT_BUDGET_TOKENS),
            rounds=raw.get("rounds", DEFAULT_ROUNDS),
            master_seed=raw.get("master_seed", 0),
            backend_kind=kind,
            surface=surface,
            fixture_path=_resolve(backend.get("fixture")),
            pool_manifest_path=_resolve(raw.get("pool_manifest")),
            eval_set_paths=tuple(_resolve(p) for p in raw.get("eval_sets", [])),
            taxonomy_path=_resolve(raw.get("taxonomy")),
            initial_mixture=tuple(float(v) for v in mixture),  # type: ignore[arg-type]
            policy=PolicyConfig.from_json(raw.get("policy", {})),
            fail_threshold=float(raw.get("fail_threshold", DEFAULT_FAIL_THRESHOLD)),
        )

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


def _evaluate(
    runtime: _Runtime,
    archive: ParetoArchive,
    label: str,
    directory: Path,
    request: BackendRequest,
    seeds: dict[str, int],
    action_json: dict | None = None,
) -> tuple[MetricVector, list[FailureProfile], InsertVerdict]:
    """Evaluate one point (the base or a round) and commit its directory.

    Runs the backend, profiles the records (columns from end to end, no
    object per sample), inserts the point into the archive, then writes
    the request's manifest and summary (when it has a manifest), the
    records, metric, profiles and ``action_json`` (for a round) into a
    fresh ``<directory>.tmp/`` and renames it to ``directory``.
    """
    records = runtime.backend.run_round(request)
    metric = metric_vector(records)
    profiles = build_failure_profiles(records, runtime.config.fail_threshold)
    verdict = archive.insert(label, metric)
    temp = directory.with_name(directory.name + ".tmp")
    if temp.exists():
        shutil.rmtree(temp)
    temp.mkdir()
    if request.manifest is not None:
        summary = request.manifest.summary()
        summary["manifest_digest"] = write_manifest(temp / "manifest.jsonl", request.manifest)
        _write_json(temp / "manifest_summary.json", summary)
    records_digest = write_records(temp / "records.jsonl", records)
    _write_json(
        temp / "metric.json",
        dict(metric.to_json(), weighted=weighted_means(records), seeds=seeds,
             verdict=verdict.status, replaced=list(verdict.replaced),
             records_digest=records_digest),
    )
    dump_jsonl(temp / "profiles.jsonl", (profile.to_json() for profile in profiles))
    if action_json is not None:
        _write_json(temp / "action.json", action_json)
    os.replace(temp, directory)
    return metric, profiles, verdict


def run(config: LoopConfig, out_dir: Path | str) -> RunDirectory:
    """Execute (or resume) a full search run into ``out_dir``.

    A fresh run loads and checks every input, and that the pool can
    serve the initial action within the budget, before it creates
    ``out_dir``; a fault in that check names the config file.  A
    resume (``out_dir`` holds a committed ``base/``) checks the config
    and the input digests against ``config.json``, checks each committed
    point's ``records.jsonl`` (and a drawn round's ``manifest.jsonl``)
    against the digest its point records, reads the committed points,
    and loads the inputs only when a point is left to evaluate; a replay
    always loads its fixture.
    """
    out = Path(out_dir)
    run_dir = RunDirectory(out)
    draws = config.backend_kind == "simulate"
    archive = ParetoArchive()
    history = RoundHistory()
    resumed = (out / BASE_LABEL).is_dir()
    if resumed:
        _check_resume(config, run_dir)
        completed = run_dir.round_indices()
        run_dir.check_digests(BASE_LABEL, manifest=False)
        history.base_metric = run_dir.load_base_metric()
        archive.insert(BASE_LABEL, history.base_metric)
        for index in completed:
            run_dir.check_digests(round_dir_name(index), manifest=draws)
            action, _, _ = run_dir.load_round_action(index)
            metric = run_dir.load_round_metric(index)
            archive.insert(round_label(index), metric)
            history.append(
                RoundRecord(index, action, metric, tuple(run_dir.load_round_profiles(index)))
            )
        log.info("resuming run at round %d", len(completed))
        # A replay's round count is its fixture's, so a replay always loads it.
        left = not draws or len(completed) < config.rounds
        runtime = _load_runtime(config) if left else None
    else:
        runtime = _load_runtime(config)
        if draws:
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
        completed = run_dir.round_indices()
        if completed:
            raise DataError(f"run directory {out} has round directories but no {BASE_LABEL}/")
    rounds = config.rounds
    if runtime is not None and runtime.fixture is not None:
        rounds = min(rounds, len(runtime.fixture.rounds))

    if not resumed or len(completed) < rounds:
        # A point is left to evaluate: the archive and reports of the run
        # so far go before it is committed, so a kill cannot leave them
        # describing fewer points than are committed.
        for name in RUN_SUMMARY_FILES:
            (out / name).unlink(missing_ok=True)
        if draws:
            history.bucket_slices = runtime.pool.bucket_slices()
    if not resumed:
        _write_json(out / "config.json", dict(config.normalized(), inputs=inputs))
        now = datetime.now(timezone.utc).isoformat()
        _write_json(out / "run_meta.json", {"created_at": now, "tool": f"mixsearch {__version__}"})
        base_seed = child_seed(config.master_seed, "base")
        history.base_metric, _, _ = _evaluate(
            runtime,
            archive,
            BASE_LABEL,
            out / BASE_LABEL,
            BackendRequest(
                round_index=-1,
                manifest=None,
                eval_sets=runtime.eval_sets,
                seed=base_seed,
            ),
            {"backend": base_seed},
        )
        log.info("base point evaluated: %s", format(history.base_metric, ".4f"))

    for index in range(len(completed), rounds):
        action, rationale, source = _round_action(runtime, history, index)
        draw_seed = child_seed(config.master_seed, "round", index, "draw")
        backend_seed = child_seed(config.master_seed, "round", index, "backend")
        manifest = None
        if draws:
            distribution = effective_distribution(action, runtime.pool, config.budget_tokens)
            manifest = draw_budgeted(
                distribution,
                runtime.pool,
                config.budget_tokens,
                draw_seed,
                focus=action.focus_criteria,
            )
        metric, profiles, verdict = _evaluate(
            runtime,
            archive,
            round_label(index),
            out / round_dir_name(index),
            BackendRequest(
                round_index=index,
                manifest=manifest,
                eval_sets=runtime.eval_sets,
                seed=backend_seed,
            ),
            {"draw": draw_seed, "backend": backend_seed},
            {"action": action.to_json(), "rationale": rationale, "source": source},
        )
        history.append(RoundRecord(index, action, metric, tuple(profiles)))
        log.info(
            "round %d (%s): metric %s, archive verdict %s",
            index,
            source,
            format(metric, ".4f"),
            verdict.status,
        )

    dump_jsonl(out / "archive.jsonl", archive.snapshot_rows())
    for name, content in report(run_dir).items():
        (out / name).write_text(content, encoding="utf-8")
    return run_dir
