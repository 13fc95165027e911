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
"""
from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import logging
import os
import shutil
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .backend import (
    Backend,
    BackendRequest,
    ReplayBackend,
    SimulatorBackend,
    SurfaceParams,
    replay_action,
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
    rank_slices,
    weighted_means,
)
from .proposer import PolicyConfig, RoundHistory, RoundRecord, propose_explained
from .records import (
    DIMENSION_ORDER,
    Dimension,
    child_seed,
    config_fields,
    dump_jsonl,
    read_json,
    write_records,
)
from .rubric import EvalColumns, PromptAnnotation, SliceTaxonomy, annotate_prompt, load_eval_set
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

BASE_LABEL = "base"


def round_label(index: int) -> str:
    return f"round-{index}"


def round_dir_name(index: int) -> str:
    return f"round-{index:03d}"


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
            lambda raw: LoopConfig.from_json(raw, base_dir=base_dir),
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


class RunDirectory:
    """Read-side view of a run's artifacts.

    Every JSON and JSON-lines artifact is read through ``read``, so a
    missing or damaged file is a ``DataError`` that names it.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)

    def read(self, name: str, build=None, *, lines: bool = False):
        """``read_json`` of the artifact ``name``, relative to the run directory."""
        return read_json(self.path / name, build, lines=lines, what="run artifact")

    def round_indices(self) -> list[int]:
        """Indices of the committed ``round-NNN/`` directories, the
        completed rounds; a gap in them is a ``DataError``."""
        if not self.path.is_dir():
            raise DataError(f"run directory {self.path} does not exist")
        indices = []
        for entry in self.path.iterdir():
            try:
                index = int(entry.name.removeprefix("round-"))
            except ValueError:
                continue
            # Only a name that round_dir_name writes is a committed round,
            # not round-002.tmp, round-1 or round--1.
            if index >= 0 and entry.name == round_dir_name(index) and entry.is_dir():
                indices.append(index)
        indices.sort()
        for expected, index in enumerate(indices):
            if index != expected:
                raise DataError(f"run directory {self.path} lacks {round_dir_name(expected)}/")
        return indices

    def load_round_metric(self, index: int) -> MetricVector:
        return self.read(f"{round_dir_name(index)}/metric.json", MetricVector.from_json)

    def load_round_action(self, index: int) -> tuple[DataAction, list[str], str]:
        def build(obj: dict) -> tuple[DataAction, list[str], str]:
            config_fields(obj, "action.json", {"action": dict, "rationale": [str], "source": str})
            return DataAction.from_json(obj["action"]), obj["rationale"], obj["source"]

        return self.read(f"{round_dir_name(index)}/action.json", build)

    def load_round_profiles(self, index: int) -> list[FailureProfile]:
        return self.read(
            f"{round_dir_name(index)}/profiles.jsonl",
            lambda rows: [FailureProfile.from_json(obj) for obj in rows],
            lines=True,
        )

    def load_base_metric(self) -> MetricVector:
        return self.read(f"{BASE_LABEL}/metric.json", MetricVector.from_json)

    def check_digests(self, point: str, *, manifest: bool) -> None:
        """Raise ``DataError`` unless the committed point's ``records.jsonl``
        has the sha256 that its ``metric.json`` records and, with
        ``manifest``, its ``manifest.jsonl`` the one its
        ``manifest_summary.json`` records."""
        files = [("records.jsonl", "metric.json", "records_digest")]
        if manifest:
            files.append(("manifest.jsonl", "manifest_summary.json", "manifest_digest"))
        for name, recorded_in, key in files:
            recorded = self.read(f"{point}/{recorded_in}", lambda obj: obj[key])
            try:
                actual = _digest_file(self.path / point / name)
            except OSError as exc:
                raise DataError(f"run directory {self.path} lacks {point}/{name}") from exc
            if actual != recorded:
                raise DataError(
                    f"{self.path / point / name} does not match the digest in its {recorded_in}"
                )

    def frontier(self) -> list[tuple[str, MetricVector]]:
        return self.read("archive.jsonl", _final_frontier, lines=True)


def _final_frontier(rows: list[dict]) -> list[tuple[str, MetricVector]]:
    frontier_row = [row for row in rows if row.get("kind") == "frontier"][-1]
    by_label = {
        row["label"]: MetricVector.from_json(row["metric"])
        for row in rows
        if row.get("kind") == "insert"
    }
    return [(label, by_label[label]) for label in frontier_row["labels"]]


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _digest_file(path: Path) -> str:
    # In chunks, so hashing a record file adds nothing to a run's peak memory.
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


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
            digest = _digest_file(input_path)
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
    taxonomy = (
        SliceTaxonomy.from_file(config.taxonomy_path)
        if config.taxonomy_path
        else SliceTaxonomy.default()
    )
    pool = load_pool(PoolManifest.from_file(config.pool_manifest_path))
    eval_sets: dict[Dimension, EvalColumns] = {dim: ([], []) for dim in DIMENSION_ORDER}
    # An annotation depends on the sample's dataset and tags alone, so
    # each distinct pair is annotated once and shared by its samples.
    by_tags: dict[tuple, PromptAnnotation] = {}
    seen_ids: set[str] = set()
    for path in config.eval_set_paths:
        for sample in load_eval_set(path):
            if sample.sample_id in seen_ids:
                raise DataError(
                    f"eval set {path}: sample id {sample.sample_id!r} repeats an id of this "
                    "or an earlier eval set"
                )
            seen_ids.add(sample.sample_id)
            key = (sample.dataset, frozenset(sample.tags.items()))
            annotation = by_tags.get(key)
            if annotation is None:
                annotation = by_tags[key] = annotate_prompt(sample, taxonomy)
            sample_ids, annotations = eval_sets[annotation.dimension]
            sample_ids.append(sample.sample_id)
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
        action = replay_action(runtime.fixture.row_for(index))
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
    serve the initial action, before it creates ``out_dir``.  A resume
    (``out_dir`` holds a committed ``base/``) checks the config and the
    input digests against ``config.json``, checks each committed point's
    ``records.jsonl`` (and a drawn round's ``manifest.jsonl``) against
    the digest its point records, reads the committed points, and loads
    the inputs only when a point is left to evaluate; a replay always
    loads its fixture.
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
            effective_distribution(_initial_action(config, runtime.pool), runtime.pool)
        inputs = {role: _digest_file(path) for role, path in _input_files(config)}
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use {out} as a run directory: {exc.strerror}") from exc
        completed = run_dir.round_indices()
        if completed:
            raise DataError(f"run directory {out} has round directories but no {BASE_LABEL}/")
    rounds = config.rounds
    if runtime is not None and runtime.fixture is not None:
        rounds = min(rounds, runtime.fixture.round_count)

    if not resumed or len(completed) < rounds:
        # A point is left to evaluate: the archive and reports of the run
        # so far go before it is committed, so a kill cannot leave them
        # describing fewer points than are committed.
        for name in _RUN_SUMMARY_FILES:
            (out / name).unlink(missing_ok=True)
        if draws:
            history.bucket_slices = runtime.pool.bucket_slices()
    if not resumed:
        _write_json(out / "config.json", dict(config.normalized(), inputs=inputs))
        _write_json(
            out / "run_meta.json",
            {
                "created_at": datetime.now(timezone.utc).isoformat(),
                "tool": "mixsearch 0.1.0",
            },
        )
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
            distribution = effective_distribution(action, runtime.pool)
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


# ---------------------------------------------------------------------------
# Reporting


def _mixture_text(action: DataAction) -> str:
    return " / ".join(f"{share:.2f}" for share in action.dataset_mixture)


def _mixture_signature(action: DataAction) -> tuple[int, ...]:
    return tuple(round(share * 10_000) for share in action.dataset_mixture)


def _micro_signature(action: DataAction) -> str:
    weights = {
        dataset.value: {b: round(w, 6) for b, w in sorted(weights.items())}
        for dataset, weights in sorted(
            action.bucket_weights.items(), key=lambda item: item[0].value
        )
    }
    focus = [criterion.to_json() for criterion in action.focus_criteria]
    return json.dumps({"weights": weights, "focus": focus}, sort_keys=True)


@dataclass(frozen=True)
class TrajectoryRow:
    label: str
    metric: MetricVector
    mixture: str
    note: str = ""


def _micro_flags(actions: list[tuple[int, DataAction]]) -> tuple[set[int], list[str]]:
    """Rounds whose mixture repeats the previous round's while bucket
    weights or focus criteria changed, grouped for the report."""
    flagged: set[int] = set()
    lines: list[str] = []
    for _, grouped in itertools.groupby(actions, key=lambda item: _mixture_signature(item[1])):
        group = list(grouped)
        if len({_micro_signature(action) for _, action in group}) > 1:
            indices = [index for index, _ in group]
            flagged.update(indices)
            lines.append(
                f"rounds {indices[0]}-{indices[-1]} share mixture "
                f"{_mixture_text(group[0][1])} but differ in bucket weights or focus "
                "criteria (micro-only changes)"
            )
    return flagged, lines


def _trajectory(run_dir: RunDirectory) -> tuple[list[TrajectoryRow], list[str]]:
    rows = [
        TrajectoryRow(label=BASE_LABEL, metric=run_dir.load_base_metric(), mixture="-")
    ]
    actions = []
    for index in run_dir.round_indices():
        action, _, _ = run_dir.load_round_action(index)
        actions.append((index, action))
    flagged, flag_lines = _micro_flags(actions)
    for index, action in actions:
        rows.append(
            TrajectoryRow(
                label=str(index),
                metric=run_dir.load_round_metric(index),
                mixture=_mixture_text(action),
                note="micro-only change" if index in flagged else "",
            )
        )
    return rows, flag_lines


def _worst_slices(run_dir: RunDirectory, per_dimension: int = 3) -> list[FailureProfile]:
    indices = run_dir.round_indices()
    if not indices:
        return []
    profiles = run_dir.load_round_profiles(indices[-1])
    worst = []
    for dimension in DIMENSION_ORDER:
        candidates = [p for p in profiles if p.dimension is dimension and p.fail_mass > 0]
        worst.extend(rank_slices(candidates)[:per_dimension])
    return worst


def _csv(header: list[str], rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# What ``run()`` writes after its last point: the archive log and ``report()``'s files.
_RUN_SUMMARY_FILES = ("archive.jsonl", "report.txt", "trajectory.csv", "archive.csv", "slices.csv")


def report(run_dir: RunDirectory | Path | str) -> dict[str, str]:
    """Render the trajectory, archive, and worst slices of a run; read
    the run directory and write nothing.

    Returns every report file ``run()`` writes (``report.txt``,
    ``trajectory.csv``, ``archive.csv`` and ``slices.csv``), keyed by
    file name.
    """
    if not isinstance(run_dir, RunDirectory):
        run_dir = RunDirectory(run_dir)
    rows, flag_lines = _trajectory(run_dir)
    frontier = run_dir.frontier()
    worst = _worst_slices(run_dir)

    lines = ["mixture search report", "=" * 52, "", "trajectory:"]
    lines.append(f"{'round':<8}{'safe':>9}{'benign':>9}{'if':>9}  {'mixture':<22}note")
    for row in rows:
        lines.append(
            f"{row.label:<8}"
            f"{row.metric.safe:>9.4f}{row.metric.benign:>9.4f}{row.metric.if_score:>9.4f}  "
            f"{row.mixture:<22}{row.note}"
        )
    lines.extend(["", "non-dominated archive:"])
    for label, metric in frontier:
        lines.append(f"  {label:<10} {format(metric, '.4f')}")
    if worst:
        lines.extend(["", "worst slices (final round):"])
        for profile in worst:
            lines.append(
                f"  {profile.dimension.value:<7} {profile.slice_label:<34} "
                f"mean {profile.mean_score:.4f}  fail_rate {profile.fail_rate:.2f}  "
                f"modes: {', '.join(profile.top_modes())}"
            )
    if flag_lines:
        lines.extend(["", "flags:"])
        lines.extend(f"  {line}" for line in flag_lines)

    return {
        "report.txt": "\n".join(lines) + "\n",
        "trajectory.csv": _csv(
            ["round", "safe", "benign", "if", "mixture", "note"],
            [
                [
                    row.label,
                    f"{row.metric.safe:.4f}",
                    f"{row.metric.benign:.4f}",
                    f"{row.metric.if_score:.4f}",
                    row.mixture,
                    row.note,
                ]
                for row in rows
            ],
        ),
        "archive.csv": _csv(
            ["label", "safe", "benign", "if"],
            [
                [label, f"{metric.safe:.4f}", f"{metric.benign:.4f}", f"{metric.if_score:.4f}"]
                for label, metric in frontier
            ],
        ),
        "slices.csv": _csv(
            ["dimension", "slice", "mean_score", "fail_rate", "fail_mass", "top_modes"],
            [
                [
                    profile.dimension.value,
                    profile.slice_label,
                    f"{profile.mean_score:.4f}",
                    f"{profile.fail_rate:.4f}",
                    f"{profile.fail_mass:.4f}",
                    " ".join(profile.top_modes()),
                ]
                for profile in worst
            ],
        ),
    }
