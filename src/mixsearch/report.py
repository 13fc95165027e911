"""Read side of a run directory: ``RunDirectory`` and the report.

Nothing here writes a file.  ``report`` renders a run's trajectory,
final archive and worst slices; ``orchestrator.run`` writes the files
it returns, and ``mixsearch report`` prints one.  Each table is built
once as rows of text cells, which ``report.txt`` and its CSV file share.
"""
from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
from pathlib import Path
from typing import Iterator

from .errors import DataError
from .profiles import METRIC_KEYS, FailureProfile, MetricVector, rank_slices
from .records import DIMENSION_ORDER, config_fields, read_json
from .sampler import DataAction

BASE_LABEL = "base"

# What ``run()`` writes after its last point: the archive log and ``report()``'s files.
RUN_SUMMARY_FILES = ("archive.jsonl", "report.txt", "trajectory.csv", "archive.csv", "slices.csv")

_WORST_SLICES_PER_DIMENSION = 3  # failing slices the report lists, worst first


def round_dir_name(index: int) -> str:
    return f"round-{index:03d}"


def digest_file(path: Path) -> str:
    # In chunks, so hashing a record file adds nothing to a run's peak memory.
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


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

    def load_metric(self, point: str) -> MetricVector:
        """The metric of the committed point ``point`` (``base`` or ``round-NNN``)."""
        return self.read(f"{point}/metric.json", MetricVector.from_json)

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
                actual = digest_file(self.path / point / name)
            except OSError as exc:
                raise DataError(f"run directory {self.path} lacks {point}/{name}") from exc
            if actual != recorded:
                raise DataError(
                    f"{self.path / point / name} does not match the digest in its {recorded_in}"
                )

    def frontier(self) -> list[tuple[str, MetricVector]]:
        return self.read("archive.jsonl", _final_frontier, lines=True)


def _final_frontier(rows: Iterator[dict]) -> list[tuple[str, MetricVector]]:
    """The labels of the archive's last frontier row, each with the metric
    it was inserted with, read in one pass."""
    labels = None
    by_label: dict[str, MetricVector] = {}
    for row in rows:
        kind = row.get("kind")
        if kind == "frontier":
            labels = row["labels"]
        elif kind == "insert":
            by_label[row["label"]] = MetricVector.from_json(row["metric"])
    if labels is None:
        raise DataError("has no frontier row")
    return [(label, by_label[label]) for label in labels]


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


def _metric_cells(metric: MetricVector) -> list[str]:
    return [f"{value:.4f}" for value in metric.as_tuple()]


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


def _trajectory(run_dir: RunDirectory) -> tuple[list[list[str]], list[str]]:
    """The trajectory table (a header, the base, then each round) and the flag lines."""
    rows = [
        ["round", *METRIC_KEYS, "mixture", "note"],
        [BASE_LABEL, *_metric_cells(run_dir.load_metric(BASE_LABEL)), "-", ""],
    ]
    actions = [(index, run_dir.load_round_action(index)[0]) for index in run_dir.round_indices()]
    flagged, flag_lines = _micro_flags(actions)
    for index, action in actions:
        note = "micro-only change" if index in flagged else ""
        metric = run_dir.load_metric(round_dir_name(index))
        rows.append([str(index), *_metric_cells(metric), _mixture_text(action), note])
    return rows, flag_lines


def _worst_slices(run_dir: RunDirectory) -> list[FailureProfile]:
    indices = run_dir.round_indices()
    if not indices:
        return []
    profiles = run_dir.load_round_profiles(indices[-1])
    worst = []
    for dimension in DIMENSION_ORDER:
        candidates = [p for p in profiles if p.dimension is dimension and p.fail_mass > 0]
        worst.extend(rank_slices(candidates)[:_WORST_SLICES_PER_DIMENSION])
    return worst


def _csv(rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def report(run_dir: RunDirectory | Path | str) -> dict[str, str]:
    """Render the trajectory, archive, and worst slices of a run; read
    the run directory and write nothing.

    Returns every report file ``run()`` writes (``report.txt``,
    ``trajectory.csv``, ``archive.csv`` and ``slices.csv``), keyed by
    file name.
    """
    if not isinstance(run_dir, RunDirectory):
        run_dir = RunDirectory(run_dir)
    trajectory, flag_lines = _trajectory(run_dir)
    archive = [["label", *METRIC_KEYS]]
    archive += [[label, *_metric_cells(metric)] for label, metric in run_dir.frontier()]
    worst = _worst_slices(run_dir)
    slices = [["dimension", "slice", "mean_score", "fail_rate", "fail_mass", "top_modes"]]
    slices += [
        [p.dimension.value, p.slice_label, f"{p.mean_score:.4f}", f"{p.fail_rate:.4f}",
         f"{p.fail_mass:.4f}", " ".join(p.top_modes())]
        for p in worst
    ]

    lines = ["mixture search report", "=" * 52, "", "trajectory:"]
    lines += ["{:<8}{:>9}{:>9}{:>9}  {:<22}{}".format(*row) for row in trajectory]
    lines += ["", "non-dominated archive:"]
    lines += [f"  {label:<10} {' / '.join(cells)}" for label, *cells in archive[1:]]
    if worst:
        width = max(34, *(len(p.slice_label) for p in worst))
        lines += ["", "worst slices (final round):"]
        lines += [
            f"  {p.dimension.value:<7} {p.slice_label:<{width}} mean {p.mean_score:.4f}  "
            f"fail_rate {p.fail_rate:.2f}  modes: {', '.join(p.top_modes())}"
            for p in worst
        ]
    if flag_lines:
        lines += ["", "flags:", *(f"  {line}" for line in flag_lines)]
    return {
        "report.txt": "\n".join(lines) + "\n",
        "trajectory.csv": _csv(trajectory),
        "archive.csv": _csv(archive),
        "slices.csv": _csv(slices),
    }
