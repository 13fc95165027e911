"""Training pools: manifest loading, document windowing, bucket indexing.

A pool manifest is one JSON config naming the datasets, their record
files, the per-dataset bucket catalogs, and the shared window geometry.
Record files hold one JSON object per line with fields
``{id, dataset, bucket, tags, text | token_count}``; records may carry
raw text (counted with the pluggable tokenizer) or a precomputed token
count for metadata-only pools.

Long documents split into fixed-length windows whose starts advance by
``stride`` (default: the window length, i.e. no overlap); the final
window may be shorter.  Windows inherit their bucket's slice fields as
tags, so focus predicates can address slice axes uniformly.  Windows
with equal tags share one tag mapping, and the pool lists each bucket's
distinct mappings, so predicates can be evaluated per mapping instead of
per window.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import ConfigError, DataError, SchemaError
from .records import Dataset, load_jsonl, slice_key

log = logging.getLogger(__name__)

DEFAULT_WINDOW_LENGTH = 4096

Tokenizer = Callable[[str], int]


def whitespace_token_count(text: str) -> int:
    """Default tokenizer: whitespace-delimited token count."""
    return len(text.split())


def split_windows(token_count: int, window_length: int, stride: int) -> list[tuple[int, int]]:
    """Split a document of ``token_count`` tokens into (start, length) windows.

    Starts begin at 0 and advance by ``stride``; every window except
    possibly the last has ``window_length`` tokens, and together they
    cover every token position at least once.
    """
    if token_count < 1:
        raise ConfigError(f"token_count must be >= 1, got {token_count}")
    if window_length < 1:
        raise ConfigError(f"window_length must be >= 1, got {window_length}")
    if not 1 <= stride <= window_length:
        raise ConfigError(
            f"stride must satisfy 1 <= stride <= window_length, got stride={stride} "
            f"window_length={window_length}"
        )
    windows = []
    start = 0
    while start < token_count:
        windows.append((start, min(window_length, token_count - start)))
        start += stride
    return windows


@dataclass(frozen=True)
class TrainingWindow:
    """One sampleable unit of training data."""

    window_id: str
    dataset_id: Dataset
    bucket_id: str
    token_count: int
    text_ref: str | None = None
    tags: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.token_count < 1:
            raise ValueError(f"window {self.window_id!r} has token_count {self.token_count}")


@dataclass(frozen=True)
class Bucket:
    bucket_id: str
    slice_fields: dict[str, str]

    @property
    def slice_label(self) -> str:
        return slice_key(self.slice_fields)


@dataclass(frozen=True)
class BucketCatalog:
    """Ordered bucket list for one dataset."""

    dataset_id: Dataset
    buckets: tuple[Bucket, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for bucket in self.buckets:
            if bucket.bucket_id in seen:
                raise SchemaError(
                    f"dataset {self.dataset_id.value}: duplicate bucket id {bucket.bucket_id!r}"
                )
            seen.add(bucket.bucket_id)

    def bucket_ids(self) -> tuple[str, ...]:
        return tuple(bucket.bucket_id for bucket in self.buckets)


@dataclass(frozen=True)
class DatasetSpec:
    dataset_id: Dataset
    path: Path
    catalog: BucketCatalog
    enumerations: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class PoolManifest:
    datasets: tuple[DatasetSpec, ...]
    window_length: int = DEFAULT_WINDOW_LENGTH
    stride: int | None = None  # None means window_length: adjacent, non-overlapping

    def __post_init__(self) -> None:
        if self.window_length < 1:
            raise ConfigError(f"window_length must be >= 1, got {self.window_length}")
        stride = self.effective_stride
        if not 1 <= stride <= self.window_length:
            raise ConfigError(
                f"stride must satisfy 1 <= stride <= window_length, got {stride}"
            )
        if not self.datasets:
            raise ConfigError("pool manifest declares no datasets")
        seen: set[Dataset] = set()
        for spec in self.datasets:
            if spec.dataset_id in seen:
                raise ConfigError(f"dataset {spec.dataset_id.value} declared twice")
            seen.add(spec.dataset_id)

    @property
    def effective_stride(self) -> int:
        return self.window_length if self.stride is None else self.stride

    @staticmethod
    def from_file(path: Path | str) -> "PoolManifest":
        path = Path(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except FileNotFoundError as exc:
            raise DataError(f"pool manifest not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"pool manifest {path} is not valid JSON: {exc}") from exc
        return _manifest_from_json(raw, base_dir=path.parent)


def _manifest_from_json(raw: dict, base_dir: Path) -> PoolManifest:
    if not isinstance(raw, dict) or "datasets" not in raw:
        raise SchemaError("pool manifest must be an object with a 'datasets' list")
    specs = []
    for entry in raw["datasets"]:
        try:
            dataset_id = Dataset(entry["id"])
        except (KeyError, ValueError) as exc:
            raise SchemaError(f"pool manifest dataset entry has unknown id: {entry!r}") from exc
        enumerations = {
            key: tuple(str(v) for v in values)
            for key, values in entry.get("enumerations", {}).items()
        }
        buckets = []
        for bucket_entry in entry.get("buckets", []):
            slice_fields = {str(k): str(v) for k, v in bucket_entry["slice"].items()}
            for fld, value in slice_fields.items():
                allowed = enumerations.get(fld)
                if allowed is None or value not in allowed:
                    raise SchemaError(
                        f"dataset {dataset_id.value} bucket {bucket_entry['id']!r}: slice "
                        f"field {fld}={value!r} not in declared enumerations"
                    )
            buckets.append(Bucket(bucket_id=str(bucket_entry["id"]), slice_fields=slice_fields))
        if not buckets:
            raise SchemaError(f"dataset {dataset_id.value} declares no buckets")
        specs.append(
            DatasetSpec(
                dataset_id=dataset_id,
                path=base_dir / entry["path"],
                catalog=BucketCatalog(dataset_id=dataset_id, buckets=tuple(buckets)),
                enumerations=enumerations,
            )
        )
    return PoolManifest(
        datasets=tuple(specs),
        window_length=int(raw.get("window_length", DEFAULT_WINDOW_LENGTH)),
        stride=int(raw["stride"]) if "stride" in raw else None,
    )


class Pool:
    """Immutable window index keyed by (dataset, bucket).

    Iteration order is the record-file order within each bucket, so two
    loads of identical manifest bytes produce identical pools.
    """

    def __init__(
        self,
        manifest: PoolManifest,
        windows_by_bucket: dict[tuple[Dataset, str], tuple[TrainingWindow, ...]],
    ) -> None:
        self.manifest = manifest
        self._windows_by_bucket = windows_by_bucket
        self._catalogs = {spec.dataset_id: spec.catalog for spec in manifest.datasets}
        self._tag_groups: dict[tuple[Dataset, str], tuple[tuple[dict[str, str], int], ...]] = {}

    def catalog(self, dataset_id: Dataset) -> BucketCatalog:
        try:
            return self._catalogs[dataset_id]
        except KeyError:
            raise ConfigError(f"pool has no dataset {dataset_id.value}") from None

    @property
    def datasets(self) -> tuple[Dataset, ...]:
        return tuple(spec.dataset_id for spec in self.manifest.datasets)

    def windows(self, dataset_id: Dataset, bucket_id: str) -> tuple[TrainingWindow, ...]:
        return self._windows_by_bucket.get((dataset_id, bucket_id), ())

    def tag_groups(
        self, dataset_id: Dataset, bucket_id: str
    ) -> tuple[tuple[dict[str, str], int], ...]:
        """The bucket's tag mappings, each paired with the token count of
        its shortest window, in first-seen order.

        Windows are grouped by mapping object; ``load_pool`` gives equal
        tags one shared mapping, so each group is one distinct mapping
        and predicates can run once per group instead of once per window.
        """
        key = (dataset_id, bucket_id)
        groups = self._tag_groups.get(key)
        if groups is None:
            shortest: dict[int, tuple[dict[str, str], int]] = {}
            for window in self.windows(dataset_id, bucket_id):
                seen = shortest.get(id(window.tags))
                if seen is None or window.token_count < seen[1]:
                    shortest[id(window.tags)] = (window.tags, window.token_count)
            groups = self._tag_groups[key] = tuple(shortest.values())
        return groups

    def window_count(self, dataset_id: Dataset) -> int:
        return sum(
            len(windows)
            for (ds, _), windows in self._windows_by_bucket.items()
            if ds == dataset_id
        )

    @property
    def longest_window(self) -> int:
        lengths = [
            window.token_count
            for windows in self._windows_by_bucket.values()
            for window in windows
        ]
        if not lengths:
            raise DataError("pool has no windows")
        return max(lengths)

    def bucket_slices(self) -> dict[Dataset, dict[str, str]]:
        """bucket_id -> slice label map per dataset, for policy plumbing."""
        return {
            dataset_id: {
                bucket.bucket_id: bucket.slice_label for bucket in catalog.buckets
            }
            for dataset_id, catalog in self._catalogs.items()
        }


def load_pool(manifest: PoolManifest, tokenizer: Tokenizer | None = None) -> Pool:
    """Load every dataset's record file and window its documents.

    Raises ``DataError`` for missing files and ``SchemaError`` for
    records that reference undeclared buckets or lack both ``text`` and
    ``token_count``.
    """
    tokenizer = tokenizer or whitespace_token_count
    stride = manifest.effective_stride
    windows_by_bucket: dict[tuple[Dataset, str], list[TrainingWindow]] = {}
    window_ids: set[str] = set()
    shared_tags: dict[tuple[tuple[str, str], ...], dict[str, str]] = {}
    for spec in manifest.datasets:
        for bucket in spec.catalog.buckets:
            windows_by_bucket[(spec.dataset_id, bucket.bucket_id)] = []
        try:
            rows = load_jsonl(spec.path)
        except FileNotFoundError as exc:
            raise DataError(
                f"dataset {spec.dataset_id.value}: record file not found: {spec.path}"
            ) from exc
        except ValueError as exc:
            raise SchemaError(f"dataset {spec.dataset_id.value}: {exc}") from exc
        # The tags of a record without its own: its bucket's slice fields.
        bucket_tags = {
            bucket.bucket_id: shared_tags.setdefault(
                tuple(bucket.slice_fields.items()), dict(bucket.slice_fields)
            )
            for bucket in spec.catalog.buckets
        }
        for row in rows:
            record_id = str(row.get("id", ""))
            if not record_id:
                raise SchemaError(f"dataset {spec.dataset_id.value}: record without id: {row!r}")
            declared = row.get("dataset")
            if declared is not None and declared != spec.dataset_id.value:
                raise SchemaError(
                    f"record {record_id!r}: dataset field {declared!r} does not match "
                    f"file's dataset {spec.dataset_id.value}"
                )
            bucket_id = str(row.get("bucket", ""))
            if bucket_id not in bucket_tags:
                raise SchemaError(
                    f"record {record_id!r} references undeclared bucket {bucket_id!r} "
                    f"in dataset {spec.dataset_id.value}"
                )
            if row.get("tags"):
                tags = {str(k): str(v) for k, v in row["tags"].items()}
                for fld, value in bucket_tags[bucket_id].items():
                    tags.setdefault(fld, value)
                tags = shared_tags.setdefault(tuple(tags.items()), tags)
            else:
                tags = bucket_tags[bucket_id]
            if "text" in row:
                token_count = tokenizer(row["text"])
                if token_count < 1:
                    raise SchemaError(f"record {record_id!r} has empty text")
            elif "token_count" in row:
                token_count = int(row["token_count"])
                if token_count < 1:
                    raise SchemaError(
                        f"record {record_id!r} has non-positive token_count {token_count}"
                    )
            else:
                raise SchemaError(f"record {record_id!r} has neither text nor token_count")
            parts = split_windows(token_count, manifest.window_length, stride)
            for index, (start, length) in enumerate(parts):
                window_id = record_id if len(parts) == 1 else f"{record_id}:w{index}"
                if window_id in window_ids:
                    raise SchemaError(f"duplicate window id {window_id!r}")
                window_ids.add(window_id)
                windows_by_bucket[(spec.dataset_id, bucket_id)].append(
                    TrainingWindow(
                        window_id=window_id,
                        dataset_id=spec.dataset_id,
                        bucket_id=bucket_id,
                        token_count=length,
                        text_ref=f"{record_id}@{start}+{length}" if "text" in row else None,
                        tags=tags,
                    )
                )
    pool = Pool(
        manifest,
        {key: tuple(windows) for key, windows in windows_by_bucket.items()},
    )
    for dataset_id in pool.datasets:
        log.info("pool dataset %s: %d windows", dataset_id.value, pool.window_count(dataset_id))
    return pool
