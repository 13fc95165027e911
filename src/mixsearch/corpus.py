"""Training pools: manifest loading, document windowing, bucket indexing.

A pool manifest is one JSON config naming the datasets, their record
files, the per-dataset bucket lists, and the shared window geometry.
Record files hold one JSON object per line with fields
``{id, dataset, bucket, tags, text | token_count}``; records may carry
raw text (counted as whitespace-delimited words) or a precomputed token
count for metadata-only pools.

Long documents split into fixed-length windows whose starts advance by
``stride`` (default: the window length, i.e. no overlap); the final
window may be shorter.  A window is only what a draw reads: its id, its
token count and its tags.  Each bucket keeps them as three parallel
columns in record-file order (ids, an ``array('I')`` of token counts,
tag mappings), so a loaded pool holds a few objects per bucket instead
of one per window.  Tag values are JSON strings, checked, not coerced.
Windows inherit their bucket's slice fields as tags, so a focus
criterion, equality on one slice label's fields, addresses slice axes
uniformly.  Windows with equal tags, in any key order, share one tag
mapping, and the pool lists each bucket's distinct mappings, so
criteria can be evaluated per mapping instead of per window.
"""
from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import ConfigError, SchemaError
from .records import Dataset, config_fields, read_json, slice_key, tag_mapping

log = logging.getLogger(__name__)

DEFAULT_WINDOW_LENGTH = 4096
MAX_WINDOW_LENGTH = 2**32 - 1  # the largest token count an array('I') item holds

# A bucket's windows in record-file order: ids, token counts, tag mappings.
WindowColumns = tuple[list[str], array, list[dict[str, str]]]


def whitespace_token_count(text: str) -> int:
    """Token count of a text record: its whitespace-delimited words."""
    return len(text.split())


def window_lengths(token_count: int, window_length: int, stride: int) -> list[int]:
    """Token counts of the windows of a document of ``token_count`` tokens.

    Window starts begin at 0 and advance by ``stride``, so there are
    ``ceil(token_count / stride)`` windows; every window except possibly
    the last has ``window_length`` tokens, and together they cover every
    token position at least once.
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
    return [min(window_length, token_count - start) for start in range(0, token_count, stride)]


@dataclass(frozen=True)
class Bucket:
    bucket_id: str
    slice_fields: dict[str, str]

    @property
    def slice_label(self) -> str:
        return slice_key(self.slice_fields)


@dataclass(frozen=True)
class DatasetSpec:
    dataset_id: Dataset
    path: Path
    buckets: tuple[Bucket, ...]


@dataclass(frozen=True)
class PoolManifest:
    datasets: tuple[DatasetSpec, ...]
    window_length: int
    stride: int  # a manifest without one gets window_length: adjacent, non-overlapping

    def __post_init__(self) -> None:
        if not 1 <= self.window_length <= MAX_WINDOW_LENGTH:
            raise ConfigError(
                f"window_length must be in [1, {MAX_WINDOW_LENGTH}], got {self.window_length}"
            )
        if not 1 <= self.stride <= self.window_length:
            raise ConfigError(
                f"stride must satisfy 1 <= stride <= window_length, got {self.stride}"
            )
        if not self.datasets:
            raise ConfigError("pool manifest declares no datasets")
        seen: set[Dataset] = set()
        for spec in self.datasets:
            if spec.dataset_id in seen:
                raise ConfigError(f"dataset {spec.dataset_id.value} declared twice")
            seen.add(spec.dataset_id)

    @staticmethod
    def from_file(path: Path | str) -> "PoolManifest":
        path = Path(path)
        return read_json(
            path, lambda raw: _manifest_from_json(raw, base_dir=path.parent), what="pool manifest"
        )


def _manifest_from_json(raw: dict, base_dir: Path) -> PoolManifest:
    fields = {"datasets": [dict], "window_length": int, "stride": int}
    if "datasets" not in config_fields(raw, "pool manifest", fields):
        raise SchemaError("pool manifest must be an object with a 'datasets' list")
    specs = []
    for entry in raw["datasets"]:
        fields = {"id": str, "path": str, "enumerations": dict, "buckets": [dict]}
        config_fields(entry, "pool manifest dataset entry", fields)
        try:
            dataset_id = Dataset(entry["id"])
        except (KeyError, ValueError) as exc:
            raise SchemaError(f"pool manifest dataset entry has unknown id: {entry!r}") from exc
        enumerations = entry.get("enumerations", {})
        section = f"dataset {dataset_id.value} enumerations"
        config_fields(enumerations, section, dict.fromkeys(enumerations, [str]))
        buckets: dict[str, Bucket] = {}
        for bucket_entry in entry.get("buckets", []):
            section = f"dataset {dataset_id.value} bucket"
            config_fields(bucket_entry, section, {"id": str, "slice": dict})
            bucket_id = bucket_entry["id"]
            slice_fields = bucket_entry["slice"]
            for fld, value in slice_fields.items():
                allowed = enumerations.get(fld)
                if allowed is None or value not in allowed:
                    raise SchemaError(
                        f"dataset {dataset_id.value} bucket {bucket_id!r}: slice "
                        f"field {fld}={value!r} not in declared enumerations"
                    )
            if bucket_id in buckets:
                raise SchemaError(f"dataset {dataset_id.value}: duplicate bucket id {bucket_id!r}")
            buckets[bucket_id] = Bucket(bucket_id=bucket_id, slice_fields=slice_fields)
        if not buckets:
            raise SchemaError(f"dataset {dataset_id.value} declares no buckets")
        specs.append(
            DatasetSpec(
                dataset_id=dataset_id,
                path=base_dir / entry["path"],
                buckets=tuple(buckets.values()),
            )
        )
    window_length = raw.get("window_length", DEFAULT_WINDOW_LENGTH)
    return PoolManifest(
        datasets=tuple(specs),
        window_length=window_length,
        stride=raw.get("stride", window_length),
    )


class Pool:
    """Immutable window index keyed by (dataset, bucket).

    Column order is the record-file order within each bucket, so two
    loads of identical manifest bytes produce identical pools.
    """

    def __init__(
        self,
        buckets: dict[Dataset, tuple[Bucket, ...]],
        columns: dict[tuple[Dataset, str], WindowColumns],
    ) -> None:
        self._buckets = buckets
        self._columns = columns
        self._tag_groups: dict[tuple[Dataset, str], tuple[tuple[dict[str, str], int], ...]] = {}

    def bucket_ids(self, dataset_id: Dataset) -> tuple[str, ...]:
        try:
            buckets = self._buckets[dataset_id]
        except KeyError:
            raise ConfigError(f"pool has no dataset {dataset_id.value}") from None
        return tuple(bucket.bucket_id for bucket in buckets)

    @property
    def datasets(self) -> tuple[Dataset, ...]:
        return tuple(self._buckets)

    def windows(self, dataset_id: Dataset, bucket_id: str) -> WindowColumns:
        """The bucket's window ids, token counts and tag mappings: parallel
        columns in record-file order, empty for an unknown bucket."""
        return self._columns.get((dataset_id, bucket_id), ([], array("I"), []))

    def tag_groups(
        self, dataset_id: Dataset, bucket_id: str
    ) -> tuple[tuple[dict[str, str], int], ...]:
        """The bucket's tag mappings, each paired with the token count of
        its shortest window, in first-seen order.

        Windows are grouped by mapping object; ``load_pool`` gives equal
        tags one shared mapping, so each group is one distinct mapping
        and criteria can run once per group instead of once per window.
        """
        key = (dataset_id, bucket_id)
        groups = self._tag_groups.get(key)
        if groups is None:
            _, lengths, tags_column = self.windows(dataset_id, bucket_id)
            # Equal mappings are one object, so a bucket whose windows all
            # equal the first has one group, found without a per-window loop.
            if tags_column and tags_column.count(tags_column[0]) == len(tags_column):
                groups = ((tags_column[0], min(lengths)),)
            else:
                shortest: dict[int, tuple[dict[str, str], int]] = {}
                for tags, length in zip(tags_column, lengths):
                    seen = shortest.get(id(tags))
                    if seen is None or length < seen[1]:
                        shortest[id(tags)] = (tags, length)
                groups = tuple(shortest.values())
            self._tag_groups[key] = groups
        return groups

    def window_count(self, dataset_id: Dataset) -> int:
        return sum(len(ids) for (ds, _), (ids, _, _) in self._columns.items() if ds == dataset_id)

    def bucket_slices(self) -> dict[Dataset, dict[str, str]]:
        """bucket_id -> slice label map per dataset, for policy plumbing."""
        return {
            dataset_id: {bucket.bucket_id: bucket.slice_label for bucket in buckets}
            for dataset_id, buckets in self._buckets.items()
        }


def load_pool(manifest: PoolManifest) -> Pool:
    """Load every dataset's record file and window its documents.

    Each file's rows become windows inside ``read_json``, so an
    unreadable file or a malformed row is a ``DataError`` naming the
    file.  ``read_json`` parses one line at a time, so a row is turned
    into its windows and dropped before the next line is read: the load
    holds no parsed file, only the columns it keeps.  A row of at most
    ``stride`` tokens is one window, the record itself; a longer row's
    window lengths come from ``window_lengths``.
    """
    columns: dict[tuple[Dataset, str], WindowColumns] = {}
    window_ids: set[str] = set()
    window_length, stride = manifest.window_length, manifest.stride
    # Keyed by content, so equal tags in another key order share a mapping too.
    shared_tags: dict[frozenset[tuple[str, str]], dict[str, str]] = {}
    for spec in manifest.datasets:
        dataset = spec.dataset_id.value
        # Per bucket id: its columns, and the tags of a record without its
        # own (the bucket's slice fields).
        targets = {}
        for bucket in spec.buckets:
            bucket_columns = columns[(spec.dataset_id, bucket.bucket_id)] = ([], array("I"), [])
            bucket_tags = shared_tags.setdefault(
                frozenset(bucket.slice_fields.items()), dict(bucket.slice_fields)
            )
            targets[bucket.bucket_id] = (*bucket_columns, bucket_tags)

        def add_windows(rows: Iterator[object]) -> None:
            for row in rows:
                if not isinstance(row, dict):
                    raise SchemaError(f"a record must be a JSON object, got {row!r:.60}")
                record_id = row.get("id")
                if not isinstance(record_id, str) or not record_id:
                    raise SchemaError(
                        f"dataset {dataset}: record id is not a non-empty string: {row!r:.60}"
                    )
                declared = row.get("dataset")
                if declared is not None and declared != dataset:
                    raise SchemaError(
                        f"record {record_id!r}: dataset field {declared!r} does not match "
                        f"file's dataset {dataset}"
                    )
                bucket_id = row.get("bucket")
                target = targets.get(bucket_id)
                if target is None:
                    raise SchemaError(
                        f"record {record_id!r} references undeclared bucket {bucket_id!r} "
                        f"in dataset {dataset}"
                    )
                ids, lengths, tags_column, bucket_tags = target
                if "tags" in row:
                    tags = tag_mapping(row["tags"], f"record {record_id!r} tags")
                    for fld, value in bucket_tags.items():
                        tags.setdefault(fld, value)
                    tags = shared_tags.setdefault(frozenset(tags.items()), tags)
                else:
                    tags = bucket_tags
                if "text" in row:
                    token_count = whitespace_token_count(row["text"])
                    if token_count < 1:
                        raise SchemaError(f"record {record_id!r} has empty text")
                elif "token_count" in row:
                    token_count = row["token_count"]
                    # type(), not isinstance(): a JSON true is not the integer 1.
                    if type(token_count) is not int or token_count < 1:
                        raise SchemaError(
                            f"record {record_id!r}: token_count {token_count!r} is not a "
                            "positive JSON integer"
                        )
                else:
                    raise SchemaError(f"record {record_id!r} has neither text nor token_count")
                if token_count <= stride:  # ceil(token_count / stride) == 1 window
                    if record_id in window_ids:
                        raise SchemaError(f"duplicate window id {record_id!r}")
                    window_ids.add(record_id)
                    ids.append(record_id)
                    lengths.append(token_count)
                    tags_column.append(tags)
                    continue
                for index, length in enumerate(window_lengths(token_count, window_length, stride)):
                    window_id = f"{record_id}:w{index}"
                    if window_id in window_ids:
                        raise SchemaError(f"duplicate window id {window_id!r}")
                    window_ids.add(window_id)
                    ids.append(window_id)
                    lengths.append(length)
                    tags_column.append(tags)

        read_json(
            spec.path,
            add_windows,
            lines=True,
            what=f"dataset {dataset} record file",
        )
    pool = Pool({spec.dataset_id: spec.buckets for spec in manifest.datasets}, columns)
    for dataset_id in pool.datasets:
        log.info("pool dataset %s: %d windows", dataset_id.value, pool.window_count(dataset_id))
    return pool
