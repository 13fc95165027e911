"""Non-dominated archive over 3-dimensional metric vectors.

Dominance compares 4-decimal fixed-point integers, so verdicts are
exact and independent of insertion order: two runs that produce the
same set of points end with the same frontier no matter how the points
arrived.
"""
from __future__ import annotations

from dataclasses import dataclass

from .profiles import MetricVector

ACCEPTED = "ACCEPTED"
DOMINATED = "DOMINATED"
REPLACES = "REPLACES"


def dominates(a: MetricVector, b: MetricVector) -> bool:
    """True when ``a`` is at least as good as ``b`` on every dimension and
    strictly better on at least one, at 4-decimal resolution."""
    sa, sb = a.scaled(), b.scaled()
    return all(x >= y for x, y in zip(sa, sb)) and any(x > y for x, y in zip(sa, sb))


@dataclass(frozen=True)
class InsertVerdict:
    status: str
    replaced: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.status not in (ACCEPTED, DOMINATED, REPLACES):
            raise ValueError(f"unknown verdict status {self.status!r}")
        if (self.status == REPLACES) != bool(self.replaced):
            raise ValueError("REPLACES verdicts and only REPLACES verdicts carry labels")


@dataclass(frozen=True)
class ArchiveEntry:
    label: str
    metric: MetricVector


class ParetoArchive:
    """Mutable frontier with an append-only event log.

    Insertion keeps arrival order among surviving entries; the event log
    records every verdict so a run directory can show why a point is
    absent.
    """

    def __init__(self) -> None:
        self._entries: list[ArchiveEntry] = []
        self._events: list[dict] = []
        self._labels: set[str] = set()

    def labels(self) -> tuple[str, ...]:
        return tuple(entry.label for entry in self._entries)

    def insert(self, label: str, metric: MetricVector) -> InsertVerdict:
        """Insert a labeled point, dropping whatever it dominates.

        A point some existing entry dominates is rejected.  Duplicate
        labels are a caller bug, hence ValueError.
        """
        if label in self._labels:
            raise ValueError(f"archive already holds an entry labeled {label!r}")
        self._labels.add(label)
        if any(dominates(entry.metric, metric) for entry in self._entries):
            verdict = InsertVerdict(DOMINATED)
        else:
            removed = tuple(
                entry.label for entry in self._entries if dominates(metric, entry.metric)
            )
            self._entries = [
                entry for entry in self._entries if entry.label not in removed
            ]
            self._entries.append(ArchiveEntry(label=label, metric=metric))
            verdict = (
                InsertVerdict(REPLACES, replaced=removed) if removed else InsertVerdict(ACCEPTED)
            )
        self._events.append(
            {
                "label": label,
                "metric": metric.to_json(),
                "verdict": verdict.status,
                "replaced": list(verdict.replaced),
            }
        )
        return verdict

    def snapshot_rows(self) -> list[dict]:
        """Event log plus a final frontier row, for the per-round artifact."""
        rows = [dict(event, kind="insert") for event in self._events]
        rows.append({"kind": "frontier", "labels": list(self.labels())})
        return rows
