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


class ParetoArchive:
    """A frontier and the rows that say how it was reached.

    The frontier maps each surviving label to its metric, in arrival
    order.  The rows are the insert rows of ``archive.jsonl``, one per
    insert in insert order, so a run directory can show why a point is
    absent.
    """

    def __init__(self) -> None:
        self._frontier: dict[str, MetricVector] = {}
        self._rows: list[dict] = []

    def labels(self) -> tuple[str, ...]:
        return tuple(self._frontier)

    def insert(self, label: str, metric: MetricVector) -> InsertVerdict:
        """Insert a labeled point, dropping whatever it dominates.

        A point some frontier point dominates is rejected.  Duplicate
        labels are a caller bug, hence ValueError.
        """
        if any(row["label"] == label for row in self._rows):
            raise ValueError(f"archive already holds an entry labeled {label!r}")
        frontier = self._frontier
        if any(dominates(point, metric) for point in frontier.values()):
            verdict = InsertVerdict(DOMINATED)
        else:
            removed = tuple(held for held, point in frontier.items() if dominates(metric, point))
            for held in removed:
                del frontier[held]
            frontier[label] = metric
            verdict = InsertVerdict(REPLACES if removed else ACCEPTED, removed)
        self._rows.append(
            {
                "label": label,
                "metric": metric.to_json(),
                "verdict": verdict.status,
                "replaced": list(verdict.replaced),
                "kind": "insert",
            }
        )
        return verdict

    def snapshot_rows(self) -> list[dict]:
        """The insert rows plus a final frontier row, for ``archive.jsonl``."""
        return [*self._rows, {"kind": "frontier", "labels": list(self._frontier)}]
