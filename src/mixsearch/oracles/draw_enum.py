"""Reference token-budgeted draw over plain data.

``draw`` replays the sampler's documented procedure with the simplest
possible machinery: buckets sorted by (dataset, bucket), a linear scan
of the cumulative probabilities, one uniform window pick per draw, and,
after every cap rejection, a rescan of every window on the support to
decide whether any window could still be accepted.  Tests compare its
entries, rejections and stop reason with the production sampler on
random pools.

Input is one JSON object::

    {"budget_tokens": 100, "seed": 3,
     "buckets": [{"dataset": "IF", "bucket": "b", "probability": 0.5,
                  "windows": [{"window_id": "w", "token_count": 10,
                               "tags": {"tier": "b"}}]}],
     "focus": [{"tests": [{"tag": "tier", "op": "eq", "value": "b"}],
                "cap_fraction": 0.3}]}

Standalone usage:

    python -m mixsearch.oracles.draw_enum spec.json

Prints the outcome as one JSON object.
"""
from __future__ import annotations

import json
import random
import sys


def tag_test_holds(tags: dict, test: dict) -> bool:
    if test["tag"] not in tags:
        return False
    actual = tags[test["tag"]]
    if test["op"] == "eq":
        return actual == str(test["value"])
    try:
        have = float(actual)
        want = float(test["value"])
    except (TypeError, ValueError):
        return False
    if test["op"] == "ge":
        return have >= want
    if test["op"] == "le":
        return have <= want
    raise ValueError(f"unknown op {test['op']!r}")


def criterion_holds(tags: dict, criterion: dict) -> bool:
    for test in criterion["tests"]:
        if not tag_test_holds(tags, test):
            return False
    return True


def draw(spec: dict) -> dict:
    """Return ``{"entries", "total_tokens", "rejections", "stop_reason"}``.

    ``entries`` lists ``[dataset, bucket, window_id, token_count]``;
    ``rejections`` lists ``[window_id, "budget" | "cap"]``.  Raises
    ``ValueError`` when no window on the support fits the budget.
    """
    budget = spec["budget_tokens"]
    focus = spec.get("focus", [])
    ordered = sorted(spec["buckets"], key=lambda b: (b["dataset"], b["bucket"]))
    support = [bucket for bucket in ordered if bucket["probability"] > 0]
    cumulative = []
    running = 0.0
    for bucket in support:
        running += bucket["probability"]
        cumulative.append(running)

    every_window = [window for bucket in support for window in bucket["windows"]]
    if all(window["token_count"] > budget for window in every_window):
        raise ValueError("no window on the support fits the budget")

    caps = [int(criterion["cap_fraction"] * budget) for criterion in focus]
    used = [0] * len(focus)

    def blocked(window: dict) -> bool:
        for index, criterion in enumerate(focus):
            if criterion_holds(window["tags"], criterion):
                if used[index] + window["token_count"] > caps[index]:
                    return True
        return False

    rng = random.Random(spec["seed"])
    entries = []
    rejections = []
    total = 0
    stop_reason = "budget"
    while True:
        point = rng.random() * running
        position = 0
        while position < len(cumulative) and cumulative[position] <= point:
            position += 1
        bucket = support[min(position, len(support) - 1)]
        window = bucket["windows"][rng.randrange(len(bucket["windows"]))]
        if total + window["token_count"] > budget:
            rejections.append([window["window_id"], "budget"])
            break
        if blocked(window):
            rejections.append([window["window_id"], "cap"])
            remaining = budget - total
            if not any(
                other["token_count"] <= remaining and not blocked(other)
                for other in every_window
            ):
                stop_reason = "cap_exhausted"
                break
            continue
        entries.append(
            [bucket["dataset"], bucket["bucket"], window["window_id"], window["token_count"]]
        )
        total += window["token_count"]
        for index, criterion in enumerate(focus):
            if criterion_holds(window["tags"], criterion):
                used[index] += window["token_count"]
    return {
        "entries": entries,
        "total_tokens": total,
        "rejections": rejections,
        "stop_reason": stop_reason,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    print(json.dumps(draw(spec), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
