"""End-to-end summary of one pass over a workload's problems.

Every failed or wrong problem ranks as slower than every solved one: its
ranking time is the per-problem budget plus its own time, and solved
problems finish within the budget by definition.  Fixing a failure can
therefore never read as a slowdown.

Each problem's time is multiplied by its speed scale, the ratio of the
reference probe time to the probe times measured while it ran (see
`run.py`), which converts it to seconds at the reference machine speed.
"""

from __future__ import annotations

import statistics

from checks import FAILED, SOLVED, WRONG

#: A tail percentile needs this many problems beyond it.
TAIL_BEYOND = 10


def ranking_times(records, budget: float, scales=None):
    # A solved problem took less than `budget` unscaled, so less than
    # `budget * scale` scaled; the offset is not scaled below `budget`, so the
    # speed scale's own noise stays out of failed problems' ranking times.
    scales = scales or [1.0] * len(records)
    return [sc * r["elapsed_s"] + (0.0 if r["class"] == SOLVED else budget * max(1.0, sc))
            for r, sc in zip(records, scales)]


def tail(values):
    """(percentile, value): the highest percentile with TAIL_BEYOND values
    above it.  With too few values it is the smallest value."""
    ordered = sorted(values)
    k = max(1, len(ordered) - TAIL_BEYOND)
    return 100.0 * k / len(ordered), ordered[k - 1]


def summarize(records, budget: float, scales=None) -> dict:
    n = len(records)
    scales = scales or [1.0] * n
    counts = {c: sum(r["class"] == c for r in records) for c in (SOLVED, FAILED, WRONG)}
    ranked = ranking_times(records, budget, scales)
    pct, tail_value = tail(ranked)
    busy = sum(sc * r["elapsed_s"] for r, sc in zip(records, scales))
    return {
        "n": n,
        "solved": counts[SOLVED],
        "failed": counts[FAILED],
        "wrong": counts[WRONG],
        "busy_s": busy,
        "solved_per_s": counts[SOLVED] / busy if busy > 0 else 0.0,
        "problem_s_p50": statistics.median(ranked),
        "problem_s_tail": tail_value,
        "tail_percentile": pct,
        "failed_frac": counts[FAILED] / n,
        "wrong_frac": counts[WRONG] / n,
    }
