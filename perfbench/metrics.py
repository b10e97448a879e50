"""Arithmetic behind the benchmark's reported numbers.

Kept free of the library and of the clock so the tests can feed it
synthetic timings.
"""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(values):
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``.  With n sorted samples that is the
    (n - 10)-th smallest, at percentile 100 * (n - 10) / n.  A tail below
    the median carries no information, so with fewer than 2 * 10 + 1
    samples the median is returned at percentile 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def per_success(total_seconds, successes):
    """Seconds spent per success, failed attempts included in the cost.

    With no success at all the whole cost is charged to one, so the value
    stays finite; the failure count in the same report tells the cases apart.
    """
    return total_seconds / max(successes, 1)


def failed_frac(failed, attempted):
    if attempted <= 0:
        raise ValueError("failed_frac needs at least one attempted operation")
    return failed / attempted


def by_key(samples, reduce):
    """``reduce`` over the values of each key, keys in first-seen order.

    ``samples`` is a list of (key, value) pairs, a key naming one operation
    of one unit seed and a value one repeat of it.
    """
    groups = {}
    for key, value in samples:
        groups.setdefault(key, []).append(value)
    return {key: reduce(values) for key, values in groups.items()}


def reference_brackets(refs):
    """Reference time beside each of n units from the n + 1 taken around them.

    ``refs[i]`` is taken just before unit i and ``refs[i + 1]`` just after
    it, so the machine speed a unit met is read on both sides of it.
    """
    if len(refs) < 2:
        raise ValueError("need a reference on each side of a unit")
    return [(a + b) / 2.0 for a, b in zip(refs, refs[1:])]


def self_times(starts, ends, parents):
    """Per span: its duration minus the durations of its child spans.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.  The
    tracer is single-threaded and keeps open spans on a stack, so children
    nest inside their parent and never overlap each other.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out
