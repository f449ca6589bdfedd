"""Order statistics shared by the child (parts of a phase), the parent
(set-up repeats) and ``compare`` (runs)."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (the driver's own spread rule); a single value is its own quartiles."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("quartiles of an empty sample")
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank-above percentile that keeps ``inf`` misses honest:
    with more than ``100 - pct`` percent of the sample infinite, the
    result is infinite (linear interpolation would give ``nan``)."""
    vals = sorted(float(v) for v in values)
    if not vals:
        return math.nan
    rank = max(0, math.ceil(pct / 100.0 * len(vals)) - 1)
    return vals[rank]


#: The percentile of a phase's parts a metric reports.  The baseline
#: host runs in two gears — an undisturbed one, and one a fifth to two
#: fifths slower that it falls into for anything from a millisecond to
#: minutes (README, "What the host does") — and a disturbance only ever
#: slows a part down, so the parts on the undisturbed side are the
#: steadiest estimate of what the *program* does.  How far to that side:
#:
#: * training rates, the **99th** percentile: hundreds of short
#:   ``train()`` calls timed from outside, none of which can come out
#:   faster than the program is.  Ten-run spreads of the same phases:
#:   median part 6-21 %, 90th percentile 5-20 %, 95th 5-19 %, 99th
#:   3-14 %; in a bad quarter of an hour the gap between the host's
#:   two moods was 21 % at the 95th percentile and 10 % at the best part;
#: * closed-loop rates, the **95th**: tens of parts whose edges fall
#:   between bursts of completions, so the very best one is partly luck
#:   (spread of the best part up to 19 % where the 95th had 9 %);
#: * latency percentiles, the **10th**: equally steady from there down.
TRAIN_RATE_PCT = 99
LOOP_RATE_PCT = 95
LATENCY_PCT = 10


def summarize(values: Sequence[float], pct: float) -> dict:
    """Order statistics + count of a phase's parts; ``value``, the one
    the metric reports, is their ``pct``-th percentile (one of the
    constants above).  Median and quartiles are always kept beside it."""
    q1, med, q3 = quartiles(values)
    return {
        "value": percentile(values, pct), "q1": q1, "median": med, "q3": q3,
        "n": len(values),
    }
