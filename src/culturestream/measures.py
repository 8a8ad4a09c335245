"""Per-group, per-window scalar measures of a practice.

Three measures over culture vectors, all in [0, 1]:

  focus          1 minus normalized Shannon entropy; 1 = all references on a
                 single fact, 0 = uniform spread.
  similarity     cosine between two groups' vectors in the same window; a
                 group's score is the unweighted mean against all other
                 active groups.
  reproduction   extended rank-biased overlap between a group's consecutive
                 weekly rankings; agreement beyond the joint depth is frozen
                 at its final value so identical rankings score exactly 1.

Plus a frequency series (total references per window) and AVERAGE series
(unweighted mean across groups, with population standard deviation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .binning import CultureVector, RankedVector, VectorKey, WindowSpec, rank_vector
from .corpus import fmt, write_csv

AVERAGE = "AVERAGE"

MEASURES = ("focus", "similarity", "reproduction", "frequency")


@dataclass(frozen=True)
class RboParams:
    """Persistence parameter of rank-biased overlap, in [0, 1)."""

    p: float = 0.9

    def __post_init__(self):
        if not (0.0 <= self.p < 1.0):
            raise ValueError("rbo persistence must be in [0, 1)")


@dataclass
class MeasureSeries:
    """Time series of one measure for one group (or the AVERAGE pseudo-group).

    points holds (window, value) with value None where the underlying
    group-window vector is absent; sd is populated for AVERAGE only.
    """

    measure: str
    practice: str
    group: str
    points: list[tuple[int, Optional[float]]] = field(default_factory=list)
    sd: Optional[list[tuple[int, Optional[float]]]] = None


def focus(vector: CultureVector) -> float:
    """1 - H/log2(n) for the vector's frequency distribution.

    A single-fact vector has maximal focus 1 by definition (the normalizer
    log2(1) vanishes).
    """
    n = len(vector.counts)
    if n == 0:
        raise ValueError("empty culture")
    if n == 1:
        return 1.0
    total = vector.total
    entropy = 0.0
    for count in vector.counts.values():
        p = count / total
        entropy -= p * math.log2(p)
    return 1.0 - entropy / math.log2(n)


def pair_similarity(v_i: CultureVector, v_j: CultureVector) -> float:
    """Cosine of two count vectors aligned on the union of their facts."""
    if not v_i.counts or not v_j.counts:
        return 0.0
    dot = 0.0
    for fact, count in v_i.counts.items():
        other = v_j.counts.get(fact)
        if other:
            dot += count * other
    if dot == 0.0:
        return 0.0
    norm_i = math.sqrt(sum(c * c for c in v_i.counts.values()))
    norm_j = math.sqrt(sum(c * c for c in v_j.counts.values()))
    return dot / (norm_i * norm_j)


def group_similarity(
    group: str,
    window: int,
    practice: str,
    vectors: dict[VectorKey, CultureVector],
) -> Optional[float]:
    """Unweighted mean cosine of one group against all other active groups.

    None when the group itself is inactive in the window or no other group
    is active (scores are deliberately not weighted by group size or
    volume).
    """
    own = vectors.get((group, window, practice))
    if own is None:
        return None
    others = [
        vec
        for (g, w, p), vec in vectors.items()
        if w == window and p == practice and g != group
    ]
    if not others:
        return None
    return sum(pair_similarity(own, vec) for vec in others) / len(others)


def rbo_extended(keys1: Sequence, keys2: Sequence, p: float) -> float:
    """Extended rank-biased overlap of two ranked key lists.

    Agreement at depth d is 2 * |top-d(1) & top-d(2)| / (|top-d(1)| +
    |top-d(2)|) with prefixes truncated at each list's length.  The infinite
    geometric tail beyond D = max(len1, len2) is summed analytically at the
    final agreement, so identical lists score exactly 1 and disjoint
    equal-length lists score exactly 0.
    """
    len1, len2 = len(keys1), len(keys2)
    depth = max(len1, len2)
    if depth == 0:
        raise ValueError("empty ranking")
    seen1: set = set()
    seen2: set = set()
    overlap = 0
    convergent = 0.0
    agreement = 0.0
    for d in range(1, depth + 1):
        if d <= len1:
            k = keys1[d - 1]
            if k in seen2:
                overlap += 1
            else:
                seen1.add(k)
        if d <= len2:
            k = keys2[d - 1]
            if k in seen1:
                overlap += 1
            else:
                seen2.add(k)
        agreement = 2.0 * overlap / (min(d, len1) + min(d, len2))
        convergent += agreement * p ** (d - 1)
    return (1.0 - p) * convergent + agreement * p**depth


def reproduction(
    v_t1: RankedVector, v_t2: RankedVector, params: RboParams = RboParams()
) -> float:
    """Rank-biased overlap of two consecutive ranked culture vectors."""
    return rbo_extended([f for f, _ in v_t1], [f for f, _ in v_t2], params.p)


def build_series(
    vectors: dict[VectorKey, CultureVector],
    spec: WindowSpec,
    practice: str,
    groups: Sequence[str],
    measure: str,
    rbo: RboParams = RboParams(),
) -> dict[str, MeasureSeries]:
    """Per-group series of one measure across the whole window grid.

    focus/similarity/frequency cover windows 1..count; reproduction covers
    2..count, each point labelled by the later window of its pair.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    out: dict[str, MeasureSeries] = {}
    for group in groups:
        series = MeasureSeries(measure, practice, group)
        if measure == "reproduction":
            for w in range(2, spec.count + 1):
                prev = vectors.get((group, w - 1, practice))
                curr = vectors.get((group, w, practice))
                if prev is None or curr is None:
                    series.points.append((w, None))
                else:
                    series.points.append(
                        (w, reproduction(rank_vector(prev), rank_vector(curr), rbo))
                    )
        else:
            for w in range(1, spec.count + 1):
                vec = vectors.get((group, w, practice))
                if measure == "similarity":
                    series.points.append((w, group_similarity(group, w, practice, vectors)))
                elif vec is None:
                    series.points.append((w, None))
                elif measure == "focus":
                    series.points.append((w, focus(vec)))
                else:  # frequency
                    series.points.append((w, float(vec.total)))
        out[group] = series
    return out


def average_series(series_by_group: dict[str, MeasureSeries]) -> MeasureSeries:
    """Unweighted per-window mean over non-null group values.

    Null group-window points are skipped, not zero-filled: a silent group
    carries no signal.  Dispersion is the population standard deviation over
    the same values.
    """
    groups = list(series_by_group.values())
    if not groups:
        raise ValueError("no group series to average")
    first = groups[0]
    avg = MeasureSeries(first.measure, first.practice, AVERAGE, sd=[])
    for idx, (window, _) in enumerate(first.points):
        values = [
            s.points[idx][1] for s in groups if s.points[idx][1] is not None
        ]
        if not values:
            avg.points.append((window, None))
            avg.sd.append((window, None))
            continue
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        avg.points.append((window, mean))
        avg.sd.append((window, math.sqrt(variance)))
    return avg


def write_series_csv(
    series_by_group: dict[str, MeasureSeries],
    average: Optional[MeasureSeries],
    path,
) -> int:
    """Export one measure as ``group,window,value,sd`` (sd filled for AVERAGE)."""

    def rows():
        for group in sorted(series_by_group):
            for window, value in series_by_group[group].points:
                yield group, window, fmt(value), ""
        if average is not None:
            sd_map = dict(average.sd or [])
            for window, value in average.points:
                yield AVERAGE, window, fmt(value), fmt(sd_map.get(window))

    return write_csv(path, ["group", "window", "value", "sd"], rows())
