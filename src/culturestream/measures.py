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
from typing import Optional, Sequence

from .binning import CultureVector, VectorKey, WindowSpec, rank_vector
from .corpus import fmt, write_csv

AVERAGE = "AVERAGE"

MEASURES = ("focus", "similarity", "reproduction", "frequency")

# One group's series: (window, value), value None where the group-window
# vector is absent; the AVERAGE series: (window, mean, sd).
Series = list[tuple[int, Optional[float]]]
Average = list[tuple[int, Optional[float], Optional[float]]]


def focus(vector: CultureVector) -> float:
    """1 - H/log2(n) for the vector's frequency distribution.

    A single-fact vector has maximal focus 1 by definition (the normalizer
    log2(1) vanishes), and equal counts give exactly 0, not a rounding residue.
    """
    n = len(vector)
    if n == 0:
        raise ValueError("empty culture")
    if n == 1:
        return 1.0
    total = sum(vector.values())
    if total == n * max(vector.values()):
        return 0.0
    entropy = -math.fsum(c / total * math.log2(c / total) for c in vector.values())
    return 1.0 - entropy / math.log2(n)


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


def build_series(
    vectors: dict[VectorKey, CultureVector],
    spec: WindowSpec,
    practice: str,
    groups: Sequence[str],
    measure: str,
    rbo_p: float = 0.9,
) -> dict[str, Series]:
    """Per-group series of one measure across the whole window grid.

    focus/similarity/frequency cover windows 1..count; reproduction covers
    2..count, each point labelled by the later window of its pair.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    if measure == "similarity":
        return _similarity_series(vectors, spec, practice, groups)
    out: dict[str, Series] = {}
    for group in groups:
        cells = [vectors.get((group, w, practice)) for w in range(1, spec.count + 1)]
        if measure == "reproduction":  # each cell ranked once, each adjacent pair compared
            ranks = [None if vec is None else rank_vector(vec) for vec in cells]
            out[group] = [
                (w, None if prev is None or curr is None else rbo_extended(prev, curr, rbo_p))
                for w, prev, curr in zip(range(2, spec.count + 1), ranks, ranks[1:])
            ]
            continue
        points: Series = []
        for w, vec in enumerate(cells, 1):
            if vec is None:
                value = None
            elif measure == "focus":
                value = focus(vec)
            else:  # frequency
                value = float(sum(vec.values()))
            points.append((w, value))
        out[group] = points
    return out


def _similarity_series(vectors, spec, practice, groups) -> dict[str, Series]:
    """build_series for similarity, one window at a time from a fact -> cells index.

    Dot products are summed as integers, only for pairs of cells that share a
    fact, and each norm is computed once.  A group's cosines are added with
    ``math.fsum``, so the mean does not depend on the order of the cells; a
    pair with no shared fact adds nothing, which is the same as adding 0.0.
    """
    by_window: dict[int, dict[str, CultureVector]] = {}
    for (g, w, p), vec in vectors.items():
        if p == practice:
            by_window.setdefault(w, {})[g] = vec
    score: dict[tuple[str, int], float] = {}
    for w, cells in by_window.items():
        n = len(cells)
        if n < 2:  # a lone active group has no score
            continue
        postings: dict[str, list[tuple[int, int]]] = {}
        dots = [[0] * n for _ in range(n)]
        for i, vec in enumerate(cells.values()):
            for fact, count in vec.items():
                posting = postings.setdefault(fact, [])
                for j, other in posting:
                    dots[i][j] = dots[j][i] = dots[i][j] + count * other
                posting.append((i, count))
        norms = [math.sqrt(sum(c * c for c in vec.values())) for vec in cells.values()]
        for g, row, norm in zip(cells, dots, norms):
            total = math.fsum(dot / (norm * other) for dot, other in zip(row, norms) if dot)
            score[(g, w)] = total / (n - 1)
    windows = range(1, spec.count + 1)
    return {group: [(w, score.get((group, w))) for w in windows] for group in groups}


def average_series(series_by_group: dict[str, Series]) -> Average:
    """Per window: (window, unweighted mean, population sd) over non-null group values.

    Null group-window points are skipped, not zero-filled: a silent group
    carries no signal.  Both are None where no group has a value.
    """
    out = []
    for column in zip(*series_by_group.values()):
        values = [v for _, v in column if v is not None]
        if not values:
            out.append((column[0][0], None, None))
            continue
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        out.append((column[0][0], mean, math.sqrt(variance)))
    return out


def write_series_csv(series_by_group: dict[str, Series], average: Average, path) -> int:
    """Export one measure as ``group,window,value,sd`` (sd filled for AVERAGE)."""

    def rows():
        for group in sorted(series_by_group):
            for window, value in series_by_group[group]:
                yield group, window, fmt(value), ""
        for window, mean, sd in average:
            yield AVERAGE, window, fmt(mean), fmt(sd)

    return write_csv(path, ["group", "window", "value", "sd"], rows())
