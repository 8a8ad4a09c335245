"""Per-fact measures: institutionness and burstiness.

Institutionness is a temporal h-index: a fact scores h when there are at
least h windows in which it clears a week-specific reference threshold.  The
threshold normalizes by h0_t, the week's average references per distinct fact
across all groups of the practice, so platform-wide busy weeks do not inflate
scores.  Two threshold variants are supported:

  literal      r_t >= h / h0_t        (default)
  normalized   r_t / h0_t >= h

A window with r_t > 0 clears every h up to its own bound m_t; the score is the
h-index of the m_t, which costs O(k log k) per fact with k active windows.

Burstiness uses a two-state cost model.  With base rate p0 = R/D and burst
rate p1 = 2*R/D (clamped below 1), the cost of window t under state s is the
negative log binomial likelihood of r_t references out of d_t.  A burst
episode is a maximal run of windows where the burst state is cheaper; its
weight is the summed cost improvement, normalized per group by the group's
strongest burst.  Costs are evaluated at a fact's active windows only: while
p1 > p0, a window without references has a negative improvement and a window
with d_t = 0 none, so neither can burst.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import lgamma, log
from typing import Mapping, Optional, Sequence

from .binning import CultureVector, VectorKey, WindowSpec
from .corpus import fmt, write_csv

P1_CLAMP_EPS = 1e-9

INSTITUTIONNESS_VARIANTS = ("literal", "normalized")


def collect_fact_series(
    vectors: dict[VectorKey, CultureVector],
    spec: WindowSpec,
    group: str,
    practice: str,
) -> tuple[list[int], dict[str, dict[int, int]]]:
    """One group's (d, {fact: {window: r}}) in fact-key order, windows ascending.

    r_t counts references to the fact per window and d_t the group's total
    references per window, practice-wide, shared by all its facts.  d_t
    counts fact references (tokens), not messages, so r_t <= d_t holds even
    for multi-fact messages.
    """
    d = [0] * spec.count
    per_fact: defaultdict[str, dict[int, int]] = defaultdict(dict)
    for w in range(1, spec.count + 1):
        vec = vectors.get((group, w, practice))
        if vec is None:
            continue
        d[w - 1] = sum(vec.values())
        for fact, count in vec.items():
            per_fact[fact][w] = count
    return d, dict(sorted(per_fact.items()))


def avg_rate(
    vectors: dict[VectorKey, CultureVector], spec: WindowSpec, practice: str
) -> list[Optional[float]]:
    """h0_t per window: total references / distinct facts, across all groups.

    Windows with no activity anywhere get None and never satisfy any
    institutionness threshold.
    """
    totals = [0] * spec.count
    facts_seen: list[set[str]] = [set() for _ in range(spec.count)]
    for (group, window, prac), vec in vectors.items():
        if prac != practice:
            continue
        totals[window - 1] += sum(vec.values())
        facts_seen[window - 1].update(vec)
    return [
        (totals[i] / len(facts_seen[i])) if facts_seen[i] else None
        for i in range(spec.count)
    ]


def institutionness_value(
    r: Mapping[int, int], h0: Sequence[Optional[float]], variant: str = "literal"
) -> int:
    """Largest h in [0, n = len(h0)] such that at least h windows of r clear the threshold."""
    if variant not in INSTITUTIONNESS_VARIANTS:
        raise ValueError(f"unknown institutionness variant {variant!r}")
    n = len(h0)
    literal = variant == "literal"
    bounds = []
    for w, rt in r.items():
        h0t = h0[w - 1]
        if rt <= 0 or h0t is None:
            continue
        # m is the largest h this window clears.  The float estimate can be
        # off at a rounding boundary; the exact test is monotone in h.
        est = rt * h0t if literal else rt / h0t
        m = int(est) if est < n else n
        while m < n and (rt >= (m + 1) / h0t if literal else rt / h0t >= m + 1):
            m += 1
        while m > 0 and not (rt >= m / h0t if literal else rt / h0t >= m):
            m -= 1
        bounds.append(m)
    # The h-index of the bounds: sorted descending, m >= i holds for a prefix.
    bounds.sort(reverse=True)
    return sum(m >= i for i, m in enumerate(bounds, 1))


def burst_episodes(r: Mapping[int, int], d: Sequence[int]) -> list[tuple[int, int, float]]:
    """(onset, end, weight) of each maximal run of windows with positive improvement.

    Windows are 1-based and ascending in r.  Improvement is base-state minus
    burst-state cost, in log domain (log-gamma for the coefficient); the weight
    is the run's sum.  A fact with no references has no episodes.
    """
    total_r = sum(r.values())
    if total_r == 0:
        return []
    p0 = total_r / sum(d)
    p1 = min(2.0 * p0, 1.0 - P1_CLAMP_EPS)
    log_p0, log_p1, log_q1 = log(p0), log(p1), log(1.0 - p1)
    # p0 == 1 only when r_t == d_t in every window, where ln(1 - p0) is unused.
    log_q0 = log(1.0 - p0) if p0 < 1.0 else 0.0
    # Only the clamp (p0 > 1 - 1e-9) puts p1 below p0, where a window with
    # d_t > 0 and no references can burst too.
    windows = r.items() if p1 >= p0 else [(w, r.get(w, 0)) for w, dt in enumerate(d, 1) if dt]
    episodes = []
    for window, rt in windows:
        dt = d[window - 1]
        # lgamma(1) == 0.0, and a zero count adds only a signed zero.
        coef = lgamma(dt + 1) - lgamma(rt + 1) - lgamma(dt - rt + 1)
        g0 = coef + rt * log_p0 + (dt - rt) * log_q0
        imp = coef + rt * log_p1 + (dt - rt) * log_q1 - g0
        if not imp > 0:
            continue
        if episodes and episodes[-1][1] == window - 1:
            onset, _, weight = episodes[-1]
            episodes[-1] = (onset, window, weight + imp)
        else:
            episodes.append((window, window, imp))
    return episodes


@dataclass
class FactMeasureRow:
    """One output row: a fact's institutionness plus one burst episode (or none)."""

    group: str
    practice: str
    fact: str
    institutionness: int
    burstiness: float
    onset: Optional[int]
    end: Optional[int]


def normalize_bursts(rows: list[FactMeasureRow]) -> list[FactMeasureRow]:
    """Rescale one group's burstiness from episode weight to weight / strongest weight.

    The strongest episode gets exactly 1.0 (ties share it); episode-free rows
    stay at 0.
    """
    top = max((row.burstiness for row in rows), default=0.0)
    if top > 0:
        for row in rows:
            row.burstiness /= top
    return rows


def fact_measures(
    vectors: dict[VectorKey, CultureVector],
    spec: WindowSpec,
    groups: Sequence[str],
    practice: str,
    variant: str = "literal",
) -> list[FactMeasureRow]:
    """Institutionness and normalized burstiness for every referenced fact.

    Emits one row per burst episode, plus an episode-free row (B = 0) for
    facts that score I > 0 without ever bursting.
    """
    h0 = avg_rate(vectors, spec, practice)
    rows: list[FactMeasureRow] = []
    for group in groups:
        d, series = collect_fact_series(vectors, spec, group, practice)
        group_rows: list[FactMeasureRow] = []
        for fact, r in series.items():
            score = institutionness_value(r, h0, variant)
            episodes = burst_episodes(r, d)
            group_rows += (
                FactMeasureRow(group, practice, fact, score, weight, onset, end)
                for onset, end, weight in episodes
            )
            if score > 0 and not episodes:
                group_rows.append(FactMeasureRow(group, practice, fact, score, 0.0, None, None))
        rows += normalize_bursts(group_rows)
    return rows


def write_fact_csv(rows: list[FactMeasureRow], path) -> int:
    """Export as ``group,practice,fact,I,B,onset,end`` (empty onset/end: no episode)."""
    return write_csv(
        path,
        ["group", "practice", "fact", "I", "B", "onset", "end"],
        (
            (r.group, r.practice, r.fact, r.institutionness, fmt(r.burstiness), r.onset, r.end)
            for r in sorted(rows, key=lambda r: (r.group, r.fact, r.onset or 0))
        ),
    )
