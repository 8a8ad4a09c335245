"""Per-fact measures: institutionness and burstiness.

Institutionness is a temporal h-index: a fact scores h when there are at
least h windows in which it clears a week-specific reference threshold.  The
threshold normalizes by h0_t, the week's average references per distinct fact
across all groups of the practice, so platform-wide busy weeks do not inflate
scores.  Two threshold variants are supported:

  literal      r_t >= h / h0_t        (default)
  normalized   r_t / h0_t >= h

Burstiness uses a two-state cost model.  With base rate p0 = R/D and burst
rate p1 = 2*R/D (clamped below 1), the cost of window t under state s is the
negative log binomial likelihood of r_t references out of d_t.  A burst
episode is a maximal run of windows where the burst state is cheaper; its
weight is the summed cost improvement, normalized per group by the group's
strongest burst.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, log
from typing import Optional, Sequence

from .binning import CultureVector, VectorKey, WindowSpec
from .corpus import Fact, fmt, write_csv

P1_CLAMP_EPS = 1e-9

INSTITUTIONNESS_VARIANTS = ("literal", "normalized")


@dataclass
class FactSeries:
    """Weekly reference counts of one fact against its group's totals."""

    group: str
    practice: str
    fact: Fact
    r: list[int]  # references to this fact per window
    d: list[int]  # the group's total references per window, practice-wide

    def __post_init__(self):
        if len(self.r) != len(self.d):
            raise ValueError("r and d must have equal length")
        for rt, dt in zip(self.r, self.d):
            if not (0 <= rt <= dt):
                raise ValueError("need 0 <= r_t <= d_t in every window")


@dataclass
class BurstEpisode:
    """Maximal interval of elevated activity for one fact."""

    fact: Fact
    group: str
    practice: str
    onset: int
    end: int
    weight: float
    normalized: Optional[float] = None


@dataclass
class InstitutionnessScore:
    fact: Fact
    group: str
    practice: str
    value: int


def collect_fact_series(
    vectors: dict[VectorKey, CultureVector],
    spec: WindowSpec,
    group: str,
    practice: str,
) -> list[FactSeries]:
    """Build per-fact series for one group, sharing the group's d_t vector.

    d_t counts fact references (tokens), not messages, so r_t <= d_t holds
    even for multi-fact messages.
    """
    d = [0] * spec.count
    per_fact: dict[Fact, list[int]] = {}
    for w in range(1, spec.count + 1):
        vec = vectors.get((group, w, practice))
        if vec is None:
            continue
        d[w - 1] = vec.total
        for fact, count in vec.counts.items():
            per_fact.setdefault(fact, [0] * spec.count)[w - 1] = count
    return [
        FactSeries(group, practice, fact, r, list(d))
        for fact, r in sorted(per_fact.items(), key=lambda kv: kv[0].key)
    ]


def avg_rate(
    vectors: dict[VectorKey, CultureVector], spec: WindowSpec, practice: str
) -> list[Optional[float]]:
    """h0_t per window: total references / distinct facts, across all groups.

    Windows with no activity anywhere get None and never satisfy any
    institutionness threshold.
    """
    totals = [0] * spec.count
    facts_seen: list[set[Fact]] = [set() for _ in range(spec.count)]
    for (group, window, prac), vec in vectors.items():
        if prac != practice:
            continue
        totals[window - 1] += vec.total
        facts_seen[window - 1].update(vec.counts)
    return [
        (totals[i] / len(facts_seen[i])) if facts_seen[i] else None
        for i in range(spec.count)
    ]


def institutionness_value(
    r: Sequence[int], h0: Sequence[Optional[float]], variant: str = "literal"
) -> int:
    """Largest h in [0, n] such that at least h windows clear the threshold."""
    if variant not in INSTITUTIONNESS_VARIANTS:
        raise ValueError(f"unknown institutionness variant {variant!r}")
    n = len(r)
    for h in range(n, 0, -1):
        satisfied = 0
        for rt, h0t in zip(r, h0):
            if h0t is None:
                continue
            if variant == "literal":
                ok = rt >= h / h0t
            else:
                ok = rt / h0t >= h
            if ok:
                satisfied += 1
        if satisfied >= h:
            return h
    return 0


def burst_costs(series: FactSeries) -> list[tuple[float, float]]:
    """Per-window (cost in base state, cost in burst state).

    Costs are negative log binomial likelihoods evaluated in log domain
    (log-gamma for the coefficient).  Windows with d_t = 0 cost nothing in
    either state.  Requires at least one reference overall.
    """
    total_d = sum(series.d)
    total_r = sum(series.r)
    if total_d <= 0 or total_r <= 0:
        raise ValueError("burst costs need R > 0 and D > 0")
    p0 = total_r / total_d
    p1 = min(2.0 * p0, 1.0 - P1_CLAMP_EPS)
    costs = []
    for rt, dt in zip(series.r, series.d):
        if dt == 0:
            costs.append((0.0, 0.0))
            continue
        ln_choose = lgamma(dt + 1) - lgamma(rt + 1) - lgamma(dt - rt + 1)
        costs.append((_state_cost(ln_choose, rt, dt, p0), _state_cost(ln_choose, rt, dt, p1)))
    return costs


def _state_cost(ln_choose: float, rt: int, dt: int, ps: float) -> float:
    cost = ln_choose
    if rt > 0:
        cost += rt * log(ps)
    if dt - rt > 0:
        cost += (dt - rt) * log(1.0 - ps)
    return -cost


def burst_improvements(series: FactSeries) -> list[float]:
    """Per-window cost improvement of the burst state (positive = bursting)."""
    return [g0 - g1 for g0, g1 in burst_costs(series)]


def improvement_closed_form(series: FactSeries) -> list[float]:
    """Independent route to the improvements: the binomial coefficients cancel,
    leaving r_t * ln(p1/p0) + (d_t - r_t) * ln((1-p1)/(1-p0))."""
    total_d = sum(series.d)
    total_r = sum(series.r)
    if total_d <= 0 or total_r <= 0:
        raise ValueError("burst costs need R > 0 and D > 0")
    p0 = total_r / total_d
    p1 = min(2.0 * p0, 1.0 - P1_CLAMP_EPS)
    out = []
    for rt, dt in zip(series.r, series.d):
        if dt == 0:
            out.append(0.0)
            continue
        imp = 0.0
        if rt > 0:
            imp += rt * log(p1 / p0)
        if dt - rt > 0:
            imp += (dt - rt) * log((1.0 - p1) / (1.0 - p0))
        out.append(imp)
    return out


def burst_episodes(series: FactSeries) -> list[BurstEpisode]:
    """Maximal runs of consecutive windows with positive improvement.

    A fact can burst multiple times; a fact with no references has no
    episodes.
    """
    if sum(series.r) == 0:
        return []
    improvements = burst_improvements(series)
    episodes = []
    onset = None
    weight = 0.0
    for idx, imp in enumerate(improvements):
        if imp > 0:
            if onset is None:
                onset = idx + 1
                weight = 0.0
            weight += imp
        elif onset is not None:
            episodes.append(
                BurstEpisode(series.fact, series.group, series.practice, onset, idx, weight)
            )
            onset = None
    if onset is not None:
        episodes.append(
            BurstEpisode(
                series.fact, series.group, series.practice, onset, len(improvements), weight
            )
        )
    return episodes


def normalize_bursts(episodes: list[BurstEpisode]) -> list[BurstEpisode]:
    """Scale one (group, practice) scope's episode weights by the maximum.

    The strongest episode gets normalized weight exactly 1.0 (ties share it).
    """
    if not episodes:
        return []
    scopes = {(e.group, e.practice) for e in episodes}
    if len(scopes) != 1:
        raise ValueError("normalize_bursts expects a single (group, practice) scope")
    top = max(e.weight for e in episodes)
    for e in episodes:
        e.normalized = e.weight / top if top > 0 else 0.0
    return episodes


@dataclass
class FactMeasureRow:
    """One output row: a fact's institutionness plus one burst episode (or none)."""

    group: str
    practice: str
    fact: Fact
    institutionness: int
    burstiness: float
    onset: Optional[int]
    end: Optional[int]


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
        series_list = collect_fact_series(vectors, spec, group, practice)
        episodes: list[BurstEpisode] = []
        scores: dict[Fact, int] = {}
        episodes_by_fact: dict[Fact, list[BurstEpisode]] = {}
        for series in series_list:
            scores[series.fact] = institutionness_value(series.r, h0, variant)
            eps = burst_episodes(series)
            episodes.extend(eps)
            if eps:
                episodes_by_fact[series.fact] = eps
        if episodes:
            normalize_bursts(episodes)
        for series in series_list:
            score = scores[series.fact]
            eps = episodes_by_fact.get(series.fact, [])
            if eps:
                for e in eps:
                    rows.append(
                        FactMeasureRow(
                            group, practice, series.fact, score, e.normalized, e.onset, e.end
                        )
                    )
            elif score > 0:
                rows.append(FactMeasureRow(group, practice, series.fact, score, 0.0, None, None))
    return rows


def write_fact_csv(rows: list[FactMeasureRow], path) -> int:
    """Export as ``group,practice,fact,I,B,onset,end`` (empty onset/end: no episode)."""
    return write_csv(
        path,
        ["group", "practice", "fact", "I", "B", "onset", "end"],
        (
            (r.group, r.practice, r.fact.key, r.institutionness, fmt(r.burstiness), r.onset, r.end)
            for r in sorted(rows, key=lambda r: (r.group, r.fact.key, r.onset or 0))
        ),
    )
