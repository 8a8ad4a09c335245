"""Runtime self-checks for the measure implementations.

Each check is small, named, and independent; ``run()`` executes them all and
reports per-check pass/fail.  The battery includes hand-computed reference
values for every measure and network statistic, an exhaustive cross-check of
institutionness at float boundaries, and an algebraic cross-check of the burst
cost model, so a broken build fails loudly before it produces plausible-looking
numbers.  The test suite takes those two oracles and ``sparse`` from here.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import facts, measures, network, synth
from .binning import CultureVector, WindowSpec, bin_transactions, rank_vector
from .corpus import Transaction, load_corpus, transaction_line

# Hand-computed reference values (see the matching checks for the arithmetic).
FOCUS_3_1 = 0.18872187554086717
COSINE_AB_A = 0.7071067811865475
RBO_SWAP_09 = 0.90
RBO_SWAP_05 = 0.50
BURST_WEIGHT_1_5 = 0.667656963122613


def _approx(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol


def sparse(dense: list[int]) -> dict[int, int]:
    """A dense per-window series as the facts layer's {window: r_t}, zeros dropped."""
    return {w: rt for w, rt in enumerate(dense, 1) if rt}


# ---------------------------------------------------------------------------
# focus


def check_focus_single_fact() -> None:
    assert measures.focus({"a": 5}) == 1.0


def check_focus_uniform() -> None:
    value = measures.focus({"a": 2, "b": 2, "c": 2, "d": 2})
    assert _approx(value, 0.0), value


def check_focus_known_vector() -> None:
    # {a: 3, b: 1}: H = -(3/4)log2(3/4) - (1/4)log2(1/4) = 0.811278...,
    # focus = 1 - H / log2(2) = 0.188721...
    value = measures.focus({"a": 3, "b": 1})
    assert _approx(value, FOCUS_3_1), value


# ---------------------------------------------------------------------------
# similarity


def _window_similarity(cells: dict[str, CultureVector]) -> dict[str, Optional[float]]:
    """Each group's similarity score in a one-window grid holding ``cells``."""
    series = measures.build_series({(g, 1, "t"): vec for g, vec in cells.items()},
                                   WindowSpec(0.0, 1, 1.0), "t", list(cells), "similarity")
    return {g: points[0][1] for g, points in series.items()}


def check_similarity_identical() -> None:
    v = {"a": 2, "b": 7}
    assert all(_approx(s, 1.0) for s in _window_similarity({"A": v, "B": v}).values())


def check_similarity_disjoint() -> None:
    assert _window_similarity({"A": {"a": 3}, "B": {"b": 3}}) == {"A": 0.0, "B": 0.0}


def check_similarity_known_pair() -> None:
    # Two groups each score the pair's cosine (1,1)·(1,0) / (sqrt(2) * 1) = 1/sqrt(2).
    scores = _window_similarity({"A": {"a": 1, "b": 1}, "B": {"a": 1}})
    assert _approx(scores["A"], COSINE_AB_A) and scores["B"] == scores["A"], scores
    # Add C = (0,3,2): cos(A,C) = 3 / (sqrt(2) * sqrt(13)), cos(B,C) = 0, and
    # each group scores the mean of its two cosines.
    scores = _window_similarity({"A": {"a": 1, "b": 1}, "B": {"a": 1}, "C": {"b": 3, "c": 2}})
    cos_ac = 3 / math.sqrt(26)
    want = {"A": (COSINE_AB_A + cos_ac) / 2, "B": COSINE_AB_A / 2, "C": cos_ac / 2}
    assert all(_approx(scores[g], want[g]) for g in want), scores


def check_similarity_needs_other_groups() -> None:
    assert _window_similarity({"G": {"a": 1}}) == {"G": None}


# ---------------------------------------------------------------------------
# reproduction (rank-biased overlap)


def check_rbo_identical() -> None:
    assert measures.rbo_extended(["a", "b", "c"], ["a", "b", "c"], 0.9) == 1.0


def check_rbo_swapped_pair() -> None:
    # Agreement 0 at depth 1, 1 at depth 2; (1-p)(0 + p) + p^2 = 0.9 at p=0.9.
    value = measures.rbo_extended(["a", "b"], ["b", "a"], 0.9)
    assert _approx(value, RBO_SWAP_09), value


def check_rbo_persistence_sensitivity() -> None:
    # The same pair at p=0.5: 0.5*(0 + 0.5) + 0.25 = 0.5.
    value = measures.rbo_extended(["a", "b"], ["b", "a"], 0.5)
    assert _approx(value, RBO_SWAP_05), value


def check_rbo_top_depth_mass() -> None:
    # The convergent part assigns (1-p) p^(d-1) to depth d, so depths 1..10
    # carry 1 - p^10 of it: about 65% at p = 0.9.  Two 20-key rankings that
    # share their top 10 and nothing after agree fully there, then 10/d at
    # depth d, and 10/20 is frozen beyond depth 20:
    #   RBO = (1 - p^10) + (1-p) * sum_{d=11..20} (10/d) p^(d-1) + (1/2) p^20.
    p = 0.9
    top = [f"k{i}" for i in range(10)]
    value = measures.rbo_extended(top + [f"x{i}" for i in range(10)],
                                  top + [f"y{i}" for i in range(10)], p)
    tail = (1.0 - p) * sum(10 / d * p ** (d - 1) for d in range(11, 21))
    assert _approx(value, (1.0 - p**10) + tail + 0.5 * p**20), value


def check_rbo_ranking_tie_break() -> None:
    ranked = rank_vector({"b": 2, "a": 2, "c": 1})
    assert ranked == ["a", "b", "c"], ranked


# ---------------------------------------------------------------------------
# institutionness


def brute_force_institutionness(r, h0, variant) -> int:
    """Largest h that at least h windows of dense r clear, by exhaustive search."""
    best = 0
    for h in range(0, len(r) + 1):
        satisfied = 0
        for rt, h0t in zip(r, h0):
            if h0t is None:
                continue
            ok = rt >= h / h0t if variant == "literal" else rt / h0t >= h
            if ok:
                satisfied += 1
        if satisfied >= h:
            best = max(best, h)
    return best


def check_institutionness_matches_brute_force() -> None:
    rng = random.Random(20130722)
    series = []
    for trial in range(200):
        n = 13
        r = [rng.randint(0, 50) for _ in range(n)]
        h0: list[Optional[float]] = [
            None if rng.random() < 0.15 else rng.uniform(0.1, 5.0) for _ in range(n)
        ]
        series.append((r, h0))
    # 78 windows at rates whose product with a count lands on, or one ulp off,
    # an integer: where a float estimate of a window's bound goes wrong.
    for x in (1 / 3, 0.1, 0.7, 1 / 7, 3 / 7, 1e-9, 1e9):
        for h0t in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)):
            series += [([rt] * 78, [h0t] * 78) for rt in range(10, 100, 10)]
    for trial, (r, h0) in enumerate(series):
        for variant in facts.INSTITUTIONNESS_VARIANTS:
            got = facts.institutionness_value(sparse(r), h0, variant)
            want = brute_force_institutionness(r, h0, variant)
            assert got == want, (trial, variant, r, h0, got, want)
            assert 0 <= got <= len(r)


def check_week_rate_known() -> None:
    # One group, one window, counts {a: 3, b: 1}: 4 references / 2 facts = 2.
    spec = WindowSpec(epoch=0.0, count=2, width=1.0)
    vectors = {("G", 1, "tagging"): {"a": 3, "b": 1}}
    assert facts.avg_rate(vectors, spec, "tagging") == [2.0, None]


# ---------------------------------------------------------------------------
# burstiness


def improvement_closed_form(r: Sequence[int], d: Sequence[int]) -> list[float]:
    """Independent route to the improvements, over dense r: the binomial coefficients
    cancel, leaving r_t * ln(p1/p0) + (d_t - r_t) * ln((1-p1)/(1-p0)), and 0 where d_t = 0."""
    total_r, total_d = sum(r), sum(d)
    if total_d <= 0 or total_r <= 0:
        raise ValueError("burst costs need R > 0 and D > 0")
    p0 = total_r / total_d
    p1 = min(2.0 * p0, 1.0 - facts.P1_CLAMP_EPS)
    # p0 == 1 only when r_t == d_t in every window, where the second term is unused.
    per_ref = math.log(p1 / p0)
    per_miss = math.log((1.0 - p1) / (1.0 - p0)) if p0 < 1.0 else 0.0
    return [rt * per_ref + (dt - rt) * per_miss if dt else 0.0 for rt, dt in zip(r, d)]


def _normalized_rows(r, d) -> list[facts.FactMeasureRow]:
    """One fact's episode rows, normalized as a group of their own."""
    return facts.normalize_bursts([
        facts.FactMeasureRow("G", "tagging", "a", 0, weight, onset, end)
        for onset, end, weight in facts.burst_episodes(sparse(r), d)
    ])


def check_burst_known_weight() -> None:
    # r=(1,5), d=(10,10): p0=0.3, p1=0.6.  Window 2 improvement is
    # 5 ln 2 + 5 ln(4/7) = 0.667657; window 1 is negative.
    episodes = facts.burst_episodes({1: 1, 2: 5}, [10, 10])
    assert len(episodes) == 1, episodes
    onset, end, weight = episodes[0]
    assert (onset, end) == (2, 2), (onset, end)
    assert _approx(weight, BURST_WEIGHT_1_5, 1e-9), weight


def check_burst_cost_routes_agree() -> None:
    rng = random.Random(90210)
    for _ in range(50):
        d = [rng.randint(0, 40) for _ in range(13)]
        r = [rng.randint(0, dt) for dt in d]
        if sum(r) == 0:
            r[0] = d[0] = max(d[0], 1)
        closed = improvement_closed_form(r, d)
        covered = set()
        for onset, end, weight in facts.burst_episodes(sparse(r), d):
            assert _approx(weight, sum(closed[onset - 1 : end]), 1e-9), (r, d, onset, end)
            covered.update(range(onset, end + 1))
        bursting = {w for w, imp in enumerate(closed, 1) if imp > 1e-9}
        assert bursting <= covered, (r, d, sorted(bursting - covered))


def check_burst_episode_segmentation() -> None:
    # r=(3,3,0,3), d=(10,10,40,10): windows 1, 2, 4 improve, window 3 does
    # not, so the episodes are [1,2] and [4,4] and the first weighs twice
    # the second.
    rows = _normalized_rows([3, 3, 0, 3], [10, 10, 40, 10])
    spans = [(row.onset, row.end) for row in rows]
    assert spans == [(1, 2), (4, 4)], spans
    assert rows[0].burstiness == 1.0
    assert rows[1].burstiness == 0.5, rows[1].burstiness


def check_burst_zero_week_splits_episodes() -> None:
    # A week with no activity at all is neutral (improvement 0) and
    # therefore breaks a run: r=(6,0,6,0), d=(10,0,10,40) yields [1,1] and
    # [3,3], not [1,3].
    r, d = [6, 0, 6, 0], [10, 0, 10, 40]
    assert improvement_closed_form(r, d)[1] == 0.0
    spans = [(onset, end) for onset, end, _ in facts.burst_episodes(sparse(r), d)]
    assert spans == [(1, 1), (3, 3)], spans


def check_burst_normalization_strongest_is_one() -> None:
    rows = _normalized_rows([3, 3, 0, 3], [10, 10, 40, 10])
    assert max(row.burstiness for row in rows) == 1.0


# ---------------------------------------------------------------------------
# network


def check_network_known_graph() -> None:
    # A = {a1, a2}, B = {b1, b2}; arcs (weight) a1->a2 (2), a2->a1 (1),
    # a1->b1 (1), a2->b2 (1), b1->a1 (3), b1->b2 (1); b2 only receives.
    # A: 2 arcs inside of 2 slots, density 1; 4 arcs leave A members, k_out
    #    4/2; weight 2+1+3 = 6 reaches them, w_in 6/2; a1 keeps 2 of 3 in its
    #    group and a2 1 of 2, homophily (2/3 + 1/2)/2 = 7/12.
    # B: 1 arc of 2 slots, density 1/2; k_out 2/2; w_in (1+1+1)/2; b1 keeps
    #    1 of 4 and b2 sends nothing, homophily 1/4 over the one sender.
    # TOTAL: 6 arcs of 12 slots, density 1/2; k_out 6/4; w_in 9/4;
    #    homophily (2/3 + 1/2 + 1/4)/3 = 17/36.
    arcs = {("a1", "a2"): 2, ("a2", "a1"): 1, ("a1", "b1"): 1,
            ("a2", "b2"): 1, ("b1", "a1"): 3, ("b1", "b2"): 1}
    graph = network.PracticeGraph({"a1": "A", "a2": "A", "b1": "B", "b2": "B"}, arcs)
    want = {"A": (2, 1.0, 2.0, 3.0, 7 / 12), "B": (2, 0.5, 1.0, 1.5, 0.25),
            network.TOTAL: (4, 0.5, 1.5, 2.25, 17 / 36)}
    for row in network.group_stats(graph):
        got = (row.nodes, row.density, row.k_out, row.w_in, row.homophily)
        assert all(_approx(a, b) for a, b in zip(got, want.pop(row.group))), (row.group, got)
    assert not want, want


# ---------------------------------------------------------------------------
# stream plumbing


def check_window_binning_half_open() -> None:
    spec = WindowSpec(epoch=100.0, count=3, width=10.0)
    assert spec.index_of(100.0) == 1
    assert spec.index_of(109.999) == 1
    assert spec.index_of(110.0) == 2
    assert spec.index_of(129.999) == 3
    assert spec.index_of(130.0) is None
    assert spec.index_of(99.999) is None


def check_absent_group_week_has_no_vector() -> None:
    spec = WindowSpec(epoch=0.0, count=2, width=10.0)
    t = Transaction("x1", "u", 3.0, "tagging", ("a",))
    vectors, dropped = bin_transactions([t], spec, {"u": "G"})
    assert dropped == 0
    assert ("G", 1, "tagging") in vectors
    assert ("G", 2, "tagging") not in vectors


def check_synth_deterministic() -> None:
    config = synth.SynthConfig(
        groups=[("A", 3), ("B", 3)], windows=2, rate=1.0, alpha=0.3, hom=0.5, seed=7
    )
    first, roster_a = synth.generate(config)
    second, roster_b = synth.generate(config)
    assert roster_a == roster_b
    assert first == second
    assert first, "expected a non-empty stream"


def check_ingest_conservation() -> None:
    config = synth.SynthConfig(
        groups=[("A", 4), ("B", 4)], windows=2, rate=1.5, alpha=0.3, hom=0.5, seed=11
    )
    transactions, roster = synth.generate(config)
    record = {"id": "dup", "user": "a000", "timestamp": 1.0,
              "practice": "tagging", "facts": ["x"]}
    lines = [transaction_line(t) for t in transactions] + ["this is not json"]
    lines += [json.dumps(r) for r in (record, record, dict(record, id="ghost", user="nobody"))]
    span = (config.epoch, config.epoch + config.width * config.windows)
    result = load_corpus([line.encode("utf-8") for line in lines], roster, span)
    emitted_ids = {t.id for t in result.transactions}
    assert result.records_read == len(emitted_ids) + result.skipped_total, (
        result.records_read, len(emitted_ids), result.skipped)


# Every check_* function, in definition order, named without the prefix.
CHECKS: list[tuple[str, Callable[[], None]]] = [
    (name.removeprefix("check_"), func) for name, func in globals().items()
    if name.startswith("check_")
]


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def run(names: Optional[list[str]] = None) -> list[CheckResult]:
    """Execute the battery (or a named subset) and collect results."""
    unknown = [n for n in names or () if n not in dict(CHECKS)]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    selected = [(n, f) for n, f in CHECKS if not names or n in names]
    results = []
    for name, func in selected:
        try:
            func()
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc)))
        except Exception as exc:  # broken code should fail the check, not the runner
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append(CheckResult(name, True))
    return results


def format_results(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        mark = "ok  " if r.ok else "FAIL"
        suffix = f"  ({r.detail})" if (not r.ok and r.detail) else ""
        lines.append(f"{mark} {r.name}{suffix}")
    failed = sum(1 for r in results if not r.ok)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines)


def failures(results: list[CheckResult]) -> int:
    return sum(1 for r in results if not r.ok)
