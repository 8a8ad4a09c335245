"""Runtime self-checks for the measure implementations.

Each check is small, named, and independent; ``run()`` executes them all and
reports per-check pass/fail.  The battery includes hand-computed reference
values for every measure, an exhaustive cross-check of institutionness at float
boundaries, and an algebraic cross-check of the burst cost model, so a broken
build fails loudly before it produces plausible-looking numbers.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from . import facts, measures, synth
from .binning import WindowSpec, bin_transactions, rank_vector
from .corpus import Transaction, load_corpus, transaction_line

# Hand-computed reference values (see the matching checks for the arithmetic).
FOCUS_3_1 = 0.18872187554086717
COSINE_AB_A = 0.7071067811865475
RBO_SWAP_09 = 0.90
RBO_SWAP_05 = 0.50
RBO_TOP10_MASS_09 = 0.6513215599
BURST_WEIGHT_1_5 = 0.667656963122613


def _approx(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol


def _sparse(dense: list[int]) -> dict[int, int]:
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


def check_similarity_identical() -> None:
    v = {"a": 2, "b": 7}
    assert _approx(measures.pair_similarity(v, v), 1.0)


def check_similarity_disjoint() -> None:
    assert measures.pair_similarity({"a": 3}, {"b": 3}) == 0.0


def check_similarity_known_pair() -> None:
    # (1,1)·(1,0) / (sqrt(2) * 1) = 1/sqrt(2)
    value = measures.pair_similarity({"a": 1, "b": 1}, {"a": 1})
    assert _approx(value, COSINE_AB_A), value
    # A three-group window: the indexed series equals the pairwise means exactly.
    cells = {"A": {"a": 1, "b": 1}, "B": {"a": 1}, "C": {"b": 3, "c": 2}}
    series = measures.build_series({(g, 1, "t"): v for g, v in cells.items()},
                                   WindowSpec(0.0, 1, 1.0), "t", list(cells), "similarity")
    for g, vec in cells.items():
        pairs = [measures.pair_similarity(vec, v) for h, v in cells.items() if h != g]
        assert series[g] == [(1, sum(pairs) / 2)], (g, series[g])
    assert _approx(series["B"][0][1], COSINE_AB_A / 2), series


def check_similarity_needs_other_groups() -> None:
    spec = WindowSpec(epoch=0.0, count=1, width=1.0)
    vectors = {("G", 1, "tagging"): {"a": 1}}
    assert measures.build_series(vectors, spec, "tagging", ["G"], "similarity") == {
        "G": [(1, None)]
    }


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
    # carry 1 - p^10 of it: about 65% at p = 0.9.
    p = 0.9
    mass = sum((1.0 - p) * p ** (d - 1) for d in range(1, 11))
    assert _approx(mass, 1.0 - p**10), mass
    assert _approx(mass, RBO_TOP10_MASS_09, 1e-10), mass


def check_rbo_ranking_tie_break() -> None:
    ranked = rank_vector({"b": 2, "a": 2, "c": 1})
    assert ranked == ["a", "b", "c"], ranked


# ---------------------------------------------------------------------------
# institutionness


def _brute_force_institutionness(r, h0, variant) -> int:
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
            got = facts.institutionness_value(_sparse(r), h0, variant)
            want = _brute_force_institutionness(r, h0, variant)
            assert got == want, (trial, variant, r, h0, got, want)
            assert 0 <= got <= len(r)


def check_week_rate_known() -> None:
    # One group, one window, counts {a: 3, b: 1}: 4 references / 2 facts = 2.
    spec = WindowSpec(epoch=0.0, count=2, width=1.0)
    vectors = {("G", 1, "tagging"): {"a": 3, "b": 1}}
    assert facts.avg_rate(vectors, spec, "tagging") == [2.0, None]


# ---------------------------------------------------------------------------
# burstiness


def _normalized_rows(r, d) -> list[facts.FactMeasureRow]:
    """One fact's episode rows, normalized as a group of their own."""
    return facts.normalize_bursts([
        facts.FactMeasureRow("G", "tagging", "a", 0, weight, onset, end)
        for onset, end, weight in facts.burst_episodes(_sparse(r), d)
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
        closed = facts.improvement_closed_form(r, d)
        covered = set()
        for onset, end, weight in facts.burst_episodes(_sparse(r), d):
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
    assert facts.improvement_closed_form(r, d)[1] == 0.0
    spans = [(onset, end) for onset, end, _ in facts.burst_episodes(_sparse(r), d)]
    assert spans == [(1, 1), (3, 3)], spans


def check_burst_normalization_strongest_is_one() -> None:
    rows = _normalized_rows([3, 3, 0, 3], [10, 10, 40, 10])
    assert max(row.burstiness for row in rows) == 1.0


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
    t = Transaction("x1", "u", "G", 3.0, "tagging", ("a",))
    vectors, dropped = bin_transactions([t], spec)
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
    lines = [transaction_line(t) for t in transactions]
    lines.append("this is not json")
    lines.append(json.dumps({"id": "dup", "user": "a000", "timestamp": 1.0,
                             "practice": "tagging", "facts": ["x"]}))
    lines.append(json.dumps({"id": "dup", "user": "a000", "timestamp": 1.0,
                             "practice": "tagging", "facts": ["x"]}))
    lines.append(json.dumps({"id": "ghost", "user": "nobody", "timestamp": 1.0,
                             "practice": "tagging", "facts": ["x"]}))
    span = (config.epoch, config.epoch + config.width * config.windows)
    result = load_corpus([line.encode("utf-8") for line in lines], roster, span)
    emitted_ids = {t.id for t in result.transactions}
    assert result.records_read == len(emitted_ids) + result.skipped_total, (
        result.records_read,
        len(emitted_ids),
        result.skipped,
    )


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
    selected = CHECKS if not names else [(n, f) for n, f in CHECKS if n in set(names)]
    if names:
        known = {n for n, _ in CHECKS}
        unknown = [n for n in names if n not in known]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
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
