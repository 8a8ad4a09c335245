"""Institutionness and burstiness of individual facts."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from culturestream.binning import WindowSpec
from culturestream.facts import (
    INSTITUTIONNESS_VARIANTS,
    FactMeasureRow,
    avg_rate,
    burst_episodes,
    collect_fact_series,
    fact_measures,
    institutionness_value,
    normalize_bursts,
    write_fact_csv,
)
from reference_report import (
    brute_force_institutionness,
    episodes_from_costs,
    fact_rows,
    improvement_closed_form,
    log_gamma_costs,
    sparse,
)


def _episode_rows(r, d):
    """One fact's episodes as output rows, burstiness holding the raw weight."""
    return [
        FactMeasureRow("A", "tagging", "x", 0, weight, onset, end)
        for onset, end, weight in burst_episodes(sparse(r), d)
    ]


class TestCollect:
    def test_facts_share_group_totals(self):
        spec = WindowSpec(epoch=0.0, count=3, width=10.0)
        vectors = {
            ("A", 1, "tagging"): {"a": 2, "b": 1},
            ("A", 3, "tagging"): {"a": 1},
            ("B", 2, "tagging"): {"c": 9},
        }
        d, series = collect_fact_series(vectors, spec, "A", "tagging")
        assert list(series) == ["a", "b"]
        # each fact holds only its active windows, ascending
        assert list(series.values()) == [{1: 2, 3: 1}, {1: 1}]
        # d covers the whole group's references; silent window 2 stays 0
        assert d == [3, 0, 1]

    def test_silent_group_yields_nothing(self):
        spec = WindowSpec(epoch=0.0, count=2, width=10.0)
        assert collect_fact_series({}, spec, "A", "tagging") == ([0, 0], {})

    @given(
        st.dictionaries(
            st.tuples(st.sampled_from("AB"), st.integers(min_value=1, max_value=4)),
            st.dictionaries(st.sampled_from("abcde"), st.integers(min_value=1, max_value=9),
                            min_size=1),
        )
    )
    def test_references_bounded_by_group_totals(self, cells):
        spec = WindowSpec(epoch=0.0, count=4, width=10.0)
        vectors = {(g, w, "tagging"): counts for (g, w), counts in cells.items()}
        for group in "AB":
            d, series = collect_fact_series(vectors, spec, group, "tagging")
            for r in series.values():
                assert list(r) == sorted(r) and all(r.values())
            for t, dt in enumerate(d, 1):
                assert all(0 <= r.get(t, 0) <= dt for r in series.values())
                assert dt == sum(r.get(t, 0) for r in series.values())


class TestAvgRate:
    def test_references_over_distinct_facts(self):
        spec = WindowSpec(epoch=0.0, count=3, width=10.0)
        vectors = {
            ("A", 1, "tagging"): {"a": 3, "b": 1},
            ("A", 2, "tagging"): {"a": 4},
        }
        assert avg_rate(vectors, spec, "tagging") == [2.0, 4.0, None]

    def test_pools_across_groups_per_practice(self):
        spec = WindowSpec(epoch=0.0, count=1, width=10.0)
        vectors = {
            ("A", 1, "tagging"): {"a": 2, "b": 2},
            ("B", 1, "tagging"): {"a": 2},
            ("B", 1, "mentioning"): {"zz": 50},
        }
        # 6 references over 2 distinct facts; the other practice is ignored
        assert avg_rate(vectors, spec, "tagging") == [3.0]


class TestInstitutionness:
    def test_all_zero_series(self):
        assert institutionness_value({}, [1.0, 1.0, 1.0]) == 0

    def test_five_strong_weeks(self):
        r = [5, 5, 5, 5, 5, 0, 0, 0, 0, 0, 0, 0, 0]
        assert institutionness_value(sparse(r), [1.0] * 13) == 5

    def test_heavy_every_week_hits_cap(self):
        assert institutionness_value(sparse([50] * 13), [2.0] * 13) == 13

    def test_undefined_weeks_never_satisfy(self):
        assert institutionness_value({1: 5, 2: 5}, [None, None]) == 0
        assert institutionness_value({1: 5, 2: 5}, [1.0, None]) == 1

    def test_variants_differ_when_h0_below_one(self):
        # literal: r >= h/h0 -> 3 >= h/0.5 holds up to h=1 (needs 2 windows
        # for h=1? no: one window suffices); normalized: 3/0.5 = 6 >= h
        r = [3, 3]
        h0 = [0.5, 0.5]
        assert institutionness_value(sparse(r), h0, "literal") == 1
        assert institutionness_value(sparse(r), h0, "normalized") == 2

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            institutionness_value({1: 1}, [1.0], "inverse")

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=13),
        st.floats(min_value=0.1, max_value=10.0),
        st.sampled_from(("literal", "normalized")),
    )
    def test_matches_exhaustive_search(self, r, h0_value, variant):
        h0 = [h0_value] * len(r)
        assert institutionness_value(sparse(r), h0, variant) == brute_force_institutionness(
            r, h0, variant
        )

    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=13),
        st.floats(min_value=0.5, max_value=5.0),
        st.data(),
    )
    def test_monotone_in_references(self, r, h0_value, data):
        h0 = [h0_value] * len(r)
        before = institutionness_value(sparse(r), h0)
        idx = data.draw(st.integers(min_value=0, max_value=len(r) - 1))
        bumped = list(r)
        bumped[idx] += data.draw(st.integers(min_value=1, max_value=10))
        assert institutionness_value(sparse(bumped), h0) >= before


def _near(x):
    """x and its two neighbouring floats."""
    return (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))


# Rates whose product or quotient with a count lands on or one ulp off an integer.
BOUNDARY_H0 = [y for x in (1 / 3, 0.1, 0.7, 1 / 7, 3 / 7, 1e-9, 1e9) for y in _near(x)]

boundary_window = st.integers(min_value=0, max_value=80).flatmap(
    lambda rt: st.tuples(
        st.just(rt),
        st.one_of(
            st.none(),
            st.sampled_from(BOUNDARY_H0),
            # r_t * h0_t or r_t / h0_t on an integer k, or one ulp either side
            st.integers(min_value=1, max_value=80).flatmap(
                lambda k: st.sampled_from(_near(k / max(rt, 1)) + _near(max(rt, 1) / k))
            ),
            st.floats(min_value=0.01, max_value=100.0),
        ),
    )
)


class TestInstitutionnessBoundaries:
    """Per-window rates at float rounding boundaries, against the exhaustive search."""

    @given(
        st.lists(boundary_window, min_size=1, max_size=78),
        st.sampled_from(INSTITUTIONNESS_VARIANTS),
    )
    def test_boundary_rates_per_window(self, windows, variant):
        r = [rt for rt, _ in windows]
        h0 = [h0t for _, h0t in windows]
        assert institutionness_value(sparse(r), h0, variant) == brute_force_institutionness(
            r, h0, variant
        )

    @pytest.mark.parametrize("variant", INSTITUTIONNESS_VARIANTS)
    def test_seventy_eight_windows_of_boundary_rates(self, variant):
        rng = random.Random(78)
        for _ in range(100):
            r = [rng.choice((0, rng.randint(1, 80))) for _ in range(78)]
            h0 = [None if rng.random() < 0.1 else rng.choice(BOUNDARY_H0) for _ in range(78)]
            assert institutionness_value(sparse(r), h0, variant) == brute_force_institutionness(
                r, h0, variant
            ), (r, h0)

    @pytest.mark.parametrize(
        "rt, h0t, windows, want",
        [
            (20, math.nextafter(0.1, 0.0), 2, 2),  # 20 * h0 rounds down to 1.9999...
            (50, math.nextafter(0.1, 0.0), 5, 4),  # 50 * h0 rounds up to 5.0
            (30, 0.7, 21, 20),  # 30 * 0.7 == 21.0, but 21 / 0.7 > 30
            (90, 0.7, 63, 63),  # 90 * 0.7 < 63, but 63 / 0.7 == 90.0
        ],
    )
    def test_product_one_ulp_off_the_bound(self, rt, h0t, windows, want):
        r, h0 = [rt] * windows, [h0t] * windows
        assert institutionness_value(sparse(r), h0) == want
        assert brute_force_institutionness(r, h0, "literal") == want

    @pytest.mark.parametrize("variant", INSTITUTIONNESS_VARIANTS)
    def test_large_exact_case(self, variant):
        assert institutionness_value(sparse([50] * 2000), [1.0] * 2000, variant) == 50


series_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40)),
    min_size=1,
    max_size=13,
).map(lambda pairs: ([min(r, d) for r, d in pairs], [d for _, d in pairs])).filter(
    lambda rd: sum(rd[0]) > 0
)


def _comb_improvements(r, d):
    """Per-window improvements from exact binomial coefficients (math.comb)."""
    p0 = sum(r) / sum(d)
    p1 = min(2.0 * p0, 1.0 - 1e-9)
    out = []
    for rt, dt in zip(r, d):
        costs = []
        for ps in (p0, p1):
            ln_likelihood = math.log(math.comb(dt, rt))
            if rt > 0:
                ln_likelihood += rt * math.log(ps)
            if dt - rt > 0:
                ln_likelihood += (dt - rt) * math.log(1.0 - ps)
            costs.append(-ln_likelihood)
        out.append(costs[0] - costs[1])
    return out


def _assert_episodes_follow(episodes, improvements, tol=1e-9):
    """Each episode weighs its windows' summed improvement, and every window
    improving by more than ``tol`` lies in exactly one episode."""
    covered = set()
    for onset, end, weight in episodes:
        assert weight == pytest.approx(sum(improvements[onset - 1 : end]), abs=tol)
        for w in range(onset, end + 1):
            assert improvements[w - 1] > -tol
            assert w not in covered
            covered.add(w)
    assert {w for w, imp in enumerate(improvements, 1) if imp > tol} <= covered


class TestBurstCosts:
    def test_known_improvement_at_spike_window(self):
        # base rate 6/20; boosted window: 5*ln 2 + 5*ln(4/7)
        improvements = improvement_closed_form([1, 5], [10, 10])
        assert improvements[1] == pytest.approx(0.667656963122613, abs=1e-12)
        assert improvements[0] < 0

    def test_constant_rate_never_prefers_burst_state(self):
        r, d = [2, 4, 6], [10, 20, 30]
        assert all(imp <= 1e-12 for imp in improvement_closed_form(r, d))
        assert burst_episodes(sparse(r), d) == []

    def test_saturated_series_has_finite_costs(self):
        # p0 == 1: ln(1 - p0) is never taken
        assert all(math.isfinite(imp) for imp in improvement_closed_form([5, 5], [5, 5]))
        assert burst_episodes({1: 5, 2: 5}, [5, 5]) == []

    def test_empty_window_costs_nothing(self):
        assert improvement_closed_form([3, 0], [9, 0])[1] == 0.0
        assert log_gamma_costs([3, 0], [9, 0])[1] == (0.0, 0.0)

    def test_no_references_rejected(self):
        with pytest.raises(ValueError):
            improvement_closed_form([0, 0], [5, 5])
        assert burst_episodes({}, [5, 5]) == []

    @given(series_strategy)
    def test_matches_combinatorial_oracle(self, rd):
        r, d = rd
        exact = _comb_improvements(r, d)
        for (g0, g1), want in zip(log_gamma_costs(r, d), exact):
            assert g0 - g1 == pytest.approx(want, abs=1e-9)
        _assert_episodes_follow(burst_episodes(sparse(r), d), exact)

    @given(series_strategy)
    def test_closed_form_matches_log_gamma_route(self, rd):
        r, d = rd
        closed = improvement_closed_form(r, d)
        for (g0, g1), direct in zip(log_gamma_costs(r, d), closed):
            assert g0 - g1 == pytest.approx(direct, abs=1e-9)
        _assert_episodes_follow(burst_episodes(sparse(r), d), closed)


class TestBurstBitIdentity:
    """Episodes equal, bit for bit, the runs of the dense per-window log-gamma costs."""

    def test_seventy_eight_window_series(self):
        rng = random.Random(2002)
        for _ in range(300):
            d = [rng.choice((0, rng.randint(1, 400))) for _ in range(78)]
            r = [rng.choice((0, 0, rng.randint(0, dt))) for dt in d]
            if sum(r) == 0:
                continue
            assert burst_episodes(sparse(r), d) == episodes_from_costs(log_gamma_costs(r, d))

    def test_every_reference_in_its_own_window(self):
        # r == d gives p0 == 1, where ln(1 - p0) is a math domain error.
        r = d = [3, 0, 5, 1]
        assert burst_episodes(sparse(r), d) == episodes_from_costs(log_gamma_costs(r, d)) == []

    def test_clamp_bursts_a_window_without_references(self):
        # p0 = 2e9 / (2e9 + 1) > 1 - 1e-9, so the clamp puts p1 below p0 and
        # window 2, with no reference to the fact, is the cheaper one to burst.
        r, d = [2 * 10**9, 0], [2 * 10**9, 1]
        want = episodes_from_costs(log_gamma_costs(r, d))
        assert want == [(2, 2, 0.6931470695376483)]
        assert burst_episodes(sparse(r), d) == want


class TestEpisodes:
    def test_constant_rate_has_no_episodes(self):
        assert burst_episodes({1: 2, 2: 2}, [10, 10]) == []

    def test_single_spike_single_episode(self):
        episodes = burst_episodes({1: 1, 2: 5}, [10, 10])
        assert len(episodes) == 1
        onset, end, weight = episodes[0]
        assert (onset, end) == (2, 2)
        assert weight == pytest.approx(0.667656963122613, abs=1e-12)

    def test_maximal_runs_split_on_negative_window(self):
        episodes = burst_episodes(sparse([3, 3, 0, 3]), [10, 10, 40, 10])
        assert [(onset, end) for onset, end, _ in episodes] == [(1, 2), (4, 4)]

    def test_zero_volume_window_splits_runs(self):
        episodes = burst_episodes(sparse([6, 0, 6, 0]), [10, 0, 10, 40])
        assert [(onset, end) for onset, end, _ in episodes] == [(1, 1), (3, 3)]

    def test_unreferenced_fact_has_no_episodes(self):
        assert burst_episodes({}, [0]) == []

    @given(series_strategy)
    def test_episodes_cover_positive_windows_exactly(self, rd):
        r, d = rd
        improvements = [g0 - g1 for g0, g1 in log_gamma_costs(r, d)]
        covered = set()
        for onset, end, weight in burst_episodes(sparse(r), d):
            assert weight == sum(improvements[onset - 1 : end])
            for w in range(onset, end + 1):
                assert improvements[w - 1] > 0
                assert w not in covered
                covered.add(w)
        positive = {i + 1 for i, imp in enumerate(improvements) if imp > 0}
        assert covered == positive


class TestNormalization:
    def test_strongest_episode_scores_one(self):
        # base rate 9/40; both spikes clear break-even, the 5-spike wins
        rows = _episode_rows([0, 5, 0, 4], [10, 10, 10, 10])
        assert len(rows) == 2
        normalize_bursts(rows)
        by_window = {row.onset: row.burstiness for row in rows}
        assert by_window[2] == 1.0
        assert 0.0 < by_window[4] < 1.0

    def test_ties_share_the_top(self):
        rows = normalize_bursts(_episode_rows([1, 5, 1, 5], [10, 10, 10, 10]))
        assert [row.burstiness for row in rows] == [1.0, 1.0]

    def test_argmax_invariant_under_integer_scaling(self):
        base = normalize_bursts(_episode_rows([1, 5, 1, 3], [10, 10, 10, 10]))
        scaled = normalize_bursts(_episode_rows([3, 15, 3, 9], [30, 30, 30, 30]))
        normalized_base = [row.burstiness for row in base]
        normalized_scaled = [row.burstiness for row in scaled]
        assert normalized_scaled == pytest.approx(normalized_base, abs=1e-9)


class TestFactMeasures:
    def _vectors(self):
        # steady and other hold a constant sub-50% share so neither ever
        # prefers the burst state; spike jumps from 1 to 9 references
        return {
            ("A", 1, "tagging"): {"steady": 10, "other": 10, "spike": 1},
            ("A", 2, "tagging"): {"steady": 10, "other": 10, "spike": 9},
            ("A", 3, "tagging"): {"steady": 10, "other": 10},
            ("B", 1, "tagging"): {"steady": 2},
        }

    def test_rows_cover_episodes_and_quiet_institutions(self):
        spec = WindowSpec(epoch=0.0, count=3, width=10.0)
        rows = fact_measures(self._vectors(), spec, ["A", "B"], "tagging")
        by_key = {(r.group, r.fact): r for r in rows}
        spike = by_key[("A", "spike")]
        assert (spike.onset, spike.end) == (2, 2)
        assert spike.burstiness == 1.0
        steady = by_key[("A", "steady")]
        assert steady.institutionness > 0
        # steady never bursts; it still appears because it scores I > 0
        assert steady.burstiness == 0.0 and steady.onset is None and steady.end is None
        assert ("B", "steady") in by_key

    def test_normalization_is_per_group(self):
        spec = WindowSpec(epoch=0.0, count=2, width=10.0)
        vectors = {
            ("A", 1, "tagging"): {"x": 1, "pad": 19},
            ("A", 2, "tagging"): {"x": 9, "pad": 11},
            ("B", 1, "tagging"): {"y": 1, "pad": 19},
            ("B", 2, "tagging"): {"y": 4, "pad": 16},
        }
        rows = fact_measures(vectors, spec, ["A", "B"], "tagging")
        tops = {
            g: max(r.burstiness for r in rows if r.group == g and r.onset is not None)
            for g in ("A", "B")
        }
        assert tops == {"A": 1.0, "B": 1.0}


# Cell sets over 2-8 windows: empty windows, lone active groups (D never is),
# count ties, another practice's cells, and counts large enough for the clamp.
fact_cells = st.integers(min_value=2, max_value=8).flatmap(
    lambda count: st.tuples(
        st.just(count),
        st.dictionaries(
            st.tuples(
                st.sampled_from("ABC"),
                st.integers(min_value=1, max_value=count),
                st.sampled_from(("tagging", "mentioning")),
            ),
            st.dictionaries(
                st.sampled_from("abcde"),
                st.sampled_from((1, 1, 2, 2, 3, 5, 8, 2 * 10**9)),
                min_size=1,
                max_size=4,
            ),
            max_size=12,
        ),
    )
)


class TestDenseReference:
    @given(fact_cells, st.sampled_from(INSTITUTIONNESS_VARIANTS))
    @example((3, {("A", 1, "tagging"): {"a": 2 * 10**9}, ("A", 3, "tagging"): {"b": 1}}),
             "literal")
    @example((2, {("B", 2, "tagging"): {"a": 2, "b": 2}}), "normalized")
    def test_fact_measures_equal_dense_reference(self, count_cells, variant):
        count, cells = count_cells
        spec = WindowSpec(epoch=0.0, count=count, width=1.0)
        groups = ["A", "B", "C", "D"]
        rows = fact_measures(cells, spec, groups, "tagging", variant)
        assert [dataclasses.astuple(row) for row in rows] == fact_rows(
            cells, count, groups, "tagging", variant
        )


def test_fact_csv_golden(tmp_path):
    spec = WindowSpec(epoch=0.0, count=2, width=10.0)
    vectors = {
        ("A", 1, "tagging"): {"quiet": 20, "spike": 1},
        ("A", 2, "tagging"): {"quiet": 20, "spike": 9},
    }
    rows = fact_measures(vectors, spec, ["A"], "tagging")
    path = tmp_path / "facts.csv"
    write_fact_csv(rows, path)
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0] == b"group,practice,fact,I,B,onset,end"
    assert lines[1] == b"A,tagging,quiet,2,0,,"
    assert lines[2] == b"A,tagging,spike,2,1,2,2"
