"""Focus, similarity, reproduction, and series assembly."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference_report
from culturestream import measures
from culturestream.binning import WindowSpec, rank_vector
from culturestream.measures import (
    MEASURES,
    average_series,
    build_series,
    focus,
    rbo_extended,
    write_series_csv,
)
from test_facts import fact_cells


counts_strategy = st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3),
    st.integers(min_value=1, max_value=200),
    min_size=1,
    max_size=10,
)


class TestFocus:
    def test_single_fact_is_one(self):
        assert focus({"a": 7}) == 1.0

    def test_uniform_is_zero(self):
        assert focus({"a": 5, "b": 5, "c": 5}) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [7, 10])
    def test_equal_counts_are_exactly_zero(self, n):
        # 1 - H/log2(n) with H and log2(n) each rounded leaves 1.1e-16 at n = 7
        # and -2.2e-16 at n = 10.
        assert focus({f"k{i}": 3 for i in range(n)}) == 0.0

    def test_known_skewed_pair(self):
        # 1 - H(3/4, 1/4) / log2(2) evaluated by hand
        assert focus({"a": 3, "b": 1}) == pytest.approx(0.18872187554086717, abs=1e-12)

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            focus({})

    def test_concentration_raises_focus(self):
        assert focus({"a": 99, "b": 1}) > focus({"a": 50, "b": 50})

    @given(counts_strategy)
    def test_bounded(self, counts):
        assert 0.0 <= focus(counts) <= 1.0

    @given(counts_strategy, st.integers(min_value=2, max_value=9))
    def test_scale_invariant(self, counts, k):
        scaled = {key: c * k for key, c in counts.items()}
        assert focus(scaled) == pytest.approx(focus(counts), abs=1e-12)


def two_group_similarity(left, right):
    """build_series' (A, B) similarity in one window where A holds ``left`` and B ``right``.

    With no third group, each side's score is the pair's cosine.
    """
    vectors = {("A", 1, "tagging"): left, ("B", 1, "tagging"): right}
    series = build_series(vectors, WindowSpec(0.0, 1), "tagging", ["A", "B"], "similarity")
    return series["A"][0][1], series["B"][0][1]


class TestPairSimilarity:
    def test_known_pair(self):
        assert two_group_similarity({"a": 1, "b": 1}, {"a": 1}) == pytest.approx(
            (0.7071067811865475, 0.7071067811865475), abs=1e-12
        )

    def test_identical_is_one(self):
        v = {"a": 3, "b": 1, "c": 2}
        assert two_group_similarity(v, v) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_disjoint_is_zero(self):
        assert two_group_similarity({"a": 2}, {"b": 5}) == (0.0, 0.0)

    @given(counts_strategy, counts_strategy)
    def test_symmetric_and_bounded(self, c1, c2):
        s, t = two_group_similarity(c1, c2)
        assert s == t == two_group_similarity(c2, c1)[0]
        assert 0.0 <= s <= 1.0 + 1e-12

    @given(counts_strategy, counts_strategy, st.integers(min_value=2, max_value=9))
    def test_scale_invariant(self, c1, c2, k):
        scaled = {key: c * k for key, c in c1.items()}
        assert two_group_similarity(scaled, c2) == pytest.approx(
            two_group_similarity(c1, c2), abs=1e-12
        )


class TestGroupSimilarity:
    """A group's similarity score in build_series: mean cosine against the other active groups."""

    def test_mean_over_other_active_groups(self):
        spec = WindowSpec(epoch=0.0, count=1, width=10.0)
        vectors = {
            ("A", 1, "tagging"): {"a": 1, "b": 1},
            ("B", 1, "tagging"): {"a": 1},
            ("C", 1, "tagging"): {"c": 4},
            ("B", 1, "mentioning"): {"b": 9},
        }
        series = build_series(vectors, spec, "tagging", ["A", "B", "C"], "similarity")
        # mean of cos(A,B)=1/sqrt(2) and cos(A,C)=0
        expected = 0.7071067811865475 / 2
        assert series["A"] == [(1, pytest.approx(expected, abs=1e-12))]
        assert series["C"] == [(1, 0.0)]

    def test_inactive_group_is_none(self):
        spec = WindowSpec(epoch=0.0, count=1, width=10.0)
        vectors = {("B", 1, "tagging"): {"a": 1}}
        series = build_series(vectors, spec, "tagging", ["A", "B"], "similarity")
        assert series["A"] == [(1, None)]

    def test_no_other_active_group_is_none(self):
        spec = WindowSpec(epoch=0.0, count=2, width=10.0)
        vectors = {
            ("A", 1, "tagging"): {"a": 1},
            ("B", 2, "tagging"): {"a": 1},
            ("B", 1, "mentioning"): {"a": 1},
        }
        series = build_series(vectors, spec, "tagging", ["A", "B"], "similarity")
        assert series == {"A": [(1, None), (2, None)], "B": [(1, None), (2, None)]}

    @given(
        st.dictionaries(
            st.tuples(st.sampled_from("ABCDEF"), st.integers(min_value=1, max_value=3)),
            st.dictionaries(
                st.sampled_from("abcdefghij"),
                st.one_of(st.integers(1, 5), st.integers(1, 10**6)),
                min_size=1,
                max_size=6,
            ),
            max_size=14,
        )
    )
    def test_series_equals_pairwise_mean_bit_for_bit(self, cells):
        """Equal with == to the correctly rounded mean of the reference cosines to the others."""
        spec = WindowSpec(epoch=0.0, count=3, width=10.0)
        vectors = {(g, w, "tagging"): vec for (g, w), vec in cells.items()}
        groups = list("ABCDEF")
        series = build_series(vectors, spec, "tagging", groups, "similarity")
        for group in groups:
            for w, value in series[group]:
                own = cells.get((group, w))
                others = [v for (g, ww), v in cells.items() if ww == w and g != group]
                if own is None or not others:
                    assert value is None
                else:
                    expected = math.fsum(
                        reference_report.pair_similarity(own, v) for v in others
                    ) / len(others)
                    assert value == expected


def _rbo_reference(keys1, keys2, p):
    """Straightforward prefix-set evaluation for cross-checking."""
    depth = max(len(keys1), len(keys2))
    convergent = 0.0
    agreement = 0.0
    for d in range(1, depth + 1):
        top1 = set(keys1[:d])
        top2 = set(keys2[:d])
        agreement = 2.0 * len(top1 & top2) / (len(top1) + len(top2))
        convergent += agreement * p ** (d - 1)
    return (1.0 - p) * convergent + agreement * p**depth


ranking_strategy = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=2),
    min_size=1,
    max_size=10,
    unique=True,
)


class TestRbo:
    def test_identical_is_one(self):
        assert rbo_extended(["a", "b", "c"], ["a", "b", "c"], 0.9) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_is_zero(self):
        assert rbo_extended(["a", "b"], ["c", "d"], 0.9) == 0.0

    def test_swapped_pair_equals_persistence(self):
        # agreement is 0 at depth 1 and 1 from depth 2 on, so the sum
        # telescopes to p for any persistence value
        assert rbo_extended(["a", "b"], ["b", "a"], 0.9) == pytest.approx(0.90, abs=1e-12)
        assert rbo_extended(["a", "b"], ["b", "a"], 0.5) == pytest.approx(0.50, abs=1e-12)

    def test_unequal_lengths_hand_value(self):
        # depth 1 agreement 1, depth 2 agreement 2/3 (prefix of the short
        # list truncated): 0.1*(1 + 0.9*2/3) + (2/3)*0.81 = 0.70
        assert rbo_extended(["a"], ["a", "b"], 0.9) == pytest.approx(0.70, abs=1e-12)

    def test_empty_rankings_rejected(self):
        with pytest.raises(ValueError):
            rbo_extended([], [], 0.9)

    @given(ranking_strategy, ranking_strategy, st.floats(min_value=0.0, max_value=0.99))
    def test_matches_prefix_set_reference(self, keys1, keys2, p):
        assert rbo_extended(keys1, keys2, p) == pytest.approx(
            _rbo_reference(keys1, keys2, p), abs=1e-9
        )

    @given(ranking_strategy)
    def test_self_overlap_is_one(self, keys):
        assert rbo_extended(keys, keys, 0.9) == pytest.approx(1.0, abs=1e-12)

    def test_ranking_ties_break_by_fact_key(self):
        v1 = {"b": 2, "a": 2}
        v2 = {"a": 2, "b": 2}
        r1 = rank_vector(v1)
        r2 = rank_vector(v2)
        assert r1 == r2 == ["a", "b"]
        assert rbo_extended(r1, r2, 0.9) == 1.0


class TestSeries:
    def _vectors(self):
        return {
            ("A", 1, "tagging"): {"a": 3, "b": 1},
            ("A", 2, "tagging"): {"a": 3, "b": 1},
            ("A", 3, "tagging"): {"b": 9},
            ("B", 2, "tagging"): {"a": 1},
        }

    def test_reproduction_series_labels_later_window(self):
        spec = WindowSpec(epoch=0.0, count=3, width=10.0)
        series = build_series(self._vectors(), spec, "tagging", ["A", "B"], "reproduction")
        assert [w for w, _ in series["A"]] == [2, 3]
        assert series["A"][0][1] == pytest.approx(1.0, abs=1e-12)
        # [a, b] vs [b]: depth 1 agreement 0, depth 2 agreement 2/3
        expected = 0.1 * (0.9 * 2 / 3) + (2 / 3) * 0.81
        assert series["A"][1][1] == pytest.approx(expected, abs=1e-12)
        assert series["B"] == [(2, None), (3, None)]

    def test_reproduction_ranks_each_active_cell_once(self, monkeypatch):
        ranked = []

        def counting(vector):
            ranked.append(id(vector))
            return rank_vector(vector)

        monkeypatch.setattr(measures, "rank_vector", counting)
        vectors = self._vectors()
        spec = WindowSpec(epoch=0.0, count=3, width=10.0)
        build_series(vectors, spec, "tagging", ["A", "B"], "reproduction")
        assert sorted(ranked) == sorted(map(id, vectors.values()))

    def test_focus_and_frequency_series(self):
        spec = WindowSpec(epoch=0.0, count=3, width=10.0)
        f = build_series(self._vectors(), spec, "tagging", ["A"], "focus")["A"]
        assert f[0][1] == pytest.approx(0.18872187554086717, abs=1e-10)
        assert f[2][1] == 1.0
        q = build_series(self._vectors(), spec, "tagging", ["B"], "frequency")["B"]
        assert q == [(1, None), (2, 1.0), (3, None)]

    def test_similarity_series_uses_other_groups(self):
        spec = WindowSpec(epoch=0.0, count=3, width=10.0)
        s = build_series(self._vectors(), spec, "tagging", ["A", "B"], "similarity")
        assert s["A"][0][1] is None  # B silent in window 1
        assert s["A"][1][1] == pytest.approx(3 / math.sqrt(10), abs=1e-12)

    def test_unknown_measure_rejected(self):
        spec = WindowSpec(epoch=0.0, count=2, width=10.0)
        with pytest.raises(ValueError):
            build_series({}, spec, "tagging", ["A"], "novelty")

    def test_average_skips_nulls_and_uses_population_sd(self):
        spec = WindowSpec(epoch=0.0, count=2, width=10.0)
        vectors = {
            ("A", 1, "tagging"): {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1},
            ("B", 1, "tagging"): {"a": 2, "b": 1},
        }
        series = build_series(vectors, spec, "tagging", ["A", "B", "C"], "focus")
        series["A"][0] = (1, 0.2)
        series["B"][0] = (1, 0.4)
        avg = average_series(series)
        assert avg[0] == (1, pytest.approx(0.3), pytest.approx(0.1, abs=1e-12))
        assert avg[1] == (2, None, None)

    def test_average_of_no_groups_is_empty(self):
        assert average_series({}) == []


def test_series_csv_golden(tmp_path):
    spec = WindowSpec(epoch=0.0, count=2, width=10.0)
    vectors = {
        ("A", 1, "tagging"): {"a": 1},
        ("A", 2, "tagging"): {"a": 1},
    }
    series = build_series(vectors, spec, "tagging", ["A"], "focus")
    avg = average_series(series)
    path = tmp_path / "focus.csv"
    write_series_csv(series, avg, path)
    assert path.read_bytes() == (
        b"group,window,value,sd\r\n"
        b"A,1,1,\r\n"
        b"A,2,1,\r\n"
        b"AVERAGE,1,1,0\r\n"
        b"AVERAGE,2,1,0\r\n"
    )


def _close(value, ref):
    return value == ref or abs(value - ref) <= 1e-12 * max(1.0, abs(ref))


class TestDenseReference:
    # The example holds rankings of unequal length that overlap past the shorter
    # one, a lone mentioning cell, and cosines between counts other than 1.
    @given(fact_cells, st.sampled_from((0.0, 0.5, 0.9, 0.98)))
    @example((3, {("A", 1, "tagging"): {"a": 2, "b": 2}, ("A", 2, "tagging"): {"b": 3},
                  ("B", 2, "tagging"): {"a": 2 * 10**9, "b": 1}, ("C", 2, "mentioning"): {"a": 1}}),
             0.9)
    def test_series_and_average_equal_dense_reference(self, count_cells, rbo_p):
        count, cells = count_cells
        spec = WindowSpec(epoch=0.0, count=count, width=1.0)
        groups = ["A", "B", "C", "D"]
        for measure in MEASURES:
            got = build_series(cells, spec, "tagging", groups, measure, rbo_p)
            ref = reference_report.series(cells, count, groups, "tagging", measure, rbo_p)
            assert list(got) == groups
            for group in groups:
                assert [w for w, _ in got[group]] == [w for w, _ in ref[group]]
                for (_, value), (_, want) in zip(got[group], ref[group]):
                    assert (value is None) == (want is None)
                    if measure == "frequency" or value is None:
                        assert value == want
                    else:
                        assert _close(value, want), (measure, group, value, want)
            rows, ref_rows = average_series(got), reference_report.average(ref)
            assert [row[0] for row in rows] == [row[0] for row in ref_rows]
            for row, want in zip(rows, ref_rows):
                for value, expected in zip(row[1:], want[1:]):
                    assert (value is None) == (expected is None)
                    assert value is None or _close(value, expected), (measure, row, want)
