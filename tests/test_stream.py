"""Window grid and culture-vector construction."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from culturestream.binning import (
    WindowSpec,
    bin_transactions,
    rank_vector,
    write_vectors_csv,
)
from culturestream.corpus import Transaction


ROSTER = {"alice": "A", "carol": "B"}


def _tx(tid, ts, keys, author="alice", practice="tagging"):
    return Transaction(tid, author, ts, practice, tuple(keys))


class TestWindowSpec:
    def test_half_open_indexing(self):
        spec = WindowSpec(epoch=100.0, count=3, width=10.0)
        assert spec.index_of(100.0) == 1
        assert spec.index_of(109.9999) == 1
        assert spec.index_of(110.0) == 2
        assert spec.index_of(129.9999) == 3
        assert spec.index_of(130.0) is None
        assert spec.index_of(99.0) is None

    @example(epoch=5.124919555126976, width=0.7, count=74, u=1.0)
    @given(
        epoch=st.floats(-1e9, 1e9),
        width=st.floats(1e-3, 1e6),
        count=st.integers(1, 500),
        u=st.floats(0.0, 1.0),
    )
    def test_index_stays_on_the_grid(self, epoch, width, count, u):
        # u = 1.0 stands for the last float below end, where round-off bites.
        spec = WindowSpec(epoch=epoch, count=count, width=width)
        ts = math.nextafter(spec.end, -math.inf) if u == 1.0 else epoch + u * (spec.end - epoch)
        assume(epoch <= ts < spec.end)
        assert 1 <= spec.index_of(ts) <= count

    def test_window_starts_and_end(self):
        spec = WindowSpec(epoch=50.0, count=2, width=5.0)
        assert spec.index_of(50.0) == 1
        assert spec.index_of(55.0) == 2
        assert spec.index_of(54.9999) == 1
        assert spec.end == 60.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(epoch=0.0, count=0)
        with pytest.raises(ValueError):
            WindowSpec(epoch=0.0, count=3, width=0.0)

    @pytest.mark.parametrize("width", [math.nan, math.inf])
    def test_non_finite_width_rejected(self, width):
        with pytest.raises(ValueError, match="window width must be positive and finite"):
            WindowSpec(0.0, 3, width)

    @given(st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
    def test_index_consistent_with_start(self, ts):
        spec = WindowSpec(epoch=0.0, count=10, width=604800.0)
        idx = spec.index_of(ts)
        if idx is None:
            assert ts >= spec.end
        else:
            start = spec.epoch + (idx - 1) * spec.width
            assert start <= ts < start + spec.width


class TestBinning:
    def test_counts_accumulate_per_cell(self):
        spec = WindowSpec(epoch=0.0, count=2, width=10.0)
        txs = [
            _tx("1", 1.0, ["a", "b"]),
            _tx("2", 2.0, ["a"]),
            _tx("3", 11.0, ["a"]),
            _tx("4", 3.0, ["c"], author="carol"),
        ]
        vectors, dropped = bin_transactions(txs, spec, ROSTER)
        assert dropped == 0
        assert vectors[("A", 1, "tagging")] == {"a": 2, "b": 1}
        assert vectors[("A", 2, "tagging")] == {"a": 1}
        assert vectors[("B", 1, "tagging")] == {"c": 1}

    def test_absent_cells_have_no_vector(self):
        spec = WindowSpec(epoch=0.0, count=3, width=10.0)
        vectors, _ = bin_transactions([_tx("1", 1.0, ["a"])], spec, ROSTER)
        assert set(vectors) == {("A", 1, "tagging")}

    def test_author_outside_the_roster_raises(self):
        spec = WindowSpec(epoch=0.0, count=1, width=10.0)
        with pytest.raises(KeyError, match="mallory"):
            bin_transactions([_tx("1", 1.0, ["a"]), _tx("2", 2.0, ["b"], author="mallory")],
                             spec, ROSTER)

    def test_out_of_grid_transactions_counted_dropped(self):
        spec = WindowSpec(epoch=10.0, count=1, width=10.0)
        vectors, dropped = bin_transactions(
            [_tx("1", 5.0, ["a"]), _tx("2", 25.0, ["b"]), _tx("3", 12.0, ["c"])], spec, ROSTER
        )
        assert dropped == 2
        assert ("A", 1, "tagging") in vectors


class TestRanking:
    def test_descending_count_then_lexicographic(self):
        vec = {"b": 2, "a": 2, "c": 5}
        assert rank_vector(vec) == ["c", "a", "b"]

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            rank_vector({})

    @given(st.dictionaries(st.text(alphabet="abcdef", min_size=1, max_size=3),
                           st.integers(min_value=1, max_value=50), min_size=1, max_size=8))
    def test_rank_is_total_and_sorted(self, counts):
        vec = dict(counts)
        ranked = rank_vector(vec)
        assert len(ranked) == len(counts)
        values = [vec[f] for f in ranked]
        assert values == sorted(values, reverse=True)


def test_vectors_csv_deterministic(tmp_path):
    spec = WindowSpec(epoch=0.0, count=2, width=10.0)
    txs = [
        _tx("1", 1.0, ["b", "a"]),
        _tx("2", 11.0, ["a"], author="carol"),
    ]
    vectors, _ = bin_transactions(txs, spec, ROSTER)
    path = tmp_path / "vectors.csv"
    write_vectors_csv(vectors, "tagging", path)
    assert path.read_bytes() == (
        b"group,window,practice,fact_kind,fact,count\r\n"
        b"A,1,tagging,hashtag,a,1\r\n"
        b"A,1,tagging,hashtag,b,1\r\n"
        b"B,2,tagging,hashtag,a,1\r\n"
    )
