"""Aggregate practice graphs: construction and statistics."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_report
from culturestream.corpus import USER_PRACTICES, Transaction
from culturestream.errors import DataError
from culturestream.network import (
    TOTAL,
    build_follow_graph,
    build_graph,
    group_stats,
    load_follow_edges,
    write_edges_csv,
    write_stats_csv,
)

ROSTER = {"alice": "A", "bob": "A", "carol": "B", "dave": "B"}


def _rt(tid, author, targets):
    return Transaction(
        tid, author, ROSTER[author], 1.0, "retweeting",
        tuple(targets),
    )


class TestBuildGraph:
    def test_weights_accumulate(self):
        txs = [_rt("1", "alice", ["bob"]), _rt("2", "alice", ["bob"]), _rt("3", "bob", ["carol"])]
        graph = build_graph(txs, "retweeting", ROSTER)
        assert graph.arcs == {("alice", "bob"): 2, ("bob", "carol"): 1}

    def test_self_references_and_strangers_dropped(self):
        txs = [_rt("1", "alice", ["alice"]),
               Transaction("2", "alice", "A", 1.0, "retweeting",
                           ("mallory",))]
        graph = build_graph(txs, "retweeting", ROSTER)
        assert graph.arcs == {}

    def test_other_practices_and_kinds_ignored(self):
        txs = [
            Transaction("1", "alice", "A", 1.0, "tagging", ("bob",)),
            Transaction("2", "alice", "A", 1.0, "mentioning", ("bob",)),
        ]
        graph = build_graph(txs, "retweeting", ROSTER)
        assert graph.arcs == {}
        graph = build_graph(txs, "mentioning", ROSTER)
        assert graph.arcs == {("alice", "bob"): 1}

    def test_unknown_practice_rejected(self):
        with pytest.raises(ValueError):
            build_graph([], "tagging", ROSTER)

    def test_following_is_not_folded_from_the_stream(self):
        follow = Transaction("1", "alice", "A", 1.0, "following", ("bob",))
        with pytest.raises(ValueError, match="following"):
            build_graph([follow], "following", ROSTER)


class TestFollowGraph:
    def test_repeats_collapse_and_bad_edges_count(self):
        edges = [("alice", "bob"), ("alice", "bob"), ("alice", "alice"),
                 ("alice", "mallory"), ("carol", "dave")]
        graph, skipped = build_follow_graph(edges, ROSTER)
        assert graph.arcs == {("alice", "bob"): 1, ("carol", "dave"): 1}
        assert skipped == 2

    def test_edge_list_requires_header(self):
        with pytest.raises(DataError):
            load_follow_edges(["alice,bob\n"])
        with pytest.raises(DataError):
            load_follow_edges([])

    def test_edge_list_normalizes_handles(self):
        edges, unparseable = load_follow_edges(["source,target\n", "@Alice,BOB\n", "\n"])
        assert edges == [("alice", "bob")]
        assert unparseable == 0

    def test_edge_list_counts_unparseable_rows(self):
        lines = ["source,target\n", "onlyone\n", ",\n", "alice, \n", "bo b,carol\n",
                 "alice,bob\n", "  \n", "\n"]
        edges, unparseable = load_follow_edges(lines)
        assert edges == [("alice", "bob")]
        # one column, two empty handles, an empty target, an inner space; blank lines ignored
        assert unparseable == 4


class TestStats:
    def _graph(self):
        # A: alice->bob (2, same), bob->carol (1, cross)
        # B: carol->alice (3, cross), dave inactive
        txs = [
            _rt("1", "alice", ["bob"]), _rt("2", "alice", ["bob"]),
            _rt("3", "bob", ["carol"]),
            _rt("4", "carol", ["alice"]), _rt("5", "carol", ["alice"]),
            _rt("6", "carol", ["alice"]),
        ]
        return build_graph(txs, "retweeting", ROSTER)

    def _rows(self, graph):
        return {row.group: row for row in group_stats(graph)}

    def test_density_counts_distinct_arcs_inside_scope(self):
        rows = self._rows(self._graph())
        # scopes: A = {alice, bob}, TOTAL = {alice, bob, carol}, B = {carol}
        assert rows["A"].density == pytest.approx(1 / 2)  # 1 of 2 slots
        assert rows[TOTAL].density == pytest.approx(3 / 6)
        assert rows["B"].density is None

    def test_degree_and_weight_averages(self):
        row = self._rows(self._graph())["A"]
        # alice: out 1 arc / 2 weight, in 1 arc / 3 weight
        # bob:   out 1 arc / 1 weight, in 1 arc / 2 weight
        assert (row.k_out, row.k_in, row.w_out, row.w_in) == pytest.approx((1.0, 1.0, 1.5, 2.5))
        # a group with no active member (B below: dave and carol silent)
        silent = self._rows(build_graph([_rt("1", "alice", ["bob"])], "retweeting", ROSTER))["B"]
        assert (silent.nodes, silent.k_out, silent.k_in, silent.w_out, silent.w_in) == (
            0, None, None, None, None
        )

    def test_node_homophily_is_share_of_same_group_weight(self):
        # alice and carol are the only senders of their groups, so each
        # group's homophily is that sender's share; bob and dave are active
        # only as targets and carry no signal
        txs = [
            _rt("1", "alice", ["bob"]), _rt("2", "alice", ["bob"]), _rt("3", "alice", ["bob"]),
            _rt("4", "alice", ["carol"]),
            _rt("5", "carol", ["dave"]), _rt("6", "carol", ["alice"]),
        ]
        rows = self._rows(build_graph(txs, "retweeting", ROSTER))
        assert (rows["A"].nodes, rows["B"].nodes) == (2, 2)
        assert rows["A"].homophily == pytest.approx(3 / 4)  # weighted, not 1 of 2 arcs
        assert rows["B"].homophily == pytest.approx(1 / 2)
        assert rows[TOTAL].homophily == pytest.approx((3 / 4 + 1 / 2) / 2)
        # a sender whose weight all leaves its group scores 0: carol alone in B
        assert self._rows(self._graph())["B"].homophily == 0.0

    def test_group_homophily_averages_members(self):
        rows = self._rows(self._graph())
        assert rows["A"].homophily == pytest.approx(0.5)
        assert rows["B"].homophily == pytest.approx(0.0)
        assert rows[TOTAL].homophily == pytest.approx(1 / 3)

    def test_silent_group_maps_to_none(self):
        rows = self._rows(build_graph([_rt("1", "alice", ["bob"])], "retweeting", ROSTER))
        assert rows["B"].homophily is None
        assert rows["A"].homophily == 1.0

    def test_stats_rows_ordered_groups_then_total(self):
        rows = group_stats(self._graph())
        assert [r.group for r in rows] == ["A", "B", TOTAL]
        total = rows[-1]
        assert total.nodes == 3  # dave has no arcs at all
        assert total.density == pytest.approx(3 / 6)

    def test_weight_conservation(self):
        graph = self._graph()
        total = self._rows(graph)[TOTAL]
        n = total.nodes
        assert total.w_out * n == total.w_in * n == sum(graph.arcs.values()) == 6


HANDLES = ["ann", "ben", "cy", "dee", "eli", "flo", "gus"]
# "zed" is on no roster: references to it, and follow edges with it, are dropped.
handle = st.sampled_from(HANDLES + ["zed"])
rosters = st.dictionaries(st.sampled_from(HANDLES), st.sampled_from("ABC"), min_size=1)
streams = st.lists(
    st.tuples(handle, st.sampled_from(USER_PRACTICES), st.lists(handle, max_size=3, unique=True)),
    max_size=25,
)


def _assert_rows_equal_reference(graph, roster, references, weighted):
    want = reference_report.network_rows(roster, references, weighted)
    got = [(r.group, r.nodes, r.density, r.k_out, r.k_in, r.w_out, r.w_in, r.homophily)
           for r in group_stats(graph)]
    assert [row[:2] for row in got] == [row[:2] for row in want]  # scopes and node counts
    for row, expected in zip(got, want):
        for value, ref in zip(row[2:], expected[2:]):
            assert (value is None) == (ref is None), (row, expected)
            assert value is None or abs(value - ref) <= 1e-12, (row, expected)


@given(rosters, streams, st.lists(st.tuples(handle, handle), max_size=25))
def test_group_stats_equal_member_enumeration(roster, messages, edges):
    """Every stats row of the user graphs and the follow graph equals the reference's."""
    transactions = [
        Transaction(str(i), author, roster[author], 1.0, practice, tuple(targets))
        for i, (author, practice, targets) in enumerate(messages)
        if author in roster  # ingest emits only roster authors
    ]
    for practice in USER_PRACTICES:
        references = [(t.author, tgt) for t in transactions if t.practice == practice
                      for tgt in t.facts]
        graph = build_graph(transactions, practice, roster)
        _assert_rows_equal_reference(graph, roster, references, weighted=True)
    graph, _ = build_follow_graph(edges, roster)
    _assert_rows_equal_reference(graph, roster, edges, weighted=False)


def test_stats_csv_golden(tmp_path):
    graph = build_graph([_rt("1", "alice", ["bob"])], "retweeting", ROSTER)
    path = tmp_path / "network.csv"
    write_stats_csv(group_stats(graph), "retweeting", path)
    assert path.read_bytes() == (
        b"practice,group,nodes,density,k_out,k_in,w_out,w_in,homophily\r\n"
        b"retweeting,A,2,0.5,0.5,0.5,0.5,0.5,1\r\n"
        b"retweeting,B,0,,,,,,\r\n"
        b"retweeting,TOTAL,2,0.5,0.5,0.5,0.5,0.5,1\r\n"
    )


def test_edges_csv_golden(tmp_path):
    graph = build_graph(
        [_rt("1", "carol", ["alice"]), _rt("2", "alice", ["bob"])], "retweeting", ROSTER
    )
    path = tmp_path / "edges.csv"
    write_edges_csv(graph, path)
    assert path.read_bytes() == (
        b"source,target,weight,source_group,target_group\r\n"
        b"alice,bob,1,A,A\r\n"
        b"carol,alice,1,B,A\r\n"
    )
