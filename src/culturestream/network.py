"""Aggregate directed practice graphs and their statistics.

One graph per user-referencing practice (retweeting, mentioning, following)
over the whole observation span.  Arc weight counts the transactions in which
the source referenced the target (1 per follow edge); self-references are
dropped and both endpoints must be roster members.

Statistics per group and for the TOTAL scope:

  density     distinct arcs inside the scope over |scope| * (|scope| - 1),
              on the group-induced subgraph
  degrees     averaged over scope members, counting arcs to/from any roster
              member, not only within the group
  homophily   per sender, the fraction of out-going weight staying inside
              the sender's own group; scope score is the mean over members
              with any out-activity
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .corpus import USER_PRACTICES, Transaction, fmt, normalize_handle, write_csv
from .errors import DataError

TOTAL = "TOTAL"


@dataclass
class PracticeGraph:
    group_of: dict[str, str]  # the roster, shared by every graph
    arcs: dict[tuple[str, str], int] = field(default_factory=dict)


def build_graph(
    transactions: Iterable[Transaction], practice: str, roster: dict[str, str]
) -> PracticeGraph:
    """Fold user-reference transactions of one practice into a weighted graph.

    Only the stream's user practices fold here; the following graph comes
    from ``build_follow_graph``.
    """
    if practice not in USER_PRACTICES:
        raise ValueError(f"no user graph for practice {practice!r}")
    graph = PracticeGraph(roster)
    for t in transactions:
        if t.practice != practice:
            continue
        src = t.author
        for tgt in t.facts:
            if tgt == src or tgt not in roster:
                continue
            graph.arcs[(src, tgt)] = graph.arcs.get((src, tgt), 0) + 1
    return graph


def build_follow_graph(
    edges: Iterable[tuple[str, str]], roster: dict[str, str]
) -> tuple[PracticeGraph, int]:
    """Unweighted following graph from an edge list; returns (graph, skipped).

    Edges with unknown endpoints or self-loops are skipped; repeats collapse
    to weight 1.
    """
    graph = PracticeGraph(roster)
    skipped = 0
    for src, tgt in edges:
        if src == tgt or src not in roster or tgt not in roster:
            skipped += 1
            continue
        graph.arcs[(src, tgt)] = 1
    return graph, skipped


def load_follow_edges(lines: Iterable[str]) -> tuple[list[tuple[str, str]], int]:
    """Parse a follow edge CSV with header ``source,target``; returns (edges, unparseable).

    A blank line is ignored; a row without two valid handles (``,`` included) is unparseable.
    """
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty follow edge list")
    if [h.strip().lower() for h in header[:2]] != ["source", "target"]:
        raise DataError(f"follow edges must start with header 'source,target', got {header!r}")
    edges = []
    unparseable = 0
    for row in reader:
        if len(row) < 2 and not "".join(row).strip():
            continue
        try:
            edges.append((normalize_handle(row[0]), normalize_handle(row[1])))
        except (ValueError, IndexError):
            unparseable += 1
    return edges, unparseable


@dataclass
class GroupNetworkStats:
    group: str
    nodes: int
    density: Optional[float]
    k_out: Optional[float]
    k_in: Optional[float]
    w_out: Optional[float]
    w_in: Optional[float]
    homophily: Optional[float]


def group_stats(graph: PracticeGraph) -> list[GroupNetworkStats]:
    """Stats rows for every group (sorted) followed by the TOTAL scope.

    One walk over the arcs tallies every group at once, the active nodes and
    each sender's out-weight.  Homophily means add with ``math.fsum``.
    """
    group_of = graph.group_of
    groups = sorted(set(group_of.values()))
    # per group: [nodes, arcs inside, k_out, k_in, w_out, w_in]; degrees and
    # weights count arcs to or from any node, not only arcs inside the group
    tally = {group: [0, 0, 0, 0, 0, 0] for group in groups}
    active: set[str] = set()
    sent: dict[str, list[int]] = {}  # sender: [same-group weight, out-weight]
    for (src, tgt), weight in graph.arcs.items():
        src_group, tgt_group = group_of[src], group_of[tgt]
        active.add(src)
        active.add(tgt)
        out = sent.setdefault(src, [0, 0])
        if src_group == tgt_group:
            tally[src_group][1] += 1
            out[0] += weight
        out[1] += weight
        tally[src_group][2] += 1
        tally[src_group][4] += weight
        tally[tgt_group][3] += 1
        tally[tgt_group][5] += weight
    for node in active:
        tally[group_of[node]][0] += 1
    shares = {node: same / total for node, (same, total) in sent.items()}
    hom: dict[str, list[float]] = {group: [] for group in groups}
    for node, h in shares.items():
        hom[group_of[node]].append(h)
    arcs, weight = len(graph.arcs), sum(t[4] for t in tally.values())
    scopes = [(group, tally[group], hom[group]) for group in groups]
    scopes.append(
        (TOTAL, [len(active), arcs, arcs, arcs, weight, weight], list(shares.values()))
    )
    rows = []
    for scope, (n, inside, k_out, k_in, w_out, w_in), values in scopes:
        means = [v / n for v in (k_out, k_in, w_out, w_in)] if n else [None] * 4
        density = inside / (n * (n - 1)) if n >= 2 else None
        homophily = math.fsum(values) / len(values) if values else None
        rows.append(GroupNetworkStats(scope, n, density, *means, homophily))
    return rows


def write_stats_csv(stats: list[GroupNetworkStats], practice: str, path) -> int:
    return write_csv(
        path,
        ["practice", "group", "nodes", "density", "k_out", "k_in", "w_out", "w_in", "homophily"],
        (
            [practice, s.group, s.nodes]
            + [fmt(v) for v in (s.density, s.k_out, s.k_in, s.w_out, s.w_in, s.homophily)]
            for s in stats
        ),
    )


def write_edges_csv(graph: PracticeGraph, path) -> int:
    """Export arcs as ``source,target,weight,source_group,target_group``."""
    group_of = graph.group_of
    return write_csv(
        path,
        ["source", "target", "weight", "source_group", "target_group"],
        (
            (src, tgt, graph.arcs[src, tgt], group_of[src], group_of[tgt])
            for src, tgt in sorted(graph.arcs)  # keys, not items: no new pair per arc
        ),
    )
