"""Metamorphic relations of ``report``: corpus transforms with a known effect on every artifact.

- Line order: any order of a corpus's lines gives byte-identical CSVs, and a
  manifest that differs only in the corpus digest.  Focus, similarity and
  homophily add their terms with ``math.fsum``, so a printed value depends on
  the binned cells and arcs, not on the order in which they were first seen.
- Doubling: every record written twice, the copy under a fresh id, keeps
  every proportion and cosine and doubles every count.
- Epoch shift: on an integer grid, moving the epoch and every timestamp by
  whole windows changes no CSV.

Each flip case below holds one cell or graph in two line orders whose
in-order float sums print different values.
"""

from __future__ import annotations

import csv
import json
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from culturestream.corpus import PRACTICES, USER_PRACTICES
from culturestream.pipeline import build_run_config, run_pipeline

WIDTH = 100
TAGS = ("a", "b", "c", "d")


class Case(NamedTuple):
    roster: dict[str, str]
    weeks: int
    records: list[dict]  # one corpus line each, in file order
    follow: list[tuple[str, str]]
    order: list[int]  # the file order of the reordered corpus, as indices into records


@st.composite
def corpora(draw, clean: bool = False) -> Case:
    """1-4 groups of 1-3 members, 2-6 windows, raw and pre-extracted records with distinct ids.

    Unless ``clean``, a record may come from an author off the roster, fall
    outside the grid, reference a handle off the roster or carry no fact; a
    clean record always emits.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    roster = {f"u{g}{m}": f"g{g}" for g, size in enumerate(sizes) for m in range(size)}
    handles = sorted(roster) if clean else [*sorted(roster), "zed"]
    weeks = draw(st.integers(2, 6))
    span = weeks * WIDTH
    times = st.integers(0, span - 1) if clean else st.integers(-WIDTH // 2, span + WIDTH // 2)
    handle = st.sampled_from(handles)
    records = []
    for i in range(draw(st.integers(1, 30))):
        record = {"id": f"r{i}", "user": draw(handle), "timestamp": draw(times)}
        if draw(st.booleans()):
            practice = draw(st.sampled_from(PRACTICES))
            keys = st.sampled_from(TAGS) if practice == "tagging" else handle
            record.update(practice=practice, facts=draw(st.lists(keys, min_size=1, max_size=4)))
        else:
            retweet = draw(st.sampled_from(["", *(f"RT @{h}: " for h in handles)]))
            tokens = draw(st.lists(st.sampled_from(TAGS).map("#".__add__),
                                   min_size=int(clean), max_size=3))
            tokens += draw(st.lists(handle.map("@".__add__), max_size=2))
            record["text"] = retweet + " ".join(draw(st.permutations(tokens)))
        records.append(record)
    follow = draw(st.lists(st.tuples(handle, handle), max_size=6))
    return Case(roster, weeks, records, follow, draw(st.permutations(range(len(records)))))


def _flip_case(roster: dict[str, str], runs: list[tuple], order: list[int]) -> Case:
    """A one-window case from runs ``(user, practice, fact, n)``: n records of one fact each.

    The corpus holds the runs in the given order; the reordered corpus holds
    them in ``order``.  A record's id names its run and its place in it.
    """
    records, lines_of_run = [], []
    for user, practice, fact, n in runs:
        lines_of_run.append(range(len(records), len(records) + n))
        records += [{"id": f"{user}-{fact}-{k}", "user": user, "timestamp": 0,
                     "practice": practice, "facts": [fact]} for k in range(n)]
    return Case(roster, 2, records, [], [i for run in order for i in lines_of_run[run]])


# One group, one window, ten hashtags: the cell's entropy terms, added in
# first-seen order, print focus 0.008964033732 in the first order and
# 0.008964033733 in the second.
FLIP_FOCUS = _flip_case(
    {"u00": "g0"},
    [("u00", "tagging", f"t{i}", n)
     for i, n in enumerate([40, 32, 24, 27, 20, 23, 34, 35, 35, 31])],
    [7, 8, 1, 5, 3, 4, 2, 0, 9, 6],
)
# Four groups in one window: g0's cosines to g1, g2, g3 print 0.7066828549
# added in that order and 0.706682855 added in reverse.
FLIP_SIMILARITY = _flip_case(
    {f"u{g}0": f"g{g}" for g in range(4)},
    [(f"u{g}0", "tagging", f"f{j}", n)
     for g, counts in enumerate([[4, 3, 6, 0], [7, 4, 3, 0], [6, 4, 6, 5], [3, 0, 1, 5]])
     for j, n in enumerate(counts) if n],
    [10, 11, 12, 6, 7, 8, 9, 3, 4, 5, 0, 1, 2],
)
# Four senders in g0 mention one g0 member and one g1 member: their
# homophily shares 1/58, 22/91, 22/53 and 47/57 print a mean of 0.3746638411
# added in this order and 0.374663841 with the senders first seen as 1, 3, 0, 2.
_SHARES = [(1, 58), (22, 91), (22, 53), (47, 57)]
FLIP_HOMOPHILY = _flip_case(
    {**{f"s{i}": "g0" for i in range(4)}, "inside": "g0", "outside": "g1"},
    [(f"s{i}", "mentioning", target, n)
     for i, (same, total) in enumerate(_SHARES)
     for target, n in (("inside", same), ("outside", total - same))],
    [2, 3, 6, 7, 0, 1, 4, 5],
)


def _report(directory: Path, case: Case, records: list[dict], out: str,
            epoch: int = 0) -> dict[str, bytes]:
    """Run ``report`` over ``records`` with the case's roster and follow list; bytes by file."""
    (directory / "roster.csv").write_text(
        "user,group\n" + "".join(f"{u},{g}\n" for u, g in case.roster.items()), encoding="utf-8"
    )
    (directory / "follow.csv").write_text(
        "source,target\n" + "".join(f"{s},{t}\n" for s, t in case.follow), encoding="utf-8"
    )
    (directory / "corpus.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    run_pipeline(build_run_config({
        "corpus": str(directory / "corpus.jsonl"),
        "roster": str(directory / "roster.csv"),
        "follow_edges": str(directory / "follow.csv"),
        "out": str(directory / out),
        "epoch": str(epoch),
        "weeks": str(case.weeks),
        "width_seconds": str(WIDTH),
    }))
    return {p.name: p.read_bytes() for p in sorted((directory / out).iterdir())}


def _reports(case: Case, *variants: tuple[list[dict], int]) -> list[dict[str, bytes]]:
    """One run per (records, epoch), all from the same input paths."""
    with tempfile.TemporaryDirectory() as tmp:
        return [_report(Path(tmp), case, records, f"out{i}", epoch)
                for i, (records, epoch) in enumerate(variants)]


def _rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(data.decode("utf-8").splitlines()))


def _changed(before: dict[str, bytes], after: dict[str, bytes], names) -> list[str]:
    return [name for name in names if after[name] != before[name]]


@settings(max_examples=40, deadline=None)
@example(FLIP_FOCUS)
@example(FLIP_SIMILARITY)
@example(FLIP_HOMOPHILY)
@given(corpora())
def test_line_order_changes_no_csv(case):
    before, after = _reports(case, (case.records, 0), ([case.records[i] for i in case.order], 0))
    assert before.keys() == after.keys()
    assert _changed(before, after, [n for n in before if n.endswith(".csv")]) == []
    manifests = [json.loads(run["manifest.json"]) for run in (before, after)]
    for manifest in manifests:
        del manifest["inputs"]["corpus"]["sha256"]
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("case, name, row", [
    (FLIP_FOCUS, "focus_tagging.csv", "g0,1,0.008964033733,"),
    (FLIP_SIMILARITY, "similarity_tagging.csv", "g0,1,0.7066828549,"),
    (FLIP_HOMOPHILY, "network_mentioning.csv",
     "mentioning,TOTAL,6,0.2666666667,1.333333333,1.333333333,43.16666667,43.16666667,"
     "0.3746638411"),
], ids=["focus", "similarity", "homophily"])
def test_flip_cell_prints_its_correctly_rounded_value_in_both_orders(case, name, row):
    runs = _reports(case, (case.records, 0), ([case.records[i] for i in case.order], 0))
    for run in runs:
        assert row in run[name].decode("utf-8").splitlines()
    assert runs[0][name] == runs[1][name]


def _twice(records: list[dict]) -> list[dict]:
    """Every record followed by a copy under a fresh id."""
    return [copy for r in records for copy in (r, {**r, "id": r["id"] + "-copy"})]


@settings(max_examples=30, deadline=None)
@given(corpora(clean=True))
def test_doubling_keeps_proportions_and_doubles_counts(case):
    once, twice = _reports(case, (case.records, 0), (_twice(case.records), 0))
    same = ["ingest_report.csv", "network_following.csv", "edges_following.csv"]
    same += [f"{m}_{p}.csv" for m in ("focus", "similarity", "reproduction") for p in PRACTICES]
    assert _changed(once, twice, same) == []
    manifests = [json.loads(run["manifest.json"]) for run in (once, twice)]
    assert manifests[1]["ingest"]["records_read"] == 2 * manifests[0]["ingest"]["records_read"]

    def doubled(name: str, *columns: int) -> None:
        """The given columns double, a printed integer exactly; every other cell stays."""
        rows, rows2 = _rows(once[name]), _rows(twice[name])
        assert len(rows) == len(rows2), name
        for row, row2 in zip(rows[1:], rows2[1:]):
            for i, (cell, cell2) in enumerate(zip(row, row2)):
                if i not in columns or cell == "":
                    assert cell2 == cell, (name, row, row2)
                elif cell.isdigit():
                    assert int(cell2) == 2 * int(cell), (name, row, row2)
                else:  # each is doubled exactly, then printed to what %.10g keeps
                    assert abs(float(cell2) - 2 * float(cell)) <= 2e-9 * float(cell2), (name, row)

    for practice in PRACTICES:
        doubled(f"vectors_{practice}.csv", 5)  # count
        doubled(f"frequency_{practice}.csv", 2, 3)  # value, sd
    for practice in USER_PRACTICES:
        doubled(f"network_{practice}.csv", 6, 7)  # w_out, w_in
        doubled(f"edges_{practice}.csv", 2)  # weight


@settings(max_examples=30, deadline=None)
@given(corpora(), st.integers(-10**7, 10**7))
def test_whole_window_epoch_shift_changes_no_csv(case, windows):
    shift = windows * WIDTH
    moved = [{**r, "timestamp": r["timestamp"] + shift} for r in case.records]
    before, after = _reports(case, (case.records, 0), (moved, shift))
    assert _changed(before, after, [n for n in before if n.endswith(".csv")]) == []
