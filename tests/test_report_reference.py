"""Every CSV that ``report`` writes for a practice equals the reference, row for row.

The transactions come from ``load_corpus`` with the run's own settings; from
there on, each artifact is rebuilt by ``reference_report``: the culture
vectors, the four series and their AVERAGE rows, the facts table, and each
graph's statistics and arcs, the following graph included.  Counts, keys and
row order must match exactly, and a float must match what ``%.10g`` keeps:
within 1e-9 relative to max(1, |x|).  ``ingest_report.csv`` is ingest's own
table, pinned by the golden digests.
"""

from __future__ import annotations

import csv

import pytest

import reference_report
from culturestream.corpus import USER_PRACTICES, load_corpus, load_roster
from culturestream.measures import AVERAGE, MEASURES
from culturestream.network import load_follow_edges
from culturestream.pipeline import build_run_config, parse_config_file, run_pipeline
from test_golden import _write_raw_inputs


def _same(cell: str, want) -> bool:
    if want is None:
        return cell == ""
    if isinstance(want, float):
        return cell != "" and abs(float(cell) - want) <= 1e-9 * max(1.0, abs(want))
    return cell == str(want)


def _assert_rows(path, want) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))[1:]
    assert len(got) == len(want), path.name
    for i, (row, ref) in enumerate(zip(got, want)):
        assert len(row) == len(ref) and all(map(_same, row, ref)), (path.name, i, row, ref)


def _expected(config) -> dict[str, list]:
    """The reference rows of every practice artifact, by file name."""
    with open(config.roster, encoding="utf-8-sig") as fh:
        roster = load_roster(fh)
    end = config.epoch + config.count * config.width
    with open(config.corpus, "rb") as fh:
        transactions = load_corpus(
            fh, roster, (config.epoch, end),
            restrict_to_roster=config.restrict_to_roster,
            include_retweet_hashtags=config.include_retweet_hashtags,
        ).transactions
    cells = reference_report.bin_cells(
        transactions, config.epoch, config.width, config.count, roster
    )
    groups = sorted(set(roster.values()))
    expected = {}
    graphs = {}
    for practice in config.practices:
        expected[f"vectors_{practice}.csv"] = reference_report.vector_rows(cells, practice)
        for measure in MEASURES:
            series = reference_report.series(
                cells, config.count, groups, practice, measure, config.rbo_p)
            expected[f"{measure}_{practice}.csv"] = [
                (group, w, value, None) for group in sorted(series) for w, value in series[group]
            ] + [(AVERAGE, *row) for row in reference_report.average(series)]
        expected[f"facts_{practice}.csv"] = reference_report.fact_rows(
            cells, config.count, groups, practice, config.inst_variant)
        if practice in USER_PRACTICES:
            graphs[practice] = (
                [(t.author, fact) for t in transactions if t.practice == practice
                 for fact in t.facts],
                True,
            )
    if config.follow_edges is not None:
        with open(config.follow_edges, encoding="utf-8-sig") as fh:
            graphs["following"] = (load_follow_edges(fh)[0], False)
    for practice, (references, weighted) in graphs.items():
        expected[f"network_{practice}.csv"] = [
            (practice, *row) for row in reference_report.network_rows(roster, references, weighted)
        ]
        arcs = reference_report.graph_arcs(roster, references, weighted)
        expected[f"edges_{practice}.csv"] = [
            (src, tgt, arcs[src, tgt], roster[src], roster[tgt]) for src, tgt in sorted(arcs)
        ]
    return expected


def _demo_config(fixtures_dir, tmp_path):
    values = parse_config_file(fixtures_dir / "demo.cfg")
    return build_run_config(dict(values, out=str(tmp_path / "out")))


def _raw_config(fixtures_dir, tmp_path):
    """test_golden's raw-text corpus with every setting away from its default."""
    _write_raw_inputs(tmp_path)
    values = parse_config_file(tmp_path / "raw.cfg")
    return build_run_config(dict(values, out=str(tmp_path / "out")))


@pytest.mark.parametrize("make_config", [_demo_config, _raw_config], ids=["demo", "raw"])
def test_every_practice_artifact_equals_the_reference(make_config, fixtures_dir, tmp_path):
    config = make_config(fixtures_dir, tmp_path)
    manifest = run_pipeline(config)
    assert set(manifest["practices"].values()) == {"ok"}
    expected = _expected(config)
    assert set(manifest["artifacts"]) == set(expected) | {"ingest_report.csv"}
    for name, rows in expected.items():
        assert manifest["artifacts"][name] == len(rows), name
        _assert_rows(config.out_dir / name, rows)
