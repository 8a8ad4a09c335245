"""Acceptance gate: bounds, oracles, recovery, conservation, determinism.

Eight checks, each self-contained with its tolerance pinned next to the
assertion and its expectation derived independently of the implementation
(hand arithmetic, exhaustive search, or direct recounts of the inputs).
"""

from __future__ import annotations

import math
import random
import time

import pytest

from culturestream.binning import WindowSpec, bin_transactions, rank_vector
from culturestream.corpus import load_corpus, load_roster
from culturestream.facts import burst_episodes, fact_measures, institutionness_value
from culturestream.measures import focus, rbo_extended
from culturestream.network import (
    TOTAL,
    build_follow_graph,
    build_graph,
    group_stats,
    load_follow_edges,
)
from culturestream.pipeline import build_run_config, parse_config_file, run_pipeline
from culturestream.synth import BurstInjection, SynthConfig, generate
from reference_report import brute_force_institutionness, improvement_closed_form, sparse
from test_measures import two_group_similarity


# --- 1. measure bounds and identities on randomized vectors ----------------

def test_measure_bounds_and_identities_on_random_vectors():
    rng = random.Random(20130922)
    started = time.monotonic()
    vectors = []
    for _ in range(1000):
        size = rng.randint(1, 20)
        keys = rng.sample([f"f{i:03d}" for i in range(200)], size)
        vectors.append({k: rng.randint(1, 100) for k in keys})

    for vec in vectors:
        assert 0.0 <= focus(vec) <= 1.0
    for left, right in zip(vectors, vectors[1:]):
        assert all(0.0 <= s <= 1.0 + 1e-12 for s in two_group_similarity(left, right))
        r = rbo_extended(
            rank_vector(left),
            rank_vector(right),
            0.9,
        )
        assert 0.0 <= r <= 1.0 + 1e-12

    assert focus({"only": 17}) == 1.0
    assert focus({"a": 4, "b": 4, "c": 4, "d": 4}) == pytest.approx(0.0, abs=1e-12)
    some = vectors[0]
    assert two_group_similarity(some, some) == pytest.approx((1.0, 1.0), abs=1e-12)
    keys = rank_vector(some)
    assert rbo_extended(keys, keys, 0.9) == pytest.approx(1.0, abs=1e-12)
    assert rbo_extended(["a", "b"], ["c", "d"], 0.9) == 0.0

    assert time.monotonic() - started < 10.0


# --- 2. derived oracles at pinned tolerances -------------------------------

def test_focus_oracle():
    # 1 - H(3/4, 1/4)/log2(2), evaluated with plain arithmetic
    expected = 1.0 - (-(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)))
    assert focus({"a": 3, "b": 1}) == pytest.approx(expected, abs=1e-12)
    assert focus({"a": 3, "b": 1}) == pytest.approx(0.1887, abs=1e-4)


def test_similarity_oracle():
    # dot = 1, norms sqrt(2) and 1; with no third group each side scores the cosine
    for value in two_group_similarity({"a": 1, "b": 1}, {"a": 1}):
        assert value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert value == pytest.approx(0.7071, abs=1e-4)


def test_reproduction_oracle():
    assert rbo_extended(["a", "b"], ["b", "a"], 0.9) == pytest.approx(0.90, abs=1e-6)


def test_burst_improvement_oracle_via_both_routes():
    r, d = [1, 5], [10, 10]
    # base rate 6/20 doubled to 12/20; the binomial coefficients cancel,
    # leaving 5*ln 2 + 5*ln(4/7) at the spike window
    expected = 5.0 * math.log(2.0) + 5.0 * math.log(4.0 / 7.0)
    [(onset, end, via_log_gamma)] = burst_episodes(sparse(r), d)
    assert (onset, end) == (2, 2)
    via_closed_form = improvement_closed_form(r, d)[1]
    assert via_log_gamma == pytest.approx(expected, abs=1e-12)
    assert via_closed_form == pytest.approx(expected, abs=1e-12)
    assert via_log_gamma == pytest.approx(0.6675, abs=1e-3)
    assert via_closed_form == pytest.approx(0.6675, abs=1e-3)


# --- 3. institutionness scan equals exhaustive search ----------------------

def test_institutionness_scan_matches_exhaustive_search():
    rng = random.Random(1374364800)
    mismatches = 0
    for _ in range(500):
        r = [rng.randint(0, 50) for _ in range(13)]
        h0 = [
            None if rng.random() < 0.08 else rng.uniform(0.2, 8.0)
            for _ in range(13)
        ]
        for variant in ("literal", "normalized"):
            if institutionness_value(sparse(r), h0, variant) != brute_force_institutionness(
                r, h0, variant
            ):
                mismatches += 1
    assert mismatches == 0


# --- 4. injected bursts are recovered across seeds -------------------------

def test_injected_burst_recovered_across_seeds():
    started = time.monotonic()
    spec = WindowSpec(epoch=0.0, count=13)
    recovered = 0
    for seed in range(100):
        config = SynthConfig(
            groups=[("A", 15), ("B", 15)],
            windows=13,
            rate=15.0,
            alpha=0.02,
            hom=0.5,
            seed=seed,
            burst_injections=[BurstInjection("storm", 7, 7, 5.0)],
            warmup_facts=15,
            warmup_tokens=40,
            practices=("tagging",),
        )
        transactions, _ = generate(config)
        vectors, _ = bin_transactions(transactions, spec)
        ok = True
        for group in ("A", "B"):
            rows = fact_measures(vectors, spec, [group], "tagging")
            episodes = [
                row for row in rows if row.fact == "storm" and row.onset is not None
            ]
            if not episodes:
                ok = False
                break
            best = max(episodes, key=lambda row: row.burstiness)
            if not (best.onset <= 7 <= best.end and best.burstiness == 1.0):
                ok = False
                break
        recovered += ok
    assert recovered >= 95, f"burst recovered in only {recovered}/100 seeds"
    assert time.monotonic() - started < 60.0


# --- 5. homophily mixing is recovered from the arc structure ---------------

@pytest.mark.parametrize("hom", [0.0, 0.5, 1.0])
def test_homophily_recovery(hom):
    config = SynthConfig(
        groups=[("A", 100), ("B", 100)],
        windows=4,
        rate=25.0,
        alpha=0.1,
        hom=hom,
        seed=int(hom * 10) + 5,
        practices=("retweeting",),
    )
    transactions, roster = generate(config)
    graph = build_graph(transactions, "retweeting", roster)
    total_weight = sum(graph.arcs.values())
    assert len(graph.arcs) >= 10_000
    assert total_weight >= 10_000

    measured = sum(
        weight
        for (src, tgt), weight in graph.arcs.items()
        if roster[src] == roster[tgt]
    ) / total_weight
    # the cross-group draw is uniform over the whole roster minus the
    # sender, so a (1 - hom) draw still lands in-group with probability
    # share = 99/199
    share = 99 / 199
    expected = hom + (1.0 - hom) * share
    assert measured == pytest.approx(expected, abs=0.03)
    if hom == 1.0:
        out_weight: dict[str, int] = {}
        for (src, _), w in graph.arcs.items():
            out_weight[src] = out_weight.get(src, 0) + w
        per_node = [
            w / out_weight[src]
            for (src, tgt), w in graph.arcs.items()
            if roster[src] == roster[tgt]
        ]
        assert measured == 1.0
        total = group_stats(graph)[-1]
        assert (total.group, total.homophily) == (TOTAL, 1.0)
        assert per_node  # in-group arcs exist


# --- 6. conservation between the stream, the vectors, and the graphs -------

def test_reference_conservation_on_bundled_fixture(fixtures_dir):
    with open(fixtures_dir / "demo_roster.csv", encoding="utf-8") as fh:
        roster = load_roster(fh)
    span = (1374278400.0, 1374278400.0 + 13 * 604800.0)
    with open(fixtures_dir / "demo_corpus.jsonl", "rb") as fh:
        ingest = load_corpus(fh, roster, span)
    spec = WindowSpec(epoch=span[0], count=13)

    vectors, dropped = bin_transactions(ingest.transactions, spec)
    emitted_pairs = sum(
        len(t.facts) for t in ingest.transactions if spec.index_of(t.timestamp) is not None
    )
    assert dropped == 0
    assert sum(sum(vec.values()) for vec in vectors.values()) == emitted_pairs

    def assert_conserved(graph, references):
        # each group row's mean weights times its node count sum back to the
        # stream's references, out-going and in-coming alike
        rows = [row for row in group_stats(graph) if row.group != TOTAL and row.nodes]
        for field in ("w_out", "w_in"):
            products = [getattr(row, field) * row.nodes for row in rows]
            assert all(abs(p - round(p)) < 1e-9 for p in products), (field, products)
            assert sum(round(p) for p in products) == references, field
        assert sum(graph.arcs.values()) == references

    for practice in ("retweeting", "mentioning"):
        graph = build_graph(ingest.transactions, practice, roster)
        references = sum(
            1
            for t in ingest.transactions
            if t.practice == practice
            for f in t.facts
            if f in roster and f != t.author
        )
        assert references > 0
        assert_conserved(graph, references)

    with open(fixtures_dir / "demo_follow.csv", encoding="utf-8") as fh:
        edges, unparseable = load_follow_edges(fh)
    assert unparseable == 0
    graph, _ = build_follow_graph(edges, roster)
    references = len({(src, tgt) for src, tgt in edges
                      if src != tgt and src in roster and tgt in roster})
    assert len(graph.arcs) == references > 0
    assert_conserved(graph, references)


# --- 7. byte-identical reruns ----------------------------------------------

def test_pipeline_runs_are_byte_identical(fixtures_dir, tmp_path):
    values = parse_config_file(fixtures_dir / "demo.cfg")
    outputs = []
    for name in ("first", "second"):
        run_values = dict(values, out=str(tmp_path / name))
        run_pipeline(build_run_config(run_values))
        outputs.append(tmp_path / name)
    first, second = outputs
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


# --- 8. structural anchor: the full artifact set over 13 weeks -------------

EXPECTED_ARTIFACTS = {
    "ingest_report.csv",
    "manifest.json",
    *{f"vectors_{p}.csv" for p in ("tagging", "retweeting", "mentioning")},
    *{
        f"{measure}_{p}.csv"
        for measure in ("focus", "similarity", "reproduction", "frequency")
        for p in ("tagging", "retweeting", "mentioning")
    },
    *{f"facts_{p}.csv" for p in ("tagging", "retweeting", "mentioning")},
    "network_retweeting.csv",
    "network_mentioning.csv",
    "network_following.csv",
    "edges_retweeting.csv",
    "edges_mentioning.csv",
    "edges_following.csv",
}


def test_thirteen_week_fixture_emits_exact_artifact_set(demo_run):
    out, manifest = demo_run
    assert {p.name for p in out.iterdir()} == EXPECTED_ARTIFACTS
    assert all(status == "ok" for status in manifest["practices"].values())

    for practice in ("tagging", "retweeting", "mentioning"):
        rows = (out / f"reproduction_{practice}.csv").read_text().splitlines()[1:]
        per_group: dict[str, list[str]] = {}
        for row in rows:
            group, window, _, _ = row.split(",")
            per_group.setdefault(group, []).append(window)
        for group, windows in per_group.items():
            assert len(windows) == 12, (practice, group)
            assert windows == [str(w) for w in range(2, 14)]

        fact_rows = (out / f"facts_{practice}.csv").read_text().splitlines()[1:]
        scores = [int(row.split(",")[3]) for row in fact_rows]
        assert scores, practice
        assert all(0 <= score <= 13 for score in scores)
