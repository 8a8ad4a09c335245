"""Synthetic stream generator: mechanisms and stream contract."""

from __future__ import annotations

import math
import os
import random
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import culturestream
from culturestream.binning import WindowSpec, bin_transactions
from culturestream.corpus import load_corpus, load_roster, write_transactions_jsonl
from culturestream.network import TOTAL, build_graph, group_stats
from culturestream.synth import (
    POISSON_PART,
    BurstInjection,
    SynthConfig,
    draw_target,
    generate,
    poisson,
    target_pools,
    write_roster_csv,
)
from stream_contract import validate_transactions


def _config(**overrides):
    base = dict(
        groups=[("A", 5), ("B", 5)],
        windows=3,
        rate=2.0,
        alpha=0.2,
        hom=0.5,
        seed=7,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestConfig:
    def test_roster_naming(self):
        roster = _config(groups=[("A", 2), ("B", 1)]).roster()
        assert roster == {"a000": "A", "a001": "A", "b000": "B"}

    @pytest.mark.parametrize(
        "bad",
        [
            dict(alpha=0.0),
            dict(alpha=1.5),
            dict(hom=-0.1),
            dict(hom=1.1),
            dict(windows=0),
            dict(rate=-1.0),
            dict(warmup_facts=-1),
            dict(warmup_tokens=0),
            dict(practices=()),
            dict(practices=("tagging", "blogging")),
            dict(width=float("nan")),
            dict(width=float("inf")),
            dict(width=0.0),
            dict(width=-5.0),
            dict(rate=float("nan")),
            dict(rate=float("inf")),
            dict(burst_injections=[BurstInjection("storm", 5, 9, 3.0)]),
            dict(burst_injections=[BurstInjection("storm", 0, 1, 3.0)]),
            dict(burst_injections=[BurstInjection("storm", 3, 2, 3.0)]),
            dict(groups=[("", 2), ("B", 2)]),
            dict(groups=[("a b", 2)]),
            dict(groups=[("@a", 2)]),
            dict(groups=[("TOTAL", 2), ("B", 2)]),
            dict(groups=[("AVERAGE", 2)]),
            dict(groups=[("a", 2), ("A", 2)]),
            dict(groups=[("A", -3)]),
            dict(groups=[("A", 0)]),
        ],
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            _config(**bad)

    def test_injection_active_bounds(self):
        inj = BurstInjection("storm", 3, 5, 2.0)
        assert not inj.active(2)
        assert inj.active(3) and inj.active(5)
        assert not inj.active(6)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        t1, r1 = generate(_config())
        t2, r2 = generate(_config())
        assert t1 == t2
        assert r1 == r2

    def test_different_seed_different_stream(self):
        t1, _ = generate(_config(seed=1))
        t2, _ = generate(_config(seed=2))
        assert t1 != t2


class TestPoisson:
    @pytest.mark.parametrize("rate", [0.3, 4.0, 25.0])
    def test_mean_and_variance(self, rate):
        n = 20_000
        rng = random.Random(11)
        draws = [poisson(rng, rate) for _ in range(n)]
        mean = sum(draws) / n
        variance = sum((x - mean) ** 2 for x in draws) / (n - 1)
        # five standard errors of each estimate; a Poisson count has mean and
        # variance equal to its rate, and fourth central moment rate * (1 + 3 * rate)
        assert abs(mean - rate) < 5 * math.sqrt(rate / n)
        assert abs(variance - rate) < 5 * math.sqrt((rate + 2 * rate * rate) / n)

    def test_rate_above_the_split_has_the_right_mean(self):
        rate, windows = 1200.0, 20
        assert rate > POISSON_PART
        config = _config(groups=[("A", 1)], windows=windows, rate=rate, practices=("tagging",))
        txs, _ = generate(config)
        # one member and one practice: one count per window
        assert abs(len(txs) / windows - rate) < 5 * math.sqrt(rate / windows)

    def test_largest_uniform_ends_the_draw(self):
        # at rate 4 the summed probabilities stop at 1 - 3 * 2**-53, below the
        # largest value random() returns
        class Top:
            def random(self):
                return 1.0 - 2.0**-53

        assert 4 < poisson(Top(), 4.0) < 50

    def test_zero_rate_gives_an_empty_stream(self):
        assert poisson(random.Random(0), 0.0) == 0
        assert generate(_config(rate=0.0)) == ([], _config().roster())


class TestMechanisms:
    def test_alpha_one_makes_every_hashtag_fresh(self):
        txs, _ = generate(_config(alpha=1.0, practices=("tagging",), rate=5.0))
        keys = [t.facts[0] for t in txs]
        assert len(keys) == len(set(keys))
        assert all(k.startswith("h") for k in keys)

    def test_low_alpha_reuses_existing_facts(self):
        txs, _ = generate(_config(alpha=0.05, practices=("tagging",), rate=10.0))
        keys = [t.facts[0] for t in txs]
        assert len(set(keys)) < len(keys) / 2

    def test_full_homophily_never_crosses_groups(self):
        config = _config(hom=1.0, practices=("retweeting", "mentioning"), rate=5.0)
        txs, roster = generate(config)
        assert txs
        for t in txs:
            assert roster[t.facts[0]] == roster[t.author]
            assert t.facts[0] != t.author
        graph = build_graph(txs, "retweeting", roster)
        total = group_stats(graph)[-1]
        assert (total.group, total.homophily) == (TOTAL, 1.0)

    def test_targets_never_self(self):
        txs, _ = generate(_config(hom=0.0, practices=("retweeting",), rate=5.0))
        assert txs
        for t in txs:
            assert t.facts[0] != t.author

    def test_warmup_facts_enter_circulation(self):
        config = _config(
            alpha=0.01, practices=("tagging",), rate=20.0, warmup_facts=5, warmup_tokens=10
        )
        txs, _ = generate(config)
        keys = {t.facts[0] for t in txs}
        assert any(k.startswith("w") for k in keys)

    def test_injection_dominates_its_window(self):
        config = _config(
            practices=("tagging",),
            rate=20.0,
            alpha=0.02,
            windows=3,
            warmup_facts=5,
            warmup_tokens=10,
            burst_injections=[BurstInjection("storm", 2, 2, 1000.0)],
        )
        txs, _ = generate(config)
        spec = WindowSpec(epoch=0.0, count=3)
        per_window = {w: [0, 0] for w in (1, 2, 3)}  # [storm, total]
        for t in txs:
            w = spec.index_of(t.timestamp)
            per_window[w][1] += 1
            if t.facts[0] == "storm":
                per_window[w][0] += 1
        assert per_window[2][0] > per_window[2][1] / 2
        assert per_window[2][0] > per_window[1][0]
        assert per_window[2][0] > per_window[3][0]

    def test_two_injections_in_one_window_are_both_drawn(self):
        config = _config(
            practices=("tagging",),
            rate=20.0,
            alpha=0.02,
            windows=3,
            warmup_facts=5,
            warmup_tokens=10,
            burst_injections=[BurstInjection("storm", 2, 2, 1000.0),
                              BurstInjection("squall", 2, 2, 1000.0)],
        )
        txs, roster = generate(config)
        spec = WindowSpec(epoch=0.0, count=3)
        drawn = {t.facts[0] for t in txs if spec.index_of(t.timestamp) == 2}
        assert {"storm", "squall"} <= drawn
        assert generate(config) == (txs, roster)

    def test_practice_restriction(self):
        txs, _ = generate(_config(practices=("mentioning",)))
        assert {t.practice for t in txs} == {"mentioning"}


class _CountingRandom(random.Random):
    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


def _reference_target(rng, member, roster, hom):
    """The draw spelled out with a fresh copy of each pool."""
    in_group = rng.random() < hom
    pool = [m for m in roster if m != member and (roster[m] == roster[member] or not in_group)]
    return pool[int(rng.random() * len(pool))] if pool else None


class TestTargets:
    def test_draws_match_the_spelled_out_rule(self):
        roster = _config(groups=[("A", 7), ("B", 3), ("C", 1)]).roster()
        pools = target_pools(roster)
        for seed, hom in enumerate((0.0, 0.5, 1.0)):
            ours, theirs = random.Random(seed), random.Random(seed)
            for member in roster:
                for _ in range(50):
                    assert (draw_target(ours, pools[member], hom)
                            == _reference_target(theirs, member, roster, hom))
            assert ours.getstate() == theirs.getstate()

    def test_a_pool_of_the_sender_alone_gives_none_after_one_draw(self):
        pools = target_pools({"a000": "A", "b000": "B"})
        rng = _CountingRandom(1)
        assert draw_target(rng, pools["a000"], 1.0) is None
        assert rng.calls == 1
        assert draw_target(rng, pools["a000"], 0.0) == "b000"
        lone = target_pools({"z000": "Z"})["z000"]
        for hom in (0.0, 1.0):
            rng = _CountingRandom(1)
            assert draw_target(rng, lone, hom) is None
            assert rng.calls == 1

    def test_stream_skips_a_draw_without_target(self):
        users = ("retweeting", "mentioning")
        txs, roster = generate(_config(groups=[("A", 1), ("B", 3)], hom=1.0, practices=users))
        assert txs and "a000" not in {t.author for t in txs}
        assert all(roster[t.facts[0]] == roster[t.author] != "A" for t in txs)
        assert generate(_config(groups=[("Z", 1)], rate=5.0, practices=users))[0] == []

    def test_pools_grow_linearly_with_the_roster(self):
        config = _config(groups=[("A", 2000), ("B", 2000)], windows=1, rate=0.0)
        tracemalloc.start()
        try:
            generate(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak


class TestDemoFixtureFollowEdges:
    """``scripts/make_demo_fixture.py`` draws follow targets as the stream does."""

    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_demo_fixture.py"

    def test_a_lone_member_follows_only_the_other_group(self):
        make_follow_edges = runpy.run_path(str(self.SCRIPT))["make_follow_edges"]
        roster = {"a000": "A", **{f"b{i:03d}": "B" for i in range(7)}}
        edges = make_follow_edges(roster)
        assert len(edges) == len(set(edges)) == 8 * 6
        assert all(source != target and target in roster for source, target in edges)

    def test_a_small_roster_follows_every_other_member(self):
        # Six targets cannot be found among two others: a subprocess, so that
        # a loop that never ends fails the test instead of hanging the suite.
        src = str(Path(culturestream.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        child = (
            "import runpy, sys\n"
            "edges = runpy.run_path(sys.argv[1])['make_follow_edges']("
            "{'a000': 'A', 'a001': 'A', 'b000': 'B'}, per_member=6)\n"
            "print(edges)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", child, str(self.SCRIPT)], timeout=30,
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath),
        )
        assert result.returncode == 0, result.stderr
        members = ("a000", "a001", "b000")
        assert result.stdout.strip() == repr([(s, t) for s in members for t in members if s != t])


class TestStreamContract:
    def test_timestamps_fit_the_window_grid(self):
        config = _config(epoch=1000.0, windows=4)
        txs, roster = generate(config)
        spec = WindowSpec(epoch=1000.0, count=4)
        _, dropped = bin_transactions(txs, spec, roster)
        assert dropped == 0
        for t in txs:
            assert 1000.0 <= t.timestamp < 1000.0 + 4 * config.width

    def test_round_trip_through_ingest(self, tmp_path):
        config = _config(rate=3.0)
        txs, roster = generate(config)
        corpus_path = tmp_path / "corpus.jsonl"
        roster_path = tmp_path / "roster.csv"
        write_transactions_jsonl(txs, corpus_path)
        write_roster_csv(roster, roster_path)

        with open(roster_path, encoding="utf-8") as fh:
            loaded_roster = load_roster(fh)
        assert loaded_roster == roster

        span = (config.epoch, config.epoch + config.windows * config.width)
        with open(corpus_path, "rb") as fh:
            result = load_corpus(fh, loaded_roster, span)
        assert result.skipped_total == 0
        assert result.malformed_lines == []
        assert validate_transactions(result.transactions, loaded_roster, span) == []
        assert result.transactions == txs
