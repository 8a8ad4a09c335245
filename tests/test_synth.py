"""Synthetic stream generator: mechanisms and stream contract."""

from __future__ import annotations

import math
import random

import pytest

from culturestream.binning import WindowSpec, bin_transactions
from culturestream.corpus import load_corpus, load_roster, write_transactions_jsonl
from culturestream.network import TOTAL, build_graph, group_stats
from culturestream.synth import (
    POISSON_PART,
    BurstInjection,
    SynthConfig,
    generate,
    poisson,
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

    def test_practice_restriction(self):
        txs, _ = generate(_config(practices=("mentioning",)))
        assert {t.practice for t in txs} == {"mentioning"}


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
