#!/usr/bin/env python3
"""Measure how reliably an injected burst is recovered by the fact measures.

For each seed, generate a tagging stream with a single 5x injection in
window 7, run burst detection, and record whether the injected fact's
strongest episode (a) overlaps window 7 and (b) carries its group's maximal
normalized weight, for every group.  Prints the success rate and a breakdown
of failure modes.

    python3 scripts/burst_recovery.py [--seeds 100] [--rate 15] [--multiplier 5]
"""

from __future__ import annotations

import argparse
import time
from collections import Counter

from culturestream.binning import WindowSpec, bin_transactions
from culturestream.facts import fact_measures
from culturestream.synth import BurstInjection, SynthConfig, generate

GROUPS = [("A", 15), ("B", 15)]
WINDOW = 7


def classify(seed: int, rate: float, multiplier: float) -> str:
    config = SynthConfig(
        groups=GROUPS,
        windows=13,
        rate=rate,
        alpha=0.02,
        hom=0.5,
        seed=seed,
        burst_injections=[BurstInjection("storm", WINDOW, WINDOW, multiplier)],
        warmup_facts=15,
        warmup_tokens=40,
        practices=("tagging",),
    )
    transactions, roster = generate(config)
    spec = WindowSpec(epoch=config.epoch, count=config.windows, width=config.width)
    vectors, _ = bin_transactions(transactions, spec, roster)
    rows = fact_measures(vectors, spec, [g for g, _ in GROUPS], "tagging")
    for group, _ in GROUPS:
        episodes = [
            r for r in rows
            if r.group == group and r.fact == "storm" and r.onset is not None
        ]
        if not episodes:
            return "no-episode"
        best = max(episodes, key=lambda r: r.burstiness)
        if not (best.onset <= WINDOW <= best.end):
            return "off-window"
        if best.burstiness != 1.0:
            return "not-strongest"
    return "recovered"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--rate", type=float, default=15.0)
    parser.add_argument("--multiplier", type=float, default=5.0)
    args = parser.parse_args()

    started = time.time()
    outcomes = Counter(classify(seed, args.rate, args.multiplier) for seed in range(args.seeds))
    elapsed = time.time() - started

    recovered = outcomes.get("recovered", 0)
    print(f"recovered {recovered}/{args.seeds} seeds in {elapsed:.1f}s")
    for mode, count in sorted(outcomes.items()):
        if mode != "recovered":
            print(f"  {mode}: {count}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
