#!/usr/bin/env python3
"""Sweep the generator's homophily parameter and compare measured network H.

For each hom value, generate a single-practice stream, build the retweet
graph, and print measured TOTAL homophily next to the closed-form
expectation: with in-group probability hom and otherwise a uniform draw over
the roster minus the sender, a member of a group holding share s of the
remaining roster has E[H] = hom + (1 - hom) * s.

    python3 scripts/homophily_sweep.py [--members 100] [--steps 11] [--seed 5]
"""

from __future__ import annotations

import argparse

from culturestream.network import build_graph, group_stats
from culturestream.synth import SynthConfig, generate


def run_point(hom: float, members: int, seed: int) -> tuple[float, float, int]:
    config = SynthConfig(
        groups=[("A", members), ("B", members)],
        windows=4,
        rate=25.0,
        alpha=0.1,
        hom=hom,
        seed=seed,
        practices=("retweeting",),
    )
    transactions, roster = generate(config)
    graph = build_graph(transactions, "retweeting", roster)
    share = (members - 1) / (2 * members - 1)
    expected = hom + (1.0 - hom) * share
    total = group_stats(graph)[-1]  # the TOTAL scope comes after the groups
    return total.homophily, expected, sum(graph.arcs.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--members", type=int, default=100, help="members per group")
    parser.add_argument("--steps", type=int, default=11, help="hom grid points in [0,1]")
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    print(f"{'hom':>5}  {'measured H':>10}  {'expected H':>10}  {'diff':>8}  {'weight':>7}")
    previous = None
    for i in range(args.steps):
        hom = i / (args.steps - 1) if args.steps > 1 else 0.0
        measured, expected, weight = run_point(hom, args.members, args.seed + i)
        print(f"{hom:5.2f}  {measured:10.5f}  {expected:10.5f}  {abs(measured - expected):8.5f}  {weight:7d}")
        if previous is not None and measured < previous - 0.03:
            print("  warning: measured H decreased beyond sampling tolerance")
        previous = measured
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
