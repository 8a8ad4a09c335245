#!/usr/bin/env python3
"""Regenerate the bundled demo fixture (corpus + roster + follow edges + config).

The fixture is a fully synthetic 13-week stream over three groups with a
single 5x burst injected into window 7, plus a deterministic follow network.
Everything is seeded, so rerunning this script reproduces the files byte for
byte.  Run from the repository root:

    python3 scripts/make_demo_fixture.py [--out-dir fixtures]
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

from culturestream.corpus import write_transactions_jsonl
from culturestream.synth import (
    BurstInjection,
    SynthConfig,
    draw_target,
    generate,
    target_pools,
    write_roster_csv,
)

EPOCH = "2013-07-20T00:00:00Z"
SEED = 42
FOLLOW_SEED = 4242


def make_stream_config() -> SynthConfig:
    return SynthConfig(
        groups=[("blue", 12), ("gold", 12), ("red", 12)],
        windows=13,
        rate=4.0,
        alpha=0.05,
        hom=0.7,
        seed=SEED,
        burst_injections=[BurstInjection("storm", 7, 7, 5.0)],
        warmup_facts=12,
        warmup_tokens=40,
        epoch=EPOCH,
    )


def make_follow_edges(roster: dict[str, str], per_member: int = 6, hom: float = 0.7):
    """Deterministic follow edges, each target drawn as the stream draws one.

    A member follows ``per_member`` others, or every other member of a smaller
    roster; a draw with no one to pick is skipped.
    """
    rng = random.Random(FOLLOW_SEED)
    pools = target_pools(roster)
    wanted = min(per_member, len(roster) - 1)
    edges = []
    for member in roster:
        targets = set()
        while len(targets) < wanted:
            target = draw_target(rng, pools[member], hom)
            if target is not None:
                targets.add(target)
        edges += ((member, target) for target in targets)
    return sorted(edges)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("fixtures"))
    args = parser.parse_args()
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)

    config = make_stream_config()
    transactions, roster = generate(config)
    write_transactions_jsonl(transactions, out / "demo_corpus.jsonl")
    write_roster_csv(roster, out / "demo_roster.csv")

    with open(out / "demo_follow.csv", "w", encoding="utf-8") as fh:
        fh.write("source,target\n")
        for src, tgt in make_follow_edges(roster):
            fh.write(f"{src},{tgt}\n")

    (out / "demo.cfg").write_text(
        "# Demo run over the bundled synthetic fixture.\n"
        "# Pass an output directory on the command line:\n"
        "#   culturestream report --config fixtures/demo.cfg --out runs/demo\n"
        "corpus = demo_corpus.jsonl\n"
        "roster = demo_roster.csv\n"
        "follow_edges = demo_follow.csv\n"
        f"epoch = {EPOCH}\n"
        "weeks = 13\n"
        "rbo_p = 0.9\n"
        "inst_variant = literal\n"
        "markers = 7:injected-burst\n",
        encoding="utf-8",
    )

    print(f"wrote {len(transactions)} transactions, {len(roster)} members to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
