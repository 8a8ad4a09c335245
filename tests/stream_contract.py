"""The stream contract that every emitted transaction must meet.

Tests run ``validate_transactions`` over what ``load_corpus`` and ``synth``
emit; the tool itself never calls it.
"""

from __future__ import annotations

from typing import Iterable

from culturestream.corpus import PRACTICES, Transaction


def validate_transactions(
    transactions: Iterable[Transaction],
    roster: dict[str, str],
    window: tuple[float, float],
) -> list[str]:
    """Check every emitted transaction against the stream contract.

    Returns a list of violation messages (empty when the stream is clean).
    """
    start, end = window
    violations = []
    rt_by_id: dict[str, set[str]] = {}
    mention_by_id: dict[str, set[str]] = {}

    for t in transactions:
        where = f"transaction {t.id}/{t.practice}"
        if not t.facts:
            violations.append(f"{where}: empty facts")
        if t.author not in roster:
            violations.append(f"{where}: author not in roster")
        if not (start <= t.timestamp < end):
            violations.append(f"{where}: timestamp outside window")
        if t.practice not in PRACTICES:
            violations.append(f"{where}: unknown practice")
        for key in t.facts:
            if not key or key != key.lower() or key.startswith(("#", "@")):
                violations.append(f"{where}: unnormalized fact key {key!r}")
        if len(set(t.facts)) != len(t.facts):
            violations.append(f"{where}: duplicate facts within transaction")
        if t.practice == "retweeting":
            rt_by_id.setdefault(t.id, set()).update(t.facts)
        elif t.practice == "mentioning":
            mention_by_id.setdefault(t.id, set()).update(t.facts)

    for rec_id, rts in rt_by_id.items():
        overlap = rts & mention_by_id.get(rec_id, set())
        if overlap:
            violations.append(
                f"record {rec_id}: {sorted(overlap)} counted as both retweetee and mentionee"
            )
    return violations
