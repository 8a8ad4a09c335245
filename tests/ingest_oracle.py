"""Reference ingest that ``load_corpus`` must agree with.

The straightforward form of ``culturestream.corpus.load_corpus``: every line
is parsed with ``json.loads``, a raw record's facts come from
``extract_oracle.extract_facts``, a pre-extracted record's keys are cleaned
one at a time, and the duplicate rule keeps, per id, the set of practices
seen under it.  It reaches ``culturestream`` only through public ``corpus``
names.  Tests compare the production function with this one; the tool never
calls it.
"""

from __future__ import annotations

import codecs
import json

import extract_oracle
from culturestream.corpus import (
    PRACTICES,
    IngestResult,
    Transaction,
    fold_hashtag,
    normalize_handle,
    parse_timestamp,
)

RAW = "raw"  # the slot a raw record takes, beside one per practice


def _clean_keys(practice, keys, roster, restrict_to_roster):
    cleaned = []
    for raw in keys:
        if not isinstance(raw, str):
            continue
        if practice == "tagging":
            key = fold_hashtag(raw.lstrip("#"))
            if not key:
                continue
        else:
            try:
                key = normalize_handle(raw)
            except ValueError:
                continue
            if restrict_to_roster and key not in roster:
                continue
        if key not in cleaned:
            cleaned.append(key)
    return cleaned


def load_corpus(lines, roster, window, restrict_to_roster=True, include_retweet_hashtags=True):
    start, end = window
    result = IngestResult()
    seen: dict[str, set] = {}  # id -> slots taken: RAW, a practice, or None (not a practice)

    for line_no, line in enumerate(lines, 1):
        stripped = line.strip().removeprefix(codecs.BOM_UTF8)
        if not stripped:
            continue
        result.records_read += 1
        try:
            rec = json.loads(stripped.decode("utf-8"))
            if not isinstance(rec, dict):
                raise ValueError("record is not an object")
            rec_id, user = rec["id"], rec["user"]
            if type(rec_id) not in (str, int):
                raise ValueError(f"id must be a string or an integer, got {rec_id!r}")
            if not isinstance(user, str):
                raise ValueError(f"user must be a string, got {user!r}")
            rec_id = str(rec_id)
            author = normalize_handle(user)
            ts = parse_timestamp(rec["timestamp"])
        except KeyError as exc:
            result.malformed(line_no, f"missing field {exc}")
            continue
        except (ValueError, RecursionError) as exc:
            result.malformed(line_no, str(exc))
            continue

        slots = seen.setdefault(rec_id, set())
        pre_extracted = "practice" in rec or "facts" in rec
        if pre_extracted:
            practice = rec.get("practice")
            slot = practice if practice in PRACTICES else None
            if RAW in slots or slot in slots:
                result.skipped["duplicate_id"] += 1
                continue
            slots.add(slot)
        else:
            if slots:
                result.skipped["duplicate_id"] += 1
                continue
            slots.add(RAW)

        if author not in roster:
            result.skipped["unknown_author"] += 1
            continue
        if not start <= ts < end:
            result.skipped["outside_window"] += 1
            continue

        if pre_extracted:
            facts = rec.get("facts")
            if slot is None or not isinstance(facts, list):
                result.malformed(line_no, "bad practice/facts fields")
                continue
            keys_by_practice = {slot: _clean_keys(slot, facts, roster, restrict_to_roster)}
        else:
            text = rec.get("text")
            if not isinstance(text, str):
                result.malformed(line_no, "missing text field")
                continue
            keys_by_practice = extract_oracle.extract_facts(
                text, roster, restrict_to_roster, include_retweet_hashtags)

        emitted = [Transaction(rec_id, author, ts, practice, tuple(keys))
                   for practice, keys in keys_by_practice.items() if keys]
        if emitted:
            result.transactions.extend(emitted)
        else:
            result.skipped["no_facts"] += 1

    return result
