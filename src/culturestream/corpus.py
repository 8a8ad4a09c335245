"""Ingest raw communication records into a validated transaction stream.

A transaction is one communicative act: an author (who belongs to exactly one
group) referencing one or more facts through a practice.  Practices and the
fact kinds they reference:

    tagging    -> hashtag
    retweeting -> retweetee (a user handle)
    mentioning -> mentionee (a user handle)

Following is not a stream practice: that graph is read from the follow edge
list alone, so a corpus record claiming it is malformed.

Two line-delimited JSON record schemas are accepted (one object per line):

    raw:           {"id": ..., "user": ..., "timestamp": ..., "text": ...}
    pre-extracted: {"id": ..., "user": ..., "timestamp": ..., "practice": ...,
                    "facts": [...]}

Timestamps may be epoch seconds or ISO-8601 strings (naive times are read as
UTC).  Malformed lines are counted and reported, never fatal; a roster that
maps one user to two different groups is a hard error.
"""

from __future__ import annotations

import codecs
import csv
import json
import math
import re
import unicodedata
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import accumulate, takewhile
from json.encoder import encode_basestring_ascii
from typing import Container, Iterable, NamedTuple, Optional

from .errors import DataError

# The stream practices, in output order, and the fact kind each references.
KIND_FOR_PRACTICE = {"tagging": "hashtag", "retweeting": "retweetee", "mentioning": "mentionee"}
PRACTICES = tuple(KIND_FOR_PRACTICE)
# Practices whose facts are user handles: each also folds into a graph.
USER_PRACTICES = tuple(p for p in PRACTICES if p != "tagging")

# Canonical skip reasons, in report order.
SKIP_REASONS = ("malformed", "duplicate_id", "unknown_author", "outside_window", "no_facts")

# IngestResult.malformed_lines keeps the first this many, not one per bad line.
MALFORMED_SAMPLE = 20

# A line whose brackets nest deeper than this is malformed.  json's C scanner
# counts each level against the recursion limit from the caller's frame, so
# without a fixed limit the verdict would depend on the interpreter and the
# stack.  Every level opens with a bracket byte, so a line of at most this
# many bytes cannot exceed it.
MAX_NESTING = 512
# A JSON string, running to the end of the line if unclosed, or one bracket.
_NESTING_TOKEN_RE = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"?|([\[\]{}])', re.DOTALL)
_NESTING_STEP = {b"[": 1, b"{": 1, b"]": -1, b"}": -1, None: 0}

_HASHTAG_RE = re.compile(r"#(\w+)")
# "RT username" and "RT @username", optional trailing colon.  Only the marker
# ignores case, so a handle is ASCII here as in _MENTION_RE.
RT_RE = re.compile(r"\b(?i:RT)\s+@?([A-Za-z0-9_]+):?")
_MENTION_RE = re.compile(r"@([A-Za-z0-9_]+)")
_decode = json.JSONDecoder().raw_decode  # json.loads less its BOM and whitespace checks


class Transaction(NamedTuple):
    """One communicative act by an author, referencing one or more facts.

    A fact is its normalized key; its kind follows from the practice
    (``KIND_FOR_PRACTICE``).
    """

    id: str
    author: str
    timestamp: float
    practice: str
    facts: tuple[str, ...]


def normalize_handle(raw: str) -> str:
    """Canonical user handle: leading '@' stripped, lowercased.

    Raises ValueError for empty handles or handles containing whitespace.
    """
    handle = raw.strip().lstrip("@").lower()
    if not handle:
        raise ValueError("empty user handle")
    if handle.split() != [handle]:
        raise ValueError(f"whitespace in user handle: {raw!r}")
    return raw if raw == handle else handle


def fold_hashtag(token: str) -> str:
    """ASCII-fold and lowercase a hashtag token; may return ''."""
    if token.isascii():  # NFKD leaves ASCII as it is
        return token.lower()
    folded = unicodedata.normalize("NFKD", token).encode("ascii", "ignore").decode("ascii")
    return folded.lower()


def _facts_from_keys(practice: str, keys: Iterable, roster: Container[str],
                     restrict_to_roster: bool) -> list[str]:
    """A practice's keys as facts, in first-occurrence order: the one cleaning rule.

    Non-strings are dropped.  A hashtag loses its leading '#' and is folded by
    ``fold_hashtag``, a handle goes through ``normalize_handle`` unless it is a
    roster key, which is canonical already; an empty tag, a bad handle, an
    off-roster one under restrict_to_roster and a repeat are dropped.
    """
    cleaned = {}
    for raw in keys:
        if not isinstance(raw, str):
            continue
        if practice == "tagging":
            key = fold_hashtag(raw.lstrip("#"))
        else:
            try:
                key = raw if raw in roster else normalize_handle(raw)
            except ValueError:
                continue
            if restrict_to_roster and key not in roster:
                continue
        if key:
            cleaned[key] = None
    return [*cleaned]


def extract_facts(
    text: str,
    roster: Container[str],
    restrict_to_roster: bool = True,
    include_retweet_hashtags: bool = True,
) -> dict[str, list[str]]:
    """Extract per-practice fact keys from a raw message.

    Returns {"tagging": [...], "retweeting": [...], "mentioning": [...]}, each
    list cleaned by ``_facts_from_keys`` as pre-extracted facts are.

    A username captured by an RT pattern is a retweetee and is never also
    counted as a mentionee of the same message.  With restrict_to_roster,
    user-kind facts outside the roster are dropped (hashtags are never
    restricted).  With include_retweet_hashtags=False, hashtags at or after
    the first RT marker are dropped (the part before it is the author's own
    comment).
    """
    # Only ASCII letters match the marker's (?i:R) and (?i:T), so a text whose
    # lowercase form lacks "rt" has no marker.
    rt_matches = list(RT_RE.finditer(text)) if "rt" in text.lower() else []
    retweetees = [m[1] for m in rt_matches]
    mentionees = _MENTION_RE.findall(text) if "@" in text else []
    # The only "@" inside an RT span precedes its own handle, so dropping every
    # retweetee, before the roster may drop it, drops each mention read there.
    if retweetees and mentionees:
        dropped = set(map(normalize_handle, retweetees))
        mentionees = [u for u in mentionees if normalize_handle(u) not in dropped]

    if "#" not in text:
        tags = []
    elif rt_matches and not include_retweet_hashtags:
        # A hashtag is kept when it starts before the marker ("#RT @a" keeps "rt").
        cutoff = rt_matches[0].start()
        tags = [m[1] for m in takewhile(lambda m: m.start() < cutoff, _HASHTAG_RE.finditer(text))]
    else:
        tags = _HASHTAG_RE.findall(text)
    return {"tagging": _facts_from_keys("tagging", tags, roster, restrict_to_roster),
            "retweeting": _facts_from_keys("retweeting", retweetees, roster, restrict_to_roster),
            "mentioning": _facts_from_keys("mentioning", mentionees, roster, restrict_to_roster)}


def load_roster(lines: Iterable[str]) -> dict[str, str]:
    """Parse a roster CSV with header ``user,group`` into handle -> group.

    A user listed under two different groups is a hard error; exact repeats
    are tolerated.
    """
    reader = csv.reader(lines)
    roster: dict[str, str] = {}
    try:
        header = next(reader, None)
        if header is None:
            raise DataError("empty roster")
        if [h.strip().lower() for h in header[:2]] != ["user", "group"]:
            raise DataError(f"roster must start with header 'user,group', got {header!r}")
        for row_no, row in enumerate(reader, 2):
            if not row or not "".join(row).strip():
                continue
            if len(row) < 2:
                raise DataError(f"roster row {row_no}: expected 'user,group', got {row!r}")
            try:
                user = normalize_handle(row[0])
            except ValueError as exc:
                raise DataError(f"roster row {row_no}: {exc}") from None
            group = row[1].strip()
            if not group:
                raise DataError(f"roster row {row_no}: empty group for user {user!r}")
            if user in roster and roster[user] != group:
                raise DataError(
                    f"roster row {row_no}: user {user!r} mapped to both "
                    f"{roster[user]!r} and {group!r}"
                )
            roster[user] = group
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise DataError(f"roster row {reader.line_num}: {exc}") from None
    return roster


def parse_timestamp(value) -> float:
    """Finite epoch seconds from an int/float, a numeric string, or ISO-8601."""
    if type(value) in (int, float):
        try:
            seconds = float(value)
        except OverflowError:  # an int beyond the float range
            raise ValueError("timestamp out of range") from None
    elif isinstance(value, str):
        s = value.strip()
        try:
            seconds = float(s)
        except ValueError:
            if s.endswith(("Z", "z")):
                s = s[:-1] + "+00:00"
            dt = datetime.fromisoformat(s)
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=timezone.utc)
            seconds = dt.timestamp()
    else:
        raise ValueError(f"unparseable timestamp: {value!r}")
    if not math.isfinite(seconds):
        raise ValueError(f"non-finite timestamp: {value!r}")
    return seconds


@dataclass
class IngestResult:
    """Validated transactions plus an accounting of every skipped record.

    ``transactions`` is the sink that ``load_corpus`` was given: a list by default.
    """

    transactions: list[Transaction] = field(default_factory=list)
    records_read: int = 0
    skipped: dict[str, int] = field(default_factory=lambda: {r: 0 for r in SKIP_REASONS})
    malformed_lines: list[tuple[int, str]] = field(default_factory=list)

    @property
    def skipped_total(self) -> int:
        return sum(self.skipped.values())

    def malformed(self, line_no: int, reason: str) -> None:
        self.skipped["malformed"] += 1
        if len(self.malformed_lines) < MALFORMED_SAMPLE:
            self.malformed_lines.append((line_no, reason))


def _too_deep(line: bytes) -> bool:
    """Whether a line's brackets, outside strings, nest deeper than MAX_NESTING."""
    steps = (_NESTING_STEP[token[1]] for token in _NESTING_TOKEN_RE.finditer(line))
    return any(depth > MAX_NESTING for depth in accumulate(steps))


def load_corpus(
    lines: Iterable[bytes],
    roster: dict[str, str],
    window: tuple[float, float],
    restrict_to_roster: bool = True,
    include_retweet_hashtags: bool = True,
    sink=None,
) -> IngestResult:
    """Single-pass ingest of line-delimited records into Transactions.

    ``window`` is the half-open observation span [start, end) in epoch
    seconds.  Emits one Transaction per (record, practice) with non-empty
    facts; every record either contributes transactions or is counted under
    exactly one skip reason, so

        records_read == records that emit transactions + skipped_total

    A raw record duplicates any earlier record with its id.  A pre-extracted
    record duplicates an earlier raw record with its id, or an earlier
    pre-extracted one with its id and practice: the lines ``ingest`` writes
    for one message share its id, one line per practice.

    Each line is bytes, decoded as UTF-8 on its own after a leading byte
    order mark is dropped (a line holding only one is blank); a line that
    does not decode is malformed, and so is one whose brackets, outside
    strings, nest deeper than ``MAX_NESTING``.

    Each Transaction goes to ``sink.append`` as it is emitted; ``sink``, a new
    list by default, is the result's ``transactions``.  Within one pass, equal
    fact keys and the transactions of one author share one string object, and
    a practice is its ``PRACTICES`` member; nothing is remembered across passes.
    """
    start, end = window
    result = IngestResult([] if sink is None else sink)
    emit = result.transactions.append
    share = {}.setdefault
    seen_bits: dict[str, int] = {}

    for line_no, line in enumerate(lines, 1):
        stripped = line.strip().removeprefix(codecs.BOM_UTF8)
        if not stripped:
            continue
        result.records_read += 1
        # The byte count, then the bracket count, spare nearly every line the scan.
        if (len(stripped) > MAX_NESTING
                and stripped.count(b"[") + stripped.count(b"{") > MAX_NESTING
                and _too_deep(stripped)):
            result.malformed(line_no, f"nested deeper than {MAX_NESTING} levels")
            continue

        try:
            doc = stripped.decode("utf-8")
            if doc.startswith("\ufeff"):
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", doc, 0)
            rec, stop = _decode(doc, len(doc) - len(doc.lstrip(" \t\n\r")))
            if stop != len(doc):  # reported after the whitespace that follows the record
                stop = len(doc) - len(doc[stop:].lstrip(" \t\n\r"))
                raise json.JSONDecodeError("Extra data", doc, stop)
            if not isinstance(rec, dict):
                raise ValueError("record is not an object")
            rec_id, user = rec["id"], rec["user"]
            if type(rec_id) not in (str, int):
                raise ValueError(f"id must be a string or an integer, got {rec_id!r}")
            if not isinstance(user, str):
                raise ValueError(f"user must be a string, got {user!r}")
            rec_id = str(rec_id)
            author = user if user in roster else normalize_handle(user)
            ts = parse_timestamp(rec["timestamp"])
        # ValueError covers JSONDecodeError and UnicodeDecodeError.
        except (KeyError, ValueError, RecursionError) as exc:
            result.malformed(line_no, f"missing field {exc}" if isinstance(exc, KeyError)
                             else str(exc))
            continue

        # Duplicate detection keeps, per id, a bit for each practice it was seen
        # under.  A raw record speaks for every practice of its message, so it
        # sets every bit (-1).  Pre-extracted records whose practice is not a
        # stream practice share one more bit, at index len(PRACTICES).  The
        # practice is compared, not hashed: a list or dict one stays malformed.
        pre_extracted = "practice" in rec or "facts" in rec
        if pre_extracted:
            practice = rec.get("practice")
            index = PRACTICES.index(practice) if practice in PRACTICES else len(PRACTICES)
        bit = 1 << index if pre_extracted else -1
        seen = seen_bits.get(rec_id, 0)
        if seen & bit:
            result.skipped["duplicate_id"] += 1
            continue
        seen_bits[rec_id] = seen | bit

        if author not in roster:
            result.skipped["unknown_author"] += 1
            continue
        if not (start <= ts < end):
            result.skipped["outside_window"] += 1
            continue
        author = share(author, author)

        if pre_extracted:
            facts = rec.get("facts")
            if index == len(PRACTICES) or not isinstance(facts, list):
                result.malformed(line_no, "bad practice/facts fields")
                continue
            practice = PRACTICES[index]
            keys_by_practice = {
                practice: _facts_from_keys(practice, facts, roster, restrict_to_roster)
            }
        else:
            text = rec.get("text")
            if not isinstance(text, str):
                result.malformed(line_no, "missing text field")
                continue
            keys_by_practice = extract_facts(
                text,
                roster,
                restrict_to_roster=restrict_to_roster,
                include_retweet_hashtags=include_retweet_hashtags,
            )

        emitted = False
        for practice, keys in keys_by_practice.items():
            if keys:
                emit(Transaction(rec_id, author, ts, practice,
                                 tuple(map(share, keys, keys))))
                emitted = True
        if not emitted:
            result.skipped["no_facts"] += 1

    return result


def fmt(value: Optional[float]) -> str:
    """A float cell: ``%.10g``, empty for an undefined value."""
    return "" if value is None else format(value, ".10g")


def write_csv(path, header: list[str], rows: Iterable) -> int:
    """Write one RFC-4180 CSV artifact, streaming the rows; returns the row count."""
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for count, row in enumerate(rows, 1):
            writer.writerow(row)
    return count


def write_ingest_report(result: IngestResult, path) -> int:
    """Write the skip accounting as CSV ``reason,count``."""
    return write_csv(
        path, ["reason", "count"], ((r, result.skipped.get(r, 0)) for r in SKIP_REASONS)
    )


def transaction_line(t: Transaction) -> str:
    """One transaction as a record of the pre-extracted schema, without newline.

    The bytes of ``json.dumps(record, sort_keys=True)``, built directly: the
    keys in sorted order, strings through json's own ASCII escaper and the
    timestamp as ``float.__repr__``, as json writes a float.
    """
    quote = encode_basestring_ascii
    return (f'{{"facts": [{", ".join(map(quote, t.facts))}], "id": {quote(t.id)}, '
            f'"practice": {quote(t.practice)}, "timestamp": {float.__repr__(t.timestamp)}, '
            f'"user": {quote(t.author)}}}')


class TransactionWriter:
    """A sink writing each transaction to ``fh`` as a line; its length counts them."""

    def __init__(self, fh):
        self._write = fh.write
        self._count = 0

    def append(self, t: Transaction) -> None:
        self._write(transaction_line(t) + "\n")
        self._count += 1

    def __len__(self) -> int:
        return self._count


def write_transactions_jsonl(transactions: Iterable[Transaction], path) -> None:
    """Write a stream in the pre-extracted record schema, one object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        writer = TransactionWriter(fh)
        for t in transactions:
            writer.append(t)
