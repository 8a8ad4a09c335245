"""Ingestion layer: extraction, normalization, roster, skip accounting."""

from __future__ import annotations

import json
import re
import sys
import tracemalloc
from datetime import datetime, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import extract_oracle
import ingest_oracle
from culturestream.corpus import (
    MALFORMED_SAMPLE,
    MAX_NESTING,
    PRACTICES,
    RT_RE,
    IngestResult,
    Transaction,
    extract_facts,
    fold_hashtag,
    load_corpus,
    load_roster,
    normalize_handle,
    parse_timestamp,
    transaction_line,
    write_ingest_report,
)
from culturestream.errors import DataError
from stream_contract import validate_transactions


class TestHandleNormalization:
    def test_strips_at_and_lowercases(self):
        assert normalize_handle("@Alice") == "alice"
        assert normalize_handle("  BOB ") == "bob"
        assert normalize_handle("@Carol") == normalize_handle("carol") == "carol"

    def test_rejects_empty_and_whitespace(self):
        with pytest.raises(ValueError):
            normalize_handle("@")
        for handle in ("two words", "a\u00a0b", "a\u2003b", "a\x1cb"):
            with pytest.raises(ValueError):
                normalize_handle(handle)

    def test_idempotent_over_every_code_point(self):
        # load_corpus takes a roster key as it is: a key is normalize_handle's
        # output, so this must hold under the interpreter's Unicode database.
        for code in range(sys.maxunicode + 1):
            for raw in (chr(code), f"@{chr(code)}b"):
                try:
                    handle = normalize_handle(raw)
                except ValueError:
                    continue
                assert normalize_handle(handle) == handle, (hex(code), raw)


# Message texts for the extraction oracle: retweet markers in both cases,
# bare '@'/'#', handles in and out of the roster, accented and non-Latin
# words, and the non-ASCII letters that case-insensitive matching takes for
# ASCII ones (Kelvin sign, long s, dotted capital I).  An empty separator
# glues tokens, as in "#RT @carol".
_TOKENS = st.sampled_from([
    "RT", "rt", "Rt", "RT @", "@", "#", "##", "via", ":", "carol", "Carol", "DAVE", "dave",
    "@carol", "@Dave", "@ghost", "#tag", "#Tag", "#Tág", "RT @carol:",
    "ghost", "x_1", "btw13", "café", "ÉTÉ", "Straße", "試験", "\u212a", "\u017f", "\u0130",
])
_SEPARATORS = st.sampled_from(["", "", " ", "  ", ":", "\t", "\n", ".", ","])
_TEXTS = st.lists(st.tuples(_TOKENS, _SEPARATORS), max_size=14).map(
    lambda parts: "".join(token + sep for token, sep in parts)
)


class TestHashtagFolding:
    def test_ascii_fold(self):
        assert fold_hashtag("Wahl") == "wahl"
        assert fold_hashtag("Überraschung") == "uberraschung"
        assert fold_hashtag("café") == "cafe"

    def test_non_latin_can_vanish(self):
        assert fold_hashtag("試験") == ""

    def test_ascii_route_matches_the_nfkd_fold(self):
        for code in range(128):
            assert fold_hashtag(chr(code)) == extract_oracle.fold_hashtag(chr(code)), code


class TestExtraction:
    def test_hashtags_deduped_case_folded(self):
        facts = extract_facts("voting #Wahl today #wahl #btw13", set(), restrict_to_roster=False)
        assert facts["tagging"] == ["wahl", "btw13"]

    def test_retweet_forms(self):
        for text in ("RT @carol: hi", "RT carol: hi", "rt @Carol hi", "via RT carol"):
            facts = extract_facts(text, {"carol"})
            assert facts["retweeting"] == ["carol"], text

    def test_retweetee_never_mentioned(self):
        facts = extract_facts("RT @carol: thanks @carol @dave", {"carol", "dave"})
        assert facts["retweeting"] == ["carol"]
        assert facts["mentioning"] == ["dave"]

    def test_mention_inside_rt_span_not_double_counted(self):
        facts = extract_facts("RT @carol: news", {"carol"})
        assert facts["mentioning"] == []

    def test_roster_restriction_user_kinds_only(self):
        text = "RT @ghost: hello @stranger #tag"
        restricted = extract_facts(text, {"carol"})
        assert restricted["retweeting"] == []
        assert restricted["mentioning"] == []
        assert restricted["tagging"] == ["tag"]
        free = extract_facts(text, {"carol"}, restrict_to_roster=False)
        assert free["retweeting"] == ["ghost"]
        assert free["mentioning"] == ["stranger"]

    def test_retweet_hashtag_flag(self):
        text = "my take #mine RT @carol: original #theirs"
        keep = extract_facts(text, {"carol"})
        assert keep["tagging"] == ["mine", "theirs"]
        drop = extract_facts(text, {"carol"}, include_retweet_hashtags=False)
        assert drop["tagging"] == ["mine"]

    def test_retweet_handle_is_ascii_as_in_mentions(self):
        # Only the RT marker ignores case: the Kelvin sign, long s and dotted
        # capital I are not handle letters, in a retweet as in a mention.
        for text in ("RT @\u212aarl: hi", "rt @\u017fam", "RT @\u0130van"):
            facts = extract_facts(text, set(), restrict_to_roster=False)
            assert facts["retweeting"] == facts["mentioning"] == [], text

    def test_plain_text_has_no_facts(self):
        facts = extract_facts("just words here", set())
        assert all(not keys for keys in facts.values())

    def test_rt_prescreen_is_sound_over_every_code_point(self):
        # extract_facts scans for retweets only when "rt" is in the lowercased
        # text.  No marker is missed because the marker's (?i:R) and (?i:T)
        # match only the two ASCII cases of each letter.
        assert "(?i:RT)" in RT_RE.pattern
        code_points = [chr(c) for c in range(sys.maxunicode + 1)]
        for letter in "RT":
            matches = re.compile(f"(?i:{letter})").fullmatch
            assert [c for c in code_points if matches(c)] == [letter, letter.lower()]

    @given(_TEXTS)
    @example("#RT @carol: #after")
    @example("rt @dave #x RT @carol: @dave #y")
    def test_matches_reference_under_every_flag_combination(self, text):
        roster = {"carol", "dave", "k"}
        for restrict in (True, False):
            for retweet_hashtags in (True, False):
                assert extract_facts(text, roster, restrict, retweet_hashtags) == (
                    extract_oracle.extract_facts(text, roster, restrict, retweet_hashtags)
                ), (restrict, retweet_hashtags)


class TestRoster:
    def test_load_and_normalize(self):
        roster = load_roster(["user,group", "@Alice,A", "bob,A", "carol,B"])
        assert roster == {"alice": "A", "bob": "A", "carol": "B"}

    def test_exact_repeat_tolerated_conflict_fatal(self):
        assert load_roster(["user,group", "alice,A", "alice,A"]) == {"alice": "A"}
        with pytest.raises(DataError):
            load_roster(["user,group", "alice,A", "alice,B"])

    @pytest.mark.parametrize("row, message", [
        ("carol", "roster row 3: expected 'user,group'"),
        ("carol, ", "roster row 3: empty group for user 'carol'"),
    ])
    def test_short_row_or_empty_group_is_fatal(self, row, message):
        with pytest.raises(DataError, match=message):
            load_roster(["user,group", "alice,A", row])

    def test_blank_and_whitespace_rows_are_skipped(self):
        rows = ["user,group", "alice,A", "", "   ", " , ", "bob,B"]
        assert load_roster(rows) == {"alice": "A", "bob": "B"}

    def test_header_required(self):
        with pytest.raises(DataError):
            load_roster(["member,party", "alice,A"])
        with pytest.raises(DataError):
            load_roster([])


class TestTimestamps:
    def test_epoch_numbers_and_strings(self):
        assert parse_timestamp(1374278400) == 1374278400.0
        assert parse_timestamp("1374278400.5") == 1374278400.5

    def test_iso_with_zulu(self):
        assert parse_timestamp("2013-07-20T00:00:00Z") == 1374278400.0
        # Forms that datetime.fromisoformat accepts from Python 3.11 on.
        assert parse_timestamp("20130720T000000Z") == 1374278400.0
        assert parse_timestamp("2013-07-20T00:00:00.1+00:00") == 1374278400.1

    def test_naive_iso_read_as_utc(self):
        assert parse_timestamp("2013-07-20T00:00:00") == 1374278400.0

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_timestamp("yesterday")
        with pytest.raises(ValueError):
            parse_timestamp(None)

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), -float("inf"), "nan", "-inf", "1e999", 10**400],
        ids=["nan", "inf", "-inf", "nan-string", "-inf-string", "1e999-string", "10**400"],
    )
    def test_non_finite_and_out_of_range_rejected(self, value):
        with pytest.raises(ValueError):
            parse_timestamp(value)


# Corpus lines are bytes, as read from a file opened "rb".
def _raw(rec_id, user, ts, text):
    return json.dumps({"id": rec_id, "user": user, "timestamp": ts, "text": text}).encode()


def _pre(rec_id, user, ts, practice, facts):
    return json.dumps(
        {"id": rec_id, "user": user, "timestamp": ts, "practice": practice, "facts": facts}
    ).encode()


SPAN = (0.0, 1000.0)


class TestLoadCorpus:
    def test_raw_record_emits_one_transaction_per_practice(self, small_roster):
        lines = [_raw("r1", "alice", 10, "RT @carol: look @dave #topic")]
        result = load_corpus(lines, small_roster, SPAN)
        assert {t.practice for t in result.transactions} == {
            "tagging",
            "retweeting",
            "mentioning",
        }
        assert all(t.id == "r1" and t.author == "alice" for t in result.transactions)

    def test_skip_reasons(self, small_roster):
        lines = [
            b"{broken json",
            _raw("r1", "alice", 10, "#ok"),
            _raw("r1", "alice", 11, "#duplicate"),
            _raw("r2", "ghost", 10, "#x"),
            _raw("r3", "bob", 5000, "#x"),
            _raw("r4", "carol", 10, "no facts at all"),
            json.dumps({"id": "r5", "user": "dave", "timestamp": 10}).encode(),
        ]
        result = load_corpus(lines, small_roster, SPAN)
        assert result.skipped == {
            "malformed": 2,
            "duplicate_id": 1,
            "unknown_author": 1,
            "outside_window": 1,
            "no_facts": 1,
        }
        assert len(result.transactions) == 1

    def test_pre_extracted_records(self, small_roster):
        lines = [
            _pre("p1", "alice", 10, "tagging", ["#Wahl", "wahl", 7, "#", "demo"]),
            _pre("p2", "bob", 20, "retweeting", ["@Carol", "ghost", "bo b"]),
            _pre("p3", "carol", 30, "bogus", ["x"]),
            _pre("p4", "dave", 40, "mentioning", ["ghost"]),
        ]
        result = load_corpus(lines, small_roster, SPAN)
        by_id = {t.id: t for t in result.transactions}
        assert list(by_id["p1"].facts) == ["wahl", "demo"]
        assert list(by_id["p2"].facts) == ["carol"]
        assert result.skipped["malformed"] == 1  # p3: unknown practice
        assert result.skipped["no_facts"] == 1  # p4: only off-roster mention

    def test_duplicate_id_rule(self, small_roster):
        lines = [
            _pre("m", "alice", 1, "tagging", ["x"]),
            _pre("m", "alice", 1, "mentioning", ["carol"]),  # same message, other practice
            _pre("m", "alice", 1, "tagging", ["y"]),  # same id and practice: duplicate
            _raw("m", "alice", 2, "#z"),  # raw after any record with its id: duplicate
            _raw("r", "bob", 3, "#x @carol"),
            _pre("r", "bob", 3, "retweeting", ["carol"]),  # after a raw record: duplicate
            _pre("b", "bob", 4, "bogus", ["x"]),  # not a practice: malformed
            _pre("b", "bob", 4, "tagging", ["x"]),
            _pre("g", "ghost", 5, "tagging", ["x"]),
            _pre("g", "ghost", 5, "tagging", ["x"]),  # duplicate before unknown author
        ]
        result = load_corpus(lines, small_roster, SPAN)
        assert [(t.id, t.practice) for t in result.transactions] == [
            ("m", "tagging"), ("m", "mentioning"), ("r", "tagging"), ("r", "mentioning"),
            ("b", "tagging"),
        ]
        assert result.skipped == {"malformed": 1, "duplicate_id": 4, "unknown_author": 1,
                                  "outside_window": 0, "no_facts": 0}
        emitting_records = 4  # both "m" lines, "r" and the second "b"
        assert result.records_read == len(lines) == emitting_records + result.skipped_total

    def test_following_record_is_malformed(self, small_roster):
        # The following graph comes from the follow edge list alone.
        lines = [_pre("f1", "alice", 10, "following", ["bob"]), _raw("r1", "bob", 20, "#x")]
        result = load_corpus(lines, small_roster, SPAN)
        assert result.skipped["malformed"] == result.skipped_total == 1
        assert [t.id for t in result.transactions] == ["r1"]
        assert result.records_read == len({t.id for t in result.transactions}) + 1

    def test_conservation(self, small_roster):
        lines = [
            _raw("a", "alice", 1, "#x @carol"),
            _raw("b", "bob", 2, "plain"),
            b"junk",
            _raw("a", "alice", 3, "#dup"),
            _pre("c", "carol", 4, "tagging", ["y"]),
        ]
        result = load_corpus(lines, small_roster, SPAN)
        emitted_ids = {t.id for t in result.transactions}
        assert result.records_read == len(emitted_ids) + result.skipped_total

    def test_emitted_stream_is_contract_clean(self, small_roster):
        lines = [
            _raw("a", "alice", 1, "RT @carol: hey @dave #T1 #t1"),
            _pre("b", "bob", 2, "retweeting", ["dave", "DAVE"]),
        ]
        result = load_corpus(lines, small_roster, SPAN)
        assert validate_transactions(result.transactions, small_roster, SPAN) == []

    @pytest.mark.parametrize(
        "bad,message",
        [
            (dict(facts=()), "empty facts"),
            (dict(author="mallory"), "author not in roster"),
            (dict(timestamp=SPAN[1]), "timestamp outside window"),
            (dict(practice="following"), "unknown practice"),
            (dict(facts=("#wahl",)), "unnormalized fact key '#wahl'"),
            (dict(facts=("Wahl",)), "unnormalized fact key 'Wahl'"),
            (dict(facts=("",)), "unnormalized fact key ''"),
            (dict(facts=("wahl", "wahl")), "duplicate facts within transaction"),
        ],
        ids=["empty-facts", "author-off-roster", "outside-window",
             "unknown-practice", "hash-prefix", "upper-case", "empty-key", "duplicate-fact"],
    )
    def test_contract_names_each_broken_rule(self, small_roster, bad, message):
        fields = dict(id="t1", author="alice", timestamp=10.0,
                      practice="tagging", facts=("wahl",))
        fields.update(bad)
        [violation] = validate_transactions([Transaction(**fields)], small_roster, SPAN)
        assert violation == f"transaction t1/{fields['practice']}: {message}"

    def test_contract_flags_retweetee_also_mentioned(self, small_roster):
        stream = [Transaction("t1", "alice", 10.0, "retweeting", ("carol",)),
                  Transaction("t1", "alice", 10.0, "mentioning", ("carol", "dave"))]
        assert validate_transactions(stream, small_roster, SPAN) == [
            "record t1: ['carol'] counted as both retweetee and mentionee"
        ]

    def test_blank_lines_not_counted(self, small_roster):
        result = load_corpus([b"", b"  ", _raw("a", "alice", 1, "#x")], small_roster, SPAN)
        assert result.records_read == 1

    def test_malformed_sample_is_capped_and_counts_stay_exact(self, small_roster):
        lines = [b"junk"] * 1000 + [_raw("a", "alice", 1, "#x")]
        result = load_corpus(lines, small_roster, SPAN)
        assert result.skipped["malformed"] == 1000
        assert len(result.malformed_lines) == MALFORMED_SAMPLE
        assert [n for n, _ in result.malformed_lines] == list(range(1, MALFORMED_SAMPLE + 1))
        assert result.records_read == len({t.id for t in result.transactions}) + (
            result.skipped_total
        )


class TestSharedValues:
    """A pass holds each distinct author and fact key once, and each practice as its constant."""

    def test_equal_keys_are_one_object_and_practices_are_constants(self, small_roster):
        lines = [
            _raw("r1", "alice", 1, "RT @Carol: #Wahl @DAVE #Café"),
            _raw("r2", "bob", 2, "#wahl #CAFE @carol @dave"),
            _pre("p1", "carol", 3, "tagging", ["#WAHL", "café", "Wähl"]),
            _pre("p2", "dave", 4, "retweeting", ["@CAROL"]),
            _pre("p3", "dave", 5, "mentioning", ["Carol", "ALICE"]),
            _raw("r3", "dave", 6, "@Alice #Wähl"),
        ]
        result = load_corpus(lines, small_roster, SPAN)
        first: dict[str, str] = {}
        seen: dict[str, int] = {}
        for t in result.transactions:
            assert any(t.practice is p for p in PRACTICES), t
            for fact in t.facts:
                assert first.setdefault(fact, fact) is fact, (t, fact)
                seen[fact] = seen.get(fact, 0) + 1
        assert seen == {"wahl": 4, "cafe": 3, "carol": 4, "dave": 2, "alice": 2}

    def test_each_author_and_key_is_one_object(self, small_roster):
        users = ["Bob", "bob", "@BOB", "alice"]
        lines = [_raw(f"r{n}", users[n % 4], n, "#Wahl @Carol RT @DAVE: @bob") for n in range(12)]
        lines += [_pre(f"p{n}", users[n % 4], n, "mentioning", ["@Carol", "ALICE", "bob"])
                  for n in range(12)]
        result = load_corpus(lines, small_roster, SPAN)
        objects: dict[str, set[int]] = {}
        for t in result.transactions:
            for value in (t.author, *t.facts):
                objects.setdefault(value, set()).add(id(value))
        assert {t.author for t in result.transactions} == {"alice", "bob"}
        assert {value: len(ids) for value, ids in objects.items()} == dict.fromkeys(
            ["alice", "bob", "carol", "dave", "wahl"], 1)

    def test_a_pass_keeps_no_handle_it_read(self, small_roster):
        def corpus(handle):
            return [_raw(f"r{n}", "alice", 1, f"#t @{handle(n)}") for n in range(5_000)]

        # The first pass fills what every pass leaves behind (free lists, the
        # standard library's caches), so only handles the second one kept count.
        same, distinct = corpus(lambda n: "ghost"), corpus(lambda n: f"ghost{n:04d}")
        tracemalloc.start()
        try:
            load_corpus(same, small_roster, SPAN)
            after_same = tracemalloc.get_traced_memory()[0]
            load_corpus(distinct, small_roster, SPAN)
            held = tracemalloc.get_traced_memory()[0] - after_same
        finally:
            tracemalloc.stop()
        assert held < 64 * 1024

    @pytest.mark.parametrize("practice", [["tagging"], {"tagging": 1}, 1, None],
                             ids=["list", "dict", "number", "null"])
    def test_non_string_practice_is_malformed(self, small_roster, practice):
        lines = [_pre("p1", "alice", 1, practice, ["x"]), _pre("p1", "alice", 1, "tagging", ["x"])]
        result = load_corpus(lines, small_roster, SPAN)
        assert result.skipped["malformed"] == result.skipped_total == 1
        assert [(t.id, t.practice) for t in result.transactions] == [("p1", "tagging")]


class TestHostileLines:
    """Each defective line counts as one malformed record; none stops the run."""

    def _load(self, lines, roster):
        result = load_corpus(lines, roster, SPAN)
        assert result.records_read == len({t.id for t in result.transactions}) + (
            result.skipped_total
        )
        return result

    def test_non_utf8_line_is_malformed(self, small_roster):
        lines = [b"\xff\n", _raw("a", "alice", 1, "#x") + b"\n"]
        result = self._load(lines, small_roster)
        assert result.skipped["malformed"] == 1
        assert [t.id for t in result.transactions] == ["a"]

    def test_byte_order_mark_on_first_line_is_dropped(self, small_roster):
        lines = [b"\xef\xbb\xbf" + _raw("a", "alice", 1, "#x") + b"\n"]
        result = self._load(lines, small_roster)
        assert result.skipped["malformed"] == 0
        assert [t.id for t in result.transactions] == ["a"]

    def test_null_or_mistyped_id_and_user_are_malformed(self, small_roster):
        roster = dict(small_roster, none="A", true="A")
        lines = [
            _raw(None, "alice", 1, "#x"),
            _raw("a", None, 1, "#x"),
            _raw(True, "alice", 1, "#x"),
            _raw(1.5, "alice", 1, "#x"),
            _raw("b", True, 1, "#x"),
            _raw(7, "bob", 1, "#x"),
        ]
        result = self._load(lines, roster)
        assert result.skipped["malformed"] == 5
        assert [(t.id, t.author) for t in result.transactions] == [("7", "bob")]

    def test_non_finite_timestamps_are_malformed(self, small_roster):
        lines = [
            b'{"id": "a", "user": "alice", "timestamp": NaN, "text": "#x"}',
            b'{"id": "b", "user": "alice", "timestamp": Infinity, "text": "#x"}',
            _raw("c", "alice", "-inf", "#x"),
            b'{"id": "d", "user": "alice", "timestamp": 1' + b"0" * 400 + b', "text": "#x"}',
        ]
        result = self._load(lines, small_roster)
        assert result.skipped["malformed"] == 4
        assert result.skipped["outside_window"] == 0

    def test_deeply_nested_line_is_malformed(self, small_roster):
        result = self._load([b"[" * 100_000, _raw("a", "alice", 1, "#x")], small_roster)
        assert result.skipped["malformed"] == 1
        assert result.malformed_lines == [(1, f"nested deeper than {MAX_NESTING} levels")]

    @pytest.mark.parametrize("frames", [0, 400], ids=["direct", "400-frames-deeper"])
    def test_nesting_limit_holds_at_any_stack_depth(self, small_roster, frames):
        lines = [_padded(_raw(1, "alice", 1, "#x"), MAX_NESTING),
                 _padded(_raw(2, "alice", 1, "#x"), MAX_NESTING + 1),
                 b"[" * 600]
        result = _from_deeper_frames(frames, self._load, lines, small_roster)
        assert [t.id for t in result.transactions] == ["1"]
        assert result.malformed_lines == [
            (2, f"nested deeper than {MAX_NESTING} levels"),
            (3, f"nested deeper than {MAX_NESTING} levels"),
        ]

    def test_brackets_inside_strings_do_not_nest(self, small_roster):
        text = '[{\\"' * (MAX_NESTING + 1) + "#x"  # escaped quotes and backslashes too
        lines = [_raw(1, "alice", 1, text), _padded(_raw(2, "alice", 1, text), MAX_NESTING)]
        assert lines[0].count(b"[") > MAX_NESTING  # so the depth scan runs
        result = self._load(lines, small_roster)
        assert result.skipped_total == 0
        assert [t.id for t in result.transactions] == ["1", "2"]

    @given(
        st.lists(
            st.one_of(
                st.binary(max_size=60),
                st.builds(
                    lambda v, w: json.dumps(
                        {"id": v, "user": w, "timestamp": v, "text": "#x"}, allow_nan=True
                    ).encode(),
                    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                              st.text(max_size=8)),
                    st.one_of(st.none(), st.sampled_from(["alice", "carol"]), st.text(max_size=8)),
                ),
            ),
            max_size=20,
        )
    )
    def test_arbitrary_lines_never_raise(self, lines):
        self._load(lines, {"alice": "A", "carol": "B"})

    def test_line_blank_only_under_unicode_whitespace_is_malformed(self, small_roster):
        # Bytes lines are stripped of ASCII whitespace only.
        result = self._load(["\u3000\n".encode(), b" \t\r\n"], small_roster)
        assert result.records_read == 1
        assert result.skipped["malformed"] == 1


def _padded(record, depth):
    """A record object with a ``pad`` field that brings its nesting to ``depth``."""
    inner = depth - 1
    return record[:-1] + b', "pad": ' + b"[" * inner + b"]" * inner + b"}"


def _from_deeper_frames(frames, fn, *args):
    """``fn(*args)``, called ``frames`` Python frames below this one."""
    if frames:
        return _from_deeper_frames(frames - 1, fn, *args)
    return fn(*args)


def _stamp(seconds, style):
    iso = datetime.fromtimestamp(seconds, timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")
    return (seconds, str(seconds), iso, iso + "Z", iso + "+00:00")[style]


def _dirty(kind, record):
    """A defective line, built from a valid one where the defect needs it."""
    return {
        "extra-word": record + b" x",
        "extra-object": record + b"\t{}",
        "bom-then-spaces": b"\xef\xbb\xbf  " + record,
        "two-boms": b"\xef\xbb\xbf" * 2 + record,
        "not-utf8": record.replace(b'"', b'"\xff', 1),
        "array": b"[1]",
        "ideographic-space": "\u3000".encode(),
        "deep": b"[" * 100_000,
        "at-nesting-limit": _padded(record, MAX_NESTING),
        "past-nesting-limit": _padded(record, MAX_NESTING + 1),
        "unclosed-brackets": b"[" * (MAX_NESTING + 1),
        "unclosed-objects": b'{"a": ' * (MAX_NESTING + 1),
    }[kind]


# Ids repeat across the two schemas, as ints and strings; "ghost" is off the
# roster; a timestamp is epoch seconds or ISO, in or outside SPAN.
_IDS = st.sampled_from([1, 2, "1", "2", "m"])
_USERS = st.sampled_from(["alice", "@Bob", "carol", "DAVE", "ghost"])
_STAMPS = st.builds(_stamp, st.integers(-5, int(SPAN[1]) + 5), st.integers(0, 4))
_RECORDS = st.one_of(
    st.builds(_raw, _IDS, _USERS, _STAMPS, _TEXTS),
    st.builds(_pre, _IDS, _USERS, _STAMPS, st.sampled_from([*PRACTICES, "following"]),
              st.lists(_TOKENS, max_size=4)),
)
_DIRT = st.builds(_dirty, st.sampled_from(["extra-word", "extra-object", "bom-then-spaces",
                                           "two-boms", "not-utf8", "array",
                                           "ideographic-space", "deep",
                                           "at-nesting-limit", "past-nesting-limit",
                                           "unclosed-brackets", "unclosed-objects"]),
                     _RECORDS)


class TestReferenceIngest:
    """load_corpus gives what the straightforward json.loads loop gives, reasons included."""

    @given(st.lists(st.one_of(_RECORDS, _DIRT), max_size=12))
    @example([_raw(1, "alice", 1, "#x") + b"\t{}", _raw(2, "bob", 2, "#y") + b" x"])
    @example([b"\xef\xbb\xbf" * 2 + _raw(1, "alice", 1, "#x")])
    def test_matches_reference_under_every_flag_combination(self, lines):
        roster = {"alice": "A", "bob": "A", "carol": "B", "dave": "B"}
        for restrict in (True, False):
            for retweet_hashtags in (True, False):
                got = load_corpus(lines, roster, SPAN, restrict, retweet_hashtags)
                want = ingest_oracle.load_corpus(lines, roster, SPAN, restrict, retweet_hashtags)
                assert (got.records_read, got.skipped, got.malformed_lines) == (
                    want.records_read, want.skipped, want.malformed_lines
                ), (restrict, retweet_hashtags)
                assert got.transactions == want.transactions, (restrict, retweet_hashtags)


# Tokens that cleaning changes on the way to a fact key: retweet markers in both
# forms, mixed-case handles on and off the roster, and hashtags that fold
# (accented, full width, superscript) or carry a second '#'.
_KEY_TOKENS = st.sampled_from([
    "RT @Carol:", "RT @ghost:", "rt carol", "rt Dave", "@Carol", "@DAVE", "@dave", "@Ghost",
    "#Tág", "#ＡＢ", "##x", "#²", "#x²", "#tag", "words",
])
_KEY_TEXTS = st.lists(st.tuples(_KEY_TOKENS, _SEPARATORS), max_size=10).map(
    lambda parts: "".join(token + sep for token, sep in parts)
)


class TestRawTextRoundTrip:
    """Raw text's transactions, written as pre-extracted lines, read back unchanged."""

    @given(st.lists(st.tuples(_USERS, _KEY_TEXTS), max_size=8))
    @example([("alice", "RT @Carol: #Tág @DAVE ##x #² #ＡＢ @carol @Ghost")])
    def test_written_transactions_read_back_equal_under_every_flag_combination(self, messages):
        roster = {"alice": "A", "bob": "A", "carol": "B", "dave": "B"}
        lines = [_raw(i, user, i, text) for i, (user, text) in enumerate(messages)]
        for restrict in (True, False):
            for retweet_hashtags in (True, False):
                first = load_corpus(lines, roster, SPAN, restrict, retweet_hashtags)
                written = [transaction_line(t).encode() for t in first.transactions]
                again = load_corpus(written, roster, SPAN, restrict, retweet_hashtags)
                assert again.transactions == first.transactions, (restrict, retweet_hashtags)
                assert again.skipped_total == 0, (restrict, retweet_hashtags)


_ANY_TEXT = st.text(st.characters(exclude_categories=()))  # control chars, lone surrogates


@given(_ANY_TEXT, _ANY_TEXT, st.floats(allow_nan=False, allow_infinity=False),
       st.one_of(st.sampled_from(PRACTICES), _ANY_TEXT), st.lists(_ANY_TEXT, max_size=4))
def test_transaction_line_is_sorted_key_json(rec_id, author, timestamp, practice, facts):
    t = Transaction(rec_id, author, timestamp, practice, tuple(facts))
    record = {"id": rec_id, "user": author, "timestamp": timestamp, "practice": practice,
              "facts": facts}
    assert transaction_line(t) == json.dumps(record, sort_keys=True)


def test_ingest_report_round_trip(tmp_path):
    result = IngestResult()
    result.skipped["malformed"] = 3
    result.skipped["no_facts"] = 1
    path = tmp_path / "report.csv"
    write_ingest_report(result, path)
    assert path.read_bytes() == (
        b"reason,count\r\n"
        b"malformed,3\r\n"
        b"duplicate_id,0\r\n"
        b"unknown_author,0\r\n"
        b"outside_window,0\r\n"
        b"no_facts,1\r\n"
    )
