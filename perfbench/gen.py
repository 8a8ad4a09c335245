"""Seeded workload generator for the culturestream benchmark.

It uses numpy only and imports nothing from ``culturestream``, so a change to
the program (its own synthetic generator or its writers included) cannot
change a workload: the same (workload, seed) always gives the same input
bytes, and the SHA-256 of every input file is recorded with the ground truth.

The model: every roster member posts a Poisson number of messages per window
and practice.  Hashtags follow a Zipf law over popularity ranks.  Which tag
holds which rank in a (group, week) follows a score: the tag's Zipf
log-weight, plus a fixed per-group affinity, plus a stationary AR(1) walk
over the weeks, so popularity drifts and groups differ while the shape of the
distribution, and with it the amount of work, stays the same from seed to
seed.  User references (retweets, mentions, follows) stay in the sender's
group with probability ``HOMOPHILY`` and are otherwise drawn from the whole
roster, in both cases weighted by a Zipf popularity over a random order of
the members.  One hashtag, ``storm``, is rare
except in the injected burst windows, where it takes a fixed share of the
tagging messages of every group.

Two record schemas are written, matching what ``culturestream`` ingests:

- ``pre``: one record per (message, practice) with a ``facts`` list.
- ``raw``: one record per message with a ``text`` field.  Hashtags come in
  mixed case with accents, retweets carry an ``RT @x:`` prefix, messages
  mention handles outside the roster, and part of the timestamps are ISO-8601
  strings.  A share of the lines is dirt of exactly one kind each, and the
  generator counts how many of each it wrote.

The dirt deliberately leaves out non-UTF-8 bytes and ``null`` id/user fields:
the program is known to crash or miscount on those, and a workload that
always fails measures nothing.
"""

from __future__ import annotations

import csv
import hashlib
import json
import zlib
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

EPOCH = 1372636800  # 2013-07-01T00:00:00Z, a Monday
WIDTH = 7 * 86400
PRACTICES = ("tagging", "retweeting", "mentioning")
USER_PRACTICES = ("retweeting", "mentioning")
SKIP_REASONS = ("malformed", "duplicate_id", "unknown_author", "outside_window", "no_facts")
DIRT_KINDS = (
    "bad_json",  # truncated line or a JSON value that is not an object
    "missing_field",  # no id, user or timestamp key
    "missing_text",  # raw record without a text field
    "duplicate_id",  # verbatim copy of an earlier clean line
    "unknown_author",
    "outside_window",
    "no_facts",  # only filler words and handles outside the roster
)
SKIP_OF_DIRT = {
    "bad_json": "malformed",
    "missing_field": "malformed",
    "missing_text": "malformed",
    "duplicate_id": "duplicate_id",
    "unknown_author": "unknown_author",
    "outside_window": "outside_window",
    "no_facts": "no_facts",
}
BURST_TAG = "storm"
BURST_SHARE = 0.4  # share of a group's tagging messages carrying the burst tag while it bursts
BASE_BURST_SHARE = 0.002
HOMOPHILY = 0.6
ZIPF = 1.1
DRIFT = 0.2  # sd of the weekly step of each hashtag's log-weight
PERSISTENCE = 0.9  # AR(1) coefficient: the drift wanders but stays bounded
VOCAB = 2000  # hashtags besides the burst tag

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
_ACCENTS = {"a": "áàâäã", "e": "éèêë", "i": "íìîï", "o": "óòôöõ", "u": "úùûü"}
_FILLER = (
    "the news today we are live at meeting vote now join us great day photo "
    "via cheers thanks for all of this city march people watch read more"
).split()


@dataclass(frozen=True)
class Shape:
    """Size and kind of one workload."""

    groups: int
    members: int  # per group
    weeks: int
    rate: float  # messages per member, window and practice (per member and window for raw)
    raw: bool = False
    burst_weeks: int = 0  # length of the injected burst; 0 = none
    follows: int = 0  # follow edges drawn per member; 0 = no follow list
    dirt: float = 0.0  # dirt lines per clean line (raw only)

    @property
    def burst(self) -> Optional[tuple[int, int]]:
        """Injected burst as 1-based inclusive (onset, end) windows."""
        if not self.burst_weeks:
            return None
        onset = int(self.weeks * 0.45) + 1
        return onset, onset + self.burst_weeks - 1


WORKLOADS = {
    "wide": Shape(groups=32, members=5, weeks=16, rate=1.5, follows=10),
    "long": Shape(groups=3, members=4, weeks=78, rate=3.0, burst_weeks=3),
    "raw": Shape(groups=5, members=100, weeks=8, rate=4.0, raw=True, burst_weeks=2, follows=10,
                 dirt=0.04),
}

# The axis each workload loads; the growth run halves it.
AXES = {"wide": "groups", "long": "windows", "raw": "records"}


def halved(shape: Shape, axis: str) -> Shape:
    if axis == "records":
        return replace(shape, rate=shape.rate / 2)
    if axis == "groups":
        return replace(shape, groups=shape.groups // 2)
    if axis == "windows":
        return replace(shape, weeks=shape.weeks // 2)
    raise ValueError(f"unknown axis {axis!r}")


@dataclass
class Truth:
    """What a correct run over the generated inputs must report."""

    groups: list[str]
    handles: list[str]
    member_group: np.ndarray  # group index of each handle
    weeks: int
    burst: Optional[tuple[int, int]]
    fact_keys: dict[str, list[str]]  # practice -> fact key of each fact index
    counts: dict[str, np.ndarray]  # practice -> [group, window, fact] references
    arcs: dict[str, dict[tuple[str, str], int]]  # practice (and "following") -> weights
    records_read: int
    transactions: int
    emitted_ids: int
    skipped: dict[str, int]
    dirt: dict[str, int]
    inputs: dict[str, str] = field(default_factory=dict)  # file name -> sha256


def tag_name(k: int) -> str:
    """Distinct lowercase ASCII hashtag key for vocabulary index k."""
    k += len(_SYLLABLES)  # at least two syllables
    parts = []
    while k:
        k, r = divmod(k, len(_SYLLABLES))
        parts.append(_SYLLABLES[r])
    return "".join(reversed(parts))


def _iso(ts: int, style: int) -> str:
    dt = datetime.fromtimestamp(ts, timezone.utc)
    if style == 0:
        return dt.strftime("%Y-%m-%dT%H:%M:%SZ")
    if style == 1:
        return dt.isoformat()  # +00:00 offset
    return dt.strftime("%Y-%m-%dT%H:%M:%S")  # naive, read as UTC


class _Model:
    """Draws authors, windows and fact indices; all randomness in one stream."""

    def __init__(self, shape: Shape, rng: np.random.Generator):
        self.shape = shape
        self.rng = rng
        G, M, W, V = shape.groups, shape.members, shape.weeks, VOCAB
        self.n_members = G * M
        self.member_group = np.repeat(np.arange(G), M)
        # Zipf weights over a random order: a heavy tail whose total is fixed.
        self.popularity = 1.0 / (1.0 + rng.permutation(self.n_members))
        zipf = np.arange(1, V + 1) ** -ZIPF
        self.zipf = zipf / zipf.sum()
        logw = np.log(self.zipf)
        steps = rng.normal(0.0, DRIFT, (W, V))
        drift = np.empty((W, V))
        drift[0] = steps[0] / np.sqrt(1 - PERSISTENCE**2)  # start in the stationary law
        for w in range(1, W):
            drift[w] = PERSISTENCE * drift[w - 1] + steps[w]
        affinity = rng.normal(0.0, 0.7, (G, V))
        self.tag_logw = (logw, drift, affinity)
        self.in_group_p = []
        for g in range(G):
            w = self.popularity[g * M:(g + 1) * M]
            self.in_group_p.append(w / w.sum())
        self.all_p = self.popularity / self.popularity.sum()

    def messages(self, rate: float) -> tuple[np.ndarray, np.ndarray]:
        """Author and 1-based window of every message, window-major."""
        W, N = self.shape.weeks, self.n_members
        k = self.rng.poisson(rate, (W, N))
        windows = np.repeat(np.repeat(np.arange(1, W + 1), N), k.ravel())
        authors = np.repeat(np.tile(np.arange(N), W), k.ravel())
        return authors, windows

    def tags(self, authors: np.ndarray, windows: np.ndarray) -> np.ndarray:
        """One hashtag index per message; index ``VOCAB`` is the burst tag."""
        logw, drift, affinity = self.tag_logw
        V = VOCAB
        groups = self.member_group[authors]
        out = np.empty(len(authors), dtype=np.int64)
        cell = groups * self.shape.weeks + (windows - 1)
        order = np.argsort(cell, kind="stable")
        bounds = np.searchsorted(cell[order], np.arange(self.shape.groups * self.shape.weeks + 1))
        burst = self.shape.burst or (0, -1)
        for c in range(len(bounds) - 1):
            lo, hi = bounds[c], bounds[c + 1]
            if lo == hi:
                continue
            g, w = divmod(c, self.shape.weeks)
            p = np.empty(V)
            p[np.argsort(-(logw + drift[w] + affinity[g]), kind="stable")] = self.zipf
            cell_messages = order[lo:hi]
            out[cell_messages] = self.rng.choice(V, size=hi - lo, p=p)
            if burst[0] <= w + 1 <= burst[1]:
                # A fixed share, not a random one, so that small groups burst too.
                k = int(np.ceil(BURST_SHARE * (hi - lo)))
                out[self.rng.choice(cell_messages, size=k, replace=False)] = V
            else:
                out[cell_messages[self.rng.random(hi - lo) < BASE_BURST_SHARE]] = V
        return out

    def targets(self, authors: np.ndarray) -> np.ndarray:
        """One user reference per sender, never the sender itself."""
        M = self.shape.members
        n = len(authors)
        out = self.rng.choice(self.n_members, size=n, p=self.all_p)
        local = self.rng.random(n) < HOMOPHILY
        groups = self.member_group[authors]
        for g in range(self.shape.groups):
            sel = np.flatnonzero(local & (groups == g))
            out[sel] = g * M + self.rng.choice(M, size=len(sel), p=self.in_group_p[g])
        own = out == authors
        out[own] = self.member_group[authors[own]] * M + (authors[own] % M + 1) % M
        return out


def _count_table(groups, windows, facts, n_groups, weeks, n_facts) -> np.ndarray:
    flat = (groups * weeks + (windows - 1)) * n_facts + facts
    return np.bincount(flat, minlength=n_groups * weeks * n_facts).reshape(
        n_groups, weeks, n_facts
    )


def _arc_table(handles, src: np.ndarray, tgt: np.ndarray) -> dict[tuple[str, str], int]:
    n = len(handles)
    keys, weights = np.unique(src * n + tgt, return_counts=True)
    return {
        (handles[k // n], handles[k % n]): int(w) for k, w in zip(keys.tolist(), weights.tolist())
    }


def _timestamps(rng, windows: np.ndarray) -> np.ndarray:
    offsets = rng.integers(0, WIDTH, len(windows))
    return EPOCH + (windows - 1) * WIDTH + offsets


def _second_distinct(rng, first: np.ndarray, share: float, draw) -> tuple[np.ndarray, np.ndarray]:
    """Indices of messages that get a second, different fact, and that fact."""
    pick = np.flatnonzero(rng.random(len(first)) < share)
    second = draw(pick)
    keep = second != first[pick]
    return pick[keep], second[keep]


def generate(name: str, seed: int, shape: Optional[Shape] = None):
    """Corpus lines, handles, group names, follow edge rows and the truth."""
    shape = shape or WORKLOADS[name]
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    model = _Model(shape, rng)
    G, M, W, V = shape.groups, shape.members, shape.weeks, VOCAB
    groups = [f"G{g:02d}" for g in range(G)]
    handles = [f"g{g:02d}u{m:04d}" for g in range(G) for m in range(M)]
    fact_keys = {
        "tagging": [tag_name(k) for k in range(V)] + [BURST_TAG],
        "retweeting": handles,
        "mentioning": handles,
    }
    if shape.raw:
        lines, refs, stats = _raw_records(shape, model, rng, handles, fact_keys["tagging"])
    else:
        lines, refs, stats = _pre_records(shape, model, rng, handles, fact_keys["tagging"])
    counts = {}
    arcs = {}
    for practice in PRACTICES:
        authors, windows, facts = refs[practice]
        counts[practice] = _count_table(
            model.member_group[authors], windows, facts, G, W, len(fact_keys[practice])
        )
        if practice in USER_PRACTICES:
            arcs[practice] = _arc_table(handles, authors, facts)
    follow_rows = []
    if shape.follows:
        src = np.repeat(np.arange(G * M), shape.follows)
        tgt = model.targets(src)
        arcs["following"] = {(handles[s], handles[t]): 1 for s, t in zip(src.tolist(), tgt.tolist())}
        follow_rows = [(handles[s], handles[t]) for s, t in zip(src.tolist(), tgt.tolist())]
        # Edges to handles outside the roster, which the program must skip.
        for i in rng.choice(G * M, size=max(1, G * M // 50), replace=False).tolist():
            follow_rows.append((handles[i], f"ext{i:05d}"))
        order = rng.permutation(len(follow_rows))
        follow_rows = [follow_rows[i] for i in order]
    truth = Truth(
        groups=groups,
        handles=handles,
        member_group=model.member_group,
        weeks=W,
        burst=shape.burst,
        fact_keys=fact_keys,
        counts=counts,
        arcs=arcs,
        **stats,
    )
    return lines, handles, groups, follow_rows, truth


def _pre_records(shape, model, rng, handles, tag_keys):
    """Pre-extracted schema: one clean record per (message, practice)."""
    refs = {}
    records = []  # (timestamp, practice index, author, facts)
    for pi, practice in enumerate(PRACTICES):
        authors, windows = model.messages(shape.rate)
        if practice == "tagging":
            first = model.tags(authors, windows)
            pick, second = _second_distinct(
                rng, first, 0.2, lambda idx: model.tags(authors[idx], windows[idx])
            )
            keys = tag_keys
        else:
            first = model.targets(authors)
            pick, second = _second_distinct(
                rng, first, 0.3 if practice == "mentioning" else 0.0,
                lambda idx: model.targets(authors[idx]),
            )
            keys = handles
        ts = _timestamps(rng, windows)
        facts = [[keys[f]] for f in first.tolist()]
        for i, f in zip(pick.tolist(), second.tolist()):
            facts[i].append(keys[f])
        refs[practice] = (
            np.concatenate([authors, authors[pick]]),
            np.concatenate([windows, windows[pick]]),
            np.concatenate([first, second]),
        )
        records.extend(zip(ts.tolist(), [pi] * len(ts), authors.tolist(), facts))
    records.sort(key=lambda r: (r[0], r[1], r[2]))
    lines = []
    for n, (ts, pi, author, facts) in enumerate(records):
        lines.append(
            json.dumps(
                {
                    "id": f"r{n:08d}",
                    "user": handles[author],
                    "timestamp": ts,
                    "practice": PRACTICES[pi],
                    "facts": facts,
                }
            )
        )
    stats = dict(
        records_read=len(lines),
        transactions=len(lines),
        emitted_ids=len(lines),
        skipped={r: 0 for r in SKIP_REASONS},
        dirt={k: 0 for k in DIRT_KINDS},
    )
    return lines, refs, stats


def _render_tag(rng, key: str) -> str:
    out = []
    for ch in key:
        roll = rng.random()
        if ch in _ACCENTS and roll < 0.25:
            ch = _ACCENTS[ch][int(rng.integers(len(_ACCENTS[ch])))]
        if rng.random() < 0.3:
            ch = ch.upper()
        out.append(ch)
    return "#" + "".join(out)


def _render_handle(rng, handle: str) -> str:
    return handle.upper() if rng.random() < 0.2 else handle


def _filler(rng, k: int) -> list[str]:
    return [_FILLER[i] for i in rng.integers(len(_FILLER), size=k).tolist()]


def _raw_records(shape, model, rng, handles, tag_keys):
    """Raw-text schema: one record per message, plus counted dirt lines."""
    authors, windows = model.messages(shape.rate)
    n = len(authors)
    ts = _timestamps(rng, windows)
    tag1 = model.tags(authors, windows)
    tag2 = model.tags(authors, windows)
    n_tags = rng.choice(3, size=n, p=[0.25, 0.5, 0.25])
    rt = model.targets(authors)
    rt_kind = rng.random(n)  # < 0.3 roster retweet, < 0.35 retweet of an outside handle
    men1 = model.targets(authors)
    men2 = model.targets(authors)
    n_men = rng.choice(3, size=n, p=[0.45, 0.4, 0.15])
    extra = rng.random(n)  # < 0.15 mention of a handle outside the roster
    ts_style = rng.integers(0, 10, n)  # 0..3 ISO-8601 string, else epoch seconds

    refs = {p: ([], [], []) for p in PRACTICES}
    clean = []
    transactions = 0
    for i in range(n):
        a, w = int(authors[i]), int(windows[i])
        tags = [int(tag1[i]), int(tag2[i])][: int(n_tags[i])]
        mentions = [int(men1[i]), int(men2[i])][: int(n_men[i])]
        retweetee = int(rt[i]) if rt_kind[i] < 0.3 else None
        if not tags and not mentions and retweetee is None:
            tags = [int(tag1[i])]
        pieces = _filler(rng, int(rng.integers(1, 5)))
        pieces += [_render_tag(rng, tag_keys[t]) for t in tags]
        if tags and rng.random() < 0.05:
            pieces.append(_render_tag(rng, tag_keys[tags[0]]))  # repeat, deduplicated
        pieces += ["@" + _render_handle(rng, handles[m]) for m in mentions]
        if retweetee is not None and rng.random() < 0.05:
            pieces.append("@" + handles[retweetee])  # already the retweetee: not a mention
        if extra[i] < 0.15:
            pieces.append(f"@ext{int(rng.integers(100000)):05d}")
        pieces = [pieces[j] for j in rng.permutation(len(pieces))]
        if retweetee is not None:
            pieces.insert(0, f"RT @{_render_handle(rng, handles[retweetee])}:")
        elif rt_kind[i] < 0.35:
            pieces.insert(0, f"rt @ext{int(rng.integers(100000)):05d}:")
        text = " ".join(pieces)

        tag_set = list(dict.fromkeys(tags))
        mention_set = [m for m in dict.fromkeys(mentions) if m != retweetee]
        per_practice = {
            "tagging": tag_set,
            "retweeting": [retweetee] if retweetee is not None else [],
            "mentioning": mention_set,
        }
        for practice, facts in per_practice.items():
            if facts:
                transactions += 1
                r = refs[practice]
                r[0].extend([a] * len(facts))
                r[1].extend([w] * len(facts))
                r[2].extend(facts)
        stamp = int(ts[i])
        clean.append(
            {
                "id": None,
                "user": handles[a],
                "timestamp": _iso(stamp, int(ts_style[i])) if ts_style[i] < 3 else stamp,
                "text": text,
            }
        )
    refs = {p: tuple(np.asarray(x, dtype=np.int64) for x in r) for p, r in refs.items()}

    order = np.argsort(ts, kind="stable")
    clean = [clean[i] for i in order.tolist()]
    for k, rec in enumerate(clean):
        rec["id"] = f"r{k:08d}"
    clean_lines = [json.dumps(rec, ensure_ascii=False) for rec in clean]

    n_dirt = int(round(shape.dirt * n))
    kinds = [DIRT_KINDS[i % len(DIRT_KINDS)] for i in range(n_dirt)]
    kinds = [kinds[i] for i in rng.permutation(n_dirt)]
    slots = np.sort(rng.integers(1, n + 1, n_dirt))  # insert after clean line slot-1
    lines = []
    dirt = {k: 0 for k in DIRT_KINDS}
    pos = 0
    for serial, (kind, slot) in enumerate(zip(kinds, slots.tolist())):
        lines.extend(clean_lines[pos:slot])
        pos = slot
        lines.append(_dirt_line(rng, kind, serial, clean, clean_lines, slot, handles))
        dirt[kind] += 1
    lines.extend(clean_lines[pos:])
    skipped = {r: 0 for r in SKIP_REASONS}
    for kind, c in dirt.items():
        skipped[SKIP_OF_DIRT[kind]] += c
    stats = dict(
        records_read=len(lines),
        transactions=transactions,
        emitted_ids=n,
        skipped=skipped,
        dirt=dirt,
    )
    return lines, refs, stats


def _dirt_line(rng, kind, serial, clean, clean_lines, slot, handles) -> str:
    """One line with exactly one defect; ``slot`` clean lines precede it."""
    src = clean[int(rng.integers(slot))]
    rec = dict(src, id=f"x{serial:08d}")
    if kind == "duplicate_id":
        return clean_lines[int(rng.integers(slot))]
    if kind == "bad_json":
        if rng.random() < 0.2:
            return json.dumps([rec["id"], rec["user"]])
        full = json.dumps(rec, ensure_ascii=False)
        return full[: int(rng.integers(5, len(full) - 1))]
    if kind == "missing_field":
        del rec[("id", "user", "timestamp")[serial % 3]]
    elif kind == "missing_text":
        del rec["text"]
    elif kind == "unknown_author":
        rec["user"] = f"ext{serial:05d}"
    elif kind == "outside_window":
        span = WIDTH * 52
        rec["timestamp"] = EPOCH - 1 - int(rng.integers(span)) if serial % 2 else EPOCH + 10 * span
    elif kind == "no_facts":
        words = _filler(rng, 4) + [f"@ext{serial:05d}"]
        rec["text"] = (f"RT @ext{serial + 1:05d}: " if serial % 2 else "") + " ".join(words)
    return json.dumps(rec, ensure_ascii=False)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_workload(out: Path, name: str, seed: int, shape: Optional[Shape] = None) -> Truth:
    """Write corpus.jsonl, roster.csv, follow.csv (if any), report.cfg and
    setup.cfg (same settings over an empty corpus) into ``out``."""
    shape = shape or WORKLOADS[name]
    lines, handles, groups, follow_rows, truth = generate(name, seed, shape)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    (out / "empty.jsonl").write_bytes(b"")
    with open(out / "roster.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "group"])
        for h, g in zip(handles, truth.member_group.tolist()):
            writer.writerow([h, groups[g]])
    names = ["corpus.jsonl", "roster.csv"]
    settings = ["roster = roster.csv", f"epoch = {EPOCH}", f"weeks = {shape.weeks}"]
    if follow_rows:
        with open(out / "follow.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["source", "target"])
            writer.writerows(follow_rows)
        names.append("follow.csv")
        settings.append("follow_edges = follow.csv")
    for cfg, corpus in (("report.cfg", "corpus.jsonl"), ("setup.cfg", "empty.jsonl")):
        (out / cfg).write_text("\n".join([f"corpus = {corpus}"] + settings) + "\n", encoding="utf-8")
    truth.inputs = {n: _sha256(out / n) for n in names}
    return truth
