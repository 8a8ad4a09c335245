"""Reference fact extraction that ``extract_facts`` must agree with.

The straightforward form of ``culturestream.corpus.extract_facts``: every
mention is tested against every RT span, and every match is walked with its
position.  The hashtag fold takes the NFKD route for every token.  Tests
compare the production function with this one; the tool never calls it.
"""

from __future__ import annotations

import re
import unicodedata
from typing import Optional

_HASHTAG_RE = re.compile(r"#(\w+)")
_RT_RE = re.compile(r"\b(?i:RT)\s+@?([A-Za-z0-9_]+):?")
_MENTION_RE = re.compile(r"@([A-Za-z0-9_]+)")


def fold_hashtag(token: str) -> str:
    folded = unicodedata.normalize("NFKD", token).encode("ascii", "ignore").decode("ascii")
    return folded.lower()


def extract_facts(
    text: str,
    roster: Optional[set[str]] = None,
    restrict_to_roster: bool = True,
    include_retweet_hashtags: bool = True,
) -> dict[str, list[str]]:
    roster = roster or set()

    rt_matches = list(_RT_RE.finditer(text))
    rt_spans = [m.span() for m in rt_matches]
    retweetees = list(dict.fromkeys(m.group(1).lower() for m in rt_matches))

    mentionees = []
    for m in _MENTION_RE.finditer(text):
        if any(start <= m.start() < end for start, end in rt_spans):
            continue
        mentionees.append(m.group(1).lower())
    rt_set = set(retweetees)
    mentionees = [u for u in dict.fromkeys(mentionees) if u not in rt_set]

    if restrict_to_roster:
        retweetees = [u for u in retweetees if u in roster]
        mentionees = [u for u in mentionees if u in roster]

    hashtags = []
    cutoff = rt_matches[0].start() if (rt_matches and not include_retweet_hashtags) else None
    for m in _HASHTAG_RE.finditer(text):
        if cutoff is not None and m.start() >= cutoff:
            continue
        tag = fold_hashtag(m.group(1))
        if tag:
            hashtags.append(tag)
    hashtags = list(dict.fromkeys(hashtags))

    return {"tagging": hashtags, "retweeting": retweetees, "mentioning": mentionees}
