"""Theory-driven synthetic transaction streams for validating the measures.

Three mechanisms, all seed-deterministic:

  cumulative advantage   each tagging act starts a new hashtag with
                         probability alpha, otherwise reuses an existing one
                         proportionally to its cumulative count (urn scheme,
                         shared across groups so popular facts are shared)
  homophily mixing       retweet/mention targets are drawn from the sender's
                         own group with probability hom, otherwise uniformly
                         from the whole roster (minus the sender)
  burst injection        during a window interval, a designated hashtag's
                         selection odds are multiplied

The urn can be warm-started with a population of background facts
(warmup_facts, warmup_tokens initial references each).  Injected facts are
seeded the same way, as ordinary members of that initial culture rather than
founders, so the multiplier - not first-mover advantage - is what makes them
burst.  With warmup_tokens well above 1 the initial shares are deterministic
and the founding-era volatility of a cold urn disappears.

Activity is Poisson per member, window, and practice.  The output is a
regular Transaction stream plus a roster, both writable in the formats the
ingest layer consumes.

Every draw is a ``random.Random(seed).random()`` call, a sequence Python keeps
across versions, so a seed gives the same bytes under every interpreter.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .binning import DEFAULT_WIDTH, WindowSpec
from .corpus import PRACTICES, Transaction, normalize_handle, parse_timestamp, write_csv
from .measures import AVERAGE
from .network import TOTAL


@dataclass(frozen=True)
class BurstInjection:
    fact: str
    onset: int
    end: int
    multiplier: float

    def active(self, window: int) -> bool:
        return self.onset <= window <= self.end


@dataclass
class SynthConfig:
    """Every synth setting and its default; ``culturestream synth`` flags override them."""

    groups: Sequence[tuple[str, int]] = (("A", 20), ("B", 20))  # (group id, member count)
    windows: int = 13
    rate: float = 2.0  # expected transactions per member, window, and practice
    alpha: float = 0.1  # new-fact probability in (0, 1]
    hom: float = 0.5  # probability a user reference stays in-group
    seed: int = 0
    burst_injections: list[BurstInjection] = field(default_factory=list)
    warmup_facts: int = 0  # pre-existing background facts
    warmup_tokens: int = 1  # initial references per pre-existing fact
    practices: tuple[str, ...] = PRACTICES
    epoch: float = 0.0  # or any form parse_timestamp reads
    width: float = DEFAULT_WIDTH

    def __post_init__(self):
        self.epoch = parse_timestamp(self.epoch)
        WindowSpec(self.epoch, self.windows, self.width)  # the grid report bins the stream on
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        if not (0.0 <= self.hom <= 1.0):
            raise ValueError("hom must be in [0, 1]")
        if not (0 <= self.rate < math.inf):
            raise ValueError("need a finite rate >= 0")
        if self.warmup_facts < 0 or self.warmup_tokens < 1:
            raise ValueError("need warmup_facts >= 0 and warmup_tokens >= 1")
        bad = [p for p in self.practices if p not in PRACTICES]
        if bad or not self.practices:
            raise ValueError(f"practices must be a non-empty subset of {PRACTICES}")
        for inj in self.burst_injections:
            if not (1 <= inj.onset <= inj.end <= self.windows and 1 < inj.multiplier < math.inf):
                raise ValueError(f"burst {inj.fact!r}: need 1 <= onset <= end <= {self.windows}"
                                 " and a finite multiplier > 1")
        self._roster: dict[str, str] = {}
        for group, size in self.groups:
            handles = [f"{group.lower()}{i:03d}" for i in range(size)]
            shared = [h for h in handles if h in self._roster]
            try:  # every handle must come back from the roster file as written
                valid = bool(group) and all(normalize_handle(h) == h for h in handles)
            except ValueError:
                valid = False
            problem = ("needs a non-empty name without whitespace or a leading '@'" if not valid
                       else "is a name reserved for the output" if group in (AVERAGE, TOTAL)
                       else f"needs size >= 1, got {size}" if size < 1
                       else f"shares member {shared[0]!r} with group {self._roster[shared[0]]!r}"
                       if shared else None)
            if problem:
                raise ValueError(f"group {group!r} {problem}")
            self._roster.update(dict.fromkeys(handles, group))

    def roster(self) -> dict[str, str]:
        return self._roster


class _FactUrn:
    """Cumulative-advantage urn over hashtag keys with optional odds boosts.

    Sampling an existing fact is a uniform draw from the token list, which is
    exactly count-proportional; a boosted fact first claims its extra odds
    mass (multiplier - 1) * count.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.tokens: list[str] = []
        self.counts: dict[str, int] = {}
        self.serial = 0

    def seed_fact(self, key: str, tokens: int = 1) -> None:
        if key not in self.counts:
            self.counts[key] = tokens
            self.tokens.extend([key] * tokens)

    def draw(self, alpha: float, boosts: dict[str, float]) -> str:
        if not self.tokens or self.rng.random() < alpha:
            self.serial += 1
            key = f"h{self.serial:05d}"
        else:
            key = self._draw_existing(boosts)
        self.tokens.append(key)
        self.counts[key] = self.counts.get(key, 0) + 1
        return key

    def _draw_existing(self, boosts: dict[str, float]) -> str:
        total = float(len(self.tokens))
        extras = [
            (key, (mult - 1.0) * self.counts[key])
            for key, mult in boosts.items()
            if key in self.counts and mult > 1.0
        ]
        extra_mass = sum(mass for _, mass in extras)
        u = self.rng.random() * (total + extra_mass)
        if u >= total:
            u -= total
            for key, mass in extras:
                if u < mass:
                    return key
                u -= mass
            return extras[-1][0]  # guard against float round-off
        return self.tokens[int(u)]


def generate(config: SynthConfig) -> tuple[list[Transaction], dict[str, str]]:
    """Deterministic synthetic stream for the configured mechanisms."""
    rng = random.Random(config.seed)
    roster = config.roster()
    members = list(roster)
    index_of = {m: i for i, m in enumerate(members)}
    same_group = {
        m: [o for o in members if roster[o] == roster[m] and o != m] for m in members
    }
    urn = _FactUrn(rng)
    for i in range(config.warmup_facts):
        urn.seed_fact(f"w{i + 1:05d}", config.warmup_tokens)
    for injection in config.burst_injections:
        urn.seed_fact(injection.fact, config.warmup_tokens)

    transactions: list[Transaction] = []
    serial = 0
    for window in range(1, config.windows + 1):
        boosts = {
            inj.fact: inj.multiplier
            for inj in config.burst_injections
            if inj.active(window)
        }
        window_start = config.epoch + (window - 1) * config.width
        for member in members:
            for practice in config.practices:
                for _ in range(poisson(rng, config.rate)):
                    if practice == "tagging":
                        fact = urn.draw(config.alpha, boosts)
                    else:
                        fact = draw_target(
                            rng, member, members, index_of, same_group[member], config.hom
                        )
                        if fact is None:
                            continue
                    serial += 1
                    transactions.append(
                        Transaction(
                            id=f"s{serial:07d}",
                            author=member,
                            timestamp=window_start + rng.random() * config.width,
                            practice=practice,
                            facts=(fact,),
                        )
                    )
    return transactions, roster


POISSON_PART = 500.0  # exp(-500) is about 7e-218, far from underflow


def poisson(rng: random.Random, rate: float) -> int:
    """A Poisson(rate) count: the sum of one count per equal part of at most
    POISSON_PART, each drawn by inversion from one uniform."""
    parts = math.ceil(rate / POISSON_PART)
    total = 0
    for _ in range(parts):
        part, u, k = rate / parts, rng.random(), 0
        term = cdf = math.exp(-part)
        while cdf < u:
            k += 1
            term *= part / k
            if cdf + term == cdf:  # the sum stopped short of u (at rate 4: 1 - 3 * 2**-53)
                break
            cdf += term
        total += k
    return total


def draw_target(rng, member, members, index_of, own_group, hom) -> Optional[str]:
    """One user target: own group with probability ``hom``, else anyone but ``member``."""
    if rng.random() < hom:
        if not own_group:
            return None
        return own_group[int(rng.random() * len(own_group))]
    if len(members) < 2:
        return None
    # uniform over the whole roster minus the sender
    pick = int(rng.random() * (len(members) - 1))
    if pick >= index_of[member]:
        pick += 1
    return members[pick]


def write_roster_csv(roster: dict[str, str], path) -> int:
    return write_csv(path, ["user", "group"], ((user, roster[user]) for user in sorted(roster)))
