"""Bin transactions into fixed-width windows and build culture vectors.

A culture vector is the fact-frequency distribution of one (group, window,
practice) cell.  Windows are half-open [start, start + width) and indexed
from 1; group-windows with no activity get no vector at all, which downstream
measures surface as null points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .corpus import KIND_FOR_PRACTICE, Transaction, write_csv

VectorKey = tuple[str, int, str]  # (group, window, practice)

DEFAULT_WIDTH = 7 * 86400.0  # one week, in seconds


@dataclass(frozen=True)
class WindowSpec:
    """Observation grid: first window start, window width, window count."""

    epoch: float
    count: int
    width: float = DEFAULT_WIDTH

    def __post_init__(self):
        if not (self.width > 0 and math.isfinite(self.width)):
            raise ValueError("window width must be positive and finite")
        if self.count < 1:
            raise ValueError("window count must be at least 1")

    @property
    def end(self) -> float:
        return self.epoch + self.width * self.count

    def index_of(self, timestamp: float) -> Optional[int]:
        """1-based window index, or None outside [epoch, end)."""
        if not (self.epoch <= timestamp < self.end):
            return None
        # Float round-off can put a timestamp just below end one window past the grid.
        return min(int((timestamp - self.epoch) // self.width) + 1, self.count)


# The fact-frequency distribution of one (group, window, practice) cell.
CultureVector = dict[str, int]


def bin_transactions(transactions: Iterable[Transaction], spec: WindowSpec,
                     roster: dict[str, str]) -> tuple[dict[VectorKey, CultureVector], int]:
    """Fold a transaction stream into culture vectors, under each author's roster group.

    Returns (vectors keyed by (group, window, practice), dropped count), dropped
    counting transactions off the grid.  Every author on the grid must be in the
    roster, as ``load_corpus`` and ``synth`` ensure; any other raises KeyError.
    """
    vectors: dict[VectorKey, CultureVector] = {}
    dropped = 0
    for t in transactions:
        window = spec.index_of(t.timestamp)
        if window is None:
            dropped += 1
            continue
        key = (roster[t.author], window, t.practice)
        vec = vectors.get(key)
        if vec is None:
            vec = vectors[key] = {}
        for fact in t.facts:
            vec[fact] = vec.get(fact, 0) + 1
    return vectors, dropped


def rank_vector(vector: CultureVector) -> list[str]:
    """The facts in rank order: descending count, ties ascending by fact key."""
    if not vector:
        raise ValueError("empty culture")
    return sorted(vector, key=lambda fact: (-vector[fact], fact))


def write_vectors_csv(vectors: dict[VectorKey, CultureVector], practice: str, path) -> int:
    """Export one practice's vectors as ``group,window,practice,fact_kind,fact,count``."""
    return write_csv(
        path,
        ["group", "window", "practice", "fact_kind", "fact", "count"],
        (
            (*key, KIND_FOR_PRACTICE[practice], fact, count)
            for key in sorted(key for key in vectors if key[2] == practice)
            for fact, count in sorted(vectors[key].items())
        ),
    )
