"""Each measure responds to the urn's new-fact probability alpha.

Under cumulative advantage a low alpha lets a few facts take most references,
so a group's culture is concentrated (focus), shared with the other groups
(similarity), kept from one window to the next (reproduction) and carried by
facts that stay above the base rate for many windows (institutionness).  A
high alpha spreads references over fresh facts and wears all four down.

These hold for any seeded stream from the same model, not for particular
draws: each test asserts an ordering only where the values over five seeds
at one alpha all lie on one side of the values at the other.  Reproduction
is not asserted between 0.02 and 0.1: from a cold urn the two ranges overlap.
"""

from __future__ import annotations

import functools

from culturestream.binning import WindowSpec, bin_transactions
from culturestream.facts import fact_measures
from culturestream.measures import average_series, build_series
from culturestream.synth import SynthConfig, generate

SEEDS = range(5)
GROUPS = [("A", 15), ("B", 15), ("C", 15)]
WINDOWS = 13


@functools.cache
def _response(alpha: float, seed: int) -> dict[str, float]:
    """Mean of each AVERAGE series, and the highest institutionness, for one stream."""
    config = SynthConfig(groups=GROUPS, windows=WINDOWS, rate=4.0, alpha=alpha, hom=0.5,
                         seed=seed, practices=("tagging",))
    transactions, _ = generate(config)
    spec = WindowSpec(config.epoch, WINDOWS, config.width)
    vectors, dropped = bin_transactions(transactions, spec)
    assert dropped == 0
    groups = [g for g, _ in GROUPS]
    out = {}
    for measure in ("focus", "similarity", "reproduction"):
        average = average_series(build_series(vectors, spec, "tagging", groups, measure))
        means = [mean for _, mean, _ in average if mean is not None]
        out[measure] = sum(means) / len(means)
    out["institutionness"] = max(
        row.institutionness for row in fact_measures(vectors, spec, groups, "tagging")
    )
    return out


def _values(measure: str, alpha: float) -> list[float]:
    return [_response(alpha, seed)[measure] for seed in SEEDS]


def _apart(measure: str, lower_alpha: float, higher_alpha: float) -> None:
    """Every seed's value at the lower alpha exceeds every seed's value at the higher."""
    low, high = _values(measure, lower_alpha), _values(measure, higher_alpha)
    assert min(low) > max(high), (measure, lower_alpha, low, higher_alpha, high)


def test_focus_falls_with_alpha():
    _apart("focus", 0.02, 0.3)
    _apart("focus", 0.3, 0.6)


def test_similarity_falls_with_alpha():
    _apart("similarity", 0.02, 0.3)
    _apart("similarity", 0.3, 0.6)


def test_reproduction_falls_at_high_alpha():
    _apart("reproduction", 0.3, 0.6)


def test_highest_institutionness_falls_with_alpha():
    _apart("institutionness", 0.02, 0.6)
