"""Socio-cultural measures over group-attributed communication streams.

The package turns line-delimited communication records into weekly culture
vectors per (group, practice) and computes, on top of them:

  - focus (1 - normalized Shannon entropy)
  - between-group similarity (cosine)
  - week-to-week reproduction (extended rank-biased overlap)
  - per-fact institutionness (a temporal h-index against week-specific
    reference thresholds)
  - per-fact burst episodes (two-state cost model)
  - directed practice networks with group density/degree/homophily stats

plus a seed-deterministic synthetic generator (cumulative advantage,
homophily mixing, burst injection) used to validate the measures.
"""

from .binning import CultureVector, WindowSpec, bin_transactions, rank_vector
from .corpus import (
    IngestResult,
    Transaction,
    extract_facts,
    load_corpus,
    load_roster,
    parse_timestamp,
)
from .errors import ConfigError, DataError
from .facts import (
    avg_rate,
    burst_episodes,
    collect_fact_series,
    fact_measures,
    institutionness_value,
    normalize_bursts,
)
from .measures import (
    focus,
    group_similarity,
    pair_similarity,
    rbo_extended,
    reproduction,
)
from .network import PracticeGraph, build_graph, group_stats, homophily
from .pipeline import RunConfig, run_pipeline
from .synth import BurstInjection, SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "BurstInjection",
    "ConfigError",
    "CultureVector",
    "DataError",
    "IngestResult",
    "PracticeGraph",
    "RunConfig",
    "SynthConfig",
    "Transaction",
    "WindowSpec",
    "avg_rate",
    "bin_transactions",
    "build_graph",
    "burst_episodes",
    "collect_fact_series",
    "extract_facts",
    "fact_measures",
    "focus",
    "generate",
    "group_similarity",
    "group_stats",
    "homophily",
    "institutionness_value",
    "load_corpus",
    "load_roster",
    "normalize_bursts",
    "pair_similarity",
    "parse_timestamp",
    "rank_vector",
    "rbo_extended",
    "reproduction",
    "run_pipeline",
    "__version__",
]
