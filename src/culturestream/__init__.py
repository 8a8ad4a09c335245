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

__version__ = "0.1.0"
