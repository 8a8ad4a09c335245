"""One traced ``culturestream report`` run, in its own process.

Usage: python3 trace_child.py SRC_DIR SPANS_JSON report --config CFG --out DIR

It imports ``culturestream`` from SRC_DIR, replaces the public functions of
each module with wrappers that record a span (name, start, end, parent) and
then calls ``cli.main`` with the remaining arguments, which is the same code
path as ``python -m culturestream.cli report``.  Each wrapper patches the name
where the caller looks it up: ``pipeline.load_corpus`` rather than
``corpus.load_corpus``, ``measures.rank_vector`` rather than
``binning.rank_vector``.  Spans stay in memory until the run ends and are then
written to SPANS_JSON together with the layer counters.
"""

from __future__ import annotations

import json
import resource
import sys
import time


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.kept: dict[str, list] = {}  # results the counters are computed from

    def wrap(self, owner, attr: str, name, keep=None):
        """Record a span per call of ``owner.attr``; ``name`` may be a function
        of the call's arguments.  ``keep`` is an optional (key, pick) pair:
        ``pick(args, result)`` of every call is appended to ``kept[key]``, for
        counting after the run."""
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        kept, pick = (self.kept.setdefault(keep[0], []), keep[1]) if keep else (None, None)
        fixed = None if callable(name) else name

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fixed or name(args), start, end, parent)
            if kept is not None:
                kept.append(pick(args, result))
            return result

        setattr(owner, attr, traced)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install(tracer: Tracer, cs) -> None:
    """Wrap the public functions of every measured module."""
    pipeline, binning, measures, facts, network = (
        cs.pipeline, cs.binning, cs.measures, cs.facts, cs.network)
    w = tracer.wrap
    returned = lambda args, res: res  # noqa: E731
    w(pipeline, "run_pipeline", "pipeline.run")
    w(pipeline, "_sha256_file", "pipeline.hash")
    w(pipeline, "load_roster", "corpus.roster")
    w(pipeline, "load_corpus", "corpus.load", keep=("ingest", returned))
    w(pipeline, "write_ingest_report", "write.ingest")
    w(binning, "bin_transactions", "binning.bin", keep=("bin", returned))
    w(binning, "write_vectors_csv", "write.vectors")
    w(measures, "build_series", lambda a: "measures." + a[4], keep=("series", lambda a, r: a))
    w(measures, "average_series", "measures.average")
    w(measures, "rank_vector", "measures.rank")
    w(measures, "write_series_csv", "write.series")
    w(facts, "fact_measures", "facts.total")
    w(facts, "avg_rate", "facts.avg_rate")
    w(facts, "collect_fact_series", "facts.series")
    w(facts, "institutionness_value", "facts.institutionness")
    w(facts, "burst_episodes", "facts.burst", keep=("episodes", lambda a, r: len(r)))
    w(facts, "normalize_bursts", "facts.burst")
    w(facts, "write_fact_csv", "write.facts")
    w(network, "build_graph", "network.build", keep=("graphs", returned))
    w(network, "group_stats", "network.stats")
    w(network, "load_follow_edges", "network.follow")
    w(network, "build_follow_graph", "network.follow", keep=("graphs", lambda a, r: r[0]))
    w(network, "write_stats_csv", "write.network")
    w(network, "write_edges_csv", "write.network")
    # ru_maxrss right after load_corpus returns, before binning allocates.
    load = pipeline.load_corpus

    def load_then_rss(*args, **kwargs):
        result = load(*args, **kwargs)
        tracer.kept["rss_after_load"] = [_rss_mb()]
        return result

    pipeline.load_corpus = load_then_rss


def counters(kept: dict) -> dict:
    """Layer work counts, computed after the run from the kept results."""
    out: dict[str, float] = {}
    ingest = kept["ingest"][0]
    read = ingest.records_read
    out["corpus.records_read"] = read
    out["corpus.skipped"] = sum(ingest.skipped.values())
    out["corpus.emit_ratio"] = len({t.id for t in ingest.transactions}) / max(read, 1)
    out["corpus.rss_mb"] = kept["rss_after_load"][0]
    vectors, dropped = kept["bin"][0]
    out["binning.cells"] = len(vectors)
    out["binning.dropped"] = dropped
    pairs = 0
    for args in kept["series"]:
        vecs, _spec, practice, groups, measure = args[:5]
        if measure != "similarity":
            continue
        members = set(groups)
        active: dict[int, int] = {}
        for g, w, p in vecs:
            if p == practice and g in members:
                active[w] = active.get(w, 0) + 1
        pairs += sum(n * (n - 1) for n in active.values())
    out["measures.similarity_pairs"] = pairs
    lengths = kept.get("episodes", [])
    out["facts.series"] = len(lengths)
    out["facts.episodes"] = sum(lengths)
    out["facts.burst_ratio"] = sum(1 for n in lengths if n) / max(len(lengths), 1)
    out["network.arcs"] = sum(len(g.arcs) for g in kept.get("graphs", []))
    return out


def main() -> int:
    src, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    spans, clock = tracer.spans, time.perf_counter
    start = clock()
    sys.path.insert(0, src)
    import culturestream.cli as cli
    import culturestream as cs

    spans.append(("cli.import", start, clock(), -1))
    install(tracer, cs)
    tracer.wrap(cli, "main", "cli.main")
    code = cli.main(argv)
    end = clock()
    record = {
        "code": code,
        "spans": spans,
        "counters": counters(tracer.kept) if code == 0 else {},
    }
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    # The kept results would otherwise be freed at exit, outside every span,
    # where the untraced run frees them inside run_pipeline.  The wrappers
    # hold the lists themselves, so each is emptied.
    for kept in tracer.kept.values():
        kept.clear()
    spans.clear()
    # Counting, writing and freeing the spans is not part of the traced run.
    with open(spans_path + ".post", "w", encoding="utf-8") as fh:
        fh.write(repr(clock() - end))
    return code


if __name__ == "__main__":
    sys.exit(main())
