"""Reference cells, facts, series and network statistics that the production code must equal.

The README's measures as straight-line code over dense per-window lists.
For ``culturestream.binning``: each transaction's window from its definition,
and the rows of ``vectors_P.csv``.  For ``culturestream.facts.fact_measures``:
every fact gets an r_t for every window, institutionness is an exhaustive
search over h, and each window's two state costs are evaluated one at a time.
For ``culturestream.measures``: focus, similarity, reproduction, frequency and
the AVERAGE rows, each from its definition, and the pairwise cosine.  For
``culturestream.network``: the arcs, and each scope's statistics by
enumerating its members.  Tests compare the production code with this one,
and take every oracle from here; the tool never calls it.

The exhaustive institutionness search, the burst improvements' closed form
and the dense-to-sparse series helper are defined once, in
``culturestream.selftest``, whose shipped battery runs them too; this module
imports them from there and nothing else from ``culturestream``.
"""

from __future__ import annotations

import math

from culturestream.selftest import brute_force_institutionness, improvement_closed_form, sparse

P1_CLAMP_EPS = 1e-9


KIND_FOR_PRACTICE = {"tagging": "hashtag", "retweeting": "retweetee", "mentioning": "mentionee"}


def bin_cells(transactions, epoch, width, count, roster):
    """``bin_transactions``' cells: {(group, window, practice): {fact: count}}.

    A transaction at time t falls in window floor((t - epoch) / width) + 1,
    clamped to 1..count, under its author's roster group; one outside
    [epoch, epoch + count * width) is left out.
    """
    cells = {}
    for t in transactions:
        if not epoch <= t.timestamp < epoch + count * width:
            continue
        window = min(max(math.floor((t.timestamp - epoch) / width) + 1, 1), count)
        vec = cells.setdefault((roster[t.author], window, t.practice), {})
        for fact in t.facts:
            vec[fact] = vec.get(fact, 0) + 1
    return cells


def vector_rows(cells, practice):
    """``vectors_P.csv`` rows: (group, window, practice, fact_kind, fact, count), sorted."""
    return [
        (group, window, practice, KIND_FOR_PRACTICE[practice], fact, n)
        for (group, window, prac), vec in sorted(cells.items()) if prac == practice
        for fact, n in sorted(vec.items())
    ]


def log_gamma_costs(r, d):
    """The per-window log-gamma costs, evaluated one window and one state at a time."""
    p0 = sum(r) / sum(d)
    p1 = min(2.0 * p0, 1.0 - P1_CLAMP_EPS)
    costs = []
    for rt, dt in zip(r, d):
        if dt == 0:
            costs.append((0.0, 0.0))
            continue
        ln_choose = math.lgamma(dt + 1) - math.lgamma(rt + 1) - math.lgamma(dt - rt + 1)
        pair = []
        for ps in (p0, p1):
            cost = ln_choose
            if rt > 0:
                cost += rt * math.log(ps)
            if dt - rt > 0:
                cost += (dt - rt) * math.log(1.0 - ps)
            pair.append(-cost)
        costs.append(tuple(pair))
    return costs


def episodes_from_costs(costs):
    """(onset, end, weight) of each maximal run of windows whose burst state is cheaper."""
    improvements = [g0 - g1 for g0, g1 in costs]
    episodes = []
    onset = None
    for window, imp in enumerate(improvements + [0.0], 1):
        if imp > 0 and onset is None:
            onset = window
        elif not imp > 0 and onset is not None:
            episodes.append((onset, window - 1, sum(improvements[onset - 1 : window - 1])))
            onset = None
    return episodes


def fact_rows(cells, count, groups, practice, variant):
    """``fact_measures`` rows as (group, practice, fact, I, B, onset, end) tuples.

    ``cells`` maps (group, window, practice) to {fact: count}; rows come per
    group in ``groups`` order, facts ascending, episodes in window order.
    """
    h0 = []
    for w in range(1, count + 1):
        vecs = [vec for (_, window, prac), vec in cells.items() if (window, prac) == (w, practice)]
        distinct = {fact for vec in vecs for fact in vec}
        total = sum(n for vec in vecs for n in vec.values())
        h0.append(total / len(distinct) if distinct else None)
    rows = []
    for group in groups:
        dense = [cells.get((group, w, practice), {}) for w in range(1, count + 1)]
        d = [sum(vec.values()) for vec in dense]
        group_rows = []
        for fact in sorted({fact for vec in dense for fact in vec}):
            r = [vec.get(fact, 0) for vec in dense]
            score = brute_force_institutionness(r, h0, variant)
            episodes = episodes_from_costs(log_gamma_costs(r, d))
            group_rows += [[group, practice, fact, score, w, on, end] for on, end, w in episodes]
            if score > 0 and not episodes:
                group_rows.append([group, practice, fact, score, 0.0, None, None])
        top = max((row[4] for row in group_rows), default=0.0)
        for row in group_rows:
            if top > 0:
                row[4] /= top
            rows.append(tuple(row))
    return rows


def _ranking(vec):
    return sorted(vec, key=lambda fact: (-vec[fact], fact))


def rbo_from_definition(r1, r2, p):
    """Extended RBO with explicit prefix sets and the tail frozen at the last agreement."""
    depth = max(len(r1), len(r2))
    agreements = []
    for d in range(1, depth + 1):
        shared = set(r1[:d]) & set(r2[:d])
        agreements.append(2 * len(shared) / (min(d, len(r1)) + min(d, len(r2))))
    head = sum(a * p ** (d - 1) for d, a in enumerate(agreements, 1))
    return (1 - p) * head + agreements[-1] * p**depth


def _focus(counts):
    nonzero = [c for c in counts if c]
    if len(nonzero) == 1:
        return 1.0
    total = sum(nonzero)
    entropy = -sum(c / total * math.log2(c / total) for c in nonzero)
    return 1.0 - entropy / math.log2(len(nonzero))


def pair_similarity(v_i, v_j):
    """Cosine of two count vectors on the union of their facts; build_series' reference."""
    if not v_i or not v_j:
        return 0.0
    dot = 0.0
    for fact, count in v_i.items():
        other = v_j.get(fact)
        if other:
            dot += count * other
    if dot == 0.0:
        return 0.0
    norm_i = math.sqrt(sum(c * c for c in v_i.values()))
    norm_j = math.sqrt(sum(c * c for c in v_j.values()))
    return dot / (norm_i * norm_j)


def _similarity(counts, others):
    cosines = []
    for other in others:
        dot = sum(a * b for a, b in zip(counts, other))
        norm = math.sqrt(sum(a * a for a in counts)) * math.sqrt(sum(b * b for b in other))
        cosines.append(dot / norm)
    return sum(cosines) / len(cosines) if cosines else None


def series(cells, count, groups, practice, measure, rbo_p):
    """``build_series`` as {group: [(window, value)]}, value None where a point is undefined.

    Each cell of ``practice`` is a dense count list over the practice's sorted
    fact universe.  Similarity is the mean cosine against the other groups
    active in the window; reproduction compares windows w - 1 and w.
    """
    universe = sorted({f for (_, _, prac), vec in cells.items() if prac == practice for f in vec})
    dense = {(g, w): [vec.get(f, 0) for f in universe]
             for (g, w, prac), vec in cells.items() if prac == practice}
    out = {}
    for group in groups:
        points = []
        for w in range(2 if measure == "reproduction" else 1, count + 1):
            counts = dense.get((group, w))
            if counts is None:
                value = None
            elif measure == "reproduction":
                before = cells.get((group, w - 1, practice))
                value = None if before is None else rbo_from_definition(
                    _ranking(before), _ranking(cells[group, w, practice]), rbo_p)
            elif measure == "frequency":
                value = float(sum(counts))
            elif measure == "focus":
                value = _focus(counts)
            else:  # similarity
                value = _similarity(counts, [v for (g, t), v in dense.items()
                                             if t == w and g != group])
            points.append((w, value))
        out[group] = points
    return out


def average(series_by_group):
    """The AVERAGE rows: (window, population mean, population sd) over non-null values."""
    rows = []
    for column in zip(*series_by_group.values()):
        values = [v for _, v in column if v is not None]
        if not values:
            rows.append((column[0][0], None, None))
            continue
        mean = math.fsum(values) / len(values)
        variance = math.fsum((v - mean) ** 2 for v in values) / len(values)
        rows.append((column[0][0], mean, math.sqrt(variance)))
    return rows


def graph_arcs(roster, references, weighted):
    """A practice graph's arcs as {(source, target): weight}.

    ``roster`` maps member to group.  ``references`` are (source, target)
    pairs; a self-reference or a pair with an endpoint off the roster is
    dropped, and each other pair adds 1 to its arc's weight (``weighted``) or
    sets it to 1 (a follow edge).
    """
    arcs = {}
    for src, tgt in references:
        if src != tgt and src in roster and tgt in roster:
            arcs[src, tgt] = arcs.get((src, tgt), 0) + 1 if weighted else 1
    return arcs


def network_rows(roster, references, weighted):
    """``group_stats`` rows as (group, nodes, density, k_out, k_in, w_out, w_in, homophily).

    The graph is ``graph_arcs(roster, references, weighted)``.  A scope is a
    group's active members, or every active member for TOTAL; rows come per
    group, sorted, then TOTAL.
    """
    arcs = graph_arcs(roster, references, weighted)
    active = sorted({member for arc in arcs for member in arc})
    homophily = {}  # per sender: the share of its out-weight sent to its own group
    for m in active:
        out = {tgt: w for (src, tgt), w in arcs.items() if src == m}
        if out:
            same = sum(w for tgt, w in out.items() if roster[tgt] == roster[m])
            homophily[m] = same / sum(out.values())
    rows = []
    for scope in sorted(set(roster.values())) + ["TOTAL"]:
        members = [m for m in active if scope == "TOTAL" or roster[m] == scope]
        n = len(members)
        # density on the scope's induced subgraph; degrees to any roster member
        inside = sum(1 for s in members for t in members if s != t and (s, t) in arcs)
        k_out = sum(1 for m in members for t in roster if (m, t) in arcs)
        k_in = sum(1 for m in members for s in roster if (s, m) in arcs)
        w_out = sum(arcs.get((m, t), 0) for m in members for t in roster)
        w_in = sum(arcs.get((s, m), 0) for m in members for s in roster)
        senders = [homophily[m] for m in members if m in homophily]
        rows.append((
            scope,
            n,
            inside / (n * (n - 1)) if n >= 2 else None,
            *[total / n if n else None for total in (k_out, k_in, w_out, w_in)],
            sum(senders) / len(senders) if senders else None,
        ))
    return rows
