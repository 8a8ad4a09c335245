"""Output checks for one ``report`` or ``ingest`` run against the generator's truth.

Every check compares the program's artifacts with numbers derived from the
generator alone (``gen.Truth``), never with the program's own code:

- ``ingest_report.csv`` skip counts, ``records_read`` and the transaction
  count, exactly.
- ``frequency_*.csv`` and ``edges_*.csv``, exactly.
- ``focus_*.csv`` and ``similarity_*.csv`` against a numpy reference, within
  the 10 significant digits the CSV keeps.
- Institutionness of a seeded sample of ``facts_*.csv`` rows, recomputed by
  brute force over every h from the temporal h-index definition.
- The injected burst: every group has an episode of the burst tag covering
  all burst windows.

Each function returns a list of failure messages; empty means the run passed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from gen import BURST_TAG, PRACTICES, SKIP_REASONS, USER_PRACTICES, Truth

MEASURES = ("focus", "similarity", "reproduction", "frequency")
AVERAGE = "AVERAGE"
TOLERANCE = 1e-9  # the CSVs keep 10 significant digits of values in [0, 1]
FACT_SAMPLE = 200


def empty_truth(truth: Truth, corpus_sha256: str) -> Truth:
    """Truth of a run over an empty corpus with the same roster and follow list."""
    return replace(
        truth,
        burst=None,
        counts={p: np.zeros_like(c) for p, c in truth.counts.items()},
        arcs={p: (a if p == "following" else {}) for p, a in truth.arcs.items()},
        records_read=0,
        transactions=0,
        emitted_ids=0,
        skipped={r: 0 for r in SKIP_REASONS},
        inputs={**{k: v for k, v in truth.inputs.items() if k != "corpus.jsonl"},
                "empty.jsonl": corpus_sha256},
    )


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _fmt(value: float) -> str:
    return format(value, ".10g")


def expected_artifacts(truth: Truth) -> set[str]:
    names = {"ingest_report.csv"}
    for p in PRACTICES:
        names.add(f"vectors_{p}.csv")
        names.add(f"facts_{p}.csv")
        names.update(f"{m}_{p}.csv" for m in MEASURES)
    for p in USER_PRACTICES + (("following",) if "following" in truth.arcs else ()):
        names.update({f"network_{p}.csv", f"edges_{p}.csv"})
    return names


def check_ingest_report(path: Path, truth: Truth) -> list[str]:
    want = [["reason", "count"]] + [[r, str(truth.skipped[r])] for r in SKIP_REASONS]
    got = _rows(path)
    return [] if got == want else [f"{path.name}: {got[1:]} != {want[1:]}"]


def check_frequency(path: Path, truth: Truth, practice: str) -> list[str]:
    totals = truth.counts[practice].sum(axis=2)
    got = _series(path)
    errors = []
    for g, group in enumerate(truth.groups):
        for w in range(1, truth.weeks + 1):
            t = int(totals[g, w - 1])
            want = _fmt(float(t)) if t else ""
            if got.get((group, w), (None,))[0] != want:
                errors.append(f"{path.name}: {group} w{w}: {got.get((group, w))} != {want!r}")
    values = [[float(totals[g, w]) if totals[g, w] else None for w in range(truth.weeks)]
              for g in range(len(truth.groups))]
    errors += _check_average(path, got, values, truth.weeks, relative=True)
    return errors[:5]


def _series(path: Path) -> dict[tuple[str, int], tuple[str, str]]:
    rows = _rows(path)
    if rows[0] != ["group", "window", "value", "sd"]:
        raise ValueError(f"{path.name}: bad header {rows[0]}")
    return {(r[0], int(r[1])): (r[2], r[3]) for r in rows[1:]}


def _close(got: str, want, relative: bool) -> bool:
    if want is None or got == "":
        return want is None and got == ""
    scale = max(abs(want), 1.0) if relative else 1.0
    return abs(float(got) - want) <= TOLERANCE * scale


def _check_average(path, got, values, weeks, relative=False) -> list[str]:
    errors = []
    for w in range(weeks):
        present = [v[w] for v in values if v[w] is not None]
        if present:
            mean = sum(present) / len(present)
            sd = math.sqrt(sum((v - mean) ** 2 for v in present) / len(present))
        else:
            mean = sd = None
        value, spread = got.get((AVERAGE, w + 1), ("?", "?"))
        if not (_close(value, mean, relative) and _close(spread, sd, relative)):
            errors.append(f"{path.name}: AVERAGE w{w + 1}: ({value}, {spread}) != ({mean}, {sd})")
    return errors


def focus_reference(counts: np.ndarray) -> list[list]:
    """[group][window] -> 1 - H/log2(n), 1.0 for one fact, None for no facts."""
    c = counts.astype(np.float64)
    total = c.sum(axis=2, keepdims=True)
    n = (counts > 0).sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(c > 0, c / total, 1.0)
        entropy = -(np.where(c > 0, p * np.log2(p), 0.0)).sum(axis=2)
        value = 1.0 - entropy / np.log2(np.maximum(n, 2))
    value = np.where(n == 1, 1.0, value)
    return [[None if n[g, w] == 0 else float(value[g, w]) for w in range(counts.shape[1])]
            for g in range(counts.shape[0])]


def similarity_reference(counts: np.ndarray) -> list[list]:
    """[group][window] -> mean cosine against every other active group."""
    G, W, _ = counts.shape
    out = [[None] * W for _ in range(G)]
    for w in range(W):
        x = counts[:, w, :].astype(np.float64)
        active = np.flatnonzero(x.sum(axis=1) > 0)
        if len(active) < 2:
            continue
        xa = x[active]
        norms = np.sqrt((xa * xa).sum(axis=1))
        cos = (xa @ xa.T) / np.outer(norms, norms)
        for i, g in enumerate(active.tolist()):
            out[g][w] = float((cos[i].sum() - cos[i, i]) / (len(active) - 1))
    return out


def check_measure(path: Path, truth: Truth, practice: str, reference) -> list[str]:
    values = reference(truth.counts[practice])
    got = _series(path)
    errors = []
    for g, group in enumerate(truth.groups):
        for w in range(truth.weeks):
            value = got.get((group, w + 1), ("?",))[0]
            if not _close(value, values[g][w], relative=False):
                errors.append(f"{path.name}: {group} w{w + 1}: {value!r} != {values[g][w]}")
    errors += _check_average(path, got, values, truth.weeks)
    return errors[:5]


def check_edges(path: Path, truth: Truth, practice: str) -> list[str]:
    group_of = {h: truth.groups[g] for h, g in zip(truth.handles, truth.member_group.tolist())}
    arcs = truth.arcs.get(practice, {})
    want = [["source", "target", "weight", "source_group", "target_group"]] + [
        [s, t, str(arcs[(s, t)]), group_of[s], group_of[t]] for (s, t) in sorted(arcs)
    ]
    got = _rows(path)
    if got == want:
        return []
    diff = [(a, b) for a, b in zip(got, want) if a != b][:1]
    return [f"{path.name}: {len(got) - 1} arcs vs {len(want) - 1} expected, first diff {diff}"]


def institutionness(r: np.ndarray, h0: np.ndarray) -> int:
    """Largest h such that at least h windows have r_t >= h / h0_t (literal).

    Windows with no activity in any group (h0_t undefined) never count.
    """
    defined = ~np.isnan(h0)
    r, h0 = r[defined], h0[defined]
    hs = np.arange(1, len(defined) + 1, dtype=np.float64)
    satisfied = (r[None, :] >= hs[:, None] / h0[None, :]).sum(axis=1)
    ok = np.flatnonzero(satisfied >= hs)
    return int(hs[ok[-1]]) if len(ok) else 0


def check_facts(out: Path, truth: Truth, seed: int) -> list[str]:
    rows = []
    for practice in PRACTICES:
        got = _rows(out / f"facts_{practice}.csv")
        if got[0] != ["group", "practice", "fact", "I", "B", "onset", "end"]:
            return [f"facts_{practice}.csv: bad header {got[0]}"]
        rows += got[1:]
    errors = []
    group_index = {g: i for i, g in enumerate(truth.groups)}
    fact_index = {p: {k: i for i, k in enumerate(truth.fact_keys[p])} for p in PRACTICES}
    h0 = {}
    for p in PRACTICES:
        c = truth.counts[p]
        total = c.sum(axis=(0, 2))
        distinct = (c.sum(axis=0) > 0).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            h0[p] = np.where(distinct > 0, total / np.maximum(distinct, 1), np.nan)
    rng = np.random.default_rng(seed)
    sample = rng.choice(len(rows), size=min(FACT_SAMPLE, len(rows)), replace=False)
    for i in sample.tolist():
        group, practice, fact, value = rows[i][:4]
        f = fact_index[practice].get(fact)
        if group not in group_index or f is None:
            errors.append(f"facts_{practice}.csv: unknown row {rows[i]}")
            continue
        want = institutionness(truth.counts[practice][group_index[group], :, f], h0[practice])
        if int(value) != want:
            errors.append(f"facts_{practice}.csv: I({group}, {fact}) = {value} != {want}")
    if truth.burst is not None:
        onset, end = truth.burst
        for group in truth.groups:
            covered = any(
                r[0] == group and r[1] == "tagging" and r[2] == BURST_TAG and r[5]
                and int(r[5]) <= onset and int(r[6]) >= end
                for r in rows
            )
            if not covered:
                errors.append(f"facts_tagging.csv: no {BURST_TAG} episode covering "
                              f"windows {onset}..{end} in {group}")
    return errors[:10]


def check_report(out: Path, truth: Truth, seed: int) -> list[str]:
    """All checks on a ``report`` output directory."""
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"manifest.json: {exc}"]
    errors = []
    bad = {k: v for k, v in manifest["practices"].items() if v != "ok"}
    if bad:
        errors.append(f"manifest practices not ok: {bad}")
    ingest = manifest["ingest"]
    want = {
        "records_read": truth.records_read,
        "transactions": truth.transactions,
        "skipped": truth.skipped,
        "dropped_outside_grid": 0,
    }
    if ingest != want:
        errors.append(f"manifest ingest {ingest} != {want}")
    inputs = {Path(v["path"]).name: v["sha256"] for v in manifest["inputs"].values()}
    if inputs != truth.inputs:
        errors.append(f"manifest inputs {inputs} != generated {truth.inputs}")
    missing = expected_artifacts(truth) - set(manifest["artifacts"])
    if missing:
        return errors + [f"missing artifacts {sorted(missing)}"]
    errors += check_ingest_report(out / "ingest_report.csv", truth)
    for p in PRACTICES:
        errors += check_frequency(out / f"frequency_{p}.csv", truth, p)
        errors += check_measure(out / f"focus_{p}.csv", truth, p, focus_reference)
        errors += check_measure(out / f"similarity_{p}.csv", truth, p, similarity_reference)
    for p in USER_PRACTICES + (("following",) if "following" in truth.arcs else ()):
        errors += check_edges(out / f"edges_{p}.csv", truth, p)
    errors += check_facts(out, truth, seed)
    return errors


def check_ingest(out: Path, stdout: str, truth: Truth) -> list[str]:
    """All checks on an ``ingest`` output directory and its summary line."""
    errors = check_ingest_report(out / "ingest_report.csv", truth)
    want_line = (f"read {truth.records_read} records: {truth.transactions} transactions, "
                 f"{sum(truth.skipped.values())} skipped")
    if want_line not in stdout:
        errors.append(f"ingest summary {stdout.strip()!r} != {want_line!r}")
    refs = {p: 0 for p in PRACTICES}
    n = 0
    ids = set()
    with open(out / "transactions.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            refs[rec["practice"]] += len(rec["facts"])
            ids.add(rec["id"])
            n += 1
    want_refs = {p: int(truth.counts[p].sum()) for p in PRACTICES}
    if (n, len(ids), refs) != (truth.transactions, truth.emitted_ids, want_refs):
        errors.append(f"transactions.jsonl: {n} lines, {len(ids)} ids, {refs} references; "
                      f"want {truth.transactions}, {truth.emitted_ids}, {want_refs}")
    return errors
