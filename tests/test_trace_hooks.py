"""The benchmark's traced run still finds every function it wraps.

``perfbench/trace_child.py`` wraps package functions by name and reads their
arguments and results to count each layer's work.  A refactor that renames,
moves or reshapes one of them breaks the traced benchmark run; this test
runs the tracer on the demo fixture and checks that it exits cleanly, counts
work in every layer and leaves the artifacts byte-identical to the goldens.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from test_golden import DEMO_DIGESTS

ROOT = Path(__file__).resolve().parent.parent


def test_traced_demo_run(fixtures_dir, tmp_path):
    spans_path = tmp_path / "spans.json"
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), str(ROOT / "src"),
         str(spans_path), "report", "--config", "demo.cfg", "--out", str(out)],
        cwd=fixtures_dir, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans_path.read_text(encoding="utf-8"))
    assert record["code"] == 0
    counters = record["counters"]
    for name in ("corpus.records_read", "binning.cells", "measures.similarity_pairs",
                 "facts.series", "facts.episodes", "network.arcs"):
        assert counters[name] > 0, name
    names = {span[0] for span in record["spans"]}
    assert {"measures.similarity", "measures.rank", "measures.average", "facts.series",
            "facts.institutionness", "facts.burst", "network.stats"} <= names
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == DEMO_DIGESTS
