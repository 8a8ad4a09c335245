"""Self-test of the benchmark's generator and output checker.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

It generates two small workloads (pre-extracted and raw text), runs the real
``report`` and ``ingest`` commands on them once, and requires the checker to
pass the untouched outputs.  Then it tampers with one artifact at a time and
requires the checker to flag every tampered copy, including through the
"same bytes as the first run" rule that ``run.py`` applies to repeated runs.
It also requires the generator to give the same input bytes for the same seed
and other bytes for another seed.  Exit code 0 when every case behaves as
expected, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

from run import SRC, WORK, Bench

import gen

SEED = 7
SHAPES = {
    "pre": gen.Shape(groups=3, members=10, weeks=8, rate=2.0, burst_weeks=2, follows=3),
    "raw": gen.Shape(groups=3, members=10, weeks=6, rate=4.0, raw=True, burst_weeks=2, dirt=0.05),
}


def _edit_csv(path: Path, row: int, col: int, value) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[col] = value(cells[col])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _first_row(path: Path, pred) -> int:
    lines = path.read_text(encoding="utf-8").splitlines()
    return next(i for i, line in enumerate(lines[1:], 1) if pred(line.split(",")))


def _drop_rows(path: Path, pred) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    kept = [line for line in lines if not pred(line.split(","))]
    path.write_text("\n".join(kept) + "\n", encoding="utf-8")


def _bump(cell: str) -> str:
    return str(int(cell) + 1)


def _nudge(cell: str) -> str:
    return format(float(cell) + 1e-6, ".10g")


def _manifest_failed(out: Path) -> None:
    path = out / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["practices"]["tagging"] = "failed: tampered"
    path.write_text(json.dumps(manifest), encoding="utf-8")


def _frequency(out: Path) -> None:
    path = out / "frequency_tagging.csv"
    _edit_csv(path, _first_row(path, lambda r: r[2] != ""), 2, _nudge)


def _focus(out: Path) -> None:
    path = out / "focus_mentioning.csv"
    _edit_csv(path, _first_row(path, lambda r: r[2] not in ("", "1")), 2, _nudge)


def _similarity(out: Path) -> None:
    path = out / "similarity_tagging.csv"
    _edit_csv(path, _first_row(path, lambda r: r[2] != ""), 2, _nudge)


def _edges(out: Path) -> None:
    path = out / "edges_retweeting.csv"
    _edit_csv(path, 1, 2, _bump)


def _institutionness(out: Path) -> None:
    # Every row, since the checker recomputes a sample of them.
    path = out / "facts_tagging.csv"
    for row in range(1, len(path.read_text(encoding="utf-8").splitlines())):
        _edit_csv(path, row, 3, _bump)


def _burst(out: Path) -> None:
    _drop_rows(out / "facts_tagging.csv", lambda r: r[2] == gen.BURST_TAG)


def _ingest_report(out: Path) -> None:
    path = out / "ingest_report.csv"
    _edit_csv(path, 1, 1, _bump)


def _transactions(out: Path) -> None:
    path = out / "transactions.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")


def _artifact_removed(out: Path) -> None:
    (out / "facts_mentioning.csv").unlink()


def _truncated(out: Path) -> None:
    path = out / "edges_mentioning.csv"
    path.write_text(path.read_text(encoding="utf-8")[:200], encoding="utf-8")


REPORT_TAMPERS = {
    "artifact removed": _artifact_removed,
    "artifact truncated": _truncated,
    "manifest practice failed": _manifest_failed,
    "frequency value": _frequency,
    "focus value": _focus,
    "similarity value": _similarity,
    "edge weight": _edges,
    "institutionness value": _institutionness,
    "burst episode removed": _burst,
    "ingest report count": _ingest_report,
}
INGEST_TAMPERS = {
    "ingest report count": _ingest_report,
    "transaction dropped": _transactions,
}


def main() -> int:
    if not (SRC / "culturestream" / "cli.py").is_file():
        print(f"error: no culturestream sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    try:
        for name, shape in SHAPES.items():
            a = gen.write_workload(work / f"{name}-a", name, SEED, shape)
            b = gen.write_workload(work / f"{name}-b", name, SEED, shape)
            c = gen.write_workload(work / f"{name}-c", name, SEED + 1, shape)
            expect(a.inputs == b.inputs, f"{name}: same seed gives the same inputs")
            expect(a.inputs["corpus.jsonl"] != c.inputs["corpus.jsonl"],
                   f"{name}: another seed gives another corpus")
            if shape.raw:
                expect(all(a.dirt.values()), f"{name}: every dirt kind written {a.dirt}")
            cfg = work / f"{name}-a" / "report.cfg"
            for command, tampers in (("report", REPORT_TAMPERS), ("ingest", INGEST_TAMPERS)):
                bench = Bench(SEED, work, time.monotonic() + 120)
                op = bench.cli(command, command, cfg, a)
                expect(op.code == 0 and not op.errors,
                       f"{name} {command}: untouched outputs pass {op.errors}")
                out = work / f"out_{command}"
                log = work / f"{command}.log"
                for what, tamper in tampers.items():
                    copy = work / f"tampered_{command}"
                    shutil.rmtree(copy, ignore_errors=True)
                    shutil.copytree(out, copy)
                    tamper(copy)
                    fresh = Bench(SEED, work, time.monotonic() + 120)
                    errors = fresh.check(command, copy, log, a)
                    expect(bool(errors), f"{name} {command}: flags {what}: {errors[:1]}")
                    repeat = bench.check(command, copy, log, a)
                    expect(bool(repeat), f"{name} {command}: repeat run flags {what}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
