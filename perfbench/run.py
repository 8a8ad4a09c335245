"""Benchmark of the ``culturestream`` CLI on seeded synthetic workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload raw --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 0

It generates the workload's inputs from the seed (``gen.py``), then runs the
real CLI from ``src/`` as a closed loop, one subprocess at a time:

- set-up: ``report`` over the workload's roster, follow list and settings with
  an empty corpus;
- ``report`` and ``ingest`` on the workload.

After one untimed set-up run (bytecode, page cache) it repeats rounds of one
run of each for ``--seconds``, with at least ``MIN_RUNS`` rounds.  Commands
start through ``spawn.py``, which measures them.  A run of the fixed
calibration work (``calib.py``) separates consecutive commands, and each
command's wall time is scaled to the machine speed at which the calibration
takes ``CALIBRATION_S``, using the mean of the calibration runs on either
side.  The end-to-end times are the medians of these scaled times, because
the speed of a shared machine drifts by tens of percent within minutes;
``baseline.json`` gives the spread of raw and scaled medians measured on a
2-vCPU machine.  The raw wall times are printed too.

Every run's outputs are checked against the generator's truth (``check.py``)
outside the timed region.  Identical artifact bytes give identical check
results, so a run whose artifact digests equal an already checked run's is
not checked again; any other digest set fails the run, because all runs of
one invocation must write the same bytes.

With ``--trace 1`` it also runs ``trace_child.py`` (``TRACED_RUNS`` times at
full size, as often at half size along the workload's axis and as often on
the set-up input) and reports the per-layer metrics instead of the
end-to-end ones.  The full-size traced runs fail when the layer spans miss
more than ``COVERAGE_GAP`` of their wall time beyond what the set-up runs
miss.

For one workload, the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload
all`` runs every workload in turn and ends with a table of the metrics, with
units, per workload.  The exit code is 0
whenever the benchmark itself ran, whatever the checks found, and 2 when the
checkout holds no ``src/culturestream``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402

MIN_RUNS = 3
TRACED_RUNS = 3
BUDGET_S = 170.0  # every run must end within 180 s
RUN_LIMIT_S = 120.0  # a single CLI run that takes longer is killed and fails

LAYERS = ("cli", "corpus", "binning", "measures", "facts", "network", "write", "pipeline")
# Span names (see trace_child.py) whose summed self time is a metric "<name>_s".
SPAN_METRICS = (
    "corpus.load", "binning.bin",
    "measures.similarity", "measures.focus", "measures.reproduction", "measures.rank",
    "measures.frequency", "measures.average",
    "facts.avg_rate", "facts.series", "facts.institutionness", "facts.burst",
    "network.build", "network.stats", "network.follow",
    "write.vectors", "write.series", "write.facts", "write.network", "write.ingest",
    "pipeline.hash",
)
TRACE_RESERVE_S = 60.0  # kept free of the loop for the traced runs
# The layer spans must account for all but this share of the traced run.
COVERAGE_GAP = 0.05
# End-to-end times are reported at the machine speed where calib.py takes this
# long: roughly its time on the 2-vCPU machine of the baseline, when quiet.
CALIBRATION_S = 0.30


@dataclass
class Op:
    kind: str  # setup, report, ingest, traced or traced_half
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int
    errors: list = field(default_factory=list)
    scaled_s: float = float("nan")  # wall_s at the reference machine speed


class Bench:
    def __init__(self, seed: int, work: Path, deadline: float):
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.ops: list[Op] = []
        self.checked: dict[str, tuple[dict, list]] = {}  # kind -> (digests, errors)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def spawn(self, cmd: list[str], log: Path, cwd: Path = ROOT) -> tuple[float, float, float, int]:
        """Wall time, peak RSS (MB), CPU time and exit code of one command."""
        limit = min(RUN_LIMIT_S, max(self.left(), 1.0))
        usage = self.work / "usage.json"
        usage.unlink(missing_ok=True)
        with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            subprocess.run([sys.executable, str(HERE / "spawn.py"), str(limit), str(usage)] + cmd,
                           stdout=out, stderr=err, env=self.env, cwd=cwd, timeout=limit + 10)
        r = json.loads(usage.read_text(encoding="utf-8"))
        return r["wall_s"], r["rss_mb"], r["cpu_s"], r["code"]

    def cli(self, kind: str, command: str, cfg: Path, truth) -> Op:
        """One untraced CLI run into a fresh output directory, then its check.

        Like the traced run, it starts in the directory of ``cfg`` and names
        the file relative to it, so that the input paths the manifest records
        do not depend on where the checkout or the work directory is.
        """
        out = self.work / f"out_{kind}"
        shutil.rmtree(out, ignore_errors=True)
        log = self.work / f"{kind}.log"
        cmd = [sys.executable, "-m", "culturestream.cli", command, "--config", cfg.name,
               "--out", str(out)]
        wall, rss, cpu, code = self.spawn(cmd, log, cfg.parent)
        op = Op(kind, wall, rss, cpu, code)
        self.finish(op, out, log, truth, kind)
        return op

    def finish(self, op: Op, out: Path, log: Path, truth, check_as: str) -> None:
        if op.code != 0:
            err = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
            op.errors = [f"exit code {op.code}: {err.strip()[-300:]}"]
        else:
            op.errors = self.check(check_as, out, log, truth)
        self.ops.append(op)

    def check(self, kind: str, out: Path, log: Path, truth) -> list[str]:
        digests = {p.name: _sha256(p) for p in sorted(out.iterdir())}
        first = self.checked.get(kind)
        if first is not None:
            if digests == first[0]:
                return list(first[1])
            changed = sorted(n for n in digests.keys() | first[0].keys()
                             if digests.get(n) != first[0].get(n))
            return [f"artifacts differ from the first {kind} run: {changed}"]
        try:
            if kind == "ingest":
                stdout = log.read_text(encoding="utf-8", errors="replace")
                errors = check.check_ingest(out, stdout, truth)
            else:
                errors = check.check_report(out, truth, self.seed)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
        self.checked[kind] = (digests, errors)
        return errors

    def traced(self, kind: str, cfg: Path, truth, check_as: str) -> dict:
        """One traced run; its artifacts must equal those of ``check_as`` runs."""
        out = self.work / f"out_{kind}"
        shutil.rmtree(out, ignore_errors=True)
        log = self.work / f"{kind}.log"
        spans_path = self.work / f"{kind}.spans.json"
        cmd = [sys.executable, str(HERE / "trace_child.py"), str(SRC), str(spans_path),
               "report", "--config", cfg.name, "--out", str(out)]
        wall, rss, cpu, code = self.spawn(cmd, log, cfg.parent)
        op = Op(kind, wall, rss, cpu, code)
        self.finish(op, out, log, truth, check_as)
        if code != 0:
            return {}
        record = json.loads(spans_path.read_text(encoding="utf-8"))
        post = float(Path(str(spans_path) + ".post").read_text(encoding="utf-8"))
        metrics = layer_metrics(record["spans"])
        metrics.update(record["counters"])
        metrics["write.bytes"] = sum(p.stat().st_size for p in out.iterdir())
        metrics["traced_wall_s"] = wall - post
        metrics["outside_s"] = metrics["traced_wall_s"] - metrics["roots_s"]
        return metrics

    def calibrate(self) -> float:
        """Wall time of one run of the fixed calibration work."""
        wall, _, _, code = self.spawn([sys.executable, str(HERE / "calib.py")],
                                      self.work / "calib.log")
        if code != 0:
            raise RuntimeError(f"calibration failed with exit code {code}")
        return wall

    def left(self) -> float:
        return self.deadline - time.monotonic()


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def layer_metrics(spans: list) -> dict[str, float]:
    """Self time per span name and per layer, plus the inclusive facts time.

    A span's self time is its duration minus the durations of its children;
    the layer of a span is the part of its name before the dot.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        by_name[name] = by_name.get(name, 0.0) + (end - start) - inner
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, t in by_name.items():
        out[name.split(".")[0] + ".self_s"] += t
    for name in SPAN_METRICS:
        out[f"{name}_s"] = by_name.get(name, 0.0)
    out["facts.total_s"] = sum(e - s for n, s, e, _ in spans if n == "facts.total")
    out["roots_s"] = sum(e - s for _, s, e, parent in spans if parent < 0)
    return out


def _coverage_errors(full: dict[str, float], setup: dict[str, float]) -> list[str]:
    """The time that no layer span accounts for, if it is more than
    COVERAGE_GAP of the traced run.

    Outside every span are interpreter start and exit; in the self time of
    ``cli.main`` are argument parsing and the printing of the result.  Both
    must take as long as in the traced set-up run, whose corpus is empty.
    The self time of ``run_pipeline`` (vector filter, row counts, manifest)
    must stay small by itself.
    """
    limit = COVERAGE_GAP * full.get("traced_wall_s", math.nan)
    extra = {
        "outside every span": full.get("outside_s", math.nan) - setup.get("outside_s", math.nan),
        "in cli.main itself": full.get("cli.self_s", math.nan) - setup.get("cli.self_s", math.nan),
        "in run_pipeline itself": full.get("pipeline.self_s", math.nan),
    }
    return [f"{t:.3f} s {what} (limit {limit:.3f} s)"
            for what, t in extra.items() if not t <= limit]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _medians(runs: list[dict]) -> dict[str, float]:
    keys = set().union(*runs) if runs else set()
    return {k: _median([r[k] for r in runs if k in r]) for k in keys}


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    bench = Bench(seed, work, time.monotonic() + BUDGET_S)
    truth = gen.write_workload(work / "in", workload, seed)
    cfg, setup_cfg = work / "in" / "report.cfg", work / "in" / "setup.cfg"
    empty = check.empty_truth(truth, _sha256(work / "in" / "empty.jsonl"))

    bench.cli("setup", "report", setup_cfg, empty)  # warm-up: bytecode, page cache

    # Rounds of one set-up, report and ingest run, so that all three sample the
    # same stretches of time.  The machine's speed drifts by tens of percent
    # over seconds to minutes, so a calibration run separates the commands and
    # each command's wall time is scaled by the mean of the two calibration
    # runs beside it.
    plan = (("setup", setup_cfg, empty), ("report", cfg, truth), ("ingest", cfg, truth))
    ops: dict[str, list[Op]] = {kind: [] for kind, _, _ in plan}
    start = time.monotonic()
    reserve = TRACE_RESERVE_S if trace else 0.0
    before = bench.calibrate()
    while (time.monotonic() - start < seconds or len(ops["ingest"]) < MIN_RUNS) and \
            bench.left() > reserve:
        for kind, config, want in plan:
            op = bench.cli(kind, "ingest" if kind == "ingest" else "report", config, want)
            after = bench.calibrate()
            op.scaled_s = op.wall_s * CALIBRATION_S / ((before + after) / 2)
            before = after
            ops[kind].append(op)
    setup, reports, ingests = ops["setup"], ops["report"], ops["ingest"]

    metrics: dict[str, float] = {}
    if not trace:
        metrics = {
            "report_s": _median([o.scaled_s for o in reports]),
            "report_rss_mb": _median([o.rss_mb for o in reports]),
            "ingest_s": _median([o.scaled_s for o in ingests]),
            "ingest_rss_mb": _median([o.rss_mb for o in ingests]),
            "setup_s": _median([o.scaled_s for o in setup]),
        }
    else:
        half_shape = gen.halved(gen.WORKLOADS[workload], gen.AXES[workload])
        half_truth = gen.write_workload(work / "half", workload, seed, half_shape)
        sizes = {
            "full": ("traced", cfg, truth, "report"),
            "half": ("traced_half", work / "half" / "report.cfg", half_truth, "traced_half"),
            "setup": ("traced_setup", setup_cfg, empty, "setup"),
        }
        # The sizes alternate, and their times are scaled like the end-to-end
        # ones, so that they are compared at one machine speed.
        traced: dict[str, list[dict]] = {size: [] for size in sizes}
        full_ops = []
        for _ in range(TRACED_RUNS):
            for size, run_args in sizes.items():
                m = bench.traced(*run_args)
                after = bench.calibrate()
                scale = CALIBRATION_S / ((before + after) / 2)
                before = after
                traced[size].append({k: v * scale if k.endswith("_s") else v
                                     for k, v in m.items()})
                if size == "full":
                    full_ops.append(bench.ops[-1])
        layer = _medians(traced["full"])
        layer_half = _medians(traced["half"])
        metrics = dict(layer)
        wall = layer.get("traced_wall_s", float("nan"))
        metrics["corpus.records_per_s"] = metrics.get("corpus.records_read", 0) / max(
            metrics.get("corpus.load_s", 0), 1e-9)
        metrics["pipeline.cpu_s"] = _median([o.cpu_s * o.scaled_s / o.wall_s for o in reports])
        metrics["pipeline.trace_overhead_s"] = wall - _median([o.scaled_s for o in reports])
        metrics["pipeline.span_coverage"] = layer.get("roots_s", 0.0) / wall
        # Time in a call that no wrapper catches lands in the self time of its
        # caller, or outside every span.  The traced set-up run (empty corpus)
        # shows how much of either is due whatever the data.
        setup_layer = _medians(traced["setup"])
        coverage_errors = _coverage_errors(layer, setup_layer)
        metrics["cli.unwrapped_s"] = layer.get("cli.self_s", 0.0) - setup_layer.get("cli.self_s", 0.0)
        for op in full_ops:
            op.errors.extend(coverage_errors)
        for name in LAYERS[1:-1]:
            t_full = layer.get(f"{name}.self_s", 0.0)
            t_half = layer_half.get(f"{name}.self_s", 0.0)
            metrics[f"growth.{name}"] = math.log2(max(t_full, 1e-9) / max(t_half, 1e-9))

    failed = [o for o in bench.ops if o.errors]
    attempted = len(bench.ops)
    if not trace:
        metrics["ok_share"] = (attempted - len(failed)) / attempted
    return {
        "bench": bench,
        "truth": truth,
        "reports": reports,
        "ingests": ingests,
        "setup": setup,
        "failed": failed,
        "attempted": attempted,
        "metrics": metrics,
    }


def _summary(workload: str, seed: int, res: dict) -> list[str]:
    lines = [f"workload {workload} seed {seed}: {res['truth'].records_read} records, "
             f"{res['attempted']} runs, {len(res['failed'])} failed"]
    for kind, ops in (("setup", res["setup"]), ("report", res["reports"]),
                      ("ingest", res["ingests"])):
        walls = " ".join(f"{o.wall_s:.3f}" for o in ops)
        scaled = " ".join(f"{o.scaled_s:.3f}" for o in ops)
        lines.append(f"  {kind:7s} n={len(ops):2d} wall_s {walls}")
        lines.append(f"  {kind:7s} n={len(ops):2d} scaled_s {scaled}")
    failed_share = len(res["failed"]) / res["attempted"]
    lines.append(f"  failed_share {failed_share:.4f} ratio")
    for op in res["failed"][:5]:
        lines.append(f"  FAILED {op.kind}: {'; '.join(op.errors)[:500]}")
    for name in sorted(res["metrics"]):
        lines.append(f"  {name} {res['metrics'][name]:.6g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "culturestream" / "cli.py").is_file():
        print(f"error: no culturestream sources under {SRC}", file=sys.stderr)
        return 2
    spec = _spec("per_layer" if args.trace else "end_to_end")
    names = sorted(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: _run_one(name, args, spec) for name in names}
    if args.workload == "all":
        print(f"{'metric':28s} {'unit':6s} " + " ".join(f"{n:>12s}" for n in names))
        for m in spec + [{"name": "failed_share", "unit": "ratio"}]:
            row = " ".join(f"{results[n][m['name']]:12.6g}" for n in names)
            print(f"{m['name']:28s} {m['unit']:6s} {row}")
    return 0


def _run_one(workload: str, args, spec: list[dict]) -> dict[str, float]:
    """Run one workload, print its summary and result line; return its values."""
    work = WORK / f"{workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        res = run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": workload,
        "seed": args.seed,
        "inputs": res["truth"].inputs,
        "dirt": res["truth"].dirt,
        "artifacts": {kind: digests for kind, (digests, _) in res["bench"].checked.items()},
    }
    digest_file = WORK / "digests" / f"{workload}-{args.seed}.json"
    digest_file.parent.mkdir(parents=True, exist_ok=True)
    digest_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for line in _summary(workload, args.seed, res):
        print(line)
    print(f"  digests in {digest_file.relative_to(ROOT)}")
    values = {m["name"]: res["metrics"].get(m["name"], float("nan")) for m in spec}
    correct = not res["failed"] and all(math.isfinite(v) for v in values.values())
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": len(res["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return dict(values, failed_share=len(res["failed"]) / res["attempted"])


def _spec(key: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[key]


if __name__ == "__main__":
    sys.exit(main())
