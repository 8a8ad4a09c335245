"""End-to-end orchestration: ingest, bin, measure, facts, network, manifest.

The run configuration can come from a key-value config file, command-line
flags, or both (flags win).  Config file format, one setting per line:

    # comment
    corpus = fixtures/demo_corpus.jsonl
    roster = fixtures/demo_roster.csv
    epoch = 2013-07-20T00:00:00Z
    weeks = 13

'#' starts a comment at the start of a line or after whitespace, so
``corpus = data#1.jsonl`` keeps its '#'.  Relative paths in a config file are
resolved against the file's directory.  All artifacts are CSV except the
manifest (JSON with config hash, input checksums, and per-artifact row
counts).  Outputs are deterministic: two runs over the same inputs produce
byte-identical directories.
"""

from __future__ import annotations

import argparse
import json
import logging
import re
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Optional

from . import binning, facts, measures, network
from .corpus import (
    PRACTICES,
    USER_PRACTICES,
    TransactionWriter,
    load_corpus,
    load_roster,
    parse_timestamp,
    write_ingest_report,
)
from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)

ALL_STAGES = frozenset({"measure", "facts", "network"})

_COMMENT_RE = re.compile(r"(?:^|\s)#")


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_practices(value: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in value.split(",") if p.strip())


def _parse_markers(value: str) -> list[tuple[int, str]]:
    markers = []
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        window, _, label = item.partition(":")
        try:
            markers.append((int(window), label))
        except ValueError:
            raise ValueError(f"expected 'window:label', got {item!r}")
    return markers


def _setting(key: str, parse, help: str, path: bool = False, options=None, **field_args):
    """A RunConfig field that is also one run setting.

    ``key`` is the config-file key (the flag is ``--`` plus the key with '_'
    as '-'), ``parse`` turns its string form into the field value, ``help``
    and ``options`` go to argparse, and ``path`` marks values that a config
    file resolves against its own directory.
    """
    meta = {"key": key, "parse": parse, "help": help, "path": path, "options": options or {}}
    return field(metadata=meta, **field_args)


_BOOL_FLAG = {"action": argparse.BooleanOptionalAction, "default": None}


@dataclass(kw_only=True)
class RunConfig:
    """The run settings, in flag order; field names are the manifest's echo keys."""

    corpus: Path = _setting("corpus", Path, "line-delimited JSON corpus", path=True)
    roster: Path = _setting("roster", Path, "CSV mapping user,group", path=True)
    follow_edges: Optional[Path] = _setting(
        "follow_edges", lambda v: Path(v) if v else None,
        "CSV follow edge list source,target", path=True, default=None,
    )
    out_dir: Path = _setting("out", Path, "output directory", path=True)
    epoch: float = _setting(
        "epoch", parse_timestamp, "observation start (ISO-8601 or epoch seconds)"
    )
    count: int = _setting("weeks", int, "number of observation windows")
    width: float = _setting(
        "width_seconds", float, "window width (default 604800)", default=binning.DEFAULT_WIDTH
    )
    rbo_p: float = _setting("rbo_p", float, "reproduction persistence (default 0.9)", default=0.9)
    inst_variant: str = _setting(
        "inst_variant", str, "institutionness threshold variant (default literal)",
        options={"choices": facts.INSTITUTIONNESS_VARIANTS}, default="literal",
    )
    practices: tuple[str, ...] = _setting(
        "practices", _parse_practices, "comma-separated practice subset",
        default=PRACTICES,
    )
    markers: list[tuple[int, str]] = _setting(
        "markers", _parse_markers, "event markers, comma-separated window:label",
        default_factory=list,
    )
    restrict_to_roster: bool = _setting(
        "restrict_to_roster", _parse_bool,
        "keep only user references to roster members (default on)",
        options=_BOOL_FLAG, default=True,
    )
    include_retweet_hashtags: bool = _setting(
        "retweet_hashtags", _parse_bool, "count hashtags inside retweeted text (default on)",
        options=_BOOL_FLAG, default=True,
    )

    def validate(self) -> binning.WindowSpec:
        if not Path(self.corpus).is_file():
            raise ConfigError(f"corpus not found: {self.corpus}")
        if not Path(self.roster).is_file():
            raise ConfigError(f"roster not found: {self.roster}")
        if self.follow_edges is not None and not Path(self.follow_edges).is_file():
            raise ConfigError(f"follow edge list not found: {self.follow_edges}")
        if self.count < 2:
            raise ConfigError("need at least 2 windows for reproduction series")
        try:
            spec = binning.WindowSpec(self.epoch, self.count, self.width)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not (0.0 <= self.rbo_p < 1.0):
            raise ConfigError("rbo persistence must be in [0, 1)")
        if self.inst_variant not in facts.INSTITUTIONNESS_VARIANTS:
            raise ConfigError(f"unknown institutionness variant {self.inst_variant!r}")
        for practice in self.practices:
            if practice not in PRACTICES:
                raise ConfigError(f"unknown practice {practice!r}")
        if len(set(self.practices)) != len(self.practices):
            raise ConfigError(f"repeated practice in {', '.join(self.practices)}")
        for window, _ in self.markers:
            if not (1 <= window <= self.count):
                raise ConfigError(f"marker window {window} outside 1..{self.count}")
        return spec


SETTINGS = fields(RunConfig)


def parse_config_file(path) -> dict[str, str]:
    """Read ``key = value`` lines; '#' at line start or after whitespace starts a comment."""
    values: dict[str, str] = {}
    base = Path(path).parent
    path_keys = {s.metadata["key"] for s in SETTINGS if s.metadata["path"]}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc.strerror}") from None
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = _COMMENT_RE.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{line_no}: empty key")
        if key in path_keys and value:
            value = str((base / value) if not Path(value).is_absolute() else Path(value))
        values[key] = value
    return values


def build_run_config(values: dict[str, str]) -> RunConfig:
    """Typed RunConfig from merged string settings (file values + flags)."""
    unknown = sorted(set(values) - {s.metadata["key"] for s in SETTINGS})
    if unknown:
        raise ConfigError(f"unknown settings: {', '.join(unknown)}")
    required = [s.metadata["key"] for s in SETTINGS
                if s.default is MISSING and s.default_factory is MISSING]
    missing = [key for key in required if not values.get(key)]
    if missing:
        raise ConfigError(f"missing required settings: {', '.join(missing)}")
    parsed = {}
    for setting in SETTINGS:
        key = setting.metadata["key"]
        if key in values:
            try:
                parsed[setting.name] = setting.metadata["parse"](values[key])
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}")
    return RunConfig(**parsed)


def _sha256_file(path) -> str:
    # Imported here so that ingest never loads OpenSSL, and report only after
    # its data passes.
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _plain(value):
    """A setting value as JSON data: paths as strings, sequences as lists."""
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _config_echo(config: RunConfig) -> dict:
    # out_dir is deliberately excluded so runs into different directories
    # stay byte-identical.
    return {s.name: _plain(getattr(config, s.name)) for s in SETTINGS if s.name != "out_dir"}


def _load(config: RunConfig, sink=None):
    """Validate, read the roster and corpus, and make the output directory.

    Nothing is written to the output directory before the configuration
    validates and both inputs have been read; a ``sink`` given for the
    transactions (see ``load_corpus``) must therefore write elsewhere.  The
    corpus is read as bytes and each line decoded on its own, so a byte order
    mark is ignored and a line that is not UTF-8 counts as malformed.  Records
    are kept inside the window grid's span.  Returns (window grid, roster,
    ingest result, output directory).
    """
    spec = config.validate()
    try:
        with open(config.roster, encoding="utf-8-sig") as fh:
            roster = load_roster(fh)
    except UnicodeDecodeError as exc:
        raise DataError(f"roster: {exc}") from None
    reserved = sorted(set(roster.values()) & {measures.AVERAGE, network.TOTAL})
    if reserved:
        raise DataError(f"roster group names reserved for the output: {', '.join(reserved)}")
    with open(config.corpus, "rb") as fh:
        ingest = load_corpus(
            fh,
            roster,
            (spec.epoch, spec.end),
            restrict_to_roster=config.restrict_to_roster,
            include_retweet_hashtags=config.include_retweet_hashtags,
            sink=sink,
        )
    if ingest.malformed_lines:
        logger.warning(
            "malformed records: %d; %s", ingest.skipped["malformed"],
            "; ".join(f"line {n}: {reason}" for n, reason in ingest.malformed_lines),
        )
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return spec, roster, ingest, out


def _ingest_counts(ingest) -> dict:
    return {
        "records_read": ingest.records_read,
        "transactions": len(ingest.transactions),
        "skipped": dict(ingest.skipped),
    }


def run_pipeline(config: RunConfig, stages: frozenset = ALL_STAGES) -> dict:
    """Run the selected stages and return the manifest.

    A failure inside one practice is recorded in the manifest and does not
    disturb the other practices' artifacts.  Every pass over the transactions
    (binning, then each user graph, written once built) comes first, and the
    transactions are released before the per-practice measures run.
    """
    spec, roster, ingest, out = _load(config)
    artifacts: dict[str, int] = {}
    status: dict[str, str] = {}

    def emit(name: str, writer, *args) -> None:
        artifacts[name] = writer(*args, out / name)

    def emit_graph(practice: str, graph: network.PracticeGraph) -> None:
        emit(f"network_{practice}.csv", network.write_stats_csv, network.group_stats(graph),
             practice)
        emit(f"edges_{practice}.csv", network.write_edges_csv, graph)

    if not ingest.transactions:
        logger.warning("corpus produced no transactions; artifacts will be header-only")
    vectors, dropped = binning.bin_transactions(ingest.transactions, spec, roster)
    # Each user graph is written once built; a failed build fails its practice at once.
    for practice in config.practices if "network" in stages else ():
        if practice in USER_PRACTICES:
            try:
                emit_graph(practice, network.build_graph(ingest.transactions, practice, roster))
            except Exception as exc:
                logger.exception("practice %s failed", practice)
                status[practice] = f"failed: {exc}"
    if "measure" in stages:
        emit("ingest_report.csv", write_ingest_report, ingest)
    counts = dict(_ingest_counts(ingest), dropped_outside_grid=dropped)
    del ingest

    groups = sorted(set(roster.values()))
    for practice in config.practices:
        try:
            if "measure" in stages:
                emit(f"vectors_{practice}.csv", binning.write_vectors_csv, vectors, practice)
                for measure in measures.MEASURES:
                    per_group = measures.build_series(
                        vectors, spec, practice, groups, measure, config.rbo_p
                    )
                    avg = measures.average_series(per_group)
                    emit(f"{measure}_{practice}.csv", measures.write_series_csv, per_group, avg)
            if "facts" in stages:
                rows = facts.fact_measures(vectors, spec, groups, practice, config.inst_variant)
                emit(f"facts_{practice}.csv", facts.write_fact_csv, rows)
            status.setdefault(practice, "ok")
        except Exception as exc:  # isolate practice failures
            logger.exception("practice %s failed", practice)
            status[practice] = f"failed: {exc}"

    if "network" in stages and config.follow_edges is not None:
        try:
            with open(config.follow_edges, encoding="utf-8-sig") as fh:
                edges, unparseable = network.load_follow_edges(fh)
            graph, skipped_edges = network.build_follow_graph(edges, roster)
            del edges
            if unparseable or skipped_edges:
                logger.info("skipped %d unparseable follow rows and %d self-loops or edges "
                            "outside the roster", unparseable, skipped_edges)
            emit_graph("following", graph)
            del graph  # neither the edges nor the graph lives through the hashing
            status["following"] = "ok"
        except Exception as exc:
            logger.exception("following network failed")
            status["following"] = f"failed: {exc}"

    import hashlib  # see _sha256_file

    echo = _config_echo(config)
    inputs = {
        name: {"path": str(path), "sha256": _sha256_file(path)}
        for name, path in (
            ("corpus", config.corpus),
            ("roster", config.roster),
            ("follow_edges", config.follow_edges),
        )
        if path is not None
    }
    manifest = {
        "config": echo,
        "config_sha256": hashlib.sha256(
            json.dumps(echo, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "inputs": inputs,
        "ingest": counts,
        "artifacts": artifacts,
        "practices": status,
        "markers": echo["markers"],
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return manifest


def run_ingest(config: RunConfig) -> dict:
    """Ingest only: normalized transaction stream plus the skip report.

    Transactions are written as they are emitted, to a temporary file outside
    the output directory that becomes ``transactions.jsonl`` once the pass has
    completed, so memory grows with the distinct record ids only.
    """
    # Imported here so that report does not pay for them.
    import shutil
    import tempfile

    tmp = tempfile.NamedTemporaryFile("w", encoding="utf-8", suffix=".jsonl", delete=False)
    try:
        with tmp:
            _, _, ingest, out = _load(config, TransactionWriter(tmp.file))
        shutil.copyfile(tmp.name, out / "transactions.jsonl")
    finally:
        Path(tmp.name).unlink()
    write_ingest_report(ingest, out / "ingest_report.csv")
    return _ingest_counts(ingest)
