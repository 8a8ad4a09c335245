"""Command-line interface.

Subcommands:

    ingest    normalize a corpus into a transaction stream + skip report
    measure   culture vectors and the per-window measure series
    facts     per-fact institutionness and burst episodes
    network   directed practice graphs and group statistics
    synth     generate a synthetic corpus + roster from the generative model
    report    the full artifact set (measure + facts + network + manifest)
    selftest  run the built-in check battery

Exit codes: 0 success, 1 usage/configuration error, 2 data error,
3 selftest failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import pipeline
from .corpus import write_transactions_jsonl
from .errors import ConfigError, DataError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SELFTEST = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _add_run_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, help="settings file with 'key = value' lines")
    for setting in pipeline.SETTINGS:
        meta = setting.metadata
        flag = "--" + meta["key"].replace("_", "-")
        sub.add_argument(flag, help=meta["help"], **meta["options"])


def _run_config(args: argparse.Namespace) -> pipeline.RunConfig:
    """Config file settings overridden by any explicitly given flags."""
    values: dict[str, str] = {}
    if args.config is not None:
        values.update(pipeline.parse_config_file(args.config))
    for setting in pipeline.SETTINGS:
        key = setting.metadata["key"]
        if (value := getattr(args, key)) is not None:
            values[key] = str(value)
    return pipeline.build_run_config(values)


def _run_stages(args: argparse.Namespace) -> int:
    config = _run_config(args)
    manifest = pipeline.run_pipeline(config, args.stages)
    print(f"wrote {len(manifest['artifacts'])} artifacts to {config.out_dir}")
    failed = {name: s for name, s in manifest["practices"].items() if s != "ok"}
    for name, s in sorted(failed.items()):
        print(f"warning: {name}: {s}", file=sys.stderr)
    return EXIT_DATA if failed else EXIT_OK


def _cmd_ingest(args) -> int:
    counts = pipeline.run_ingest(_run_config(args))
    print(
        f"read {counts['records_read']} records: "
        f"{counts['transactions']} transactions, "
        f"{sum(counts['skipped'].values())} skipped"
    )
    return EXIT_OK


def _parse_groups(text: str) -> list[tuple[str, int]]:
    groups = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, size = item.partition(":")
        try:
            groups.append((name, int(size)))
        except ValueError:
            raise ConfigError(f"--groups: expected NAME:SIZE, got {item!r}")
    if not groups:
        raise ConfigError("--groups: at least one NAME:SIZE entry required")
    return groups


def _parse_injection(text: str):
    from .synth import BurstInjection
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError(f"--burst: expected FACT:ONSET:END:MULTIPLIER, got {text!r}")
    try:
        return BurstInjection(parts[0], int(parts[1]), int(parts[2]), float(parts[3]))
    except ValueError as exc:
        raise ConfigError(f"--burst: {exc}")


def _cmd_synth(args) -> int:
    from dataclasses import fields
    # synth and selftest are imported by their own commands only, not at start-up.
    from . import synth
    given = {f.name: getattr(args, f.name) for f in fields(synth.SynthConfig) if f.name in args}
    try:
        config = synth.SynthConfig(**given)
    except ValueError as exc:
        raise ConfigError(str(exc))
    transactions, roster = synth.generate(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_transactions_jsonl(transactions, out / "corpus.jsonl")
    synth.write_roster_csv(roster, out / "roster.csv")
    print(
        f"wrote {len(transactions)} transactions for {len(roster)} members "
        f"to {out / 'corpus.jsonl'}"
    )
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from . import selftest
    try:
        report, failed = selftest.run(args.only or None)
    except ValueError as exc:
        raise ConfigError(str(exc))
    print(report)
    return EXIT_SELFTEST if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="culturestream",
        description="Socio-cultural measures over group-attributed communication streams.",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # Run subcommands: name, help, and the stages they run (None: ingest only).
    for name, doc, stages in (
        ("ingest", "normalize a corpus into transactions + skip report", None),
        ("measure", "culture vectors and per-window measure series", frozenset({"measure"})),
        ("facts", "per-fact institutionness and burst episodes", frozenset({"facts"})),
        ("network", "directed practice graphs and group statistics", frozenset({"network"})),
        ("report", "full artifact set with manifest", pipeline.ALL_STAGES),
    ):
        p = sub.add_parser(name, help=doc)
        _add_run_options(p)
        p.set_defaults(func=_cmd_ingest if stages is None else _run_stages, stages=stages)

    # Only the flags given reach SynthConfig, which holds every default.
    p = sub.add_parser("synth", help="generate a synthetic corpus and roster",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--seed", type=int, help="generator seed (default 0)")
    p.add_argument("--weeks", dest="windows", metavar="WEEKS", type=int,
                   help="windows to generate (default 13)")
    p.add_argument("--groups", type=_parse_groups, help="comma-separated NAME:SIZE list")
    p.add_argument("--rate", type=float,
                   help="expected transactions per member, window, practice (default 2)")
    p.add_argument("--alpha", type=float, help="new-fact probability for tagging (default 0.1)")
    p.add_argument("--hom", type=float,
                   help="probability a user reference stays in-group (default 0.5)")
    p.add_argument("--burst", dest="burst_injections", action="append", type=_parse_injection,
                   metavar="FACT:ONSET:END:MULT", help="burst injection; repeatable")
    p.add_argument("--warmup-facts", type=int, help="pre-existing background facts (default 0)")
    p.add_argument("--warmup-tokens", type=int,
                   help="initial references per pre-existing fact (default 1)")
    p.add_argument("--epoch", help="stream start (default epoch second 0)")
    p.add_argument("--width-seconds", dest="width", metavar="WIDTH_SECONDS", type=float,
                   help="window width (default 604800)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("selftest", help="run the built-in check battery")
    p.add_argument("--only", action="append", metavar="NAME",
                   help="run a single named check; repeatable")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
