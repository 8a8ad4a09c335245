"""Config handling and end-to-end artifact production."""

from __future__ import annotations

import hashlib
import importlib
import json
import tempfile
import tracemalloc
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from culturestream import facts, measures, network, pipeline
from culturestream.cli import main
from culturestream.errors import ConfigError, DataError
from culturestream.pipeline import (
    ALL_STAGES,
    RunConfig,
    build_run_config,
    parse_config_file,
    run_ingest,
    run_pipeline,
)
from culturestream.corpus import (
    PRACTICES,
    Transaction,
    load_corpus,
    load_roster,
    write_transactions_jsonl,
)
from culturestream.synth import SynthConfig, generate, write_roster_csv
from test_golden import RAW_SETTINGS, _write_raw_inputs


def _small_inputs(tmp_path, **synth_overrides):
    """Write a small synthetic corpus + roster and return base config values."""
    base = dict(
        groups=[("A", 4), ("B", 4)], windows=3, rate=3.0, alpha=0.3, hom=0.5, seed=11
    )
    base.update(synth_overrides)
    txs, roster = generate(SynthConfig(**base))
    write_transactions_jsonl(txs, tmp_path / "corpus.jsonl")
    write_roster_csv(roster, tmp_path / "roster.csv")
    return {
        "corpus": str(tmp_path / "corpus.jsonl"),
        "roster": str(tmp_path / "roster.csv"),
        "out": str(tmp_path / "out"),
        "epoch": "0",
        "weeks": "3",
    }


class TestConfigFile:
    def test_comments_blanks_and_relative_paths(self, tmp_path):
        (tmp_path / "data").mkdir()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# a run\n"
            "\n"
            "corpus = data/corpus.jsonl  # relative to this file\n"
            "roster = /abs/roster.csv\n"
            "weeks = 13\n"
        )
        values = parse_config_file(cfg)
        assert values["corpus"] == str(tmp_path / "data" / "corpus.jsonl")
        assert values["roster"] == "/abs/roster.csv"
        assert values["weeks"] == "13"

    def test_hash_inside_value_is_not_a_comment(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "corpus = data#1.jsonl\n"
            "roster = roster.csv\t# comment after a tab\n"
            "#out = commented-out\n"
            "  # indented comment\n"
            "markers = 2:tag#x\n"
        )
        values = parse_config_file(cfg)
        assert values == {
            "corpus": str(tmp_path / "data#1.jsonl"),
            "roster": str(tmp_path / "roster.csv"),
            "markers": "2:tag#x",
        }

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("corpus data/corpus.jsonl\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg)

    def test_empty_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("= value\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg)


class TestBuildRunConfig:
    def test_missing_required_settings_are_named(self):
        with pytest.raises(ConfigError, match="roster") as err:
            build_run_config({"corpus": "c", "epoch": "0"})
        assert "weeks" in str(err.value)
        assert "out" in str(err.value)

    def test_defaults(self, tmp_path):
        values = _small_inputs(tmp_path)
        config = build_run_config(values)
        assert config.width == 7 * 86400
        assert config.rbo_p == 0.9
        assert config.inst_variant == "literal"
        assert config.practices == ("tagging", "retweeting", "mentioning")
        assert config.restrict_to_roster is True
        assert config.include_retweet_hashtags is True
        assert config.markers == []
        assert config.follow_edges is None

    def test_bad_epoch_rejected(self, tmp_path):
        values = _small_inputs(tmp_path)
        values["epoch"] = "yesterday"
        with pytest.raises(ConfigError, match="epoch"):
            build_run_config(values)

    def test_bad_numbers_rejected(self, tmp_path):
        values = _small_inputs(tmp_path)
        values["weeks"] = "many"
        with pytest.raises(ConfigError):
            build_run_config(values)

    def test_bad_boolean_rejected(self, tmp_path):
        values = _small_inputs(tmp_path)
        values["restrict_to_roster"] = "maybe"
        with pytest.raises(ConfigError):
            build_run_config(values)

    def test_unknown_keys_rejected(self, tmp_path):
        values = _small_inputs(tmp_path)
        config_file = tmp_path / "run.cfg"
        config_file.write_text(
            "".join(f"{k} = {v}\n" for k, v in values.items()) + "rbo = 0.5\nweek = 4\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="unknown settings: rbo, week"):
            build_run_config(parse_config_file(config_file))
        assert main(["report", "--config", str(config_file)]) == 1
        assert not (tmp_path / "out").exists()

    def test_non_finite_epoch_rejected(self, tmp_path):
        values = _small_inputs(tmp_path)
        for epoch in ("nan", "inf"):
            values["epoch"] = epoch
            with pytest.raises(ConfigError, match="epoch"):
                build_run_config(values)

    def test_markers_parse(self, tmp_path):
        values = _small_inputs(tmp_path)
        values["markers"] = "2:launch, 3:storm"
        config = build_run_config(values)
        assert config.markers == [(2, "launch"), (3, "storm")]


class TestValidation:
    @pytest.mark.parametrize(
        "patch,message",
        [
            (dict(corpus="missing.jsonl"), "corpus"),
            (dict(roster="missing.csv"), "roster"),
            (dict(weeks="1"), "windows"),
            (dict(rbo_p="1.0"), "persistence"),
            (dict(inst_variant="inverse"), "variant"),
            (dict(practices="tagging,blogging"), "practice"),
            (dict(markers="9:late"), "marker"),
            (dict(practices="tagging,tagging"), "repeated practice"),
            (dict(markers="late:9"), "markers: expected 'window:label', got 'late:9'"),
            (dict(follow_edges="missing.csv"), "follow edge list not found"),
        ],
    )
    def test_invalid_configuration_rejected(self, tmp_path, patch, message):
        values = _small_inputs(tmp_path)
        values.update(patch)
        with pytest.raises(ConfigError, match=message):
            build_run_config(values).validate()


class TestMalformedSample:
    def test_sample_is_logged_and_stays_out_of_the_artifacts(self, tmp_path, caplog):
        values = _small_inputs(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        corpus.write_text("".join(lines[:2] + ["not json\n"] + lines[2:]), encoding="utf-8")
        with caplog.at_level("WARNING", logger="culturestream.pipeline"):
            manifest = run_pipeline(build_run_config(values))
        [message] = [r.getMessage() for r in caplog.records if "malformed" in r.getMessage()]
        assert message.startswith("malformed records: 1; line 3: Expecting value")
        assert manifest["ingest"]["skipped"]["malformed"] == 1
        for path in (tmp_path / "out").iterdir():
            assert "Expecting value" not in path.read_text(encoding="utf-8")
            assert "line 3" not in path.read_text(encoding="utf-8")


class TestRunPipeline:
    def test_demo_manifest_shape(self, demo_run):
        out, manifest = demo_run
        assert set(manifest["practices"]) == {
            "tagging", "retweeting", "mentioning", "following"
        }
        assert all(v == "ok" for v in manifest["practices"].values())
        assert manifest["ingest"]["transactions"] > 0
        assert manifest["ingest"]["dropped_outside_grid"] == 0
        assert manifest["config"]["count"] == 13
        assert "out" not in manifest["config"] and "out_dir" not in manifest["config"]
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk == manifest

    def test_artifact_row_counts_match_files(self, demo_run):
        out, manifest = demo_run
        for name, rows in manifest["artifacts"].items():
            with open(out / name, encoding="utf-8") as fh:
                assert sum(1 for _ in fh) - 1 == rows

    def test_reruns_are_byte_identical_across_out_dirs(self, tmp_path):
        values = _small_inputs(tmp_path)
        manifests = []
        for sub in ("first", "second"):
            run_values = dict(values, out=str(tmp_path / sub))
            manifests.append(run_pipeline(build_run_config(run_values)))
        assert manifests[0] == manifests[1]
        first, second = tmp_path / "first", tmp_path / "second"
        names = {p.name for p in first.iterdir()}
        assert names == {p.name for p in second.iterdir()}
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_empty_corpus_yields_header_only_artifacts(self, tmp_path):
        (tmp_path / "corpus.jsonl").write_text("")
        (tmp_path / "roster.csv").write_text("user,group\nalice,A\n")
        values = {
            "corpus": str(tmp_path / "corpus.jsonl"),
            "roster": str(tmp_path / "roster.csv"),
            "out": str(tmp_path / "out"),
            "epoch": "0",
            "weeks": "3",
        }
        manifest = run_pipeline(build_run_config(values))
        assert all(v == "ok" for v in manifest["practices"].values())
        assert manifest["ingest"]["transactions"] == 0
        # no content rows, but the series grid still spans every window
        assert manifest["artifacts"]["vectors_tagging.csv"] == 0
        assert manifest["artifacts"]["facts_tagging.csv"] == 0
        assert manifest["artifacts"]["edges_retweeting.csv"] == 0
        assert manifest["artifacts"]["focus_tagging.csv"] == 6  # A + AVERAGE, 3 windows
        assert manifest["artifacts"]["reproduction_tagging.csv"] == 4
        focus_lines = (tmp_path / "out" / "focus_tagging.csv").read_text().splitlines()
        assert focus_lines[1] == "A,1,,"

    def test_header_only_roster_yields_header_only_series(self, tmp_path):
        (tmp_path / "corpus.jsonl").write_text(
            '{"id": 1, "user": "alice", "timestamp": 5, "text": "#x @bob"}\n'
        )
        (tmp_path / "roster.csv").write_text("user,group\n")
        out = tmp_path / "out"
        assert main(["report", "--corpus", str(tmp_path / "corpus.jsonl"),
                     "--roster", str(tmp_path / "roster.csv"), "--out", str(out),
                     "--epoch", "0", "--weeks", "3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["practices"].values()) == {"ok"}
        assert manifest["ingest"]["skipped"]["unknown_author"] == 1
        for practice in PRACTICES:
            for measure in measures.MEASURES:
                name = f"{measure}_{practice}.csv"
                assert manifest["artifacts"][name] == 0
                assert (out / name).read_bytes() == b"group,window,value,sd\r\n"

    def test_stage_subsets_limit_artifacts(self, tmp_path):
        values = _small_inputs(tmp_path)
        config = build_run_config(values)
        manifest = run_pipeline(config, stages=frozenset({"measure"}))
        assert set(manifest["artifacts"]) == {"ingest_report.csv"} | {
            f"{name}_{practice}.csv"
            for name in ("vectors", *measures.MEASURES) for practice in PRACTICES
        }

    def test_all_stages_constant_covers_every_stage(self):
        assert ALL_STAGES == {"measure", "facts", "network"}


class TestPracticeIsolation:
    def test_failing_graph_build_spares_every_other_artifact(self, demo_run, fixtures_dir,
                                                             tmp_path, monkeypatch):
        build_graph = network.build_graph

        def failing(transactions, practice, roster):
            if practice == "mentioning":
                raise RuntimeError("graph store unavailable")
            return build_graph(transactions, practice, roster)

        monkeypatch.setattr(network, "build_graph", failing)
        out = tmp_path / "out"
        assert main(["report", "--config", str(fixtures_dir / "demo.cfg"), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["practices"]["mentioning"].startswith("failed:")

        clean_out, clean = demo_run
        missing = {"network_mentioning.csv", "edges_mentioning.csv"}
        assert missing <= set(clean["artifacts"])
        assert manifest["artifacts"] == {
            name: rows for name, rows in clean["artifacts"].items() if name not in missing
        }
        assert {"vectors_mentioning.csv", "facts_mentioning.csv",
                "focus_mentioning.csv"} <= set(manifest["artifacts"])
        assert manifest["practices"] == dict(clean["practices"],
                                             mentioning=manifest["practices"]["mentioning"])
        assert {p.name for p in out.iterdir()} == set(manifest["artifacts"]) | {"manifest.json"}
        for name in manifest["artifacts"]:
            assert (out / name).read_bytes() == (clean_out / name).read_bytes(), name

    def test_failing_measures_keep_the_network_artifacts(self, demo_run, fixtures_dir,
                                                         tmp_path, monkeypatch):
        fact_measures = facts.fact_measures

        def failing(cells, spec, groups, practice, *args):
            if practice == "mentioning":
                raise RuntimeError("fact store unavailable")
            return fact_measures(cells, spec, groups, practice, *args)

        monkeypatch.setattr(facts, "fact_measures", failing)
        out = tmp_path / "out"
        assert main(["report", "--config", str(fixtures_dir / "demo.cfg"), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["practices"]["mentioning"] == "failed: fact store unavailable"

        clean_out, clean = demo_run
        assert manifest["artifacts"] == {
            name: rows for name, rows in clean["artifacts"].items()
            if name != "facts_mentioning.csv"
        }
        assert {"network_mentioning.csv", "edges_mentioning.csv"} <= set(manifest["artifacts"])
        assert manifest["practices"] == dict(clean["practices"],
                                             mentioning=manifest["practices"]["mentioning"])
        assert {p.name for p in out.iterdir()} == set(manifest["artifacts"]) | {"manifest.json"}
        for name in manifest["artifacts"]:
            assert (out / name).read_bytes() == (clean_out / name).read_bytes(), name

    def test_failing_graph_build_and_measures_report_the_measures(self, demo_run, fixtures_dir,
                                                                  tmp_path, monkeypatch):
        build_graph = network.build_graph
        fact_measures = facts.fact_measures

        def failing_build(transactions, practice, roster):
            if practice == "mentioning":
                raise RuntimeError("graph store unavailable")
            return build_graph(transactions, practice, roster)

        def failing_measures(cells, spec, groups, practice, *args):
            if practice == "mentioning":
                raise RuntimeError("fact store unavailable")
            return fact_measures(cells, spec, groups, practice, *args)

        monkeypatch.setattr(network, "build_graph", failing_build)
        monkeypatch.setattr(facts, "fact_measures", failing_measures)
        out = tmp_path / "out"
        assert main(["report", "--config", str(fixtures_dir / "demo.cfg"), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        # The measures fail after the graph build, and the later failure is the one kept.
        assert manifest["practices"]["mentioning"] == "failed: fact store unavailable"

        clean_out, clean = demo_run
        missing = {"network_mentioning.csv", "edges_mentioning.csv", "facts_mentioning.csv"}
        assert manifest["artifacts"] == {
            name: rows for name, rows in clean["artifacts"].items() if name not in missing
        }
        assert len(manifest["artifacts"]) == 22
        assert manifest["practices"] == dict(clean["practices"],
                                             mentioning=manifest["practices"]["mentioning"])
        assert {p.name for p in out.iterdir()} == set(manifest["artifacts"]) | {"manifest.json"}
        for name in manifest["artifacts"]:
            assert (out / name).read_bytes() == (clean_out / name).read_bytes(), name


class TestReleasedTransactions:
    def test_list_is_released_before_the_fact_measures(self, tmp_path, monkeypatch):
        class Sink(list):
            """A list that a weak reference can point at."""

        refs = []
        load_corpus_ = pipeline.load_corpus
        fact_measures = facts.fact_measures

        def load_into_sink(*args, sink=None, **kwargs):
            sink = Sink()
            refs.append(weakref.ref(sink))
            return load_corpus_(*args, sink=sink, **kwargs)

        released = []

        def recording(*args, **kwargs):
            released.append(refs[0]() is None)
            return fact_measures(*args, **kwargs)

        monkeypatch.setattr(pipeline, "load_corpus", load_into_sink)
        monkeypatch.setattr(facts, "fact_measures", recording)
        manifest = run_pipeline(build_run_config(_small_inputs(tmp_path)))
        assert manifest["ingest"]["transactions"] > 0
        assert released == [True] * len(PRACTICES)

    def test_no_user_graph_outlives_its_artifacts(self, fixtures_dir, tmp_path, monkeypatch):
        refs = []
        build_graph = network.build_graph
        fact_measures = facts.fact_measures

        def keeping(*args, **kwargs):
            graph = build_graph(*args, **kwargs)
            refs.append(weakref.ref(graph))
            return graph

        alive = []

        def recording(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            return fact_measures(*args, **kwargs)

        monkeypatch.setattr(network, "build_graph", keeping)
        monkeypatch.setattr(facts, "fact_measures", recording)
        values = dict(parse_config_file(fixtures_dir / "demo.cfg"), out=str(tmp_path / "out"))
        manifest = run_pipeline(build_run_config(values))
        assert set(manifest["practices"].values()) == {"ok"}
        assert len(refs) == 2
        assert alive == [0] * len(PRACTICES)

    def test_follow_graph_and_edges_die_once_written(self, fixtures_dir, tmp_path, monkeypatch):
        class Edges(list):
            """A list that a weak reference can point at."""

        refs = []
        load_follow_edges = network.load_follow_edges
        build_follow_graph = network.build_follow_graph

        def loading(lines):
            edges, unparseable = load_follow_edges(lines)
            edges = Edges(edges)
            refs.append(weakref.ref(edges))
            return edges, unparseable

        def building(edges, roster):
            graph, skipped = build_follow_graph(edges, roster)
            refs.append(weakref.ref(graph))
            return graph, skipped

        alive = []

        def counting(sha256):
            def hashing(*args):
                alive.append(sum(ref() is not None for ref in refs))
                return sha256(*args)
            return hashing

        monkeypatch.setattr(network, "load_follow_edges", loading)
        monkeypatch.setattr(network, "build_follow_graph", building)
        # The run hashes each input file, then the config echo: all after the graph is
        # written.  It takes its constructor from the first of these modules that exists.
        for name in ("_sha2", "_sha256", "hashlib"):
            try:
                module = importlib.import_module(name)
            except ImportError:
                continue
            monkeypatch.setattr(module, "sha256", counting(module.sha256))
        values = dict(parse_config_file(fixtures_dir / "demo.cfg"), out=str(tmp_path / "out"))
        manifest = run_pipeline(build_run_config(values))
        assert manifest["practices"]["following"] == "ok"
        assert len(refs) == 2
        assert alive == [0] * 4


@pytest.mark.parametrize("size", [0, 65536, 65537])
def test_manifest_hashes_inputs_around_the_read_chunk(size, tmp_path):
    # Input files are hashed 65,536 bytes at a time; blank lines pad the corpus to size.
    values = _small_inputs(tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    data = b""
    for line in corpus.read_bytes().splitlines(keepends=True):
        if len(data) + len(line) > size:
            break
        data += line
    data += b"\n" * (size - len(data))
    corpus.write_bytes(data)
    manifest = run_pipeline(build_run_config(values))
    assert manifest["inputs"]["corpus"]["sha256"] == hashlib.sha256(data).hexdigest()


class TestByteOrderMark:
    """Roster and follow CSVs saved with a UTF-8 byte order mark are accepted."""

    BOM = b"\xef\xbb\xbf"

    def test_roster_with_bom(self, tmp_path):
        values = _small_inputs(tmp_path)
        roster = tmp_path / "roster.csv"
        roster.write_bytes(self.BOM + roster.read_bytes())
        manifest = run_pipeline(build_run_config(values))
        assert all(v == "ok" for v in manifest["practices"].values())
        assert manifest["ingest"]["transactions"] > 0
        assert manifest["ingest"]["skipped"]["unknown_author"] == 0

    def test_follow_edges_with_bom(self, tmp_path):
        values = _small_inputs(tmp_path)
        follow = tmp_path / "follow.csv"
        follow.write_bytes(self.BOM + b"source,target\na000,a001\nb000,a000\n")
        values["follow_edges"] = str(follow)
        manifest = run_pipeline(build_run_config(values))
        assert manifest["practices"]["following"] == "ok"
        assert manifest["artifacts"]["edges_following.csv"] == 2

    @pytest.mark.parametrize("first_line", ["# a run\n", ""])
    def test_config_file_with_bom(self, tmp_path, first_line):
        values = _small_inputs(tmp_path)
        cfg = tmp_path / "run.cfg"
        body = first_line + "".join(f"{key} = {value}\n" for key, value in values.items())
        cfg.write_bytes(self.BOM + body.encode("utf-8"))
        assert parse_config_file(cfg) == values
        assert main(["report", "--config", str(cfg)]) == 0

    def test_corpus_line_holding_only_a_bom_is_blank(self, tmp_path):
        values = _small_inputs(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        clean = corpus.read_bytes()
        corpus.write_bytes(self.BOM + b"\n" + clean + self.BOM + b"  \r\n")
        counts = run_ingest(build_run_config(values))
        assert counts["records_read"] == clean.count(b"\n")
        assert counts["skipped"]["malformed"] == 0


class TestFollowEdgeLog:
    def test_unparseable_rows_and_self_loops_are_counted_in_one_line(self, tmp_path, caplog):
        values = _small_inputs(tmp_path)
        follow = tmp_path / "follow.csv"
        follow.write_text("source,target\na000,a001\nonlyone\n,\na000,a000\nzed,a000\n")
        values["follow_edges"] = str(follow)
        with caplog.at_level("INFO", logger="culturestream.pipeline"):
            manifest = run_pipeline(build_run_config(values))
        assert manifest["artifacts"]["edges_following.csv"] == 1
        [line] = [r.getMessage() for r in caplog.records if "follow" in r.getMessage()]
        assert line == (
            "skipped 2 unparseable follow rows and 2 self-loops or edges outside the roster"
        )


class TestFollowingFailure:
    def test_recorded_in_the_manifest_and_the_stream_practices_still_run(self, tmp_path):
        values = _small_inputs(tmp_path)
        follow = tmp_path / "follow.csv"
        follow.write_bytes(b"source,target\na000,b\xf6\n")
        args = [f"--{k}={v}" for k, v in values.items()]
        assert main(["report", *args, f"--follow-edges={follow}"]) == 2
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        status = manifest["practices"]
        assert status.pop("following").startswith("failed: 'utf-8' codec can't decode")
        assert status == dict.fromkeys(PRACTICES, "ok")
        assert "edges_following.csv" not in manifest["artifacts"]


class TestHostileCorpus:
    def test_bom_and_non_utf8_lines_do_not_stop_the_run(self, tmp_path):
        values = _small_inputs(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        clean = corpus.read_bytes()
        corpus.write_bytes(b"\xef\xbb\xbf" + clean + b"\xff\xfe not text\n")
        counts = run_ingest(build_run_config(values))
        assert counts["records_read"] == clean.count(b"\n") + 1
        assert counts["skipped"]["malformed"] == 1
        assert main(["report", *(f"--{k}={v}" for k, v in values.items())]) == 0


class TestFollowingRecordInCorpus:
    def test_counted_as_malformed_by_report_and_ingest(self, tmp_path):
        values = _small_inputs(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        follow = {"id": "f1", "user": "a000", "timestamp": 1.0, "practice": "following",
                  "facts": ["b000"]}
        corpus.write_text(corpus.read_text(encoding="utf-8") + json.dumps(follow) + "\n",
                          encoding="utf-8")
        manifest = run_pipeline(build_run_config(values))
        counts = run_ingest(build_run_config(values))
        assert manifest["ingest"] == dict(counts, dropped_outside_grid=0)
        assert counts["skipped"]["malformed"] == sum(counts["skipped"].values()) == 1
        assert "following" not in manifest["practices"]
        with open(tmp_path / "out" / "transactions.jsonl", encoding="utf-8") as fh:
            emitted = {json.loads(line)["id"] for line in fh}
        assert "f1" not in emitted
        assert counts["records_read"] == len(emitted) + 1


class TestReservedGroupNames:
    @pytest.mark.parametrize("name", ["TOTAL", "AVERAGE"])
    def test_pseudo_group_name_in_roster_rejected(self, tmp_path, name):
        values = _small_inputs(tmp_path)
        roster = tmp_path / "roster.csv"
        roster.write_text(roster.read_text(encoding="utf-8") + f"zed,{name}\n", encoding="utf-8")
        with pytest.raises(DataError, match=name):
            run_pipeline(build_run_config(values))
        assert main(["ingest", *(f"--{k}={v}" for k, v in values.items())]) == 2
        assert not (tmp_path / "out").exists()


class TestBadRosterHandle:
    @pytest.mark.parametrize("row", [",B", "bo b,B"])
    def test_unusable_user_is_a_data_error(self, tmp_path, row):
        values = _small_inputs(tmp_path)
        roster = tmp_path / "roster.csv"
        roster.write_text(roster.read_text(encoding="utf-8") + row + "\n", encoding="utf-8")
        assert main(["report", *(f"--{k}={v}" for k, v in values.items())]) == 2
        assert not (tmp_path / "out").exists()


class TestRunIngest:
    def test_writes_stream_and_report(self, tmp_path):
        values = _small_inputs(tmp_path)
        config = build_run_config(values)
        counts = run_ingest(config)
        assert (config.out_dir / "transactions.jsonl").exists()
        assert (config.out_dir / "ingest_report.csv").exists()
        with open(config.out_dir / "transactions.jsonl", encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == counts["transactions"]
        assert counts["records_read"] >= counts["transactions"]


def _expected_stream(config, path) -> dict:
    """Write the list route's transactions.jsonl for ``config`` to ``path``; its counts."""
    with open(config.roster, encoding="utf-8") as fh:
        roster = load_roster(fh)
    with open(config.corpus, "rb") as fh:
        result = load_corpus(
            fh, roster, (config.epoch, config.epoch + config.count * config.width),
            config.restrict_to_roster, config.include_retweet_hashtags,
        )
    write_transactions_jsonl(result.transactions, path)
    return {"records_read": result.records_read, "transactions": len(result.transactions),
            "skipped": result.skipped}


# Corpus lines for the streamed ingest: repeated ids, an unknown author,
# timestamps on both sides of the window [0, 1000), bad practices and facts,
# and dirt (blank, BOM-only, non-UTF-8 and non-object lines).
_IDS = st.sampled_from(["m1", "m2", "m3", 4, 5])
_USERS = st.sampled_from(["alice", "@Bob", "carol", "dave", "ghost"])
_TIMES = st.sampled_from([0, 10.5, 999.9, 1000, -1, "1970-01-01T00:05:00Z", "soon"])
_RAW = st.builds(
    lambda i, u, t, words: {"id": i, "user": u, "timestamp": t, "text": " ".join(words)},
    _IDS, _USERS, _TIMES,
    st.lists(st.sampled_from(["RT @carol:", "@dave", "#Tag", "#tag", "#Tág", "@ghost", "hi"]),
             max_size=5),
)
_PRE = st.builds(
    lambda i, u, t, p, f: {"id": i, "user": u, "timestamp": t, "practice": p, "facts": f},
    _IDS, _USERS, _TIMES, st.sampled_from([*PRACTICES, "following", None]),
    st.one_of(st.lists(st.sampled_from(["#x", "carol", "@Dave", "ghost", "", 7]), max_size=3),
              st.just("x")),
)
_LINES = st.lists(st.one_of(
    st.one_of(_RAW, _PRE).map(lambda record: json.dumps(record).encode()),
    st.sampled_from([b"", b"  ", b"\xef\xbb\xbf", b"\xff\xfe", b"[]", b"not json", b'{"id": "m9"}']),
), max_size=25)


class TestStreamedIngest:
    """``ingest`` writes each transaction as it is emitted, not from a list."""

    @given(lines=_LINES, restrict=st.booleans(), retweet_hashtags=st.booleans())
    def test_stream_equals_the_list_route(self, tmp_path_factory, lines, restrict,
                                          retweet_hashtags):
        tmp = tmp_path_factory.mktemp("stream")
        (tmp / "corpus.jsonl").write_bytes(b"".join(line + b"\n" for line in lines))
        (tmp / "roster.csv").write_text("user,group\nalice,A\nbob,A\ncarol,B\ndave,B\n")
        config = build_run_config({
            "corpus": str(tmp / "corpus.jsonl"), "roster": str(tmp / "roster.csv"),
            "out": str(tmp / "out"), "epoch": "0", "weeks": "2", "width_seconds": "500",
            "restrict_to_roster": str(restrict), "retweet_hashtags": str(retweet_hashtags),
        })
        counts = run_ingest(config)
        assert counts == _expected_stream(config, tmp / "expected.jsonl")
        written = (tmp / "out" / "transactions.jsonl").read_bytes()
        assert written == (tmp / "expected.jsonl").read_bytes()

    def test_rerun_replaces_the_stream_and_writes_only_two_artifacts(self, tmp_path):
        values = _small_inputs(tmp_path)
        run_ingest(build_run_config(values))
        corpus = tmp_path / "corpus.jsonl"
        lines = corpus.read_bytes().splitlines(keepends=True)
        corpus.write_bytes(b"".join(lines[: len(lines) // 2]))
        config = build_run_config(values)
        counts = run_ingest(config)
        assert counts == _expected_stream(config, tmp_path / "expected.jsonl")
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == ["ingest_report.csv", "transactions.jsonl"]
        assert (out / "transactions.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()

    def test_failed_pass_leaves_no_stream_and_no_temporary_file(self, tmp_path, monkeypatch):
        values = _small_inputs(tmp_path)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))

        def failing_load(lines, roster, window, *args, sink, **kwargs):
            for n in range(3):
                sink.append(Transaction(f"m{n}", "a000", 1.0, "tagging", ("x",)))
            assert len(list(scratch.iterdir())) == 1  # the stream goes to a temporary file
            raise OSError("device went away")

        monkeypatch.setattr(pipeline, "load_corpus", failing_load)
        assert main(["ingest", *(f"--{k}={v}" for k, v in values.items())]) == 2
        assert not (tmp_path / "out").exists()
        assert list(scratch.iterdir()) == []

    def test_peak_memory_does_not_hold_the_transactions(self, tmp_path):
        values = _small_inputs(tmp_path, groups=[("A", 100), ("B", 100)], windows=4, rate=8.0)
        values["weeks"] = "4"
        config = build_run_config(values)
        with open(config.roster, encoding="utf-8") as fh:
            roster = load_roster(fh)
        run_ingest(config)  # imports what ingest uses

        def peak(run) -> int:
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def listed():
            with open(config.corpus, "rb") as fh:
                result = load_corpus(fh, roster, (0.0, 4 * config.width))
            assert len(result.transactions) > 18_000

        assert peak(lambda: run_ingest(config)) < peak(listed) / 2


class TestIngestRoundTrip:
    """``report`` over ``ingest``'s own stream writes the raw run's CSVs.

    ``ingest`` writes one line per (message, practice), all sharing the
    message's id, so none of them may count as a duplicate.
    """

    @pytest.mark.parametrize("changed", [False, True], ids=["defaults", "every-setting-changed"])
    def test_report_over_ingest_output_matches_raw_run(self, tmp_path, monkeypatch, changed):
        _write_raw_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        values = {k: v for k, v in RAW_SETTINGS.items()
                  if changed or k in ("corpus", "roster", "follow_edges", "epoch", "weeks")}
        run_pipeline(build_run_config(dict(values, out="raw")))
        counts = run_ingest(build_run_config(dict(values, out="ingest")))
        again = run_pipeline(build_run_config(
            dict(values, corpus="ingest/transactions.jsonl", out="again")))

        assert again["ingest"]["records_read"] == counts["transactions"]
        assert again["ingest"]["transactions"] == counts["transactions"]
        assert sum(again["ingest"]["skipped"].values()) == 0
        names = sorted(p.name for p in (tmp_path / "raw").glob("*.csv"))
        assert names == sorted(p.name for p in (tmp_path / "again").glob("*.csv"))
        differing = [n for n in names
                     if (tmp_path / "raw" / n).read_bytes() != (tmp_path / "again" / n).read_bytes()]
        assert differing == ["ingest_report.csv"]
