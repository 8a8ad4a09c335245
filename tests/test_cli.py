"""Command-line interface: exit codes, overrides, and stage wiring."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import culturestream
from culturestream import selftest
from culturestream.cli import main


def _synth_inputs(tmp_path):
    out = tmp_path / "stream"
    code = main([
        "synth", "--out", str(out), "--seed", "3", "--weeks", "3",
        "--groups", "A:4,B:4", "--rate", "3",
    ])
    assert code == 0
    return out / "corpus.jsonl", out / "roster.csv"


def _run_args(tmp_path, corpus, roster, out_name="out"):
    return [
        "--corpus", str(corpus), "--roster", str(roster),
        "--out", str(tmp_path / out_name), "--epoch", "0", "--weeks", "3",
    ]


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["report", "--frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "report" in capsys.readouterr().out
        assert main(["synth", "--help"]) == 0

    def test_bad_epoch_is_usage_error(self, tmp_path, capsys):
        corpus, roster = _synth_inputs(tmp_path)
        args = _run_args(tmp_path, corpus, roster)
        args[args.index("--epoch") + 1] = "not-a-date"
        assert main(["report", *args]) == 1
        assert "epoch" in capsys.readouterr().err

    def test_missing_corpus_is_usage_error(self, tmp_path, capsys):
        _, roster = _synth_inputs(tmp_path)
        args = _run_args(tmp_path, tmp_path / "nope.jsonl", roster)
        assert main(["report", *args]) == 1
        assert "corpus" in capsys.readouterr().err

    def test_conflicting_roster_is_data_error(self, tmp_path, capsys):
        corpus, _ = _synth_inputs(tmp_path)
        roster = tmp_path / "roster.csv"
        roster.write_text("user,group\nalice,A\nalice,B\n")
        assert main(["report", *_run_args(tmp_path, corpus, roster)]) == 2
        assert "data error" in capsys.readouterr().err

    def test_non_utf8_roster_is_data_error(self, tmp_path, capsys):
        corpus, _ = _synth_inputs(tmp_path)
        roster = tmp_path / "roster.csv"
        roster.write_bytes(b"user,group\nj\xf6rg,A\n")
        assert main(["report", *_run_args(tmp_path, corpus, roster)]) == 2
        err = capsys.readouterr().err
        assert "data error: roster: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["report", "ingest"])
    @pytest.mark.parametrize("row, text", [
        (1, "user,{big}\nana,A\n"),
        (3, "user,group\nana,A\n{big},B\n"),
    ])
    def test_roster_field_over_the_csv_limit_is_data_error(self, tmp_path, capsys, command,
                                                          row, text):
        corpus, _ = _synth_inputs(tmp_path)
        roster = tmp_path / "roster.csv"
        roster.write_text(text.format(big="x" * (csv.field_size_limit() + 1)), encoding="utf-8")
        assert main([command, *_run_args(tmp_path, corpus, roster)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: roster row {row}: field larger than field limit")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_file_is_usage_error(self, tmp_path, capsys):
        corpus, roster = _synth_inputs(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_bytes(b"corpus = %s\nroster = %s\nepoch = 0\nweeks = 2 # w\xf6\n"
                           % (bytes(corpus), bytes(roster)))
        assert main(["report", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "run.cfg" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_file_is_usage_error(self, tmp_path, capsys, kind):
        config = tmp_path / "run.cfg"
        if kind == "directory":
            config.mkdir()
        assert main(["report", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("width", ["nan", "inf"])
    def test_non_finite_width_is_usage_error(self, tmp_path, capsys, width, where):
        corpus, roster = _synth_inputs(tmp_path)
        args = _run_args(tmp_path, corpus, roster)
        if where == "flag":
            args += ["--width-seconds", width]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"width_seconds = {width}\n", encoding="utf-8")
            args += ["--config", str(config)]
        assert main(["report", *args]) == 1
        err = capsys.readouterr().err
        assert "window width must be positive and finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("width", ["nan", "inf", "-5", "0"])
    def test_synth_bad_width_is_usage_error(self, tmp_path, capsys, width):
        out = tmp_path / "s"
        args = ["synth", "--out", str(out), "--weeks", "2", "--groups", "A:2"]
        assert main([*args, "--width-seconds", width]) == 1
        err = capsys.readouterr().err
        assert "window width must be positive and finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--rate", "nan"], "finite rate"),
        (["--rate", "inf"], "finite rate"),
        (["--burst", "storm:5:9:3"], "burst 'storm'"),
        (["--burst", "storm:3:2:3"], "burst 'storm'"),
        (["--groups", ":2,B:2"], "group ''"),
        (["--groups", "a b:2"], "group 'a b'"),
        (["--groups", "TOTAL:2,B:2"], "group 'TOTAL'"),
        (["--groups", "a:2,A:2"], "group 'A'"),
        (["--groups", "A:-3"], "group 'A'"),
        (["--groups", "a:1001,a1:1"], "group 'a1' shares member 'a1000' with group 'a'"),
        (["--groups", " , "], "--groups: at least one NAME:SIZE entry required"),
        (["--groups", "A:two"], "--groups: expected NAME:SIZE"),
        (["--burst", "storm:2:2:nan"], "finite multiplier > 1"),
        (["--burst", "storm:2:2:1"], "finite multiplier > 1"),
        (["--burst", "storm:2:2:0.5"], "finite multiplier > 1"),
        (["--burst", "storm:two:2:3"], "--burst: invalid literal for int()"),
    ])
    def test_synth_config_report_would_reject_is_usage_error(self, tmp_path, capsys, args,
                                                             message):
        out = tmp_path / "s"
        assert main(["synth", "--out", str(out), "--weeks", "3", "--groups", "A:2", *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_burst_spec_is_usage_error(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "s"), "--burst", "storm:7"])
        assert code == 1
        assert "--burst" in capsys.readouterr().err


class TestSelftest:
    def test_full_battery_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_single_check_selection(self, capsys):
        assert main(["selftest", "--only", "focus_single_fact"]) == 0
        assert "1/1 checks passed" in capsys.readouterr().out

    def test_unknown_check_is_usage_error(self, capsys):
        assert main(["selftest", "--only", "astrology"]) == 1

    def test_check_names_and_order(self):
        assert [name for name, _ in selftest.CHECKS] == [
            "focus_single_fact", "focus_uniform", "focus_known_vector",
            "similarity_identical", "similarity_disjoint", "similarity_known_pair",
            "similarity_needs_other_groups", "rbo_identical", "rbo_swapped_pair",
            "rbo_persistence_sensitivity", "rbo_top_depth_mass", "rbo_ranking_tie_break",
            "institutionness_matches_brute_force", "week_rate_known", "burst_known_weight",
            "burst_cost_routes_agree", "burst_episode_segmentation",
            "burst_zero_week_splits_episodes", "burst_normalization_strongest_is_one",
            "network_known_graph",
            "window_binning_half_open", "absent_group_week_has_no_vector",
            "synth_deterministic", "ingest_conservation",
        ]


class TestRoundTrip:
    def test_synth_then_report(self, tmp_path, capsys):
        corpus, roster = _synth_inputs(tmp_path)
        assert main(["report", *_run_args(tmp_path, corpus, roster)]) == 0
        assert "artifacts" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["ingest"]["transactions"] > 0
        assert all(v == "ok" for v in manifest["practices"].values())

    def test_ingest_writes_stream_and_report(self, tmp_path, capsys):
        corpus, roster = _synth_inputs(tmp_path)
        assert main(["ingest", *_run_args(tmp_path, corpus, roster)]) == 0
        assert "transactions" in capsys.readouterr().out
        assert (tmp_path / "out" / "transactions.jsonl").exists()
        assert (tmp_path / "out" / "ingest_report.csv").exists()

    def test_flags_override_config_file(self, tmp_path):
        corpus, roster = _synth_inputs(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"corpus = {corpus}\nroster = {roster}\n"
            "epoch = 0\nweeks = 3\nrbo_p = 0.9\n"
        )
        out = tmp_path / "out"
        code = main(["report", "--config", str(cfg), "--out", str(out), "--rbo-p", "0.5"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["rbo_p"] == 0.5

    def test_practices_flag_narrows_run(self, tmp_path):
        corpus, roster = _synth_inputs(tmp_path)
        args = _run_args(tmp_path, corpus, roster)
        assert main(["report", *args, "--practices", "tagging"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert set(manifest["practices"]) == {"tagging"}
        assert "vectors_retweeting.csv" not in manifest["artifacts"]


class TestWindowGridEdge:
    def test_record_just_below_end_lands_in_the_last_window(self, tmp_path, capsys):
        # end is 5.124919555126976 + 0.7 * 74; the record is one ulp below it,
        # where (ts - epoch) // width reads 74, past the 74-window grid.
        (tmp_path / "roster.csv").write_text("user,group\nana,A\n", encoding="utf-8")
        (tmp_path / "corpus.jsonl").write_text(json.dumps({
            "id": "1", "user": "ana", "timestamp": 56.92491955512697,
            "practice": "tagging", "facts": ["x"],
        }) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main([
            "report", "--corpus", str(tmp_path / "corpus.jsonl"),
            "--roster", str(tmp_path / "roster.csv"), "--out", str(out),
            "--epoch", "5.124919555126976", "--width-seconds", "0.7", "--weeks", "74",
        ])
        assert code == 0, capsys.readouterr().err
        rows = (out / "vectors_tagging.csv").read_text(encoding="utf-8").splitlines()
        assert rows[1:] == ["A,74,tagging,hashtag,x,1"]


class TestStageSubsets:
    @pytest.fixture()
    def inputs(self, tmp_path):
        corpus, roster = _synth_inputs(tmp_path)
        return tmp_path, corpus, roster

    def test_measure_emits_vectors_and_series_only(self, inputs):
        tmp_path, corpus, roster = inputs
        assert main(["measure", *_run_args(tmp_path, corpus, roster, "m")]) == 0
        names = {p.name for p in (tmp_path / "m").iterdir()}
        assert "vectors_tagging.csv" in names
        assert "focus_tagging.csv" in names
        assert "ingest_report.csv" in names
        assert not any(n.startswith(("facts_", "network_", "edges_")) for n in names)

    def test_facts_emits_fact_tables_only(self, inputs):
        tmp_path, corpus, roster = inputs
        assert main(["facts", *_run_args(tmp_path, corpus, roster, "f")]) == 0
        names = {p.name for p in (tmp_path / "f").iterdir()}
        assert names == {
            "facts_tagging.csv", "facts_retweeting.csv", "facts_mentioning.csv",
            "manifest.json",
        }

    def test_network_emits_graph_tables_only(self, inputs):
        tmp_path, corpus, roster = inputs
        assert main(["network", *_run_args(tmp_path, corpus, roster, "n")]) == 0
        names = {p.name for p in (tmp_path / "n").iterdir()}
        assert names == {
            "network_retweeting.csv", "edges_retweeting.csv",
            "network_mentioning.csv", "edges_mentioning.csv",
            "manifest.json",
        }


def test_console_script_entry_point(tmp_path):
    # the child imports the same package as this test, installed or not
    src = str(Path(culturestream.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "culturestream.cli", "selftest", "--only", "rbo_identical"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert result.returncode == 0
    assert "1/1 checks passed" in result.stdout


@pytest.mark.parametrize("command", ["report", "ingest"])
def test_run_commands_import_neither_numpy_nor_synth_nor_selftest(command, fixtures_dir, tmp_path):
    src = str(Path(culturestream.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = (
        "import sys\n"
        "from culturestream.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(sorted(m for m in ('numpy', 'culturestream.synth', 'culturestream.selftest')"
        " if m in sys.modules))\n"
        "sys.exit(code)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", child, command, "--config", str(fixtures_dir / "demo.cfg"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
