"""The `python -m repro.experiments` command-line interface."""

import re

import pytest

from repro.experiments.__main__ import main


class TestCLI:
    def test_list_mode(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out and "table1" in out

    def test_run_fast_experiment(self, capsys):
        assert main(["fig02"]) == 0
        out = capsys.readouterr().out
        assert "paper:" in out

    def test_save_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["fig02", "--save"]) == 0
        assert (tmp_path / "fig02.json").exists()

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["fig99"])

    def test_scale_flag(self, capsys):
        assert main(["fig02", "--scale", "bench"]) == 0


class TestScheduleFlag:
    def test_schedule_flag_restricts_comparison(self, capsys):
        assert main(["schedule_comparison", "--schedule", "gpipe"]) == 0
        out = capsys.readouterr().out
        assert "gpipe" in out
        assert "utilization" in out
        # restricted to the one schedule: the others don't appear as rows
        assert "fill_drain" not in out

    def test_schedule_flag_lists_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["schedule_comparison", "--schedule", "magic"])
        err = capsys.readouterr().err
        assert "1f1b" in err

    def test_schedule_flag_rejected_by_other_experiments(self):
        with pytest.raises(ValueError):
            main(["fig02", "--schedule", "pb"])


class TestRuntimeFlag:
    @pytest.mark.concurrency
    def test_runtime_flag_threads_schedule_comparison(self, capsys):
        assert main(
            ["schedule_comparison", "--runtime", "threaded",
             "--schedule", "gpipe"]
        ) == 0
        out = capsys.readouterr().out
        assert "gpipe" in out and "utilization" in out

    def test_runtime_flag_lists_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["schedule_comparison", "--runtime", "warp-drive"])
        err = capsys.readouterr().err
        assert "threaded" in err

    def test_runtime_flag_rejected_by_other_experiments(self):
        with pytest.raises(ValueError):
            main(["fig02", "--runtime", "threaded"])


class TestOptionSurface:
    def test_help_lists_exactly_four_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert options == {
            "--help", "--scale", "--schedule", "--runtime", "--save"
        }

    def test_removed_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["schedule_comparison", "--serve-backend", "process"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
