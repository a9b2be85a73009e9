"""Tests for the CLI."""

import pytest

from repro.cli import main


class TestCli:
    def test_spaces(self, capsys):
        assert main(["spaces"]) == 0
        out = capsys.readouterr().out
        assert "dlrm" in out and "282" in out

    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "tpu_v4" in out and "gpu_v100" in out

    def test_roofline_crossover_visible(self, capsys):
        main(["roofline", "--depth", "32"])
        small = capsys.readouterr().out
        main(["roofline", "--depth", "128"])
        large = capsys.readouterr().out
        assert "F-MBC(32)" in small and "F-MBC(128)" in large

    def test_cost(self, capsys):
        assert main(["cost", "--training-hours", "100", "--trials", "50"]) == 0
        out = capsys.readouterr().out
        assert "2.5" in out and "20x" in out

    def test_search_runs(self, capsys):
        assert main(["search", "--steps", "15"]) == 0
        out = capsys.readouterr().out
        assert "reward:" in out and "entropy:" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["teleport"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliExitCodes:
    """CLI hygiene: errors on stderr, stable non-zero exit codes,
    parse-time validation of count flags."""

    def test_workers_zero_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--steps", "5", "--workers", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1, got 0" in capsys.readouterr().err

    def test_workers_non_integer_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--spool", "x", "--workers", "many"])
        assert excinfo.value.code == 2
        assert "expected an integer" in capsys.readouterr().err

    def test_steps_zero_rejected_at_parse_time(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--steps", "0"])
        assert excinfo.value.code == 2

    def test_client_without_socket_or_spool_is_usage_error(self, capsys):
        assert main(["status", "job-000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "--socket" in captured.err

    def test_unreachable_daemon_exits_1_on_stderr(self, tmp_path, capsys):
        rc = main(["status", "--socket", str(tmp_path / "nope.sock"), "job-0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "no daemon reachable" in captured.err

    def test_missing_telemetry_dir_exits_1_on_stderr(self, tmp_path, capsys):
        rc = main(["report", "telemetry", str(tmp_path / "missing")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_success_prints_nothing_to_stderr(self, capsys):
        assert main(["spaces"]) == 0
        assert capsys.readouterr().err == ""
