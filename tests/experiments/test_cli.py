"""Tests of the ``repro-scrutinize`` command-line interface."""

from __future__ import annotations

import pytest

from repro import cli


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_analyze_arguments(self):
        args = cli.build_parser().parse_args(
            ["--class", "T", "analyze", "BT", "--step", "3"])
        assert args.command == "analyze"
        assert args.benchmark == "BT"
        assert args.problem_class == "T"
        assert args.step == 3

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["analyze", "XX"])

    def test_figures_options(self):
        args = cli.build_parser().parse_args(
            ["figures", "--figure", "figure6", "--export-dir", "/tmp/x"])
        assert args.figure == "figure6"
        assert args.export_dir == "/tmp/x"

    def test_global_method_option(self):
        args = cli.build_parser().parse_args(
            ["--method", "activity", "table2"])
        assert args.method == "activity"

    def test_class_help_names_every_class_a_port(self):
        from repro.npb import registry
        from repro.npb.params import params_for

        def has_class_a(name):
            try:
                params_for(name, "A")
            except KeyError:
                return False
            return True

        ports = [name for name in registry.available_benchmarks()
                 if has_class_a(name)]
        assert {"CG", "FT", "MG", "SP", "EP", "IS"} <= set(ports)
        help_text = " ".join(cli.build_parser().format_help().split())
        named = help_text.split("class A is registered for ")[1]
        named = named.split(")")[0].split(", ")
        assert named == ports

    def test_fault_flags_parse(self):
        args = cli.build_parser().parse_args(
            ["--max-retries", "5", "--job-timeout", "30", "--workers", "2",
             "--on-failure", "record", "--chaos", "worker-kill,transient",
             "--chaos-seed", "7", "table2"])
        assert args.max_retries == 5
        assert args.job_timeout == 30.0
        assert args.on_failure == "record"
        assert args.chaos == "worker-kill,transient"
        assert args.chaos_seed == 7


class TestFaultFlagValidation:
    @pytest.mark.parametrize("argv", [
        ["--max-retries", "-1", "analyze", "CG"],
        ["--retry-backoff", "-0.5", "analyze", "CG"],
        ["--job-timeout", "0", "--workers", "2", "analyze", "CG"],
        # the watchdog needs a pool to preempt
        ["--job-timeout", "10", "analyze", "CG"],
        ["--chaos-seed", "3", "analyze", "CG"],
        ["--chaos", "explode", "analyze", "CG"],
        ["--no-journal", "analyze", "CG"],
    ], ids=["negative-retries", "negative-backoff", "zero-timeout",
            "timeout-without-pool", "seed-without-chaos", "unknown-mode",
            "journal-without-cache"])
    def test_invalid_combinations_rejected(self, argv):
        with pytest.raises(SystemExit):
            cli.main(argv)


class TestMain:
    def test_analyze_prints_variable_summary(self, capsys):
        code = cli.main(["--class", "T", "analyze", "CG"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CG" in out and "uncritical" in out

    def test_analyze_show_masks(self, capsys):
        code = cli.main(["--class", "T", "analyze", "CG", "--show-masks"])
        out = capsys.readouterr().out
        assert code == 0
        assert "critical (red in the paper)" in out

    def test_table1_exit_code_reflects_class(self, capsys):
        assert cli.main(["table1"]) == 0
        # class T shapes do not match the paper, so the command signals it
        assert cli.main(["--class", "T", "table1"]) == 1

    def test_table2_single_class_s_subset_via_runner(self, capsys, runner_s):
        # exercise the full command on class S (results come from the
        # session cache inside the experiment layer is not shared with the
        # CLI, so keep this to the cheapest command: figures for CG only is
        # not exposed; use table1 + analyze instead of the heavy tables)
        code = cli.main(["analyze", "CG"])
        assert code == 0
        assert "0.1%" in capsys.readouterr().out

    def test_verify_subset_class_t(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        code = cli.main(["--class", "T", "verify", "--benchmarks", "CG"])
        out = capsys.readouterr().out
        assert code == 0
        assert "restart verification" in out

    def test_ablation_probes_class_t(self, capsys):
        code = cli.main(["--class", "T", "ablation", "probes"])
        assert code == 0
        assert "multi-probe" in capsys.readouterr().out

    def test_analyze_chaos_transient_recovers(self, capsys):
        code = cli.main(["--class", "T", "--chaos", "transient",
                         "--retry-backoff", "0", "analyze", "CG"])
        out = capsys.readouterr().out
        assert code == 0
        assert "uncritical" in out
        # the injected fault and its recovery show up in the epilogue
        assert "fault-tolerance:" in out
        assert "1 retr(ies)" in out
        assert "0 quarantined" in out

    def test_analyze_journal_written_and_confirmed(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert cli.main(["--class", "T", "--cache-dir", str(cache),
                         "analyze", "CG"]) == 0
        capsys.readouterr()
        assert (cache / "journal.jsonl").is_file()
        # the warm run is served from the store, confirmed by the journal
        assert cli.main(["--class", "T", "--cache-dir", str(cache),
                         "analyze", "CG"]) == 0
        out = capsys.readouterr().out
        assert "1 journal-confirmed" in out

    def test_analyze_no_journal_flag(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert cli.main(["--class", "T", "--cache-dir", str(cache),
                         "--no-journal", "analyze", "CG"]) == 0
        assert not (cache / "journal.jsonl").exists()
