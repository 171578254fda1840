"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def _expect_usage_error(capsys, argv: list[str], *needles: str) -> str:
    """``argv`` must exit 2 with a one-line error (never a traceback)
    whose message names the valid choices; returns stderr."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err, f"{needle!r} missing from: {err}"
    return err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("fig3", "fig4", "fig5", "table1", "table5",
                        "configs"):
            args = parser.parse_args([command])
            assert callable(args.handler)

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "cora", "gcn", "--block", "32", "--hidden-dim", "8"])
        assert args.dataset == "cora"
        assert args.block == 32 and args.hidden_dim == 8

    def test_dse_takes_comma_lists(self):
        args = build_parser().parse_args(
            ["dse", "--networks", "gcn,gat", "--datasets", "tiny"])
        assert args.networks == ("gcn", "gat")
        assert args.datasets == ("tiny",)
        assert build_parser().parse_args(["dse"]).networks == ("gcn",)

    def test_run_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "reddit", "gcn"])


class TestArgumentValidation:
    """Bad arguments exit 2 with a one-line error naming the valid
    choices — never a traceback (ISSUE-4 satellite)."""

    def test_run_unknown_dataset_names_choices(self, capsys):
        _expect_usage_error(capsys, ["run", "reddit", "gcn"],
                            "invalid choice: 'reddit'", "cora", "pubmed")

    def test_run_unknown_network_names_choices(self, capsys):
        _expect_usage_error(capsys, ["run", "cora", "transformer"],
                            "invalid choice: 'transformer'", "gcn", "gat")

    def test_run_rejects_zero_feature_block(self, capsys):
        _expect_usage_error(capsys, ["run", "cora", "gcn", "--block", "0"],
                            "must be an integer >= 1")

    def test_run_rejects_negative_hidden_dim(self, capsys):
        _expect_usage_error(
            capsys, ["run", "cora", "gcn", "--hidden-dim", "-4"],
            "must be an integer >= 1")

    def test_sweep_unknown_plan_names_choices(self, capsys):
        _expect_usage_error(capsys, ["sweep", "fig9"],
                            "invalid choice: 'fig9'", "fig3")

    def test_sweep_unknown_network_names_choices(self, capsys):
        _expect_usage_error(capsys, ["sweep", "fig3", "--network", "bert"],
                            "invalid choice: 'bert'", "gcn")

    def test_sweep_rejects_negative_jobs(self, capsys):
        # 0 is now valid (external-fleet coordinator, filequeue only —
        # see tests/test_dist_sweep.py); negatives still exit 2.
        _expect_usage_error(capsys, ["sweep", "smoke", "--jobs", "-1"],
                            "must be >= 0")

    def test_dse_rejects_negative_jobs(self, capsys):
        _expect_usage_error(capsys, ["dse", "--jobs", "-2"],
                            "must be >= 0")

    def test_dse_unknown_dataset_names_choices(self, capsys):
        _expect_usage_error(capsys, ["dse", "--datasets", "reddit"],
                            "unknown dataset 'reddit'", "tiny")

    def test_dse_unknown_network_names_choices(self, capsys):
        _expect_usage_error(capsys, ["dse", "--networks", "gcn,mlp"],
                            "unknown network 'mlp'", "gin")

    def test_perf_unknown_dataset_names_choices(self, capsys):
        _expect_usage_error(capsys, ["perf", "--datasets", "tiny,reddit"],
                            "unknown dataset 'reddit'", "cora")

    def test_perf_unknown_network_names_choices(self, capsys):
        _expect_usage_error(capsys, ["perf", "--networks", "rnn"],
                            "unknown network 'rnn'", "gcn")

    def test_perf_rejects_non_integer_repeat(self, capsys):
        _expect_usage_error(capsys, ["perf", "--repeat", "two"],
                            "must be an integer >= 1")

    def test_dse_unknown_strategy_names_choices(self, capsys):
        _expect_usage_error(capsys, ["dse", "--strategy", "annealing"],
                            "unknown strategy 'annealing'", "evolutionary")

    def test_dse_unknown_space_names_choices(self, capsys):
        _expect_usage_error(capsys, ["dse", "--space", "huge"],
                            "unknown space 'huge'", "small")

    def test_loadtest_unknown_endpoint_names_choices(self, capsys):
        _expect_usage_error(capsys, ["loadtest", "--endpoint", "fig3"],
                            "unknown endpoint 'fig3'", "perf")

    def test_dse_knob_without_values(self, capsys):
        _expect_usage_error(capsys, ["dse", "--knob", "dense.rows"],
                            "expects PATH=V1[,V2,...]")


class TestDseSpaceValidation:
    """A bad DSE space is a request error, caught before any search
    starts: one line, exit 2, no traceback."""

    @pytest.mark.parametrize("argv, needle", [
        (["--knob", "nope.path=1,2"], "unknown knob paths ['nope.path']"),
        (["--knob", "dense.rows=32,32"], "has duplicate values"),
        (["--strategy", "grid"],
         "grid search over 59049 candidates exceeds max_candidates 4096"),
        (["--knob", "dense.rows=32,many"], "needs a list of numbers"),
    ])
    def test_bad_space_is_a_one_line_usage_error(self, capsys, argv,
                                                 needle):
        err = _expect_usage_error(
            capsys, ["dse", "--datasets", "tiny"] + argv, needle)
        assert len(err.splitlines()) == 1


class TestPerfCommand:
    def test_perf_writes_benchmark_and_table(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["perf", "--datasets", "tiny", "--networks", "gcn",
                     "--output", str(out)]) == 0
        table = capsys.readouterr().out
        assert "tiny-gcn" in table and "total_s" in table
        payload = json.loads(out.read_text())
        meta = payload["meta"]
        assert meta["python"] and meta["numpy"]
        assert meta["cpu_count"] >= 1
        row = payload["workloads"]["tiny-gcn"]
        assert set(row) >= {"load_s", "compile_s", "simulate_s",
                            "total_s", "cycles", "peak_mb"}
        assert row["cycles"] > 0
        assert row["peak_mb"] > 0
        assert row["total_s"] >= row["compile_s"]

    def test_perf_check_passes_against_generous_baseline(self, tmp_path,
                                                         capsys):
        baseline = tmp_path / "baseline.json"
        out = tmp_path / "bench.json"
        assert main(["perf", "--datasets", "tiny", "--networks", "gcn",
                     "--output", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["perf", "--datasets", "tiny", "--networks", "gcn",
                     "--output", str(out), "--check", str(baseline),
                     "--threshold", "1000"]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_perf_check_fails_on_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["perf", "--datasets", "tiny", "--networks", "gcn",
                     "--output", str(baseline)]) == 0
        capsys.readouterr()
        payload = json.loads(baseline.read_text())
        payload["workloads"]["tiny-gcn"]["total_s"] = 1e-9  # impossible
        baseline.write_text(json.dumps(payload))
        assert main(["perf", "--datasets", "tiny", "--networks", "gcn",
                     "--output", "", "--check", str(baseline)]) == 1
        assert "exceeds" in capsys.readouterr().out

    def test_perf_check_fails_on_cycle_drift(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["perf", "--datasets", "tiny", "--networks", "gcn",
                     "--output", str(baseline)]) == 0
        capsys.readouterr()
        payload = json.loads(baseline.read_text())
        payload["workloads"]["tiny-gcn"]["cycles"] += 1
        baseline.write_text(json.dumps(payload))
        assert main(["perf", "--datasets", "tiny", "--networks", "gcn",
                     "--output", "", "--check", str(baseline)]) == 1
        assert "cycles changed" in capsys.readouterr().out

    def test_perf_restricted_run_does_not_write_default(self, tmp_path,
                                                        capsys,
                                                        monkeypatch):
        """A partial grid must never silently replace the committed
        full-trajectory baseline."""
        monkeypatch.chdir(tmp_path)
        assert main(["perf", "--datasets", "tiny",
                     "--networks", "gcn"]) == 0
        out = capsys.readouterr().out
        assert "not writing BENCH_host.json" in out
        assert not (tmp_path / "BENCH_host.json").exists()

    def test_perf_check_never_overwrites_its_baseline(self, tmp_path,
                                                      capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["perf", "--datasets", "tiny", "--networks", "gcn",
                     "--output", str(baseline)]) == 0
        capsys.readouterr()
        before = baseline.read_bytes()
        assert main(["perf", "--datasets", "tiny", "--networks", "gcn",
                     "--output", str(baseline), "--check", str(baseline),
                     "--threshold", "1000"]) == 0
        assert "skipped writing" in capsys.readouterr().out
        assert baseline.read_bytes() == before

    def test_perf_check_accepts_legacy_flat_baseline(self, tmp_path,
                                                     capsys):
        """Pre-fingerprint baselines (rows at the top level) still
        check, with a host-mismatch warning since the measuring
        machine is unknown."""
        baseline = tmp_path / "baseline.json"
        assert main(["perf", "--datasets", "tiny", "--networks", "gcn",
                     "--output", str(baseline)]) == 0
        capsys.readouterr()
        payload = json.loads(baseline.read_text())
        baseline.write_text(json.dumps(payload["workloads"]))  # flatten
        assert main(["perf", "--datasets", "tiny", "--networks", "gcn",
                     "--output", "", "--check", str(baseline),
                     "--threshold", "1000"]) == 0
        out = capsys.readouterr().out
        assert "no host fingerprint" in out
        assert "no regressions" in out

    def test_perf_check_warns_on_fingerprint_mismatch(self, tmp_path,
                                                      capsys):
        """A baseline from a different machine still gates on cycles
        but flags its wall-time budgets as indicative."""
        baseline = tmp_path / "baseline.json"
        assert main(["perf", "--datasets", "tiny", "--networks", "gcn",
                     "--output", str(baseline)]) == 0
        capsys.readouterr()
        payload = json.loads(baseline.read_text())
        payload["meta"]["cpu_count"] = 12345
        baseline.write_text(json.dumps(payload))
        assert main(["perf", "--datasets", "tiny", "--networks", "gcn",
                     "--output", "", "--check", str(baseline),
                     "--threshold", "1000"]) == 0
        out = capsys.readouterr().out
        assert "different host" in out and "cpu_count" in out

    def test_perf_check_missing_baseline_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["perf", "--datasets", "tiny", "--networks", "gcn",
                  "--output", "", "--check",
                  str(tmp_path / "nope.json")])
        assert "does not exist" in str(excinfo.value)


class TestCommands:
    def test_configs_prints_tables(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "CORA" in out and "GNNerator" in out

    def test_configs_counts_the_sweep_records(self, tmp_path, capsys,
                                              monkeypatch):
        """The result-cache row counts this code version's records,
        read through the cache, not files."""
        from repro.sweep import smoke_plan

        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "smoke", "--cache-dir", ".sweep-cache"]) == 0
        capsys.readouterr()
        assert main(["configs"]) == 0
        (row,) = [line.split() for line in capsys.readouterr().out
                  .splitlines() if line.startswith("sweep result cache")]
        assert row[row.index(".sweep-cache") + 1] == str(len(smoke_plan()))

    def test_run_prints_result(self, capsys):
        assert main(["run", "cora", "gcn"]) == 0
        out = capsys.readouterr().out
        assert "cora-gcn" in out
        assert "GPU baseline" in out and "HyGCN baseline" in out

    def test_second_run_is_a_store_hit(self, tmp_path, capsys,
                                       monkeypatch):
        """``repro run`` compiles through the harness: the second call
        on one program store loads the first call's program."""
        from repro.compiler.lowering import full_lowering_count
        from repro.compiler.store import PROGRAM_CACHE_ENV

        monkeypatch.setenv(PROGRAM_CACHE_ENV, str(tmp_path / "store"))
        assert main(["run", "cora", "gcn"]) == 0
        assert "compile:  compiled" in capsys.readouterr().out
        before = full_lowering_count()
        assert main(["run", "cora", "gcn"]) == 0
        assert "compile:  store" in capsys.readouterr().out
        assert full_lowering_count() == before

    def test_closed_stdout_exits_nonzero_without_traceback(
            self, capsys, monkeypatch):
        """``repro configs | head -1``: the reader closes the pipe."""

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert main(["configs"]) != 0
        assert "Traceback" not in capsys.readouterr().err

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_table5_command(self, capsys):
        assert main(["table5"]) == 0
        assert "HyGCN" in capsys.readouterr().out

    def test_trace_command(self, capsys):
        """The Gantt chart ``repro trace`` printed is part of
        ``repro profile``; the old command is unknown."""
        assert main(["profile", "cora", "gcn"]) == 0
        out = capsys.readouterr().out
        assert "pipeline" in out
        assert "graph.compute" in out and "#" in out
        _expect_usage_error(capsys, ["trace", "cora", "gcn"],
                            "invalid choice: 'trace'")

    def test_bottleneck_command(self, capsys):
        """The binding-resource line ``repro bottleneck`` printed per
        hidden size is part of ``repro profile --hidden-dim``; the old
        command is unknown."""
        assert main(["profile", "cora", "gcn", "--hidden-dim",
                     "1024"]) == 0
        out = capsys.readouterr().out
        assert "profile cora-gcn (hidden=1024" in out
        assert "bound by dense-engine-compute" in out
        _expect_usage_error(capsys, ["bottleneck", "cora", "gcn"],
                            "invalid choice: 'bottleneck'")


class TestTelemetryCommands:
    def test_run_trace_out_writes_valid_perfetto(self, tmp_path, capsys,
                                                 monkeypatch):
        from repro.compiler.store import PROGRAM_CACHE_ENV
        from repro.obs import validate_trace_events

        # A program-store hit lowers nothing, so no `lower` span.
        monkeypatch.setenv(PROGRAM_CACHE_ENV, "off")
        out = tmp_path / "run.json"
        assert main(["run", "tiny", "gcn", "--trace-out",
                     str(out)]) == 0
        assert str(out) in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert validate_trace_events(payload) == []
        # Host spans and simulated-hardware tracks both present.
        pids = {e["pid"] for e in payload["traceEvents"]}
        assert pids == {1, 2}
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"load", "lower", "simulate"} <= names

    def test_trace_perfetto_writes_labelled_slices(self, tmp_path,
                                                   capsys):
        """``run --trace-out`` is the one Perfetto export, and its
        simulated-hardware tracks carry per-op labels."""
        from repro.obs import validate_trace_events

        out = tmp_path / "trace.json"
        assert main(["run", "tiny", "gcn", "--trace-out",
                     str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert validate_trace_events(payload) == []
        sim_labels = {e["name"] for e in payload["traceEvents"]
                      if e["ph"] == "X" and e["pid"] == 2}
        assert {"ShardAggregateOp", "GemmOp"} <= sim_labels

    def test_profile_command_renders_report(self, capsys):
        assert main(["profile", "tiny", "gat", "--top-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "profile tiny-gat" in out
        assert "host phases" in out
        assert "engines" in out
        assert "hottest shards" in out
        assert "queue peak" in out
        assert "bound by" in out
        assert "cycles 0---" in out  # the Gantt chart's header

    def test_profile_arguments(self):
        args = build_parser().parse_args(
            ["profile", "cora", "gcn", "--hidden-dim", "8",
             "--block", "32", "--top-k", "3", "--seed", "1"])
        assert args.dataset == "cora" and args.network == "gcn"
        assert args.hidden_dim == 8 and args.block == 32
        assert args.top_k == 3 and args.seed == 1
        assert callable(args.handler)

    def test_serve_log_level_argument(self):
        args = build_parser().parse_args(["serve", "--log-level",
                                          "debug"])
        assert args.log_level == "debug"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--log-level", "loud"])
