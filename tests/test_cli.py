"""The ``chopin`` command-line interface."""

import pytest

from repro.harness.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "specjbb"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "h2" in out and "lusearch" in out
        assert "[new, latency]" in out  # cassandra et al.

    def test_stats(self, capsys):
        assert main(["stats", "lusearch"]) == 0
        out = capsys.readouterr().out
        assert "ARA" in out and "23556" in out

    def test_lbo(self, capsys):
        assert main(["lbo", "fop", "--invocations", "2", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "normalized time overhead" in out
        assert "normalized CPU overhead" in out

    def test_lbo_parallel_cached(self, capsys, tmp_path):
        argv = [
            "lbo", "fop", "--invocations", "2", "--scale", "0.02",
            "--jobs", "2", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "normalized time overhead" in cold
        assert any(tmp_path.iterdir())  # cache populated
        # Warm rerun is served entirely from the cache and prints the same
        # tables (the engine's determinism guarantee).
        assert main(argv) == 0
        assert capsys.readouterr().out == cold

    def test_compare_unknown_collector_hint(self, capsys):
        assert main(["compare", "fop", "G1", "CMS"]) == 2
        err = capsys.readouterr().err
        assert "unknown collector 'CMS'" in err and "Shenandoah" in err

    def test_latency(self, capsys):
        assert main(["latency", "spring", "--invocations", "1", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "simple" in out
        assert "full smoothing" in out

    def test_latency_rejects_non_latency_workload(self, capsys):
        assert main(["latency", "fop", "--invocations", "1", "--scale", "0.05"]) == 2

    def test_pca(self, capsys):
        assert main(["pca"]) == 0
        out = capsys.readouterr().out
        assert "PC1" in out
        assert "twelve most determinant" in out


class TestArgumentValidation:
    """Bad option values must exit non-zero with a one-line message —
    never a traceback (satellite of the resilience PR)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["lbo", "fop", "--jobs", "0"],
            ["lbo", "fop", "--jobs", "four"],
            ["lbo", "fop", "--jobs", "-2"],
            ["trace", "fop", "--ring-size", "0"],
            ["trace", "fop", "--ring-size", "huge"],
            ["lbo", "fop", "--invocations", "0"],
            ["lbo", "fop", "--scale", "-1"],
            ["lbo", "fop", "--retries", "-1"],
            ["lbo", "fop", "--cell-timeout", "0"],
            ["lbo", "fop", "--chaos-rate", "1.5"],
            ["lbo", "fop", "--budget", "-1"],
            ["lbo", "fop", "--budget", "0"],
            ["lbo", "fop", "--budget", "soon"],
            ["lbo", "fop", "--breaker-threshold", "0"],
            ["lbo", "fop", "--breaker-threshold", "-3"],
            ["lbo", "fop", "--breaker-threshold", "many"],
        ],
    )
    def test_invalid_value_exits_2_with_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "expected a" in err
        assert "Traceback" not in err

    def test_valid_resilience_flags_accepted(self):
        args = build_parser().parse_args(
            ["lbo", "fop", "--retries", "3", "--cell-timeout", "30",
             "--chaos-rate", "0.3", "--chaos-seed", "7"]
        )
        assert args.retries == 3 and args.cell_timeout == 30.0
        assert args.chaos_rate == 0.3 and args.chaos_seed == 7


class TestChaosCommand:
    def test_drill_passes(self, capsys):
        argv = ["chaos", "lusearch", "--multiple", "2.0", "--scale", "0.05",
                "--chaos-seed", "4"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "chaos drill" in out and "injected: 8 faults" in out
        assert "PASS" in out and "bit-identical" in out

    def test_drill_that_injects_nothing_fails(self, capsys):
        # Seed 0 draws no fault on these four cells: a drill that proves
        # nothing must not report PASS.
        argv = ["chaos", "lusearch", "--multiple", "2.0", "--scale", "0.05"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "injected: 0 faults" in captured.out
        assert "PASS" not in captured.out and "no fault fired" in captured.err

    def test_unknown_collector_rejected(self, capsys):
        assert main(["chaos", "lusearch", "--collector", "CMS"]) == 2
        assert "unknown collector 'CMS'" in capsys.readouterr().err


class TestCharacterizeCommand:
    def test_characterize(self, capsys):
        assert main(["characterize", "fop", "--invocations", "2", "--scale", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "GCC" in out and "PMS" in out
        assert "measured" in out and "published" in out


class TestRunbmsCommand:
    def test_kick_the_tires(self, capsys, tmp_path):
        assert main(["runbms", str(tmp_path), "kick-the-tires", "-p", "kt"]) == 0
        out = capsys.readouterr().out
        assert "artefacts for experiment" in out
        assert (tmp_path / "kt-geomean-wall.txt").exists()

    def test_unknown_experiment(self, capsys, tmp_path):
        assert main(["runbms", str(tmp_path), "nope"]) == 2

    def test_scale_override(self, capsys, tmp_path):
        assert main(["runbms", str(tmp_path), "kick-the-tires", "-s", "0.02"]) == 0


class TestCompareCommand:
    def test_compare(self, capsys):
        assert main(["compare", "lusearch", "Parallel", "Serial",
                     "--heap", "2", "--invocations", "5", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "(wall)" in out and "(task)" in out

    def test_unknown_collector(self, capsys):
        assert main(["compare", "fop", "G1", "CMS"]) == 2


class TestInsightsCommand:
    def test_insights(self, capsys):
        assert main(["insights", "avrora"]) == 0
        out = capsys.readouterr().out
        assert "kernel mode" in out


class TestSupervisedLbo:
    def test_tiny_budget_exits_cleanly_with_holes(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        argv = ["lbo", "lusearch", "--budget", "0.000001",
                "--cache-dir", cache,
                "--invocations", "1", "--scale", "0.05"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "supervision:" in err and "over budget" in err
        # The hint names the cache that resumes the sweep, and nothing else.
        assert f"re-run the same command with --cache-dir {cache}" in err
        assert "resume" not in err  # the cache is the only resume mechanism

    def test_tiny_budget_without_cache_hints_at_cache_dir(
        self, capsys, monkeypatch
    ):
        monkeypatch.delenv("CHOPIN_CACHE_DIR", raising=False)
        argv = ["lbo", "lusearch", "--budget", "0.000001",
                "--invocations", "1", "--scale", "0.05"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "re-run with --cache-dir to make the holes fillable" in err
        assert "resume" not in err  # the cache is the only resume mechanism

    def test_budget_then_resume_completes(self, capsys, tmp_path):
        cache = ["--cache-dir", str(tmp_path / "cache"),
                 "--invocations", "1", "--scale", "0.05"]
        assert main(["lbo", "lusearch", "--budget", "0.000001"] + cache) == 0
        capsys.readouterr()
        assert main(["lbo", "lusearch"] + cache) == 0
        out = capsys.readouterr().out
        assert "lusearch" in out  # the resumed sweep printed real curves

    def test_generous_budget_prints_curves(self, capsys):
        argv = ["lbo", "lusearch", "--budget", "3600",
                "--breaker-threshold", "5",
                "--invocations", "1", "--scale", "0.05"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "lusearch" in captured.out
        assert "incomplete" not in captured.err


class TestDoctorCommand:
    def test_doctor_heals_torn_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        base = ["--invocations", "1", "--scale", "0.05"]
        assert main(["lbo", "lusearch", "--cache-dir", cache] + base) == 0
        capsys.readouterr()
        # Tear one entry the way a crashed writer would.
        victim = next((tmp_path / "cache").glob("??/*.pkl"))
        victim.write_bytes(victim.read_bytes()[: 40])
        assert main(["doctor", "--cache-dir", cache]) == 0
        captured = capsys.readouterr()
        assert "1 corrupt" in captured.out
        assert "quarantined 1" in captured.out
        assert not victim.exists()

    def test_doctor_dry_run_leaves_rot_in_place(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["lbo", "lusearch", "--cache-dir", cache,
                     "--invocations", "1", "--scale", "0.05"]) == 0
        victim = next((tmp_path / "cache").glob("??/*.pkl"))
        victim.write_bytes(b"rot")
        capsys.readouterr()
        assert main(["doctor", "--cache-dir", cache, "--dry-run"]) == 0
        assert victim.exists()

    def test_doctor_verify_clean_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        base = ["--invocations", "2", "--scale", "0.05"]
        assert main(["lbo", "lusearch", "--cache-dir", cache] + base) == 0
        capsys.readouterr()
        assert main(["doctor", "--cache-dir", cache, "--verify", "lusearch",
                     "--verify-sample", "4", "--invocations", "2",
                     "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "4 matched" in out

    def test_doctor_verify_flags_divergence(self, capsys, tmp_path):
        import dataclasses
        import pickle

        cache = str(tmp_path / "cache")
        base = ["--invocations", "2", "--scale", "0.05"]
        assert main(["lbo", "lusearch", "--cache-dir", cache] + base) == 0
        capsys.readouterr()
        # Swap one entry's payload for another's: valid pickle, wrong bits.
        paths = sorted((tmp_path / "cache").glob("??/*.pkl"))
        donor = pickle.loads(paths[1].read_bytes())
        paths[0].write_bytes(
            pickle.dumps(dataclasses.replace(donor, key=paths[0].stem))
        )
        assert main(["doctor", "--cache-dir", cache, "--verify", "lusearch",
                     "--verify-sample", "8", "--invocations", "2",
                     "--scale", "0.05"]) == 1
        captured = capsys.readouterr()
        assert "1 mismatched" in captured.out
        assert "divergent payload quarantined" in captured.err
