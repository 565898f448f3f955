"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestOptimize:
    def test_prints_optimum(self, capsys):
        code = main([
            "optimize", "--n-cells", "729", "--activity", "0.2976",
            "--logical-depth", "17",
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "numerical optimum" in captured
        assert "Eq. 13" in captured

    def test_technology_choice(self, capsys):
        code = main([
            "optimize", "--n-cells", "729", "--activity", "0.3",
            "--logical-depth", "17", "--tech", "HS",
        ])
        assert code == 0
        assert "HS" in capsys.readouterr().out


class TestTables:
    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Wallace" in out

    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        assert "our fit" in capsys.readouterr().out

    @pytest.mark.parametrize("number", ["3", "4"])
    def test_wallace_tables(self, number, capsys):
        assert main(["table", number]) == 0
        assert "Wallace" in capsys.readouterr().out


class TestFigures:
    def test_figure2(self, capsys):
        assert main(["figure", "2"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_figure1(self, capsys):
        assert main(["figure", "1"]) == 0
        assert "optimal working points" in capsys.readouterr().out


class TestVerify:
    def test_single_architecture(self, capsys):
        assert main(["verify", "Wallace", "--vectors", "10"]) == 0
        assert "OK" in capsys.readouterr().out


class TestExportVerilog:
    def test_to_stdout(self, capsys):
        assert main(["export-verilog", "Sequential"]) == 0
        out = capsys.readouterr().out
        assert "module seq16 (" in out

    def test_to_file(self, tmp_path, capsys):
        target = tmp_path / "wallace.v"
        assert main(["export-verilog", "Wallace", "-o", str(target)]) == 0
        assert "module wallace16 (" in target.read_text()


class TestExplore:
    def test_demo_sweep(self, tmp_path, capsys):
        code = main([
            "explore", "--frequency-points", "3", "--top", "5",
            "--cache-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "demo-multiplier-space" in out
        assert "Pareto frontier" in out
        assert "cache stored" in out

    def test_cache_hit_on_rerun(self, tmp_path, capsys):
        args = [
            "explore", "--frequency-points", "3",
            "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "cache hit" in out

    def test_scenario_file_round_trip(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.json"
        assert main([
            "explore", "--frequency-points", "3", "--dry-run",
            "--save-scenario", str(scenario_path),
        ]) == 0
        capsys.readouterr()
        code = main([
            "explore", str(scenario_path), "--no-cache",
            "--top", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "candidates" in out and "cache" not in out

    def test_dry_run_reports_size_and_hash(self, capsys):
        assert main(["explore", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "1008 candidates" in out
        assert "content hash" in out

    def test_export_npz_round_trips(self, tmp_path, capsys):
        from repro.explore.cache import read_entry
        from repro.explore.columnar import ResultTable

        target = tmp_path / "sweep.npz"
        code = main([
            "explore", "--frequency-points", "3",
            "--no-cache", "--export", str(target),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert f"exported 72 records to {target}" in out
        table = ResultTable.from_cache_payload(read_entry(target))
        assert len(table) == 72

    def test_export_bad_suffix_rejected_before_the_sweep(self, capsys):
        code = main(["explore", "--export", "sweep.parquet"])
        err = capsys.readouterr().err
        assert code == 2
        assert ".json, .csv or .npz" in err


class TestProfile:
    def test_explore_profile_prints_spans_and_phases(self, tmp_path, capsys):
        code = main([
            "explore", "--frequency-points", "3",
            "--cache-dir", str(tmp_path), "--top", "1", "--profile",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "profile: span tree" in out
        assert "engine.kernel" in out
        assert "profile: phase breakdown" in out
        assert "total" in out

    def test_explore_profile_phases_cover_the_total(self, tmp_path, capsys):
        """The printed phases account for >=90% of the measured total."""
        import json

        profile_path = tmp_path / "profile.json"
        assert main([
            "explore", "--frequency-points", "3",
            "--cache-dir", str(tmp_path / "cache"), "--top", "1",
            "--profile-json", str(profile_path),
        ]) == 0
        capsys.readouterr()
        profile = json.loads(profile_path.read_text())
        phase_sum = sum(profile["phases"].values())
        assert phase_sum <= profile["total_seconds"]
        assert phase_sum >= 0.9 * profile["total_seconds"]

    def test_profile_json_payload_shape(self, tmp_path, capsys):
        import json

        profile_path = tmp_path / "profile.json"
        assert main([
            "explore", "--frequency-points", "3",
            "--no-cache", "--top", "1",
            "--profile-json", str(profile_path),
        ]) == 0
        capsys.readouterr()
        profile = json.loads(profile_path.read_text())
        assert {"total_seconds", "phases", "spans", "metrics"} <= set(profile)
        assert {"expand", "kernel"} <= set(profile["phases"])
        root_names = [r["name"] for r in profile["spans"]["roots"]]
        assert "study.run" in root_names

    def test_optimize_profile(self, capsys):
        code = main([
            "optimize", "--arch", "wallace16", "--tech", "LL", "--profile",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "profile: span tree" in out
        assert "study.run" in out


class TestErrorPaths:
    """Every user mistake must exit with code 2 and a stderr message."""

    OPTIMIZE = [
        "optimize", "--n-cells", "729", "--activity", "0.2976",
        "--logical-depth", "17",
    ]

    def test_unknown_technology_flavour(self, capsys):
        code = main(self.OPTIMIZE + ["--tech", "XX"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown technology flavour" in captured.err
        assert "XX" in captured.err

    def test_unreadable_scenario_file(self, tmp_path, capsys):
        code = main(["explore", str(tmp_path / "does-not-exist.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot read scenario" in captured.err

    def test_invalid_scenario_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{this is not json")
        code = main(["explore", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "invalid scenario" in captured.err

    def test_scenario_json_missing_keys(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        code = main(["explore", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "invalid scenario" in captured.err



class TestOptimizeSolverChoice:
    def test_alternate_solver_runs(self, capsys):
        code = main([
            "optimize", "--n-cells", "729", "--activity", "0.2976",
            "--logical-depth", "17", "--solver", "closed_form",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "closed_form optimum" in out

    def test_rejected_solver_name(self):
        with pytest.raises(SystemExit):
            main([
                "optimize", "--n-cells", "729", "--activity", "0.2976",
                "--logical-depth", "17", "--solver", "frobnicate",
            ])


class TestMisc:
    def test_characterize(self, capsys):
        assert main(["characterize", "LL"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "zeta" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "RCA" in out and "Seq parallel" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out


class TestList:
    """`repro list` covers solvers and transforms, not just Table 1."""

    def test_default_lists_all_sections(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "architectures (13):" in out
        assert "solvers (" in out and "vectorized" in out
        assert "transforms (" in out and "parallelize" in out

    def test_solvers_section_matches_registry(self, capsys):
        from repro.solvers import available_solvers

        assert main(["list", "solvers"]) == 0
        out = capsys.readouterr().out
        for name in available_solvers():
            assert name in out

    def test_architectures_section_is_bare_names(self, capsys):
        assert main(["list", "architectures"]) == 0
        out = capsys.readouterr().out
        assert "Wallace" in out and "solvers" not in out

    def test_transforms_section(self, capsys):
        assert main(["list", "transforms"]) == 0
        out = capsys.readouterr().out
        assert "pipeline" in out and "sequentialize" in out

    def test_shares_helper_with_service_listing(self):
        """CLI sections and GET /v1/solvers come from one source."""
        from repro.listing import listing_payload, render_listing

        payload = listing_payload()
        rendered = render_listing("all")
        for name in payload["solvers"]:
            assert name in rendered
        for name in payload["architectures"]:
            assert name in rendered


class TestCacheCommand:
    def test_stats_on_empty_dir(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        import json

        stats = json.loads(capsys.readouterr().out)
        assert stats["disk"] == {
            "directory": str(tmp_path), "entries": 0, "total_bytes": 0,
            "quarantined": 0,
        }
        assert {"hits", "misses", "evictions", "entries"} <= set(
            stats["memory"]
        )

    def test_stats_after_a_sweep(self, tmp_path, capsys):
        assert main([
            "explore", "--frequency-points", "2",
            "--cache-dir", str(tmp_path), "--top", "1",
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        import json

        stats = json.loads(capsys.readouterr().out)
        disk = stats["disk"]
        assert disk["entries"] == 1 and disk["total_bytes"] > 0

    def test_clear(self, tmp_path, capsys):
        from repro.explore.cache import ResultCache

        ResultCache(tmp_path).put("k", {})
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert ResultCache(tmp_path).entries() == []

    def test_prune(self, tmp_path, capsys):
        from repro.explore.cache import ResultCache

        cache = ResultCache(tmp_path)
        for index in range(3):
            cache.put(f"k{index}", {})
        assert main([
            "cache", "prune", "--max-entries", "1",
            "--cache-dir", str(tmp_path),
        ]) == 0
        assert "pruned 2 entries" in capsys.readouterr().out
        assert len(cache.entries()) == 1

    def test_prune_without_max_entries_exits_2(self, tmp_path, capsys):
        code = main(["cache", "prune", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "--max-entries" in capsys.readouterr().err


class TestServeCommand:
    def test_rejects_bad_workers(self, capsys):
        code = main(["serve", "--workers", "0", "--port", "0"])
        assert code == 2
        assert "cannot start service" in capsys.readouterr().err

    def test_parser_knows_serve_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--port", "0", "--workers", "2",
            "--max-body", "1024", "--cache-size", "8", "--no-cache",
        ])
        assert args.port == 0 and args.workers == 2
        assert args.max_body == 1024 and args.cache_size == 8
        assert args.no_cache is True
