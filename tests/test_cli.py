"""Tests for the command-line interface."""


import pytest

from repro.cli import main


class TestParsing:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


class TestLightCommands:
    def test_summarize(self, capsys):
        assert main(["summarize"]) == 0
        out = capsys.readouterr().out
        assert "leaf-spine" in out and "dring" in out

    def test_udf(self, capsys):
        assert main(["udf"]) == 0
        out = capsys.readouterr().out
        assert "UDF" in out and "2.000" in out

    def test_verify_dring(self, capsys):
        assert main(["verify", "--topology", "dring", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "verified" in out

    def test_verify_leafspine(self, capsys):
        assert main(["verify", "--topology", "leaf-spine"]) == 0
        assert "verified" in capsys.readouterr().out


class TestConfigsCommand:
    def test_writes_cisco_configs(self, tmp_path, capsys):
        out_dir = tmp_path / "cfg"
        assert (
            main(
                [
                    "configs",
                    "--topology",
                    "dring",
                    "--out",
                    str(out_dir),
                ]
            )
            == 0
        )
        files = sorted(out_dir.glob("router-*.cfg"))
        assert len(files) == 24  # SMALL DRing has 24 racks
        assert "router bgp" in files[0].read_text()

    def test_writes_frr_configs(self, tmp_path, capsys):
        out_dir = tmp_path / "frr"
        assert (
            main(
                [
                    "configs",
                    "--format",
                    "frr",
                    "--out",
                    str(out_dir),
                ]
            )
            == 0
        )
        files = sorted(out_dir.glob("router-*.conf"))
        assert files
        assert files[0].read_text().startswith("frr version")


class TestExperimentCommands:
    def test_fig5(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "throughput(DRing)/throughput(leaf-spine)" in out

    def test_microburst(self, capsys):
        assert main(["microburst"]) == 0
        assert "Microburst" in capsys.readouterr().out

    def test_other_topologies(self, capsys):
        assert main(["other-topologies"]) == 0
        assert "slimfly" in capsys.readouterr().out


class TestFaultsCommand:
    @pytest.fixture(scope="class")
    def tiny_scale(self):
        from repro.experiments.runner import Scale, register_scale

        return register_scale(
            Scale(
                name="tiny-cli-faults",
                leaf_x=6,
                leaf_y=2,
                dring_m=6,
                dring_n=2,
                dring_servers=48,
                max_flows=100,
                window_seconds=0.02,
                size_cap_bytes=10e6,
            )
        )

    def test_faults_smoke_and_warm_cache(self, tiny_scale, tmp_path, capsys):
        args = [
            "faults",
            "--scale",
            tiny_scale.name,
            "--topology",
            "dring",
            "--scheme",
            "ecmp",
            "--fractions",
            "0.1",
            "--trials",
            "1",
            "--jobs",
            "1",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "Failure resilience — link faults" in cold.out
        assert "dring" in cold.out
        assert "Hottest fabric links" in cold.out
        engine = [
            line for line in cold.err.splitlines()
            if line.startswith("  engine: ")
        ]
        assert len(engine) == 1
        for field in ("events=", "allocate="):
            assert field in engine[0]
        # Warm rerun: same table, every cell a cache hit.  Traces come
        # from execution, not the cache, so there is no engine line.
        assert main(args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "1 hits / 0 executed" in warm.err
        assert "engine: " not in warm.err

    def test_faults_seed_determinism(self, tiny_scale, tmp_path, capsys):
        args = [
            "faults",
            "--scale",
            tiny_scale.name,
            "--topology",
            "rrg",
            "--scheme",
            "su2",
            "--kind",
            "gray",
            "--fractions",
            "0.2",
            "--trials",
            "1",
            "--seed",
            "5",
            "--no-cache",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestMlCommand:
    @pytest.fixture(scope="class")
    def tiny_scale(self):
        from repro.experiments.runner import Scale, register_scale

        return register_scale(
            Scale(
                name="tiny-cli-ml",
                leaf_x=6,
                leaf_y=2,
                dring_m=6,
                dring_n=2,
                dring_servers=48,
                max_flows=100,
                window_seconds=0.02,
                size_cap_bytes=10e6,
            )
        )

    def test_ml_smoke_and_warm_cache(self, tiny_scale, tmp_path, capsys):
        args = [
            "ml",
            "--scale",
            tiny_scale.name,
            "--topology",
            "dring",
            "--scheme",
            "ecmp",
            "--policy",
            "compact",
            "--placement-seeds",
            "0",
            "--jobs",
            "1",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "ML collectives — mean iteration time" in cold.out
        assert "dring" in cold.out
        # Warm rerun: same table, every cell a cache hit.
        assert main(args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "1 hits / 0 executed" in warm.err

    def test_ml_seed_threads_into_placements(
        self, tiny_scale, tmp_path, capsys
    ):
        base = [
            "ml",
            "--scale",
            tiny_scale.name,
            "--topology",
            "leaf-spine",
            "--scheme",
            "ecmp",
            "--policy",
            "random",
            "--jobs",
            "1",
            "--no-cache",
        ]
        assert main(base + ["--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(base + ["--seed", "1"]) == 0
        assert capsys.readouterr().out == first
        assert main(base + ["--seed", "2"]) == 0
        # A different run seed draws different placements: the random-
        # policy table moves (no hard-coded placement seed anywhere).
        assert capsys.readouterr().out != first


class TestExportCommand:
    def test_json_to_stdout(self, capsys):
        assert main(["export", "--topology", "dring"]) == 0
        out = capsys.readouterr().out
        assert '"name"' in out and '"links"' in out

    def test_dot_to_file(self, tmp_path, capsys):
        target = tmp_path / "net.dot"
        assert (
            main(
                [
                    "export",
                    "--topology",
                    "leaf-spine",
                    "--format",
                    "dot",
                    "--out",
                    str(target),
                ]
            )
            == 0
        )
        assert target.read_text().startswith("graph ")

    def test_json_round_trips_through_cli(self, tmp_path, capsys):
        from repro.core.export import from_json

        target = tmp_path / "net.json"
        main(["export", "--topology", "rrg", "--out", str(target)])
        clone = from_json(target.read_text())
        assert clone.is_flat()


class TestExtendedTopologyChoices:
    def test_verify_dragonfly(self, capsys):
        assert main(["verify", "--topology", "dragonfly"]) == 0
        assert "dragonfly" in capsys.readouterr().out

    def test_export_xpander(self, capsys):
        assert main(["export", "--topology", "xpander"]) == 0
        assert "xpander" in capsys.readouterr().out

    def test_export_fat_tree_dot(self, capsys):
        assert main(["export", "--topology", "fat-tree", "--format", "dot"]) == 0
        assert "fat-tree" in capsys.readouterr().out


class TestCacheCommand:
    def seed_cache(self, tmp_path, count=2):
        from repro.harness.cache import ResultCache
        from repro.harness.jobs import JobSpec

        root = tmp_path / "cache"
        cache = ResultCache(root)
        for value in range(count):
            spec = JobSpec.make("selftest", mode="ok", value=value)
            cache.put(spec.key(), spec, {"echo": value}, 0.1)
        return root

    def test_ls_reports_total_and_age(self, tmp_path, capsys):
        root = self.seed_cache(tmp_path)
        assert main(["cache", "ls", "--cache-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "2 results" in out and "bytes total" in out
        assert out.count("age ") == 2

    def test_ls_empty(self, tmp_path, capsys):
        assert main(
            ["cache", "ls", "--cache-dir", str(tmp_path / "none")]
        ) == 0
        assert "empty" in capsys.readouterr().out

    def test_prune_requires_budget(self, tmp_path, capsys):
        root = self.seed_cache(tmp_path)
        assert main(["cache", "prune", "--cache-dir", str(root)]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_prune_evicts_to_budget(self, tmp_path, capsys):
        root = self.seed_cache(tmp_path)
        assert main([
            "cache", "prune", "--cache-dir", str(root),
            "--max-bytes", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "pruned 2 entries" in out
        assert out.count("evicted") == 2
        assert main(["cache", "ls", "--cache-dir", str(root)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_clear(self, tmp_path, capsys):
        root = self.seed_cache(tmp_path)
        assert main(["cache", "clear", "--cache-dir", str(root)]) == 0
        assert "removed 2" in capsys.readouterr().out


class TestServiceCommands:
    @pytest.fixture
    def server(self, tmp_path):
        import threading

        from repro.service import (
            JobManager,
            ServiceStore,
            create_server,
        )

        store = ServiceStore(tmp_path / "store")
        manager = JobManager(store, workers=1).start()
        httpd = create_server("127.0.0.1", 0, manager, store)
        thread = threading.Thread(
            target=httpd.serve_forever, daemon=True
        )
        thread.start()
        yield httpd.url
        manager.shutdown()
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10.0)

    def test_submit_wait_status_results(self, server, capsys):
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("service workers fork")
        assert main([
            "submit", "--server", server, "--experiment", "selftest",
            "--param", "mode=ok", "--param", "value=3", "--wait",
        ]) == 0
        out = capsys.readouterr().out
        assert "job-000001" in out and "done" in out
        assert main(["status", "--server", server]) == 0
        assert "done" in capsys.readouterr().out
        assert main(["results", "--server", server]) == 0
        assert "1 cached results" in capsys.readouterr().out
        assert main(["leaderboard", "--server", server]) == 0
        assert "no rankable results" in capsys.readouterr().out

    def test_submit_rejects_bad_param(self, capsys):
        assert main([
            "submit", "--server", "http://127.0.0.1:1",
            "--experiment", "selftest", "--param", "oops",
        ]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_submit_unreachable_server_fails_cleanly(self, capsys):
        assert main([
            "submit", "--server", "http://127.0.0.1:1",
            "--experiment", "selftest",
        ]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_local_leaderboard_from_cache_dir(self, tmp_path, capsys):
        from repro.harness.jobs import JobSpec
        from repro.service import ServiceStore

        store = ServiceStore(tmp_path / "store")
        spec = JobSpec.make(
            "fig4", scale="tiny", scheme="DRing (su2)", pattern="A2A"
        )
        store.put(spec.key(), spec, {
            "records": [[0, 1, 1e6, 0.0, 0.002, [0, 1]]]
        }, 0.1)
        assert main([
            "leaderboard", "--cache-dir", str(tmp_path / "store"),
        ]) == 0
        out = capsys.readouterr().out
        assert "DRing (su2)" in out and "leaderboard by p99_fct_ms" in out
