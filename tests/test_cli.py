"""Tests for repro.cli (command-line interface)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_profile_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fit", "--profile", "galactic"])

    def test_defaults(self):
        args = build_parser().parse_args(["fit"])
        assert args.profile == "small"
        assert args.seed == 0

    @pytest.mark.parametrize(
        "argv, port",
        [
            (["serve-http", "--load", "d"], 8080),
            (["serve-follower", "--feed", "d"], 8081),
        ],
    )
    def test_serving_roles_share_one_flag_set(self, argv, port):
        args = build_parser().parse_args(argv)
        assert (args.host, args.port, args.quiet) == ("127.0.0.1", port, False)
        assert (args.cache_size, args.cache_ttl_s) == (4096, None)
        assert (args.rate_limit, args.deadline_ms) == (None, None)
        assert (args.access_log, args.trace_capacity) == (None, 256)
        # There is one edge: nothing to select.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--edge", "thread"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve-http", "--load", "d"],
            ["serve-follower", "--feed", "d"],
        ],
    )
    def test_cache_flags_validated(self, argv, capsys):
        for bad in (["--cache-size", "-1"], ["--cache-ttl-s", "0"],
                    ["--cache-ttl-s", "-2.5"]):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv + bad)
            assert excinfo.value.code == 2  # an argparse error, no traceback
            assert f"argument {bad[0]}" in capsys.readouterr().err
        args = build_parser().parse_args(
            argv + ["--cache-size", "0", "--cache-ttl-s", "0.5"]
        )
        assert (args.cache_size, args.cache_ttl_s) == (0, 0.5)

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve-http", "--load", "d"],
            ["serve-follower", "--feed", "d"],
        ],
    )
    def test_ttl_without_a_cache_is_rejected_before_any_work(self, argv):
        # 'd' does not exist: the flag check must fire before any load.
        with pytest.raises(SystemExit, match="--cache-ttl-s has no effect"):
            main(argv + ["--cache-size", "0", "--cache-ttl-s", "5"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve-http", "--load", "d"],
            ["serve-follower", "--feed", "d"],
            ["serve-cluster"],
            ["replay"],
        ],
    )
    def test_replicas_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + ["--replicas", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --replicas" in capsys.readouterr().err


class TestFitCommand:
    def test_prints_taxonomy(self, capsys):
        rc = main(["fit", "--profile", "tiny", "--max-roots", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ShoalModel(" in out
        assert "entities" in out
        assert "topics=" in out

    def test_writes_taxonomy_json(self, tmp_path, capsys):
        path = tmp_path / "tax.json"
        rc = main(["fit", "--profile", "tiny", "--output", str(path)])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["topics"]

    def test_alpha_override(self, capsys):
        rc = main(["fit", "--profile", "tiny", "--alpha", "0.5"])
        assert rc == 0


class TestEvaluateCommand:
    def test_passes_on_tiny(self, capsys):
        rc = main(["evaluate", "--profile", "tiny"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "precision:" in out
        assert "modularity:" in out


class TestSearchCommand:
    def test_default_query(self, capsys):
        rc = main(["search", "--profile", "tiny"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "query:" in out
        assert "topic" in out

    def test_explicit_garbage_query(self, capsys):
        rc = main(["search", "--profile", "tiny", "zzzz qqqq"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no matching topics" in out


class TestABTestCommand:
    def test_uplift_positive(self, capsys):
        rc = main(
            ["abtest", "--profile", "tiny", "--impressions", "1500"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "uplift" in out


class TestSnapshotFlow:
    """fit --save followed by --load on the serving commands: the
    offline-fit → online-serving handoff, end to end from the CLI."""

    @pytest.fixture(scope="class")
    def snapshot(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("cli") / "snap"
        rc = main(["fit", "--profile", "tiny", "--save", str(d)])
        assert rc == 0
        return d

    def test_fit_save_writes_snapshot(self, snapshot, capsys):
        assert (snapshot / "MANIFEST.json").is_file()
        assert (snapshot / "entity_categories.json").is_file()

    def test_search_load_serves_from_disk(self, snapshot, capsys):
        rc = main(["search", "--load", str(snapshot)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "query:" in out
        assert "topic" in out  # the default demo query matches its topic

    def test_search_load_explicit_query(self, snapshot, capsys):
        rc = main(["search", "--load", str(snapshot), "zzzz qqqq"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no matching topics" in out

    def test_evaluate_load_skips_fit(self, snapshot, capsys):
        rc = main(["evaluate", "--profile", "tiny", "--load", str(snapshot)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "precision:" in out

    def test_abtest_load(self, snapshot, capsys):
        rc = main([
            "abtest", "--profile", "tiny", "--impressions", "1500",
            "--load", str(snapshot),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "uplift" in out

    def test_fit_load_reprints_without_refitting(self, snapshot, capsys):
        rc = main(["fit", "--profile", "tiny", "--load", str(snapshot)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ShoalModel(" in out

    def test_load_with_mismatched_world_rejected(self, snapshot, capsys):
        """A snapshot fitted on one profile/seed must not be scored
        against a different regenerated world."""
        with pytest.raises(SystemExit, match="--profile tiny"):
            main(["evaluate", "--profile", "small", "--load", str(snapshot)])
        with pytest.raises(SystemExit, match="--seed 0"):
            main(["evaluate", "--profile", "tiny", "--seed", "7",
                  "--load", str(snapshot)])

    def test_load_with_alpha_rejected(self, snapshot, capsys):
        with pytest.raises(SystemExit, match="alpha"):
            main(["search", "--load", str(snapshot), "--alpha", "0.5"])


class TestClusterCommands:
    """serve-cluster + replay: the scale-out handoff from the CLI."""

    @pytest.fixture(scope="class")
    def cluster_dir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("cli-cluster") / "cluster"
        rc = main([
            "serve-cluster", "--profile", "tiny", "--shards", "2",
            "--save-shards", str(d),
        ])
        assert rc == 0
        return d

    def test_serve_cluster_prints_plan_and_answers(self, capsys):
        rc = main([
            "serve-cluster", "--profile", "tiny", "--shards", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "shard 0:" in out
        assert "shard 1:" in out
        assert "query:" in out
        assert "cluster: 2 shards;" in out

    def test_save_shards_layout(self, cluster_dir, capsys):
        assert (cluster_dir / "CLUSTER_MANIFEST.json").is_file()
        assert (cluster_dir / "collection_stats.json").is_file()
        assert (cluster_dir / "shard-0000" / "MANIFEST.json").is_file()

    def test_replay_against_cluster_dir(self, cluster_dir, capsys):
        rc = main([
            "replay", "--profile", "tiny", "--cluster-dir",
            str(cluster_dir), "--requests", "200", "--traffic", "bursty",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cluster:" in out
        assert "qps" in out

    def test_replay_both_targets(self, capsys):
        rc = main([
            "replay", "--profile", "tiny", "--target", "both",
            "--requests", "150", "--traffic", "drifting", "--shards", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "single:" in out
        assert "cluster:" in out
        assert "QPS ratio" in out

    def test_replay_every_traffic_profile(self, capsys):
        for traffic in ("steady", "bursty", "drifting", "adversarial"):
            rc = main([
                "replay", "--profile", "tiny", "--requests", "80",
                "--traffic", traffic, "--shards", "2", "--warmup", "10",
            ])
            assert rc == 0

    def test_replay_backend_uri_cluster(self, cluster_dir, capsys):
        rc = main([
            "replay", "--profile", "tiny", "--backend",
            f"cluster:{cluster_dir}", "--requests", "100",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "backend:" in out
        assert "qps" in out

    def test_replay_backend_world_mismatch_rejected(self, cluster_dir, capsys):
        """--backend must enforce the same world check as --cluster-dir."""
        with pytest.raises(SystemExit, match="--profile tiny"):
            main([
                "replay", "--profile", "small", "--backend",
                f"cluster:{cluster_dir}", "--requests", "50",
            ])

    def test_replay_backend_excludes_cluster_dir(self, cluster_dir, capsys):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main([
                "replay", "--profile", "tiny", "--backend",
                f"cluster:{cluster_dir}", "--cluster-dir", str(cluster_dir),
                "--requests", "50",
            ])

    def test_cluster_dir_world_mismatch_rejected(self, cluster_dir, capsys):
        with pytest.raises(SystemExit, match="--profile tiny"):
            main([
                "replay", "--profile", "small", "--cluster-dir",
                str(cluster_dir), "--requests", "50",
            ])

    def test_cluster_dir_and_load_conflict(self, cluster_dir, capsys):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main([
                "replay", "--profile", "tiny", "--cluster-dir",
                str(cluster_dir), "--load", "/nope", "--requests", "50",
            ])
