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
        ],
    )
    def test_replicas_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + ["--replicas", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --replicas" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--ingest-queue", "4096"),
            ("--ingest-overflow", "shed"),
            ("--ingest-batch-events", "64"),
            ("--ingest-batch-age-s", "2.0"),
            ("--coalesce-events", "64"),
            ("--coalesce-delay-ms", "5.0"),
        ],
    )
    def test_write_path_tuning_flags_are_gone(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["serve-http", "--load", "d", flag, value]
            )
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--shards", "2"),
        ("--workdir", "w"),
    ])
    def test_follower_shards_flag_is_gone(self, capsys, flag, value):
        """A follower is a whole-model replica: there is no sharded one.
        It loads the primary's generations from the feed, so it has no
        scratch directory to rebuild them in either."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["serve-follower", "--feed", "d", flag, value]
            )
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--drift-threshold", "0.5"),
            ("--generations", "g"),
            ("--ship-feed", "f"),
            ("--analytics-db", "a.db"),
        ],
    )
    def test_write_path_flags_require_ingest_wal(self, flag, value):
        # 'd' does not exist: the flag check must fire before any load.
        with pytest.raises(SystemExit, match=f"{flag} requires --ingest-wal"):
            main(["serve-http", "--load", "d", flag, value])

    def test_ingest_command_is_gone(self, capsys):
        """The fold runs only in the process serve-http --ingest-wal
        spawns; there is no second, in-process fold command."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["ingest", "--wal", "w"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'ingest'" in capsys.readouterr().err

    def test_drift_threshold_validated(self, capsys):
        argv = ["serve-http", "--load", "d", "--ingest-wal", "w"]
        for bad in ("1.5", "1", "-0.1"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv + ["--drift-threshold", bad])
            assert excinfo.value.code == 2  # an argparse error, no traceback
            assert "argument --drift-threshold" in capsys.readouterr().err
        for good in ("0", "0.99"):
            args = build_parser().parse_args(
                argv + ["--drift-threshold", good]
            )
            assert args.drift_threshold == float(good)


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
        # Every file has a reader: no click graph, no scored descriptions.
        assert not (snapshot / "bipartite.npz").exists()
        assert not (snapshot / "descriptions.json").exists()

    def test_fit_load_save_round_trips(self, snapshot, tmp_path, capsys):
        """A loaded model (no click graph, no scored descriptions) saves
        again."""
        again = tmp_path / "again"
        rc = main(["fit", "--profile", "tiny", "--load", str(snapshot),
                   "--save", str(again)])
        assert rc == 0
        assert (again / "taxonomy.json").read_bytes() == (
            snapshot / "taxonomy.json"
        ).read_bytes()

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
    """serve-cluster: the scale-out handoff from the CLI."""

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


class TestWritePathStartsFromTheSnapshot:
    """``serve-http --ingest-wal`` and ``serve-follower`` start from the
    snapshot's files alone: model, click window, categories, probes."""

    @pytest.fixture(scope="class")
    def bare_snapshot(self, tmp_path_factory, tiny_marketplace, tiny_model):
        """A snapshot whose manifest names no profile/seed."""
        d = tmp_path_factory.mktemp("bare") / "snap"
        tiny_model.save(
            d,
            entity_categories={
                e.entity_id: e.category_id
                for e in tiny_marketplace.catalog.entities
            },
        )
        return d

    @pytest.fixture
    def no_world(self, monkeypatch):
        """Every import of ``generate_marketplace`` raises."""
        import sys

        def refuse(*args, **kwargs):
            raise AssertionError("regenerated the synthetic world")

        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if name.startswith("repro") and hasattr(
                module, "generate_marketplace"
            ):
                monkeypatch.setattr(module, "generate_marketplace", refuse)

    @staticmethod
    def _serve_once(monkeypatch, action):
        """Stub the serve loop: start, run ``action(server)``, stop."""
        seen = {}

        def run(server, what, surface, *, on_start=None, on_stop=None):
            server.start()
            if on_start is not None:
                on_start()
            try:
                seen["out"] = action(server)
            finally:
                if on_stop is not None:
                    on_stop()
                server.shutdown()
            return 0

        monkeypatch.setattr("repro.cli._run_server", run)
        return seen

    def test_primary_without_a_world_accepts_ingest(
        self, tmp_path, monkeypatch, no_world, bare_snapshot,
        tiny_marketplace,
    ):
        from repro.api import ShoalClient

        event = tiny_marketplace.query_log.events[0]
        payload = {
            "day": max(tiny_marketplace.query_log.days()) + 1,
            "query_id": event.query_id,
            "clicked": list(event.clicked_entity_ids),
        }
        seen = self._serve_once(
            monkeypatch,
            lambda server: ShoalClient(server.url, timeout=10.0).ingest(payload),
        )
        argv = ["serve-http", "--load", str(bare_snapshot), "--port", "0",
                "--ingest-wal", str(tmp_path / "wal"),
                "--ship-feed", str(tmp_path / "feed")]
        assert main(argv) == 0
        assert seen["out"] == {"accepted": 1, "last_seq": 1}
        # The feed names no world either; it ships the boot snapshot's
        # serving files as generation 0.
        manifest = json.loads((tmp_path / "feed" / "FEED.json").read_text())
        assert sorted(manifest) == ["format", "nonce"]
        gen0 = tmp_path / "feed" / "generations" / "gen-00000"
        assert (gen0 / "taxonomy.json").is_file()
        assert not (gen0 / "window.npz").exists()

        seen = self._serve_once(
            monkeypatch, lambda server: server.url
        )
        argv = ["serve-follower", "--feed", str(tmp_path / "feed"),
                "--port", "0", "--catch-up-s", "5"]
        assert main(argv) == 0
        assert seen["out"].startswith("http://")

    def test_snapshot_without_a_window_is_refused(
        self, tmp_path, bare_snapshot
    ):
        import shutil

        from repro.store.persistence import read_manifest

        old = tmp_path / "old"
        shutil.copytree(bare_snapshot, old)
        manifest = read_manifest(old)
        manifest["artifacts"].remove("window.npz")
        (old / "MANIFEST.json").write_text(json.dumps(manifest))
        (old / "window.npz").unlink()
        with pytest.raises(SystemExit, match="window.npz"):
            main(["serve-http", "--load", str(old), "--port", "0",
                  "--ingest-wal", str(tmp_path / "wal")])
