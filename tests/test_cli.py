"""Tests for the poc-repro CLI."""

import pytest

from repro.cli import main, make_parser


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["zoo", "--preset", "galaxy"])


class TestZooCommand:
    def test_runs_and_reports(self, capsys):
        assert main(["zoo", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "BPs: 5" in out
        assert "logical links" in out

    def test_seed_changes_report(self, capsys):
        main(["zoo", "--preset", "tiny", "--seed", "1"])
        a = capsys.readouterr().out
        main(["zoo", "--preset", "tiny", "--seed", "2"])
        b = capsys.readouterr().out
        assert a != b


class TestNeutralityCommand:
    def test_table(self, capsys):
        assert main(["neutrality"]) == 0
        out = capsys.readouterr().out
        assert "linear" in out
        assert "W_nn" in out
        # Every family row shows NN welfare >= unilateral welfare.
        for line in out.splitlines()[2:]:
            fields = line.split()
            if len(fields) >= 4:
                assert float(fields[1]) >= float(fields[3]) - 1e-9


class TestMarketCommand:
    def test_nn_run(self, capsys):
        assert main(["market", "--regime", "nn", "--epochs", "6"]) == 0
        out = capsys.readouterr().out
        assert "POC surplus" in out
        assert "entrant-csp" in out

    def test_ur_run(self, capsys):
        assert main(["market", "--regime", "ur", "--epochs", "4"]) == 0

    def test_entrant_respects_entry_epoch(self, capsys):
        # entry epoch beyond the run: the entrant never trades.
        assert main(["market", "--epochs", "3", "--entry-epoch", "5"]) == 0
        out = capsys.readouterr().out
        assert "entrant-csp" not in out


class TestBaselineCommand:
    def test_comparison(self, capsys):
        assert main(["baseline"]) == 0
        out = capsys.readouterr().out
        assert "status-quo" in out
        assert "poc" in out
        assert "fee-exposure=False" in out


class TestAdoptionCommand:
    def test_trajectory(self, capsys):
        assert main(["adoption", "--epochs", "30"]) == 0
        out = capsys.readouterr().out
        assert "final share" in out
        assert "incumbent" in out


class TestProbeCommand:
    def test_neutral_exit_zero(self, capsys):
        assert main(["probe"]) == 0
        assert "no differential treatment" in capsys.readouterr().out

    def test_throttled_exit_nonzero(self, capsys):
        assert main(["probe", "--throttle", "csp-b"]) == 1
        assert "VIOLATION" in capsys.readouterr().out


class TestPlanningCommand:
    def test_schedule(self, capsys):
        assert main(["planning", "--months", "3", "--growth", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "RE-AUCTION" in out
        assert "1 auctions" in out


class TestChaosCommand:
    def test_micro_campaign_runs(self, capsys):
        assert main(["chaos", "--seed", "7", "--scenarios", "5"]) == 0
        out = capsys.readouterr().out
        assert "chaos campaign: seed=7" in out
        assert "served-demand fraction by fault class" in out
        assert "solver-stall" in out
        assert "fallback" in out

    def test_json_output_is_deterministic(self, capsys):
        assert main(["chaos", "--seed", "7", "--scenarios", "3", "--json"]) == 0
        a = capsys.readouterr().out
        assert main(["chaos", "--seed", "7", "--scenarios", "3", "--json"]) == 0
        b = capsys.readouterr().out
        assert a == b
        import json

        payload = json.loads(a)
        assert payload["seed"] == 7
        assert len(payload["scenarios"]) == 3

    def test_checkpoint_resume(self, capsys, tmp_path):
        ckpt = str(tmp_path / "campaign.json")
        assert main([
            "chaos", "--seed", "7", "--scenarios", "2",
            "--checkpoint", ckpt, "--json",
        ]) == 0
        first = capsys.readouterr().out
        # Resuming to a longer campaign replays the finished epochs.
        assert main([
            "chaos", "--seed", "7", "--scenarios", "4",
            "--checkpoint", ckpt, "--json",
        ]) == 0
        import json

        resumed = json.loads(capsys.readouterr().out)
        assert json.loads(first)["scenarios"] == resumed["scenarios"][:2]

    def test_heuristic_primary_avoids_fallback_collision(self, capsys):
        # --method greedy-drop collides with the default fallback; the
        # CLI must pick a different fallback rather than crash.
        assert main([
            "chaos", "--seed", "3", "--scenarios", "2",
            "--method", "greedy-drop",
        ]) == 0

    def test_survivable_constraint(self, capsys):
        assert main([
            "chaos", "--seed", "7", "--scenarios", "1", "--constraint", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "rerouted" in out


class TestSweepCommand:
    def test_list_registered_experiments(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("figure2", "neutrality", "market", "chaos", "demo"):
            assert name in out

    def test_demo_grid_reports(self, capsys):
        assert main([
            "sweep", "--experiment", "demo",
            "--axis", "loc=0,1", "--set", "draws=8",
            "--group-by", "loc",
        ]) == 0
        captured = capsys.readouterr()
        assert "sweep aggregate — experiment=demo" in captured.out
        assert "loc=0" in captured.out and "loc=1" in captured.out
        # Run accounting goes to stderr, never into the report.
        assert "executed=2" in captured.err
        assert "executed=2" not in captured.out

    def test_json_report_deterministic(self, capsys):
        argv = ["sweep", "--experiment", "demo", "--axis", "loc=0,1", "--json"]
        assert main(argv) == 0
        a = capsys.readouterr().out
        assert main(argv) == 0
        b = capsys.readouterr().out
        assert a == b
        import json

        payload = json.loads(a)
        assert payload["experiment"] == "demo"

    def test_store_caches_second_run(self, capsys, tmp_path):
        store = str(tmp_path / "results.jsonl")
        argv = [
            "sweep", "--experiment", "demo", "--axis", "loc=0:3",
            "--store", store,
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out  # byte-identical report
        assert "executed=3 cached=0" in first.err
        assert "executed=0 cached=3" in second.err

    def test_spec_file(self, capsys, tmp_path):
        import json

        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps({
            "experiment": "demo",
            "axes": [{"name": "loc", "values": [0.0, 1.0]}],
            "base": {"draws": 8},
            "seed": 3,
        }))
        assert main(["sweep", "--spec", str(spec_path)]) == 0
        assert "experiment=demo" in capsys.readouterr().out

    def test_zip_mode_and_repeats(self, capsys):
        assert main([
            "sweep", "--experiment", "demo",
            "--axis", "loc=0,1", "--axis", "scale=1,2", "--zip",
            "--repeats", "2",
        ]) == 0
        assert "executed=4" in capsys.readouterr().err

    def test_requires_axis_or_spec(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--experiment", "demo"])

    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "loc=0,1"])

    def test_unknown_experiment_fails(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--experiment", "nope", "--axis", "x=1"])

    def test_bad_axis_syntax(self):
        for bad in ("loc", "loc=", "loc=5:2", "loc=a:b"):
            with pytest.raises(SystemExit):
                main(["sweep", "--experiment", "demo", "--axis", bad])

    def test_progress_beats_on_stderr(self, capsys):
        assert main([
            "sweep", "--experiment", "demo", "--axis", "loc=0,1",
            "--progress",
        ]) == 0
        err = capsys.readouterr().err
        assert "sweep:" in err and "executed" in err


class TestSweepSupervisionFlags:
    def test_validate_quarantine_reports(self, capsys, tmp_path):
        store = str(tmp_path / "results.jsonl")
        assert main([
            "sweep", "--experiment", "demo",
            "--axis", "emit=ok,bad,nan",
            "--validate", "quarantine", "--store", store, "--report",
        ]) == 0
        captured = capsys.readouterr()
        assert "quarantined=1" in captured.err
        assert "supervision:" in captured.out
        assert "invalid" in captured.out
        assert (tmp_path / "quarantine.jsonl").exists()

    def test_nan_scalar_stays_string(self):
        from repro.cli import _coerce_scalar

        assert _coerce_scalar("nan") == "nan"
        assert _coerce_scalar("inf") == "inf"
        assert _coerce_scalar("1.5") == 1.5
        assert _coerce_scalar("2") == 2

    def test_trial_timeout_flag_accepted(self, capsys):
        assert main([
            "sweep", "--experiment", "demo", "--axis", "loc=0,1",
            "--trial-timeout", "30",
        ]) == 0
        assert "executed=2" in capsys.readouterr().err

    def test_strict_validation_fails_run(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "sweep", "--experiment", "demo", "--axis", "emit=ok,nan",
                "--validate", "strict",
            ])


class TestAuditCommand:
    def _populate(self, tmp_path, emit="ok"):
        store = str(tmp_path / "results.jsonl")
        main(["sweep", "--experiment", "demo", "--axis", f"emit={emit},also",
              "--store", store])
        return store

    def test_clean_store_exits_zero(self, capsys, tmp_path):
        store = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["audit", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert "0 invalid record(s)" in out

    def test_poisoned_store_exits_one(self, capsys, tmp_path):
        import json

        store = self._populate(tmp_path)
        lines = []
        with open(store, encoding="utf-8") as handle:
            for line in handle:
                entry = json.loads(line)
                entry["record"]["mean"] = float("nan")
                lines.append(json.dumps(entry))
        with open(store, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["audit", "--store", store]) == 1
        out = capsys.readouterr().out
        assert "2 invalid record(s)" in out
        assert "record-finite" in out

    def test_json_payload(self, capsys, tmp_path):
        import json

        store = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["audit", "--store", store, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 2
        assert payload["invalid"] == []
        assert payload["corrupt_lines"] == 0

    def test_missing_store_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["audit", "--store", str(tmp_path / "nope.jsonl")])

    def test_reports_adjacent_quarantine(self, capsys, tmp_path):
        store = str(tmp_path / "results.jsonl")
        main(["sweep", "--experiment", "demo", "--axis", "emit=ok,nan",
              "--validate", "quarantine", "--store", store])
        capsys.readouterr()
        assert main(["audit", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "quarantine" in out
        assert "invalid=1" in out


class TestServeCommand:
    def test_bounded_run_drains_and_persists(self, capsys, tmp_path):
        path = tmp_path / "serve-snap.json"
        assert main([
            "serve", "--preset", "micro", "--seed", "3",
            "--method", "greedy-drop",
            "--duration", "0.2", "--heartbeat", "0.05",
            "--checkpoint", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "serving snapshot v1 (healthy)" in out
        assert "drained at snapshot v1" in out
        assert path.exists()

        from repro.service import load_snapshot

        snap = load_snapshot(path)
        assert snap.version == 1
        assert snap.health == "healthy"


    def test_heartbeat_survives_a_full_queue(self, capsys):
        """Regression: the heartbeat must not go through admission control.

        With the queue full, a "health" probe is shed with an empty
        payload; reading ``version`` from it raised ``KeyError`` and
        killed the daemon.  The heartbeat now reads the published
        snapshot, so it takes no queue slot and sheds nothing.
        """
        import argparse
        import asyncio

        from repro.cli import _serve_until_drained
        from repro.service import ServiceConfig, WallClock

        from tests.service.conftest import make_service

        service = make_service(
            clock=WallClock(),
            config=ServiceConfig(queue_limit=1, batch_max=1,
                                 batch_overhead_s=0.3, default_deadline_s=5.0),
        )
        args = argparse.Namespace(heartbeat=0.05, duration=0.2, checkpoint=None)

        async def scenario():
            await service.start()
            first = service.submit("health")
            await asyncio.sleep(0)  # the worker takes it and sleeps 0.3 s
            queued = service.submit("health")  # fills the one-slot queue
            shed = service.submit("health")
            assert shed.done() and shed.result().status == "overloaded"
            await _serve_until_drained(service, args)
            return await asyncio.gather(first, queued)

        served = asyncio.run(scenario())
        assert [r.status for r in served] == ["ok", "ok"]
        out = capsys.readouterr().out
        assert "  v1 healthy  served=" in out
        assert "breaker=closed" in out
        assert service.stats["overloaded"] == 1  # only the deliberate shed
        assert "drained at snapshot v1" in out


class TestLoadgenCommand:
    def test_campaign_reports_and_exits_zero(self, capsys):
        assert main([
            "loadgen", "--preset", "micro", "--seed", "5",
            "--method", "greedy-drop",
            "--duration", "2", "--rate", "50", "--fault-at", "0.8",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 unanswered" in out
        assert "degraded" in out
        assert "recovery 0.8s" in out

    def test_json_is_deterministic(self, capsys):
        argv = [
            "loadgen", "--preset", "micro", "--seed", "6",
            "--method", "greedy-drop",
            "--duration", "2", "--rate", "40", "--json",
        ]
        assert main(argv) == 0
        a = capsys.readouterr().out
        assert main(argv) == 0
        b = capsys.readouterr().out
        assert a == b
        import json

        payload = json.loads(a)
        assert payload["unanswered"] == 0
        assert payload["counts"]

    def test_bad_stall_window_rejected(self):
        with pytest.raises(SystemExit):
            main(["loadgen", "--stall-window", "nonsense"])


class TestAuditSnapshot:
    def _persisted_snapshot(self, tmp_path, seed=4):
        from repro.service import ChaosPlan, LoadgenConfig, ServiceConfig, run_service_benchmark
        from repro.experiments.pipeline import PipelineCheckpoint

        path = tmp_path / "svc.json"
        run_service_benchmark(
            seed,
            load=LoadgenConfig(duration_s=1.5, base_rate_qps=30.0),
            chaos=ChaosPlan(fault_times=(0.3,), links_per_fault=1),
            config=ServiceConfig(primary_method="greedy-drop",
                                 fallback_method="greedy-cheap"),
            checkpoint=PipelineCheckpoint(path),
        )
        return path

    def test_clean_snapshot_exits_zero(self, capsys, tmp_path):
        path = self._persisted_snapshot(tmp_path)
        assert main(["audit", "--snapshot", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_tampered_snapshot_exits_one(self, capsys, tmp_path):
        import json

        path = self._persisted_snapshot(tmp_path)
        payload = json.loads(path.read_text())
        payload["stages"]["service-snapshot"]["control"]["total_payments"] = 1.0
        path.write_text(json.dumps(payload))
        assert main(["audit", "--snapshot", str(path)]) == 1
        out = capsys.readouterr().out
        assert "vcg-budget-identity" in out

    def test_json_report(self, capsys, tmp_path):
        import json

        path = self._persisted_snapshot(tmp_path)
        assert main(["audit", "--snapshot", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []
        assert payload["health"] == "healthy"

    def test_missing_snapshot_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["audit", "--snapshot", str(tmp_path / "ghost.json")])

    def test_audit_needs_some_target(self):
        with pytest.raises(SystemExit):
            main(["audit"])
