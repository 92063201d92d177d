"""The chaos harness itself: planner, network hook, scheduler InvokeOp,
settlement, shrink + repro files, sweeps and the CLI surface."""

import json

import pytest

from repro.chaos import (
    ChaosConfig,
    FaultPlan,
    FaultPlanner,
    chaos_sweep,
    load_repro_file,
    replay_repro_file,
    run_chaos,
    shrink_and_report,
    shrink_plan,
    write_repro_file,
)
from repro.cli import main
from repro.p2p.network import SimNetwork
from repro.sim.metrics import MetricsCollector
from repro.sim.scheduler import InvokeOp


def _planner(seed, fault_rate=0.5, txns=20):
    providers = [f"AP{i}" for i in range(1, 7)]
    return FaultPlanner(
        seed=seed,
        providers=providers,
        provider_methods={p: f"S{p[2:]}" for p in providers},
        txns=txns,
        fault_rate=fault_rate,
        horizon=3.0,
    )


class TestFaultPlanner:
    def test_same_seed_same_plan(self):
        assert _planner(9).plan() == _planner(9).plan()

    def test_event_count_tracks_fault_rate(self):
        assert len(_planner(1, fault_rate=0.0).plan()) == 0
        assert len(_planner(1, fault_rate=0.5, txns=20).plan()) == 10

    def test_events_target_providers_only(self):
        plan = _planner(4, fault_rate=1.0).plan()
        for event in plan.events:
            if event.peer:
                assert event.peer.startswith("AP")
            if event.trigger:
                assert event.trigger.startswith("AP")

    def test_plan_json_round_trip(self):
        plan = _planner(4, fault_rate=1.0).plan()
        hopped = FaultPlan.from_dict(
            json.loads(json.dumps(plan.to_dict()))
        )
        assert hopped == plan

    def test_without_removes_one_event(self):
        plan = _planner(4, fault_rate=1.0).plan()
        smaller = plan.without(0)
        assert len(smaller) == len(plan) - 1
        assert smaller.events == plan.events[1:]


class TestMessageHook:
    def _network_pair(self):
        import tests.test_p2p_network as netmod

        network = SimNetwork()
        netmod.StubPeer("A", network)
        receiver = netmod.StubPeer("B", network)
        return network, receiver

    def test_drop_verdict_suppresses_delivery(self):
        network, receiver = self._network_pair()
        network.set_message_hook(lambda s, t, m: "drop")
        assert network.notify("A", "B", "hello") is False
        assert receiver.notifications == []
        assert network.metrics.get("messages_chaos_dropped") == 1

    def test_delay_verdict_defers_delivery(self):
        network, receiver = self._network_pair()
        network.set_message_hook(lambda s, t, m: 0.5)
        assert network.notify("A", "B", "hello") is True
        assert receiver.notifications == []  # not yet
        network.events.run_all()
        assert receiver.notifications == ["hello"]
        assert network.metrics.get("messages_chaos_delayed") == 1

    def test_none_verdict_and_no_hook_are_identical(self):
        network, receiver = self._network_pair()
        network.set_message_hook(lambda s, t, m: None)
        assert network.notify("A", "B", "x") is True
        network.set_message_hook(None)
        assert network.notify("A", "B", "y") is True
        assert receiver.notifications == ["x", "y"]
        assert network.metrics.get("messages_chaos_dropped") == 0


class TestHarnessRuns:
    def test_clean_run_has_zero_violations(self):
        result = run_chaos(ChaosConfig(seed=2, txns=8, fault_rate=0.0))
        assert result.ok
        assert all(r.committed for r in result.results)

    def test_faulty_run_still_atomic(self):
        result = run_chaos(ChaosConfig(seed=2, txns=12, fault_rate=0.5))
        assert result.ok, result.violations
        assert len(result.plan) > 0
        assert any(not r.committed for r in result.results)

    def test_invoke_ops_leave_subtree_markers(self):
        # Every committed InvokeOp marker lands once per subtree doc —
        # checked explicitly here, not just via the oracle.
        result = run_chaos(ChaosConfig(seed=2, txns=8, fault_rate=0.0))
        committed = {r.label for r in result.results if r.committed}
        seen = set()
        from repro.chaos.oracle import scan_markers

        for peer_id, peer in result.cluster.peers.items():
            for doc_name, document in peer.documents.items():
                for label, step in scan_markers(document.to_xml()):
                    seen.add((peer_id, doc_name, label, step))
        expected = {
            (e.peer, e.document, e.label, e.step)
            for e in result.expected
            if e.label in committed
        }
        assert seen == expected

    def test_settlement_leaves_no_protocol_state(self):
        result = run_chaos(ChaosConfig(seed=6, txns=10, fault_rate=0.5))
        for peer in result.cluster.peers.values():
            assert not peer.chains
            assert len(peer.manager.log) == 0

    def test_handlers_mode_runs_clean(self):
        result = run_chaos(
            ChaosConfig(seed=4, txns=8, fault_rate=0.3, handlers=True)
        )
        assert result.ok, result.violations

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError):
            ChaosConfig(mutate="nonsense")


class TestSettlementApis:
    def test_resolve_in_doubt_matches_decision(self):
        result = run_chaos(ChaosConfig(seed=2, txns=4, fault_rate=0.0))
        origin = result.cluster.peer("C1")
        txn = origin.begin_transaction()
        assert origin.resolve_in_doubt(txn.txn_id, committed=False) == "aborted"
        # Terminal states are sticky: a second resolve is a no-op.
        assert origin.resolve_in_doubt(txn.txn_id, committed=True) == "noop"
        assert origin.resolve_in_doubt("no-such-txn", committed=True) == "noop"

    def test_forget_transaction_clears_chain(self):
        result = run_chaos(ChaosConfig(seed=2, txns=4, fault_rate=0.0))
        origin = result.cluster.peer("C1")
        txn = origin.begin_transaction()
        assert txn.txn_id in origin.chains
        origin.resolve_in_doubt(txn.txn_id, committed=False)
        origin.forget_transaction(txn.txn_id)
        assert txn.txn_id not in origin.chains


class TestShrinkAndRepro:
    CONFIG = ChaosConfig(seed=7, fault_rate=0.2, mutate="skip_undo")

    def test_shrink_minimizes_and_stays_failing(self):
        failing = run_chaos(self.CONFIG)
        assert not failing.ok
        report = shrink_plan(self.CONFIG, failing.plan)
        assert len(report.result.plan) <= len(failing.plan)
        assert not report.result.ok
        assert report.runs >= 1

    def test_shrink_rejects_passing_plan(self):
        config = ChaosConfig(seed=2, txns=6, fault_rate=0.0)
        with pytest.raises(ValueError):
            shrink_plan(config, FaultPlan(()))

    def test_repro_file_round_trip(self, tmp_path):
        failing = run_chaos(self.CONFIG)
        path = tmp_path / "repro.json"
        report = shrink_and_report(self.CONFIG, failing.plan, str(path))
        raw = json.loads(path.read_text())
        assert raw["version"] == 1
        config, plan = load_repro_file(str(path))
        assert config == self.CONFIG
        assert plan == report.result.plan

        replayed = replay_repro_file(str(path))
        assert not replayed.ok
        assert [v.to_dict() for v in replayed.violations] == raw["violations"]

    def test_repro_file_version_check(self, tmp_path):
        failing = run_chaos(self.CONFIG)
        path = tmp_path / "repro.json"
        write_repro_file(str(path), failing)
        data = json.loads(path.read_text())
        data["version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            load_repro_file(str(path))

    def test_repro_file_unknown_config_keys_rejected(self, tmp_path, capsys):
        failing = run_chaos(self.CONFIG)
        path = tmp_path / "repro.json"
        write_repro_file(str(path), failing)
        data = json.loads(path.read_text())
        # Misspelt knobs must not silently replay a different run.
        data["config"]["txnz"] = 99
        data["config"]["replicaz"] = 2
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="replicaz, txnz"):
            load_repro_file(str(path))
        assert main(["chaos", "--replay", str(path)]) == 2
        assert "replicaz" in capsys.readouterr().err


class TestSweep:
    def test_sweep_counts_and_metrics(self):
        metrics = MetricsCollector()
        table, failures = chaos_sweep(
            ChaosConfig(txns=6),
            seeds=range(2),
            concurrencies=(2,),
            fault_rates=(0.0, 0.4),
            metrics=metrics,
        )
        assert failures == []
        assert metrics.get("chaos_runs") == 4
        assert metrics.get("chaos_violations") == 0
        assert len(table.rows) == 4

    def test_sweep_accepts_one_shot_seed_iterables(self):
        base = ChaosConfig(txns=4, fault_rate=0.0)
        from_range, _ = chaos_sweep(base, seeds=range(3), concurrencies=(2, 4))
        from_gen, _ = chaos_sweep(
            base, seeds=(s for s in range(3)), concurrencies=(2, 4)
        )
        assert len(from_gen.rows) == 6
        assert from_gen.render() == from_range.render()
        assert "6 runs, 0 failing" in from_gen.render()


class TestChaosCli:
    def test_single_run_exit_zero_and_json(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        code = main([
            "chaos", "--seed", "3", "--txns", "6",
            "--fault-rate", "0.2", "--json-out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["violations"] == []
        assert "0 violations" in capsys.readouterr().out

    def test_cli_summary_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main([
                "chaos", "--seed", "5", "--txns", "6", "--json-out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mutated_run_writes_repro_and_exits_one(self, tmp_path, capsys):
        repro = tmp_path / "repro.json"
        code = main([
            "chaos", "--seed", "7", "--mutate", "skip_undo",
            "--repro-out", str(repro),
        ])
        assert code == 1
        assert repro.exists()
        assert "shrunk schedule" in capsys.readouterr().out
        assert main(["chaos", "--replay", str(repro)]) == 1

    def test_sweep_mode(self, capsys):
        code = main([
            "chaos", "--sweep", "--seeds", "2", "--txns", "6",
            "--fault-rate", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos_runs = 4" in out
        assert "chaos_violations = 0" in out

    def test_sweep_at_concurrency_two_runs_each_cell_once(self, capsys):
        assert main([
            "chaos", "--sweep", "--seeds", "2", "--txns", "4",
            "--concurrency", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos_runs = 2" in out
        assert "2 runs, 0 failing" in out

    def test_summary_is_version_2_with_every_config_field(self, tmp_path):
        out = tmp_path / "summary.json"
        assert main(["chaos", "--seed", "1", "--txns", "4",
                     "--json-out", str(out)]) == 0
        summary = json.loads(out.read_text())
        assert summary["version"] == 2
        assert summary["config"] == ChaosConfig(seed=1, txns=4).to_dict()
        assert set(summary["config"]) == set(ChaosConfig.__dataclass_fields__)


class TestInvokeOpUnit:
    def test_params_are_canonicalized(self):
        a = InvokeOp("AP1", "S1", {"b": "2", "a": "1"})
        b = InvokeOp("AP1", "S1", (("a", "1"), ("b", "2")))
        assert a == b
        assert a.params_dict == {"a": "1", "b": "2"}
