"""Tests for PipelineExecutor and ShardedSession (+ serving integration)."""

import threading
import time

import numpy as np
import pytest

from repro.core.pipeline import PtqConfig
from repro.engine import PanaceaSession
from repro.gemm.workload import OpCounts
from repro.models.zoo import build_proxy, proxy_batches
from repro.serve import BatchPolicy, ModelServer, PlanStore
from repro.serve.pool import WorkerPool
from repro.shard import (PipelineExecutor, ShardedSession, ShardError,
                         auto_partition)


def _session(name="bert_base", scheme="aqs", seed=0, **kwargs):
    model, _ = build_proxy(name, seed=seed)
    session = PanaceaSession(model, PtqConfig.for_scheme(scheme), **kwargs)
    session.calibrate(proxy_batches(name, 2, 2, seed=seed + 1))
    return session


class TestPipelineExecutor:
    def _stage(self, tag, log=None, delay=0.0):
        def fn(x):
            if log is not None:
                log.append((tag, x))
            if delay:
                time.sleep(delay)
            return x + 1, tag
        return fn

    def test_results_in_submission_order(self):
        with WorkerPool(2) as pool:
            ex = PipelineExecutor([self._stage("a"), self._stage("b")],
                                  pool, depth=2)
            results = ex.run([np.array(i) for i in range(5)])
        assert [int(r.output) for r in results] == [2, 3, 4, 5, 6]
        assert all(r.extras == ["a", "b"] for r in results)

    def test_empty_run(self):
        with WorkerPool(1) as pool:
            ex = PipelineExecutor([self._stage("a")], pool)
            assert ex.run([]) == []

    def test_depth_bounds_in_flight(self):
        """With depth=1 a batch only starts after its predecessor finished
        every stage — the log interleaving proves the bound."""
        log = []
        with WorkerPool(4) as pool:
            ex = PipelineExecutor(
                [self._stage("a", log), self._stage("b", log)],
                pool, depth=1)
            ex.run([np.array(i) for i in range(3)])
        # depth=1 => strictly serial: a(x0) b(..) a(x1) b(..) a(x2) b(..)
        assert [tag for tag, _ in log] == ["a", "b"] * 3

    def test_overlap_actually_happens(self):
        """With depth=2 and two stages, stage b of batch i runs while stage
        a of batch i+1 runs — observed via concurrent entry tracking."""
        active = []
        overlap = []
        lock = threading.Lock()

        def tracked(tag):
            def fn(x):
                with lock:
                    active.append(tag)
                    if len(set(active)) > 1:
                        overlap.append(tuple(active))
                time.sleep(0.02)
                with lock:
                    active.remove(tag)
                return x, None
            return fn

        with WorkerPool(2) as pool:
            ex = PipelineExecutor([tracked("a"), tracked("b")], pool,
                                  depth=2)
            ex.run([np.array(i) for i in range(4)])
        assert overlap, "no two stages were ever active at once"

    def test_stage_error_fails_only_its_batch(self):
        def poison(x):
            if int(x) == 1:
                raise RuntimeError("boom")
            return x * 10, None

        with WorkerPool(2) as pool:
            ex = PipelineExecutor([poison], pool, depth=2)
            with pytest.raises(RuntimeError, match="boom"):
                ex.run([np.array(0), np.array(1), np.array(2)])
            # the healthy batches still flowed (stats count them)
            assert ex.stats()["stages"][0]["n_batches"] == 2

    def test_stats_shape(self):
        with WorkerPool(1) as pool:
            ex = PipelineExecutor([self._stage("a"), self._stage("b")],
                                  pool, depth=3)
            ex.run([np.array(0)])
            stats = ex.stats()
        assert stats["n_stages"] == 2 and stats["depth"] == 3
        assert stats["n_batches"] == 1
        assert [s["n_batches"] for s in stats["stages"]] == [1, 1]
        assert all(s["exec"]["count"] == 1 for s in stats["stages"])

    def test_invalid_construction(self):
        with WorkerPool(1) as pool:
            with pytest.raises(ValueError, match="at least one stage"):
                PipelineExecutor([], pool)
            with pytest.raises(ValueError, match="depth"):
                PipelineExecutor([self._stage("a")], pool, depth=0)

    def test_driver_on_pool_worker_does_not_deadlock(self):
        """The async serving path: executor.run executes on a worker of the
        same pool its stage tasks are queued to."""
        with WorkerPool(1) as pool:
            ex = PipelineExecutor([self._stage("a"), self._stage("b")],
                                  pool, depth=2)
            future = pool.submit(ex.run, [np.array(i) for i in range(3)])
            results = future.result(timeout=30)
        assert [int(r.output) for r in results] == [2, 3, 4]


class TestShardedSession:
    def test_requires_prepared_session(self):
        model, _ = build_proxy("bert_base", seed=0)
        session = PanaceaSession(model, PtqConfig.for_scheme("aqs"))
        with pytest.raises(ShardError, match="calibrated"):
            ShardedSession.partition(session, 2)

    def test_run_and_pipelined_bit_exact_vs_session_run(self):
        session = _session()
        requests = proxy_batches("bert_base", 2, 5, seed=9)
        expected = [session.run(x) for x in requests]
        with ShardedSession.partition(session, 3, depth=3) as sharded:
            solo = [sharded.run(x) for x in requests]
            piped = sharded.run_pipelined(requests)
        for a, b, c in zip(expected, solo, piped):
            assert np.array_equal(a, b)
            assert np.array_equal(a, c)

    def test_accounting_matches_unsharded(self):
        """Sharded serving folds into the same lifetime ledger: request
        count, layer calls and op totals equal an unsharded replay."""
        plain = _session()
        requests = proxy_batches("bert_base", 1, 4, seed=11)
        for x in requests:
            plain.run(x)

        session = _session()
        with ShardedSession.partition(session, 3) as sharded:
            sharded.run_pipelined(requests)
        a, b = plain.stats(), sharded.stats()
        for key in ("n_requests", "n_layer_calls", "mul4", "add",
                    "ema_nibbles"):
            assert a[key] == b[key], key
        assert b["n_stages"] == 3
        assert sharded.session.total_ops() == plain.total_ops()

    def test_records_carry_layers_in_execution_order(self):
        session = _session()
        with ShardedSession.partition(session, 2) as sharded:
            _, records = sharded.serve_coalesced(
                proxy_batches("bert_base", 1, 2, seed=3))
        plain = _session()
        x = proxy_batches("bert_base", 1, 1, seed=3)[0]
        _, (solo,) = plain.serve_coalesced([x])
        expected_order = [rec.name for rec in solo.layers]
        for record in records:
            assert [rec.name for rec in record.layers] == expected_order
            assert record.latency_s > 0

    def test_ragged_requests_pipeline_without_padding(self):
        """Each micro-batch is its own engine batch, so ragged sequence
        lengths need no pad_axis — unlike the fused coalescing path."""
        session = _session("gpt2")
        rng = np.random.default_rng(5)
        requests = [rng.integers(0, 512, (1, n)) for n in (6, 11, 8)]
        expected = [session.run(x) for x in requests]
        with ShardedSession.partition(session, 2) as sharded:
            outputs, records = sharded.serve_coalesced(
                requests, pad_axis=1)   # accepted, ignored
        for got, expect in zip(outputs, expected):
            assert np.array_equal(got, expect)
        assert [r.batch_shape for r in records] == \
            [x.shape for x in requests]

    def test_empty_group(self):
        with ShardedSession.partition(_session(), 2) as sharded:
            assert sharded.serve_coalesced([]) == ([], [])

    def test_explicit_plan_stage_mismatch_detected(self):
        session = _session()
        plan = auto_partition(session, 2)
        other = _session("gpt2")
        with pytest.raises(ShardError, match="does not match"):
            ShardedSession(other, plan)

    def test_stage_stats_expose_plan_and_source(self):
        session = _session()
        sample = proxy_batches("bert_base", 2, 1, seed=7)[0]
        with ShardedSession.partition(session, 3,
                                      sample=sample) as sharded:
            sharded.run_pipelined(proxy_batches("bert_base", 1, 3, seed=8))
            stats = sharded.stage_stats()
        assert stats["source"] == "measured"
        assert len(stats["plan"]) == 3
        assert all(s["n_batches"] == 3 for s in stats["stages"])


class TestServerIntegration:
    def test_inline_server_sharded_deployment_bit_exact(self):
        requests = proxy_batches("bert_base", 1, 6, seed=21)
        reference = _session(seed=0)
        expected = [reference.run(x) for x in requests]
        with ModelServer(BatchPolicy(max_batch=3,
                                     max_delay_s=0.0)) as server:
            server.deploy_proxy("b", "bert_base", scheme="aqs", seed=0,
                                shards=3)
            assert server.entry("b").sharded
            tickets = server.submit_many("b", requests)
            server.flush("b")
            for ticket, expect in zip(tickets, expected):
                assert np.array_equal(ticket.result(), expect)
            metrics = server.metrics()
        assert metrics.pipelines and set(metrics.pipelines) == {"b"}
        pipe = metrics.pipelines["b"]
        assert pipe["n_stages"] == 3
        assert all(s["n_batches"] == 6 for s in pipe["stages"])
        assert "pipelines" in metrics.summary()

    def test_async_server_sharded_deployment_bit_exact(self):
        requests = proxy_batches("bert_base", 1, 4, seed=22)
        reference = _session(seed=0)
        expected = [reference.run(x) for x in requests]
        with ModelServer(BatchPolicy(max_batch=2, max_delay_s=0.0),
                         workers=2) as server:
            server.deploy_proxy("b", "bert_base", scheme="aqs", seed=0,
                                shards=2)
            futures = [server.submit_async("b", x) for x in requests]
            for future, expect in zip(futures, expected):
                assert np.array_equal(future.result(timeout=60), expect)

    def test_unsharded_deployments_report_no_pipeline(self):
        with ModelServer() as server:
            server.deploy_proxy("b", "bert_base", scheme="aqs", seed=0)
            assert not server.entry("b").sharded
            assert server.metrics().pipelines is None

    def test_shards_conflicting_with_plan_raises(self):
        session = _session()
        plan = auto_partition(session, 2)
        with ModelServer() as server:
            with pytest.raises(ValueError, match="conflicts"):
                server.register("b", session, shards=3, shard_plan=plan)

    def test_unregister_closes_owned_stage_pool(self):
        with ModelServer() as server:
            server.deploy_proxy("b", "bert_base", scheme="aqs", seed=0,
                                shards=2)
            pool = server.entry("b").session.pool
            server.unregister("b")
            with pytest.raises(RuntimeError, match="shut-down"):
                pool.submit(lambda: None)


class TestStoreRoundTrip:
    def test_shard_plan_persists_and_redeploys(self, tmp_path):
        session = _session()
        plan = auto_partition(session, 3,
                              sample=proxy_batches("bert_base", 2, 1,
                                                   seed=5)[0])
        path = tmp_path / "bert.plans.npz"
        PlanStore(path).save(session, model_name="bert_base", seed=0,
                             shard_plan=plan)
        store = PlanStore(path)
        assert store.describe()["n_shards"] == 3
        assert store.load_shard_plan() == plan

        requests = proxy_batches("bert_base", 1, 3, seed=6)
        expected = [session.run(x) for x in requests]
        with ModelServer() as server:
            server.load("b", path, shards="stored")
            tickets = server.submit_many("b", requests)
            server.flush("b")
            for ticket, expect in zip(tickets, expected):
                assert np.array_equal(ticket.result(), expect)
            assert server.entry("b").session.plan == plan

    def test_sharded_session_saves_directly(self, tmp_path):
        session = _session()
        path = tmp_path / "bert.plans.npz"
        with ShardedSession.partition(session, 2) as sharded:
            PlanStore(path).save(sharded, model_name="bert_base", seed=0)
        loaded = PlanStore(path).load_shard_plan()
        assert loaded is not None and loaded.n_stages == 2

    def test_store_without_plan_returns_none_and_stored_raises(
            self, tmp_path):
        session = _session()
        path = tmp_path / "bert.plans.npz"
        PlanStore(path).save(session, model_name="bert_base", seed=0)
        store = PlanStore(path)
        assert store.describe()["n_shards"] == 0
        assert store.load_shard_plan() is None
        with ModelServer() as server:
            with pytest.raises(ValueError, match="no shard plan"):
                server.load("b", path, shards="stored")
        # plain loads (and integer re-partitions) still work
        with ModelServer() as server:
            server.load("b", path, shards=2)
            assert server.entry("b").sharded


class TestProfile:
    def test_profile_measures_without_polluting_stats(self):
        session = _session()
        report = session.profile(
            proxy_batches("bert_base", 2, 1, seed=5)[0], repeats=2)
        assert session.stats()["n_requests"] == 0
        assert len(session.trace.records) == 0
        assert set(layer.name for layer in report.layers) == \
            set(session.plans)
        assert all(layer.n_calls == 2 for layer in report.layers)
        assert all(layer.total_s > 0 for layer in report.layers)
        assert report.total_s >= report.layer_s
        assert report.other_s >= 0
        assert report.total_ops().mul4 > 0

    def test_profile_latency_by_layer_is_mean(self):
        session = _session()
        report = session.profile(
            proxy_batches("bert_base", 1, 1, seed=5)[0], repeats=3)
        by_layer = report.latency_by_layer()
        for layer in report.layers:
            assert by_layer[layer.name] == \
                pytest.approx(layer.total_s / 3)

    def test_profile_rejects_bad_repeats_and_unprepared(self):
        session = _session()
        with pytest.raises(ValueError, match="repeats"):
            session.profile(np.zeros((1, 2)), repeats=0)
        model, _ = build_proxy("bert_base", seed=0)
        fresh = PanaceaSession(model, PtqConfig.for_scheme("aqs"))
        with pytest.raises(RuntimeError, match="calibrated"):
            fresh.profile(np.zeros((1, 24, 192)))

    def test_serving_records_carry_layer_latency(self):
        session = _session()
        _, (record,) = session.serve_coalesced(
            [proxy_batches("bert_base", 1, 1, seed=5)[0]])
        layers = record.layers
        assert layers and all(rec.latency_s >= 0 for rec in layers)
        assert sum(rec.latency_s for rec in layers) > 0

    def test_record_external_accounting(self):
        session = _session()
        record = session.record_external((2, 3), [], 0.25)
        assert record.request_id == 0
        stats = session.stats()
        assert stats["n_requests"] == 1
        assert stats["exec_s"] == pytest.approx(0.25)
        assert session.total_ops() == OpCounts()


class TestReviewRegressions:
    """Pinned fixes: auto_calibrate bypass, shutdown hangs, shards typing."""

    def test_auto_calibrate_session_rejected_until_calibrated(self):
        """Stage fns bypass run()'s calibrate-on-first-batch hook, so an
        unprepared auto_calibrate session must be rejected, never silently
        served as the raw float model."""
        model, _ = build_proxy("bert_base", seed=0)
        session = PanaceaSession(model, PtqConfig.for_scheme("aqs"),
                                 auto_calibrate=True)
        with pytest.raises(ShardError, match="calibrate"):
            ShardedSession.partition(session, 2)
        with ModelServer() as server:
            with pytest.raises(ShardError, match="calibrate"):
                server.register("b", session, shards=2)
        # once calibrated, the same session shards fine
        session.calibrate(proxy_batches("bert_base", 2, 2, seed=1))
        with ShardedSession.partition(session, 2):
            pass

    def test_run_on_shut_down_pool_raises_instead_of_hanging(self):
        """Submit failures (shutdown race) must fail every batch future —
        run() raises; it must never block on a future nothing resolves."""
        pool = WorkerPool(1)
        ex = PipelineExecutor([lambda x: (x, None)], pool, depth=2)
        pool.shutdown(wait=True)
        with pytest.raises(RuntimeError, match="shut-down"):
            ex.run([np.array(i) for i in range(5)])

    def test_stage_result_latency_is_per_batch(self):
        """latency_s is stamped when the batch's last stage completes, not
        when the whole run drains, so it never exceeds the run wall."""
        with WorkerPool(2) as pool:
            ex = PipelineExecutor(
                [lambda x: (time.sleep(0.01) or x, None)], pool, depth=2)
            t0 = time.perf_counter()
            results = ex.run([np.array(i) for i in range(4)])
            wall = time.perf_counter() - t0
        for result in results:
            assert 0 < result.latency_s <= wall + 0.05

    def test_register_rejects_non_int_shards(self):
        session = _session()
        with ModelServer() as server:
            with pytest.raises(ValueError, match="int"):
                server.register("b", session, shards="stored")
            with pytest.raises(ValueError, match="int"):
                server.register("b2", session, shards=True)

    def test_load_rejects_unknown_shards_string(self, tmp_path):
        session = _session()
        path = tmp_path / "bert.plans.npz"
        PlanStore(path).save(session, model_name="bert_base", seed=0)
        with ModelServer() as server:
            with pytest.raises(ValueError, match="'stored'"):
                server.load("b", path, shards="storeed")
