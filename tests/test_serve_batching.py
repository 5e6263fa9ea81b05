"""Tests for dynamic micro-batching: policy triggers, bit-exactness, FIFO."""

import numpy as np
import pytest

from repro.core.pipeline import PtqConfig
from repro.engine import PanaceaSession
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.transformer import CausalLM
from repro.engine import ServiceModel
from repro.serve import (BatchPolicy, DeadlinePolicy, LatencyStats,
                         MicroBatcher)


class TinyNet(Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(16, 32, rng=rng)
        self.fc2 = Linear(32, 8, rng=rng)

    def forward(self, x):
        return self.fc2(np.maximum(self.fc1(x), 0.0))


def _batches(n=3, seed=0, rows=4):
    rng = np.random.default_rng(seed)
    return [rng.normal(0, 1, (rows, 16)) for _ in range(n)]


def _session(seed=0, **kwargs):
    return PanaceaSession(TinyNet(seed), PtqConfig(scheme="aqs"),
                         calibration=_batches(seed=seed), **kwargs)


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestBatchPolicy:
    def test_defaults(self):
        policy = BatchPolicy()
        assert policy.max_batch >= 1 and policy.max_delay_s >= 0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_delay_s=-1.0)


class TestCoalescedBitExactness:
    def test_run_coalesced_matches_solo_runs(self):
        reqs = _batches(5, seed=7, rows=2)
        solo = _session(seed=1)
        coal = _session(seed=1)
        solo_outs = [solo.run(r) for r in reqs]
        coal_outs = coal.run_coalesced(reqs)
        for a, b in zip(solo_outs, coal_outs):
            assert np.array_equal(a, b)

    def test_ragged_batch_sizes(self):
        rng = np.random.default_rng(3)
        reqs = [rng.normal(0, 1, (rows, 16)) for rows in (1, 3, 2)]
        solo = _session(seed=2)
        coal = _session(seed=2)
        solo_outs = [solo.run(r) for r in reqs]
        coal_outs = coal.run_coalesced(reqs)
        for a, b, r in zip(solo_outs, coal_outs, reqs):
            assert b.shape[0] == r.shape[0]
            assert np.array_equal(a, b)

    def test_padded_causal_lm(self):
        rng = np.random.default_rng(4)
        def lm():
            return CausalLM(vocab=64, dim=32, n_layers=1, n_heads=2,
                            mlp_hidden=64, seed=0)
        calib = [rng.integers(0, 64, (2, 12)) for _ in range(3)]
        solo = PanaceaSession(lm(), PtqConfig(scheme="aqs"),
                              calibration=calib)
        coal = PanaceaSession(lm(), PtqConfig(scheme="aqs"),
                              calibration=calib)
        reqs = [rng.integers(0, 64, (1, length)) for length in (9, 12, 5)]
        solo_outs = [solo.run(r) for r in reqs]
        coal_outs = coal.run_coalesced(reqs, pad_axis=1)
        for a, b, r in zip(solo_outs, coal_outs, reqs):
            assert b.shape[1] == r.shape[1]  # padding sliced back off
            assert np.array_equal(a, b)

    def test_mismatched_trailing_dims_need_pad_axis(self):
        rng = np.random.default_rng(5)
        session = _session(seed=3)
        with pytest.raises(ValueError, match="pad_axis"):
            session.run_coalesced([rng.normal(0, 1, (2, 16)),
                                   rng.normal(0, 1, (2, 12))])

    def test_mismatched_rank_rejected(self):
        rng = np.random.default_rng(6)
        session = _session(seed=3)
        with pytest.raises(ValueError, match="rank"):
            session.run_coalesced([rng.normal(0, 1, (2, 16)),
                                   rng.normal(0, 1, (2, 2, 16))])

    def test_unprepared_session_rejected(self):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"))
        with pytest.raises(RuntimeError, match="calibrated"):
            session.run_coalesced(_batches(2, seed=8))

    def test_auto_calibrate_opt_in_covers_coalesced_path(self):
        """A server-accepted auto_calibrate session must serve its first
        coalesced batch, not raise (the opt-in applies to both run paths)."""
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 auto_calibrate=True)
        outs = session.run_coalesced(_batches(3, seed=23, rows=2))
        assert session.prepared
        assert [o.shape for o in outs] == [(2, 8)] * 3

    def test_empty_and_single(self):
        session = _session(seed=4)
        assert session.run_coalesced([]) == []
        out = session.run_coalesced(_batches(1, seed=9))
        assert len(out) == 1 and out[0].shape == (4, 8)


class TestTraceAttribution:
    def test_one_record_per_request(self):
        session = _session(seed=5)
        reqs = _batches(3, seed=10, rows=2)
        _, records = session.serve_coalesced(reqs)
        assert [r.request_id for r in records] == [0, 1, 2]
        assert all(r.coalesced == 3 for r in records)
        assert all(len(r.layers) == 2 for r in records)
        assert all(r.latency_s > 0 for r in records)

    def test_split_ops_conserve_batch_totals(self):
        session = _session(seed=6)
        reqs = _batches(4, seed=11, rows=3)
        _, records = session.serve_coalesced(reqs)
        total = session.total_ops()
        split = sum(r.total_ops().mul4 for r in records)
        assert split == total.mul4 > 0
        split_ema = sum(r.total_ops().ema_nibbles for r in records)
        assert split_ema == total.ema_nibbles > 0

    def test_columns_apportioned_by_row_share(self):
        session = _session(seed=7)
        rng = np.random.default_rng(12)
        reqs = [rng.normal(0, 1, (rows, 16)) for rows in (1, 3)]
        _, records = session.serve_coalesced(reqs)
        n0 = records[0].layers[0].n
        n1 = records[1].layers[0].n
        assert n0 + n1 == 4      # fused columns
        assert n1 == 3 * n0      # proportional to rows


class TestMicroBatcher:
    def test_full_batch_fires_immediately(self):
        batcher = MicroBatcher(_session(seed=9),
                               BatchPolicy(max_batch=3, max_delay_s=60.0))
        tickets = [batcher.submit(b) for b in _batches(3, seed=14, rows=2)]
        assert all(t.done for t in tickets)
        assert batcher.depth == 0
        assert all(t.batch_size == 3 for t in tickets)

    def test_partial_batch_waits_for_delay(self):
        clock = FakeClock()
        batcher = MicroBatcher(_session(seed=10),
                               BatchPolicy(max_batch=8, max_delay_s=0.5),
                               clock=clock)
        ticket = batcher.submit(_batches(1, seed=15, rows=2)[0])
        assert not ticket.done
        assert batcher.pump() == 0          # deadline not reached
        clock.advance(0.6)
        assert batcher.pump() == 1
        assert ticket.done

    def test_result_forces_service(self):
        batcher = MicroBatcher(_session(seed=11),
                               BatchPolicy(max_batch=8, max_delay_s=60.0))
        reqs = _batches(2, seed=16, rows=2)
        t1, t2 = (batcher.submit(b) for b in reqs)
        out = t2.result()                   # forces t1 too (FIFO)
        assert t1.done and t2.done
        assert out.shape == (2, 8)

    def test_fifo_order_and_exactness(self):
        reqs = _batches(6, seed=17, rows=2)
        solo = _session(seed=12)
        solo_outs = [solo.run(r) for r in reqs]
        batcher = MicroBatcher(_session(seed=12),
                               BatchPolicy(max_batch=4, max_delay_s=0.0))
        tickets = [batcher.submit(r) for r in reqs]
        batcher.flush()
        for ticket, expect in zip(tickets, solo_outs):
            assert np.array_equal(ticket.result(), expect)
        ids = [t.record.request_id for t in tickets]
        assert ids == sorted(ids)           # FIFO service order

    def test_max_batch_one_is_per_request(self):
        batcher = MicroBatcher(_session(seed=13),
                               BatchPolicy(max_batch=1, max_delay_s=60.0))
        tickets = [batcher.submit(b) for b in _batches(3, seed=18, rows=2)]
        assert all(t.done and t.batch_size == 1 for t in tickets)
        assert batcher.n_batches == 3

    def test_ticket_metrics(self):
        clock = FakeClock()
        batcher = MicroBatcher(_session(seed=14),
                               BatchPolicy(max_batch=2, max_delay_s=60.0),
                               clock=clock)
        t1 = batcher.submit(_batches(1, seed=19, rows=2)[0])
        clock.advance(0.25)
        t2 = batcher.submit(_batches(1, seed=20, rows=2)[0])
        assert t1.done and t2.done
        assert t1.queue_depth_at_submit == 0
        assert t2.queue_depth_at_submit == 1
        assert t1.queue_wait_s >= t2.queue_wait_s
        assert t1.record is not None and t1.record.coalesced == 2

    def test_stats_summary(self):
        batcher = MicroBatcher(_session(seed=15),
                               BatchPolicy(max_batch=2, max_delay_s=0.0))
        for b in _batches(4, seed=21, rows=2):
            batcher.submit(b)
        stats = batcher.stats()
        assert stats["n_requests"] == 4
        assert stats["n_batches"] == 2
        assert stats["mean_batch_size"] == 2.0
        assert stats["policy"]["max_batch"] == 2
        assert stats["queue_wait"]["count"] == 4

    def test_failed_batch_fails_every_rider(self):
        """A poison request must not strand the valid tickets that rode
        with it: all riders carry the error and result() re-raises it."""
        batcher = MicroBatcher(_session(seed=17),
                               BatchPolicy(max_batch=2, max_delay_s=60.0))
        good = batcher.submit(_batches(1, seed=24, rows=2)[0])
        rng = np.random.default_rng(25)
        with pytest.raises(ValueError, match="trailing dims"):
            batcher.submit(rng.normal(0, 1, (2, 12)))  # wrong feature dim
        assert good.done and good.error is not None
        with pytest.raises(ValueError, match="trailing dims"):
            good.result()
        assert batcher.depth == 0
        assert batcher.stats()["n_failed"] == 2
        # The batcher stays serviceable after a failed batch.
        ticket = batcher.submit(_batches(1, seed=26, rows=2)[0])
        batcher.flush()
        assert ticket.result().shape == (2, 8)


class TestLatencyStats:
    def test_exact_lifetime_aggregates(self):
        stats = LatencyStats(max_samples=4)
        for v in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
            stats.observe(v)
        assert stats.count == 6
        assert stats.min_s == pytest.approx(0.1)
        assert stats.max_s == pytest.approx(0.6)
        assert stats.mean_s == pytest.approx(0.35)

    def test_percentiles_over_window(self):
        stats = LatencyStats()
        for v in range(1, 101):
            stats.observe(v / 1000)
        assert stats.percentile(50) == pytest.approx(0.050)
        assert stats.percentile(95) == pytest.approx(0.095)
        assert stats.percentile(100) == pytest.approx(0.100)

    def test_merge(self):
        a, b = LatencyStats(), LatencyStats()
        a.observe(0.1)
        b.observe(0.3)
        merged = a.merge(b)
        assert merged.count == 2
        assert merged.mean_s == pytest.approx(0.2)
        assert merged.max_s == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyStats(max_samples=0)
        with pytest.raises(ValueError):
            LatencyStats().observe(-1.0)
        with pytest.raises(ValueError):
            LatencyStats().percentile(101)

    def test_summary_empty(self):
        summary = LatencyStats().summary()
        assert summary["count"] == 0
        assert summary["max_ms"] == 0.0


class TestDeadlinePolicy:
    """SLO-slack release: edge cases the gateway's scheduling rests on."""

    def test_service_none_falls_back_to_fixed_delay(self):
        """Empty profile / no service model: behaves exactly like the
        fixed max_delay policy it extends."""
        policy = DeadlinePolicy(max_batch=8, max_delay_s=0.5, slo_s=0.25)
        assert policy.release_wait_s(1) == 0.5
        assert policy.release_wait_s(8) == 0.5
        assert policy.max_wait_s == 0.5
        clock = FakeClock()
        batcher = MicroBatcher(_session(seed=30), policy, clock=clock)
        ticket = batcher.submit(_batches(1, seed=31, rows=2)[0])
        assert batcher.pump() == 0          # fixed deadline not reached
        clock.advance(0.6)
        assert batcher.pump() == 1 and ticket.done

    def test_already_expired_deadline_releases_immediately(self):
        """Expected service alone exceeds the SLO: zero slack, so the
        batch must release on the very next pump without any wait."""
        service = ServiceModel(base_s=0.3, per_item_s=0.0)
        policy = DeadlinePolicy(max_batch=8, max_delay_s=60.0, slo_s=0.05,
                                service=service)
        assert policy.release_wait_s(1) == 0.0
        clock = FakeClock()
        batcher = MicroBatcher(_session(seed=32), policy, clock=clock)
        ticket = batcher.submit(_batches(1, seed=33, rows=2)[0])
        assert batcher.pump() == 1          # no clock advance needed
        assert ticket.done and ticket.batch_size == 1

    def test_wait_shrinks_as_riders_deepen(self):
        """A fuller batch costs more service, so the same SLO leaves less
        room to wait; depth clamps at max_batch and 0 reads as 1."""
        service = ServiceModel(base_s=0.005, per_item_s=0.005)
        policy = DeadlinePolicy(max_batch=4, max_delay_s=60.0, slo_s=0.1,
                                service=service)
        waits = [policy.release_wait_s(depth) for depth in (1, 2, 3, 4)]
        assert waits == sorted(waits, reverse=True)
        assert waits[0] == pytest.approx(0.1 - 0.01)
        assert waits[3] == pytest.approx(0.1 - 0.025)
        assert policy.release_wait_s(99) == policy.release_wait_s(4)
        assert policy.release_wait_s(0) == policy.release_wait_s(1)
        assert policy.max_wait_s == 0.1     # worst case: the SLO itself

    def test_all_same_deadline_fires_as_one_batch(self):
        """Tickets submitted at the same instant share one deadline: when
        it lapses, one pump releases them as a single batch."""
        clock = FakeClock()
        service = ServiceModel(base_s=0.01, per_item_s=0.0)
        policy = DeadlinePolicy(max_batch=8, max_delay_s=60.0, slo_s=0.2,
                                service=service)
        batcher = MicroBatcher(_session(seed=34), policy, clock=clock)
        tickets = [batcher.submit(b) for b in _batches(3, seed=35, rows=2)]
        assert batcher.pump() == 0
        clock.advance(policy.release_wait_s(3) + 1e-9)
        assert batcher.pump() == 3
        assert all(t.done and t.batch_size == 3 for t in tickets)

    def test_from_profile_builds_service_model(self):
        session = _session(seed=36)
        report = session.profile(_batches(1, seed=37)[0], repeats=2)
        policy = DeadlinePolicy.from_profile(report, slo_s=0.5, max_batch=4)
        assert policy.service is not None
        assert policy.service.base_s >= 0.0
        assert policy.service.expected_s(4) > policy.service.expected_s(0)
        assert 0.0 < policy.release_wait_s(1) < 0.5
        assert policy.max_wait_s == 0.5

    def test_bit_exact_vs_solo_under_deadline_policy(self):
        """The release policy is scheduling-only: coalesced outputs equal
        solo runs bit for bit."""
        reqs = _batches(5, seed=38, rows=2)
        solo = _session(seed=20)
        expected = [solo.run(r) for r in reqs]
        service = ServiceModel(base_s=0.001, per_item_s=0.001)
        batcher = MicroBatcher(
            _session(seed=20),
            DeadlinePolicy(max_batch=3, max_delay_s=60.0, slo_s=30.0,
                           service=service))
        tickets = [batcher.submit(r) for r in reqs]
        batcher.flush()
        for ticket, expect in zip(tickets, expected):
            assert np.array_equal(ticket.result(), expect)

    def test_stats_surface_slo(self):
        batcher = MicroBatcher(
            _session(seed=39),
            DeadlinePolicy(max_batch=2, max_delay_s=0.0, slo_s=0.07))
        batcher.submit(_batches(1, seed=40, rows=2)[0])
        batcher.flush()
        assert batcher.stats()["policy"]["slo_s"] == 0.07

    def test_validation(self):
        with pytest.raises(ValueError, match="slo_s"):
            DeadlinePolicy(slo_s=0.0)
        with pytest.raises(ValueError, match="base_s"):
            ServiceModel(base_s=-1.0, per_item_s=0.0)
        with pytest.raises(ValueError, match="per_item_s"):
            ServiceModel(base_s=0.0, per_item_s=-1.0)
