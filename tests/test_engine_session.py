"""Tests for PanaceaSession: plan caching, streaming runs, request traces."""

import importlib

import numpy as np
import pytest

from repro.core.pipeline import PtqConfig, PtqPipeline
from repro.engine import PanaceaSession
from repro.gemm.workload import OpCounts
from repro.models.zoo import build_proxy, proxy_batches
from repro.nn.layers import Linear
from repro.nn.module import Module


class TinyNet(Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(16, 32, rng=rng)
        self.fc2 = Linear(32, 8, rng=rng)

    def forward(self, x):
        h = np.maximum(self.fc1(x), 0.0)
        return self.fc2(h)


def _batches(n=3, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(0, 1, (4, 16)) for _ in range(n)]


class TestSessionLifecycle:
    def test_matches_manual_pipeline(self):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"))
        session.calibrate(_batches())
        pipe = PtqPipeline(TinyNet(), PtqConfig(scheme="aqs"))
        pipe.calibrate(_batches())
        manual = pipe.convert()
        batch = _batches(1, seed=9)[0]
        assert np.array_equal(session.run(batch), manual(batch))

    def test_constructor_calibration(self):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        assert session.prepared
        assert set(session.plans) == {"fc1", "fc2"}

    def test_uncalibrated_run_raises_without_opt_in(self):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"))
        with pytest.raises(RuntimeError, match="auto_calibrate"):
            session.run(_batches(1)[0])
        assert not session.prepared

    def test_auto_calibrate_opt_in_calibrates_on_first_batch(self):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 auto_calibrate=True)
        out = session.run(_batches(1)[0])
        assert out.shape == (4, 8)
        assert session.prepared

    def test_fp32_scheme_passthrough(self):
        net = TinyNet()
        session = PanaceaSession(net, PtqConfig(scheme="fp32"),
                                 calibration=_batches())
        batch = _batches(1, seed=3)[0]
        assert np.array_equal(session.run(batch), net(batch))
        assert session.plans == {}


class TestPlanCaching:
    def test_second_run_does_no_weight_slicing(self):
        """After conversion the weight path never re-slices (paper: offline)."""
        aqs_module = importlib.import_module("repro.core.aqs_gemm")
        calls = {"n": 0}
        real = aqs_module.slice_sbr

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        aqs_module.slice_sbr = counting
        try:
            session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                     calibration=_batches())
            prepared_calls = calls["n"]
            assert prepared_calls == 2          # one per GEMM layer
            session.run(_batches(1)[0])
            session.run(_batches(1, seed=4)[0])
            assert calls["n"] == prepared_calls
        finally:
            aqs_module.slice_sbr = real

    def test_plans_are_stable_across_runs(self):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        before = session.plans
        session.run(_batches(1)[0])
        session.run(_batches(1, seed=5)[0])
        after = session.plans
        assert all(before[name] is after[name] for name in before)

    def test_plans_match_pipeline_plans(self):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        assert session.plans == session.pipeline.plans()

    def test_repeated_execution_is_deterministic(self):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        batch = _batches(1, seed=6)[0]
        assert np.array_equal(session.run(batch), session.run(batch))


class TestRequestRecords:
    @staticmethod
    def _serve(session, batches):
        """One request per call; returns the records the calls hand back."""
        return [session.serve_coalesced([b])[1][0] for b in batches]

    def test_one_record_per_run(self):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        records = self._serve(session, _batches(3, seed=7))
        assert [r.request_id for r in records] == [0, 1, 2]
        assert all(len(r.layers) == 2 for r in records)
        assert all(r.batch_shape == (4, 16) for r in records)

    def test_request_ops_sum_to_total(self):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        records = self._serve(session, _batches(2, seed=8))
        assert session.total_ops().mul4 == sum(
            r.total_ops().mul4 for r in records)
        assert session.total_ops().mul4 > 0

    def test_run_many_streams(self):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        outputs = list(session.run_many(_batches(4, seed=9)))
        assert len(outputs) == 4
        assert session.stats()["n_requests"] == 4

    def test_stats_summary(self):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        session.run(_batches(1)[0])
        stats = session.stats()
        assert stats["scheme"] == "aqs"
        assert stats["n_requests"] == 1
        assert stats["n_layer_calls"] == 2
        assert stats["n_plans"] == 2
        assert stats["mul4"] > 0
        assert 0.0 <= stats["mean_rho_x"] <= 1.0

    @pytest.mark.parametrize("scheme,x_bits", [("aqs", 8), ("sibia", 7),
                                               ("int8_dense", 8)])
    def test_all_schemes_serve(self, scheme, x_bits):
        session = PanaceaSession(TinyNet(),
                                 PtqConfig(scheme=scheme, x_bits=x_bits),
                                 calibration=_batches())
        out = session.run(np.zeros((2, 16)))
        assert out.shape == (2, 8)
        assert np.all(np.isfinite(out))


class TestRecordRetention:
    """The session keeps no request records: only lifetime counters."""

    def test_stats_track_lifetime_totals(self):
        """Lifetime stats equal the sum over the records the calls
        returned, whichever entry point served them."""
        via_run = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        via_serve = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                   calibration=_batches())
        records = []
        for batch in _batches(4, seed=13):
            via_run.run(batch)
            records.extend(via_serve.serve_coalesced([batch])[1])
        sr, ss = via_run.stats(), via_serve.stats()
        assert sr["n_requests"] == ss["n_requests"] == 4
        assert sr["n_layer_calls"] == ss["n_layer_calls"] == 8 == sum(
            len(r.layers) for r in records)
        assert sr["mul4"] == ss["mul4"] == sum(
            r.total_ops().mul4 for r in records) > 0
        assert sr["mean_rho_x"] == pytest.approx(ss["mean_rho_x"])

    def test_total_ops_is_lifetime(self):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        batch = _batches(1, seed=14)[0]
        session.run(batch)
        once = session.total_ops().mul4
        session.run(batch)
        assert session.total_ops().mul4 == 2 * once

    def test_zero_retention_keeps_nothing(self):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        session.run(_batches(1, seed=15)[0])
        assert session.trace.records == []
        assert session.stats()["n_requests"] == 1

    def test_failed_request_leaves_no_orphan_trace_records(self):
        """A mid-forward failure leaves neither trace records nor counts."""
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        session.run(_batches(1, seed=16)[0])

        # Fail *between* the two layers: fc1 has already recorded its
        # layer execution when fc2 raises.
        fc2 = session.model.fc2
        real_forward = fc2.forward

        def boom(x):
            raise RuntimeError("mid-request failure")

        fc2.forward = boom
        with pytest.raises(RuntimeError):
            session.run(_batches(1, seed=18)[0])
        fc2.forward = real_forward

        for batch in _batches(3, seed=17):
            session.run(batch)
        assert session.trace.records == []
        stats = session.stats()
        assert stats["n_requests"] == 4  # the failed run isn't one
        assert stats["n_layer_calls"] == 8

    def test_out_of_band_model_call_does_not_break_retention(self):
        """Direct session.model(...) calls land in the shared trace (the
        PtqPipeline.convert(trace=...) ledger); serving neither adds to
        nor trims them, and they never reach the session's counters."""
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        session.run(_batches(1, seed=19)[0])
        session.model(_batches(1, seed=20)[0])  # eval outside run()
        orphans = list(session.trace.records)
        session.run(_batches(1, seed=21)[0])
        assert len(orphans) == 2
        assert session.trace.records == orphans
        assert session.stats()["n_layer_calls"] == 4


class TestCoalescedEdgeCases:
    """Ragged pad_axis coalescing edge cases: the error paths and the
    degenerate group shapes the scheduler can hand serve_coalesced."""

    def _session(self):
        return PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                              calibration=_batches())

    def _seq_session(self):
        """A 3-D-input session so trailing axes exist to pad/mismatch."""
        class SeqNet(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(16, 8, rng=np.random.default_rng(0))

            def forward(self, x):
                return self.fc(x)

        rng = np.random.default_rng(1)
        calibration = [rng.normal(0, 1, (2, 5, 16)) for _ in range(2)]
        return PanaceaSession(SeqNet(), PtqConfig(scheme="aqs"),
                              calibration=calibration)

    def test_empty_group_returns_empty(self):
        session = self._session()
        outputs, records = session.serve_coalesced([])
        assert outputs == [] and records == []
        assert session.stats()["n_requests"] == 0
        assert session.run_coalesced([]) == []

    def test_single_request_takes_fast_path(self):
        """A group of one degenerates to _run_one: no concat, no split,
        coalesced stays 1 and the output equals a solo run."""
        session = self._session()
        x = _batches(1, seed=9)[0]
        outputs, records = session.serve_coalesced([x])
        assert len(outputs) == 1 and len(records) == 1
        assert records[0].coalesced == 1
        reference = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                   calibration=_batches())
        assert np.array_equal(outputs[0], reference.run(x))

    def test_mismatched_trailing_dims_raise_value_error(self):
        session = self._seq_session()
        rng = np.random.default_rng(2)
        group = [rng.normal(0, 1, (2, 5, 16)),
                 rng.normal(0, 1, (2, 7, 16))]
        with pytest.raises(ValueError,
                           match="share trailing dims.*pad_axis"):
            session.serve_coalesced(group)

    def test_mismatched_non_pad_axis_raises_despite_padding(self):
        """pad_axis only fixes the named axis: a mismatch on another
        trailing axis must still raise, not silently misfuse."""
        session = self._seq_session()
        rng = np.random.default_rng(3)
        group = [rng.normal(0, 1, (2, 5, 16)),
                 rng.normal(0, 1, (2, 7, 12))]   # last axis differs too
        with pytest.raises(ValueError, match="share trailing dims"):
            session.serve_coalesced(group, pad_axis=1)

    def test_mismatched_rank_raises(self):
        session = self._seq_session()
        rng = np.random.default_rng(4)
        group = [rng.normal(0, 1, (2, 5, 16)),
                 rng.normal(0, 1, (2, 16))]
        with pytest.raises(ValueError, match="share a rank"):
            session.serve_coalesced(group)

    @pytest.mark.parametrize("pad_axis", [0, 3, -1])
    def test_pad_axis_out_of_range_raises(self, pad_axis):
        session = self._seq_session()
        rng = np.random.default_rng(5)
        group = [rng.normal(0, 1, (2, 5, 16)),
                 rng.normal(0, 1, (2, 7, 16))]
        with pytest.raises(ValueError, match="pad_axis must be"):
            session.serve_coalesced(group, pad_axis=pad_axis)

    def test_failed_group_leaves_ledger_clean(self):
        """A group that raises must not leak requests, records or trace
        entries — the next healthy group serves normally."""
        session = self._seq_session()
        rng = np.random.default_rng(6)
        bad = [rng.normal(0, 1, (2, 5, 16)), rng.normal(0, 1, (2, 5, 12))]
        with pytest.raises(ValueError):
            session.serve_coalesced(bad)
        assert session.stats()["n_requests"] == 0
        assert len(session.trace.records) == 0
        good = [rng.normal(0, 1, (2, 5, 16)) for _ in range(2)]
        outputs, records = session.serve_coalesced(good)
        assert len(outputs) == 2
        assert session.stats()["n_requests"] == 2


def _proxy_session(name="bert_base", scheme="aqs", seed=0):
    model, _ = build_proxy(name, seed=seed)
    session = PanaceaSession(model, PtqConfig.for_scheme(scheme))
    session.calibrate(proxy_batches(name, 2, 2, seed=seed + 1))
    return session


class TestProfile:
    def test_profile_measures_without_polluting_stats(self):
        session = _proxy_session()
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
        session = _proxy_session()
        report = session.profile(
            proxy_batches("bert_base", 1, 1, seed=5)[0], repeats=3)
        by_layer = report.latency_by_layer()
        for layer in report.layers:
            assert by_layer[layer.name] == \
                pytest.approx(layer.total_s / 3)

    def test_profile_rejects_bad_repeats_and_unprepared(self):
        session = _proxy_session()
        with pytest.raises(ValueError, match="repeats"):
            session.profile(np.zeros((1, 2)), repeats=0)
        model, _ = build_proxy("bert_base", seed=0)
        fresh = PanaceaSession(model, PtqConfig.for_scheme("aqs"))
        with pytest.raises(RuntimeError, match="calibrated"):
            fresh.profile(np.zeros((1, 24, 192)))

    def test_serving_records_carry_layer_latency(self):
        session = _proxy_session()
        _, (record,) = session.serve_coalesced(
            [proxy_batches("bert_base", 1, 1, seed=5)[0]])
        layers = record.layers
        assert layers and all(rec.latency_s >= 0 for rec in layers)
        assert sum(rec.latency_s for rec in layers) > 0

    def test_record_external_accounting(self):
        session = _proxy_session()
        record = session.record_external((2, 3), [], 0.25)
        assert record.request_id == 0
        stats = session.stats()
        assert stats["n_requests"] == 1
        assert stats["exec_s"] == pytest.approx(0.25)
        assert session.total_ops() == OpCounts()
