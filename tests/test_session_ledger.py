"""The session's only ledger is its lifetime counters.

Every serving path — ``run``, ``serve_coalesced``, the micro-batcher and
the continuous-batching decoder — hands each
:class:`~repro.engine.session.RequestRecord` to its caller and keeps none:
after hundreds of requests the shared trace is still empty, and the
lifetime ``stats()`` equal the sum over the records the calls returned.
"""

import numpy as np

from repro.core.pipeline import PtqConfig
from repro.engine import PanaceaSession
from repro.nn import CausalLM
from repro.serve import BatchPolicy, DecodeBatcher, DecodePolicy, MicroBatcher

VOCAB = 64
N_REQUESTS = 200


def _lm_session(seed=0):
    model = CausalLM(VOCAB, 24, 2, 4, 32, seed=seed)
    calib = [np.random.default_rng(seed + 1).integers(0, VOCAB, (2, 10))
             for _ in range(2)]
    return PanaceaSession(model, PtqConfig.for_scheme("aqs"),
                          calibration=calib)


def _requests(n=N_REQUESTS, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, VOCAB, (1, 6)) for _ in range(n)]


def _assert_ledger(session, records):
    """Nothing retained; the lifetime counters sum the returned records."""
    assert session.trace.records == []
    stats = session.stats()
    assert stats["n_requests"] == len(records)
    assert stats["n_layer_calls"] == sum(len(r.layers) for r in records)
    assert stats["mul4"] == sum(r.total_ops().mul4 for r in records) > 0
    assert sorted(r.request_id for r in records) == list(range(len(records)))


class TestBoundedLedger:
    def test_run(self):
        session, twin = _lm_session(), _lm_session()
        records = []
        for x in _requests():
            session.run(x)
            records.extend(twin.serve_coalesced([x])[1])
        _assert_ledger(twin, records)
        # run() is serve_coalesced of one request minus the returned record.
        assert session.trace.records == []
        ran, served = session.stats(), twin.stats()
        for key in ("n_requests", "n_layer_calls", "mul4", "add",
                    "ema_nibbles", "n_engine_batches"):
            assert ran[key] == served[key], key

    def test_serve_coalesced(self):
        session = _lm_session()
        requests = _requests()
        records = []
        for i in range(0, len(requests), 4):
            records.extend(session.serve_coalesced(requests[i:i + 4],
                                                   pad_axis=1)[1])
        assert all(r.coalesced == 4 for r in records)
        _assert_ledger(session, records)

    def test_micro_batcher(self):
        session = _lm_session()
        batcher = MicroBatcher(session, BatchPolicy(max_batch=4,
                                                    max_delay_s=0.0))
        tickets = [batcher.submit(x) for x in _requests()]
        batcher.flush()
        assert all(t.done and t.error is None for t in tickets)
        _assert_ledger(session, [t.record for t in tickets])

    def test_decode_batcher(self):
        session = _lm_session()
        records = []
        record_external = session.record_external

        def keep(*args, **kwargs):
            records.append(record_external(*args, **kwargs))
            return records[-1]

        session.record_external = keep
        batcher = DecodeBatcher(session, DecodePolicy(max_batch=4,
                                                      max_new_tokens=2))
        tickets = [batcher.submit(x[0]) for x in _requests()]
        batcher.drain()
        assert all(len(t.tokens) == 2 for t in tickets)
        # One prefill record per request, plus the batched steps.
        assert len(records) >= N_REQUESTS
        _assert_ledger(session, records)
