"""DecodeSession: incremental decode state over one PanaceaSession.

Pins the engine-layer decode contract: prefill/step produce the same
logits the one-shot forward produces (bit-exact through quantized
engines), every model call folds into the session ledger exactly once
(``stats()`` conservation across mixed run/decode traffic), snapshots
seed fresh sessions bit-exactly, and the error surface refuses misuse
up front.
"""

import numpy as np
import pytest

from repro.core.pipeline import PtqConfig
from repro.engine import DecodeSession, PanaceaSession
from repro.nn import CausalLM, TransformerClassifier

VOCAB = 64


def _lm_session(scheme="aqs", seed=0, n_layers=2):
    model = CausalLM(VOCAB, 24, n_layers, 4, 32, seed=seed)
    calib = [np.random.default_rng(seed + 1).integers(0, VOCAB, (2, 10))
             for _ in range(2)]
    return PanaceaSession(model, PtqConfig.for_scheme(scheme),
                          calibration=calib)


class TestConstruction:
    def test_requires_incremental_model(self):
        model = TransformerClassifier(16, 1, 4, 24, 3)
        calib = [np.random.default_rng(0).normal(0, 1, (2, 8, 16))
                 for _ in range(2)]
        session = PanaceaSession(model, PtqConfig.for_scheme("aqs"),
                                 calibration=calib)
        with pytest.raises(TypeError, match="forward_step"):
            DecodeSession(session)

    def test_requires_prepared_session(self):
        model = CausalLM(VOCAB, 24, 1, 4, 32)
        session = PanaceaSession(model, PtqConfig.for_scheme("aqs"))
        with pytest.raises(RuntimeError, match="calibrate"):
            DecodeSession(session)

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            DecodeSession(_lm_session(), temperature=-0.5)


class TestDecoding:
    def test_prefill_then_steps_match_one_shot(self):
        session = _lm_session()
        decoder = DecodeSession(session)
        rng = np.random.default_rng(3)
        prompt = rng.integers(0, VOCAB, 6)
        logits = decoder.prefill(prompt)
        assert logits.shape == (VOCAB,)
        expect = session.run(prompt.reshape(1, -1))[0, -1]
        assert np.array_equal(logits, expect)

        tok = decoder.sample(logits)
        stepped = decoder.step(tok)
        full = np.concatenate([prompt, [tok]]).reshape(1, -1)
        assert np.array_equal(stepped, session.run(full)[0, -1])

    def test_chunked_prefill_equals_one_chunk(self):
        rng = np.random.default_rng(4)
        prompt = rng.integers(0, VOCAB, 8)
        one = DecodeSession(_lm_session())
        chunked = DecodeSession(_lm_session())
        a = one.prefill(prompt)
        chunked.prefill(prompt[:3])
        b = chunked.prefill(prompt[3:])
        assert np.array_equal(a, b)
        assert chunked.position == one.position == 8

    def test_generate_greedy_matches_manual_loop(self):
        rng = np.random.default_rng(5)
        prompt = rng.integers(0, VOCAB, 5)
        gen = DecodeSession(_lm_session())
        out = gen.generate(prompt, 6)
        assert len(out) == 6

        manual = DecodeSession(_lm_session())
        tok = int(np.argmax(manual.prefill(prompt)))
        expect = [tok]
        for _ in range(5):
            tok = int(np.argmax(manual.step(tok)))
            expect.append(tok)
        assert out == expect

    def test_generate_stops_at_eos(self):
        rng = np.random.default_rng(6)
        prompt = rng.integers(0, VOCAB, 4)
        probe = DecodeSession(_lm_session())
        tokens = probe.generate(prompt, 4)
        eos = tokens[1]  # force a stop after two tokens
        decoder = DecodeSession(_lm_session(), eos_token=eos)
        out = decoder.generate(prompt, 4)
        assert out == tokens[:2]

    def test_temperature_sampling_is_seed_deterministic(self):
        rng = np.random.default_rng(7)
        prompt = rng.integers(0, VOCAB, 4)
        a = DecodeSession(_lm_session(), temperature=0.8, seed=11)
        b = DecodeSession(_lm_session(), temperature=0.8, seed=11)
        c = DecodeSession(_lm_session(), temperature=0.8, seed=12)
        out_a = a.generate(prompt, 8)
        assert out_a == b.generate(prompt, 8)
        assert out_a != c.generate(prompt, 8) or True  # may collide; no flake

    def test_step_before_prefill_raises(self):
        decoder = DecodeSession(_lm_session())
        with pytest.raises(RuntimeError, match="prefill"):
            decoder.step(3)

    def test_empty_prefill_raises(self):
        decoder = DecodeSession(_lm_session())
        with pytest.raises(ValueError, match="at least one token"):
            decoder.prefill(np.empty(0, dtype=np.int64))


class TestAccounting:
    def test_stats_conserved_across_mixed_traffic(self):
        """run() batches and decode calls land in one ledger: every model
        call is exactly one request record, lifetime ops accumulate."""
        session = _lm_session()
        rng = np.random.default_rng(8)
        session.run(rng.integers(0, VOCAB, (2, 6)))
        decoder = DecodeSession(session)
        decoder.prefill(rng.integers(0, VOCAB, 5))
        tok = decoder.sample(decoder.step(1))
        del tok
        stats = session.stats()
        # 1 run + 1 prefill + 1 step = 3 requests, one record each.
        assert stats["n_requests"] == 3
        assert stats["n_engine_batches"] == 3
        assert stats["mul4"] > 0

    def test_decode_records_report_step_shapes(self):
        session = _lm_session()
        records = []
        record_external = session.record_external

        def keep(*args, **kwargs):
            records.append(record_external(*args, **kwargs))
            return records[-1]

        session.record_external = keep
        decoder = DecodeSession(session)
        decoder.prefill(np.arange(4) % VOCAB)
        decoder.step(2)
        shapes = [r.batch_shape for r in records]
        assert shapes == [(1, 4), (1, 1)]


class TestSnapshotSeed:
    def test_snapshot_seed_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(9)
        prompt = rng.integers(0, VOCAB, 7)
        donor = DecodeSession(_lm_session())
        donor.prefill(prompt)
        snap = donor.snapshot()
        assert len(snap) == 2  # one (K, V) per layer

        seeded = DecodeSession(_lm_session())
        seeded.seed(snap, prompt)
        assert seeded.position == 7
        assert seeded.n_seeded == 7
        # Continue both: next step must agree bit for bit.
        a = donor.step(5)
        b = seeded.step(5)
        assert np.array_equal(a, b)

    def test_seed_refuses_non_fresh_session(self):
        rng = np.random.default_rng(10)
        prompt = rng.integers(0, VOCAB, 4)
        donor = DecodeSession(_lm_session())
        donor.prefill(prompt)
        snap = donor.snapshot()
        used = DecodeSession(_lm_session())
        used.prefill(prompt)
        with pytest.raises(RuntimeError, match="fresh"):
            used.seed(snap, prompt)

    def test_seed_validates_layer_and_token_counts(self):
        rng = np.random.default_rng(11)
        prompt = rng.integers(0, VOCAB, 4)
        donor = DecodeSession(_lm_session())
        donor.prefill(prompt)
        snap = donor.snapshot()
        with pytest.raises(ValueError, match="layers"):
            DecodeSession(_lm_session()).seed(snap[:1], prompt)
        with pytest.raises(ValueError, match="tokens"):
            DecodeSession(_lm_session()).seed(snap, prompt[:2])

    def test_empty_snapshot_before_prefill(self):
        assert DecodeSession(_lm_session()).snapshot() == []
