"""Continuous-batching decode at the serve layer.

Covers :class:`~repro.serve.batching.DecodeBatcher` (admission, refill
policies, retirement compaction, failure propagation),
:class:`~repro.serve.cache.PrefixKVCache` (longest-proper-prefix lookup,
LRU byte budget, seeding counters), the :class:`ModelServer` decode routing
(lazy decoder creation, capability refusals, streaming, drain-on-flush),
and the MicroBatcher/DecodeBatcher interplay on one deployment: one-shot
and decode traffic share the session ledger without metric cross-talk, and
every sequence's tokens replay the solo decode exactly.
"""

import threading

import numpy as np
import pytest

from repro.core.pipeline import PtqConfig
from repro.engine import DecodeSession, PanaceaSession
from repro.nn import CausalLM
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.serve import (
    BackendCapabilityError,
    BatchPolicy,
    DecodeBatcher,
    DecodePolicy,
    ModelServer,
    PrefixKVCache,
)

VOCAB = 64


def _lm_session(scheme="aqs", seed=0):
    model = CausalLM(VOCAB, 24, 2, 4, 32, seed=seed)
    calib = [np.random.default_rng(seed + 1).integers(0, VOCAB, (2, 10))
             for _ in range(2)]
    return PanaceaSession(model, PtqConfig.for_scheme(scheme),
                          calibration=calib)


def _prompts(n, seed=0, lo=3, hi=9):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, VOCAB, int(rng.integers(lo, hi)))
            for _ in range(n)]


def _solo_decode(prompt, max_new, scheme="aqs", seed=0):
    """Reference: the tokens this prompt generates decoding alone."""
    return DecodeSession(_lm_session(scheme, seed)).generate(prompt, max_new)


class _Mlp(Module):
    """Two-layer MLP with no incremental decode API."""

    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(8, 16, rng=rng)
        self.fc2 = Linear(16, 4, rng=rng)

    def forward(self, x):
        return self.fc2(np.maximum(self.fc1(x), 0.0))


class TestDecodePolicy:
    def test_validates_knobs(self):
        with pytest.raises(ValueError, match="max_batch"):
            DecodePolicy(max_batch=0)
        with pytest.raises(ValueError, match="max_new_tokens"):
            DecodePolicy(max_new_tokens=0)
        with pytest.raises(ValueError, match="refill"):
            DecodePolicy(refill="eager")
        with pytest.raises(ValueError, match="temperature"):
            DecodePolicy(temperature=-1.0)

    def test_batcher_requires_incremental_model(self):
        mlp = _Mlp(np.random.default_rng(0))
        session = PanaceaSession(
            mlp, PtqConfig.for_scheme("aqs"),
            calibration=[np.random.default_rng(1).normal(0, 1, (4, 8))])
        with pytest.raises(TypeError, match="forward_step"):
            DecodeBatcher(session)


class TestDecodeBatcher:
    def test_batched_decode_replays_solo_exactly(self):
        """The core serve-layer invariant: continuous batching is invisible
        to results — every ticket's tokens equal its solo decode."""
        prompts = _prompts(6, seed=3)
        batcher = DecodeBatcher(_lm_session(),
                                DecodePolicy(max_batch=3, max_new_tokens=5))
        tickets = [batcher.submit(p) for p in prompts]
        batcher.drain()
        for i, (ticket, prompt) in enumerate(zip(tickets, prompts)):
            assert ticket.result().tolist() == _solo_decode(prompt, 5), (
                f"request {i} differs from solo decode")

    def test_ticket_conservation(self):
        """Every submit is accounted exactly once: completed + failed."""
        prompts = _prompts(5, seed=4)
        batcher = DecodeBatcher(_lm_session(),
                                DecodePolicy(max_batch=2, max_new_tokens=3))
        tickets = [batcher.submit(p) for p in prompts]
        batcher.drain()
        stats = batcher.stats()
        assert stats["n_requests"] == len(prompts)
        assert stats["n_failed"] == 0
        assert stats["depth"] == 0 and stats["n_active"] == 0
        assert all(t.done for t in tickets)
        # Each prefill emits a ticket's first token; steps emit the rest.
        assert stats["n_tokens"] + stats["n_prefills"] == \
            sum(len(t.tokens) for t in tickets)
        assert stats["n_prefills"] == len(prompts)

    def test_continuous_refills_mid_flight(self):
        """With a skewed mix, continuous admission overlaps short and long
        generations: peak active hits max_batch and more than one wave of
        requests shares steps."""
        session = _lm_session()
        batcher = DecodeBatcher(session, DecodePolicy(max_batch=2,
                                                      max_new_tokens=12))
        prompts = _prompts(4, seed=5)
        lengths = [12, 2, 2, 2]
        tickets = [batcher.submit(p, max_new_tokens=m)
                   for p, m in zip(prompts, lengths)]
        batcher.drain()
        stats = batcher.stats()
        assert stats["peak_active"] == 2
        # The long request rides throughout; shorts rotate through slot 2:
        # strictly fewer steps than draining 2-batches sequentially.
        assert stats["n_steps"] <= 12 + 2
        assert all(t.done for t in tickets)

    def test_drain_refill_admits_full_batches(self):
        """Static batching fills every slot when the batch comes up empty
        (a regression here collapses drain mode to batches of one)."""
        batcher = DecodeBatcher(_lm_session(),
                                DecodePolicy(max_batch=3, max_new_tokens=4,
                                             refill="drain"))
        for p in _prompts(3, seed=6):
            batcher.submit(p)
        batcher.step()
        assert batcher.n_active == 3

    def test_max_new_tokens_cap_and_eos(self):
        prompts = _prompts(1, seed=7)
        probe = DecodeBatcher(_lm_session(),
                              DecodePolicy(max_batch=1, max_new_tokens=6))
        tokens = probe.submit(prompts[0]).result().tolist()
        assert len(tokens) == 6
        eos = tokens[2]
        stopper = DecodeBatcher(_lm_session(),
                                DecodePolicy(max_batch=1, max_new_tokens=6,
                                             eos_token=eos))
        assert stopper.submit(prompts[0]).result().tolist() == tokens[:3]

    def test_streaming_iter_tokens(self):
        prompt = _prompts(1, seed=8)[0]
        batcher = DecodeBatcher(_lm_session(),
                                DecodePolicy(max_batch=1, max_new_tokens=4))
        ticket = batcher.submit(prompt)
        streamed = list(ticket.iter_tokens())
        assert streamed == ticket.tokens
        assert len(streamed) == 4

    def test_engine_failure_fails_all_riders(self):
        session = _lm_session()
        batcher = DecodeBatcher(session, DecodePolicy(max_batch=2,
                                                      max_new_tokens=8))
        tickets = [batcher.submit(p) for p in _prompts(2, seed=9)]
        batcher.step()  # admit + first step succeeds

        def boom(*a, **k):
            raise RuntimeError("engine exploded")

        session.model.forward_step = boom
        with pytest.raises(RuntimeError, match="exploded"):
            batcher.step()
        for ticket in tickets:
            assert ticket.done
            with pytest.raises(RuntimeError, match="exploded"):
                ticket.result()
        assert batcher.stats()["n_failed"] == 2

    def test_prefill_failure_frees_its_row(self):
        """A prefill that raises after the attention layers appended K/V
        must not leave them for the next request admitted into that row."""
        session = _lm_session()
        batcher = DecodeBatcher(session, DecodePolicy(max_batch=1,
                                                      max_new_tokens=6))
        first, second = _prompts(2, seed=11)
        head = session.model.lm_head

        def boom(*a, **k):
            del head.forward  # raise once, then fall back to the class's
            raise RuntimeError("lm_head exploded")

        head.forward = boom
        failed = batcher.submit(first)
        with pytest.raises(RuntimeError, match="exploded"):
            batcher.step()
        assert failed.done and batcher.n_active == 0
        assert all(int(cache.lengths[0]) == 0 for cache in batcher._caches)
        tokens = batcher.submit(second).result().tolist()
        assert tokens == _solo_decode(second, 6)
        assert batcher.stats()["n_failed"] == 1

    def test_per_ticket_sampling_independent_of_batch_mix(self):
        """temperature > 0: a ticket's rng is seeded by its ticket id, so
        the same submission order replays the same tokens whatever the
        batch width."""
        prompts = _prompts(4, seed=10)

        def run(max_batch):
            batcher = DecodeBatcher(
                _lm_session(),
                DecodePolicy(max_batch=max_batch, max_new_tokens=5,
                             temperature=0.7, seed=21))
            tickets = [batcher.submit(p) for p in prompts]
            batcher.drain()
            return [t.result().tolist() for t in tickets]

        assert run(1) == run(4)


class TestPrefixKVCache:
    def _snapshot(self, tokens):
        donor = DecodeSession(_lm_session())
        donor.prefill(tokens)
        return donor.snapshot()

    def test_longest_proper_prefix_wins(self):
        cache = PrefixKVCache(64 << 20)
        stem = np.arange(6) % VOCAB
        longer = np.concatenate([stem, [7, 8]])
        cache.put(stem, self._snapshot(stem))
        cache.put(longer, self._snapshot(longer))
        query = np.concatenate([longer, [9, 10]])
        n, snap = cache.lookup(query)
        assert n == len(longer)
        assert snap[0][0].shape[1] == len(longer)

    def test_whole_prompt_match_is_rejected(self):
        """A hit must be a *proper* prefix: decode still needs at least one
        unseen position to produce the first logits."""
        cache = PrefixKVCache(64 << 20)
        stem = np.arange(5) % VOCAB
        cache.put(stem, self._snapshot(stem))
        assert cache.lookup(stem) is None

    def test_byte_budget_evicts_lru(self):
        stem = np.arange(6) % VOCAB
        snap = self._snapshot(stem)
        nbytes = sum(k.nbytes + v.nbytes for k, v in snap)
        cache = PrefixKVCache(int(nbytes * 2.5))
        keys = [np.concatenate([stem[:-1], [i]]) for i in range(3)]
        for key in keys:
            cache.put(key, self._snapshot(key))
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        assert stats["bytes"] <= int(nbytes * 2.5)
        # The oldest insertion went first.
        assert cache.lookup(np.concatenate([keys[0], [9]])) is None
        hit = cache.lookup(np.concatenate([keys[2], [9]]))
        assert hit is not None and hit[0] == len(stem)

    def test_put_validates_snapshot_length(self):
        cache = PrefixKVCache(1 << 20)
        stem = np.arange(5) % VOCAB
        with pytest.raises(ValueError, match="cover"):
            cache.put(stem, self._snapshot(stem[:3]))

    def test_seeded_decode_is_exact_through_batcher(self):
        """A prefix-cache-seeded decode produces the identical tokens, and
        the seeding is visible in ticket and stats counters."""
        stem = _prompts(1, seed=11, lo=8, hi=9)[0]
        followup = np.concatenate([stem, [3, 1, 4]])

        cold = DecodeBatcher(_lm_session(),
                             DecodePolicy(max_batch=2, max_new_tokens=4))
        expect = cold.submit(followup).result().tolist()

        warm = DecodeBatcher(_lm_session(),
                             DecodePolicy(max_batch=2, max_new_tokens=4,
                                          prefix_cache_bytes=64 << 20))
        warm.submit(stem).result()
        ticket = warm.submit(followup)
        assert ticket.result().tolist() == expect
        assert ticket.seeded_tokens == len(stem)
        stats = warm.stats()["prefix_cache"]
        assert stats["hits"] == 1
        assert stats["seeded_tokens"] == len(stem)


class TestServerDecode:
    def test_submit_decode_and_stream(self):
        with ModelServer() as server:
            server.register("lm", _lm_session(),
                            decode_policy=DecodePolicy(max_batch=2,
                                                       max_new_tokens=4))
            prompts = _prompts(3, seed=12)
            tickets = [server.submit_decode("lm", p) for p in prompts]
            outs = [t.result().tolist() for t in tickets]
            for out, prompt in zip(outs, prompts):
                assert out == _solo_decode(prompt, 4)
            streamed = list(server.decode_stream("lm", prompts[0]))
            assert streamed == outs[0]
            stats = server.stats("lm")["decode"]
            assert stats["n_requests"] == 4

    def test_one_shot_and_decode_share_ledger_without_crosstalk(self):
        """The interplay invariant: MicroBatcher metrics count one-shot
        requests only, DecodeBatcher metrics count decode only, and the
        session ledger accounts every model call from both."""
        session = _lm_session()
        rng = np.random.default_rng(13)
        one_shots = [rng.integers(0, VOCAB, (2, 6)) for _ in range(3)]
        prompts = _prompts(2, seed=14)
        replay = _lm_session()
        expected_oneshot = [replay.run(x) for x in one_shots]

        with ModelServer(BatchPolicy(max_batch=4, max_delay_s=0.0)) as srv:
            srv.register("lm", session,
                         decode_policy=DecodePolicy(max_batch=2,
                                                    max_new_tokens=3))
            tickets = srv.submit_many("lm", one_shots)
            decodes = [srv.submit_decode("lm", p) for p in prompts]
            srv.flush("lm")
            decode_out = [t.result().tolist() for t in decodes]
            one_out = [t.result() for t in tickets]
            stats = srv.stats("lm")

        for got, expect in zip(one_out, expected_oneshot):
            assert np.array_equal(got, expect)
        for got, prompt in zip(decode_out, prompts):
            assert got == _solo_decode(prompt, 3)

        sched, dec = stats["scheduler"], stats["decode"]
        assert sched["n_requests"] == len(one_shots)
        assert dec["n_requests"] == len(prompts)
        # Ledger conservation: one-shot model calls + decode model calls
        # (prefills ride the first step's admit; each step is one call).
        sess_requests = stats["session"]["n_requests"]
        assert sess_requests == len(one_shots) + dec["n_prefills"] \
            + dec["n_steps"]

    def test_metrics_rollup_conserves_decode_and_prefix_counters(self):
        with ModelServer() as server:
            server.register(
                "lm", _lm_session(),
                decode_policy=DecodePolicy(
                    max_batch=2, max_new_tokens=3,
                    prefix_cache_bytes=64 << 20))
            stem = _prompts(1, seed=15, lo=6, hi=7)[0]
            server.submit_decode("lm", stem).result()
            server.submit_decode(
                "lm", np.concatenate([stem, [2, 5]])).result()
            metrics = server.metrics()
            per = server.stats("lm")
        assert metrics.decode is not None
        assert metrics.decode["n_requests"] == \
            per["decode"]["n_requests"] == 2
        assert metrics.prefix_cache is not None
        pc = per["decode"]["prefix_cache"]
        assert metrics.prefix_cache["hits"] == pc["hits"] == 1
        assert metrics.prefix_cache["seeded_tokens"] == \
            pc["seeded_tokens"] == len(stem)
        assert metrics.summary()["decode"] == metrics.decode

    def test_decoder_is_lazy_and_flush_drains_it(self):
        with ModelServer() as server:
            entry = server.register("lm", _lm_session())
            assert entry.decoder is None
            ticket = server.submit_decode(
                "lm", _prompts(1, seed=16)[0], max_new_tokens=3)
            assert entry.decoder is not None
            server.flush("lm")
            assert ticket.done and len(ticket.tokens) == 3

    def test_decode_refused_on_process_backend(self):
        import functools

        with ModelServer(workers=1, backend="process") as server:
            server.register(
                "mlp", PanaceaSession(
                    _Mlp(np.random.default_rng(0)),
                    PtqConfig.for_scheme("aqs"),
                    calibration=[np.random.default_rng(1).normal(
                        0, 1, (4, 8))]),
                model_factory=functools.partial(
                    _Mlp, np.random.default_rng(0)))
            with pytest.raises(BackendCapabilityError, match="process"):
                server.submit_decode("mlp", np.arange(4))

    def test_concurrent_decode_submitters(self):
        """Tickets driven from several threads share the service lock and
        all complete with their solo-exact tokens."""
        prompts = _prompts(6, seed=17)
        results = [None] * len(prompts)
        with ModelServer() as server:
            server.register("lm", _lm_session(),
                            decode_policy=DecodePolicy(max_batch=3,
                                                       max_new_tokens=4))

            def work(i):
                ticket = server.submit_decode("lm", prompts[i])
                results[i] = ticket.result().tolist()

            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(prompts))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        for i, (got, prompt) in enumerate(zip(results, prompts)):
            assert got == _solo_decode(prompt, 4), f"thread {i} differs"


class TestDecodeCancel:
    """DecodeBatcher.cancel: dropped-client semantics (the gateway path)."""

    def test_cancel_queued_ticket_never_decodes(self):
        from concurrent.futures import CancelledError

        prompts = _prompts(3, seed=21)
        batcher = DecodeBatcher(_lm_session(),
                                DecodePolicy(max_batch=2, max_new_tokens=4))
        tickets = [batcher.submit(p) for p in prompts]
        assert batcher.cancel(tickets[2])          # still queued: dequeued
        assert not batcher.cancel(tickets[2])      # already finished
        batcher.drain()
        for ticket, prompt in zip(tickets[:2], prompts[:2]):
            assert ticket.result().tolist() == _solo_decode(prompt, 4)
        with pytest.raises(CancelledError):
            tickets[2].result()
        stats = batcher.stats()
        assert stats["n_cancelled"] == 1
        assert stats["n_requests"] == 2            # only the survivors
        assert stats["n_prefills"] == 2            # never entered the batch
        assert stats["depth"] == 0 and stats["n_active"] == 0

    def test_cancel_active_slot_compacts_others_bit_exact(self):
        """Cancel a request mid-flight in the shared batch: its slot
        retires at the next step boundary and the surviving sequences
        finish with their exact solo tokens."""
        from concurrent.futures import CancelledError

        prompts = _prompts(3, seed=22, lo=4, hi=6)
        batcher = DecodeBatcher(_lm_session(),
                                DecodePolicy(max_batch=3,
                                             max_new_tokens=16))
        tickets = [batcher.submit(p) for p in prompts]
        victim = tickets[1]
        stream = iter(victim.iter_tokens())
        next(stream)                               # victim is active now
        assert batcher.cancel(victim)
        batcher.drain()
        with pytest.raises(CancelledError):
            victim.result()
        for i in (0, 2):
            assert tickets[i].result().tolist() == \
                _solo_decode(prompts[i], 16), f"survivor {i} diverged"
        stats = batcher.stats()
        assert stats["n_cancelled"] == 1
        assert stats["n_requests"] == 2

    def test_server_cancel_decode_routes_to_batcher(self):
        with ModelServer() as server:
            server.register("lm", _lm_session(),
                            decode_policy=DecodePolicy(max_batch=2,
                                                       max_new_tokens=3))
            # No decoder yet (lazy): nothing to cancel, typed False.
            assert not server.cancel_decode("lm", None)
            ticket = server.submit_decode("lm", _prompts(1, seed=23)[0])
            other = server.submit_decode("lm", _prompts(1, seed=24)[0])
            assert server.cancel_decode("lm", ticket)
            assert other.result().tolist() == \
                _solo_decode(_prompts(1, seed=24)[0], 3)
            metrics = server.metrics()
            assert metrics.decode["n_cancelled"] == 1
