"""Randomized exactness suite: fast == sliced == coalesced == concurrent.

Concurrency and fast-path collapsing are exactly where bit-exactness
guarantees silently rot, so this suite fuzzes the whole grid with seeded
randomness instead of hand-picked shapes:

* **kernel level** — random GEMM shapes across the ``lo_bits`` × ``w_bits``
  grid (AQS) and ``w_bits`` × ``tracked`` grid (Sibia): the fast path must
  equal the sliced reference, a fused execute must equal per-block
  executes (the coalescing identity), and threads sharing one plan must
  reproduce serial outputs bit for bit;
* **session level** — random tiny models for all four registered engines ×
  per-tensor/per-channel weights: solo ``run``, the sliced exec path,
  ``run_coalesced`` and a concurrent worker-pool server must all emit
  identical bits;

The base seed comes from ``REPRO_CONFORMANCE_SEED`` (CI rotates it through
a matrix) so every run fuzzes a fresh corner while staying reproducible:
a failure report names the seed that found it.
"""

import os
import threading

import numpy as np
import pytest

from repro.core.aqs_gemm import AqsGemmConfig, execute_aqs, prepare_aqs
from repro.core.pipeline import PtqConfig
from repro.engine import (
    EngineConfig,
    PanaceaSession,
    available_engines,
    get_engine,
)
from repro.gemm.sibia_gemm import execute_sibia, prepare_sibia
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.serve import BatchPolicy, Gateway, ModelServer

BASE_SEED = int(os.environ.get("REPRO_CONFORMANCE_SEED", "0"))

ENGINES = ("fp32", "int8_dense", "sibia", "aqs")
GRANULARITIES = ("per_tensor", "per_channel")
AQS_GRID = [(w_bits, lo_bits) for w_bits in (4, 7, 10)
            for lo_bits in (4, 5, 6)]
SIBIA_GRID = [(w_bits, tracked) for w_bits in (4, 7, 10)
              for tracked in ("auto", "weight", "activation")]


def _rng(*stream) -> np.random.Generator:
    """Independent deterministic stream per test case, offset by BASE_SEED."""
    return np.random.default_rng([BASE_SEED, *stream])


def _random_shape(rng, lo=4, hi=48):
    m, k, n = (int(rng.integers(lo, hi)) for _ in range(3))
    return m, k, n


def _random_aqs_operands(rng, m, k, n, w_bits, x_bits=8):
    w_max = (1 << (w_bits - 1)) - 1
    w = rng.integers(-w_max - 1, w_max + 1, (m, k))
    x = rng.integers(0, 1 << x_bits, (k, n))
    zp = int(rng.integers(1, 1 << x_bits))
    return w, x, zp


def _random_sbr_operands(rng, m, k, n, w_bits, x_bits=7):
    w_hi = (1 << (w_bits - 1)) - 1
    x_hi = (1 << (x_bits - 1)) - 1
    return (rng.integers(-w_hi - 1, w_hi + 1, (m, k)),
            rng.integers(-x_hi - 1, x_hi + 1, (k, n)))


def _assert_results_equal(a, b, label):
    assert np.array_equal(a.acc, b.acc), f"{label}: acc differs"
    assert a.ops.mul4 == b.ops.mul4, f"{label}: mul4 ledger differs"
    assert a.ops.ema_nibbles == b.ops.ema_nibbles, f"{label}: ema differs"


class TestKernelFuzzAqs:
    @pytest.mark.parametrize("w_bits,lo_bits", AQS_GRID)
    def test_fast_equals_sliced_random_shapes(self, w_bits, lo_bits):
        rng = _rng(1, w_bits, lo_bits)
        for case in range(3):
            m, k, n = _random_shape(rng)
            w, x, zp = _random_aqs_operands(rng, m, k, n, w_bits)
            fast = execute_aqs(prepare_aqs(w, zp, AqsGemmConfig(
                w_bits=w_bits, lo_bits=lo_bits, exec_path="fast")), x)
            sliced = execute_aqs(prepare_aqs(w, zp, AqsGemmConfig(
                w_bits=w_bits, lo_bits=lo_bits, exec_path="sliced")), x)
            _assert_results_equal(
                fast, sliced,
                f"aqs w_bits={w_bits} lo_bits={lo_bits} case={case} "
                f"shape=({m},{k},{n}) seed={BASE_SEED}")

    @pytest.mark.parametrize("w_bits,lo_bits", AQS_GRID)
    def test_fused_equals_per_block(self, w_bits, lo_bits):
        """The coalescing identity: one fused execute over concatenated
        columns == the column-wise concatenation of per-request executes."""
        rng = _rng(2, w_bits, lo_bits)
        m, k, _ = _random_shape(rng)
        w, _, zp = _random_aqs_operands(rng, m, k, 1, w_bits)
        plan = prepare_aqs(w, zp, AqsGemmConfig(w_bits=w_bits,
                                                lo_bits=lo_bits))
        blocks = [_random_aqs_operands(rng, m, k, int(rng.integers(1, 6)),
                                       w_bits)[1] for _ in range(4)]
        solo = [execute_aqs(plan, x) for x in blocks]
        fused = execute_aqs(plan, np.concatenate(blocks, axis=1))
        assert np.array_equal(
            np.concatenate([r.acc for r in solo], axis=1), fused.acc), (
            f"aqs fused != per-block (w_bits={w_bits}, lo_bits={lo_bits}, "
            f"seed={BASE_SEED})")


class TestKernelFuzzSibia:
    @pytest.mark.parametrize("w_bits,tracked", SIBIA_GRID)
    def test_fast_equals_sliced_random_shapes(self, w_bits, tracked):
        rng = _rng(3, w_bits, hash(tracked) & 0xFFFF)
        for case in range(3):
            m, k, n = _random_shape(rng)
            w, x = _random_sbr_operands(rng, m, k, n, w_bits)
            fast = execute_sibia(prepare_sibia(
                w, w_bits=w_bits, tracked=tracked, exec_path="fast"), x)
            sliced = execute_sibia(prepare_sibia(
                w, w_bits=w_bits, tracked=tracked, exec_path="sliced"), x)
            _assert_results_equal(
                fast, sliced,
                f"sibia w_bits={w_bits} tracked={tracked} case={case} "
                f"shape=({m},{k},{n}) seed={BASE_SEED}")


class TestKernelConcurrentSharedPlan:
    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_threads_sharing_one_plan_match_serial(self, engine_name):
        """Plans are read-only at execute time: eight threads hammering one
        plan must reproduce the serial results bit for bit."""
        rng = _rng(4, hash(engine_name) & 0xFFFF)
        engine = get_engine(engine_name)
        m, k, _ = _random_shape(rng, lo=8, hi=40)
        x_bits = 7 if engine_name == "sibia" else 8
        if engine_name == "aqs":
            w, _, zp = _random_aqs_operands(rng, m, k, 1, 7)
        elif engine_name == "sibia":
            w, _ = _random_sbr_operands(rng, m, k, 1, 7)
            zp = 0
        elif engine_name == "int8_dense":
            w = rng.integers(-64, 64, (m, k))
            zp = int(rng.integers(1, 256))
        else:
            w = rng.normal(0, 1, (m, k))
            zp = 0
        plan = engine.prepare(w, zp, EngineConfig(x_bits=x_bits))

        def _x():
            n = int(rng.integers(1, 8))
            if engine_name == "aqs":
                return rng.integers(0, 256, (k, n))
            if engine_name == "sibia":
                return rng.integers(-64, 64, (k, n))
            if engine_name == "int8_dense":
                return rng.integers(0, 256, (k, n))
            return rng.normal(0, 1, (k, n))

        xs = [_x() for _ in range(8)]
        serial = [engine.execute(plan, x) for x in xs]
        concurrent = [None] * len(xs)
        errors = []

        def worker(i):
            try:
                concurrent[i] = engine.execute(plan, xs[i])
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(xs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        for i, (a, b) in enumerate(zip(serial, concurrent)):
            _assert_results_equal(
                a, b, f"{engine_name} concurrent req {i} seed={BASE_SEED}")


class _FuzzNet(Module):
    """Two-layer MLP with randomized widths (the session-fuzz substrate)."""

    def __init__(self, rng, in_features, hidden, out_features):
        super().__init__()
        self.fc1 = Linear(in_features, hidden, rng=rng)
        self.fc2 = Linear(hidden, out_features, rng=rng)

    def forward(self, x):
        return self.fc2(np.maximum(self.fc1(x), 0.0))


def _session_case(engine_name, granularity, exec_path, dims, model_seed):
    """A calibrated session over a randomized model, fully deterministic."""
    in_features, hidden, out_features = dims
    model = _FuzzNet(np.random.default_rng(model_seed), in_features, hidden,
                     out_features)
    config = PtqConfig.for_scheme(engine_name, exec_path=exec_path,
                                  w_granularity=granularity)
    calib_rng = np.random.default_rng(model_seed + 1)
    calibration = [calib_rng.normal(0, 1, (4, in_features))
                   for _ in range(3)]
    return PanaceaSession(model, config, calibration=calibration)


def _assert_outputs_match(got, expect, engine_name, label):
    """Bit-exact for the quantized engines; last-ulp for the float one.

    The quantized engines accumulate in int64, so fusing requests cannot
    change a bit — the contract this suite locks down.  The fp32 reference
    engine is plain BLAS: changing the fused row count may reassociate its
    float sums, so it is held to an allclose at machine precision instead
    (see the README determinism note).
    """
    if engine_name == "fp32":
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-12), label
    else:
        assert np.array_equal(got, expect), label


class TestSessionFuzz:
    """All four engines × both granularities: every serving path agrees."""

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_solo_sliced_coalesced_concurrent_identical(
            self, engine_name, granularity):
        rng = _rng(5, hash(engine_name) & 0xFFFF,
                   hash(granularity) & 0xFFFF)
        dims = tuple(int(rng.integers(6, 40)) for _ in range(3))
        model_seed = int(rng.integers(0, 2 ** 31))
        requests = [rng.normal(0, 1, (int(rng.integers(1, 5)), dims[0]))
                    for _ in range(5)]
        label = (f"{engine_name}/{granularity} dims={dims} "
                 f"seed={BASE_SEED}")

        solo = _session_case(engine_name, granularity, "fast", dims,
                             model_seed)
        expected = [solo.run(x) for x in requests]

        # 1. sliced reference path (identical solo shapes: always exact)
        sliced = _session_case(engine_name, granularity, "sliced", dims,
                               model_seed)
        for x, expect in zip(requests, expected):
            assert np.array_equal(sliced.run(x), expect), \
                f"{label}: sliced != fast"

        # 2. coalesced engine batch
        coal = _session_case(engine_name, granularity, "fast", dims,
                             model_seed)
        for got, expect in zip(coal.run_coalesced(requests), expected):
            _assert_outputs_match(got, expect, engine_name,
                                  f"{label}: coalesced != solo")

        # 3. concurrent worker-pool server (async submit, shared pool)
        concurrent = _session_case(engine_name, granularity, "fast", dims,
                                   model_seed)
        with ModelServer(BatchPolicy(max_batch=2, max_delay_s=0.0),
                         workers=2) as server:
            server.register("fuzz", concurrent)
            futures = [server.submit_async("fuzz", x) for x in requests]
            for future, expect in zip(futures, expected):
                _assert_outputs_match(future.result(), expect, engine_name,
                                      f"{label}: concurrent != serial")

    def test_grid_covers_every_registered_engine(self):
        """The fuzz grid must not silently miss a newly registered engine."""
        assert set(available_engines()) == set(ENGINES)


def _build_fuzz_net(model_seed, dims):
    """Module-level factory so spawn can rebuild the model in a worker.

    The process backend ships this (via :func:`functools.partial`, which
    pickles by reference) to every worker; the seeded rng makes the child's
    float model identical to the parent's down to the last weight bit.
    """
    return _FuzzNet(np.random.default_rng(model_seed), dims[0], dims[1],
                    dims[2])


class TestProcessBackendFuzz:
    """Process-backed serving never changes a bit: all four engines x both
    granularities x both exec paths, served through spawned workers
    (session rehydrated from a plan-store snapshot, activations over
    shared memory) vs serial ``PanaceaSession.run``.

    ``max_batch=1`` keeps every request its own engine batch, so even the
    fp32 reference engine is held to **strict** equality — same ops, same
    shapes, same order, just executed in another process.
    """

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_process_serving_equals_serial_run(self, engine_name,
                                               granularity):
        import functools

        rng = _rng(9, hash(engine_name) & 0xFFFF,
                   hash(granularity) & 0xFFFF)
        dims = tuple(int(rng.integers(6, 32)) for _ in range(3))
        model_seed = int(rng.integers(0, 2 ** 31))
        requests = [rng.normal(0, 1, (int(rng.integers(1, 5)), dims[0]))
                    for _ in range(5)]
        label = (f"{engine_name}/{granularity} dims={dims} "
                 f"seed={BASE_SEED}")
        factory = functools.partial(_build_fuzz_net, model_seed, dims)

        with ModelServer(BatchPolicy(max_batch=1, max_delay_s=0.0),
                         workers=1, backend="process") as server:
            for exec_path in ("fast", "sliced"):
                reference = _session_case(engine_name, granularity,
                                          exec_path, dims, model_seed)
                expected = [reference.run(x) for x in requests]
                session = _session_case(engine_name, granularity, exec_path,
                                        dims, model_seed)
                server.register(exec_path, session, model_factory=factory)
                futures = [server.submit_async(exec_path, x)
                           for x in requests]
                for future, expect in zip(futures, expected):
                    assert np.array_equal(future.result(timeout=120),
                                          expect), \
                        f"{label}/{exec_path}: process backend != serial"
                stats = server.stats(exec_path)
                assert stats["session"]["n_requests"] == len(requests)


def _decode_lm_case(engine_name, granularity, exec_path, rng):
    """A calibrated causal-LM session with randomized shape, deterministic.

    Alternates GPT and Llama (GQA) blocks so both cache layouts fuzz.
    """
    from repro.nn import CausalLM

    n_heads = int(rng.choice([2, 4]))
    dim = n_heads * int(rng.integers(4, 10))
    vocab = int(rng.integers(48, 128))
    block = "llama" if int(rng.integers(2)) else "gpt"
    model = CausalLM(vocab, dim, int(rng.integers(1, 3)), n_heads,
                     int(rng.integers(16, 48)), block=block,
                     n_kv_heads=(n_heads // 2 if block == "llama" else None),
                     seed=int(rng.integers(0, 2 ** 31)))
    config = PtqConfig.for_scheme(engine_name, exec_path=exec_path,
                                  w_granularity=granularity)
    calibration = [rng.integers(0, vocab, (2, 12)) for _ in range(2)]
    return PanaceaSession(model, config, calibration=calibration), \
        vocab, block


class TestDecodeFuzz:
    """KV-cached step decode equals the one-shot forward: all four engines
    x both granularities x both exec paths over randomized causal LMs.

    The quantized engines are held to strict bit-equality — integer-valued
    float64 accumulation plus in-order einsum reductions make the cached
    path association-proof.  The fp32 reference runs plain BLAS Linears
    whose summation tree shifts with the fused sequence length, so it gets
    the documented allclose(1e-12) carve-out.
    """

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_step_decode_equals_one_shot(self, engine_name, granularity):
        from repro.engine import DecodeSession

        rng = _rng(12, hash(engine_name) & 0xFFFF,
                   hash(granularity) & 0xFFFF)
        for exec_path in ("fast", "sliced"):
            session, vocab, block = _decode_lm_case(
                engine_name, granularity, exec_path, rng)
            decoder = DecodeSession(session)
            prompt_len = int(rng.integers(2, 8))
            prompt = rng.integers(0, vocab, prompt_len)
            step_logits = [decoder.prefill(prompt)]
            tok = decoder.sample(step_logits[-1])
            for _ in range(4):
                step_logits.append(decoder.step(tok))
                tok = decoder.sample(step_logits[-1])
            label = (f"{engine_name}/{granularity}/{exec_path} "
                     f"block={block} seed={BASE_SEED}")
            for i, got in enumerate(step_logits):
                ids = np.asarray([decoder.tokens[:prompt_len + i]],
                                 dtype=np.int64)
                expect = session.run(ids)[0, -1]
                _assert_outputs_match(got, expect, engine_name,
                                      f"{label}: step {i} != one-shot")

    @pytest.mark.parametrize("engine_name",
                             ("int8_dense", "sibia", "aqs"))
    def test_batched_decode_equals_solo(self, engine_name):
        """Continuous-batched decode emits exactly the tokens each request
        would produce decoding alone.

        Quantized engines only: ragged rows change the fp32 reference's
        fused BLAS widths (the allclose carve-out), and a 1e-12 logit
        wobble could flip an argmax tie — token equality is only a
        contract where the logits are bit-exact.
        """
        from repro.engine import DecodeSession
        from repro.serve import DecodeBatcher, DecodePolicy

        rng = _rng(13, hash(engine_name) & 0xFFFF)
        session, vocab, block = _decode_lm_case(
            engine_name, "per_tensor", "fast", rng)
        prompts = [rng.integers(0, vocab, int(rng.integers(2, 9)))
                   for _ in range(6)]
        max_new = [int(rng.integers(2, 7)) for _ in prompts]

        solo = []
        for prompt, m in zip(prompts, max_new):
            ref_session, _, _ = _decode_lm_case(
                engine_name, "per_tensor", "fast",
                _rng(13, hash(engine_name) & 0xFFFF))
            solo.append(DecodeSession(ref_session).generate(prompt, m))

        batcher = DecodeBatcher(session,
                                DecodePolicy(max_batch=3,
                                             max_new_tokens=max(max_new)))
        tickets = [batcher.submit(p, max_new_tokens=m)
                   for p, m in zip(prompts, max_new)]
        batcher.drain()
        for i, (ticket, expect) in enumerate(zip(tickets, solo)):
            assert ticket.result().tolist() == expect, (
                f"{engine_name} block={block}: batched decode of request "
                f"{i} differs from solo (seed={BASE_SEED})")


class TestCacheConformance:
    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_cache_hits_are_bit_exact(self, engine_name):
        """A cached replay of a random stream equals the engine outputs."""
        rng = _rng(6, hash(engine_name) & 0xFFFF)
        dims = tuple(int(rng.integers(6, 32)) for _ in range(3))
        session = _session_case(engine_name, "per_tensor", "fast", dims,
                                int(rng.integers(0, 2 ** 31)))
        requests = [rng.normal(0, 1, (2, dims[0])) for _ in range(4)]
        with ModelServer(BatchPolicy(max_batch=4, max_delay_s=0.0),
                         cache_bytes=1 << 20) as server:
            server.register("m", session)
            cold = [t.result() for t in server.submit_many("m", requests)]
            warm = [t.result() for t in server.submit_many("m", requests)]
            for a, b in zip(cold, warm):
                assert np.array_equal(a, b), f"{engine_name}: cache hit " \
                    f"differs (seed={BASE_SEED})"
            assert server.entry("m").batcher.n_cache_hits == len(requests)


def _http_post(handle, path, payload, timeout=60):
    import http.client
    import json

    conn = http.client.HTTPConnection(handle.host, handle.port,
                                      timeout=timeout)
    try:
        conn.request("POST", path, body=json.dumps(payload))
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


class TestGatewayFuzz:
    """The HTTP front end adds nothing: networked responses equal serial
    runs bit for bit across all four engines × both granularities.

    Requests travel JSON-over-HTTP through admission control, the asyncio
    loop, the executor and the micro-batcher — with concurrent tenants
    racing — and must still reproduce ``session.run`` /
    ``DecodeSession.generate`` exactly (fp32 gets the documented
    allclose(1e-12) carve-out on the coalescing path).  Dropping a client
    mid-decode-stream must cancel only that request: the surviving
    stream's tokens stay exact and the admission ledger stays conserved.
    """

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_networked_infer_matches_serial(self, engine_name, granularity):
        import base64

        rng = _rng(14, hash(engine_name) & 0xFFFF,
                   hash(granularity) & 0xFFFF)
        dims = tuple(int(rng.integers(6, 32)) for _ in range(3))
        model_seed = int(rng.integers(0, 2 ** 31))
        session = _session_case(engine_name, granularity, "fast", dims,
                                model_seed)
        reference = _session_case(engine_name, granularity, "fast", dims,
                                  model_seed)
        requests = [rng.normal(0, 1, (int(rng.integers(1, 4)), dims[0]))
                    for _ in range(6)]
        expected = [reference.run(x) for x in requests]
        server = ModelServer(BatchPolicy(max_batch=3, max_delay_s=0.002))
        server.register("fuzz", session)
        results = [None] * len(requests)

        def tenant_worker(i):
            x = np.ascontiguousarray(requests[i])
            status, body = _http_post(handle, "/v1/infer/fuzz", {
                "input_b64": base64.b64encode(x.tobytes()).decode("ascii"),
                "dtype": str(x.dtype), "shape": list(x.shape),
                "tenant": f"tenant-{i % 3}"})
            assert status == 200, body
            results[i] = np.frombuffer(
                base64.b64decode(body["output_b64"]),
                dtype=np.dtype(body["dtype"])).reshape(body["shape"])

        with Gateway.launch(server) as handle:
            threads = [threading.Thread(target=tenant_worker, args=(i,))
                       for i in range(len(requests))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            stats = handle.stats()["admission"]
            assert stats["conserved"]
            assert stats["completed"] == len(requests)
            assert len(stats["tenants"]) == 3
        server.close()
        for i, (got, expect) in enumerate(zip(results, expected)):
            assert got is not None, f"request {i} never completed"
            _assert_outputs_match(
                got, expect, engine_name,
                f"{engine_name}/{granularity}: networked response {i} != "
                f"serial run (seed={BASE_SEED})")

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_networked_decode_matches_serial_with_cancellation(
            self, engine_name):
        """Greedy tokens over the wire equal DecodeSession.generate, while
        a second client's mid-stream disconnect cancels only itself."""
        import json
        import socket
        import time

        from repro.engine import DecodeSession

        granularity = GRANULARITIES[
            int(_rng(15, hash(engine_name) & 0xFFFF, 0).integers(2))]
        rng = _rng(15, hash(engine_name) & 0xFFFF, 1)
        ref_rng = _rng(15, hash(engine_name) & 0xFFFF, 1)
        session, vocab, block = _decode_lm_case(engine_name, granularity,
                                                "fast", rng)
        reference, _, _ = _decode_lm_case(engine_name, granularity,
                                          "fast", ref_rng)
        prompt = [int(t) for t in rng.integers(0, vocab, 5)]
        _ = ref_rng.integers(0, vocab, 5)   # keep the streams aligned
        expect = [int(t) for t in
                  DecodeSession(reference).generate(
                      np.asarray(prompt, dtype=np.int64), 5)]
        server = ModelServer()
        server.register("lm", session)
        with Gateway.launch(server) as handle:
            # The victim stream: read two chunks, then hang up.
            payload = json.dumps({"prompt": prompt, "max_new_tokens": 256,
                                  "stream": True}).encode()
            sock = socket.create_connection((handle.host, handle.port),
                                            timeout=60)
            sock.sendall(b"POST /v1/decode/lm HTTP/1.1\r\nHost: f\r\n"
                         + f"Content-Length: {len(payload)}"
                           "\r\n\r\n".encode() + payload)
            received = b""
            while received.count(b"\n") < 4:
                received += sock.recv(4096)
            sock.close()
            # The survivor, issued while the cancel is in flight.
            status, body = _http_post(handle, "/v1/decode/lm",
                                      {"prompt": prompt,
                                       "max_new_tokens": 5})
            assert status == 200
            assert body["tokens"] == expect, \
                f"{engine_name}/{granularity} block={block}: networked " \
                f"decode != DecodeSession.generate (seed={BASE_SEED})"
            deadline = time.time() + 15
            while time.time() < deadline:
                stats = handle.stats()["admission"]
                if stats["cancelled"] == 1 and stats["in_flight"] == 0:
                    break
                time.sleep(0.05)
            assert stats["cancelled"] == 1, stats
            assert stats["conserved"], stats
        server.close()
