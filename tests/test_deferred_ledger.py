"""The AQS op ledger, filled per forward instead of per layer call.

``execute_aqs`` returns its HO mask with the ledger pending, and
:class:`~repro.core.pipeline.ExecutionTrace` fills every pending record of
a capture in one batch (:func:`~repro.core.aqs_gemm.aqs_ledgers`).  The
counts must not change: the batch equals the per-call ledger field for
field, a direct caller still reads the full ledger off ``.ops``, and a
quantized layer still quantizes and executes exactly once per call.
"""

import os
import resource
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.pipeline as pipeline
from repro.bitslice.rle import rle_encode
from repro.bitslice.vectors import vector_sparsity
from repro.core.aqs_gemm import (AqsGemmConfig, aqs_ledgers, execute_aqs,
                                 prepare_aqs)
from repro.core.pipeline import ExecutionTrace, PtqConfig, PtqPipeline
from repro.engine import AqsEngine, EngineConfig, PanaceaSession, get_engine
from repro.nn.layers import Linear
from repro.nn.module import Module

#: One fixed operand set and its ledger, as the per-call kernel reported it
#: before the ledger was deferred.
GOLDEN = {
    4: (dict(mul4=92144, add=99632, ema_nibbles=4788, rle_index_bits=993,
             comp_mul4=864, comp_add=8352,
             notes={"dynamic_products": 2465, "static_products": 3240,
                    "naive_comp_add": 17568}), 0.6777777777777778),
    5: (dict(mul4=80720, add=83888, ema_nibbles=4548, rle_index_bits=846,
             comp_mul4=864, comp_add=4032,
             notes={"dynamic_products": 1751, "static_products": 3240,
                    "naive_comp_add": 21888}), 0.8444444444444444),
}


def _golden_operands():
    rng = np.random.default_rng(7)
    w = np.clip(np.rint(rng.standard_t(5, (36, 60)) * 4), -64,
                63).astype(np.int64)
    x = np.clip(np.rint(rng.standard_t(4, (60, 21)) * 4 + 168), 0,
                255).astype(np.int64)
    return w, x


class _Mlp(Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(16, 24, rng=rng)
        self.fc2 = Linear(24, 8, rng=rng)

    def forward(self, x):
        return self.fc2(np.maximum(self.fc1(x), 0.0))


def _calibration(seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(0.0, 1.0, (6, 16)) for _ in range(3)]


# -- the batched fill ---------------------------------------------------------

_call = st.tuples(
    st.integers(1, 40),                 # K
    st.integers(1, 300),                # N (ragged against v = 4)
    st.sampled_from([4, 5, 6]),         # lo_bits
    st.sampled_from([4, 7, 10]),        # w_bits
    st.integers(1, 4),                  # index_bits
    st.sampled_from([2.0, 8.0, 60.0]),  # activation spread around zp
    st.integers(0, 2**32 - 1),          # operand seed
)


def _prepared_call(k, n, lo_bits, w_bits, index_bits, spread, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 13))
    w_max = (1 << (w_bits - 1)) - 1
    w = rng.integers(-w_max - 1, w_max + 1, (m, k))
    w[rng.random((m, k)) < 0.7] = 0            # compressible weight vectors
    zp = int(rng.integers(0, 256))
    x = np.clip(np.rint(rng.normal(zp, spread, (k, n))), 0,
                255).astype(np.int64)
    plan = prepare_aqs(w, zp, AqsGemmConfig(
        w_bits=w_bits, lo_bits=lo_bits, index_bits=index_bits))
    return plan, execute_aqs(plan, x).ux_mask


@settings(max_examples=60, deadline=None)
@given(st.lists(_call, min_size=1, max_size=6))
def test_batched_fill_equals_per_call_ledger(spec):
    calls = [_prepared_call(*c) for c in spec]
    # Mixed K in one batch, and repeats so some groups hold several calls.
    calls = calls + calls[::-1]
    batched = aqs_ledgers(calls)
    for (plan, ux), (ops, rho_x) in zip(calls, batched):
        expect, _ = plan.ledger(ux)
        assert asdict(ops) == asdict(expect)     # notes included
        assert rho_x == vector_sparsity(ux)      # bit for bit
        # The activation RLE budget against the token-by-token encoder.
        act_bits = sum(rle_encode(col, plan.config.index_bits)
                       .index_storage_bits for col in ux.T)
        assert ops.rle_index_bits == plan.w_rle_bits + act_bits


def test_count_ops_off_fills_rho_x_only():
    w, x = _golden_operands()
    plan = prepare_aqs(w, 168, AqsGemmConfig(count_ops=False))
    ux = execute_aqs(plan, x).ux_mask
    [(ops, rho_x)] = aqs_ledgers([(plan, ux)])
    assert asdict(ops) == asdict(type(ops)())
    assert rho_x == vector_sparsity(ux)


# -- the ledger a caller reads ------------------------------------------------

@pytest.mark.parametrize("lo_bits", [4, 5])
def test_execute_aqs_ops_carry_the_per_call_ledger(lo_bits):
    w, x = _golden_operands()
    res = execute_aqs(prepare_aqs(w, 168, AqsGemmConfig(
        lo_bits=lo_bits, index_bits=3)), x)
    assert res.ledger_plan is not None           # pending until read
    counts, rho_x = GOLDEN[lo_bits]
    assert asdict(res.ops) == counts
    assert res.rho_x == rho_x
    assert res.ledger_plan is None               # filled once, then plain


def test_engine_result_fills_on_read():
    w, x = _golden_operands()
    res = get_engine("aqs").run(w, x, 168, EngineConfig(index_bits=3))
    assert res.ledger_plan is not None
    assert res.rho_x == GOLDEN[4][1]
    assert asdict(res.ops) == GOLDEN[4][0]


def test_bare_trace_records_are_filled_at_add():
    """A model converted with a trace and called directly records full
    ledgers: each record equals the kernel's ledger on the same codes."""
    trace = ExecutionTrace()
    pipe = PtqPipeline(_Mlp(), PtqConfig(scheme="aqs"))
    pipe.calibrate(_calibration())
    model = pipe.convert(trace=trace, count_ops=True)
    x = np.random.default_rng(3).normal(0.0, 1.0, (5, 16))
    model(x)
    assert [r.name for r in trace.records] == ["fc1", "fc2"]
    fc1 = trace.records[0]
    assert fc1.ledger_plan is None and fc1.ux_mask is None
    x_q = pipeline.quantize(x.T, pipe.records["fc1"].x_params)
    expect = execute_aqs(model.fc1.plan, x_q)
    assert asdict(fc1.ops) == asdict(expect.ops)
    assert fc1.rho_x == expect.rho_x
    assert fc1.ops.mul4 > 0


def test_captured_records_are_filled_on_exit():
    session = PanaceaSession(_Mlp(), PtqConfig(scheme="aqs"),
                             calibration=_calibration(), keep_masks=True)
    x = np.random.default_rng(4).normal(0.0, 1.0, (3, 16))
    with session.trace.capture() as records:
        session.model(x)
        assert all(r.ledger_plan is not None for r in records)
    assert all(r.ledger_plan is None for r in records)
    for rec in records:
        ops, rho_x = aqs_ledgers([(session.plans[rec.name], rec.ux_mask)])[0]
        assert asdict(rec.ops) == asdict(ops) and rec.rho_x == rho_x


# -- the timed seams ------------------------------------------------------------

def test_one_forward_quantizes_and_executes_once_per_layer(monkeypatch):
    """``quantize`` and ``AqsEngine.execute`` stay the once-per-layer calls
    (external per-layer timing rebinds exactly these two); the ledger fill
    calls neither."""
    session = PanaceaSession(_Mlp(), PtqConfig(scheme="aqs"),
                             calibration=_calibration())
    counts = {"quantize": 0, "execute": 0}
    quantize, execute = pipeline.quantize, AqsEngine.execute

    def counted_quantize(*args, **kwargs):
        counts["quantize"] += 1
        return quantize(*args, **kwargs)

    def counted_execute(*args, **kwargs):
        counts["execute"] += 1
        return execute(*args, **kwargs)

    monkeypatch.setattr(pipeline, "quantize", counted_quantize)
    monkeypatch.setattr(AqsEngine, "execute", counted_execute)
    x = np.random.default_rng(5).normal(0.0, 1.0, (4, 16))
    session.model.fc1(x)
    assert counts == {"quantize": 1, "execute": 1}
    session.run(x)
    assert counts == {"quantize": 3, "execute": 3}
    assert session.stats()["mul4"] > 0


# -- the heap -------------------------------------------------------------------

def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc() or not hasattr(resource, "RUSAGE_THREAD"),
                    reason="glibc malloc tuning, per-thread rusage")
def test_repeated_runs_do_not_refault_the_heap():
    """Served batches reuse the heap their predecessors freed: after a
    warm-up, further runs take next to no minor page faults."""

    class Wide(Module):
        def __init__(self):
            super().__init__()
            self.fc = Linear(256, 512, rng=np.random.default_rng(0))

        def forward(self, x):
            return self.fc(x)

    rng = np.random.default_rng(6)
    session = PanaceaSession(Wide(), PtqConfig(scheme="aqs"),
                             calibration=[rng.normal(0.0, 1.0, (8, 256))])
    x = rng.normal(0.0, 1.0, (256, 256))
    for _ in range(3):
        session.run(x)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    runs = 10
    for _ in range(runs):
        session.run(x)
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
    assert faults < 10 * runs, faults
