"""Bench E1 — one-GEMM fast path vs the sliced plane-pair loop.

The sliced AQS execute issues ``n_w_planes x n_x_planes`` BLAS calls plus
the compensation call per request; the fast path issues one GEMM of the
plan's weight mirror with the DBS-truncated codes (Sibia: one GEMM with the
codes).  The mirror is float32 when the plan proves every partial sum stays
below 2^24, float64 otherwise.  Both paths are bit-exact and report the same
op ledger, so the only difference is wall time.  This bench measures that
on BERT-base and ResNet im2col shapes for the AQS and Sibia kernels,
asserting bit-exactness on every shape before timing.

Emits a table to ``results/fast_path.txt`` and machine-readable numbers to
``results/fast_path.json``.

Run:        PYTHONPATH=src python benchmarks/bench_fast_path.py
CI smoke:   PYTHONPATH=src python benchmarks/bench_fast_path.py --smoke
(the smoke run skips timing and only checks bit-exactness and identical
op ledgers across the full scheme/config grid, narrow widths and one
float64-gated operand set, then fills every AQS call's ledger as one batch
and checks it against the per-call ledger, so it is fast enough for every
push)
"""

import argparse
import sys
import time

import numpy as np
from _util import emit, emit_json

from repro.core.aqs_gemm import (AqsGemmConfig, aqs_ledgers, execute_aqs,
                                 prepare_aqs)
from repro.eval.tables import format_table
from repro.gemm.sibia_gemm import execute_sibia, prepare_sibia

# (name, M, K, N): BERT-base projections/MLP at seq 128, ResNet-18/50 im2col
# shapes at 224x224 input.
SHAPES = [
    ("bert_base_qkv", 768, 768, 128),
    ("bert_base_fc1", 3072, 768, 128),
    ("bert_base_fc2", 768, 3072, 128),
    ("resnet18_conv3", 128, 1152, 784),
    ("resnet50_conv4", 256, 2304, 196),
]
BERT_SHAPES = ("bert_base_qkv", "bert_base_fc1", "bert_base_fc2")

# The exactness grid of the acceptance criteria: every lo_bits x w_bits
# combination both kernels accept (lo_bits applies to AQS only).
LO_BITS = (4, 5, 6)
W_BITS = (4, 7, 10)
# Activation widths below and across the slice-vector length v = 4.
NARROW = (1, 2, 3)


def _aqs_operands(m, k, n, w_bits=7, seed=0):
    rng = np.random.default_rng(seed)
    w_max = (1 << (w_bits - 1)) - 1
    w = np.clip(np.rint(rng.standard_t(5, (m, k)) * 4),
                -w_max - 1, w_max).astype(np.int64)
    zp = 168
    x = np.clip(np.rint(rng.standard_t(4, (k, n)) * 4 + zp), 0,
                255).astype(np.int64)
    return w, x, zp


def _sbr_operands(m, k, n, w_bits=7, x_bits=7, seed=0):
    rng = np.random.default_rng(seed)
    w_max = (1 << (w_bits - 1)) - 1
    x_max = (1 << (x_bits - 1)) - 1
    w = np.clip(np.rint(rng.standard_t(5, (m, k)) * 3),
                -w_max - 1, w_max).astype(np.int64)
    x = np.clip(np.rint(rng.standard_t(4, (k, n)) * 3),
                -x_max - 1, x_max).astype(np.int64)
    return w, x


def _time(fn, repeats):
    """Median wall time of ``fn`` over ``repeats`` calls, in seconds."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def _assert_same(fast, sliced, case):
    """Bit-identical accumulators and the whole op ledger, notes included."""
    assert np.array_equal(fast.acc, sliced.acc), case
    assert fast.ops == sliced.ops, case
    assert fast.rho_x == sliced.rho_x, case


def _check_aqs(w, x, zp, case, calls, **kwargs):
    """Fast == sliced; appends ``(plan, ux, ops, rho_x)`` to ``calls``."""
    fast_plan = prepare_aqs(w, zp, AqsGemmConfig(exec_path="fast", **kwargs))
    fast = execute_aqs(fast_plan, x)
    sliced = execute_aqs(prepare_aqs(
        w, zp, AqsGemmConfig(exec_path="sliced", **kwargs)), x)
    _assert_same(fast, sliced, case)
    calls.append((fast_plan, fast.ux_mask, fast.ops, fast.rho_x))
    return fast_plan


def _check_batched_ledger(calls):
    """One batched fill over every call equals each call's own ledger."""
    batched = aqs_ledgers([(plan, ux) for plan, ux, _, _ in calls])
    for (_, _, ops, rho_x), (b_ops, b_rho_x) in zip(calls, batched):
        assert b_ops == ops and b_rho_x == rho_x, (ops, b_ops)


def check_exactness(m=48, k=96, n=24, seed=0):
    """Fast == sliced on every scheme/config combination (the invariant).

    Besides the ``n``-wide grid, every combination also runs at widths 1-3
    (not multiples of ``v``: the ragged mask tail decode hits), and one
    over-bound operand set (``K = 4096``, full-scale 10-bit weights) makes
    the AQS plan take the float64 branch.  Finally every AQS call's ledger
    is filled again as one batch of mixed shapes and configs.
    """
    calls = []
    for w_bits in W_BITS:
        for width in (n, *NARROW):
            for lo_bits in LO_BITS:
                w, x, zp = _aqs_operands(m, k, width, w_bits=w_bits,
                                         seed=seed)
                _check_aqs(w, x, zp, (w_bits, lo_bits, width), calls,
                           w_bits=w_bits, lo_bits=lo_bits)
            for tracked in ("weight", "activation", "auto"):
                w, x = _sbr_operands(m, k, width, w_bits=w_bits, seed=seed)
                fast = execute_sibia(prepare_sibia(
                    w, w_bits=w_bits, tracked=tracked, exec_path="fast"), x)
                sliced = execute_sibia(prepare_sibia(
                    w, w_bits=w_bits, tracked=tracked, exec_path="sliced"), x)
                _assert_same(fast, sliced, (w_bits, tracked, width))
    rng = np.random.default_rng(seed)
    w = np.full((8, 4096), 511, dtype=np.int64)
    w[::3] = -512
    x = rng.integers(150, 256, (4096, 3))
    for lo_bits in LO_BITS:
        plan = _check_aqs(w, x, 168, ("over-bound", lo_bits), calls,
                          w_bits=10, lo_bits=lo_bits)
        assert plan.w_blas.dtype == np.float64, lo_bits
    _check_batched_ledger(calls)


def measure_shape(name, m, k, n, repeats=5):
    """Sliced vs fast execute timings for one layer shape (exactness checked)."""
    w, x, zp = _aqs_operands(m, k, n)
    fast_plan = prepare_aqs(w, zp, AqsGemmConfig(exec_path="fast"))
    sliced_plan = prepare_aqs(w, zp, AqsGemmConfig(exec_path="sliced"))
    assert np.array_equal(execute_aqs(fast_plan, x).acc,
                          execute_aqs(sliced_plan, x).acc), name

    sliced_s = _time(lambda: execute_aqs(sliced_plan, x), repeats)
    fast_s = _time(lambda: execute_aqs(fast_plan, x), repeats)

    ws, xs = _sbr_operands(m, k, n)
    sib_fast = prepare_sibia(ws, exec_path="fast")
    sib_sliced = prepare_sibia(ws, exec_path="sliced")
    assert np.array_equal(execute_sibia(sib_fast, xs).acc,
                          execute_sibia(sib_sliced, xs).acc), name
    sib_sliced_s = _time(lambda: execute_sibia(sib_sliced, xs), repeats)
    sib_fast_s = _time(lambda: execute_sibia(sib_fast, xs), repeats)

    return {
        "m": m, "k": k, "n": n,
        "aqs_sliced_ms": sliced_s * 1e3,
        "aqs_fast_ms": fast_s * 1e3,
        "aqs_speedup": sliced_s / fast_s,
        "sibia_sliced_ms": sib_sliced_s * 1e3,
        "sibia_fast_ms": sib_fast_s * 1e3,
        "sibia_speedup": sib_sliced_s / sib_fast_s,
    }


def run(repeats=5):
    check_exactness()
    results = {name: measure_shape(name, m, k, n, repeats)
               for name, m, k, n in SHAPES}
    bert = [results[name]["aqs_speedup"] for name in BERT_SHAPES]
    results["_summary"] = {
        "bert_median_aqs_speedup": float(np.median(bert)),
    }
    rows = [[name, r["m"], r["k"], r["n"], r["aqs_sliced_ms"],
             r["aqs_fast_ms"], r["aqs_speedup"], r["sibia_speedup"]]
            for name, r in results.items() if not name.startswith("_")]
    emit("fast_path", format_table(
        ["layer", "M", "K", "N", "aqs sliced (ms)", "aqs fast (ms)",
         "aqs speedup", "sibia speedup"],
        rows,
        title="one-GEMM fast path vs sliced plane-pair loop "
              f"(BERT median aqs speedup "
              f"{results['_summary']['bert_median_aqs_speedup']:.2f}x)"))
    emit_json("fast_path", results)
    return results


def test_exec_paths_bit_exact():
    """The non-negotiable invariant, under pytest."""
    check_exactness()


def test_fast_path_speedup():
    """Fast execute must beat sliced by >= 2x median on BERT-base shapes."""
    speedups = []
    for name, m, k, n in SHAPES:
        if name not in BERT_SHAPES:
            continue
        speedups.append(measure_shape(name, m, k, n, repeats=3)["aqs_speedup"])
    assert float(np.median(speedups)) >= 2.0, speedups


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="bit-exactness grid only (no timing); for CI")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if args.smoke:
        check_exactness()
        widths = 1 + len(NARROW)
        print("fast-path smoke: fast == sliced (acc and OpCounts) on the "
              f"w_bits x lo_bits/tracked x width grid "
              f"({len(W_BITS) * len(LO_BITS) * widths} AQS + "
              f"{len(W_BITS) * 3 * widths} Sibia combinations) and "
              f"{len(LO_BITS)} float64-gated AQS sets; one batched ledger "
              "fill of every AQS call == its per-call ledger")
        sys.exit(0)
    run(repeats=args.repeats)
