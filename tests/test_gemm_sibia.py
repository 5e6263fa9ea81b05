"""Tests for the Sibia baseline bit-slice GEMM (paper Section II-B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitslice.slicing import sbr_ho_zero_range, slice_sbr
from repro.bitslice.vectors import activation_vector_mask
from repro.gemm.sibia_gemm import (SibiaLayerPlan, execute_sibia,
                                   prepare_sibia, sibia_gemm)
from repro.gemm.workload import table1_sibia


def _symmetric_case(rng, m=16, k=64, n=16, std=5.0, bits=7):
    lim = (1 << (bits - 1)) - 1
    w = np.clip(np.rint(rng.standard_t(4, (m, k)) * 4), -lim - 1, lim).astype(int)
    x = np.clip(np.rint(rng.normal(0, std, (k, n))), -lim - 1, lim).astype(int)
    return w, x


class TestExactness:
    def test_matches_integer_gemm(self):
        rng = np.random.default_rng(0)
        for trial in range(6):
            w, x = _symmetric_case(rng)
            res = sibia_gemm(w, x)
            assert np.array_equal(res.acc, w.astype(np.int64) @ x), trial

    def test_tracked_weight_exact(self):
        rng = np.random.default_rng(1)
        w, x = _symmetric_case(rng)
        res = sibia_gemm(w, x, tracked="weight")
        assert np.array_equal(res.acc, w.astype(np.int64) @ x)

    def test_tracked_activation_exact(self):
        rng = np.random.default_rng(2)
        w, x = _symmetric_case(rng)
        res = sibia_gemm(w, x, tracked="activation")
        assert np.array_equal(res.acc, w.astype(np.int64) @ x)

    def test_10bit_weights(self):
        rng = np.random.default_rng(3)
        w = rng.integers(-512, 512, (8, 32))
        x = np.clip(np.rint(rng.normal(0, 5, (32, 8))), -64, 63).astype(int)
        res = sibia_gemm(w, x, w_bits=10)
        assert np.array_equal(res.acc, w.astype(np.int64) @ x)

    def test_4bit_weights_no_ho(self):
        """Single-slice weights: no HO plane, sparsity unexploitable."""
        rng = np.random.default_rng(4)
        w = rng.integers(-8, 8, (8, 32))
        x = np.clip(np.rint(rng.normal(0, 5, (32, 8))), -64, 63).astype(int)
        res = sibia_gemm(w, x, w_bits=4)
        assert np.array_equal(res.acc, w.astype(np.int64) @ x)
        assert res.rho_w == 0.0
        assert res.tracked == "activation"

    def test_auto_picks_sparser_side(self):
        rng = np.random.default_rng(5)
        w = rng.choice([-60, 60], (16, 64))            # dense HO
        x = np.clip(np.rint(rng.normal(0, 2, (64, 16))), -64, 63).astype(int)
        res = sibia_gemm(w, x, tracked="auto")
        assert res.tracked == "activation"

    def test_invalid_tracked_raises(self):
        with pytest.raises(ValueError):
            sibia_gemm(np.zeros((4, 8), dtype=int), np.zeros((8, 4), dtype=int),
                       tracked="both")

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            sibia_gemm(np.zeros((4, 8), dtype=int), np.zeros((7, 4), dtype=int))


class TestOpCounts:
    def test_matches_table1(self):
        """Ops follow 32K(2 - max(rho_w, rho_x)); EMA is dense 14K."""
        rng = np.random.default_rng(6)
        k = 512
        w, x = _symmetric_case(rng, m=4, k=k, n=4, std=3.0)
        res = sibia_gemm(w, x)
        rho = max(res.rho_w, res.rho_x)
        expected = table1_sibia(k, res.rho_w, res.rho_x)
        # measured uses the tracked side's exact mask; at 4x4 it matches the
        # analytic expectation up to the rho granularity
        assert res.ops.mul4 == pytest.approx(expected.mul4, rel=0.02)
        assert res.ops.ema_nibbles == expected.ema_nibbles
        assert rho > 0.0

    def test_dense_case(self):
        rng = np.random.default_rng(7)
        k = 64
        w = rng.choice([-60, 60], (4, k))
        x = rng.choice([-60, 60], (k, 4))
        res = sibia_gemm(w, x)
        expected = table1_sibia(k, 0.0, 0.0)
        assert res.ops.mul4 == expected.mul4
        assert res.ops.ema_nibbles == expected.ema_nibbles

    def test_cannot_exploit_asymmetric_distributions(self):
        """The paper's motivation: symmetric quantization of an activation
        centred far from zero yields no zero HO slices to skip."""
        rng = np.random.default_rng(8)
        # an asymmetric distribution quantized *symmetrically*: values sit
        # around +30 in int7 code space -> HO slices are nonzero
        x = np.clip(np.rint(rng.normal(30, 3, (64, 16))), -64, 63).astype(int)
        w, _ = _symmetric_case(rng, k=64)
        res = sibia_gemm(w, x, tracked="activation")
        assert res.rho_x == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["auto", "weight",
                                                     "activation"]))
def test_property_sibia_exact(seed, tracked):
    rng = np.random.default_rng(seed)
    w = np.clip(np.rint(rng.standard_t(3, (8, 16)) * 5), -64, 63).astype(int)
    x = np.clip(np.rint(rng.normal(0, 8, (16, 8))), -64, 63).astype(int)
    res = sibia_gemm(w, x, tracked=tracked)
    assert np.array_equal(res.acc, w.astype(np.int64) @ x)


class TestFastPathMask:
    def test_ho_zero_range_known_widths(self):
        assert sbr_ho_zero_range(4) == (0, 0)
        assert sbr_ho_zero_range(7) == (-8, 7)

    def test_out_of_range_codes_raise_on_both_paths(self):
        w = np.ones((4, 8), dtype=np.int64)
        for exec_path in ("fast", "sliced"):
            plan = prepare_sibia(w, exec_path=exec_path)
            for bad in (64, -65):
                x = np.zeros((8, 2), dtype=np.int64)
                x[3, 1] = bad
                with pytest.raises(ValueError, match="out of range"):
                    execute_sibia(plan, x)

    def test_sum_uw_is_derived_not_stored(self):
        rng = np.random.default_rng(3)
        w, _ = _symmetric_case(rng)
        plan = prepare_sibia(w)
        state = plan.state_dict()
        assert "sum_uw" not in state
        assert SibiaLayerPlan.from_state(state).sum_uw == \
            plan.sum_uw == int(plan.uw.sum())


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([4, 7, 10]), st.sampled_from([1, 2, 4, 8, 16]),
       st.sampled_from([1, 2, 4, 8]), st.integers(0, 2 ** 31 - 1))
def test_property_ho_zero_interval_mask_matches_sliced(x_bits, n, v, seed):
    """Reading the HO-zero mask off the codes equals slicing them, over
    every code of the width (each appears exactly once in ``x``)."""
    bound = 1 << (x_bits - 1)
    x = np.random.default_rng(seed).permutation(
        np.arange(-bound, bound)).reshape(-1, n)
    lo, hi = sbr_ho_zero_range(x_bits)
    ho = slice_sbr(x, total_bits=x_bits).ho
    outside = (x < lo) | (x > hi)
    assert np.array_equal(outside, ho != 0)
    expect = activation_vector_mask(ho, v=v, compress_value=0)
    assert np.array_equal(
        activation_vector_mask(outside, v=v, compress_value=0), expect)
    plan = prepare_sibia(np.ones((4, x.shape[0]), dtype=np.int64),
                         x_bits=x_bits, v=v)
    assert np.array_equal(execute_sibia(plan, x).ux_mask, expect)
