"""Fast execution path: bit-exactness vs the sliced reference, end to end.

The one-GEMM fast path must be bit-identical to the sliced plane-pair loop
on every scheme/config combination — this is the non-negotiable invariant
of the ``exec_path`` knob — and its float32/float64 exactness gate must
pick float64 exactly when float32 could round.  Covered here at three levels: the raw
kernels (AQS across the full ``lo_bits`` x ``w_bits`` grid, Sibia across
``w_bits`` x tracked sides), the engine registry (``EngineConfig`` /
``execute_many``), and the PTQ pipeline (per-tensor and per-channel
weights).
"""

import numpy as np
import pytest

from repro.core.aqs_gemm import (
    AqsGemmConfig,
    AqsLayerPlan,
    execute_aqs,
    prepare_aqs,
)
from repro.core.pipeline import PtqConfig, PtqPipeline
from repro.engine import EngineConfig, get_engine
from repro.gemm.dense import (exact_bias_f64, execute_int8_dense,
                              prepare_int8_dense)
from repro.gemm.sibia_gemm import (
    SibiaLayerPlan,
    execute_sibia,
    prepare_sibia,
    sibia_gemm,
)
from repro.nn.layers import Linear
from repro.nn.module import Module


def _aqs_case(rng, m=36, k=60, n=20, zp=168, w_bits=7, x_bits=8):
    w_max = (1 << (w_bits - 1)) - 1
    w = rng.integers(-w_max - 1, w_max + 1, (m, k))
    x = rng.integers(0, 1 << x_bits, (k, n))
    return w, x, zp


def _sbr_case(rng, m=36, k=60, n=20, w_bits=7, x_bits=7):
    w_hi = (1 << (w_bits - 1)) - 1
    x_hi = (1 << (x_bits - 1)) - 1
    return (rng.integers(-w_hi - 1, w_hi + 1, (m, k)),
            rng.integers(-x_hi - 1, x_hi + 1, (k, n)))


class TestAqsFastPath:
    @pytest.mark.parametrize("w_bits", [4, 7, 10])
    @pytest.mark.parametrize("lo_bits", [4, 5, 6])
    def test_bit_exact_vs_sliced(self, w_bits, lo_bits):
        rng = np.random.default_rng(w_bits * 10 + lo_bits)
        w, x, zp = _aqs_case(rng, w_bits=w_bits)
        fast = execute_aqs(prepare_aqs(w, zp, AqsGemmConfig(
            w_bits=w_bits, lo_bits=lo_bits, exec_path="fast")), x)
        sliced = execute_aqs(prepare_aqs(w, zp, AqsGemmConfig(
            w_bits=w_bits, lo_bits=lo_bits, exec_path="sliced")), x)
        assert np.array_equal(fast.acc, sliced.acc)

    @pytest.mark.parametrize("lo_bits", [4, 5, 6])
    def test_op_ledger_identical(self, lo_bits):
        """The ledger is mask-derived, so exec_path must not change it."""
        rng = np.random.default_rng(lo_bits)
        w, x, zp = _aqs_case(rng)
        fast = execute_aqs(prepare_aqs(w, zp, AqsGemmConfig(
            lo_bits=lo_bits, exec_path="fast")), x)
        sliced = execute_aqs(prepare_aqs(w, zp, AqsGemmConfig(
            lo_bits=lo_bits, exec_path="sliced")), x)
        for f in ("mul4", "add", "comp_mul4", "comp_add", "ema_nibbles",
                  "rle_index_bits"):
            assert getattr(fast.ops, f) == getattr(sliced.ops, f), f
        assert fast.rho_x == sliced.rho_x
        assert fast.r == sliced.r

    def test_wide_activations(self):
        """Three activation slices (x_bits=12) also collapse exactly."""
        rng = np.random.default_rng(12)
        w, x, zp = _aqs_case(rng, x_bits=12, zp=1900)
        fast = execute_aqs(prepare_aqs(w, zp, AqsGemmConfig(
            x_bits=12, exec_path="fast")), x)
        sliced = execute_aqs(prepare_aqs(w, zp, AqsGemmConfig(
            x_bits=12, exec_path="sliced")), x)
        assert np.array_equal(fast.acc, sliced.acc)

    def test_default_is_fast(self):
        assert AqsGemmConfig().exec_path == "fast"

    def test_fast_plan_skips_plane_mirrors(self):
        """Fast-path execution must not materialize the per-plane float64
        weight mirrors (they are sliced-path-only plan memory)."""
        rng = np.random.default_rng(5)
        w, x, zp = _aqs_case(rng)
        plan = prepare_aqs(w, zp, AqsGemmConfig(exec_path="fast"))
        execute_aqs(plan, x)
        assert plan._w_planes_f64 is None
        sib = prepare_sibia(w, exec_path="fast")
        execute_sibia(sib, np.clip(x - 128, -64, 63))
        assert sib._w_planes_f64 is None

    def test_rejects_unknown_path(self):
        with pytest.raises(ValueError):
            AqsGemmConfig(exec_path="warp")

    def test_rejects_zero_index_bits(self):
        with pytest.raises(ValueError):
            AqsGemmConfig(index_bits=0)

    def test_config_round_trips_through_state(self):
        rng = np.random.default_rng(3)
        w, x, zp = _aqs_case(rng)
        plan = prepare_aqs(w, zp, AqsGemmConfig(exec_path="sliced"))
        clone = AqsLayerPlan.from_state(plan.state_dict())
        assert clone.config.exec_path == "sliced"
        assert np.array_equal(execute_aqs(clone, x).acc,
                              execute_aqs(plan, x).acc)


class TestExactnessGate:
    """The plan's BLAS mirror is float32 only while float32 is exact.

    The gate is ``max_m sum_k |w_mk| * (2^x_bits - 1) < 2^24``.  With
    10-bit weights at full scale and 8-bit activations one row carries
    ``512 * 255`` per reduction step, so ``K = 128`` sits just under the
    bound and ``K = 4096`` far over it.
    """

    @staticmethod
    def _plan(w, lo_bits=4):
        return prepare_aqs(w, 168, AqsGemmConfig(w_bits=10, lo_bits=lo_bits))

    @pytest.mark.parametrize("lo_bits", [4, 6])
    def test_just_under_bound_is_float32_and_exact(self, lo_bits):
        rng = np.random.default_rng(17)
        w = np.full((8, 128), -512, dtype=np.int64)
        w[::2] = 511
        assert np.abs(w).sum(axis=1).max() * 255 < 1 << 24
        x = rng.integers(0, 256, (128, 5))
        x[:, 0] = 255
        plan = self._plan(w, lo_bits)
        assert plan.w_blas.dtype == np.float32
        x_trunc = x & ~((1 << (lo_bits - 4)) - 1)
        res = execute_aqs(plan, x)
        assert np.array_equal(res.acc, w @ x_trunc)
        ref = execute_aqs(prepare_aqs(w, 168, AqsGemmConfig(
            w_bits=10, lo_bits=lo_bits, exec_path="sliced")), x)
        assert np.array_equal(res.acc, ref.acc)

    def test_one_step_over_bound_is_float64(self):
        w = np.full((4, 129), -512, dtype=np.int64)
        assert np.abs(w).sum(axis=1).max() * 255 >= 1 << 24
        assert self._plan(w).w_blas.dtype == np.float64

    def test_over_bound_is_float64_and_exact(self):
        rng = np.random.default_rng(23)
        k = 4096
        w = np.full((4, k), 511, dtype=np.int64)
        x = rng.integers(200, 256, (k, 3))
        x[:, 0] = 255
        plan = self._plan(w)
        assert plan.w_blas.dtype == np.float64
        exact = w @ x
        assert np.array_equal(execute_aqs(plan, x).acc, exact)
        # The gate matters: the same product forced through float32 rounds.
        forced = (w.astype(np.float32) @ x.astype(np.float32)).astype(np.int64)
        assert not np.array_equal(forced, exact)

    def test_state_round_trip_rederives_dtype(self):
        for k, dtype in ((128, np.float32), (4096, np.float64)):
            plan = self._plan(np.full((4, k), 511, dtype=np.int64))
            assert plan.w_blas.dtype == dtype
            state = plan.state_dict()
            assert "w_blas" not in state
            clone = AqsLayerPlan.from_state(state)
            assert clone.w_blas.dtype == dtype
            assert np.array_equal(clone.uw_col, plan.uw_col)
            assert clone.sum_uw == plan.sum_uw

    def test_out_of_range_codes_raise_on_both_paths(self):
        w = np.ones((4, 8), dtype=np.int64)
        for exec_path in ("fast", "sliced"):
            plan = prepare_aqs(w, 128, AqsGemmConfig(exec_path=exec_path))
            for bad in (256, -1):
                x = np.zeros((8, 2), dtype=np.int64)
                x[3, 1] = bad
                with pytest.raises(ValueError, match="out of range"):
                    execute_aqs(plan, x)

    def test_bias_add_gate(self):
        """The float64 bias column is handed out only while
        ``max|acc| + max|b_hat| < 2^53``."""
        w = np.full((2, 4), 3, dtype=np.int64)
        acc_bound = 12 * 255
        under = np.array([(1 << 53) - 1 - acc_bound, -7])
        column = exact_bias_f64(w, 255, under)
        assert column.dtype == np.float64 and column.shape == (2, 1)
        assert np.array_equal(column[:, 0].astype(np.int64), under)
        assert exact_bias_f64(w, 255, under + [1, 0]) is None

    def test_dense_and_sibia_mirrors_follow_the_gate(self):
        small = np.full((2, 64), 127, dtype=np.int64)
        wide = np.full((2, 4096), 127, dtype=np.int64)
        assert prepare_int8_dense(small).w_blas.dtype == np.float32
        assert prepare_int8_dense(wide).w_blas.dtype == np.float64
        x = np.full((4096, 2), 255, dtype=np.int64)
        assert np.array_equal(execute_int8_dense(
            prepare_int8_dense(wide), x)[0], wide @ x)
        with pytest.raises(ValueError, match="out of range"):
            execute_int8_dense(prepare_int8_dense(small),
                               np.full((64, 1), 256))
        assert prepare_sibia(small % 64).w_blas.dtype == np.float32
        assert prepare_sibia(np.full((2, 40000), 63)).w_blas.dtype == \
            np.float64


class TestSibiaFastPath:
    @pytest.mark.parametrize("w_bits", [4, 7, 10])
    @pytest.mark.parametrize("tracked", ["weight", "activation", "auto"])
    def test_bit_exact_vs_sliced(self, w_bits, tracked):
        rng = np.random.default_rng(w_bits * 10 + len(tracked))
        w, x = _sbr_case(rng, w_bits=w_bits)
        fast = execute_sibia(prepare_sibia(
            w, w_bits=w_bits, tracked=tracked, exec_path="fast"), x)
        sliced = execute_sibia(prepare_sibia(
            w, w_bits=w_bits, tracked=tracked, exec_path="sliced"), x)
        assert np.array_equal(fast.acc, sliced.acc)
        assert fast.ops.mul4 == sliced.ops.mul4
        assert fast.tracked == sliced.tracked

    def test_one_shot_wrapper_accepts_exec_path(self):
        rng = np.random.default_rng(9)
        w, x = _sbr_case(rng)
        assert np.array_equal(sibia_gemm(w, x, exec_path="fast").acc,
                              sibia_gemm(w, x, exec_path="sliced").acc)

    def test_rejects_unknown_path(self):
        with pytest.raises(ValueError):
            prepare_sibia(np.zeros((4, 4)), exec_path="turbo")

    def test_state_round_trip_keeps_exec_path(self):
        rng = np.random.default_rng(4)
        w, x = _sbr_case(rng)
        plan = prepare_sibia(w, exec_path="sliced")
        clone = SibiaLayerPlan.from_state(plan.state_dict())
        assert clone.exec_path == "sliced"
        assert np.array_equal(execute_sibia(clone, x).acc,
                              execute_sibia(plan, x).acc)

    def test_legacy_state_defaults_to_fast(self):
        plan = prepare_sibia(np.zeros((4, 4), dtype=np.int64))
        state = plan.state_dict()
        del state["exec_path"]
        assert SibiaLayerPlan.from_state(state).exec_path == "fast"


class TestEngineLevel:
    def test_engine_config_threads_exec_path(self):
        rng = np.random.default_rng(11)
        w, x, zp = _aqs_case(rng)
        engine = get_engine("aqs")
        fast = engine.execute(
            engine.prepare(w, zp, EngineConfig(exec_path="fast")), x)
        sliced = engine.execute(
            engine.prepare(w, zp, EngineConfig(exec_path="sliced")), x)
        assert np.array_equal(fast.acc, sliced.acc)

    def test_engine_config_rejects_unknown_path(self):
        with pytest.raises(ValueError):
            EngineConfig(exec_path="medium")

    def test_execute_many_reuses_plan(self):
        rng = np.random.default_rng(13)
        w, x, zp = _aqs_case(rng)
        xs = [rng.integers(0, 256, x.shape) for _ in range(4)]
        engine = get_engine("aqs")
        plan = engine.prepare(w, zp, EngineConfig())
        results = engine.execute_many(plan, xs)
        assert len(results) == 4
        for x_q, res in zip(xs, results):
            assert np.array_equal(res.acc, engine.execute(plan, x_q).acc)


class _TwoLayer(Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(16, 32, rng=rng)
        self.fc2 = Linear(32, 8, rng=rng)

    def forward(self, x):
        h = np.maximum(self.fc1(x), 0.0)
        return self.fc2(h)


def _converted_output(scheme, x_bits, exec_path, w_granularity):
    rng = np.random.default_rng(0)
    batches = [rng.normal(0, 1, (4, 16)) for _ in range(3)]
    pipe = PtqPipeline(_TwoLayer(), PtqConfig(
        scheme=scheme, x_bits=x_bits, exec_path=exec_path,
        w_granularity=w_granularity))
    pipe.calibrate(batches)
    model = pipe.convert()
    return model(rng.normal(0, 1, (4, 16)))


class TestPipelineLevel:
    @pytest.mark.parametrize("w_granularity", ["per_tensor", "per_channel"])
    @pytest.mark.parametrize("scheme,x_bits", [("aqs", 8), ("sibia", 7)])
    def test_model_outputs_identical(self, scheme, x_bits, w_granularity):
        fast = _converted_output(scheme, x_bits, "fast", w_granularity)
        sliced = _converted_output(scheme, x_bits, "sliced", w_granularity)
        assert np.array_equal(fast, sliced)

    @pytest.mark.parametrize("w_granularity", ["per_tensor", "per_channel"])
    @pytest.mark.parametrize("scheme,x_bits",
                             [("aqs", 8), ("int8_dense", 8), ("sibia", 7)])
    def test_float_dequant_equals_int64_dequant(self, scheme, x_bits,
                                                w_granularity):
        """Adding ``b_hat`` to the BLAS-dtype accumulator in float64 gives
        the int64 add cast to float64, bit for bit."""
        rng = np.random.default_rng(1)
        pipe = PtqPipeline(_TwoLayer(), PtqConfig(
            scheme=scheme, x_bits=x_bits, w_granularity=w_granularity))
        pipe.calibrate([rng.normal(0, 1, (4, 16)) for _ in range(3)])
        model = pipe.convert()
        x = rng.normal(0, 1, (5, 16))
        float_path = model(x)
        for layer in (model.fc1, model.fc2):
            assert layer._b_hat_f64 is not None
            layer._b_hat_f64 = None
        assert np.array_equal(float_path, model(x))

    def test_ptq_config_rejects_unknown_path(self):
        with pytest.raises(ValueError):
            PtqConfig(exec_path="jit")
