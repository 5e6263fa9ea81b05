"""The four builtin engines: fp32, int8_dense, sibia and aqs.

Each engine wraps one kernel's ``prepare_*``/``execute_*`` pair behind the
uniform :class:`~repro.engine.base.Engine` interface and registers itself, so
the PTQ pipeline, the CLI and :class:`PanaceaSession` dispatch by scheme name
through the registry instead of string ``if``/``else`` chains.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.aqs_gemm import AqsGemmConfig, AqsLayerPlan, execute_aqs, prepare_aqs
from ..gemm.dense import Int8DensePlan, execute_int8_dense, prepare_int8_dense
from ..gemm.sibia_gemm import SibiaLayerPlan, execute_sibia, prepare_sibia
from ..gemm.workload import OpCounts
from .base import Engine, EngineConfig, GemmResult, register_engine

__all__ = ["Fp32Engine", "Fp32Plan", "Int8DenseEngine", "SibiaEngine",
           "AqsEngine"]


def _validated(x_q: np.ndarray, k: int, w_shape, dtype) -> np.ndarray:
    """Convert + shape-check one activation batch *before* the timed window.

    Every engine's ``latency_s`` is consumed downstream as kernel cost —
    the profile CLI and the serving records both key on it — so dtype conversion (a full copy for float inputs) and
    validation must not ride inside the ``perf_counter`` window.  The
    kernels still re-check cheaply (an ``asarray`` on an already-converted
    array is a no-op view), keeping them safe to call directly.
    """
    x = np.asarray(x_q, dtype=dtype)
    if x.ndim != 2 or k != x.shape[0]:
        raise ValueError(f"shape mismatch: W is {tuple(w_shape)}, "
                         f"x is {x.shape}")
    return x


@dataclass
class Fp32Plan:
    """Prepared state of the float reference: just the weight matrix."""

    w: np.ndarray
    engine: str = "fp32"

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @property
    def k(self) -> int:
        return self.w.shape[1]

    def state_dict(self) -> dict:
        return {"engine": self.engine, "w": self.w}

    @classmethod
    def from_state(cls, state: dict) -> "Fp32Plan":
        return cls(w=np.asarray(state["w"], dtype=np.float64))


@register_engine
class Fp32Engine(Engine):
    """Float reference: no quantization, no slice skipping, no op ledger."""

    name = "fp32"
    summary = "float64 reference GEMM (no quantization)"
    constraints = "none (bit-width knobs are ignored)"
    plan_type = Fp32Plan

    def prepare(self, w_q: np.ndarray, zp: int = 0,
                config: EngineConfig | None = None) -> Fp32Plan:
        w = np.asarray(w_q, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"W must be 2-D, got shape {w.shape}")
        return Fp32Plan(w=w)

    def execute(self, plan: Fp32Plan, x_q: np.ndarray) -> GemmResult:
        x = _validated(x_q, plan.k, plan.w.shape, np.float64)
        t0 = time.perf_counter()
        acc = plan.w @ x
        return GemmResult(acc=acc, ops=OpCounts(),
                          latency_s=time.perf_counter() - t0)


@register_engine
class Int8DenseEngine(Engine):
    """Dense integer baseline (Eq. 3): the SIMD/systolic workload model."""

    name = "int8_dense"
    summary = "dense integer GEMM with zero-point folded into the bias"
    constraints = "any w_bits/x_bits (stored dense at nibble granularity)"
    plan_type = Int8DensePlan
    uses_zero_point = True

    def prepare(self, w_q: np.ndarray, zp: int = 0,
                config: EngineConfig | None = None) -> Int8DensePlan:
        config = config or EngineConfig()
        return prepare_int8_dense(w_q, w_bits=config.w_bits,
                                  x_bits=config.x_bits,
                                  count_ops=config.count_ops)

    def execute(self, plan: Int8DensePlan, x_q: np.ndarray) -> GemmResult:
        x_q = _validated(x_q, plan.k, plan.w_q.shape, np.int64)
        t0 = time.perf_counter()
        acc, ops = execute_int8_dense(plan, x_q)
        return GemmResult(acc=acc, ops=ops,
                          latency_s=time.perf_counter() - t0)


@register_engine
class SibiaEngine(Engine):
    """Symmetric bit-slice GEMM skipping one side's all-zero HO vectors."""

    name = "sibia"
    summary = "symmetric SBR bit-slice GEMM, skips max(rho_w, rho_x)"
    constraints = "w_bits and x_bits of SBR form 3n+4; symmetric zero-point"
    plan_type = SibiaLayerPlan

    def prepare(self, w_q: np.ndarray, zp: int = 0,
                config: EngineConfig | None = None) -> SibiaLayerPlan:
        config = config or EngineConfig(x_bits=7)
        return prepare_sibia(w_q, w_bits=config.w_bits, x_bits=config.x_bits,
                             v=config.v, tracked=config.tracked,
                             count_ops=config.count_ops,
                             exec_path=config.exec_path)

    def execute(self, plan: SibiaLayerPlan, x_q: np.ndarray) -> GemmResult:
        x_q = _validated(x_q, plan.k, plan.w_q.shape, np.int64)
        t0 = time.perf_counter()
        res = execute_sibia(plan, x_q)
        return GemmResult(acc=res.acc, ops=res.ops, rho_w=res.rho_w,
                          rho_x=res.rho_x, tracked=res.tracked,
                          latency_s=time.perf_counter() - t0,
                          uw_mask=res.uw_mask, ux_mask=res.ux_mask)


@register_engine
class AqsEngine(Engine):
    """The paper's AQS-GEMM: asymmetric slice skipping + Eq. 6 compensation."""

    name = "aqs"
    summary = "asymmetric bit-slice GEMM with ZPM/DBS slice skipping"
    constraints = ("w_bits of SBR form 3n+4; x_bits = 4k+4; "
                   "lo_bits in {4,5,6} (5/6 need x_bits=8)")
    plan_type = AqsLayerPlan
    uses_zero_point = True

    def prepare(self, w_q: np.ndarray, zp: int = 0,
                config: EngineConfig | None = None) -> AqsLayerPlan:
        config = config or EngineConfig()
        kernel_config = AqsGemmConfig(
            w_bits=config.w_bits, x_bits=config.x_bits,
            lo_bits=config.lo_bits, v=config.v,
            index_bits=config.index_bits, count_ops=config.count_ops,
            exec_path=config.exec_path)
        return prepare_aqs(w_q, zp, kernel_config)

    def execute(self, plan: AqsLayerPlan, x_q: np.ndarray) -> GemmResult:
        x_q = _validated(x_q, plan.k, plan.w_q.shape, np.int64)
        t0 = time.perf_counter()
        res = execute_aqs(plan, x_q)
        # The kernel's ledger stays pending on the engine result.
        return GemmResult(acc=res.acc, ops=None, rho_w=res.rho_w,
                          rho_x=None, r=res.r,
                          latency_s=time.perf_counter() - t0,
                          uw_mask=res.uw_mask, ux_mask=res.ux_mask,
                          ledger_plan=res.ledger_plan)
