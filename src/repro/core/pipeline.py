"""End-to-end PTQ calibration and quantized inference (paper Fig. 6).

The pipeline follows the paper's flow exactly:

1. **Calibration** — run a small calibration set through the FP model with
   observers attached to every ``Linear``/``Conv2d`` input; derive Eq. 1
   weight parameters and Eq. 2 activation parameters.
2. **ZPM + DBS** — adjust each layer's zero-point (Eq. 7) and pick its DBS
   type from the quantized-code histogram's standard deviation.
3. **Conversion** — swap each GEMM layer for a quantized layer bound to one
   of the registered engines: ``fp32`` (reference), ``int8_dense`` (Eq. 3,
   the SIMD/systolic baselines), ``sibia`` (symmetric bit-slice GEMM) or
   ``aqs`` (the paper's AQS-GEMM).  Conversion runs each engine's
   ``prepare`` once per layer, so all weight-side work (slicing, masks, RLE
   sizing, compensation bias) is cached in a :class:`LayerPlan` and never
   recomputed per request.
4. **Inference** — quantized layers re-quantize their inputs on the fly,
   ``execute`` their cached plan and log per-layer sparsity and op counts
   into an :class:`ExecutionTrace` the hardware model consumes.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..engine.base import EngineConfig, get_engine
from ..gemm.dense import exact_bias_f64, fold_bias
from ..nn.layers import Conv2d, Linear, im2col
from ..nn.module import Module
from ..quant.observers import HistogramObserver, make_observer
from ..quant.uniform import QuantParams, quantize, symmetric_params
from ..gemm.workload import OpCounts, validate_exec_path
from .aqs_gemm import aqs_ledgers
from .dbs import DbsDecision, DbsType, dbs_calibrate
from .zpm import manipulate_zero_point

__all__ = [
    "PtqConfig",
    "LayerQuantRecord",
    "LayerExecution",
    "ExecutionTrace",
    "QuantizedLinear",
    "QuantizedConv2d",
    "PtqPipeline",
    "SCHEMES",
]

#: Builtin scheme names; mirrors the engine registry
#: (:func:`repro.engine.base.engine_names`), which is the source of truth.
SCHEMES = ("fp32", "int8_dense", "sibia", "aqs")


@dataclass(frozen=True)
class PtqConfig:
    """Quantization scheme configuration for one model conversion."""

    scheme: str = "aqs"
    w_bits: int = 7
    x_bits: int = 8
    enable_zpm: bool = True
    enable_dbs: bool = True
    z: float = 2.0
    v: int = 4
    observer: str = "histogram"
    per_layer_w_bits: dict = field(default_factory=dict)
    per_layer_x_bits: dict = field(default_factory=dict)
    #: Panacea's symmetric mode (Fig. 18a): "setting every zero-point to 128
    #: within the 8-bit range" — a symmetric range mapped onto the unsigned
    #: AQS-GEMM format.
    force_symmetric_zp: bool = False
    #: "per_tensor" (default) or "per_channel" weight scales.  Per-channel
    #: preserves externally-prepared grids (e.g. OPTQ's per-row scales).
    w_granularity: str = "per_tensor"
    #: RLE index width used by the bit-slice engines' EMA accounting.
    index_bits: int = 4
    #: Exploited side of the Sibia engine ("weight", "activation", "auto").
    tracked: str = "auto"
    #: Online BLAS strategy of the bit-slice engines ("fast" or "sliced").
    exec_path: str = "fast"

    def __post_init__(self) -> None:
        from ..engine.base import engine_names

        names = engine_names()
        if self.scheme not in names:
            raise ValueError(f"scheme must be one of {names}, got {self.scheme!r}")
        if self.tracked not in ("auto", "weight", "activation"):
            raise ValueError(
                f"tracked must be auto/weight/activation, got {self.tracked!r}")
        validate_exec_path(self.exec_path)
        if self.scheme == "sibia" and (self.x_bits - 4) % 3:
            raise ValueError(
                f"sibia needs SBR-formatted activations (3k+4 bits); "
                f"got x_bits={self.x_bits}"
            )
        if self.scheme in ("sibia", "aqs") and (self.w_bits - 4) % 3:
            raise ValueError(
                f"bit-slice schemes need SBR-formatted weights (3n+4 bits); "
                f"got w_bits={self.w_bits}"
            )

    @classmethod
    def for_scheme(cls, scheme: str, **overrides) -> "PtqConfig":
        """Config with the scheme's natural activation width applied.

        The one home of the "sibia stores 7-bit SBR activations, everything
        else 8-bit" rule, so deployment helpers and the CLI cannot drift.
        Explicit ``x_bits`` in ``overrides`` wins.
        """
        overrides.setdefault("x_bits", 7 if scheme == "sibia" else 8)
        return cls(scheme=scheme, **overrides)

    def weight_bits_for(self, name: str) -> int:
        return self.per_layer_w_bits.get(name, self.w_bits)

    def activation_bits_for(self, name: str) -> int:
        return self.per_layer_x_bits.get(name, self.x_bits)


@dataclass
class LayerQuantRecord:
    """Everything calibration decided about one GEMM layer."""

    name: str
    w_q: np.ndarray
    w_params: QuantParams
    x_params: QuantParams
    dbs: DbsDecision | None
    w_bits: int
    x_bits: int

    @property
    def zp(self) -> int:
        if self.x_params.is_symmetric:
            return 0
        return int(np.max(self.x_params.zero_point))

    @property
    def lo_bits(self) -> int:
        return self.dbs.lo_bits if self.dbs is not None else 4


@dataclass
class LayerExecution:
    """One observed layer execution: shape, sparsity and op counts.

    An AQS layer call hands its engine's pending ledger on unread:
    ``ops`` and ``rho_x`` are ``None`` and ``ledger_plan`` and ``ux_mask``
    are set.  :class:`ExecutionTrace` fills the record when the capture
    that collected it closes, or at once when it is added outside a
    capture, so only code inside an open capture can see it pending.
    """

    name: str
    m: int
    k: int
    n: int
    rho_w: float
    rho_x: float | None
    ops: OpCounts | None
    scheme: str
    w_bits: int
    x_bits: int
    lo_bits: int = 4
    #: Wall-clock seconds of this layer call (quantize + execute +
    #: dequantize), measured by the quantized layer itself so the serving
    #: records and the profiler share one measurement path.  The ledger is
    #: filled outside it.
    latency_s: float = 0.0
    uw_mask: np.ndarray | None = field(default=None, repr=False)
    ux_mask: np.ndarray | None = field(default=None, repr=False)
    ledger_plan: Any = field(default=None, repr=False)


class ExecutionTrace:
    """Accumulates :class:`LayerExecution` records across a forward pass.

    ``records`` collects every layer call made outside a capture — the
    ledger of a caller that runs ``PtqPipeline.convert(trace=...)`` models
    directly.  :meth:`capture` redirects collection: while a capture is
    active on a thread, that thread's :meth:`add` calls land in the
    capture's local list instead of ``records``.  Every
    :class:`~repro.engine.session.PanaceaSession` serving path collects
    this way, so a serving session's ``records`` stays empty, and several
    threads can execute the same layer modules concurrently without
    interleaving their records.

    Pending AQS ledgers are filled in one batch when a capture closes
    (:func:`~repro.core.aqs_gemm.aqs_ledgers`), and at once for a record
    added outside a capture; either way every record a caller sees carries
    its ``ops`` and ``rho_x``.
    """

    def __init__(self, keep_masks: bool = False) -> None:
        self.records: list[LayerExecution] = []
        self.keep_masks = keep_masks
        self._capture = threading.local()

    def add(self, record: LayerExecution) -> None:
        sink = getattr(self._capture, "sink", None)
        if sink is not None:
            sink.append(record)
        else:
            self._fill([record])
            self.records.append(record)

    @contextmanager
    def capture(self):
        """Redirect this thread's ``add`` calls into a local list.

        Yields the list; on exit the previous sink (captures nest) is
        restored and the captured records' pending ledgers are filled.
        Records captured here are *not* in :attr:`records` — the caller
        decides what to do with them (e.g. fold them into a session's
        lifetime counters with
        :meth:`~repro.engine.session.PanaceaSession.record_external`).
        """
        outer = getattr(self._capture, "sink", None)
        sink: list[LayerExecution] = []
        self._capture.sink = sink
        try:
            yield sink
        finally:
            self._capture.sink = outer
        self._fill(sink)

    def _fill(self, records: list[LayerExecution]) -> None:
        """Fill the pending ledgers of ``records`` in one batch, then drop
        the masks unless ``keep_masks``."""
        pending = [rec for rec in records if rec.ledger_plan is not None]
        if pending:
            ledgers = aqs_ledgers([(rec.ledger_plan, rec.ux_mask)
                                   for rec in pending])
            for rec, (ops, rho_x) in zip(pending, ledgers):
                rec.ops, rec.rho_x = ops, rho_x
                rec.ledger_plan = None
        if not self.keep_masks:
            for rec in records:
                rec.uw_mask = None
                rec.ux_mask = None

    def clear(self) -> None:
        self.records.clear()

    def total_ops(self) -> OpCounts:
        total = OpCounts()
        for rec in self.records:
            total = total.merge(rec.ops)
        return total

    def by_layer(self) -> dict[str, list[LayerExecution]]:
        grouped: dict[str, list[LayerExecution]] = {}
        for rec in self.records:
            grouped.setdefault(rec.name, []).append(rec)
        return grouped


class _QuantizedGemmBase(Module):
    """Shared machinery of the quantized Linear/Conv layers.

    Construction is the offline phase: the scheme's engine is resolved from
    the registry and its ``prepare`` runs once, caching every weight-side
    artifact in ``self.plan``.  Forward calls only ``execute`` the plan.

    A precomputed ``plan`` (e.g. rehydrated from a
    :class:`~repro.serve.store.PlanStore`) skips ``prepare`` entirely — the
    restore path pays zero weight-side work.
    """

    def __init__(self, name: str, record: LayerQuantRecord, config: PtqConfig,
                 bias: np.ndarray | None,
                 trace: ExecutionTrace | None, count_ops: bool,
                 plan=None) -> None:
        super().__init__()
        self.name = name
        self.record = record
        self.config = config
        self.scheme = config.scheme
        self.v = config.v
        self.trace = trace
        self.count_ops = count_ops
        self._bias = bias
        self.engine = get_engine(config.scheme)
        zp = record.zp if self.engine.uses_zero_point else 0
        if plan is not None:
            if getattr(plan, "engine", None) != config.scheme:
                raise ValueError(
                    f"layer {name!r}: injected plan is for engine "
                    f"{getattr(plan, 'engine', None)!r}, scheme is "
                    f"{config.scheme!r}")
            self.plan = plan
        else:
            self.plan = self.engine.prepare(record.w_q, zp, EngineConfig(
                w_bits=record.w_bits, x_bits=record.x_bits,
                lo_bits=record.lo_bits, v=config.v, count_ops=count_ops,
                index_bits=config.index_bits, tracked=config.tracked,
                exec_path=config.exec_path))
        bias_int = None
        if bias is not None:
            # Fold the bias at the same granularity `_gemm` dequantizes at:
            # per-channel weight scales need per-channel integer biases, or
            # every channel whose scale is below the max gets a scaled-down
            # bias after dequantization.
            w_scale = np.asarray(record.w_params.scale,
                                 dtype=np.float64).reshape(-1)
            combined = w_scale * float(np.max(record.x_params.scale))
            bias_int = np.rint(bias / combined).astype(np.int64)
        self._b_hat = fold_bias(record.w_q, bias_int, zp)
        # Per-output-channel dequant scale, fixed once calibration is done.
        self._scale = (np.asarray(record.w_params.scale).reshape(-1, 1)
                       * np.asarray(record.x_params.scale).max())
        if self.scheme == "aqs" and record.lo_bits > 4:
            # DBS truncation drops the l-4 LSBs (floor), a systematic
            # per-value deficit of ((2^(l-4)-1)/2) codes on average.  Like
            # b' in Eq. 6, its expectation only involves the weight row sums
            # and is folded into the bias offline.
            mean_deficit = ((1 << (record.lo_bits - 4)) - 1) / 2.0
            correction = np.rint(
                mean_deficit * record.w_q.sum(axis=1)).astype(np.int64)
            self._b_hat = self._b_hat + correction
        # Every engine's codes fit |x| < 2^x_bits, so when the bias add is
        # proven exact in float64 the accumulator is dequantized without an
        # int64 round trip.
        self._b_hat_f64 = exact_bias_f64(record.w_q, (1 << record.x_bits) - 1,
                                         self._b_hat)

    def _gemm(self, x2d: np.ndarray) -> np.ndarray:
        """Quantize ``(K, N)`` float activations, execute the plan, dequantize."""
        record = self.record
        t0 = time.perf_counter()
        x_q = quantize(x2d, record.x_params)
        result = self.engine.execute(self.plan, x_q)
        if self._b_hat_f64 is not None:
            out = np.add(result.acc, self._b_hat_f64, dtype=np.float64)
        else:
            out = (result.acc.astype(np.int64)
                   + self._b_hat[:, None]).astype(np.float64)
        out *= self._scale
        if self.trace is not None:
            m, k = record.w_q.shape
            # A pending ledger is handed on unread; the trace fills it.
            pending = result.ledger_plan is not None
            self.trace.add(LayerExecution(
                name=self.name, m=m, k=k, n=x2d.shape[1],
                rho_w=result.rho_w,
                rho_x=None if pending else result.rho_x,
                ops=None if pending else result.ops,
                scheme=self.scheme, w_bits=record.w_bits,
                x_bits=record.x_bits, lo_bits=record.lo_bits,
                latency_s=time.perf_counter() - t0,
                uw_mask=result.uw_mask, ux_mask=result.ux_mask,
                ledger_plan=result.ledger_plan,
            ))
        return out


class QuantizedLinear(_QuantizedGemmBase):
    """Drop-in quantized replacement for :class:`repro.nn.Linear`."""

    def __init__(self, name: str, linear: Linear, record: LayerQuantRecord,
                 config: PtqConfig, trace: ExecutionTrace | None = None,
                 count_ops: bool = False, plan=None) -> None:
        super().__init__(name, record, config, linear.bias, trace, count_ops,
                         plan=plan)
        self.in_features = linear.in_features
        self.out_features = linear.out_features

    def forward(self, x: np.ndarray) -> np.ndarray:
        lead = x.shape[:-1]
        x2d = x.reshape(-1, x.shape[-1]).T  # (K, N)
        out = self._gemm(x2d)               # (M, N)
        return out.T.reshape(*lead, self.out_features)


class QuantizedConv2d(_QuantizedGemmBase):
    """Drop-in quantized replacement for :class:`repro.nn.Conv2d`."""

    def __init__(self, name: str, conv: Conv2d, record: LayerQuantRecord,
                 config: PtqConfig, trace: ExecutionTrace | None = None,
                 count_ops: bool = False, plan=None) -> None:
        super().__init__(name, record, config, conv.bias, trace, count_ops,
                         plan=plan)
        self.kernel_size = conv.kernel_size
        self.stride = conv.stride
        self.padding = conv.padding
        self.out_channels = conv.out_channels

    def forward(self, x: np.ndarray) -> np.ndarray:
        cols, oh, ow = im2col(x, self.kernel_size, self.kernel_size,
                              self.stride, self.padding)
        out = self._gemm(cols)
        b = x.shape[0]
        return out.reshape(self.out_channels, b, oh, ow).transpose(1, 0, 2, 3)


class PtqPipeline:
    """Calibrate a float model and convert it to a quantized one."""

    def __init__(self, model: Module, config: PtqConfig | None = None) -> None:
        self.model = model
        self.config = config or PtqConfig()
        self.records: dict[str, LayerQuantRecord] = {}
        self._observers: dict = {}

    # -- step 1+2: calibration ------------------------------------------------
    def calibrate(self, batches) -> dict[str, LayerQuantRecord]:
        """Observe activations over ``batches`` and derive all parameters."""
        cfg = self.config
        symmetric_x = cfg.scheme == "sibia"
        removers = []
        observers: dict[str, HistogramObserver] = {}
        for name, module in self.model.named_modules():
            if not isinstance(module, (Linear, Conv2d)):
                continue
            obs = make_observer(cfg.observer,
                                bits=cfg.activation_bits_for(name),
                                symmetric=symmetric_x)
            observers[name] = obs
            removers.append(self._attach(module, obs))
        try:
            for batch in batches:
                self.model(batch)
        finally:
            for remove in removers:
                remove()

        for name, module in self.model.named_modules():
            if name not in observers:
                continue
            self.records[name] = self._make_record(name, module,
                                                   observers[name])
        return self.records

    def _attach(self, module: Module, observer) -> callable:
        def hook(_module, args, _out) -> None:
            x = args[0]
            if isinstance(module, Conv2d):
                cols, _, _ = im2col(x, module.kernel_size, module.kernel_size,
                                    module.stride, module.padding)
                observer.observe(cols)
            else:
                observer.observe(x)

        return module.register_forward_hook(hook)

    def _make_record(self, name: str, module: Module,
                     observer) -> LayerQuantRecord:
        cfg = self.config
        w_bits = cfg.weight_bits_for(name)
        x_bits = cfg.activation_bits_for(name)
        weight = (module.weight_matrix if isinstance(module, Conv2d)
                  else module.weight)
        axis = 0 if cfg.w_granularity == "per_channel" else None
        w_params = symmetric_params(weight, w_bits, axis=axis)
        w_q = quantize(weight, w_params)
        x_params = observer.params()
        if cfg.force_symmetric_zp and cfg.scheme == "aqs":
            from ..quant.uniform import params_from_range

            lo, hi = observer.range()
            amax = max(abs(lo), abs(hi))
            x_params = params_from_range(-amax, amax, x_bits,
                                         symmetric=False)
        dbs: DbsDecision | None = None
        if cfg.scheme == "aqs":
            if (cfg.enable_dbs and x_bits == 8
                    and isinstance(observer, HistogramObserver)):
                zp_obs = int(np.max(x_params.zero_point))
                dbs = dbs_calibrate(
                    x_params, observer.quantized_std(), z=cfg.z,
                    enable_zpm=cfg.enable_zpm,
                    sparsity_at_l4=observer.in_skip_fraction(zp_obs, 4))
            else:
                zp = int(np.max(x_params.zero_point))
                if cfg.enable_zpm:
                    zp = manipulate_zero_point(zp, 4)
                dbs = DbsDecision(dbs_type=DbsType(type_id=1, lo_bits=4),
                                  zp=zp, r=zp >> 4, std=0.0, z=cfg.z)
            if cfg.enable_zpm and not cfg.force_symmetric_zp:
                # The ZPM shift would clip live codes at a range edge, so
                # reserve exactly |shift| codes on the side the shift vacates
                # and cap the shift at +/-8 — "the slight distribution shift
                # of the ZPM does not cause a considerable change in
                # accuracy" presumes the shift is small and clip-free.  For
                # DBS type-2/3 the (near-)centred zero-point still lands
                # well inside the 2x/4x wider skip range.
                lo, hi = observer.range()
                lo, hi = min(lo, 0.0), max(hi, 0.0)
                qmax = (1 << x_bits) - 1
                scale0 = max(hi - lo, 1e-12) / qmax
                zp_nominal = int(np.rint(-lo / scale0))
                shift = int(np.clip(
                    manipulate_zero_point(zp_nominal, dbs.lo_bits)
                    - zp_nominal, -8, 8))
                scale = max(hi - lo, 1e-12) / (qmax - abs(shift))
                zp_base = int(np.rint(-lo / scale)) + max(0, -shift)
                zp1 = zp_base + shift
                x_params = QuantParams(scale=scale, zero_point=zp1,
                                       bits=x_bits, signed=False)
                dbs = DbsDecision(dbs_type=dbs.dbs_type, zp=zp1,
                                  r=zp1 >> dbs.lo_bits, std=dbs.std,
                                  z=dbs.z)
            else:
                x_params = x_params.with_zero_point(dbs.zp)
        return LayerQuantRecord(name=name, w_q=w_q, w_params=w_params,
                                x_params=x_params, dbs=dbs, w_bits=w_bits,
                                x_bits=x_bits)

    # -- step 3: conversion ----------------------------------------------------
    def convert(self, trace: ExecutionTrace | None = None,
                count_ops: bool = False,
                plans: dict | None = None) -> Module:
        """Swap calibrated GEMM layers for quantized ones (in place).

        Each replacement layer runs its engine's ``prepare`` exactly once
        here, so conversion is the offline phase: subsequent forward passes
        execute cached :class:`LayerPlan`\\ s with no weight-side work.

        ``plans`` injects precomputed layer plans by dotted name (the
        :class:`~repro.serve.store.PlanStore` restore path); layers with an
        injected plan skip ``prepare`` entirely, so restoring a persisted
        model pays zero weight-side work.  Every record must have a plan —
        a partial mapping raises, because silently re-preparing would mask a
        corrupt or incomplete store.
        """
        if self.config.scheme == "fp32":
            return self.model
        if not self.records:
            raise RuntimeError("calibrate() must run before convert()")
        if plans is not None:
            missing = sorted(set(self.records) - set(plans))
            if missing:
                raise KeyError(
                    f"injected plans are missing layers {missing}; the store "
                    "does not match this model's calibration records")
        for name, record in self.records.items():
            module = dict(self.model.named_modules())[name]
            plan = plans[name] if plans is not None else None
            if isinstance(module, Conv2d):
                replacement = QuantizedConv2d(name, module, record,
                                              self.config, trace, count_ops,
                                              plan=plan)
            else:
                replacement = QuantizedLinear(name, module, record,
                                              self.config, trace, count_ops,
                                              plan=plan)
            self.model.replace_child(name, replacement)
        return self.model

    def plans(self) -> dict:
        """The prepared layer plans of the converted model, by layer name."""
        return {module.name: module.plan
                for _, module in self.model.named_modules()
                if isinstance(module, _QuantizedGemmBase)}
