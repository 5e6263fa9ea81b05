"""repro — a reproduction of Panacea (HPCA 2025).

Panacea is a DNN accelerator built around the Asymmetrically-Quantized
bit-Slice GEMM (AQS-GEMM), which compresses and skips the frequent nonzero
high-order bit-slices that asymmetric activation quantization produces, plus
two algorithm/hardware co-optimizations (zero-point manipulation and
distribution-based bit-slicing) and a sparsity-aware PE architecture.

Public API layers:

* ``repro.quant`` — uniform PTQ quantization, observers, OPTQ;
* ``repro.bitslice`` — slice formats (SBR/straightforward/DBS), vectors, RLE;
* ``repro.gemm`` — dense-integer and Sibia baseline GEMM kernels;
* ``repro.core`` — AQS-GEMM, ZPM, DBS, and the PTQ pipeline;
* ``repro.engine`` — the prepare/execute engine registry and
  :class:`PanaceaSession` for multi-batch serving over cached layer plans;
* ``repro.serve`` — the serving subsystem: :class:`ModelServer` multi-model
  hosting, :class:`BatchPolicy` dynamic micro-batching and the persistent
  :class:`PlanStore`;
* ``repro.nn`` / ``repro.models`` — the NumPy NN substrate and model zoo;
* ``repro.hw`` — Panacea / Sibia / systolic / SIMD performance models;
* ``repro.eval`` — experiment drivers reproducing the paper's figures.
"""

from . import bitslice, core, engine, gemm, nn, quant, serve
from .core import (
    AqsGemmConfig,
    ExecutionTrace,
    PtqConfig,
    PtqPipeline,
    aqs_gemm,
    dbs_calibrate,
    manipulate_zero_point,
)
from .engine import (
    EngineConfig,
    PanaceaSession,
    available_engines,
    engine_names,
    get_engine,
    register_engine,
)
from .quant import QuantParams, asymmetric_params, quantize, symmetric_params
from .serve import BatchPolicy, ModelServer, PlanStore

__version__ = "1.0.0"

__all__ = [
    "bitslice",
    "core",
    "engine",
    "gemm",
    "nn",
    "quant",
    "serve",
    "BatchPolicy",
    "ModelServer",
    "PlanStore",
    "EngineConfig",
    "PanaceaSession",
    "available_engines",
    "engine_names",
    "get_engine",
    "register_engine",
    "AqsGemmConfig",
    "ExecutionTrace",
    "PtqConfig",
    "PtqPipeline",
    "aqs_gemm",
    "dbs_calibrate",
    "manipulate_zero_point",
    "QuantParams",
    "asymmetric_params",
    "quantize",
    "symmetric_params",
    "__version__",
]
