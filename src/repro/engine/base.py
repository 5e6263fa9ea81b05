"""Engine protocol, prepared layer plans and the engine registry.

Panacea's weight-side work — SBR slicing, all-zero HO vector masks, RLE
index sizing and the Eq. 6 compensation bias — is all static per layer and
computed "offline" in the paper.  The engine abstraction makes that split
explicit:

* :meth:`Engine.prepare` runs once per layer and returns a *layer plan*
  holding every weight-derived artifact;
* :meth:`Engine.execute` runs per request and touches only the activation
  path, so repeated inference amortizes the weight-side cost to zero.

Engines register themselves under a scheme name (``fp32``, ``int8_dense``,
``sibia``, ``aqs``); the PTQ pipeline, the CLI and :class:`PanaceaSession`
all dispatch through :func:`get_engine` instead of string ``if``/``else``.

This module is dependency-free within the package (NumPy only) so kernel
modules can import plan/result types without cycles; the builtin engines in
:mod:`repro.engine.engines` are registered lazily on first lookup.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any, ClassVar, Iterable, Protocol, runtime_checkable

import numpy as np

from ..gemm.workload import DeferredLedger, OpCounts, validate_exec_path

__all__ = [
    "EngineConfig",
    "GemmResult",
    "LayerPlan",
    "Engine",
    "register_engine",
    "get_engine",
    "engine_names",
    "available_engines",
    "plan_from_state",
]


@dataclass(frozen=True)
class EngineConfig:
    """Scheme-agnostic engine knobs; each engine validates what it uses.

    ``w_bits``/``x_bits`` are the stored operand widths, ``lo_bits`` the DBS
    split ``l`` (AQS only), ``v`` the slice-vector length, ``index_bits`` the
    RLE index width and ``tracked`` the exploited side (Sibia only).
    ``exec_path`` selects the online BLAS strategy of the bit-slice kernels:
    ``"fast"`` (one exact GEMM, the default) or ``"sliced"`` (one call per
    plane pair — the bit-exact verification reference).
    """

    w_bits: int = 7
    x_bits: int = 8
    lo_bits: int = 4
    v: int = 4
    index_bits: int = 4
    count_ops: bool = True
    tracked: str = "auto"
    exec_path: str = "fast"

    def __post_init__(self) -> None:
        validate_exec_path(self.exec_path)


@dataclass
class GemmResult:
    """Uniform per-request result every engine's ``execute`` returns.

    ``acc`` holds exact integers in the kernel's BLAS dtype and excludes the
    Eq. 3 zero-point bias fold (the caller applies ``b_hat``); ``r`` is the
    compressible activation HO slice (AQS only) and ``tracked`` the
    exploited side (Sibia only).  ``latency_s`` is the wall-clock time of
    the kernel call — the one measurement path the serving scheduler and
    the benchmarks both read; it excludes a pending ledger.

    The AQS engine returns its ledger pending: ``ops`` and ``rho_x`` are
    ``None`` underneath, ``ledger_plan`` holds the plan, and the first read
    of either fills both from ``ux_mask`` (see
    :class:`~repro.gemm.workload.DeferredLedger`).  Quantized layers hand
    the pending ledger on to their :class:`~repro.core.pipeline.LayerExecution`
    unread, so a forward's ledgers are filled in one batch.
    """

    acc: np.ndarray
    ops: OpCounts = DeferredLedger()
    rho_w: float = 0.0
    rho_x: float = DeferredLedger(0.0)
    r: int = 0
    tracked: str | None = None
    latency_s: float = 0.0
    uw_mask: np.ndarray | None = field(default=None, repr=False)
    ux_mask: np.ndarray | None = field(default=None, repr=False)
    ledger_plan: Any = field(default=None, repr=False)


@runtime_checkable
class LayerPlan(Protocol):
    """Duck type of a prepared layer: a tagged, serializable weight bundle."""

    engine: str

    def state_dict(self) -> dict: ...


class Engine(abc.ABC):
    """One GEMM execution scheme, split into offline and online phases."""

    #: Registry key (the scheme name used by :class:`PtqConfig`).
    name: ClassVar[str]
    #: One-line description for the CLI listing.
    summary: ClassVar[str] = ""
    #: Human-readable configuration constraints for the CLI listing.
    constraints: ClassVar[str] = ""
    #: Plan class produced by :meth:`prepare` (used by :func:`plan_from_state`).
    plan_type: ClassVar[type | None] = None
    #: Whether :meth:`prepare` consumes the activation zero-point.  Callers
    #: (the PTQ pipeline) pass ``zp`` only when this is set, so symmetric
    #: engines cannot silently receive a meaningless one — and custom
    #: asymmetric engines declare the need instead of being name-matched.
    uses_zero_point: ClassVar[bool] = False

    @abc.abstractmethod
    def prepare(self, w_q: np.ndarray, zp: int,
                config: EngineConfig | None = None) -> Any:
        """Run the offline weight path once; returns the layer plan."""

    @abc.abstractmethod
    def execute(self, plan: Any, x_q: np.ndarray) -> GemmResult:
        """Run the per-request activation path against a prepared plan."""

    def execute_many(self, plan: Any,
                     xs: "Iterable[np.ndarray]") -> list[GemmResult]:
        """Execute a request list against one prepared plan.

        The batching entry point of the two-phase split: every weight-side
        artifact is read from ``plan``, so serving ``len(xs)`` requests costs
        exactly ``len(xs)`` activation paths and zero weight work.  Engines
        may override this to fuse requests; the default executes in order.

        Every returned result carries ``latency_s``; custom engines whose
        ``execute`` leaves it at zero get it backfilled here so schedulers
        always see a measurement.
        """
        results = []
        for x_q in xs:
            t0 = time.perf_counter()
            res = self.execute(plan, x_q)
            if res.latency_s == 0.0:
                res.latency_s = time.perf_counter() - t0
            results.append(res)
        return results

    def run(self, w_q: np.ndarray, x_q: np.ndarray, zp: int,
            config: EngineConfig | None = None) -> GemmResult:
        """One-shot prepare + execute (the legacy unprepared call path)."""
        return self.execute(self.prepare(w_q, zp, config), x_q)


_REGISTRY: dict[str, type[Engine]] = {}
_INSTANCES: dict[str, Engine] = {}


def register_engine(cls: type[Engine], *, replace: bool = False) -> type[Engine]:
    """Register an :class:`Engine` subclass under ``cls.name``.

    Usable as a class decorator.  Re-registering a taken name raises unless
    ``replace=True`` (tests swap in instrumented engines that way).
    """
    name = getattr(cls, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError(f"{cls!r} needs a non-empty string `name` attribute")
    if not replace and name in _REGISTRY and _REGISTRY[name] is not cls:
        raise ValueError(f"engine {name!r} is already registered")
    _REGISTRY[name] = cls
    _INSTANCES.pop(name, None)
    return cls


def _ensure_builtins() -> None:
    if "aqs" not in _REGISTRY:
        from . import engines  # noqa: F401  (registers the builtin engines)


def get_engine(name: str) -> Engine:
    """Look up a registered engine by scheme name (instances are cached)."""
    _ensure_builtins()
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown engine {name!r}; registered: {engine_names()}")
    if name not in _INSTANCES:
        _INSTANCES[name] = _REGISTRY[name]()
    return _INSTANCES[name]


def engine_names() -> tuple[str, ...]:
    """Names of all registered engines, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def available_engines() -> dict[str, type[Engine]]:
    """Snapshot of the registry (name -> engine class)."""
    _ensure_builtins()
    return dict(_REGISTRY)


def plan_from_state(state: dict) -> Any:
    """Rebuild a layer plan from ``plan.state_dict()`` output."""
    engine_cls = available_engines()[state["engine"]]
    if engine_cls.plan_type is None:
        raise TypeError(f"engine {state['engine']!r} has no plan type")
    return engine_cls.plan_type.from_state(state)
