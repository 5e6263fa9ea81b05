"""Sibia-style symmetric bit-slice GEMM (paper Section II-B, Fig. 4).

Sibia [53] quantizes both operands symmetrically, slices both with the SBR,
groups HO slices into ``v``-length vectors, and skips the slice products that
involve the *tracked* side's HO plane wherever that side's vector is all
zero.  Per Table I it exploits ``max(rho_w, rho_x)`` — one side's sparsity —
and ships dense operands over DRAM.

Skipping all-zero vectors is exact, so the result always equals the plain
integer GEMM; what differs from the AQS-GEMM is *which* workloads can be
skipped (none, under asymmetric quantization).

Like the AQS-GEMM, execution is two-phase: :func:`prepare_sibia` runs the
static weight path once into a :class:`SibiaLayerPlan` and
:func:`execute_sibia` runs the per-request activation path.  The one-shot
:func:`sibia_gemm` wraps the two, bit-exactly.

``exec_path`` selects the online BLAS strategy.  ``"sliced"`` issues one
call per (weight plane, activation plane) pair, mirroring the hardware loop.
``"fast"`` (default) issues a single ``W @ x`` call on the plan's BLAS
mirror of ``W`` (float32 when :func:`~repro.gemm.dense.exact_blas_dtype`
proves it exact for ``x_bits``-wide activations, float64 otherwise): the SBR
planes reconstruct both operands exactly and the tracked-side mask only
zeroes vectors that are already all-zero, so the collapsed product is
bit-identical to the accumulated slice products.  The fast path never
slices the activation: SBR's HO slice is zero exactly on one interval of
codes (:func:`~repro.bitslice.slicing.sbr_ho_zero_range`), so the
activation mask is read off the codes themselves.  The op ledger is
mask-derived and identical on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bitslice.slicing import (SliceStack, check_signed_range,
                                sbr_ho_zero_range, slice_sbr)
from ..bitslice.vectors import (
    activation_vector_mask,
    expand_activation_mask,
    expand_weight_mask,
    vector_sparsity,
    weight_vector_mask,
)
from .dense import exact_blas_dtype, exact_matmul
from .workload import OpCounts, validate_exec_path

__all__ = ["SibiaGemmResult", "SibiaLayerPlan", "sibia_gemm", "prepare_sibia",
           "execute_sibia"]


@dataclass(frozen=True)
class SibiaGemmResult:
    """Integer accumulators plus measured op counts and observed sparsities."""

    acc: np.ndarray
    ops: OpCounts
    rho_w: float
    rho_x: float
    tracked: str
    uw_mask: np.ndarray | None = field(repr=False, default=None)
    ux_mask: np.ndarray | None = field(repr=False, default=None)


@dataclass
class SibiaLayerPlan:
    """Static weight-side state of the Sibia GEMM, computed once.

    ``tracked`` keeps the *requested* side; ``"auto"`` is resolved per
    request because it compares against the activation sparsity.  When the
    weight has a single slice there is no HO plane to skip and the mask is
    forced dense (``single_w_slice``).  ``exec_path`` picks the online BLAS
    strategy (``"fast"`` or ``"sliced"``).  The weight-only ledger term
    ``sum_uw`` is derived on construction, so the stored format carries
    none.
    """

    w_q: np.ndarray
    w_bits: int
    x_bits: int
    v: int
    tracked: str
    count_ops: bool
    w_stack: SliceStack
    uw: np.ndarray
    rho_w: float
    single_w_slice: bool
    engine: str = "sibia"
    exec_path: str = "fast"
    _w_planes_f64: tuple[np.ndarray, ...] | None = field(
        init=False, repr=False, default=None)
    _w_blas: np.ndarray | None = field(init=False, repr=False, default=None)
    sum_uw: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.sum_uw = int(self.uw.sum())

    @property
    def w_blas(self) -> np.ndarray:
        """Exact BLAS weight mirror, built lazily (fast path only).

        SBR activations satisfy ``|x| <= 2^(x_bits-1)`` (both exec paths
        range-check them), which is the bound the dtype is sized for.
        """
        if self._w_blas is None:
            self._w_blas = self.w_q.astype(
                exact_blas_dtype(self.w_q, 1 << (self.x_bits - 1)),
                copy=False)
        return self._w_blas

    @property
    def w_planes_f64(self) -> tuple[np.ndarray, ...]:
        """Per-plane float64 mirrors, built lazily (sliced path only)."""
        if self._w_planes_f64 is None:
            self._w_planes_f64 = tuple(p.astype(np.float64)
                                       for p in self.w_stack.planes)
        return self._w_planes_f64

    @property
    def m(self) -> int:
        return self.w_q.shape[0]

    @property
    def k(self) -> int:
        return self.w_q.shape[1]

    def state_dict(self) -> dict:
        return {
            "engine": self.engine,
            "w_q": self.w_q,
            "w_bits": self.w_bits,
            "x_bits": self.x_bits,
            "v": self.v,
            "tracked": self.tracked,
            "count_ops": self.count_ops,
            "w_stack": self.w_stack.to_state(),
            "uw": self.uw,
            "rho_w": self.rho_w,
            "single_w_slice": self.single_w_slice,
            "exec_path": self.exec_path,
        }

    @classmethod
    def from_state(cls, state: dict) -> "SibiaLayerPlan":
        return cls(
            w_q=np.asarray(state["w_q"], dtype=np.int64),
            w_bits=int(state["w_bits"]),
            x_bits=int(state["x_bits"]),
            v=int(state["v"]),
            tracked=str(state["tracked"]),
            count_ops=bool(state["count_ops"]),
            w_stack=SliceStack.from_state(state["w_stack"]),
            uw=np.asarray(state["uw"], dtype=bool),
            rho_w=float(state["rho_w"]),
            single_w_slice=bool(state["single_w_slice"]),
            exec_path=validate_exec_path(str(state.get("exec_path", "fast"))),
        )


def prepare_sibia(
    w_q: np.ndarray,
    w_bits: int = 7,
    x_bits: int = 7,
    v: int = 4,
    tracked: str = "auto",
    count_ops: bool = True,
    exec_path: str = "fast",
) -> SibiaLayerPlan:
    """Run the offline weight path of the Sibia GEMM once."""
    w_q = np.asarray(w_q, dtype=np.int64)
    if w_q.ndim != 2:
        raise ValueError(f"W must be 2-D, got shape {w_q.shape}")
    validate_exec_path(exec_path)
    w_stack = slice_sbr(w_q, total_bits=w_bits)
    uw = weight_vector_mask(w_stack.ho, v=v, compress_value=0)
    # A lone 4-bit slice has no HO plane to skip (paper Fig. 19).
    rho_w = vector_sparsity(uw) if w_stack.n_slices > 1 else 0.0
    single = w_stack.n_slices == 1
    if single:
        uw = np.ones_like(uw, dtype=bool)
    return SibiaLayerPlan(w_q=w_q, w_bits=w_bits, x_bits=x_bits, v=v,
                          tracked=tracked, count_ops=count_ops,
                          w_stack=w_stack, uw=uw, rho_w=rho_w,
                          single_w_slice=single, exec_path=exec_path)


def execute_sibia(plan: SibiaLayerPlan, x_q: np.ndarray) -> SibiaGemmResult:
    """Run the per-request activation path against a prepared plan."""
    x_q = np.asarray(x_q, dtype=np.int64)
    m, k = plan.w_q.shape
    if x_q.ndim != 2 or k != x_q.shape[0]:
        raise ValueError(
            f"shape mismatch: W is {plan.w_q.shape}, x is {x_q.shape}")
    n = x_q.shape[1]

    v = plan.v
    w_stack = plan.w_stack
    if plan.exec_path == "fast":
        lo, hi = sbr_ho_zero_range(plan.x_bits)
        check_signed_range(x_q, plan.x_bits)
        ux = activation_vector_mask((x_q < lo) | (x_q > hi), v=v,
                                    compress_value=0)
        nx = (plan.x_bits - 4) // 3 + 1
    else:
        x_stack = slice_sbr(x_q, total_bits=plan.x_bits)
        ux = activation_vector_mask(x_stack.ho, v=v, compress_value=0)
        nx = x_stack.n_slices
    uw = plan.uw
    rho_w = plan.rho_w
    rho_x = vector_sparsity(ux) if nx > 1 else 0.0
    tracked = plan.tracked
    if plan.single_w_slice:
        tracked = "activation" if tracked in ("auto", "weight") else tracked
    if tracked == "auto":
        tracked = "weight" if rho_w >= rho_x else "activation"
    if tracked not in ("weight", "activation"):
        raise ValueError(f"tracked must be weight/activation/auto, got {tracked!r}")

    # Functional result: skipping all-zero tracked vectors never changes the
    # sum, so accumulate every slice product of the (masked) planes.
    if plan.exec_path == "fast":
        # The SBR planes reconstruct both operands exactly and the tracked
        # mask only zeroes all-zero vectors, so the accumulated slice
        # products collapse to the plain product — one BLAS call, exact in
        # the mirror's dtype, hence bit-identical to the loop.
        acc = exact_matmul(plan.w_blas, x_q)
    else:
        acc = np.zeros((m, n), dtype=np.int64)
        uw_e = expand_weight_mask(uw, v, m)
        ux_e = expand_activation_mask(ux, v, n)
        x_planes_f64 = tuple(p.astype(np.float64) for p in x_stack.planes)
        for wi, w_plane in enumerate(plan.w_planes_f64):
            w_eff = w_plane * uw_e if (tracked == "weight" and wi == w_stack.n_slices - 1) else w_plane
            for xi, x_plane in enumerate(x_planes_f64):
                x_eff = x_plane * ux_e if (tracked == "activation" and xi == nx - 1) else x_plane
                scale = w_stack.weights[wi] * x_stack.weights[xi]
                acc += scale * exact_matmul(w_eff, x_eff).astype(np.int64)

    ops = (_count_sibia_ops(plan, ux, tracked, n, nx) if plan.count_ops
           else OpCounts())
    return SibiaGemmResult(acc=acc, ops=ops, rho_w=rho_w, rho_x=rho_x,
                           tracked=tracked, uw_mask=uw, ux_mask=ux)


def sibia_gemm(
    w_q: np.ndarray,
    x_q: np.ndarray,
    w_bits: int = 7,
    x_bits: int = 7,
    v: int = 4,
    tracked: str = "auto",
    count_ops: bool = True,
    exec_path: str = "fast",
) -> SibiaGemmResult:
    """Execute the Sibia bit-slice GEMM ``W_q @ x_q``.

    ``tracked`` selects which operand's HO sparsity is exploited
    (``"weight"``, ``"activation"`` or ``"auto"`` = the sparser one, matching
    Table I's ``max``).  Both operands are signed SBR integers.

    One-shot wrapper over :func:`prepare_sibia` + :func:`execute_sibia`.
    """
    plan = prepare_sibia(w_q, w_bits=w_bits, x_bits=x_bits, v=v,
                         tracked=tracked, count_ops=count_ops,
                         exec_path=exec_path)
    return execute_sibia(plan, x_q)


def _count_sibia_ops(plan: SibiaLayerPlan, ux: np.ndarray, tracked: str,
                     n: int, nx: int) -> OpCounts:
    """The measured-op ledger, read off the compressibility masks.

    The weight-only ``sum_uw`` was summed once by the plan; per call only
    the activation mask ``ux`` is reduced.
    """
    v = plan.v
    (m, k), mg, ng = plan.w_q.shape, plan.uw.shape[0], ux.shape[1]
    sum_uw = plan.sum_uw
    sum_ux = int(ux.sum())
    nw = plan.w_stack.n_slices
    unit = v * v  # one outer product = v*v multiplies and accumulations
    if tracked == "weight":
        # Products with W's HO plane run only for uncompressed weight vectors.
        sparse_products = nx * ng * sum_uw
        dense_products = (nw - 1) * nx * mg * k * ng
    else:
        sparse_products = nw * mg * sum_ux
        dense_products = nw * (nx - 1) * mg * k * ng
    total = unit * (sparse_products + dense_products)
    ops = OpCounts()
    ops.mul4 = total
    ops.add = total
    # Sibia ships dense operands: value_bits per element, in nibbles.
    ops.ema_nibbles = int(np.ceil(m * k * plan.w_bits / 4.0)
                          + np.ceil(k * n * plan.x_bits / 4.0))
    return ops
