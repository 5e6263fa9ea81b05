"""Dense integer GEMM with asymmetric activation folding (paper Eq. 3).

``Wx + b ~= sW*sx*(W_int @ x_uint + b_hat)`` where
``b_hat = b_int - zp_x * W_int @ 1`` folds the zero-point correction into the
bias.  This is both the numerical reference every bit-slice kernel must match
bit-exactly and the workload model of the dense baselines (SIMD, systolic
arrays).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..quant.uniform import QuantParams
from .workload import OpCounts

__all__ = ["DenseGemmResult", "Int8DensePlan", "integer_gemm",
           "dense_gemm_reference", "fold_bias", "prepare_int8_dense",
           "execute_int8_dense", "exact_blas_dtype", "exact_matmul",
           "exact_bias_f64"]

#: Each BLAS dtype with the magnitude below which it holds every integer
#: exactly (its significand width), narrowest first.
_EXACT_LIMITS = ((np.float32, 1 << 24), (np.float64, 1 << 53))


def _acc_bound(w_q: np.ndarray, x_max: int) -> int:
    """Bound on every partial sum of ``w_q @ x`` over ``|x| <= x_max``."""
    w_q = np.asarray(w_q, dtype=np.int64)
    return int(np.abs(w_q).sum(axis=1).max(initial=0)) * int(x_max)


def exact_blas_dtype(w_q: np.ndarray, x_max: int) -> np.dtype:
    """Narrowest dtype in which ``w_q @ x`` is exact whenever ``|x| <= x_max``.

    Every partial sum of output row ``m`` is bounded by
    ``sum_k |w_mk| * x_max``.  While that bound stays below ``2^p`` (``p`` the
    significand width), every product and every intermediate sum is an
    integer the float represents exactly, whatever order or fusion BLAS
    uses, so the float GEMM equals the integer one bit for bit.  Past
    float64's range the plain int64 matmul is returned.
    """
    bound = _acc_bound(w_q, x_max)
    for dtype, limit in _EXACT_LIMITS:
        if bound < limit:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def exact_bias_f64(w_q: np.ndarray, x_max: int,
                   b_hat: np.ndarray) -> np.ndarray | None:
    """``b_hat`` as a float64 ``(M, 1)`` column, if adding it in float64 is
    exact; ``None`` otherwise.

    While ``max|w_q @ x| + max|b_hat| < 2^53`` for every ``|x| <= x_max``,
    the accumulator, the bias and their sum are all integers float64 holds
    exactly, so ``np.add(acc, column, dtype=np.float64)`` equals the int64
    add cast to float64 bit for bit, whatever dtype :func:`exact_matmul`
    returned ``acc`` in.
    """
    b_hat = np.asarray(b_hat, dtype=np.int64)
    bound = _acc_bound(w_q, x_max) + int(np.abs(b_hat).max(initial=0))
    if bound >= _EXACT_LIMITS[-1][1]:
        return None
    return b_hat.astype(np.float64)[:, None]


def exact_matmul(w_blas: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w_blas @ x`` in ``w_blas``'s dtype.

    ``w_blas`` is a weight mirror cast to :func:`exact_blas_dtype`, so for
    activations within the bound it was sized for every entry of the
    result is an exact integer (float32, float64 or int64).
    """
    return w_blas @ x.astype(w_blas.dtype, copy=False)


@dataclass(frozen=True)
class DenseGemmResult:
    """Integer accumulators plus the dequantized output and op counts."""

    acc: np.ndarray
    output: np.ndarray
    ops: OpCounts


def fold_bias(w_int: np.ndarray, bias_int: np.ndarray | None,
              zp_x: int) -> np.ndarray:
    """Compute ``b_hat = bias_int - zp_x * W_int @ 1`` (Eq. 3, precomputed).

    Independent of the activation, so it is evaluated offline; the returned
    vector has shape ``(M,)`` and broadcasts over output columns.
    """
    w_int = np.asarray(w_int, dtype=np.int64)
    correction = zp_x * w_int.sum(axis=1)
    if bias_int is None:
        return -correction
    return np.asarray(bias_int, dtype=np.int64) - correction


def integer_gemm(w_int: np.ndarray, x_q: np.ndarray,
                 b_hat: np.ndarray | None = None) -> np.ndarray:
    """Plain ``W_int @ x_q (+ b_hat)`` in int64 (the exactness reference)."""
    acc = np.asarray(w_int, dtype=np.int64) @ np.asarray(x_q, dtype=np.int64)
    if b_hat is not None:
        acc = acc + np.asarray(b_hat, dtype=np.int64)[:, None]
    return acc


@dataclass
class Int8DensePlan:
    """Prepared state of the dense integer baseline.

    The dense GEMM has almost no offline work — the plan caches the int64
    view and one BLAS mirror of the weight in the narrowest exact dtype for
    ``x_bits``-wide activations (:func:`exact_blas_dtype`), plus the widths
    the op accounting needs.
    """

    w_q: np.ndarray
    w_bits: int = 8
    x_bits: int = 8
    count_ops: bool = True
    engine: str = "int8_dense"
    w_blas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.w_blas = self.w_q.astype(
            exact_blas_dtype(self.w_q, self.x_max), copy=False)

    @property
    def x_max(self) -> int:
        """Largest activation magnitude, signed or unsigned ``x_bits`` codes."""
        return (1 << self.x_bits) - 1

    @property
    def m(self) -> int:
        return self.w_q.shape[0]

    @property
    def k(self) -> int:
        return self.w_q.shape[1]

    def state_dict(self) -> dict:
        return {"engine": self.engine, "w_q": self.w_q,
                "w_bits": self.w_bits, "x_bits": self.x_bits,
                "count_ops": self.count_ops}

    @classmethod
    def from_state(cls, state: dict) -> "Int8DensePlan":
        return cls(w_q=np.asarray(state["w_q"], dtype=np.int64),
                   w_bits=int(state["w_bits"]), x_bits=int(state["x_bits"]),
                   count_ops=bool(state["count_ops"]))


def prepare_int8_dense(w_q: np.ndarray, w_bits: int = 8, x_bits: int = 8,
                       count_ops: bool = True) -> Int8DensePlan:
    """Cache the weight-side state of the dense integer baseline."""
    w_q = np.asarray(w_q, dtype=np.int64)
    if w_q.ndim != 2:
        raise ValueError(f"W must be 2-D, got shape {w_q.shape}")
    return Int8DensePlan(w_q=w_q, w_bits=w_bits, x_bits=x_bits,
                         count_ops=count_ops)


def execute_int8_dense(plan: Int8DensePlan,
                       x_q: np.ndarray) -> tuple[np.ndarray, OpCounts]:
    """Dense integer GEMM against a prepared plan; returns ``(acc, ops)``.

    Op accounting follows the dense-baseline convention: an 8b x 8b MAC is
    four 4b x 4b multiplications, and EMA ships both operands dense.
    Activations wider than ``x_bits`` raise ``ValueError``: the BLAS mirror
    is only exact within that width.
    """
    x_q = np.asarray(x_q, dtype=np.int64)
    m, k = plan.w_q.shape
    if x_q.ndim != 2 or k != x_q.shape[0]:
        raise ValueError(
            f"shape mismatch: W is {plan.w_q.shape}, x is {x_q.shape}")
    n = x_q.shape[1]
    if x_q.size and int(np.abs(x_q).max()) > plan.x_max:
        raise ValueError(f"values out of range for {plan.x_bits}-bit activations")
    acc = exact_matmul(plan.w_blas, x_q)
    ops = OpCounts()
    if plan.count_ops:
        ops.mul4 = 4 * m * k * n
        ops.add = m * k * n
        ops.ema_nibbles = (m * k * -(-plan.w_bits // 4)
                           + k * n * -(-plan.x_bits // 4))
    return acc, ops


def dense_gemm_reference(
    w_int: np.ndarray,
    x_q: np.ndarray,
    w_params: QuantParams,
    x_params: QuantParams,
    bias: np.ndarray | None = None,
    count_ops: bool = True,
) -> DenseGemmResult:
    """Full Eq. 3 pipeline: fold bias, integer GEMM, dequantize.

    Op accounting uses the dense-baseline convention: an 8b x 8b MAC equals
    four 4b x 4b multiplications (the paper's resource-normalization rule),
    and EMA ships both operands dense at their storage width.
    """
    w_int = np.asarray(w_int, dtype=np.int64)
    x_q = np.asarray(x_q, dtype=np.int64)
    m, k = w_int.shape
    k2, n = x_q.shape
    if k != k2:
        raise ValueError(f"shape mismatch: W is {w_int.shape}, x is {x_q.shape}")

    bias_int = None
    if bias is not None:
        bias_int = np.rint(
            np.asarray(bias, dtype=np.float64)
            / (np.max(w_params.scale) * np.max(x_params.scale))
        ).astype(np.int64)
    zp_x = int(np.max(x_params.zero_point)) if not x_params.is_symmetric else 0
    b_hat = fold_bias(w_int, bias_int, zp_x)
    acc = integer_gemm(w_int, x_q, b_hat)
    output = acc.astype(np.float64) * np.asarray(w_params.scale) * np.asarray(
        x_params.scale
    )

    ops = OpCounts()
    if count_ops:
        ops.mul4 = 4 * m * k * n            # 8bx8b MAC = four 4bx4b mults
        ops.add = m * k * n
        w_nibbles = m * k * -(-w_params.bits // 4)
        x_nibbles = k * n * -(-x_params.bits // 4)
        ops.ema_nibbles = w_nibbles + x_nibbles
    return DenseGemmResult(acc=acc, output=output, ops=ops)
