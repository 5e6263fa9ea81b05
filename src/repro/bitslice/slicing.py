"""Bit-slice representations (paper Fig. 3 and Fig. 10).

Three slicings are implemented:

* **straightforward unsigned slicing** [54]: a ``(4k+4)``-bit unsigned
  integer becomes ``k+1`` unsigned 4-bit slices with radix 16 — used for
  asymmetrically-quantized activations;
* **signed bit-slice representation (SBR)** [53]: a ``(3n+4)``-bit signed
  integer becomes ``n+1`` *signed* 4-bit slices with radix 8.  Each 3-bit
  low-order slice is sign-extended with the sign bit of the slice above it
  and the upper slice is incremented to compensate, so near-zero values of
  both signs produce all-zero high-order slices — used for symmetrically-
  quantized weights;
* **DBS slicing** (paper Fig. 10): an 8-bit unsigned integer is split at bit
  position ``l`` (4, 5 or 6) into an ``(8-l)``-bit HO slice and an ``l``-bit
  LO slice; the hardware keeps 4-bit datapaths by zero-padding the HO slice
  and discarding the ``l-4`` LSBs of the LO slice (lossy for ``l > 4``).

A :class:`SliceStack` records the slice planes together with each plane's
radix weight so reconstruction is always ``sum_i plane_i * weight_i``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SliceStack",
    "slice_unsigned",
    "slice_sbr",
    "slice_dbs",
    "sbr_total_bits",
    "unsigned_total_bits",
    "dbs_reconstruct_codes",
    "check_unsigned_range",
    "check_signed_range",
    "sbr_ho_zero_range",
]


@dataclass(frozen=True)
class SliceStack:
    """A stack of bit-slice planes.

    ``planes[i]`` has the same shape as the source tensor; the represented
    value is ``sum_i planes[i] * weights[i]``.  Planes are ordered from the
    low-order slice (index 0) to the high-order slice (index -1).
    """

    planes: tuple[np.ndarray, ...]
    weights: tuple[int, ...]
    signed: bool
    lossy: bool = False

    def __post_init__(self) -> None:
        if len(self.planes) != len(self.weights):
            raise ValueError("planes and weights must have equal length")
        if not self.planes:
            raise ValueError("a slice stack needs at least one plane")

    @property
    def n_slices(self) -> int:
        return len(self.planes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.planes[0].shape

    @property
    def ho(self) -> np.ndarray:
        """The high-order slice plane."""
        return self.planes[-1]

    @property
    def lo(self) -> np.ndarray:
        """The low-order slice plane."""
        return self.planes[0]

    @property
    def ho_weight(self) -> int:
        return self.weights[-1]

    def reconstruct(self) -> np.ndarray:
        """Recombine the planes into integer values."""
        out = np.zeros(self.shape, dtype=np.int64)
        for plane, weight in zip(self.planes, self.weights):
            out += plane.astype(np.int64) * weight
        return out

    def to_state(self) -> dict:
        """Serializable snapshot: plain ndarrays and scalars only.

        Layer plans embed slice stacks; this keeps them storable with
        ``np.savez``/pickle-free formats.  Round-trips exactly through
        :meth:`from_state`.
        """
        return {
            "planes": [np.asarray(p) for p in self.planes],
            "weights": [int(w) for w in self.weights],
            "signed": bool(self.signed),
            "lossy": bool(self.lossy),
        }

    @classmethod
    def from_state(cls, state: dict) -> "SliceStack":
        """Rebuild a stack from :meth:`to_state` output."""
        return cls(
            planes=tuple(np.asarray(p, dtype=np.int64)
                         for p in state["planes"]),
            weights=tuple(int(w) for w in state["weights"]),
            signed=bool(state["signed"]),
            lossy=bool(state["lossy"]),
        )


def unsigned_total_bits(n_slices: int, slice_bits: int = 4) -> int:
    """Total bit-width covered by straightforward unsigned slicing."""
    return n_slices * slice_bits


def check_unsigned_range(q: np.ndarray, total_bits: int) -> None:
    """Raise ``ValueError`` unless every code fits ``total_bits`` unsigned."""
    if q.size and (q.min() < 0 or q.max() >= (1 << total_bits)):
        raise ValueError(f"values out of range for {total_bits}-bit unsigned")


def check_signed_range(q: np.ndarray, total_bits: int) -> None:
    """Raise ``ValueError`` unless every code fits ``total_bits`` signed."""
    bound = 1 << (total_bits - 1)
    if q.size and (q.min() < -bound or q.max() >= bound):
        raise ValueError(f"values out of range for {total_bits}-bit signed")


def slice_unsigned(q: np.ndarray, total_bits: int = 8,
                   slice_bits: int = 4) -> SliceStack:
    """Straightforward slicing of unsigned integers (paper Fig. 3a).

    ``total_bits`` must be a multiple of ``slice_bits``; each plane holds
    values in ``[0, 2**slice_bits - 1]`` and plane ``i`` has radix weight
    ``2**(slice_bits * i)``.
    """
    q = np.asarray(q, dtype=np.int64)
    if total_bits % slice_bits:
        raise ValueError(
            f"total_bits={total_bits} is not a multiple of slice_bits={slice_bits}"
        )
    check_unsigned_range(q, total_bits)
    n = total_bits // slice_bits
    mask = (1 << slice_bits) - 1
    planes = tuple((q >> (slice_bits * i)) & mask for i in range(n))
    weights = tuple(1 << (slice_bits * i) for i in range(n))
    return SliceStack(planes=planes, weights=weights, signed=False)


def sbr_total_bits(n_lo_slices: int) -> int:
    """Bit-width of the SBR format with ``n`` low-order slices: ``3n + 4``."""
    return 3 * n_lo_slices + 4


def slice_sbr(q: np.ndarray, total_bits: int = 7) -> SliceStack:
    """Signed bit-slice representation (paper Fig. 3b).

    A ``(3n+4)``-bit signed integer is decomposed into ``n+1`` slices, each in
    ``[-8, 7]``, with radix weight ``8**i``.  The decomposition extracts the
    low 3 bits, then *borrows* from the remaining upper value whenever that
    upper value is negative — this is exactly the paper's "append the sign
    bit of the HO slice, then add 0001 to the HO slice" rule, generalized to
    any number of slices.  Values in ``[-8, 7]`` therefore have all-zero
    high-order slices.
    """
    q = np.asarray(q, dtype=np.int64)
    if (total_bits - 4) % 3:
        raise ValueError(f"SBR needs total_bits = 3n+4, got {total_bits}")
    n = (total_bits - 4) // 3
    check_signed_range(q, total_bits)
    planes: list[np.ndarray] = []
    rest = q.copy()
    for _ in range(n):
        lo = rest & 7                      # 3-bit unsigned slice
        rest = (rest - lo) >> 3            # remaining signed upper value
        borrow = rest < 0                  # sign bit of the slice above
        lo = lo - np.where(borrow, 8, 0)   # extend to 4-bit signed
        rest = rest + borrow.astype(np.int64)  # compensate the borrow
        planes.append(lo)
    planes.append(rest)                    # 4-bit signed HO slice
    if np.any(planes[-1] < -8) or np.any(planes[-1] > 7):
        raise AssertionError("SBR high-order slice escaped [-8, 7]")
    weights = tuple(8 ** i for i in range(n + 1))
    return SliceStack(planes=tuple(planes), weights=weights, signed=True)


@functools.lru_cache(maxsize=None)
def sbr_ho_zero_range(total_bits: int) -> tuple[int, int]:
    """The codes ``[lo, hi]`` whose SBR high-order slice is zero.

    Every step of :func:`slice_sbr` is monotone in the code, so the HO
    slice is too and its zero set is one interval (``[-8, 7]`` for 7
    bits).  Derived once per width by slicing the full code range, so a
    caller can read the HO-zero mask straight off the codes.
    """
    bound = 1 << (total_bits - 1)
    codes = np.arange(-bound, bound, dtype=np.int64)
    zero = codes[slice_sbr(codes, total_bits=total_bits).ho == 0]
    if zero[-1] - zero[0] + 1 != zero.size:
        raise AssertionError("SBR HO-zero codes are not one interval")
    return int(zero[0]), int(zero[-1])


def slice_dbs(q: np.ndarray, lo_bits: int = 4, total_bits: int = 8) -> SliceStack:
    """DBS slicing of unsigned activations (paper Fig. 10).

    The 8-bit code is split at bit ``lo_bits`` (``l``): the HO slice is
    ``q >> l`` (at most 4 bits after the zero-padding the hardware applies)
    and the LO slice keeps only the top 4 bits of the ``l`` low bits, i.e.
    ``(q & (2^l - 1)) >> (l - 4)``.  For ``l > 4`` the dropped LSBs make the
    representation lossy; :meth:`SliceStack.reconstruct` then returns the
    *truncated* codes, which is what the accelerator actually computes with.
    """
    q = np.asarray(q, dtype=np.int64)
    if lo_bits < 4 or lo_bits >= total_bits:
        raise ValueError(f"lo_bits must be in [4, {total_bits - 1}], got {lo_bits}")
    check_unsigned_range(q, total_bits)
    ho = q >> lo_bits
    lo_full = q & ((1 << lo_bits) - 1)
    drop = lo_bits - 4
    lo_kept = lo_full >> drop
    planes = (lo_kept, ho)
    weights = (1 << drop, 1 << lo_bits)
    return SliceStack(planes=planes, weights=weights, signed=False,
                      lossy=drop > 0)


def dbs_reconstruct_codes(q: np.ndarray, lo_bits: int,
                          total_bits: int = 8) -> np.ndarray:
    """Return the codes the hardware effectively uses after DBS truncation."""
    return slice_dbs(q, lo_bits, total_bits).reconstruct()
