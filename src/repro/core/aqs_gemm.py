"""AQS-GEMM: the asymmetrically-quantized bit-slice GEMM (paper Section III-B).

This is the paper's primary contribution.  Weights are symmetric SBR slices
(all-zero HO vectors compress); activations are *asymmetric unsigned* slices
where the compressible HO value is ``r = zp >> l`` — the HO slice of the
zero-point — because asymmetric quantization piles values around ``zp``
(paper Fig. 5a).  Skipping ``r``-valued vectors is *not* exact by itself, so
the kernel adds the Eq. 6 compensation term

``(W_HO + W_LO) x_HO  =  (W_HO + W_LO) x_HO^U  -  r (W_HO + W_LO) J^U  +  b'``

which reuses the weight slices already loaded for the uncompressed products
(no extra memory traffic) plus the offline-precomputed
``b' = (W_HO + W_LO)(r * 1)``.

The kernel is bit-exact against the dense integer GEMM for ``l = 4`` and
bit-exact against the DBS-truncated activation codes for ``l > 4``.

Execution is two-phase: :func:`prepare_aqs` runs the static weight path once
(SBR slicing, compressibility mask, RLE index sizing, the weight-only ledger
terms — the paper's "offline" work) into an :class:`AqsLayerPlan`, and
:func:`execute_aqs` runs the per-request activation path against it.  The
one-shot :func:`aqs_gemm` is a thin, bit-exact wrapper over the two.

Because the compensation restores exactly what the skipping dropped, the
AQS result is ``W_q @ x_trunc``, where ``x_trunc = x_q & ~(2^(l-4) - 1)`` is
the DBS-truncated code (``x_q`` itself for ``l = 4``).  Skipping is a cost
to be counted, not a product to be emulated, so ``exec_path`` selects how
the numbers are produced:

* ``"fast"`` (default) issues **one** BLAS GEMM ``W @ x_trunc`` on the
  plan's single weight mirror.  The plan proves once, when it is built,
  whether ``max_m sum_k |w_mk| * (2^x_bits - 1) < 2^24``; when it holds
  every partial sum is an integer float32 represents exactly, so the mirror
  is float32, and float64 otherwise
  (:func:`~repro.gemm.dense.exact_blas_dtype`).
* ``"sliced"`` mirrors the hardware: one BLAS call per (weight plane,
  activation plane) pair plus the compensation call.  It is the reference
  oracle the fast path is tested against.

The op ledger is read off the compressibility masks alone, never off the
matmuls: the activation mask ``ux`` comes from the HO plane
``x_q >> ho_shift`` compared with ``r`` per ``v``-group, and the
weight-only terms are summed once into the plan.  Both paths therefore
report identical counts.  :func:`execute_aqs` returns ``ux`` with the
ledger pending: ``ops`` and ``rho_x`` are filled on first read, and
:class:`~repro.core.pipeline.ExecutionTrace` fills every layer call of a
forward in one batch (:func:`aqs_ledgers`), so a served layer call pays for
its GEMM and not for its bookkeeping.  The counts are the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bitslice.rle import rle_index_bits_batch
from ..bitslice.slicing import (
    SliceStack,
    check_unsigned_range,
    slice_dbs,
    slice_sbr,
    slice_unsigned,
)
from ..bitslice.vectors import (
    activation_vector_mask,
    expand_activation_mask,
    vector_sparsity,
    weight_vector_mask,
)
from ..gemm.dense import exact_blas_dtype, exact_matmul
from ..gemm.workload import DeferredLedger, OpCounts, validate_exec_path

__all__ = ["AqsGemmConfig", "AqsGemmResult", "AqsLayerPlan", "aqs_gemm",
           "prepare_aqs", "execute_aqs", "aqs_ledgers", "compensation_bias",
           "frequent_ho_slice"]


@dataclass(frozen=True)
class AqsGemmConfig:
    """Static configuration of the AQS-GEMM kernel.

    ``w_bits`` must be of the SBR form ``3n + 4``; ``x_bits`` is the stored
    activation width (``4k + 4``); ``lo_bits`` is the DBS split ``l`` (4 =
    basic scheme, 5/6 = DBS type-2/3).  ``v`` is the slice-vector length and
    ``index_bits`` the RLE index width.  ``exec_path`` picks the online BLAS
    strategy: ``"fast"`` (one exact GEMM, the default) or ``"sliced"`` (one
    call per plane pair, the bit-exact verification reference).
    """

    w_bits: int = 7
    x_bits: int = 8
    lo_bits: int = 4
    v: int = 4
    index_bits: int = 4
    count_ops: bool = True
    exec_path: str = "fast"

    def __post_init__(self) -> None:
        if (self.w_bits - 4) % 3:
            raise ValueError(f"w_bits must be 3n+4, got {self.w_bits}")
        if self.x_bits % 4:
            raise ValueError(f"x_bits must be 4k+4, got {self.x_bits}")
        if self.lo_bits != 4 and self.x_bits != 8:
            raise ValueError("DBS slicing (lo_bits != 4) is defined for 8-bit x")
        if not 4 <= self.lo_bits < self.x_bits:
            raise ValueError(f"lo_bits must be in [4, {self.x_bits - 1}]")
        if self.index_bits < 1:
            raise ValueError(f"index_bits must be >= 1, got {self.index_bits}")
        validate_exec_path(self.exec_path)

    @property
    def ho_shift(self) -> int:
        """Bit position of the activation HO slice.

        ``l`` for the two-slice DBS case, ``x_bits - 4`` for straightforward
        slicing (these coincide at ``l = 4, x_bits = 8``).
        """
        return self.lo_bits if self.lo_bits > 4 else self.x_bits - 4

    @property
    def n_x_slices(self) -> int:
        """Activation slice count: two for DBS, ``x_bits / 4`` otherwise."""
        return 2 if self.lo_bits > 4 else self.x_bits // 4


@dataclass
class AqsGemmResult:
    """Output accumulators, op ledger and observed sparsities.

    ``acc`` holds exact integers: in the plan's BLAS dtype on the fast
    path, int64 on the sliced one.  :func:`execute_aqs` leaves ``ops`` and
    ``rho_x`` pending on ``ledger_plan`` and ``ux_mask``; the first read
    fills them (see :class:`~repro.gemm.workload.DeferredLedger`).
    """

    acc: np.ndarray
    ops: OpCounts = DeferredLedger()
    rho_w: float
    rho_x: float = DeferredLedger()
    r: int
    uw_mask: np.ndarray | None = field(repr=False, default=None)
    ux_mask: np.ndarray | None = field(repr=False, default=None)
    ledger_plan: "AqsLayerPlan | None" = field(repr=False, default=None)


def frequent_ho_slice(zp: int, lo_bits: int = 4) -> int:
    """The compressible HO slice value ``r`` for a given zero-point.

    Asymmetric quantization centres codes around ``zp``; the HO slice that
    dominates is therefore ``zp >> l`` (paper: "r is an HO slice of the 8-bit
    zero point").  After ZPM, ``zp' = 2^l * m + 2^(l-1)`` and this returns
    ``m``, the centre of the widened skip range.
    """
    if zp < 0:
        raise ValueError(f"zero-point must be non-negative, got {zp}")
    return zp >> lo_bits


def compensation_bias(w_q: np.ndarray, r: int, ho_shift: int,
                      n: int) -> np.ndarray:
    """Offline term ``b' = (W_HO + W_LO)(r * 1_{KxN})`` of Eq. 6.

    ``ho_shift`` is the bit position of the activation HO slice (``l`` for
    the two-slice case, ``x_bits - 4`` for three slices).  Because the SBR
    planes reconstruct ``W`` exactly, this is ``r * 2^ho_shift * rowsum(W)``
    broadcast over ``n`` columns; shape ``(M, n)``.
    """
    rowsum = np.asarray(w_q, dtype=np.int64).sum(axis=1)
    return np.broadcast_to((r << ho_shift) * rowsum[:, None],
                           (rowsum.size, n)).copy()


def _slice_activation(x_q: np.ndarray, config: AqsGemmConfig) -> SliceStack:
    if config.lo_bits == 4:
        return slice_unsigned(x_q, total_bits=config.x_bits, slice_bits=4)
    return slice_dbs(x_q, lo_bits=config.lo_bits, total_bits=config.x_bits)


@dataclass
class AqsLayerPlan:
    """Every weight-derived artifact of the AQS-GEMM, computed once.

    Holds the SBR slice stack, the weight compressibility mask and its RLE
    index budget, and the compressible activation slice ``r``.  Derived on
    construction (so :meth:`from_state` rebuilds them and the stored format
    carries none): the single BLAS mirror ``w_blas`` of ``W`` in the
    narrowest dtype proven exact for ``x_bits``-wide activations, and the
    weight-only ledger terms ``uw_col = uw.sum(axis=0)`` and ``sum_uw``.
    """

    config: AqsGemmConfig
    w_q: np.ndarray
    zp: int
    r: int
    ho_shift: int
    w_stack: SliceStack
    uw: np.ndarray
    rho_w: float
    w_rle_bits: int
    engine: str = "aqs"
    w_blas: np.ndarray = field(init=False, repr=False)
    uw_col: np.ndarray = field(init=False, repr=False)
    sum_uw: int = field(init=False, repr=False)
    _w_planes_f64: tuple[np.ndarray, ...] | None = field(
        init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        x_max = (1 << self.config.x_bits) - 1
        self.w_blas = self.w_q.astype(exact_blas_dtype(self.w_q, x_max),
                                      copy=False)
        self.uw_col = self.uw.sum(axis=0, dtype=np.int64)
        self.sum_uw = int(self.uw_col.sum())

    @property
    def w_planes_f64(self) -> tuple[np.ndarray, ...]:
        """Per-plane float64 mirrors, built lazily.

        Only the sliced path reads these; fast-path plans (the default)
        never pay the ``n_slices`` extra full-size weight copies.
        """
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

    def ledger(self, ux: np.ndarray) -> tuple[OpCounts, float]:
        """``(ops, rho_x)`` of one call whose HO mask is ``ux``: the
        per-call ledger, :func:`aqs_ledgers` on a batch of one."""
        return aqs_ledgers([(self, ux)])[0]

    def state_dict(self) -> dict:
        """Serializable snapshot; derived mirrors and sums are rebuilt on load."""
        from dataclasses import asdict

        return {
            "engine": self.engine,
            "config": asdict(self.config),
            "w_q": self.w_q,
            "zp": self.zp,
            "r": self.r,
            "ho_shift": self.ho_shift,
            "w_stack": self.w_stack.to_state(),
            "uw": self.uw,
            "rho_w": self.rho_w,
            "w_rle_bits": self.w_rle_bits,
        }

    @classmethod
    def from_state(cls, state: dict) -> "AqsLayerPlan":
        return cls(
            config=AqsGemmConfig(**state["config"]),
            w_q=np.asarray(state["w_q"], dtype=np.int64),
            zp=int(state["zp"]),
            r=int(state["r"]),
            ho_shift=int(state["ho_shift"]),
            w_stack=SliceStack.from_state(state["w_stack"]),
            uw=np.asarray(state["uw"], dtype=bool),
            rho_w=float(state["rho_w"]),
            w_rle_bits=int(state["w_rle_bits"]),
        )


def prepare_aqs(w_q: np.ndarray, zp: int,
                config: AqsGemmConfig | None = None) -> AqsLayerPlan:
    """Run the offline weight path of the AQS-GEMM once.

    Slices ``w_q`` into SBR planes, derives the all-zero HO vector mask and
    its RLE index bits, and fixes the compressible activation slice
    ``r = zp >> ho_shift`` — everything :func:`execute_aqs` needs that does
    not depend on the activations.
    """
    config = config or AqsGemmConfig()
    w_q = np.asarray(w_q, dtype=np.int64)
    if w_q.ndim != 2:
        raise ValueError(f"W must be 2-D, got shape {w_q.shape}")
    ho_shift = config.ho_shift
    r = frequent_ho_slice(zp, ho_shift)
    w_stack = slice_sbr(w_q, total_bits=config.w_bits)
    uw = weight_vector_mask(w_stack.ho, v=config.v, compress_value=0)
    # A lone 4-bit weight slice has no HO plane, so no weight-side skipping
    # (paper Fig. 19); report zero exploitable weight sparsity.
    rho_w = vector_sparsity(uw) if w_stack.n_slices > 1 else 0.0
    w_rle_bits = 0
    if config.count_ops and w_stack.n_slices > 1:
        # Weight streams run along K, one per mask row; sized as one batch.
        w_rle_bits = int(rle_index_bits_batch(uw, config.index_bits).sum())
    return AqsLayerPlan(config=config, w_q=w_q, zp=zp, r=r, ho_shift=ho_shift,
                        w_stack=w_stack, uw=uw, rho_w=rho_w,
                        w_rle_bits=w_rle_bits)


def execute_aqs(plan: AqsLayerPlan, x_q: np.ndarray) -> AqsGemmResult:
    """Run the per-request activation path against a prepared plan.

    Bit-exact against the one-shot :func:`aqs_gemm` on either ``exec_path``:
    the sliced path reproduces the accumulation order of the hardware loop,
    and the fast path computes the same integer sum as one exact GEMM on the
    truncated codes (see the module docstring).  Codes outside ``x_bits``
    raise ``ValueError`` on both paths.  The op ledger is mask-derived,
    identical on both paths, and computed on first read of ``ops`` or
    ``rho_x``.
    """
    config = plan.config
    x_q = np.asarray(x_q, dtype=np.int64)
    if x_q.ndim != 2 or plan.k != x_q.shape[0]:
        raise ValueError(
            f"shape mismatch: W is {plan.w_q.shape}, x is {x_q.shape}")

    if config.exec_path == "fast":
        check_unsigned_range(x_q, config.x_bits)
        ux = activation_vector_mask(x_q >> plan.ho_shift, v=config.v,
                                    compress_value=plan.r)
        drop = config.lo_bits - 4
        x_trunc = x_q & ~((1 << drop) - 1) if drop else x_q
        acc = exact_matmul(plan.w_blas, x_trunc)
    else:
        x_stack = _slice_activation(x_q, config)
        ux = activation_vector_mask(x_stack.ho, v=config.v,
                                    compress_value=plan.r)
        acc = _execute_sliced(plan, x_stack, ux)

    return AqsGemmResult(acc=acc, ops=None, rho_w=plan.rho_w, rho_x=None,
                         r=plan.r, uw_mask=plan.uw, ux_mask=ux,
                         ledger_plan=plan)


def _execute_sliced(plan: AqsLayerPlan, x_stack: SliceStack,
                    ux: np.ndarray) -> np.ndarray:
    """Reference path: one BLAS call per (weight, activation) plane pair.

    This mirrors the hardware's slice-product loop and is kept as the
    verification reference for the fast path.
    """
    r, ho_shift = plan.r, plan.ho_shift
    (m, _), n = plan.w_q.shape, x_stack.shape[1]
    ux_e = expand_activation_mask(ux, plan.config.v, n).astype(np.int64)
    # --- bit-slice GEMMs over uncompressed slices (Eq. 5, first term) -----
    # Compressed weight HO vectors are all-zero, so using the raw HO plane is
    # already the skipped computation; the activation HO plane is masked to
    # its uncompressed vectors and the skipped all-r parts are restored by
    # the compensation term below.  All lower activation planes are dense.
    x_ho_u = (x_stack.ho * ux_e).astype(np.float64)
    x_lo_f = [p.astype(np.float64) for p in x_stack.planes[:-1]]
    acc = np.zeros((m, n), dtype=np.int64)
    for wi, w_plane in enumerate(plan.w_planes_f64):
        w_scale = plan.w_stack.weights[wi]
        acc += (w_scale * x_stack.ho_weight) * exact_matmul(
            w_plane, x_ho_u).astype(np.int64)
        for xi in range(x_stack.n_slices - 1):
            acc += (w_scale * x_stack.weights[xi]) * exact_matmul(
                w_plane, x_lo_f[xi]).astype(np.int64)

    # --- compensation (Eq. 6): reuse loaded weight slices -----------------
    # -r*(W_HO+W_LO) J^U + b'   with   b' = (W_HO+W_LO)(r * 1)
    acc += (compensation_bias(plan.w_q, r, ho_shift, n)
            - (r << ho_shift) * exact_matmul(plan.w_blas,
                                             ux_e).astype(np.int64))
    return acc


def aqs_gemm(
    w_q: np.ndarray,
    x_q: np.ndarray,
    zp: int,
    config: AqsGemmConfig | None = None,
) -> AqsGemmResult:
    """Execute the AQS-GEMM ``W_q @ x_q`` with slice skipping + compensation.

    ``w_q`` is the signed SBR-format weight ``(M, K)``; ``x_q`` the unsigned
    asymmetric activation ``(K, N)``; ``zp`` its zero-point.  The returned
    accumulator excludes the Eq. 3 zero-point bias fold (``b_hat``), which the
    caller applies — it equals ``W_q @ x_codes`` exactly, where ``x_codes``
    is ``x_q`` for ``l = 4`` and the DBS-truncated codes for ``l > 4``.

    One-shot wrapper over :func:`prepare_aqs` + :func:`execute_aqs`; callers
    with static weights should prepare once and execute per request instead.
    """
    config = config or AqsGemmConfig()
    return execute_aqs(prepare_aqs(w_q, zp, config), x_q)


def aqs_ledgers(calls) -> list[tuple[OpCounts, float]]:
    """``(ops, rho_x)`` for many calls, each given as ``(plan, ux)``.

    Calls whose HO masks share a shape ``(K, ceil(N/v))`` (and an RLE index
    width) are reduced together: one stack of their masks yields every
    call's mask sums, its ``uw_col @ ux_row`` coupling and, through one
    :func:`~repro.bitslice.rle.rle_index_bits_batch` over all their
    activation streams, its RLE budget.  What remains per call is plain
    int arithmetic (:func:`_aqs_ops`).  Plans with ``count_ops`` off get
    an empty ledger and only ``rho_x``.
    """
    calls = list(calls)
    out: list = [None] * len(calls)
    groups: dict[tuple, list[int]] = {}
    for i, (plan, ux) in enumerate(calls):
        config = plan.config
        key = (ux.shape, config.count_ops and config.index_bits)
        groups.setdefault(key, []).append(i)
    for ((k, ng), index_bits), idx in groups.items():
        ux = np.array([calls[i][1] for i in idx])          # (G, K, ng)
        ux_row = ux.sum(axis=2, dtype=np.int64)            # (G, K)
        sum_ux = ux_row.sum(axis=1).tolist()
        size = k * ng
        rho_x = [1.0 - s_ux / size if size else 0.0 for s_ux in sum_ux]
        if not index_bits:                                 # count_ops off
            for i, rho in zip(idx, rho_x):
                out[i] = (OpCounts(), rho)
            continue
        plans = [calls[i][0] for i in idx]
        hoho = np.einsum("gk,gk->g", np.array([p.uw_col for p in plans]),
                         ux_row).tolist()
        # Activation streams run along K, one per mask column.
        streams = ux.transpose(0, 2, 1).reshape(len(idx) * ng, k)
        rle = rle_index_bits_batch(streams, index_bits).reshape(
            len(idx), ng).sum(axis=1).tolist()
        for i, plan, s_ux, hh, r_bits, rho in zip(idx, plans, sum_ux, hoho,
                                                  rle, rho_x):
            out[i] = (_aqs_ops(plan, k, ng, s_ux, hh, r_bits), rho)
    return out


def _aqs_ops(plan: AqsLayerPlan, k: int, ng: int, sum_ux: int, hoho: int,
             act_rle_bits: int) -> OpCounts:
    """The measured-op ledger, from the activation mask's reductions.

    Counting is done at outer-product granularity: each executed product is
    ``v*v`` multiplies plus ``v*v`` accumulator additions.  The Eq. 6
    compensation adds one ``v x v`` outer product per output tile and
    ``v * n_w_planes`` weight-slice accumulations per uncompressed
    activation vector.  Every weight-only term (``uw_col``, ``sum_uw`` and
    the weight-side RLE budget ``w_rle_bits``) was summed once by the plan;
    per call the activation mask ``ux`` (``(k, ng)``) contributes only its
    payload count ``sum_ux``, its coupling ``hoho = uw_col @ ux_row`` and
    its RLE budget.
    """
    v = plan.config.v
    mg = plan.uw.shape[0]
    nw = plan.w_stack.n_slices
    nx = plan.config.n_x_slices
    unit = v * v
    sum_uw = plan.sum_uw
    if nw == 1:
        # 4-bit weights have a single slice and no HO plane to skip (paper
        # Fig. 19); the lone plane behaves like a dense LO plane.
        hoho = 0
        loho = mg * sum_ux
        holo = 0
        lolo = (nx - 1) * mg * k * ng
        w_ema = mg * k                      # dense single weight plane
    else:
        # HO(w) x HO(x): both vectors must be uncompressed, joint per-k
        # coupling (``hoho``).  Lower W planes x HO(x): runs wherever the
        # activation vector survives.
        loho = (nw - 1) * mg * sum_ux
        # HO(w) x LO(x): runs wherever the weight vector survives.
        holo = (nx - 1) * ng * sum_uw
        # lower x lower: fully dense (the SWO workload).
        lolo = (nw - 1) * (nx - 1) * mg * k * ng
        w_ema = sum_uw + (nw - 1) * mg * k
    gemm = unit * (hoho + loho + holo + lolo)
    # Compensation: one outer product per (mg, ng) output tile; weight-slice
    # accumulation for every uncompressed activation vector.
    comp_mul4 = unit * mg * ng
    comp_add = v * nw * mg * sum_ux
    return OpCounts(
        mul4=gemm + comp_mul4,
        add=gemm + comp_add,
        # EMA: payload HO vectors + dense lower planes, in nibbles; RLE
        # indices accounted separately.
        ema_nibbles=v * (w_ema + sum_ux + (nx - 1) * k * ng),
        rle_index_bits=plan.w_rle_bits + act_rle_bits,
        comp_mul4=comp_mul4,
        comp_add=comp_add,
        notes={
            "dynamic_products": hoho + loho + holo,
            "static_products": lolo,
            # The naive Eq. 5 compensation would instead reload weights for
            # the *compressed* vectors; Table I prices it at 8K*rho_x adds
            # + EMA.
            "naive_comp_add": v * nw * mg * (k * ng - sum_ux),
        },
    )
