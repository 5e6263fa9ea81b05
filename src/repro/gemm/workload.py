"""Hardware workload accounting and the closed forms of paper Table I.

Table I formalizes, for a ``4 x K`` weight by ``K x 4`` activation example
with two bit-slices per operand, the number of 4b x 4b multiplications, 8-bit
additions and 4-bit external memory accesses as functions of the HO
vector-level sparsities ``rho_w`` and ``rho_x``:

===============  =========================  ==============================
quantity         Sibia [53]                 Panacea (AQS-GEMM core)
===============  =========================  ==============================
multiplications  ``32K(2 - max(rw, rx))``   ``16K(2-rx)(2-rw) + 16``
additions        ``32K(2 - max(rw, rx))``   ``16K(2-rx)(2-rw) + 8K(1-rx)``
EMA (nibbles)    ``14K``                    ``4K(4 - rw - rx)``
===============  =========================  ==============================

(Table I also prices the *naive* Eq. 5 compensation at ``8K*rx`` additions
plus ``8K*rx`` EMA nibbles; the Eq. 6 reformulation replaces it with the
``8K(1-rx)`` weight-reuse column and zero extra EMA, which is what the
shipped design — and these formulas — use.)

:class:`OpCounts` is the measured-side ledger every functional kernel fills
in; the ``table1_*`` functions are the analytic side the tests and the
Table 1 bench compare against.

This module is also the shared, cycle-free home of the ``exec_path``
vocabulary: every config layer (kernel, engine, pipeline) validates against
the same :data:`EXEC_PATHS` tuple so the accepted values cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "OpCounts",
    "DeferredLedger",
    "EXEC_PATHS",
    "validate_exec_path",
    "table1_sibia",
    "table1_panacea",
]

#: Online BLAS strategies of the bit-slice kernels: ``"fast"`` issues one
#: exact GEMM, ``"sliced"`` mirrors the hardware loop (the reference).
EXEC_PATHS = ("fast", "sliced")


def validate_exec_path(exec_path: str) -> str:
    """Validate an ``exec_path`` value; returns it for chaining."""
    if exec_path not in EXEC_PATHS:
        raise ValueError(
            f"exec_path must be one of {EXEC_PATHS}, got {exec_path!r}")
    return exec_path


@dataclass
class OpCounts:
    """Measured operation counts for one GEMM execution.

    * ``mul4`` — 4b x 4b multiplications actually executed;
    * ``add`` — accumulator additions (8-bit adds in the paper's accounting);
    * ``ema_nibbles`` — 4-bit words moved from external memory, compressed
      format (payload HO vectors + dense LO planes), excluding RLE indices;
    * ``rle_index_bits`` — RLE index traffic, reported separately;
    * ``comp_mul4``/``comp_add`` — the share of ``mul4``/``add`` spent on the
      Eq. 6 compensation term (included in the totals).
    """

    mul4: int = 0
    add: int = 0
    ema_nibbles: int = 0
    rle_index_bits: int = 0
    comp_mul4: int = 0
    comp_add: int = 0
    notes: dict = field(default_factory=dict)

    def merge(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            mul4=self.mul4 + other.mul4,
            add=self.add + other.add,
            ema_nibbles=self.ema_nibbles + other.ema_nibbles,
            rle_index_bits=self.rle_index_bits + other.rle_index_bits,
            comp_mul4=self.comp_mul4 + other.comp_mul4,
            comp_add=self.comp_add + other.comp_add,
        )

    @property
    def macs(self) -> int:
        """Multiply-accumulate pairs (min of mults and adds)."""
        return min(self.mul4, self.add)


class DeferredLedger:
    """Dataclass field descriptor for a result's ``ops`` and ``rho_x``.

    A result whose ledger is pending stores ``None`` in both fields, its
    layer plan in ``ledger_plan`` and its activation HO mask in
    ``ux_mask``.  The first read of either field fills both from
    ``ledger_plan.ledger(ux_mask)`` and clears ``ledger_plan``, so
    ``ledger_plan is not None`` means exactly "still pending".  The
    dataclass reads a field's default off the class: without ``default``
    the descriptor raises ``AttributeError`` there, so the field stays
    required.
    """

    _REQUIRED = object()

    def __init__(self, default=_REQUIRED) -> None:
        self._default = default

    def __set_name__(self, owner, name: str) -> None:
        self._slot = "_" + name

    def __get__(self, obj, objtype=None):
        if obj is None:
            if self._default is self._REQUIRED:
                raise AttributeError(self._slot)
            return self._default
        if obj.ledger_plan is not None:
            obj.ops, obj.rho_x = obj.ledger_plan.ledger(obj.ux_mask)
            obj.ledger_plan = None
        return obj.__dict__[self._slot]

    def __set__(self, obj, value) -> None:
        obj.__dict__[self._slot] = value


@dataclass(frozen=True)
class Table1Row:
    """Analytic workload of Table I for one design."""

    mul4: float
    add: float
    ema_nibbles: float


def table1_sibia(k: int, rho_w: float, rho_x: float) -> Table1Row:
    """Sibia's workload for the 4xK by Kx4 two-slice example.

    Sibia tracks one side's HO sparsity (the larger of the two) and skips the
    two slice products involving that side's HO plane; it ships dense 7-bit
    operands over DRAM (``14K`` nibbles: two 4x K / K x 4 7-bit matrices).
    """
    rho = max(rho_w, rho_x)
    ops = 32.0 * k * (2.0 - rho)
    return Table1Row(mul4=ops, add=ops, ema_nibbles=14.0 * k)


def table1_panacea(k: int, rho_w: float, rho_x: float) -> Table1Row:
    """Panacea's workload for the 4xK by Kx4 two-slice example.

    Both sparsities multiply: the four slice products cost
    ``16K(2-rx)(2-rw)`` mults/adds; the compensation adds 16 mults (one 4x4
    outer product with ``r``) and ``8K`` adds (accumulating the loaded weight
    slice vectors); EMA ships only uncompressed HO vectors plus dense LO.
    """
    gemm_ops = 16.0 * k * (2.0 - rho_x) * (2.0 - rho_w)
    return Table1Row(
        mul4=gemm_ops + 16.0,
        add=gemm_ops + 8.0 * k * (1.0 - rho_x),
        ema_nibbles=4.0 * k * (4.0 - rho_w - rho_x),
    )
