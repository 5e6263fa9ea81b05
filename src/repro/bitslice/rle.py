"""Run-length encoding of compressed slice-vector streams (paper Fig. 7).

The accelerator stores only the *uncompressed* slice vectors together with
run-length indices describing how many compressed vectors precede each of
them.  With ``index_bits = 4`` an index encodes runs of up to 15 compressed
vectors; longer runs are carried by ``MAX_RUN`` continuation tokens that have
no payload — this matches "we can compress up to 15 successive vectors into
an index".

The encoder works on the per-stream boolean mask where ``True`` means the
vector is *uncompressed* (has a payload).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RleToken", "RleStream", "rle_encode", "rle_decode",
           "rle_index_bits", "rle_index_bits_batch"]


@dataclass(frozen=True)
class RleToken:
    """One RLE index.

    ``run`` compressed vectors are skipped, then — iff ``has_payload`` — one
    uncompressed vector follows.  A token with ``run == max_run`` and no
    payload is a continuation for longer runs.
    """

    run: int
    has_payload: bool


@dataclass(frozen=True)
class RleStream:
    """An encoded stream: tokens plus the total vector count."""

    tokens: tuple[RleToken, ...]
    length: int
    index_bits: int

    @property
    def n_payloads(self) -> int:
        return sum(1 for t in self.tokens if t.has_payload)

    @property
    def index_storage_bits(self) -> int:
        """Total bits spent on RLE indices."""
        return len(self.tokens) * self.index_bits


def _check_index_bits(index_bits: int) -> None:
    if index_bits < 1:
        raise ValueError(f"index_bits must be >= 1, got {index_bits}")


def rle_encode(uncompressed: np.ndarray, index_bits: int = 4) -> RleStream:
    """Encode a 1-D uncompressed mask into RLE tokens."""
    _check_index_bits(index_bits)
    mask = np.asarray(uncompressed, dtype=bool).ravel()
    max_run = (1 << index_bits) - 1
    tokens: list[RleToken] = []
    run = 0
    for is_payload in mask:
        if is_payload:
            tokens.append(RleToken(run=run, has_payload=True))
            run = 0
        else:
            run += 1
            if run == max_run:
                tokens.append(RleToken(run=max_run, has_payload=False))
                run = 0
    if run:
        tokens.append(RleToken(run=run, has_payload=False))
    return RleStream(tokens=tuple(tokens), length=mask.size, index_bits=index_bits)


def rle_decode(stream: RleStream) -> np.ndarray:
    """Decode back to the boolean uncompressed mask."""
    out = np.zeros(stream.length, dtype=bool)
    pos = 0
    for token in stream.tokens:
        pos += token.run
        if token.has_payload:
            if pos >= stream.length:
                raise ValueError("RLE stream overruns its declared length")
            out[pos] = True
            pos += 1
    if pos > stream.length:
        raise ValueError("RLE stream overruns its declared length")
    return out


def rle_index_bits(uncompressed: np.ndarray, index_bits: int = 4) -> int:
    """Bits of index storage needed to encode ``uncompressed`` (fast path).

    Equivalent to ``rle_encode(...).index_storage_bits`` but vectorized so
    the EMA accounting of full-size layers stays cheap.  Thin wrapper over
    :func:`rle_index_bits_batch` so the token-count logic lives in exactly
    one place (cross-checked against the encoder by the property tests).
    """
    mask = np.asarray(uncompressed, dtype=bool).ravel()
    return int(rle_index_bits_batch(mask[None], index_bits)[0])


def rle_index_bits_batch(masks: np.ndarray, index_bits: int = 4) -> np.ndarray:
    """Per-stream index bits for a batch of masks, fully vectorized.

    ``masks`` is ``(R, L)``: ``R`` independent streams of ``L`` vectors each
    (weight streams are mask rows along ``K``; activation streams are mask
    columns, so pass ``ux.T``).  Returns an ``(R,)`` int64 array where entry
    ``i`` equals ``rle_index_bits(masks[i], index_bits)`` — the whole batch is
    sized with a handful of NumPy passes instead of a Python loop per stream,
    which is what keeps the EMA accounting off the hot path for full-size
    layers.
    """
    _check_index_bits(index_bits)
    masks = np.atleast_2d(np.asarray(masks, dtype=bool))
    if masks.ndim != 2:
        raise ValueError(f"masks must be 1-D or 2-D, got shape {masks.shape}")
    n_rows, length = masks.shape
    if not n_rows:
        return np.zeros(0, dtype=np.int64)
    max_run = (1 << index_bits) - 1
    # One sentinel payload past the end of every stream: the flat index
    # step from one payload to the next is then the compressed gap before
    # it, also across stream boundaries, and a sentinel's gap is the
    # trailing compressed run of its stream.
    width = length + 1
    padded = np.ones((n_rows, width), dtype=bool)
    padded[:, :length] = masks
    flat = padded.ravel().nonzero()[0]
    gaps = np.empty_like(flat)
    gaps[0] = flat[0]
    np.subtract(flat[1:], flat[:-1], out=gaps[1:])
    gaps[1:] -= 1
    # A payload's token absorbs up to max_run preceding compressed vectors
    # and continuation tokens carry the rest: 1 + gap // max_run tokens.  A
    # trailing run of T needs ceil(T / max_run) tokens, none when T = 0.
    gaps += max_run
    gaps -= flat % width == length
    gaps //= max_run
    firsts = flat.searchsorted(np.arange(0, n_rows * width, width))
    return np.add.reduceat(gaps, firsts) * index_bits
