"""ShmRing framing edge cases: exact-boundary wraps and oversize fallback
accounting.

These are the corners the serving protocol normally never hits (frames are
far smaller than the ring): the ring must refuse — not corrupt — a frame
one alignment chunk too big, so the pool can fall back to the pipe.
"""

import numpy as np
import pytest

from repro.serve.shm import ShmRing, _ALIGN, _HEAD


def _frame_payload_bytes(frame_bytes: int) -> int:
    """Payload size (in float64s) making one-array frames exactly
    ``frame_bytes`` long: one 64-aligned header chunk + aligned payload."""
    assert frame_bytes % _ALIGN == 0 and frame_bytes >= 2 * _ALIGN
    return frame_bytes - _ALIGN


def _array_for_frame(frame_bytes: int, fill: float) -> np.ndarray:
    n = _frame_payload_bytes(frame_bytes) // 8
    return np.full(n, fill, dtype=np.float64)


def test_frame_size_matches_layout():
    arr = _array_for_frame(128, 1.0)
    assert ShmRing.frame_size([arr]) == 128


def test_unslotted_wrap_at_exact_capacity_boundary():
    ring = ShmRing(4096)
    try:
        frame = 128
        per_ring = ring.capacity // frame
        offsets = [ring.write(i, [_array_for_frame(frame, float(i))])
                   for i in range(per_ring)]
        # The last frame ends exactly at capacity: fits without wrapping.
        assert offsets == [i * frame for i in range(per_ring)]
        assert ring.n_wraps == 0
        # The next frame has zero tail left: it must wrap to offset 0.
        off = ring.write(per_ring, [_array_for_frame(frame, -1.0)])
        assert off == 0
        assert ring.n_wraps == 1
        req_id, _tid, arrays = ring.read(0)
        assert req_id == per_ring
        assert arrays[0][0] == -1.0
        # The frame *after* the wrapped one is still intact.
        req_id, _tid, arrays = ring.read(frame)
        assert req_id == 1
        assert arrays[0][0] == 1.0
    finally:
        ring.close()


def test_accepts_exact_capacity_and_refuses_one_chunk_more():
    ring = ShmRing(4096)
    try:
        exact = _array_for_frame(ring.capacity, 2.0)
        assert ShmRing.frame_size([exact]) == ring.capacity
        assert ring.write(0, [exact]) == 0
        # One alignment chunk more than the ring: refused, not truncated.
        over = np.full(ring.capacity // 8, 3.0, dtype=np.float64)
        assert ShmRing.frame_size([over]) > ring.capacity
        assert ring.write(1, [over]) is None
        # The refusal wrote nothing: the exact frame is unharmed.
        assert ring.n_frames == 1
        assert ring.n_wraps == 0
        _, _, arrays = ring.read(0)
        assert np.all(arrays[0] == 2.0)
    finally:
        ring.close()


def test_oversize_fallback_conserves_counters():
    """A None write is pure fallback signalling: no frame, no wrap, and
    the frames-written + fallbacks tally equals the attempts made."""
    ring = ShmRing(4096)
    try:
        attempts, fallbacks = 0, 0
        rng = np.random.default_rng(0)
        for i in range(12):
            big = bool(i % 3 == 2)
            n = (ring.capacity * 2 if big else 64) // 8
            offset = ring.write(i, [rng.standard_normal(n)])
            attempts += 1
            if offset is None:
                fallbacks += 1
        assert fallbacks == 4
        assert ring.n_frames == attempts - fallbacks
        # 8 accepted 128-byte frames fill a quarter of the ring: no wrap.
        assert ring.n_wraps == 0
    finally:
        ring.close()


def test_trace_id_rides_frame_header():
    """The u64 trace id round-trips through the frame header, defaults to
    0 (untraced), and is per-frame state — one traced frame does not
    contaminate its neighbours."""
    ring = ShmRing(4096)
    try:
        tid = 0xDEAD_BEEF_CAFE_F00D
        off_a = ring.write(1, [np.arange(4.0)], trace_id=tid)
        off_b = ring.write(2, [np.arange(4.0) + 1])
        req_id, got_tid, arrays = ring.read(off_a)
        assert (req_id, got_tid) == (1, tid)
        assert np.array_equal(arrays[0], np.arange(4.0))
        req_id, got_tid, _ = ring.read(off_b)
        assert (req_id, got_tid) == (2, 0)
    finally:
        ring.close()


def test_read_rejects_empty_offset():
    ring = ShmRing(4096)
    try:
        ring.write(0, [np.arange(4.0)])
        with pytest.raises(ValueError, match="magic"):
            ring.read(ring.capacity // 2)  # never written
    finally:
        ring.close()
