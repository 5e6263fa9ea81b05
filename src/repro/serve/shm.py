"""Shared-memory array transport for the process-backed serving tier.

:class:`ShmRing` moves request/response ndarrays between the parent server
and a worker process without pickling the payload: one
:class:`multiprocessing.shared_memory.SharedMemory` block per direction
holds framed array groups, and only the *frame offset* (one integer)
travels over the control pipe.  A frame is a small binary header —
magic/version, request id, trace id, then per array the dtype string,
shape and byte
length — followed by the 64-byte-aligned array payloads, so the reader can
map every array as a zero-copy ``np.ndarray`` view straight into the
segment.

The ring is deliberately minimal: it is **not** a lock-free MPMC queue.
The process pool's control protocol is strictly request/response per
worker (the parent never writes a second request frame before the reply
to the first arrived, and each direction has one writer), so a frame is
never overwritten while the other side may still read it.  The write
cursor wraps to the segment start whenever a frame does not fit in the
tail — bump allocation with wrap-around, which under the one-in-flight
protocol is always safe.  Frames larger than the whole segment do not fit
by construction; :meth:`write` returns ``None`` and the pool falls back to
pickled transport over the pipe (counted, so the benchmark can report how
often the fast path was missed).

Lifetime: the parent creates both directions' segments and is the only
side that ever unlinks them; workers attach by name.  On Python < 3.13
attaching registers the segment with the *child's* resource tracker too
(CPython issue 82300), which would unlink it behind the parent's back when
the child exits — :meth:`attach` undoes that registration.
"""

from __future__ import annotations

import struct
from multiprocessing import shared_memory

import numpy as np

__all__ = ["ShmRing", "DEFAULT_RING_BYTES"]

#: Per-direction default capacity.  Sized for whole coalesced activation
#: groups of the proxy zoo (a max_batch=8 bert_base batch is ~6 MiB of
#: float64); anything bigger falls back to pipe transport rather than
#: failing.
DEFAULT_RING_BYTES = 32 << 20

_MAGIC = 0x52_50_52_47  # "RPRG" — repro ring
_ALIGN = 64
# Frame header: magic u32, n_arrays u32, req_id u64, trace_id u64.
# The trace id rides the frame itself so request identity survives the
# process hop even on the shared-memory fast path (0 = untraced).
_HEAD = struct.Struct("<IIQQ")
# Per-array header: dtype-string length u32, ndim u32, nbytes u64,
# then ndim * i64 dims after the dtype string.
_ARR = struct.Struct("<IIQ")


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


class ShmRing:
    """Single-writer framed array buffer over one shared-memory segment.

    Create the segment with ``ShmRing(capacity)`` (parent side) and attach
    from the worker with :meth:`attach`.  ``write`` returns the frame's
    byte offset (to send over the control pipe) or ``None`` when the frame
    cannot fit; ``read`` maps the frame back into arrays — zero-copy views
    by default on the consuming side, deep copies with ``copy=True`` when
    the arrays must outlive the frame slot.
    """

    def __init__(self, capacity: int = DEFAULT_RING_BYTES, *,
                 name: str | None = None) -> None:
        if name is None:
            if capacity < _ALIGN:
                raise ValueError(
                    f"ring capacity must be >= {_ALIGN} bytes, "
                    f"got {capacity}")
            self._shm = shared_memory.SharedMemory(create=True,
                                                   size=capacity)
            self._owner = True
        else:
            self._shm = shared_memory.SharedMemory(name=name)
            self._owner = False
        self._head = 0
        self.n_frames = 0
        self.n_wraps = 0

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Map an existing segment (worker side); never unlinks it.

        Attaching registers the segment with the resource tracker again
        (CPython issue 82300), which would normally risk a foreign-process
        unlink — but pool workers are *spawned children* and share the
        parent's tracker process, where the re-register is an idempotent
        set-add.  Unregistering here would instead erase the parent's
        registration (and make the final unlink double-unregister), so the
        attach side deliberately leaves the tracker alone.
        """
        return cls(name=name)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def capacity(self) -> int:
        return self._shm.size

    # -- framing --------------------------------------------------------------
    @staticmethod
    def frame_size(arrays) -> int:
        """Bytes one frame of ``arrays`` occupies (headers + padding)."""
        size = _HEAD.size
        for arr in arrays:
            dtype_s = arr.dtype.str.encode("ascii")
            size += _ARR.size + len(dtype_s) + 8 * arr.ndim
        size = _aligned(size)
        for arr in arrays:
            size += _aligned(arr.nbytes)
        return size

    def write(self, req_id: int, arrays, *,
              trace_id: int = 0) -> int | None:
        """Frame ``arrays`` into the ring; returns the frame offset.

        ``None`` means the frame exceeds the whole segment — the caller
        must transport the arrays another way.  Object dtypes are refused: they have no flat byte
        representation (and pickling them is exactly what this ring exists
        to avoid).  ``trace_id`` stamps the frame header for request
        tracing across the process boundary; 0 means untraced.
        """
        arrays = [np.ascontiguousarray(a) for a in arrays]
        for arr in arrays:
            if arr.dtype.hasobject:
                raise TypeError(
                    "ShmRing cannot frame object-dtype arrays")
        size = self.frame_size(arrays)
        if size > self.capacity:
            return None
        if self._head + size > self.capacity:
            self._head = 0
            self.n_wraps += 1
        offset = self._head
        self._write_frame(offset, req_id, trace_id, arrays)
        self._head = offset + size
        self.n_frames += 1
        return offset

    def _write_frame(self, offset: int, req_id: int, trace_id: int,
                     arrays) -> None:
        """Pack one header + payload frame at ``offset`` (pre-sized)."""
        buf = self._shm.buf
        _HEAD.pack_into(buf, offset, _MAGIC, len(arrays), req_id, trace_id)
        cursor = offset + _HEAD.size
        for arr in arrays:
            dtype_s = arr.dtype.str.encode("ascii")
            _ARR.pack_into(buf, cursor, len(dtype_s), arr.ndim, arr.nbytes)
            cursor += _ARR.size
            buf[cursor:cursor + len(dtype_s)] = dtype_s
            cursor += len(dtype_s)
            struct.pack_into(f"<{arr.ndim}q", buf, cursor, *arr.shape)
            cursor += 8 * arr.ndim
        cursor = offset + _aligned(cursor - offset)
        for arr in arrays:
            dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=buf,
                             offset=cursor)
            dst[...] = arr
            cursor += _aligned(arr.nbytes)

    def read(self, offset: int, *,
             copy: bool = False) -> tuple[int, int, list[np.ndarray]]:
        """Decode the frame at ``offset`` to ``(req_id, trace_id, arrays)``.

        ``copy=False`` returns views into the segment — valid only until
        the writer reuses the slot, which under the one-in-flight protocol
        means "until this side sends its reply".  ``copy=True`` detaches
        the arrays from the segment entirely.
        """
        buf = self._shm.buf
        magic, n_arrays, req_id, trace_id = _HEAD.unpack_from(buf, offset)
        if magic != _MAGIC:
            raise ValueError(
                f"no frame at ring offset {offset} "
                f"(magic {magic:#x} != {_MAGIC:#x})")
        cursor = offset + _HEAD.size
        specs = []
        for _ in range(n_arrays):
            dtype_len, ndim, nbytes = _ARR.unpack_from(buf, cursor)
            cursor += _ARR.size
            dtype = np.dtype(bytes(buf[cursor:cursor + dtype_len])
                             .decode("ascii"))
            cursor += dtype_len
            shape = struct.unpack_from(f"<{ndim}q", buf, cursor)
            cursor += 8 * ndim
            specs.append((dtype, shape, nbytes))
        cursor = offset + _aligned(cursor - offset)
        arrays = []
        for dtype, shape, nbytes in specs:
            view = np.ndarray(shape, dtype=dtype, buffer=buf, offset=cursor)
            arrays.append(view.copy() if copy else view)
            cursor += _aligned(nbytes)
        return req_id, trace_id, arrays

    # -- lifecycle ------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "capacity": self.capacity,
            "n_frames": self.n_frames,
            "n_wraps": self.n_wraps,
        }

    def close(self) -> None:
        """Unmap this side's view; the owner also destroys the segment."""
        try:
            self._shm.close()
        except BufferError:
            # A zero-copy view is still alive (a reader holding arrays
            # past its reply).  Leak the mapping rather than crash — the
            # owner's unlink still reclaims the segment at process exit.
            return
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
