"""Worker-process entry point for :class:`ProcessWorkerPool`.

One worker process hosts rehydrated serving sessions and executes
whatever the parent dispatches over its control pipe.  The contract
mirrors the thread pool's task model but crosses a process boundary, so
everything is built around two rules:

* **No pickled model state.**  Deployments arrive as a
  :class:`~repro.serve.store.PlanStore` path plus either the stored
  proxy-zoo reference or a picklable ``model_factory``; the worker
  rehydrates the session locally (plans are already pickle-free ``.npz``).
  Request/response activations travel through the
  :class:`~repro.serve.shm.ShmRing` pair — only frame offsets cross the
  pipe — with an automatic pipe fallback for frames bigger than the ring.
* **BLAS threads are capped before numpy exists.**  ``P processes × T``
  BLAS threads oversubscribe the machine unless each worker is pinned to
  its share.  The authoritative cap is the parent's environment window
  around ``Process.start()`` (spawned children inherit the capped
  environment, and OpenBLAS/MKL/OMP read it at library load); this module
  re-applies the cap at entry for any BLAS library loaded later, and
  :func:`blas_env` reports the effective values for benchmarks/tests.

The message protocol is a tagged tuple per request, one reply per message
(``("ok", payload)`` / ``("served", ...)`` / ``("error", exc)``), with
``None`` as the shutdown sentinel.  Any exception — including
:class:`~repro.serve.store.PlanStoreError` from a truncated store — is
replied, not raised, so it propagates to the parent future instead of
killing the worker; only an actual process death (signal, ``os._exit``)
surfaces as a crash, which the pool detects on the broken pipe.
"""

from __future__ import annotations

import os

__all__ = ["worker_main", "pin_blas_env", "blas_env", "BLAS_ENV_VARS"]

#: The env caps every mainstream BLAS/threading backend honors at load.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_blas_env(threads: int) -> dict[str, str]:
    """Cap every known BLAS thread knob to ``threads``; returns the caps.

    Only effective for libraries not yet loaded — call it before numpy's
    first import (the parent's spawn-time environment window guarantees
    that for worker processes).
    """
    caps = {var: str(int(threads)) for var in BLAS_ENV_VARS}
    os.environ.update(caps)
    return caps


def _memory_kib() -> dict:
    """This process's resident/proportional memory, in KiB (Linux).

    ``rss_kib`` counts every resident page, including pages *shared* with
    other processes (an mmap'd plan blob shows up once per worker).
    ``pss_kib`` (from ``smaps_rollup``) divides shared pages by their
    sharer count, so summing PSS across workers is the honest total — the
    number the mmap-vs-eager memory bench compares.  ``None`` where /proc
    is unavailable (non-Linux).
    """
    info: dict = {"rss_kib": None, "pss_kib": None}
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    info["rss_kib"] = int(line.split()[1])
                    break
    except OSError:
        pass
    try:
        with open("/proc/self/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    info["pss_kib"] = int(line.split()[1])
                    break
    except OSError:
        pass
    return info


def blas_env() -> dict:
    """The worker's effective BLAS pinning + memory, for tests/benchmarks."""
    return {
        "pid": os.getpid(),
        "env": {var: os.environ.get(var) for var in BLAS_ENV_VARS},
        "memory": _memory_kib(),
    }


def _reply(conn, message) -> None:
    """Send a reply, degrading unpicklable error payloads to their repr."""
    try:
        conn.send(message)
    except Exception:  # noqa: BLE001 — the reply itself failed to pickle
        tag = message[0] if isinstance(message, tuple) and message else "?"
        detail = message[1] if tag == "error" and len(message) > 1 else None
        conn.send(("error", RuntimeError(
            f"worker reply unpicklable (tag {tag!r}): "
            f"{type(detail).__name__}: {detail}")))


def _load_session(store_path, model_factory, load_kwargs):
    """Rehydrate one deployment's session from its plan store.

    ``mmap=True`` unless the caller opted out: plan arrays come up as
    read-only views over the store's extracted blob, so every worker
    loading the same deployment shares one physical copy of the weights
    through the page cache (``load_kwargs={"mmap": False}`` restores the
    private eager inflation).
    """
    from .store import PlanStore

    kwargs = dict(load_kwargs or {})
    kwargs.setdefault("mmap", True)
    model = model_factory() if model_factory is not None else None
    return PlanStore(store_path).load(model=model, **kwargs)


def worker_main(conn, req_ring_name: str, resp_ring_name: str,
                worker_id: int, blas_threads: int) -> None:
    """Serve the parent's control pipe until the shutdown sentinel.

    ``conn`` is the child end of the worker's duplex pipe;
    ``req_ring_name``/``resp_ring_name`` identify the shared-memory
    segments for inbound batches and outbound outputs.
    """
    pin_blas_env(blas_threads)
    # numpy (and the whole engine stack) loads *after* the caps above and
    # after the parent's spawn-time environment window — either way the
    # BLAS pools come up pinned.
    import numpy as np

    from .shm import ShmRing

    req_ring = ShmRing.attach(req_ring_name)
    resp_ring = ShmRing.attach(resp_ring_name)
    sessions: dict[str, object] = {}
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break                      # parent died: nothing to reply to
            if message is None:
                _reply(conn, ("ok", "bye"))
                break
            tag, payload = message[0], message[1:]
            try:
                if tag == "load":
                    name, store_path, model_factory, load_kwargs = payload
                    sessions[name] = _load_session(
                        store_path, model_factory, load_kwargs)
                    _reply(conn, ("ok", sessions[name].stats()["n_plans"]))
                elif tag == "unload":
                    sessions.pop(payload[0], None)
                    _reply(conn, ("ok", None))
                elif tag == "serve":
                    (name, pad_axis, pad_value, offset, fallback,
                     trace_id) = payload
                    session = sessions.get(name)
                    if session is None:
                        raise KeyError(
                            f"worker {worker_id} has no deployment "
                            f"{name!r} (loaded: {sorted(sessions)})")
                    if offset is not None:
                        # Zero-copy: the views stay valid through the
                        # forward because the parent never writes the next
                        # request frame before this reply arrives.
                        _, frame_tid, batches = req_ring.read(offset)
                        trace_id = trace_id or frame_tid
                    else:
                        batches = fallback
                    outputs, records = session.serve_coalesced(
                        batches, pad_axis=pad_axis, pad_value=pad_value)
                    outputs = [np.ascontiguousarray(o) for o in outputs]
                    metas = [(r.request_id, tuple(r.batch_shape),
                              r.latency_s, r.coalesced) for r in records]
                    out_offset = resp_ring.write(0, outputs,
                                                 trace_id=trace_id)
                    if out_offset is None:    # bigger than the ring
                        _reply(conn, ("served", None, outputs, metas))
                    else:
                        _reply(conn, ("served", out_offset, None, metas))
                elif tag == "call":
                    fn, args, kwargs = payload
                    _reply(conn, ("ok", fn(*args, **(kwargs or {}))))
                elif tag == "stats":
                    name = payload[0]
                    if name is not None:
                        stats = sessions[name].stats()
                    else:
                        stats = {n: s.stats() for n, s in sessions.items()}
                    _reply(conn, ("ok", stats))
                elif tag == "ping":
                    _reply(conn, ("ok", blas_env()))
                else:
                    raise ValueError(f"unknown worker message tag {tag!r}")
            except BaseException as exc:  # noqa: BLE001 — reply, don't die
                _reply(conn, ("error", exc))
    finally:
        req_ring.close()
        resp_ring.close()
        conn.close()
