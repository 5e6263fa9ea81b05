"""Process environment: BLAS pinning, the source tree, the host fingerprint.

Importable before numpy: :func:`pin_blas` must run before numpy's first
import, because the BLAS libraries read their thread caps once, at load.
"""

from __future__ import annotations

import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")

BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_blas(threads: int = 1) -> None:
    """Cap every BLAS pool at ``threads`` unless the caller set a cap."""
    for var in BLAS_ENV_VARS:
        os.environ.setdefault(var, str(threads))


def child_env() -> dict:
    """Environment of the processes the benchmark starts.

    Bytecode caching is on, into a cache inside the checkout: a restarted
    server finds its modules compiled, so a cold start measures imports,
    not compiling them, whatever the caller's ``PYTHONDONTWRITEBYTECODE``.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".bench_cache", "pycache")
    return env


def source_tree_present() -> bool:
    return os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py"))


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    if not source_tree_present():
        raise SystemExit(f"no repro package under {SOURCE}: run the "
                         "benchmark from a full checkout")
    sys.path.insert(0, SOURCE)


def _blas_threads_loaded():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    import glob

    import numpy as np

    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in sorted(glob.glob(os.path.join(site, "*openblas*", "lib",
                                              "*.so*"))
                       + glob.glob(os.path.join(site, "numpy.libs",
                                                "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return None


def fingerprint() -> dict:
    """The host facts every result is recorded with."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    blas["threads_loaded"] = _blas_threads_loaded()
    blas["env_caps"] = {var: os.environ.get(var) for var in BLAS_ENV_VARS}
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas": blas,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "git_sha": _git_sha()}
