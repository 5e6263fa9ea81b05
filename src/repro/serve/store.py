"""Persistent layer-plan store: serve a converted model with zero re-prepare.

Panacea's weight-side work (SBR slicing, HO masks, RLE index sizing, the
Eq. 6 compensation) is offline by construction; :class:`PlanStore` makes it
offline across *process lifetimes*.  ``save`` snapshots a prepared
:class:`~repro.engine.session.PanaceaSession` — its :class:`PtqConfig`,
every :class:`LayerQuantRecord` calibration decided, and every engine
:class:`LayerPlan` via the ``state_dict``/``plan_from_state`` machinery —
into one versioned ``.npz`` file.  ``load`` rehydrates a ready-to-execute
session without re-calibrating and without a single engine ``prepare`` call
(asserted in the tests), so a served fleet pays calibration exactly once.

The file format is pickle-free: arrays live as plain ``.npz`` entries and
the nested structure (plan state dicts, quant params, DBS decisions) is a
JSON manifest referencing them, behind a magic/version header that rejects
foreign or future files.  Round-trips are bit-exact — ``float64`` scales and
``int64`` codes survive unchanged — so a restored session's outputs equal
the original's bit for bit.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
import tempfile
import time
import zipfile
from dataclasses import asdict

import numpy as np

from ..core.dbs import DbsDecision, DbsType
from ..core.pipeline import LayerQuantRecord, PtqConfig
from ..engine.base import plan_from_state
from ..engine.session import PanaceaSession
from ..quant.uniform import QuantParams

__all__ = ["PlanStore", "PlanStoreError", "STORE_FORMAT", "STORE_VERSION"]

STORE_FORMAT = "repro-plan-store"
STORE_VERSION = 1

_META_KEY = "__meta__"

# Array-blob sidecar (the mmap fast path): raw uncompressed array bytes
# extracted once from the .npz, so N worker processes can map one physical
# copy of the weights instead of each inflating its own.
_BLOB_MAGIC = b"RPBL"
_BLOB_VERSION = 1
_BLOB_ALIGN = 64
_BLOB_HEAD = struct.Struct("<4sIQ")  # magic, version, header-JSON length


class PlanStoreError(ValueError):
    """A plan-store file cannot be trusted: wrong format, newer version,
    truncated/corrupt bytes, or a manifest that does not cover the model.

    Every load-side failure raises this one type (a ``ValueError``
    subclass, so pre-existing callers keep working) — a store that fails
    validation must never rehydrate garbage plans into a serving session.
    """


def _encode(obj, arrays: list) -> object:
    """Lower a nested state tree to JSON, hoisting arrays into ``arrays``."""
    if isinstance(obj, np.ndarray):
        arrays.append(np.ascontiguousarray(obj))
        return {"__kind__": "ndarray", "ref": len(arrays) - 1}
    if isinstance(obj, np.generic):
        return _encode(obj.item(), arrays)
    if isinstance(obj, dict):
        items = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"store keys must be strings, got {key!r}")
            items[key] = _encode(value, arrays)
        return {"__kind__": "dict", "items": items}
    if isinstance(obj, (list, tuple)):
        return {"__kind__": "tuple" if isinstance(obj, tuple) else "list",
                "items": [_encode(v, arrays) for v in obj]}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot store object of type {type(obj).__name__}")


def _decode(node, arrays: dict) -> object:
    """Inverse of :func:`_encode`."""
    if isinstance(node, dict):
        kind = node.get("__kind__")
        if kind == "ndarray":
            return arrays[f"a{node['ref']}"]
        if kind == "dict":
            return {k: _decode(v, arrays) for k, v in node["items"].items()}
        if kind in ("list", "tuple"):
            seq = [_decode(v, arrays) for v in node["items"]]
            return tuple(seq) if kind == "tuple" else seq
        raise ValueError(f"malformed store node: {node!r}")
    return node


def _params_state(params: QuantParams) -> dict:
    return {"scale": np.asarray(params.scale),
            "zero_point": np.asarray(params.zero_point),
            "bits": params.bits, "signed": params.signed}


def _params_from_state(state: dict) -> QuantParams:
    return QuantParams(scale=state["scale"], zero_point=state["zero_point"],
                       bits=int(state["bits"]), signed=bool(state["signed"]))


def _record_state(record: LayerQuantRecord) -> dict:
    dbs = record.dbs
    return {
        "name": record.name,
        "w_q": record.w_q,
        "w_params": _params_state(record.w_params),
        "x_params": _params_state(record.x_params),
        "dbs": None if dbs is None else {
            "type_id": dbs.dbs_type.type_id,
            "lo_bits": dbs.dbs_type.lo_bits,
            "zp": dbs.zp, "r": dbs.r, "std": dbs.std, "z": dbs.z,
        },
        "w_bits": record.w_bits,
        "x_bits": record.x_bits,
    }


def _record_from_state(state: dict) -> LayerQuantRecord:
    dbs_state = state["dbs"]
    dbs = None
    if dbs_state is not None:
        dbs = DbsDecision(
            dbs_type=DbsType(type_id=int(dbs_state["type_id"]),
                             lo_bits=int(dbs_state["lo_bits"])),
            zp=int(dbs_state["zp"]), r=int(dbs_state["r"]),
            std=float(dbs_state["std"]), z=float(dbs_state["z"]))
    return LayerQuantRecord(
        name=str(state["name"]),
        w_q=np.asarray(state["w_q"], dtype=np.int64),
        w_params=_params_from_state(state["w_params"]),
        x_params=_params_from_state(state["x_params"]),
        dbs=dbs,
        w_bits=int(state["w_bits"]),
        x_bits=int(state["x_bits"]),
    )


class PlanStore:
    """One persisted converted model at a filesystem path.

    ``save`` requires a *prepared* session; ``load`` returns a session that
    serves immediately.  When the session's float architecture came from the
    proxy zoo, passing ``model_name``/``seed`` at save time lets ``load``
    rebuild it standalone (the CLI path); otherwise the caller provides the
    float model.
    """

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)

    # -- write ---------------------------------------------------------------
    def save(self, session: PanaceaSession, *, model_name: str | None = None,
             seed: int = 0) -> pathlib.Path:
        """Serialize a prepared session's config, records and plans."""
        if not session.prepared:
            raise RuntimeError(
                "PlanStore.save needs a prepared session: calibrate first so "
                "there are layer plans to persist")
        records = session.pipeline.records
        plans = session.plans
        payload = {
            "config": asdict(session.config),
            "records": {name: _record_state(rec)
                        for name, rec in records.items()},
            "plans": {name: plan.state_dict()
                      for name, plan in plans.items()},
            "model": {"name": model_name, "seed": seed},
        }
        arrays: list = []
        tree = _encode(payload, arrays)
        meta = {
            "header": {
                "format": STORE_FORMAT,
                "version": STORE_VERSION,
                "scheme": session.config.scheme,
                "n_layers": len(records),
                "n_plans": len(plans),
                "created_unix_s": time.time(),
            },
            "payload": tree,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic: write to a temp file in the same directory and rename
        # into place, so a crash mid-save can never leave a truncated
        # archive at the final path — the old store (if any) survives
        # intact and the torn temp file is removed.
        fd, tmp = tempfile.mkstemp(dir=self.path.parent,
                                   prefix=self.path.name + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                # Compressed: the int64 slice planes hold tiny magnitudes
                # and deflate by an order of magnitude.
                np.savez_compressed(
                    fh, **{_META_KEY: np.array(json.dumps(meta))},
                    **{f"a{i}": arr for i, arr in enumerate(arrays)})
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return self.path

    # -- read ----------------------------------------------------------------
    def _check_header(self, meta: dict) -> None:
        header = meta.get("header", {})
        if header.get("format") != STORE_FORMAT:
            raise PlanStoreError(
                f"{self.path} is not a plan store "
                f"(format {header.get('format')!r})")
        if int(header.get("version", 0)) > STORE_VERSION:
            raise PlanStoreError(
                f"{self.path} was written by a newer store version "
                f"{header.get('version')} (this build reads <= "
                f"{STORE_VERSION})")

    def _read_meta(self, npz) -> dict:
        if _META_KEY not in npz:
            raise PlanStoreError(
                f"{self.path} is not a plan store (missing manifest)")
        try:
            meta = json.loads(str(npz[_META_KEY][()]))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise PlanStoreError(
                f"{self.path} has a corrupt manifest: {exc}") from exc
        self._check_header(meta)
        return meta

    def _open(self):
        """``np.load`` with archive-level failures typed as store errors."""
        try:
            return np.load(self.path, allow_pickle=False)
        except FileNotFoundError:
            raise
        except (zipfile.BadZipFile, OSError, ValueError, EOFError) as exc:
            raise PlanStoreError(
                f"{self.path} is truncated or not a plan store archive: "
                f"{exc}") from exc

    def _read(self, *, mmap: bool = False) -> tuple[dict, dict]:
        if mmap:
            return self._read_mmap()
        with self._open() as npz:
            meta = self._read_meta(npz)
            try:
                arrays = {key: npz[key]
                          for key in npz.files if key != _META_KEY}
            except (zipfile.BadZipFile, OSError, ValueError,
                    EOFError) as exc:
                # Manifest intact but an array member cut short — a
                # mid-write truncation must not rehydrate partial plans.
                raise PlanStoreError(
                    f"{self.path} has truncated array data: {exc}") from exc
        return meta, arrays

    # -- mmap-shared array blob ----------------------------------------------
    @property
    def blob_path(self) -> pathlib.Path:
        """The extracted-array sidecar backing ``load(mmap=True)``."""
        return self.path.with_name(self.path.name + ".blob")

    def _source_signature(self) -> dict:
        st = os.stat(self.path)
        return {"size": st.st_size, "mtime_ns": st.st_mtime_ns}

    def _build_blob(self) -> dict:
        """Extract the archive's arrays into one raw, aligned blob file.

        Built atomically (temp + rename) next to the store; the blob header
        records the source archive's size/mtime so a re-saved store
        invalidates stale blobs.  Returns ``(header, payload_base)``.
        """
        signature = self._source_signature()
        meta, arrays = self._read()
        del meta
        index: dict[str, dict] = {}
        offset = 0
        ordered = []
        for key in sorted(arrays, key=lambda k: int(k[1:])):
            arr = np.ascontiguousarray(arrays[key])
            index[key] = {"offset": offset, "dtype": arr.dtype.str,
                          "shape": list(arr.shape), "nbytes": arr.nbytes}
            ordered.append((offset, arr))
            offset += -(-arr.nbytes // _BLOB_ALIGN) * _BLOB_ALIGN
        header = {"format": STORE_FORMAT, "blob_version": _BLOB_VERSION,
                  "source": signature, "arrays": index}
        header_bytes = json.dumps(header).encode("utf-8")
        base = _BLOB_HEAD.size + len(header_bytes)
        base = -(-base // _BLOB_ALIGN) * _BLOB_ALIGN
        fd, tmp = tempfile.mkstemp(dir=self.path.parent,
                                   prefix=self.blob_path.name + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_BLOB_HEAD.pack(_BLOB_MAGIC, _BLOB_VERSION,
                                         len(header_bytes)))
                fh.write(header_bytes)
                fh.write(b"\0" * (base - _BLOB_HEAD.size - len(header_bytes)))
                for off, arr in ordered:
                    fh.seek(base + off)
                    fh.write(arr.tobytes())
                # Extend to the full aligned size with truncate: a write at
                # ``total - 1`` would land *inside* the last array whenever
                # its nbytes is an exact multiple of the alignment (no tail
                # padding) and zero its final byte.
                fh.truncate(base + offset)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.blob_path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return header, base

    def _blob_header(self) -> tuple[dict, int] | None:
        """Parse the sidecar header and payload base; ``None`` when the
        sidecar is absent, foreign or torn."""
        try:
            with open(self.blob_path, "rb") as fh:
                head = fh.read(_BLOB_HEAD.size)
                if len(head) < _BLOB_HEAD.size:
                    return None
                magic, version, header_len = _BLOB_HEAD.unpack(head)
                if magic != _BLOB_MAGIC or version > _BLOB_VERSION:
                    return None
                header_bytes = fh.read(header_len)
                if len(header_bytes) < header_len:
                    return None
                base = _BLOB_HEAD.size + header_len
                base = -(-base // _BLOB_ALIGN) * _BLOB_ALIGN
                return json.loads(header_bytes.decode("utf-8")), base
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None

    def ensure_blob(self) -> pathlib.Path:
        """Build (or validate) the mmap sidecar; returns its path.

        The parent-side pre-build hook: a pool about to broadcast an
        ``mmap=True`` load to N workers extracts the blob once here
        instead of letting every worker race to build its own.
        """
        self._ensure_blob()
        return self.blob_path

    def _ensure_blob(self) -> tuple[dict, int]:
        """Reuse a current sidecar or (re)build it from the archive."""
        parsed = self._blob_header()
        if parsed is not None \
                and parsed[0].get("source") == self._source_signature():
            return parsed
        return self._build_blob()

    def _read_mmap(self) -> tuple[dict, dict]:
        """Manifest from the archive, arrays as read-only mmap views.

        Every array is an ``np.ndarray`` view into one ``np.memmap`` of the
        blob sidecar, so concurrent loaders (N worker processes rehydrating
        the same deployment) share one physical copy of the weight bytes
        through the page cache.  The views are non-writeable by
        construction; any consumer that must mutate copies its own slice —
        exactly the copy-on-write contract for the small mutable bits.
        """
        with self._open() as npz:
            meta = self._read_meta(npz)
        header, base = self._ensure_blob()
        mm = np.memmap(self.blob_path, dtype=np.uint8, mode="r")
        arrays = {}
        for key, spec in header["arrays"].items():
            view = np.ndarray(tuple(spec["shape"]),
                              dtype=np.dtype(spec["dtype"]),
                              buffer=mm, offset=base + int(spec["offset"]))
            arrays[key] = view
        return meta, arrays

    def describe(self) -> dict:
        """The header plus layer names — cheap: reads only the JSON
        manifest, never inflating the stored arrays."""
        with self._open() as npz:
            meta = self._read_meta(npz)
        # Walk the encoded tree directly; model name/seed are plain JSON
        # scalars and the record names are manifest keys.
        payload = meta["payload"]["items"]
        model = payload["model"]["items"]
        return {
            **meta["header"],
            "model_name": model["name"],
            "seed": model["seed"],
            "layers": sorted(payload["records"]["items"]),
        }

    def load(self, model=None, *, count_ops: bool = True,
             keep_masks: bool = False, auto_calibrate: bool = False,
             mmap: bool = False) -> PanaceaSession:
        """Rehydrate a ready-to-execute session.

        ``model`` is the float architecture the store was calibrated on;
        omitted, it is rebuilt from the saved proxy-zoo reference.  No
        calibration and no engine ``prepare`` runs — the session serves its
        first request straight from the restored plans.

        ``mmap=True`` rehydrates the plan arrays as read-only views over
        one extracted array blob on disk (built next to the store on first
        use, reused while the store is unchanged), so N processes loading
        the same store share one physical copy of the weights through the
        page cache instead of N private inflations.  Outputs are bit-exact
        either way.
        """
        meta, arrays = self._read(mmap=mmap)
        payload = _decode(meta["payload"], arrays)
        if model is None:
            model_name = payload["model"]["name"]
            if model_name is None:
                raise ValueError(
                    f"{self.path} was saved without a proxy-zoo model "
                    "reference; pass the float model to load()")
            from ..models.zoo import build_proxy

            model, _ = build_proxy(model_name,
                                   seed=int(payload["model"]["seed"] or 0))
        config = PtqConfig(**payload["config"])
        # fp32 conversion is the identity — it has records but no plans.
        if config.scheme != "fp32":
            missing = sorted(set(payload["records"]) - set(payload["plans"]))
            if missing:
                raise PlanStoreError(
                    f"{self.path} is missing layer plans for {missing}; the "
                    "store does not cover its own calibration records and "
                    "cannot rehydrate a complete session")
        records = {name: _record_from_state(state)
                   for name, state in payload["records"].items()}
        plans = {name: plan_from_state(state)
                 for name, state in payload["plans"].items()}
        return PanaceaSession.restore(
            model, config, records, plans, count_ops=count_ops,
            keep_masks=keep_masks, auto_calibrate=auto_calibrate)
