"""Tests for plan serialization: per-engine round-trips and the PlanStore."""

import json

import numpy as np
import pytest

from repro.core.pipeline import PtqConfig
from repro.engine import (
    EngineConfig,
    PanaceaSession,
    available_engines,
    get_engine,
    plan_from_state,
)
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.quant.uniform import quantize, symmetric_params
from repro.serve import PlanStore, PlanStoreError
from repro.serve.store import STORE_FORMAT, STORE_VERSION


class TinyNet(Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(16, 32, rng=rng)
        self.fc2 = Linear(32, 8, rng=rng)

    def forward(self, x):
        return self.fc2(np.maximum(self.fc1(x), 0.0))


def _batches(n=3, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(0, 1, (4, 16)) for _ in range(n)]


def _weights(granularity, m=16, k=32, bits=7, seed=0):
    """Quantized weights at per-tensor or per-channel granularity."""
    rng = np.random.default_rng(seed)
    weight = rng.normal(0, 1, (m, k)) * rng.uniform(0.1, 4.0, (m, 1))
    axis = 0 if granularity == "per_channel" else None
    return quantize(weight, symmetric_params(weight, bits, axis=axis))


def _activation(engine_name, k=32, n=8, seed=1):
    rng = np.random.default_rng(seed)
    if engine_name == "aqs":
        return np.clip(np.rint(rng.normal(168, 10, (k, n))), 0,
                       255).astype(np.int64)
    if engine_name == "sibia":
        return rng.integers(-64, 64, (k, n))
    if engine_name == "fp32":
        return rng.normal(0, 1, (k, n))
    return rng.integers(0, 256, (k, n))


class TestPerEnginePlanRoundtrip:
    """state_dict -> plan_from_state is bit-exact for every registered
    engine, at both weight granularities and on both exec paths."""

    @pytest.mark.parametrize("engine_name",
                             ["fp32", "int8_dense", "sibia", "aqs"])
    @pytest.mark.parametrize("granularity", ["per_tensor", "per_channel"])
    @pytest.mark.parametrize("exec_path", ["fast", "sliced"])
    def test_roundtrip_bit_exact(self, engine_name, granularity, exec_path):
        engine = get_engine(engine_name)
        w_q = _weights(granularity)
        x_q = _activation(engine_name)
        zp = 168 if engine.uses_zero_point else 0
        config = EngineConfig(x_bits=7 if engine_name == "sibia" else 8,
                              exec_path=exec_path)
        plan = engine.prepare(w_q, zp, config)
        restored = plan_from_state(plan.state_dict())
        assert type(restored) is type(plan)
        a = engine.execute(plan, x_q)
        b = engine.execute(restored, x_q)
        assert np.array_equal(a.acc, b.acc)
        assert a.ops.mul4 == b.ops.mul4
        assert a.ops.ema_nibbles == b.ops.ema_nibbles
        assert a.ops.rle_index_bits == b.ops.rle_index_bits

    def test_every_registered_engine_is_covered(self):
        """The grid above must cover the whole registry."""
        assert set(available_engines()) == {"fp32", "int8_dense", "sibia",
                                            "aqs"}


class TestPlanStoreRoundtrip:
    @pytest.mark.parametrize("scheme,x_bits", [("aqs", 8), ("sibia", 7),
                                               ("int8_dense", 8),
                                               ("fp32", 8)])
    def test_session_roundtrip_bit_exact(self, tmp_path, scheme, x_bits):
        config = PtqConfig(scheme=scheme, x_bits=x_bits)
        session = PanaceaSession(TinyNet(), config, calibration=_batches())
        store = PlanStore(tmp_path / f"{scheme}.npz")
        store.save(session)
        restored = store.load(model=TinyNet())
        assert restored.prepared
        batch = _batches(1, seed=9)[0]
        assert np.array_equal(session.run(batch), restored.run(batch))

    def test_per_channel_roundtrip(self, tmp_path):
        config = PtqConfig(scheme="aqs", w_granularity="per_channel")
        session = PanaceaSession(TinyNet(), config, calibration=_batches())
        store = PlanStore(tmp_path / "pc.npz")
        store.save(session)
        restored = store.load(model=TinyNet())
        batch = _batches(1, seed=10)[0]
        assert np.array_equal(session.run(batch), restored.run(batch))
        assert restored.config.w_granularity == "per_channel"

    def test_load_runs_zero_prepares(self, tmp_path):
        """The acceptance criterion: rehydration does no weight-side work."""
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        store = PlanStore(tmp_path / "zero.npz")
        store.save(session)

        calls = {"n": 0}
        originals = {}
        for name, cls in available_engines().items():
            originals[name] = cls.prepare

            def counting(self, w_q, zp, config=None, _real=cls.prepare):
                calls["n"] += 1
                return _real(self, w_q, zp, config)

            cls.prepare = counting
        try:
            restored = store.load(model=TinyNet())
            out = restored.run(_batches(1, seed=11)[0])
        finally:
            for name, cls in available_engines().items():
                cls.prepare = originals[name]
        assert calls["n"] == 0
        assert out.shape == (4, 8)

    def test_roundtrip_preserves_ops_and_traces(self, tmp_path):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        store = PlanStore(tmp_path / "ops.npz")
        store.save(session)
        restored = store.load(model=TinyNet())
        batch = _batches(1, seed=12)[0]
        _, (original,) = session.serve_coalesced([batch])
        _, (rehydrated,) = restored.serve_coalesced([batch])
        assert session.total_ops().mul4 == restored.total_ops().mul4
        assert (original.total_ops().ema_nibbles
                == rehydrated.total_ops().ema_nibbles)

    def test_save_requires_prepared_session(self, tmp_path):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"))
        with pytest.raises(RuntimeError, match="prepared"):
            PlanStore(tmp_path / "x.npz").save(session)

    def test_describe(self, tmp_path):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        store = PlanStore(tmp_path / "d.npz")
        store.save(session, model_name="tiny-custom", seed=7)
        info = store.describe()
        assert info["format"] == STORE_FORMAT
        assert info["version"] == STORE_VERSION
        assert info["scheme"] == "aqs"
        assert info["layers"] == ["fc1", "fc2"]
        assert info["model_name"] == "tiny-custom"
        assert info["seed"] == 7

    def test_load_without_model_reference_raises(self, tmp_path):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        store = PlanStore(tmp_path / "nomodel.npz")
        store.save(session)  # no model_name
        with pytest.raises(ValueError, match="float model"):
            store.load()


class TestStoreHeaderValidation:
    def _saved(self, tmp_path):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        store = PlanStore(tmp_path / "h.npz")
        store.save(session)
        return store

    def _rewrite_meta(self, store, mutate):
        with np.load(store.path, allow_pickle=False) as npz:
            payload = {k: npz[k] for k in npz.files}
        meta = json.loads(str(payload["__meta__"][()]))
        mutate(meta)
        payload["__meta__"] = np.array(json.dumps(meta))
        with open(store.path, "wb") as fh:
            np.savez(fh, **payload)

    def test_foreign_format_rejected(self, tmp_path):
        store = self._saved(tmp_path)
        self._rewrite_meta(
            store, lambda m: m["header"].__setitem__("format", "other"))
        with pytest.raises(ValueError, match="not a plan store"):
            store.load(model=TinyNet())

    def test_future_version_rejected(self, tmp_path):
        store = self._saved(tmp_path)
        self._rewrite_meta(
            store,
            lambda m: m["header"].__setitem__("version", STORE_VERSION + 1))
        with pytest.raises(ValueError, match="newer store version"):
            store.load(model=TinyNet())

    def test_legacy_shard_entry_is_ignored(self, tmp_path):
        """Stores written while shard plans were persisted carry a payload
        ``shard`` entry and a header ``n_shards``; both are ignored."""
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        store = self._saved(tmp_path)
        legacy = {"__kind__": "dict", "items": {
            "source": "modeled",
            "stages": {"__kind__": "list", "items": [
                {"__kind__": "dict", "items": {
                    "segments": {"__kind__": "list", "items": [name]},
                    "layers": {"__kind__": "list", "items": [name]},
                    "cost": 1.0}}
                for name in ("fc1", "fc2")]}}}

        def mutate(meta):
            meta["header"]["n_shards"] = 2
            meta["payload"]["items"]["shard"] = legacy

        self._rewrite_meta(store, mutate)
        info = store.describe()
        assert info["version"] == STORE_VERSION
        assert info["layers"] == ["fc1", "fc2"]
        loaded = store.load(model=TinyNet())
        for x in _batches(seed=9):
            assert np.array_equal(loaded.run(x), session.run(x))

    def test_non_store_npz_rejected(self, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError, match="missing manifest"):
            PlanStore(path).describe()


class TestStoreFailurePaths:
    """A store that fails validation raises PlanStoreError — it must never
    rehydrate garbage plans into a serving session."""

    def _saved(self, tmp_path):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        store = PlanStore(tmp_path / "f.npz")
        store.save(session)
        return store

    def test_truncated_file_rejected(self, tmp_path):
        store = self._saved(tmp_path)
        blob = store.path.read_bytes()
        for keep in (len(blob) // 3, len(blob) - 16):
            store.path.write_bytes(blob[:keep])
            with pytest.raises(PlanStoreError):
                store.load(model=TinyNet())
            with pytest.raises(PlanStoreError):
                store.describe()

    def test_corrupt_garbage_bytes_rejected(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"\x00definitely not a zip archive\xff" * 64)
        with pytest.raises(PlanStoreError):
            PlanStore(path).load(model=TinyNet())
        with pytest.raises(PlanStoreError):
            PlanStore(path).describe()

    def test_version_mismatch_is_typed(self, tmp_path):
        store = self._saved(tmp_path)
        with np.load(store.path, allow_pickle=False) as npz:
            payload = {k: npz[k] for k in npz.files}
        meta = json.loads(str(payload["__meta__"][()]))
        meta["header"]["version"] = STORE_VERSION + 5
        payload["__meta__"] = np.array(json.dumps(meta))
        with open(store.path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(PlanStoreError, match="newer store version"):
            store.load(model=TinyNet())

    def test_missing_layer_plan_rejected(self, tmp_path):
        """A manifest whose plans do not cover its calibration records must
        raise, not silently re-prepare (which would mask the corruption)."""
        store = self._saved(tmp_path)
        with np.load(store.path, allow_pickle=False) as npz:
            payload = {k: npz[k] for k in npz.files}
        meta = json.loads(str(payload["__meta__"][()]))
        plans = meta["payload"]["items"]["plans"]["items"]
        assert plans, "saved store must have plans to drop"
        plans.pop(sorted(plans)[0])
        payload["__meta__"] = np.array(json.dumps(meta))
        with open(store.path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(PlanStoreError, match="missing layer plans"):
            store.load(model=TinyNet())

    def test_corrupt_manifest_json_rejected(self, tmp_path):
        store = self._saved(tmp_path)
        with np.load(store.path, allow_pickle=False) as npz:
            payload = {k: npz[k] for k in npz.files}
        payload["__meta__"] = np.array("{not json at all")
        with open(store.path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(PlanStoreError, match="corrupt manifest"):
            store.describe()

    def test_missing_file_keeps_file_not_found(self, tmp_path):
        """A path that simply does not exist is not a corrupt store."""
        with pytest.raises(FileNotFoundError):
            PlanStore(tmp_path / "nope.npz").describe()

    def test_error_type_is_a_value_error(self):
        """Compatibility: pre-PR-4 callers caught ValueError."""
        assert issubclass(PlanStoreError, ValueError)


class TestAtomicSave:
    """save() is temp-file + os.replace: a write that dies partway leaves
    the previous store byte-identical and no temp litter behind."""

    def _saved(self, tmp_path):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        store = PlanStore(tmp_path / "atomic.npz")
        store.save(session)
        return store, session

    def test_interrupted_save_keeps_previous_store(self, tmp_path,
                                                   monkeypatch):
        store, session = self._saved(tmp_path)
        before = store.path.read_bytes()

        def dying_savez(fh, **arrays):
            # Simulate a crash mid-write: some bytes land, then the
            # process "dies" before the file is complete.
            fh.write(b"PK\x03\x04 partial garbage")
            raise RuntimeError("killed mid-save")

        monkeypatch.setattr(np, "savez_compressed", dying_savez)
        with pytest.raises(RuntimeError, match="mid-save"):
            store.save(session)
        # The visible store never saw the partial bytes ...
        assert store.path.read_bytes() == before
        restored = store.load(model=TinyNet())
        batch = _batches(1, seed=13)[0]
        assert np.array_equal(session.run(batch), restored.run(batch))
        # ... and the temp file did not leak.
        leftovers = [p for p in tmp_path.iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []

    def test_interrupted_first_save_leaves_no_store(self, tmp_path,
                                                    monkeypatch):
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 calibration=_batches())
        store = PlanStore(tmp_path / "fresh.npz")

        def dying_savez(fh, **arrays):
            fh.write(b"partial")
            raise RuntimeError("killed mid-save")

        monkeypatch.setattr(np, "savez_compressed", dying_savez)
        with pytest.raises(RuntimeError, match="mid-save"):
            store.save(session)
        assert not store.path.exists()
        assert list(tmp_path.iterdir()) == []


class TestMmapLoad:
    """load(mmap=True): plan arrays come up as read-only views over the
    extracted blob sidecar — bit-exact vs the eager inflation, rebuilt
    only when the store itself changed."""

    def _saved(self, tmp_path, seed=0):
        session = PanaceaSession(TinyNet(seed=seed),
                                 PtqConfig(scheme="aqs"),
                                 calibration=_batches(seed=seed))
        store = PlanStore(tmp_path / "mm.npz")
        store.save(session)
        return store, session

    def test_mmap_load_bit_exact_vs_eager(self, tmp_path):
        store, session = self._saved(tmp_path)
        eager = store.load(model=TinyNet())
        mapped = store.load(model=TinyNet(), mmap=True)
        assert store.blob_path.exists()
        for batch in _batches(3, seed=21):
            expect = session.run(batch)
            assert np.array_equal(eager.run(batch), expect)
            assert np.array_equal(mapped.run(batch), expect)

    def test_blob_reused_until_store_changes(self, tmp_path):
        store, _ = self._saved(tmp_path)
        first = store.ensure_blob()
        stat_first = first.stat()
        # A second load maps the existing sidecar instead of rebuilding.
        assert store.ensure_blob() == first
        assert first.stat().st_mtime_ns == stat_first.st_mtime_ns
        # Re-saving the store invalidates the sidecar's source signature.
        session = PanaceaSession(TinyNet(seed=3), PtqConfig(scheme="aqs"),
                                 calibration=_batches(seed=3))
        store.save(session)
        rebuilt = store.load(model=TinyNet(seed=3), mmap=True)
        batch = _batches(1, seed=22)[0]
        assert np.array_equal(rebuilt.run(batch), session.run(batch))

    def test_mmap_plan_arrays_are_read_only_views(self, tmp_path):
        store, _ = self._saved(tmp_path)
        mapped = store.load(model=TinyNet(), mmap=True)
        arrays = [plan.w_q for plan in mapped.plans.values()
                  if getattr(plan, "w_q", None) is not None]
        assert arrays, "expected at least one plan weight array"
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                arr[...] = 0

    def test_blob_preserves_alignment_multiple_tails(self, tmp_path):
        """Every raw member survives the blob round trip byte for byte —
        including arrays whose nbytes is an exact multiple of the 64-byte
        alignment.  Such an array has *no* tail padding in its blob
        region, and the old size-backfill write (a ``\\0`` at
        ``total - 1``) zeroed the final byte of the last array whenever it
        ended flush with the file — flipping one weight's top byte."""
        store, _ = self._saved(tmp_path)
        _, eager_arrays = store._read()
        _, mapped_arrays = store._read_mmap()
        assert set(eager_arrays) == set(mapped_arrays)
        aligned_tail = [k for k, a in eager_arrays.items()
                        if a.nbytes and a.nbytes % 64 == 0]
        assert aligned_tail, (
            "fixture must include at least one alignment-multiple array "
            "or the regression corner is untested")
        for key, expect in eager_arrays.items():
            got = np.asarray(mapped_arrays[key])
            assert got.dtype == expect.dtype and got.shape == expect.shape
            assert np.array_equal(got, expect), (
                f"blob member {key} differs from the archive "
                f"({expect.dtype}, {expect.nbytes} bytes)")
        # Adversarial tail: one member, 64 bytes of 0xFF, ending flush
        # with the file — the exact shape the backfill bug corrupted.
        store.blob_path.unlink()
        tail = np.full(8, -1, dtype=np.int64)
        store._read = lambda: ({}, {"a0": tail})
        _, crafted = store._read_mmap()
        assert np.array_equal(np.asarray(crafted["a0"]), tail), (
            "final byte of an alignment-multiple last member was clobbered")

    def test_mmap_load_without_blob_builds_it(self, tmp_path):
        store, session = self._saved(tmp_path)
        if store.blob_path.exists():
            store.blob_path.unlink()
        mapped = store.load(model=TinyNet(), mmap=True)
        assert store.blob_path.exists()
        batch = _batches(1, seed=23)[0]
        assert np.array_equal(mapped.run(batch), session.run(batch))
