"""Fail-closed behaviour of the artifact read/write layer."""

import json

import numpy as np
import pytest

from repro.store.artifacts import (
    ArtifactStore,
    StoreError,
    read_artifact,
    write_artifact,
)
from repro.store.fingerprint import FORMAT_VERSION


@pytest.fixture()
def arrays():
    return {
        "small": np.arange(12, dtype=np.int64).reshape(3, 4),
        "scores": np.linspace(0.0, 1.0, 9).reshape(3, 3),
    }


@pytest.fixture()
def artifact_path(tmp_path, arrays):
    return write_artifact(
        tmp_path / "artifact",
        {"meta": {"params": {"method": "mc"}}},
        arrays,
        documents={"graph": {"nodes": ["a", "b"]}},
    )


class TestRoundTrip:
    def test_arrays_and_documents_survive(self, artifact_path, arrays):
        artifact = read_artifact(artifact_path)
        for name, original in arrays.items():
            assert np.array_equal(artifact.arrays[name], original)
        assert artifact.documents["graph"] == {"nodes": ["a", "b"]}
        assert artifact.meta["params"] == {"method": "mc"}

    def test_arrays_are_memmapped_readonly(self, artifact_path):
        artifact = read_artifact(artifact_path)
        array = artifact.arrays["scores"]
        assert isinstance(array, np.memmap)
        with pytest.raises((ValueError, OSError)):
            array[0, 0] = 99.0

    def test_nbytes_totals_manifest(self, artifact_path, arrays):
        artifact = read_artifact(artifact_path)
        assert artifact.nbytes == sum(a.nbytes for a in arrays.values())

    def test_digests_hash_the_array_bytes(self, artifact_path, arrays):
        import hashlib

        manifest = read_artifact(artifact_path).manifest
        for name, original in arrays.items():
            expected = hashlib.sha256(original.tobytes()).hexdigest()
            assert manifest["arrays"][name]["sha256"] == expected

    def test_documents_written_compact_and_pretty_ones_still_read(
        self, artifact_path
    ):
        path = artifact_path / "graph.json"
        assert path.read_text(encoding="utf-8") == '{"nodes":["a","b"]}'
        # artifacts written before the compact layout indent their documents
        path.write_text(json.dumps({"nodes": ["a", "b"]}, indent=1),
                        encoding="utf-8")
        assert read_artifact(artifact_path).documents["graph"] == {
            "nodes": ["a", "b"]
        }

    def test_overwrite_is_atomic_replacement(self, artifact_path):
        write_artifact(artifact_path, {}, {"only": np.zeros(2)})
        artifact = read_artifact(artifact_path)
        assert set(artifact.arrays) == {"only"}
        assert not (artifact_path / "scores.npy").exists()


class TestFailClosed:
    def test_missing_artifact(self, tmp_path):
        with pytest.raises(StoreError, match="no artifact"):
            read_artifact(tmp_path / "absent")

    def test_unparsable_manifest(self, artifact_path):
        (artifact_path / "manifest.json").write_text("{broken", encoding="utf-8")
        with pytest.raises(StoreError, match="unreadable artifact manifest"):
            read_artifact(artifact_path)

    def test_foreign_format(self, artifact_path):
        manifest = json.loads((artifact_path / "manifest.json").read_text())
        manifest["format"] = "other-format"
        (artifact_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="is not a repro-engine-artifact"):
            read_artifact(artifact_path)

    def test_version_bump_invalidates(self, artifact_path):
        manifest = json.loads((artifact_path / "manifest.json").read_text())
        manifest["version"] = FORMAT_VERSION + 1
        (artifact_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="format version"):
            read_artifact(artifact_path)

    def test_missing_array_file(self, artifact_path):
        (artifact_path / "scores.npy").unlink()
        with pytest.raises(StoreError, match="missing array file"):
            read_artifact(artifact_path)

    def test_truncated_array_file(self, artifact_path):
        file = artifact_path / "scores.npy"
        raw = file.read_bytes()
        file.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(StoreError, match="corrupt|truncated"):
            read_artifact(artifact_path)

    def test_swapped_array_dtype_detected(self, artifact_path):
        np.save(artifact_path / "scores.npy",
                np.zeros((3, 3), dtype=np.float32), allow_pickle=False)
        with pytest.raises(StoreError, match="does not match its"):
            read_artifact(artifact_path)

    def test_corrupt_document(self, artifact_path):
        (artifact_path / "graph.json").write_text("[not json", encoding="utf-8")
        with pytest.raises(StoreError, match="document"):
            read_artifact(artifact_path)


class TestArtifactStore:
    KEY = "ab" + "0" * 62

    def test_put_get_contains_delete(self, tmp_path, arrays):
        store = ArtifactStore(tmp_path / "store")
        assert not store.contains(self.KEY)
        store.put(self.KEY, {"meta": {}}, arrays)
        assert store.contains(self.KEY)
        assert list(store.keys()) == [self.KEY]
        artifact = store.get(self.KEY)
        assert np.array_equal(artifact.arrays["small"], arrays["small"])
        assert store.delete(self.KEY)
        assert not store.contains(self.KEY)
        assert not store.delete(self.KEY)

    def test_sharded_layout(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.path_for(self.KEY).parent.name == self.KEY[:2]

    def test_key_mismatch_rejected(self, tmp_path, arrays):
        store = ArtifactStore(tmp_path / "store")
        store.put(self.KEY, {}, arrays)
        other = "cd" + "0" * 62
        # Simulate a mis-filed artifact: move it under a different key.
        target = store.path_for(other)
        target.parent.mkdir(parents=True)
        store.path_for(self.KEY).rename(target)
        with pytest.raises(StoreError, match="stored under key"):
            store.get(other)

    def test_verify_catches_bit_flip(self, tmp_path, arrays):
        store = ArtifactStore(tmp_path / "store")
        store.put(self.KEY, {}, arrays)
        store.verify(self.KEY)
        file = store.path_for(self.KEY) / "small.npy"
        raw = bytearray(file.read_bytes())
        raw[-1] ^= 0xFF  # flip bits inside the data section, sizes intact
        file.write_bytes(bytes(raw))
        with pytest.raises(StoreError, match="content digest"):
            store.verify(self.KEY)
