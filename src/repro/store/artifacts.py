"""The content-addressed on-disk artifact store.

One *artifact* is a directory holding

``manifest.json``
    format/version markers, the identity that keyed the artifact, a free
    ``meta`` section, and — per stored array — dtype, shape, byte size and
    a sha256 content digest;
``<name>.npy``
    one raw (uncompressed) numpy file per array, written with
    ``allow_pickle=False`` and read back with ``np.load(mmap_mode="r")`` so
    the bytes are **mapped, not copied**: opening an artifact touches no
    array pages, and every reader process shares the same OS page cache;
``<name>.json``
    optional JSON documents (e.g. the serialised graph).

:class:`ArtifactStore` files artifacts under ``root/<key[:2]>/<key>`` where
*key* is the :func:`~repro.store.fingerprint.manifest_key` content hash.
Writes are atomic (temp directory + ``os.replace``), so readers never
observe a half-written artifact.  Reads **fail closed**: any mismatch —
unparsable or missing manifest, format/version drift, a missing or
truncated array file, a dtype/shape header that disagrees with the
manifest, a key that does not match the manifest identity — raises
:class:`StoreError`, and cache-level callers fall back to a rebuild.
Content digests are verified on demand (:meth:`ArtifactStore.verify`)
rather than on every open, which would fault in every page and defeat the
zero-copy design.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro.errors import ReproError
from repro.obs.registry import get_registry, is_enabled
from repro.obs.trace import span
from repro.store.fingerprint import FORMAT_VERSION
from repro.store.hooks import io_gate

MANIFEST_NAME = "manifest.json"
ARTIFACT_FORMAT = "repro-engine-artifact"

_REGISTRY = get_registry()

#: Engine cache lookups, incremented by the cache-level caller
#: (:class:`repro.api.QueryEngine`) which owns the hit/miss/rebuild
#: decision this store deliberately does not make.
CACHE_HIT = _REGISTRY.counter(
    "store_cache_hit_total",
    help="Engine cache lookups served by a validated stored artifact.",
)
CACHE_MISS = _REGISTRY.counter(
    "store_cache_miss_total",
    help="Engine cache lookups that found no artifact under the key.",
)
CACHE_STALE = _REGISTRY.counter(
    "store_cache_stale_rebuild_total",
    help="Cached artifacts rejected as stale, corrupt or unusable and rebuilt.",
)

_BYTES_WRITTEN = _REGISTRY.counter(
    "store_bytes_written_total",
    help="Array bytes serialised into artifact directories.",
)
_BYTES_READ = _REGISTRY.counter(
    "store_bytes_read_total",
    help="Array bytes opened from artifacts, by access mode.",
    labelnames=("mode",),
)
_ARTIFACTS_OPENED = _REGISTRY.counter(
    "store_artifact_open_total",
    help="Artifacts opened for reading, by array access mode "
    "(mmap = zero-copy page-cache sharing, copy = materialised).",
    labelnames=("mode",),
)
# Pre-create both mode series so exports always show them, even at zero.
_READ_MMAP = _BYTES_READ.labels(mode="mmap")
_READ_COPY = _BYTES_READ.labels(mode="copy")
_OPENED_MMAP = _ARTIFACTS_OPENED.labels(mode="mmap")
_OPENED_COPY = _ARTIFACTS_OPENED.labels(mode="copy")


class StoreError(ReproError):
    """An artifact is missing, stale, corrupt, or otherwise unusable."""


@dataclass
class StoredArtifact:
    """A validated artifact opened for reading.

    ``arrays`` values are read-only memmaps (zero-copy); ``documents``
    holds the parsed JSON sidecar files.
    """

    path: Path
    manifest: dict
    arrays: dict[str, np.ndarray]
    documents: dict[str, object]

    @property
    def meta(self) -> dict:
        """The free-form metadata section of the manifest."""
        return self.manifest.get("meta", {})

    @property
    def nbytes(self) -> int:
        """Total bytes of all stored arrays."""
        return sum(int(spec["nbytes"]) for spec in self.manifest["arrays"].values())


def _digest(data: np.ndarray) -> str:
    """sha256 of a C-contiguous array's bytes, hashed in place (no copy)."""
    return hashlib.sha256(memoryview(data.reshape(-1)).cast("B")).hexdigest()


def _array_spec(array: np.ndarray) -> dict:
    data = np.ascontiguousarray(array)
    return {
        "dtype": str(data.dtype),
        "shape": list(data.shape),
        "nbytes": int(data.nbytes),
        "sha256": _digest(data),
    }


def write_artifact(
    path: str | Path,
    manifest: Mapping[str, object],
    arrays: Mapping[str, np.ndarray],
    documents: Mapping[str, object] | None = None,
) -> Path:
    """Atomically write one artifact directory at *path*.

    *manifest* supplies the identity and ``meta`` sections; the ``arrays``
    section is generated here so the digests always describe the bytes
    actually written.  An existing artifact at *path* is replaced.
    """
    path = Path(path)
    io_gate("artifact.write", path)
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest = dict(manifest)
    manifest.setdefault("format", ARTIFACT_FORMAT)
    manifest.setdefault("version", FORMAT_VERSION)
    manifest["arrays"] = {name: _array_spec(array) for name, array in arrays.items()}
    manifest["documents"] = sorted(documents) if documents else []
    staging = Path(
        tempfile.mkdtemp(prefix=f".{path.name}.tmp-", dir=path.parent)
    )
    try:
        for name, array in arrays.items():
            np.save(staging / f"{name}.npy", np.ascontiguousarray(array),
                    allow_pickle=False)
        for name, document in (documents or {}).items():
            # Compact: the graph document is the largest one, and readers
            # parse any JSON layout.
            (staging / f"{name}.json").write_text(
                json.dumps(document, separators=(",", ":")), encoding="utf-8"
            )
        (staging / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8"
        )
        if path.exists():
            shutil.rmtree(path)
        os.replace(staging, path)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if is_enabled():
        _BYTES_WRITTEN.inc(
            sum(int(spec["nbytes"]) for spec in manifest["arrays"].values())
        )
    return path


def read_artifact(path: str | Path, mmap: bool = True) -> StoredArtifact:
    """Open and validate the artifact directory at *path*.

    Raises :class:`StoreError` on any structural problem; never returns a
    partially valid artifact.  With ``mmap=True`` (default) arrays are
    returned as read-only memory maps.
    """
    path = Path(path)
    io_gate("artifact.read", path)
    manifest_path = path / MANIFEST_NAME
    if not path.is_dir() or not manifest_path.is_file():
        raise StoreError(f"no artifact at {path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise StoreError(f"unreadable artifact manifest at {manifest_path}: {exc}") from None
    if manifest.get("format") != ARTIFACT_FORMAT:
        raise StoreError(
            f"{path} is not a {ARTIFACT_FORMAT} artifact "
            f"(format={manifest.get('format')!r})"
        )
    if manifest.get("version") != FORMAT_VERSION:
        raise StoreError(
            f"artifact at {path} has format version {manifest.get('version')!r}, "
            f"this library reads version {FORMAT_VERSION}"
        )
    specs = manifest.get("arrays")
    if not isinstance(specs, dict):
        raise StoreError(f"artifact manifest at {path} lacks an arrays section")
    arrays: dict[str, np.ndarray] = {}
    for name, spec in specs.items():
        array_path = path / f"{name}.npy"
        if not array_path.is_file():
            raise StoreError(f"artifact at {path} is missing array file {name}.npy")
        try:
            array = np.load(
                array_path, mmap_mode="r" if mmap else None, allow_pickle=False
            )
        except (OSError, ValueError) as exc:
            raise StoreError(
                f"artifact array {name}.npy at {path} is corrupt: {exc}"
            ) from None
        if str(array.dtype) != spec["dtype"] or list(array.shape) != list(spec["shape"]):
            raise StoreError(
                f"artifact array {name}.npy at {path} does not match its "
                f"manifest (dtype {array.dtype}, shape {array.shape}; expected "
                f"{spec['dtype']}, {tuple(spec['shape'])})"
            )
        if int(array.nbytes) != int(spec["nbytes"]):
            raise StoreError(
                f"artifact array {name}.npy at {path} is truncated "
                f"({array.nbytes} bytes, manifest says {spec['nbytes']})"
            )
        arrays[name] = array
    documents: dict[str, object] = {}
    for name in manifest.get("documents", []):
        document_path = path / f"{name}.json"
        try:
            documents[name] = json.loads(document_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise StoreError(
                f"artifact document {name}.json at {path} is corrupt: {exc}"
            ) from None
    if is_enabled():
        (_OPENED_MMAP if mmap else _OPENED_COPY).inc()
        (_READ_MMAP if mmap else _READ_COPY).inc(
            sum(int(spec["nbytes"]) for spec in specs.values())
        )
    return StoredArtifact(path=path, manifest=manifest, arrays=arrays,
                          documents=documents)


class ArtifactStore:
    """Content-addressed artifact cache rooted at one directory.

    Keys are :func:`~repro.store.fingerprint.manifest_key` digests; the
    artifact for key ``k`` lives at ``root/k[:2]/k``.  The store never
    guesses: :meth:`get` returns a validated artifact or raises
    :class:`StoreError` — deciding to rebuild on failure is the caller's
    job (see :class:`repro.api.QueryEngine`).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """Return the directory an artifact with *key* lives at."""
        return self.root / key[:2] / key

    def contains(self, key: str) -> bool:
        """Return whether a (not-yet-validated) artifact exists for *key*."""
        return (self.path_for(key) / MANIFEST_NAME).is_file()

    def put(
        self,
        key: str,
        manifest: Mapping[str, object],
        arrays: Mapping[str, np.ndarray],
        documents: Mapping[str, object] | None = None,
    ) -> Path:
        """Write an artifact under *key* (atomic; replaces any previous one)."""
        manifest = dict(manifest)
        manifest["key"] = key
        with span("store.put", key=key[:12]):
            return write_artifact(self.path_for(key), manifest, arrays, documents)

    def get(self, key: str, mmap: bool = True) -> StoredArtifact:
        """Open, validate and return the artifact stored under *key*."""
        with span("store.get", key=key[:12], mmap=mmap):
            artifact = read_artifact(self.path_for(key), mmap=mmap)
            stored_key = artifact.manifest.get("key")
            if stored_key != key:
                raise StoreError(
                    f"artifact at {artifact.path} was stored under key "
                    f"{stored_key!r}, not {key!r}"
                )
            return artifact

    def delete(self, key: str) -> bool:
        """Remove the artifact for *key*; return whether one existed."""
        path = self.path_for(key)
        if not path.is_dir():
            return False
        shutil.rmtree(path)
        return True

    def keys(self) -> Iterator[str]:
        """Iterate over the keys of every artifact directory present."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if (entry / MANIFEST_NAME).is_file():
                    yield entry.name

    def verify(self, key: str) -> None:
        """Re-hash every array of *key*'s artifact against its manifest.

        This faults in every page (it is the full-integrity sweep the
        zero-copy open skips); raises :class:`StoreError` on the first
        digest mismatch.
        """
        artifact = self.get(key, mmap=True)
        for name, spec in artifact.manifest["arrays"].items():
            digest = _digest(np.ascontiguousarray(artifact.arrays[name]))
            if digest != spec["sha256"]:
                raise StoreError(
                    f"artifact array {name}.npy at {artifact.path} fails its "
                    f"content digest"
                )

    def __repr__(self) -> str:
        return f"ArtifactStore(root={str(self.root)!r})"
