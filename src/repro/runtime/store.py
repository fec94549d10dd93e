"""Content-addressed artifact store backing §5's evaluation matrix.

Expensive shared artifacts — generated datasets, workflow suites, exact
ground-truth answers, per-cell detailed reports — are pure functions of a
*key*: the seed, the scale, the spec that produced them. The store maps
the stable digest of that key (:mod:`repro.common.fingerprint`) to a
pickled artifact on disk:

    <root>/objects/<aa>/<digest>.pkl

Properties the runtime relies on:

* **process-safe writes** — artifacts are written to a temporary file and
  atomically renamed, so concurrent workers racing on the same key both
  succeed and readers never observe partial pickles;
* **self-invalidating keys** — every digest mixes in
  :data:`~repro.common.fingerprint.CACHE_SCHEMA_VERSION`, so bumping the
  version orphans (rather than corrupts) stale entries;
* **bounded size** — an optional ``max_bytes`` budget evicts the least
  recently used artifacts (mtime is refreshed on every hit). ``put``
  scans only when the last scan's total plus this instance's writes since
  could pass the budget, so other processes can push the directory over
  it by at most what they wrote since this instance's last scan;
* **resumability** — a crashed run-matrix leaves every completed cell's
  report behind; the next run loads them in milliseconds.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.common.fingerprint import CACHE_SCHEMA_VERSION, stable_digest

#: Default byte budget the CLI applies to stores it creates (2 GiB). Big
#: enough that no realistic run-matrix sweep evicts mid-run, small enough
#: that a long-lived cache directory cannot grow without bound. Pass
#: ``--cache-budget 0`` (CLI) or ``max_bytes=None`` (API) for unlimited.
DEFAULT_CACHE_BUDGET_BYTES = 2 * 1024**3


class ArtifactStore:
    """A content-addressed pickle store rooted at ``root``."""

    def __init__(self, root: Union[str, Path], max_bytes: Optional[int] = None):
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        #: Bytes at the last scan (inf: none yet) and bytes written since.
        self._scanned, self._written = float("inf"), 0

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    def digest_for(self, key: Any) -> str:
        """Stable digest of ``key``, namespaced by the cache schema version."""
        return stable_digest([CACHE_SCHEMA_VERSION, key], length=None)

    def path_for(self, key: Any) -> Path:
        """On-disk location of the artifact stored under ``key``."""
        digest = self.digest_for(key)
        return self.objects_dir / digest[:2] / f"{digest}.pkl"

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def contains(self, key: Any) -> bool:
        """Whether an artifact is stored under ``key`` (no load, no stats)."""
        return self.path_for(key).exists()

    def get(self, key: Any) -> Optional[Any]:
        """Load the artifact stored under ``key`` (``None`` on a miss).

        A corrupt entry (truncated write from a killed process, unpicklable
        payload) counts as a miss and is deleted so it can be rebuilt.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                artifact = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (pickle.UnpicklingError, EOFError, AttributeError, OSError):
            self.misses += 1
            _remove_quietly(path)
            return None
        self.hits += 1
        _touch_quietly(path)
        return artifact

    def put(self, key: Any, artifact: Any) -> Path:
        """Persist ``artifact`` under ``key`` (atomic; last writer wins)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(artifact, handle, protocol=pickle.HIGHEST_PROTOCOL)
                self._written += handle.tell()
            os.replace(temp_name, path)
        except BaseException:
            _remove_quietly(Path(temp_name))
            raise
        self.puts += 1
        if self.max_bytes is not None:
            if self._scanned + self._written > self.max_bytes:
                self.evict(self.max_bytes)
        return path

    def get_or_create(self, key: Any, build: Callable[[], Any]) -> Any:
        """Load ``key``'s artifact, or build, persist and return it."""
        artifact = self.get(key)
        if artifact is not None:
            return artifact
        artifact = build()
        self.put(key, artifact)
        return artifact

    # ------------------------------------------------------------------
    # Inventory and eviction
    # ------------------------------------------------------------------
    def _entries(self) -> List[Tuple[float, int, Path]]:
        """(mtime, size, path) for every stored artifact."""
        entries = []
        for path in self.objects_dir.glob("*/*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def __len__(self) -> int:
        return len(self._entries())

    def total_bytes(self) -> int:
        """Total size of all stored artifacts."""
        return sum(size for _, size, _ in self._entries())

    def evict(self, max_bytes: int) -> int:
        """Evict least-recently-used artifacts until ≤ ``max_bytes`` remain.

        Returns the number of artifacts removed. Recency is the file mtime,
        which :meth:`get` refreshes on every hit.
        """
        entries = sorted(self._entries())
        total = sum(size for _, size, _ in entries)
        removed = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            _remove_quietly(path)
            total -= size
            removed += 1
        self.evictions += removed
        self._scanned, self._written = total, 0
        return removed

    def clear(self) -> int:
        """Remove every stored artifact; returns how many were removed."""
        removed = 0
        for _, _, path in self._entries():
            _remove_quietly(path)
            removed += 1
        return removed

    def stats(self) -> dict:
        """Counters for progress reports and tests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "entries": len(self),
            "bytes": self.total_bytes(),
        }

    def __repr__(self) -> str:
        return (
            f"ArtifactStore({str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def _remove_quietly(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def _touch_quietly(path: Path) -> None:
    try:
        os.utime(path, None)
    except OSError:
        pass
