"""Process-wide LRU cache of compiled query kernels.

Compiling an :class:`~repro.query.kernels.CompiledQueryKernel` costs up
to a few passes over the referenced columns: a filter mask, a binning
plan and its group ids with the failing rows marked, each built only when no
cached kernel of the dataset already holds it — the parts are weakly
registered in :mod:`repro.query.kernels` and die with the last kernel
using them, so this cache's capacity is their only bound too — and that
of the exact answers memoized on kernels, the oracle's ground truth.
Interactive workloads re-issue structurally identical queries constantly
(§2.2's linked-visualization updates repeat on every selection change,
and clearing a filter restores a previous query), and the session server
multiplexes sessions over one shared engine — so compiled units are
cached process-wide, keyed by value:

    (dataset.fingerprint(), query)

The dataset part is its memoized content digest, so kernels compiled for
one dataset can never leak to another; the query part is the frozen
query itself, whose ``hash`` + ``==`` cost a few microseconds where its
canonical-JSON SHA-256 (:func:`~repro.query.groundtruth.query_cache_key`)
costs several times that. That is the identity the engines' per-query
maps already use. Nothing leaves the process, so the salted ``hash``
only decides bucket placement, never which kernel a query gets: lookups
hit and miss identically under every ``PYTHONHASHSEED``. The SHA-256
digest is the key of the on-disk store alone.

Eviction is LRU with a configurable capacity
(``REPRO_KERNEL_CACHE_SIZE``). Hit/miss/eviction counts are kept as plain
attributes always, and mirrored into the ``obs`` metrics registry
(``repro_kernel_cache_*_total``) while observability is enabled; compile
time lands in the profiler's ``compile`` stage.

There is no off switch: :func:`get_kernel` always returns a compiled
kernel, the only way library code computes grouped statistics. Every
query compiles; the sort-based evaluation the kernels are held to lives
in the test tree (``tests/reference_kernels.py``), and
``tests/conftest.py`` can route kernels' folds through it.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.common.errors import BenchmarkError
from repro.obs.metrics import get_metrics
from repro.obs.profile import STAGE_COMPILE, get_profiler
from repro.obs.tracer import get_tracer
from repro.query.kernels import CompiledQueryKernel
from repro.query.model import AggQuery

#: Default number of compiled kernels kept alive process-wide.
DEFAULT_KERNEL_CACHE_CAPACITY = 256


def _env_capacity() -> int:
    raw = os.environ.get("REPRO_KERNEL_CACHE_SIZE", "").strip()
    if not raw:
        return DEFAULT_KERNEL_CACHE_CAPACITY
    try:
        capacity = int(raw)
    except ValueError:
        raise BenchmarkError(
            f"REPRO_KERNEL_CACHE_SIZE must be an integer, got {raw!r}"
        ) from None
    if capacity < 1:
        raise BenchmarkError(
            f"REPRO_KERNEL_CACHE_SIZE must be >= 1, got {capacity}"
        )
    return capacity


class KernelCache:
    """Value-keyed LRU of :class:`CompiledQueryKernel` objects."""

    def __init__(self, capacity: int = DEFAULT_KERNEL_CACHE_CAPACITY):
        if capacity < 1:
            raise BenchmarkError(f"kernel cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, AggQuery], CompiledQueryKernel]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key_for(dataset, query: AggQuery) -> Tuple[str, AggQuery]:
        """The cache key: the dataset's content fingerprint and the query
        value — equal queries share a kernel, whatever object spells them."""
        return (dataset.fingerprint(), query)

    def get(self, dataset, query: AggQuery) -> CompiledQueryKernel:
        """The compiled kernel for ``query`` × ``dataset`` (compiling on miss)."""
        key = self.key_for(dataset, query)
        kernel = self._entries.get(key)
        if kernel is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            self._publish("hits")
            return kernel
        self.misses += 1
        self._publish("misses")
        with get_profiler().stage(STAGE_COMPILE):
            kernel = CompiledQueryKernel(dataset, query)
        self._entries[key] = kernel
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._publish("evictions")
        return kernel

    def peek(self, dataset, query: AggQuery) -> Optional[CompiledQueryKernel]:
        """The cached kernel, or ``None``: no compile, count or LRU move."""
        return self._entries.get(self.key_for(dataset, query))

    def stats(self) -> Dict[str, int]:
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _publish(self, event: str) -> None:
        # Mirror into the obs registry only while observability is on,
        # matching the engine-step instrumentation pattern (byte-neutral
        # and overhead-free when disabled).
        if get_tracer().enabled:
            get_metrics().counter(
                f"repro_kernel_cache_{event}_total",
                help=f"Compiled-kernel cache {event}.",
            ).inc()


_CACHE = KernelCache(_env_capacity())


def kernel_cache() -> KernelCache:
    """The process-wide cache instance."""
    return _CACHE


def configure_kernel_cache(capacity: int) -> KernelCache:
    """Replace the process-wide cache with a fresh one of ``capacity``."""
    global _CACHE
    _CACHE = KernelCache(capacity)
    return _CACHE


def clear_kernel_cache() -> None:
    _CACHE.clear()


def get_kernel(dataset, query: AggQuery) -> CompiledQueryKernel:
    """The process-wide cache's kernel for ``query`` × ``dataset`` —
    always a :class:`CompiledQueryKernel`, compiled on a miss."""
    return _CACHE.get(dataset, query)
