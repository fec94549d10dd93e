"""Deterministic random-stream derivation.

Reproducibility is a headline requirement of IDEBench (§1: "standardized,
automated, and re-producible"). Everything stochastic in this package —
seed-data synthesis, copula scaling, Markov workflow sampling, engine
sample shuffles — draws from a :class:`numpy.random.Generator` derived
from a root seed plus a *purpose string*, so that

* two runs with the same root seed are bit-identical, and
* adding a new consumer of randomness never perturbs existing streams
  (each purpose hashes to an independent child seed).

The per-interaction samplers draw one scalar at a time, where numpy's
per-call dispatch (7–9 µs for ``Generator.choice``) dwarfs the draw
itself. :func:`pick`, :func:`choice_cdf` / :func:`pick_weighted` and
:func:`uniform` are scalar forms that consume the *identical* stream and
return the identical value as the numpy call they replace
(docs/determinism.md, "Draw forms"; ``tests/test_common_rng.py``), as
does the array form :func:`choice_weighted`.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from functools import cached_property
from typing import List, Sequence, Tuple, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1

_T = TypeVar("_T")


def derive_seed(root_seed: int, *purpose: object) -> int:
    """Derive a stable 64-bit child seed from ``root_seed`` and a purpose.

    The purpose components are stringified and hashed with SHA-256 together
    with the root seed, so any hashable/printable discriminators (names,
    indices, workflow ids) can be mixed in::

        seed = derive_seed(42, "workflow", "mixed", 3)
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(root_seed) & _MASK64).encode("utf-8"))
    for part in purpose:
        hasher.update(b"\x1f")
        hasher.update(str(part).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "little")


def derive_rng(root_seed: int, *purpose: object) -> np.random.Generator:
    """Return an independent :class:`numpy.random.Generator` for a purpose."""
    return np.random.default_rng(derive_seed(root_seed, *purpose))


def derive_cell_seed(root_seed: int, cell_fingerprint: str) -> int:
    """Seed for one run-matrix cell, derived from its content fingerprint.

    The parallel runtime executes experiment cells in arbitrary order
    across worker processes; seeding each cell from its own fingerprint
    (rather than from a submission counter) is what makes parallel output
    bit-identical to serial — the stream a cell draws from depends only on
    *what* the cell is, never on *when* or *where* it runs.
    """
    return derive_seed(root_seed, "runtime-cell", cell_fingerprint)


def derive_session_seed(root_seed: int, session_index: int) -> int:
    """Seed for one simulated IDE session of the session server.

    Every session the server multiplexes gets its own seed, derived from
    the run's root seed plus the session's index via the
    ``("server-session", index)`` purpose string. Session *i*'s workflow
    suite is therefore a pure function of ``(root_seed, i)`` — invariant
    to how many sessions run alongside it, to stepping interleave, and to
    wall-clock pacing — which is what lets the same suite be re-run
    through the serial driver and compared byte-for-byte
    (docs/server.md's determinism guarantee).
    """
    return derive_seed(root_seed, "server-session", session_index)


def pick(rng: np.random.Generator, items: Sequence[_T]) -> _T:
    """``rng.choice(items)`` for a non-empty sequence, as the element itself.

    ``Generator.choice`` without ``p`` draws ``integers(0, len)``.
    """
    return items[int(rng.integers(len(items)))]


def choice_cdf(p: np.ndarray) -> List[float]:
    """The CDF ``rng.choice(items, p=p)`` searches, built once.

    The float operations ``Generator.choice`` repeats on every call:
    ``cumsum``, then divide by the last entry. Callers validate ``p``
    (finite, non-negative, normalized).
    """
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def pick_weighted(
    rng: np.random.Generator, items: Sequence[_T], cdf: Sequence[float]
) -> _T:
    """``rng.choice(items, p=p)`` given ``cdf = choice_cdf(p)``.

    ``Generator.choice`` draws one ``random()`` and searches the CDF with
    ``side="right"``, which is :func:`bisect.bisect_right`.
    """
    return items[bisect_right(cdf, rng.random())]


def uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """``rng.uniform(low, high)`` for scalar bounds.

    numpy computes ``low + (high - low) * next_double``.
    """
    return low + (high - low) * rng.random()


def choice_weighted(rng: np.random.Generator, size: int, p: np.ndarray) -> np.ndarray:
    """``rng.choice(len(p), size=size, p=p)``, which searches ``random(size)``
    in ``choice_cdf(p)`` with ``side="right"``."""
    found = BucketedSearch(choice_cdf(p), "right")(rng.random(size))
    return found.astype(np.intp, copy=False)


class BucketedSearch:
    """``np.searchsorted(edges, u, side)`` for ``u`` in [0, 1], exactly.

    A draw shorter than :attr:`BUCKETS` rows is that call. A longer one
    reads :attr:`tables`, built on the first such draw: each 1/4096-wide
    bucket's answer, and whether an edge lies in the bucket; only rows whose
    bucket holds an edge search, about ``len(edges) / 4096`` of them. NaN (or
    ``u`` past 1) falls in an always-searched bucket, so it maps to
    ``len(edges)`` as in numpy. Table answers take the narrowest unsigned
    type holding them. ``edges`` are sorted and not NaN; building costs
    O(buckets + edges), more than a short draw's whole search."""

    BUCKETS = 4096

    def __init__(self, edges: Sequence[float], side: str) -> None:
        self.edges, self.side = np.asarray(edges, dtype=np.float64), side

    @cached_property
    def tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per bucket, plus one past 1 and NaN: ``(start, inside)``."""
        scaled = np.clip(self.edges * self.BUCKETS, -0.5, self.BUCKETS + 1.5)
        # Grid point k / BUCKETS lies above an edge from k = floor(scaled) + 1
        # on, and at or above it from k = ceil(scaled) on. Scaling by a power
        # of two is exact, so these counts are what searchsorted answers.
        below = self._counts(np.floor(scaled) + 1)
        start = below if self.side == "left" else self._counts(np.ceil(scaled))
        start = start[: self.BUCKETS + 1]
        inside = start != below[1:]
        # The last bucket (u past (BUCKETS + 1) / BUCKETS, NaN) always searches.
        start = np.append(start, 0).astype(np.min_scalar_type(len(self.edges)))
        return start, np.append(inside, True)

    @classmethod
    def _counts(cls, first: np.ndarray) -> np.ndarray:
        """Per grid point k = 0..BUCKETS + 1, how many of the nondecreasing
        ``first`` (each in [0, BUCKETS + 2]) are at most k: a step function,
        one run per edge."""
        bounds = np.empty(len(first) + 2, np.intp)
        bounds[0], bounds[1:-1], bounds[-1] = 0, first, cls.BUCKETS + 2
        return np.arange(len(first) + 1).repeat(bounds[1:] - bounds[:-1])

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if len(u) < self.BUCKETS:
            return self.edges.searchsorted(u, self.side)
        start, inside = self.tables
        bucket = np.fmin(u * self.BUCKETS, self.BUCKETS + 1).astype(np.intp)
        found = start.take(bucket)
        rows = inside.take(bucket).nonzero()[0]
        found[rows] = self.edges.searchsorted(u.take(rows), self.side)
        return found
