"""Acceptance benchmark for the compiled-query kernel layer.

Run directly (not through pytest)::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--rows 120000]

Demonstrates two promises ``docs/kernels.md`` makes (the third, byte
neutrality against the uncompiled reference on the whole golden corpus,
is a tier-1 test: ``tests/test_golden_reports.py``):

1. **incremental speedup** — a progressive polling session (the same
   growing-prefix schedule the IDEA/XDB stand-ins execute) runs at least
   ``SPEEDUP_FLOOR`` (5×) faster through a cached
   :class:`CompiledQueryKernel` + :class:`PrefixKernelRun` than through
   the uncompiled per-poll ``compute_grouped_stats`` path, which
   re-aggregates the whole prefix every poll (O(n²) per session);
2. **cache effectiveness** — replaying the shared-engine session-server
   workload hits the process-wide kernel cache far more often than it
   misses (headline hit rate), and the kernels it does compile share
   their parts: fewer binning plans, filter masks and groupings are
   built than kernels compiled (never more plans than compiles).

Results land in ``benchmarks/results/kernels.txt`` and the headline
numbers in ``benchmarks/results/BENCH_kernels.json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.bench.experiments import ExperimentContext
from repro.common.clock import perf_seconds
from repro.common.config import BenchmarkSettings, DataSize
from repro.common.rng import derive_seed
from repro.data.seed import generate_flights_seed
from repro.data.storage import Dataset
from repro.engines.kernel_cache import clear_kernel_cache, get_kernel, kernel_cache
from repro.query.filters import RangePredicate
from repro.query.groundtruth import compute_grouped_stats
from repro.query.kernels import PART_BUILDS, PrefixKernelRun
from repro.query.model import AggFunc, Aggregate, AggQuery, BinDimension, BinKind
from repro.server import SessionManager

try:  # package import (repo root on sys.path)
    from benchmarks.benchjson import artifact_identity, write_bench_json
except ImportError:  # direct invocation: benchmarks/ is sys.path[0]
    from benchjson import artifact_identity, write_bench_json

RESULTS_DIR = Path(__file__).parent / "results"

#: Minimum compiled-vs-naive speedup on the polling workload (ISSUE 7).
SPEEDUP_FLOOR = 5.0


def _bench_queries():
    """The polling workload: the shapes progressive sessions actually poll."""
    return [
        AggQuery(
            table="flights",
            bins=(BinDimension("UNIQUE_CARRIER", BinKind.NOMINAL),),
            aggregates=(Aggregate(AggFunc.COUNT),),
        ),
        AggQuery(
            table="flights",
            bins=(BinDimension("DEP_DELAY", BinKind.QUANTITATIVE, width=20.0),),
            aggregates=(Aggregate(AggFunc.AVG, "ARR_DELAY"),),
        ),
        AggQuery(
            table="flights",
            bins=(
                BinDimension("MONTH", BinKind.QUANTITATIVE, width=1.0),
                BinDimension("UNIQUE_CARRIER", BinKind.NOMINAL),
            ),
            aggregates=(
                Aggregate(AggFunc.COUNT),
                Aggregate(AggFunc.SUM, "DISTANCE"),
            ),
            filter=RangePredicate("DEP_DELAY", -15.0, 180.0),
        ),
    ]


def _rotation_slice(permutation, offset, n):
    rows = len(permutation)
    end = offset + n
    if end <= rows:
        return permutation[offset:end]
    return np.concatenate([permutation[offset:], permutation[: end - rows]])


def _schedule(rows, polls):
    return [max(1, (i + 1) * rows // polls) for i in range(polls)]


def _time_naive(dataset, queries, permutation, polls, seed):
    rows = len(permutation)
    started = perf_seconds()
    for query in queries:
        offset = derive_seed(seed, "bench", "rotation", query) % rows
        for n in _schedule(rows, polls):
            compute_grouped_stats(
                dataset, query, _rotation_slice(permutation, offset, n)
            )
    return perf_seconds() - started


def _time_kernels(dataset, queries, permutation, polls, seed):
    rows = len(permutation)
    clear_kernel_cache()
    started = perf_seconds()
    for query in queries:
        offset = derive_seed(seed, "bench", "rotation", query) % rows
        run = PrefixKernelRun(get_kernel(dataset, query), permutation, offset)
        for n in _schedule(rows, polls):
            run.poll(n)
    return perf_seconds() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=120_000,
                        help="actual rows in the polling workload's table")
    parser.add_argument("--polls", type=int, default=40,
                        help="polls per query session (growing prefixes)")
    parser.add_argument("--reps", type=int, default=3,
                        help="timed repetitions per mode (best-of wins)")
    parser.add_argument("--sessions", type=int, default=4,
                        help="session-server sessions for the hit-rate probe")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    lines = [
        f"compiled-kernel benchmark — {len(_bench_queries())} queries × "
        f"{args.polls} growing-prefix polls over {args.rows:,} rows",
        "",
    ]
    ok = True

    # 1. Step throughput: incremental kernel polling vs. naive re-aggregation.
    table = generate_flights_seed(args.rows, seed=args.seed)
    dataset = Dataset.from_table(table)
    queries = _bench_queries()
    permutation = np.random.default_rng(args.seed).permutation(args.rows)

    naive_seconds = min(
        _time_naive(dataset, queries, permutation, args.polls, args.seed)
        for _ in range(max(1, args.reps))
    )
    kernel_seconds = min(
        _time_kernels(dataset, queries, permutation, args.polls, args.seed)
        for _ in range(max(1, args.reps))
    )
    speedup = naive_seconds / kernel_seconds if kernel_seconds else float("inf")
    lines.append(
        f"poll wall time (best of {args.reps}): naive {naive_seconds:.3f}s, "
        f"kernels {kernel_seconds:.3f}s — speedup {speedup:.1f}× "
        f"(floor {SPEEDUP_FLOOR:.0f}×)"
    )
    if speedup < SPEEDUP_FLOOR:
        lines.append(
            f"FAIL: speedup {speedup:.1f}× below the {SPEEDUP_FLOOR:.0f}× floor"
        )
        ok = False

    # 2. Cache hit rate on the real shared-engine session workload.
    settings = BenchmarkSettings(
        data_size=DataSize.S, scale=2000, seed=args.seed, time_requirement=1.0
    )
    ctx = ExperimentContext(settings)
    clear_kernel_cache()
    builds_before = dict(PART_BUILDS)
    SessionManager.for_engine(
        ctx, "idea-sim", args.sessions, per_session=2, share_engine=True
    ).run()
    stats = kernel_cache().stats()
    builds = {kind: PART_BUILDS[kind] - builds_before[kind] for kind in PART_BUILDS}
    lookups = stats["hits"] + stats["misses"]
    hit_rate = stats["hits"] / lookups if lookups else 0.0
    lines.append(
        f"session-server cache: {stats['hits']} hits / {stats['misses']} misses "
        f"({100 * hit_rate:.1f}% hit rate, {stats['entries']} entries, "
        f"{stats['evictions']} evictions)"
    )
    lines.append(
        f"shared parts: {stats['misses']} kernel compiles built "
        f"{builds['plans']} plans, {builds['masks']} masks, "
        f"{builds['groupings']} groupings"
    )
    if lookups == 0:
        lines.append("FAIL: the workload never consulted the kernel cache")
        ok = False
    if builds["plans"] > stats["misses"]:
        lines.append(
            f"FAIL: {builds['plans']} plan builds exceed "
            f"{stats['misses']} kernel compiles"
        )
        ok = False

    lines.append("")
    lines.append("PASS" if ok else "FAIL")

    text = "\n".join(lines)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "kernels.txt").write_text(text + "\n", encoding="utf-8")
    payload = {
        "artifact": "kernels.txt",
        "ok": ok,
        "rows": args.rows,
        "polls": args.polls,
        "reps": args.reps,
        "naive_seconds": naive_seconds,
        "kernel_seconds": kernel_seconds,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
        "cache_evictions": stats["evictions"],
        "cache_hit_rate": hit_rate,
        "plan_builds": builds["plans"],
        "mask_builds": builds["masks"],
        "grouping_builds": builds["groupings"],
    }
    payload.update(artifact_identity(text))
    write_bench_json(RESULTS_DIR, "kernels", payload)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
