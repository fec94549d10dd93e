"""Multiprocess execution of §5's evaluation matrix, cached and resumable.

:class:`MatrixExecutor` takes a planned list of :class:`RunSpec` cells and
executes them either in-process (``jobs=1``, reusing one
:class:`~repro.bench.experiments.ExperimentContext` per dataset/seed) or
sharded across a :class:`concurrent.futures.ProcessPoolExecutor`
(``jobs=N``). Three invariants:

* **determinism** — a cell's output depends only on its spec. Every
  random stream a cell touches is derived from ``spec.settings.seed``
  plus purpose strings (:mod:`repro.common.rng`), never from execution
  order, worker identity or wall time — so ``jobs=8`` is bit-identical
  to ``jobs=1``;
* **plan order** — results come back aligned with the input specs, not
  with completion order;
* **persistence** — with an :class:`~repro.runtime.store.ArtifactStore`,
  each finished cell's records are written to disk *by the worker that
  computed them* (not the parent), so a crash loses at most the cells in
  flight; re-running the same matrix resumes from the completed cells in
  milliseconds.

``repro.bench.experiments`` is imported lazily inside functions: the
experiments module imports this one at load time, and the lazy import
keeps the dependency acyclic.
"""

from __future__ import annotations

import copy
import weakref
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.clock import perf_seconds
from repro.common.errors import BenchmarkError
from repro.common.log import get_logger
from repro.runtime.spec import RunSpec
from repro.runtime.store import ArtifactStore
from repro.workflow.spec import WorkflowType

_log = get_logger("runtime.executor")

#: Context-identity key: cells agreeing on these share generated artifacts.
ContextKey = Tuple[str, int, int]


def context_key(spec: RunSpec) -> ContextKey:
    """(dataset, seed, scale) — the identity of an ExperimentContext."""
    return (spec.settings.dataset, spec.settings.seed, spec.settings.scale)


def result_key(spec: RunSpec) -> tuple:
    """Artifact-store key of a cell's persisted result payload."""
    return ("cell-result", spec.fingerprint())


@dataclass
class CellResult:
    """Outcome of one executed (or cache-restored) run-matrix cell.

    Suite cells carry ``records``, prepare cells ``prep`` and serve cells
    ``serving`` — the serving run's aggregate report fields.
    """

    spec: RunSpec
    records: List[Any] = field(default_factory=list)
    prep: Optional[Any] = None
    from_cache: bool = False
    elapsed: float = 0.0
    serving: Optional[Dict[str, Any]] = None

    @property
    def fingerprint(self) -> str:
        return self.spec.fingerprint()

    @classmethod
    def from_output(
        cls, spec: RunSpec, payload: Dict[str, Any], **kwargs
    ) -> "CellResult":
        return cls(
            spec=spec,
            records=payload.get("records", []),
            prep=payload.get("prep"),
            serving=payload.get("serving"),
            **kwargs,
        )


def select_workflows(ctx, spec: RunSpec):
    """Materialize the workflows a spec's selector names, via ``ctx``."""
    selector = spec.workflows
    size = spec.settings.data_size
    if selector.kind == "speculation":
        workflows = [ctx.speculation_probe(size)]
    else:
        workflows = ctx.workflows(
            WorkflowType(selector.workflow_type), selector.count, size=size
        )
    return list(workflows)[selector.start : selector.stop]


def warm_ground_truth(ctx, spec: RunSpec) -> None:
    """Pre-answer every exact query a suite cell will need.

    The queries a workflow triggers are a deterministic function of its
    interactions — the engine never influences *which* queries the driver
    submits, only how well it answers them. Each workflow's
    :attr:`~repro.workflow.spec.Workflow.query_plan`, the one every
    engine × TR cell over the same suite then reads, therefore
    enumerates exactly their ground-truth lookups. With a store-backed
    oracle the answers persist, so forked workers (and resumed runs) hit
    the cache instead of recomputing the same exact aggregations in
    parallel.
    """
    oracle = ctx.oracle(spec.settings.data_size, spec.normalized)
    for workflow in select_workflows(ctx, spec):
        plan = workflow.query_plan
        for index in range(len(plan)):
            step = plan[index]
            if step.link_source is not None:
                # The driver's speculation hint answers the link source's
                # query to enumerate its bins.
                oracle.answer(step.link_source)
            for _, query in step.submitted:
                oracle.answer(query)


def execute_cell(ctx, spec: RunSpec) -> Dict[str, Any]:
    """Run one cell on an experiment context; returns its result payload.

    The payload (``{"records": [...], "prep": ...}``, plus ``"serving"``
    for serve cells) is exactly what the artifact store persists under
    :func:`result_key`.
    """
    from repro.bench.experiments import make_engine

    if spec.mode == "serve":
        return {"records": [], "prep": None, "serving": _serve(ctx, spec)}
    if spec.mode == "prepare":
        from repro.common.clock import VirtualClock

        dataset = ctx.dataset(spec.settings.data_size, spec.normalized)
        engine = make_engine(spec.engine, dataset, spec.settings, VirtualClock())
        return {"records": [], "prep": engine.prepare()}
    workflows = select_workflows(ctx, spec)
    records = ctx.run(
        spec.engine,
        workflows,
        settings=spec.settings,
        normalized=spec.normalized,
        speculation=spec.speculation,
    )
    return {"records": records, "prep": None}


#: The :class:`~repro.server.spool.ServingAggregate` attributes a serve
#: cell's payload carries (beside its interaction ``mix`` and wall time).
SERVING_FIELDS = (
    "sessions_served", "sessions_departed", "num_queries", "pct_tr_violated",
    "mean_missing_bins", "mean_latency_answered", "virtual_makespan",
    "queries_per_virtual_second",
)


def cell_context(ctx, spec: RunSpec):
    """``ctx`` under the cell's own settings.

    Contexts are shared by every cell with the same (dataset, seed,
    scale), and session builders read ``ctx.settings``: a cell whose
    settings differ gets a view that shares the cached artifacts.
    """
    if ctx.settings == spec.settings:
        return ctx
    view = copy.copy(ctx)
    view.settings = spec.settings
    return view


def serving_manager(ctx, spec: RunSpec, **presentation):
    """The :class:`~repro.server.manager.SessionManager` serving ``spec``,
    for sweep cells and ``repro serve``.

    ``presentation`` (``accel``, ``on_record``, ``spool``, ``turn_hooks``)
    paces or shows the run and never changes its records.
    """
    from repro.server.manager import SessionManager

    ctx = cell_context(ctx, spec)
    serving = spec.serving
    return SessionManager.for_engine(
        ctx,
        spec.engine,
        serving.population(spec.settings.seed),
        per_session=spec.workflows.count,
        workflow_type=WorkflowType(spec.workflows.workflow_type),
        share_engine=serving.share_engine,
        policy=None if serving.policy == "scripted" else serving.policy,
        speculation=spec.speculation,
        **presentation,
    )


def _serve(ctx, spec: RunSpec) -> Dict[str, Any]:
    """Serve one ``serve`` cell, spooled; the aggregate's report fields.

    Every cell runs in constant memory, and its numbers come from the
    manager's live :class:`~repro.server.spool.ServingAggregate`, which
    folds records in global virtual-time order — deterministic for a
    configuration, so every cell is cacheable.
    """
    from repro.server.spool import RecordSpool
    from repro.workflow.policy import interaction_mix

    manager = serving_manager(ctx, spec, spool=RecordSpool())
    manager.run()
    aggregate = manager.aggregate
    fields = {name: getattr(aggregate, name) for name in SERVING_FIELDS}
    fields["mix"] = interaction_mix(aggregate.interaction_counts)
    fields["wall_seconds"] = manager.wall_seconds
    return fields


# ----------------------------------------------------------------------
# Worker-process machinery
# ----------------------------------------------------------------------

#: Per-process context cache so one worker executing many cells builds
#: each dataset/suite at most once (and, with a store, loads it from disk).
_WORKER_CONTEXTS: Dict[Tuple[Optional[str], ContextKey], Any] = {}
_WORKER_STORES: Dict[str, ArtifactStore] = {}


def _worker_store(cache_dir: Optional[str]) -> Optional[ArtifactStore]:
    if cache_dir is None:
        return None
    store = _WORKER_STORES.get(cache_dir)
    if store is None:
        store = ArtifactStore(cache_dir)
        _WORKER_STORES[cache_dir] = store
    return store


def _worker_context(spec: RunSpec, cache_dir: Optional[str]):
    from repro.bench.experiments import ExperimentContext

    key = (cache_dir, context_key(spec))
    ctx = _WORKER_CONTEXTS.get(key)
    if ctx is None:
        ctx = ExperimentContext(spec.settings, store=_worker_store(cache_dir))
        _WORKER_CONTEXTS[key] = ctx
    return ctx


def run_cell_in_worker(
    spec_data: dict, cache_dir: Optional[str]
) -> Dict[str, Any]:
    """Top-level (picklable) entry point executed inside pool workers.

    Persists the finished payload before returning it, so a parent crash
    after this point costs nothing on resume.
    """
    spec = RunSpec.from_dict(spec_data)
    ctx = _worker_context(spec, cache_dir)
    payload = execute_cell(ctx, spec)
    store = _worker_store(cache_dir)
    if store is not None:
        store.put(result_key(spec), payload)
    return payload


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------

class MatrixExecutor:
    """Executes planned cells serially or across worker processes.

    Parameters
    ----------
    jobs:
        Worker-process count; ``1`` executes in-process (no pool).
    store:
        Optional artifact store. Shared artifacts (datasets, suites,
        ground-truth answers) and finished cell results persist there.
    reuse_results:
        When True (the default) and a store is present, cells whose result
        payload is already stored are restored instead of re-executed —
        this is both the fast-second-run path and crash resumption.
        ``False`` forces re-execution (results are still written back).
    local_context:
        An existing :class:`ExperimentContext` to reuse for in-process
        execution of cells that match its dataset/seed/scale — the
        ``exp_*`` harness passes itself so its in-memory caches keep
        working exactly as before. Held weakly: the context owns this
        executor, and a strong back-reference would make every dropped
        context (with its dataset and the dataset's memoized encodings)
        wait for a cycle collection.
    progress:
        Optional callable receiving one human-readable line per cell.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[ArtifactStore] = None,
        reuse_results: bool = True,
        local_context=None,
        progress: Optional[Callable[[str], None]] = None,
    ):
        if jobs < 1:
            raise BenchmarkError(f"jobs must be >= 1, got {jobs!r}")
        self.jobs = jobs
        self.store = store
        self.reuse_results = reuse_results
        self._local_context = (
            weakref.ref(local_context) if local_context is not None else None
        )
        self.progress = progress
        self._contexts: Dict[ContextKey, Any] = {}

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> List[CellResult]:
        """Execute every cell; results align with ``specs`` order."""
        specs = list(specs)
        # One store key per cell, for both its lookup and its write.
        keys = [None if self.store is None else result_key(spec) for spec in specs]
        results: List[Optional[CellResult]] = [None] * len(specs)
        pending: List[int] = []
        for index, spec in enumerate(specs):
            restored = self._restore(spec, keys[index])
            if restored is not None:
                results[index] = restored
                self._report(f"[cache] {spec.describe()}")
            else:
                pending.append(index)
        if pending:
            _log.debug(
                "executing matrix cells",
                pending=len(pending),
                cached=len(specs) - len(pending),
                jobs=self.jobs,
            )
            if self.jobs == 1 or len(pending) == 1:
                self._run_serial(specs, keys, pending, results)
            else:
                self._run_parallel(specs, pending, results)
        missing = [i for i, result in enumerate(results) if result is None]
        if missing:
            # A silent gap would misalign every zip(specs, results) consumer;
            # fail loudly instead.
            raise BenchmarkError(
                f"{len(missing)} cell(s) produced no result "
                f"(plan indices {missing})"
            )
        return list(results)

    # ------------------------------------------------------------------
    def _restore(self, spec: RunSpec, key: Optional[tuple]) -> Optional[CellResult]:
        if self.store is None or not self.reuse_results:
            return None
        payload = self.store.get(key)
        if payload is None:
            return None
        return CellResult.from_output(spec, payload, from_cache=True)

    def _context_for(self, spec: RunSpec):
        from repro.bench.experiments import ExperimentContext

        key = context_key(spec)
        local = self._local_context() if self._local_context is not None else None
        if local is not None and context_key_of(local) == key:
            return local
        ctx = self._contexts.get(key)
        if ctx is None:
            ctx = ExperimentContext(spec.settings, store=self.store)
            self._contexts[key] = ctx
        return ctx

    def _run_serial(
        self,
        specs: List[RunSpec],
        keys: List[Optional[tuple]],
        pending: List[int],
        results: List[Optional[CellResult]],
    ) -> None:
        for index in pending:
            spec = specs[index]
            started = perf_seconds()
            payload = execute_cell(self._context_for(spec), spec)
            elapsed = perf_seconds() - started
            if self.store is not None:
                self.store.put(keys[index], payload)
            results[index] = CellResult.from_output(
                spec, payload, elapsed=elapsed
            )
            self._report(f"[ran {elapsed:6.2f}s] {spec.describe()}")

    def _run_parallel(
        self,
        specs: List[RunSpec],
        pending: List[int],
        results: List[Optional[CellResult]],
    ) -> None:
        if self.store is not None:
            self._warm_shared_artifacts([specs[index] for index in pending])
        cache_dir = str(self.store.root) if self.store is not None else None
        started = {index: perf_seconds() for index in pending}
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures = {
                pool.submit(
                    run_cell_in_worker, specs[index].to_dict(), cache_dir
                ): index
                for index in pending
            }
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    spec = specs[index]
                    payload = future.result()
                    elapsed = perf_seconds() - started[index]
                    results[index] = CellResult.from_output(
                        spec, payload, elapsed=elapsed
                    )
                    self._report(f"[ran {elapsed:6.2f}s] {spec.describe()}")

    def _warm_shared_artifacts(self, specs: Sequence[RunSpec]) -> None:
        """Materialize shared artifacts into the store before forking.

        Without this every worker would race to regenerate the same
        dataset. Building datasets and workflow suites once in the parent
        turns those races into instant disk hits.
        """
        for spec in specs:
            ctx = self._context_for(spec)
            size = spec.settings.data_size
            ctx.dataset(size, spec.normalized)
            if spec.mode == "suite" and spec.workflows.kind == "generated":
                ctx.workflows(
                    WorkflowType(spec.workflows.workflow_type),
                    spec.workflows.count,
                    size=size,
                )
            if spec.mode == "suite":
                warm_ground_truth(ctx, spec)

    def _report(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)


def context_key_of(ctx) -> ContextKey:
    """The :func:`context_key` identity of an ExperimentContext."""
    return (ctx.settings.dataset, ctx.settings.seed, ctx.settings.scale)
