"""Weighted processor-sharing scheduler for concurrent query execution.

§2.2: one interaction on a linked dashboard can trigger *multiple
concurrent queries*. On a real DBMS those queries contend for CPU and
memory bandwidth; the simulators model that contention with classic
(weighted) processor sharing: at any instant, each active task receives a
share of the engine's capacity proportional to its weight. A blocking
query that would take 2 s alone takes ~6 s when a 1:N interaction launches
it alongside two siblings — which is exactly why 1:N workflows hurt
blocking engines in Fig. 6d.

Each task records its cumulative *service* (seconds of exclusive capacity)
as a step-linear history, so engines can ask "how much work had task T
received at time t?" for any past t. That is what report-interval engines
(XDB) need to reconstruct the result that was available at a tick, and
what makes driver-side polling deterministic.

How capacity splits among active tasks is a pluggable
:class:`SchedulingPolicy`:

* :class:`WeightedSharingPolicy` (the default) is the classic scheme
  above — each task's rate is ``weight / total_weight``;
* :class:`FairSessionPolicy` adds a *group* tier for the session server
  (docs/server.md): capacity first splits across groups with active
  tasks (one group per simulated session, each claiming
  ``min(1, Σ weights)``), then by weight within a group — so one session
  issuing ten concurrent queries cannot starve a session issuing one,
  mirroring per-connection fair scheduling in a multi-user DBMS, while
  sessions with only near-zero-weight background work yield their share.

Tasks are tagged with a group at :meth:`add_task` time, either explicitly
or via :meth:`ProcessorSharingScheduler.set_group` (a scoped default the
session server sets before stepping each session, so engine code that
predates groups keeps working unchanged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.clock import Clock
from repro.common.errors import EngineError
from repro.obs import timed_stage
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer


@dataclass
class _Task:
    task_id: int
    work_total: float  # seconds of exclusive service needed; inf = open-ended
    weight: float
    group: Optional[str] = None
    work_done: float = 0.0
    finished_at: Optional[float] = None
    cancelled: bool = False
    #: (time, cumulative work) breakpoints; service is linear in between.
    history: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def active(self) -> bool:
        return self.finished_at is None and not self.cancelled

    @property
    def remaining(self) -> float:
        return self.work_total - self.work_done

    def record(self, time: float) -> None:
        if not self.history or self.history[-1] != (time, self.work_done):
            self.history.append((time, self.work_done))

    def work_at(self, time: float) -> float:
        """Cumulative service received by ``time`` (linear interpolation)."""
        if not self.history or time <= self.history[0][0]:
            return 0.0
        if time >= self.history[-1][0]:
            return self.history[-1][1]
        # Binary search for the segment containing ``time``.
        low, high = 0, len(self.history) - 1
        while high - low > 1:
            mid = (low + high) // 2
            if self.history[mid][0] <= time:
                low = mid
            else:
                high = mid
        t0, w0 = self.history[low]
        t1, w1 = self.history[high]
        if t1 <= t0:
            return w1
        frac = (time - t0) / (t1 - t0)
        return w0 + frac * (w1 - w0)


class SchedulingPolicy:
    """Hook deciding how engine capacity splits among active tasks.

    ``rates`` receives the currently active tasks and returns each task's
    instantaneous share of capacity (the shares must sum to 1.0). The
    scheduler re-queries the policy whenever the active set changes, so a
    policy only ever reasons about one instant.
    """

    def rates(self, active: Sequence[_Task]) -> Dict[int, float]:
        raise NotImplementedError


class WeightedSharingPolicy(SchedulingPolicy):
    """Classic weighted processor sharing: rate ∝ task weight (§2.2).

    This is the historical (and default) behavior — groups are ignored.
    """

    def rates(self, active: Sequence[_Task]) -> Dict[int, float]:
        total_weight = sum(task.weight for task in active)
        return {task.task_id: task.weight / total_weight for task in active}


class FairSessionPolicy(SchedulingPolicy):
    """Two-tier fair sharing for multi-session engines (docs/server.md).

    Capacity splits across *groups* of active tasks first, by task weight
    within a group second. With a group per simulated session this is
    per-session fair scheduling: a 1:N dashboard interaction that launches
    ten concurrent queries slows only its own session's queries down,
    never another session's — the contention the paper studies in §2.2
    stays confined to the session that caused it.

    A group's claim is ``min(1, Σ member weights)``: every session with
    ordinary foreground work (weight ≥ 1) claims one equal share no
    matter how many concurrent queries it runs — but a session whose only
    active tasks are near-zero-weight background work (the progressive
    engine parks paused speculation at weight 1e-4) claims almost
    nothing, preserving the engines' yield-to-foreground mechanics
    instead of granting an idle session a full share for its background
    noise.

    Tasks without a group (``None``) form one shared group.
    """

    def rates(self, active: Sequence[_Task]) -> Dict[int, float]:
        groups: Dict[Optional[str], List[_Task]] = {}
        for task in active:
            groups.setdefault(task.group, []).append(task)
        claims = {
            group: min(1.0, sum(task.weight for task in members))
            for group, members in groups.items()
        }
        total_claim = sum(claims.values())
        rates: Dict[int, float] = {}
        for group, members in groups.items():
            group_share = claims[group] / total_claim
            group_weight = sum(task.weight for task in members)
            for task in members:
                rates[task.task_id] = group_share * task.weight / group_weight
        return rates


class ProcessorSharingScheduler:
    """Simulates an engine's capacity shared among concurrent tasks.

    The scheduler is driven by :meth:`advance_to`; between calls no state
    changes. Total capacity is 1.0 service-second per second; an exclusive
    task therefore completes ``work_total`` after exactly ``work_total``
    seconds. How the capacity splits among concurrent tasks is delegated
    to ``policy`` (default: :class:`WeightedSharingPolicy`).
    """

    def __init__(self, clock: Clock, policy: Optional[SchedulingPolicy] = None):
        self._clock = clock
        self._tasks: Dict[int, _Task] = {}
        # Active-set index: the settle loop, group sweeps, and policy
        # arbitration touch only tasks still consuming capacity, so one
        # step costs O(active tasks) no matter how many tasks the engine
        # has completed over its lifetime (the 100k-session frontier).
        # Insertion order equals task-id order, exactly like filtering
        # ``_tasks`` did, so arbitration sees tasks in the same order.
        self._active: Dict[int, _Task] = {}
        self._next_id = 0
        self._last_advance = clock.now()
        self._policy = policy if policy is not None else WeightedSharingPolicy()
        self._current_group: Optional[str] = None

    # ------------------------------------------------------------------
    # Policy and group hooks (session server)
    # ------------------------------------------------------------------
    @property
    def policy(self) -> SchedulingPolicy:
        """The active capacity-sharing policy."""
        return self._policy

    def set_policy(self, policy: SchedulingPolicy) -> None:
        """Install a policy; only allowed before any task exists.

        Swapping mid-run would retroactively change settled service
        histories' meaning, so the scheduler refuses once tasks exist.
        """
        if self._tasks:
            raise EngineError("cannot change scheduling policy once tasks exist")
        self._policy = policy

    def set_group(self, group: Optional[str]) -> None:
        """Set the default group tag for subsequently added tasks.

        The session server calls this with the session id before stepping
        each session, so every task an engine creates on the session's
        behalf lands in that session's group without the engine knowing
        about sessions at all.
        """
        self._current_group = group

    def task_group(self, task_id: int) -> Optional[str]:
        """The group a task was tagged with at creation."""
        return self._get(task_id).group

    def cancel_group(self, group: Optional[str]) -> int:
        """Cancel every still-active task tagged with ``group``.

        The session server calls this when a session departs mid-run
        from a *shared* engine — open-system churn, a remote frontend
        disconnecting while it holds the turn, or a turn timeout:
        whatever the departed session still had running — foreground
        queries the driver did not get to cancel, parked speculation —
        must stop consuming capacity, or ghost load from churned-out
        users would skew every remaining session. If the cancelled group
        is also the scheduler's *current default* group (the departing
        session held the step turn when it died), the default is reset
        to ``None`` so no later task can be tagged into a dead group.
        Returns the number of tasks cancelled.
        """
        now = self._clock.now()
        self._settle(now)
        cancelled = 0
        for task in list(self._active.values()):
            if task.group == group:
                task.cancelled = True
                task.record(now)
                del self._active[task.task_id]
                cancelled += 1
        if group is not None and self._current_group == group:
            self._current_group = None
        return cancelled

    def active_groups(self) -> List[Optional[str]]:
        """Groups that still own at least one active task, sorted.

        ``None`` (the ungrouped pool) sorts last. The session server's
        tests use this to assert a departed session's group was swept
        clean; it is also a useful live diagnostic of who is consuming
        capacity on a shared engine.
        """
        groups = {task.group for task in self._active.values()}
        return sorted(groups, key=lambda g: (g is None, g or ""))

    # ------------------------------------------------------------------
    # Task management
    # ------------------------------------------------------------------
    def add_task(
        self,
        work_total: float,
        weight: float = 1.0,
        group: Optional[str] = None,
    ) -> int:
        """Register a task at the current time; returns its id.

        ``work_total`` may be ``math.inf`` for open-ended (speculative)
        tasks that run until cancelled. ``group`` defaults to the scoped
        group set via :meth:`set_group` (None outside the session server).
        """
        if work_total < 0:
            raise EngineError(f"work_total must be >= 0, got {work_total}")
        if weight <= 0:
            raise EngineError(f"weight must be positive, got {weight}")
        now = self._clock.now()
        self._settle(now)
        task = _Task(
            task_id=self._next_id,
            work_total=work_total,
            weight=weight,
            group=group if group is not None else self._current_group,
        )
        task.record(now)
        if work_total == 0.0:
            task.finished_at = now
        self._tasks[task.task_id] = task
        if task.active:
            self._active[task.task_id] = task
        self._next_id += 1
        return task.task_id

    def cancel(self, task_id: int) -> None:
        """Cancel a task (no-op if already finished)."""
        task = self._get(task_id)
        now = self._clock.now()
        self._settle(now)
        if task.active:
            task.cancelled = True
            task.record(now)
            del self._active[task.task_id]

    def set_weight(self, task_id: int, weight: float) -> None:
        """Change a task's weight (e.g. promote a speculative task)."""
        if weight <= 0:
            raise EngineError(f"weight must be positive, got {weight}")
        self._settle(self._clock.now())
        self._get(task_id).weight = weight

    def credit_work(self, task_id: int, amount: float) -> None:
        """Grant ``amount`` of pre-done service (result reuse).

        The credit is applied instantaneously at the current time; if it
        completes the task, the task finishes now.
        """
        if amount < 0:
            raise EngineError(f"credit must be >= 0, got {amount}")
        now = self._clock.now()
        self._settle(now)
        task = self._get(task_id)
        if not task.active:
            return
        task.work_done = min(task.work_total, task.work_done + amount)
        if task.remaining <= 1e-12:
            task.finished_at = now
            self._active.pop(task_id, None)
        task.record(now)

    # ------------------------------------------------------------------
    # Time advancement
    # ------------------------------------------------------------------
    def advance_to(self, time: float) -> None:
        """Distribute service up to ``time`` (clock must already be there).

        Engines call this after the driver advanced the shared clock; it
        is idempotent for the same target time.
        """
        self._settle(time)

    def _settle(self, until: float) -> None:
        if until < self._last_advance - 1e-9:
            raise EngineError(
                f"cannot settle scheduler backwards: {until} < {self._last_advance}"
            )
        tracer = get_tracer()
        if not tracer.enabled:
            self._arbitrate(until)
            return
        # Arbitration cost: the settle loop re-queries the policy on
        # every active-set change — the 100k-session frontier's hot
        # spot (ROADMAP), so its wall time is attributed explicitly.
        with timed_stage("scheduler_arbitration"):
            policy_queries = self._arbitrate(until)
        if policy_queries:
            get_metrics().counter(
                "repro_scheduler_policy_queries_total",
                help="Policy rate() arbitrations inside settle loops.",
            ).inc(policy_queries)
            tracer.event("scheduler.settle", until, policy_queries=policy_queries)

    def _arbitrate(self, until: float) -> int:
        """Run every active task up to ``until``; returns how many times
        the policy was asked for rates."""
        policy_queries = 0
        now = self._last_advance
        remaining_dt = until - now
        while remaining_dt > 1e-12:
            active = list(self._active.values())
            if not active:
                break
            rates = self._policy.rates(active)
            policy_queries += 1
            # Time until the earliest finite task finishes at current rates.
            earliest: Optional[float] = None
            for task in active:
                if math.isinf(task.work_total):
                    continue
                rate = rates[task.task_id]
                eta = task.remaining / rate if rate > 0 else math.inf
                if earliest is None or eta < earliest:
                    earliest = eta
            step = remaining_dt if earliest is None else min(remaining_dt, earliest)
            for task in active:
                task.work_done = min(
                    task.work_total, task.work_done + step * rates[task.task_id]
                )
            now += step
            remaining_dt -= step
            for task in active:
                if not math.isinf(task.work_total) and task.remaining <= 1e-9:
                    task.finished_at = now
                    task.record(now)
                    del self._active[task.task_id]
        for task in self._active.values():
            task.record(until)
        self._last_advance = until
        return policy_queries

    # ------------------------------------------------------------------
    # Queries
    @property
    def settled_until(self) -> float:
        """Latest time the scheduler state is valid for (see work_at)."""
        return self._last_advance

    # ------------------------------------------------------------------
    def work_done(self, task_id: int) -> float:
        """Cumulative service received so far."""
        return self._get(task_id).work_done

    def work_at(self, task_id: int, time: float) -> float:
        """Cumulative service the task had received at past time ``time``."""
        task = self._get(task_id)
        if time > self._last_advance + 1e-9:
            raise EngineError(
                f"cannot query work at future time {time} "
                f"(settled up to {self._last_advance})"
            )
        return task.work_at(time)

    def finished_at(self, task_id: int) -> Optional[float]:
        """Completion time, or None while running/cancelled."""
        return self._get(task_id).finished_at

    def is_cancelled(self, task_id: int) -> bool:
        return self._get(task_id).cancelled

    def active_tasks(self) -> List[int]:
        """Ids of tasks still consuming capacity."""
        return list(self._active)

    def release_task(self, task_id: int) -> None:
        """Forget a *settled* (finished or cancelled) task entirely.

        Long-lived shared engines accumulate one :class:`_Task` — service
        history included — per query ever submitted; a population-scale
        serving run must shed them or memory grows with *total* sessions,
        not active ones. Releasing is the caller's promise that nobody
        will query this task again (``work_at``, ``finished_at``); the
        session server makes that promise only when the owning session
        has fully retired. Releasing an unknown id is a no-op (the task
        may have been released already); releasing an active task is an
        error — its service history is still being written.
        """
        task = self._tasks.get(task_id)
        if task is None:
            return
        if task.active:
            raise EngineError(f"cannot release active task {task_id}")
        del self._tasks[task_id]

    def _get(self, task_id: int) -> _Task:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise EngineError(f"unknown task id {task_id}") from None
