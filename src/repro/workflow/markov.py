"""Markov-chain machinery for the workload generator.

§4.3: *"The workflow generator models workflows as Markov Chains with
pre-defined (and customizable) probability distributions for each of the
workflow types to sample a sequence of interactions and filter/selection
criteria."*

:class:`MarkovChain` is a small, validated implementation over string
states. Workflow-type samplers define one chain each over abstract
*actions* (create, extend, filter, select, …) and then materialize each
sampled action into a concrete interaction (see
:mod:`repro.workflow.generator`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Tuple

import numpy as np

from repro.common.errors import WorkflowError
from repro.common.rng import choice_cdf, pick_weighted


@dataclass(frozen=True)
class MarkovChain:
    """A finite Markov chain over string states.

    ``transitions[s]`` maps successor states to non-negative weights;
    weights are normalized at construction, so callers may specify
    relative odds. Every state must have at least one outgoing edge
    (workflow chains run for a fixed number of steps, not to absorption).
    """

    states: Tuple[str, ...]
    transitions: Mapping[str, Mapping[str, float]]
    initial: str
    #: state → (successors sorted by name, their CDF), built at construction.
    _rows: Dict[str, Tuple[Tuple[str, ...], List[float]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not self.states:
            raise WorkflowError("Markov chain needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise WorkflowError(f"duplicate states: {self.states}")
        state_set = set(self.states)
        if self.initial not in state_set:
            raise WorkflowError(f"initial state {self.initial!r} unknown")
        for state in self.states:
            row = self.transitions.get(state)
            if not row:
                raise WorkflowError(f"state {state!r} has no outgoing transitions")
            for successor, weight in row.items():
                if successor not in state_set:
                    raise WorkflowError(
                        f"transition {state!r} → {successor!r} targets unknown state"
                    )
                if not 0 <= weight < math.inf:
                    raise WorkflowError(
                        f"weight on {state!r} → {successor!r} must be finite "
                        f"and non-negative, got {weight!r}"
                    )
            if sum(row.values()) <= 0:
                raise WorkflowError(f"state {state!r} has all-zero weights")
        rows = {}
        for state in self.states:
            successors, probs = self.normalized_row(state)
            rows[state] = (successors, choice_cdf(probs))
        object.__setattr__(self, "_rows", rows)

    def normalized_row(self, state: str) -> Tuple[Tuple[str, ...], np.ndarray]:
        """Successors and their normalized probabilities, sorted by name."""
        row = self.transitions[state]
        successors = tuple(sorted(row))
        weights = np.array([row[s] for s in successors], dtype=np.float64)
        return successors, weights / weights.sum()

    def step(self, state: str, rng: np.random.Generator) -> str:
        """Sample the successor of ``state``.

        One ``rng.random()`` searched in the state's precomputed CDF —
        the draw and the result of ``rng.choice(successors, p=probs)``
        over :meth:`normalized_row`, without numpy's per-call dispatch.
        """
        row = self._rows.get(state)
        if row is None:
            raise WorkflowError(f"unknown state {state!r}")
        return pick_weighted(rng, *row)

    def walk(self, length: int, rng: np.random.Generator) -> List[str]:
        """Sample a state sequence of ``length`` starting at ``initial``."""
        if length < 1:
            raise WorkflowError(f"walk length must be >= 1, got {length}")
        sequence = [self.initial]
        while len(sequence) < length:
            sequence.append(self.step(sequence[-1], rng))
        return sequence

    def iter_walk(self, rng: np.random.Generator) -> Iterator[str]:
        """Infinite lazy walk (callers impose their own stopping rule)."""
        state = self.initial
        yield state
        while True:
            state = self.step(state, rng)
            yield state

    def stationary_distribution(self) -> Dict[str, float]:
        """Stationary distribution (power iteration; analysis helper)."""
        index = {state: i for i, state in enumerate(self.states)}
        matrix = np.zeros((len(self.states), len(self.states)))
        for state in self.states:
            successors, probs = self.normalized_row(state)
            for successor, p in zip(successors, probs):
                matrix[index[state], index[successor]] = p
        distribution = np.full(len(self.states), 1.0 / len(self.states))
        for _ in range(10_000):
            updated = distribution @ matrix
            if np.max(np.abs(updated - distribution)) < 1e-12:
                distribution = updated
                break
            distribution = updated
        return {state: float(distribution[index[state]]) for state in self.states}
