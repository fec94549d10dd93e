"""Tests for the Markov-chain machinery behind the workload generator."""

import numpy as np
import pytest

from repro.common.errors import WorkflowError
from repro.workflow.markov import MarkovChain


@pytest.fixture
def chain():
    return MarkovChain(
        states=("a", "b"),
        transitions={"a": {"a": 1.0, "b": 3.0}, "b": {"a": 1.0}},
        initial="a",
    )


class TestValidation:
    def test_rejects_empty_states(self):
        with pytest.raises(WorkflowError):
            MarkovChain(states=(), transitions={}, initial="a")

    def test_rejects_duplicate_states(self):
        with pytest.raises(WorkflowError):
            MarkovChain(states=("a", "a"), transitions={"a": {"a": 1}}, initial="a")

    def test_rejects_unknown_initial(self):
        with pytest.raises(WorkflowError):
            MarkovChain(states=("a",), transitions={"a": {"a": 1}}, initial="z")

    def test_rejects_missing_transitions(self):
        with pytest.raises(WorkflowError):
            MarkovChain(states=("a", "b"), transitions={"a": {"b": 1}}, initial="a")

    def test_rejects_unknown_successor(self):
        with pytest.raises(WorkflowError):
            MarkovChain(states=("a",), transitions={"a": {"ghost": 1}}, initial="a")

    def test_rejects_negative_weight(self):
        with pytest.raises(WorkflowError):
            MarkovChain(states=("a",), transitions={"a": {"a": -1}}, initial="a")

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_rejects_non_finite_weight(self, weight):
        # The CDF is built at construction; a NaN would sample silently.
        with pytest.raises(WorkflowError, match="finite"):
            MarkovChain(
                states=("a", "b"),
                transitions={"a": {"a": 1.0, "b": weight}, "b": {"a": 1.0}},
                initial="a",
            )

    def test_rejects_all_zero_weights(self):
        with pytest.raises(WorkflowError):
            MarkovChain(states=("a",), transitions={"a": {"a": 0.0}}, initial="a")


class TestSampling:
    def test_normalized_row(self, chain):
        successors, probs = chain.normalized_row("a")
        assert successors == ("a", "b")
        assert probs.sum() == pytest.approx(1.0)
        assert probs[1] == pytest.approx(0.75)

    def test_walk_length_and_start(self, chain):
        walk = chain.walk(10, np.random.default_rng(0))
        assert len(walk) == 10
        assert walk[0] == "a"
        assert set(walk) <= {"a", "b"}

    def test_walk_respects_structure(self, chain):
        # b can only go to a.
        walk = chain.walk(50, np.random.default_rng(1))
        for current, following in zip(walk, walk[1:]):
            if current == "b":
                assert following == "a"

    def test_walk_deterministic_per_seed(self, chain):
        a = chain.walk(30, np.random.default_rng(5))
        b = chain.walk(30, np.random.default_rng(5))
        assert a == b

    def test_walk_rejects_zero_length(self, chain):
        with pytest.raises(WorkflowError):
            chain.walk(0, np.random.default_rng(0))

    def test_step_unknown_state(self, chain):
        with pytest.raises(WorkflowError):
            chain.step("ghost", np.random.default_rng(0))

    def test_iter_walk_is_lazy_and_infinite(self, chain):
        walker = chain.iter_walk(np.random.default_rng(2))
        first_five = [next(walker) for _ in range(5)]
        assert first_five[0] == "a"

    def test_empirical_frequencies_match_transition_probs(self, chain):
        rng = np.random.default_rng(3)
        walk = chain.walk(20_000, rng)
        after_a = [nxt for cur, nxt in zip(walk, walk[1:]) if cur == "a"]
        frequency_b = sum(1 for s in after_a if s == "b") / len(after_a)
        assert frequency_b == pytest.approx(0.75, abs=0.02)


class TestStationaryDistribution:
    def test_sums_to_one(self, chain):
        distribution = chain.stationary_distribution()
        assert sum(distribution.values()) == pytest.approx(1.0)

    def test_matches_analytic_solution(self, chain):
        # π_a = π_a * 0.25 + π_b;  π_b = π_a * 0.75  →  π_a = 4/7, π_b = 3/7
        distribution = chain.stationary_distribution()
        assert distribution["a"] == pytest.approx(4 / 7, abs=1e-6)
        assert distribution["b"] == pytest.approx(3 / 7, abs=1e-6)
