"""Tests for deterministic seed derivation and the scalar draw forms."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.errors import WorkflowError
from repro.common.rng import (
    choice_cdf,
    derive_rng,
    derive_seed,
    derive_session_seed,
    pick,
    pick_weighted,
    uniform,
)
from repro.workflow.generator import _CHAINS, WorkloadConfig

#: Every draw form must match numpy on each of these seeds.
SEEDS = range(500)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_differs_by_root_seed(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_differs_by_purpose(self):
        assert derive_seed(42, "copula") != derive_seed(42, "workflow")

    def test_differs_by_purpose_arity(self):
        assert derive_seed(42, "a", "b") != derive_seed(42, "ab")

    def test_fits_in_64_bits(self):
        seed = derive_seed(42, "anything", 123, "deep")
        assert 0 <= seed < 2**64

    @given(st.integers(min_value=0, max_value=2**63), st.text(max_size=20))
    def test_always_valid_seed(self, root, purpose):
        seed = derive_seed(root, purpose)
        assert 0 <= seed < 2**64
        # numpy accepts it
        np.random.default_rng(seed)

    def test_purpose_separator_prevents_collisions(self):
        # ("ab", "c") must differ from ("a", "bc")
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")


class TestDeriveRng:
    def test_same_purpose_same_stream(self):
        a = derive_rng(42, "stream").random(10)
        b = derive_rng(42, "stream").random(10)
        assert np.array_equal(a, b)

    def test_different_purpose_different_stream(self):
        a = derive_rng(42, "one").random(10)
        b = derive_rng(42, "two").random(10)
        assert not np.array_equal(a, b)

    def test_streams_are_statistically_independent_ish(self):
        a = derive_rng(42, "s", 1).random(2_000)
        b = derive_rng(42, "s", 2).random(2_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


class TestDeriveSessionSeed:
    def test_pure_function_of_root_and_index(self):
        assert derive_session_seed(42, 3) == derive_session_seed(42, 3)
        assert derive_session_seed(42, 3) != derive_session_seed(42, 4)
        assert derive_session_seed(42, 3) != derive_session_seed(43, 3)

    def test_matches_purpose_string_derivation(self):
        # The documented contract: ("server-session", index).
        assert derive_session_seed(7, 0) == derive_seed(7, "server-session", 0)

    def test_distinct_from_other_purposes(self):
        assert derive_session_seed(7, 0) != derive_seed(7, "workflow", 0)


def _twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


class TestDrawForms:
    """Each scalar form returns what the numpy call returns and leaves the
    generator in the same state (docs/determinism.md, "Draw forms")."""

    def test_markov_step_is_choice_with_p(self):
        for chain in _CHAINS.values():
            for state in chain.states:
                successors, probs = chain.normalized_row(state)
                for seed in SEEDS:
                    numpy_rng, form_rng = _twins(seed)
                    for _ in range(3):
                        expected = str(numpy_rng.choice(successors, p=probs))
                        assert chain.step(state, form_rng) == expected
                        assert _same_state(numpy_rng, form_rng)

    def test_pick_weighted_is_choice_with_p(self):
        specs, weights = zip(*WorkloadConfig().agg_distribution)
        probs = np.array(weights) / np.sum(weights)
        cdf = choice_cdf(probs)
        for seed in SEEDS:
            numpy_rng, form_rng = _twins(seed)
            for _ in range(3):
                expected = str(numpy_rng.choice(specs, p=probs))
                assert pick_weighted(form_rng, specs, cdf) == expected
                assert _same_state(numpy_rng, form_rng)

    def test_pick_is_choice(self):
        for length in range(1, 41):
            items = [f"viz_{i}" for i in range(length)]
            for seed in SEEDS:
                numpy_rng, form_rng = _twins(seed)
                assert pick(form_rng, items) == str(numpy_rng.choice(items))
                assert _same_state(numpy_rng, form_rng)

    def test_uniform_is_generator_uniform(self):
        low_sel, high_sel = WorkloadConfig().filter_selectivity_range
        for seed in SEEDS:
            numpy_rng, form_rng = _twins(seed)
            # The generator's three call sites: log-selectivity, filter
            # start, selection quantile.
            low, high = np.log(low_sel), np.log(high_sel)
            expected = numpy_rng.uniform(low, high)
            assert uniform(form_rng, low, high) == expected
            selectivity = float(np.exp(expected))
            assert uniform(form_rng, 0.0, 1.0 - selectivity) == (
                numpy_rng.uniform(0.0, 1.0 - selectivity)
            )
            assert uniform(form_rng, 0.05, 0.95) == numpy_rng.uniform(0.05, 0.95)
            assert _same_state(numpy_rng, form_rng)

    def test_unknown_state_still_raises(self):
        chain = next(iter(_CHAINS.values()))
        with pytest.raises(WorkflowError, match="unknown state"):
            chain.step("ghost", np.random.default_rng(0))
