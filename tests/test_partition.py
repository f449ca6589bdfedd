"""``contiguous_partition``: the min-max cut a training run groups its
stages by.  The oracle is brute force over every contiguous split."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.pipeline import contiguous_partition


def _worst(costs, groups) -> float:
    return max(sum(costs[g[0] : g[-1] + 1]) for g in groups)


def _oracle(costs, k: int) -> float:
    """Least worst-group cost over every split of ``costs`` into
    ``min(k, n)`` contiguous non-empty groups."""
    n = len(costs)
    best = float("inf")
    for cuts in itertools.combinations(range(1, n), min(k, n) - 1):
        bounds = (0, *cuts, n)
        best = min(
            best,
            max(sum(costs[i:j]) for i, j in zip(bounds, bounds[1:])),
        )
    return best


def _assert_cut(groups, n: int, k: int) -> None:
    assert len(groups) == min(k, n)
    assert all(groups), groups
    assert [s for g in groups for s in g] == list(range(n))


class TestAgainstBruteForce:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_worst_group_equals_the_oracle_minimum(self, n):
        rng = np.random.default_rng(n)
        for trial in range(20):
            # mixed scales: near-equal stages and a few dominant ones
            costs = list(rng.exponential(1.0, size=n) * 1e-4)
            for k in range(1, n + 2):
                groups = contiguous_partition(costs, k)
                _assert_cut(groups, n, k)
                assert _worst(costs, groups) == _oracle(costs, k), (
                    trial, costs, k, groups
                )

    def test_integer_costs_with_many_optima(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            costs = [float(c) for c in rng.integers(0, 4, size=n)]
            for k in range(1, n + 1):
                groups = contiguous_partition(costs, k)
                _assert_cut(groups, n, k)
                assert _worst(costs, groups) == _oracle(costs, k)


class TestDeterminism:
    def test_equal_costs_cut_at_the_earliest_boundary(self):
        assert contiguous_partition([1.0] * 3, 2) == [(0,), (1, 2)]
        assert contiguous_partition([1.0] * 5, 2) == [(0, 1), (2, 3, 4)]
        # the first group may hold 1, 2 or 3 stages at the optimum 3:
        # it takes the earliest boundary
        assert contiguous_partition([1.0] * 7, 3) == [
            (0,), (1, 2, 3), (4, 5, 6)
        ]

    def test_same_costs_same_groups(self):
        costs = list(np.random.default_rng(3).exponential(size=6))
        first = contiguous_partition(costs, 3)
        assert all(
            contiguous_partition(list(costs), 3) == first for _ in range(5)
        )

    def test_dominant_stage_stands_alone(self):
        # the costly stage gets a worker of its own; the cheap ones share
        assert contiguous_partition([1.0, 1.0, 10.0, 1.0, 1.0], 3) == [
            (0, 1), (2,), (3, 4)
        ]
        assert contiguous_partition([1.0, 1.0, 1.0, 10.0], 2) == [
            (0, 1, 2), (3,)
        ]
        # ... unless it cannot have one: with two workers stage 1 shares
        # either way, and {0,1}{2,3} (worst 11) beats {0}{1,2,3} (12)
        assert contiguous_partition([1.0, 10.0, 1.0, 1.0], 2) == [
            (0, 1), (2, 3)
        ]


class TestEdges:
    def test_k_at_least_n_gives_singletons(self):
        costs = [3.0, 1.0, 2.0]
        for k in (3, 4, 100):
            assert contiguous_partition(costs, k) == [(0,), (1,), (2,)]

    def test_k_one_gives_one_group(self):
        assert contiguous_partition([3.0, 1.0, 2.0, 5.0], 1) == [
            (0, 1, 2, 3)
        ]

    def test_zero_costs_are_allowed(self):
        assert contiguous_partition([0.0, 0.0], 2) == [(0,), (1,)]

    @pytest.mark.parametrize(
        "costs, k",
        [([], 1), ([1.0], 0), ([1.0, -1.0], 2), ([float("nan")], 1),
         ([float("inf"), 1.0], 1)],
    )
    def test_bad_input_is_refused(self, costs, k):
        with pytest.raises(ValueError):
            contiguous_partition(costs, k)
