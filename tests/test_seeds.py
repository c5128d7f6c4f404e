"""The seed rule: a seeded library call takes an integer >= 0, a numpy one included."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from phonoprep.clustering import (
    SizeDistribution,
    kmeans_fit,
    random_cluster,
    random_cluster_uniform,
)
from phonoprep.geometry import coverage_curve, density_measure, train_embeddings

CORPUS = ["the cat sat", "the dog sat", "a cat and a dog"]
UNITS = [f"w{i}" for i in range(6)]
POINTS = np.random.default_rng(0).normal(size=(30, 2))
GROUPS = [POINTS[i::6] for i in range(6)]

# entry point -> (name of its seed parameter, call with that seed)
SEEDED = {
    "train_embeddings": ("seed", lambda s: train_embeddings(CORPUS, d=2, seed=s)),
    "kmeans_fit": ("seed", lambda s: kmeans_fit(POINTS, 3, seed=s)),
    "random_cluster": ("seed", lambda s: random_cluster(UNITS, SizeDistribution((4, 2)), s)),
    "random_cluster_uniform": ("seed", lambda s: random_cluster_uniform(UNITS, 0.5, s)),
    "coverage_curve": ("order_seed", lambda s: coverage_curve(GROUPS, order_seed=s)),
    "density_measure": ("seed", lambda s: density_measure(POINTS, GROUPS, m=64, seed=s)),
}


@pytest.mark.parametrize("value", [True, -1, 2.5, "3"])
@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_seed_that_is_not_an_integer_at_least_zero_is_refused(entry, value):
    name, call = SEEDED[entry]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 0, got "):
        call(value)


@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_numpy_integer_seed_acts_as_its_int(entry):
    _, call = SEEDED[entry]

    def fields(result):
        return dataclasses.asdict(result) if dataclasses.is_dataclass(result) else result

    np.testing.assert_equal(fields(call(np.int64(3))), fields(call(3)))
