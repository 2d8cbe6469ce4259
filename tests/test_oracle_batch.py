"""The oracle's batch axis: every function evaluated over many bindings at
once equals the same function at each binding alone."""

import math
import random

import numpy as np
import pytest

from tensorlang import oracle


def seeded_points(count, seed=50):
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        a = rng.uniform(0.5, 1.5)
        b = a + rng.uniform(0.5, 2.5)
        points.append((a, b, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)))
    return points


@pytest.mark.parametrize("name", ["metric", "christoffel_first", "christoffel_second",
                                  "riemann"])
def test_batch_equals_each_point(name):
    points = seeded_points(50)
    fn = getattr(oracle, name)
    batch = fn(*[np.array(column) for column in zip(*points)])
    assert batch.shape[0] == 50
    assert np.array_equal(batch, np.array([fn(*p) for p in points]))


def test_metric_cross_check_fires_for_one_bad_binding(monkeypatch):
    a, b, theta, phi = (np.array(c) for c in zip(*seeded_points(8)))
    oracle.metric(a, b, theta, phi)
    real_fd = oracle.metric_fd

    def off_at_binding_5(*args, **kw):
        fd = real_fd(*args, **kw)
        fd[5, 1, 1] += 1e-3
        return fd

    monkeypatch.setattr(oracle, "metric_fd", off_at_binding_5)
    with pytest.raises(AssertionError, match="disagrees with finite differences"):
        oracle.metric(a, b, theta, phi)
