import math
import random

import numpy as np
import pytest

from tensorlang import oracle


RNG = random.Random(99)


def random_point():
    a = RNG.uniform(0.5, 1.5)
    b = a + RNG.uniform(0.5, 2.5)
    return a, b, RNG.uniform(0, 2 * math.pi), RNG.uniform(0, 2 * math.pi)


def test_closed_form_metric_matches_embedding_differences():
    for _ in range(10):
        a, b, th, ph = random_point()
        g = oracle.metric(a, b, th, ph)
        fd = oracle.metric_fd(a, b, th, ph)
        assert np.allclose(g, fd, atol=1e-7)


def test_metric_is_diagonal():
    a, b, th, ph = random_point()
    g = oracle.metric(a, b, th, ph)
    assert g[0, 1] == 0 and g[1, 0] == 0


def test_theta_theta_component_is_tube_radius_squared():
    g = oracle.metric(1.0, 3.0, 0.5, 0.0)
    assert abs(g[0, 0] - 1.0) < 1e-12
    # and the symbolic pipeline agrees
    from tensorlang import Interpreter
    from tensorlang.golden import CORPUS_DIR
    from tensorlang.symbolic import eval_numeric
    it = Interpreter()
    it.run_source((CORPUS_DIR / "torus.tl").read_text(encoding="utf-8"))
    got = eval_numeric(it.eval_source("g_1_1"), {"a": 1.0, "b": 3.0, "θ": 0.5, "φ": 0.0})
    assert abs(got - 1.0) < 1e-12


def test_known_gaussian_curvature():
    # K = cosθ / (a (b + a cosθ)); R^θ_φθφ = K g_φφ
    for _ in range(5):
        a, b, th, ph = random_point()
        r = oracle.riemann(a, b, th, ph)
        want = math.cos(th) * (b + a * math.cos(th)) / a
        assert abs(r[0, 1, 0, 1] - want) < 1e-5 * (1 + abs(want))


def test_riemann_antisymmetry_in_last_pair():
    a, b, th, ph = random_point()
    r = oracle.riemann(a, b, th, ph)
    assert np.allclose(r[:, :, 0, 1], -r[:, :, 1, 0], atol=1e-6)
    assert np.allclose(r[:, :, 0, 0], 0, atol=1e-6)
    assert np.allclose(r[:, :, 1, 1], 0, atol=1e-6)


def test_christoffel_first_symmetry():
    # C1[i][j][k] is symmetric in its last two slots for this formula's layout
    a, b, th, ph = random_point()
    c1 = oracle.christoffel_first(a, b, th, ph)
    assert np.allclose(c1, np.swapaxes(c1, 1, 2), atol=1e-7)
