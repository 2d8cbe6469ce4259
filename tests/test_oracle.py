import math
import random

import numpy as np
import pytest

from tensorlang import Interpreter, oracle
from tensorlang.golden import CORPUS_DIR
from tensorlang.symbolic import eval_numeric


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
        assert abs(r[0, 1, 0, 1] - want) < 1e-12 * (1 + abs(want))


def test_riemann_antisymmetry_in_last_pair():
    a, b, th, ph = random_point()
    r = oracle.riemann(a, b, th, ph)
    assert np.allclose(r[:, :, 0, 1], -r[:, :, 1, 0], atol=1e-12)
    assert np.allclose(r[:, :, 0, 0], 0, atol=1e-12)
    assert np.allclose(r[:, :, 1, 1], 0, atol=1e-12)


def test_christoffel_first_symmetry():
    # C1[i][j][k] is symmetric in its last two slots for this formula's layout
    a, b, th, ph = random_point()
    c1 = oracle.christoffel_first(a, b, th, ph)
    assert np.allclose(c1, np.swapaxes(c1, 1, 2), atol=1e-7)


def jet_variables(*columns):
    """One jet per column: the coordinates themselves, at every point."""
    n, count = len(columns), len(columns[0])
    return [oracle.Jet(np.array(c, dtype=float), np.repeat(np.eye(n)[k][:, None], count, axis=1),
                       np.zeros((n, n, count))) for k, c in enumerate(columns)]


def test_jet_matches_closed_form_gradient_and_hessian():
    rng = random.Random(7)
    xs, ys = zip(*[(rng.uniform(0.2, 1.5), rng.uniform(-1.0, 1.0)) for _ in range(20)])
    x, y = jet_variables(xs, ys)
    x_, y_ = np.array(xs), np.array(ys)
    sec, tan = 1 / np.cos(y_), np.tan(y_)
    # f = x² y sin x / cos y = p(x) u(y) with p = x² sin x and u = y sec y
    p, dp, ddp = (x_ ** 2 * np.sin(x_), 2 * x_ * np.sin(x_) + x_ ** 2 * np.cos(x_),
                  2 * np.sin(x_) + 4 * x_ * np.cos(x_) - x_ ** 2 * np.sin(x_))
    u, du, ddu = (y_ * sec, sec + y_ * sec * tan,
                  2 * sec * tan + y_ * sec * (tan ** 2 + sec ** 2))
    # h = 1 / (2 − x y)
    d = 2 - x_ * y_
    cases = [
        (x ** 2 * y * oracle.sin(x) / oracle.cos(y), p * u, [dp * u, p * du],
         [[ddp * u, dp * du], [dp * du, p * ddu]]),
        (1 / (2 - x * y), 1 / d, [y_ / d ** 2, x_ / d ** 2],
         [[2 * y_ ** 2 / d ** 3, (2 + x_ * y_) / d ** 3],
          [(2 + x_ * y_) / d ** 3, 2 * x_ ** 2 / d ** 3]]),
    ]
    for jet, value, gradient, hessian in cases:
        for got, want in ((jet.v, value), (jet.g, np.array(gradient)), (jet.h, np.array(hessian))):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * np.fmax(1.0, np.abs(want)))


# torus.tl up to its metric, and its connection and curvature lines
TORUS_TEXT = (CORPUS_DIR / "torus.tl").read_text(encoding="utf-8")
TORUS_PRELUDE = TORUS_TEXT[:TORUS_TEXT.index(";; Connection coefficients")]
PIPELINE = TORUS_TEXT[len(TORUS_PRELUDE):]
SPHERE_PRELUDE = """
(define $x [|θ φ|])
(define $g__ [|[|1 0|] [|0 (^ (sin θ) 2)|]|])
(define $g~~ (M.inverse g_#_#))
"""


@pytest.mark.parametrize("prelude, metric_fn, params", [
    (TORUS_PRELUDE, oracle.torus_metric, ("a", "b")),
    (SPHERE_PRELUDE, lambda theta, phi: [[1, 0], [0, oracle.sin(theta) ** 2]], ()),
], ids=["torus", "unit-sphere"])
def test_curvature_is_metric_generic_and_matches_the_engine(prelude, metric_fn, params):
    rng = random.Random(2024)
    envs = []
    for _ in range(12):
        a = rng.uniform(0.5, 1.5)
        envs.append({"a": a, "b": a + rng.uniform(0.5, 2.5),  # θ keeps off the sphere's poles
                     "θ": rng.uniform(0.3, math.pi - 0.3), "φ": rng.uniform(0, 2 * math.pi)})
    columns = [np.array([env[name] for env in envs]) for name in ("θ", "φ", *params)]
    arrays = oracle.curvature(metric_fn, columns[:2], *columns[2:])
    it = Interpreter()
    it.run_source(prelude + PIPELINE)
    tensors = [it.eval_source(ref) for ref in ("g_i_j", "Γ_i_j_k", "Γ~i_j_k", "R~i_j_k_l")]
    for tensor, array in zip(tensors, arrays):
        array = array.reshape(len(envs), -1)
        assert array.shape[1] == len(tensor.components)
        for n, env in enumerate(envs):
            for c, component in enumerate(tensor.components):
                got, want = eval_numeric(component, env), array[n, c]
                assert abs(got - want) <= 1e-9 * max(1.0, abs(got), abs(want)), (n, c)
