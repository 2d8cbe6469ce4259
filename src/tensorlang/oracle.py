"""Independent numeric oracle for the torus curvature demo.

Everything here is plain numpy over hand-coded formulas: the embedding of
the torus in R^3, its metric, and central finite differences for every
derivative (Christoffel symbols from the metric, curvature from the
Christoffel symbols).  Nothing is shared with the symbolic engine, so an
agreement between the two pipelines checks both.

The metric is evaluated in closed form and cross-checked at every call
against the dot products of finite-difference basis vectors of the
embedding; chaining a third level of finite differences all the way down
from the embedding would amplify roundoff beyond the demo tolerance.
"""

from __future__ import annotations

import numpy as np

DEFAULT_STEP = 1e-5


def embedding(a, b, theta, phi):
    """Point of the torus with tube radius a and center radius b."""
    w = a * np.cos(theta) + b
    return np.array([w * np.cos(phi), w * np.sin(phi), a * np.sin(theta)])


def basis_fd(a, b, theta, phi, h=DEFAULT_STEP):
    """Rows are the coordinate basis vectors, by central differences."""
    e = np.zeros((2, 3))
    e[0] = (embedding(a, b, theta + h, phi) - embedding(a, b, theta - h, phi)) / (2 * h)
    e[1] = (embedding(a, b, theta, phi + h) - embedding(a, b, theta, phi - h)) / (2 * h)
    return e


def metric_fd(a, b, theta, phi, h=DEFAULT_STEP):
    e = basis_fd(a, b, theta, phi, h)
    return e @ e.T


def metric(a, b, theta, phi):
    """Closed-form torus metric diag(a^2, (a cosθ + b)^2)."""
    g = np.array([[a * a, 0.0], [0.0, (a * np.cos(theta) + b) ** 2]])
    fd = metric_fd(a, b, theta, phi)
    if not np.allclose(g, fd, rtol=0, atol=1e-7 * (1 + abs(b) + abs(a)) ** 2):
        raise AssertionError("closed-form metric disagrees with finite differences")
    return g


def _metric_partials(a, b, theta, phi, h):
    """dg[k][i][j] = d g_ij / d x^k with x = (θ, φ)."""
    dg = np.zeros((2, 2, 2))
    dg[0] = (metric(a, b, theta + h, phi) - metric(a, b, theta - h, phi)) / (2 * h)
    dg[1] = (metric(a, b, theta, phi + h) - metric(a, b, theta, phi - h)) / (2 * h)
    return dg


def christoffel_first(a, b, theta, phi, h=DEFAULT_STEP):
    """C1[i][j][k] = (d_k g_ij + d_j g_ik - d_i g_jk) / 2."""
    dg = _metric_partials(a, b, theta, phi, h)
    c1 = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                c1[i, j, k] = 0.5 * (dg[k, i, j] + dg[j, i, k] - dg[i, j, k])
    return c1


def christoffel_second(a, b, theta, phi, h=DEFAULT_STEP):
    """C2[i][k][l] = g^{ij} C1[j][k][l]."""
    g = metric(a, b, theta, phi)
    c1 = christoffel_first(a, b, theta, phi, h)
    inv = np.linalg.inv(g)
    return np.einsum("ij,jkl->ikl", inv, c1)


def riemann(a, b, theta, phi, h=DEFAULT_STEP):
    """R[i][j][k][l] = d_k C2[i][j][l] - d_l C2[i][j][k]
                     + C2[m][j][l] C2[i][m][k] - C2[m][j][k] C2[i][m][l]."""
    c2 = christoffel_second(a, b, theta, phi, h)
    dc = np.zeros((2, 2, 2, 2))
    dc[0] = (christoffel_second(a, b, theta + h, phi, h)
             - christoffel_second(a, b, theta - h, phi, h)) / (2 * h)
    dc[1] = (christoffel_second(a, b, theta, phi + h, h)
             - christoffel_second(a, b, theta, phi - h, h)) / (2 * h)
    r = np.zeros((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    quad = sum(c2[m, j, l] * c2[i, m, k] - c2[m, j, k] * c2[i, m, l]
                               for m in range(2))
                    r[i, j, k, l] = dc[k, i, j, l] - dc[l, i, j, k] + quad
    return r
