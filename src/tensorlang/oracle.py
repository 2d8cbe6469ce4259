"""Independent numeric oracle for the torus curvature demo.

Everything here is plain numpy over hand-coded formulas: the embedding of
the torus in R^3, its metric, and central finite differences for every
derivative (Christoffel symbols from the metric, curvature from the
Christoffel symbols).  Nothing is shared with the symbolic engine, so an
agreement between the two pipelines checks both.

Every function takes scalars or equal-shaped arrays with one entry per
binding: a result's leading axes are the bindings' and its last axes are
the tensor's.  The metric is evaluated in closed form and cross-checked at
every binding against the dot products of finite-difference basis vectors
of the embedding; chaining a third level of finite differences all the way
down from the embedding would amplify roundoff beyond the demo tolerance.
"""

from __future__ import annotations

import numpy as np

STEP = 1e-5  # central-difference step of every derivative here


def embedding(a, b, theta, phi):
    """Point of the torus with tube radius a and center radius b."""
    w = a * np.cos(theta) + b
    return np.stack([w * np.cos(phi), w * np.sin(phi), a * np.sin(theta)], axis=-1)


def basis_fd(a, b, theta, phi):
    """Rows are the coordinate basis vectors, by central differences."""
    return np.stack([embedding(a, b, theta + STEP, phi) - embedding(a, b, theta - STEP, phi),
                     embedding(a, b, theta, phi + STEP) - embedding(a, b, theta, phi - STEP)],
                    axis=-2) / (2 * STEP)


def metric_fd(a, b, theta, phi):
    e = basis_fd(a, b, theta, phi)
    return e @ np.swapaxes(e, -1, -2)


def metric(a, b, theta, phi):
    """Closed-form torus metric diag(a^2, (a cosθ + b)^2)."""
    w = a * np.cos(theta) + b
    g = np.zeros(np.shape(w) + (2, 2))
    g[..., 0, 0] = a * a
    g[..., 1, 1] = w * w
    gap = np.abs(g - metric_fd(a, b, theta, phi)).max(axis=(-2, -1))
    if not np.all(gap <= 1e-7 * (1 + np.abs(b) + np.abs(a)) ** 2):
        raise AssertionError("closed-form metric disagrees with finite differences")
    return g


def _metric_partials(a, b, theta, phi):
    """dg[k][i][j] = d g_ij / d x^k with x = (θ, φ)."""
    return np.stack([metric(a, b, theta + STEP, phi) - metric(a, b, theta - STEP, phi),
                     metric(a, b, theta, phi + STEP) - metric(a, b, theta, phi - STEP)],
                    axis=-3) / (2 * STEP)


def christoffel_first(a, b, theta, phi):
    """C1[i][j][k] = (d_k g_ij + d_j g_ik - d_i g_jk) / 2."""
    dg = _metric_partials(a, b, theta, phi)
    return 0.5 * (np.einsum("...kij->...ijk", dg) + np.einsum("...jik->...ijk", dg) - dg)


def christoffel_second(a, b, theta, phi):
    """C2[i][k][l] = g^{ij} C1[j][k][l]."""
    g = metric(a, b, theta, phi)
    c1 = christoffel_first(a, b, theta, phi)
    inv = np.linalg.inv(g)
    return np.einsum("...ij,...jkl->...ikl", inv, c1)


def riemann(a, b, theta, phi):
    """R[i][j][k][l] = d_k C2[i][j][l] - d_l C2[i][j][k]
                     + C2[m][j][l] C2[i][m][k] - C2[m][j][k] C2[i][m][l]."""
    c2 = christoffel_second(a, b, theta, phi)
    dc = np.stack([christoffel_second(a, b, theta + STEP, phi)
                   - christoffel_second(a, b, theta - STEP, phi),
                   christoffel_second(a, b, theta, phi + STEP)
                   - christoffel_second(a, b, theta, phi - STEP)], axis=-4) / (2 * STEP)
    r = np.zeros_like(dc)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    quad = sum(c2[..., m, j, l] * c2[..., i, m, k]
                               - c2[..., m, j, k] * c2[..., i, m, l] for m in range(2))
                    r[..., i, j, k, l] = dc[..., k, i, j, l] - dc[..., l, i, j, k] + quad
    return r
