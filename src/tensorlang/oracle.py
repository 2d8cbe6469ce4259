"""Independent numeric oracle for curvature, by second-order Taylor
arithmetic (Griewank & Walther, *Evaluating Derivatives*, 2008).

Everything here is plain numpy over hand-coded formulas.  A `Jet` holds a
value, a gradient and a Hessian, so one forward pass of a metric written
in plain Python gives g, ∂g and ∂²g to rounding; the Christoffel symbols,
their derivatives and the curvature follow from a few einsums, and no
finite difference is taken.  Nothing is shared with the symbolic engine,
so an agreement between the two pipelines checks both.

Every function takes scalars or equal-shaped arrays with one entry per
binding: a result's leading axes are the bindings' and its last axes are
the tensor's.  The closed-form torus metric is cross-checked at every
binding against the metric its embedding in R^3 induces, whose basis
vectors are the gradients of one jet pass of the embedding.
"""

from __future__ import annotations

import numpy as np


class Jet:
    """Value (N,), gradient (n, N) and Hessian (n, n, N) at N points."""

    __array_ufunc__ = None  # a numpy operand defers to the reflected operator

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    def chain(self, f, d1, d2):
        """f(self), for f with value f, slope d1 and curvature d2 at self.v."""
        return Jet(f, d1 * self.g, d1 * self.h + d2 * self.g[:, None] * self.g)

    def __add__(self, o):
        if isinstance(o, Jet):
            return Jet(self.v + o.v, self.g + o.g, self.h + o.h)
        return Jet(self.v + o, self.g, self.h)

    def __mul__(self, o):
        if isinstance(o, Jet):
            return Jet(self.v * o.v, self.g * o.v + self.v * o.g, self.h * o.v + self.v * o.h
                       + self.g[:, None] * o.g + o.g[:, None] * self.g)
        return Jet(self.v * o, self.g * o, self.h * o)

    def __pow__(self, k):  # an integer k; `c and c * v ** e` skips the power when c is 0
        v, c = self.v, k * (k - 1)
        return self.chain(v ** k, k and k * v ** (k - 1), c and c * v ** (k - 2))

    __radd__, __rmul__ = __add__, __mul__
    __neg__ = lambda self: self * -1  # noqa: E731
    __sub__ = lambda self, o: self + -o  # noqa: E731
    __rsub__ = lambda self, o: -self + o  # noqa: E731
    __truediv__ = lambda self, o: self * (o ** -1 if isinstance(o, Jet) else 1 / o)  # noqa: E731
    __rtruediv__ = lambda self, o: self ** -1 * o  # noqa: E731


def sin(u):
    return u.chain(np.sin(u.v), np.cos(u.v), -np.sin(u.v))


def cos(u):
    return u.chain(np.cos(u.v), -np.sin(u.v), -np.cos(u.v))


def _seed(points, params):
    """(shape, zero, coordinate jets, flat params): the bindings' shape, a zero
    jet to lift numbers by, and one jet per coordinate with a unit gradient."""
    arrays = np.broadcast_arrays(*points, *params)
    n, shape, flat = len(points), arrays[0].shape, [np.ravel(x) * 1.0 for x in arrays]
    zero = Jet(*(np.zeros((n,) * d + flat[0].shape) for d in range(3)))
    unit = np.eye(n)[:, :, None] + zero.g
    return shape, zero, [Jet(x, unit[k], zero.h) for k, x in enumerate(flat[:n])], flat[n:]


def curvature(metric_fn, points, *params):
    """(g, Γ1, Γ2, R) at `points`, one array per coordinate; `metric_fn(*coordinate
    jets, *params)` gives g's rows of jets and numbers.  Γ1[i][j][k] = (∂_k g_ij
    + ∂_j g_ik − ∂_i g_jk) / 2, Γ2[i][k][l] = g^{ij} Γ1[j][k][l] and R[i][j][k][l]
    = ∂_k Γ2[i][j][l] + Γ2[m][j][l] Γ2[i][m][k] − (the same with k and l swapped)."""
    shape, zero, xs, ps = _seed(points, params)
    rows = metric_fn(*xs, *ps)
    g, dg, ddg = (np.array([[getattr(e + zero, part) for e in row] for row in rows]).transpose(axes)
                  for part, axes in zip("vgh", ((2, 0, 1), (3, 2, 0, 1), (4, 3, 2, 0, 1))))

    def first(d):  # d[..., k, i, j] = ∂_k g_ij, read as Γ1's layout [..., i, j, k]
        return 0.5 * (np.einsum("...kij->...ijk", d) + np.einsum("...jik->...ijk", d) - d)

    c1, dc1, inv = first(dg), first(ddg), np.linalg.inv(g)
    c2 = np.einsum("...ij,...jkl->...ikl", inv, c1)
    # ∂_m Γ2 = ∂_m g⁻¹ Γ1 + g⁻¹ ∂_m Γ1 = g⁻¹ (∂_m Γ1 − ∂_m g Γ2)
    dc2 = np.einsum("...ij,...mjkl->...mikl", inv,
                    dc1 - np.einsum("...mjn,...nkl->...mjkl", dg, c2))
    half = np.einsum("...kijl->...ijkl", dc2) + np.einsum("...mjl,...imk->...ijkl", c2, c2)
    r = half - np.swapaxes(half, -1, -2)
    return tuple(t.reshape(shape + t.shape[1:]) for t in (g, c1, c2, r))


def embedding(theta, phi, a, b):
    """Point of the torus with tube radius a and center radius b, over jets."""
    w = a * cos(theta) + b
    return [w * cos(phi), w * sin(phi), a * sin(theta)]


def torus_metric(theta, phi, a, b):
    """Closed-form torus metric diag(a^2, (a cosθ + b)^2)."""
    w = a * cos(theta) + b
    return [[a * a, 0], [0, w * w]]


def torus_curvature(a, b, theta, phi):
    """`curvature` of the torus, its metric checked against the embedding's."""
    out = curvature(torus_metric, (theta, phi), a, b)
    _, _, xs, ps = _seed((theta, phi), (a, b))
    basis = np.array([x.g for x in embedding(*xs, *ps)])  # ∂_i X_c as [c, i, binding]
    induced = np.einsum("cin,cjn->nij", basis, basis).reshape(out[0].shape)
    gap = np.abs(out[0] - induced).max(axis=(-2, -1))
    if not np.all(gap <= 1e-12 * np.abs(induced).max(axis=(-2, -1))):
        raise AssertionError("closed-form metric disagrees with the embedding's induced metric")
    return out


def _view(k):
    """The k-th array of `torus_curvature` as a function of (a, b, θ, φ)."""
    return lambda a, b, theta, phi: torus_curvature(a, b, theta, phi)[k]


metric, christoffel_first, christoffel_second, riemann = map(_view, range(4))
