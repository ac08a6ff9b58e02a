"""Whole-array references for the streamed routines of bqem, used by the tests.

The library never builds a space-time field whole: its residuals stream time
slabs (``grids._time_windows``).  The forms here do build it, so a test can
compare a streamed residual with the plain expression:

- ``diff``: the central first difference along any axis, with NaN faces;
- ``grad``, ``div``, ``rot``, ``laplacian`` and ``dirac``: the stencils as
  differences of strided 3-D interior boxes (``_central``), written into
  the interior of an array whose face layers are NaN (``_stencil_output``);
  ``dirac`` writes its 12 differences component by component.  Against
  these, ``grids``, which takes one flat shifted difference per derivative,
  must agree bit for bit;
- ``apply_M``: M or M* on a whole (nt,) + dims + (4,) field, slab by slab
  through ``chiral_time._M_slab``;
- ``max_abs_interior``: ``grids.max_abs_interior`` of a space-time field,
  whose axis 0 (time) is a lattice axis too;
- ``sympy_state``: an exact Maxwell state in its medium from sympy
  expressions, every source differentiated symbolically;
- ``fundamental_solution``: the components of K(sign*alpha) as the
  formula reads, with |x| from ``np.sum`` and the vector part a complex
  copy of x times -G, against which ``kernels.fundamental_solution``, which
  fills its array in place, must agree bit for bit;
- ``assemble_rows``: the MFS collocation matrix with each row operator built
  from the quaternion products X e_i of its point, against which
  ``scattering._assemble_rows`` and its constant row tensor must agree bit
  for bit;
- ``mul_components`` and ``green_at``: the quaternion product and the
  Green function's time fill written component by component into strided
  views, against which ``algebra._mul_components`` and
  ``chiral_time._green_at``, which build whole arrays, must agree bit for
  bit.
"""

import numpy as np
import scipy.special
import sympy as sp

from bqem.algebra import _CONJ, _components, _mul_components
from bqem.chiral_time import _M_slab
from bqem.errors import GridTooSmall
from bqem.grids import _nan_layer, _time_windows
from bqem.inhomog import EMState, MediumFields
from bqem.scattering import _kernels

T, X1, X2, X3 = sp.symbols("t x1 x2 x3", real=True)

# The lattice axes of a field: the last three of a scalar field, the three
# in front of the component axis of a vector or quaternion field.
SCALAR_AXES = (-3, -2, -1)
FIELD_AXES = (-4, -3, -2)


def _stencil_output(shape, axes):
    """Complex array of ``shape`` with NaN on the face layer of each stencil
    axis, and the index of its interior box, which the caller fills."""
    out = np.empty(shape, dtype=complex)
    box = [slice(None)] * len(shape)
    for ax in axes:
        if shape[ax] < 3:
            raise GridTooSmall(f"axis {ax} has {shape[ax]} nodes, need 3")
        face = [slice(None)] * len(shape)
        face[ax] = slice(None, None, shape[ax] - 1)  # nodes 0 and n - 1
        out[tuple(face)] = np.nan
        box[ax] = slice(1, -1)
    return out, tuple(box)


def _central(values, axis, order, axes=SCALAR_AXES):
    """Undivided central difference of order 1 or 2 along ``axis``, on the
    interior box of the stencil ``axes`` only."""
    mid = [slice(None)] * values.ndim
    for ax in axes:
        mid[ax] = slice(1, -1)
    lo, hi = list(mid), list(mid)
    lo[axis], hi[axis] = slice(0, -2), slice(2, None)
    lo, mid, hi = tuple(lo), tuple(mid), tuple(hi)
    if order == 1:
        return values[hi] - values[lo]
    return values[hi] - 2.0 * values[mid] + values[lo]


def diff(values, axis, h):
    """Central first derivative along ``axis``; NaN on the one-node boundary."""
    out, box = _stencil_output(values.shape, (axis,))
    out[box] = _central(values, axis, 1, (axis,)) / (2.0 * h)
    return out


def apply_M(values, st, medium, star=False):
    """M (or M* when ``star``) on a (nt,) + dims + (4,) field, with one NaN
    face layer in time and in space."""
    out, _ = _stencil_output(values.shape, (0,))
    for s, window in _time_windows(values.__getitem__, st):
        out[s] = _M_slab(*window, st.space.spacing, st.dt, medium, 1j if star else -1j)
    return out


def max_abs_interior(values, margin=0):
    """Max modulus over the valid interior of a space-time field: each of the
    lattice axes 0-3 loses ``margin`` layers a face, then every further layer
    whose nodes all have a non-finite component."""
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    box = []
    for ax in range(4):
        face = (slice(None),) * ax
        lo, hi = margin, values.shape[ax] - margin
        while lo < hi and _nan_layer(values[face + (lo,)], 3):
            lo += 1
        while lo < hi and _nan_layer(values[face + (hi - 1,)], 3):
            hi -= 1
        if lo >= hi:
            raise GridTooSmall(f"margin {margin} and NaN faces leave no interior on axis {ax} of {values.shape}")
        box.append(slice(lo, hi))
    inner = values[tuple(box)]
    if not np.all(np.isfinite(inner)):
        raise ValueError("non-finite values inside the valid interior")
    return float(np.max(np.abs(inner)))


def _rot(F):
    return (
        sp.diff(F[2], X2) - sp.diff(F[1], X3),
        sp.diff(F[0], X3) - sp.diff(F[2], X1),
        sp.diff(F[1], X1) - sp.diff(F[0], X2),
    )


def sympy_state(A, phi, eps, mu, st):
    """The state on ``st``, in the medium eps(x), mu(x), of the vector
    potential A and the scalar phi, all sympy expressions in (T, X1, X2, X3).

    H = rot(A)/mu and E = -dt A + grad phi; the sources rho = div(eps E) and
    j = rot H - eps dt E are differentiated symbolically, so all four
    Maxwell equations hold exactly.  One ``lambdify`` call samples every
    expression at every time and node.
    """
    A = [sp.sympify(a) for a in A]
    phi, eps, mu = (sp.sympify(e) for e in (phi, eps, mu))
    space = (X1, X2, X3)
    H = [r / mu for r in _rot(A)]
    E = [-sp.diff(A[k], T) + sp.diff(phi, space[k]) for k in range(3)]
    rho = sum(sp.diff(eps * E[k], space[k]) for k in range(3))
    j = [r - eps * sp.diff(e, T) for r, e in zip(_rot(H), E)]

    pts = st.space.points()
    t = st.times()[:, None, None, None]
    fn = sp.lambdify((T, X1, X2, X3), [eps, mu, *E, *H, rho, *j], modules="numpy")
    shape = (st.nt,) + st.space.dims
    s = np.stack([np.broadcast_to(np.asarray(v), shape) for v in fn(t, pts[..., 0], pts[..., 1], pts[..., 2])])
    medium = MediumFields(st.space, s[0][0], s[1][0])
    return EMState(st, medium, np.stack(s[2:5], axis=-1), np.stack(s[5:8], axis=-1), s[8], np.stack(s[9:], axis=-1))


def fundamental_solution(alpha, x, sign=1):
    """Components of K(sign*alpha) at x: scalar part sign*alpha*theta,
    vector part -G x, with r = sqrt(sum x*x), theta = -exp(i alpha r)/(4 pi r)
    and G = theta (i alpha r - 1)/r^2."""
    alpha = complex(alpha)
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.sum(x * x, axis=-1))
    theta = -np.exp(1j * alpha * r) / (4.0 * np.pi * r)
    G = theta * (1j * alpha * r - 1.0) / (r * r)
    out = _components(sign * alpha * theta, x)
    out[..., 1:] *= -G[..., None]
    return out


def assemble_rows(problem, col, src):
    """The 4C x 8N collocation matrix of ``problem`` at the collocation
    samples ``col`` and source positions ``src``, all points in one block.

    Each point's row operator Lt is ``_mul_components(X, eye(4))`` times
    the branch sign of row 0 and the conjugate, with X = -d for the two
    tangential rows, d = (n x t)/2 + sign xi/(2j) t with the impedance xi
    (0 for a perfect conductor), and X = 1, sign for the two scalar
    constraints.
    """
    K_a, K_b = _kernels(problem.medium, col.pos, src)
    t = np.stack([col.t1, col.t2], axis=1)
    X = np.zeros((len(col), 4, 1, 4), dtype=complex)
    X[:, 2, 0, 0] = 1.0
    A = np.empty((len(col), 4, 2, len(src), 4), dtype=complex)
    for branch, (K, sign) in enumerate(((K_a, 1), (K_b, -1))):
        d = 0.5 * np.cross(col.normal[:, None, :], t) + sign * (complex(problem.impedance) / 2j) * t
        X[:, :2, 0, 1:] = -d
        X[:, 3, 0, 0] = sign
        Lt = _mul_components(X, np.eye(4)) * np.outer([sign, 1.0, 1.0, 1.0], _CONJ)
        np.matmul(K[:, None], Lt, out=A[:, :, branch])
    return A.reshape(4 * len(col), 8 * len(src))


def mul_components(a, b):
    """Quaternion product on (..., 4) components, the four parts stacked."""
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + b0 * a1 + a2 * b3 - a3 * b2,
            a0 * b2 + b0 * a2 + a3 * b1 - a1 * b3,
            a0 * b3 + b0 * a3 + a1 * b2 - a2 * b1,
        ],
        axis=-1,
    )


def grad(values, h):
    out, box = _stencil_output(values.shape + (3,), FIELD_AXES)
    out[box] = np.stack([_central(values, ax, 1) for ax in SCALAR_AXES], axis=-1) / (2.0 * h)
    return out


def div(vec_values, h):
    out, box = _stencil_output(vec_values.shape[:-1], SCALAR_AXES)
    out[box] = sum(_central(vec_values[..., k], ax, 1) for k, ax in enumerate(SCALAR_AXES)) / (2.0 * h)
    return out


def rot(vec_values, h):
    out, box = _stencil_output(vec_values.shape, FIELD_AXES)

    def d(k, j):
        return _central(vec_values[..., k], SCALAR_AXES[j], 1)

    out[box] = np.stack([d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)], axis=-1) / (2.0 * h)
    return out


def laplacian(values, h):
    out, box = _stencil_output(values.shape, SCALAR_AXES)
    out[box] = sum(_central(values, ax, 2) for ax in SCALAR_AXES) / (h * h)
    return out


def dirac(values, h):
    """Dirac operator from its 12 undivided differences, each component
    written into the interior, which is then divided by 2h in place."""
    out, box = _stencil_output(values.shape, FIELD_AXES)

    def d(c, j):
        return _central(values[..., c], SCALAR_AXES[j], 1)

    inner = out[box]
    inner[..., 0] = -(d(1, 0) + d(2, 1) + d(3, 2))
    inner[..., 1] = d(0, 0) + (d(3, 1) - d(2, 2))
    inner[..., 2] = d(0, 1) + (d(1, 2) - d(3, 0))
    inner[..., 3] = d(0, 2) + (d(2, 0) - d(1, 1))
    inner /= 2.0 * h
    return out


def green_at(t, factors):
    """Components of the Green function at times t from its x-only factors,
    one component at a time: H(t) e^{iat} (P J0 - Q sqrt(t/c) J1)."""
    a, c, P, Q, _ = factors
    t = np.asarray(t, dtype=float)
    before = t < 0.0
    tpos = np.where(before, 0.0, t)
    z = 2.0 * np.sqrt(c * tpos)
    j0 = scipy.special.j0(z)
    j1_scaled = np.sqrt(tpos / c) * scipy.special.j1(z)
    phase = np.where(before, 0.0, np.exp(1j * a * tpos))
    out = np.empty(j0.shape + (4,), dtype=complex)
    for k in range(4):
        out[..., k] = phase * (P[..., k] * j0 - Q[..., k] * j1_scaled)
    return out
