"""Whole-array references for the streamed routines of bqem, used by the tests.

The library never builds a space-time field whole: its residuals stream time
slabs (``grids._time_windows``).  The forms here do build it, so a test can
compare a streamed residual with the plain expression:

- ``diff``: the central first difference along any axis, with NaN faces;
- ``apply_M``: M or M* on a whole (nt,) + dims + (4,) field, slab by slab
  through ``chiral_time._M_slab``;
- ``max_abs_interior``: ``grids.max_abs_interior`` of a space-time field,
  whose axis 0 (time) is a lattice axis too;
- ``sympy_state``: a medium and an exact Maxwell state from sympy
  expressions, every source differentiated symbolically.
"""

import numpy as np
import sympy as sp

from bqem.chiral_time import _M_slab
from bqem.errors import GridTooSmall
from bqem.grids import _central, _nan_layer, _stencil_output, _time_windows
from bqem.inhomog import EMState, build_medium

T, X1, X2, X3 = sp.symbols("t x1 x2 x3", real=True)


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
    """(medium, state) on ``st`` from sympy expressions in (T, X1, X2, X3):
    the medium eps(x), mu(x), the vector potential A and the scalar phi.

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
    medium = build_medium(st.space, s[0][0], s[1][0])
    return medium, EMState(st, np.stack(s[2:5], axis=-1), np.stack(s[5:8], axis=-1), s[8], np.stack(s[9:], axis=-1))
