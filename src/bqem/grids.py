"""Uniform sample grids and second-order central-difference stencils.

A Lattice fixes the geometry (origin, spacing, node counts); a field on it
is a plain complex array of shape ``dims`` for a scalar field, ``dims +
(3,)`` for a vector field and ``dims + (4,)`` for a biquaternion field.
Space-time fields put a time axis in front, ``(nt,) + dims + ...`` on a
SpaceTimeLattice.  Routines take the geometry once, from the lattice they
are handed.

The stencils read the lattice axes from that layout: a scalar field's are
its last three, a vector or quaternion field's the three in front of its
component axis, and any leading axis (time) is carried along.  The space
stencils are all central, one shifted-slice difference (``_central``).  Every
stencil axis gets a NaN face layer, and composing operators lets NaN
propagate, so the NaN faces are the one record of which nodes are valid.
Norms are taken over the interior that excludes every face layer whose nodes
all have a non-finite component; the ``margin=`` of ``max_abs_interior`` or
of a residual only widens that, never narrows it.

A space-time residual streams time slabs (``_time_windows``) and takes its
one time difference, central, between the slabs on either side of a node
(``_time_diff``).  It is the max over slabs of ``max_abs_interior(slab,
margin)``, which equals the max over the interior of the whole (nt,) + dims
array; that array is never built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmall, LatticeMismatch


@dataclass(frozen=True)
class Lattice:
    """Uniformly spaced 3D lattice of nodes."""

    origin: tuple[float, float, float]
    spacing: float
    dims: tuple[int, int, int]

    def __post_init__(self):
        if not 0.0 < self.spacing < np.inf:  # written so that NaN fails too
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        _check_nodes(self.dims)

    @classmethod
    def cube(cls, center, side: float, n: int) -> "Lattice":
        _check_nodes((n, n, n))
        h = side / (n - 1)
        origin = tuple(float(c) - side / 2.0 for c in center)
        return cls(origin, h, (n, n, n))

    def axis(self, k: int) -> np.ndarray:
        return self.origin[k] + self.spacing * np.arange(self.dims[k])

    def points(self) -> np.ndarray:
        """All node coordinates, shape dims + (3,)."""
        xs = np.meshgrid(self.axis(0), self.axis(1), self.axis(2), indexing="ij")
        return np.stack(xs, axis=-1)


def _check_nodes(dims: tuple) -> None:
    if any(n < 5 for n in dims):
        raise GridTooSmall(f"need at least 5 nodes per direction, got {dims}")


def _on_lattice(values, lattice: Lattice, name: str, tail: tuple = ()) -> np.ndarray:
    """``values`` as a complex array, checked to be one node value (shape
    ``tail``) per node of ``lattice``."""
    values = np.asarray(values, dtype=complex)
    if values.shape != lattice.dims + tail:
        raise LatticeMismatch(f"{name} has shape {values.shape}, expected {lattice.dims + tail}")
    return values


@dataclass(frozen=True)
class SpaceTimeLattice:
    """A spatial lattice swept over uniformly spaced times."""

    space: Lattice
    t0: float
    dt: float
    nt: int

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf or self.nt < 1:  # written so that NaN fails too
            raise ValueError(f"need a positive finite dt and nt >= 1, got dt={self.dt}, nt={self.nt}")

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.nt)


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------


# The lattice axes of a field: the last three of a scalar field, the three
# in front of the component axis of a vector or quaternion field.
_SCALAR_AXES = (-3, -2, -1)
_FIELD_AXES = (-4, -3, -2)


def _stencil_output(shape: tuple, axes) -> tuple[np.ndarray, tuple]:
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


def _central(values: np.ndarray, axis: int, order: int, axes=_SCALAR_AXES) -> np.ndarray:
    """Undivided central difference of order 1 or 2 along ``axis``, on the
    interior box of the stencil ``axes`` only (by default the lattice axes
    of a scalar field)."""
    mid = [slice(None)] * values.ndim
    for ax in axes:
        mid[ax] = slice(1, -1)
    lo, hi = list(mid), list(mid)
    lo[axis], hi[axis] = slice(0, -2), slice(2, None)
    lo, mid, hi = tuple(lo), tuple(mid), tuple(hi)
    if order == 1:
        return values[hi] - values[lo]
    return values[hi] - 2.0 * values[mid] + values[lo]


def grad(values: np.ndarray, h: float) -> np.ndarray:
    """Gradient of a scalar array, components stacked on a new trailing axis."""
    out, box = _stencil_output(values.shape + (3,), _FIELD_AXES)
    out[box] = np.stack([_central(values, ax, 1) for ax in _SCALAR_AXES], axis=-1) / (2.0 * h)
    return out


def div(vec_values: np.ndarray, h: float) -> np.ndarray:
    """Divergence of a (..., 3) vector array."""
    out, box = _stencil_output(vec_values.shape[:-1], _SCALAR_AXES)
    out[box] = sum(_central(vec_values[..., k], ax, 1) for k, ax in enumerate(_SCALAR_AXES)) / (2.0 * h)
    return out


def rot(vec_values: np.ndarray, h: float) -> np.ndarray:
    """Curl of a (..., 3) vector array."""
    out, box = _stencil_output(vec_values.shape, _FIELD_AXES)

    def d(k, j):  # undivided derivative of component k along lattice axis j
        return _central(vec_values[..., k], _SCALAR_AXES[j], 1)

    out[box] = np.stack([d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)], axis=-1) / (2.0 * h)
    return out


def laplacian(values: np.ndarray, h: float) -> np.ndarray:
    """Compact 7-point Laplacian of a scalar array."""
    out, box = _stencil_output(values.shape, _SCALAR_AXES)
    out[box] = sum(_central(values, ax, 2) for ax in _SCALAR_AXES) / (h * h)
    return out


def dirac(values: np.ndarray, h: float) -> np.ndarray:
    """Dirac operator on (..., 4) quaternion components.

    Scalar part -div of the vector part, vector part grad of the scalar
    part plus rot of the vector part.  Each output component is summed and
    divided by 2h in its own contiguous array, then written once into the
    interior; the scalar part takes its minus sign in that write.
    """
    values = np.asarray(values, dtype=complex)  # a real field is divided by 2h as complex numbers too
    out, box = _stencil_output(values.shape, _FIELD_AXES)

    def d(c, j):  # undivided derivative of component c along lattice axis j
        return _central(values[..., c], _SCALAR_AXES[j], 1)

    def part(first, plus, minus):  # d(first) + (d(plus) - d(minus)), divided by 2h
        acc = d(*plus)
        acc -= d(*minus)
        acc += d(*first)
        acc /= 2.0 * h
        return acc

    inner = out[box]
    acc = d(1, 0)
    acc += d(2, 1)
    acc += d(3, 2)
    acc /= 2.0 * h
    np.negative(acc, out=inner[..., 0])  # -(d10 + d21 + d32)
    inner[..., 1] = part((0, 0), (3, 1), (2, 2))
    inner[..., 2] = part((0, 1), (1, 2), (3, 0))
    inner[..., 3] = part((0, 2), (2, 0), (1, 1))
    return out


def _nan_layer(layer: np.ndarray, k: int) -> bool:
    """Whether every node of ``layer`` (``k`` lattice axes, then the
    components of one node) has a non-finite component."""
    if np.isfinite(layer[tuple(n // 2 for n in layer.shape[:k])]).all():
        return False  # the centre node is valid: no need to scan the layer
    return not np.isfinite(layer).all(axis=tuple(range(k, layer.ndim))).any()


def _valid_box(values: np.ndarray, margin: int = 0) -> tuple[slice, ...]:
    """Index of the valid interior of a spatial lattice array.

    The lattice axes are axes 0-2; trailing axes hold the components of one
    node.  Each face first loses ``margin`` layers, then every further layer
    whose nodes all have a non-finite component: the NaN faces the stencils
    write.  Only those face layers are scanned, never the whole array.
    """
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    box = []
    for ax in range(3):
        face = (slice(None),) * ax
        lo, hi = margin, values.shape[ax] - margin
        while lo < hi and _nan_layer(values[face + (lo,)], 2):
            lo += 1
        while lo < hi and _nan_layer(values[face + (hi - 1,)], 2):
            hi -= 1
        if lo >= hi:
            raise GridTooSmall(f"margin {margin} and NaN faces leave no interior on axis {ax} of {values.shape}")
        box.append(slice(lo, hi))
    return tuple(box)


def _keep(st: SpaceTimeLattice, margin: int) -> int:
    """max(margin, 1), the first node a residual with a central time difference keeps on
    each axis; raises as its whole-array form does: GridTooSmall, then ValueError."""
    keep = max(margin, 1)
    if 2 * keep >= st.nt:
        raise GridTooSmall(f"margin {margin} leaves no time interior on {st.nt} time nodes")
    if 2 * keep >= min(st.space.dims):
        raise GridTooSmall(f"margin {margin} leaves no space interior on {st.space.dims} nodes")
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    return keep


def _time_windows(slab, st: SpaceTimeLattice, margin: int = 0):
    """Yield (s, (prev, cur, nxt)) for each time node s = keep .. nt - keep - 1
    that ``margin`` keeps (``_keep``, checked first).  ``slab(s)`` builds one
    slab; it is called once per s = keep - 1 .. nt - keep, in that order."""
    keep = _keep(st, margin)
    prev, cur = slab(keep - 1), slab(keep)
    for s in range(keep, st.nt - keep):
        nxt = slab(s + 1)
        yield s, (prev, cur, nxt)
        prev, cur = cur, nxt


def _time_diff(prev: np.ndarray, nxt: np.ndarray, dt: float) -> np.ndarray:
    """Central time difference (nxt - prev) / (2 dt) at the node between the
    slabs ``prev`` and ``nxt``.  Real slabs are differenced and divided as
    real numbers; the result is always complex, so the arithmetic a residual
    does with it afterwards is complex."""
    return ((nxt - prev) / (2.0 * dt)).astype(complex, copy=False)


def max_abs_interior(values: np.ndarray, margin: int = 0) -> float:
    """Max componentwise modulus of a spatial field (lattice axes 0-2, then
    the components of one node) over its valid interior (``_valid_box``).
    A space-time residual is the max of this over its time slabs.

    Raises if the interior is empty or still contains a non-finite value,
    which would mean a NaN face layer was only partly written or a value
    inside the grid went bad.  One pass finds it: NaN propagates through the
    max, and a component that is infinite has an infinite modulus.
    """
    worst = float(np.max(np.abs(values[_valid_box(values, margin)])))
    if not math.isfinite(worst):
        raise ValueError("non-finite values inside the valid interior")
    return worst
