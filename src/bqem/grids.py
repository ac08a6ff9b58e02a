"""Uniform sample grids and second-order central-difference stencils.

A Lattice fixes the geometry (origin, spacing, node counts); a field on it
is a plain complex array of shape ``dims`` for a scalar field, ``dims +
(3,)`` for a vector field and ``dims + (4,)`` for a biquaternion field.
Space-time fields put a time axis in front, ``(nt,) + dims + ...`` on a
SpaceTimeLattice.  Routines take the geometry once, from the lattice they
are handed.  A vector or biquaternion field is stored component-major, one
C-contiguous block per component behind the (..., k) shape
(``algebra._empty``): ``Lattice.points``, the stencils and every field the
package builds keep that one layout.

The stencils read the lattice axes from that layout: a scalar field's are
its last three, a vector or quaternion field's the three in front of its
component axis, and any leading axis (time) is carried along.  The space
stencils are all central, built on one flat shifted difference
(``_central``): each component is flattened, leading axes included, and a
derivative along a lattice axis is one contiguous subtraction of the array
shifted by that axis' flat stride, from the first interior node to the
last.  The face nodes that span crosses are then overwritten with NaN, so
every stencil axis gets a NaN face layer, and composing operators lets NaN
propagate: the NaN faces are the one record of which nodes are valid.
A stencil reads its input's components as a transposed view
(``_component_major``), so a component-major field, a composed stencil's
included, is never copied; a field stored otherwise is copied once.
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

from .algebra import _empty, _first, _last
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
        """All node coordinates, shape dims + (3,), stored component-major."""
        out = _empty(self.dims + (3,), float)
        for k in range(3):
            out[..., k] = self.axis(k)[(slice(None),) + (None,) * (2 - k)]
        return out


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


def _component_major(values, k: int, name: str, dtype=None) -> np.ndarray:
    """The field ``values`` with its component axis first: (k,) + lattice
    shape for a (..., k) field, (1,) + lattice shape for a scalar field
    (k = 0), each component one C-contiguous block.  A view when the field
    is stored that way already, as every field bqem builds is, and so is a
    time slab of one; else one C-contiguous copy.  Raises before anything is
    allocated unless the field has three lattice axes, then k components."""
    values = np.asarray(values)
    lattice = values.shape[:-1] if k else values.shape
    if len(lattice) < 3 or (k and values.shape[-1] != k):
        want = f"a (..., {k}) array: three lattice axes, then {k} components" if k else "three lattice axes"
        raise ValueError(f"{name} needs {want}; got shape {values.shape}")
    if min(lattice[-3:]) < 3:
        raise GridTooSmall(f"{name} needs 3 nodes on each lattice axis; got shape {values.shape}")
    comps = _first(values) if k else values[None]
    if comps[0].flags.c_contiguous and dtype in (None, comps.dtype):
        return comps
    return np.ascontiguousarray(comps, dtype=dtype)


def _divide(acc: np.ndarray, step: float, out: np.ndarray) -> np.ndarray:
    """acc / step into ``out``.  Complex ``acc`` is multiplied by 1 / step:
    numpy divides a complex array by a real scalar with Smith's loop at
    ratio 0, which is that same multiply, at three times the cost.  Real
    ``acc`` keeps the true division, whose last bit the reciprocal would
    change."""
    if acc.dtype.kind == "c":
        return np.multiply(acc, 1.0 / step, out=out)
    return np.divide(acc, step, out=out)


def _central(flat: np.ndarray, shift: int, span: tuple[int, int], order: int, out: np.ndarray) -> np.ndarray:
    """Undivided central difference of order 1 or 2 at the flat nodes
    lo .. hi - 1 (``span``) of a C-contiguous 1-D array, into ``out``.
    ``shift`` is the flat distance to the next node along the lattice axis:
    1, n2 or n1 n2."""
    lo, hi = span
    if order == 1:
        return np.subtract(flat[lo + shift : hi + shift], flat[lo - shift : hi - shift], out=out)
    np.multiply(flat[lo:hi], 2.0, out=out)
    np.subtract(flat[lo + shift : hi + shift], out, out=out)
    return np.add(out, flat[lo - shift : hi - shift], out=out)


def _stencil(comps: np.ndarray, rows, order: int, step: float) -> np.ndarray:
    """Central-difference stencil on a component-major field (``comps``,
    from ``_component_major``): a complex scalar field for one row, a
    (..., len(rows)) field for several, stored component-major.

    Each row is (sign, terms).  Its terms (+1 or -1, input component,
    lattice axis 0-2), the first always +1, are undivided differences of
    ``order`` summed in their order, and the sum is divided by sign * step
    (``_divide``).  Each row is summed in its own contiguous buffer over the
    flat span [lo, hi) from the first interior node to the last, leading
    (time) axes included.  The face nodes inside the span get junk values;
    every face layer of the three lattice axes is then overwritten with NaN.
    """
    n0, n1, n2 = comps.shape[-3:]
    shifts = (n1 * n2, n2, 1)
    flat = comps.reshape(len(comps), -1)
    lo = n1 * n2 + n2 + 1  # node (1, 1, 1) of the first slab; the last interior node is its mirror
    span = (lo, max(lo, flat.shape[1] - lo))
    out = np.empty((len(rows),) + comps.shape[1:], dtype=complex)
    flat_out = out.reshape(len(rows), -1)
    tmp = np.empty(span[1] - lo, dtype=flat.dtype)
    acc = np.empty_like(tmp) if flat.dtype.kind != "c" else None  # a real sum is divided as real numbers
    # the junk nodes' floating-point exceptions are junk too (inf - inf on an
    # infinite face); a non-finite interior value is max_abs_interior's to reject
    with np.errstate(invalid="ignore", over="ignore"):
        for r, (sign, terms) in enumerate(rows):
            dst = flat_out[r, span[0] : span[1]]
            total = dst if acc is None else acc
            _, c, axis = terms[0]
            _central(flat[c], shifts[axis], span, order, total)
            for plus, c, axis in terms[1:]:
                (np.add if plus > 0 else np.subtract)(total, _central(flat[c], shifts[axis], span, order, tmp), out=total)
            _divide(total, sign * step, dst)
    for ax in (-3, -2, -1):
        face = [slice(None)] * out.ndim
        face[ax] = slice(None, None, out.shape[ax] - 1)  # nodes 0 and n - 1
        out[tuple(face)] = np.nan
    return out[0] if len(rows) == 1 else _last(out)


def grad(values: np.ndarray, h: float) -> np.ndarray:
    """Gradient of a scalar array, components stacked on a new trailing axis."""
    return _stencil(_component_major(values, 0, "grad"), [(1, [(1, 0, j)]) for j in range(3)], 1, 2.0 * h)


def div(vec_values: np.ndarray, h: float) -> np.ndarray:
    """Divergence of a (..., 3) vector array."""
    return _stencil(_component_major(vec_values, 3, "div"), [(1, [(1, 0, 0), (1, 1, 1), (1, 2, 2)])], 1, 2.0 * h)


def rot(vec_values: np.ndarray, h: float) -> np.ndarray:
    """Curl of a (..., 3) vector array."""
    rows = [(1, [(1, 2, 1), (-1, 1, 2)]), (1, [(1, 0, 2), (-1, 2, 0)]), (1, [(1, 1, 0), (-1, 0, 1)])]
    return _stencil(_component_major(vec_values, 3, "rot"), rows, 1, 2.0 * h)


def laplacian(values: np.ndarray, h: float) -> np.ndarray:
    """Compact 7-point Laplacian of a scalar array."""
    return _stencil(_component_major(values, 0, "laplacian"), [(1, [(1, 0, 0), (1, 0, 1), (1, 0, 2)])], 2, h * h)


def dirac(values: np.ndarray, h: float) -> np.ndarray:
    """Dirac operator on (..., 4) quaternion components.

    Scalar part -div of the vector part, vector part grad of the scalar
    part plus rot of the vector part: d10 + d21 + d32 divided by -2h, and
    d31 - d22 + d00 and its two cyclic shifts divided by 2h, where dcj is
    the difference of component c along lattice axis j.  A real field is
    differenced and divided as complex numbers.
    """
    rows = [
        (-1, [(1, 1, 0), (1, 2, 1), (1, 3, 2)]),
        (1, [(1, 3, 1), (-1, 2, 2), (1, 0, 0)]),
        (1, [(1, 1, 2), (-1, 3, 0), (1, 0, 1)]),
        (1, [(1, 2, 0), (-1, 1, 1), (1, 0, 2)]),
    ]
    return _stencil(_component_major(values, 4, "dirac", complex), rows, 1, 2.0 * h)


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
    slabs ``prev`` and ``nxt`` (``_divide``).  Real slabs are differenced and
    divided as real numbers; the result is always complex, so the arithmetic
    a residual does with it afterwards is complex."""
    g = nxt - prev
    return _divide(g, 2.0 * dt, g if g.dtype.kind == "c" else np.empty(g.shape, dtype=complex))


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
