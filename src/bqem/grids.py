"""Uniform sample grids and second-order central-difference stencils.

A Lattice fixes the geometry (origin, spacing, node counts) and the grid
containers pair it with one complex value per node: a plain complex array
for scalar fields, a trailing length-4 axis for biquaternion fields, and a
leading time axis for space-time fields.

Only central stencils are used, all one shifted-slice difference
(``_central``).  Every stencil axis gets a NaN face layer, and each grid
carries a ``margin`` count of invalid boundary layers; composing operators
lets NaN propagate so the margin bookkeeping stays honest.  Norms are taken
over the interior that excludes the margin, and ``interior_max(m)`` or a
residual's ``margin=`` only widens the carried margin, never narrows it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import Biquaternion
from .errors import GridTooSmall, LatticeMismatch


@dataclass(frozen=True)
class Lattice:
    """Uniformly spaced 3D lattice of nodes."""

    origin: tuple[float, float, float]
    spacing: float
    dims: tuple[int, int, int]

    def __post_init__(self):
        if self.spacing <= 0.0:
            raise ValueError("spacing must be positive")
        if any(n < 5 for n in self.dims):
            raise GridTooSmall(f"need at least 5 nodes per direction, got {self.dims}")

    @classmethod
    def cube(cls, center, side: float, n: int) -> "Lattice":
        h = side / (n - 1)
        origin = tuple(float(c) - side / 2.0 for c in center)
        return cls(origin, h, (n, n, n))

    def axis(self, k: int) -> np.ndarray:
        return self.origin[k] + self.spacing * np.arange(self.dims[k])

    def points(self) -> np.ndarray:
        """All node coordinates, shape dims + (3,)."""
        xs = np.meshgrid(self.axis(0), self.axis(1), self.axis(2), indexing="ij")
        return np.stack(xs, axis=-1)

    def node_position(self, idx) -> np.ndarray:
        return np.asarray(self.origin) + self.spacing * np.asarray(idx, dtype=float)


def _same_lattice(a: Lattice, b: Lattice) -> None:
    if a != b:
        raise LatticeMismatch(f"lattices differ: {a} vs {b}")


@dataclass(frozen=True)
class ScalarGrid:
    """One complex value per lattice node."""

    lattice: Lattice
    values: np.ndarray
    margin: int = 0

    def __post_init__(self):
        if self.values.shape != self.lattice.dims:
            raise ValueError("values shape does not match lattice dims")

    @classmethod
    def from_function(cls, lattice: Lattice, fn: Callable[[np.ndarray], np.ndarray]) -> "ScalarGrid":
        """Sample fn(points) where points has shape (..., 3)."""
        return cls(lattice, np.asarray(fn(lattice.points()), dtype=complex))

    def with_values(self, values: np.ndarray, margin: int | None = None) -> "ScalarGrid":
        return ScalarGrid(self.lattice, values, self.margin if margin is None else margin)

    def interior_max(self, margin: int | None = None) -> float:
        return max_abs_interior(self.values, widen_margin(margin, self.margin))


@dataclass(frozen=True)
class QuaternionGrid:
    """One biquaternion per lattice node, components on the trailing axis."""

    lattice: Lattice
    values: np.ndarray
    margin: int = 0

    def __post_init__(self):
        if self.values.shape != self.lattice.dims + (4,):
            raise ValueError("values shape does not match lattice dims + (4,)")

    @classmethod
    def from_function(cls, lattice: Lattice, fn: Callable[[np.ndarray], np.ndarray]) -> "QuaternionGrid":
        """Sample fn(points) -> (..., 4) components."""
        return cls(lattice, np.asarray(fn(lattice.points()), dtype=complex))

    @classmethod
    def from_scalar_grid(cls, g: ScalarGrid) -> "QuaternionGrid":
        out = np.zeros(g.lattice.dims + (4,), dtype=complex)
        out[..., 0] = g.values
        return cls(g.lattice, out, g.margin)

    @classmethod
    def from_vector_values(cls, lattice: Lattice, v: np.ndarray, margin: int = 0) -> "QuaternionGrid":
        out = np.zeros(lattice.dims + (4,), dtype=complex)
        out[..., 1:] = v
        return cls(lattice, out, margin)

    @property
    def scalar(self) -> np.ndarray:
        return self.values[..., 0]

    @property
    def vector(self) -> np.ndarray:
        return self.values[..., 1:]

    def bq(self) -> Biquaternion:
        return Biquaternion(self.values)

    def with_values(self, values: np.ndarray, margin: int | None = None) -> "QuaternionGrid":
        return QuaternionGrid(self.lattice, values, self.margin if margin is None else margin)

    def interior_max(self, margin: int | None = None) -> float:
        return max_abs_interior(self.values, widen_margin(margin, self.margin))

    # pointwise helpers; margins combine to the max of the operands

    def __add__(self, other: "QuaternionGrid") -> "QuaternionGrid":
        _same_lattice(self.lattice, other.lattice)
        return QuaternionGrid(self.lattice, self.values + other.values, max(self.margin, other.margin))

    def __sub__(self, other: "QuaternionGrid") -> "QuaternionGrid":
        _same_lattice(self.lattice, other.lattice)
        return QuaternionGrid(self.lattice, self.values - other.values, max(self.margin, other.margin))

    def __neg__(self) -> "QuaternionGrid":
        return self.with_values(-self.values)

    def scale(self, s) -> "QuaternionGrid":
        """Multiply by a complex number or a nodewise complex array."""
        s = np.asarray(s, dtype=complex)
        return self.with_values(self.values * s[..., None] if s.ndim else self.values * s)


@dataclass(frozen=True)
class SpaceTimeLattice:
    """A spatial lattice swept over uniformly spaced times."""

    space: Lattice
    t0: float
    dt: float
    nt: int

    def __post_init__(self):
        if self.dt <= 0.0 or self.nt < 1:
            raise ValueError("need dt > 0 and nt >= 1")

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.nt)


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Biquaternion samples on a space-time lattice, shape (nt,) + dims + (4,)."""

    lattice: SpaceTimeLattice
    values: np.ndarray
    margin_t: int = 0
    margin_s: int = 0

    def __post_init__(self):
        expect = (self.lattice.nt,) + self.lattice.space.dims + (4,)
        if self.values.shape != expect:
            raise ValueError(f"values shape {self.values.shape} != {expect}")

    @classmethod
    def from_function(cls, lattice: SpaceTimeLattice, fn: Callable[[float, np.ndarray], np.ndarray]) -> "SpaceTimeGrid":
        """Sample fn(t, points) -> (..., 4) for each time level."""
        pts = lattice.space.points()
        slices = [np.asarray(fn(t, pts), dtype=complex) for t in lattice.times()]
        return cls(lattice, np.stack(slices, axis=0))

    def interior_max(self, margin_t: int | None = None, margin_s: int | None = None) -> float:
        return max_abs_interior(self.values, widen_margin(margin_s, self.margin_s), widen_margin(margin_t, self.margin_t))


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------


def _stencil_output(shape: tuple, axes) -> tuple[np.ndarray, tuple]:
    """Complex array of ``shape`` with NaN on the face layer of each stencil
    axis, and the index of its interior box, which the caller fills."""
    out = np.empty(shape, dtype=complex)
    box = [slice(None)] * len(shape)
    for ax in axes:
        if shape[ax] < 3:
            raise GridTooSmall(f"axis {ax} has {shape[ax]} nodes, need 3")
        np.moveaxis(out, ax, 0)[[0, -1]] = np.nan
        box[ax] = slice(1, -1)
    return out, tuple(box)


def _central(values: np.ndarray, axis: int, order: int, axes) -> np.ndarray:
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


def diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Central first derivative along axis; NaN on the one-node boundary."""
    out, box = _stencil_output(values.shape, (axis,))
    out[box] = _central(values, axis, 1, (axis,)) / (2.0 * h)
    return out


def grad(values: np.ndarray, h: float, axes=(0, 1, 2)) -> np.ndarray:
    """Gradient of a scalar array, components stacked on a new trailing axis."""
    out, box = _stencil_output(values.shape + (3,), axes)
    out[box] = np.stack([_central(values, ax, 1, axes) for ax in axes], axis=-1) / (2.0 * h)
    return out


def div(vec_values: np.ndarray, h: float, axes=(0, 1, 2)) -> np.ndarray:
    """Divergence of a (..., 3) vector array."""
    out, box = _stencil_output(vec_values.shape[:-1], axes)
    out[box] = sum(_central(vec_values[..., k], ax, 1, axes) for k, ax in enumerate(axes)) / (2.0 * h)
    return out


def rot(vec_values: np.ndarray, h: float, axes=(0, 1, 2)) -> np.ndarray:
    """Curl of a (..., 3) vector array."""
    out, box = _stencil_output(vec_values.shape, axes)

    def d(k, j):  # undivided derivative of component k along axes[j]
        return _central(vec_values[..., k], axes[j], 1, axes)

    out[box] = np.stack([d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)], axis=-1) / (2.0 * h)
    return out


def laplacian(values: np.ndarray, h: float, axes=(0, 1, 2)) -> np.ndarray:
    """Compact 7-point Laplacian of a scalar array."""
    out, box = _stencil_output(values.shape, axes)
    out[box] = sum(_central(values, ax, 2, axes) for ax in axes) / (h * h)
    return out


def dirac(values: np.ndarray, h: float, axes=(0, 1, 2)) -> np.ndarray:
    """Dirac operator on (..., 4) quaternion components.

    Scalar part -div of the vector part, vector part grad of the scalar
    part plus rot of the vector part; ``axes`` names the three spatial axes.
    """
    out, box = _stencil_output(values.shape, axes)

    def d(c, j):  # undivided derivative of component c along axes[j]
        return _central(values[..., c], axes[j], 1, axes)

    inner = out[box]
    inner[..., 0] = -(d(1, 0) + d(2, 1) + d(3, 2))
    inner[..., 1] = d(0, 0) + (d(3, 1) - d(2, 2))
    inner[..., 2] = d(0, 1) + (d(1, 2) - d(3, 0))
    inner[..., 3] = d(0, 2) + (d(2, 0) - d(1, 1))
    inner /= 2.0 * h
    return out


def widen_margin(requested: int | None, *carried: int) -> int:
    """The margin rule: a requested margin widens the carried ones, never narrows them."""
    return max(requested or 0, *carried)


def max_abs_interior(values: np.ndarray, margin: int, margin_t: int | None = None) -> float:
    """Max componentwise modulus over the interior that excludes the margin.

    ``margin`` layers leave each face of the space axes 0-2, or of axes 1-3
    when ``margin_t`` is given and axis 0 is time, which loses ``margin_t``.
    Raises if the interior is empty or still contains non-finite values,
    which would mean an operator was applied with too small a margin.
    """
    margins = (margin,) * 3 if margin_t is None else (margin_t,) + (margin,) * 3
    if any(2 * m >= n for m, n in zip(margins, values.shape)):
        raise GridTooSmall(f"margins {margins} leave no interior in shape {values.shape}")
    inner = values[tuple(slice(m, n - m) for m, n in zip(margins, values.shape))]
    if not np.all(np.isfinite(inner)):
        raise ValueError("non-finite values inside the declared interior")
    return float(np.max(np.abs(inner)))
