"""Arithmetic of complex quaternions (biquaternions).

A biquaternion is q0 + q1*i1 + q2*i2 + q3*i3 with complex components q_k.
The quaternionic units obey i1*i2 = -i2*i1 = i3 (cyclically), ik*ik = -1,
and the complex imaginary unit 1j commutes with all of them.  The algebra
is associative but not commutative and contains zero divisors, e.g.
(1 + 1j*I1) * (1 - 1j*I1) == 0.

Values are immutable and broadcast like numpy arrays: a Biquaternion holds
a complex array of shape (..., 4) and every operation acts elementwise on
the leading axes, so a single number and a whole field of values share one
code path.  All operations are pure functions; concurrent use needs no
synchronization.

Inside the package most fields are plain (..., 4) component arrays, not
Biquaternion values.  ``_components`` is the one place such an array is
built from a scalar and a vector part, ``_CONJ`` is the one spelling of
the quaternion conjugate on components (multiply by it), and ``_cross``
the one cross product of (..., 3) arrays.
"""

from __future__ import annotations

import numpy as np

# The quaternion conjugate, componentwise.
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def _components(scalar=0.0, vector=(0.0, 0.0, 0.0)) -> np.ndarray:
    """A fresh complex (..., 4) array with scalar part ``scalar`` and vector
    part ``vector`` (trailing length 3), broadcast against each other."""
    s = np.asarray(scalar)
    v = np.asarray(vector)
    if v.ndim == 0 or v.shape[-1] != 3:
        raise ValueError("vector part must have trailing length 3")
    out = np.empty(np.broadcast_shapes(s.shape, v.shape[:-1]) + (4,), dtype=complex)
    out[..., 0] = s
    out[..., 1:] = v
    return out


def _mul_components(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quaternion product on (..., 4) component arrays.

    Scalar part a0*b0 - <av, bv>, vector part a0*bv + b0*av + av x bv,
    which is the multiplication table of the units written out.  Each
    component's last subtraction writes straight into one preallocated
    result, so no per-component temporary is copied again.
    """
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    np.subtract(a0 * b0 - a1 * b1 - a2 * b2, a3 * b3, out=out[..., 0])
    np.subtract(a0 * b1 + b0 * a1 + a2 * b3, a3 * b2, out=out[..., 1])
    np.subtract(a0 * b2 + b0 * a2 + a3 * b1, a1 * b3, out=out[..., 2])
    np.subtract(a0 * b3 + b0 * a3 + a1 * b2, a2 * b1, out=out[..., 3])
    return out


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the trailing length-3 axis, broadcast like ``np.cross``.

    The components are ``np.cross``'s products and differences written
    out, so the result has its bits without its per-call axis handling.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


class Biquaternion:
    """Immutable complex quaternion, possibly a whole array of them."""

    __slots__ = ("_c",)

    def __init__(self, components):
        c = np.array(components, dtype=complex)
        if c.ndim == 0 or c.shape[-1] != 4:
            raise ValueError("components must have trailing length 4")
        c.setflags(write=False)
        self._c = c

    @classmethod
    def _own(cls, components: np.ndarray) -> "Biquaternion":
        """Wrap a fresh complex (..., 4) array that no one else writes,
        without the copy ``__init__`` makes; the array becomes read-only."""
        components.setflags(write=False)
        q = cls.__new__(cls)
        q._c = components
        return q

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_parts(cls, scalar=0.0, vector=(0.0, 0.0, 0.0)) -> "Biquaternion":
        return cls._own(_components(scalar, vector))

    @classmethod
    def from_scalar(cls, scalar) -> "Biquaternion":
        return cls.from_parts(scalar=scalar)

    @classmethod
    def from_vector(cls, vector) -> "Biquaternion":
        return cls.from_parts(vector=vector)

    # -- views -------------------------------------------------------------

    @property
    def components(self) -> np.ndarray:
        """Read-only (..., 4) complex array backing this value."""
        return self._c

    @property
    def shape(self) -> tuple:
        return self._c.shape[:-1]

    @property
    def scalar(self) -> np.ndarray:
        return self._c[..., 0]

    @property
    def vector(self) -> np.ndarray:
        return self._c[..., 1:]

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Biquaternion):
            return Biquaternion._own(_mul_components(self._c, other._c))
        return Biquaternion._own(self._c * np.asarray(other, dtype=complex)[..., None])

    def __rmul__(self, other):
        # other is a plain number/array: scaling commutes
        return Biquaternion._own(np.asarray(other, dtype=complex)[..., None] * self._c)

    def __truediv__(self, other):
        return Biquaternion._own(self._c / np.asarray(other, dtype=complex)[..., None])

    def __add__(self, other):
        if isinstance(other, Biquaternion):
            return Biquaternion._own(self._c + other._c)
        return self + Biquaternion.from_scalar(other)

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        if isinstance(other, Biquaternion):
            return Biquaternion._own(self._c - other._c)
        return self - Biquaternion.from_scalar(other)

    def __neg__(self):
        return Biquaternion._own(-self._c)

    def quat_conj(self) -> "Biquaternion":
        return Biquaternion._own(self._c * _CONJ)

    def complex_conj(self) -> "Biquaternion":
        return Biquaternion._own(np.conj(self._c))

    # -- batch helpers -----------------------------------------------------

    def __getitem__(self, idx) -> "Biquaternion":
        return Biquaternion(self._c[idx])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._c)))

    def __repr__(self) -> str:
        return f"Biquaternion({np.array2string(self._c, separator=', ')})"


ONE = Biquaternion((1, 0, 0, 0))
I1 = Biquaternion((0, 1, 0, 0))
I2 = Biquaternion((0, 0, 1, 0))
I3 = Biquaternion((0, 0, 0, 1))


def dot(a: Biquaternion, b: Biquaternion) -> np.ndarray:
    """Euclidean (bilinear, not Hermitian) product of the vector parts."""
    return np.sum(a.vector * b.vector, axis=-1)


def cross(a: Biquaternion, b: Biquaternion) -> Biquaternion:
    """Cross product of the vector parts, as a purely vectorial biquaternion."""
    return Biquaternion.from_vector(_cross(a.vector, b.vector))
