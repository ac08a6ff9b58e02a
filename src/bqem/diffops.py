"""Grid realizations of the Dirac operator D and the identities built on it.

D acts on quaternion fields as Df = -div(fv) + grad(f0) + rot(fv); here it
is ``grids.dirac``, second-order central differences only, so every
application adds one NaN face layer to each side of the lattice.  On top of D
this module verifies, on manufactured grids, the operator identities

    Lap + alpha^2            = -(D + alpha)(D - alpha)
    -Lap + nu                = (D + M^w)(D - M^w)         w = Df/f, nu = Lap f/f
    div p grad + q           = -sqrt(p) (D + M^w)(D - M^w) sqrt(p) .
                               with f = sqrt(p) u0

plus the first-order reduction F = f D(f^-1 g), its quadrature inverse, and
the quaternionic Vekua equation (D - (Df/f) C_H) W = 0.  Every residual
routine returns the maximum componentwise modulus over the valid interior,
which is the quantity the refinement-ratio checks watch; the interior is
read from the NaN faces (``grids.max_abs_interior``), and ``margin=`` only
widens it.

Fields are plain complex arrays on a Lattice: shape ``dims`` for a scalar
field, ``dims + (4,)`` for a quaternion field, which ``algebra._components``
builds from its scalar and vector parts.  A PotentialSlot is a lattice and
an f, checked once to lie on it and not to vanish; nu = Lap f/f and
w = Df/f are derived from f when a routine reads them.  Every routine takes
the geometry from the slot or from the lattice it is handed, and the
conductivity residual builds its slot from its own p and u0.  M^p denotes
right multiplication by p, f -> f p (pointwise, p is never differentiated),
and ^pM left multiplication f -> p f; both are ``algebra._mul_components``
with the operands in that order.  D + M^p has one routine,
``_dirac_plus_M``, and grad(f)/f one, ``_log_derivative``; ``inhomog``
builds its static split from both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _CONJ, _components, _mul_components
from .errors import BaseOutOfGrid, VanishingF
from .grids import (
    Lattice,
    _on_lattice,
    _valid_box,
    dirac,
    div,
    grad,
    laplacian,
    max_abs_interior,
)

# Division by f appears throughout; below this the slot is rejected.
VANISHING_F_TOL = 1e-8


@dataclass(frozen=True)
class PotentialSlot:
    """A nonvanishing particular solution f, a complex array of shape
    ``lattice.dims``, and the potentials derived from it on the grid.

    nu = Lap f / f is computed on the grid, not analytically, so both sides
    of the factorization identities share the same discretization error.
    """

    lattice: Lattice
    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", _on_lattice(self.f, self.lattice, "f"))
        _check_nonvanishing(self.f, "f")

    def nu(self) -> np.ndarray:
        """Lap f / f, with one NaN face layer."""
        return laplacian(self.f, self.lattice.spacing) / self.f

    def df_over_f(self) -> np.ndarray:
        """Df/f as a purely vectorial dims + (4,) array, with one NaN face layer."""
        return _log_derivative(self.f, self.lattice.spacing)


def _log_derivative(f: np.ndarray, h: float) -> np.ndarray:
    """grad(f)/f as a purely vectorial dims + (4,) array, with one NaN face layer."""
    return _components(vector=grad(f, h) / f[..., None])


def _dirac_plus_M(q: np.ndarray, p: np.ndarray, h: float) -> np.ndarray:
    """(D + M^p) q = D q + q p for a quaternion field q on [(nt,) +] dims."""
    return dirac(q, h) + _mul_components(q, p)


def _check_nonvanishing(values: np.ndarray, name: str) -> None:
    """Reject ``values`` whose modulus drops below VANISHING_F_TOL at a
    finite node; the NaN faces a stencil wrote are not nodes of the field."""
    m = float(np.min(np.abs(values), where=np.isfinite(values), initial=np.inf))
    if m < VANISHING_F_TOL:
        raise VanishingF(f"min |{name}| = {m:.3e} below {VANISHING_F_TOL}")


def helmholtz_factorization_residual(alpha: complex, g, lattice: Lattice, margin: int = 0) -> float:
    """Max interior norm of (Lap + alpha^2) g + (D + alpha)(D - alpha) g.

    ``margin`` may widen the excluded boundary band beyond the required
    minimum so refinement levels can be compared over one physical region.
    """
    g = _on_lattice(g, lattice, "g")
    h = lattice.spacing
    qg = _components(g)
    inner = dirac(qg, h) - alpha * qg
    res = dirac(inner, h) + alpha * inner
    res[..., 0] += laplacian(g, h) + alpha * alpha * g
    return max_abs_interior(res, margin)


def _dirac_minus_plus_M(slot: PotentialSlot, g: np.ndarray) -> np.ndarray:
    """(D + M^w)(D - M^w) g for a scalar g, w = Df/f."""
    h = slot.lattice.spacing
    w = slot.df_over_f()
    return _dirac_plus_M(_dirac_plus_M(_components(g), -w, h), w, h)


def schrodinger_factorization_residual(slot: PotentialSlot, g, margin: int = 0) -> float:
    """Max interior norm of (D + M^w)(D - M^w) g - (-Lap + nu) g, w = Df/f."""
    g = _on_lattice(g, slot.lattice, "g")
    res = _dirac_minus_plus_M(slot, g)
    res[..., 0] -= -laplacian(g, slot.lattice.spacing) + slot.nu() * g
    return max_abs_interior(res, margin)


def conductivity_factorization_residual(lattice: Lattice, p, q, u0, phi, margin: int = 0) -> float:
    """Max interior norm of (div p grad + q) phi + sqrt(p) (D + M^w)(D - M^w) sqrt(p) phi,
    w = Df/f with f = sqrt(p) u0."""
    p, q, u0, phi = (_on_lattice(v, lattice, name) for v, name in zip((p, q, u0, phi), ("p", "q", "u0", "phi")))
    _check_nonvanishing(p, "p")
    _check_nonvanishing(u0, "u0")
    sp = np.sqrt(p)
    slot = PotentialSlot(lattice, sp * u0)
    h = lattice.spacing
    lhs = div(p[..., None] * grad(phi, h), h) + q * phi
    res = sp[..., None] * _dirac_minus_plus_M(slot, sp * phi)
    res[..., 0] += lhs
    return max_abs_interior(res, margin)


def darboux_transform(slot: PotentialSlot, g) -> np.ndarray:
    """F = f D(f^-1 g); purely vectorial, solves (D + M^{Df/f}) F = 0 when g does."""
    g = _on_lattice(g, slot.lattice, "g")
    return dirac(_components(g / slot.f), slot.lattice.spacing) * slot.f[..., None]


def dirac_residual(slot: PotentialSlot, F, margin: int = 0) -> float:
    """Max interior norm of (D + M^{Df/f}) F."""
    F = _on_lattice(F, slot.lattice, "F", (4,))
    return max_abs_interior(_dirac_plus_M(F, slot.df_over_f(), slot.lattice.spacing), margin)


def _cumulative_simpson_from(f: np.ndarray, base: int, h: float, axis: int = 0) -> np.ndarray:
    """Cumulative integral from node ``base`` along ``axis``.

    Composite Simpson for even offsets; odd offsets add one subinterval
    integrated with the local three-point parabola, keeping fourth-order
    accuracy everywhere (exact through quadratics).
    """
    f = np.moveaxis(np.asarray(f, dtype=complex), axis, 0)
    n = f.shape[0]
    out = np.empty_like(f)
    out[base] = 0.0
    for i in range(base + 1, n):
        if (i - base) % 2 == 0:
            out[i] = out[i - 2] + (h / 3.0) * (f[i - 2] + 4.0 * f[i - 1] + f[i])
        elif i + 1 < n:
            out[i] = out[i - 1] + (h / 12.0) * (5.0 * f[i - 1] + 8.0 * f[i] - f[i + 1])
        else:
            out[i] = out[i - 1] + (h / 12.0) * (-f[i - 2] + 8.0 * f[i - 1] + 5.0 * f[i])
    for i in range(base - 1, -1, -1):
        if (base - i) % 2 == 0:
            out[i] = out[i + 2] - (h / 3.0) * (f[i] + 4.0 * f[i + 1] + f[i + 2])
        elif i + 2 < n:
            out[i] = out[i + 1] - (h / 12.0) * (5.0 * f[i] + 8.0 * f[i + 1] - f[i + 2])
        else:
            out[i] = out[i + 1] - (h / 12.0) * (-f[i - 1] + 8.0 * f[i] + 5.0 * f[i + 1])
    return np.moveaxis(out, 0, axis)


def antiderivative(G, lattice: Lattice, base: tuple[int, int, int]) -> np.ndarray:
    """Path antiderivative of a purely vectorial dims + (4,) field.

    Integrates G1 along the x-leg from the base node, then G2 along y, then
    G3 along z (this leg order is fixed; the free constant is taken as 0):

        A[G](x,y,z) = int G1(xi,y0,z0) dxi + int G2(x,zeta,z0) dzeta
                      + int G3(x,y,eta) deta .

    On gradient fields this inverts grad up to the value at the base node.
    Composite-Simpson quadrature; output is defined on the valid interior
    of G, the box inside its NaN faces, and NaN outside it.
    """
    G = _on_lattice(G, lattice, "G", (4,))
    box = _valid_box(G)
    if not all(s.start <= b < s.stop for b, s in zip(base, box)):
        raise BaseOutOfGrid(f"base {base} outside the valid interior {box} of dims {lattice.dims}")

    vals = G[box]
    scale = max(1.0, float(np.max(np.abs(vals[..., 1:]))))
    if float(np.max(np.abs(vals[..., 0]))) > 1e-12 * scale:
        raise ValueError("antiderivative needs a purely vectorial field")
    h = lattice.spacing
    b = tuple(i - s.start for i, s in zip(base, box))

    leg_x = _cumulative_simpson_from(vals[:, b[1], b[2], 1], b[0], h)
    leg_y = _cumulative_simpson_from(vals[:, :, b[2], 2], b[1], h, axis=1)
    leg_z = _cumulative_simpson_from(vals[..., 3], b[2], h, axis=2)
    acc = leg_x[:, None, None] + leg_y[:, :, None] + leg_z

    out = np.full(lattice.dims, np.nan, dtype=complex)
    out[box] = acc
    return out


def _vekua_image(slot: PotentialSlot, W: np.ndarray) -> np.ndarray:
    """D W - (Df/f) C_H(W), carrying the NaN faces of both terms."""
    return dirac(W, slot.lattice.spacing) - _mul_components(slot.df_over_f(), W * _CONJ)


def vekua_residual(slot: PotentialSlot, W, margin: int = 0) -> float:
    """Max interior norm of D W - (Df/f) C_H(W)."""
    W = _on_lattice(W, slot.lattice, "W", (4,))
    return max_abs_interior(_vekua_image(slot, W), margin)


def generating_quartet(slot: PotentialSlot) -> list[np.ndarray]:
    """The four exact solutions f, i1/f, i2/f, i3/f of the Vekua equation."""
    f = slot.f
    return [_components(f)] + [_components(vector=unit / f[..., None]) for unit in np.eye(3)]


def coefficients_to_vekua(slot: PotentialSlot, w) -> np.ndarray:
    """Expand a coefficient field w = phi0 + sum phi_k i_k over the quartet:
    W = phi0 f + sum phi_k i_k / f."""
    w = _on_lattice(w, slot.lattice, "w", (4,))
    f = slot.f
    return _components(w[..., 0] * f, w[..., 1:] / f[..., None])


def vekua_coefficient_identity_residual(slot: PotentialSlot, w, margin: int = 0) -> float:
    """Residual of the coefficient form of the Vekua equation.

    Writing W = phi0 f + sum phi_k i_k / f with w = phi0 + sum phi_k i_k,
    the Vekua residual of W equals, nodewise,

        ((1 + f^2)/(2 f)) ( D w - ((1 - f^2)/(1 + f^2)) D C_H(w) ) ,

    so w solves D w = ((1 - f^2)/(1 + f^2)) D C_H(w) exactly when W solves
    the Vekua equation.  Established for real positive f only: a complex f
    can make 1 + f^2 vanish, which the transformation does not cover.
    Returns the max interior mismatch between the two sides.
    """
    w = _on_lattice(w, slot.lattice, "w", (4,))
    f = slot.f
    finite = np.isfinite(f)  # the NaN faces a stencil wrote are not nodes of f
    im = np.max(np.abs(np.imag(f)), where=finite, initial=0.0)
    if im > 0.0 or np.min(np.real(f), where=finite, initial=np.inf) <= 0.0:
        raise ValueError("coefficient identity requires real positive f")
    fr = np.real(f)
    h = slot.lattice.spacing

    Dw = dirac(w, h)
    Dwbar = dirac(w * _CONJ, h)
    ratio = ((1.0 - fr * fr) / (1.0 + fr * fr))[..., None]
    lhs = ((1.0 + fr * fr) / (2.0 * fr))[..., None] * (Dw - ratio * Dwbar)

    rhs = _vekua_image(slot, coefficients_to_vekua(slot, w))
    return max_abs_interior(lhs - rhs, margin)
